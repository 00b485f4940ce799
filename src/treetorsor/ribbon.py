"""Ribbon graphs: combinatorial maps, face tracing, genus, spanning trees.

A ribbon graph is a loopless connected multigraph together with a cyclic
ordering of the incident edges around each vertex (a rotation system).
Vertex and edge identifiers are opaque strings; every deterministic order
used in this package is file order (the order identifiers appear in the
input).

Graphs are interned: a constructor call with the same vertices, edges and
rotation returns the one live object, held by the weak table ``_GRAPHS``.
Equality and hashing are therefore identity, and every cache keyed on a
graph hits by identity.

Spanning trees, divisor classes and break divisors depend only on the
underlying graph, not on the rotation.  Each graph therefore carries a
``skeleton``: the graph with the same vertices and edges whose every rotation
is file order (``rotation == incident``).  The caches of the functions that
never read the rotation (``rotation_free``) are keyed on the skeleton, so all
rotation systems of one graph share their entries, and the objects those
functions return carry the skeleton.
"""

from __future__ import annotations

import json
import weakref
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    EdgeInTree, MissingVertex, NotIncident, NotSpanningTree, ParseError, UnknownEdge, ValidationError,
)


class Dart(NamedTuple):
    """An edge together with the endpoint it leaves."""

    edge: str
    tail: str


SpanningTree = frozenset  # of edge ids

# (vertices, edges, rotation cycles in vertex order) -> the live graph
_GRAPHS: weakref.WeakValueDictionary[tuple, RibbonGraph] = weakref.WeakValueDictionary()


def _intern_key(
    vertices: Sequence[str],
    edges: Sequence[tuple[str, tuple[str, str]]],
    rotation: Mapping[str, Sequence[str]],
) -> tuple:
    vertices = tuple(vertices)
    try:
        cycles = tuple(tuple(rotation[v]) for v in vertices)
    except KeyError:
        missing = sorted({v for v in vertices if v not in rotation})
        raise ValidationError(
            "rotation-mismatch", f"no rotation given for vertices {missing}"
        ) from None
    return vertices, tuple((eid, (a, b)) for eid, (a, b) in edges), cycles


def rotation_free(fn):
    """Cache ``fn(G, *args)``, whose answer never reads the rotation of
    ``G``, on ``G.skeleton``: the body always runs on the skeleton, and every
    rotation system of one graph shares the entry."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def wrapper(G, *args):
        return cached(G.skeleton, *args)

    wrapper.cache_info, wrapper.cache_clear = cached.cache_info, cached.cache_clear
    return wrapper


class RibbonGraph:
    """Immutable connected loopless multigraph with a rotation system.

    ``vertices`` and ``edges`` keep file order; ``rotation[v]`` is the cyclic
    list of edge ids around ``v``.  Because the graph is loopless, an edge id
    determines a unique dart at each of its endpoints, so per-vertex edge-id
    lists describe the rotation unambiguously.  Equal constructor calls return
    the same object, so ``==`` and ``hash`` are those of identity.  A graph
    with no edges, a loop or more than one component raises ``ValidationError``.
    """

    __slots__ = (
        "vertices",
        "edges",
        "rotation",
        "ends",
        "edge_ids",
        "incident",
        "_succ",
        "_pred",
        "_vertex_pos",
        "_edge_bit",
        "_key",
        "skeleton",
        "__weakref__",
    )

    def __new__(
        cls,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, tuple[str, str]]],
        rotation: Mapping[str, Sequence[str]],
    ):
        if not edges:
            raise ValidationError("empty", "graph has no edges")
        key = _intern_key(vertices, edges, rotation)
        G = _GRAPHS.get(key)
        if G is None:
            G = super().__new__(cls)
            G._key = key
        return G

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, tuple[str, str]]],
        rotation: Mapping[str, Sequence[str]],
    ):
        """Build, validate and register a new graph; an interned one returns at once."""
        if hasattr(self, "skeleton"):
            return
        self.vertices, self.edges, cycles = self._key
        self.rotation = dict(zip(self.vertices, cycles))
        self.ends = {eid: pair for eid, pair in self.edges}
        self.edge_ids = tuple(eid for eid, _ in self.edges)
        self._vertex_pos = {v: i for i, v in enumerate(self.vertices)}
        self._edge_bit = {eid: 1 << i for i, eid in enumerate(self.edge_ids)}

        if len(self._vertex_pos) != len(self.vertices):
            raise ValidationError("duplicate-id", "duplicate vertex identifier")
        if len(self._edge_bit) != len(self.edge_ids):
            raise ValidationError("duplicate-id", "duplicate edge identifier")
        for eid, (a, b) in self.edges:
            if a == b:
                raise ValidationError("loop", f"edge {eid!r} is a loop at {a!r}")
            if a not in self._vertex_pos or b not in self._vertex_pos:
                raise ValidationError(
                    "rotation-mismatch", f"edge {eid!r} has unknown endpoint"
                )

        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for eid, (a, b) in self.edges:
            inc[a].append(eid)
            inc[b].append(eid)
        self.incident = {v: tuple(es) for v, es in inc.items()}

        self._succ: dict[tuple[str, str], str] = {}
        self._pred: dict[tuple[str, str], str] = {}
        for v, cycle in self.rotation.items():
            if sorted(cycle) != sorted(self.incident[v]):
                raise ValidationError(
                    "rotation-mismatch",
                    f"rotation at {v!r} is not a permutation of its incident edges",
                )
            k = len(cycle)
            for i, e in enumerate(cycle):
                dart = (v, e)
                self._succ[dart] = cycle[(i + 1) % k]
                self._pred[dart] = cycle[(i - 1) % k]
        if len(reach(self, self.vertices[:1])) != len(self.vertices):
            raise ValidationError("disconnected", "underlying graph is not connected")

        _GRAPHS[self._key] = self
        if self.rotation == self.incident:
            self.skeleton = self
        else:
            self.skeleton = RibbonGraph(self.vertices, self.edges, self.incident)

    def __reduce__(self):
        return RibbonGraph, (self.vertices, self.edges, self.rotation)

    def __repr__(self) -> str:
        return f"RibbonGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"

    # -- basic accessors --------------------------------------------------

    @property
    def genus_comb(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def other_end(self, edge: str, v: str) -> str:
        try:
            a, b = self.ends[edge]
        except KeyError:
            raise UnknownEdge(f"unknown edge {edge!r}") from None
        if v == a:
            return b
        if v == b:
            return a
        raise NotIncident(f"edge {edge!r} is not incident to vertex {v!r}")

    def next_edge(self, v: str, e: str) -> str:
        """Rotation successor of ``e`` at ``v``."""
        return self._succ[(v, e)]

    def darts(self) -> list[Dart]:
        out = []
        for eid, (a, b) in self.edges:
            out.append(Dart(eid, a))
            out.append(Dart(eid, b))
        return out

    def head(self, d: Dart) -> str:
        return self.other_end(d.edge, d.tail)

    def reverse(self, d: Dart) -> Dart:
        return Dart(d.edge, self.other_end(d.edge, d.tail))

    def vertex_pos(self, v: str) -> int:
        return self._vertex_pos[v]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": list(self.vertices),
                "edges": [{"id": eid, "ends": list(pair)} for eid, pair in self.edges],
                "rotation": {v: list(self.rotation[v]) for v in self.vertices},
            },
            indent=2,
        )


@dataclass(frozen=True)
class FaceDecomposition:
    """The orbits of the face-successor permutation, plus the derived genus."""

    faces: tuple[tuple[Dart, ...], ...]
    topological_genus: int


def parse_ribbon_graph(text: str) -> RibbonGraph:
    """Parse the JSON graph file format; the constructor validates the graph."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("graph file must be a JSON object")
    try:
        vertices = obj["vertices"]
        raw_edges = obj["edges"]
        rotation = obj["rotation"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError('"vertices" must be a list of strings')
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list')
    edges = []
    for entry in raw_edges:
        try:
            eid, ends = entry["id"], entry["ends"]
            a, b = ends
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed edge entry {entry!r}") from exc
        if not (isinstance(ends, list) and isinstance(eid, str) and isinstance(a, str)
                and isinstance(b, str)):
            raise ParseError(f"edge ids must be strings and ends lists of two strings: {entry!r}")
        edges.append((eid, (a, b)))
    # the constructor rejects an edgeless graph before it reads the rotation
    if edges and not (isinstance(rotation, dict) and all(
        isinstance(r, list) and all(isinstance(e, str) for e in r) for r in rotation.values()
    )):
        raise ParseError('"rotation" must map vertices to lists of edge ids')
    return RibbonGraph(vertices, edges, rotation)


def face_successor(G: RibbonGraph, d: Dart) -> Dart:
    """Next dart of the face containing ``d``.

    Convention: from dart d (tail u, head w), continue with the rotation
    successor at w of the reverse dart of d.  This fixes one of the two
    mirror conventions once and for all; planar_duality depends on it.
    """
    w = G.head(d)
    return Dart(G.next_edge(w, d.edge), w)


@lru_cache(maxsize=None)
def trace_faces(G: RibbonGraph) -> FaceDecomposition:
    """Decompose the darts of ``G`` into faces and read off the genus."""
    remaining = dict.fromkeys(G.darts())
    faces = []
    while remaining:
        start = next(iter(remaining))
        face = []
        d = start
        while True:
            face.append(d)
            del remaining[d]
            d = face_successor(G, d)
            if d == start:
                break
        faces.append(tuple(face))
    euler = len(G.vertices) - len(G.edges) + len(faces)
    genus2 = 2 - euler
    assert genus2 % 2 == 0 and genus2 >= 0, "Euler characteristic must be even and <= 2"
    return FaceDecomposition(tuple(faces), genus2 // 2)


@rotation_free
def spanning_trees(G: RibbonGraph) -> tuple[SpanningTree, ...]:
    """All spanning trees, lexicographic in edge file order."""
    n = len(G.vertices)
    root = G.vertices[:1]
    subsets = map(frozenset, combinations(G.edge_ids, n - 1))
    return tuple(T for T in subsets if len(reach(G, root, T)) == n)


@rotation_free
def _shared_tree(G: RibbonGraph, T: frozenset) -> frozenset:
    """The first tree equal to ``T`` seen for the underlying graph of ``G``;
    a non-tree raises ``NotSpanningTree``.  Every tree a public function takes
    or returns passes here, so each distinct tree is checked once per
    underlying graph (a raise is not cached) and the caches hold one object
    per spanning tree, however many entries and rotation systems reach it.
    """
    if not is_spanning_tree(G, T):
        raise NotSpanningTree(f"{sorted(T)} is not a spanning tree")
    return T


def known_vertex(G: RibbonGraph, v: str) -> str:
    if v not in G.rotation:
        raise MissingVertex(f"unknown vertex {v!r}")
    return v


def is_spanning_tree(G: RibbonGraph, T: frozenset) -> bool:
    n = len(G.vertices)
    return len(T) == n - 1 and T <= G.ends.keys() and len(reach(G, G.vertices[:1], T)) == n


def reach(
    G: RibbonGraph,
    sources: Iterable[str],
    edges: Container[str] | None = None,
    lifo: bool = False,
    heads: Mapping[str, str] | None = None,
) -> dict[str, str | None]:
    """The vertices reachable from ``sources`` through ``edges`` (all edges
    when None), in discovery order, each mapped to the edge it was first
    reached by (None for a source).

    The search is breadth-first, or newest-first with ``lifo``; a vertex is
    marked when discovered and ``G.incident[v]`` is scanned in file order.
    With an orientation ``heads`` (edge -> its head), an edge is only crossed
    from its tail to its head.
    """
    ends, incident = G.ends, G.incident
    found: dict[str, str | None] = dict.fromkeys(sources)
    pending = deque(found)
    take = pending.pop if lifo else pending.popleft
    while pending:
        v = take()
        for e in incident[v]:
            if edges is None or e in edges:
                a, b = ends[e]
                w = a if v == b else b
                if w not in found and (heads is None or heads[e] == w):
                    found[w] = e
                    pending.append(w)
    return found


def tree_path(G: RibbonGraph, T: frozenset, start: str, goal: str) -> list[Dart]:
    """The unique path in ``T`` from ``start`` to ``goal`` as a dart sequence."""
    known_vertex(G, start)
    parent = reach(G, [known_vertex(G, goal)], _shared_tree(G, T))
    path: list[Dart] = []
    v = start
    while v != goal:
        path.append(Dart(parent[v], v))
        v = G.other_end(parent[v], v)
    return path


def fundamental_cycle(G: RibbonGraph, T: frozenset, e: str) -> tuple[Dart, ...]:
    """The unique simple cycle in ``T + e`` as darts, starting with ``e``.

    The first dart leaves the first endpoint of ``e`` in file order; the rest
    of the cycle runs through ``T``.
    """
    if e not in G.ends:
        raise UnknownEdge(f"unknown edge {e!r}")
    if e in _shared_tree(G, T):
        raise EdgeInTree(f"edge {e!r} belongs to the spanning tree")
    tail, head = G.ends[e]
    return tuple([Dart(e, tail)] + tree_path(G, T, head, tail))
