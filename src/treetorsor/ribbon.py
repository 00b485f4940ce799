"""Ribbon graphs: combinatorial maps, face tracing, genus, spanning trees.

A ribbon graph is a loopless connected multigraph together with a cyclic
ordering of the incident edges around each vertex (a rotation system).
Vertex and edge identifiers are opaque strings; every deterministic order
used in this package is file order (the order identifiers appear in the
input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import EdgeInTree, ParseError, ValidationError


class Dart(NamedTuple):
    """An edge together with the endpoint it leaves."""

    edge: str
    tail: str


SpanningTree = frozenset  # of edge ids


class RibbonGraph:
    """Immutable loopless multigraph with a rotation system.

    ``vertices`` and ``edges`` keep file order; ``rotation[v]`` is the cyclic
    list of edge ids around ``v``.  Because the graph is loopless, an edge id
    determines a unique dart at each of its endpoints, so per-vertex edge-id
    lists describe the rotation unambiguously.
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
        "_edge_pos",
        "_hash",
    )

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, tuple[str, str]]],
        rotation: Mapping[str, Sequence[str]],
    ):
        self.vertices = tuple(vertices)
        self.edges = tuple((eid, (a, b)) for eid, (a, b) in edges)
        self.rotation = {v: tuple(rotation[v]) for v in self.vertices}
        self.ends = {eid: pair for eid, pair in self.edges}
        self.edge_ids = tuple(eid for eid, _ in self.edges)
        self._vertex_pos = {v: i for i, v in enumerate(self.vertices)}
        self._edge_pos = {e: i for i, e in enumerate(self.edge_ids)}

        if len(self._vertex_pos) != len(self.vertices):
            raise ValidationError("duplicate-id", "duplicate vertex identifier")
        if len(self._edge_pos) != len(self.edge_ids):
            raise ValidationError("duplicate-id", "duplicate edge identifier")
        for eid, (a, b) in self.edges:
            if a == b:
                raise ValidationError("loop", f"edge {eid!r} is a loop at {a!r}")
            if a not in self._vertex_pos or b not in self._vertex_pos:
                raise ValidationError(
                    "rotation-mismatch", f"edge {eid!r} has unknown endpoint"
                )

        self.incident: dict[str, tuple[str, ...]] = {v: () for v in self.vertices}
        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for eid, (a, b) in self.edges:
            inc[a].append(eid)
            inc[b].append(eid)
        self.incident = {v: tuple(es) for v, es in inc.items()}

        self._succ: dict[tuple[str, str], str] = {}
        self._pred: dict[tuple[str, str], str] = {}
        for v in self.vertices:
            cycle = self.rotation.get(v)
            if cycle is None or sorted(cycle) != sorted(self.incident[v]):
                raise ValidationError(
                    "rotation-mismatch",
                    f"rotation at {v!r} is not a permutation of its incident edges",
                )
            k = len(cycle)
            for i, e in enumerate(cycle):
                self._succ[(v, e)] = cycle[(i + 1) % k]
                self._pred[(v, e)] = cycle[(i - 1) % k]

        self._hash = hash((self.vertices, self.edges, tuple(sorted(self.rotation.items()))))

    # -- identity ---------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RibbonGraph):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.rotation == other.rotation
        )

    def __repr__(self) -> str:
        return f"RibbonGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"

    # -- basic accessors --------------------------------------------------

    @property
    def genus_comb(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def other_end(self, edge: str, v: str) -> str:
        a, b = self.ends[edge]
        if v == a:
            return b
        if v == b:
            return a
        raise KeyError(f"{v!r} is not an endpoint of {edge!r}")

    def next_edge(self, v: str, e: str) -> str:
        """Rotation successor of ``e`` at ``v``."""
        return self._succ[(v, e)]

    def prev_edge(self, v: str, e: str) -> str:
        """Rotation predecessor of ``e`` at ``v``."""
        return self._pred[(v, e)]

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

    def edge_pos(self, e: str) -> int:
        return self._edge_pos[e]

    # -- connectivity ------------------------------------------------------

    def is_connected(self, without: str | None = None) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for e in self.incident[v]:
                if e == without:
                    continue
                w = self.other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

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

    @property
    def is_planar(self) -> bool:
        return self.topological_genus == 0


def parse_ribbon_graph(text: str) -> RibbonGraph:
    """Parse and validate the JSON graph file format."""
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
            eid = entry["id"]
            a, b = entry["ends"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed edge entry {entry!r}") from exc
        if not (isinstance(eid, str) and isinstance(a, str) and isinstance(b, str)):
            raise ParseError(f"edge ids and endpoints must be strings: {entry!r}")
        edges.append((eid, (a, b)))
    if not edges:
        raise ValidationError("empty", "graph has no edges")
    if not isinstance(rotation, dict):
        raise ParseError('"rotation" must be an object')
    missing = set(vertices) - set(rotation)
    if missing:
        raise ValidationError(
            "rotation-mismatch", f"no rotation given for vertices {sorted(missing)}"
        )

    graph = RibbonGraph(vertices, edges, rotation)
    if not graph.is_connected():
        raise ValidationError("disconnected", "underlying graph is not connected")
    return graph


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


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


@lru_cache(maxsize=None)
def spanning_trees(G: RibbonGraph) -> tuple[SpanningTree, ...]:
    """All spanning trees, lexicographic in edge file order."""
    n = len(G.vertices)
    trees = []
    for combo in combinations(G.edge_ids, n - 1):
        uf = _UnionFind(G.vertices)
        if all(uf.union(*G.ends[e]) for e in combo):
            trees.append(frozenset(combo))
    return tuple(trees)


def is_spanning_tree(G: RibbonGraph, T: frozenset) -> bool:
    if len(T) != len(G.vertices) - 1 or not T <= set(G.edge_ids):
        return False
    uf = _UnionFind(G.vertices)
    return all(uf.union(*G.ends[e]) for e in T)


def tree_path(G: RibbonGraph, T: frozenset, start: str, goal: str) -> list[Dart]:
    """The unique path in ``T`` from ``start`` to ``goal`` as a dart sequence."""
    prev: dict[str, Dart] = {}
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            break
        for e in G.incident[v]:
            if e not in T:
                continue
            w = G.other_end(e, v)
            if w not in seen:
                seen.add(w)
                prev[w] = Dart(e, v)
                stack.append(w)
    path: list[Dart] = []
    v = goal
    while v != start:
        d = prev[v]
        path.append(d)
        v = d.tail
    path.reverse()
    return path


def fundamental_cycle(
    G: RibbonGraph, T: frozenset, e: str, tail: str | None = None
) -> tuple[Dart, ...]:
    """The unique simple cycle in ``T + e`` as darts, starting with ``e``.

    The first dart leaves ``tail`` (default: the first endpoint of ``e`` in
    file order); the rest of the cycle runs through ``T``.
    """
    if e in T:
        raise EdgeInTree(f"edge {e!r} belongs to the spanning tree")
    a, b = G.ends[e]
    if tail is None:
        tail = a
    head = G.other_end(e, tail)
    return tuple([Dart(e, tail)] + tree_path(G, T, head, tail))
