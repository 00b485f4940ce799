"""Planar duality: the dual ribbon graph, dual trees, the class isomorphism,
and the commuting-square check between the two Bernardi actions.

The dual of a planar bridgeless ribbon graph has one vertex per face; its
rotation uses the opposite plane orientation.  With the face-successor
convention of ribbon.trace_faces, each face orbit already lists its boundary
edges in the opposite rotational sense, so the dual rotation is the orbit
order as-is, and the dart correspondence sends a dart to the dual dart
leaving the face of its reverse.  The commuting square of the two Bernardi
actions pins this choice against its mirror image (the mirror fails it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from . import divisors as dv
from .bernardi import _act, bernardi_act
from .errors import HasBridge, NotPlanar
from .ribbon import Dart, RibbonGraph, trace_faces


@dataclass(frozen=True)
class DualCorrespondence:
    primal: RibbonGraph
    dual: RibbonGraph
    edge_map: dict  # primal edge id -> dual edge id (and back via values)
    dart_map: dict  # primal Dart -> dual Dart
    face_map: dict  # dual vertex id -> tuple of primal darts of that face


@lru_cache(maxsize=None)
def dual_graph(G: RibbonGraph, mirror: bool = False) -> DualCorrespondence:
    """Construct the dual of a planar bridgeless ribbon graph.

    ``mirror=True`` deliberately picks the wrong mirror image of the dart
    correspondence; it exists so the suite can demonstrate that the commuting
    square detects the bad convention.
    """
    decomposition = trace_faces(G)
    if decomposition.topological_genus != 0:
        raise NotPlanar(
            f"dual is only defined for genus 0, got {decomposition.topological_genus}"
        )
    for e in G.edge_ids:
        if not G.is_connected(without=e):
            raise HasBridge(f"edge {e!r} is a bridge; the dual would have a loop")

    face_of: dict[Dart, str] = {}
    face_map: dict[str, tuple[Dart, ...]] = {}
    for i, face in enumerate(decomposition.faces):
        fid = f"f{i}"
        face_map[fid] = face
        for d in face:
            face_of[d] = fid

    edges = []
    dart_map: dict[Dart, Dart] = {}
    for eid, (a, b) in G.edges:
        d1, d2 = Dart(eid, a), Dart(eid, b)
        edges.append((eid, (face_of[d1], face_of[d2])))
        if mirror:
            dart_map[d1] = Dart(eid, face_of[d1])
            dart_map[d2] = Dart(eid, face_of[d2])
        else:
            dart_map[d1] = Dart(eid, face_of[d2])
            dart_map[d2] = Dart(eid, face_of[d1])

    # dual rotation: the boundary walk order of each face
    rotation = {
        fid: [d.edge for d in face] for fid, face in face_map.items()
    }
    dual = RibbonGraph(list(face_map), edges, rotation)
    return DualCorrespondence(
        primal=G,
        dual=dual,
        edge_map={e: e for e in G.edge_ids},
        dart_map=dart_map,
        face_map=face_map,
    )


def dual_tree(corr: DualCorrespondence, T: frozenset) -> frozenset:
    """The complementary dual tree: dual edges of the primal non-tree edges."""
    return frozenset(
        corr.edge_map[e] for e in corr.primal.edge_ids if e not in T
    )


def _chain_for(G: RibbonGraph, D: Mapping[str, int]) -> dict[Dart, int]:
    """A 1-chain whose boundary (head minus tail per dart) equals ``D``.

    Flow runs along the breadth-first tree from the first vertex: the tree
    dart into each vertex carries the total of ``D`` over the subtree below
    it.  Any lift works up to principal divisors.
    """
    root = G.vertices[0]
    parent: dict[str, Dart] = {}
    order = [root]
    for u in order:
        for e in G.incident[u]:
            w = G.other_end(e, u)
            if w != root and w not in parent:
                parent[w] = Dart(e, u)
                order.append(w)
    flow = {v: D.get(v, 0) for v in G.vertices}
    chain: dict[Dart, int] = {}
    for w in reversed(order[1:]):
        d = parent[w]
        if flow[w]:
            chain[d] = flow[w]
        flow[d.tail] += flow[w]
    return chain


def _boundary(G: RibbonGraph, chain: Iterable[tuple[Dart, int]]) -> tuple[int, ...]:
    out = [0] * len(G.vertices)
    for d, c in chain:
        out[G.vertex_pos(G.head(d))] += c
        out[G.vertex_pos(d.tail)] -= c
    return tuple(out)


def boundary(G: RibbonGraph, chain: Mapping[Dart, int]) -> dict[str, int]:
    return dv.tuple_to_divisor(G, _boundary(G, chain.items()))


def _psi(corr: DualCorrespondence, chain: Mapping[Dart, int]) -> tuple[int, ...]:
    """The q-reduced dual class of the boundary of ``chain`` pushed dart by
    dart through the dart correspondence."""
    dual = corr.dual
    pushed = ((corr.dart_map[d], c) for d, c in chain.items())
    return dv._q_reduce(dual, _boundary(dual, pushed), dual.vertices[0])


def psi_class(
    corr: DualCorrespondence,
    gamma: Mapping[str, int],
    chain: Mapping[Dart, int] | None = None,
) -> dict[str, int]:
    """Image of a degree-0 class under the duality isomorphism.

    Lift the class to a 1-chain, push the chain dart-by-dart through the dart
    correspondence, and take the boundary on the dual; returns the q-reduced
    representative of the resulting class.  ``chain`` may supply an explicit
    lift (used to test representative-independence).
    """
    dv.class_to_tuple(corr.primal, gamma)  # known vertices, degree 0
    if chain is None:
        chain = _chain_for(corr.primal, gamma)
    return dv.tuple_to_divisor(corr.dual, _psi(corr, chain))


def duality_square_check(
    corr: DualCorrespondence, v: str, gamma: Mapping[str, int], T: frozenset
) -> bool:
    """Whether acting then dualizing equals dualizing then acting."""
    dual, q = corr.dual, corr.dual.vertices[0]
    lhs = dual_tree(corr, bernardi_act(corr.primal, v, gamma, T))
    psi = _psi(corr, _chain_for(corr.primal, gamma))
    return lhs == _act(dual, q, dual.rotation[q][0], psi, dual_tree(corr, T))
