"""Planar duality: the dual ribbon graph, dual trees, the class isomorphism,
and the commuting-square check between the two Bernardi actions.

The dual of a planar bridgeless ribbon graph has one vertex per face; its
rotation uses the opposite plane orientation.  With the face-successor
convention of ribbon.trace_faces, each face orbit already lists its boundary
edges in the opposite rotational sense, so the dual rotation is the orbit
order as-is, and the dart correspondence sends a dart to the dual dart
leaving the face of its reverse.  The commuting square of the two Bernardi
actions pins this choice: the tests build its mirror image (each dart sent to
the dual dart leaving its own face) as a stand-in and see the square fail.
The square runs the primal action only, and tests the dual tree of its image
by the class rule of ``bernardi._class_keys``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add
from typing import Iterable, Mapping

from . import divisors as dv
from .bernardi import _class_keys, bernardi_act
from .errors import HasBridge, NotPlanar
from .ribbon import Dart, RibbonGraph, _shared_tree, reach, trace_faces


@dataclass(frozen=True)
class DualCorrespondence:
    primal: RibbonGraph
    dual: RibbonGraph
    dart_map: dict  # primal Dart -> dual Dart
    face_map: dict  # dual vertex id -> tuple of primal darts of that face


@lru_cache(maxsize=None)
def dual_graph(G: RibbonGraph) -> DualCorrespondence:
    """Construct the dual of a planar bridgeless ribbon graph."""
    decomposition = trace_faces(G)
    if decomposition.topological_genus != 0:
        raise NotPlanar(
            f"dual is only defined for genus 0, got {decomposition.topological_genus}"
        )

    face_map = {f"f{i}": face for i, face in enumerate(decomposition.faces)}
    face_of = {d: fid for fid, face in face_map.items() for d in face}

    edges = []
    dart_map: dict[Dart, Dart] = {}
    for eid, (a, b) in G.edges:
        d1, d2 = Dart(eid, a), Dart(eid, b)
        # on the sphere an edge is a bridge iff one face runs along both its sides
        if face_of[d1] == face_of[d2]:
            raise HasBridge(f"edge {eid!r} is a bridge; the dual would have a loop")
        edges.append((eid, (face_of[d1], face_of[d2])))
        # a dart goes to the dual dart leaving the face of its reverse
        dart_map[d1], dart_map[d2] = Dart(eid, face_of[d2]), Dart(eid, face_of[d1])

    # dual rotation: the boundary walk order of each face
    rotation = {fid: [d.edge for d in face] for fid, face in face_map.items()}
    dual = RibbonGraph(list(face_map), edges, rotation)
    return DualCorrespondence(G, dual, dart_map, face_map)


def dual_tree(corr: DualCorrespondence, T: frozenset) -> frozenset:
    """The complementary dual tree: the primal non-tree edges (the dual keeps ids)."""
    return frozenset(corr.primal.ends.keys() - _shared_tree(corr.primal, T))


def _chain_for(G: RibbonGraph, D: Mapping[str, int]) -> dict[Dart, int]:
    """A 1-chain whose boundary (head minus tail per dart) equals ``D``.

    Flow runs along the breadth-first tree from the first vertex: the tree
    dart into each vertex carries the total of ``D`` over the subtree below
    it.  Any lift works up to principal divisors.
    """
    parent = reach(G, G.vertices[:1])
    flow = {v: D.get(v, 0) for v in G.vertices}
    chain: dict[Dart, int] = {}
    for w in reversed(list(parent)[1:]):
        d = Dart(parent[w], G.other_end(parent[w], w))
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


def _psi(corr: DualCorrespondence, chain: Mapping[Dart, int]) -> tuple[int, ...]:
    """The q-reduced dual class of the boundary of ``chain`` pushed dart by
    dart through the dart correspondence."""
    dual = corr.dual
    pushed = ((corr.dart_map[d], c) for d, c in chain.items())
    return dv._q_reduce(dual, _boundary(dual, pushed), dual.vertices[0])


def psi_class(corr: DualCorrespondence, gamma: Mapping[str, int]) -> dict[str, int]:
    """Image of a degree-0 class under the duality isomorphism.

    Lift the class to a 1-chain (``_chain_for``), push the chain dart-by-dart
    through the dart correspondence, and take the boundary on the dual;
    returns the q-reduced representative of the resulting class.
    """
    dv.class_to_tuple(corr.primal, gamma)  # known vertices, degree 0
    return dv.tuple_to_divisor(corr.dual, _psi(corr, _chain_for(corr.primal, gamma)))


def duality_square_check(
    corr: DualCorrespondence, v: str, gamma: Mapping[str, int], T: frozenset
) -> bool:
    """Whether acting then dualizing equals dualizing then acting.  The primal
    action checks v, the class and T before the class is lifted to a chain."""
    dual, q = corr.dual, corr.dual.vertices[0]
    lhs = dual_tree(corr, bernardi_act(corr.primal, v, gamma, T))
    psi = _psi(corr, _chain_for(corr.primal, gamma))
    keys = partial(_class_keys, dual, q, dual.rotation[q][0])
    return keys(lhs)[0] == dv._q_reduce(dual, tuple(map(add, keys(dual_tree(corr, T))[0], psi)), q)
