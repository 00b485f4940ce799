"""The Bernardi tour, the tree -> break divisor map, its inverses, and the
induced group action on spanning trees.

The tour is a (vertex, edge) state machine: walk tree edges, cut non-tree
edges, always continuing with the rotation successor.  One simulation drives
the forward map.  The two inverse reconstructions replay the same state
machine on G minus the set of edges cut so far, in the rotation G induces
there, deciding walk vs cut with the exact break divisor oracle on that
(G, removed) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

from . import breakdiv as bk
from . import divisors as dv
from .errors import NotBreakDivisor, NotIncident
from .ribbon import RibbonGraph, is_spanning_tree, spanning_trees


class TourStep(NamedTuple):
    at_vertex: str
    edge: str
    action: str  # "walk" or "cut"


@dataclass(frozen=True)
class Tour:
    initial: tuple[str, str]
    steps: tuple[TourStep, ...]
    eta: dict  # non-tree edge -> vertex of its first cut

    def dump(self) -> str:
        lines = [f"{s.at_vertex} {s.edge} {s.action}" for s in self.steps]
        lines.append("eta")
        for e in sorted(self.eta):
            lines.append(f"{e} {self.eta[e]}")
        return "\n".join(lines)


def _check_incident(G: RibbonGraph, v: str, e: str) -> None:
    if e not in G.incident[v]:
        raise NotIncident(f"edge {e!r} is not incident to vertex {v!r}")


@lru_cache(maxsize=None)
def bernardi_tour(G: RibbonGraph, v: str, e: str, T: frozenset) -> Tour:
    """The tour of ``T`` with initial data (v, e): exactly 2|E| steps."""
    _check_incident(G, v, e)
    steps: list[TourStep] = []
    eta: dict[str, str] = {}
    cur_v, cur_e = v, e
    total = 2 * len(G.edges)
    while True:
        if cur_e in T:
            steps.append(TourStep(cur_v, cur_e, "walk"))
            cur_v = G.other_end(cur_e, cur_v)
        else:
            steps.append(TourStep(cur_v, cur_e, "cut"))
            eta.setdefault(cur_e, cur_v)
        cur_e = G.next_edge(cur_v, cur_e)
        if (cur_v, cur_e) == (v, e):
            break
        assert len(steps) <= total, "tour failed to close"
    assert len(steps) == total, "tour must visit every dart exactly once"
    return Tour((v, e), tuple(steps), eta)


def bernardi_beta(G: RibbonGraph, v: str, e: str, T: frozenset) -> bk.BreakDivisor:
    """One chip at the first-cut endpoint of each non-tree edge."""
    tour = bernardi_tour(G, v, e, T)
    chips = [0] * len(G.vertices)
    for u in tour.eta.values():
        chips[G.vertex_pos(u)] += 1
    return bk.BreakDivisor(G, tuple(chips), T)


@lru_cache(maxsize=None)
def _alpha(G: RibbonGraph, v: str, e: str, dt: tuple[int, ...], left: bool) -> frozenset:
    """Shared body of the two inverse reconstructions.

    The tour runs on G minus the edges cut so far (``removed``), stepping
    through the rotation of G and skipping removed edges.  An edge is cut when
    the divisor with one chip fewer is a break divisor of G minus ``removed``
    and that edge.  Right inverse: start at (v, e), advance by rotation
    successors, and take the chip from the near endpoint.  Left inverse: start
    at the rotation predecessor of e, advance by predecessors, and take the
    chip from the far endpoint.  Cutting keeps the vertices, so ``dt`` stays
    indexed by the file order of ``G`` throughout.
    """
    step = G.prev_edge if left else G.next_edge

    def turn(u: str, f: str) -> str:
        f = step(u, f)
        while f in removed:
            f = step(u, f)
        return f

    tree: set[str] = set()
    removed: frozenset = frozenset()
    cur_v = v
    cur_e = G.prev_edge(v, e) if left else e
    budget = 4 * len(G.edges) + 4
    while len(tree) + len(removed) != len(G.edges):
        budget -= 1
        if budget < 0:
            raise NotBreakDivisor("inverse reconstruction failed to terminate")
        w = G.other_end(cur_e, cur_v)
        i = G.vertex_pos(w if left else cur_v)
        trial = dt[:i] + (dt[i] - 1,) + dt[i + 1 :]
        cut = removed | {cur_e}
        if cur_e not in tree and dt[i] > 0 and bk._is_break(G, cut, trial):
            dt, removed = trial, cut
            cur_e = turn(cur_v, cur_e)
        else:
            tree.add(cur_e)
            cur_v = w
            cur_e = turn(w, cur_e)
    result = frozenset(tree)
    if not is_spanning_tree(G, result):
        raise NotBreakDivisor("input divisor is not a break divisor")
    return result


def alpha_right(G: RibbonGraph, v: str, e: str, D: Mapping[str, int]) -> frozenset:
    """Right inverse: the spanning tree T with beta_{(v,e)}(T) = D."""
    _check_incident(G, v, e)
    return _alpha(G, v, e, dv.divisor_to_tuple(G, D), False)


def alpha_left(G: RibbonGraph, v: str, e: str, D: Mapping[str, int]) -> frozenset:
    """Left inverse, touring in the opposite direction; coincides with alpha_right."""
    _check_incident(G, v, e)
    return _alpha(G, v, e, dv.divisor_to_tuple(G, D), True)


@lru_cache(maxsize=None)
def _act(
    G: RibbonGraph, v: str, e: str, gamma: tuple[int, ...], T: frozenset
) -> frozenset:
    beta = bernardi_beta(G, v, e, T)
    target = tuple(a + b for a, b in zip(beta.chips, gamma))
    rep = bk._representative_table(G)[dv._q_reduce(G, target, G.vertices[0])]
    return _alpha(G, v, e, rep.chips, False)


def bernardi_act(
    G: RibbonGraph,
    v: str,
    gamma: Mapping[str, int],
    T: frozenset,
    e: str | None = None,
) -> frozenset:
    """The action of the degree-0 class of ``gamma`` on ``T``, based at ``v``.

    The incident edge defaults to the first edge of rotation(v); the result is
    independent of that choice.
    """
    if e is None:
        e = G.rotation[v][0]
    _check_incident(G, v, e)
    key = dv._q_reduce(G, dv.class_to_tuple(G, gamma), G.vertices[0])
    return _act(G, v, e, key, T)


@dataclass(frozen=True)
class VertexSplit:
    """The two rotation arcs at v between e1 and e2, and the vertex sets of
    the tree components hanging off each arc."""

    arc_first: tuple[str, ...]  # edges from e1 up to (excluding) e2
    arc_second: tuple[str, ...]  # edges from e2 up to (excluding) e1
    side_first: frozenset  # vertices attached through arc_first tree edges
    side_second: frozenset


def vertex_split(G: RibbonGraph, v: str, e1: str, e2: str, T: frozenset) -> VertexSplit:
    _check_incident(G, v, e1)
    _check_incident(G, v, e2)
    cycle = G.rotation[v]
    i1, i2 = cycle.index(e1), cycle.index(e2)
    k = len(cycle)
    if e1 == e2:
        arc_i = tuple(cycle[(i1 + j) % k] for j in range(k))
        arc_j: tuple[str, ...] = ()
    else:
        arc_i = tuple(cycle[(i1 + j) % k] for j in range((i2 - i1) % k))
        arc_j = tuple(cycle[(i2 + j) % k] for j in range((i1 - i2) % k))

    # component of each vertex in T - v
    comp: dict[str, int] = {}
    cid = 0
    for u in G.vertices:
        if u == v or u in comp:
            continue
        stack = [u]
        comp[u] = cid
        while stack:
            x = stack.pop()
            for f in G.incident[x]:
                if f not in T:
                    continue
                y = G.other_end(f, x)
                if y != v and y not in comp:
                    comp[y] = cid
                    stack.append(y)
        cid += 1

    def side(arc: tuple[str, ...]) -> frozenset:
        comps = {
            comp[G.other_end(f, v)] for f in arc if f in T
        }
        return frozenset(u for u, c in comp.items() if c in comps)

    return VertexSplit(arc_i, arc_j, side(arc_i), side(arc_j))


def shift_difference_check(
    G: RibbonGraph, v: str, e1: str, e2: str, T: frozenset
) -> tuple[dict, dict, bool]:
    """Compare the two-tour difference beta1 - beta2 against the arc formula."""
    b1 = bernardi_beta(G, v, e1, T).chips
    b2 = bernardi_beta(G, v, e2, T).chips
    lhs = dv.tuple_to_divisor(G, tuple(a - b for a, b in zip(b1, b2)))

    split = vertex_split(G, v, e1, e2, T)
    A, B = split.side_first, split.side_second
    in_arc = set(split.arc_first)
    out_arc = set(split.arc_second)
    rhs = {u: 0 for u in G.vertices}
    for f in G.edge_ids:
        if f in T:
            continue
        a, b = G.ends[f]
        if v not in (a, b):
            if a in A and b in B:
                rhs[a] += 1
                rhs[b] -= 1
            elif b in A and a in B:
                rhs[b] += 1
                rhs[a] -= 1
        else:
            x = b if a == v else a
            if f in out_arc and x in A:
                rhs[x] += 1
                rhs[v] -= 1
            elif f in in_arc and x in B:
                rhs[v] += 1
                rhs[x] -= 1
    return lhs, rhs, lhs == rhs


def beta_table(G: RibbonGraph, v: str, e: str) -> dict[frozenset, tuple[int, ...]]:
    """beta_{(v,e)} over all spanning trees, as coefficient tuples."""
    return {T: bernardi_beta(G, v, e, T).chips for T in spanning_trees(G)}
