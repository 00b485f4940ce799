"""The Bernardi tour, the tree -> break divisor map, its inverses, and the
induced group action on spanning trees.

The tour is a (vertex, edge) state machine: walk tree edges, cut non-tree
edges, always continuing with the rotation successor.  One generator,
``_walk``, runs it on the graph's own tables (``G.ends`` and the rotation
successors) and drives the forward map: ``bernardi_tour`` records its steps,
and ``bernardi_beta`` counts first cuts from it without building a tour.  The
two inverse reconstructions replay the same state machine on G minus the set
of edges cut so far, in the rotation G induces there, deciding walk vs cut by
whether the divisor left is a break divisor of that minor, which one
orientation of its edges decides.

Every tree taken or returned passes ``ribbon._shared_tree`` (one object per
spanning tree, ``NotSpanningTree`` for a non-tree).  beta is cached; the walk
runs again on each beta miss and each ``bernardi_tour`` call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple

from . import breakdiv as bk
from . import divisors as dv
from .errors import NotBreakDivisor, NotIncident, NotSpanningTree
from .ribbon import RibbonGraph, _shared_tree, known_vertex, reach, spanning_trees


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
    if e not in G.incident[known_vertex(G, v)]:
        raise NotIncident(f"edge {e!r} is not incident to vertex {v!r}")


def _walk(G: RibbonGraph, v: str, e: str, T: frozenset) -> Iterator[tuple[str, str, bool]]:
    """The tour of ``T`` with initial data (v, e): yields (vertex, edge,
    walked) for each of the 2|E| darts, walking tree edges and cutting the
    others, always continuing with the rotation successor."""
    _check_incident(G, v, e)
    T = _shared_tree(G, T)
    ends, succ = G.ends, G._succ
    total = 2 * len(ends)
    cur_v, cur_e = v, e
    for steps in range(1, total + 1):
        walked = cur_e in T
        yield cur_v, cur_e, walked
        if walked:
            a, b = ends[cur_e]
            cur_v = a if cur_v == b else b
        cur_e = succ[cur_v, cur_e]
        if cur_e == e and cur_v == v:
            break
    assert steps == total and (cur_v, cur_e) == (v, e), "tour must visit every dart exactly once"


def bernardi_tour(G: RibbonGraph, v: str, e: str, T: frozenset) -> Tour:
    """The tour of ``T`` with initial data (v, e): exactly 2|E| steps."""
    steps: list[TourStep] = []
    eta: dict[str, str] = {}
    for u, f, walked in _walk(G, v, e, T):
        steps.append(TourStep(u, f, "walk" if walked else "cut"))
        if not walked:
            eta.setdefault(f, u)
    return Tour((v, e), tuple(steps), eta)


@lru_cache(maxsize=None)
def bernardi_beta(G: RibbonGraph, v: str, e: str, T: frozenset) -> bk.BreakDivisor:
    """One chip at the first-cut endpoint of each non-tree edge, counted
    from the walk itself: no tour is built."""
    at = G._vertex_pos
    chips = [0] * len(G.vertices)
    cut = set()
    for u, f, walked in _walk(G, v, e, T):
        if not walked and f not in cut:
            cut.add(f)
            chips[at[u]] += 1
    return bk.BreakDivisor(G.skeleton, tuple(chips), T)


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
    ends, at, step = G.ends, G._vertex_pos, G._pred if left else G._succ
    tree: set[str] = set()
    removed: frozenset = frozenset()
    cur_v = v
    cur_e = step[v, e] if left else e
    budget = 4 * len(ends) + 4
    while len(tree) + len(removed) != len(ends):
        budget -= 1
        if budget < 0:
            raise NotBreakDivisor("inverse reconstruction failed to terminate")
        a, b = ends[cur_e]
        w = a if cur_v == b else b
        i = at[w if left else cur_v]
        if cur_e not in tree and dt[i] > 0:
            trial = dt[:i] + (dt[i] - 1,) + dt[i + 1 :]
            cut = removed | {cur_e}
            if bk._is_break(G, cut, trial):
                dt, removed = trial, cut
        if cur_e not in removed:  # not cut, so walked
            tree.add(cur_e)
            cur_v = w
        cur_e = step[cur_v, cur_e]
        while cur_e in removed:
            cur_e = step[cur_v, cur_e]
    try:
        return _shared_tree(G, frozenset(tree))
    except NotSpanningTree:
        raise NotBreakDivisor("input divisor is not a break divisor") from None


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
    target = tuple(map(operator.add, beta.chips, gamma))
    rep = bk._break_rep(G, dv._q_reduce(G, target, G.vertices[0]))
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
        e = G.rotation[known_vertex(G, v)][0]
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
    k, i = len(cycle), cycle.index(e1)
    # the first arc ends where e2 begins; it is all of rotation(v) when e1 == e2
    cut = i + ((cycle.index(e2) - i) % k or k)
    twice = cycle + cycle
    arc_first, arc_second = twice[i:cut], twice[cut : i + k]
    # T spans, so the components of T - v that arc_second's tree edges enter are the rest
    forest = _shared_tree(G, T).difference(G.incident[v])
    first = frozenset(reach(G, [G.other_end(f, v) for f in arc_first if f in T], forest))
    return VertexSplit(arc_first, arc_second, first, frozenset(G.vertices) - first - {v})


def shift_difference_check(
    G: RibbonGraph, v: str, e1: str, e2: str, T: frozenset
) -> tuple[dict, dict, bool]:
    """Compare the two-tour difference beta1 - beta2 against the arc formula.

    Each end of an edge lies on the first side or the second: a vertex other
    than v by its tree component, v itself by the arc the edge leaves it by.
    A non-tree edge whose ends lie on different sides adds +1 at its
    first-side end and -1 at the other.
    """
    b1 = bernardi_beta(G, v, e1, T).chips
    b2 = bernardi_beta(G, v, e2, T).chips
    lhs = dv.tuple_to_divisor(G, tuple(a - b for a, b in zip(b1, b2)))

    split = vertex_split(G, v, e1, e2, T)
    arc, side = set(split.arc_first), split.side_first
    rhs = dict.fromkeys(G.vertices, 0)
    for f, (a, b) in G.edges:
        if f not in T:
            a_first = f in arc if a == v else a in side
            if a_first != (f in arc if b == v else b in side):
                near, far = (a, b) if a_first else (b, a)
                rhs[near] += 1
                rhs[far] -= 1
    return lhs, rhs, lhs == rhs


def beta_table(G: RibbonGraph, v: str, e: str) -> dict[frozenset, tuple[int, ...]]:
    """beta_{(v,e)} over all spanning trees, as coefficient tuples."""
    return {T: bernardi_beta(G, v, e, T).chips for T in spanning_trees(G)}
