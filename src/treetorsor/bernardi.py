"""The Bernardi tour, the tree -> break divisor map, its inverses, and the
induced group action on spanning trees.

The tour is a (vertex, edge) state machine: walk tree edges, cut non-tree
edges, always continuing with the rotation successor.  One generator,
``_walk``, runs it on the graph's own tables (``G.ends`` and the rotation
successors) and drives the forward map: ``bernardi_beta`` counts first cuts
from it and the suite's ``tour-structure`` check reads its steps, neither
building a tour; ``bernardi_tour`` records them as a ``Tour`` only for the
``tour`` and ``export-dot`` commands.  The two inverse reconstructions replay
the same state machine on G minus the set of edges cut so far, in the
rotation G induces there, deciding walk vs cut by whether the divisor left is
a break divisor of that minor, which one orientation of its edges decides.

Every tree taken or returned passes ``ribbon._shared_tree`` (one object per
spanning tree, ``NotSpanningTree`` for a non-tree).  beta is cached; the walk
runs again on each beta miss, each ``tour-structure`` read and each
``bernardi_tour`` call.

The action of a class c sends T to the tree y with [beta(y)] = [beta(T)] + c.
beta is a bijection onto the break divisors and a class holds exactly one, so
a tree already in hand is tested as that image with no inverse: y is it iff
key(beta(y)) = q-reduce(key(beta(T)) + c), keys q-reduced at the first vertex
(``_class_keys``).  The torsor comparisons, the suite's ``edge-independence``
check and the duality square test so.

``_act`` is not cached: it adds the class key to the cached beta and looks the
degree-g sum up in ``_tree_of``, which caches one tree per such divisor.
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
    return Tour(tuple(steps), eta)


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

    The tour runs on G minus the edges cut so far (``removed``, a bitmask over
    ``G._edge_bit``), stepping through the rotation of G and skipping removed
    edges.  An edge is cut when the divisor with one chip fewer is a break
    divisor of G minus ``removed`` and that edge.  Right inverse: start at
    (v, e), advance by rotation successors, and take the chip from the near
    endpoint.  Left inverse: start at the rotation predecessor of e, advance
    by predecessors, and take the chip from the far endpoint.  Cutting keeps
    the vertices, so ``dt`` stays in the file order of G.
    """
    ends, at, bit, step = G.ends, G._vertex_pos, G._edge_bit, G._pred if left else G._succ
    tree: set[str] = set()
    removed, cur_v, cur_e = 0, v, step[v, e] if left else e
    budget = 4 * len(ends) + 4
    while len(tree) + removed.bit_count() != len(ends):
        budget -= 1
        if budget < 0:
            raise NotBreakDivisor("inverse reconstruction failed to terminate")
        a, b = ends[cur_e]
        w = a if cur_v == b else b
        i = at[w if left else cur_v]
        if cur_e not in tree and dt[i] > 0:
            trial = dt[:i] + (dt[i] - 1,) + dt[i + 1 :]
            cut = removed | bit[cur_e]
            if bk._is_break(G, cut, trial):
                dt, removed = trial, cut
        if not removed & bit[cur_e]:  # not cut, so walked
            tree.add(cur_e)
            cur_v = w
        cur_e = step[cur_v, cur_e]
        while removed & bit[cur_e]:
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


def _act(
    G: RibbonGraph, v: str, e: str, gamma: tuple[int, ...], T: frozenset
) -> frozenset:
    return _tree_of(G, v, e, tuple(map(operator.add, bernardi_beta(G, v, e, T).chips, gamma)))


@lru_cache(maxsize=None)
def _tree_of(G: RibbonGraph, v: str, e: str, target: tuple[int, ...]) -> frozenset:
    """The tree whose beta_{(v,e)} is the break divisor in the class of the
    degree-g divisor ``target``: one entry per target, not per (class, tree)."""
    rep = bk._break_rep(G, dv._q_reduce(G, target, G.vertices[0]))
    return _alpha(G, v, e, rep.chips, False)


@lru_cache(maxsize=None)
def _class_keys(G: RibbonGraph, v: str, e: str, T: frozenset) -> tuple[tuple, tuple]:
    """The q-reduced key of [beta_{(v,e)}(T)], q the first vertex, and the keys
    of that class plus each generator of ``dv._generator_keys(G, q)``."""
    q = G.vertices[0]
    key = dv._q_reduce(G, bernardi_beta(G, v, e, T).chips, q)
    gens = dv._generator_keys(G, q)
    return key, tuple(dv._q_reduce(G, tuple(map(operator.add, key, g)), q) for _, g in gens)


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


def _arc_labels(G: RibbonGraph, v: str, T: frozenset) -> dict[str, int]:
    """Each vertex of T - v labelled with the rotation index at v of the tree
    edge whose component holds it: one search per tree edge at v."""
    T = _shared_tree(G, T)
    forest = T.difference(G.incident[v])
    labels: dict[str, int] = {}
    for x, f in enumerate(G.rotation[v]):
        if f in T:
            labels.update(dict.fromkeys(reach(G, [G.other_end(f, v)], forest), x))
    return labels


def _cut_ends(G: RibbonGraph, v: str, T: frozenset) -> tuple[tuple[int, int, int, int], ...]:
    """Each non-tree edge as (file position, label) of its two ends: an end
    at v labelled by the edge's own rotation index there, any other end by
    ``_arc_labels``."""
    labels = _arc_labels(G, v, T)
    own = {f: x for x, f in enumerate(G.rotation[v])}
    at = G._vertex_pos
    return tuple(
        (at[a], own[f] if a == v else labels[a], at[b], own[f] if b == v else labels[b])
        for f, (a, b) in G.edges
        if f not in T
    )


def _first_arc(G: RibbonGraph, v: str, e1: str, e2: str) -> list[bool]:
    """Whether each rotation index at v lies on the first arc: from e1 up to
    (excluding) e2, all of rotation(v) when e1 == e2.  A vertex other than v
    lies on the first side when its ``_arc_labels`` label does."""
    cycle = G.rotation[v]
    k, i = len(cycle), cycle.index(e1)
    span = (cycle.index(e2) - i) % k or k
    return [(x - i) % k < span for x in range(k)]


def _shift_sides(
    G: RibbonGraph, v: str, e1: str, e2: str, T: frozenset, first: list[bool], ends: tuple
) -> tuple[list[int], list[int]]:
    """Both sides of the shift formula in vertex file order (see
    ``shift_difference_check``): beta1 - beta2, and the arc formula read off
    ``first = _first_arc(G, v, e1, e2)`` and ``ends = _cut_ends(G, v, T)``."""
    b1 = bernardi_beta(G, v, e1, T).chips
    b2 = bernardi_beta(G, v, e2, T).chips
    rhs = [0] * len(b1)
    for a, la, b, lb in ends:
        if first[la] != first[lb]:
            near, far = (a, b) if first[la] else (b, a)
            rhs[near] += 1
            rhs[far] -= 1
    return list(map(operator.sub, b1, b2)), rhs


def shift_difference_check(
    G: RibbonGraph, v: str, e1: str, e2: str, T: frozenset
) -> tuple[dict, dict, bool]:
    """Compare the two-tour difference beta1 - beta2 against the arc formula.

    Each end of an edge lies on the first side or the second: a vertex other
    than v by its tree component, v itself by the arc the edge leaves it by.
    A non-tree edge whose ends lie on different sides adds +1 at its
    first-side end and -1 at the other.
    """
    _check_incident(G, v, e1)
    _check_incident(G, v, e2)
    lhs, rhs = _shift_sides(G, v, e1, e2, T, _first_arc(G, v, e1, e2), _cut_ends(G, v, T))
    return dv.tuple_to_divisor(G, lhs), dv.tuple_to_divisor(G, rhs), lhs == rhs


def beta_table(G: RibbonGraph, v: str, e: str) -> dict[frozenset, tuple[int, ...]]:
    """beta_{(v,e)} over all spanning trees, as coefficient tuples."""
    return {T: bernardi_beta(G, v, e, T).chips for T in spanning_trees(G)}
