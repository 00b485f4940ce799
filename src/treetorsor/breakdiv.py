"""Break divisors: tree compatibility, membership, enumeration, representatives.

A break divisor is a non-negative divisor of degree g obtained by placing one
chip at an endpoint of each non-tree edge, for some spanning tree.  Both
compatibility and membership are decided by orientation in polynomial time:
D is T-compatible iff the non-tree edges have an orientation with in-degree
D, and a break divisor iff D + 1 - (q) is the in-degree of an orientation in
which q reaches every vertex (An, Baker, Kuperberg, Shokrieh).  Membership in
the minor G - R, given as G and the bitmask of R over ``G._edge_bit``, orients
the edges outside R; it is the inner test of the inverse Bernardi algorithms,
which never build the minor.  The break divisor of a degree-g class is read
off such an orientation too.  Enumerating every break divisor (one per tree
and endpoint choice) is the exhaustive oracle that tests compare these with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import divisors as dv
from .errors import DegreeMismatch
from .ribbon import RibbonGraph, is_spanning_tree, reach, rotation_free, spanning_trees


@dataclass(frozen=True, slots=True)
class BreakDivisor:
    """A break divisor of ``graph``, as coefficients in vertex file order,
    with one spanning tree it breaks."""

    graph: RibbonGraph
    chips: tuple[int, ...]
    witness_tree: frozenset

    @property
    def divisor(self) -> dict[str, int]:
        return dv.tuple_to_divisor(self.graph, self.chips)


def _reverse_path(G: RibbonGraph, heads: dict[str, str], found: dict, u: str) -> None:
    """Reverse every edge of the path by which the search ``found`` reached ``u``."""
    ends = G.ends
    while (e := found[u]) is not None:
        a, b = ends[e]
        heads[e] = a if heads[e] == b else b
        u = a if u == b else b


def _orient(G: RibbonGraph, edges: list[str], target: tuple[int, ...]) -> dict | None:
    """An orientation (edge -> head) of ``edges`` with in-degree ``target``, or
    None.  Point each edge at the endpoint further below its target, then
    reverse directed paths from vertices below target to ones above (Hakimi);
    when none is reachable, the edges into the reachable set cannot suffice."""
    if sum(target) != len(edges):
        return None
    ends, at = G.ends, G._vertex_pos
    need = list(target)
    heads: dict[str, str] = {}
    for e in edges:
        a, b = ends[e]
        heads[e] = h = a if need[at[a]] >= need[at[b]] else b
        need[at[h]] -= 1
    for i, v in enumerate(G.vertices):
        while need[i] > 0:
            found = reach(G, [v], heads, heads=heads)
            u = next((u for u in found if need[at[u]] < 0), None)
            if u is None:
                return None
            _reverse_path(G, heads, found, u)
            need[i] -= 1
            need[at[u]] += 1
    return heads


def is_compatible(
    G: RibbonGraph, D: Mapping[str, int], T: frozenset
) -> tuple[bool, dict | None]:
    """Whether ``D`` is a T-break divisor; the witness maps non-tree edge -> head."""
    dt = dv.divisor_to_tuple(G, D)
    if sum(dt) != G.genus_comb or any(c < 0 for c in dt):
        raise DegreeMismatch(f"expected an effective divisor of degree {G.genus_comb}")
    if not is_spanning_tree(G, T):
        return False, None
    heads = _orient(G, [e for e in G.edge_ids if e not in T], dt)
    return heads is not None, heads


@rotation_free
def _is_break(G: RibbonGraph, removed: int, dt: tuple[int, ...]) -> bool:
    """Whether ``dt`` is a break divisor of G minus the edges set in the
    bitmask ``removed`` (False when that minor is disconnected).  Orientations
    with equal in-degrees differ by reversed directed cycles, so one decides."""
    if sum(dt) != G.genus_comb - removed.bit_count() or any(c < 0 for c in dt):
        return False
    target = dt[:1] + tuple(c + 1 for c in dt[1:])
    heads = _orient(G, [e for e, b in G._edge_bit.items() if not removed & b], target)
    if heads is None:
        return False
    return len(reach(G, G.vertices[:1], heads, heads=heads)) == len(G.vertices)


def is_break_divisor(G: RibbonGraph, D: Mapping[str, int]) -> bool:
    """Whether ``D`` is a T-break divisor for some spanning tree."""
    return _is_break(G, 0, dv.divisor_to_tuple(G, D))


@rotation_free
def _enumerate(G: RibbonGraph) -> tuple[BreakDivisor, ...]:
    seen: dict[tuple[int, ...], frozenset] = {}
    for T in spanning_trees(G):
        choices: list[tuple[int, ...]] = [()]
        for e in G.edge_ids:
            if e not in T:
                choices = [c + (G.vertex_pos(x),) for c in choices for x in G.ends[e]]
        for picks in choices:
            coeffs = [0] * len(G.vertices)
            for i in picks:
                coeffs[i] += 1
            seen.setdefault(tuple(coeffs), T)
    return tuple(BreakDivisor(G, key, seen[key]) for key in sorted(seen))


def enumerate_break_divisors(G: RibbonGraph) -> list[BreakDivisor]:
    """All break divisors with one witness tree each, in coefficient order."""
    return list(_enumerate(G))


def _open_cuts(G: RibbonGraph, heads: dict[str, str], into_q: bool) -> dict:
    """Reverse directed cuts of the orientation ``heads`` until every vertex
    has a directed path to q (``into_q``) or from q; return the final search
    from q.  Every edge across the cut of the vertices found so far points
    the same way, so reversing them all fires one side and keeps the class.
    """
    q, ends = G.vertices[0], G.ends
    while True:
        if into_q:
            arrows = {}
            for e, h in heads.items():
                a, b = ends[e]
                arrows[e] = a if h == b else b
        else:
            arrows = heads
        found = reach(G, [q], heads=arrows)
        if len(found) == len(G.vertices):
            return found
        for e, (a, b) in G.edges:
            if (a in found) != (b in found):
                heads[e] = a if (a in found) == into_q else b


@rotation_free
def _break_rep(G: RibbonGraph, key: tuple[int, ...]) -> BreakDivisor:
    """The break divisor in the class whose q-reduced form is ``key``.

    For an orientation in which every vertex is reachable from q, the
    in-degree minus one plus (q) is a break divisor, and every break divisor
    arises so (An, Baker, Kuperberg, Shokrieh).  Start from a search tree
    oriented away from q, q-reduce the difference to ``key``, and move its
    chips one at a time from q to v by reversing a directed path from v to
    q, after reversing directed cuts until such a path exists.  The
    out-arborescence of the last search from q witnesses the result.
    """
    q = G.vertices[0]
    heads = {e: b for e, (_, b) in G.edges}
    for w, e in reach(G, [q]).items():
        if e is not None:
            heads[e] = w

    def chips() -> tuple[int, ...]:
        out = [0] + [-1] * (len(G.vertices) - 1)
        at = G._vertex_pos
        for h in heads.values():
            out[at[h]] += 1
        return tuple(out)

    start = chips()
    moves = dv._q_reduce(G, tuple(k - b for k, b in zip(key, start)), q)
    for v, count in zip(G.vertices[1:], moves[1:]):
        for _ in range(count):
            _reverse_path(G, heads, _open_cuts(G, heads, True), v)
    found = _open_cuts(G, heads, False)
    return BreakDivisor(G, chips(), frozenset(e for e in found.values() if e is not None))


def break_representative(G: RibbonGraph, D: Mapping[str, int]) -> BreakDivisor:
    """The unique break divisor linearly equivalent to ``D`` (degree g)."""
    dt = dv.divisor_to_tuple(G, D)
    if sum(dt) != G.genus_comb:
        raise DegreeMismatch(f"class has degree {sum(dt)}, expected {G.genus_comb}")
    return _break_rep(G, dv._q_reduce(G, dt, G.vertices[0]))
