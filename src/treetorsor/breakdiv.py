"""Break divisors: tree compatibility, membership, enumeration, representatives.

A break divisor is a non-negative divisor of degree g obtained by placing one
chip at an endpoint of each non-tree edge, for some spanning tree.  Membership
is decided by an exact backtracking assignment of non-tree edges to endpoints;
at desk scale this doubles as the oracle for the inner test of the inverse
Bernardi algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from . import divisors as dv
from .errors import DegreeMismatch, UniquenessViolation
from .ribbon import RibbonGraph, spanning_trees


@dataclass(frozen=True)
class BreakDivisor:
    """A break divisor of ``graph``, as coefficients in vertex file order,
    with one spanning tree it breaks."""

    graph: RibbonGraph
    chips: tuple[int, ...]
    witness_tree: frozenset

    @property
    def divisor(self) -> dict[str, int]:
        return dv.tuple_to_divisor(self.graph, self.chips)

    def coeffs(self, G: RibbonGraph) -> tuple[int, ...]:
        return self.chips


def _match(G: RibbonGraph, demand: list[int], edges: list[str]) -> dict | None:
    """Assign each edge to an endpoint so the chosen endpoints use up demand."""
    if not edges:
        return {}
    e = edges[0]
    for v in G.ends[e]:
        i = G.vertex_pos(v)
        if demand[i] > 0:
            demand[i] -= 1
            rest = _match(G, demand, edges[1:])
            demand[i] += 1
            if rest is not None:
                rest[e] = v
                return rest
    return None


def is_compatible(
    G: RibbonGraph, D: Mapping[str, int], T: frozenset
) -> tuple[bool, dict | None]:
    """Whether ``D`` is a T-break divisor; the witness maps non-tree edge -> endpoint."""
    dt = dv.divisor_to_tuple(G, D)
    if sum(dt) != G.genus_comb or any(c < 0 for c in dt):
        raise DegreeMismatch(
            f"expected an effective divisor of degree {G.genus_comb}"
        )
    assignment = _match(G, list(dt), [e for e in G.edge_ids if e not in T])
    return assignment is not None, assignment


@lru_cache(maxsize=None)
def _is_break(G: RibbonGraph, dt: tuple[int, ...]) -> bool:
    if sum(dt) != G.genus_comb or any(c < 0 for c in dt):
        return False
    demand = list(dt)
    return any(
        _match(G, demand, [e for e in G.edge_ids if e not in T]) is not None
        for T in spanning_trees(G)
    )


def is_break_divisor(G: RibbonGraph, D: Mapping[str, int]) -> bool:
    """Whether ``D`` is a T-break divisor for some spanning tree."""
    return _is_break(G, dv.divisor_to_tuple(G, D))


@lru_cache(maxsize=None)
def _enumerate(G: RibbonGraph) -> tuple[BreakDivisor, ...]:
    seen: dict[tuple[int, ...], frozenset] = {}
    for T in spanning_trees(G):
        non_tree = [e for e in G.edge_ids if e not in T]
        choices: list[tuple[int, ...]] = [()]
        for e in non_tree:
            a, b = G.ends[e]
            ia, ib = G.vertex_pos(a), G.vertex_pos(b)
            choices = [c + (i,) for c in choices for i in (ia, ib)]
        for picks in choices:
            coeffs = [0] * len(G.vertices)
            for i in picks:
                coeffs[i] += 1
            key = tuple(coeffs)
            if key not in seen:
                seen[key] = T
    return tuple(BreakDivisor(G, key, seen[key]) for key in sorted(seen))


def enumerate_break_divisors(G: RibbonGraph) -> list[BreakDivisor]:
    """All break divisors with one witness tree each, in coefficient order."""
    return list(_enumerate(G))


@lru_cache(maxsize=None)
def _representative_table(G: RibbonGraph) -> dict[tuple[int, ...], BreakDivisor]:
    """q-reduced class representative -> the unique break divisor in that class."""
    q = G.vertices[0]
    table: dict[tuple[int, ...], BreakDivisor] = {}
    for bd in _enumerate(G):
        key = dv._q_reduce(G, bd.chips, q)
        if key in table:
            raise UniquenessViolation(
                f"two break divisors in one class: {table[key].divisor} and {bd.divisor}"
            )
        table[key] = bd
    return table


def break_representative(G: RibbonGraph, D: Mapping[str, int]) -> BreakDivisor:
    """The unique break divisor linearly equivalent to ``D`` (degree g)."""
    dt = dv.divisor_to_tuple(G, D)
    if sum(dt) != G.genus_comb:
        raise DegreeMismatch(f"class has degree {sum(dt)}, expected {G.genus_comb}")
    key = dv._q_reduce(G, dt, G.vertices[0])
    table = _representative_table(G)
    if key not in table:
        raise UniquenessViolation("no break divisor in the given class")
    return table[key]
