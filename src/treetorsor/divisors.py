"""Divisors, the Laplacian, q-reduced forms, and the Picard group.

A divisor is an integer chip count per vertex.  Inside the library it is a
coefficient tuple in vertex file order; a public function that takes a
name-keyed Mapping converts it once on entry with ``divisor_to_tuple`` (or
``class_to_tuple`` for a degree-0 class), and converts back with
``tuple_to_divisor`` only where its contract returns a dict.  Canonical class
representatives are q-reduced divisors computed by a burning (Dhar)
procedure; the designated base q is the first vertex in file order.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

from .errors import DegreeMismatch, MissingVertex, ParseError
from .ribbon import RibbonGraph, reach

COEFF_BOUND = 10**6


def divisor_to_tuple(G: RibbonGraph, D: Mapping[str, int]) -> tuple[int, ...]:
    if not D.keys() <= G.rotation.keys():
        unknown = next(v for v in D if v not in G.rotation)
        raise MissingVertex(f"divisor mentions unknown vertex {unknown!r}")
    return tuple(int(D.get(v, 0)) for v in G.vertices)


def class_to_tuple(G: RibbonGraph, gamma: Mapping[str, int]) -> tuple[int, ...]:
    """The coefficients of a degree-0 class: the entry check of both actions
    and of the duality isomorphism."""
    dt = divisor_to_tuple(G, gamma)
    if sum(dt) != 0:
        raise DegreeMismatch(f"a class must have degree 0, got degree {sum(dt)}")
    return dt


def tuple_to_divisor(G: RibbonGraph, t: tuple[int, ...]) -> dict[str, int]:
    return dict(zip(G.vertices, t))


def degree(D: Mapping[str, int]) -> int:
    return sum(D.values())


def add(D1: Mapping[str, int], D2: Mapping[str, int]) -> dict[str, int]:
    out = dict(D1)
    for v, c in D2.items():
        out[v] = out.get(v, 0) + c
    return out


def sub(D1: Mapping[str, int], D2: Mapping[str, int]) -> dict[str, int]:
    out = dict(D1)
    for v, c in D2.items():
        out[v] = out.get(v, 0) - c
    return out


def parse_divisor(G: RibbonGraph, text: str) -> dict[str, int]:
    """Parse the JSON divisor format: {vertex: chips, ...}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("divisor file must be a JSON object")
    out: dict[str, int] = {}
    for v, c in obj.items():
        if v not in G.rotation:
            raise MissingVertex(f"divisor mentions unknown vertex {v!r}")
        if not isinstance(c, int):
            raise ParseError(f"coefficient of {v!r} must be an integer")
        if abs(c) > COEFF_BOUND:
            raise ParseError(f"coefficient of {v!r} exceeds bound {COEFF_BOUND}")
        out[v] = c
    return out


def laplacian_of(G: RibbonGraph, f: Mapping[str, int]) -> dict[str, int]:
    """The Laplacian of the vertex function ``f``, as a degree-0 divisor."""
    for v in G.vertices:
        if v not in f:
            raise MissingVertex(f"function is undefined at {v!r}")
    out = {v: 0 for v in G.vertices}
    for _, (a, b) in G.edges:
        d = f[a] - f[b]
        out[a] += d
        out[b] -= d
    return out


def _burn(G: RibbonGraph, coeff: Sequence[int], q: str) -> set:
    """Dhar's burning from q; returns the set of unburnt vertices."""
    unburnt = set(G.vertices) - {q}
    changed = True
    while changed:
        changed = False
        for v in list(unburnt):
            burnt_edges = sum(
                1 for e in G.incident[v] if G.other_end(e, v) not in unburnt
            )
            if burnt_edges > coeff[G.vertex_pos(v)]:
                unburnt.discard(v)
                changed = True
    return unburnt


@lru_cache(maxsize=None)
def _q_reduce(G: RibbonGraph, dt: tuple[int, ...], q: str) -> tuple[int, ...]:
    coeff = list(dt)
    at = G.vertex_pos
    order = list(reach(G, [q]))
    rank = {v: i for i, v in enumerate(order)}

    # Bring every vertex except q to a non-negative count, working from the
    # farthest vertex inward: firing the set of strictly closer vertices only
    # adds chips at the vertex being fixed.
    for i in range(len(order) - 1, 0, -1):
        while coeff[at(order[i])] < 0:
            for w in order[:i]:
                coeff[at(w)] -= sum(
                    1 for e in G.incident[w] if rank[G.other_end(e, w)] >= i
                )
            for u in order[i:]:
                coeff[at(u)] += sum(
                    1 for e in G.incident[u] if rank[G.other_end(e, u)] < i
                )

    # Superstabilize: while some nonempty subset of V - q can fire without
    # going negative, fire the maximal such set (the unburnt set).
    while True:
        unburnt = _burn(G, coeff, q)
        if not unburnt:
            break
        for v in unburnt:
            coeff[at(v)] -= sum(
                1 for e in G.incident[v] if G.other_end(e, v) not in unburnt
            )
        for v in G.vertices:
            if v not in unburnt:
                coeff[at(v)] += sum(
                    1 for e in G.incident[v] if G.other_end(e, v) in unburnt
                )
    return tuple(coeff)


def q_reduce(
    G: RibbonGraph, D: Mapping[str, int], q: str | None = None
) -> dict[str, int]:
    """The unique q-reduced divisor linearly equivalent to ``D``."""
    if q is None:
        q = G.vertices[0]
    return tuple_to_divisor(G, _q_reduce(G, divisor_to_tuple(G, D), q))


def is_q_reduced(G: RibbonGraph, D: Mapping[str, int], q: str | None = None) -> bool:
    if q is None:
        q = G.vertices[0]
    dt = divisor_to_tuple(G, D)
    if any(c < 0 for v, c in zip(G.vertices, dt) if v != q):
        return False
    return not _burn(G, dt, q)


def are_equivalent(G: RibbonGraph, D1: Mapping[str, int], D2: Mapping[str, int]) -> bool:
    """Whether D1 - D2 is a principal divisor."""
    diff = tuple(
        a - b for a, b in zip(divisor_to_tuple(G, D1), divisor_to_tuple(G, D2))
    )
    return sum(diff) == 0 and not any(_q_reduce(G, diff, G.vertices[0]))


def tree_count_determinant(G: RibbonGraph) -> int:
    """Kirchhoff count: determinant of the reduced Laplacian, by fraction-free
    (Bareiss) elimination, so every entry stays an exact integer."""
    idx = {v: i for i, v in enumerate(G.vertices[1:])}
    n = len(idx)
    mat = [[0] * n for _ in range(n)]
    for _, (a, b) in G.edges:
        for v, w in ((a, b), (b, a)):
            if v in idx:
                mat[idx[v]][idx[v]] += 1
                if w in idx:
                    mat[idx[v]][idx[w]] -= 1
    # The matrix is positive semidefinite: a zero pivot means a zero
    # determinant (G is disconnected), so no row swap is ever needed.
    prev = 1
    for k in range(n):
        top, p = mat[k], mat[k][k]
        if not p:
            return 0
        for row in mat[k + 1 :]:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (p * row[c] - f * top[c]) // prev
        prev = p
    return prev


class PicardGroup:
    """The group of degree-0 divisor classes, with q-reduced representatives.

    Elements are coefficient tuples in vertex file order; the identity is the
    all-zero tuple.
    """

    def __init__(self, G: RibbonGraph):
        self.graph = G
        self.q = G.vertices[0]
        # A q-reduced degree-0 divisor has 0 <= D(v) < deg(v) for v != q, so
        # the product of those ranges is a finite search space; the burn test
        # filters it down to exactly the q-reduced ones.
        ranges = (range(len(G.incident[v])) for v in G.vertices[1:])
        candidates = ((-sum(rest),) + rest for rest in product(*ranges))
        self.elements = tuple(sorted(c for c in candidates if not _burn(G, c, self.q)))
        self.order = len(self.elements)
        self.zero = (0,) * len(G.vertices)

    def class_of(self, D: Mapping[str, int]) -> tuple[int, ...]:
        return _q_reduce(self.graph, divisor_to_tuple(self.graph, D), self.q)

    def add(self, c1: tuple[int, ...], c2: tuple[int, ...]) -> tuple[int, ...]:
        return _q_reduce(self.graph, tuple(a + b for a, b in zip(c1, c2)), self.q)

    def neg(self, c: tuple[int, ...]) -> tuple[int, ...]:
        return _q_reduce(self.graph, tuple(-a for a in c), self.q)

    def generators(self) -> dict[str, tuple[int, ...]]:
        """Class of (u) - (q) for each vertex u != q."""
        G, n = self.graph, len(self.graph.vertices)
        return {
            u: _q_reduce(G, tuple((i == k) - (i == 0) for i in range(n)), self.q)
            for k, u in enumerate(G.vertices)
            if k
        }


@lru_cache(maxsize=None)
def picard_group(G: RibbonGraph) -> PicardGroup:
    return PicardGroup(G)
