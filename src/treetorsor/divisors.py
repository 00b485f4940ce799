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
import operator
from itertools import product
from typing import Mapping, Sequence

from .errors import DegreeMismatch, MissingVertex, ParseError
from .ribbon import RibbonGraph, known_vertex, rotation_free

COEFF_BOUND = 10**6
_INT = frozenset({int})  # the type of every coefficient, checked in one pass


def divisor_to_tuple(G: RibbonGraph, D: Mapping[str, int]) -> tuple[int, ...]:
    """The coefficients of ``D`` in vertex file order.  As in ``parse_divisor``,
    each must be an ``int`` that is not a ``bool``."""
    if not D.keys() <= G.rotation.keys():
        unknown = next(v for v in D if v not in G.rotation)
        raise MissingVertex(f"divisor mentions unknown vertex {unknown!r}")
    dt = tuple([D.get(v, 0) for v in G.vertices])
    if not _INT.issuperset(map(type, dt)):
        for v, c in zip(G.vertices, dt):
            if not isinstance(c, int) or isinstance(c, bool):
                raise ParseError(f"coefficient of {v!r} must be an integer")
        dt = tuple(map(int, dt))
    return dt


def class_to_tuple(G: RibbonGraph, gamma: Mapping[str, int]) -> tuple[int, ...]:
    """The coefficients of a degree-0 class: the entry check of both actions
    and of the duality isomorphism."""
    dt = divisor_to_tuple(G, gamma)
    if sum(dt) != 0:
        raise DegreeMismatch(f"a class must have degree 0, got degree {sum(dt)}")
    return dt


def tuple_to_divisor(G: RibbonGraph, t: tuple[int, ...]) -> dict[str, int]:
    return dict(zip(G.vertices, t))


def add(D1: Mapping[str, int], D2: Mapping[str, int]) -> dict[str, int]:
    out = dict(D1)
    for v, c in D2.items():
        out[v] = out.get(v, 0) + c
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
        if not isinstance(c, int) or isinstance(c, bool):
            raise ParseError(f"coefficient of {v!r} must be an integer")
        if abs(c) > COEFF_BOUND:
            raise ParseError(f"coefficient of {v!r} exceeds bound {COEFF_BOUND}")
        out[v] = c
    return out


def laplacian_of(G: RibbonGraph, f: Mapping[str, int]) -> dict[str, int]:
    """The Laplacian of the vertex function ``f``, as a degree-0 divisor.
    ``f`` is checked as a divisor is, and must be defined at every vertex."""
    for v in G.vertices:
        if v not in f:
            raise MissingVertex(f"function is undefined at {v!r}")
    divisor_to_tuple(G, f)
    out = {v: 0 for v in G.vertices}
    for _, (a, b) in G.edges:
        d = f[a] - f[b]
        out[a] += d
        out[b] -= d
    return out


def _burn(G: RibbonGraph, coeff: Sequence[int], q: str) -> set:
    """Dhar's burning from q; returns the set of unburnt vertices.

    A vertex catches fire once more edges join it to burnt vertices than it
    holds chips, so one burning vertex is checked against each neighbour.
    """
    at, ends = G._vertex_pos, G.ends
    burning = [q] + [v for v in G.vertices if v != q and coeff[at[v]] < 0]
    unburnt = set(G.vertices).difference(burning)
    heat = dict.fromkeys(unburnt, 0)
    while burning:
        v = burning.pop()
        for e in G.incident[v]:
            a, b = ends[e]
            w = a if v == b else b
            if w in unburnt:
                heat[w] += 1
                if heat[w] > coeff[at[w]]:
                    unburnt.discard(w)
                    burning.append(w)
    return unburnt


def _fire(G: RibbonGraph, coeff: list[int], x: Mapping[str, int]) -> None:
    """Fire each vertex v x[v] times (0 where absent): subtract L x."""
    at = G._vertex_pos
    for _, (a, b) in G.edges:
        flow = x.get(a, 0) - x.get(b, 0)
        coeff[at[a]] -= flow
        coeff[at[b]] += flow


@rotation_free
def _q_reduce(G: RibbonGraph, dt: tuple[int, ...], q: str) -> tuple[int, ...]:
    coeff = list(dt)
    at, ends = G._vertex_pos, G.ends
    rest = [v for v in G.vertices if v != q]
    deg = [len(G.incident[v]) for v in rest]

    # Unless every vertex except q already holds between 0 and 2 deg(v) - 1
    # chips, jump there in one firing (Baker-Shokrieh): firing
    # x = floor(L_q^-1 (D - deg)) leaves deg + L_q (a vector in [0, 1)) off q,
    # which lies in [1, 2 deg(v) - 1] whatever the size of D.
    if any(not 0 <= coeff[at[v]] < 2 * d for v, d in zip(rest, deg)):
        det, scaled = _solve_reduced(G, q, [coeff[at[v]] - d for v, d in zip(rest, deg)])
        _fire(G, coeff, dict(zip(rest, (s // det for s in scaled))))

    # Superstabilize: while some nonempty subset of V - q can fire without
    # going negative, fire the maximal such set (the unburnt set), as many
    # times as its poorest vertex allows.
    while True:
        unburnt = _burn(G, coeff, q)
        if not unburnt:
            break
        out = (
            (v, sum(1 for e in G.incident[v] if not unburnt.issuperset(ends[e])))
            for v in unburnt
        )
        _fire(G, coeff, dict.fromkeys(unburnt, min(coeff[at[v]] // k for v, k in out if k)))
    return tuple(coeff)


@rotation_free
def _generator_keys(G: RibbonGraph, r: str) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(u, the r-reduced key of [(u) - (q)]) for each vertex u != q, with q the
    first vertex: each class is reduced once per underlying graph and base r."""
    n = len(G.vertices)
    return tuple(
        (u, _q_reduce(G, tuple((i == k) - (i == 0) for i in range(n)), r))
        for k, u in enumerate(G.vertices)
        if k
    )


def q_reduce(
    G: RibbonGraph, D: Mapping[str, int], q: str | None = None
) -> dict[str, int]:
    """The unique q-reduced divisor linearly equivalent to ``D``."""
    q = G.vertices[0] if q is None else known_vertex(G, q)
    return tuple_to_divisor(G, _q_reduce(G, divisor_to_tuple(G, D), q))


def is_q_reduced(G: RibbonGraph, D: Mapping[str, int], q: str | None = None) -> bool:
    q = G.vertices[0] if q is None else known_vertex(G, q)
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


def _solve_reduced(G: RibbonGraph, q: str, rhs: Sequence[int]) -> tuple[int, list[int]]:
    """Solve L_q x = rhs for the reduced Laplacian L_q (the Laplacian without
    the row and column of q) by fraction-free (Bareiss) elimination, so every
    entry stays an exact integer.  Returns det L_q and det * x, which is an
    integer vector by Cramer's rule.
    """
    idx = {v: i for i, v in enumerate(v for v in G.vertices if v != q)}
    n = len(idx)
    mat = [[0] * n + [r] for r in rhs]
    for _, (a, b) in G.edges:
        for v, w in ((a, b), (b, a)):
            if v in idx:
                mat[idx[v]][idx[v]] += 1
                if w in idx:
                    mat[idx[v]][idx[w]] -= 1
    # G is connected, so the matrix is positive definite: every pivot is a
    # leading principal minor, nonzero, and no row swap is ever needed.
    prev = 1
    for k in range(n):
        top, p = mat[k], mat[k][k]
        for row in mat[k + 1 :]:
            f = row[k]
            for c in range(k + 1, n + 1):
                row[c] = (p * row[c] - f * top[c]) // prev
        prev = p
    # Each eliminated row is still an equation of the system, and det * x is
    # integral, so back substitution divides exactly.
    scaled = [0] * n
    for i in range(n - 1, -1, -1):
        row = mat[i]
        acc = prev * row[n] - sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = acc // row[i]
    return prev, scaled


def tree_count_determinant(G: RibbonGraph) -> int:
    """Kirchhoff count: the determinant of the reduced Laplacian."""
    return _solve_reduced(G, G.vertices[0], [0] * (len(G.vertices) - 1))[0]


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

    def add(self, c1: tuple[int, ...], c2: tuple[int, ...]) -> tuple[int, ...]:
        return _q_reduce(self.graph, tuple(map(operator.add, c1, c2)), self.q)


@rotation_free
def picard_group(G: RibbonGraph) -> PicardGroup:
    return PicardGroup(G)
