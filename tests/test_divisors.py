"""Divisor arithmetic, q-reduction, and the Picard group."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import breakdiv as bk
from treetorsor import corpus
from treetorsor import divisors as dv
from treetorsor.bernardi import alpha_right, bernardi_act
from treetorsor.errors import MissingVertex, ParseError, ValidationError
from treetorsor.ribbon import RibbonGraph, spanning_trees
from treetorsor.rotor import rotor_act


def random_graph(seed):
    return corpus.random_multigraph(random.Random(seed))


def random_divisor(G, rng, lo=-5, hi=5):
    return {v: rng.randint(lo, hi) for v in G.vertices}


def test_degree_add_sub():
    D1, D2 = {"a": 2, "b": -1}, {"b": 3, "c": 1}
    assert sum(D1.values()) == 1
    assert dv.add(D1, D2) == {"a": 2, "b": 2, "c": 1}
    assert {v: D1.get(v, 0) - D2.get(v, 0) for v in D1 | D2} == {"a": 2, "b": -4, "c": -1}


def test_parse_divisor_validation():
    G = corpus.k3()
    assert dv.parse_divisor(G, '{"1": 2, "3": -1}') == {"1": 2, "3": -1}
    with pytest.raises(MissingVertex):
        dv.parse_divisor(G, '{"zz": 1}')
    with pytest.raises(ParseError):
        dv.parse_divisor(G, '{"1": 1.5}')
    with pytest.raises(ParseError):
        dv.parse_divisor(G, f'{{"1": {10**7}}}')


def test_non_integer_coefficients_are_rejected():
    # the rule of parse_divisor, named at the first bad vertex in file order
    G, T = corpus.k3(), frozenset({"a", "b"})
    message = re.escape("coefficient of '1' must be an integer")
    calls = [
        (dv.q_reduce, G, {"1": True, "2": "3"}),
        (rotor_act, G, "1", {"2": 1.5, "1": -1.5}, T),
        (bernardi_act, G, "1", {"2": 1.5, "1": -1.5}, T),
        (alpha_right, G, "1", "a", {"3": 1, "1": 0.0}),
        (bk.break_representative, G, {"1": False, "3": 1}),
    ]
    for fn, *args in calls:
        with pytest.raises(ParseError, match=message):
            fn(*args)
    assert dv.q_reduce(G, {"2": 1, "1": -1}) == {"1": -1, "2": 1, "3": 0}
    # an int subclass other than bool is an integer, and converted to int
    chips = type("Chips", (int,), {})
    assert [type(c) for c in dv.divisor_to_tuple(G, {"2": chips(1)})] == [int] * 3


def test_laplacian_is_degree_zero():
    G = corpus.k4()
    f = {"1": 3, "2": 0, "3": -2, "4": 1}
    L = dv.laplacian_of(G, f)
    assert sum(L.values()) == 0
    # frozen by hand: vertex 1 has degree 3, neighbors sum to -1
    assert L["1"] == 3 * 3 - (0 - 2 + 1)
    with pytest.raises(MissingVertex):
        dv.laplacian_of(G, {"1": 0})


def test_laplacian_checks_its_function():
    G = corpus.k3()
    with pytest.raises(MissingVertex, match="'zz'"):
        dv.laplacian_of(G, {"1": 1, "2": 0, "3": 0, "zz": 5})
    for f in ({"1": True, "2": 0, "3": 0}, {"1": 1, "2": 0.5, "3": 0}):
        with pytest.raises(ParseError, match="must be an integer"):
            dv.laplacian_of(G, f)


def test_q_reduce_theta_pic_elements():
    # frozen: the three degree-0 classes of the theta graph, q-reduced at u
    G = corpus.theta(planar=True)
    group = dv.picard_group(G)
    assert group.elements == ((-2, 2), (-1, 1), (0, 0))
    assert group.order == 3


def test_q_reduce_idempotent_and_class_constant():
    rng = random.Random(5)
    for _, G in corpus.default_corpus()[:12]:
        for _ in range(5):
            D = random_divisor(G, rng)
            red = dv.q_reduce(G, D)
            assert dv.q_reduce(G, red) == red
            assert dv.is_q_reduced(G, red)
            f = random_divisor(G, rng, -3, 3)
            assert dv.q_reduce(G, dv.add(D, dv.laplacian_of(G, f))) == red


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_equivalence_via_laplacian(seed):
    G = random_graph(seed)
    rng = random.Random(seed + 1)
    D = random_divisor(G, rng)
    f = random_divisor(G, rng, -3, 3)
    shifted = dv.add(D, dv.laplacian_of(G, f))
    assert dv.are_equivalent(G, D, shifted)
    bumped = dv.add(D, {G.vertices[0]: 1})
    assert not dv.are_equivalent(G, D, bumped)


@given(st.integers(0, 300), st.data())
@settings(max_examples=40, deadline=None)
def test_q_reduce_constant_under_large_laplacian_shifts(seed, data):
    G = random_graph(seed)
    rng = random.Random(seed)
    D = random_divisor(G, rng)
    red = dv.q_reduce(G, D)
    assert dv.is_q_reduced(G, red)
    f = {v: data.draw(st.integers(-1000, 1000)) for v in G.vertices}
    shifted = dv.add(D, dv.laplacian_of(G, f))
    assert dv.q_reduce(G, shifted) == red


def test_q_reduce_k4_coefficients_at_the_bound():
    # every class of Pic(K4) = Z/4 x Z/4 has order dividing 4, so 10**6 copies
    # of (1) - (4) are principal and one more copy is the class of k = 1
    G = corpus.k4()
    k = 10**6
    assert dv.q_reduce(G, {"4": -k, "1": k}) == {"1": 0, "2": 0, "3": 0, "4": 0}
    assert dv.q_reduce(G, {"4": -k - 1, "1": k + 1}) == dv.q_reduce(G, {"4": -1, "1": 1})


def simple_graph(vertices, pairs):
    """A ribbon graph on ``pairs``, each rotation in incidence order."""
    edges = [(f"e{i}", pair) for i, pair in enumerate(pairs)]
    rotation = {v: [e for e, pair in edges if v in pair] for v in vertices}
    return RibbonGraph(vertices, edges, rotation)


def test_kirchhoff_small_values():
    # frozen: known tree counts
    assert dv.tree_count_determinant(corpus.k3()) == 3
    assert dv.tree_count_determinant(corpus.k4()) == 16
    assert dv.tree_count_determinant(corpus.k5()) == 125
    assert dv.tree_count_determinant(corpus.k33()) == 81
    assert dv.tree_count_determinant(corpus.banana4()) == 4
    assert dv.tree_count_determinant(corpus.path3()) == 1
    # a disconnected graph, whose count would be 0, cannot be built
    with pytest.raises(ValidationError, match="underlying graph is not connected"):
        simple_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])


def test_kirchhoff_closed_forms():
    for n in range(2, 11):
        vs = [str(i) for i in range(n)]
        K = simple_graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])
        assert dv.tree_count_determinant(K) == n ** (n - 2)  # Cayley
    for m in range(1, 6):
        for n in range(1, 6):
            left = [f"a{i}" for i in range(m)]
            right = [f"b{j}" for j in range(n)]
            K = simple_graph(left + right, [(a, b) for a in left for b in right])
            assert dv.tree_count_determinant(K) == m ** (n - 1) * n ** (m - 1)


def test_kirchhoff_grid_10x10():
    name = lambda r, c: f"{r},{c}"
    pairs = [(name(r, c), name(r, c + 1)) for r in range(10) for c in range(9)]
    pairs += [(name(r, c), name(r + 1, c)) for r in range(9) for c in range(10)]
    grid = simple_graph([name(r, c) for r in range(10) for c in range(10)], pairs)
    assert dv.tree_count_determinant(grid) == 5694319004079097795957215725765328371712000


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_counting_cross_check(seed):
    G = random_graph(seed)
    n = len(spanning_trees(G))
    assert dv.tree_count_determinant(G) == n
    assert dv.picard_group(G).order == n


def test_group_axioms_exhaustive_k4():
    group = dv.picard_group(corpus.k4())
    els = group.elements
    assert group.order == 16
    assert group.zero in els
    for a in els:
        assert group.add(a, dv._q_reduce(group.graph, tuple(-c for c in a), group.q)) == group.zero
        assert group.add(a, group.zero) == a
        for b in els:
            assert group.add(a, b) == group.add(b, a)
            assert group.add(a, b) in els


def test_translation_is_bijection():
    G = corpus.k33()
    group = dv.picard_group(G)
    for u, g in list(dict(dv._generator_keys(G, group.q)).items())[:2]:
        image = {group.add(g, c) for c in group.elements}
        assert image == set(group.elements)


def test_base_point_independence_of_classes():
    # class identity does not depend on which vertex reduces the difference
    G = corpus.k4()
    rng = random.Random(9)
    for _ in range(10):
        D1 = random_divisor(G, rng)
        D2 = random_divisor(G, rng)
        diff = {v: D1[v] - D2[v] for v in G.vertices}
        verdicts = {
            all(
                c == 0
                for c in dv._q_reduce(G, dv.divisor_to_tuple(G, diff), q)
            )
            for q in G.vertices
        }
        assert len(verdicts) == 1


# -- the generator classes [(u) - (q)] --------------------------------------------


def _assert_generators_match_oracle(G):
    """``_generator_keys`` at every base r against reducing the name-keyed
    class {u: 1, q: -1}, and at q against the Picard group's elements."""
    q = G.vertices[0]
    for r in G.vertices:
        expected = tuple(
            (u, dv._q_reduce(G, dv.class_to_tuple(G, {u: 1, q: -1}), r))
            for u in G.vertices[1:]
        )
        assert dv._generator_keys(G, r) == expected, r
    group = dv.picard_group(G)
    generators = dict(dv._generator_keys(G, group.q))
    assert list(generators) == list(G.vertices[1:])
    assert set(generators.values()) <= set(group.elements)


def test_generator_keys_match_oracle_on_default_corpus():
    graphs = corpus.default_corpus()
    assert len(graphs) == 36
    for _, G in graphs:
        _assert_generators_match_oracle(G)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_generator_keys_match_oracle_random(seed):
    _assert_generators_match_oracle(random_graph(seed))


def _generator_keys_signs_swapped(G, r):
    """The classes [(q) - (u)] in place of [(u) - (q)]."""
    n = len(G.vertices)
    return tuple(
        (u, dv._q_reduce(G, tuple((i == 0) - (i == k) for i in range(n)), r))
        for k, u in enumerate(G.vertices)
        if k
    )


def test_generator_oracle_catches_swapped_signs(monkeypatch):
    G = corpus.k4()
    _assert_generators_match_oracle(G)
    monkeypatch.setattr(dv, "_generator_keys", _generator_keys_signs_swapped)
    with pytest.raises(AssertionError):
        _assert_generators_match_oracle(G)
