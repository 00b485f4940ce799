"""Tours, the tree -> break divisor map, its inverses, and the tree action."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import bernardi
from treetorsor import breakdiv as bk
from treetorsor import corpus
from treetorsor import divisors as dv
from treetorsor.bernardi import (
    alpha_left,
    alpha_right,
    bernardi_act,
    bernardi_beta,
    bernardi_tour,
    beta_table,
    shift_difference_check,
)
from treetorsor.errors import NotBreakDivisor, NotIncident
from treetorsor.ribbon import RibbonGraph, spanning_trees


def random_graph(seed):
    return corpus.random_multigraph(random.Random(seed))


def test_k3_tour_frozen():
    # frozen by hand-tracing the rotation 1:(a,c) 2:(b,a) 3:(c,b)
    G = corpus.k3()
    tour = bernardi_tour(G, "1", "a", frozenset({"a", "b"}))
    assert [(s.at_vertex, s.edge, s.action) for s in tour.steps] == [
        ("1", "a", "walk"),
        ("2", "b", "walk"),
        ("3", "c", "cut"),
        ("3", "b", "walk"),
        ("2", "a", "walk"),
        ("1", "c", "cut"),
    ]
    assert tour.eta == {"c": "3"}
    assert tour.dump().splitlines()[0] == "1 a walk"


def test_k3_beta_table_frozen():
    # frozen by hand: each tree's non-tree edge is first cut at one endpoint
    G = corpus.k3()
    table = beta_table(G, "1", "a")
    assert table == {
        frozenset({"a", "b"}): (0, 0, 1),
        frozenset({"a", "c"}): (0, 1, 0),
        frozenset({"b", "c"}): (1, 0, 0),
    }


def test_tour_length_and_cut_balance():
    for _, G in corpus.default_corpus()[:12]:
        for T in spanning_trees(G)[:4]:
            for v in G.vertices[:2]:
                e = G.rotation[v][0]
                tour = bernardi_tour(G, v, e, T)
                assert len(tour.steps) == 2 * len(G.edges)
                cuts = [s for s in tour.steps if s.action == "cut"]
                assert len(cuts) == 2 * (len(G.edges) - len(T))
                assert set(tour.eta) == set(G.edge_ids) - T


def test_tours_are_cyclic_shifts():
    G = corpus.k4()
    T = spanning_trees(G)[0]
    base = None
    for v in G.vertices:
        for e in G.incident[v]:
            steps = list(bernardi_tour(G, v, e, T).steps)
            if base is None:
                base = steps + steps
            assert any(
                base[i : i + len(steps)] == steps for i in range(len(steps))
            )


def test_incidence_guard():
    G = corpus.k3()
    with pytest.raises(NotIncident):
        bernardi_tour(G, "1", "b", frozenset({"a", "b"}))
    with pytest.raises(NotIncident):
        alpha_right(G, "1", "b", {"3": 1})


def test_inverses_on_k3():
    G = corpus.k3()
    for T in spanning_trees(G):
        D = bernardi_beta(G, "1", "a", T).divisor
        assert alpha_right(G, "1", "a", D) == T
        assert alpha_left(G, "1", "a", D) == T


def test_alpha_rejects_non_break_divisor():
    G = corpus.theta(planar=True)
    with pytest.raises(NotBreakDivisor):
        alpha_right(G, "u", "p", {"u": -1, "v": 3})


def test_inverses_build_no_graphs(monkeypatch):
    # the inverses tour G minus the cut edges in place; no minor is built
    built = []
    init = RibbonGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    for G in (corpus.k5(), corpus.theta(planar=True)):
        v = G.vertices[0]
        e = G.rotation[v][0]
        cases = [(T, bernardi_beta(G, v, e, T).divisor) for T in spanning_trees(G)]
        bernardi._alpha.cache_clear()
        bk._is_break.cache_clear()
        monkeypatch.setattr(RibbonGraph, "__init__", counting_init)
        for T, D in cases:
            assert alpha_right(G, v, e, D) == T
            assert alpha_left(G, v, e, D) == T
        monkeypatch.undo()
    assert built == []


@given(st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_bijectivity_random(seed):
    G = random_graph(seed)
    v = G.vertices[0]
    e = G.rotation[v][0]
    trees = spanning_trees(G)
    images = set()
    for T in trees:
        beta = bernardi_beta(G, v, e, T)
        images.add(beta.chips)
        assert alpha_right(G, v, e, beta.divisor) == T
        assert alpha_left(G, v, e, beta.divisor) == T
    assert images == {bd.chips for bd in bk.enumerate_break_divisors(G)}


def test_action_identity_and_transitivity_k3():
    G = corpus.k3()
    trees = spanning_trees(G)
    group = dv.picard_group(G)
    for T in trees:
        assert bernardi_act(G, "1", {}, T) == T
        image = {
            bernardi_act(G, "1", dv.tuple_to_divisor(G, c), T)
            for c in group.elements
        }
        assert image == set(trees)


def test_action_edge_independence():
    G = corpus.k4()
    gamma = {"2": 1, "1": -1}
    for T in spanning_trees(G)[:6]:
        for v in G.vertices:
            results = {bernardi_act(G, v, gamma, T, e=e) for e in G.incident[v]}
            assert len(results) == 1


def test_action_additive_on_generators():
    G = corpus.theta(planar=True)
    group = dv.picard_group(G)
    v = "u"
    gamma1 = {"v": 1, "u": -1}
    for c in group.elements:
        gamma2 = dv.tuple_to_divisor(G, c)
        for T in spanning_trees(G):
            assert bernardi_act(G, v, dv.add(gamma1, gamma2), T) == bernardi_act(
                G, v, gamma1, bernardi_act(G, v, gamma2, T)
            )


@given(st.integers(0, 300))
@settings(max_examples=10, deadline=None)
def test_shift_formula_random(seed):
    G = random_graph(seed)
    v = G.vertices[0]
    incident = G.incident[v]
    for T in spanning_trees(G)[:3]:
        for e1 in incident[:3]:
            for e2 in incident[:3]:
                lhs, rhs, equal = shift_difference_check(G, v, e1, e2, T)
                assert equal, (lhs, rhs)


def test_shift_formula_exhaustive_k4():
    G = corpus.k4()
    for T in spanning_trees(G):
        for v in G.vertices:
            for e1 in G.incident[v]:
                for e2 in G.incident[v]:
                    _, _, equal = shift_difference_check(G, v, e1, e2, T)
                    assert equal
