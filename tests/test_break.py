"""Break divisors: compatibility, membership, enumeration, representatives."""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import breakdiv as bk
from treetorsor import corpus
from treetorsor import divisors as dv
from treetorsor.errors import DegreeMismatch, UniquenessViolation
from treetorsor.ribbon import RibbonGraph, spanning_trees


def random_graph(seed):
    return corpus.random_multigraph(random.Random(seed))


def test_theta_break_divisors():
    # frozen: genus 2, breaks are 2u, u+v, 2v
    G = corpus.theta(planar=True)
    breaks = bk.enumerate_break_divisors(G)
    assert sorted(bd.chips for bd in breaks) == [(0, 2), (1, 1), (2, 0)]


def test_k3_break_divisors():
    # frozen: genus 1, one chip anywhere
    G = corpus.k3()
    breaks = bk.enumerate_break_divisors(G)
    assert sorted(bd.chips for bd in breaks) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_compatibility_witness():
    G = corpus.theta(planar=True)
    T = frozenset({"p"})
    ok, assignment = bk.is_compatible(G, {"u": 1, "v": 1}, T)
    assert ok
    assert sorted(assignment) == ["q", "r"]
    assert sorted(assignment.values()) == ["u", "v"]
    ok, assignment = bk.is_compatible(G, {"u": 2}, T)
    assert ok
    assert assignment == {"q": "u", "r": "u"}


def test_compatibility_degree_guard():
    G = corpus.theta(planar=True)
    with pytest.raises(DegreeMismatch):
        bk.is_compatible(G, {"u": 1}, frozenset({"p"}))
    with pytest.raises(DegreeMismatch):
        bk.is_compatible(G, {"u": 3, "v": -1}, frozenset({"p"}))


def test_membership():
    G = corpus.k3()
    assert bk.is_break_divisor(G, {"3": 1})
    assert not bk.is_break_divisor(G, {"1": 2, "3": -1})


def test_tree_graph_has_single_empty_break():
    G = corpus.path3()
    breaks = bk.enumerate_break_divisors(G)
    assert len(breaks) == 1
    assert dv.degree(breaks[0].divisor) == 0


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_count_matches_trees(seed):
    G = random_graph(seed)
    assert len(bk.enumerate_break_divisors(G)) == len(spanning_trees(G))


@given(st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_breaks_pairwise_inequivalent(seed):
    G = random_graph(seed)
    keys = {
        dv._q_reduce(G, bd.chips, G.vertices[0])
        for bd in bk.enumerate_break_divisors(G)
    }
    assert len(keys) == len(bk.enumerate_break_divisors(G))


def test_representative_identity_and_shift():
    G = corpus.k4()
    rng = random.Random(3)
    for bd in bk.enumerate_break_divisors(G):
        assert bk.break_representative(G, bd.divisor).divisor == bd.divisor
        f = {v: rng.randint(-2, 2) for v in G.vertices}
        shifted = dv.add(bd.divisor, dv.laplacian_of(G, f))
        assert bk.break_representative(G, shifted).divisor == bd.divisor


def test_representative_degree_guard():
    G = corpus.k3()
    with pytest.raises(DegreeMismatch):
        bk.break_representative(G, {"1": 2})


def test_every_witness_is_compatible():
    for _, G in corpus.default_corpus()[:10]:
        for bd in bk.enumerate_break_divisors(G):
            ok, _ = bk.is_compatible(G, bd.divisor, bd.witness_tree)
            assert ok


def _minor(G, removed):
    """G minus the edges ``removed``, built as its own graph with the induced
    rotation: the reference that ``_is_break(G, removed, ...)`` replaces."""
    return RibbonGraph(
        G.vertices,
        [ed for ed in G.edges if ed[0] not in removed],
        {v: [e for e in G.rotation[v] if e not in removed] for v in G.vertices},
    )


def _effective(n, k):
    """Every non-negative coefficient tuple of length n and degree k."""
    if k < 0:
        return
    for picks in combinations_with_replacement(range(n), k):
        yield tuple(picks.count(i) for i in range(n))


def _assert_matches_minor(G, removed):
    H = _minor(G, removed)
    for dt in _effective(len(G.vertices), G.genus_comb - len(removed)):
        expected = bk.is_break_divisor(H, dv.tuple_to_divisor(H, dt))
        assert bk._is_break(G, removed, dt) == expected, (sorted(removed), dt)


def test_is_break_minus_edges_matches_explicit_minor():
    graphs = [corpus.path3(), corpus.k3(), corpus.theta(planar=True),
              corpus.banana4(), corpus.k4(), corpus.k33()]
    for G in graphs:
        for e in G.edge_ids:
            _assert_matches_minor(G, frozenset({e}))


@given(st.integers(0, 300), st.data())
@settings(max_examples=15, deadline=None)
def test_is_break_minus_edges_matches_explicit_minor_random(seed, data):
    G = random_graph(seed)
    for e in G.edge_ids:
        _assert_matches_minor(G, frozenset({e}))
    removed = data.draw(st.frozensets(st.sampled_from(G.edge_ids), max_size=3))
    _assert_matches_minor(G, removed)
