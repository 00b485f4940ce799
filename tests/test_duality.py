"""Planar duality: the dual graph, dual trees, the class isomorphism, and the
commuting square of the two tree actions."""

import dataclasses
import random

import pytest

from treetorsor import bernardi, corpus
from treetorsor import divisors as dv
from treetorsor import duality as du
from treetorsor.errors import DegreeMismatch, HasBridge, NotPlanar, NotSpanningTree
from treetorsor.ribbon import RibbonGraph, spanning_trees, trace_faces


def planar_k4():
    return corpus.planar_rotation(corpus.k4())


def _mirrored(corr):
    """The mirror image of the dual dart convention: each dart goes to the dual
    dart leaving its own face, not the face of its reverse.  The commuting
    square must fail it."""
    dart_map = {d: corr.dual.reverse(x) for d, x in corr.dart_map.items()}
    return dataclasses.replace(corr, dart_map=dart_map)


def test_dual_of_theta_is_triangle():
    # frozen: theta has 3 faces; the dual has 3 vertices, 3 edges, genus 0
    corr = du.dual_graph(corpus.theta(planar=True))
    Gd = corr.dual
    assert len(Gd.vertices) == 3
    assert len(Gd.edges) == 3
    assert trace_faces(Gd).topological_genus == 0
    assert len(trace_faces(Gd).faces) == 2  # |V(theta)|


def test_dual_of_triangle_is_theta():
    corr = du.dual_graph(corpus.k3())
    Gd = corr.dual
    assert len(Gd.vertices) == 2
    assert len(Gd.edges) == 3
    assert all(len(Gd.incident[f]) == 3 for f in Gd.vertices)
    assert trace_faces(Gd).topological_genus == 0


def test_dual_rejects_nonplanar():
    with pytest.raises(NotPlanar):
        du.dual_graph(corpus.theta(planar=False))


def test_dual_rejects_bridge():
    # the first bridge in file order is named
    with pytest.raises(HasBridge, match="'e12'"):
        du.dual_graph(corpus.path3())
    # a triangle with a pendant edge d at vertex 3
    pendant = RibbonGraph(
        ["1", "2", "3", "4"],
        [("a", ("1", "2")), ("b", ("2", "3")), ("c", ("3", "1")), ("d", ("3", "4"))],
        {"1": ["a", "c"], "2": ["b", "a"], "3": ["c", "d", "b"], "4": ["d"]},
    )
    assert trace_faces(pendant).topological_genus == 0
    with pytest.raises(HasBridge, match="'d'"):
        du.dual_graph(pendant)


def test_dart_map_is_a_bijection():
    G = planar_k4()
    corr = du.dual_graph(G)
    assert sorted(corr.dart_map.values()) == sorted(corr.dual.darts())
    # reverse darts map to reverse darts
    for d, dd in corr.dart_map.items():
        assert corr.dart_map[G.reverse(d)] == corr.dual.reverse(dd)


def test_dual_trees_biject():
    for G in (corpus.theta(planar=True), corpus.k3(), planar_k4()):
        corr = du.dual_graph(G)
        duals = {du.dual_tree(corr, T) for T in spanning_trees(G)}
        assert duals == set(spanning_trees(corr.dual))
        for T in spanning_trees(G):
            assert len(du.dual_tree(corr, T)) == G.genus_comb


def test_dual_tree_rejects_a_non_tree():
    corr = du.dual_graph(corpus.theta(planar=True))
    for T in (frozenset(), frozenset({"p", "q"}), frozenset({"p", "q", "r"})):
        with pytest.raises(NotSpanningTree):
            du.dual_tree(corr, T)


def test_boundary_of_chain():
    for G, D in (
        (corpus.k3(), {"1": -2, "2": 1, "3": 1}),
        (planar_k4(), {"1": 3, "2": -1, "3": 0, "4": -2}),
    ):
        chain = du._chain_for(G, D)
        assert dv.tuple_to_divisor(G, du._boundary(G, chain.items())) == D


def test_psi_requires_degree_zero():
    corr = du.dual_graph(corpus.k3())
    with pytest.raises(DegreeMismatch):
        du.psi_class(corr, {"1": 1})


def test_psi_representative_independent():
    G = corpus.k3()
    corr = du.dual_graph(G)
    rng = random.Random(4)
    gamma = {"2": 1, "1": -1}
    base = du.psi_class(corr, gamma)
    for _ in range(5):
        f = {v: rng.randint(-3, 3) for v in G.vertices}
        shifted = dv.add(gamma, dv.laplacian_of(G, f))
        assert du.psi_class(corr, shifted) == base


def test_psi_is_isomorphism():
    for G in (corpus.theta(planar=True), corpus.k3(), planar_k4()):
        corr = du.dual_graph(G)
        group = dv.picard_group(G)
        dual_group = dv.picard_group(corr.dual)
        image = {
            c: dv.divisor_to_tuple(
                corr.dual, du.psi_class(corr, dv.tuple_to_divisor(G, c))
            )
            for c in group.elements
        }
        assert len(set(image.values())) == group.order == dual_group.order
        for a in group.elements:
            for b in group.elements:
                assert dual_group.add(image[a], image[b]) == image[group.add(a, b)]


def test_square_commutes_everywhere():
    for G in (corpus.theta(planar=True), corpus.k3(), planar_k4()):
        corr = du.dual_graph(G)
        group = dv.picard_group(G)
        v = G.vertices[0]
        for c in group.elements:
            gamma = dv.tuple_to_divisor(G, c)
            for T in spanning_trees(G):
                assert du.duality_square_check(corr, v, gamma, T)


def _square_oracle(corr, v, gamma, T):
    """duality_square_check through both actions: an inverse on each side."""
    dual, q = corr.dual, corr.dual.vertices[0]
    lhs = du.dual_tree(corr, bernardi.bernardi_act(corr.primal, v, gamma, T))
    psi = du._psi(corr, du._chain_for(corr.primal, gamma))
    return lhs == bernardi._act(dual, q, dual.rotation[q][0], psi, du.dual_tree(corr, T))


@pytest.mark.parametrize("mirror", [False, True], ids=["dual", "mirror"])
def test_square_matches_two_inverse_oracle(mirror):
    verdicts = []
    for _, G in corpus.default_corpus():
        try:
            corr = du.dual_graph(G)
        except (NotPlanar, HasBridge):
            continue
        if mirror:
            corr = _mirrored(corr)
        for v in G.vertices:
            for c in dv.picard_group(G).elements:
                gamma = dv.tuple_to_divisor(G, c)
                for T in spanning_trees(G):
                    verdicts.append(du.duality_square_check(corr, v, gamma, T))
                    assert verdicts[-1] == _square_oracle(corr, v, gamma, T), (v, gamma, sorted(T))
    assert len(verdicts) > 1000
    assert all(verdicts) != mirror


def test_mirror_convention_fails_the_square():
    # the self-test: the wrong mirror image of the dart map must be caught by
    # the commuting square on some (gamma, T)
    G = corpus.k3()
    corr = _mirrored(du.dual_graph(G))
    group = dv.picard_group(G)
    verdicts = [
        du.duality_square_check(corr, "1", dv.tuple_to_divisor(G, c), T)
        for c in group.elements
        for T in spanning_trees(G)
    ]
    assert not all(verdicts)
