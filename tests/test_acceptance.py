"""Acceptance gate: the nine headline criteria, exact integer equality.

Each criterion is one test; a visible one-line verdict is printed even under
pytest's capture, and each test asserts its own wall-clock budget.
"""

import time
from itertools import combinations

import pytest

from treetorsor import breakdiv as bk
from treetorsor import corpus
from treetorsor import divisors as dv
from treetorsor import duality as du
from treetorsor import rotor as rt
from treetorsor import suite as sw
from treetorsor.bernardi import (
    alpha_left,
    alpha_right,
    bernardi_act,
    bernardi_beta,
    shift_difference_check,
)
from treetorsor.ribbon import RibbonGraph, reach, spanning_trees, trace_faces

CORPUS = corpus.default_corpus()


def _planar(G: RibbonGraph) -> bool:
    return trace_faces(G).topological_genus == 0


def _bridgeless(G: RibbonGraph) -> bool:
    n, root = len(G.vertices), G.vertices[:1]
    return all(len(reach(G, root, set(G.edge_ids) - {e})) == n for e in G.edge_ids)


@pytest.fixture()
def verdict(capsys, request):
    start = time.time()
    yield None
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"PASS {request.node.name} ({elapsed:.1f}s)")


def test_criterion_1_counting(verdict):
    start = time.time()
    for name, G in CORPUS:
        n = len(spanning_trees(G))
        assert n == dv.tree_count_determinant(G), name
        assert n == dv.picard_group(G).order, name
        assert n == len(bk.enumerate_break_divisors(G)), name
    assert time.time() - start < 10


def test_criterion_2_bijectivity(verdict):
    start = time.time()
    for name, G in CORPUS:
        breaks = {bd.chips: bd.divisor for bd in bk.enumerate_break_divisors(G)}
        trees = spanning_trees(G)
        for v in G.vertices:
            for e in G.incident[v]:
                # alpha_L inverts beta on every spanning tree
                image = set()
                for T in trees:
                    beta = bernardi_beta(G, v, e, T)
                    image.add(beta.chips)
                    assert alpha_left(G, v, e, beta.divisor) == T, (name, v, e)
                assert image == set(breaks), (name, v, e)
                # beta inverts alpha_R on every break divisor; alpha_L = alpha_R
                for key, D in breaks.items():
                    T = alpha_right(G, v, e, D)
                    assert bernardi_beta(G, v, e, T).chips == key, (name, v, e)
                    assert alpha_left(G, v, e, D) == T, (name, v, e)
    assert time.time() - start < 60


def test_criterion_3_edge_independence_and_shift_formula(verdict):
    start = time.time()
    for name, G in CORPUS:
        trees = spanning_trees(G)
        gens = [{u: 1, G.vertices[0]: -1} for u in G.vertices[1:]]
        for v in G.vertices:
            for gamma in gens:
                for T in trees:
                    results = {
                        bernardi_act(G, v, gamma, T, e=e) for e in G.incident[v]
                    }
                    assert len(results) == 1, (name, v)
            for e1 in G.incident[v]:
                for e2 in G.incident[v]:
                    for T in trees:
                        lhs, rhs, equal = shift_difference_check(G, v, e1, e2, T)
                        assert equal, (name, v, e1, e2, lhs, rhs)
    assert time.time() - start < 60


def test_criterion_4_planarity_dichotomy(verdict):
    start = time.time()
    systems = list(corpus.rotation_systems(corpus.theta())) + list(
        corpus.rotation_systems(corpus.k4())
    )
    assert len(systems) == 4 + 16
    witnesses = []
    for G in systems:
        agreement = {
            (v1, v2): sw.compare_bernardi_vertices(G, v1, v2)
            for v1, v2 in combinations(G.vertices, 2)
        }
        if _planar(G):
            assert all(same for same, _ in agreement.values())
        else:
            differing = [
                (pair, w) for pair, (same, w) in agreement.items() if not same
            ]
            assert differing
            witnesses.append((G.rotation, differing[0]))
    assert len(witnesses) == 2 + 14
    assert time.time() - start < 120


def test_criterion_5_torsor_agreement_planar(verdict):
    start = time.time()
    for name, G in CORPUS:
        if not _planar(G):
            continue
        for v in G.vertices:
            same, witness = sw.compare_torsors(G, v)
            assert same, (name, v, witness)
    assert time.time() - start < 120


def test_criterion_6_nonplanar_divergence(verdict):
    start = time.time()
    report = sw.search_conjecture(corpus.k4())
    bumpy = [s for s in report["systems"] if s["genus"] > 0]
    assert bumpy
    # at least one non-planar system and vertex where the torsors differ
    assert any(s["disagreeing_vertices"] for s in bumpy)
    # per-system verdicts are recorded for every non-planar system; a system
    # with no distinguishing vertex would be a counterexample finding
    for s in bumpy:
        assert "disagreeing_vertices" in s
    if report["counterexamples"]:
        print("conjecture counterexamples found:", report["counterexamples"])
    assert time.time() - start < 120


def test_criterion_7_duality(verdict):
    start = time.time()
    for name, G in CORPUS:
        if not (_planar(G) and _bridgeless(G)):
            continue
        corr = du.dual_graph(G)
        group = dv.picard_group(G)
        v = G.vertices[0]
        for c in group.elements:
            gamma = dv.tuple_to_divisor(G, c)
            for T in spanning_trees(G):
                assert du.duality_square_check(corr, v, gamma, T), (name, gamma)
    theta_dual = du.dual_graph(corpus.theta(planar=True)).dual
    k3_dual = du.dual_graph(corpus.k3()).dual
    assert _ribbon_isomorphic(theta_dual, corpus.k3())
    assert _ribbon_isomorphic(k3_dual, corpus.theta(planar=True))
    assert time.time() - start < 60


def test_criterion_8_rotor_mechanics(verdict):
    start = time.time()
    systems = list(corpus.rotation_systems(corpus.theta())) + list(
        corpus.rotation_systems(corpus.k4())
    )
    for G in systems:
        for C in rt.simple_cycles(G)[:3]:
            rotor = {d.tail: d.edge for d in C}
            reached = set(rotor)
            while len(reached) < len(G.vertices):
                for w in G.vertices:
                    if w not in reached:
                        e = next(
                            (f for f in G.incident[w] if G.other_end(f, w) in reached),
                            None,
                        )
                        if e is not None:
                            rotor[w] = e
                            reached.add(w)
            states, darts = rt.unicycle_orbit(G, rotor, C[0].tail)
            assert states[0] == states[-1]
            assert len(darts) == 2 * len(G.edges) == len(set(darts))
        assert rt.all_cycles_reversible(G) == _planar(G)
    assert time.time() - start < 120


def _by_name(act):
    """The public action ``act`` on a class key, passed as a name-keyed divisor."""
    return lambda G, v, c, T: act(G, v, dv.tuple_to_divisor(G, c), T)


def test_criterion_9_property_suites(verdict):
    start = time.time()
    import random

    for name, G in CORPUS:
        rng = random.Random(17)
        # canonical forms: idempotent and representative-independent
        for _ in range(4):
            D = {v: rng.randint(-4, 4) for v in G.vertices}
            red = dv.q_reduce(G, D)
            assert dv.q_reduce(G, red) == red, name
            f = {v: rng.randint(-3, 3) for v in G.vertices}
            assert dv.q_reduce(G, dv.add(D, dv.laplacian_of(G, f))) == red, name
        # torsor axioms for both public actions, each class passed by name
        report = sw.SuiteReport()
        sw._check_torsor_axioms(report, name, G, "bernardi-torsor", _by_name(bernardi_act))
        sw._check_torsor_axioms(report, name, G, "rotor-torsor", _by_name(rt.rotor_act))
        assert report.ok, [r.to_json() for r in report.records if not r.ok]
    assert time.time() - start < 120


def _ribbon_isomorphic(G: RibbonGraph, H: RibbonGraph) -> bool:
    """Brute-force ribbon-graph isomorphism for tiny graphs: a vertex and edge
    relabeling carrying ends to ends and rotations to rotations cyclically."""
    from itertools import permutations

    if len(G.vertices) != len(H.vertices) or len(G.edges) != len(H.edges):
        return False

    def cyclic_equal(a, b):
        if len(a) != len(b):
            return False
        if not a:
            return True
        doubled = b + b
        return any(doubled[i : i + len(a)] == list(a) for i in range(len(b)))

    for vperm in permutations(H.vertices):
        vmap = dict(zip(G.vertices, vperm))
        for eperm in permutations(H.edge_ids):
            emap = dict(zip(G.edge_ids, eperm))
            if any(
                {vmap[a], vmap[b]} != set(H.ends[emap[e]])
                for e, (a, b) in G.edges
            ):
                continue
            if all(
                cyclic_equal(
                    [emap[e] for e in G.rotation[v]], list(H.rotation[vmap[v]])
                )
                for v in G.vertices
            ):
                return True
    return False
