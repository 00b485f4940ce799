"""Naturality under relabelling, and the orbit search that rests on it.

A ribbon graph under fresh vertex and edge names, in another file order and
with each rotation started elsewhere, is the same ribbon graph.  Every public
answer must then map through the renaming.  ``search_conjecture`` relies on
this for the automorphisms of the underlying graph: it compares one rotation
system per orbit and maps that answer onto the rest of the orbit.
"""

import random
import time
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import clear_caches, corpus, suite
from treetorsor import divisors as dv
from treetorsor import duality as du
from treetorsor.bernardi import alpha_left, alpha_right, bernardi_act, bernardi_beta, bernardi_tour
from treetorsor.errors import HasBridge, NotPlanar
from treetorsor.ribbon import Dart, RibbonGraph, spanning_trees, trace_faces
from treetorsor.rotor import rotor_act


def relabel(G, rng):
    """``G`` under fresh names, with vertices, edges and each edge's ends in
    a shuffled order and each rotation started at a random position; returns
    the new graph and the vertex and edge renamings."""
    vmap = dict(zip(G.vertices, rng.sample([f"x{i}" for i in range(len(G.vertices))], len(G.vertices))))
    emap = dict(zip(G.edge_ids, rng.sample([f"y{i}" for i in range(len(G.edges))], len(G.edges))))
    edges = []
    for e, (a, b) in rng.sample(G.edges, len(G.edges)):
        a, b = rng.sample([vmap[a], vmap[b]], 2)
        edges.append((emap[e], (a, b)))
    rotation = {}
    for v in G.vertices:
        cycle = [emap[e] for e in G.rotation[v]]
        k = rng.randrange(len(cycle))
        rotation[vmap[v]] = cycle[k:] + cycle[:k]
    vertices = [vmap[v] for v in rng.sample(G.vertices, len(G.vertices))]
    return RibbonGraph(vertices, edges, rotation), vmap, emap


def wheel(spokes):
    rim = [f"w{i}" for i in range(spokes)]
    edges = [(f"s{i}", ("hub", w)) for i, w in enumerate(rim)]
    edges += [(f"r{i}", (w, rim[(i + 1) % spokes])) for i, w in enumerate(rim)]
    vertices = ["hub"] + rim
    return RibbonGraph(vertices, edges, {v: [e for e, p in edges if v in p] for v in vertices})


def petersen():
    outer, inner = [f"o{i}" for i in range(5)], [f"i{i}" for i in range(5)]
    edges = [(f"a{i}", (outer[i], outer[(i + 1) % 5])) for i in range(5)]
    edges += [(f"b{i}", (outer[i], inner[i])) for i in range(5)]
    edges += [(f"c{i}", (inner[i], inner[(i + 2) % 5])) for i in range(5)]
    vertices = outer + inner
    return RibbonGraph(vertices, edges, {v: [e for e, p in edges if v in p] for v in vertices})


def diamond_and_triangle():
    """A diamond (4-cycle abcd with chord ac) and a triangle def sharing d:
    some positive-genus systems have a vertex at which the actions agree."""
    pairs = ["ab", "bc", "cd", "da", "ac", "de", "ef", "fd"]
    edges = [(p, (p[0], p[1])) for p in pairs]
    vertices = list("abcdef")
    return RibbonGraph(vertices, edges, {v: [e for e, p in edges if v in p] for v in vertices})


def _assert_natural(G, rng):
    H, vmap, emap = relabel(G, rng)
    tree = lambda T: frozenset(emap[e] for e in T)
    cls = lambda D: {vmap[u]: c for u, c in D.items()}

    trees = spanning_trees(G)
    assert {tree(T) for T in trees} == set(spanning_trees(H))
    assert trace_faces(H).topological_genus == trace_faces(G).topological_genus
    for _ in range(3):
        v, T, S = rng.choice(G.vertices), rng.choice(trees), rng.choice(trees)
        e = rng.choice(G.incident[v])
        hv, he, hT = vmap[v], emap[e], tree(T)
        tour, htour = bernardi_tour(G, v, e, T), bernardi_tour(H, hv, he, hT)
        assert [(vmap[s.at_vertex], emap[s.edge], s.action) for s in tour.steps] == [
            tuple(s) for s in htour.steps
        ]
        assert {emap[f]: vmap[u] for f, u in tour.eta.items()} == htour.eta
        D = bernardi_beta(G, v, e, S).divisor
        assert cls(D) == bernardi_beta(H, hv, he, tree(S)).divisor
        assert tree(alpha_right(G, v, e, D)) == alpha_right(H, hv, he, cls(D)) == tree(S)
        assert tree(alpha_left(G, v, e, D)) == alpha_left(H, hv, he, cls(D)) == tree(S)

        gamma = {u: rng.randint(-2, 2) for u in G.vertices}
        gamma[G.vertices[0]] -= sum(gamma.values())
        assert tree(bernardi_act(G, v, gamma, T, e=e)) == bernardi_act(H, hv, cls(gamma), hT, e=he)
        assert tree(rotor_act(G, v, gamma, T)) == rotor_act(H, hv, cls(gamma), hT)
        try:
            corr = du.dual_graph(G)
        except (NotPlanar, HasBridge):
            continue
        # faces carry no names of their own: match them by one of their darts
        hcorr = du.dual_graph(H)
        hface = {d: f for f, face in hcorr.face_map.items() for d in face}
        fmap = {f: hface[Dart(emap[d.edge], vmap[d.tail])] for f, (d, *_) in corr.face_map.items()}
        image = {fmap[f]: c for f, c in du.psi_class(corr, gamma).items()}
        assert dv.are_equivalent(hcorr.dual, image, du.psi_class(hcorr, cls(gamma)))

    for v in G.vertices:
        assert suite.compare_torsors(G, v)[0] == suite.compare_torsors(H, vmap[v])[0]
    v1, v2 = rng.sample(G.vertices, 2)
    assert (suite.compare_bernardi_vertices(G, v1, v2)[0]
            == suite.compare_bernardi_vertices(H, vmap[v1], vmap[v2])[0])


@pytest.mark.parametrize("name,G", [pytest.param(n, G, id=n) for n, G in corpus.default_corpus()])
def test_public_answers_are_natural_on_default_corpus(name, G):
    _assert_natural(G, random.Random(name))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_public_answers_are_natural_on_random_multigraphs(seed):
    rng = random.Random(seed)
    _assert_natural(corpus.random_multigraph(rng), rng)


# -- the orbit search against every system ---------------------------------------


def _search_every_system(G):
    """The search without orbits: every rotation system is built and compared
    at every vertex, in the order and format of ``search_conjecture``."""
    systems, counterexamples = [], []
    for i, sys in enumerate(corpus.rotation_systems(G)):
        genus = trace_faces(sys).topological_genus
        disagreeing = [v for v in sys.vertices if not suite.compare_torsors(sys, v)[0]]
        assert not (genus == 0 and disagreeing), i
        record = {
            "index": i,
            "rotation": {v: list(sys.rotation[v]) for v in sys.vertices},
            "genus": genus,
            "disagreeing_vertices": disagreeing,
        }
        if genus > 0 and not disagreeing:
            counterexamples.append(record)
        systems.append(record)
    return {
        "base_vertices": list(G.vertices),
        "system_count": len(systems),
        "systems": systems,
        "counterexamples": counterexamples,
    }


def test_automorphism_counts():
    graphs = [corpus.k4(), corpus.k33(), wheel(5), corpus.k5(), petersen(), corpus.path3()]
    graphs.append(diamond_and_triangle())
    assert [len(suite._automorphisms(G)) for G in graphs] == [24, 72, 10, 120, 120, 2, 4]
    H, _, _ = relabel(petersen(), random.Random(5))
    assert len(suite._automorphisms(H)) == 120


@pytest.mark.parametrize(
    "G",
    [corpus.k4(), corpus.k33(), relabel(wheel(5), random.Random(7))[0], diamond_and_triangle()],
    ids=["k4", "k33", "w5-relabelled", "diamond-and-triangle"],
)
def test_orbit_search_matches_every_system(G):
    assert suite.search_conjecture(G) == _search_every_system(G)


def _corners_on_distinct_faces(G, v):
    """A stand-in for ``compare_torsors``: natural under isomorphism, true on
    every vertex of a planar 2-connected graph, and unlike the torsor
    comparison often false at some but not all vertices of one system."""
    face_of = {d: i for i, face in enumerate(trace_faces(G).faces) for d in face}
    return len({face_of[Dart(e, v)] for e in G.incident[v]}) == len(G.incident[v]), None


@pytest.mark.parametrize("G", [corpus.k33(), relabel(wheel(5), random.Random(3))[0]], ids=["k33", "w5"])
def test_orbit_search_maps_disagreeing_vertices(G, monkeypatch):
    # the torsors disagree at every vertex of every non-planar system of these
    # graphs, so only a stand-in checks that the search maps a vertex set
    # through each automorphism and lists it in file order
    monkeypatch.setattr(suite, "compare_torsors", _corners_on_distinct_faces)
    report = suite.search_conjecture(G)
    assert report == _search_every_system(G)
    sizes = {len(s["disagreeing_vertices"]) for s in report["systems"]}
    assert sizes - {0, len(G.vertices)}


@pytest.mark.parametrize("G,count", [(corpus.k5(), 7776), (petersen(), 1024)], ids=["k5", "petersen"])
def test_conjecture_holds_on_every_system(G, count):
    clear_caches()
    start = time.perf_counter()
    report = suite.search_conjecture(G)
    assert time.perf_counter() - start < 1
    assert report["system_count"] == suite.rotation_system_count(G) == count
    assert report["counterexamples"] == []
    # neither graph is planar: every system has a vertex telling the actions apart
    assert all(s["genus"] > 0 and s["disagreeing_vertices"] for s in report["systems"])


def test_search_checks_survive_without_asserts(monkeypatch):
    # explicit raises, so `python -O` keeps them; the genus-0 check runs on
    # the representative of each orbit
    monkeypatch.setattr(suite, "compare_torsors", lambda G, v: (False, {}))
    with pytest.raises(AssertionError, match="genus-0 rotation system where the torsors disagree"):
        suite.search_conjecture(corpus.k4())
    monkeypatch.undo()
    monkeypatch.setattr(suite, "rotation_cycles", lambda G: islice(corpus.rotation_cycles(G), 15))
    with pytest.raises(AssertionError, match="rotation-system enumeration is incomplete"):
        suite.search_conjecture(corpus.k4())
