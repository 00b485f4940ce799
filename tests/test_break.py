"""Break divisors: compatibility, membership, enumeration, representatives."""

import gc
import random
from dataclasses import FrozenInstanceError
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import bernardi, clear_caches
from treetorsor import breakdiv as bk
from treetorsor import corpus
from treetorsor import divisors as dv
from treetorsor import rotor as rt
from treetorsor import suite
from treetorsor.errors import DegreeMismatch, UnknownEdge, ValidationError
from treetorsor.ribbon import RibbonGraph, _shared_tree, spanning_trees
from treetorsor.suite import search_conjecture


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


def test_compatibility_rejects_non_trees():
    theta = corpus.theta(planar=True)
    for T in (frozenset(), frozenset(theta.edge_ids)):
        assert bk.is_compatible(theta, {"u": 2}, T) == (False, None)
    K4 = corpus.k4()
    triangle = frozenset(e for e, ends in K4.edges if "4" not in ends)
    assert len(triangle) == 3
    for bd in bk.enumerate_break_divisors(K4):
        assert bk.is_compatible(K4, bd.divisor, triangle) == (False, None)


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
    assert sum(breaks[0].divisor.values()) == 0


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


def _assert_representatives_match_oracle(G, rng):
    """The orientation-built representative of each class, also of a shifted
    divisor in it, is the enumerated break divisor of that class, and its
    witness tree is compatible with it."""
    for bd in bk.enumerate_break_divisors(G):
        f = {v: rng.randint(-5, 5) for v in G.vertices}
        for D in (bd.divisor, dv.add(bd.divisor, dv.laplacian_of(G, f))):
            rep = bk.break_representative(G, D)
            assert rep.chips == bd.chips, (D, rep.chips, bd.chips)
            ok, _ = bk.is_compatible(G, rep.divisor, rep.witness_tree)
            assert ok, (rep.chips, sorted(rep.witness_tree))


def test_representative_matches_oracle_on_default_corpus():
    rng = random.Random(11)
    for _, G in corpus.default_corpus():
        _assert_representatives_match_oracle(G, rng)


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_representative_matches_oracle_random(seed):
    _assert_representatives_match_oracle(random_graph(seed), random.Random(seed))


def test_break_divisor_is_slotted_and_compares_by_value():
    G = corpus.k4()
    H = list(corpus.rotation_systems(G))[5]
    results = bk.enumerate_break_divisors(G)
    for T in spanning_trees(G):
        beta = bernardi.bernardi_beta(H, "1", H.rotation["1"][0], T)
        results += [beta, bk.break_representative(H, beta.divisor)]
    for bd in results:
        assert not hasattr(bd, "__dict__")
        with pytest.raises(FrozenInstanceError):
            bd.chips = ()
        # equality and hashing are those of the field tuple
        fields = (bd.graph, bd.chips, bd.witness_tree)
        assert bd == bk.BreakDivisor(*fields) and hash(bd) == hash(fields)
        other = next(T for T in spanning_trees(G) if T != bd.witness_tree)
        assert bd != bk.BreakDivisor(bd.graph, bd.chips, other)
    assert len(set(results)) == len({(bd.chips, bd.witness_tree) for bd in results})


def test_representative_degree_guard():
    G = corpus.k3()
    with pytest.raises(DegreeMismatch):
        bk.break_representative(G, {"1": 2})


def test_every_witness_is_compatible():
    for _, G in corpus.default_corpus()[:10]:
        for bd in bk.enumerate_break_divisors(G):
            ok, _ = bk.is_compatible(G, bd.divisor, bd.witness_tree)
            assert ok


def _match(G, demand, edges):
    """Assign each edge to an endpoint so the chosen endpoints use up demand,
    by backtracking: the exhaustive reference for ``bk._orient``."""
    if not edges:
        return {} if not any(demand) else None
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


def _oracle_is_break(G, removed, dt):
    """Exhaustive ``_is_break``: some spanning tree of G avoiding ``removed``
    has its other edges matched to the chips of ``dt``."""
    if sum(dt) != G.genus_comb - len(removed) or any(c < 0 for c in dt):
        return False
    return any(
        _match(G, list(dt), [e for e in G.edge_ids if e not in T and e not in removed])
        is not None
        for T in spanning_trees(G)
        if T.isdisjoint(removed)
    )


def _mask(G, edges):
    """The edge set ``edges`` as the bitmask ``_is_break`` takes: bit i for
    the i-th edge of the file."""
    return sum(1 << G.edge_ids.index(e) for e in set(edges))


def _assert_matches_oracle(G, removed):
    for dt in _effective(len(G.vertices), G.genus_comb - len(removed)):
        assert bk._is_break(G, _mask(G, removed), dt) == _oracle_is_break(G, removed, dt), (
            sorted(removed), dt)


def test_is_break_matches_oracle_on_default_corpus():
    for _, G in corpus.default_corpus():
        _assert_matches_oracle(G, frozenset())
        for e in G.edge_ids:
            _assert_matches_oracle(G, frozenset({e}))


@given(st.integers(0, 300), st.data())
@settings(max_examples=25, deadline=None)
def test_is_break_matches_oracle_random(seed, data):
    G = random_graph(seed)
    removed = data.draw(st.frozensets(st.sampled_from(G.edge_ids), max_size=2))
    _assert_matches_oracle(G, removed)


def test_is_break_matches_oracle_on_inverse_queries(monkeypatch):
    # every (G, removed, D) the inverse reconstructions ask on the corpus
    asked = set()
    is_break = bk._is_break

    def recording(G, removed, dt):
        asked.add((G, removed, dt))
        return is_break(G, removed, dt)

    monkeypatch.setattr(bk, "_is_break", recording)
    bernardi._start.cache_clear()
    for _, G in corpus.default_corpus():
        v = G.vertices[0]
        e = G.rotation[v][0]
        for T in spanning_trees(G):
            D = bernardi.bernardi_beta(G, v, e, T).divisor
            assert bernardi.alpha_right(G, v, e, D) == T
            assert bernardi.alpha_left(G, v, e, D) == T
    bernardi._start.cache_clear()
    assert len(asked) > 1000
    for G, removed, dt in asked:
        assert type(removed) is int
        edges = frozenset(e for e in G.edge_ids if removed & _mask(G, {e}))
        assert _mask(G, edges) == removed
        assert is_break(G, removed, dt) == _oracle_is_break(G, edges, dt)


def _in_degrees(G, heads):
    out = [0] * len(G.vertices)
    for h in heads.values():
        out[G.vertex_pos(h)] += 1
    return tuple(out)


def test_compatibility_matches_matcher():
    for _, G in corpus.default_corpus()[:12]:
        for T in spanning_trees(G):
            non_tree = [e for e in G.edge_ids if e not in T]
            for dt in _effective(len(G.vertices), G.genus_comb):
                ok, heads = bk.is_compatible(G, dv.tuple_to_divisor(G, dt), T)
                assert ok == (_match(G, list(dt), non_tree) is not None)
                if ok:
                    assert sorted(heads) == sorted(non_tree)
                    assert all(heads[e] in G.ends[e] for e in non_tree)
                    assert _in_degrees(G, heads) == dt


@given(st.integers(0, 300), st.data())
@settings(max_examples=40, deadline=None)
def test_orient_matches_every_orientation(seed, data):
    G = random_graph(seed)
    edges = data.draw(st.lists(st.sampled_from(G.edge_ids), unique=True, max_size=8))
    realised = {
        _in_degrees(G, dict(zip(edges, ends)))
        for ends in product(*(G.ends[e] for e in edges))
    }
    # every realised target with one unit moved, and a few arbitrary ones
    n = len(G.vertices)
    targets = set(data.draw(st.lists(st.tuples(*[st.integers(-1, 3)] * n), max_size=5)))
    for t in realised:
        for i, j in product(range(n), repeat=2):
            targets.add(tuple(c - (k == i) + (k == j) for k, c in enumerate(t)))
    for target in sorted(targets):
        heads = bk._orient(G, edges, target)
        if target in realised:
            assert sorted(heads) == sorted(edges)
            assert all(heads[e] in G.ends[e] for e in edges)
            assert _in_degrees(G, heads) == target
        else:
            assert heads is None, target


def _minor(G, removed):
    """G minus the edges ``removed``, built as its own graph with the induced
    rotation: the reference that ``_is_break(G, _mask(G, removed), ...)``
    replaces."""
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
    try:
        H = _minor(G, removed)
    except ValidationError as exc:
        # a minor that falls apart cannot be built: it has no spanning tree,
        # so no break divisor
        assert exc.kind in ("disconnected", "empty")
        H = None
    for dt in _effective(len(G.vertices), G.genus_comb - len(removed)):
        expected = H is not None and _oracle_is_break(H, frozenset(), dt)
        assert bk._is_break(G, _mask(G, removed), dt) == expected, (sorted(removed), dt)


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


# -- caches keyed on the underlying graph ----------------------------------------

ROTATION_FREE = [spanning_trees, rt.simple_cycles, dv.picard_group, bk._enumerate,
                 dv._q_reduce, bk._is_break, bk._break_rep, _shared_tree, rt._tree_rotors,
                 dv._generator_keys]


def _body(fn):
    """The computation behind a skeleton-keyed cache, run on the graph given."""
    return bk._breaks_minor if fn is bk._is_break else fn.__wrapped__


def _plain(value):
    """A cached answer without the graph object it was computed on."""
    if isinstance(value, dv.PicardGroup):
        return value.elements
    if isinstance(value, bk.BreakDivisor):
        return value.chips, value.witness_tree
    if isinstance(value, tuple) and value and isinstance(value[0], bk.BreakDivisor):
        return [_plain(bd) for bd in value]
    return value


def _rotation_free_queries(H, rng):
    """(function, extra arguments): every whole-graph cache, and a sample of
    the arguments the actions, inverses and comparisons pass to the others."""
    out = [(fn, ()) for fn in ROTATION_FREE[:4]]
    trees = spanning_trees(H)
    q = H.vertices[0]
    for T in rng.sample(trees, min(3, len(trees))):
        v = rng.choice(H.vertices)
        beta = bernardi.bernardi_beta(H, v, H.rotation[v][0], T).chips
        a, b = rng.sample(range(len(H.vertices)), 2)
        shifted = tuple(c + (i == a) - (i == b) for i, c in enumerate(beta))
        out += [(dv._q_reduce, (beta, rng.choice(H.vertices))),
                (dv._q_reduce, (shifted, q)),
                (bk._break_rep, (dv._q_reduce(H, shifted, q),)),
                (bk._is_break, (_mask(H, ()), shifted)),
                (_shared_tree, (T,)),
                (rt._tree_rotors, (T, v)),
                (dv._generator_keys, (v,))]
        for f in H.edge_ids:
            if f not in T:
                i = H.vertex_pos(rng.choice(H.ends[f]))
                trial = tuple(c - (j == i) for j, c in enumerate(beta))
                out.append((bk._is_break, (_mask(H, {f}), trial)))
    return out


def test_rotation_free_caches_answer_for_every_rotation_system():
    """Each skeleton-keyed cache gives, on every rotation system, what its
    undecorated body computes on that rotation system itself."""
    graphs = [corpus.theta(planar=True), corpus.k4()] + [random_graph(s) for s in (17, 22, 38)]
    rotated = 0
    for G in graphs:
        rng = random.Random(len(G.edges))
        for H in corpus.rotation_systems(G):
            rotated += H.skeleton is not H
            for fn, args in _rotation_free_queries(H, rng):
                assert _plain(fn(H, *args)) == _plain(_body(fn)(H, *args)), (fn, args)
    assert rotated > 100


def test_rotation_systems_share_the_rotation_free_caches():
    clear_caches()
    search_conjecture(corpus.k4())
    assert spanning_trees.cache_info().misses == 1
    assert bk._break_rep.cache_info().misses <= dv.picard_group(corpus.k4()).order == 16
    assert _shared_tree.cache_info().currsize <= len(spanning_trees(corpus.k4())) == 16
    assert rt._tree_rotors.cache_info().currsize <= 16 * 4
    # one generator table per base vertex of the one underlying graph
    assert dv._generator_keys.cache_info().currsize == 4


def test_one_cold_bernardi_battery_caches_one_tree_per_target():
    G = corpus.k4()
    clear_caches()
    suite._check_bernardi(suite.SuiteReport(), "k4", G)
    # one record per tour start; reading them back makes none
    starts = [(v, e) for v in G.vertices for e in G.incident[v]]
    assert bernardi._start.cache_info().currsize == len(starts) == 12
    records = [bernardi._start(G, v, e) for v, e in starts]
    assert bernardi._start.cache_info().currsize == 12
    # beta and both inverses of every tree at every start
    assert sum(len(r.beta) for r in records) == 12 * 16
    assert sum(len(r.right) + len(r.left) for r in records) == 2 * 12 * 16
    # the action keeps no cache of its own: its trees are kept per degree-g
    # divisor beta + gamma, 155 of them for 448 actions (16 x 16 for the torsor
    # table, 4 x 3 x 16 for edge-independence)
    assert not hasattr(bernardi._act, "cache_info")
    assert sum(len(r.trees) for r in records) == 155
    # one class-key row per (vertex, edge other than its first rotation edge, tree)
    assert bernardi._class_keys.cache_info().currsize == 4 * 2 * 16
    # the only break divisors alive are the 16 enumerated and the 16 class
    # representatives: beta is kept as chips
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, bk.BreakDivisor) and o.graph is G.skeleton]
    assert len(alive) == 32
    clear_caches()
    assert bernardi._start.cache_info().currsize == 0
    # a start that is no incident pair leaves no record
    with pytest.raises(UnknownEdge):
        bernardi.bernardi_beta(G, "1", "zz", spanning_trees(G)[0])
    assert bernardi._start.cache_info().currsize == 0


def _inverses(G):
    """Both inverses of beta of every tree, from the first rotation edge of
    the first vertex."""
    v = G.vertices[0]
    e = G.rotation[v][0]
    out = []
    for T in spanning_trees(G):
        D = bernardi.bernardi_beta(G, v, e, T).divisor
        out.append((T, bernardi.alpha_right(G, v, e, D), bernardi.alpha_left(G, v, e, D)))
    return out


def test_trial_cuts_are_kept_for_one_graph():
    k4, theta = corpus.k4(), corpus.theta(planar=True)
    clear_caches()
    first = _inverses(k4)
    assert all(T == right == left for T, right, left in first)
    k4_table = dict(bk._trial_cuts(k4.skeleton))
    assert k4_table
    _inverses(theta)
    # the table holds theta's skeleton only: asking for it again is a hit
    info = bk._trial_cuts.cache_info()
    assert info.currsize == 1
    assert bk._trial_cuts(theta.skeleton)
    assert bk._trial_cuts.cache_info().misses == info.misses
    # K4's inverses run again on a new table, with the same trees and answers
    bernardi._start.cache_clear()
    assert _inverses(k4) == first
    assert bk._trial_cuts(k4.skeleton) == k4_table
    clear_caches()


def test_one_cold_suite_pass_orients_no_trial_cut_twice(monkeypatch):
    # the one-graph table loses no hit to the graph-by-graph order of the
    # suite: as many orientations as with a table per graph kept for good
    calls = []
    orient = bk._orient

    def counting(*args):
        calls.append(None)
        return orient(*args)

    graphs = corpus.default_corpus()
    clear_caches()
    monkeypatch.setattr(bk, "_orient", counting)
    suite.run_theorem_suite(graphs)
    assert len(calls) == 14942
    clear_caches()


def test_skeleton_is_shared_and_carries_the_break_divisors():
    G = corpus.k4()
    H, K = [S for S in corpus.rotation_systems(G) if S.rotation != S.incident][:2]
    assert H.skeleton is K.skeleton
    assert H.skeleton.rotation == H.incident and H.skeleton.edges == H.edges
    # the first graph of an edge set rotated in file order is its own skeleton
    edges = [(f"skeleton-{e}", ends) for e, ends in G.edges]
    incident = {v: [f"skeleton-{e}" for e in es] for v, es in G.incident.items()}
    base = RibbonGraph(G.vertices, edges, incident)
    assert base.skeleton is base
    assert RibbonGraph(G.vertices, edges, incident).skeleton is base
    T = spanning_trees(H)[0]
    D = bernardi.bernardi_beta(H, "1", H.rotation["1"][0], T)
    assert D.graph is H.skeleton
    assert bk.break_representative(H, D.divisor).graph is H.skeleton
    assert dv.picard_group(K).graph is H.skeleton
