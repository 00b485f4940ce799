"""Tours, the tree -> break divisor map, its inverses, and the tree action."""

import gc
import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import bernardi, clear_caches
from treetorsor import breakdiv as bk
from treetorsor import corpus
from treetorsor import divisors as dv
from treetorsor import duality as du
from treetorsor.bernardi import (
    alpha_left,
    alpha_right,
    bernardi_act,
    bernardi_beta,
    bernardi_tour,
    beta_table,
    shift_difference_check,
)
from treetorsor.errors import MissingVertex, NotBreakDivisor, NotIncident, NotSpanningTree
from treetorsor.ribbon import (
    RibbonGraph,
    _shared_tree,
    fundamental_cycle,
    is_spanning_tree,
    reach,
    rotation_free,
    spanning_trees,
    tree_path,
)
from treetorsor.rotor import rotor_act, rotor_move, rotors_from_tree
from treetorsor.suite import compare_bernardi_vertices, compare_torsors, search_conjecture


def random_graph(seed):
    return corpus.random_multigraph(random.Random(seed))


def complete_graph(n):
    """K_n, each rotation in incidence order."""
    vs = [str(i) for i in range(1, n + 1)]
    edges = [(f"e{a}_{b}", (a, b)) for i, a in enumerate(vs) for b in vs[i + 1 :]]
    rotation = {v: [e for e, pair in edges if v in pair] for v in vs}
    return RibbonGraph(vs, edges, rotation)


def grid_graph(rows, cols):
    """The rows x cols grid, planar: east, north, west, south around each vertex."""
    name = lambda i, j: f"{i},{j}"
    edges = [(f"h{i},{j}", (name(i, j), name(i, j + 1)))
             for i in range(rows) for j in range(cols - 1)]
    edges += [(f"v{i},{j}", (name(i, j), name(i + 1, j)))
              for i in range(rows - 1) for j in range(cols)]
    ids = {e for e, _ in edges}
    rotation = {
        name(i, j): [e for e in (f"h{i},{j}", f"v{i - 1},{j}", f"h{i},{j - 1}", f"v{i},{j}")
                     if e in ids]
        for i in range(rows) for j in range(cols)
    }
    return RibbonGraph([name(i, j) for i in range(rows) for j in range(cols)], edges, rotation)


def search_tree(G):
    return frozenset(e for e in reach(G, G.vertices[:1]).values() if e is not None)


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


def _assert_beta_is_tour_eta(G, trees):
    # the definition: one chip at the first-cut endpoint of each non-tree edge
    for T in trees:
        for v in G.vertices:
            for e in G.rotation[v]:
                chips = [0] * len(G.vertices)
                for u in bernardi_tour(G, v, e, T).eta.values():
                    chips[G.vertex_pos(u)] += 1
                assert bernardi_beta(G, v, e, T).chips == tuple(chips), (v, e, sorted(T))


def test_beta_from_walk_matches_tour_eta_on_default_corpus():
    checked = 0
    for _, G in corpus.default_corpus():
        trees = spanning_trees(G)
        if len(trees) <= 200:
            _assert_beta_is_tour_eta(G, trees)
            checked += 1
    assert checked >= 20


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_beta_from_walk_matches_tour_eta_random(seed):
    G = random_graph(seed)
    _assert_beta_is_tour_eta(G, spanning_trees(G)[:12])


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
        bernardi._start.cache_clear()
        bk._trial_cuts.cache_clear()
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


# -- the inverse against its frozenset form ----------------------------------


@rotation_free
def _is_break_frozenset(G, removed, dt):
    """``breakdiv._breaks_minor`` with the removed edges as a frozenset: the
    oracle for the bitmask form."""
    if sum(dt) != G.genus_comb - len(removed) or any(c < 0 for c in dt):
        return False
    target = dt[:1] + tuple(c + 1 for c in dt[1:])
    heads = bk._orient(G, [e for e in G.edge_ids if e not in removed], target)
    if heads is None:
        return False
    return len(reach(G, G.vertices[:1], heads, heads=heads)) == len(G.vertices)


def _alpha_frozenset(G, v, e, dt, left):
    """``bernardi._reconstruct`` carrying its cut edges as a frozenset: the oracle
    for the bitmask form."""
    ends, at, step = G.ends, G._vertex_pos, G._pred if left else G._succ
    tree: set[str] = set()
    removed: frozenset = frozenset()
    cur_v = v
    cur_e = step[v, e] if left else e
    budget = 4 * len(ends) + 4
    while len(tree) + len(removed) != len(ends):
        budget -= 1
        if budget < 0:
            raise NotBreakDivisor("inverse reconstruction failed to terminate")
        a, b = ends[cur_e]
        w = a if cur_v == b else b
        i = at[w if left else cur_v]
        if cur_e not in tree and dt[i] > 0:
            trial = dt[:i] + (dt[i] - 1,) + dt[i + 1 :]
            cut = removed | {cur_e}
            if _is_break_frozenset(G, cut, trial):
                dt, removed = trial, cut
        if cur_e not in removed:  # not cut, so walked
            tree.add(cur_e)
            cur_v = w
        cur_e = step[cur_v, cur_e]
        while cur_e in removed:
            cur_e = step[cur_v, cur_e]
    try:
        return _shared_tree(G, frozenset(tree))
    except NotSpanningTree:
        raise NotBreakDivisor("input divisor is not a break divisor") from None


def _outcome(fn, *args):
    """The tree ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _random_tuples(G, rng, count):
    """``count`` random coefficient tuples of degree g: entries drawn from
    -2..2, one then moved to reach the degree; mostly not break divisors."""
    out = []
    for _ in range(count):
        dt = [rng.randint(-2, 2) for _ in G.vertices]
        dt[rng.randrange(len(dt))] += G.genus_comb - sum(dt)
        out.append(tuple(dt))
    return out


def _assert_alpha_matches_frozenset(G, rng, count):
    """Every (v, e) in both directions, on beta of every tree and on
    ``count`` random tuples; returns the error messages seen."""
    trees = spanning_trees(G)
    seen = set()
    for v in G.vertices:
        for e in G.rotation[v]:
            inputs = [bernardi_beta(G, v, e, T).chips for T in trees]
            for dt in inputs + _random_tuples(G, rng, count):
                for left in (False, True):
                    got = _outcome(bernardi._reconstruct, G, v, e, dt, left)
                    assert got == _outcome(_alpha_frozenset, G, v, e, dt, left), (v, e, dt, left)
                    if isinstance(got, tuple):
                        seen.add(got)
    return seen


def test_alpha_matches_frozenset_form_on_default_corpus():
    rng = random.Random(24)
    seen = set()
    for _, G in corpus.default_corpus():
        if len(spanning_trees(G)) <= 200:
            seen |= _assert_alpha_matches_frozenset(G, rng, 4)
    assert seen == {
        (NotBreakDivisor, "input divisor is not a break divisor"),
        (NotBreakDivisor, "inverse reconstruction failed to terminate"),
    }


@given(st.integers(0, 300), st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_alpha_matches_frozenset_form_random(seed, tuples_seed):
    _assert_alpha_matches_frozenset(random_graph(seed), random.Random(tuples_seed), 4)


def test_alpha_keeps_the_cli_error_messages():
    # the two non-break messages the alpha-r and alpha-l commands print
    theta = dict(corpus.default_corpus())["theta-rot1"]
    cases = [
        (corpus.k3(), "1", "a", (-1, 2, 0), "input divisor is not a break divisor"),
        (theta, "u", "p", (-1, 3), "inverse reconstruction failed to terminate"),
    ]
    for G, v, e, dt, message in cases:
        for left in (False, True):
            expected = (NotBreakDivisor, message)
            assert _outcome(bernardi._reconstruct, G, v, e, dt, left) == expected
            assert _outcome(_alpha_frozenset, G, v, e, dt, left) == expected


# -- the action against its (class, tree) form --------------------------------


def _act_by_class_and_tree(G, v, e, gamma, T):
    """The action computed in full for one (class, tree), with no cache of
    targets: beta + gamma, reduced at the first vertex, its break
    representative, the right inverse."""
    target = tuple(map(operator.add, bernardi_beta(G, v, e, T).chips, gamma))
    rep = bk._break_rep(G, dv._q_reduce(G, target, G.vertices[0]))
    return bernardi._alpha(G, v, e, rep.chips, False)


def _assert_act_matches_class_and_tree_form(G):
    """Every (v, e, generator, tree) of ``edge-independence`` and every
    (class, tree) of the ``bernardi-torsor`` table."""
    trees, q = spanning_trees(G), G.vertices[0]
    gens = [key for _, key in dv._generator_keys(G, q)]
    cases = [(v, e, key, T) for v in G.vertices for e in G.incident[v] for key in gens for T in trees]
    cases += [(q, G.rotation[q][0], c, T) for c in dv.picard_group(G).elements for T in trees]
    for v, e, key, T in cases:
        assert bernardi._act(G, v, e, key, T) == _act_by_class_and_tree(G, v, e, key, T), (
            v, e, key, sorted(T))


def test_act_matches_class_and_tree_form_on_default_corpus():
    for _, G in corpus.default_corpus():
        _assert_act_matches_class_and_tree_form(G)


@given(st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_act_matches_class_and_tree_form_random(seed):
    _assert_act_matches_class_and_tree_form(random_graph(seed))


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


def _vertex_split_two_reach(G, v, e1, e2, T):
    """The reference split: each arc by walking rotation(v) from its first
    edge, each side by its own search of T - v."""
    cycle = G.rotation[v]
    i1, i2 = cycle.index(e1), cycle.index(e2)
    k = len(cycle)
    if e1 == e2:
        arc_i = tuple(cycle[(i1 + j) % k] for j in range(k))
        arc_j = ()
    else:
        arc_i = tuple(cycle[(i1 + j) % k] for j in range((i2 - i1) % k))
        arc_j = tuple(cycle[(i2 + j) % k] for j in range((i1 - i2) % k))
    forest = T.difference(G.incident[v])

    def side(arc):
        return frozenset(reach(G, [G.other_end(f, v) for f in arc if f in T], forest))

    return arc_i, arc_j, side(arc_i), side(arc_j)


def _shift_rhs_four_cases(G, v, e1, e2, T):
    """The arc formula's right-hand side case by case: a non-tree edge away
    from v between the two sides, or one at v whose far end lies across the
    arc it leaves by, with the arcs and sides of the reference split."""
    _, out_arc, A, B = _vertex_split_two_reach(G, v, e1, e2, T)
    rhs = {u: 0 for u in G.vertices}
    for f in G.edge_ids:
        if f in T:
            continue
        a, b = G.ends[f]
        if v not in (a, b):
            if a in A and b in B:
                rhs[a] += 1
                rhs[b] -= 1
            elif b in A and a in B:
                rhs[b] += 1
                rhs[a] -= 1
        else:
            x = b if a == v else a
            if f in out_arc and x in A:
                rhs[x] += 1
                rhs[v] -= 1
            elif f not in out_arc and x in B:
                rhs[v] += 1
                rhs[x] -= 1
    return rhs


def _assert_shift_rhs_matches_four_cases(G, trees):
    for T in trees:
        for v in G.vertices:
            for e1 in G.incident[v]:
                for e2 in G.incident[v]:
                    _, rhs, _ = shift_difference_check(G, v, e1, e2, T)
                    expected = _shift_rhs_four_cases(G, v, e1, e2, T)
                    assert list(rhs.items()) == list(expected.items()), (v, e1, e2, sorted(T))


def test_shift_rhs_matches_four_cases_on_default_corpus():
    for _, G in corpus.default_corpus():
        _assert_shift_rhs_matches_four_cases(G, spanning_trees(G)[:12])


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_shift_rhs_matches_four_cases_random(seed):
    G = random_graph(seed)
    _assert_shift_rhs_matches_four_cases(G, spanning_trees(G)[:12])


def _assert_split_matches_oracle(G, trees):
    """The side labelling ``_arc_labels``, read through ``_first_arc``,
    against the reference split."""
    for T in trees:
        for v in G.vertices:
            labels = bernardi._arc_labels(G, v, T)
            assert labels.keys() == set(G.vertices) - {v}, (v, sorted(T))
            for e1 in G.incident[v]:
                for e2 in G.incident[v]:
                    first = bernardi._first_arc(G, v, e1, e2)
                    arc_first, _, side_first, side_second = _vertex_split_two_reach(G, v, e1, e2, T)
                    got = ([f in arc_first for f in G.rotation[v]],
                           {w for w, x in labels.items() if first[x]},
                           {w for w, x in labels.items() if not first[x]})
                    assert got == (first, side_first, side_second), (v, e1, e2, sorted(T))


def test_vertex_split_matches_two_reach_oracle_on_default_corpus():
    checked = 0
    for _, G in corpus.default_corpus():
        trees = spanning_trees(G)
        if len(trees) <= 200:
            _assert_split_matches_oracle(G, trees)
            checked += 1
    assert checked >= 20


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_vertex_split_matches_two_reach_oracle_random(seed):
    G = random_graph(seed)
    _assert_split_matches_oracle(G, spanning_trees(G)[:12])


def test_split_and_shift_oracles_catch_a_mutant_labelling(monkeypatch):
    # the side labelling is read directly and through the cut ends; each
    # oracle must catch a labelling that is wrong away from v or at v
    G, labels, ends = corpus.k4(), bernardi._arc_labels, bernardi._cut_ends
    trees = spanning_trees(G)

    def one_side(G, v, T):
        return dict.fromkeys(labels(G, v, T), 0)

    def ends_at_v_unlabelled(G, v, T):
        at = G._vertex_pos[v]
        return tuple((a, 0 if a == at else la, b, 0 if b == at else lb)
                     for a, la, b, lb in ends(G, v, T))

    with monkeypatch.context() as patch:
        patch.setattr(bernardi, "_arc_labels", one_side)
        with pytest.raises(AssertionError):
            _assert_split_matches_oracle(G, trees)
    with monkeypatch.context() as patch:
        patch.setattr(bernardi, "_cut_ends", ends_at_v_unlabelled)
        with pytest.raises(AssertionError):
            _assert_shift_rhs_matches_four_cases(G, trees)
        _assert_split_matches_oracle(G, trees)


def test_unknown_base_vertex_is_missing_vertex():
    G, T = corpus.k3(), frozenset({"a", "b"})
    calls = [(act, G, "zz", {"2": 1, "1": -1}, T) for act in (bernardi_act, rotor_act)]
    calls += [(bernardi_act, G, "zz", {}, T, "a"), (bernardi_tour, G, "zz", "a", T)]
    calls += [(rotor_move, G, T, "zz", "1"), (rotor_move, G, T, "2", "zz"),
              (rotors_from_tree, G, T, "zz"), (tree_path, G, T, "zz", "1")]
    calls += [(compare_torsors, G, "zz"), (compare_bernardi_vertices, G, "zz", "1"),
              (compare_bernardi_vertices, G, "1", "zz"), (dv.q_reduce, G, {}, "zz"),
              (dv.is_q_reduced, G, {}, "zz")]
    for fn, *args in calls:
        with pytest.raises(MissingVertex, match=re.escape("unknown vertex 'zz'")):
            fn(*args)


def test_action_builds_no_break_divisor_table():
    # the representative of the shifted class comes from an orientation, so
    # neither action path enumerates the break divisors
    K6 = complete_graph(6)
    grid = grid_graph(3, 4)
    corr = du.dual_graph(grid)
    clear_caches()
    T = bernardi_act(K6, "2", {"3": 1, "5": -1}, search_tree(K6))
    assert is_spanning_tree(K6, T)
    assert du.duality_square_check(corr, "1,1", {"0,0": 1, "2,3": -1}, search_tree(grid))
    assert bk._enumerate.cache_info().currsize == 0


def test_actions_return_one_object_per_tree():
    clear_caches()
    results = []
    for G in corpus.rotation_systems(corpus.k4()):
        q = G.vertices[0]
        for v in G.vertices:
            for u in G.vertices[1:]:
                gamma = {u: 1, q: -1}
                for T in spanning_trees(G):
                    results += [bernardi_act(G, v, gamma, T), rotor_act(G, v, gamma, T)]
    assert len(results) == 2 * 16 * 4 * 3 * 16
    assert len({id(T) for T in results}) == len(set(results))


def test_no_tour_is_kept():
    # beta is cached, not the tour it is read from
    clear_caches()
    search_conjecture(corpus.k4())
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, bernardi.Tour)]
    T = spanning_trees(corpus.k4())[0]
    beta = bernardi._beta(corpus.k4(), "1", "e12", T)
    assert bernardi._beta(corpus.k4(), "1", "e12", frozenset(sorted(T))) is beta


NON_TREES = [
    (corpus.theta(planar=False), frozenset({"p", "q", "r"})),
    (corpus.theta(planar=False), frozenset()),
    (corpus.k4(), frozenset({"e12", "e13", "e23"})),
]


@pytest.mark.parametrize("G, T", NON_TREES)
def test_every_tree_argument_is_checked(G, T):
    v, u = G.vertices[0], G.vertices[-1]
    e1, e2 = G.rotation[v][:2]
    calls = [
        (bernardi_tour, G, v, e1, T),
        (bernardi_beta, G, v, e1, T),
        (rotor_move, G, T, u, v),
        (rotors_from_tree, G, T, v),
        (tree_path, G, T, u, v),
        (fundamental_cycle, G, T, G.edge_ids[-1]),
        (shift_difference_check, G, v, e1, e2, T),
    ]
    for gamma in ({}, {u: 1, v: -1}):
        calls += [(bernardi_act, G, v, gamma, T), (rotor_act, G, v, gamma, T)]
    for fn, *args in calls:
        with pytest.raises(NotSpanningTree, match=re.escape(f"{sorted(T)} is not a spanning tree")):
            fn(*args)


def test_break_representative_grid_10x10():
    G = grid_graph(10, 10)
    rng = random.Random(6)
    D = {v: rng.randint(-2, 2) for v in G.vertices}
    D["0,0"] += G.genus_comb - sum(D.values())
    rep = bk.break_representative(G, D)
    assert sum(rep.divisor.values()) == G.genus_comb == 81
    assert min(rep.chips) >= 0
    assert dv.are_equivalent(G, D, rep.divisor)
    assert is_spanning_tree(G, rep.witness_tree)


def test_inverses_and_actions_enumerate_no_trees():
    # membership is decided by orientation, so neither the inverses nor the
    # actions list spanning trees
    clear_caches()
    grid = grid_graph(3, 4)
    for G in (complete_graph(6), grid):
        v, T = G.vertices[1], search_tree(G)
        e = G.rotation[v][0]
        D = bernardi_beta(G, v, e, T).divisor
        assert alpha_right(G, v, e, D) == T
        assert alpha_left(G, v, e, D) == T
        gamma = {G.vertices[2]: 1, G.vertices[-1]: -1}
        assert is_spanning_tree(G, bernardi_act(G, v, gamma, T))
    assert du.duality_square_check(
        du.dual_graph(grid), "1,1", {"0,0": 1, "2,3": -1}, search_tree(grid)
    )
    assert spanning_trees.cache_info().currsize == 0


def test_inverse_and_square_grid_10x10():
    G = grid_graph(10, 10)
    T = search_tree(G)
    for v in ("0,0", "4,6"):
        e = G.rotation[v][0]
        assert alpha_right(G, v, e, bernardi_beta(G, v, e, T).divisor) == T
    assert du.duality_square_check(du.dual_graph(G), "3,3", {"0,0": 2, "9,9": -2}, T)
