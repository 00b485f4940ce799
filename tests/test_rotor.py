"""Rotor-routing: moves, the tree action, unicycles, and reversibility."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import corpus
from treetorsor import divisors as dv
from treetorsor import rotor as rt
from treetorsor.bernardi import alpha_right, bernardi_act, bernardi_tour, shift_difference_check
from treetorsor.errors import (
    ChipAtSink, MissingVertex, NotACycle, NotIncident, TorsorError, UnknownEdge,
)
from treetorsor.ribbon import (
    Dart, fundamental_cycle, is_spanning_tree, spanning_trees, trace_faces, tree_path,
)


def random_graph(seed):
    return corpus.random_multigraph(random.Random(seed))


def test_rotors_from_tree_point_at_root():
    G = corpus.k4()
    T = frozenset({"e12", "e13", "e14"})
    rotor = rt.rotors_from_tree(G, T, "1")
    assert rotor == {"2": "e12", "3": "e13", "4": "e14"}


def test_rotors_from_tree_matches_tree_paths():
    # reference: each vertex's first edge on its own tree path to the root
    for G in (corpus.theta(), corpus.k4(), corpus.k5(), corpus.k33()):
        for T in spanning_trees(G):
            for root in G.vertices:
                expected = {
                    z: tree_path(G, T, z, root)[0].edge for z in G.vertices if z != root
                }
                got = rt.rotors_from_tree(G, T, root)
                assert list(got.items()) == list(expected.items())


def test_tree_rotors_are_never_written():
    # the tree rotors are cached for every rotation system: neither a rotor
    # walk nor a write to the dict that rotors_from_tree returns may reach the
    # entry that rotor_move starts from
    for G in corpus.rotation_systems(corpus.k4()):
        for T in spanning_trees(G):
            for root in G.vertices:
                fresh = rt._tree_rotors.__wrapped__(G, T, root)
                moves = {}
                for x in G.vertices:
                    moves[x] = rt.rotor_move(G, T, x, root)
                    assert rt.rotors_from_tree(G, T, root) == fresh
                rotor = rt.rotors_from_tree(G, T, root)
                for z in rotor:
                    rotor[z] = G.rotation[z][0]
                rotor["zz"] = "e12"
                assert rt.rotors_from_tree(G, T, root) == fresh
                rt.rotor_move.cache_clear()
                assert {x: rt.rotor_move(G, T, x, root) for x in G.vertices} == moves


def test_rotor_step():
    G = corpus.k3()
    rotor = {"2": "a", "3": "b"}
    # rotation at 2 is (b, a): successor of a is b, chip crosses b to 3
    assert rt.rotor_step(G, rotor, "2") == "3"
    assert rotor == {"2": "b", "3": "b"}
    # a step at the sink or along a non-incident rotor raises and turns nothing
    with pytest.raises(ChipAtSink):
        rt.rotor_step(G, rotor, "1")
    rotor["3"] = "zz"
    with pytest.raises(NotIncident):
        rt.rotor_step(G, rotor, "3")
    assert rotor == {"2": "b", "3": "zz"}


def _copying_walk(G, T, x, y):
    """The reference walk from the tree rotors, copying the whole rotor on
    every step: the image tree and the number of steps."""
    rotor, chip, steps = rt.rotors_from_tree(G, T, y), x, 0
    while chip != y:
        if chip not in rotor:
            raise ChipAtSink(f"chip is at the sink vertex {chip!r}")
        new_edge = G.next_edge(chip, rotor[chip])
        nxt = dict(rotor)
        nxt[chip] = new_edge
        a, b = G.ends[new_edge]
        rotor, chip, steps = nxt, a if chip == b else b, steps + 1
    return frozenset(rotor.values()), steps


def _assert_moves_match_copying_walk(G, trees):
    for T in trees:
        for y in G.vertices:
            for x in G.vertices:
                assert rt.rotor_move(G, T, x, y) == _copying_walk(G, T, x, y)[0], (x, y, sorted(T))


def test_rotor_move_matches_copying_walk_on_default_corpus():
    checked = 0
    for _, G in corpus.default_corpus():
        trees = spanning_trees(G)
        if len(trees) <= 200:
            _assert_moves_match_copying_walk(G, trees)
            checked += 1
    assert checked >= 20


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_rotor_move_matches_copying_walk_random(seed):
    G = random_graph(seed)
    _assert_moves_match_copying_walk(G, spanning_trees(G)[:12])


def test_rotor_move_steps_once_per_rotor_step(monkeypatch):
    # every step of a walk goes through rotor_step, so a wrapper on it (as
    # perfbench's rotor.steps counter is) sees each move's whole walk length
    steps = [0]

    def counted(G, rotor, chip, step=rt.rotor_step):
        steps[0] += 1
        return step(G, rotor, chip)

    monkeypatch.setattr(rt, "rotor_step", counted)
    G = corpus.k4()
    walked = 0
    for T in spanning_trees(G):
        for y in G.vertices:
            for x in G.vertices:
                steps[0] = 0
                image, expected = _copying_walk(G, T, x, y)
                assert rt.rotor_move.__wrapped__(G, T, x, y) == image
                assert steps[0] == expected, (x, y, sorted(T))
                walked += expected
    assert walked > 0


# (call on K3, error, the bad value its message names); each is checked at entry
BAD_EDGE_ARGUMENTS = [
    pytest.param(lambda G: fundamental_cycle(G, spanning_trees(G)[0], "zz"), UnknownEdge, "'zz'",
                 id="fundamental_cycle-unknown-edge"),
    pytest.param(lambda G: G.other_end("zz", "1"), UnknownEdge, "'zz'", id="other_end-unknown-edge"),
    pytest.param(lambda G: G.other_end("a", "zz"), NotIncident, "'zz'", id="other_end-not-an-end"),
    pytest.param(lambda G: bernardi_tour(G, "1", "zz", frozenset({"a", "b"})), UnknownEdge, "'zz'",
                 id="bernardi_tour-unknown-edge"),
    pytest.param(lambda G: alpha_right(G, "1", "zz", {"3": 1}), UnknownEdge, "'zz'",
                 id="alpha_right-unknown-edge"),
    pytest.param(lambda G: bernardi_act(G, "1", {}, frozenset({"a", "b"}), e="zz"), UnknownEdge,
                 "'zz'", id="bernardi_act-unknown-edge"),
    pytest.param(lambda G: shift_difference_check(G, "1", "a", "zz", frozenset({"a", "b"})),
                 UnknownEdge, "'zz'", id="shift_difference_check-unknown-edge"),
    pytest.param(lambda G: rt.rotor_step(G, {"2": "zz"}, "2"), NotIncident, "'zz'",
                 id="rotor_step-non-incident-rotor"),
    pytest.param(lambda G: rt.rotor_step(G, {"2": "a"}, "zz"), MissingVertex, "'zz'",
                 id="rotor_step-unknown-chip"),
    pytest.param(lambda G: rt.cycle_is_reversible(G, rt.simple_cycles(G)[0], "xx"), TorsorError, "'xx'",
                 id="cycle_is_reversible-unknown-orientation"),
    pytest.param(lambda G: rt.unicycle_orbit(G, {"1": "a", "2": "b", "3": "c"}, "zz"), MissingVertex,
                 "'zz'", id="unicycle_orbit-unknown-chip"),
    pytest.param(lambda G: rt.unicycle_orbit(G, {"1": "a", "2": "b", "zz": "c"}, "1"), MissingVertex,
                 "'zz'", id="unicycle_orbit-unknown-rotor-vertex"),
    pytest.param(lambda G: rt.unicycle_orbit(G, {"1": "a", "2": "b"}, "1"), MissingVertex, "'3'",
                 id="unicycle_orbit-vertex-without-rotor"),
    # a plain (edge, tail) pair is read as the equal Dart, so it names the same bad dart
    pytest.param(lambda G: rt.cycle_is_reversible(G, (("a", "zz"), ("b", "2"), ("c", "3"))), NotACycle,
                 "a:zz", id="cycle_is_reversible-plain-pair-not-a-dart"),
    pytest.param(lambda G: rt.cycle_is_reversible(G, (("a", "1", "x"), ("b", "2"), ("c", "3"))),
                 NotACycle, "('a', '1', 'x')", id="cycle_is_reversible-malformed-element"),
    # reverse_cycle reads and checks its cycle as cycle_is_reversible does
    pytest.param(lambda G: rt.reverse_cycle(G, (("a", "zz"), ("b", "2"), ("c", "3"))), NotACycle,
                 "a:zz", id="reverse_cycle-plain-pair-not-a-dart"),
    pytest.param(lambda G: rt.reverse_cycle(G, (("abc",),)), NotACycle, "('abc',)",
                 id="reverse_cycle-malformed-element"),
    pytest.param(lambda G: rt.reverse_cycle(G, ()), NotACycle, "empty", id="reverse_cycle-empty"),
    pytest.param(lambda G: rt.reverse_cycle(G, (Dart("a", "1"), Dart("a", "2"))), NotACycle,
                 "edge twice", id="reverse_cycle-edge-there-and-back"),
]


@pytest.mark.parametrize("call, error, bad", BAD_EDGE_ARGUMENTS)
def test_bad_edge_argument_is_one_typed_line(call, error, bad):
    with pytest.raises(error) as info:
        call(corpus.k3())
    message = str(info.value)
    assert bad in message and "\n" not in message


def test_rotor_move_k3_frozen():
    # frozen by hand: chip at 2, sink 1, tree {a,b} -> rotor at 2 flips to b,
    # chip to 3, rotor at 3 flips to c, chip reaches the sink
    G = corpus.k3()
    T = frozenset({"a", "b"})
    assert rt.rotor_move(G, T, "2", "1") == frozenset({"b", "c"})


@given(st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_rotor_move_returns_tree(seed):
    G = random_graph(seed)
    trees = spanning_trees(G)
    for T in trees[:3]:
        for x in G.vertices[1:]:
            assert is_spanning_tree(G, rt.rotor_move(G, T, x, G.vertices[0]))


def test_rotor_act_identity_and_transitivity():
    G = corpus.theta(planar=True)
    trees = spanning_trees(G)
    group = dv.picard_group(G)
    for T in trees:
        assert rt.rotor_act(G, "u", {}, T) == T
        image = {
            rt.rotor_act(G, "u", dv.tuple_to_divisor(G, c), T)
            for c in group.elements
        }
        assert image == set(trees)


def test_rotor_act_representative_independent():
    G = corpus.k4()
    rng = random.Random(2)
    gamma = {"2": 1, "1": -1}
    for T in spanning_trees(G)[:4]:
        base = rt.rotor_act(G, "1", gamma, T)
        for _ in range(3):
            f = {v: rng.randint(-2, 2) for v in G.vertices}
            shifted = dv.add(gamma, dv.laplacian_of(G, f))
            assert rt.rotor_act(G, "1", shifted, T) == base


def test_rotor_act_negative_coefficients():
    # acting by a class and then by its negative returns to the start
    G = corpus.k4()
    gamma = {"3": 2, "1": -2}
    neg = {"3": -2, "1": 2}
    for T in spanning_trees(G)[:4]:
        assert rt.rotor_act(G, "1", neg, rt.rotor_act(G, "1", gamma, T)) == T


def test_rotor_act_does_not_use_the_group_order(monkeypatch):
    # the v-reduced representative already bounds the number of chip moves,
    # so the action never needs the Picard group
    def no_group(G):
        raise AssertionError("rotor_act built the Picard group")

    monkeypatch.setattr(dv, "picard_group", no_group)
    for G in (corpus.k3(), corpus.k4(), corpus.theta(planar=False)):
        v = G.vertices[-1]
        for T in spanning_trees(G):
            assert rt.rotor_act(G, v, {}, T) == T
            for u in G.vertices[:-1]:
                for k in (1, 7):
                    there = rt.rotor_act(G, v, {u: k, v: -k}, T)
                    assert rt.rotor_act(G, v, {u: -k, v: k}, there) == T


def test_unicycle_periodicity():
    G = corpus.k3()
    rotor = {"1": "a", "2": "b", "3": "c"}
    states, darts = rt.unicycle_orbit(G, rotor, "1")
    assert len(states) == 2 * len(G.edges) + 1
    assert states[0] == states[-1]
    assert len(set(darts)) == 2 * len(G.edges)
    assert len(set(states[:-1])) == 2 * len(G.edges)


def test_simple_cycles_counts():
    # frozen: K3 has 1 cycle, theta has 3 (one per edge pair), K4 has 7
    assert len(rt.simple_cycles(corpus.k3())) == 1
    assert len(rt.simple_cycles(corpus.theta(planar=True))) == 3
    assert len(rt.simple_cycles(corpus.k4())) == 7


def test_cycle_validation():
    G = corpus.k4()
    with pytest.raises(NotACycle):
        rt.cycle_is_reversible(G, ())
    with pytest.raises(NotACycle):
        rt.cycle_is_reversible(G, (Dart("e12", "1"), Dart("e34", "3")))
    with pytest.raises(NotACycle):
        rt.cycle_is_reversible(G, (Dart("zz", "1"),))
    # one edge there and back is not a cycle; two parallel edges are
    with pytest.raises(NotACycle):
        rt.cycle_is_reversible(G, (Dart("e12", "1"), Dart("e12", "2")))
    assert rt.cycle_is_reversible(corpus.theta(), (Dart("p", "u"), Dart("q", "v")))


def test_reversibility_planarity_dichotomy_theta():
    for sys in corpus.rotation_systems(corpus.theta()):
        planar = trace_faces(sys).topological_genus == 0
        assert rt.all_cycles_reversible(sys) == planar


def test_reversibility_planarity_dichotomy_k4():
    for sys in corpus.rotation_systems(corpus.k4()):
        planar = trace_faces(sys).topological_genus == 0
        assert rt.all_cycles_reversible(sys) == planar


def test_reversibility_orientation_choice_irrelevant():
    G = corpus.k4()
    for C in rt.simple_cycles(G):
        assert rt.cycle_is_reversible(G, C, "bfs") == rt.cycle_is_reversible(
            G, C, "dfs"
        )


def test_plain_pair_cycles_give_the_dart_verdict():
    # both orientations of every cycle, on a planar and a non-planar system
    for G, expected in ((corpus.planar_rotation(corpus.k4()), {True}), (corpus.k4(), {True, False})):
        verdicts = set()
        for C in rt.simple_cycles(G):
            for D in (C, rt.reverse_cycle(G, C)):
                verdict = rt.cycle_is_reversible(G, D)
                plain = [tuple(d) for d in D]
                assert rt.cycle_is_reversible(G, plain) == verdict
                assert rt.reverse_cycle(G, plain) == rt.reverse_cycle(G, D)
                verdicts.add(verdict)
        assert verdicts == expected
