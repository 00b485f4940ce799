"""The theorem suite, the conjecture search, and the command-line surface."""

import copy
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import (
    bernardi, breakdiv, cli, clear_caches, corpus, divisors, duality, ribbon, rotor, suite,
)
from treetorsor.bernardi import Tour, bernardi_act
from treetorsor.cli import COMMANDS, OPTIONS, main
from treetorsor.divisors import PicardGroup, picard_group
from treetorsor.errors import NotSimple, TorsorError
from treetorsor.ribbon import spanning_trees, trace_faces
from treetorsor.rotor import rotor_act

from test_duality import _mirrored


SMALL = [
    ("single-edge", corpus.single_edge()),
    ("k3", corpus.k3()),
    ("theta-planar", corpus.theta(planar=True)),
    ("theta-nonplanar", corpus.theta(planar=False)),
]


def test_suite_small_corpus_passes():
    report = suite.run_theorem_suite(SMALL)
    assert report.ok
    assert report.failed == 0
    assert report.passed == len(report.records) > 0


def test_suite_empty_corpus():
    report = suite.run_theorem_suite([])
    assert report.ok
    assert report.records == []
    assert json.loads(report.dump())["summary"] == {"passed": 0, "failed": 0}


def test_suite_deterministic():
    a = suite.run_theorem_suite(SMALL).dump()
    b = suite.run_theorem_suite(SMALL).dump()
    assert a == b


def test_suite_records_are_json_lines():
    report = suite.run_theorem_suite(SMALL[:2])
    for line in report.dump().splitlines():
        json.loads(line)


def _mirror_duals(monkeypatch):
    """Give every dual graph built after this call the mirror dart convention."""
    build = duality.dual_graph
    monkeypatch.setattr(duality, "dual_graph", lambda G: _mirrored(build(G)))


def test_mirror_dual_fails_square_with_witness(monkeypatch):
    _mirror_duals(monkeypatch)
    report = suite.run_theorem_suite([("k3", corpus.k3())])
    squares = [r for r in report.records if r.check == "duality-square"]
    assert squares and not squares[0].ok
    assert "gamma" in squares[0].witness and "tree" in squares[0].witness


def test_report_check_records_the_last_witness():
    report = suite.SuiteReport()
    with report.check("passes", "g"):
        pass
    with report.check("bare", "g", {"k": 1}) as fail:
        fail()
    with report.check("twice", "g") as fail:
        fail({"n": 1})
        fail({"n": 2})
    with pytest.raises(ZeroDivisionError), report.check("raises", "g") as fail:
        fail({"n": 3})
        1 / 0
    assert [json.loads(r.to_json()) for r in report.records] == [
        {"check": "passes", "graph": "g", "params": {}, "ok": True},
        {"check": "bare", "graph": "g", "params": {"k": 1}, "ok": False, "witness": {}},
        {"check": "twice", "graph": "g", "params": {}, "ok": False, "witness": {"n": 2}},
    ]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_default_corpus_stream():
    dump = suite.run_theorem_suite(corpus.default_corpus()).dump()
    assert len(dump.splitlines()) == 792
    assert _sha256(dump) == "aeccc74fb1f552c69795e4b7668d52ce369a0bc97f0944224f8570ff33e021dc"


def test_golden_mirror_dual_stream(monkeypatch):
    # pins the witness format: full name-keyed classes, zero entries included
    _mirror_duals(monkeypatch)
    dump = suite.run_theorem_suite([("k3", corpus.k3())]).dump()
    assert len(dump.splitlines()) == 27
    assert _sha256(dump) == "4468ec75707e1c2145ad581b5e4500acb2a1d348a560f53dfc775e96168e477e"


def test_golden_mirrored_cli_stream(tmp_path, capsys, monkeypatch):
    # `treetorsor suite` over the written default corpus under the mirror
    # convention: seven duality-square records fail, each with a witness
    corpus.write_corpus(str(tmp_path))
    _mirror_duals(monkeypatch)
    assert main(["suite", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == '{"summary": {"failed": 7, "passed": 784}}'
    assert _sha256(out) == "70d152aab96dd796a822df2c8cde2506761de934e7822ced5b8196adf6b9d28e"


def test_golden_k4_search_stream():
    # the records `treetorsor search` prints for K4, one JSON line per system
    report = suite.search_conjecture(corpus.k4())
    dump = "\n".join(json.dumps(r, sort_keys=True) for r in report["systems"])
    assert _sha256(dump) == "8ff74ccce7db9efd411cfbb7012a6e2d3b603af413f55f3d60d8e26472ff620f"


TORSOR_GRAPHS = [
    ("k4", corpus.k4()),
    ("theta", corpus.theta()),
    ("k4-planar", corpus.planar_rotation(corpus.k4())),
]


def _torsor_record(G, act):
    report = suite.SuiteReport()
    suite._check_torsor_axioms(report, "g", G, "torsor", act)
    (record,) = report.records
    return record


def _bernardi_key_act(G, v, c, T):
    """The Bernardi action on a class key, as ``_check_bernardi`` passes it."""
    return bernardi._act(G, v, G.rotation[v][0], c, T)


# each id names the public action whose class-key body the battery is given
KEY_ACTS = [
    pytest.param(_bernardi_key_act, id="bernardi_act"), pytest.param(rotor._act, id="rotor_act"),
]


@pytest.mark.parametrize("act", KEY_ACTS)
@pytest.mark.parametrize("G", [G for _, G in TORSOR_GRAPHS], ids=[n for n, _ in TORSOR_GRAPHS])
def test_torsor_battery_calls_action_once_per_class_and_tree(G, act):
    calls = []

    def counted(*args):
        calls.append(args)
        return act(*args)

    assert _torsor_record(G, counted).ok
    assert len(calls) == picard_group(G).order * len(spanning_trees(G))


def _twisted(G):
    """T -> trees[(i(T) + s(j(c))) mod N], s swapping 1 and 2: not additive."""
    trees, group = spanning_trees(G), picard_group(G)

    def act(G, v, c, T):
        j = group.elements.index(c)
        return trees[(trees.index(T) + {1: 2, 2: 1}.get(j, j)) % len(trees)]

    return act


def _wrong_in_two_rows(G):
    """The rotor action, except at the first and last classes that are neither
    zero nor a generator (the same class if there is one such): the last swaps
    the images of the first two trees, and the first fixes the last tree."""
    trees, group = spanning_trees(G), picard_group(G)
    gens = {g for _, g in divisors._generator_keys(G, G.vertices[0])}
    first, *_, last = [c for c in group.elements if c != group.zero and c not in gens] * 2

    def act(G, v, c, T):
        if c == last and T in trees[:2]:
            T = trees[1] if T == trees[0] else trees[0]
        elif c == first and T == trees[-1]:
            return T  # c is not zero, so c.T != T
        return rotor._act(G, v, c, T)

    return act


def test_torsor_battery_failure_witnesses():
    # the last failing witness in loop order; a non-tree image fails, never raises
    expected = {
        ("k4", "constant"): {"axiom": "transitivity", "tree": ["e14", "e24", "e34"]},
        ("k4", "empty"): {"axiom": "transitivity", "tree": ["e14", "e24", "e34"]},
        ("k4", "twisted"): {
            "axiom": "additivity",
            "gamma1": {"1": -1, "4": 1},
            "gamma2": {"1": 0, "2": 0, "3": 0, "4": 0},
            "tree": ["e14", "e24", "e34"],
        },
        ("k4", "two-rows"): {"axiom": "transitivity", "tree": ["e14", "e24", "e34"]},
        ("theta", "constant"): {"axiom": "transitivity", "tree": ["r"]},
        ("theta", "empty"): {"axiom": "transitivity", "tree": ["r"]},
        ("theta", "twisted"): {
            "axiom": "additivity",
            "gamma1": {"u": -1, "v": 1},
            "gamma2": {"u": 0, "v": 0},
            "tree": ["r"],
        },
        ("theta", "two-rows"): {"axiom": "transitivity", "tree": ["r"]},
    }
    for name, G in TORSOR_GRAPHS[:2]:
        actions = {
            "constant": lambda G, v, c, T: T,
            "empty": lambda G, v, c, T: frozenset(),
            "twisted": _twisted(G),
            "two-rows": _wrong_in_two_rows(G),
        }
        for kind, act in actions.items():
            record = _torsor_record(G, act)
            assert not record.ok
            assert record.witness == expected[name, kind], (name, kind)
            assert record.params == {"vertex": G.vertices[0]}


class _EveryWitness(suite.SuiteReport):
    """A report that also keeps every witness passed to ``fail``, in order."""

    def __init__(self):
        super().__init__()
        self.witnesses = []

    @contextmanager
    def check(self, *args):
        with super().check(*args) as fail:
            yield lambda witness=None: (self.witnesses.append(witness), fail(witness))


def test_torsor_battery_row_comparison_keeps_every_witness():
    # a row that compares unequal goes through the per-tree loop: the same
    # witnesses, in the same order, as comparing every (g, c, T) one by one
    report = _EveryWitness()
    suite._check_torsor_axioms(report, "g", corpus.theta(), "torsor", _wrong_in_two_rows(corpus.theta()))
    g1 = {"v": 1, "u": -1}
    assert report.witnesses == [
        *({"axiom": "additivity", "gamma1": g1, "gamma2": g2, "tree": [t]}
          for g2 in ({"u": -2, "v": 2}, {"u": -1, "v": 1}) for t in "pqr"),
        *({"axiom": "transitivity", "tree": [t]} for t in "pqr"),
    ]
    G = corpus.k4()
    report = _EveryWitness()
    suite._check_torsor_axioms(report, "g", G, "torsor", _wrong_in_two_rows(G))
    assert [w["axiom"] for w in report.witnesses] == ["additivity"] * 18 + ["transitivity"] * 3
    assert _sha256(json.dumps(report.witnesses, sort_keys=True)) == (
        "bffae3d42314c37f1ed3c2fb4f62af0bdb723533d6e39372421130b704084a09"
    )


def _battery_record(G, check, battery=None):
    report = suite.SuiteReport()
    if battery is None:
        battery = suite._check_divisors if check == "group-axioms" else suite._check_bernardi
    battery(report, "g", G)
    (record,) = [r for r in report.records if r.check == check]
    return record


ADD = PicardGroup.add


def _left(group, a, b):
    return a


def _negating(group, a, b):
    """Negates every sum of two nonzero classes: commutative, not associative."""
    s = ADD(group, a, b)
    return s if group.zero in (a, b) else divisors._q_reduce(group.graph, tuple(-c for c in s), group.q)


def _pairing(group, a, b):
    """Leaves a sum in the zero class, or with an operand that is no element,
    as the pair (a, b), which is no element."""
    if a in group.elements and b in group.elements:
        s = ADD(group, a, b)
        if s != group.zero:
            return s
    return (a, b)


def _unreduced(group, a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_group_axioms_failure_witnesses(monkeypatch):
    # the last failing witness in loop order; a sum outside the element set fails, never raises
    k4_zero, theta_zero = [0, 0, 0, 0], [0, 0]
    expected = {
        ("k4", _left): {"a": k4_zero, "b": [-1, 1, 0, 0]},
        ("k4", _negating): {"a": [-1, 1, 0, 0], "b": [-1, 1, 0, 0], "c": [-1, 0, 1, 0]},
        ("k4", _pairing): {"a": k4_zero, "b": k4_zero, "c": k4_zero},
        # sums of coefficients form a group on Z^V, but not on the q-reduced elements
        ("k4", _unreduced): {"a": k4_zero, "b": [-1, 1, 0, 0], "c": [-2, 2, 0, 0]},
        ("theta", _left): {"a": theta_zero, "b": [-1, 1]},
        ("theta", _negating): {"a": [-1, 1], "b": [-1, 1], "c": [-2, 2]},
        ("theta", _pairing): {"a": theta_zero, "b": theta_zero, "c": theta_zero},
        ("theta", _unreduced): {"a": theta_zero, "b": [-1, 1], "c": [-2, 2]},
    }
    for (name, G), add in product(TORSOR_GRAPHS[:2], (_left, _negating, _pairing, _unreduced)):
        with monkeypatch.context() as patch:
            patch.setattr(PicardGroup, "add", add)
            record = _battery_record(G, "group-axioms")
        assert not record.ok
        assert record.witness == expected[name, add], (name, add.__name__)


@pytest.mark.parametrize("G", [G for _, G in TORSOR_GRAPHS], ids=[n for n, _ in TORSOR_GRAPHS])
def test_group_axioms_add_each_pair_once(G, monkeypatch):
    added = []
    marks = {}  # check -> group.add calls made before its record

    class Report(suite.SuiteReport):
        def add(self, check, *args):
            marks[check] = len(added)
            super().add(check, *args)

    def counted(group, a, b):
        added.append((a, b))
        return ADD(group, a, b)

    monkeypatch.setattr(PicardGroup, "add", counted)
    report = Report()
    suite._check_divisors(report, "g", G)
    n = picard_group(G).order
    assert marks["group-axioms"] - marks["q-reduce-canonical"] <= n * n
    assert report.ok


def _reversed_last(G, v, e, T):
    """The walk from the last vertex's last edge, run backwards: no rotation."""
    steps = list(bernardi._walk(G, v, e, T))
    if (v, e) == (G.vertices[-1], G.incident[G.vertices[-1]][-1]):
        return iter(steps[::-1])
    return iter(steps)


def _missing_cut(G, v, e, T):
    """Every walk without the cut of the first edge at its first end."""
    f = G.edge_ids[0]
    return (s for s in bernardi._walk(G, v, e, T) if s != (G.ends[f][0], f, False))


def _empty(G, v, e, T):
    return iter(())


def test_tour_structure_failure_witnesses(monkeypatch):
    expected = {
        ("k4", _reversed_last): {"tree": ["e14", "e24", "e34"]},
        ("k4", _missing_cut): {"edge": "e12", "tree": ["e14", "e24", "e34"]},
        ("k4", _empty): {"tree": ["e14", "e24", "e34"]},
        ("theta", _reversed_last): {"tree": ["r"]},
        ("theta", _missing_cut): {"edge": "p", "tree": ["r"]},
        ("theta", _empty): {"tree": ["r"]},
    }
    for (name, G), tour in product(TORSOR_GRAPHS[:2], (_reversed_last, _missing_cut, _empty)):
        with monkeypatch.context() as patch:
            patch.setattr(suite, "_walk", tour)
            record = _battery_record(G, "tour-structure")
        assert not record.ok
        assert record.witness == expected[name, tour], (name, tour.__name__)


def test_no_battery_builds_a_tour(monkeypatch):
    # the batteries read bernardi._walk; Tour serves the tour and export-dot commands
    def refuse(*args, **kwargs):
        raise AssertionError("a battery built a tour")

    monkeypatch.setattr(bernardi, "bernardi_tour", refuse)
    monkeypatch.setattr(bernardi, "Tour", refuse)
    clear_caches()
    for _ in ("cold", "warm"):
        assert suite.run_theorem_suite([("k4", corpus.k4())]).ok
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, Tour)]


# -- failure witnesses of the looping checks -----------------------------------
# Each stand-in breaks one library call as the suite reads it: a name the suite
# imports, or a function of a module the suite reads through its alias (the
# module itself is left alone, so no library cache sees a stand-in).

def _module_with(module, **stand_ins):
    """``module`` as the suite reads it, with some functions replaced."""
    return SimpleNamespace(**{**vars(module), **stand_ins})


def _stuck_face(G, d):
    """Every successor is the first dart: only the face through it closes."""
    return G.darts()[0]


def _reversed_in_first_tree(G, T, e):
    cycle = ribbon.fundamental_cycle(G, T, e)
    return cycle[::-1] if T == spanning_trees(G)[0] else cycle


def _unreducing(G, D):
    """Returns its input: idempotent, but equivalent inputs stay apart."""
    return dict(D)


def _chip_added(G, D):
    """The reduction plus a chip at the first vertex: never idempotent."""
    red = divisors.q_reduce(G, D)
    return {**red, G.vertices[0]: red[G.vertices[0]] + 1}


def _first_break(G, D):
    return breakdiv.enumerate_break_divisors(G)[0]


def _first_repeated(G):
    breaks = breakdiv.enumerate_break_divisors(G)
    return breaks + breaks[:1]


def _first_tree(G, v, e, dt, left):
    return spanning_trees(G)[0]


def _beta_of_first_tree(G, v, e, T):
    return bernardi._beta(G, v, e, spanning_trees(G)[0])


def _fixed_from_last_edge(G, v, e, T):
    """The class keys, except that at v's last incident edge every generator
    keeps T's class: read by the class rule, the action from there fixes every tree."""
    key, row = bernardi._class_keys(G, v, e, T)
    return (key, (key,) * len(row)) if e == G.incident[v][-1] else (key, row)


def _no_tree_for_first_tree(G, v, e, key, T):
    """The action, except that the first tree goes to an edge set that is no tree."""
    return frozenset() if T == spanning_trees(G)[0] else bernardi._act(G, v, e, key, T)


def _equal_only_from_one_edge(G, v, e1, e2, T, first, ends):
    """Sides that differ exactly when the two edges do."""
    return [e1], [e2]


def _no_tree_from_second_vertex(G, T, x, y):
    return frozenset() if x == G.vertices[1] else rotor.rotor_move(G, T, x, y)


def _representative_read(G, v, gamma, T):
    """Depends on the representative, not on its class."""
    return frozenset(gamma.items())


def _first_dart_dropped(G, rotors, chip):
    states, darts = rotor.unicycle_orbit(G, rotors, chip)
    return states, darts[1:]


def _bfs_only(G, C, orientation="bfs"):
    return orientation == "bfs"


def _zero_psi(corr, chain):
    return picard_group(corr.dual).zero


def _swapped_psi(corr, chain):
    """psi with the first two nonzero dual classes exchanged: a bijection
    that keeps zero, but not additive."""
    group = picard_group(corr.dual)
    x, y = [c for c in group.elements if c != group.zero][:2]
    c = duality._psi(corr, chain)
    return {x: y, y: x}.get(c, c)


def _agree_only_at_last(G, v):
    return (True, None) if v == G.vertices[-1] else (False, {"at": v})


RIBBON, DIVISORS, BREAK = suite._check_ribbon, suite._check_divisors, suite._check_break
BERNARDI, ROTOR, DUALITY = suite._check_bernardi, suite._check_rotor, suite._check_duality
# (check, battery, graph, suite attribute, its stand-in) -> the witness of the failing record
WITNESS_CASES = [
    ("face-permutation-closure", RIBBON, "k4", "face_successor", _stuck_face,
     {"dart": ["e12", "2"], "length": 8}),
    ("fundamental-cycle", RIBBON, "k4", "fundamental_cycle", _reversed_in_first_tree,
     {"edge": "e34", "tree": ["e12", "e13", "e14"]}),
    ("q-reduce-canonical", DIVISORS, "k4", "dv", _module_with(divisors, q_reduce=_unreducing),
     {"divisor": {"1": -4, "2": -3, "3": -1, "4": -4},
      "function": {"1": -2, "2": 0, "3": 0, "4": -3}}),
    ("q-reduce-canonical", DIVISORS, "theta", "dv", _module_with(divisors, q_reduce=_chip_added),
     {"divisor": {"u": -1, "v": -4}}),
    ("break-representative-identity", BREAK, "k4", "bk",
     _module_with(breakdiv, break_representative=_first_break),
     {"divisor": {"1": 2, "2": 1, "3": 0, "4": 0}}),
    ("break-pairwise-inequivalent", BREAK, "k4", "bk",
     _module_with(breakdiv, enumerate_break_divisors=_first_repeated),
     {"classes": 16, "count": 17}),
    ("bernardi-bijectivity", BERNARDI, "k4", "_alpha", _first_tree,
     {"edge": "e34", "tree": ["e14", "e24", "e34"], "vertex": "4"}),
    ("bernardi-bijectivity", BERNARDI, "theta", "_beta", _beta_of_first_tree,
     {"edge": "r", "vertex": "v"}),
    ("edge-independence", BERNARDI, "k4", "_class_keys", _fixed_from_last_edge,
     {"gamma": {"1": -1, "4": 1}, "tree": ["e14", "e24", "e34"], "vertex": "4"}),
    ("edge-independence", BERNARDI, "theta", "_act", _no_tree_for_first_tree,
     {"gamma": {"u": -1, "v": 1}, "tree": ["p"], "vertex": "v"}),
    ("shift-formula", BERNARDI, "k4", "_shift_sides", _equal_only_from_one_edge,
     {"edge1": "e34", "edge2": "e24", "tree": ["e14", "e24", "e34"], "vertex": "4"}),
    ("rotor-move-tree", ROTOR, "k4", "rt",
     _module_with(rotor, rotor_move=_no_tree_from_second_vertex),
     {"from": "2", "tree": ["e12", "e14", "e23"]}),
    ("rotor-representative-independence", ROTOR, "k4", "rt",
     _module_with(rotor, rotor_act=_representative_read),
     {"function": {"1": 2, "2": -2, "3": 1, "4": 0}, "gamma": {"1": -1, "4": 1},
      "tree": ["e12", "e13", "e34"]}),
    ("unicycle-periodicity", ROTOR, "k4", "rt",
     _module_with(rotor, unicycle_orbit=_first_dart_dropped),
     {"cycle": [["e12", "1"], ["e23", "2"], ["e34", "3"], ["e14", "4"]]}),
    ("reversibility-orientation-independence", ROTOR, "theta", "rt",
     _module_with(rotor, cycle_is_reversible=_bfs_only),
     {"cycle": [["q", "u"], ["r", "v"]]}),
    ("psi-isomorphism", DUALITY, "theta", "du", _module_with(duality, _psi=_zero_psi),
     {"dual_order": 3, "order": 3}),
    ("psi-isomorphism", DUALITY, "k4-planar", "du", _module_with(duality, _psi=_swapped_psi),
     {"a": [-1, 1, 0, 0], "b": [-1, 0, 0, 1]}),
    ("torsor-agreement", suite._check_comparisons, "k4-planar", "compare_torsors",
     _agree_only_at_last, {"at": "3", "vertex": "3"}),
]


@pytest.mark.parametrize(
    "check,battery,graph,name,stand_in,expected",
    [pytest.param(*case, id=f"{case[0]}-{case[2]}") for case in WITNESS_CASES],
)
def test_looping_check_failure_witnesses(check, battery, graph, name, stand_in, expected, monkeypatch):
    # the witness of the last failure in loop order, exactly as the stream prints it
    G = dict(TORSOR_GRAPHS)[graph]
    assert _battery_record(G, check, battery).ok
    monkeypatch.setattr(suite, name, stand_in)
    record = _battery_record(G, check, battery)
    assert not record.ok
    assert json.loads(record.to_json())["witness"] == expected


# -- the Bernardi and rotor batteries against the public actions ---------------
# The batteries compare bernardi._act and rotor._act on class keys and read the
# shift formula's sides from one labelling per (v, T).  Each answer they read
# must equal the public call the suite used to make for it.

def _recorded(patch, module, name):
    """Replace ``module.name`` by a wrapper that keeps each (args, result)."""
    calls, f = [], getattr(module, name)

    def wrapper(*args):
        calls.append((args, f(*args)))
        return calls[-1][1]

    patch.setattr(module, name, wrapper)
    return calls


def _assert_batteries_match_public_paths(G, stand_ins=()):
    """Run ``_check_bernardi`` and ``_check_rotor`` on G, optionally with some
    suite names replaced, and check every action image, every class-rule
    verdict and every pair of shift-formula sides they read against the public
    path."""
    trees, group, q = spanning_trees(G), picard_group(G), G.vertices[0]
    with pytest.MonkeyPatch.context() as patch:
        for name, stand_in in stand_ins:
            patch.setattr(suite, name, stand_in)
        acts = _recorded(patch, suite, "_act")
        keys = _recorded(patch, suite, "_class_keys")
        sides = _recorded(patch, suite, "_shift_sides")
        suite._check_bernardi(suite.SuiteReport(), "g", G)
        patch.setattr(suite, "rt", _module_with(rotor))
        rotor_acts = _recorded(patch, suite.rt, "_act")
        suite._check_rotor(suite.SuiteReport(), "g", G)

    # the torsor table and edge-independence's one action per (v, generator, tree)
    # at v's first rotation edge, through bernardi_act(..., e=e)
    for (_, v, e, key, T), image in acts:
        assert image == bernardi_act(G, v, divisors.tuple_to_divisor(G, key), T, e=e)
    gens = divisors._generator_keys(G, q)
    torsor = {(q, G.rotation[q][0], c, T) for c in group.elements for T in trees}
    first = {(v, G.rotation[v][0], key, T) for v in G.vertices for _, key in gens for T in trees}
    assert {args[1:] for args, _ in acts} == torsor | first
    # edge-independence at every other edge: the class-rule verdict on that image
    # is whether bernardi_act from e gives the same tree
    images = {args[1:]: y for args, y in acts}
    read = {args[1:]: result for args, result in keys}
    others = {(v, e) for v in G.vertices for e in G.incident[v] if e != G.rotation[v][0]}
    assert set(read) == {(v, e, T) for v, e in others for T in trees}
    for (v, e), (k, (u, key)), T in product(sorted(others), enumerate(gens), trees):
        y = images[v, G.rotation[v][0], key, T]
        verdict = read[v, e, y][0] == read[v, e, T][1][k]
        assert verdict == (bernardi_act(G, v, {u: 1, q: -1}, T, e=e) == y), (v, e, u, sorted(T))
    # the rotor torsor table, through rotor_act
    for (_, v, c, T), image in rotor_acts:
        assert image == rotor_act(G, v, divisors.tuple_to_divisor(G, c), T)
    assert {args[1:] for args, _ in rotor_acts} == {(q, c, T) for c in group.elements for T in trees}
    # the shift formula, through shift_difference_check
    for (_, v, e1, e2, T, _, _), (lhs, rhs) in sides:
        expected = divisors.tuple_to_divisor(G, lhs), divisors.tuple_to_divisor(G, rhs), lhs == rhs
        assert bernardi.shift_difference_check(G, v, e1, e2, T) == expected, (v, e1, e2, sorted(T))
    assert [args[1:5] for args, _ in sides] == [
        (v, e1, e2, T)
        for v in G.vertices for e1, e2 in product(G.incident[v], repeat=2) for T in trees
    ]


def test_batteries_match_public_paths_on_default_corpus():
    checked = 0
    for _, G in corpus.default_corpus():
        if len(spanning_trees(G)) <= 200:
            _assert_batteries_match_public_paths(G)
            checked += 1
    assert checked >= 20


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_batteries_match_public_paths_random(seed):
    _assert_batteries_match_public_paths(corpus.random_multigraph(random.Random(seed)))


def _ends_at_v_unlabelled(G, v, T):
    """The side labelling, except that every edge end at v takes the label of
    rotation(v)'s first edge: it ignores the arc an edge leaves v by."""
    at = G._vertex_pos[v]
    return tuple(
        (a, 0 if a == at else la, b, 0 if b == at else lb)
        for a, la, b, lb in bernardi._cut_ends(G, v, T)
    )


def _identity_on_classes(G, v, e, key, T):
    return T


@pytest.mark.parametrize(
    "name,stand_in",
    [("_cut_ends", _ends_at_v_unlabelled), ("_class_keys", _fixed_from_last_edge),
     ("_act", _identity_on_classes)],
    ids=["labelling-ignores-arc-at-v", "act-fixed-from-last-edge", "act-ignores-class"],
)
def test_batteries_match_public_paths_catches_a_mutant(name, stand_in):
    G = corpus.k4()
    _assert_batteries_match_public_paths(G)
    with pytest.raises(AssertionError):
        _assert_batteries_match_public_paths(G, [(name, stand_in)])


def test_bernardi_battery_makes_no_public_call(monkeypatch):
    # cold, then warm: no public action, shift check or class conversion
    # (the generators are built as tuples); one labelling per (v, T)
    G = corpus.k4()
    calls = {
        name: _recorded(monkeypatch, module, name)
        for module, name in [
            (bernardi, "bernardi_act"), (bernardi, "shift_difference_check"),
            (divisors, "divisor_to_tuple"), (suite, "_cut_ends"),
        ]
    }
    labellings = len(G.vertices) * len(spanning_trees(G))
    clear_caches()
    suite._check_bernardi(suite.SuiteReport(), "k4", G)
    assert {n: len(c) for n, c in calls.items() if c} == {"_cut_ends": labellings}
    for c in calls.values():
        c.clear()
    report = suite.SuiteReport()
    suite._check_bernardi(report, "k4", G)
    assert report.ok
    assert {n: len(c) for n, c in calls.items() if c} == {"_cut_ends": labellings}


def test_compare_vertices_planar_vs_not():
    same, witness = suite.compare_bernardi_vertices(corpus.theta(True), "u", "v")
    assert same and witness is None
    same, witness = suite.compare_bernardi_vertices(corpus.theta(False), "u", "v")
    assert not same
    assert set(witness) == {"gamma", "tree"}
    # trivially equal base points
    same, _ = suite.compare_bernardi_vertices(corpus.theta(False), "u", "u")
    assert same


def test_compare_torsors():
    for v in ("u", "v"):
        same, _ = suite.compare_torsors(corpus.theta(True), v)
        assert same
    # a tree graph has the trivial group: vacuous agreement
    same, _ = suite.compare_torsors(corpus.path3(), "1")
    assert same


def _compare_torsors_oracle(G, v):
    """compare_torsors through the public actions, one call per tree."""
    for u in G.vertices[1:]:
        gamma = {u: 1, G.vertices[0]: -1}
        for T in spanning_trees(G):
            if bernardi_act(G, v, gamma, T) != rotor_act(G, v, gamma, T):
                return False, {"gamma": gamma, "tree": sorted(T)}
    return True, None


def _compare_vertices_oracle(G, v1, v2):
    """compare_bernardi_vertices through the public action, one call per tree."""
    for u in G.vertices[1:]:
        gamma = {u: 1, G.vertices[0]: -1}
        for T in spanning_trees(G):
            if bernardi_act(G, v1, gamma, T) != bernardi_act(G, v2, gamma, T):
                return False, {"gamma": gamma, "tree": sorted(T)}
    return True, None


def _assert_comparisons_match_oracle(G):
    for v in G.vertices:
        assert suite.compare_torsors(G, v) == _compare_torsors_oracle(G, v), v
    for v1, v2 in product(G.vertices, repeat=2):
        assert suite.compare_bernardi_vertices(G, v1, v2) == _compare_vertices_oracle(
            G, v1, v2
        ), (v1, v2)


def test_comparisons_match_public_action_oracle():
    graphs = [G for _, G in corpus.default_corpus()] + list(corpus.rotation_systems(corpus.k4()))
    for G in graphs:
        _assert_comparisons_match_oracle(G)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_comparisons_match_public_action_oracle_random(seed):
    _assert_comparisons_match_oracle(corpus.random_multigraph(random.Random(seed)))


def _refuse(*args):
    raise AssertionError("a Bernardi inverse ran")


def test_compare_torsors_runs_no_bernardi_inverse(monkeypatch):
    graphs = corpus.default_corpus()
    expected = [suite.compare_torsors(G, v) for _, G in graphs for v in G.vertices]
    clear_caches()
    for module, name in [(bernardi, "_alpha"), (bernardi, "_act"), (suite, "_act")]:
        monkeypatch.setattr(module, name, _refuse)
    assert [suite.compare_torsors(G, v) for _, G in graphs for v in G.vertices] == expected


def _pairs_visited(G, witness):
    """The (generator, tree) pairs a comparison tests: all of them, or those
    up to and including its witness."""
    trees = [sorted(T) for T in spanning_trees(G)]
    if witness is None:
        return (len(G.vertices) - 1) * len(trees)
    k = G.vertices.index(next(u for u, c in witness["gamma"].items() if c == 1)) - 1
    return k * len(trees) + trees.index(witness["tree"]) + 1


def test_comparisons_reach_alpha_at_most_once_per_pair(monkeypatch):
    alphas = _recorded(monkeypatch, bernardi, "_alpha")
    planar = [corpus.k3(), corpus.theta(planar=True), corpus.planar_rotation(corpus.k4())]
    for G in planar + [corpus.theta(planar=False), corpus.k4()]:
        for v1, v2 in product(G.vertices, repeat=2):
            clear_caches()
            alphas.clear()
            _, witness = suite.compare_bernardi_vertices(G, v1, v2)
            assert len(alphas) <= _pairs_visited(G, witness), (v1, v2)
    # the square runs the primal action only
    for G in planar:
        corr, v = duality.dual_graph(G), G.vertices[-1]
        clear_caches()
        alphas.clear()
        for c in picard_group(G).elements:
            for T in spanning_trees(G):
                before = len(alphas)
                assert duality.duality_square_check(corr, v, divisors.tuple_to_divisor(G, c), T)
                assert len(alphas) - before <= 1


@pytest.mark.parametrize("k,i", [(0, 0), (1, 7), (2, 15)], ids=["first", "middle", "last"])
def test_compare_torsors_witness_of_a_moved_rotor_image(k, i, monkeypatch):
    # a rotor action wrong at one (generator, tree) pair: the oracle's witness, exactly
    G = corpus.planar_rotation(corpus.k4())
    trees, real = spanning_trees(G), rotor._act
    for v in G.vertices:
        key = divisors._generator_keys(G, v)[k][1]
        moved = real(G, v, key, trees[i - 1])

        def stand_in(G_, v_, c, T):
            return moved if (v_, c, T) == (v, key, trees[i]) else real(G_, v_, c, T)

        monkeypatch.setattr(rotor, "_act", stand_in)
        gamma = {G.vertices[k + 1]: 1, G.vertices[0]: -1}
        expected = False, {"gamma": gamma, "tree": sorted(trees[i])}
        assert _compare_torsors_oracle(G, v) == expected
        assert suite.compare_torsors(G, v) == expected, v


def _last_cut_beta(G, v, e, T):
    """beta, except that each non-tree edge gives its chip to its last cut."""
    last = {f: u for u, f, walked in bernardi._walk(G, v, e, T) if not walked}
    chips = [0] * len(G.vertices)
    for u in last.values():
        chips[G.vertex_pos(u)] += 1
    return tuple(chips)


def test_comparisons_catch_a_beta_counting_last_cuts(monkeypatch):
    G = corpus.planar_rotation(corpus.k4())
    corr, classes = duality.dual_graph(G), picard_group(G).elements
    clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(bernardi, "_beta", _last_cut_beta)
        torsors = [suite.compare_torsors(G, v)[0] for v in G.vertices]
        square = [
            duality.duality_square_check(corr, G.vertices[0], divisors.tuple_to_divisor(G, c), T)
            for c in classes for T in spanning_trees(G)
        ]
    clear_caches()
    assert not any(torsors)
    assert not all(square)


def test_changed_comparisons_keep_their_entry_errors():
    # each bad argument gives the error it gave before the class rule
    G = corpus.planar_rotation(corpus.k4())
    corr, T, gamma = duality.dual_graph(G), frozenset({"e12", "e13", "e14"}), {"2": 1, "1": -1}
    square = partial(duality.duality_square_check, corr)
    unknown = "MissingVertex", "unknown vertex 'zz'"
    cases = [
        (lambda: suite.compare_torsors(G, "zz"), *unknown),
        (lambda: suite.compare_bernardi_vertices(G, "zz", "1"), *unknown),
        (lambda: suite.compare_bernardi_vertices(G, "1", "zz"), *unknown),
        (lambda: square("zz", gamma, T), *unknown),
        (lambda: square("1", {"zz": 1, "1": -1}, T),
         "MissingVertex", "divisor mentions unknown vertex 'zz'"),
        (lambda: square("1", {"2": True, "1": -1}, T),
         "ParseError", "coefficient of '2' must be an integer"),
        (lambda: square("1", {"2": 0.5, "1": -0.5}, T),
         "ParseError", "coefficient of '1' must be an integer"),
        (lambda: square("1", {"2": 1}, T),
         "DegreeMismatch", "a class must have degree 0, got degree 1"),
        (lambda: square("1", gamma, frozenset({"e12", "e13"})),
         "NotSpanningTree", "['e12', 'e13'] is not a spanning tree"),
        (lambda: square("1", gamma, frozenset({"e12", "e23", "e13"})),
         "NotSpanningTree", "['e12', 'e13', 'e23'] is not a spanning tree"),
        (lambda: square("1", gamma, frozenset({"e12", "e13", "zz"})),
         "NotSpanningTree", "['e12', 'e13', 'zz'] is not a spanning tree"),
        # the vertex, then the class, before the tree
        (lambda: square("zz", {"2": 1}, frozenset()), *unknown),
        (lambda: square("1", {"2": 1}, frozenset()),
         "DegreeMismatch", "a class must have degree 0, got degree 1"),
    ]
    for call, kind, message in cases:
        with pytest.raises(TorsorError) as info:
            call()
        assert (type(info.value).__name__, str(info.value)) == (kind, message)


def _check_comparisons_all_pairs(report, name, G):
    """The vertex comparisons over every pair in ``combinations`` order: the
    oracle of the suite's star of pairs from the first vertex."""
    gtop = trace_faces(G).topological_genus
    first_witness = None
    for v1, v2 in combinations(G.vertices, 2):
        same, witness = suite.compare_bernardi_vertices(G, v1, v2)
        if not same:
            first_witness = {"v1": v1, "v2": v2, **(witness or {})}
            break
    agree_all = first_witness is None
    if gtop == 0:
        report.add("vertex-independence", name, {"genus": 0}, agree_all, first_witness)
    else:
        report.add(
            "vertex-dependence",
            name,
            {"genus": gtop},
            not agree_all,
            {"note": "no vertex pair distinguishes the actions"} if agree_all else None,
        )
    if gtop == 0:
        with report.check("torsor-agreement", name, {"genus": 0}) as fail:
            for v in G.vertices:
                same, w = suite.compare_torsors(G, v)
                if not same:
                    fail({"vertex": v, **(w or {})})


def _assert_star_matches_all_pairs(G):
    star, pairs = suite.SuiteReport(), suite.SuiteReport()
    suite._check_comparisons(star, "g", G)
    _check_comparisons_all_pairs(pairs, "g", G)
    assert star.records == pairs.records


def test_vertex_star_matches_all_pairs_on_default_corpus():
    graphs = [G for _, G in corpus.default_corpus()]
    assert len(graphs) == 36 and max(len(G.vertices) for G in graphs) >= 3
    for G in graphs:
        _assert_star_matches_all_pairs(G)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_vertex_star_matches_all_pairs_random(seed):
    _assert_star_matches_all_pairs(corpus.random_multigraph(random.Random(seed)))


def test_vertex_checks_compare_the_first_vertex_with_each_later_one(monkeypatch):
    calls = _recorded(monkeypatch, suite, "compare_bernardi_vertices")
    # every pair agrees on a planar K4; on a non-planar one the first pair differs
    for G, pairs in ((corpus.planar_rotation(corpus.k4()), [("1", "2"), ("1", "3"), ("1", "4")]),
                     (corpus.k4(), [("1", "2")])):
        calls.clear()
        suite._check_comparisons(suite.SuiteReport(), "g", G)
        assert [args[1:] for args, _ in calls] == pairs


def test_search_requires_simple_graph():
    with pytest.raises(NotSimple):
        suite.search_conjecture(corpus.theta(True))


def test_search_k4():
    report = suite.search_conjecture(corpus.k4())
    assert report["system_count"] == suite.rotation_system_count(corpus.k4()) == 16
    planar = [s for s in report["systems"] if s["genus"] == 0]
    bumpy = [s for s in report["systems"] if s["genus"] > 0]
    assert len(planar) == 2 and len(bumpy) == 14
    assert all(not s["disagreeing_vertices"] for s in planar)
    assert all(s["disagreeing_vertices"] for s in bumpy)
    assert report["counterexamples"] == []


# -- CLI ------------------------------------------------------------------------


@pytest.fixture()
def corpus_dir(tmp_path):
    corpus.write_corpus(str(tmp_path), SMALL)
    return tmp_path


@pytest.fixture()
def k3_file(corpus_dir):
    return str(corpus_dir / "k3.json")


def test_cli_info(k3_file, capsys):
    assert main(["info", k3_file]) == 0
    out = capsys.readouterr().out
    assert "vertices 3" in out and "genus-topological 0" in out and "faces 2" in out


def test_cli_trees(k3_file, capsys):
    assert main(["trees", k3_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["a,b", "a,c", "b,c"]


def test_cli_break_divisors(k3_file, capsys):
    assert main(["break-divisors", k3_file]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_cli_tour_and_beta(k3_file, capsys):
    assert main(["tour", k3_file, "--vertex", "1", "--edge", "a", "--tree", "a,b"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1 a walk"
    assert "eta" in out

    assert main(["beta", k3_file, "--vertex", "1", "--edge", "a", "--tree", "a,b"]) == 0
    assert json.loads(capsys.readouterr().out) == {"1": 0, "2": 0, "3": 1}


def test_cli_alpha_round_trip(k3_file, capsys):
    for cmd in ("alpha-r", "alpha-l"):
        assert (
            main([cmd, k3_file, "--vertex", "1", "--edge", "a", "--divisor", '{"3": 1}'])
            == 0
        )
        assert capsys.readouterr().out.strip() == "a,b"


def test_cli_actions_agree(k3_file, capsys):
    args = ["--vertex", "1", "--class", '{"2": 1, "1": -1}', "--tree", "a,b"]
    assert main(["act-bernardi", k3_file] + args) == 0
    bernardi = capsys.readouterr().out.strip()
    assert main(["act-rotor", k3_file] + args) == 0
    rotor = capsys.readouterr().out.strip()
    assert bernardi == rotor


def test_cli_rotor_move(k3_file, capsys):
    assert main(["rotor-move", k3_file, "--from", "2", "--root", "1", "--tree", "a,b"]) == 0
    assert capsys.readouterr().out.strip() == "b,c"


def test_cli_reversible(k3_file, capsys):
    assert main(["reversible", k3_file, "--cycle", "a:1,b:2,c:3"]) == 0
    assert capsys.readouterr().out.strip() == "reversible"


def test_cli_dual(k3_file, capsys):
    assert main(["dual", k3_file]) == 0
    out = capsys.readouterr().out
    graph_json, _, maps = out.partition("map ")
    doc = json.loads(graph_json)
    assert len(doc["vertices"]) == 2
    assert maps.startswith("a a")


def test_cli_dual_class_and_square(k3_file, capsys):
    assert main(["dual-class", k3_file, "--class", '{"2": 1, "1": -1}']) == 0
    pushed = json.loads(capsys.readouterr().out)
    assert sum(pushed.values()) == 0

    assert (
        main(
            [
                "check-square",
                k3_file,
                "--vertex",
                "1",
                "--class",
                '{"2": 1, "1": -1}',
                "--tree",
                "a,b",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "commutes"


def test_cli_compare_commands(corpus_dir, capsys):
    planar = str(corpus_dir / "theta-planar.json")
    warped = str(corpus_dir / "theta-nonplanar.json")
    assert main(["compare-vertices", planar, "--vertex", "u", "--other", "v"]) == 0
    capsys.readouterr()
    assert main(["compare-vertices", warped, "--vertex", "u", "--other", "v"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("different")
    assert main(["compare-torsors", planar, "--vertex", "u"]) == 0


def test_cli_suite(corpus_dir, capsys, monkeypatch):
    assert main(["suite", str(corpus_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1])["summary"]["failed"] == 0
    # the mirror convention is a test stand-in, not an option
    assert main(["suite", str(corpus_dir), "--mirror-dual"]) == 2
    assert capsys.readouterr().err == "error: unrecognized argument '--mirror-dual'\n"
    _mirror_duals(monkeypatch)
    assert main(["suite", str(corpus_dir)]) == 1


def test_cli_search(k3_file, capsys):
    assert main(["search", k3_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == {"system_count": 1, "counterexamples": 0}


def test_cli_export_dot(k3_file, capsys):
    assert main(["export-dot", k3_file, "--vertex", "1", "--edge", "a", "--tree", "a,b"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph tour {")
    assert "cut c" in out


def test_cli_input_errors(k3_file, capsys):
    assert main(["info", "/no/such/file.json"]) == 2
    assert main(["beta", k3_file, "--vertex", "1", "--edge", "a", "--tree", "a,b,c"]) == 2
    assert main(["tour", k3_file, "--vertex", "1", "--edge", "b", "--tree", "a,b"]) == 2
    assert main(["act-bernardi", k3_file, "--vertex", "1", "--class", '{"zz": 1}', "--tree", "a,b"]) == 2
    capsys.readouterr()
    tree = ["--tree", "a,b"]
    # an unknown vertex or a class of nonzero degree: test_cli_each_bad_option_exits_2
    cases = [
        # a boolean coefficient
        ["act-rotor", k3_file, "--vertex", "1", "--class", '{"1": true, "2": -1}'] + tree,
        # usage errors: a value read as a flag, a missing option, an unknown command
        ["act-rotor", k3_file, "--vertex", "1", "--class", "-Infinity"] + tree,
        ["tour", k3_file, "--vertex", "1"],
        ["no-such-command", k3_file],
    ]
    # rotation values that are not lists of edge ids
    k3 = json.loads(Path(k3_file).read_text())
    for name, value in (("int", 5), ("mixed", [1, "a"])):
        path = Path(k3_file).with_name(f"rotation-{name}.json")
        path.write_text(json.dumps(dict(k3, rotation=dict(k3["rotation"], **{"1": value}))))
        cases.append(["info", str(path)])
    # edge ends that unpack to two strings without being a list of two strings
    for name, value in (("string", "12"), ("object", {"1": 0, "2": None})):
        edges = [dict(k3["edges"][0], ends=value)] + k3["edges"][1:]
        path = Path(k3_file).with_name(f"ends-{name}.json")
        path.write_text(json.dumps(dict(k3, edges=edges)))
        cases.append(["info", str(path)])
    assert main(["--help"]) == 0
    usage = capsys.readouterr().out
    assert all(cmd.name in usage for cmd in COMMANDS)
    assert main(["suite", "--help"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "usage: treetorsor suite corpus_dir"
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    # a bad corpus file is named; a dart is written as on the command line
    named = {("reversible", k3_file, "--cycle", "a"): "error: dart a: is not a dart of the graph\n"}
    for name, text, message in (
        ("z.json", '{"vertices": ["1"], "edges": [], "rotation": {"1": []}}', "graph has no edges\n"),
        ("y.json", "{", "invalid JSON: "),
    ):
        bad_dir = Path(k3_file).with_name(f"corpus-{name}")
        bad_dir.mkdir()
        (bad_dir / name).write_text(text)
        named[("suite", str(bad_dir))] = f"error: {name}: {message}"
    # a graph file that is not UTF-8, alone or in a corpus; a corpus entry that
    # cannot be read is named; a corpus with no graph file
    not_utf8 = Path(k3_file).with_name("not-utf8")
    not_utf8.mkdir()
    (not_utf8 / "x.json").write_bytes(b"\xff\xfe")
    named[("info", str(not_utf8 / "x.json"))] = "error: graph file is not UTF-8"
    named[("suite", str(not_utf8))] = "error: x.json: graph file is not UTF-8"
    unreadable = Path(k3_file).with_name("unreadable")
    (unreadable / "sub.json").mkdir(parents=True)
    named[("suite", str(unreadable))] = "error: sub.json: "
    empty = Path(k3_file).with_name("empty")
    empty.mkdir()
    (empty / "notes.txt").write_text("not a graph")
    named[("suite", str(empty))] = f"error: no graph file (*.json) in corpus directory {str(empty)!r}"
    # tree ids are read in argument order: the first unknown one is named, a repeat is an error
    beta = ("beta", k3_file, "--vertex", "1", "--edge", "a", "--tree")
    named[beta + ("zz,yy,xx,ww,vv,uu,tt,ss",)] = "error: unknown edge 'zz' in tree argument\n"
    named[beta + ("a,a,b",)] = "error: repeated edge 'a' in tree argument\n"
    named[beta + ("b,a,zz,b",)] = "error: unknown edge 'zz' in tree argument\n"
    # an edge id that names no edge, as the graph's own lookups word it
    bad_edge = ("beta", k3_file, "--vertex", "1", "--edge", "zz", "--tree", "a,b")
    named[bad_edge] = "error: unknown edge 'zz'\n"
    for argv, message in named.items():
        assert main(list(argv)) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(message), (argv, err)


# a valid k3 value and a bad one for every option of a graph command; the
# library checks --edge, the other options have a reader
K3_VALUES = {
    "--vertex": ("1", "9"),
    "--other": ("2", "9"),
    "--from": ("2", "9"),
    "--root": ("1", "9"),
    "--edge": ("a", "zz"),
    "--divisor": ('{"3": 1}', '{"zz": 1}'),
    "--class": ('{"2": 1, "1": -1}', '{"2": 1}'),
    "--tree": ("a,b", "a,b,c"),
    "--cycle": ("a:1,b:2,c:3", "a:1,a:2"),
}
GRAPH_COMMANDS = [cmd for cmd in COMMANDS if cmd.graph]


def _k3_argv(cmd, k3_file, bad=None):
    argv = [cmd.name, k3_file]
    for option in cmd.options:
        good, wrong = K3_VALUES[option]
        argv += [option, wrong if option == bad else good]
    return argv


def test_cli_options_are_read_in_one_order():
    order = list(OPTIONS)
    for cmd in COMMANDS:
        assert list(cmd.options) == sorted(cmd.options, key=order.index), cmd.name


@pytest.mark.parametrize("cmd", GRAPH_COMMANDS, ids=[cmd.name for cmd in GRAPH_COMMANDS])
def test_cli_each_bad_option_exits_2(cmd, k3_file, capsys):
    # the usage names exactly the command's options; -h anywhere prints it
    assert main([cmd.name, "--help"]) == 0
    usage = capsys.readouterr().out
    assert set(re.findall(r"--[a-z-]+", usage)) == set(cmd.options)
    good = _k3_argv(cmd, k3_file)
    assert main(good + ["--no-such-option", "-h"]) == 0 and capsys.readouterr().out == usage
    assert main(good) == 0
    answer = capsys.readouterr().out
    # --opt=value reads as --opt value
    joined = good[:2] + [f"{o}={v}" for o, v in zip(good[2::2], good[3::2])]
    assert main(joined) == 0 and capsys.readouterr().out == answer, joined
    # a bad value; the option dropped, repeated or misspelt (an abbreviation);
    # a second positional
    wrong = [_k3_argv(cmd, k3_file, bad=option) for option in cmd.options]
    for i in range(2, len(good), 2):
        wrong.append(good[:i] + good[i + 2:])
        wrong.append(good + good[i:i + 2])
        wrong.append(good[:i] + [good[i][:-1]] + good[i + 1:])
    wrong.append(good[:2] + [k3_file] + good[2:])
    for argv in wrong:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_cli_import_leaves_argparse_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, treetorsor.cli; print('argparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_cli_first_bad_option_is_reported(k3_file, capsys):
    argv = ["tour", k3_file, "--vertex", "9", "--edge", "a", "--tree", "a,b,c"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: unknown vertex '9'\n"


def _package_caches():
    """Every lru cache reachable from a module or class of the package."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("treetorsor."):
            values = list(vars(module).values())
            values += [v for c in values if isinstance(c, type) for v in vars(c).values()]
            found.update((id(v), v) for v in values if hasattr(v, "cache_info"))
    return list(found.values())


def test_clear_caches_empties_every_cache(k3_file):
    assert main(["info", k3_file]) == 0
    k4 = [("k4", corpus.k4())]
    first = suite.run_theorem_suite(k4).dump()
    caches = _package_caches()
    assert len(caches) >= 13
    assert {
        id(ribbon._shared_tree), id(bernardi._start), id(breakdiv._trial_cuts),
        id(divisors._generator_keys),
    } <= {id(c) for c in caches}
    assert any(c.cache_info().currsize for c in caches)
    graph = k4[0][1]
    assert ribbon._GRAPHS[graph._key] is graph
    clear_caches()
    assert [c for c in caches if c.cache_info().currsize] == []
    # the intern table holds no strong references and survives the reset
    assert corpus.k4() is graph
    assert suite.run_theorem_suite(k4).dump() == first


K3_FILE = json.loads(corpus.k3().to_json())
K3_CLASS = {"2": 1, "1": -1}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# (document, path of keys) of each field that the fuzz test replaces
FIELDS = [
    ("graph", path)
    for path in [
        ("vertices",), ("vertices", 0), ("edges",), ("edges", 0), ("edges", 0, "id"),
        ("edges", 0, "ends"), ("edges", 0, "ends", 1), ("rotation",), ("rotation", "1"),
        ("rotation", "1", 0),
    ]
] + [("class", ()), ("class", ("2",))]


def _replaced(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.json"


@given(st.sampled_from(FIELDS), JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_cli_fuzzed_field_exits_cleanly(fuzz_file, field, value):
    # one field of a valid graph file or class replaced by any JSON value:
    # the CLI answers or exits 2 with one error line, and never raises
    doc, path = field
    graph = _replaced(K3_FILE, path, value) if doc == "graph" else K3_FILE
    klass = _replaced(K3_CLASS, path, value) if doc == "class" else K3_CLASS
    fuzz_file.write_text(json.dumps(graph))
    argv = ["act-bernardi", str(fuzz_file), "--vertex", "1", "--class", json.dumps(klass),
            "--tree", "a,b"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
