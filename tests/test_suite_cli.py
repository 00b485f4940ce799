"""The theorem suite, the conjecture search, and the command-line surface."""

import hashlib
import json

import pytest

from treetorsor import corpus, suite
from treetorsor.cli import main
from treetorsor.errors import NotSimple


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


def test_mirror_dual_fails_square_with_witness():
    report = suite.run_theorem_suite([("k3", corpus.k3())], mirror_dual=True)
    squares = [r for r in report.records if r.check == "duality-square"]
    assert squares and not squares[0].ok
    assert "gamma" in squares[0].witness and "tree" in squares[0].witness


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_default_corpus_stream():
    dump = suite.run_theorem_suite(corpus.default_corpus()).dump()
    assert len(dump.splitlines()) == 792
    assert _sha256(dump) == "aeccc74fb1f552c69795e4b7668d52ce369a0bc97f0944224f8570ff33e021dc"


def test_golden_mirror_dual_stream():
    # pins the witness format: full name-keyed classes, zero entries included
    dump = suite.run_theorem_suite([("k3", corpus.k3())], mirror_dual=True).dump()
    assert len(dump.splitlines()) == 27
    assert _sha256(dump) == "4468ec75707e1c2145ad581b5e4500acb2a1d348a560f53dfc775e96168e477e"


def test_golden_k4_search_stream():
    # the records `treetorsor search` prints for K4, one JSON line per system
    report = suite.search_conjecture(corpus.k4())
    dump = "\n".join(json.dumps(r, sort_keys=True) for r in report["systems"])
    assert _sha256(dump) == "8ff74ccce7db9efd411cfbb7012a6e2d3b603af413f55f3d60d8e26472ff620f"


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


def test_cli_suite(corpus_dir, capsys):
    assert main(["suite", str(corpus_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1])["summary"]["failed"] == 0
    assert main(["suite", str(corpus_dir), "--mirror-dual"]) == 1


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
    cases = [
        # a class of nonzero degree, for both actions alike
        ["act-rotor", k3_file, "--vertex", "1", "--class", '{"2": 1}'] + tree,
        ["act-bernardi", k3_file, "--vertex", "1", "--class", '{"2": 1}'] + tree,
        ["dual-class", k3_file, "--class", '{"2": 1}'],
        # unknown vertex arguments
        ["tour", k3_file, "--vertex", "9", "--edge", "a"] + tree,
        ["beta", k3_file, "--vertex", "9", "--edge", "a"] + tree,
        ["alpha-r", k3_file, "--vertex", "9", "--edge", "a", "--divisor", '{"3": 1}'],
        ["act-rotor", k3_file, "--vertex", "9", "--class", "{}"] + tree,
        ["check-square", k3_file, "--vertex", "9", "--class", "{}"] + tree,
        ["rotor-move", k3_file, "--from", "2", "--root", "9"] + tree,
        ["rotor-move", k3_file, "--from", "9", "--root", "1"] + tree,
        ["compare-vertices", k3_file, "--vertex", "1", "--other", "9"],
        ["compare-torsors", k3_file, "--vertex", "9"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
