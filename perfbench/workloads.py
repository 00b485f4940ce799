"""The three benchmark workloads and the checks on their answers.

Each workload has ``prepare(seed, workdir)``, which makes its inputs from the
seed alone, and ``run(inputs, tracer)``, which makes one timed pass and
returns ``Pass(times, attempted, failed)``.  A pass reaches the library only
through its public API and the CLI entry point ``treetorsor.cli.main``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs

BASELINE = json.loads((Path(__file__).parent / "baseline.json").read_text())

clock = time.perf_counter

# a warm phase takes well under a second on search and ops, so it is
# repeated and its median kept
WARM_REPEATS = 5


@dataclass
class Pass:
    times: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def fresh_library():
    """Drop every ``treetorsor`` module and import the package again, so that
    every module-level cache starts empty, as in a new CLI process."""
    for name in [n for n in sys.modules if n == "treetorsor" or n.startswith("treetorsor.")]:
        del sys.modules[name]
    gc.collect()
    lib = importlib.import_module("treetorsor")
    importlib.import_module("treetorsor.cli")
    importlib.import_module("treetorsor.corpus")
    return lib


def library_modules(lib) -> list:
    prefix = lib.__name__ + "."
    return [lib] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cache_behind(obj):
    """The ``lru_cache`` that ``obj`` is or wraps (via ``__wrapped__``), or None."""
    while obj is not None and not hasattr(obj, "cache_info"):
        obj = getattr(obj, "__wrapped__", None)
    return obj


def lru_caches(lib) -> list:
    """Every ``lru_cache`` reachable from a module or class of the library."""
    seen: dict[int, object] = {}
    for mod in library_modules(lib):
        values = list(vars(mod).values())
        values += [v for c in values if isinstance(c, type) for v in vars(c).values()]
        for obj in filter(None, map(cache_behind, values)):
            seen.setdefault(id(obj), obj)
    return list(seen.values())


def _phase(tracer, phase, fn, arg):
    """Time ``fn(arg)`` as one phase of a pass.  A full collection runs first
    (untimed), so a phase does not pay for the garbage of the one before."""
    gc.collect()
    t0 = clock()
    with tracer.span("pass", phase=phase):
        result = fn(arg)
    return result, clock() - t0


# -- suite ---------------------------------------------------------------------


class Suite:
    """The theorem suite over the 36-graph default corpus, cold then warm.

    The corpus is ``default_corpus(2024)``, the suite's golden input.  Any
    other seed relabels every graph (``inputs.relabel``), which keeps the
    amount of work and the expected verdicts while the inputs change; drawing
    a fresh random corpus per seed would instead move the cold time by a
    third from seed to seed.
    """

    @staticmethod
    def prepare(seed, workdir):
        from treetorsor.corpus import default_corpus

        golden = [(name, inputs.spec_of(G)) for name, G in default_corpus(inputs.GOLDEN_SEED)]
        if seed == inputs.GOLDEN_SEED:
            return {"corpus": golden, "back": {}}
        rng = random.Random(seed)
        corpus = [(name, inputs.relabel(spec, rng)) for name, spec in golden]
        back = {
            name: inputs.renaming(spec, original)[0]
            for (name, spec), (_, original) in zip(corpus, golden)
        }
        return {"corpus": corpus, "back": back}

    @staticmethod
    def run(inp, tracer) -> Pass:
        lib = fresh_library()
        tracer.install(lib)
        corpus = [(name, lib.RibbonGraph(*spec)) for name, spec in inp["corpus"]]
        cold, cold_s = _phase(tracer, "cold", lib.run_theorem_suite, corpus)
        warm, warm_s = _phase(tracer, "warm", lib.run_theorem_suite, corpus)
        tracer.harvest(lib)

        out = Pass({"suite_cold_s": cold_s, "suite_warm_s": warm_s})
        cold_lines = cold.dump().splitlines()
        warm_lines = warm.dump().splitlines()
        out.attempted = len(cold.records) + len(warm.records)
        out.failed = sum(not r.ok for r in cold.records + warm.records)
        # a warm record that differs from its cold twin is a wrong answer
        out.failed += sum(a != b for a, b in zip(cold_lines, warm_lines))
        out.failed += abs(len(cold_lines) - len(warm_lines))
        if _digest(Suite.canonical(inp["back"], cold_lines)) != BASELINE["suite_sha256"]:
            out.failed += len(cold.records)
        return out

    @staticmethod
    def canonical(back, lines) -> list[str]:
        """The record stream under the golden corpus's vertex names.  The
        stream of a relabelled corpus must equal the golden stream up to the
        renaming, so its digest is the seed commit's at every seed."""
        if not back:
            return lines
        out = []
        for line in lines:
            record = json.loads(line)
            params = record.get("params", {})
            if "vertex" in params:
                params["vertex"] = back[record["graph"]][params["vertex"]]
            out.append(json.dumps(record, sort_keys=True))
        return out


# -- search --------------------------------------------------------------------


class Search:
    """``search_conjecture`` over all 768 rotation systems of a relabelled W5."""

    SYSTEMS = 768
    GENUS_HISTOGRAM = {0: 2, 1: 190, 2: 576}

    @staticmethod
    def prepare(seed, workdir):
        base = inputs.wheel(5)
        spec = inputs.relabel(base, random.Random(seed))
        return {"spec": spec, "back": inputs.renaming(spec, base)}

    @classmethod
    def run(cls, inp, tracer) -> Pass:
        lib = fresh_library()
        tracer.install(lib)
        G = lib.RibbonGraph(*inp["spec"])
        report, cold_s = _phase(tracer, "cold", lib.search_conjecture, G)
        warm = [_phase(tracer, "warm", lib.search_conjecture, G) for _ in range(WARM_REPEATS)]
        tracer.harvest(lib)

        out = Pass({"search_s": cold_s,
                    "search_warm_s": statistics.median(t for _, t in warm)})
        out.attempted = (1 + WARM_REPEATS) * cls.SYSTEMS
        out.failed = cls.check(inp["spec"], report)
        if _digest(cls.canonical(inp["back"], report)) != BASELINE["search_sha256"]:
            out.failed = cls.SYSTEMS
        for again, _ in warm:
            out.failed += sum(a != b for a, b in zip(report["systems"], again["systems"]))
            out.failed += abs(len(report["systems"]) - len(again["systems"]))
        return out

    @staticmethod
    def canonical(back, report) -> list[str]:
        """Each system's record under the names of the unrelabelled W5: the
        search must give the same answers up to the renaming."""
        vback, eback = back
        return [
            json.dumps({
                "index": r["index"],
                "genus": r["genus"],
                "disagreeing_vertices": [vback[v] for v in r["disagreeing_vertices"]],
                "rotation": {vback[v]: [eback[e] for e in rot] for v, rot in r["rotation"].items()},
            }, sort_keys=True)
            for r in report["systems"]
        ]

    @classmethod
    def check(cls, spec, report) -> int:
        """Systems with a wrong or missing answer, checked independently of
        the library: every system once, its genus, no counterexample, and a
        disagreeing vertex exactly when the genus is positive."""
        vertices, edges, _ = spec
        failed = 0
        seen = set()
        histogram = Counter()
        for record in report["systems"]:
            rotation = record["rotation"]
            key = tuple(tuple(rotation[v]) for v in vertices)
            g = inputs.genus((vertices, edges, rotation))
            histogram[g] += 1
            failed += (
                key in seen
                or record["genus"] != g
                or bool(record["disagreeing_vertices"]) != (g > 0)
            )
            seen.add(key)
        failed += max(0, cls.SYSTEMS - len(report["systems"]))
        failed += len(report["counterexamples"])
        if report["system_count"] != cls.SYSTEMS or histogram != cls.GENUS_HISTOGRAM:
            failed = max(failed, 1)
        return failed


# -- ops -----------------------------------------------------------------------


@dataclass
class Query:
    graph: str
    label: str
    argv: list
    check: object  # output text -> bool


class Ops:
    """Cold single CLI commands on a grid, K6 and a multigraph, each in a
    freshly imported library so that every module-level cache starts empty."""

    @staticmethod
    def prepare(seed, workdir):
        rng = random.Random(seed)
        graphs = {
            "grid3x4": inputs.grid(3, 4),
            "k6": inputs.complete(6, rng),
            "multi7x14": inputs.multigraph(rng, 7, 14),
        }
        queries = []
        for key, spec in graphs.items():
            path = os.path.join(workdir, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.to_json(spec))
            queries += _queries(key, spec, path, rng, planar=key == "grid3x4")
        return {"queries": queries}

    @staticmethod
    def run(inp, tracer) -> Pass:
        out = Pass({"ops_s": 0.0, "ops_warm_s": 0.0})
        for q in inp["queries"]:
            lib = fresh_library()
            tracer.install(lib)
            main = sys.modules["treetorsor.cli"].main
            with tracer.span("query", graph=q.graph, command=q.label, phase="cold"):
                code, text, cold_s = _call(main, q)
            warm = []
            for _ in range(WARM_REPEATS):
                with tracer.span("query", graph=q.graph, command=q.label, phase="warm"):
                    warm.append(_call(main, q))
            tracer.harvest(lib)
            out.times["ops_s"] += cold_s
            out.times["ops_warm_s"] += statistics.median(t for _, _, t in warm)
            key = f"cli.{q.label}_s"
            out.times[key] = out.times.get(key, 0.0) + cold_s
            out.attempted += 1 + WARM_REPEATS
            ok = code == 0 and _check(q, text)
            out.failed += (not ok) + sum(not ok or w[:2] != (code, text) for w in warm)
        return out


def _check(q, text) -> bool:
    try:
        return bool(q.check(text))
    except (ValueError, TypeError, AttributeError, KeyError):  # malformed output
        return False


def _call(main, q):
    """Run one CLI command with its output captured: (exit code, stdout, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    t0 = clock()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(q.argv)
        except Exception as exc:  # a crash is a failed query, not the end of the run
            print(f"{q.graph} {q.label}: {exc!r}", file=sys.__stderr__)
    return code, stdout.getvalue().strip(), clock() - t0


def _queries(key, spec, path, rng, planar) -> list[Query]:
    vertices, edges, _ = spec
    tree = inputs.random_tree(spec, rng)
    v = rng.choice(vertices)
    e = rng.choice([eid for eid, pair in edges if v in pair])
    a, b = rng.sample(vertices, 2)
    unit = json.dumps({a: 1, b: -1})
    c, d = rng.sample(vertices, 2)
    big = json.dumps({c: 100, d: -100})
    x, root = rng.sample(vertices, 2)
    T = ",".join(tree)
    D = inputs.beta(spec, v, e, tree)
    is_tree = lambda text: inputs.is_spanning_tree(spec, text.split(","))
    rotor_unit: dict[str, str] = {}

    def rotor_tree(text):
        rotor_unit["tree"] = text
        return is_tree(text)

    def bernardi_tree(text):
        # on a planar graph the two actions agree (the paper's main theorem);
        # act-rotor with the same inputs runs earlier in the query list
        return is_tree(text) and (not planar or text == rotor_unit.get("tree"))

    qs = [
        Query(key, "tour", ["tour", path, "--vertex", v, "--edge", e, "--tree", T],
              lambda text: text == inputs.tour_dump(spec, v, e, tree)),
        Query(key, "beta", ["beta", path, "--vertex", v, "--edge", e, "--tree", T],
              lambda text: json.loads(text) == D),
        Query(key, "alpha-r", ["alpha-r", path, "--vertex", v, "--edge", e, "--divisor", json.dumps(D)],
              lambda text: text == T),
        Query(key, "alpha-l", ["alpha-l", path, "--vertex", v, "--edge", e, "--divisor", json.dumps(D)],
              lambda text: text == T),
        Query(key, "act-rotor", ["act-rotor", path, "--vertex", v, "--class", unit, "--tree", T],
              rotor_tree),
        Query(key, "act-rotor-big", ["act-rotor", path, "--vertex", v, "--class", big, "--tree", T],
              is_tree),
        Query(key, "act-bernardi", ["act-bernardi", path, "--vertex", v, "--class", unit, "--tree", T],
              bernardi_tree),
        Query(key, "rotor-move", ["rotor-move", path, "--from", x, "--root", root, "--tree", T],
              lambda text: text.split(",") == inputs.rotor_move(spec, tree, x, root)),
    ]
    if planar:
        faces = len(edges) - len(vertices) + 2

        def dual_class_ok(text):
            D2 = json.loads(text)
            return len(D2) == faces and sum(D2.values()) == 0

        qs += [
            Query(key, "dual-class", ["dual-class", path, "--class", unit], dual_class_ok),
            Query(key, "check-square", ["check-square", path, "--vertex", v, "--class", unit, "--tree", T],
                  lambda text: text == "commutes"),
        ]
    return qs


WORKLOADS = {"suite": Suite, "search": Search, "ops": Ops}
