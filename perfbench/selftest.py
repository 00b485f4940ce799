"""Self-test of the benchmark's own parts.

    python3 perfbench/selftest.py

Checks the input generators against the library, the independent reference
answers the workloads are checked with, the cold reset that the ``ops``
workload relies on, and the tracer's self-time accounting.  Prints one line
per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COLD_BOUND = next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "cold_s")
SEEDS = (1, 2, 3, 2024)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def test_generators(lib):
    from treetorsor.divisors import tree_count_determinant
    from treetorsor.suite import rotation_system_count

    g = lib.RibbonGraph(*inputs.grid(3, 4))
    check(lib.trace_faces(g).topological_genus == 0 == inputs.genus(inputs.grid(3, 4)),
          "grid 3x4 has genus 0")
    check(tree_count_determinant(g) == 2415, "grid 3x4 has 2415 spanning trees")
    for seed in SEEDS:
        rng = random.Random(seed)
        k6 = lib.RibbonGraph(*inputs.complete(6, rng))
        check(tree_count_determinant(k6) == 1296, f"K6 (seed {seed}) has 1296 spanning trees")
        spec = inputs.multigraph(rng, 7, 14)
        G = lib.parse_ribbon_graph(inputs.to_json(spec))  # rejects loops and disconnection
        pairs = Counter(frozenset(p) for _, p in spec[1])
        check(len(G.vertices) == 7 and len(G.edges) == 14 and max(pairs.values()) > 1,
              f"multigraph (seed {seed}) is connected with 7 vertices, 14 edges, parallel edges")
        w5 = lib.RibbonGraph(*inputs.relabel(inputs.wheel(5), random.Random(seed)))
        check(tree_count_determinant(w5) == 121 and rotation_system_count(w5) == 768,
              f"relabelled W5 (seed {seed}) has 121 trees and 768 rotation systems")

    w5 = lib.RibbonGraph(*inputs.relabel(inputs.wheel(5), random.Random(5)))
    histogram = Counter(
        inputs.genus(inputs.spec_of(s)) for s in lib.corpus.rotation_systems(w5)
    )
    check(histogram == workloads.Search.GENUS_HISTOGRAM, "W5 genus histogram")

    corpus = lib.corpus.default_corpus(inputs.GOLDEN_SEED)
    relabelled = workloads.Suite.prepare(7, None)["corpus"]
    same = all(
        lib.trace_faces(G).topological_genus == inputs.genus(spec)
        and tree_count_determinant(G) == tree_count_determinant(lib.RibbonGraph(*spec))
        for (_, G), (_, spec) in zip(corpus, relabelled)
    )
    check(len(corpus) == len(relabelled) == 36 and same,
          "relabelled corpus keeps every graph's genus and tree count")


def test_references(lib):
    """The benchmark's own answers agree with the library's on sample inputs."""
    from treetorsor.rotor import rotor_move

    for seed in SEEDS:
        rng = random.Random(seed)
        for spec in (inputs.grid(3, 4), inputs.complete(6, rng), inputs.multigraph(rng)):
            G = lib.RibbonGraph(*spec)
            tree = inputs.random_tree(spec, rng)
            T = frozenset(tree)
            v = rng.choice(spec[0])
            e = G.rotation[v][0]
            x, root = rng.sample(spec[0], 2)
            check(inputs.is_spanning_tree(spec, tree)
                  and inputs.genus(spec) == lib.trace_faces(G).topological_genus
                  and inputs.tour_dump(spec, v, e, T) == lib.bernardi_tour(G, v, e, T).dump()
                  and inputs.beta(spec, v, e, T) == lib.bernardi_beta(G, v, e, T).divisor
                  and inputs.rotor_move(spec, T, x, root) == sorted(rotor_move(G, T, x, root)),
                  f"reference tree, genus, tour, beta and rotor move (seed {seed}, "
                  f"{len(spec[0])} vertices)")
    check(not inputs.is_spanning_tree(inputs.grid(3, 4), ["h0_0"] * 11),
          "reference spanning-tree test rejects a non-tree")


def _timed_query(query) -> tuple[str, float]:
    main = sys.modules["treetorsor.cli"].main
    code, text, seconds = workloads._call(main, query)
    if code != 0:
        raise RuntimeError(f"query {query.label} exited {code}")
    return text, seconds


def test_cold_reset():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        queries = workloads.Ops.prepare(1, workdir)["queries"]
        query = next(q for q in queries if (q.graph, q.label) == ("k6", "act-bernardi"))

        lib = workloads.fresh_library()
        first, cold = _timed_query(query)
        filled = sum(c.cache_info().currsize for c in workloads.lru_caches(lib))
        again, warm = _timed_query(query)
        check(filled > 0 and again == first and warm < cold / 2,
              f"without a reset the repeat is warm ({warm:.3f} s after {cold:.3f} s)")

        old_class = lib.RibbonGraph
        times = []
        for _ in range(3):
            lib = workloads.fresh_library()
            caches = workloads.lru_caches(lib)
            check(caches and all(c.cache_info().currsize == 0 for c in caches)
                  and lib.RibbonGraph is not old_class,
                  f"after a reset all {len(caches)} reachable lru caches are empty")
            text, seconds = _timed_query(query)
            check(text == first, "the same query after a reset gives the same answer")
            times.append(seconds)
        check(min(times) >= (1 - COLD_BOUND) * statistics.median(times + [cold]),
              "no warm speed-up after a reset: "
              + ", ".join(f"{t:.3f}" for t in [cold] + times) + " s")


def test_tracer():
    lib = workloads.fresh_library()
    tracer = Tracer()
    tracer.install(lib)
    from treetorsor import bernardi, breakdiv, ribbon, suite

    check(bernardi.spanning_trees is ribbon.spanning_trees is suite.spanning_trees
          is breakdiv.spanning_trees and hasattr(ribbon.spanning_trees, "__wrapped__"),
          "the tracer patches every module that binds a wrapped name")
    with tracer.span("workload") as root:
        report = lib.run_theorem_suite([("k4", lib.corpus.k4()), ("theta", lib.corpus.theta())])
    tracer.harvest(lib)
    total_self = sum(s for _, _, s in tracer.stats.values())
    duration = root["end"] - root["start"]
    check(report.ok and abs(total_self - duration) < 1e-3 * duration,
          f"self times add up to the root span ({total_self:.4f} s of {duration:.4f} s)")
    m = tracer.metrics()
    check(m["suite.battery.bernardi_s"][0] > 0 and m["bernardi.act.calls"][0] > 0
          and 0 < m["ribbon.spanning_trees.yield"][0] <= 1
          and m["divisors.q_reduce.lookups"][0] == m["divisors.q_reduce.calls"][0],
          "per-layer metrics are filled, and wrapper calls match cache lookups")


def main() -> int:
    lib = workloads.fresh_library()
    test_generators(lib)
    test_references(lib)
    test_cold_reset()
    test_tracer()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
