"""Benchmark entry point for treetorsor.

    python3 perfbench/run.py --workload {suite,search,ops} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  One run is one process with one client in a closed loop: it sets
up, then repeats whole passes of the workload while ``--seconds`` allows (at
least one), and reports medians over the passes.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced pass and
reports the per-layer metrics and the tracing overhead.  Every answer is
checked; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 11
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import treetorsor, treetorsor.cli; "
    "print(time.perf_counter() - t)"
)

# the workload's own name for each end-to-end time
HEADLINE = {
    "suite": {"cold_s": "suite_cold_s", "warm_s": "suite_warm_s"},
    "search": {"cold_s": "search_s", "warm_s": "search_warm_s"},
    "ops": {"cold_s": "ops_s", "warm_s": "ops_warm_s"},
}


def fresh_interpreter_import() -> tuple[float, float]:
    """Wall time of a new interpreter that imports the package and its CLI,
    and the import time measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return time.perf_counter() - t0, float(done.stdout)


def setup(workload, seed, workdir):
    """Set up several times; return the inputs and the median set-up time
    and in-interpreter import time."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        wall, inner = fresh_interpreter_import()
        t0 = time.perf_counter()
        inputs = workload.prepare(seed, workdir)
        totals.append(wall + time.perf_counter() - t0)
        imports.append(inner)
    return inputs, statistics.median(totals), statistics.median(imports)


def measure(workload, inputs, seconds, tracer):
    """Repeat passes while the next one is expected to fit in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run(inputs, tracer))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return passes


def median_times(passes) -> dict:
    keys = passes[0].times
    return {k: statistics.median(p.times[k] for p in passes) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treetorsor" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    reported = [m["name"] for m in json.loads(BENCHMARK.read_text())[section]]
    sys.path.insert(0, str(SRC))
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    names = HEADLINE[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        inputs, setup_s, import_s = setup(workload, args.seed, workdir)
        if args.trace:
            plain = measure(workload, inputs, 0, NullTracer())
            tracer = Tracer()
            with tracer.span("workload", workload=args.workload, seed=args.seed):
                traced = measure(workload, inputs, 0, tracer)
        else:
            plain = measure(workload, inputs, args.seconds, NullTracer())

    passes = plain + traced if args.trace else plain
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines = [f"workload {args.workload} seed {args.seed} passes {len(passes)}"]
    if args.trace:
        untraced = median_times(plain)
        times = median_times(traced)
        metrics = tracer.metrics()
        metrics.update({k: (v, "s") for k, v in times.items() if k.startswith("cli.")})
        metrics["cli.import_s"] = (import_s, "s")
        head = names["cold_s"]
        metrics["trace.overhead_frac"] = (times[head] / untraced[head] - 1, "ratio")
        out = _write_trace(ROOT, args, tracer)
        lines.append(f"spans written to {out.relative_to(ROOT)}")
    else:
        times = median_times(plain)
        metrics = {key: (times[name], "s") for key, name in names.items()}
        metrics["setup_s"] = (setup_s, "s")
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for name, (value, unit) in sorted(metrics.items()):
        alias = names.get(name)
        lines.append(f"{name} {value:.6g} {unit}" + (f" ({alias})" if alias else ""))
    lines.append(f"failed_frac {failed / max(attempted, 1):.6g} ratio ({failed}/{attempted})")
    print("\n".join(lines))
    # the JSON line carries exactly the metrics BENCHMARK.json names
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))
    return 0


def _write_trace(root: Path, args, tracer) -> Path:
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "spans": tracer.spans,
        "layer_entries": tracer.layer_entries(),
        "functions": {k: {"calls": n, "total_s": t, "self_s": s}
                      for k, (n, t, s) in sorted(tracer.stats.items())},
        "counts": dict(sorted(tracer.counts.items())),
    }))
    return path


if __name__ == "__main__":
    sys.exit(main())
