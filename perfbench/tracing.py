"""Tracing for the per-layer run, from outside the library.

``Tracer.install(lib)`` replaces the layer-boundary functions listed in
``TIMED``, ``COUNTED`` and ``SPANS`` by wrappers, in every library module
that binds the name: ``from .ribbon import spanning_trees`` copies the
binding into each importer, so patching ``ribbon`` alone would miss most
calls.  A name a module no longer has is skipped.

Spans are recorded in full only at coarse boundaries (workload, pass phase
or query, suite battery).  Below those, each wrapped function aggregates its
call count, total time and self time, and each layer entry directly under a
span is aggregated per (span, function).  Self time is a frame's duration
minus the time its child frames cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from math import comb, prod

from workloads import cache_behind, library_modules, lru_caches

clock = time.perf_counter

# (module, function) -> layer metric prefix; timed with self time
TIMED = {
    ("ribbon", "spanning_trees"): "ribbon.spanning_trees",
    ("ribbon", "trace_faces"): "ribbon.trace_faces",
    ("divisors", "_q_reduce"): "divisors.q_reduce",
    ("divisors", "picard_group"): "divisors.picard_group",
    ("divisors", "tree_count_determinant"): "divisors.tree_count_determinant",
    ("breakdiv", "_is_break"): "breakdiv.is_break",
    ("breakdiv", "_representative_table"): "breakdiv.representative_table",
    ("bernardi", "bernardi_tour"): "bernardi.tour",
    ("bernardi", "_alpha"): "bernardi.alpha",
    ("bernardi", "_act"): "bernardi.act",
    ("bernardi", "shift_difference_check"): "bernardi.shift_check",
    ("rotor", "rotor_act"): "rotor.rotor_act",
    ("rotor", "simple_cycles"): "rotor.simple_cycles",
    ("duality", "_chain_for"): "duality.chain_for",
    ("duality", "psi_class"): "duality.psi_class",
    ("duality", "duality_square_check"): "duality.square_check",
    ("duality", "dual_graph"): "duality.dual_graph",
    ("suite", "compare_torsors"): "suite.compare_torsors",
    ("cli", "build_parser"): "cli.build_parser",
}

# hot functions that are only counted
COUNTED = {
    ("divisors", "divisor_to_tuple"): "divisors.to_tuple",
    ("rotor", "rotor_step"): "rotor.steps",
}

# suite batteries, recorded as spans carrying the graph name
SPANS = {
    ("suite", f"_check_{b}"): f"suite.battery.{b}"
    for b in ("ribbon", "divisors", "break", "bernardi", "rotor", "duality", "comparisons")
}

# lru caches whose hit counts are reported: function -> metric prefix
CACHED = {
    ("divisors", "_q_reduce"): "divisors.q_reduce",
    ("divisors", "picard_group"): "divisors.picard_group",
    ("breakdiv", "_representative_table"): "breakdiv.representative_table",
    ("bernardi", "_act"): "bernardi.act",
    ("rotor", "rotor_move"): "rotor.rotor_move",
}


def _misses(fn) -> int:
    info = getattr(fn, "cache_info", None)
    return info().misses if info else -1


def _on_trees(tracer, G, trees):
    tracer.counts["ribbon.spanning_trees.trees"] += len(trees)
    tracer.counts["ribbon.spanning_trees.subsets"] += comb(len(G.edges), len(G.vertices) - 1)


def _on_picard(tracer, G, group):
    tracer.counts["divisors.picard.order"] += group.order
    tracer.counts["divisors.picard.candidates"] += prod(
        len(G.incident[v]) for v in G.vertices[1:]
    )


def _on_cycles(tracer, G, cycles):
    tracer.counts["rotor.simple_cycles.cycles"] += len(cycles)
    tracer.counts["rotor.simple_cycles.subsets"] += 2 ** len(G.edges)


# work counted when a call really computes (a cache miss): (tracer, graph, result)
ON_MISS = {
    "ribbon.spanning_trees": _on_trees,
    "divisors.picard_group": _on_picard,
    "rotor.simple_cycles": _on_cycles,
}


def _on_is_break(tracer, args, result):
    tracer.counts["breakdiv.is_break.true"] += bool(result)


def _on_parser(tracer, args, parser):
    parser.parse_args = tracer._timed("cli.parse_args", parser.parse_args)


# run after every call: (tracer, args, result)
ON_RESULT = {
    "breakdiv.is_break": _on_is_break,
    "cli.build_parser": _on_parser,
}


class NullTracer:
    """The untraced run: every hook does nothing."""

    def install(self, lib):
        pass

    def harvest(self, lib):
        pass

    @contextmanager
    def span(self, name, **attrs):
        yield


class Tracer:
    def __init__(self):
        self.t0 = clock()
        # open frames: [name, start, child seconds, span record or None]
        self.stack: list[list] = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.entries = defaultdict(lambda: [0, 0.0, 0.0])  # (span id, name) -> same
        self.spans: list[dict] = []
        self.counts = Counter()
        self.cache_entries = 0
        self._cached: dict[str, object] = {}  # metric -> lru cache of the current import

    # -- frames ---------------------------------------------------------------

    def _push(self, name, span=None):
        self.stack.append([name, clock(), 0.0, span])

    def _pop(self):
        name, start, child, span = self.stack.pop()
        end = clock()
        duration = end - start
        st = self.stats[name]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            if span is None and parent[3] is not None:
                ent = self.entries[(parent[3]["id"], name)]
                ent[0] += 1
                ent[1] += duration
                ent[2] += duration - child
        if span is not None:
            span["end"] = end - self.t0
            span["self_s"] = duration - child

    @contextmanager
    def span(self, name, **attrs):
        parent = next((f[3]["id"] for f in reversed(self.stack) if f[3]), None)
        record = {"id": len(self.spans), "parent": parent, "name": name,
                  "attrs": attrs, "start": clock() - self.t0}
        self.spans.append(record)
        self._push(name, record)
        try:
            yield record
        finally:
            self._pop()

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name, fn):
        push, pop = self._push, self._pop
        on_miss, on_result = ON_MISS.get(name), ON_RESULT.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            before = on_miss and _misses(fn)
            push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop()
            # an uncached function computes on every call (_misses stays -1)
            if on_miss and (before == -1 or _misses(fn) != before):
                on_miss(self, args[0], result)
            if on_result:
                on_result(self, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_fn(self, name, fn):
        span = self.span

        @wraps(fn)
        def wrapper(report, graph_name, *args, **kwargs):
            with span(name, graph=graph_name):
                return fn(report, graph_name, *args, **kwargs)

        return wrapper

    def install(self, lib):
        """Wrap the layer boundaries of a freshly imported library."""
        modules = library_modules(lib)
        by_short = {m.__name__.rpartition(".")[2]: m for m in modules[1:]}
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted), (SPANS, self._span_fn)):
            for (mod_name, fn_name), metric in table.items():
                home = by_short.get(mod_name)
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = make(metric, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

        graph_cls = getattr(by_short.get("ribbon"), "RibbonGraph", None)
        if graph_cls is not None:
            init, counts = graph_cls.__init__, self.counts

            def counted_init(self, *args, **kwargs):
                counts["ribbon.graphs_built"] += 1
                init(self, *args, **kwargs)

            graph_cls.__init__ = counted_init
        self._cached = {
            metric: cache_behind(getattr(by_short.get(m), f, None))
            for (m, f), metric in CACHED.items()
        }

    def harvest(self, lib):
        """Read cache statistics before this import of the library is dropped."""
        for metric, fn in self._cached.items():
            if fn is not None:
                info = fn.cache_info()
                self.counts[f"{metric}.hits"] += info.hits
                self.counts[f"{metric}.misses"] += info.misses
        entries = sum(c.cache_info().currsize for c in lru_caches(lib))
        self.cache_entries = max(self.cache_entries, entries)

    # -- report -------------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, as name -> (value, unit).  A ratio comes
        with its numerator and its base as counts of their own."""
        out: dict[str, tuple] = {}
        c = self.counts

        def stat(name):
            return self.stats.get(name, (0, 0.0, 0.0))

        def ratio(name, num_name, num, base_name, base):
            out[num_name] = (num, "count")
            out[base_name] = (base, "count")
            out[name] = (num / base if base else 0.0, "ratio")

        for metric in TIMED.values():
            calls, _, self_s = stat(metric)
            out[f"{metric}.calls"] = (calls, "count")
            out[f"{metric}.self_s"] = (self_s, "s")
        for metric in SPANS.values():
            out[f"{metric}_s"] = (stat(metric)[1], "s")
        out["suite.compare_torsors_s"] = (stat("suite.compare_torsors")[1], "s")
        out["cli.parse_s"] = (stat("cli.build_parser")[1] + stat("cli.parse_args")[1], "s")
        out["divisors.to_tuple.calls"] = (c["divisors.to_tuple"], "count")
        out["rotor.steps"] = (c["rotor.steps"], "count")
        out["ribbon.graphs_built"] = (c["ribbon.graphs_built"], "count")

        ratio("ribbon.spanning_trees.yield",
              "ribbon.spanning_trees.trees", c["ribbon.spanning_trees.trees"],
              "ribbon.spanning_trees.subsets", c["ribbon.spanning_trees.subsets"])
        ratio("divisors.picard.yield",
              "divisors.picard.order", c["divisors.picard.order"],
              "divisors.picard.candidates", c["divisors.picard.candidates"])
        ratio("rotor.simple_cycles.yield",
              "rotor.simple_cycles.cycles", c["rotor.simple_cycles.cycles"],
              "rotor.simple_cycles.subsets", c["rotor.simple_cycles.subsets"])
        ratio("breakdiv.is_break.true_ratio",
              "breakdiv.is_break.true", c["breakdiv.is_break.true"],
              "breakdiv.is_break.oracle_calls", stat("breakdiv.is_break")[0])
        for metric in CACHED.values():
            hits, misses = c[f"{metric}.hits"], c[f"{metric}.misses"]
            out[f"{metric}.misses"] = (misses, "count")
            ratio(f"{metric}.hit_ratio", f"{metric}.hits", hits,
                  f"{metric}.lookups", hits + misses)
        out["rotor.rotor_move.calls"] = out["rotor.rotor_move.lookups"]
        out["cache.entries"] = (self.cache_entries, "count")
        return out

    def layer_entries(self) -> list[dict]:
        """Layer entries aggregated under each span, for the trace file."""
        return [
            {"span": sid, "name": name, "calls": n, "total_s": total, "self_s": self_s}
            for (sid, name), (n, total, self_s) in self.entries.items()
        ]
