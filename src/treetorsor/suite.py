"""Theorem suite, torsor comparisons, and the rotation-system search.

The suite runs every documented invariant of every module against a corpus of
graphs and reports line-oriented JSON records (deterministic, machine
diffable).  A failing record always carries a witness with enough data to
replay the failure through the corresponding single-operation CLI command.
The torsor comparisons run one action per (generator, tree) and test its image
by the class rule of ``bernardi._class_keys``: no second image is computed.
``edge-independence`` runs one action per (vertex, generator, tree), at the
vertex's first rotation edge, and tests its image at every other edge there
by the same rule.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from math import factorial
from typing import Callable, Iterator

from . import breakdiv as bk
from . import divisors as dv
from . import duality as du
from . import rotor as rt
from .bernardi import (
    _act, _alpha, _class_keys, _cut_ends, _first_arc, _shift_sides, _walk, bernardi_beta,
)
from .corpus import rotation_cycles
from .errors import HasBridge, NotPlanar, NotSimple
from .ribbon import (
    RibbonGraph, face_successor, fundamental_cycle, known_vertex, spanning_trees, trace_faces,
)


@dataclass(frozen=True)
class CheckRecord:
    check: str
    graph: str
    params: dict
    ok: bool
    witness: dict | None = None

    def to_json(self) -> str:
        body = {
            "check": self.check,
            "graph": self.graph,
            "params": self.params,
            "ok": self.ok,
        }
        if not self.ok:
            body["witness"] = self.witness or {}
        return json.dumps(body, sort_keys=True)


@dataclass
class SuiteReport:
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def add(
        self,
        check: str,
        graph: str,
        params: dict,
        ok: bool,
        witness: dict | None = None,
    ) -> None:
        self.records.append(CheckRecord(check, graph, params, bool(ok), witness))

    @contextmanager
    def check(self, check: str, graph: str, params: dict | None = None) -> Iterator[Callable]:
        """Yield ``fail(witness=None)`` and add one record when the body exits:
        ok if ``fail`` was never called, else carrying the last witness passed
        to it (``{}`` for a bare ``fail()``).  A body that raises adds none."""
        failed: dict = {}
        yield lambda witness=None: failed.update(witness=witness or {})
        self.add(check, graph, params or {}, not failed, failed.get("witness"))

    def dump(self) -> str:
        lines = [r.to_json() for r in self.records]
        lines.append(
            json.dumps(
                {"summary": {"passed": self.passed, "failed": self.failed}},
                sort_keys=True,
            )
        )
        return "\n".join(lines)


# -- torsor comparisons ------------------------------------------------------


def _compare(G: RibbonGraph, v: str, act: Callable, base: str) -> tuple[bool, dict | None]:
    """Whether ``act(key, T)`` is the tour action at v on each generator key
    reduced at ``base``, generator by generator, each over the trees in order.
    An image is tested by the class rule of ``_class_keys``; the first miss is
    the witness."""
    e, q = G.rotation[v][0], G.vertices[0]
    for k, (u, key) in enumerate(dv._generator_keys(G, base)):
        for T in spanning_trees(G):
            if _class_keys(G, v, e, act(key, T))[0] != _class_keys(G, v, e, T)[1][k]:
                return False, {"gamma": {u: 1, q: -1}, "tree": sorted(T)}
    return True, None


def compare_bernardi_vertices(
    G: RibbonGraph, v1: str, v2: str
) -> tuple[bool, dict | None]:
    """Whether the tree actions based at v1 and v2 coincide.

    Agreement on generator classes at every tree suffices: a general class is
    a sum of generators and both actions are additive.  The action runs at v2
    only, on generator keys reduced at the first vertex; its image is tested
    at v1.
    """
    known_vertex(G, v1)
    e2 = G.rotation[known_vertex(G, v2)][0]
    return _compare(G, v1, partial(_act, G, v2, e2), G.vertices[0])


def compare_torsors(G: RibbonGraph, v: str) -> tuple[bool, dict | None]:
    """Whether the Bernardi and rotor-routing actions at v coincide.  Only the
    rotor action runs, on generator keys reduced at v."""
    return _compare(G, v, partial(rt._act, G, known_vertex(G, v)), v)


# -- per-module check batteries ----------------------------------------------


def _check_ribbon(report: SuiteReport, name: str, G: RibbonGraph) -> None:
    fd = trace_faces(G)
    with report.check("face-permutation-closure", name) as fail:
        for face in fd.faces:
            d = face[0]
            for _ in range(len(face)):
                d = face_successor(G, d)
            if d != face[0]:
                fail({"dart": list(face[0]), "length": len(face)})

    euler = len(G.vertices) - len(G.edges) + len(fd.faces)
    report.add(
        "euler-consistency",
        name,
        {"faces": len(fd.faces)},
        euler == 2 - 2 * fd.topological_genus and fd.topological_genus >= 0,
    )

    trees = spanning_trees(G)
    det = dv.tree_count_determinant(G)
    pic = dv.picard_group(G).order
    breaks = len(bk.enumerate_break_divisors(G))
    report.add(
        "counting",
        name,
        {"trees": len(trees), "det": det, "pic": pic, "breaks": breaks},
        len(trees) == det == pic == breaks,
    )

    with report.check("fundamental-cycle", name) as fail:
        for T in trees:
            for e in G.edge_ids:
                if e in T:
                    continue
                cyc = fundamental_cycle(G, T, e)
                if cyc[0].edge != e or any(d.edge not in T for d in cyc[1:]):
                    fail({"tree": sorted(T), "edge": e})


def _check_divisors(report: SuiteReport, name: str, G: RibbonGraph) -> None:
    group = dv.picard_group(G)
    rng = random.Random(7)
    samples = [dv.tuple_to_divisor(G, c) for c in group.elements[:12]]
    for _ in range(6):
        samples.append({v: rng.randint(-4, 4) for v in G.vertices})

    with report.check("q-reduce-canonical", name) as fail:
        for D in samples:
            red = dv.q_reduce(G, D)
            if dv.q_reduce(G, red) != red:
                fail({"divisor": D})
            f = {v: rng.randint(-3, 3) for v in G.vertices}
            shifted = dv.add(D, dv.laplacian_of(G, f))
            if dv.q_reduce(G, shifted) != red:
                fail({"divisor": D, "function": f})

    if group.order <= 36:
        els = group.elements
        # every sum the axioms read, once; a sum outside els has no row and fails
        table = {a: {b: group.add(a, b) for b in els} for a in els}
        with report.check("group-axioms", name, {"order": group.order}) as fail:
            for a, row in table.items():
                if row[group.zero] != a:
                    fail({"element": list(a)})
                for b in els:
                    if row[b] != table[b][a]:
                        fail({"a": list(a), "b": list(b)})
                    ab = table.get(row[b])
                    for c, bc in table[b].items():
                        if ab is None or bc not in row or ab[c] != row[bc]:
                            fail({"a": list(a), "b": list(b), "c": list(c)})

    with report.check("class-translation-bijection", name) as fail:
        for u, g in dv._generator_keys(G, group.q):
            if {group.add(g, c) for c in group.elements} != set(group.elements):
                fail({"gamma": {u: 1, group.q: -1}})


def _check_break(report: SuiteReport, name: str, G: RibbonGraph) -> None:
    breaks = bk.enumerate_break_divisors(G)
    with report.check("break-representative-identity", name) as fail:
        for bd in breaks:
            if bk.break_representative(G, bd.divisor).chips != bd.chips:
                fail({"divisor": bd.divisor})

    keys = {dv._q_reduce(G, bd.chips, G.vertices[0]) for bd in breaks}
    with report.check("break-pairwise-inequivalent", name) as fail:
        if len(keys) != len(breaks):
            fail({"count": len(breaks), "classes": len(keys)})


def _check_bernardi(report: SuiteReport, name: str, G: RibbonGraph) -> None:
    trees = spanning_trees(G)
    break_set = {bd.chips for bd in bk.enumerate_break_divisors(G)}

    with report.check("bernardi-bijectivity", name) as fail:
        for v in G.vertices:
            for e in G.incident[v]:
                image = {}
                for T in trees:
                    beta = bernardi_beta(G, v, e, T).chips
                    image[beta] = T
                    if any(_alpha(G, v, e, beta, left) != T for left in (False, True)):
                        fail({"vertex": v, "edge": e, "tree": sorted(T)})
                if set(image) != break_set:
                    fail({"vertex": v, "edge": e})

    with report.check("tour-structure", name) as fail:
        for T in trees:
            seqs = []
            for v in G.vertices:
                for e in G.incident[v]:
                    steps = list(_walk(G, v, e, T))  # (vertex, edge, walked): no Tour is built
                    if len(steps) != 2 * len(G.edges):
                        fail({"vertex": v, "edge": e, "tree": sorted(T)})
                    cut_at: dict[str, list[str]] = {}
                    for u, f, walked in steps:
                        if not walked:
                            cut_at.setdefault(f, []).append(u)
                    for f in G.edge_ids:
                        if f not in T and sorted(cut_at.get(f, ())) != sorted(G.ends[f]):
                            fail({"edge": f, "tree": sorted(T)})
                    seqs.append(steps)
            base = seqs[0] + seqs[0]
            for seq in seqs[1:]:
                n = len(seq)  # a tour visits each dart once: only offsets holding seq[0] can match
                if not any(base[i : i + n] == seq for i, s in enumerate(base[:n]) if s == seq[0]):
                    fail({"tree": sorted(T)})

    # the rest compare bernardi._act on class keys, labelling the sides once per (v, T)
    _check_torsor_axioms(report, name, G, "bernardi-torsor",
                         lambda G, v, c, T: _act(G, v, G.rotation[v][0], c, T))

    # a y that is no tree fails here rather than raise in its class-key read
    q, tree_set = G.vertices[0], set(trees)
    with report.check("edge-independence", name) as fail:
        for v in G.vertices:
            e0 = G.rotation[v][0]
            rows = [{T: _class_keys(G, v, e, T) for T in trees} for e in G.incident[v] if e != e0]
            for k, (u, key) in enumerate(dv._generator_keys(G, q)):
                for T in trees:
                    y = _act(G, v, e0, key, T)
                    if y not in tree_set or any(row[y][0] != row[T][1][k] for row in rows):
                        fail({"vertex": v, "gamma": {u: 1, q: -1}, "tree": sorted(T)})

    with report.check("shift-formula", name) as fail:
        for v in G.vertices:
            ends = {T: _cut_ends(G, v, T) for T in trees}  # one side labelling per (v, T)
            for e1, e2 in product(G.incident[v], repeat=2):
                first = _first_arc(G, v, e1, e2)
                for T in trees:
                    lhs, rhs = _shift_sides(G, v, e1, e2, T, first, ends[T])
                    if lhs != rhs:
                        fail({"vertex": v, "edge1": e1, "edge2": e2, "tree": sorted(T)})


def _check_torsor_axioms(
    report: SuiteReport,
    name: str,
    G: RibbonGraph,
    check: str,
    act: Callable[[RibbonGraph, str, tuple[int, ...], frozenset], frozenset],
) -> None:
    """Identity, additivity on generators, and simple transitivity of an action on
    the group's elements (reduced at v), read off one table: one call per (class, tree)."""
    trees = spanning_trees(G)
    group = dv.picard_group(G)
    v = G.vertices[0]
    table = {c: {T: act(G, v, c, T) for T in trees} for c in group.elements}

    with report.check(check, name, {"vertex": v}) as fail:
        for T in trees:
            if table[group.zero][T] != T:
                fail({"axiom": "identity", "tree": sorted(T)})

        # additivity on generators suffices: every class is a sum of generators
        for u, g in dv._generator_keys(G, v):
            for c in group.elements:
                combined = table[group.add(g, c)]
                # rows are built in trees order, so one comparison settles the row;
                # .get: an image that is not a tree is in no row, so it fails
                if list(combined.values()) == list(map(table[g].get, table[c].values())):
                    continue
                for T in trees:
                    if combined[T] != table[g].get(table[c][T]):
                        fail({"axiom": "additivity", "gamma1": {u: 1, v: -1},
                              "gamma2": dv.tuple_to_divisor(G, c), "tree": sorted(T)})

        tree_set = set(trees)
        for T, images in zip(trees, zip(*(row.values() for row in table.values()))):
            image = set(images)
            if len(image) != group.order or image != tree_set:
                fail({"axiom": "transitivity", "tree": sorted(T)})


def _check_rotor(report: SuiteReport, name: str, G: RibbonGraph) -> None:
    trees = spanning_trees(G)
    gtop = trace_faces(G).topological_genus

    tree_set = set(trees)
    with report.check("rotor-move-tree", name) as fail:
        for T in trees[:4]:
            for x in G.vertices[1:]:
                if rt.rotor_move(G, T, x, G.vertices[0]) not in tree_set:
                    fail({"tree": sorted(T), "from": x})

    rng = random.Random(11)
    v = G.vertices[0]
    with report.check("rotor-representative-independence", name) as fail:
        for T in trees[:3]:
            for u in G.vertices[1:]:
                gamma = {u: 1, v: -1}
                f = {w: rng.randint(-2, 2) for w in G.vertices}
                shifted = dv.add(gamma, dv.laplacian_of(G, f))
                if rt.rotor_act(G, v, gamma, T) != rt.rotor_act(G, v, shifted, T):
                    fail({"gamma": gamma, "function": f, "tree": sorted(T)})

    _check_torsor_axioms(report, name, G, "rotor-torsor", rt._act)

    with report.check("unicycle-periodicity", name) as fail:
        for C in rt.simple_cycles(G)[:6]:
            states, darts = rt.unicycle_orbit(G, rt._unicycle_rotor(G, C), C[0].tail)
            if states[-1] != states[0] or len(set(darts)) != 2 * len(G.edges):
                fail({"cycle": [list(d) for d in C]})

    reversible = rt.all_cycles_reversible(G)
    report.add(
        "planarity-criterion",
        name,
        {"genus": gtop, "all_reversible": reversible},
        reversible == (gtop == 0),
    )

    with report.check("reversibility-orientation-independence", name) as fail:
        for C in rt.simple_cycles(G)[:4]:
            if rt.cycle_is_reversible(G, C, "bfs") != rt.cycle_is_reversible(G, C, "dfs"):
                fail({"cycle": [list(d) for d in C]})


def _check_duality(
    report: SuiteReport, name: str, G: RibbonGraph, mirror_dual: bool = False
) -> None:
    try:
        corr = du.dual_graph(G, mirror=mirror_dual)
    except (NotPlanar, HasBridge):
        return
    fd, Gd = trace_faces(G), corr.dual
    dual_fd = trace_faces(Gd)
    report.add(
        "euler-duality",
        name,
        {"faces": len(fd.faces)},
        len(Gd.vertices) == len(fd.faces)
        and len(Gd.edges) == len(G.edges)
        and dual_fd.topological_genus == 0
        and len(dual_fd.faces) == len(G.vertices),
    )

    group = dv.picard_group(G)
    dual_group = dv.picard_group(Gd)
    # name-keyed classes for the square check and its witness, built once
    classes = {c: dv.tuple_to_divisor(G, c) for c in group.elements}
    image = {c: du._psi(corr, du._chain_for(G, gamma)) for c, gamma in classes.items()}
    with report.check("psi-isomorphism", name) as fail:
        if len(set(image.values())) != group.order or group.order != dual_group.order:
            fail({"order": group.order, "dual_order": dual_group.order})
        else:
            for a in group.elements:
                for b in group.elements:
                    if dual_group.add(image[a], image[b]) != image[group.add(a, b)]:
                        fail({"a": list(a), "b": list(b)})

    trees = spanning_trees(G)
    duals = {du.dual_tree(corr, T) for T in trees}
    report.add(
        "dual-tree-bijection",
        name,
        {},
        duals == set(spanning_trees(Gd))
        and all(len(T) == len(Gd.vertices) - 1 for T in duals),
    )

    v = G.vertices[0]
    with report.check("duality-square", name, {"vertex": v}) as fail:
        for gamma in classes.values():
            for T in trees:
                if not du.duality_square_check(corr, v, gamma, T):
                    fail({"gamma": gamma, "tree": sorted(T)})


def _check_comparisons(report: SuiteReport, name: str, G: RibbonGraph) -> None:
    gtop = trace_faces(G).topological_genus
    first_witness = None
    v1 = G.vertices[0]  # equality of actions is transitive: a star of pairs decides all
    for v2 in G.vertices[1:]:
        same, witness = compare_bernardi_vertices(G, v1, v2)
        if not same:  # the first disagreeing pair decides both records
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
                same, w = compare_torsors(G, v)
                if not same:
                    fail({"vertex": v, **(w or {})})


def run_theorem_suite(
    corpus: list[tuple[str, RibbonGraph]], mirror_dual: bool = False
) -> SuiteReport:
    """Run every module's documented invariants against every corpus graph.

    ``mirror_dual`` deliberately flips the dual-graph dart convention so the
    commuting-square checks fail with witnesses (a self-test of the suite).
    """
    report = SuiteReport()
    for name, G in corpus:
        _check_ribbon(report, name, G)
        _check_divisors(report, name, G)
        _check_break(report, name, G)
        _check_bernardi(report, name, G)
        _check_rotor(report, name, G)
        _check_duality(report, name, G, mirror_dual=mirror_dual)
        _check_comparisons(report, name, G)
    return report


# -- conjecture search ---------------------------------------------------------


def rotation_system_count(G: RibbonGraph) -> int:
    out = 1
    for v in G.vertices:
        out *= factorial(len(G.incident[v]) - 1)
    return out


def _automorphisms(G: RibbonGraph) -> list[dict[str, str]]:
    """Every permutation of the vertices of the simple graph ``G`` that keeps
    adjacency, extending partial maps one vertex at a time in file order."""
    nbrs = {v: {G.other_end(e, v) for e in G.incident[v]} for v in G.vertices}
    maps: list[dict[str, str]] = [{}]
    for v in G.vertices:
        maps = [
            {**sigma, v: w}
            for sigma in maps
            for w in G.vertices
            if w not in sigma.values()
            and len(nbrs[w]) == len(nbrs[v])
            and all((u in nbrs[v]) == (x in nbrs[w]) for u, x in sigma.items())
        ]
    return maps


def search_conjecture(G: RibbonGraph) -> dict:
    """Exhaustive rotation-system search for the planarity/agreement conjecture.

    For each rotation system of the underlying simple graph: genus 0 must give
    agreement of the two actions at every vertex (a hard check, raising
    ``AssertionError``); for positive genus, whether some vertex distinguishes
    them is recorded.  A positive-genus system where no vertex distinguishes
    them would be a counterexample and is listed as a finding.

    Systems are compared once per orbit under the automorphisms σ of the
    underlying graph.  σ maps a rotation system to an isomorphic ribbon graph,
    and genus and both actions are natural under isomorphism (a tested
    property), so σ(system) has the same genus and the disagreeing vertices
    σ(disagreeing).  The first system of each orbit in enumeration order is
    compared and its answer stored for every image; every other system is
    looked up.  Mirror images (every rotation reversed) are not identified.
    """
    between = {frozenset(pair): e for e, pair in G.edges}
    if len(between) != len(G.edges):
        raise NotSimple("the conjecture concerns graphs without multiple edges")

    pos = G._vertex_pos
    autos = [
        (sigma, {e: between[frozenset((sigma[a], sigma[b]))] for e, (a, b) in G.edges})
        for sigma in _automorphisms(G)
    ]
    # rotations of a system not yet reached -> (genus, disagreeing vertices)
    known: dict[tuple, tuple[int, list[str]]] = {}
    systems = []
    counterexamples = []
    for i, combo in enumerate(rotation_cycles(G)):
        if combo not in known:
            sys = RibbonGraph(G.vertices, G.edges, dict(zip(G.vertices, combo)))
            genus = trace_faces(sys).topological_genus
            disagreeing = [v for v in sys.vertices if not compare_torsors(sys, v)[0]]
            if genus == 0 and disagreeing:
                raise AssertionError(
                    "genus-0 rotation system where the torsors disagree "
                    f"(index {i}, vertices {disagreeing})"
                )
            for sigma, emap in autos:
                image = {sigma[v]: [emap[e] for e in c] for v, c in zip(G.vertices, combo)}
                key = []
                for w in G.vertices:  # each rotation pinned as rotation_cycles pins it
                    k = image[w].index(G.incident[w][0])
                    key.append(tuple(image[w][k:] + image[w][:k]))
                mapped = sorted((sigma[v] for v in disagreeing), key=pos.__getitem__)
                known[tuple(key)] = genus, mapped
        genus, disagreeing = known.pop(combo)
        record = {
            "index": i,
            "rotation": {v: list(cycle) for v, cycle in zip(G.vertices, combo)},
            "genus": genus,
            "disagreeing_vertices": disagreeing,
        }
        if genus > 0 and not disagreeing:
            counterexamples.append(record)
        systems.append(record)

    if len(systems) != rotation_system_count(G):
        raise AssertionError("rotation-system enumeration is incomplete")
    return {
        "base_vertices": list(G.vertices),
        "system_count": len(systems),
        "systems": systems,
        "counterexamples": counterexamples,
    }
