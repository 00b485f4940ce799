"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 input error.
Trees are passed as comma-separated edge ids, divisors and classes as inline
divisor JSON, directed cycles as comma-separated ``edge:tail`` darts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import breakdiv as bk
from . import divisors as dv
from . import duality as du
from . import rotor as rt
from . import suite as sw
from .bernardi import (
    alpha_left,
    alpha_right,
    bernardi_act,
    bernardi_beta,
    bernardi_tour,
)
from .errors import TorsorError
from .ribbon import (
    Dart,
    RibbonGraph,
    is_spanning_tree,
    parse_ribbon_graph,
    spanning_trees,
    trace_faces,
)

PASS, FAIL, INPUT_ERROR = 0, 1, 2


def _load_graph(path: str) -> RibbonGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_ribbon_graph(fh.read())


def _parse_tree(G: RibbonGraph, text: str) -> frozenset:
    edges = frozenset(e for e in text.split(",") if e)
    for e in edges:
        if e not in G.ends:
            raise TorsorError(f"unknown edge {e!r} in tree argument")
    if not is_spanning_tree(G, edges):
        raise TorsorError(f"{sorted(edges)} is not a spanning tree")
    return edges


def _vertex(G: RibbonGraph, v: str) -> str:
    if v not in G.rotation:
        raise TorsorError(f"unknown vertex {v!r}")
    return v


def _parse_cycle(G: RibbonGraph, text: str) -> tuple[Dart, ...]:
    darts = []
    for part in text.split(","):
        edge, _, tail = part.partition(":")
        darts.append(Dart(edge, tail))
    return tuple(darts)


def _fmt_tree(T: frozenset) -> str:
    return ",".join(sorted(T))


def _fmt_divisor(D: dict) -> str:
    return json.dumps(D, sort_keys=True)


def _graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="graph file (JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetorsor",
        description="divisor theory and spanning-tree torsors on ribbon graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="vertex/edge counts, genus, faces")
    _graph_arg(p)

    p = sub.add_parser("trees", help="list all spanning trees")
    _graph_arg(p)

    p = sub.add_parser("break-divisors", help="list all break divisors")
    _graph_arg(p)

    for name, help_text in (
        ("tour", "dump the tour of a spanning tree"),
        ("beta", "break divisor of a spanning tree"),
    ):
        p = sub.add_parser(name, help=help_text)
        _graph_arg(p)
        p.add_argument("--vertex", required=True)
        p.add_argument("--edge", required=True)
        p.add_argument("--tree", required=True)

    for name, help_text in (
        ("alpha-r", "spanning tree of a break divisor (right inverse)"),
        ("alpha-l", "spanning tree of a break divisor (left inverse)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _graph_arg(p)
        p.add_argument("--vertex", required=True)
        p.add_argument("--edge", required=True)
        p.add_argument("--divisor", required=True, help="divisor JSON")

    for name, help_text in (
        ("act-bernardi", "apply the tree action via tours"),
        ("act-rotor", "apply the tree action via rotor-routing"),
    ):
        p = sub.add_parser(name, help=help_text)
        _graph_arg(p)
        p.add_argument("--vertex", required=True)
        p.add_argument("--class", dest="klass", required=True, help="degree-0 divisor JSON")
        p.add_argument("--tree", required=True)

    p = sub.add_parser("rotor-move", help="single-chip rotor-routing tree move")
    _graph_arg(p)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--tree", required=True)

    p = sub.add_parser("reversible", help="test reversibility of a directed cycle")
    _graph_arg(p)
    p.add_argument("--cycle", required=True, help="comma-separated edge:tail darts")

    p = sub.add_parser("dual", help="emit the dual graph and the edge map")
    _graph_arg(p)

    p = sub.add_parser("dual-class", help="push a degree-0 class to the dual")
    _graph_arg(p)
    p.add_argument("--class", dest="klass", required=True)

    p = sub.add_parser("check-square", help="duality/action commuting square")
    _graph_arg(p)
    p.add_argument("--vertex", required=True)
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--tree", required=True)

    p = sub.add_parser("compare-vertices", help="same tree action from two base vertices?")
    _graph_arg(p)
    p.add_argument("--vertex", required=True)
    p.add_argument("--other", required=True)

    p = sub.add_parser("compare-torsors", help="tour action vs rotor action at a vertex")
    _graph_arg(p)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("suite", help="run the theorem suite over a corpus directory")
    p.add_argument("corpus_dir")
    p.add_argument(
        "--mirror-dual",
        action="store_true",
        help="debug: flip the dual-graph convention to show the square failing",
    )

    p = sub.add_parser("search", help="rotation-system search over a simple graph")
    _graph_arg(p)

    p = sub.add_parser("export-dot", help="tour or rotor trace as annotated DOT")
    _graph_arg(p)
    p.add_argument("--vertex", required=True)
    p.add_argument("--edge", required=True)
    p.add_argument("--tree", required=True)

    return parser


def _cmd_info(args) -> int:
    G = _load_graph(args.file)
    fd = trace_faces(G)
    print(f"vertices {len(G.vertices)}")
    print(f"edges {len(G.edges)}")
    print(f"genus-combinatorial {G.genus_comb}")
    print(f"genus-topological {fd.topological_genus}")
    print(f"faces {len(fd.faces)}")
    for i, face in enumerate(fd.faces):
        print(f"face f{i} " + " ".join(f"{d.edge}:{d.tail}" for d in face))
    return PASS


def _cmd_trees(args) -> int:
    G = _load_graph(args.file)
    for T in spanning_trees(G):
        print(_fmt_tree(T))
    return PASS


def _cmd_break_divisors(args) -> int:
    G = _load_graph(args.file)
    for bd in bk.enumerate_break_divisors(G):
        print(_fmt_divisor(bd.divisor) + " witness " + _fmt_tree(bd.witness_tree))
    return PASS


def _cmd_tour(args) -> int:
    G = _load_graph(args.file)
    T = _parse_tree(G, args.tree)
    print(bernardi_tour(G, _vertex(G, args.vertex), args.edge, T).dump())
    return PASS


def _cmd_beta(args) -> int:
    G = _load_graph(args.file)
    T = _parse_tree(G, args.tree)
    beta = bernardi_beta(G, _vertex(G, args.vertex), args.edge, T)
    print(_fmt_divisor(beta.divisor))
    return PASS


def _cmd_alpha(args, left: bool) -> int:
    G = _load_graph(args.file)
    D = dv.parse_divisor(G, args.divisor)
    fn = alpha_left if left else alpha_right
    print(_fmt_tree(fn(G, _vertex(G, args.vertex), args.edge, D)))
    return PASS


def _cmd_act(args, rotor: bool) -> int:
    G = _load_graph(args.file)
    v = _vertex(G, args.vertex)
    gamma = dv.parse_divisor(G, args.klass)
    T = _parse_tree(G, args.tree)
    act = rt.rotor_act if rotor else bernardi_act
    print(_fmt_tree(act(G, v, gamma, T)))
    return PASS


def _cmd_rotor_move(args) -> int:
    G = _load_graph(args.file)
    T = _parse_tree(G, args.tree)
    source, root = _vertex(G, args.source), _vertex(G, args.root)
    print(_fmt_tree(rt.rotor_move(G, T, source, root)))
    return PASS


def _cmd_reversible(args) -> int:
    G = _load_graph(args.file)
    C = _parse_cycle(G, args.cycle)
    if rt.cycle_is_reversible(G, C):
        print("reversible")
        return PASS
    print("not-reversible")
    return FAIL


def _cmd_dual(args) -> int:
    G = _load_graph(args.file)
    corr = du.dual_graph(G)
    print(corr.dual.to_json())
    for e in G.edge_ids:
        print(f"map {e} {e}")
    return PASS


def _cmd_dual_class(args) -> int:
    G = _load_graph(args.file)
    corr = du.dual_graph(G)
    gamma = dv.parse_divisor(G, args.klass)
    print(_fmt_divisor(du.psi_class(corr, gamma)))
    return PASS


def _cmd_check_square(args) -> int:
    G = _load_graph(args.file)
    corr = du.dual_graph(G)
    gamma = dv.parse_divisor(G, args.klass)
    T = _parse_tree(G, args.tree)
    if du.duality_square_check(corr, _vertex(G, args.vertex), gamma, T):
        print("commutes")
        return PASS
    print("does-not-commute")
    return FAIL


def _cmd_compare(args, torsors: bool) -> int:
    G = _load_graph(args.file)
    v = _vertex(G, args.vertex)
    if torsors:
        same, witness = sw.compare_torsors(G, v)
    else:
        same, witness = sw.compare_bernardi_vertices(G, v, _vertex(G, args.other))
    if same:
        print("equal")
        return PASS
    print("different " + json.dumps(witness, sort_keys=True))
    return FAIL


def _cmd_suite(args) -> int:
    corpus = []
    try:
        names = sorted(os.listdir(args.corpus_dir))
    except OSError as exc:
        raise TorsorError(f"cannot read corpus directory: {exc}") from exc
    for name in names:
        if not name.endswith(".json"):
            continue
        G = _load_graph(os.path.join(args.corpus_dir, name))
        corpus.append((name[: -len(".json")], G))
    report = sw.run_theorem_suite(corpus, mirror_dual=args.mirror_dual)
    print(report.dump())
    return PASS if report.ok else FAIL


def _cmd_search(args) -> int:
    G = _load_graph(args.file)
    report = sw.search_conjecture(G)
    for record in report["systems"]:
        print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "system_count": report["system_count"],
                "counterexamples": len(report["counterexamples"]),
            },
            sort_keys=True,
        )
    )
    return PASS


def _cmd_export_dot(args) -> int:
    G = _load_graph(args.file)
    T = _parse_tree(G, args.tree)
    tour = bernardi_tour(G, _vertex(G, args.vertex), args.edge, T)
    lines = ["digraph tour {"]
    for v in G.vertices:
        lines.append(f'  "{v}";')
    for eid, (a, b) in G.edges:
        style = "solid" if eid in T else "dashed"
        lines.append(f'  "{a}" -> "{b}" [label="{eid}", style={style}, dir=none];')
    for i, step in enumerate(tour.steps):
        w = G.other_end(step.edge, step.at_vertex)
        if step.action == "walk":
            lines.append(
                f'  "{step.at_vertex}" -> "{w}" '
                f'[label="{i}: walk {step.edge}", color=blue, constraint=false];'
            )
        else:
            lines.append(
                f'  "{step.at_vertex}" -> "{w}" '
                f'[label="{i}: cut {step.edge}", color=red, style=dotted, constraint=false];'
            )
    lines.append("}")
    print("\n".join(lines))
    return PASS


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "trees": _cmd_trees,
        "break-divisors": _cmd_break_divisors,
        "tour": _cmd_tour,
        "beta": _cmd_beta,
        "alpha-r": lambda a: _cmd_alpha(a, left=False),
        "alpha-l": lambda a: _cmd_alpha(a, left=True),
        "act-bernardi": lambda a: _cmd_act(a, rotor=False),
        "act-rotor": lambda a: _cmd_act(a, rotor=True),
        "rotor-move": _cmd_rotor_move,
        "reversible": _cmd_reversible,
        "dual": _cmd_dual,
        "dual-class": _cmd_dual_class,
        "check-square": _cmd_check_square,
        "compare-vertices": lambda a: _cmd_compare(a, torsors=False),
        "compare-torsors": lambda a: _cmd_compare(a, torsors=True),
        "suite": _cmd_suite,
        "search": _cmd_search,
        "export-dot": _cmd_export_dot,
    }
    try:
        return handlers[args.command](args)
    except (TorsorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
