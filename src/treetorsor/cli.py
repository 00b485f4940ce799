"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 input error.
Trees are passed as comma-separated edge ids, divisors and classes as inline
divisor JSON, directed cycles as comma-separated ``edge:tail`` darts.

Each command is one entry of ``COMMANDS``: its name, help, handler and the
options it reads, in reading order.  ``OPTIONS`` names the reader of each
option.  ``main`` checks the inputs in one fixed order: the graph file first,
then the options in ``OPTIONS`` order, then the command's own preconditions
(planarity, say) inside the library call.  The first bad input is the one
reported, as one ``error:`` line.

``main`` builds the parser of the command named by its first argument only,
and every command's parser when that word names none (no arguments,
``--help``, an unknown command); each is built once per import.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

from . import bernardi as bn
from . import breakdiv as bk
from . import divisors as dv
from . import duality as du
from . import ribbon as rb
from . import rotor as rt
from . import suite as sw
from .errors import TorsorError

PASS, FAIL, INPUT_ERROR = 0, 1, 2


def _load_graph(path: str) -> rb.RibbonGraph:
    with open(path, encoding="utf-8") as fh:
        return rb.parse_ribbon_graph(fh.read())


def _parse_tree(G: rb.RibbonGraph, text: str) -> frozenset:
    edges: set[str] = set()
    for e in filter(None, text.split(",")):
        if e not in G.ends:
            raise TorsorError(f"unknown edge {e!r} in tree argument")
        if e in edges:
            raise TorsorError(f"repeated edge {e!r} in tree argument")
        edges.add(e)
    return rb._shared_tree(G, frozenset(edges))


def _parse_cycle(G: rb.RibbonGraph, text: str) -> tuple[rb.Dart, ...]:
    darts = []
    for part in text.split(","):
        edge, _, tail = part.partition(":")
        darts.append(rb.Dart(edge, tail))
    return tuple(darts)


def _fmt_tree(T: frozenset) -> str:
    return ",".join(sorted(T))


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _verdict(ok: bool, yes: str, no: str) -> int:
    print(yes if ok else no)
    return PASS if ok else FAIL


def _cmd_info(G) -> None:
    fd = rb.trace_faces(G)
    print(f"vertices {len(G.vertices)}")
    print(f"edges {len(G.edges)}")
    print(f"genus-combinatorial {G.genus_comb}")
    print(f"genus-topological {fd.topological_genus}")
    print(f"faces {len(fd.faces)}")
    for i, face in enumerate(fd.faces):
        print(f"face f{i} " + " ".join(f"{d.edge}:{d.tail}" for d in face))


def _cmd_trees(G) -> None:
    for T in rb.spanning_trees(G):
        print(_fmt_tree(T))


def _cmd_break_divisors(G) -> None:
    for bd in bk.enumerate_break_divisors(G):
        print(_json(bd.divisor) + " witness " + _fmt_tree(bd.witness_tree))


def _cmd_tour(G, v, e, T) -> None:
    print(bn.bernardi_tour(G, v, e, T).dump())


def _cmd_beta(G, v, e, T) -> None:
    print(_json(bn.bernardi_beta(G, v, e, T).divisor))


def _cmd_alpha_r(G, v, e, D) -> None:
    print(_fmt_tree(bn.alpha_right(G, v, e, D)))


def _cmd_alpha_l(G, v, e, D) -> None:
    print(_fmt_tree(bn.alpha_left(G, v, e, D)))


def _cmd_act_bernardi(G, v, gamma, T) -> None:
    print(_fmt_tree(bn.bernardi_act(G, v, gamma, T)))


def _cmd_act_rotor(G, v, gamma, T) -> None:
    print(_fmt_tree(rt.rotor_act(G, v, gamma, T)))


def _cmd_rotor_move(G, source, root, T) -> None:
    print(_fmt_tree(rt.rotor_move(G, T, source, root)))


def _cmd_reversible(G, C) -> int:
    return _verdict(rt.cycle_is_reversible(G, C), "reversible", "not-reversible")


def _cmd_dual(G) -> None:
    print(du.dual_graph(G).dual.to_json())
    for e in G.edge_ids:
        print(f"map {e} {e}")


def _cmd_dual_class(G, gamma) -> None:
    print(_json(du.psi_class(du.dual_graph(G), gamma)))


def _cmd_check_square(G, v, gamma, T) -> int:
    ok = du.duality_square_check(du.dual_graph(G), v, gamma, T)
    return _verdict(ok, "commutes", "does-not-commute")


def _equal_or_witness(same: bool, witness) -> int:
    return _verdict(same, "equal", "different " + _json(witness))


def _cmd_compare_vertices(G, v, w) -> int:
    return _equal_or_witness(*sw.compare_bernardi_vertices(G, v, w))


def _cmd_compare_torsors(G, v) -> int:
    return _equal_or_witness(*sw.compare_torsors(G, v))


def _cmd_suite(corpus_dir: str, mirror_dual: bool) -> int:
    corpus = []
    try:
        names = sorted(os.listdir(corpus_dir))
    except OSError as exc:
        raise TorsorError(f"cannot read corpus directory: {exc}") from exc
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            G = _load_graph(os.path.join(corpus_dir, name))
        except TorsorError as exc:
            raise TorsorError(f"{name}: {exc}") from exc
        corpus.append((name[: -len(".json")], G))
    report = sw.run_theorem_suite(corpus, mirror_dual=mirror_dual)
    print(report.dump())
    return PASS if report.ok else FAIL


def _cmd_search(G) -> None:
    report = sw.search_conjecture(G)
    for record in report["systems"]:
        print(_json(record))
    n = len(report["counterexamples"])
    print(_json({"system_count": report["system_count"], "counterexamples": n}))


def _cmd_export_dot(G, v, e, T) -> None:
    tour = bn.bernardi_tour(G, v, e, T)
    lines = ["digraph tour {"]
    for u in G.vertices:
        lines.append(f'  "{u}";')
    for eid, (a, b) in G.edges:
        style = "solid" if eid in T else "dashed"
        lines.append(f'  "{a}" -> "{b}" [label="{eid}", style={style}, dir=none];')
    for i, step in enumerate(tour.steps):
        w = G.other_end(step.edge, step.at_vertex)
        style = "color=blue" if step.action == "walk" else "color=red, style=dotted"
        lines.append(
            f'  "{step.at_vertex}" -> "{w}" '
            f'[label="{i}: {step.action} {step.edge}", {style}, constraint=false];'
        )
    lines.append("}")
    print("\n".join(lines))


class Option(NamedTuple):
    read: Callable | None  # checks the text against the graph; None passes the text on
    arguments: dict  # argparse keywords


_VALUE = {"required": True}
_MIRROR = "debug: flip the dual-graph convention to show the square failing"

# every option, in the one order main reads them
OPTIONS = {
    "corpus_dir": Option(None, {}),
    "--mirror-dual": Option(None, {"action": "store_true", "help": _MIRROR}),
    "--vertex": Option(rb.known_vertex, _VALUE),
    "--other": Option(rb.known_vertex, _VALUE),
    "--from": Option(rb.known_vertex, _VALUE),
    "--root": Option(rb.known_vertex, _VALUE),
    "--edge": Option(None, _VALUE),
    "--divisor": Option(dv.parse_divisor, dict(_VALUE, help="divisor JSON")),
    "--class": Option(dv.parse_divisor, dict(_VALUE, help="degree-0 divisor JSON")),
    "--tree": Option(_parse_tree, dict(_VALUE, help="comma-separated edge ids")),
    "--cycle": Option(_parse_cycle, dict(_VALUE, help="comma-separated edge:tail darts")),
}


class Command(NamedTuple):
    name: str
    help: str
    # called with the graph (if any), then the option values; prints the answer and
    # returns the exit code of a check, or None
    run: Callable[..., int | None]
    options: tuple[str, ...] = ()
    graph: bool = True  # the positional argument is a graph file


_TOUR = ("--vertex", "--edge", "--tree")
_ALPHA = ("--vertex", "--edge", "--divisor")
_ACTION = ("--vertex", "--class", "--tree")

COMMANDS = (
    Command("info", "vertex/edge counts, genus, faces", _cmd_info),
    Command("trees", "list all spanning trees", _cmd_trees),
    Command("break-divisors", "list all break divisors", _cmd_break_divisors),
    Command("tour", "dump the tour of a spanning tree", _cmd_tour, _TOUR),
    Command("beta", "break divisor of a spanning tree", _cmd_beta, _TOUR),
    Command("alpha-r", "spanning tree of a break divisor (right inverse)", _cmd_alpha_r, _ALPHA),
    Command("alpha-l", "spanning tree of a break divisor (left inverse)", _cmd_alpha_l, _ALPHA),
    Command("act-bernardi", "apply the tree action via tours", _cmd_act_bernardi, _ACTION),
    Command("act-rotor", "apply the tree action via rotor-routing", _cmd_act_rotor, _ACTION),
    Command("rotor-move", "single-chip rotor-routing tree move", _cmd_rotor_move,
            ("--from", "--root", "--tree")),
    Command("reversible", "test reversibility of a directed cycle", _cmd_reversible,
            ("--cycle",)),
    Command("dual", "emit the dual graph and the edge map", _cmd_dual),
    Command("dual-class", "push a degree-0 class to the dual", _cmd_dual_class, ("--class",)),
    Command("check-square", "duality/action commuting square", _cmd_check_square, _ACTION),
    Command("compare-vertices", "same tree action from two base vertices?",
            _cmd_compare_vertices, ("--vertex", "--other")),
    Command("compare-torsors", "tour action vs rotor action at a vertex", _cmd_compare_torsors,
            ("--vertex",)),
    Command("suite", "run the theorem suite over a corpus directory", _cmd_suite,
            ("corpus_dir", "--mirror-dual"), graph=False),
    Command("search", "rotation-system search over a simple graph", _cmd_search),
    Command("export-dot", "the tour of a spanning tree as annotated DOT", _cmd_export_dot,
            _TOUR),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error like any other: one line, exit 2
        raise TorsorError(message)


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, or of every command when ``name``
    names none (no arguments, ``--help`` or an unknown word)."""
    parser = _Parser(
        prog="treetorsor",
        description="divisor theory and spanning-tree torsors on ribbon graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in [cmd for cmd in COMMANDS if cmd.name == name] or COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(cmd=cmd)
        if cmd.graph:
            p.add_argument("file", help="graph file (JSON)")
        for option in cmd.options:
            p.add_argument(option, **OPTIONS[option].arguments)
    return parser


@lru_cache(maxsize=None)
def _parser(name: str | None) -> argparse.ArgumentParser:
    """One parser per command name, None for every other first word."""
    return build_parser(name)


_NAMES = {cmd.name for cmd in COMMANDS}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv and argv[0] in _NAMES else None
    try:
        args = _parser(name).parse_args(argv)
        cmd = args.cmd
        G = _load_graph(args.file) if cmd.graph else None
        values = [G] if cmd.graph else []
        for option in cmd.options:
            read, text = OPTIONS[option].read, getattr(args, option.lstrip("-").replace("-", "_"))
            values.append(read(G, text) if read else text)
        return cmd.run(*values) or PASS
    except (TorsorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
