"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 input error.
Trees are passed as comma-separated edge ids, divisors and classes as inline
divisor JSON, directed cycles as comma-separated ``edge:tail`` darts.

Each command is one entry of ``COMMANDS``: its name, help, handler and the
options it reads, in reading order.  ``OPTIONS`` names the reader and help of
each argument.  ``main`` reads ``argv`` against these two tables, then checks
the graph file, then the options in ``OPTIONS`` order, then the command's own
preconditions (planarity, say) inside the library call.  The first bad input
is the one reported, as one ``error:`` line.

A value option is ``--opt value`` or ``--opt=value``, the token after
``--opt`` taken verbatim.  Names are written in full; an unlisted, repeated or
missing option is an error, and ``-h``/``--help`` prints the tables' usage.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, NamedTuple

from . import bernardi as bn
from . import breakdiv as bk
from . import divisors as dv
from . import duality as du
from . import ribbon as rb
from . import rotor as rt
from . import suite as sw
from .errors import ParseError, TorsorError

PASS, FAIL, INPUT_ERROR = 0, 1, 2


def _load_graph(path: str) -> rb.RibbonGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"graph file is not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    return rb.parse_ribbon_graph(text)


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


def _cmd_dual(G) -> None:
    print(du.dual_graph(G).dual.to_json())
    for e in G.edge_ids:
        print(f"map {e} {e}")


def _cmd_check_square(G, v, gamma, T) -> int:
    ok = du.duality_square_check(du.dual_graph(G), v, gamma, T)
    return _verdict(ok, "commutes", "does-not-commute")


def _equal_or_witness(same: bool, witness) -> int:
    return _verdict(same, "equal", "different " + _json(witness))


def _cmd_suite(corpus_dir: str, mirror_dual: bool) -> int:
    try:
        names = [name for name in sorted(os.listdir(corpus_dir)) if name.endswith(".json")]
    except OSError as exc:
        raise TorsorError(f"cannot read corpus directory: {exc}") from exc
    if not names:
        raise TorsorError(f"no graph file (*.json) in corpus directory {corpus_dir!r}")
    corpus = []
    for name in names:
        try:
            corpus.append((name[: -len(".json")], _load_graph(os.path.join(corpus_dir, name))))
        except (TorsorError, OSError) as exc:
            raise TorsorError(f"{name}: {exc}") from exc
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
    help: str = ""
    flag: bool = False  # takes no value: True when given, else False


_MIRROR = "debug: flip the dual-graph convention to show the square failing"

# every argument, in the one order main reads them
OPTIONS = {
    "file": Option(None, "graph file (JSON)"),
    "corpus_dir": Option(None, "directory of graph files (JSON)"),
    "--mirror-dual": Option(None, _MIRROR, flag=True),
    "--vertex": Option(rb.known_vertex),
    "--other": Option(rb.known_vertex),
    "--from": Option(rb.known_vertex),
    "--root": Option(rb.known_vertex),
    "--edge": Option(None),
    "--divisor": Option(dv.parse_divisor, "divisor JSON"),
    "--class": Option(dv.parse_divisor, "degree-0 divisor JSON"),
    "--tree": Option(_parse_tree, "comma-separated edge ids"),
    "--cycle": Option(_parse_cycle, "comma-separated edge:tail darts"),
}


class Command(NamedTuple):
    name: str
    help: str
    # called with the graph (if any), then the option values; prints the answer and
    # returns the exit code of a check, or None
    run: Callable[..., int | None]
    options: tuple[str, ...] = ()
    graph: bool = True  # the positional argument is a graph file

    @property
    def arguments(self) -> tuple[str, ...]:
        """The positional (graph file or corpus directory), then the options."""
        return ("file",) * self.graph + self.options


_TOUR = ("--vertex", "--edge", "--tree")
_ALPHA = ("--vertex", "--edge", "--divisor")
_ACTION = ("--vertex", "--class", "--tree")

COMMANDS = (
    Command("info", "vertex/edge counts, genus, faces", _cmd_info),
    Command("trees", "list all spanning trees", _cmd_trees),
    Command("break-divisors", "list all break divisors", _cmd_break_divisors),
    Command("tour", "dump the tour of a spanning tree",
            lambda *args: print(bn.bernardi_tour(*args).dump()), _TOUR),
    Command("beta", "break divisor of a spanning tree",
            lambda *args: print(_json(bn.bernardi_beta(*args).divisor)), _TOUR),
    Command("alpha-r", "spanning tree of a break divisor (right inverse)",
            lambda *args: print(_fmt_tree(bn.alpha_right(*args))), _ALPHA),
    Command("alpha-l", "spanning tree of a break divisor (left inverse)",
            lambda *args: print(_fmt_tree(bn.alpha_left(*args))), _ALPHA),
    Command("act-bernardi", "apply the tree action via tours",
            lambda *args: print(_fmt_tree(bn.bernardi_act(*args))), _ACTION),
    Command("act-rotor", "apply the tree action via rotor-routing",
            lambda *args: print(_fmt_tree(rt.rotor_act(*args))), _ACTION),
    Command("rotor-move", "single-chip rotor-routing tree move",
            lambda G, source, root, T: print(_fmt_tree(rt.rotor_move(G, T, source, root))),
            ("--from", "--root", "--tree")),
    Command("reversible", "test reversibility of a directed cycle",
            lambda *args: _verdict(rt.cycle_is_reversible(*args), "reversible", "not-reversible"),
            ("--cycle",)),
    Command("dual", "emit the dual graph and the edge map", _cmd_dual),
    Command("dual-class", "push a degree-0 class to the dual",
            lambda G, gamma: print(_json(du.psi_class(du.dual_graph(G), gamma))), ("--class",)),
    Command("check-square", "duality/action commuting square", _cmd_check_square, _ACTION),
    Command("compare-vertices", "same tree action from two base vertices?",
            lambda *args: _equal_or_witness(*sw.compare_bernardi_vertices(*args)),
            ("--vertex", "--other")),
    Command("compare-torsors", "tour action vs rotor action at a vertex",
            lambda *args: _equal_or_witness(*sw.compare_torsors(*args)), ("--vertex",)),
    Command("suite", "run the theorem suite over a corpus directory", _cmd_suite,
            ("corpus_dir", "--mirror-dual"), graph=False),
    Command("search", "rotation-system search over a simple graph", _cmd_search),
    Command("export-dot", "the tour of a spanning tree as annotated DOT", _cmd_export_dot,
            _TOUR),
)


_HELP = ("-h", "--help")


def _read_argv(cmd: Command, argv: list[str]) -> dict[str, str | bool] | None:
    """The text of each argument of ``cmd`` in ``argv`` by name (presence for a
    flag), or None if ``argv`` asks for help.  The first usage error is raised
    after the last token, so a help request anywhere wins."""
    names = cmd.arguments
    free = [name for name in names if not name.startswith("-")]  # the one positional
    texts, errors, tokens = {}, [], iter(argv)
    for token in tokens:
        if token in _HELP:
            return None
        if token.startswith("-"):
            name, eq, value = token.partition("=")
        else:  # like --name=value: a second positional is unrecognized
            name, eq, value = free.pop() if free else token, "=", token
        option = OPTIONS[name] if name in names else None
        if option and not option.flag and not eq:
            value = next(tokens, None)
        error = (f"unrecognized argument {name!r}" if option is None
                 else f"{name} takes no value" if option.flag and eq
                 else f"{name} needs a value" if value is None
                 else f"{name} given twice" if name in texts else None)
        if error:
            errors.append(error)
        else:
            texts[name] = value
    errors += [f"missing argument {name}" for name in names
               if name not in texts and not OPTIONS[name].flag]
    if errors:
        raise TorsorError(errors[0])
    return {name: name in texts if OPTIONS[name].flag else texts[name] for name in names}


def _usage(cmd: Command | None) -> str:
    """The usage of ``cmd``, or of every command when None."""
    if cmd is None:
        rows = [(c.name, c.help) for c in COMMANDS]
        head = "COMMAND [ARGUMENTS]\n\ndivisor theory and spanning-tree torsors on ribbon graphs"
    else:
        names = cmd.arguments
        rows = [(name if not name.startswith("-") or OPTIONS[name].flag
                 else f"{name} {name[2:].upper()}", OPTIONS[name].help) for name in names]
        args = [f"[{arg}]" if OPTIONS[name].flag else arg for name, (arg, _) in zip(names, rows)]
        head = " ".join([cmd.name] + args) + "\n\n" + cmd.help
    width = max(len(arg) for arg, _ in rows)
    return "\n".join([f"usage: treetorsor {head}", ""]
                     + [f"  {arg:<{width}}  {text}".rstrip() for arg, text in rows])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cmd = next((cmd for cmd in COMMANDS if [cmd.name] == argv[:1]), None)
    try:
        texts = _read_argv(cmd, argv[1:]) if cmd else None
        if texts is None and (cmd or any(token in _HELP for token in argv)):
            print(_usage(cmd))
            return PASS
        if texts is None:
            word = f"unknown command {argv[0]!r}" if argv else "no command given"
            raise TorsorError(f"{word}; choose from {', '.join(c.name for c in COMMANDS)}")
        G = _load_graph(texts["file"]) if cmd.graph else None
        values = [G] if cmd.graph else []
        for option in cmd.options:
            read, text = OPTIONS[option].read, texts[option]
            values.append(read(G, text) if read else text)
        return cmd.run(*values) or PASS
    except (TorsorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
