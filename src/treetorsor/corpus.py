"""The small-graph corpus the theorem suite and acceptance run exercise.

All graphs are built in memory; ``write_corpus`` dumps them in the JSON file
format for the CLI.  Random multigraphs are seeded for reproducibility.
"""

from __future__ import annotations

import os
import random
from itertools import permutations, product
from typing import Iterator

from .ribbon import RibbonGraph, trace_faces


def single_edge() -> RibbonGraph:
    return RibbonGraph(
        ["u", "v"], [("e1", ("u", "v"))], {"u": ["e1"], "v": ["e1"]}
    )


def path3() -> RibbonGraph:
    return RibbonGraph(
        ["1", "2", "3"],
        [("e12", ("1", "2")), ("e23", ("2", "3"))],
        {"1": ["e12"], "2": ["e12", "e23"], "3": ["e23"]},
    )


def k3() -> RibbonGraph:
    return RibbonGraph(
        ["1", "2", "3"],
        [("a", ("1", "2")), ("b", ("2", "3")), ("c", ("3", "1"))],
        {"1": ["a", "c"], "2": ["b", "a"], "3": ["c", "b"]},
    )


def theta(planar: bool = True) -> RibbonGraph:
    rot_v = ["r", "q", "p"] if planar else ["p", "q", "r"]
    return RibbonGraph(
        ["u", "v"],
        [("p", ("u", "v")), ("q", ("u", "v")), ("r", ("u", "v"))],
        {"u": ["p", "q", "r"], "v": rot_v},
    )


def banana4() -> RibbonGraph:
    edges = [(f"e{i}", ("u", "v")) for i in range(1, 5)]
    ids = [e for e, _ in edges]
    return RibbonGraph(["u", "v"], edges, {"u": ids, "v": list(reversed(ids))})


def k4() -> RibbonGraph:
    verts = ["1", "2", "3", "4"]
    edges = [
        ("e12", ("1", "2")),
        ("e13", ("1", "3")),
        ("e14", ("1", "4")),
        ("e23", ("2", "3")),
        ("e24", ("2", "4")),
        ("e34", ("3", "4")),
    ]
    inc = {v: [e for e, pair in edges if v in pair] for v in verts}
    return RibbonGraph(verts, edges, inc)


def k5() -> RibbonGraph:
    verts = [str(i) for i in range(1, 6)]
    edges = [
        (f"e{a}{b}", (a, b))
        for i, a in enumerate(verts)
        for b in verts[i + 1 :]
    ]
    inc = {v: [e for e, pair in edges if v in pair] for v in verts}
    return RibbonGraph(verts, edges, inc)


def k33() -> RibbonGraph:
    left, right = ["a1", "a2", "a3"], ["b1", "b2", "b3"]
    edges = [(f"{a}{b}", (a, b)) for a in left for b in right]
    verts = left + right
    inc = {v: [e for e, pair in edges if v in pair] for v in verts}
    return RibbonGraph(verts, edges, inc)


def rotation_cycles(G: RibbonGraph) -> Iterator[tuple[tuple[str, ...], ...]]:
    """The rotations of every rotation system of the underlying graph, one
    tuple per vertex in file order: the first incident edge of each vertex is
    pinned as the cyclic representative, the rest permuted."""
    per_vertex = []
    for v in G.vertices:
        inc = G.incident[v]
        per_vertex.append([(inc[0],) + p for p in permutations(inc[1:])])
    return product(*per_vertex)


def rotation_systems(G: RibbonGraph) -> Iterator[RibbonGraph]:
    """All rotation systems of the underlying graph, in ``rotation_cycles`` order."""
    for combo in rotation_cycles(G):
        yield RibbonGraph(G.vertices, G.edges, dict(zip(G.vertices, combo)))


def planar_rotation(G: RibbonGraph) -> RibbonGraph:
    """The first genus-0 rotation system of the underlying graph."""
    for sys in rotation_systems(G):
        if trace_faces(sys).topological_genus == 0:
            return sys
    raise ValueError("underlying graph is not planar")


def random_multigraph(rng: random.Random) -> RibbonGraph:
    """A random connected loopless multigraph with 2 to 6 vertices and at most
    10 edges, with a random rotation system."""
    n = rng.randint(2, 6)
    verts = [f"v{i}" for i in range(1, n + 1)]
    m = rng.randint(n - 1, 10)
    edges = []
    # random spanning tree first, then extra non-loop edges
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((f"e{len(edges) + 1}", (verts[j], verts[i])))
    while len(edges) < m:
        a, b = rng.sample(verts, 2)
        edges.append((f"e{len(edges) + 1}", (a, b)))
    rotation = {}
    for v in verts:
        inc = [e for e, pair in edges if v in pair]
        rng.shuffle(inc)
        rotation[v] = inc
    return RibbonGraph(verts, edges, rotation)


def default_corpus(seed: int = 2024) -> list[tuple[str, RibbonGraph]]:
    """The acceptance corpus: named small graphs plus ten seeded random ones."""
    out: list[tuple[str, RibbonGraph]] = [
        ("single-edge", single_edge()),
        ("path3", path3()),
        ("k3", k3()),
    ]
    for i, sys in enumerate(rotation_systems(theta())):
        out.append((f"theta-rot{i}", sys))
    out.append(("banana4", banana4()))
    for i, sys in enumerate(rotation_systems(k4())):
        out.append((f"k4-rot{i:02d}", sys))
    out.append(("k5", k5()))
    out.append(("k33", k33()))
    rng = random.Random(seed)
    for i in range(10):
        out.append((f"random{i:02d}", random_multigraph(rng)))
    return out


def write_corpus(directory: str, corpus: list[tuple[str, RibbonGraph]] | None = None) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, G in corpus or default_corpus():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(G.to_json())
            fh.write("\n")
        paths.append(path)
    return paths
