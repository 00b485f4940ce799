"""Seeded input generators, and reference answers to check outputs with.

Every generator returns a plain graph spec ``(vertices, edges, rotation)``
in the library's JSON shape, so the benchmark can build a ``RibbonGraph``
from whichever import of the library is current, or write a graph file for
the CLI.  Nothing here calls into the library: the same seed gives the same
inputs, and the same reference answers, whatever the library's version.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

GOLDEN_SEED = 2024


def to_json(spec) -> str:
    vertices, edges, rotation = spec
    return json.dumps(
        {
            "vertices": list(vertices),
            "edges": [{"id": eid, "ends": list(pair)} for eid, pair in edges],
            "rotation": {v: list(rotation[v]) for v in vertices},
        }
    )


def grid(rows: int, cols: int):
    """The rows x cols grid with the planar (counter-clockwise) rotation."""
    name = lambda i, j: f"r{i}c{j}"
    vertices = [name(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((f"h{i}_{j}", (name(i, j), name(i, j + 1))))
            if i + 1 < rows:
                edges.append((f"v{i}_{j}", (name(i, j), name(i + 1, j))))
    # east, north, west, south around each vertex: one orientation everywhere
    rotation = {}
    for i in range(rows):
        for j in range(cols):
            around = [
                f"h{i}_{j}" if j + 1 < cols else None,
                f"v{i - 1}_{j}" if i > 0 else None,
                f"h{i}_{j - 1}" if j > 0 else None,
                f"v{i}_{j}" if i + 1 < rows else None,
            ]
            rotation[name(i, j)] = [e for e in around if e is not None]
    return vertices, edges, rotation


def complete(n: int, rng: random.Random):
    """K_n with a uniformly random rotation system."""
    vertices = [str(i) for i in range(1, n + 1)]
    edges = [(f"e{a}_{b}", (a, b)) for a, b in combinations(vertices, 2)]
    return vertices, edges, _random_rotation(vertices, edges, rng)


def multigraph(rng: random.Random, n: int = 7, m: int = 14):
    """A connected loopless multigraph with exactly n vertices, m edges and at
    least one pair of parallel edges, with a random rotation system."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    pairs = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    pairs.append(rng.choice(pairs))
    while len(pairs) < m:
        pairs.append(tuple(rng.sample(vertices, 2)))
    edges = [(f"e{k}", pair) for k, pair in enumerate(pairs, 1)]
    return vertices, edges, _random_rotation(vertices, edges, rng)


def wheel(spokes: int):
    """The wheel W_spokes: a hub joined to every vertex of a rim cycle."""
    rim = [f"w{i}" for i in range(spokes)]
    vertices = ["hub"] + rim
    edges = [(f"s{i}", ("hub", w)) for i, w in enumerate(rim)]
    edges += [(f"r{i}", (w, rim[(i + 1) % spokes])) for i, w in enumerate(rim)]
    rotation = {v: [e for e, pair in edges if v in pair] for v in vertices}
    return vertices, edges, rotation


def relabel(spec, rng: random.Random):
    """The same ribbon graph under fresh vertex and edge names, with each
    rotation started at a random position.  File order is kept: it decides
    the base vertex, the order of trees and where searches stop early, so
    shuffling it would change the amount of work from seed to seed."""
    vertices, edges, rotation = spec
    vnames = [f"x{i}" for i in range(len(vertices))]
    enames = [f"y{i}" for i in range(len(edges))]
    rng.shuffle(vnames)
    rng.shuffle(enames)
    vnew = dict(zip(vertices, vnames))
    enew = {eid: name for (eid, _), name in zip(edges, enames)}
    new_rotation = {}
    for v in vertices:
        cyc = [enew[e] for e in rotation[v]]
        k = rng.randrange(len(cyc))
        new_rotation[vnew[v]] = cyc[k:] + cyc[:k]
    return vnames, [(enew[e], (vnew[a], vnew[b])) for e, (a, b) in edges], new_rotation


def renaming(spec, original):
    """Maps back from the names of ``relabel(original)`` to the original
    names, for vertices and for edges; file order lines them up."""
    return (
        dict(zip(spec[0], original[0])),
        {e: f for (e, _), (f, _) in zip(spec[1], original[1])},
    )


def spec_of(G):
    """The spec of a library ``RibbonGraph``."""
    return list(G.vertices), list(G.edges), {v: list(G.rotation[v]) for v in G.vertices}


def _random_rotation(vertices, edges, rng):
    rotation = {}
    for v in vertices:
        inc = [e for e, pair in edges if v in pair]
        rng.shuffle(inc)
        rotation[v] = inc
    return rotation


# -- independent combinatorics, used to check the program's answers ----------


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_spanning_tree(spec, tree) -> bool:
    vertices, edges, _ = spec
    ends = dict(edges)
    if len(tree) != len(vertices) - 1 or not set(tree) <= set(ends):
        return False
    parent = {v: v for v in vertices}
    for e in tree:
        a, b = (_find(parent, x) for x in ends[e])
        if a == b:
            return False
        parent[a] = b
    return True


def random_tree(spec, rng: random.Random) -> list[str]:
    """A spanning tree from Kruskal's algorithm over a shuffled edge order."""
    vertices, edges, _ = spec
    order = list(edges)
    rng.shuffle(order)
    parent = {v: v for v in vertices}
    tree = []
    for eid, (a, b) in order:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            tree.append(eid)
    return sorted(tree)


def genus(spec) -> int:
    """Genus of the ribbon graph, from its face count (Euler's formula)."""
    vertices, edges, rotation = spec
    ends = dict(edges)
    nxt = {}
    for v in vertices:
        cyc = rotation[v]
        for i, e in enumerate(cyc):
            nxt[(v, e)] = cyc[(i + 1) % len(cyc)]
    # a dart (e, tail) is followed by the rotation successor of e at its head
    remaining = {(e, t) for e, pair in edges for t in pair}
    faces = 0
    while remaining:
        start = d = next(iter(remaining))
        faces += 1
        while True:
            remaining.discard(d)
            e, tail = d
            a, b = ends[e]
            head = b if tail == a else a
            d = (nxt[(head, e)], head)
            if d == start:
                break
    return (2 - (len(vertices) - len(edges) + faces)) // 2



def _next_edge(rotation, v, e):
    cyc = rotation[v]
    return cyc[(cyc.index(e) + 1) % len(cyc)]


def _other_end(ends, e, v):
    a, b = ends[e]
    return b if v == a else a


def _tour(spec, v, e, tree):
    """Walk along tree edges and cut non-tree edges, turning by the rotation
    successor, until (v, e) comes round again."""
    _, edges, rotation = spec
    ends = dict(edges)
    steps, eta = [], {}
    cur_v, cur_e = v, e
    while True:
        if cur_e in tree:
            steps.append(f"{cur_v} {cur_e} walk")
            cur_v = _other_end(ends, cur_e, cur_v)
        else:
            steps.append(f"{cur_v} {cur_e} cut")
            eta.setdefault(cur_e, cur_v)
        cur_e = _next_edge(rotation, cur_v, cur_e)
        if (cur_v, cur_e) == (v, e):
            return steps, eta


def tour_dump(spec, v, e, tree) -> str:
    """The tour of ``tree`` from (v, e) in the CLI's ``tour`` output format."""
    steps, eta = _tour(spec, v, e, tree)
    return "\n".join(steps + ["eta"] + [f"{f} {eta[f]}" for f in sorted(eta)])


def beta(spec, v, e, tree) -> dict:
    """One chip at the endpoint where the tour first cuts each non-tree edge."""
    out = {u: 0 for u in spec[0]}
    for u in _tour(spec, v, e, tree)[1].values():
        out[u] += 1
    return out


def rotor_move(spec, tree, source, root) -> list[str]:
    """Route one chip from ``source`` to the sink ``root``, starting from the
    rotor configuration that points every vertex along ``tree`` to the root."""
    vertices, edges, rotation = spec
    ends = dict(edges)
    rotor = {root: None}
    frontier = [root]
    while frontier:
        w = frontier.pop()
        for e in tree:
            if w in ends[e]:
                z = _other_end(ends, e, w)
                if z not in rotor:
                    rotor[z] = e
                    frontier.append(z)
    del rotor[root]
    chip = source
    while chip != root:
        rotor[chip] = _next_edge(rotation, chip, rotor[chip])
        chip = _other_end(ends, rotor[chip], chip)
    return sorted(rotor.values())
