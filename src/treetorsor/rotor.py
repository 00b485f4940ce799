"""Rotor-routing: tree rotors, the chip step, the tree action, and unicycles.

A rotor configuration assigns each non-sink vertex an outgoing edge.  One step
rotates the rotor at the chip vertex to the next edge in the rotation and
moves the chip across that edge.  Sink-free dynamics on unicycle states drive
the cycle reversibility test behind the planarity criterion.

Every tree taken or returned passes ``ribbon._shared_tree`` (one object per
spanning tree, ``NotSpanningTree`` for a non-tree), and every vertex argument
passes ``ribbon.known_vertex``.  The tree rotors do not read the rotation, so
``_tree_rotors`` caches them on the underlying graph for every rotation
system, and ``rotors_from_tree`` hands out a copy.  ``rotor_step`` turns the
rotor it is given in place, so each walk copies its start once and steps
that copy: ``rotor_move`` the tree rotors, ``unicycle_orbit`` its argument.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Mapping

from . import divisors as dv
from .errors import ChipAtSink, MissingVertex, NotACycle, NotIncident, TorsorError
from .ribbon import Dart, RibbonGraph, _shared_tree, known_vertex, reach, rotation_free


@rotation_free
def _tree_rotors(G: RibbonGraph, T: frozenset, root: str) -> dict:
    """Each non-root vertex points along its unique tree path toward the root.
    Shared by every rotation system and never mutated: callers copy it.  A
    non-tree raises, so a cached entry means ``T`` has been checked."""
    parent = reach(G, [root], _shared_tree(G, T))
    return {z: parent[z] for z in G.vertices if z != root}


def rotors_from_tree(G: RibbonGraph, T: frozenset, root: str) -> dict:
    """Each non-root vertex points along its unique tree path toward the root
    (a fresh dict, which the caller may change)."""
    return dict(_tree_rotors(G, T, known_vertex(G, root)))


def rotor_step(G: RibbonGraph, rotor: dict[str, str], chip: str) -> str:
    """Turn the rotor at the chip to its rotation successor, in place, and
    return the vertex the chip moves to across that edge."""
    if chip not in rotor:
        known_vertex(G, chip)
        raise ChipAtSink(f"chip is at the sink vertex {chip!r}")
    try:
        new_edge = G._succ[chip, rotor[chip]]
    except KeyError:
        raise NotIncident(f"rotor edge {rotor[chip]!r} is not incident to vertex {chip!r}") from None
    rotor[chip] = new_edge
    a, b = G.ends[new_edge]
    return a if chip == b else b


@lru_cache(maxsize=None)
def rotor_move(G: RibbonGraph, T: frozenset, x: str, y: str) -> frozenset:
    """The tree ((x) - (y))_y applied to T: route a chip from x to the sink y."""
    chip = known_vertex(G, x)
    rotor = rotors_from_tree(G, T, y)
    budget = 10**6
    while chip != y:
        chip = rotor_step(G, rotor, chip)
        budget -= 1
        if budget < 0:  # pragma: no cover - rotor walks with a sink always halt
            raise AssertionError("rotor walk failed to reach the sink")
    return _shared_tree(G, frozenset(rotor.values()))


def rotor_act(
    G: RibbonGraph, v: str, gamma: Mapping[str, int], T: frozenset
) -> frozenset:
    """The rotor-routing action of the degree-0 class of ``gamma`` on ``T``.

    The v-reduced representative has 0 <= coefficient < deg(u) at every
    u != v, so the action is at most sum(deg) single-chip moves.
    """
    known_vertex(G, v)
    return _act(G, v, dv._q_reduce(G, dv.class_to_tuple(G, gamma), v), _shared_tree(G, T))


def _act(G: RibbonGraph, v: str, reduced: tuple[int, ...], T: frozenset) -> frozenset:
    """Route each chip of the v-reduced class ``reduced`` to the sink v,
    starting from the checked tree ``T``."""
    for u, c in zip(G.vertices, reduced):
        if u != v:
            for _ in range(c):
                T = rotor_move(G, T, u, v)
    return T


def unicycle_orbit(
    G: RibbonGraph, rotor: Mapping[str, str], chip: str
) -> tuple[list[tuple[tuple, str]], list[Dart]]:
    """Run 2|E| sink-free steps; return visited states and traversed darts.

    States are (sorted rotor items, chip) tuples; the state after the last
    step closes the orbit back to the start.  ``rotor`` must give exactly
    the vertices of G an edge, which is checked at entry.
    """
    def key(r: Mapping[str, str], c: str) -> tuple[tuple, str]:
        return tuple(sorted(r.items())), c

    for w in rotor:
        known_vertex(G, w)
    for v in G.vertices:
        if v not in rotor:
            raise MissingVertex(f"rotor is undefined at {v!r}")
    states = [key(rotor, known_vertex(G, chip))]
    darts = []
    r, c = dict(rotor), chip
    for _ in range(2 * len(G.edges)):
        prev = c
        c = rotor_step(G, r, c)
        darts.append(Dart(r[prev], prev))
        states.append(key(r, c))
    return states, darts


def _read_cycle(G: RibbonGraph, cycle) -> tuple[Dart, ...]:
    """``cycle`` as darts, each element read as an (edge, tail) pair of ids;
    ``NotACycle`` unless they form a directed simple cycle of G."""
    try:
        C = tuple(Dart(*d) for d in cycle)
        if not C:
            raise NotACycle("empty dart sequence")
        for d in C:
            if d.edge not in G.ends or d.tail not in (G.ends[d.edge]):
                raise NotACycle(f"dart {d.edge}:{d.tail} is not a dart of the graph")
    except TypeError:
        raise NotACycle(f"cycle elements must be (edge, tail) pairs of ids: {cycle!r}") from None
    for d, nxt in zip(C, C[1:] + C[:1]):
        if G.head(d) != nxt.tail:
            raise NotACycle("darts do not chain head-to-tail")
    tails = [d.tail for d in C]
    if len(set(tails)) != len(tails):
        raise NotACycle("cycle revisits a vertex")
    if len({d.edge for d in C}) != len(C):
        raise NotACycle("cycle uses an edge twice")
    return C


def _unicycle_rotor(G: RibbonGraph, C: tuple[Dart, ...], orientation: str = "bfs") -> dict:
    """Rotors along ``C``, every other vertex pointing at the cycle through a
    breadth-first ("bfs") or depth-first ("dfs") search from it, file-order ties."""
    rotor = {d.tail: d.edge for d in C}
    tails = [v for v in G.vertices if v in rotor]
    for w, e in reach(G, tails, lifo=orientation == "dfs").items():
        if e is not None:
            rotor[w] = e
    return rotor


def cycle_is_reversible(G: RibbonGraph, C: tuple[Dart, ...], orientation: str = "bfs") -> bool:
    """Whether the directed simple cycle ``C`` is reversible.

    Builds a unicycle with rotors along C (all other vertices oriented toward
    the cycle) and asks whether the reversed-cycle state appears in the
    2|E|-step orbit.  ``orientation`` picks how off-cycle vertices point at
    the cycle ("bfs" or "dfs", file-order ties); the verdict is independent
    of that choice, which the suite spot-checks.
    """
    if orientation not in ("bfs", "dfs"):
        raise TorsorError(f"unknown orientation {orientation!r}")
    C = _read_cycle(G, C)
    rotor = _unicycle_rotor(G, C, orientation)
    chip = min((d.tail for d in C), key=G.vertex_pos)

    reversed_rotor = dict(rotor)
    for d in C:
        reversed_rotor[G.head(d)] = d.edge
    target = (tuple(sorted(reversed_rotor.items())), chip)

    states, _ = unicycle_orbit(G, rotor, chip)
    assert states[-1] == states[0], "unicycle orbit must close after 2|E| steps"
    return target in states


@rotation_free
def simple_cycles(G: RibbonGraph) -> tuple[tuple[Dart, ...], ...]:
    """One orientation of every simple cycle: connected 2-regular edge subsets."""
    out = []
    for k in range(2, len(G.edges) + 1):
        for combo in combinations(G.edge_ids, k):
            deg: dict[str, int] = {}
            for e in combo:
                a, b = G.ends[e]
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            if any(c != 2 for c in deg.values()):
                continue
            # connected, then orient: walk from the first endpoint of the first edge
            e0 = combo[0]
            start = G.ends[e0][0]
            if len(reach(G, [start], combo)) != len(deg):
                continue
            darts = [Dart(e0, start)]
            used = {e0}
            v = G.other_end(e0, start)
            while v != start:
                e = next(
                    f for f in G.incident[v] if f in combo and f not in used
                )
                darts.append(Dart(e, v))
                used.add(e)
                v = G.other_end(e, v)
            out.append(tuple(darts))
    return tuple(out)


def reverse_cycle(G: RibbonGraph, C: tuple[Dart, ...]) -> tuple[Dart, ...]:
    """The directed simple cycle ``C``, read as ``cycle_is_reversible`` reads
    it, traversed the other way."""
    return tuple(G.reverse(d) for d in reversed(_read_cycle(G, C)))


def all_cycles_reversible(G: RibbonGraph) -> bool:
    """The planarity criterion predicate (both orientations of each cycle)."""
    for C in simple_cycles(G):
        if not cycle_is_reversible(G, C):
            return False
        if not cycle_is_reversible(G, reverse_cycle(G, C)):
            return False
    return True
