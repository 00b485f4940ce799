"""Ribbon graph structure: parsing, faces, genus, spanning trees."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import corpus
from treetorsor.errors import EdgeInTree, ParseError, ValidationError
from treetorsor.ribbon import (
    Dart,
    RibbonGraph,
    face_successor,
    fundamental_cycle,
    is_spanning_tree,
    parse_ribbon_graph,
    spanning_trees,
    trace_faces,
    tree_path,
)

import random


def random_graph(seed: int) -> RibbonGraph:
    return corpus.random_multigraph(random.Random(seed))


# -- construction and validation ----------------------------------------------


def test_duplicate_vertex_id_rejected():
    with pytest.raises(ValidationError) as exc:
        RibbonGraph(["u", "u"], [("e", ("u", "u"))], {"u": ["e"]})
    assert exc.value.kind == "duplicate-id"


def test_loop_rejected():
    with pytest.raises(ValidationError) as exc:
        RibbonGraph(["u", "v"], [("e", ("u", "u"))], {"u": ["e"], "v": []})
    assert exc.value.kind == "loop"


def test_rotation_must_match_incidence():
    with pytest.raises(ValidationError) as exc:
        RibbonGraph(
            ["u", "v"],
            [("e1", ("u", "v")), ("e2", ("u", "v"))],
            {"u": ["e1", "e2"], "v": ["e1"]},
        )
    assert exc.value.kind == "rotation-mismatch"


def test_parse_round_trip():
    G = corpus.k3()
    again = parse_ribbon_graph(G.to_json())
    assert again == G
    assert hash(again) == hash(G)


def test_parse_rejects_disconnected():
    doc = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"id": "e1", "ends": ["a", "b"]},
            {"id": "e2", "ends": ["c", "d"]},
        ],
        "rotation": {"a": ["e1"], "b": ["e1"], "c": ["e2"], "d": ["e2"]},
    }
    with pytest.raises(ValidationError) as exc:
        parse_ribbon_graph(json.dumps(doc))
    assert exc.value.kind == "disconnected"
    # a graph without edges is rejected at parse time as well
    for doc in (
        {"vertices": [], "edges": [], "rotation": {}},
        {"vertices": ["a"], "edges": [], "rotation": {"a": []}},
    ):
        with pytest.raises(ValidationError) as exc:
            parse_ribbon_graph(json.dumps(doc))
        assert exc.value.kind == "empty"


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_ribbon_graph("{not json")


def test_rotation_successor_cycles():
    G = corpus.k3()
    for v in G.vertices:
        e = G.rotation[v][0]
        cur = e
        for _ in range(len(G.rotation[v])):
            cur = G.next_edge(v, cur)
        assert cur == e
        assert G.prev_edge(v, G.next_edge(v, e)) == e


# -- faces and genus ------------------------------------------------------------


def test_theta_planar_faces():
    # frozen: this rotation embeds theta in the plane with 3 faces
    fd = trace_faces(corpus.theta(planar=True))
    assert len(fd.faces) == 3
    assert fd.topological_genus == 0
    assert fd.is_planar


def test_theta_nonplanar_faces():
    # frozen: same underlying graph, mirrored rotation at one vertex: torus
    fd = trace_faces(corpus.theta(planar=False))
    assert len(fd.faces) == 1
    assert fd.topological_genus == 1


def test_k5_genus():
    # frozen: this rotation system of K5 has genus 2 (2 - 5 + 10 - 7 = ... )
    fd = trace_faces(corpus.k5())
    assert fd.topological_genus == 2


def test_face_successor_is_permutation():
    for _, G in corpus.default_corpus()[:10]:
        fd = trace_faces(G)
        darts = set(G.darts())
        covered = [d for face in fd.faces for d in face]
        assert sorted(covered) == sorted(darts)
        for face in fd.faces:
            d = face[0]
            for _ in range(len(face)):
                d = face_successor(G, d)
            assert d == face[0]


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_euler_formula_random(seed):
    G = random_graph(seed)
    fd = trace_faces(G)
    euler = len(G.vertices) - len(G.edges) + len(fd.faces)
    assert euler == 2 - 2 * fd.topological_genus
    assert fd.topological_genus >= 0


# -- spanning trees --------------------------------------------------------------


def test_k3_spanning_trees():
    trees = spanning_trees(corpus.k3())
    assert [sorted(T) for T in trees] == [["a", "b"], ["a", "c"], ["b", "c"]]


def test_single_edge_tree():
    trees = spanning_trees(corpus.single_edge())
    assert trees == (frozenset({"e1"}),)


def test_k5_tree_count():
    # Cayley: 5^3 = 125 labeled trees on 5 vertices
    assert len(spanning_trees(corpus.k5())) == 125


@given(st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_spanning_trees_are_trees(seed):
    G = random_graph(seed)
    trees = spanning_trees(G)
    assert len(trees) == len(set(trees))
    for T in trees:
        assert is_spanning_tree(G, T)
        assert len(T) == len(G.vertices) - 1


def test_tree_path_endpoints():
    G = corpus.k4()
    T = spanning_trees(G)[0]
    for a in G.vertices:
        for b in G.vertices:
            path = tree_path(G, T, a, b)
            if a == b:
                assert path == []
            else:
                assert path[0].tail == a
                assert G.head(path[-1]) == b
                for d, nxt in zip(path, path[1:]):
                    assert G.head(d) == nxt.tail


def test_fundamental_cycle():
    G = corpus.k3()
    T = frozenset({"a", "b"})
    cyc = fundamental_cycle(G, T, "c")
    assert cyc[0].edge == "c"
    assert all(d.edge in T for d in cyc[1:])
    # closed walk
    assert G.head(cyc[-1]) == cyc[0].tail
    with pytest.raises(EdgeInTree):
        fundamental_cycle(G, T, "a")


def test_dart_reverse():
    G = corpus.k3()
    for d in G.darts():
        assert G.reverse(G.reverse(d)) == d
        assert G.head(d) == G.reverse(d).tail

