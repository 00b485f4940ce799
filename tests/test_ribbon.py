"""Ribbon graph structure: parsing, faces, genus, spanning trees."""

import copy
import gc
import json
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from treetorsor import clear_caches, corpus, ribbon
from treetorsor.errors import EdgeInTree, NotSpanningTree, ParseError, ValidationError
from treetorsor.ribbon import (
    Dart,
    RibbonGraph,
    _shared_tree,
    face_successor,
    fundamental_cycle,
    is_spanning_tree,
    parse_ribbon_graph,
    reach,
    spanning_trees,
    trace_faces,
    tree_path,
)

import random


def random_graph(seed: int) -> RibbonGraph:
    return corpus.random_multigraph(random.Random(seed))


class _UnionFind:
    """Components by union-find: the reference that ``reach`` is checked against."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


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


def test_missing_rotation_is_a_validation_error():
    message = re.escape("no rotation given for vertices ['b']")
    with pytest.raises(ValidationError, match=message) as exc:
        RibbonGraph(["a", "b"], [("e", ("a", "b"))], {"a": ["e"]})
    assert exc.value.kind == "rotation-mismatch"
    # a failed construction leaves no table entry
    bad = (["a", "b"], [("e", ("a", "b"))], {"a": ["e"], "b": ["f"]})
    with pytest.raises(ValidationError):
        RibbonGraph(*bad)
    assert ribbon._intern_key(*bad) not in ribbon._GRAPHS


def test_constructor_rejects_disconnected_and_edgeless_graphs():
    # before any face is traced: neither graph reaches the intern table
    cases = [
        ((["a", "b", "c"], [("e", ("a", "b"))], {"a": ["e"], "b": ["e"], "c": []}), "disconnected"),
        ((["a"], [], {"a": []}), "empty"),
        (([], [], {}), "empty"),
    ]
    for args, kind in cases:
        with pytest.raises(ValidationError) as exc:
            RibbonGraph(*args)
        assert exc.value.kind == kind
        assert ribbon._intern_key(*args) not in ribbon._GRAPHS


# -- interning -----------------------------------------------------------------


def test_equal_constructor_calls_return_one_object():
    G = corpus.k4()
    assert corpus.k4() is G
    assert RibbonGraph(list(G.vertices), [list(e) for e in G.edges], dict(G.rotation)) is G
    assert G.skeleton is G
    H = next(H for H in corpus.rotation_systems(G) if H.rotation != G.incident)
    assert H is not G and H != G and H.skeleton is G


def test_rotation_systems_passes_yield_the_same_objects():
    first = list(corpus.rotation_systems(corpus.k4()))
    second = list(corpus.rotation_systems(corpus.k4()))
    assert len(first) == 16
    assert all(a is b for a, b in zip(first, second))
    assert len({id(G) for G in first}) == 16


def test_copy_and_pickle_return_the_interned_graph():
    G = corpus.theta(planar=False)
    assert copy.copy(G) is G
    assert copy.deepcopy(G) is G
    assert pickle.loads(pickle.dumps(G)) is G


def test_unreferenced_graph_leaves_the_table():
    G = RibbonGraph(["x", "y"], [("lone", ("x", "y"))], {"x": ["lone"], "y": ["lone"]})
    key = G._key
    assert ribbon._GRAPHS[key] is G
    del G
    gc.collect()
    assert key not in ribbon._GRAPHS


def test_parse_round_trip():
    G = corpus.k3()
    assert parse_ribbon_graph(G.to_json()) is G


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


K3_DOC = json.loads(corpus.k3().to_json())
K3_EDGES = K3_DOC["edges"]
TWO_PIECES = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [{"id": "e1", "ends": ["a", "b"]}, {"id": "e2", "ends": ["c", "d"]}],
    "rotation": {"a": ["e1"], "b": ["e1"], "c": ["e2"], "d": ["e2"]},
}
# (fields replaced in the K3 file, the error the parser reports): a file with
# several faults reports the first of them in this order
REJECTED = [
    ({"vertices": "123"}, (ParseError, '"vertices" must be a list of strings')),
    ({"edges": {}}, (ParseError, '"edges" must be a list')),
    ({"edges": [{"id": "a"}]}, (ParseError, "malformed edge entry {'id': 'a'}")),
    ({"edges": []}, (ValidationError, "graph has no edges")),
    ({"edges": [], "rotation": []}, (ValidationError, "graph has no edges")),
    ({"edges": [], "rotation": {"1": "a"}}, (ValidationError, "graph has no edges")),
    ({"edges": [], "vertices": ["1", "1"]}, (ValidationError, "graph has no edges")),
    ({"vertices": [], "edges": [], "rotation": {}}, (ValidationError, "graph has no edges")),
    ({"vertices": ["a"], "edges": [], "rotation": {"a": []}}, (ValidationError, "graph has no edges")),
    ({"rotation": ["a"]}, (ParseError, '"rotation" must map vertices to lists of edge ids')),
    ({"rotation": {**K3_DOC["rotation"], "1": "ac"}},
     (ParseError, '"rotation" must map vertices to lists of edge ids')),
    ({"rotation": {"1": ["a", "c"], "2": ["b", "a"]}},
     (ValidationError, "no rotation given for vertices ['3']")),
    ({"vertices": ["1", "2", "3", "1"]}, (ValidationError, "duplicate vertex identifier")),
    ({"edges": K3_EDGES + [{"id": "a", "ends": ["1", "3"]}]},
     (ValidationError, "duplicate edge identifier")),
    ({"edges": K3_EDGES[:2] + [{"id": "c", "ends": ["3", "3"]}]},
     (ValidationError, "edge 'c' is a loop at '3'")),
    ({"edges": K3_EDGES[:2] + [{"id": "c", "ends": ["3", "9"]}]},
     (ValidationError, "edge 'c' has unknown endpoint")),
    ({"rotation": {**K3_DOC["rotation"], "1": ["a"]}},
     (ValidationError, "rotation at '1' is not a permutation of its incident edges")),
    (TWO_PIECES, (ValidationError, "underlying graph is not connected")),
    ({**TWO_PIECES, "rotation": {"a": ["e1"], "b": ["e1"], "c": ["e2"]}},
     (ValidationError, "no rotation given for vertices ['d']")),
    ({"vertices": ["1", "2", "3", "4"], "rotation": {**K3_DOC["rotation"], "4": []}},
     (ValidationError, "underlying graph is not connected")),
]


@pytest.mark.parametrize("fields,error", REJECTED)
def test_parse_rejection_messages(fields, error):
    with pytest.raises(error[0]) as exc:
        parse_ribbon_graph(json.dumps({**K3_DOC, **fields}))
    assert str(exc.value) == error[1]


def test_rotation_successor_cycles():
    G = corpus.k3()
    for v in G.vertices:
        e = G.rotation[v][0]
        cur = e
        for _ in range(len(G.rotation[v])):
            cur = G.next_edge(v, cur)
        assert cur == e
        assert G._pred[v, G.next_edge(v, e)] == e


# -- faces and genus ------------------------------------------------------------


def test_theta_planar_faces():
    # frozen: this rotation embeds theta in the plane with 3 faces
    fd = trace_faces(corpus.theta(planar=True))
    assert len(fd.faces) == 3
    assert fd.topological_genus == 0  # planar


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


@given(st.integers(0, 200), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_reach_is_the_component_of_the_sources(seed, pick):
    G = random_graph(seed)
    rng = random.Random(pick)
    allowed = {e for e in G.edge_ids if rng.random() < 0.5}
    sources = rng.sample(G.vertices, rng.randint(1, len(G.vertices)))
    uf = _UnionFind(G.vertices)
    for e in allowed:
        uf.union(*G.ends[e])
    roots = {uf.find(s) for s in sources}

    found = reach(G, sources, allowed)
    assert set(found) == {v for v in G.vertices if uf.find(v) in roots}
    order = list(found)
    assert order[: len(sources)] == sources
    for i, (v, e) in enumerate(found.items()):
        if i < len(sources):
            assert e is None
        else:
            assert e in allowed and G.other_end(e, v) in order[:i]
    assert set(reach(G, sources, allowed, lifo=True)) == set(found)
    assert set(reach(G, sources)) == set(G.vertices)


@given(st.integers(0, 200), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_shared_tree_is_the_spanning_tree_check(seed, pick):
    G = random_graph(seed)
    rng = random.Random(pick)
    size = rng.choice([len(G.vertices) - 1, rng.randint(0, len(G.edges))])
    T = frozenset(rng.sample(G.edge_ids, size))
    uf = _UnionFind(G.vertices)
    is_tree = size == len(G.vertices) - 1 and all(uf.union(*G.ends[e]) for e in T)
    clear_caches()
    if not is_tree:
        with pytest.raises(NotSpanningTree):
            _shared_tree(G, T)
    else:
        assert _shared_tree(G, T) is T
        assert _shared_tree(G, frozenset(sorted(T))) is T


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

