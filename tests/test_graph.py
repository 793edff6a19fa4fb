import math

import pytest

from netwave.graph import (
    GraphError,
    Length,
    build_graph,
    load_graph,
    make_chain,
    make_circuit,
    make_star,
    make_tree_chain,
    pi_tree_check,
)


def test_length_parse_pi_literal():
    l = Length.parse("pi*3/2")
    assert l.kind == "pi"
    assert math.isclose(l.value, 1.5 * math.pi)
    assert l.pi_multiple() is None


def test_length_parse_integer_pi_multiple():
    assert Length.parse("pi*2").pi_multiple() == 2
    assert Length.parse("pi*1").pi_multiple() == 1


def test_length_parse_rational_and_sqrt():
    assert Length.parse("3/2").is_rational
    assert math.isclose(Length.parse("sqrt(2)").value, math.sqrt(2.0))
    assert math.isclose(Length.parse("0.75").value, 0.75)


def test_length_rejects_garbage():
    for bad in ("pi*", "sqrt(-2)", "-1", "0", "two"):
        with pytest.raises((GraphError, ValueError)):
            l = Length.parse(bad)
            if not l.value > 0:
                raise GraphError("nonpositive")


def test_tree_chain_builder_shape():
    g = make_tree_chain(["1", "9/10"], [1.0])
    assert g.variant == "tree"
    assert len(g.edges) == 2
    assert len(g.mass_vertices) == 1
    assert len(g.controlled_vertices) == 1
    assert len(g.dirichlet_vertices) == 1


def test_incidence_signs():
    g = make_tree_chain(["1", "9/10"], [1.0])
    mid = g.mass_vertices[0].id
    inc = g.incident(mid)
    assert len(inc) == 2
    # one edge arrives (d=+1 at its head), one departs (d=-1 at its tail)
    assert sorted(d for _, d in inc) == [-1, 1]


def test_pi_tree_check_flags_interior_pi_edge():
    ok, witnesses = pi_tree_check(make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0]))
    assert not ok
    assert len(witnesses) == 1


def test_pi_tree_check_exempts_controlled_edge():
    # the final edge touches the controlled leaf, so pi length is allowed
    ok, witnesses = pi_tree_check(make_tree_chain(["1", "pi*1"], [1.0]))
    assert ok and witnesses == []


def test_pi_tree_check_accepts_generic_lengths():
    ok, _ = pi_tree_check(make_tree_chain(["1", "sqrt(2)", "9/10"], [1.0, 2.0]))
    assert ok


def test_pi_tree_check_rejects_non_tree():
    with pytest.raises(GraphError):
        pi_tree_check(make_circuit("sqrt(2)"))


def test_build_graph_rejects_dangling_edge():
    spec = {
        "variant": "tree",
        "vertices": [{"id": "a", "kind": "root"},
                     {"id": "b", "kind": "controlled"}],
        "edges": [{"id": "e", "tail": "a", "head": "zzz", "length": "1"}],
    }
    with pytest.raises(GraphError):
        build_graph(spec)


def test_build_graph_rejects_mass_leaf():
    spec = {
        "variant": "tree",
        "vertices": [{"id": "a", "kind": "root"},
                     {"id": "b", "kind": "mass", "mass": 1.0}],
        "edges": [{"id": "e", "tail": "a", "head": "b", "length": "1"}],
    }
    with pytest.raises(GraphError):
        build_graph(spec)


def test_build_graph_names_a_missing_field():
    vertices = [{"id": "a", "kind": "root"}, {"id": "b", "kind": "controlled"}]
    edge = {"id": "e", "tail": "a", "head": "b", "length": "1"}
    for key in ("id", "kind"):
        spec = {"vertices": [{k: v for k, v in vertices[0].items() if k != key}],
                "edges": []}
        with pytest.raises(GraphError, match=repr(key)):
            build_graph(spec)
    for key in edge:
        spec = {"vertices": vertices,
                "edges": [{k: v for k, v in edge.items() if k != key}]}
        with pytest.raises(GraphError, match=repr(key)):
            build_graph(spec)


def test_build_graph_defaults_missing_mass_to_unit():
    spec = {
        "variant": "tree",
        "vertices": [
            {"id": "a", "kind": "root"},
            {"id": "b", "kind": "mass"},
            {"id": "c", "kind": "controlled"},
        ],
        "edges": [
            {"id": "e1", "tail": "a", "head": "b", "length": "1"},
            {"id": "e2", "tail": "b", "head": "c", "length": "1"},
        ],
    }
    assert build_graph(spec).vertex("b").mass == 1.0


def test_circuit_builder_has_cycle():
    g = make_circuit("sqrt(2)")
    assert g.variant == "circuit"
    assert len(g.edges) == 4
    assert len(g.mass_vertices) == 3
    assert len(g.dirichlet_vertices) == 1


def test_star_builder():
    g = make_star("1", "1", "sqrt(2)")
    assert g.variant == "star"
    assert len(g.controlled_vertices) == 1
    assert len([v for v in g.vertices if v.kind == "fixed"]) == 2
    assert math.isclose(g.total_length(), 2.0 + math.sqrt(2.0))


def test_chain_builder():
    g = make_chain(["1", "1"], [1.0])
    assert g.variant == "chain"
    assert len(g.dirichlet_vertices) == 1
    assert len(g.controlled_vertices) == 1


def test_load_graph_round_trip(tmp_path):
    import json

    spec = {
        "variant": "tree",
        "vertices": [
            {"id": "a1", "kind": "root"},
            {"id": "a2", "kind": "mass", "mass": 2.0},
            {"id": "a3", "kind": "controlled"},
        ],
        "edges": [
            {"id": "e1", "tail": "a1", "head": "a2", "length": "pi*1/2"},
            {"id": "e2", "tail": "a2", "head": "a3", "length": "1"},
        ],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    g = load_graph(path)
    assert g.vertex("a2").mass == 2.0
    assert g.edges[0].length.kind == "pi"
