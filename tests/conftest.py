"""Random networks shared by the test modules: `graphs` draws trees, chains,
stars and circuits with rational lengths and masses in {1/2, 1, 2}, so every
module that tests a property over random networks draws the same ones."""

from hypothesis import strategies as st

from netwave.graph import build_graph, make_chain, make_circuit, make_star


def edge_lengths(count):
    return st.lists(st.integers(50, 150).map(lambda k: f"{k}/100"),
                    min_size=count, max_size=count)


@st.composite
def mass_trees(draw):
    """A root on mass a1; each further mass hangs off an earlier one, and
    every mass without a mass child carries at least one controlled leaf."""
    n = draw(st.integers(1, 3))
    parent = {1: 0}
    for k in range(2, n + 1):
        parent[k] = draw(st.integers(1, k - 1))
    edges = [(parent[k], k) for k in range(1, n + 1)]
    leaf = n + 1
    for k in range(1, n + 1):
        has_child = k in parent.values()
        for _ in range(draw(st.integers(0 if has_child else 1, 1))):
            edges.append((k, leaf))
            leaf += 1
    masses = st.sampled_from((0.5, 1.0, 2.0))
    vertices = ([{"id": "a0", "kind": "root"}]
                + [{"id": f"a{k}", "kind": "mass", "mass": draw(masses)}
                   for k in range(1, n + 1)]
                + [{"id": f"a{k}", "kind": "controlled"} for k in range(n + 1, leaf)])
    ells = draw(edge_lengths(len(edges)))
    return build_graph({"variant": "tree", "vertices": vertices, "edges": [
        {"id": f"e{j}", "tail": f"a{t}", "head": f"a{h}", "length": ell}
        for j, ((t, h), ell) in enumerate(zip(edges, ells))]})


@st.composite
def mass_chains(draw):
    k = draw(st.integers(2, 3))
    masses = [draw(st.sampled_from((0.5, 1.0, 2.0))) for _ in range(k - 1)]
    return make_chain(draw(edge_lengths(k)), masses)


graphs = st.one_of(
    mass_trees(),
    mass_chains(),
    edge_lengths(3).map(lambda ells: make_star(*ells)),
    edge_lengths(1).map(lambda ells: make_circuit(ells[0])),
)


def undamped_star():
    """Center mass with three clamped strings: no dissipation anywhere."""
    return build_graph({
        "variant": "star",
        "vertices": [
            {"id": "c", "kind": "mass", "mass": 1.5},
            {"id": "s1", "kind": "fixed"},
            {"id": "s2", "kind": "fixed"},
            {"id": "s3", "kind": "fixed"},
        ],
        "edges": [
            {"id": "e1", "tail": "c", "head": "s1", "length": "1"},
            {"id": "e2", "tail": "c", "head": "s2", "length": "0.8"},
            {"id": "e3", "tail": "c", "head": "s3", "length": "1.3"},
        ],
    })
