"""Eigenpairs lifted in closed form: the exact edge energy, the energy
balance every eigenpair obeys, and the cost of a near-axis eigenfunction."""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netwave import counterexample, spectral
from netwave.graph import (build_graph, make_chain, make_circuit, make_star,
                           make_tree_chain)
from netwave.spectral import (_state_norm, eigenfunction, find_eigenvalues,
                              newton_refine)

BOX = (-3.0, 0.5, -12.0, 12.0)


def lengths(count):
    return st.lists(st.integers(50, 150).map(lambda k: f"{k}/100"),
                    min_size=count, max_size=count)


@st.composite
def trees(draw):
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
    ells = draw(lengths(len(edges)))
    return build_graph({"variant": "tree", "vertices": vertices, "edges": [
        {"id": f"e{j}", "tail": f"a{t}", "head": f"a{h}", "length": ell}
        for j, ((t, h), ell) in enumerate(zip(edges, ells))]})


@st.composite
def chains(draw):
    k = draw(st.integers(2, 3))
    masses = [draw(st.sampled_from((0.5, 1.0, 2.0))) for _ in range(k - 1)]
    return make_chain(draw(lengths(k)), masses)


graphs = st.one_of(
    trees(),
    chains(),
    lengths(3).map(lambda ells: make_star(*ells)),
    lengths(1).map(lambda ells: make_circuit(ells[0])),
)


def vertex_value(graph, ef, vid):
    """y at vertex vid, read from one of its edges."""
    edge, d = graph.incident(vid)[0]
    return ef.y(edge.id, edge.ell if d == 1 else 0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=12)
@given(graphs)
def test_every_eigenpair_dissipates_its_energy_at_the_damped_vertices(graph):
    """Re lam = -sum_{v damped} |lam y(v)|^2 for a unit-norm eigenpair: the
    energy balance ties char_matrix, eigenfunction, _state_norm and the
    damping policy together."""
    for root in find_eigenvalues(graph, BOX).roots:
        lam = root.lam
        ef = eigenfunction(graph, lam)
        loss = sum(abs(lam * vertex_value(graph, ef, v.id)) ** 2
                   for v in graph.damped_vertices)
        # relative, or absolute on the axis, where Re lam is zero to rounding
        on_axis = abs(lam.real) <= 1e-12 * abs(lam)
        assert abs(lam.real + loss) <= 1e-9 * (1.0 if on_axis else abs(lam.real))


def quadrature_norm(graph, lam, coefficients, p, q):
    """The H-norm by a Gauss-Legendre rule on each edge."""
    total = 0.0
    for e in graph.edges:
        alpha, gamma = coefficients[e.id]
        nodes, weights = np.polynomial.legendre.leggauss(int(4 * abs(lam) * e.ell) + 80)
        x = 0.5 * e.ell * (nodes + 1.0)
        y = alpha * np.cosh(lam * x) + gamma * np.sinh(lam * x) / lam
        dy = alpha * lam * np.sinh(lam * x) + gamma * np.cosh(lam * x)
        total += 0.5 * e.ell * weights @ (np.abs(dy) ** 2 + np.abs(lam * y) ** 2)
    for v in graph.mass_vertices:
        total += abs(p[v.id]) ** 2 + v.mass * abs(q[v.id]) ** 2
    return np.sqrt(total)


def test_closed_form_norm_matches_a_quadrature_on_both_branches():
    graph = make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0])
    rng = np.random.default_rng(7)

    def draw():
        return complex(*rng.normal(size=2))

    for lam in (-8 + 3j, 0.2 - 1j, -0.3 + 40j, 5j):
        coefficients = {e.id: (draw(), draw()) for e in graph.edges}
        p = {v.id: draw() for v in graph.mass_vertices}
        q = {v.id: draw() for v in graph.mass_vertices}
        want = quadrature_norm(graph, lam, coefficients, p, q)
        assert abs(_state_norm(graph, lam, coefficients, p, q) - want) <= 1e-12 * want


def test_edge_energy_on_the_axis_is_the_star_probes():
    """y = Y cos(beta x) + a sin(beta x) is alpha = Y, gamma = beta a in the
    entire basis at lam = i beta, so both layers' edge energies agree."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        beta, ell = rng.uniform(0.1, 50.0), rng.uniform(0.5, 2.0)
        a, Y = (complex(*rng.normal(size=2)) for _ in range(2))
        want = counterexample._edge_energy(beta, a, Y, ell)
        got = spectral._edge_energy(1j * beta, Y, beta * a, ell)
        assert abs(got - want) <= 1e-12 * want


def test_near_axis_eigenfunction_is_cheap():
    """The sqrt(2) circuit's q = 70 root, polished with no box search."""
    graph = make_circuit("sqrt(2)")
    lam, residual = newton_refine(graph, -5.0607e-5 + 439.83226623j)
    assert residual <= spectral.EIGEN_TOL
    start = time.process_time()
    ef = eigenfunction(graph, lam)
    assert time.process_time() - start < 0.1
    assert abs(_state_norm(graph, lam, ef.coefficients, ef.p, ef.q) - 1.0) <= 1e-12
