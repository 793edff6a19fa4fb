import cmath
import math

import random

import numpy as np
import pytest
import scipy.linalg
from conftest import graphs, undamped_star
from hypothesis import given, settings
from hypothesis import strategies as st

from netwave.chaincrit import ChainSpec, chain_stable
from netwave.graph import (build_graph, make_chain, make_circuit, make_star,
                           make_tree_chain)
from netwave.spectral import (
    SpectralError,
    _edge_laws,
    _trace_blocks,
    char_det,
    char_matrix,
    eigenfunction,
    find_eigenvalues,
    newton_refine,
    vertex_laws,
)


def matched_edge():
    """Single edge with full absorption at the far end."""
    return build_graph({
        "variant": "tree",
        "vertices": [{"id": "a1", "kind": "root"},
                     {"id": "a2", "kind": "controlled"}],
        "edges": [{"id": "e1", "tail": "a1", "head": "a2", "length": "1"}],
    })


def pi_chain():
    return make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0])


def test_matched_edge_det_is_exponential():
    # elimination by hand: det M(lam) = c * exp(lam * l), c independent of lam
    g = matched_edge()
    ratios = []
    for lam in (0.5 + 2.0j, -1.0 + 5.0j, -0.3 - 7.0j, 2.0 + 0.1j):
        ratios.append(char_det(g, lam) / cmath.exp(lam))
    for r in ratios[1:]:
        assert abs(r - ratios[0]) <= 1e-10 * abs(ratios[0])
    assert abs(ratios[0]) > 0


def test_det_nonzero_at_origin_on_trees():
    for g in (matched_edge(), pi_chain(),
              make_tree_chain(["1", "sqrt(2)"], [2.0])):
        assert abs(char_det(g, 0.0)) > 1e-8


def test_pi_chain_det_vanishes_at_i():
    assert abs(char_det(pi_chain(), 1j)) <= 1e-10


def test_entries_finite_at_mass_resonance():
    # denominators are cleared, so lam = i/sqrt(m) is a regular point
    g = make_tree_chain(["1", "0.9"], [4.0])
    sys = char_matrix(g, 0.5j)
    assert np.all(np.isfinite(sys.matrix.real))
    assert np.all(np.isfinite(sys.matrix.imag))


def test_det_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        lengths = [f"{l:.6f}" for l in rng.uniform(0.5, 2.0, n)]
        masses = rng.uniform(0.5, 3.0, n - 1).tolist()
        g = make_tree_chain(lengths, masses)
        lam = complex(rng.uniform(-2, 0.5), rng.uniform(-10, 10))
        d1 = char_det(g, lam)
        d2 = char_det(g, lam.conjugate())
        assert abs(d2 - d1.conjugate()) <= 1e-9 * max(1.0, abs(d1))


@pytest.mark.parametrize(
    "lam", [0.3 + 2.1j, -1.2 + 7.5j, 1j, -35 + 3j, 1e-6 * (1 + 1j)],
    ids=["right", "left", "mass-resonance", "scaled", "taylor"])
@pytest.mark.parametrize("graph", [
    make_tree_chain(["1", "0.8", "1.3"], [1, 2]),
    make_chain(["1", "1.5", "0.7"], [1, 2]),
    make_circuit("sqrt(2)"),
    make_star("1", "1", "sqrt(2)"),
], ids=["tree", "chain", "circuit", "star"])
def test_dmatrix_matches_finite_differences(graph, lam):
    sys = char_matrix(graph, lam)
    h = 1e-6 * (1.0 + abs(lam))

    def unscaled(z):
        s = char_matrix(graph, z)
        return s.matrix / s.col_scale

    fd = (unscaled(lam + h) - unscaled(lam - h)) / (2.0 * h) * sys.col_scale
    assert np.max(np.abs(sys.dmatrix - fd)) <= 1e-6 * np.max(np.abs(sys.dmatrix))
    # det M loses its relative accuracy further left (cosh + sinh cancel)
    if lam.real >= -3.0:
        fd_log = ((char_det(graph, lam + h) - char_det(graph, lam - h))
                  / (2.0 * h * char_det(graph, lam)))
        assert abs(sys.log_derivative() - fd_log) <= 1e-6 * abs(fd_log)


def test_matched_edge_has_no_roots():
    report = find_eigenvalues(matched_edge(), (-5.0, 0.5, -20.0, 20.0))
    assert report.roots == []


def test_pi_chain_root_at_i():
    lam, res = newton_refine(pi_chain(), 0.97j)
    assert abs(lam - 1j) <= 1e-8
    assert res <= 1e-9


def test_circuit_half_length_root_at_2pi():
    g = make_circuit("1/2")
    lam, res = newton_refine(g, 6.2j)
    assert abs(lam - 2j * math.pi) <= 1e-8
    assert res <= 1e-9


def test_find_eigenvalues_reports_left_half_plane():
    g = make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0])
    report = find_eigenvalues(g, (-3.0, 0.5, -12.0, 12.0))
    assert report.roots
    for r in report.roots:
        assert r.lam.real <= 1e-9
        assert r.residual <= 1e-9


def test_find_eigenvalues_survives_newton_landing_on_a_root():
    # a Newton step lands exactly on a root here, where M(lam) is singular
    g = make_tree_chain(["43/50", "57/50"], [1.0])
    report = find_eigenvalues(g, (-3.0, 0.5, -12.0, 12.0))
    assert len(report.roots) == 8
    for r in report.roots:
        assert r.lam.real < 0
        assert r.residual <= 1e-9


def test_char_matrix_overflow_is_a_spectral_error():
    # cosh(lam l) overflows once |Re lam| l exceeds about 710
    with pytest.raises(SpectralError, match="overflows"):
        char_det(make_tree_chain(["1", "0.9"], [1.0]), -1000.0)


def test_newton_refine_stops_where_m_overflows():
    _, residual = newton_refine(make_tree_chain(["1", "0.9"], [1.0]), -800.0 + 1j)
    assert residual == math.inf


def test_find_eigenvalues_skips_mass_resonance():
    # the stable chain has no root at its mass resonance i, where |det M| = 0.84,
    # and the search reports none there
    g = make_tree_chain(["1", "0.9"], [1.0])
    report = find_eigenvalues(g, (-0.5, 0.1, 0.5, 1.5))
    for r in report.roots:
        assert abs(r.lam - 1j) > 1e-6


def test_eigenfunction_pi_mode():
    g = pi_chain()
    lam, _ = newton_refine(g, 1j)
    ef = eigenfunction(g, lam)
    assert ef.residual <= 1e-12
    assert ef.null_space_dim == 1
    scale = 1.0 / ef.p["a2"]
    assert abs(ef.q["a2"] * scale - 1j) <= 1e-6
    xs = np.linspace(0.0, math.pi, 9)
    y = ef.y("e2", xs) * scale
    target = 1j * np.sin(xs)
    match = min(np.max(np.abs(y - s * target)) for s in (1.0, -1.0))
    assert match <= 1e-6
    # the edges outside the pi edge carry nothing
    assert np.max(np.abs(ef.y("e1", np.linspace(0, 1, 5)))) <= 1e-8
    assert np.max(np.abs(ef.y("e3", np.linspace(0, 1, 5)))) <= 1e-8


def test_eigenfunction_unit_norm():
    g = pi_chain()
    lam, _ = newton_refine(g, 1j)
    ef = eigenfunction(g, lam)
    # unit state norm by the same quadrature the module uses
    from netwave.spectral import _state_norm

    assert abs(_state_norm(g, lam, ef.coefficients, ef.p, ef.q) - 1.0) <= 1e-8


def test_eigenfunction_rejects_regular_point():
    with pytest.raises(SpectralError):
        eigenfunction(pi_chain(), 0.5 + 0.5j)


def test_winding_count_matches_roots():
    g = make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0])
    report = find_eigenvalues(g, (-3.0, 0.5, -8.0, 8.0))
    # conjugate pairing of the located roots
    ims = sorted(round(r.lam.imag, 6) for r in report.roots)
    assert ims == sorted(-v for v in ims)


def double_root_tree():
    """root -1- A (m = 1) with three identical branches A -7/10- B_i (m = 2)
    -6/5- controlled leaf: the branch symmetry doubles some roots."""
    vertices = [{"id": "r", "kind": "root"}, {"id": "A", "kind": "mass", "mass": 1.0}]
    edges = [{"id": "e0", "tail": "r", "head": "A", "length": "1"}]
    for i in range(3):
        vertices += [{"id": f"B{i}", "kind": "mass", "mass": 2.0},
                     {"id": f"L{i}", "kind": "controlled"}]
        edges += [{"id": f"a{i}", "tail": "A", "head": f"B{i}", "length": "7/10"},
                  {"id": f"b{i}", "tail": f"B{i}", "head": f"L{i}", "length": "6/5"}]
    return build_graph({"variant": "tree", "vertices": vertices, "edges": edges})


@pytest.mark.parametrize("graph, box, count", [
    (make_tree_chain(["1"] * 7, [1.0] * 6), (-3.0, 0.5, -12.0, 12.0), 58),
    (make_tree_chain(["1"] * 7, [1.0] * 6), (-3.3, 0.7, -12.4, 12.4), 58),
    (make_chain(["1", "1.5", "0.7"], [1.0, 2.0]), (-5.0, 0.5, -20.0, 20.0), 32),
    (double_root_tree(), (-3.0, 0.5, -6.0, 6.0), 14),
], ids=["unit-chain-7", "unit-chain-7-wider", "chain-3", "double-root-tree"])
def test_find_eigenvalues_counts_roots(graph, box, count):
    report = find_eigenvalues(graph, box)
    assert len(report.roots) == count
    for r in report.roots:
        assert r.residual <= 1e-9
        assert box[0] <= r.lam.real <= box[1] and box[2] <= r.lam.imag <= box[3]


def test_find_eigenvalues_reports_multiplicity():
    g = double_root_tree()
    doubles = [r.lam for r in find_eigenvalues(g, (-3.0, 0.5, -6.0, 6.0)).roots
               if r.box_count == 2]
    expected = (-0.0339 + 0.6137j, -0.0339 - 0.6137j,
                -1.8473 + 2.9890j, -1.8473 - 2.9890j)
    assert len(doubles) == 4
    for lam in expected:
        assert min(abs(d - lam) for d in doubles) <= 1e-4
    for lam in doubles:
        assert eigenfunction(g, lam).null_space_dim == 2


def test_eigenfunction_counts_the_null_space_of_double_roots():
    # the roots as polished in a wider box, where the two smallest singular
    # values differ by a factor over 10 though both are round-off
    g = double_root_tree()
    doubles = [r.lam for r in find_eigenvalues(g, (-4.0, 0.5, -15.0, 15.0)).roots
               if r.box_count == 2]
    for lam in (-1.8473 + 2.9890j, -2.7897 + 12.1943j):
        root = min(doubles, key=lambda d: abs(d - lam))
        assert abs(root - lam) <= 1e-4
        assert eigenfunction(g, root).null_space_dim == 2


def test_find_eigenvalues_rejects_reversed_box():
    with pytest.raises(SpectralError):
        find_eigenvalues(pi_chain(), (0.5, -3.0, -12.0, 12.0))


@pytest.mark.parametrize("box, message", [
    ((-1e308, 1e308, -1.0, 1.0), "finite width"),  # re1 - re0 overflows to inf
    ((-3.0, 1e10, 0.0, 1e-320), "contour node"),  # the strip count underflows to 0
], ids=["width-overflows", "height-underflows"])
def test_find_eigenvalues_searches_at_least_one_strip(box, message):
    # both boxes were searched with no strip at all and reported no roots
    with pytest.raises(SpectralError, match=message):
        find_eigenvalues(make_tree_chain(["1", "0.9"], [1.0]), box)


def test_find_eigenvalues_takes_a_box_far_taller_than_wide():
    # its height over width overflows to inf, which is capped at MAX_STRIPS
    # before it is rounded up to a strip count
    box = (0.0, 1e-320, -1.0, 1.0)
    assert find_eigenvalues(make_tree_chain(["1", "0.9"], [1.0]), box).roots == []


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_find_eigenvalues_rejects_bad_tol(tol):
    with pytest.raises(SpectralError, match="tol"):
        find_eigenvalues(pi_chain(), (-3.0, 0.5, -12.0, 12.0), tol=tol)


@st.composite
def chains(draw):
    k = draw(st.integers(2, 4))
    lengths = [f"{draw(st.integers(50, 150))}/100" for _ in range(k)]
    masses = [draw(st.sampled_from((0.5, 1.0, 2.0))) for _ in range(k - 1)]
    if draw(st.booleans()):  # resonant: a unit last mass behind a pi edge
        lengths.append("pi*1")
        masses.append(1.0)
    return make_chain(lengths, masses)


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(chains())
def test_spectrum_agrees_with_chain_predicate(graph):
    roots = find_eigenvalues(graph, (-3.0, 0.5, -12.0, 12.0)).roots
    spec = ChainSpec(tuple(e.ell for e in graph.edges),
                     tuple(v.mass for v in graph.mass_vertices))
    axis = any(r.lam.real >= -1e-12 for r in roots)
    assert axis == (not chain_stable(spec).stable)
    for r in roots:
        assert r.residual <= 1e-9
        assert min(abs(s.lam - r.lam.conjugate()) for s in roots) <= 1e-8 * (1 + abs(r.lam))


# -- the law table ------------------------------------------------------------


def cleared_laws(graph):
    """The cubic law table written out by hand, the oracle for `_edge_laws`:
    y = 0 at a pinned vertex, else continuity and the flux law with the
    oscillator eliminated, its denominator (m lam^2 + 1) cleared:
    (m lam^2 + 1)(sum d y' + c lam y) + lam^2 y [oscillator] = 0."""
    ne = len(graph.edges)
    offset = {e.id: 4 * j for j, e in enumerate(graph.edges)}
    table = np.zeros((4, 2 * ne, 4 * ne))
    pinned, damped = graph.dirichlet_vertices, graph.damped_vertices
    row = 0
    for v in graph.vertices:
        ends = [offset[e.id] + (2 if d == 1 else 0) for e, d in graph.incident(v.id)]
        ref = ends[0]
        if v in pinned:
            table[0, row, ref] = 1.0
        else:
            for end in ends[1:]:
                table[0, row, end] = 1.0
                table[0, row, ref] = -1.0
                row += 1
            m, c = v.mass or 0.0, float(v in damped)
            fluxes = [end + 1 for end in ends]
            table[0, row, fluxes] = 1.0
            table[2, row, fluxes] = m
            table[1, row, ref] = c
            table[3, row, ref] = c * m
            table[2, row, ref] = v.mass is not None
        row += 1
    table = table.reshape(4, 2 * ne, ne, 4).transpose(2, 1, 0, 3)
    return np.ascontiguousarray(table.reshape(ne, 2 * ne, 16))


def random_network(rng, n_edges):
    """A tree (root leaf, masses inside, controlled leaves) or a chain
    (controlled, masses, fixed) of n_edges edges, masses in [1/2, 2]."""
    masses = [round(rng.uniform(0.5, 2.0), 2) for _ in range(n_edges)]
    lengths = [f"{rng.randint(500, 1500)}/1000" for _ in range(n_edges)]
    if rng.random() < 0.5:
        return make_chain(lengths, masses[1:])
    parent = {1: 0, **{k: rng.randint(1, k - 1) for k in range(2, n_edges + 1)}}
    inner = set(parent.values())
    vertices = [{"id": "v0", "kind": "root"}] + [
        {"id": f"v{k}", "kind": "mass", "mass": masses[k - 1]} if k in inner
        else {"id": f"v{k}", "kind": "controlled"} for k in range(1, n_edges + 1)]
    return build_graph({"variant": "tree", "vertices": vertices, "edges": [
        {"id": f"e{k}", "tail": f"v{p}", "head": f"v{k}", "length": length}
        for (k, p), length in zip(sorted(parent.items()), lengths)]})


NAMED_GRAPHS = [
    make_circuit("sqrt(2)"),
    make_circuit("1/2"),
    make_star("1", "1", "sqrt(2)"),
    make_tree_chain(["1", "0.9"], [1.0]),
    make_tree_chain(["1", "0.9"], [4.0]),
    make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0]),
    make_tree_chain(["1"] * 7, [1.0] * 6),
    make_tree_chain(["pi*1/2", "1"], [2.0]),
    make_chain(["1", "1.5", "0.7"], [1.0, 2.0]),
    make_chain(["1.3", "0.7"], [0.5]),
    make_chain(["1", "pi*1"], [1.0]),
    pi_chain(),
    matched_edge(),
    double_root_tree(),
    undamped_star(),
]


@pytest.mark.parametrize("graph", NAMED_GRAPHS + [
    random_network(random.Random(seed), n) for seed, n in enumerate((1, 2, 3, 5, 8, 13, 21, 34, 48) * 3)])
def test_edge_laws_are_the_hand_cleared_table(graph):
    """Eliminating each oscillator from `vertex_laws` gives the hand-cleared
    cubic table to the bit, zero signs included."""
    assert _edge_laws(graph).tobytes() == cleared_laws(graph).tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(graphs)
def test_edge_laws_are_the_hand_cleared_table_on_random_networks(graph):
    assert _edge_laws(graph).tobytes() == cleared_laws(graph).tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(graphs)
def test_clearing_adds_no_roots(graph):
    """det M = +-det F for the first-order system F(lam) = R(lam) diag(T(lam),
    I) of `vertex_laws`, also at each mass resonance +-i/sqrt(m), where the
    cleared denominator m lam^2 + 1 vanishes: clearing adds no root."""
    laws, nk = vertex_laws(graph), len(graph.mass_vertices)
    rng = np.random.default_rng(len(graph.edges) + 10 * nk)
    lams = [complex(rng.uniform(-2.0, 0.5), rng.uniform(-8.0, 8.0)) for _ in range(4)]
    lams += [s * 1j / math.sqrt(v.mass) for v in graph.mass_vertices for s in (1, -1)]
    for lam in lams:
        t = _trace_blocks(graph, np.array([lam]))[:, :, 0, :, 0]
        det_f = np.linalg.det((laws[0] + lam * laws[1])
                              @ scipy.linalg.block_diag(*t, np.eye(2 * nk)))
        det_m = char_matrix(graph, lam).det()
        assert min(abs(det_m - det_f), abs(det_m + det_f)) <= 1e-11 * abs(det_f)
