import cmath
import math

import numpy as np
import pytest

from netwave.graph import build_graph, make_circuit, make_tree_chain
from netwave.spectral import (
    SpectralError,
    char_det,
    char_matrix,
    eigenfunction,
    find_eigenvalues,
    newton_refine,
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


def test_find_eigenvalues_skips_mass_resonance():
    # stable chain: the cleared factor roots at i/sqrt(m) are not reported
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
