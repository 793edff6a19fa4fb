import math

import mpmath as mp
import pytest

from netwave.counterexample import (
    AxisEigenvalue,
    ConvergentPair,
    CounterexampleError,
    _h_norm2,
    _trig_norm2,
    asymptotic_defects,
    bracketing_angles,
    circuit_solve,
    dirichlet_convergents,
    growth_law,
    star_probe,
)
from netwave.graph import Length


def brute_force_pairs(ell, qmax):
    """Best rational approximations with |q ell - p| < 1/q, by search.

    Keeps (p, q) only when its error beats every smaller denominator, which
    characterizes the continued-fraction convergents.
    """
    out = []
    with mp.workdps(60):
        x = mp.mpf(ell) if not isinstance(ell, str) else mp.sqrt(2)
        best = mp.inf
        for q in range(1, qmax + 1):
            p = int(mp.nint(q * x))
            err = abs(q * x - p)
            if p > 0 and err < mp.mpf(1) / q and err < best:
                out.append((p, q))
            best = min(best, err)
    return out


def test_sqrt2_convergents_match_brute_force():
    got = [(c.p, c.q) for c in dirichlet_convergents("sqrt(2)", 5)]
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    assert got == brute_force_pairs("sqrt(2)", 50)


def test_golden_ratio_convergents_are_fibonacci():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    got = [(c.p, c.q) for c in dirichlet_convergents(phi, 9)]
    oracle = brute_force_pairs(phi, max(q for _, q in got))
    # the leading convergent 1/1 ties the 2/1 error at q = 1; the search
    # keeps only the improving one, so compare past it
    assert set(oracle) <= set(got) | {(2, 1)}
    # consecutive Fibonacci numbers
    for p, q in got:
        a, b = 1, 1
        while b < q:
            a, b = b, a + b
        assert (q, p) in ((b, a + b), (1, 1), (1, 2))


def test_convergents_satisfy_inequality_exactly():
    with mp.workdps(200):
        x = mp.sqrt(2)
        for c in dirichlet_convergents("sqrt(2)", 20):
            assert abs(c.q * x - c.p) < mp.mpf(1) / c.q
    qs = [c.q for c in dirichlet_convergents("sqrt(2)", 20)]
    assert qs == sorted(qs) and len(set(qs)) == len(qs)


def test_rational_length_refused():
    with pytest.raises(AxisEigenvalue) as exc:
        dirichlet_convergents("3/2", 3)
    assert exc.value.beta == pytest.approx(2.0 * math.pi)


def test_terminating_expansion_reports_cap():
    # a dyadic float runs out of continued-fraction terms
    with pytest.raises(CounterexampleError):
        dirichlet_convergents(0.5, 5)


def test_beta_formula_at_q16():
    # q = 16 has q^{1/4} = 2, so beta = 32 pi + pi = 33 pi exactly
    probe = circuit_solve(None, "sqrt(2)", pair=ConvergentPair(23, 16))
    assert float(probe.beta) == pytest.approx(33.0 * math.pi, rel=1e-12)


def test_eqcir_matches_full_system():
    for c in dirichlet_convergents("sqrt(2)", 12):
        probe = circuit_solve(None, "sqrt(2)", pair=c)
        assert probe.eqcir_rel_diff <= 1e-10


def test_circuit_solve_at_generic_beta():
    probe = circuit_solve(7.3, "sqrt(2)")
    assert probe.q is None
    assert probe.eqcir_rel_diff <= 1e-10


def test_circuit_rational_length_refused():
    with pytest.raises(AxisEigenvalue):
        circuit_solve(7.3, "1/2")


def test_asymptotic_defects_decrease():
    pairs = dirichlet_convergents("sqrt(2)", 24)
    d_small = asymptotic_defects(circuit_solve(None, "sqrt(2)", pair=pairs[11]))
    d_large = asymptotic_defects(circuit_solve(None, "sqrt(2)", pair=pairs[23]))
    for key in d_small:
        assert d_large[key] < d_small[key]
    # the leading coefficient of A: A * q^{1/4} -> 2 pi (2 + l4)
    assert d_large["A"] < 0.05


def test_bracketing_angles_hold_beyond_threshold():
    for c in dirichlet_convergents("sqrt(2)", 20):
        if c.q < 1100:  # below the threshold n_0 the pi/2 cap can fail
            continue
        lam, theta, mu = bracketing_angles(c, "sqrt(2)")
        assert 0 < lam < theta < mu < math.pi / 2


@pytest.mark.parametrize("length", ["0", "-1"])
def test_nonpositive_length_refused_as_such(length):
    for probe in (lambda: dirichlet_convergents(length, 3),
                  lambda: circuit_solve(7.3, length),
                  lambda: growth_law([], length)):
        with pytest.raises(CounterexampleError, match="positive"):
            probe()


def test_growth_law_requires_probes():
    pairs = dirichlet_convergents("sqrt(2)", 2)
    probes = [circuit_solve(None, "sqrt(2)", pair=c) for c in pairs]
    with pytest.raises(CounterexampleError):
        growth_law(probes, "sqrt(2)")


def test_growth_law_rational_refused():
    with pytest.raises(AxisEigenvalue):
        growth_law([], "2/3")


def test_growth_law_reports_measured_ratios():
    pairs = dirichlet_convergents("sqrt(2)", 10)
    probes = [circuit_solve(None, "sqrt(2)", pair=c) for c in pairs]
    report = growth_law(probes, "sqrt(2)")
    assert len(report.ratios) == len(report.qs) == 10
    assert report.predicted == pytest.approx(
        2 * math.sqrt(2) * (2 * math.sqrt(2) + 1) / (math.sqrt(2) + 2))
    assert report.verdict in ("non-exponential", "inconclusive")


def test_star_probe_is_resolvent_lower_bound():
    from netwave.graph import make_star
    from netwave.resolvent import assemble_generator, resolvent_norm

    graph = make_star("1", "1", "sqrt(2)")
    for beta in (3.7, 5.2):
        probe = star_probe(beta, "sqrt(2)")
        gen = assemble_generator(graph, 1.0 / 200.0)
        assert probe.norm_ratio <= 1.05 * resolvent_norm(gen, beta)


@pytest.mark.parametrize("beta", [3.7, 5.2])
def test_star_probe_matches_discrete_resolvent(beta):
    # the probe's centre value against y(c) of (i beta - A_h)^{-1} f, with f
    # the forcing -sin(beta x) in v on the clamped edge e2 (x from the centre)
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    from netwave.graph import make_star
    from netwave.resolvent import assemble_generator

    gen = assemble_generator(make_star("1", "1", "sqrt(2)"), 1.0 / 800.0)
    lay = gen.layout
    forcing = np.zeros(lay.ndof)
    nodes = lay.edge_nodes["e2"]
    forcing[nodes] = -np.sin(beta * np.linspace(0.0, 1.0, len(nodes)))
    nf, nm = gen.nfield, len(gen.mass_ids)
    f = np.concatenate([np.zeros(nf), forcing[gen.keep], np.zeros(2 * nm)])
    L = (1j * beta) * sp.identity(gen.dim, format="csc") - gen.A.tocsc()
    z = spsolve(L, f)
    center = z[np.searchsorted(gen.keep, lay.vertex_dof["c"])]
    probe = star_probe(beta, "sqrt(2)")
    assert abs(probe.center_value - center) <= 1e-3 * abs(center)


def test_star_probe_pi_multiple_refused():
    with pytest.raises(AxisEigenvalue):
        star_probe(3.0, "pi*2")


def test_star_probe_along_convergents_is_finite():
    for c in dirichlet_convergents("sqrt(2)", 8):
        probe = star_probe(None, "sqrt(2)", pair=c)
        assert math.isfinite(probe.norm_ratio)
        assert probe.norm_ratio > 0


@pytest.mark.parametrize("beta", [3.7, 40])
@pytest.mark.parametrize("ell", ["1", "sqrt(2)"])
def test_h_norm_matches_quadrature(beta, ell):
    # the closed form against Gauss-Legendre quadrature of the same field
    # y = P sin(beta x) + Q cos(beta x), with P, Q linear and complex
    with mp.workdps(50):
        L, b = Length.parse(ell).mpf(), mp.mpf(beta)
        P = [mp.mpc("0.3", "-1.2"), mp.mpc("0.7", "0.4")]
        Q = [mp.mpc("-0.5", "0.9"), mp.mpc("1.1", "-0.6")]

        def y(x):
            return (P[0] + P[1] * x) * mp.sin(b * x) + (Q[0] + Q[1] * x) * mp.cos(b * x)

        def dy(x):
            return (P[1] * mp.sin(b * x) + b * (P[0] + P[1] * x) * mp.cos(b * x)
                    + Q[1] * mp.cos(b * x) - b * (Q[0] + Q[1] * x) * mp.sin(b * x))

        def quad(f):
            return mp.quad(f, mp.linspace(0, L, 9), method="gauss-legendre")

        want = quad(lambda x: abs(y(x)) ** 2)
        assert abs(_trig_norm2(P, Q, b, L) - want) <= 1e-30 * want
        want = quad(lambda x: abs(dy(x)) ** 2 + b**2 * abs(y(x)) ** 2)
        assert abs(_h_norm2(P, Q, b, L) - want) <= 1e-30 * want
