import math

import mpmath as mp
import pytest

from netwave import counterexample
from netwave.cli import main
from netwave.counterexample import (
    AxisEigenvalue,
    ConvergentPair,
    CounterexampleError,
    _edge_energy,
    _lu_solve,
    _precision_for,
    _probe_angles,
    asymptotic_defects,
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


def q_above_one(pairs):
    """The convergents that circuit probes accept."""
    return [c for c in pairs if c.q > 1]


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


def test_a_count_past_the_cap_is_refused_before_any_precision(monkeypatch):
    # CONVERGENT_CAP iterations find at most CONVERGENT_CAP convergents; a
    # larger count must not first ask mpmath for 60 + count digits
    def refuse(dps):
        raise AssertionError(f"asked for {dps} digits")

    monkeypatch.setattr(mp, "workdps", refuse)
    with pytest.raises(CounterexampleError, match="cap"):
        dirichlet_convergents("sqrt(2)", counterexample.CONVERGENT_CAP + 1)


def test_convergent_precision_follows_the_denominators(monkeypatch):
    # sqrt(2)'s denominators gain 0.38 digits a convergent, so 1000 of them
    # need some 810 digits: no pass may ask for twice the count or more
    asked = []
    workdps = mp.workdps

    def spy(dps):
        asked.append(dps)
        return workdps(dps)

    monkeypatch.setattr(mp, "workdps", spy)
    assert len(dirichlet_convergents("sqrt(2)", 1000)) == 1000
    assert asked and max(asked) <= 60 + 2 * 1000


@pytest.mark.parametrize("ell", ["sqrt(99)", "pi*3/2"])
def test_a_too_short_precision_is_doubled(ell):
    # both outgrow the first 60 + count digits by the 1000th convergent
    length = Length.parse(ell)
    _, q = counterexample._convergents(length, 1000, 60 + 1000)
    assert 2 * len(str(q)) + 40 > 60 + 1000
    reference, _ = counterexample._convergents(length, 1000, 2000)
    assert dirichlet_convergents(ell, 1000) == reference


def test_convergents_past_the_int_to_str_limit_satisfy_dirichlet():
    # the expansion of pi*1e-200 at too short a precision forms a denominator
    # past Python's 4300-digit limit on int-to-str conversion before the
    # precision is doubled
    pairs = dirichlet_convergents("pi*1e-200", 42)
    assert len(pairs) == 42
    assert all(a.q < b.q for a, b in zip(pairs, pairs[1:]))
    with mp.workdps(1000):
        ell = Length.parse("pi*1e-200").mpf()
        assert all(abs(c.q * ell - c.p) * c.q < 1 for c in pairs)


def test_beta_formula_at_q16():
    # q = 16 has q^{1/4} = 2, so beta = 32 pi + pi = 33 pi exactly
    probe = circuit_solve(None, "sqrt(2)", pair=ConvergentPair(23, 16))
    assert float(probe.beta) == pytest.approx(33.0 * math.pi, rel=1e-12)


def test_eqcir_matches_full_system():
    for c in q_above_one(dirichlet_convergents("sqrt(2)", 12)):
        probe = circuit_solve(None, "sqrt(2)", pair=c)
        assert probe.eqcir_rel_diff <= 1e-10


@pytest.mark.parametrize("pair", [ConvergentPair(1, 1), ConvergentPair(2, 1)],
                         ids=["1/1", "2/1"])
def test_circuit_solve_refuses_q_one(pair):
    # theta_1 = 2 pi at q = 1, so b_1 = 0 and sin(theta_1) = 0
    with pytest.raises(CounterexampleError, match="q > 1"):
        circuit_solve(None, "sqrt(3)", pair=pair)


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


def bracketing_angles(pair: ConvergentPair, l4) -> tuple:
    """(lambda_n, theta_n, mu_n) with theta_n = beta_n l4 - 2 pi p_n.

    For large enough q the reduced angle theta_n is bracketed as
    0 < lambda_n < theta_n < mu_n < pi/2 where
    lambda_n, mu_n = -+ 2 pi / q + 2 pi l4 / q^{1/4}.
    """
    with mp.workdps(_precision_for(pair.q)):
        l4v = Length.parse(l4).mpf()
        _, th1, theta = _probe_angles(None, l4v, pair)
        gap = 2 * mp.pi / pair.q
        return th1 * l4v - gap, theta, th1 * l4v + gap


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
    pairs = q_above_one(dirichlet_convergents("sqrt(2)", 3))
    probes = [circuit_solve(None, "sqrt(2)", pair=c) for c in pairs]
    with pytest.raises(CounterexampleError):
        growth_law(probes, "sqrt(2)")


def test_growth_law_rational_refused():
    with pytest.raises(AxisEigenvalue):
        growth_law([], "2/3")


def test_growth_law_reports_measured_ratios():
    pairs = q_above_one(dirichlet_convergents("sqrt(2)", 11))
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
        gen = assemble_generator(graph, 200.0)
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

    gen = assemble_generator(make_star("1", "1", "sqrt(2)"), 800.0)
    lay = gen.layout
    forcing = np.zeros(lay.ndof + 2)  # the two clamped ends follow the unknowns
    nodes = lay.edge_nodes["e2"]
    forcing[nodes] = -np.sin(beta * np.linspace(0.0, 1.0, len(nodes)))
    nf, nm = gen.nfield, len(gen.layout.mass_ids)
    f = np.concatenate([np.zeros(nf), forcing[:lay.ndof], np.zeros(2 * nm)])
    L = (1j * beta) * sp.identity(gen.dim, format="csc") - gen.A.tocsc()
    z = spsolve(L, f)
    center = z[lay.vertex_dof["c"]]
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
    # the closed-form edge energies against Gauss-Legendre quadrature of
    # |y'|^2 + beta^2 |y|^2 for y = a sin(beta x) + Q cos(beta x): a constant
    # Q = Y on [0, ell], and the unit forced edge's Q = Y - x/(2 beta)
    with mp.workdps(50):
        L, b = Length.parse(ell).mpf(), mp.mpf(beta)
        a, Y = mp.mpc("0.3", "-1.2"), mp.mpc("-0.5", "0.9")

        def energy(slope, end):
            def density(x):
                Q = Y - slope * x
                y = a * mp.sin(b * x) + Q * mp.cos(b * x)
                dy = b * a * mp.cos(b * x) - b * Q * mp.sin(b * x) - slope * mp.cos(b * x)
                return abs(dy) ** 2 + b**2 * abs(y) ** 2

            return mp.quad(density, mp.linspace(0, end, 9), method="gauss-legendre")

        want = energy(0, L)
        assert abs(_edge_energy(b, a, Y, L) - want) <= 1e-30 * want
        want = energy(1 / (2 * b), 1)
        got = _edge_energy(b, a, Y, trig=(mp.sin(b), mp.cos(b)))
        assert abs(got - want) <= 1e-30 * want


@pytest.mark.parametrize("solve, beta, message", [
    (star_probe, 1.0, "resonates"),
    (star_probe, -1.0, "resonates"),
    (star_probe, 0.0, "beta = 0"),
    (circuit_solve, 0.0, "beta = 0"),
    (star_probe, math.inf, "not finite"),
    (circuit_solve, math.nan, "not finite"),
], ids=["star-1", "star-minus-1", "star-0", "circuit-0", "star-inf", "circuit-nan"])
def test_degenerate_frequency_refused(solve, beta, message):
    with pytest.raises(CounterexampleError, match=message):
        solve(beta, "sqrt(2)")


# -- the boundary-system solvers ----------------------------------------------


PROBE_LADDERS = [
    ("sqrt(2)", 30), ("sqrt(3)", 30),
    # the largest ladders of the benchmark's radicands, and a length whose
    # systems hold beta ~ 1e30 rows beside 1/(2 beta) right-hand sides
    ("sqrt(7/3)", 42), ("sqrt(11/2)", 42), ("pi*1e-30", 5),
]
LADDER_IDS = ["sqrt(2)", "sqrt(3)", "sqrt(7/3)", "sqrt(11/2)", "pi*1e-30"]


@pytest.mark.parametrize("ell, count", PROBE_LADDERS, ids=LADDER_IDS)
def test_lu_solve_matches_mpmath_on_probe_systems(monkeypatch, ell, count):
    # every circuit system of the first `count` convergents (q > 1)
    solved = []

    def checked(rows, rhs):
        x = _lu_solve(rows, rhs)
        reference = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
        error = mp.norm(mp.matrix(x) - reference) / mp.norm(reference)
        assert error <= 1e4 * mp.eps
        solved.append(len(rows))
        return x

    monkeypatch.setattr(counterexample, "_lu_solve", checked)
    circuit_pairs = q_above_one(dirichlet_convergents(ell, count))
    for pair in circuit_pairs:
        circuit_solve(None, ell, pair=pair)
    assert solved == [6] * len(circuit_pairs)


# sqrt(9/8) has convergents 1/1 and 17/16: at q = 16, theta_1 = 2 pi / 16^(1/4)
# = pi, so sin(theta_1) vanishes but for round-off
@pytest.mark.parametrize("ell, count", [*PROBE_LADDERS, ("sqrt(9/8)", 2)],
                         ids=[*LADDER_IDS, "sqrt(9/8)"])
def test_star_closed_form_matches_mpmath_on_probe_systems(monkeypatch, ell, count):
    # the closed-form (a1, a2, a3, Y) against mp.lu_solve of the star's four
    # boundary rows, on every probe of the first `count` convergents
    solved = []
    unknowns = counterexample._star_unknowns

    def checked(beta, detune, c, s, c3, s3):
        x = unknowns(beta, detune, c, s, c3, s3)
        i = mp.mpc(0, 1)
        rows = [
            # absorbing end of edge 1: y'(1) = -i beta y(1)
            [beta * c + i * beta * s, 0, 0, -beta * s + i * beta * c],
            # clamped ends of edges 2 and 3
            [0, s, 0, c],
            [0, 0, s3, c3],
            # centre flux with the oscillator eliminated
            [beta, beta, beta, beta**2 / detune],
        ]
        rhs = [0, c / (2 * beta), 0, 1 / (2 * beta)]
        reference = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
        error = mp.norm(mp.matrix(x) - reference) / mp.norm(reference)
        assert error <= 1e4 * mp.eps
        solved.append(beta)
        return x

    monkeypatch.setattr(counterexample, "_star_unknowns", checked)
    pairs = dirichlet_convergents(ell, count)
    for pair in pairs:
        star_probe(None, ell, pair=pair)
    assert len(solved) == count


SINGULAR = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0], [1, 0, 0, 1]]


def test_lu_solve_refuses_a_singular_matrix():
    with pytest.raises(ZeroDivisionError):
        mp.lu_solve(mp.matrix(SINGULAR), mp.matrix([1, 2, 3, 4]))
    with pytest.raises(ZeroDivisionError):
        _lu_solve(SINGULAR, [1, 2, 3, 4])


def test_lu_solve_refuses_a_pivot_at_the_tolerance():
    # the second pivot is d eps against eps ||A||_1 = (2 + d eps) eps
    with mp.workdps(30):
        with pytest.raises(ZeroDivisionError):
            _lu_solve([[1, 1], [1, 1 + 2 * mp.eps]], [1, 2])
        x = _lu_solve([[1, 1], [1, 1 + 4 * mp.eps]], [1, 2])
        assert x == [1 - 1 / (4 * mp.eps), 1 / (4 * mp.eps)]


def test_lu_solve_refuses_a_non_finite_entry():
    with pytest.raises(ValueError, match="not finite"):
        _lu_solve([[1, 0], [0, mp.inf]], [1, 2])


def test_lu_solve_keeps_the_working_precision():
    with mp.workdps(40):
        prec = mp.mp.prec
        rows = [[2, mp.mpc(1, 1)], [mp.mpf(1) / 3, 5]]
        x = _lu_solve(rows, [1, 0])
        assert mp.mp.prec == prec
        reference = mp.lu_solve(mp.matrix(rows), mp.matrix([1, 0]))
        assert mp.norm(mp.matrix(x) - reference) <= 10 * mp.eps
        with pytest.raises(ZeroDivisionError):
            _lu_solve(SINGULAR, [1, 2, 3, 4])
        assert mp.mp.prec == prec


# probes.csv of `counterexample` by (--variant, --length, --probes).  Both
# ladders start at q = 2: at q = 1 the circuit's b_1 vanishes and the star's
# centre value is 1/(8 pi) up to a round-off imaginary part
GOLDEN_PROBES = {
    ("circuit", "sqrt(2)", 12): """\
q_n,beta_n,b1_re,b1_im,ratio
2,1.784987861554e+01,9.057613528350e-03,1.699103328047e-03,3.154545886834e-03
5,3.561774579444e+01,4.516057456717e-03,-8.686431702657e-04,2.498086516047e-03
12,7.877408468974e+01,1.005856376694e-03,-2.959894874405e-04,1.012028579555e-03
29,1.849199481191e+02,1.157094954019e-03,8.701640673052e-05,2.108692458771e-03
70,4.419951992570e+02,2.861614596142e-04,-1.484084697616e-04,1.123348005347e-03
169,1.063600958975e+03,4.209931248744e-05,4.748644211928e-05,4.269236267096e-04
408,2.564937629975e+03,6.069572711861e-05,2.213264655452e-05,8.408417894704e-04
985,6.190059083179e+03,2.903083172858e-05,2.946142185421e-06,7.352846965693e-04
2378,1.494231442094e+04,1.235013998869e-05,-8.582765901515e-07,6.041132783908e-04
5741,3.607248867528e+04,4.999191055548e-06,-1.152451119496e-06,4.848506672654e-04
13860,8.708552743817e+04,1.912664571529e-06,-7.881487333652e-07,3.786476460575e-04
33461,2.102421281271e+05,6.804809069485e-07,-4.286614480684e-07,2.851064551137e-04
""",
    ("star", "sqrt(2)", 12): """\
q_n,beta_n,b1_re,b1_im,ratio
2,1.784987861554e+01,-2.296427296249e-03,2.733183568843e-04,9.227406155024e-01
5,3.561774579444e+01,7.379361627793e-04,-7.363770854422e-05,6.789965829997e-01
12,7.877408468974e+01,5.817657557174e-03,-1.344589726822e-03,1.459550472939e+00
29,1.849199481191e+02,2.908675896222e-03,2.623723301237e-03,2.839895596199e+00
70,4.419951992570e+02,7.338214662305e-05,6.976382597821e-06,7.999768049208e-01
169,1.063600958975e+03,3.833334305574e-05,2.642640915354e-05,4.143352688468e-01
408,2.564937629975e+03,-7.955791786675e-06,-3.196238598459e-05,5.201902310603e-01
985,6.190059083179e+03,1.487793250674e-05,-3.201616794180e-05,7.693187514386e-01
2378,1.494231442094e+04,1.321927620679e-05,-1.198969886890e-05,8.785872535950e-01
5741,3.607248867528e+04,6.785446860536e-06,-3.880631854812e-06,9.627565374340e-01
13860,8.708552743817e+04,3.059032460291e-06,-1.241104998477e-06,1.069762049975e+00
33461,2.102421281271e+05,1.319832188526e-06,-4.009486272095e-07,1.217508125771e+00
""",
    # `--length pi*1e-100 --probes 3`: q ~ 1e100, so the boundary systems hold
    # rows scaled by beta ~ 1e100 beside right-hand sides 1/(2 beta) ~ 1e-100
    ("circuit", "pi*1e-100", 3): """\
q_n,beta_n,b1_re,b1_im,ratio
3183098861837906715377675267450287240689192914809128974953346881177935952684530701802276055325061719,2.000000000000e+100,5.248025498287e-149,-2.091256699190e-125,1.269872718685e-51
25464790894703253723021402139602297925513543318473031799626775049423487621476245614418208442600493753,1.600000000000e+101,2.319321511049e-150,-1.554335841234e-126,4.489678053129e-52
105042262440650921607463283825859478942743366188701256173460447078871886438589513159475109825727036731,6.600000000000e+101,2.768375688296e-151,-2.644021122782e-127,2.210564662307e-52
""",
    ("star", "pi*1e-100", 3): """\
q_n,beta_n,b1_re,b1_im,ratio
3183098861837906715377675267450287240689192914809128974953346881177935952684530701802276055325061719,2.000000000000e+100,-7.165136078985e-177,-1.717814299410e-276,8.453132289552e+23
25464790894703253723021402139602297925513543318473031799626775049423487621476245614418208442600493753,1.600000000000e+101,3.515312129808e-178,-1.966856174787e-278,1.421641727990e+24
105042262440650921607463283825859478942743366188701256173460447078871886438589513159475109825727036731,6.600000000000e+101,-3.460381689856e-179,-5.516464064732e-280,2.026031300691e+24
""",
}


@pytest.mark.parametrize("key", list(GOLDEN_PROBES),
                         ids=["circuit", "star", "circuit-pi*1e-100", "star-pi*1e-100"])
def test_probe_ladder_matches_golden_rows(tmp_path, capsys, key):
    variant, length, probes = key
    out = tmp_path / "out"
    assert main(["counterexample", "--variant", variant, "--length", length,
          "--probes", str(probes), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "probes.csv").read_text() == GOLDEN_PROBES[key]
