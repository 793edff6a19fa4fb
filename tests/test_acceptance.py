"""Acceptance gate: the eight headline checks, one pass/fail line each.

Run with -s to see the ACCEPTANCE lines as they complete.
"""

import math
import time

import numpy as np

from netwave.chaincrit import ChainSpec, chain_stable, delta_closed, \
    delta_recurrence, mass_groups
from netwave.counterexample import asymptotic_defects, circuit_solve, \
    dirichlet_convergents, growth_law
from netwave.graph import build_graph, make_chain, make_circuit, \
    make_tree_chain
from netwave.resolvent import assemble_generator, dissipation_defect, sweep
from netwave.simulate import run
from netwave.spectral import char_det, char_matrix, eigenfunction, \
    find_eigenvalues, newton_refine


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def smooth_bump(ell, amp=1.0):
    return lambda x: amp * (x * (ell - x) / (ell * ell / 4.0)) ** 2


def matched_edge():
    return build_graph({
        "variant": "tree",
        "vertices": [{"id": "a1", "kind": "root"},
                     {"id": "a2", "kind": "controlled"}],
        "edges": [{"id": "e1", "tail": "a1", "head": "a2", "length": "1"}],
    })


def test_criterion_1_energy_identity():
    # 3-edge tree, smooth data: balance residual small and second order
    graph = make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0])
    t0 = time.monotonic()
    rels = []
    for cells in (32, 64, 128):
        series = run(graph, {"T": 4.0, "cells_per_unit": cells},
                     y0={"e1": smooth_bump(1.0)})
        rels.append(float(np.max(np.abs(series.R)) / series.e0))
    elapsed = time.monotonic() - t0
    order = math.log2(rels[0] / rels[2]) / 2.0
    ok = rels[-1] <= 1e-3 and order >= 1.8 and elapsed < 60.0
    report(1, ok, f"rel residuals {['%.2e' % r for r in rels]}, "
                  f"order {order:.2f}, {elapsed:.1f}s")


def test_criterion_2_stable_chain_decays_and_sweeps_bounded():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    series = run(graph, {"T": 40.0, "cells_per_unit": 24},
                 y0={"e1": smooth_bump(1.0)})
    rep = sweep(graph, np.linspace(0.0, 200.0, 41))
    ok = (series.omega > 0 and series.fit_ok and series.fit_residual < 0.2
          and rep.verdict == "bounded" and rep.sup_change < 0.2)
    report(2, ok, f"omega {series.omega:.4f} (fit res "
                  f"{series.fit_residual:.3f}), sweep {rep.verdict} "
                  f"(sup change {rep.sup_change:.2e})")


def test_criterion_3_pi_edge_axis_mode():
    graph = make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0])
    det_i = abs(char_det(graph, 1j))
    lam, _ = newton_refine(graph, 1j)
    ef = eigenfunction(graph, lam)
    scale = 1.0 / ef.p["a2"]
    xs = np.linspace(0.0, math.pi, 17)
    y = ef.y("e2", xs) * scale
    target = 1j * np.sin(xs)
    shape_err = min(float(np.max(np.abs(y - s * target))) for s in (1, -1))
    q_err = abs(ef.q["a2"] * scale - 1j)
    series = run(graph, {"T": 30.0, "cells_per_unit": 24},
                 v0={"e2": lambda x: math.sin(x)},
                 osc={"a2": (1.0, 0.0), "a3": (1.0, 0.0)})
    ok = (det_i <= 1e-8 and shape_err <= 1e-6 and q_err <= 1e-6
          and series.omega <= 1e-3)
    report(3, ok, f"|det M(i)| {det_i:.1e}, shape err {shape_err:.1e}, "
                  f"q err {q_err:.1e}, omega {series.omega:.2e}")


def test_criterion_4_circuit_growth_law():
    pairs = [c for c in dirichlet_convergents("sqrt(2)", 29) if c.q > 1]
    growth_pairs = [c for c in pairs if c.q <= 2_000_000]
    probes = {c.q: circuit_solve(None, "sqrt(2)", pair=c) for c in pairs}
    rep = growth_law([probes[c.q] for c in growth_pairs], "sqrt(2)")
    limit_err = abs(abs(rep.limit) - rep.predicted) / rep.predicted
    growth_ok = limit_err <= 0.10
    eqcir_max = max(p.eqcir_rel_diff for p in probes.values())
    defects = asymptotic_defects(probes[pairs[-1].q])
    asym_ok = max(defects.values()) < 0.05
    ok = growth_ok and eqcir_max <= 1e-10 and asym_ok
    report(4, ok, f"growth limit {abs(rep.limit):.2e} vs predicted "
                  f"{rep.predicted:.3f} (rel err {limit_err:.2f}), eqcir "
                  f"{eqcir_max:.1e}, max A-H defect at q={pairs[-1].q}: "
                  f"{max(defects.values()):.3f}")


def test_criterion_5_chain_determinants():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))  # chains with N <= 8
        # masses on a separated grid: near-equal distinct masses blow up the
        # couplings 1/(beta(m_j - m)) and degrade the enumeration oracle
        masses = 0.5 + 0.25 * rng.integers(0, 11, n - 1)
        chain = ChainSpec(tuple(rng.uniform(0.4, 2.0, n)), tuple(masses))
        for group in mass_groups(chain):
            for r in range(1, group.k + 1):
                from netwave.chaincrit import _span

                x, c = _span(chain, group, r)
                delta, _ = delta_recurrence(x, c)
                worst = max(worst, abs(delta - delta_closed(group, r, chain)))
    # printed low-order forms at random points
    printed_worst = 0.0
    for _ in range(100):
        x = rng.uniform(0.3, 3.0, 3).tolist()
        c = rng.uniform(-2.0, 2.0, 2).tolist()
        d4 = (math.sin(x[0] + x[1] + x[2])
              - c[0] * math.sin(x[0]) * math.sin(x[1] + x[2])
              - c[1] * math.sin(x[0] + x[1]) * math.sin(x[2])
              + c[0] * c[1] * math.sin(x[0]) * math.sin(x[1]) * math.sin(x[2]))
        m4 = (-math.cos(x[0] + x[1] + x[2])
              + c[0] * math.sin(x[0]) * math.cos(x[1] + x[2])
              + c[1] * math.sin(x[0] + x[1]) * math.cos(x[2])
              - c[0] * c[1] * math.sin(x[0]) * math.sin(x[1]) * math.cos(x[2]))
        delta, mm = delta_recurrence(x, c)
        d2, m2 = delta_recurrence(x[:1], [])
        d3, m3 = delta_recurrence(x[:2], c[:1])
        printed_worst = max(
            printed_worst,
            abs(d2 - math.sin(x[0])), abs(m2 + math.cos(x[0])),
            abs(d3 - (-math.sin(x[0] + x[1])
                      + c[0] * math.sin(x[0]) * math.sin(x[1]))),
            abs(m3 - (math.cos(x[0] + x[1])
                      - c[0] * math.sin(x[0]) * math.cos(x[1]))),
            abs(delta - d4), abs(mm - m4))
    # curated cross-validation against spectral axis roots
    cases = [
        ((1.0, 0.9), (1.0,)),
        ((1.0, math.pi), (1.0,)),
        ((1.0, math.pi, 1.0), (1.0, 1.0)),
        ((1.0, 1.5, 0.7), (1.0, 2.0)),
        ((1.0, math.pi / 2), (0.25,)),
    ]
    agree = True
    for lengths, masses in cases:
        verdict = chain_stable(ChainSpec(lengths, masses))
        graph = make_chain([repr(l) for l in lengths], list(masses))
        axis_root = False
        for m in set(masses):
            beta = 1.0 / math.sqrt(m)
            if char_matrix(graph, 1j * beta).residual() <= 1e-8:
                axis_root = True
        agree = agree and (verdict.stable == (not axis_root))
    ok = worst <= 1e-12 and printed_worst <= 1e-12 and agree
    report(5, ok, f"recurrence vs closed form {worst:.1e}, printed forms "
                  f"{printed_worst:.1e}, spectral cross-validation "
                  f"{'agrees' if agree else 'DISAGREES'}")


def test_criterion_6_rational_circuit_root():
    lam, res = newton_refine(make_circuit("1/2"), 6.2j)
    err = abs(lam - 2j * math.pi)
    ok = err <= 1e-8
    report(6, ok, f"root {lam:.10f}, distance to 2*pi*i {err:.1e}")


def test_criterion_7_discrete_dissipativity():
    rng = np.random.default_rng(43)
    graphs = [
        make_tree_chain(["1", "0.9"], [1.0]),
        make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0]),
        make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0]),
        make_chain(["1", "1.5", "0.7"], [1.0, 2.0]),
        make_circuit("sqrt(2)"),
    ]
    worst = 0.0
    for graph in graphs:
        gen = assemble_generator(graph, 1.0 / 16.0)
        for _ in range(200):  # 1000 states over the 5 graphs
            z = rng.standard_normal(gen.dim)
            wnorm = float(np.real(np.vdot(gen.W @ z, z)))
            worst = max(worst, dissipation_defect(gen, z) / wnorm)
    ok = worst <= 1e-12
    report(7, ok, f"max Re<Az,z>_W / ||z||_W^2 = {worst:.1e}")


def test_criterion_8_matched_edge():
    graph = matched_edge()
    rep = find_eigenvalues(graph, (-10.0, 0.0, -100.0, 100.0))
    ratios = []
    for cells in (128, 256):
        series = run(graph, {"T": 2.0, "cells_per_unit": cells},
                     y0={"e1": smooth_bump(1.0)})
        ratios.append(float(series.E[-1] / series.e0))
    ok = (len(rep.roots) == 0 and all(r <= 1e-4 for r in ratios)
          and ratios[1] < ratios[0])
    report(8, ok, f"root count {len(rep.roots)}, E(T)/E(0) "
                  f"{['%.1e' % r for r in ratios]}")
