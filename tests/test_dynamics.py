import math
from dataclasses import replace

import numpy as np
import pytest

from netwave.graph import build_graph, make_circuit, make_star, make_tree_chain
from netwave.resolvent import assemble_generator
from netwave.simulate import (
    SimulationError,
    _bootstrap,
    energy,
    init_state,
    run,
    shadow_energy,
    step,
)


def smooth_bump(ell, amp=1.0):
    """Interior profile vanishing to second order at both ends."""
    return lambda x: amp * (x * (ell - x) / (ell * ell / 4.0)) ** 2


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


def random_initial(graph, rng):
    y0, v0, osc = {}, {}, {}
    for e in graph.edges:
        amp_y, amp_v = rng.uniform(-1, 1, 2)
        y0[e.id] = smooth_bump(e.ell, amp_y)
        v0[e.id] = smooth_bump(e.ell, amp_v)
    for v in graph.mass_vertices:
        osc[v.id] = tuple(rng.uniform(-1, 1, 2))
    return y0, v0, osc


GRAPHS = [
    make_tree_chain(["1", "0.9"], [1.0]),
    make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0]),
    make_star("1", "1", "sqrt(2)"),
    make_circuit("sqrt(2)"),
    undamped_star(),
]


def test_shadow_energy_nonincreasing_on_random_data():
    rng = np.random.default_rng(5)
    for graph in GRAPHS:
        state = init_state(graph, *random_initial(graph, rng),
                           cells_per_unit=24)
        dt = 0.5 * min(state.layout.edge_h.values())
        prev = None
        for _ in range(200):
            state = step(state, dt)
            sh = shadow_energy(state, dt)
            if prev is not None:
                assert sh <= prev * (1.0 + 1e-12) + 1e-15
            prev = sh


def test_shadow_energy_exactly_conserved_without_damping():
    rng = np.random.default_rng(9)
    graph = undamped_star()
    state = init_state(graph, *random_initial(graph, rng), cells_per_unit=20)
    dt = 0.5 * min(state.layout.edge_h.values())
    state = step(state, dt)
    first = shadow_energy(state, dt)
    for _ in range(300):
        state = step(state, dt)
    last = shadow_energy(state, dt)
    assert abs(last - first) <= 1e-12 * first


def test_energy_is_the_generator_weight():
    # the simulator and A_h share one operator: E = 1/2 z'W_h z for
    # z = (y, v off the Dirichlet DOFs, p, q)
    rng = np.random.default_rng(13)
    for graph in GRAPHS:
        gen = assemble_generator(graph, 1.0 / 16.0)
        state = init_state(graph, *random_initial(graph, rng),
                           cells_per_unit=16)
        dt = 0.5 * min(state.layout.edge_h.values())
        for _ in range(40):
            state = step(state, dt)
        assert gen.mass_ids == list(state.layout.mass_ids)
        z = np.concatenate([state.y[gen.keep], state.v[gen.keep], state.p, state.q])
        e = energy(state)
        assert abs(e - 0.5 * z @ (gen.W @ z)) <= 1e-12 * e


@pytest.mark.parametrize("stride", [1, 3])
def test_run_samples_the_energies_of_single_steps(stride):
    # run forms E and the shadow energy from raw differences of the leapfrog
    # levels; they must be the energies of the states that step produces,
    # E with the centered velocities (y_{n+1} - y_{n-1}) / 2dt
    rng = np.random.default_rng(17)
    for graph in GRAPHS:
        y0, v0, osc = random_initial(graph, rng)
        series = run(graph, {"T": 1.0, "cells_per_unit": 16,
                             "sample_stride": stride}, y0, v0, osc)
        dt = series.dt
        states = [_bootstrap(init_state(graph, y0, v0, osc, 16), dt)]
        for _ in range(series.steps):
            states.append(step(states[-1], dt))
        assert len(states) == series.steps + 1
        nsteps = series.steps - 1
        samples = [n for n in range(nsteps + 1) if n % stride == 0 or n == nsteps]
        E, shadow = [], []
        for n in samples:
            s, after = states[n], states[n + 1]
            v = (after.y - s.y_prev) / (2.0 * dt)
            q = (after.p - s.p_prev) / (2.0 * dt)
            E.append(energy(replace(s, v=v, q=q)))
            shadow.append(shadow_energy(after, dt))
        np.testing.assert_allclose(series.t, [n * dt for n in samples], rtol=1e-12)
        np.testing.assert_allclose(series.E, E, rtol=1e-12, atol=0)
        np.testing.assert_allclose(series.shadow, shadow, rtol=1e-12, atol=0)


def test_step_coefficients_follow_dt():
    # the layout keeps the step coefficients of the last dt; a state started
    # at another dt on the same layout must step as on a fresh layout
    graph = make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0])
    rng = np.random.default_rng(3)
    data = random_initial(graph, rng)
    state = init_state(graph, *data, cells_per_unit=16)
    hmin = state.layout.hmin
    for _ in range(5):
        state = step(state, 0.5 * hmin)
    reused = replace(init_state(graph, *data, cells_per_unit=16),
                     layout=state.layout)
    fresh = init_state(graph, *data, cells_per_unit=16)
    assert fresh.layout is not reused.layout
    for _ in range(5):
        reused = step(reused, 0.7 * hmin)
        fresh = step(fresh, 0.7 * hmin)
    for name in ("y", "v", "p", "q", "y_prev", "p_prev"):
        assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name


def test_superposition():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    rng = np.random.default_rng(21)
    ya, va, oa = random_initial(graph, rng)
    yb, vb, ob = random_initial(graph, rng)
    yc = {k: (lambda f, g: (lambda x: f(x) + g(x)))(ya[k], yb[k]) for k in ya}
    vc = {k: (lambda f, g: (lambda x: f(x) + g(x)))(va[k], vb[k]) for k in va}
    oc = {k: (oa[k][0] + ob[k][0], oa[k][1] + ob[k][1]) for k in oa}
    states = [init_state(graph, y, v, o, cells_per_unit=16)
              for y, v, o in ((ya, va, oa), (yb, vb, ob), (yc, vc, oc))]
    dt = 0.5 * min(states[0].layout.edge_h.values())
    for _ in range(50):
        states = [step(s, dt) for s in states]
    sa, sb, sc = states
    assert np.max(np.abs(sc.y - sa.y - sb.y)) <= 1e-11
    assert np.max(np.abs(sc.p - sa.p - sb.p)) <= 1e-11


def test_time_reversal_without_damping():
    graph = undamped_star()
    rng = np.random.default_rng(2)
    state0 = init_state(graph, *random_initial(graph, rng), cells_per_unit=16)
    dt = 0.5 * min(state0.layout.edge_h.values())
    fwd = step(state0, dt)
    for _ in range(80):
        fwd = step(fwd, dt)
    # reversal map of the mass-coupled wave system: (y, v, s, s') goes to
    # (y, -v, -s, s'), with the leapfrog levels swapped
    back = fwd.__class__(
        graph=fwd.graph, layout=fwd.layout, y=fwd.y_prev, v=-fwd.v,
        p=-fwd.p_prev, q=fwd.q.copy(), t=0.0, y_prev=fwd.y, p_prev=-fwd.p)
    for _ in range(80):
        back = step(back, dt)
    assert np.max(np.abs(back.y - state0.y)) <= 1e-9


def test_matched_edge_absorbs_pulse():
    graph = build_graph({
        "variant": "tree",
        "vertices": [{"id": "a1", "kind": "root"},
                     {"id": "a2", "kind": "controlled"}],
        "edges": [{"id": "e1", "tail": "a1", "head": "a2", "length": "1"}],
    })
    series = run(graph, {"T": 2.0, "cells_per_unit": 128},
                 y0={"e1": smooth_bump(1.0)})
    assert series.E[-1] <= 1e-4 * series.e0


def test_energy_budget_residual_small():
    graph = make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0])
    series = run(graph, {"T": 4.0, "cells_per_unit": 128},
                 y0={"e1": smooth_bump(1.0)})
    assert np.max(np.abs(series.R)) <= 1e-3 * series.e0
    # dissipation accumulates monotonically
    assert np.all(np.diff(series.D) >= -1e-14)


def test_decay_fit_on_stable_chain():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    series = run(graph, {"T": 30.0, "cells_per_unit": 24},
                 y0={"e1": smooth_bump(1.0)})
    assert series.fit_ok
    assert series.omega > 0.05
    assert series.fit_residual < 0.2


def test_pi_mode_plateau():
    graph = make_tree_chain(["1", "pi*1", "1"], [1.0, 1.0])
    v0 = {"e2": lambda x: math.sin(x)}
    osc = {"a2": (1.0, 0.0), "a3": (1.0, 0.0)}
    series = run(graph, {"T": 30.0, "cells_per_unit": 24}, v0=v0, osc=osc)
    assert series.omega <= 1e-3
    assert series.E[-1] >= 0.99 * series.e0


def test_init_state_rejects_discontinuous_data():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError):
        init_state(graph, y0={"e1": lambda x: x})  # jumps at the mass vertex


def test_init_state_rejects_nonzero_at_clamped_end():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError):
        init_state(graph, y0={"e1": lambda x: 1.0 - x})


def test_under_resolved_edge_refused():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError):
        init_state(graph, cells_per_unit=2)


def test_cfl_violation_detected():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError):
        run(graph, {"T": 8.0, "cells_per_unit": 24, "cfl": 1.3},
            y0={"e1": smooth_bump(1.0)})


def test_circuit_coupling_variants_both_dissipate():
    graph = make_circuit("sqrt(2)")
    y0 = {"e1": smooth_bump(1.0)}
    series = run(graph, {"T": 4.0, "cells_per_unit": 24}, y0=y0)
    assert series.E[-1] < series.e0
    # the per-node feedback has the exact discrete dissipation identity
    assert np.all(np.diff(series.shadow) <= 1e-12)
