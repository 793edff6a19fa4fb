import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import graphs, undamped_star
from hypothesis import given, settings

import netwave.simulate
from netwave.cli import main
from netwave.graph import (
    MetricGraph,
    build_graph,
    make_chain,
    make_circuit,
    make_star,
    make_tree_chain,
)
from netwave.resolvent import assemble_generator
from netwave.simulate import (
    BLOWUP_FACTOR,
    SimulationError,
    _bootstrap,
    _gll,
    energy,
    init_state,
    make_layout,
    run,
    shadow_energy,
    step,
)
from netwave.spectral import vertex_laws


def smooth_bump(ell, amp=1.0):
    """Interior profile vanishing to second order at both ends."""
    return lambda x: amp * (x * (ell - x) / (ell * ell / 4.0)) ** 2


def random_initial(graph, rng):
    y0, v0, osc = {}, {}, {}
    for e in graph.edges:
        amp_y, amp_v = rng.uniform(-1, 1, 2)
        y0[e.id] = smooth_bump(e.ell, amp_y)
        v0[e.id] = smooth_bump(e.ell, amp_v)
    for v in graph.mass_vertices:
        osc[v.id] = tuple(rng.uniform(-1, 1, 2))
    return y0, v0, osc


def stiffness(layout):
    """K as scipy's CSR matrix over the layout's entries."""
    values, rows, cols = layout.k_triplets
    return sp.csr_matrix((values, (rows, cols)), shape=(layout.ndof, layout.ndof))


GRAPHS = [
    make_tree_chain(["1", "0.9"], [1.0]),
    make_tree_chain(["1", "0.8", "1.3"], [1.0, 2.0]),
    make_star("1", "1", "sqrt(2)"),
    make_circuit("sqrt(2)"),
    undamped_star(),
]


@pytest.mark.parametrize("graph", GRAPHS)
def test_layout_gives_the_pinned_vertices_no_dof(graph):
    # the unknowns are the free vertices and the interior nodes; a pinned
    # vertex is numbered past them, and without its row K is definite
    layout = make_layout(graph, 16)
    np.linalg.cholesky(stiffness(layout).toarray())
    free = len(graph.vertices) - len(graph.dirichlet_vertices)
    interior = sum(len(idx) - 2 for idx in layout.edge_nodes.values())
    assert layout.ndof == free + interior
    assert all(layout.vertex_dof[v.id] >= layout.ndof
               for v in graph.dirichlet_vertices)


ELEMENT_GRAPHS = [make_chain(["1.3", "0.7"], [0.5]), GRAPHS[1], GRAPHS[3]]


@pytest.mark.parametrize("order", [1, 4, 8])
@pytest.mark.parametrize("graph", ELEMENT_GRAPHS, ids=["chain", "tree", "circuit"])
def test_elements_integrate_constants(graph, order, monkeypatch):
    # with no vertex pinned every node is an unknown: the lumped mass
    # (the element quadrature of 1) sums to the total edge length, and K,
    # the stiffness of the derivative, annihilates constants
    monkeypatch.setattr(MetricGraph, "dirichlet_vertices", property(lambda self: []))
    layout = make_layout(graph, 6, order)
    interior = sum(len(idx) - 2 for idx in layout.edge_nodes.values())
    assert layout.ndof == len(graph.vertices) + interior
    assert interior == sum(round(6 * e.ell) * order - 1 for e in graph.edges)
    total = graph.total_length()
    assert np.all(layout.lumped_mass > 0)
    assert abs(layout.lumped_mass.sum() - total) <= 1e-13 * total
    K = stiffness(layout)
    assert np.max(np.abs(K @ np.ones(layout.ndof))) <= 1e-12 * np.max(np.abs(K.data))


@pytest.mark.parametrize("order", [1, 4, 8])
@pytest.mark.parametrize("graph", ELEMENT_GRAPHS, ids=["chain", "tree", "circuit"])
def test_the_layout_sums_every_entry_of_the_stiffness(graph, order):
    # K lists each (row, col) once, and each entry is the sum of its element
    # entries in element order: the diagonal pairs (i, i), then i < j, then
    # i > j, each pair over every element, edge by edge
    layout = make_layout(graph, 6, order)
    values, rows, cols = layout.k_triplets
    nd = layout.ndof
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(values)
    _, kref = _gll(order)
    upper = [(i, j) for i in range(order + 1) for j in range(i + 1, order + 1)]
    pairs = [(i, i) for i in range(order + 1)] + upper + [(j, i) for i, j in upper]
    total = nd + len(graph.dirichlet_vertices)
    summed = np.zeros((total, total))
    for i, j in pairs:
        for e in graph.edges:
            idx, h = layout.edge_nodes[e.id], layout.edge_h[e.id]
            for first in range(0, len(idx) - 1, order):
                np.add.at(summed, (idx[first + i], idx[first + j]), kref[i, j] * (2.0 / h))
    dense = np.zeros((nd, nd))
    dense[rows, cols] = values
    np.testing.assert_array_equal(dense, summed[:nd, :nd])


def drawn_tree(rng, n_edges, hub=None):
    """A random recursive tree as the wide-transient benchmark draws one: a
    pinned root leaf, point masses at the interior vertices and controlled
    leaves; `hub` makes every edge but the first hang from vertex 1."""
    parent = {1: 0}
    for v in range(2, n_edges + 1):
        parent[v] = hub or rng.randint(1, v - 1)
    inner = set(parent.values())
    vertices = [{"id": "v0", "kind": "root"}]
    vertices += [{"id": f"v{v}", "kind": "mass", "mass": round(rng.uniform(0.5, 2.0), 2)}
                 if v in inner else {"id": f"v{v}", "kind": "controlled"}
                 for v in range(1, n_edges + 1)]
    edges = [{"id": f"e{v}", "tail": f"v{p}", "head": f"v{v}",
              "length": str(Fraction(rng.randint(500, 1500), 1000))}
             for v, p in parent.items()]
    return build_graph({"variant": "tree", "vertices": vertices, "edges": edges})


def drawn_chain(rng, n_edges):
    """A chain as the wide-transient benchmark draws one: controlled near
    end, point masses inside, pinned far end."""
    vertices = [{"id": "a1", "kind": "controlled"}]
    vertices += [{"id": f"a{k}", "kind": "mass", "mass": round(rng.uniform(0.5, 2.0), 2)}
                 for k in range(2, n_edges + 1)]
    vertices.append({"id": f"a{n_edges + 1}", "kind": "fixed"})
    edges = [{"id": f"e{k}", "tail": f"a{k}", "head": f"a{k + 1}",
              "length": str(Fraction(rng.randint(500, 1500), 1000))}
             for k in range(1, n_edges + 1)]
    return build_graph({"variant": "chain", "vertices": vertices, "edges": edges})


# the hub's 12 edges give its vertex a row of K with 13 entries, the
# longest of any graph here
PRODUCT_GRAPHS = GRAPHS + [drawn_tree(random.Random(1), 48), drawn_chain(random.Random(1), 48),
                           drawn_tree(random.Random(2), 12, hub=1)]


@pytest.mark.parametrize("graph", PRODUCT_GRAPHS,
                         ids=[f"{g.variant}-{len(g.edges)}" for g in PRODUCT_GRAPHS])
def test_the_stepper_product_is_the_stiffness(graph):
    # the stepper's numpy K holds each entry of the CSR matrix exactly once,
    # with the same value, and its product agrees with the CSR product
    layout = make_layout(graph, 16)
    K, bands = stiffness(layout), layout.bands
    dense = K.toarray()
    interior = np.ones(layout.ndof, bool)
    interior[[d for d in layout.vertex_dof.values() if d < layout.ndof]] = False
    np.testing.assert_array_equal(bands.diag, np.where(interior, K.diagonal(), 0.0))
    inner = interior[1:] & interior[:-1]
    np.testing.assert_array_equal(bands.lower, np.where(inner, K.diagonal(-1), 0.0))
    np.testing.assert_array_equal(bands.upper, np.where(inner, K.diagonal(1), 0.0))
    np.testing.assert_array_equal(bands.values, dense[bands.rows, bands.cols])
    rebuilt = np.diag(bands.diag) + np.diag(bands.lower, -1) + np.diag(bands.upper, 1)
    np.add.at(rebuilt, (bands.rows, bands.cols), bands.values)
    np.testing.assert_array_equal(rebuilt, dense)
    parts = (np.count_nonzero(bands.diag) + np.count_nonzero(bands.lower)
             + np.count_nonzero(bands.upper) + len(bands.rows))
    assert parts == K.nnz
    norm = np.max(np.abs(dense).sum(axis=1))
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = rng.standard_normal(layout.ndof) * 10.0 ** rng.uniform(-3, 3)
        gap = np.max(np.abs(bands @ y - K @ y))
        assert gap <= 1e-15 * norm * np.max(np.abs(y))


def test_the_stepper_refuses_higher_order_elements():
    # the CFL bound dt <= cfl * hmin holds for order-1 elements only
    graph = GRAPHS[1]
    layout = make_layout(graph, 16, 4)
    zeros, nm = np.zeros(layout.ndof), len(layout.mass_ids)
    state = netwave.simulate.NetworkState(layout, zeros, zeros, np.zeros(nm),
                                          np.zeros(nm), 0.0)
    with pytest.raises(SimulationError, match="order-1"):
        step(state, 0.5 * layout.hmin)


def check_mesh_and_laws_damp_the_same_vertices(graph):
    """The layout damps the vertices whose flux row carries c lam y, and its
    oscillators drive those whose flux row holds a q, in the same order."""
    layout, laws, ne = make_layout(graph, 16), vertex_laws(graph), len(graph.edges)

    def vertex(col):  # the vertex at the end that trace column col belongs to
        edge = graph.edges[col // 4]
        return edge.head if col % 4 >= 2 else edge.tail

    # lam^1 on a y-trace: among the vertex rows, only a flux row's c lam y
    damped = {vertex(2 * col) for col in np.nonzero(laws[1, :2 * ne, :4 * ne:2])[1]}
    dofs = sorted(layout.vertex_dof[v] for v in damped)
    assert np.flatnonzero(layout.damping).tolist() == dofs
    assert np.all(layout.damping[dofs] == 1.0)
    flux_rows = [np.flatnonzero(laws[:, :2 * ne, q].any(axis=0))[0]
                 for q in range(4 * ne + 1, laws.shape[2], 2)]
    driven = tuple(vertex(np.flatnonzero(laws[0, f, :4 * ne])[0]) for f in flux_rows)
    assert layout.mass_ids == driven
    assert layout.mass_dofs.tolist() == [layout.vertex_dof[v] for v in driven]


@pytest.mark.parametrize("graph", [GRAPHS[1], make_circuit("sqrt(2)")])
def test_mesh_and_laws_damp_the_same_vertices(graph):
    check_mesh_and_laws_damp_the_same_vertices(graph)


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(graphs)
def test_mesh_and_laws_damp_the_same_vertices_on_random_graphs(graph):
    check_mesh_and_laws_damp_the_same_vertices(graph)


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


def centered(state, after, dt):
    """`state` with the centered velocities of the levels around it, the
    ones `run` samples: (y_{n+1} - y_{n-1}) / 2dt and likewise for p."""
    return replace(state, v=(after.y - state.y_prev) / (2.0 * dt),
                   q=(after.p - state.p_prev) / (2.0 * dt))


def test_energy_is_the_generator_weight():
    # the simulator and A_h share one operator: E = 1/2 z'W_h z for
    # z = (y, v, p, q), v and q the centered velocities of a stepped state
    rng = np.random.default_rng(13)
    for graph in GRAPHS:
        gen = assemble_generator(graph, 16.0)
        state = init_state(graph, *random_initial(graph, rng),
                           cells_per_unit=16)
        dt = 0.5 * min(state.layout.edge_h.values())
        for _ in range(40):
            state = step(state, dt)
        state = centered(state, step(state, dt), dt)
        assert gen.layout.mass_ids == state.layout.mass_ids
        z = np.concatenate([state.y, state.v, state.p, state.q])
        e = energy(state)
        assert abs(e - 0.5 * z @ (gen.W @ z)) <= 1e-12 * e


def test_a_stepped_state_holds_levels_not_velocities():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    rng = np.random.default_rng(4)
    state = init_state(graph, *random_initial(graph, rng), cells_per_unit=16)
    assert energy(state) > 0
    stepped = step(state, 0.5 * state.layout.hmin)
    assert stepped.v is None and stepped.q is None
    with pytest.raises(SimulationError, match="velocities"):
        energy(stepped)


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
            E.append(energy(centered(s, after, dt)))
            shadow.append(shadow_energy(after, dt))
        np.testing.assert_allclose(series.t, [n * dt for n in samples], rtol=1e-12)
        np.testing.assert_allclose(series.E, E, rtol=1e-12, atol=0)
        np.testing.assert_allclose(series.shadow, shadow, rtol=1e-12, atol=0)


def test_run_keeps_its_samples_in_arrays_of_their_final_size():
    # 2 001 samples of t, E, D and the shadow energy take 64 KB as float
    # arrays; a list of Python floats per series would add some 250 KB
    graph = GRAPHS[0]
    run(graph, {"T": 1.0})  # the one-time allocations of a first run
    tracemalloc.start()
    try:
        series = run(graph, {"T": 112.5})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.steps == 2001 and len(series.t) == len(series.shadow) == 2001
    assert peak < 280_000


@pytest.mark.parametrize("stride", [1, 3])
def test_run_samples_the_energies_of_a_grid_mode(stride):
    # node values alternating in sign: the fastest grid mode, whose level
    # differences d_n = y_{n+1} - y_n and d_{n-1} nearly cancel in the
    # centered velocity, so E's cross term (M d_n)'d_{n-1} is as large as
    # its one-step terms and of opposite sign
    graph = make_tree_chain(["1", "0.9"], [1.0])
    edge_h = make_layout(graph, 16).edge_h

    def grid_mode(e):
        bump = smooth_bump(e.ell)
        return lambda x: math.cos(math.pi * x / edge_h[e.id]) * bump(x)

    y0 = {e.id: grid_mode(e) for e in graph.edges}
    osc = {"a2": (0.3, -0.2)}
    series = run(graph, {"T": 1.0, "cells_per_unit": 16, "sample_stride": stride},
                 y0=y0, osc=osc)
    dt = series.dt
    state = _bootstrap(init_state(graph, y0, None, osc, 16), dt)
    E, shadow = [], []
    for n in range(series.steps):
        after = step(state, dt)
        if n % stride == 0 or n == series.steps - 1:
            E.append(energy(centered(state, after, dt)))
            shadow.append(shadow_energy(after, dt))
        state = after
    np.testing.assert_allclose(series.E, E, rtol=1e-12, atol=0)
    np.testing.assert_allclose(series.shadow, shadow, rtol=1e-12, atol=0)


# (graph, steps, dt, every 10th sample of E, D and the shadow energy) of a
# run to T = 2 on 16 cells per unit, from fixed bumps (`fixed_initial`)
RUN_OUTPUTS = [
    (make_tree_chain(["1", "0.8", "1.3"], [1, 2]), 38, 0.05405405405405406,
     [7.846938966979301, 7.351289678822465, 6.935680512431473, 6.431038843903927],
     [0.0, 0.34645828677899565, 0.7991810812219139, 1.295322286278359],
     [7.619418957917429, 7.271176562296763, 6.781272337582579, 6.321964917967802]),
    (make_circuit("sqrt(2)"), 38, 0.05405405405405406,
     [9.62148081888192, 7.748029147239062, 4.19383505847429, 3.95377761569761],
     [0.0, 1.714792951708934, 5.2578300715597175, 5.499780796205813],
     [9.393741175319432, 7.636486402401358, 4.11519991782498, 3.8748662981842434]),
]


def fixed_initial(graph):
    """A bump of height 1 in y and -1/2 in v on every edge, and (1/4, -1/2)
    on every oscillator."""
    return ({e.id: smooth_bump(e.ell, 1.0) for e in graph.edges},
            {e.id: smooth_bump(e.ell, -0.5) for e in graph.edges},
            {v.id: (0.25, -0.5) for v in graph.mass_vertices})


@pytest.mark.parametrize("graph, steps, dt, E, D, shadow", RUN_OUTPUTS,
                         ids=["tree-chain", "circuit"])
def test_run_outputs_are_unchanged(graph, steps, dt, E, D, shadow):
    series = run(graph, {"T": 2.0, "cells_per_unit": 16}, *fixed_initial(graph))
    assert series.steps == steps
    assert series.dt == pytest.approx(dt, rel=1e-12, abs=0)
    for got, want in ((series.E, E), (series.D, D), (series.shadow, shadow)):
        np.testing.assert_allclose(got[::10], want, rtol=1e-12, atol=0)


def growing_steps(monkeypatch):
    """Make every state that `run` steps to gain energy; returns the list of
    (t of the state stepped from, shadow energy of the state reached)."""
    honest = netwave.simulate.step
    record = []

    def growing(state, dt, *args):
        new = honest(state, dt, *args)
        new = replace(new, y=1.02 * new.y)
        record.append((state.t, shadow_energy(new, dt)))
        return new

    monkeypatch.setattr(netwave.simulate, "step", growing)
    return record


@pytest.mark.parametrize("stride", [1, 3])
def test_run_stops_at_the_first_sample_whose_energy_grew(monkeypatch, stride):
    record = growing_steps(monkeypatch)
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError, match="energy grew") as err:
        run(graph, {"T": 5.0, "sample_stride": stride},
            y0={e.id: smooth_bump(e.ell) for e in graph.edges})
    # the guard compares each sample's shadow energy with the previous one's
    samples = record[::stride]
    first = next(k for k in range(1, len(samples))
                 if samples[k][1] > BLOWUP_FACTOR * samples[k - 1][1] + 1e-30)
    t = samples[first][0]
    assert f"at t={t}:" in str(err.value)
    assert len(record) == first * stride + 1  # no step past the offending sample


def test_simulate_exits_two_when_the_energy_grows(monkeypatch, tmp_path, capsys):
    growing_steps(monkeypatch)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"graph": {
        "variant": "tree",
        "vertices": [{"id": "a1", "kind": "root"},
                     {"id": "a2", "kind": "mass", "mass": 1.0},
                     {"id": "a3", "kind": "controlled"}],
        "edges": [{"id": "e1", "tail": "a1", "head": "a2", "length": "1"},
                  {"id": "e2", "tail": "a2", "head": "a3", "length": "9/10"}],
    }, "T": 1.0}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "energy grew" in capsys.readouterr().err


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
    for name in ("y", "p", "y_prev", "p_prev"):
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
    # (y, -v, -s, s'); on the leapfrog levels it swaps them and flips s
    back = replace(fwd, y=fwd.y_prev, p=-fwd.p_prev, t=0.0,
                   y_prev=fwd.y, p_prev=-fwd.p, ky_prev=None)
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


def test_init_state_rejects_discontinuous_velocity():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError, match="v0 discontinuous at vertex 'a2'"):
        init_state(graph, v0={"e1": lambda x: x})


def test_init_state_rejects_nonzero_velocity_at_clamped_end():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError, match="v0 nonzero .* clamped vertex 'a1'"):
        init_state(graph, v0={"e1": lambda x: 1.0 - x})


def test_under_resolved_edge_refused():
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError):
        init_state(graph, cells_per_unit=2)


@pytest.mark.parametrize("stride", [2.5, True])
def test_run_refuses_a_stride_that_is_not_an_integer(stride):
    # 2.5 used to truncate to 2 and True to read as 1
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError, match="integer"):
        run(graph, {"T": 1.0, "sample_stride": stride})


@pytest.mark.parametrize("key", ["T", "cfl", "cells_per_unit"])
def test_run_refuses_a_boolean_number(key):
    # True used to read as 1.0
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError, match=key):
        run(graph, {"T": 1.0, key: True})


@pytest.mark.parametrize("cells", [0.0, -16.0, math.nan, math.inf])
def test_run_refuses_a_mesh_that_is_not_finite_and_positive(cells):
    graph = make_tree_chain(["1", "0.9"], [1.0])
    with pytest.raises(SimulationError, match="cells per unit length"):
        run(graph, {"T": 1.0, "cells_per_unit": cells})


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
