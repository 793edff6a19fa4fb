"""Explicit time-domain simulation of the damped wave network.

Each edge carries a uniform grid whose nodes, vertices included, are the
unknowns of one semi-discrete system (see `GridLayout`)

    M y'' + C y' + K y = B q,    m_k s_k'' + s_k = -(B^T y')_k,    q = s'.

Half-cell lumping at a vertex reproduces, as the mesh is refined, the
Kirchhoff flux law with the oscillator source (interior masses), the
absorbing impedance y_x = -y_t (controlled leaves) or the Dirichlet pin.
Leapfrog in time takes one product K y per step; the damped vertices and the
vertex-oscillator pairs are implicit but local, so each mass costs one 2x2
solve.

Alongside the physical energy the run loop tracks the staggered (half-step)
leapfrog energy, which obeys an exact discrete dissipation identity: it
decreases at every step by dt times the squared centered velocity at the
damped vertices.  Both are quadratic forms in K, M and the masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .graph import MetricGraph

DEFAULT_CFL = 0.9
MIN_CELLS = 4
MAX_DOFS = 4_000_000  # grid nodes of one layout
CONTINUITY_TOL = 1e-8
BLOWUP_FACTOR = 1.01
FIT_REJECT = 0.2


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridLayout:
    """Global degree-of-freedom numbering and the semi-discrete operator.

    One DOF per vertex, then the interior nodes of each edge in tail-to-head
    order.  K is the stiffness of the piecewise-linear meshes over all DOFs
    (Dirichlet vertices included; their rows are pinned by the users of K),
    M the lumped mass, C the unit damping at the controlled leaves (and, in
    the circuit variant, at the mass vertices) and B the unit injection of
    each oscillator at its mass vertex.  M and C are kept as diagonals, B as
    the DOF index of each oscillator's unit entry.
    """

    vertex_dof: dict
    edge_nodes: dict  # edge id -> int array of DOF indices, tail..head
    edge_h: dict  # edge id -> grid spacing
    ndof: int
    lumped_mass: np.ndarray  # M: h on interior nodes, sum of h_j/2 at vertices
    stiffness: sp.csr_matrix  # K: sum over cells of (e_a - e_b)(e_a - e_b)^T / h
    damping: np.ndarray  # C: 1 at the damped DOFs, 0 elsewhere
    dirichlet: np.ndarray
    mass_ids: tuple  # the oscillators, in graph order
    mass_dofs: np.ndarray  # B: the vertex DOF each oscillator drives
    masses: np.ndarray


def make_layout(graph: MetricGraph, cells_per_unit: float) -> GridLayout:
    vertex_dof = {v.id: i for i, v in enumerate(graph.vertices)}
    nd = len(graph.vertices)
    # counted in floats before any allocation: an edge of length 1e300 asks
    # for 1e301 nodes, and its cell count may not even be a finite number
    dofs = nd + sum(cells_per_unit * e.ell - 1 for e in graph.edges)
    if not dofs <= MAX_DOFS:
        raise SimulationError(
            f"the mesh needs {dofs:.3g} grid nodes, more than {MAX_DOFS}; "
            f"lower cells-per-unit-length or the edge lengths"
        )
    edge_nodes, edge_h = {}, {}
    for e in graph.edges:
        n = int(round(cells_per_unit * e.ell))
        if n < MIN_CELLS:
            raise SimulationError(
                f"edge {e.id!r}: {n} cells < {MIN_CELLS}; refusing an "
                f"under-resolved edge (raise cells-per-unit-length)"
            )
        idx = np.empty(n + 1, dtype=np.int32)  # halves the assembly's memory
        idx[0] = vertex_dof[e.tail]
        idx[-1] = vertex_dof[e.head]
        idx[1:-1] = np.arange(nd, nd + n - 1)
        nd += n - 1
        edge_nodes[e.id] = idx
        edge_h[e.id] = e.ell / n
    # every cell (a, b) of width h adds h/2 to M at both ends and the
    # element stiffness [[1, -1], [-1, 1]] / h to K
    cells = [(idx[:-1], idx[1:], np.full(len(idx) - 1, edge_h[eid]))
             for eid, idx in edge_nodes.items()]
    a, b, h = (np.concatenate(c) for c in zip(*cells))
    lumped = np.bincount(a, h / 2.0, nd) + np.bincount(b, h / 2.0, nd)
    w = 1.0 / h
    stiffness = sp.csr_matrix(
        (np.concatenate([w, w, -w, -w]),
         (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
        shape=(nd, nd))

    def dofs(vertices):
        return np.array([vertex_dof[v.id] for v in vertices], dtype=int)

    damping = np.zeros(nd)
    damping[dofs(graph.controlled_vertices)] = 1.0
    if graph.variant == "circuit":
        damping[dofs(graph.mass_vertices)] = 1.0
    return GridLayout(
        vertex_dof, edge_nodes, edge_h, nd, lumped, stiffness, damping,
        dofs(graph.dirichlet_vertices),
        tuple(v.id for v in graph.mass_vertices), dofs(graph.mass_vertices),
        np.array([v.mass for v in graph.mass_vertices], dtype=float))


@dataclass(frozen=True)
class NetworkState:
    """Sampled fields y, v on the global grid plus oscillator pairs (p, q),
    the oscillators in `layout.mass_ids` order."""

    graph: MetricGraph
    layout: GridLayout
    y: np.ndarray
    v: np.ndarray
    p: np.ndarray
    q: np.ndarray
    t: float
    y_prev: np.ndarray | None = None  # field one step back (leapfrog memory)
    p_prev: np.ndarray | None = None
    ky_prev: np.ndarray | None = None  # K @ y_prev, left by the step


def init_state(graph: MetricGraph, y0=None, v0=None, osc=None,
               cells_per_unit: float = 16.0) -> NetworkState:
    """Sample initial data onto the grid.

    y0 and v0 map edge ids to callables of the arclength x in [0, l_j]
    (tail-to-head); osc maps mass vertex ids to (displacement, velocity).
    Missing entries mean zero.  y0 must be continuous at shared vertices and
    vanish at Dirichlet vertices, and all data must be finite.
    """
    layout = make_layout(graph, cells_per_unit)
    y = np.zeros(layout.ndof)
    v = np.zeros(layout.ndof)
    y0 = y0 or {}
    v0 = v0 or {}
    osc = osc or {}

    vertex_vals: dict = {}
    for e in graph.edges:
        idx = layout.edge_nodes[e.id]
        xs = np.linspace(0.0, e.ell, len(idx))
        fy = y0.get(e.id)
        fv = v0.get(e.id)
        ye = np.array([float(fy(x)) for x in xs]) if fy else np.zeros(len(xs))
        ve = np.array([float(fv(x)) for x in xs]) if fv else np.zeros(len(xs))
        scale = max(1.0, float(np.max(np.abs(ye))))
        for end, vid in ((0, e.tail), (-1, e.head)):
            val = ye[end]
            if vid in vertex_vals:
                if abs(val - vertex_vals[vid]) > CONTINUITY_TOL * scale:
                    raise SimulationError(
                        f"initial data discontinuous at vertex {vid!r}: "
                        f"{vertex_vals[vid]} vs {val}"
                    )
            else:
                vertex_vals[vid] = val
        y[idx] = ye
        v[idx] = ve
    for vert in graph.dirichlet_vertices:
        val = vertex_vals.get(vert.id, 0.0)
        if abs(val) > CONTINUITY_TOL:
            raise SimulationError(
                f"initial data nonzero ({val}) at clamped vertex {vert.id!r}"
            )
    y[layout.dirichlet] = 0.0
    v[layout.dirichlet] = 0.0

    pairs = [osc.get(vid, (0.0, 0.0)) for vid in layout.mass_ids]
    p = np.array([float(s0) for s0, _ in pairs])
    q = np.array([float(s1) for _, s1 in pairs])
    if not all(np.all(np.isfinite(a)) for a in (y, v, p, q)):
        raise SimulationError("initial data must be finite")
    return NetworkState(graph, layout, y, v, p, q, 0.0)


def min_spacing(layout: GridLayout) -> float:
    return min(layout.edge_h.values())


def _bootstrap(state: NetworkState, dt: float) -> NetworkState:
    """Fill in the fictitious pre-initial field by a Taylor half-step back,
    with the accelerations M^{-1}(-K y - C v + B q) and -(p + B^T v) / m."""
    lay = state.layout
    y, v, p, q = state.y, state.v, state.p, state.q
    force = -(lay.stiffness @ y) - lay.damping * v
    force[lay.mass_dofs] += q
    acc = force / lay.lumped_mass
    acc[lay.dirichlet] = 0.0
    sdd = (-p - v[lay.mass_dofs]) / lay.masses
    p_prev = p - dt * q + 0.5 * dt * dt * sdd
    return replace(state, y_prev=y - dt * v + 0.5 * dt * dt * acc,
                   p_prev=p_prev, ky_prev=None)


def step(state: NetworkState, dt: float, cfl: float = DEFAULT_CFL) -> NetworkState:
    """Advance one time step of size dt (dt <= cfl * min grid spacing):

        M (y+ - 2y + y-)/dt^2 + C (y+ - y-)/(2dt) + K y = B (p+ - p-)/(2dt),
        m (p+ - 2p + p-)/dt^2 + p = -B^T (y+ - y-)/(2dt).
    """
    if not dt > 0:
        raise SimulationError("dt must be positive")
    hmin = min_spacing(state.layout)
    if dt > cfl * hmin * (1.0 + 1e-12):
        raise SimulationError(f"dt={dt} violates the CFL bound {cfl}*{hmin}")
    if state.y_prev is None:
        state = _bootstrap(state, dt)
    lay = state.layout
    y, y_prev = state.y, state.y_prev
    ky = lay.stiffness @ y
    # interior rows: y+ = 2y - y- - dt^2 M^{-1} K y, formed in place because
    # a fresh temporary of a fine-mesh field costs more than its arithmetic
    y_new = ky * (-dt * dt)
    y_new /= lay.lumped_mass
    y_new += y
    y_new += y
    y_new -= y_prev
    # the vertex rows (the first DOFs) add the damping C, and the pins
    nv = len(lay.vertex_dof)
    a = lay.lumped_mass[:nv] / (dt * dt)
    b = 0.5 / dt
    diag = a + b * lay.damping[:nv]
    y_new[:nv] = (a * y_new[:nv] + b * lay.damping[:nv] * y_prev[:nv]) / diag
    y_new[lay.dirichlet] = 0.0

    # the force at a mass vertex makes y+ = y_new + f (p+ - p-): eliminate
    # y+ from the oscillator row and solve it for p+
    j = lay.mass_dofs
    p, p_prev = state.p, state.p_prev
    f = b / diag[j]
    a22 = lay.masses / (dt * dt)
    p_new = (a22 * (2.0 * p - p_prev) - p - b * (y_new[j] - y_prev[j])
             + b * f * p_prev) / (a22 + b * f)
    y_new[j] += f * (p_new - p_prev)

    v_new = y_new - y  # (3y+ - 4y + y-)/(2dt), in place
    v_new *= 3.0
    v_new -= y
    v_new += y_prev
    v_new /= 2.0 * dt
    q_new = (3.0 * p_new - 4.0 * p + p_prev) / (2.0 * dt)
    return replace(state, y=y_new, v=v_new, p=p_new, q=q_new, t=state.t + dt,
                   y_prev=y, p_prev=p, ky_prev=ky)


def _quadratic_energy(layout: GridLayout, v, y, ky, q, p, p0) -> float:
    """1/2 (v'Mv + y'(K y0) + sum m q^2 + sum p p0), given ky = K y0: the
    physical energy when y0 = y and p0 = p, the staggered one across two
    time levels."""
    return 0.5 * (float(np.einsum("i,i,i->", v, layout.lumped_mass, v))
                  + float(np.dot(y, ky))
                  + float(np.dot(layout.masses * q, q)) + float(np.dot(p, p0)))


def energy(state: NetworkState) -> float:
    """Discrete energy: staggered |y_x|^2, lumped |y_t|^2, pointwise masses."""
    lay = state.layout
    return _quadratic_energy(lay, state.v, state.y, lay.stiffness @ state.y,
                             state.q, state.p, state.p)


def shadow_energy(state: NetworkState, dt: float) -> float | None:
    """Staggered leapfrog energy at time t - dt/2; exactly dissipated.

    Needs one step of history; None on a freshly initialized state.
    """
    if state.y_prev is None:
        return None
    lay = state.layout
    ky = state.ky_prev if state.ky_prev is not None else lay.stiffness @ state.y_prev
    p, p_prev = state.p, state.p_prev
    v = state.y - state.y_prev
    v /= dt
    return _quadratic_energy(lay, v, state.y, ky, (p - p_prev) / dt, p, p_prev)


@dataclass
class EnergySeries:
    """Sampled energy budget of a run plus the fitted decay exponent."""

    t: np.ndarray
    E: np.ndarray
    D: np.ndarray  # cumulative boundary dissipation
    R: np.ndarray  # energy-balance residual E(0) - E(t) - D(t)
    omega: float
    fit_residual: float
    fit_ok: bool
    shadow: np.ndarray  # staggered leapfrog energy (exactly nonincreasing)
    e0: float


def run(graph: MetricGraph, config: dict, y0=None, v0=None, osc=None) -> EnergySeries:
    """Simulate to time T through `step` and assemble the energy budget.

    config keys: T (required), cfl (default 0.9), cells_per_unit (default 16),
    sample_stride (default 1).  Every stride-th step samples the energy with
    centered velocities, the staggered energy and the trapezoid-accumulated
    dissipation, all from the K y product the step already formed.  Bad
    parameters raise SimulationError.
    """
    try:
        T = float(config["T"])
        cfl = float(config.get("cfl", DEFAULT_CFL))
        cells = float(config.get("cells_per_unit", 16.0))
        stride = int(config.get("sample_stride", 1))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SimulationError(f"bad run parameter: {exc}") from None
    if not (0 < T < math.inf and 0 < cfl < math.inf and 0 < cells < math.inf
            and stride >= 1):
        raise SimulationError(
            f"need finite positive T, cfl and cells_per_unit and "
            f"sample_stride >= 1; got T={T}, cfl={cfl}, cells_per_unit={cells}, "
            f"sample_stride={stride}")

    state = init_state(graph, y0, v0, osc, cells)
    layout = state.layout
    dt = cfl * min_spacing(layout)
    nsteps = max(1, int(math.ceil(T / dt)))
    dt = T / nsteps
    damped = np.flatnonzero(layout.damping)

    ts, es, ds, shadows = [], [], [], []
    d_acc = 0.0
    prev_rate = None
    prev_sample_e = None

    # one step of lookahead so every sample uses centered differences;
    # the loop advances through t = (nsteps+1) * dt but reports up to T
    state = _bootstrap(state, dt)
    for n in range(nsteps + 1):
        new = step(state, dt, cfl)
        vc = (new.y[damped] - state.y_prev[damped]) / (2.0 * dt)
        rate = float(np.dot(vc, vc))  # v'Cv with C = 1 on the damped DOFs
        if prev_rate is not None:  # trapezoid in time over the samples
            d_acc += 0.5 * dt * (prev_rate + rate)
        prev_rate = rate
        if n % stride == 0 or n == nsteps:
            vc = new.y - state.y_prev
            vc /= 2.0 * dt
            qc = (new.p - state.p_prev) / (2.0 * dt)
            e = _quadratic_energy(layout, vc, state.y, new.ky_prev, qc, state.p,
                                  state.p)
            sh = shadow_energy(new, dt)
            # the staggered energy is exactly nonincreasing for a correct
            # scheme, so any growth there flags a genuine failure
            if prev_sample_e is not None and sh > BLOWUP_FACTOR * prev_sample_e + 1e-30:
                raise SimulationError(
                    f"energy grew from {prev_sample_e} to {sh} at t={state.t}: "
                    f"scheme or boundary-condition failure"
                )
            prev_sample_e = sh
            ts.append(state.t)
            es.append(e)
            ds.append(d_acc)
            shadows.append(sh)
        state = new

    e0 = es[0]
    t = np.array(ts)
    E = np.array(es)
    D = np.array(ds)
    R = e0 - E - D
    omega, fit_res, fit_ok = _fit_decay(t, E, T)
    return EnergySeries(t, E, D, R, omega, fit_res, fit_ok, np.array(shadows), e0)


def _fit_decay(t, E, T):
    """Least-squares slope of log E on [T/2, T]; rejected fits report 0."""
    mask = t >= T / 2.0
    tt, ee = t[mask], np.maximum(E[mask], 1e-300)
    if len(tt) < 3 or ee[0] <= 0:
        return 0.0, math.inf, False
    logs = np.log(ee)
    coeffs = np.polyfit(tt, logs, 1)
    fitted = np.polyval(coeffs, tt)
    spread = float(np.std(logs))
    rms = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    rel = rms / spread if spread > 0 else math.inf
    if rel > FIT_REJECT:
        return 0.0, rel, False
    return -float(coeffs[0]), rel, True
