"""Explicit time-domain simulation of the damped wave network.

Each edge carries a uniform grid whose nodes, the Dirichlet vertices
excepted, are the unknowns of one semi-discrete system (see `GridLayout`)

    M y'' + C y' + K y = B q,    m_k s_k'' + s_k = -(B^T y')_k,    q = s'.

Half-cell lumping at a vertex reproduces, as the mesh is refined, the
Kirchhoff flux law with the oscillator source (interior masses), the
absorbing impedance y_x = -y_t (controlled leaves) or the Dirichlet pin.
Leapfrog in time takes one product K y per step; the damped vertices and the
vertex-oscillator pairs are implicit but local, so each mass costs one 2x2
solve.  Every coefficient that depends on the time step (the implicit vertex
rows, the eliminated mass solve) is built once per (mesh, dt) and cached on
the layout, so a step is a few array updates.

Alongside the physical energy the run loop tracks the staggered (half-step)
leapfrog energy, which obeys an exact discrete dissipation identity: it
decreases at every step by dt times the squared centered velocity at the
damped vertices.  Both are quadratic forms in K, M and the masses.  A stepped
state holds two leapfrog levels, not velocities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .graph import MetricGraph

DEFAULT_CFL = 0.9
DEFAULT_CELLS = 16.0  # grid cells per unit edge length
DEFAULT_STRIDE = 1  # steps per energy sample
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

    The unknowns are the free vertices in graph order, then the interior
    nodes of each edge in tail-to-head order.  A Dirichlet vertex carries
    no DOF: it is numbered after the last unknown, so `edge_nodes` holds
    both ends of every edge while a pinned index into a state array fails.
    K is the stiffness of the piecewise-linear meshes over the unknowns, M
    the lumped mass, C the unit damping at `graph.damped_vertices` and B the
    unit injection of each oscillator at its mass vertex.  M and C are kept
    as diagonals, B as the DOF index of each oscillator's unit entry.
    """

    vertex_dof: dict
    edge_nodes: dict  # edge id -> int array of DOF indices, tail..head
    edge_h: dict  # edge id -> grid spacing
    ndof: int
    lumped_mass: np.ndarray  # M: h on interior nodes, sum of h_j/2 at vertices
    stiffness: sp.csr_matrix  # K: sum over cells of (e_a - e_b)(e_a - e_b)^T / h
    damping: np.ndarray  # C: 1 at the damped DOFs, 0 elsewhere
    mass_ids: tuple  # the oscillators, in graph order
    mass_dofs: np.ndarray  # B: the vertex DOF each oscillator drives
    masses: np.ndarray

    @functools.cached_property
    def hmin(self) -> float:
        """The smallest grid spacing, which bounds dt by the CFL condition."""
        return min(self.edge_h.values())

    @functools.cached_property
    def _leapfrog_slot(self) -> dict:
        return {}

    def leapfrog(self, dt: float) -> Leapfrog:
        """The step coefficients for dt, built once and kept until another
        dt is asked for."""
        slot = self._leapfrog_slot
        if dt not in slot:
            slot.clear()
            slot[dt] = _leapfrog(self, dt)
        return slot[dt]


@dataclass(frozen=True)
class Leapfrog:
    """The coefficients of one leapfrog step of size dt on one layout.

    The field moves by y+ = a1 y - a2 (K y) + g y- on every DOF.  Each
    oscillator then solves p+ = p1 p + p2 p- + p3 (y+_j - y-_j) with y+ so
    far at its vertex j and moves that vertex by f (p+ - p-).
    """

    a1: np.ndarray
    a2: np.ndarray
    g: np.ndarray
    f: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    damped: np.ndarray  # the DOFs where C = 1


def _leapfrog(layout: GridLayout, dt: float) -> Leapfrog:
    # each row of M (y+ - 2y + y-)/dt^2 + C (y+ - y-)/(2dt) + K y = 0, solved
    # for y+; C is nonzero at vertices only, so interior rows are explicit
    a = layout.lumped_mass / (dt * dt)
    b = 0.5 / dt
    diag = a + b * layout.damping
    a1, a2, g = 2.0 * a / diag, 1.0 / diag, (b * layout.damping - a) / diag
    # the force B (p+ - p-)/(2dt) at a mass vertex makes y+ = y+ so far
    # + f (p+ - p-): eliminating y+ from the oscillator row
    # m (p+ - 2p + p-)/dt^2 + p = -(y+ - y-)/(2dt) leaves one equation in p+
    f = b / diag[layout.mass_dofs]
    a22 = layout.masses / (dt * dt)
    den = a22 + b * f
    return Leapfrog(a1, a2, g, f, (2.0 * a22 - 1.0) / den, (b * f - a22) / den,
                    -b / den, np.flatnonzero(layout.damping))


def make_layout(graph: MetricGraph, cells_per_unit: float) -> GridLayout:
    """The grid of `cells_per_unit` cells per unit edge length, rounded to a
    whole number of cells on each edge, and its semi-discrete operator.

    This is the one check of a mesh for both the time-domain scheme and the
    resolvent generator: a cell density that is not finite and positive, an
    edge with fewer than MIN_CELLS cells, or more than MAX_DOFS grid nodes
    raises SimulationError.
    """
    if not 0 < cells_per_unit < math.inf:
        raise SimulationError(
            f"a mesh needs a finite positive number of cells per unit length, "
            f"got {cells_per_unit!r}")
    # counted in floats before any allocation: an edge of length 1e300 asks
    # for 1e301 nodes, and its cell count may not even be a finite number
    nodes = len(graph.vertices) + sum(cells_per_unit * e.ell - 1 for e in graph.edges)
    if not nodes <= MAX_DOFS:
        raise SimulationError(
            f"the mesh needs {nodes:.3g} grid nodes, more than {MAX_DOFS}; "
            f"lower the cells per unit length or the edge lengths"
        )
    # the unknowns are the free vertices, then the interior nodes edge by
    # edge; the pinned vertices are numbered after them
    pinned = graph.dirichlet_vertices
    free = [v for v in graph.vertices if v not in pinned]
    vertex_dof = {v.id: i for i, v in enumerate(free)}
    edge_nodes, edge_h, nd = {}, {}, len(free)
    for e in graph.edges:
        n = int(round(cells_per_unit * e.ell))
        if n < MIN_CELLS:
            raise SimulationError(
                f"edge {e.id!r}: {n} cells < {MIN_CELLS}; refusing an "
                f"under-resolved edge (raise the cells per unit length)"
            )
        # int32 halves the assembly's memory
        edge_nodes[e.id] = np.arange(nd - 1, nd + n, dtype=np.int32)
        nd += n - 1
        edge_h[e.id] = e.ell / n
    vertex_dof.update((v.id, nd + k) for k, v in enumerate(pinned))
    for e in graph.edges:
        edge_nodes[e.id][[0, -1]] = vertex_dof[e.tail], vertex_dof[e.head]
    # every cell (a, b) of width h adds h/2 to M at both ends and the
    # element stiffness [[1, -1], [-1, 1]] / h to K, kept on the unknowns
    cells = [(idx[:-1], idx[1:], np.full(len(idx) - 1, edge_h[eid]))
             for eid, idx in edge_nodes.items()]
    a, b, h = (np.concatenate(c) for c in zip(*cells))
    total = nd + len(pinned)
    lumped = (np.bincount(a, h / 2.0, total) + np.bincount(b, h / 2.0, total))[:nd]
    w = 1.0 / h
    rows, cols = np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a])
    unknown = (rows < nd) & (cols < nd)
    stiffness = sp.csr_matrix(
        (np.concatenate([w, w, -w, -w])[unknown], (rows[unknown], cols[unknown])),
        shape=(nd, nd))

    def dofs(vertices):
        return np.array([vertex_dof[v.id] for v in vertices], dtype=int)

    damping = np.zeros(nd)
    damping[dofs(graph.damped_vertices)] = 1.0
    return GridLayout(
        vertex_dof, edge_nodes, edge_h, nd, lumped, stiffness, damping,
        tuple(v.id for v in graph.mass_vertices), dofs(graph.mass_vertices),
        np.array([v.mass for v in graph.mass_vertices], dtype=float))


@dataclass(frozen=True)
class NetworkState:
    """Field y on the global grid and oscillator displacements p (in
    `layout.mass_ids` order) at time t.  Initial data carry the velocities
    (v, q) that start the leapfrog; a stepped state holds the previous
    level (y_prev, p_prev) instead, with v = q = None."""

    layout: GridLayout
    y: np.ndarray
    v: np.ndarray | None
    p: np.ndarray
    q: np.ndarray | None
    t: float
    y_prev: np.ndarray | None = None  # field one step back (leapfrog memory)
    p_prev: np.ndarray | None = None
    ky_prev: np.ndarray | None = None  # K @ y_prev, left by the step


def init_state(graph: MetricGraph, y0=None, v0=None, osc=None,
               cells_per_unit: float = DEFAULT_CELLS) -> NetworkState:
    """Sample initial data onto the grid.

    y0 and v0 map edge ids to callables of the arclength x in [0, l_j]
    (tail-to-head); osc maps mass vertex ids to (displacement, velocity).
    Missing entries mean zero; a key that names no edge, or no mass vertex,
    is refused.  y0 must be continuous at shared vertices and vanish at
    Dirichlet vertices, and all data must be finite.
    """
    layout = make_layout(graph, cells_per_unit)
    y = np.zeros(layout.ndof)
    v = np.zeros(layout.ndof)
    y0 = y0 or {}
    v0 = v0 or {}
    osc = osc or {}
    for name, data, ids, what in (("y0", y0, layout.edge_nodes, "an edge"),
                                  ("v0", v0, layout.edge_nodes, "an edge"),
                                  ("osc", osc, layout.mass_ids, "a mass vertex")):
        if stray := [key for key in data if key not in ids]:
            raise SimulationError(f"{name} names {stray[0]!r}, which is not {what}")

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
        free = idx < layout.ndof  # a pinned end is numbered past the unknowns
        y[idx[free]] = ye[free]
        v[idx[free]] = ve[free]
    for vert in graph.dirichlet_vertices:
        val = vertex_vals.get(vert.id, 0.0)
        if abs(val) > CONTINUITY_TOL:
            raise SimulationError(
                f"initial data nonzero ({val}) at clamped vertex {vert.id!r}"
            )

    pairs = [osc.get(vid, (0.0, 0.0)) for vid in layout.mass_ids]
    p = np.array([float(s0) for s0, _ in pairs])
    q = np.array([float(s1) for _, s1 in pairs])
    if not all(np.all(np.isfinite(a)) for a in (y, v, p, q)):
        raise SimulationError("initial data must be finite")
    return NetworkState(layout, y, v, p, q, 0.0)


def _bootstrap(state: NetworkState, dt: float) -> NetworkState:
    """Fill in the fictitious pre-initial field by a Taylor half-step back,
    with the accelerations M^{-1}(-K y - C v + B q) and -(p + B^T v) / m."""
    lay = state.layout
    y, v, p, q = state.y, state.v, state.p, state.q
    force = -(lay.stiffness @ y) - lay.damping * v
    force[lay.mass_dofs] += q
    acc = force / lay.lumped_mass
    sdd = (-p - v[lay.mass_dofs]) / lay.masses
    p_prev = p - dt * q + 0.5 * dt * dt * sdd
    return replace(state, y_prev=y - dt * v + 0.5 * dt * dt * acc,
                   p_prev=p_prev, ky_prev=None)


def step(state: NetworkState, dt: float, cfl: float = DEFAULT_CFL) -> NetworkState:
    """Advance one time step of size dt (dt <= cfl * min grid spacing):

        M (y+ - 2y + y-)/dt^2 + C (y+ - y-)/(2dt) + K y = B (p+ - p-)/(2dt),
        m (p+ - 2p + p-)/dt^2 + p = -B^T (y+ - y-)/(2dt).

    The coefficients of this solve are built once per (mesh, dt) and kept on
    the layout (`GridLayout.leapfrog`), so a step is one product K y, a few
    array updates and the eliminated oscillator rows.  The new state holds
    the levels (y+, p+) and (y, p) and K y, no velocities.
    """
    if not dt > 0:
        raise SimulationError("dt must be positive")
    lay = state.layout
    if dt > cfl * lay.hmin * (1.0 + 1e-12):
        raise SimulationError(f"dt={dt} violates the CFL bound {cfl}*{lay.hmin}")
    if state.y_prev is None:
        state = _bootstrap(state, dt)
    c = lay.leapfrog(dt)
    y, y_prev, p, p_prev = state.y, state.y_prev, state.p, state.p_prev
    ky = lay.stiffness @ y
    # formed in place: a fresh temporary of a fine-mesh field costs more
    # than its arithmetic
    y_new = c.a1 * y
    tmp = c.a2 * ky
    y_new -= tmp
    np.multiply(c.g, y_prev, out=tmp)
    y_new += tmp
    j = lay.mass_dofs
    p_new = c.p1 * p + c.p2 * p_prev + c.p3 * (y_new[j] - y_prev[j])
    y_new[j] += c.f * (p_new - p_prev)
    return NetworkState(lay, y_new, None, p_new, None, state.t + dt, y, p, ky)


def _quadratic_energy(layout: GridLayout, dy, dp, s: float, y, ky, p, p0) -> float:
    """1/2 ((dy'M dy + sum m dp^2) / s^2 + y'(K y0) + sum p p0), given
    ky = K y0: with the velocities dy/s and dp/s, the physical energy when
    y0 = y and p0 = p, the staggered one across two time levels."""
    kinetic = (float(np.dot(layout.lumped_mass * dy, dy))
               + float(np.dot(layout.masses * dp, dp)))
    return 0.5 * (kinetic / (s * s) + float(np.dot(y, ky)) + float(np.dot(p, p0)))


def energy(state: NetworkState) -> float:
    """Discrete energy: staggered |y_x|^2, lumped |y_t|^2, pointwise masses.
    Reads the velocities (v, q), so a stepped state raises SimulationError."""
    if state.v is None or state.q is None:
        raise SimulationError("energy needs velocities; a stepped state has levels only")
    lay = state.layout
    return _quadratic_energy(lay, state.v, state.q, 1.0, state.y,
                             lay.stiffness @ state.y, state.p, state.p)


def shadow_energy(state: NetworkState, dt: float) -> float | None:
    """Staggered leapfrog energy at time t - dt/2; exactly dissipated.

    Needs one step of history; None on a freshly initialized state.
    """
    if state.y_prev is None:
        return None
    lay = state.layout
    ky = state.ky_prev if state.ky_prev is not None else lay.stiffness @ state.y_prev
    return _quadratic_energy(lay, state.y - state.y_prev, state.p - state.p_prev,
                             dt, state.y, ky, state.p, state.p_prev)


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
    steps: int  # leapfrog steps taken, one past T for the centered samples
    dt: float
    guard_margin: float  # least relative headroom of the blow-up guard


def run(graph: MetricGraph, config: dict, y0=None, v0=None, osc=None) -> EnergySeries:
    """Simulate to time T through `step` and assemble the energy budget.

    config keys: T (required), cfl, cells_per_unit and sample_stride
    (defaults DEFAULT_*).  Every stride-th step samples the energy with
    centered velocities, the staggered energy and the trapezoid-accumulated
    dissipation, all from the K y product the step already formed and from
    raw differences of the leapfrog levels.  The series also records the
    steps taken, dt and the least relative headroom 1 - E_shadow / limit of
    the shadow-energy blow-up guard.  Bad parameters raise SimulationError.
    """
    try:
        given = {"T": config["T"], "cfl": config.get("cfl", DEFAULT_CFL),
                 "cells_per_unit": config.get("cells_per_unit", DEFAULT_CELLS)}
        T, cfl, cells = (float(value) for value in given.values())
        stride = config.get("sample_stride", DEFAULT_STRIDE)
        whole = float(stride)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SimulationError(f"bad run parameter: {exc}") from None
    # a boolean would read as 1 and a fraction would truncate
    for key, value in given.items():
        if isinstance(value, bool):
            raise SimulationError(f"{key} must be a number, got {value!r}")
    if isinstance(stride, bool) or not whole.is_integer():
        raise SimulationError(f"sample_stride must be an integer, got {stride!r}")
    stride = int(whole)
    # make_layout checks cells_per_unit
    if not (0 < T < math.inf and 0 < cfl < math.inf and stride >= 1):
        raise SimulationError(
            f"need finite positive T and cfl and sample_stride >= 1; "
            f"got T={T}, cfl={cfl}, sample_stride={stride}")

    state = init_state(graph, y0, v0, osc, cells)
    layout = state.layout
    dt = cfl * layout.hmin
    nsteps = max(1, int(math.ceil(T / dt)))
    dt = T / nsteps
    damped = layout.leapfrog(dt).damped

    ts, es, ds, shadows = [], [], [], []
    d_acc = 0.0
    prev_rate = None
    prev_sample_e = None
    margin = math.inf

    # one step of lookahead so every sample uses centered differences;
    # the loop advances through t = (nsteps+1) * dt but reports up to T
    state = _bootstrap(state, dt)
    for n in range(nsteps + 1):
        new = step(state, dt, cfl)
        dy = new.y[damped] - state.y_prev[damped]
        rate = float(np.dot(dy, dy)) / (4.0 * dt * dt)  # v'Cv, C = 1 when damped
        if prev_rate is not None:  # trapezoid in time over the samples
            d_acc += 0.5 * dt * (prev_rate + rate)
        prev_rate = rate
        if n % stride == 0 or n == nsteps:
            e = _quadratic_energy(layout, new.y - state.y_prev, new.p - state.p_prev,
                                  2.0 * dt, state.y, new.ky_prev, state.p, state.p)
            sh = shadow_energy(new, dt)
            # the staggered energy is exactly nonincreasing for a correct
            # scheme, so any growth there flags a genuine failure
            if prev_sample_e is not None:
                limit = BLOWUP_FACTOR * prev_sample_e + 1e-30
                if sh > limit:
                    raise SimulationError(
                        f"energy grew from {prev_sample_e} to {sh} at t={state.t}: "
                        f"scheme or boundary-condition failure"
                    )
                margin = min(margin, 1.0 - sh / limit)
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
    return EnergySeries(t, E, D, R, omega, fit_res, fit_ok, np.array(shadows), e0,
                        nsteps + 1, dt, margin)


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
