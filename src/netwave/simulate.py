"""Explicit time-domain simulation of the damped wave network.

Each edge carries a uniform grid of elements whose nodes, the Dirichlet
vertices excepted, are the unknowns of one semi-discrete system (see
`GridLayout`)

    M y'' + C y' + K y = B q,    m_k s_k'' + s_k = -(B^T y')_k,    q = s'.

Half-cell lumping at a vertex reproduces, as the mesh is refined, the
Kirchhoff flux law with the oscillator source (interior masses), the
absorbing impedance y_x = -y_t (controlled leaves) or the Dirichlet pin.
`make_layout` builds elements of order p on the Gauss-Lobatto-Legendre
nodes, whose quadrature keeps M diagonal; order 1 is the piecewise-linear
mesh with lumped mass, the only order the stepper runs, since its CFL
bound dt <= cfl * hmin is known for that order only.
Leapfrog in time takes one product K y per step; the damped vertices and the
vertex-oscillator pairs are implicit but local, so each mass costs one 2x2
solve.  Every coefficient that depends on the time step (the implicit vertex
rows, the eliminated mass solve) is built once per (mesh, dt) and cached on
the layout, so a step is a few array updates.  The stepper forms K y with
numpy alone (`Bands`), from the entries of K that `make_layout` sums: the
resolvent builds its sparse matrices from the same entries, so a
simulation loads no sparse stack.

Alongside the physical energy the run loop tracks the staggered (half-step)
leapfrog energy, which obeys an exact discrete dissipation identity: it
decreases at every step by dt times the squared centered velocity at the
damped vertices.  Both are quadratic forms in K, M and the masses.  A stepped
state holds two leapfrog levels, not velocities.  The run loop forms one
level difference d = y+ - y per step, with its weighted copy M d: d'M d is
the staggered energy's kinetic term, and the centered one of the physical
energy expands to d'M d + d-'M d- + 2 (M d)'d-, d- the step before, so it
costs one more dot product.  The sampled times, the dissipation and the
staggered energy are bit for bit those of `shadow_energy`; the physical
energy agrees with `energy` of the centered state to round-off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import DEFAULT_CELLS, DEFAULT_CFL, DEFAULT_STRIDE, MetricGraph, NetwaveError

MIN_CELLS = 4
MAX_DOFS = 4_000_000  # grid nodes of one layout
MAX_STEPS = 10_000_000  # leapfrog steps of one run
CONTINUITY_TOL = 1e-8
BLOWUP_FACTOR = 1.01
FIT_REJECT = 0.2


class SimulationError(NetwaveError, RuntimeError):
    pass


@dataclass(frozen=True)
class GridLayout:
    """Global degree-of-freedom numbering and the semi-discrete operator.

    The unknowns are the free vertices in graph order, then the interior
    nodes of each edge in tail-to-head order.  A Dirichlet vertex carries
    no DOF: it is numbered after the last unknown, so `edge_nodes` holds
    both ends of every edge while a pinned index into a state array fails.
    K is the stiffness of the order-p elements over the unknowns, M the
    mass lumped by their Gauss-Lobatto-Legendre quadrature, C the unit
    damping at `graph.damped_vertices` and B the unit injection of each
    oscillator at its mass vertex.  M and C are kept as diagonals, B as the
    DOF index of each oscillator's unit entry, and K as its entries, each
    listed once, which `bands` and the resolvent read.
    """

    vertex_dof: dict
    edge_nodes: dict  # edge id -> int array of DOF indices, tail..head
    edge_h: dict  # edge id -> element width
    order: int  # p: an element spans p + 1 nodes
    ndof: int
    lumped_mass: np.ndarray  # M: sum over elements of (h/2) w_j at node j
    # K: sum over elements of (2/h) D^T W D, as its entries (values, rows,
    # cols), each (row, col) once; see `make_layout` for the summation order
    k_triplets: tuple
    damping: np.ndarray  # C: 1 at the damped DOFs, 0 elsewhere
    mass_ids: tuple  # the oscillators, in graph order
    mass_dofs: np.ndarray  # B: the vertex DOF each oscillator drives
    masses: np.ndarray

    @functools.cached_property
    def bands(self) -> Bands:
        """K as the order-1 stepper applies it, entry for entry that of
        `k_triplets`."""
        return _bands(self)

    @functools.cached_property
    def hmin(self) -> float:
        """The smallest element width, which bounds dt by the CFL condition
        at order 1."""
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
    _check_order(layout)
    # a dt so small that 1/dt^2 leaves the double range is refused below
    with np.errstate(all="ignore"):
        # each row of M (y+ - 2y + y-)/dt^2 + C (y+ - y-)/(2dt) + K y = 0,
        # solved for y+; C is nonzero at vertices only, so interior rows are
        # explicit
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
        coefficients = (a1, a2, g, f, (2.0 * a22 - 1.0) / den, (b * f - a22) / den,
                        -b / den)
    if not all(np.isfinite(c).all() for c in coefficients):
        raise SimulationError(f"dt={dt} is too small: the step coefficients overflow")
    return Leapfrog(*coefficients, np.flatnonzero(layout.damping))


def _check_order(layout: GridLayout) -> None:
    if layout.order != 1:
        raise SimulationError(
            f"the leapfrog step needs order-1 elements, got order {layout.order}")


@dataclass(frozen=True)
class Bands:
    """K of an order-1 layout as numpy arrays: its entries in the rows and
    columns of the free vertices, and its diagonal and band K[i, i-1],
    K[i, i+1] at the interior nodes.  Each entry of `k_triplets` lies in
    exactly one of them, and `bands @ y` sums each row from 0 in column
    order, as a CSR product over those entries does, so it is that K y bit
    for bit."""

    rows: np.ndarray  # the vertex entries, sorted by row, then column
    cols: np.ndarray
    values: np.ndarray
    diag: np.ndarray  # K[i, i] at the interior nodes, 0 at the vertices
    lower: np.ndarray  # K[i, i-1] at i - 1 between interior nodes, else 0
    upper: np.ndarray  # K[i, i+1] at i, likewise

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        # the CSR product sums a row from 0 in column order, and a vertex
        # column comes before the interior ones: the vertex entries first,
        # by bincount's running sums, then K[i, i-1], K[i, i], K[i, i+1]
        ky = np.bincount(self.rows, self.values * y[self.cols], len(y))
        tmp = self.lower * y[:-1]
        tail, head = ky[1:], ky[:-1]
        tail += tmp
        ky += self.diag * y
        np.multiply(self.upper, y[1:], out=tmp)
        head += tmp
        return ky


def _bands(layout: GridLayout) -> Bands:
    _check_order(layout)
    nd = layout.ndof
    values, rows, cols = layout.k_triplets
    # the free vertices are the DOFs below the first interior node
    nv = sum(dof < nd for dof in layout.vertex_dof.values())
    interior = (rows >= nv) & (cols >= nv)
    diag, lower, upper = np.zeros(nd), np.zeros(nd - 1), np.zeros(nd - 1)
    for part, where, at in ((diag, rows == cols, rows), (lower, rows == cols + 1, cols),
                            (upper, rows + 1 == cols, rows)):
        where &= interior
        part[at[where]] = values[where]
    vertex = ~interior
    order = np.lexsort((cols[vertex], rows[vertex]))
    return Bands(rows[vertex][order], cols[vertex][order], values[vertex][order],
                 diag, lower, upper)


@functools.cache
def _gll(order: int) -> tuple:
    """The Gauss-Lobatto-Legendre weights w of `order` on [-1, 1] and the
    element stiffness D^T W D, D the derivative of the nodal interpolant
    at the nodes; read-only, computed once per order."""
    p = order
    # Newton on (1 - x^2) P_p'(x) from the Chebyshev-Gauss-Lobatto points,
    # with P_p and P_(p-1) by the three-term recurrence
    x = np.array([-math.cos(math.pi * k / p) for k in range(p + 1)])
    for _ in range(100):
        prev, cur = np.ones_like(x), x
        for k in range(2, p + 1):
            prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
        dx = (x * cur - prev) / ((p + 1) * cur)
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    w = 2.0 / (p * (p + 1) * cur * cur)
    # D_ij = P_p(x_i) / (P_p(x_j)(x_i - x_j)), with zero row sums
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    D = cur[:, None] / (cur[None, :] * diff)
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    # summed without BLAS, and the start above is taken without numpy's
    # cos: the first call of either raises peak RSS by about 0.5 MB, which a
    # simulate run, which calls neither otherwise, would pay
    stiffness = (w[:, None, None] * D[:, :, None] * D[:, None, :]).sum(axis=0)
    for a in (w, stiffness):
        a.flags.writeable = False
    return w, stiffness


def make_layout(graph: MetricGraph, cells_per_unit: float, order: int = 1) -> GridLayout:
    """The mesh of `cells_per_unit` elements (cells) of `order` per unit
    edge length, rounded to a whole number of elements on each edge, and its
    semi-discrete operator.  An element of width h carries the p + 1
    Gauss-Lobatto-Legendre nodes of order p; order 1 is the piecewise-linear
    mesh with lumped mass.

    This is the one check of a mesh for both the time-domain scheme and the
    resolvent generator: a cell density that is not finite and positive, an
    edge with fewer than MIN_CELLS elements, or more than MAX_DOFS grid nodes
    raises SimulationError.
    """
    if not 0 < cells_per_unit < math.inf:
        raise SimulationError(
            f"a mesh needs a finite positive number of cells per unit length, "
            f"got {cells_per_unit!r}")
    # counted in floats before any allocation: an edge of length 1e300 asks
    # for 1e301 nodes, and its cell count may not even be a finite number
    nodes = len(graph.vertices) + sum(cells_per_unit * order * e.ell - 1
                                      for e in graph.edges)
    if not nodes <= MAX_DOFS:
        raise SimulationError(
            f"the mesh needs {nodes:.3g} grid nodes, more than {MAX_DOFS}; "
            f"lower the cells per unit length or the edge lengths"
        )
    w, kref = _gll(order)
    # the unknowns are the free vertices, then the interior nodes edge by
    # edge; the pinned vertices are numbered after them
    pinned = graph.dirichlet_vertices
    free = [v for v in graph.vertices if v not in pinned]
    vertex_dof = {v.id: i for i, v in enumerate(free)}
    edge_nodes, edge_h, cells, nd = {}, {}, [], len(free)
    for e in graph.edges:
        n = int(round(cells_per_unit * e.ell))
        if n < MIN_CELLS:
            raise SimulationError(
                f"edge {e.id!r}: {n} cells < {MIN_CELLS}; refusing an "
                f"under-resolved edge (raise the cells per unit length)"
            )
        # int32 halves the assembly's memory
        edge_nodes[e.id] = np.arange(nd - 1, nd + n * order, dtype=np.int32)
        nd += n * order - 1
        edge_h[e.id] = e.ell / n
        cells.append(n)
    vertex_dof.update((v.id, nd + k) for k, v in enumerate(pinned))
    for e in graph.edges:
        edge_nodes[e.id][[0, -1]] = vertex_dof[e.tail], vertex_dof[e.head]
    # node[j]: the j-th node of every element, and h: its width
    node = [np.concatenate([idx[j:len(idx) - order + j:order] for idx in edge_nodes.values()])
            for j in range(order + 1)]
    h = np.repeat(list(edge_h.values()), cells)
    total = nd + len(pinned)
    half = h / 2.0
    lumped = sum(np.bincount(node[j], half * w[j], total) for j in range(order + 1))[:nd]
    # the element entries (i, j): the diagonal, then i < j, then i > j, each
    # over every element.  Only diagonal entries meet, at the nodes that
    # elements share, and they are summed here in this order, so that K
    # lists each entry once and no library's summation order reaches it
    upper = [(i, j) for i in range(order + 1) for j in range(i + 1, order + 1)]
    pairs = [(i, i) for i in range(order + 1)] + upper + [(j, i) for i, j in upper]
    scale = 2.0 / h
    rows = np.concatenate([node[i] for i, _ in pairs])
    cols = np.concatenate([node[j] for _, j in pairs])
    values = np.concatenate([kref[i, j] * scale for i, j in pairs])
    unknown = (rows < nd) & (cols < nd)
    rows, cols, values = rows[unknown], cols[unknown], values[unknown]
    on = rows == cols
    dof = np.arange(nd, dtype=rows.dtype)
    values = np.concatenate([np.bincount(rows[on], values[on], nd), values[~on]])
    rows, cols = np.concatenate([dof, rows[~on]]), np.concatenate([dof, cols[~on]])

    def dofs(vertices):
        return np.array([vertex_dof[v.id] for v in vertices], dtype=int)

    damping = np.zeros(nd)
    damping[dofs(graph.damped_vertices)] = 1.0
    return GridLayout(
        vertex_dof, edge_nodes, edge_h, order, nd, lumped, (values, rows, cols), damping,
        tuple(v.id for v in graph.mass_vertices), dofs(graph.mass_vertices),
        np.array([v.mass for v in graph.mass_vertices], dtype=float))


@dataclass(slots=True)
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
    is refused.  y0 and v0 must each be continuous at shared vertices and
    vanish at Dirichlet vertices, and all data must be finite.
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

    # the value of y0 and of v0 at each vertex, from its first edge
    vertex_vals: dict = {"y0": {}, "v0": {}}
    for e in graph.edges:
        idx = layout.edge_nodes[e.id]
        xs = np.linspace(0.0, e.ell, len(idx))
        fy = y0.get(e.id)
        fv = v0.get(e.id)
        # one call per node on Python floats, so scalar profiles such as
        # math.sin serve as well as numpy-ready ones
        nodes = xs.tolist()
        ye = np.fromiter(map(fy, nodes), float, len(xs)) if fy else np.zeros(len(xs))
        ve = np.fromiter(map(fv, nodes), float, len(xs)) if fv else np.zeros(len(xs))
        for name, vals in (("y0", ye), ("v0", ve)):
            seen = vertex_vals[name]
            for end, vid in ((0, e.tail), (-1, e.head)):
                val = vals[end]
                jump = abs(val - seen.setdefault(vid, val))
                # the tolerance scales with the edge's largest value, at
                # least 1, so only a jump past CONTINUITY_TOL needs that value
                if (jump > CONTINUITY_TOL
                        and jump > CONTINUITY_TOL * max(1.0, float(np.max(np.abs(vals))))):
                    raise SimulationError(
                        f"initial data {name} discontinuous at vertex {vid!r}: "
                        f"{seen[vid]} vs {val}"
                    )
        free = idx < layout.ndof  # a pinned end is numbered past the unknowns
        y[idx[free]] = ye[free]
        v[idx[free]] = ve[free]
    for vert in graph.dirichlet_vertices:
        for name, seen in vertex_vals.items():
            val = seen.get(vert.id, 0.0)
            if abs(val) > CONTINUITY_TOL:
                raise SimulationError(
                    f"initial data {name} nonzero ({val}) at clamped vertex {vert.id!r}"
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
    force = -(lay.bands @ y) - lay.damping * v
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
    c = lay.leapfrog(dt)
    if state.y_prev is None:
        state = _bootstrap(state, dt)
    y, y_prev, p, p_prev = state.y, state.y_prev, state.p, state.p_prev
    ky = lay.bands @ y
    # formed in place: a fresh temporary of a fine-mesh field costs more
    # than its arithmetic
    y_new = c.a1 * y
    tmp = c.a2 * ky
    y_new -= tmp
    np.multiply(c.g, y_prev, out=tmp)
    y_new += tmp
    # the mass vertices, gathered once and written back once
    j = lay.mass_dofs
    u = y_new[j]
    p_new = c.p1 * p + c.p2 * p_prev + c.p3 * (u - y_prev[j])
    u += c.f * (p_new - p_prev)
    y_new[j] = u
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
                             lay.bands @ state.y, state.p, state.p)


def shadow_energy(state: NetworkState, dt: float) -> float | None:
    """Staggered leapfrog energy at time t - dt/2; exactly dissipated.

    Needs one step of history; None on a freshly initialized state.
    """
    if state.y_prev is None:
        return None
    lay = state.layout
    ky = state.ky_prev if state.ky_prev is not None else lay.bands @ state.y_prev
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
    dissipation, all from the K y product the step already formed.  The
    kinetic terms come from one level difference per sampled step and the
    one before it (see the module docstring): t, D and the staggered energy
    are bit-identical to `shadow_energy` and the damped rate of y+ - y-,
    while E differs from `energy` of the centered state by round-off.  The
    series also records the steps taken, dt and the least relative headroom
    1 - E_shadow / limit of the shadow-energy blow-up guard.  Bad parameters
    raise SimulationError, as do a dt whose step coefficients overflow, a
    sampled energy budget that is not finite and a run of more than
    MAX_STEPS steps.
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
    # the loop takes one step past T; compared without a division, since
    # cfl * hmin may underflow to 0
    if not T <= (MAX_STEPS - 1) * dt:
        raise SimulationError(
            f"T={T} at dt={dt} needs more than {MAX_STEPS} leapfrog steps; "
            f"lower T or the cells per unit length")
    nsteps = max(1, int(math.ceil(T / dt)))
    dt = T / nsteps
    damped = layout.leapfrog(dt).damped

    ts, es, ds, shadows = [], [], [], []
    d_acc = 0.0
    prev_rate = None
    prev_sample_e = None
    margin = math.inf

    def sampled(n):
        return n % stride == 0 or n == nsteps

    def difference(s):
        """The level difference of s, its weighted copy and its kinetic
        term, formed as `shadow_energy` forms them."""
        d, dp = s.y - s.y_prev, s.p - s.p_prev
        md, mdp = layout.lumped_mass * d, layout.masses * dp
        return d, dp, md, mdp, float(md.dot(d)) + float(mdp.dot(dp))

    # one step of lookahead so every sample uses centered differences;
    # the loop advances through t = (nsteps+1) * dt but reports up to T.
    # A sample reads the level differences of its own step and the one
    # before, the bootstrap's for the first.  A state that leaves the double
    # range is refused at the next sample, by its energy, rather than warned
    # about by each product
    with np.errstate(all="ignore"):
        state = _bootstrap(state, dt)
        d, dp, md, mdp, kin = difference(state)
        for n in range(nsteps + 1):
            new = step(state, dt, cfl)
            dy = new.y[damped] - state.y_prev[damped]
            rate = float(dy.dot(dy)) / (4.0 * dt * dt)  # v'Cv, C = 1 when damped
            if prev_rate is not None:  # trapezoid in time over the samples
                d_acc += 0.5 * dt * (prev_rate + rate)
            prev_rate = rate
            if sampled(n) or sampled(n + 1):
                d_prev, dp_prev, kin_prev = d, dp, kin
                d, dp, md, mdp, kin = difference(new)
            if sampled(n):
                # the centered difference is d + d_prev; the staggered energy is
                # `shadow_energy(new, dt)` operation for operation, ndarray.dot
                # being np.dot's product without its dispatch
                cross = float(md.dot(d_prev)) + float(mdp.dot(dp_prev))
                e = 0.5 * ((kin + kin_prev + 2.0 * cross) / (4.0 * dt * dt)
                           + float(state.y.dot(new.ky_prev))
                           + float(state.p.dot(state.p)))
                sh = 0.5 * (kin / (dt * dt) + float(new.y.dot(new.ky_prev))
                            + float(new.p.dot(new.p_prev)))
                if not math.isfinite(e + sh + d_acc):
                    raise SimulationError(
                        f"the energy budget left the double range at t={state.t}: "
                        f"E={e}, staggered {sh}, dissipated {d_acc}")
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
