"""Finite-dimensional generator and resolvent-norm sweeps.

The first-order system z' = A z over z = (y, v, p, q) is built on the
`GridLayout` that drives the time-domain scheme: its semi-discrete operator
(K, M, C, B) is read as it stands, since the layout gives the Dirichlet
vertices no DOF.  The discrete energy inner product
<z, z>_W = y'Ky + v'Mv + sum p^2 + sum m q^2 makes the generator exactly
dissipative: Re<A_h z, z>_W = -sum of v^2 at the damped vertices.

Resolvent norms ||(i beta - A_h)^{-1}||_W are computed by power iteration on
the W-self-adjoint operator W^{-1} L^{-H} W L^{-1}, L = i beta - A_h.  L^{-1}
is applied through the (y, p) system: the rows y' = v and p' = q of L
eliminate v and q exactly, which leaves the complex symmetric
H(beta) = H0 + beta H1 + beta^2 H2 of half the size, one sparse LU per
frequency.  By time-reversal symmetry that factor also serves the
W-adjoint (W is never factored).  What does not depend on beta (the start
vector, the diagonals of H1 and H2, W, the largest entries of H0, H1 and
H2, and the CSC storage that each beta's H(beta) is written into) is
computed once per generator.  Since a finite matrix always has finite
norms, boundedness on the axis is judged only through a mesh-refinement
ladder, as recorded in the sweep verdict.

`sweep` runs on elements of order SWEEP_ORDER (8), whose spectral accuracy
reads a sup to about 1e-7 with a fraction of the unknowns the
piecewise-linear mesh needs: its ladder is in elements per unit length,
by default two meshes of b and 1.5 b elements with
b = max(MIN_CELLS / shortest edge, ELEMENTS_PER_BETA * beta_max, 8).
Such a mesh puts an eigenvalue that lies on the axis within round-off of
it, so the norm there is limited by round-off, not by the mesh, and the
verdict reads a sup above AXIS_RATIO = 1/sqrt(eps) times its curve's median
on both finest meshes as unbounded.

scipy's sparse stack loads with this module, and of the subcommands only
`sweep` imports it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .graph import MetricGraph, NetwaveError
from .simulate import GridLayout, make_layout, MIN_CELLS

POWER_TOL = 1e-6
POWER_MAXIT = 1000
HUGE = 1e30
SWEEP_ORDER = 8  # element order of every sweep mesh
ELEMENTS_PER_BETA = 0.2  # default sweep elements per unit length per unit beta_max
BOUNDED_CHANGE = 0.2
UNBOUNDED_FACTOR = 2.0
AXIS_RATIO = 1.0 / math.sqrt(sys.float_info.epsilon)  # 6.7e7


class ResolventError(NetwaveError, RuntimeError):
    pass


@dataclass(frozen=True)
class NormConstants:
    """What `resolvent_norm` needs of a generator at every beta.

    Vectors run over the state in the order (y, p | v, q), so the (y, p)
    unknowns of H(beta) are the first half and the velocities the second.
    """

    start: np.ndarray  # W-normalised power-iteration start, read-only
    h1: np.ndarray  # diagonal of H1
    h2: np.ndarray  # diagonal of H2
    W: sp.csr_matrix  # the energy weight, complex-typed
    hmax: tuple  # the largest |entry| of H0, H1 and H2
    # H(beta) on the shared pattern of H0, H1 and H2: each norm overwrites
    # its values, so one generator's norms must not run concurrently
    H: sp.csc_matrix


@dataclass
class DiscreteGenerator:
    """Sparse A_h with the energy weight W_h, built on a `GridLayout`.

    State layout: [y nodes, v nodes, p_1..p_K, q_1..q_K], where the y/v
    blocks run over the unknowns of the layout, which gives the Dirichlet
    vertices no DOF, and the oscillators follow `layout.mass_ids`.  K is the
    layout's stiffness as a CSR matrix.  H0, H1 and H2 are the coefficients
    of the (y, p) system H(beta) = H0 + beta H1 + beta^2 H2 of i beta - A_h,
    on one shared CSC pattern.  A_h and W_h are built on first use, since
    resolvent norms never need A_h, and so are the beta-independent
    `norm_constants` of the norms.
    """

    layout: GridLayout
    K: sp.csr_matrix
    H0: sp.csc_matrix
    H1: sp.csc_matrix
    H2: sp.csc_matrix

    @property
    def nfield(self) -> int:
        return self.layout.ndof

    @property
    def dim(self) -> int:
        return 2 * (self.nfield + len(self.layout.mass_ids))

    @functools.cached_property
    def W(self) -> sp.csr_matrix:
        """The energy weight diag(K, M, 1, m)."""
        lay = self.layout
        return sp.block_diag([self.K, sp.diags(lay.lumped_mass),
                              sp.identity(len(lay.masses)), sp.diags(lay.masses)], "csr")

    @functools.cached_property
    def A(self) -> sp.csr_matrix:
        """The first-order generator A_h."""
        lay = self.layout
        nf, nm = self.nfield, len(lay.mass_ids)
        Minv, m_inv = sp.diags(1.0 / lay.lumped_mass), sp.diags(1.0 / lay.masses)
        B = sp.csr_matrix((np.ones(nm), (lay.mass_dofs, np.arange(nm))), shape=(nf, nm))
        # rows: y' = v ; v' = M^{-1}(-K y - C v + B q) ; p' = q ;
        #       q' = -(p + B^T v) / m
        return sp.bmat([[None, sp.identity(nf), None, None],
                        [Minv @ (-self.K), Minv @ (-sp.diags(lay.damping)),
                         None, Minv @ B],
                        [None, None, None, sp.identity(nm)],
                        [None, -m_inv @ B.T, -m_inv, None]], format="csr")

    @functools.cached_property
    def norm_constants(self) -> NormConstants:
        """The beta-independent data of `resolvent_norm`."""
        n, nf, nm = self.dim, self.nfield, len(self.layout.mass_ids)
        rng = np.random.default_rng(12345)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= math.sqrt(abs(np.vdot(x, self.W @ x).real))
        order = np.r_[0:nf, 2 * nf:2 * nf + nm, nf:2 * nf, 2 * nf + nm:n]
        start = x[order]
        start.flags.writeable = False
        W = self.W[order][:, order].astype(complex).tocsr()
        hmax = tuple(float(np.max(np.abs(H.data))) for H in (self.H0, self.H1, self.H2))
        H = sp.csc_matrix((np.zeros(self.H0.nnz, complex), self.H0.indices, self.H0.indptr),
                          shape=self.H0.shape)
        return NormConstants(start, self.H1.diagonal(), self.H2.diagonal(), W, hmax, H)


def assemble_generator(graph: MetricGraph, cells_per_unit: float,
                       order: int = 1) -> DiscreteGenerator:
    """Build the generator (the (y, p) system; A_h and W_h on first use) on
    the semi-discrete operator of `make_layout` at `cells_per_unit` elements
    of `order` per unit edge length.  `make_layout` checks that mesh and
    raises SimulationError for one it refuses."""
    layout = make_layout(graph, cells_per_unit, order)
    nf, nm = layout.ndof, len(layout.mass_ids)
    kv, kr, kc = layout.k_triplets
    K = sp.csr_matrix((kv, (kr, kc)), shape=(nf, nf))
    # (i beta - A)(y, v, p, q) = f with v = i beta y - f_y, q = i beta p - f_p
    # substituted, the v rows times M and the q rows times -m:
    #   H(beta) = [[K - beta^2 M + i beta C, -i beta B],
    #              [-i beta B^T,             m beta^2 - 1]]
    # as triplets over K, the diagonal and the two coupling blocks; the
    # conversion to CSC sums each duplicate, a diagonal entry and a 0, and
    # keeps explicit zeros, so the three coefficients share one pattern
    diag, mass, bpos = np.arange(nf + nm), nf + np.arange(nm), layout.mass_dofs
    rows = np.concatenate([kr, diag, bpos, mass])
    cols = np.concatenate([kc, diag, mass, bpos])
    zk, zm, coupling = np.zeros(len(kv)), np.zeros(nm), np.full(nm, -1j)
    H0, H1, H2 = (sp.csc_matrix((np.concatenate(d), (rows, cols)), shape=(nf + nm,) * 2)
                  for d in ((kv, np.zeros(nf), -np.ones(nm), zm, zm),
                            (zk, 1j * layout.damping, zm, coupling, coupling),
                            (zk, -layout.lumped_mass, layout.masses, zm, zm)))
    return DiscreteGenerator(layout, K, H0, H1, H2)


def dissipation_defect(gen: DiscreteGenerator, z: np.ndarray) -> float:
    """Re<A_h z, z>_W, which equals minus the sum of v^2 at the damped
    vertices: never positive, up to round-off."""
    az = gen.A @ z
    return float(np.real(np.vdot(gen.W @ az, z)))


def resolvent_norm(gen: DiscreteGenerator, beta: float) -> float:
    """||(i beta I - A_h)^{-1}|| in the W_h energy geometry.

    Power iteration on the W-self-adjoint composition R^H_W R where
    R = L^{-1}, L = i beta - A_h.  L^{-1} is applied through one sparse LU
    of the (y, p) system H(beta), which is valid at every beta, the
    oscillator resonance m beta^2 = 1 included (partial pivoting handles
    its zero diagonal); returns the HUGE sentinel when H(beta), and so L,
    is numerically singular (i beta an eigenvalue of A_h).  Raises
    ResolventError when beta is not finite or so large that an entry of
    H(beta) would overflow.
    """
    beta = float(beta)
    c = gen.norm_constants
    # bounds every entry of H(beta) as computed, rounding included; a Python
    # float overflows to inf without a warning
    a0, a1, a2 = c.hmax
    if not math.isfinite(a0 + abs(beta) * (a1 + abs(beta) * a2)):
        raise ResolventError(
            f"beta must be finite and keep the entries of H(beta) finite, got {beta!r}")
    nf, k, bpos = gen.nfield, gen.dim // 2, gen.layout.mass_dofs
    # H0 + beta (H1 + beta H2), written into the values of the stored H(beta)
    # with the operands in that expression's order, so bit for bit its value
    h = c.H.data
    np.add(gen.H1.data, beta * gen.H2.data, out=h)
    np.multiply(beta, h, out=h)
    np.add(gen.H0.data, h, out=h)
    try:
        lu = splu(c.H)
    except RuntimeError:
        return HUGE
    # the right-hand side of the (y, p) system is the v rows times M and the
    # q rows times -m, with v and q substituted:
    #   -H2 (f_v, f_q) - i (H1 + beta H2)(f_y, f_p),
    # where H1 + beta H2 is its diagonal plus -i at each mass coupling
    diag, weight, ib = -1j * (c.h1 + beta * c.h2), -c.h2, 1j * beta
    rhs, tmp = np.empty(k, complex), np.empty(k, complex)

    def solve(f, z):
        """z = L^{-1} f: (y, p) from H(beta), then v and q from y' = v,
        p' = q.  z may be f: each half of f is read before it is written."""
        fp = f[:k]
        np.multiply(diag, fp, out=rhs)
        rhs[bpos] -= fp[nf:]
        rhs[nf:] -= fp[bpos]
        np.add(np.multiply(weight, f[k:], out=tmp), rhs, out=rhs)
        u = lu.solve(rhs)
        np.multiply(ib, u, out=z[k:])
        z[k:] -= fp
        z[:k] = u

    # time reversal J = diag(1, -1, -1, 1) on (y, v, p, q) and the energy
    # identity W A + A^T W = -2 diag(0, C, 0, 0) give J A J = -A - 2 W^{-1}
    # diag(0, C, 0, 0), hence W^{-1} L^{-H} W = J L(-beta)^{-1} J, and
    # L(-beta) = conj L(beta) since A is real: the W-adjoint of L^{-1}
    # reuses the factor of L and needs none of W.  In the order
    # (y, p | v, q), J negates the slice p, v.
    flip = slice(nf, nf + k)
    # the iterate and its image, allocated once per norm
    x, z, xn = c.start, np.empty(2 * k, complex), np.empty(2 * k, complex)
    prev = 0.0
    for it in range(POWER_MAXIT):
        # z = L^{-1} x, then W^{-1} L^{-H} W z = J conj(L^{-1} conj(J z))
        solve(x, z)
        z[flip] *= -1
        solve(np.conjugate(z, out=z), z)
        np.conjugate(z, out=z)
        z[flip] *= -1
        Wz = c.W @ z
        rho = abs(np.vdot(x, Wz).real)  # = ||R x||_W^2 growth factor
        nz2 = abs(np.vdot(z, Wz).real)
        if nz2 < sys.float_info.min:
            # ||z||_W^2 underflows once beta ~ 1e100 makes z ~ 1e-200; a
            # power of two rescales it exactly, where dividing by a subnormal
            # max |z| near the top of the beta range overflows
            z *= 2.0 ** 600
            nz2 = abs(np.vdot(z, c.W @ z).real)
        nz = math.sqrt(nz2)
        if not math.isfinite(nz) or nz > HUGE:
            return HUGE
        x = np.divide(z, nz, out=xn)
        val = math.sqrt(rho)
        if it > 3 and abs(val - prev) <= POWER_TOL * max(val, 1e-300):
            return val
        prev = val
    return prev


@dataclass
class MeshCurve:
    cells_per_unit: float  # elements per unit length
    dim: int  # of the generator
    beta: np.ndarray
    norm: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(self.norm))

    @property
    def peak_beta(self) -> float:
        return float(self.beta[int(np.argmax(self.norm))])


@dataclass
class SweepReport:
    curves: list  # coarse -> fine
    verdict: str  # bounded | unbounded | inconclusive
    sup_change: float
    peak_beta: float

    @property
    def sups(self):
        return [c.sup for c in self.curves]


def sweep(graph: MetricGraph, beta_grid, mesh_ladder=None) -> SweepReport:
    """Resolvent-norm curves over a frequency grid on a ladder of meshes.

    The mesh ladder (elements of order SWEEP_ORDER per unit length, at
    least two distinct meshes, sorted ascending) defaults to [b, 1.5 b] with
    b = max(MIN_CELLS / shortest edge, ELEMENTS_PER_BETA * beta_max, 8).
    Verdict, from the two finest meshes: "unbounded" when the sup is HUGE,
    grows by > 2x, or exceeds AXIS_RATIO times its curve's median on both
    (an eigenvalue on the axis); otherwise "bounded" when the sup changes
    < 20%, and "inconclusive" when it does not.
    """
    beta_grid = np.asarray(list(beta_grid), dtype=float)
    if not np.all(np.isfinite(beta_grid)):
        raise ResolventError("beta values must be finite")
    if len(beta_grid) == 0:
        raise ResolventError("beta grid is empty")
    bmax = float(np.max(np.abs(beta_grid)))
    min_ell = min(e.ell for e in graph.edges)
    base = max(MIN_CELLS / min_ell, ELEMENTS_PER_BETA * bmax, 8.0)
    if mesh_ladder is None:
        mesh_ladder = [base, 1.5 * base]
    try:
        mesh_ladder = sorted({float(m) for m in mesh_ladder})
    except (TypeError, ValueError):
        raise ResolventError(f"mesh ladder {mesh_ladder!r} must list numbers") from None
    if not mesh_ladder or min(mesh_ladder) <= 0:
        raise ResolventError(f"mesh ladder {mesh_ladder} needs positive cell counts")
    if len(mesh_ladder) < 2:
        # the verdict compares the sup on the two finest meshes
        raise ResolventError(f"mesh ladder {mesh_ladder} needs two distinct meshes")

    curves = []
    for cells in mesh_ladder:
        gen = assemble_generator(graph, cells, SWEEP_ORDER)
        norms = np.array([resolvent_norm(gen, b) for b in beta_grid])
        curves.append(MeshCurve(cells, gen.dim, beta_grid.copy(), norms))

    fine, prev = curves[-1], curves[-2]
    if prev.sup > 0:
        change = abs(fine.sup - prev.sup) / prev.sup
    else:
        change = 0.0
    on_axis = all(c.sup > AXIS_RATIO * np.median(c.norm) for c in (prev, fine))
    if fine.sup >= HUGE or fine.sup > UNBOUNDED_FACTOR * prev.sup or on_axis:
        verdict = "unbounded"
    elif change < BOUNDED_CHANGE:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return SweepReport(curves, verdict, change, fine.peak_beta)
