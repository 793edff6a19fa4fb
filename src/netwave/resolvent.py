"""Finite-dimensional generator and resolvent-norm sweeps.

The first-order system z' = A z over z = (y, v, p, q) is assembled from the
semi-discrete operator (K, M, C, B) that drives the time-domain scheme, with
Dirichlet vertices eliminated.  The discrete energy inner product
<z, z>_W = y'Ky + v'Mv + sum p^2 + sum m q^2 makes the generator exactly
dissipative: Re<A_h z, z>_W = -sum of v^2 at the damped vertices.

Resolvent norms ||(i beta - A_h)^{-1}||_W are computed by power iteration on
the W-self-adjoint operator L^{-H} W L^{-1} W^{-1}-style composition.  L^{-1}
is applied through the (y, p) system: the rows y' = v and p' = q of
L = i beta - A_h eliminate v and q exactly, which leaves the complex
symmetric H(beta) = H0 + beta H1 + beta^2 H2 of half the size, one sparse LU
per frequency.  By time-reversal symmetry that factor also serves the
W-adjoint (W is never factored).  Since a finite matrix always has finite
norms, boundedness on the axis is judged only through a mesh-refinement
ladder, as recorded in the sweep verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .graph import MetricGraph
from .simulate import GridLayout, make_layout, MIN_CELLS

POWER_TOL = 1e-6
POWER_MAXIT = 1000
HUGE = 1e30
MESH_BETA_PRODUCT = 0.2  # enforce h * beta <= this in sweeps
BOUNDED_CHANGE = 0.2
UNBOUNDED_FACTOR = 2.0


class ResolventError(RuntimeError):
    pass


@dataclass
class DiscreteGenerator:
    """Sparse A_h with the energy weight W_h on the reduced state space.

    State layout: [y nodes, v nodes, p_1..p_K, q_1..q_K], where the y/v
    blocks run over all grid DOFs except Dirichlet vertices.  K, M (lumped,
    a vector), C and B are the semi-discrete operator restricted to them.
    H0, H1 and H2 are the coefficients of the (y, p) system H(beta) = H0 +
    beta H1 + beta^2 H2 of i beta - A_h, on one shared CSC pattern; A_h
    itself is built on first use, since resolvent norms never read it.
    """

    graph: MetricGraph
    layout: GridLayout
    W: sp.csr_matrix
    keep: np.ndarray  # reduced index -> layout DOF
    mass_ids: list
    H0: sp.csc_matrix
    H1: sp.csc_matrix
    H2: sp.csc_matrix
    K: sp.csr_matrix
    M: np.ndarray
    C: sp.dia_matrix
    B: sp.csr_matrix

    @property
    def nfield(self) -> int:
        return len(self.keep)

    @property
    def dim(self) -> int:
        return 2 * (self.nfield + len(self.mass_ids))

    @functools.cached_property
    def A(self) -> sp.csr_matrix:
        """The first-order generator A_h."""
        nf, nm = self.nfield, len(self.mass_ids)
        Minv, m_inv = sp.diags(1.0 / self.M), sp.diags(1.0 / self.layout.masses)
        # rows: y' = v ; v' = M^{-1}(-K y - C v + B q) ; p' = q ;
        #       q' = -(p + B^T v) / m
        return sp.bmat([[None, sp.identity(nf), None, None],
                        [Minv @ (-self.K), Minv @ (-self.C), None, Minv @ self.B],
                        [None, None, None, sp.identity(nm)],
                        [None, -m_inv @ self.B.T, -m_inv, None]], format="csr")


def assemble_generator(graph: MetricGraph, h: float) -> DiscreteGenerator:
    """Build the generator (W_h and the (y, p) system; A_h on first use) with
    target grid spacing h (>= 4 cells per edge) from the semi-discrete
    operator of `make_layout`, Dirichlet DOFs sliced out."""
    if not h > 0:
        raise ResolventError("h must be positive")
    min_ell = min(e.ell for e in graph.edges)
    if min_ell / h < MIN_CELLS - 0.5:
        raise ResolventError(
            f"h={h} under-resolves an edge of length {min_ell}; "
            f"need at least {MIN_CELLS} cells"
        )
    layout = make_layout(graph, 1.0 / h)
    keep = np.setdiff1d(np.arange(layout.ndof), layout.dirichlet)
    nf, nm = len(keep), len(layout.mass_ids)
    K = layout.stiffness[keep][:, keep]
    M = layout.lumped_mass[keep]
    C = sp.diags(layout.damping[keep])
    bpos = np.searchsorted(keep, layout.mass_dofs)
    B = sp.csr_matrix((np.ones(nm), (bpos, np.arange(nm))), shape=(nf, nm))
    W = sp.block_diag(
        [K, sp.diags(M), sp.identity(nm), sp.diags(layout.masses)], format="csr"
    )
    # (i beta - A)(y, v, p, q) = f with v = i beta y - f_y, q = i beta p - f_p
    # substituted, the v rows times M and the q rows times -m:
    #   H(beta) = [[K - beta^2 M + i beta C, -i beta B],
    #              [-i beta B^T,             m beta^2 - 1]]
    # as triplets over K, the diagonal and the two coupling blocks; the
    # conversion to CSC sums duplicates and keeps explicit zeros, so the
    # three coefficients share one pattern
    Kt = K.tocoo()
    diag, mass = np.arange(nf + nm), nf + np.arange(nm)
    rows = np.concatenate([Kt.row, diag, bpos, mass])
    cols = np.concatenate([Kt.col, diag, mass, bpos])
    zk, zm, coupling = np.zeros(Kt.nnz), np.zeros(nm), np.full(nm, -1j)
    H0, H1, H2 = (sp.csc_matrix((np.concatenate(d), (rows, cols)), shape=(nf + nm,) * 2)
                  for d in ((Kt.data, np.zeros(nf), -np.ones(nm), zm, zm),
                            (zk, 1j * C.diagonal(), zm, coupling, coupling),
                            (zk, -M, layout.masses, zm, zm)))
    return DiscreteGenerator(graph, layout, W, keep, list(layout.mass_ids),
                             H0, H1, H2, K, M, C, B)


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
    is numerically singular (i beta an eigenvalue of A_h).
    """
    n, nf, nm = gen.dim, gen.nfield, len(gen.mass_ids)
    shifted = gen.H1.data + beta * gen.H2.data  # H1 + beta H2
    H = sp.csc_matrix((gen.H0.data + beta * shifted, gen.H0.indices, gen.H0.indptr),
                      shape=gen.H0.shape)
    try:
        lu = splu(H)
    except RuntimeError:
        return HUGE
    # the right-hand side of the (y, p) system is the v rows times M and the
    # q rows times -m, with v and q substituted:
    #   -H2 (f_v, f_q) - i (H1 + beta H2)(f_y, f_p)
    rhs = sp.csc_matrix((-1j * shifted, gen.H0.indices, gen.H0.indptr),
                        shape=gen.H0.shape)
    weight = -gen.H2.diagonal()
    pos = np.r_[0:nf, 2 * nf:2 * nf + nm]  # y, p
    vel = np.r_[nf:2 * nf, 2 * nf + nm:n]  # v, q

    def solve(f):
        """L^{-1} f: (y, p) from H(beta), then v and q from y' = v, p' = q."""
        fp = f[pos]
        u = lu.solve(weight * f[vel] + rhs @ fp)
        z = np.empty(n, dtype=complex)
        z[pos] = u
        z[vel] = 1j * beta * u - fp
        return z

    W = gen.W
    # time reversal J = diag(1, -1, -1, 1) on (y, v, p, q) and the energy
    # identity W A + A^T W = -2 diag(0, C, 0, 0) give J A J = -A - 2 W^{-1}
    # diag(0, C, 0, 0), hence W^{-1} L^{-H} W = J L(-beta)^{-1} J, and
    # L(-beta) = conj L(beta) since A is real: the W-adjoint of L^{-1}
    # reuses the factor of L and needs none of W
    J = np.concatenate([np.ones(nf), -np.ones(nf + nm), np.ones(nm)])
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= math.sqrt(abs(np.vdot(x, W @ x).real))
    prev = 0.0
    for it in range(POWER_MAXIT):
        # y = L^{-1} x ; x_next = W^{-1} L^{-H} W y  (W-adjoint of R applied)
        y = solve(x)
        z = J * np.conj(solve(np.conj(J * y)))
        Wz = W @ z
        rho = abs(np.vdot(x, Wz).real)  # = ||R x||_W^2 growth factor
        nz = math.sqrt(abs(np.vdot(z, Wz).real))
        if not np.isfinite(nz) or nz > HUGE:
            return HUGE
        x = z / nz
        val = math.sqrt(rho)
        if it > 3 and abs(val - prev) <= POWER_TOL * max(val, 1e-300):
            return val
        prev = val
    return prev


@dataclass
class MeshCurve:
    cells_per_unit: float
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

    The mesh ladder (cells per unit length, at least two distinct meshes,
    sorted ascending) defaults to two refinements of the coarsest mesh
    resolving h * beta_max <= 0.2.  Verdict: "bounded" when the sup changes
    < 20% between the two finest meshes, "unbounded" when it grows by > 2x,
    otherwise "inconclusive".
    """
    beta_grid = np.asarray(list(beta_grid), dtype=float)
    if not np.all(np.isfinite(beta_grid)):
        raise ResolventError("beta values must be finite")
    if len(beta_grid) == 0:
        raise ResolventError("beta grid is empty")
    bmax = float(np.max(np.abs(beta_grid)))
    min_ell = min(e.ell for e in graph.edges)
    base = max(MIN_CELLS / min_ell, bmax / MESH_BETA_PRODUCT, 8.0)
    if mesh_ladder is None:
        mesh_ladder = [base, 1.5 * base, 2.0 * base]
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
        gen = assemble_generator(graph, 1.0 / cells)
        norms = np.array([resolvent_norm(gen, b) for b in beta_grid])
        curves.append(MeshCurve(cells, beta_grid.copy(), norms))

    fine, prev = curves[-1], curves[-2]
    if prev.sup > 0:
        change = abs(fine.sup - prev.sup) / prev.sup
    else:
        change = 0.0
    if fine.sup >= HUGE or fine.sup > UNBOUNDED_FACTOR * prev.sup:
        verdict = "unbounded"
    elif change < BOUNDED_CHANGE:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return SweepReport(curves, verdict, change, fine.peak_beta)
