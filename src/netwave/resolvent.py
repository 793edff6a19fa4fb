"""Finite-dimensional generator and resolvent-norm sweeps.

The first-order system z' = A z over z = (y, v, p, q) is assembled from the
semi-discrete operator (K, M, C, B) that drives the time-domain scheme, with
Dirichlet vertices eliminated.  The discrete energy inner product
<z, z>_W = y'Ky + v'Mv + sum p^2 + sum m q^2 makes the generator exactly
dissipative: Re<A_h z, z>_W = -sum of v^2 at the damped vertices.

Resolvent norms ||(i beta - A_h)^{-1}||_W are computed by power iteration on
the W-self-adjoint operator L^{-H} W L^{-1} W^{-1}-style composition, using
one sparse LU factorization of L per frequency, which by time-reversal
symmetry also serves the W-adjoint (W is never factored).  Since a finite
matrix always has finite norms, boundedness on the axis is judged only
through a mesh-refinement ladder, as recorded in the sweep verdict.
"""

from __future__ import annotations

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
    blocks run over all grid DOFs except Dirichlet vertices.
    """

    graph: MetricGraph
    layout: GridLayout
    A: sp.csr_matrix
    W: sp.csr_matrix
    keep: np.ndarray  # reduced index -> layout DOF
    mass_ids: list
    h_max: float

    @property
    def nfield(self) -> int:
        return len(self.keep)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def assemble_generator(graph: MetricGraph, h: float) -> DiscreteGenerator:
    """Build A_h and W_h with target grid spacing h (>= 4 cells per edge)
    from the semi-discrete operator of `make_layout`, Dirichlet DOFs sliced
    out."""
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
    B = sp.csr_matrix(
        (np.ones(nm), (np.searchsorted(keep, layout.mass_dofs), np.arange(nm))),
        shape=(nf, nm))
    Minv = sp.diags(1.0 / M)
    m_inv = sp.diags(1.0 / layout.masses)
    # rows: y' = v ; v' = M^{-1}(-K y - C v + B q) ; p' = q ;
    #       q' = -(p + B^T v) / m
    A = sp.bmat(
        [
            [None, sp.identity(nf), None, None],
            [Minv @ (-K), Minv @ (-C), None, Minv @ B],
            [None, None, None, sp.identity(nm)],
            [None, -m_inv @ B.T, -m_inv, None],
        ],
        format="csr",
    )
    W = sp.block_diag(
        [K, sp.diags(M), sp.identity(nm), sp.diags(layout.masses)], format="csr"
    )
    h_max = max(layout.edge_h.values())
    return DiscreteGenerator(graph, layout, A, W, keep, list(layout.mass_ids),
                             h_max)


def dissipation_defect(gen: DiscreteGenerator, z: np.ndarray) -> float:
    """Re<A_h z, z>_W, which equals minus the sum of v^2 at the damped
    vertices: never positive, up to round-off."""
    az = gen.A @ z
    return float(np.real(np.vdot(gen.W @ az, z)))


def resolvent_norm(gen: DiscreteGenerator, beta: float,
                   tol: float = POWER_TOL) -> float:
    """||(i beta I - A_h)^{-1}|| in the W_h energy geometry.

    Power iteration on the W-self-adjoint composition R^H_W R where
    R = L^{-1}, L = i beta - A_h; returns the HUGE sentinel when L is
    numerically singular (i beta an eigenvalue of A_h).
    """
    n = gen.dim
    L = (1j * beta) * sp.identity(n, format="csc") - gen.A.tocsc().astype(complex)
    try:
        lu = splu(L)
    except RuntimeError:
        return HUGE
    W = gen.W
    # time reversal J = diag(1, -1, -1, 1) on (y, v, p, q) and the energy
    # identity W A + A^T W = -2 diag(0, C, 0, 0) give J A J = -A - 2 W^{-1}
    # diag(0, C, 0, 0), hence W^{-1} L^{-H} W = J L(-beta)^{-1} J, and
    # L(-beta) = conj L(beta) since A is real: the W-adjoint of L^{-1}
    # reuses the factor of L and needs none of W
    nf, nm = gen.nfield, len(gen.mass_ids)
    J = np.concatenate([np.ones(nf), -np.ones(nf + nm), np.ones(nm)])
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= math.sqrt(abs(np.vdot(x, W @ x).real))
    prev = 0.0
    for it in range(POWER_MAXIT):
        # y = L^{-1} x ; x_next = W^{-1} L^{-H} W y  (W-adjoint of R applied)
        y = lu.solve(x)
        z = J * np.conj(lu.solve(np.conj(J * y)))
        rho = abs(np.vdot(x, W @ z).real)  # = ||R x||_W^2 growth factor
        nz = math.sqrt(abs(np.vdot(z, W @ z).real))
        if not np.isfinite(nz) or nz > HUGE:
            return HUGE
        x = z / nz
        val = math.sqrt(rho)
        if it > 3 and abs(val - prev) <= tol * max(val, 1e-300):
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
        return float(np.max(self.norm)) if len(self.norm) else 0.0

    @property
    def peak_beta(self) -> float:
        return float(self.beta[int(np.argmax(self.norm))]) if len(self.norm) else math.nan


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

    The mesh ladder (cells per unit length, ascending) defaults to two
    refinements of the coarsest mesh resolving h * beta_max <= 0.2.  Verdict:
    "bounded" when the sup changes < 20% between the two finest meshes,
    "unbounded" when it grows by > 2x, otherwise "inconclusive".
    """
    beta_grid = np.asarray(list(beta_grid), dtype=float)
    if len(beta_grid) == 0:
        return SweepReport([], "inconclusive", math.nan, math.nan)
    bmax = float(np.max(np.abs(beta_grid)))
    min_ell = min(e.ell for e in graph.edges)
    base = max(MIN_CELLS / min_ell, bmax / MESH_BETA_PRODUCT, 8.0)
    if mesh_ladder is None:
        mesh_ladder = [base, 1.5 * base, 2.0 * base]
    try:
        mesh_ladder = sorted(float(m) for m in mesh_ladder)
    except (TypeError, ValueError):
        raise ResolventError(f"mesh ladder {mesh_ladder!r} must list numbers") from None
    if not mesh_ladder or min(mesh_ladder) <= 0:
        raise ResolventError(f"mesh ladder {mesh_ladder} needs positive cell counts")

    curves = []
    for cells in mesh_ladder:
        gen = assemble_generator(graph, 1.0 / cells)
        norms = np.array([resolvent_norm(gen, b) for b in beta_grid])
        curves.append(MeshCurve(cells, beta_grid.copy(), norms))

    fine, prev = curves[-1], curves[-2] if len(curves) > 1 else curves[-1]
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
