"""Characteristic-system spectral analysis of the network generator.

On each edge an eigenfield solves y'' = lam^2 y, written in the entire basis
{cosh(lam x), sinh(lam x)/lam} so that nothing degenerates at lam = 0.  The
vertex laws assemble into a square complex matrix M(lam) acting on the edge
coefficient pairs (alpha_j, gamma_j); eigenvalues of the generator are the
zeros of det M.  Oscillator unknowns are eliminated row-wise, clearing the
denominators (m_k lam^2 + 1) so every entry stays entire in lam.

Roots are located by contour integrals of M(lam)^{-1} (Beyn's block-moment
method, one ellipse per horizontal strip of the search box) and polished by
Newton refinement on the logarithmic derivative
d/dlam log det M = tr(M^{-1} M'), with M' assembled analytically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graph import MetricGraph

DET_TOL = 1e-9


class SpectralError(RuntimeError):
    pass


def _basis(lam: complex, x: float):
    """cosh(lam x), sinh(lam x)/lam and their lam-derivatives."""
    z = lam * x
    if abs(z) < 1e-4:
        z2 = z * z
        ch = 1.0 + z2 / 2.0 + z2 * z2 / 24.0
        sh_over = x * (1.0 + z2 / 6.0 + z2 * z2 / 120.0)
        dsh = lam * x**3 * (1.0 / 3.0 + z2 / 30.0)
    else:
        ch = cmath.cosh(z)
        sh = cmath.sinh(z)
        sh_over = sh / lam
        dsh = (x * ch - sh_over) / lam
    dch = x * lam * sh_over  # x * sinh(lam x)
    return ch, sh_over, dch, dsh


@dataclass
class CharacteristicSystem:
    """M(lam) with analytic derivative, columns scaled for conditioning.

    Columns of edge j carry the factor exp(-|Re lam| * l_j); the factor is
    real positive so the phase of det is unchanged and it cancels exactly in
    tr(M^{-1} M').
    """

    lam: complex
    matrix: np.ndarray
    dmatrix: np.ndarray
    col_scale: np.ndarray

    def det(self) -> complex:
        """det of the unscaled matrix."""
        sign, logabs = np.linalg.slogdet(self.matrix)
        logabs -= float(np.sum(np.log(self.col_scale)))
        if logabs > 700.0:
            return sign * math.inf
        return sign * math.exp(logabs)

    def residual(self) -> float:
        """|det| of the row-normalized scaled matrix, a scale-free zero gauge."""
        norms = np.linalg.norm(self.matrix, axis=1)
        if not np.all(norms > 0):
            return 0.0
        sign, logabs = np.linalg.slogdet(self.matrix / norms[:, None])
        if sign == 0:
            return 0.0
        return math.exp(max(logabs, -745.0))

    def log_derivative(self) -> complex:
        """tr(M^{-1} M') = d/dlam log det M."""
        return complex(np.trace(np.linalg.solve(self.matrix, self.dmatrix)))


def char_matrix(graph: MetricGraph, lam: complex) -> CharacteristicSystem:
    """Assemble the characteristic system at spectral parameter lam."""
    lam = complex(lam)
    ne = len(graph.edges)
    n = 2 * ne
    mat = np.zeros((n, n), dtype=complex)
    dmat = np.zeros((n, n), dtype=complex)
    col = {e.id: 2 * j for j, e in enumerate(graph.edges)}

    def value_coeffs(edge, d):
        """(coeffs, dcoeffs) of y at the endpoint with incidence d."""
        if d == -1:  # tail, x = 0
            return (1.0, 0.0), (0.0, 0.0)
        ch, sh, dch, dsh = _basis(lam, edge.ell)
        return (ch, sh), (dch, dsh)

    def deriv_coeffs(edge, d):
        """(coeffs, dcoeffs) of d_kj * y'(a_k)."""
        if d == -1:  # -y'(0) = -gamma
            return (0.0, -1.0), (0.0, 0.0)
        ch, sh, dch, dsh = _basis(lam, edge.ell)
        return (lam * lam * sh, ch), (2.0 * lam * sh + lam * lam * dsh, dch)

    row = 0
    for v in graph.vertices:
        inc = graph.incident(v.id)
        if v.kind in ("root", "fixed"):
            (edge, d), = inc
            (c, dc) = value_coeffs(edge, d)
            j = col[edge.id]
            mat[row, j : j + 2] = c
            dmat[row, j : j + 2] = dc
            row += 1
        elif v.kind == "controlled":
            (edge, d), = inc
            (vc, dvc) = value_coeffs(edge, d)
            (pc, dpc) = deriv_coeffs(edge, d)
            j = col[edge.id]
            # d * y' + lam * y = 0
            mat[row, j] = pc[0] + lam * vc[0]
            mat[row, j + 1] = pc[1] + lam * vc[1]
            dmat[row, j] = dpc[0] + vc[0] + lam * dvc[0]
            dmat[row, j + 1] = dpc[1] + vc[1] + lam * dvc[1]
            row += 1
        else:  # interior mass
            ref_edge, ref_d = inc[0]
            (rc, drc) = value_coeffs(ref_edge, ref_d)
            jr = col[ref_edge.id]
            for edge, d in inc[1:]:
                (c, dc) = value_coeffs(edge, d)
                j = col[edge.id]
                mat[row, j] += c[0]
                mat[row, j + 1] += c[1]
                mat[row, jr] -= rc[0]
                mat[row, jr + 1] -= rc[1]
                dmat[row, j] += dc[0]
                dmat[row, j + 1] += dc[1]
                dmat[row, jr] -= drc[0]
                dmat[row, jr + 1] -= drc[1]
                row += 1
            # flux row, denominator (m lam^2 + 1) cleared:
            #   (m lam^2 + 1) sum_j d_kj y' + lam^2 y = 0
            # circuit variant adds the inner-node feedback -y_t:
            #   ... + lam (m lam^2 + 1) y = 0
            m = v.mass
            den = m * lam * lam + 1.0
            dden = 2.0 * m * lam
            for edge, d in inc:
                (pc, dpc) = deriv_coeffs(edge, d)
                j = col[edge.id]
                for t in range(2):
                    mat[row, j + t] += den * pc[t]
                    dmat[row, j + t] += dden * pc[t] + den * dpc[t]
            lam2 = lam * lam
            coeff = lam2
            dcoeff = 2.0 * lam
            if graph.variant == "circuit":
                coeff = lam2 + lam * den
                dcoeff = 2.0 * lam + den + lam * dden
            mat[row, jr] += coeff * rc[0]
            mat[row, jr + 1] += coeff * rc[1]
            dmat[row, jr] += dcoeff * rc[0] + coeff * drc[0]
            dmat[row, jr + 1] += dcoeff * rc[1] + coeff * drc[1]
            row += 1
    assert row == n

    scale = np.ones(n)
    a = abs(lam.real)
    if a * max(e.ell for e in graph.edges) > 30.0:
        for j, e in enumerate(graph.edges):
            scale[2 * j] = scale[2 * j + 1] = math.exp(-a * e.ell)
    mat *= scale
    dmat *= scale
    return CharacteristicSystem(lam, mat, dmat, scale)


def char_det(graph: MetricGraph, lam: complex) -> complex:
    """det M(lam), entire in lam (denominators cleared)."""
    return char_matrix(graph, lam).det()


@dataclass(frozen=True)
class EigenRecord:
    """A root of det M; box_count is its multiplicity, the number of pencil
    eigenvalues that cluster at it."""

    lam: complex
    residual: float
    box_count: int


@dataclass
class EigenReport:
    roots: list
    box: tuple
    tol: float

    @property
    def count(self) -> int:
        return sum(r.box_count for r in self.roots)


def newton_refine(graph: MetricGraph, lam0: complex, tol: float = DET_TOL,
                  maxiter: int = 60) -> tuple[complex, float]:
    """Polish a root of det M by Newton on the logarithmic derivative.

    A step that lands exactly on a root leaves M(lam) singular; the iteration
    stops there and the returned residual reports it.
    """
    lam = complex(lam0)
    for _ in range(maxiter):
        try:
            ld = char_matrix(graph, lam).log_derivative()
        except np.linalg.LinAlgError:
            break
        if ld == 0 or not np.isfinite(ld):
            break
        step = -1.0 / ld
        lam = lam + step
        if abs(step) < 1e-14 * (1.0 + abs(lam)):
            break
    sys = char_matrix(graph, lam)
    return lam, sys.residual()


# -- contour-integral root search --------------------------------------------
#
# W.-J. Beyn, An integral method for solving nonlinear eigenvalue problems,
# Linear Algebra Appl. 436 (2012).  The box is cut into horizontal strips;
# each strip's bounding ellipse, scaled by ELLIPSE_SCALE, carries the moments
#     A_p = (1/2 pi i) oint ((z - c)/rho)^p M(z)^{-1} dz,   p < 2 MOMENTS,
# by the trapezoid rule, and the eigenvalues of the reduced block-Hankel
# pencil are the zeros of det M inside it.  The probe block is the identity,
# so nothing is random.

QUAD_NODES = 128
MOMENTS = 8
ELLIPSE_SCALE = 1.5
MAX_STRIPS = 16
MAX_SPLITS = 6
# The rank of the Hankel matrix counts its singular values above both
# RANK_REL * (the largest) and NOISE_FLOOR * max ||M^{-1}|| * mean semi-axis.
# The roots of one strip spread its singular values over many decades with
# no gap, so the numerical rank is relative to the largest; a cut at 1e-12
# of the absolute scale alone lost roots.  In a strip without roots every
# singular value is rounding noise, and the floor keeps that noise from
# saturating the rank.  Relative cuts from 1e-12 to 1e-14 and floors from
# 1e-16 to 1e-18 find the same roots on the benchmark's spectrum jobs.
RANK_REL = 1e-13
NOISE_FLOOR = 1e-17
CANDIDATE_MARGIN = 0.25  # pencil eigenvalues further outside are noise
BOX_SLACK = 1e-7
CLUSTER_TOL = 1e-6  # pencil eigenvalues this close (relative) are one root


def _strips(box):
    """Horizontal strips tiling the box, each at most twice as tall as wide."""
    re0, re1, im0, im1 = box
    count = min(MAX_STRIPS, math.ceil((im1 - im0) / (2.0 * (re1 - re0))))
    cuts = np.linspace(im0, im1, count + 1)
    return [(re0, re1, float(a), float(b)) for a, b in zip(cuts, cuts[1:])]


def _pencil_eigenvalues(graph, strip):
    """Zeros of det M inside the strip's ellipse, None when the Hankel
    matrix is rank-saturated (more roots than the moments can resolve)."""
    re0, re1, im0, im1 = strip
    w, h = re1 - re0, im1 - im0
    c = complex(re0 + re1, im0 + im1) / 2.0
    # the contour's rectangle is widened to an aspect ratio within [1/2, 2],
    # so a narrow box gets wider ellipses rather than more strips
    a = ELLIPSE_SCALE * math.sqrt(0.5) * max(w, h / 2.0)
    b = ELLIPSE_SCALE * math.sqrt(0.5) * max(h, w / 2.0)
    rho = max(a, b)
    theta = 2.0 * math.pi * np.arange(QUAD_NODES) / QUAD_NODES
    nodes = c + a * np.cos(theta) + 1j * b * np.sin(theta)
    weights = (-a * np.sin(theta) + 1j * b * np.cos(theta)) / (1j * QUAD_NODES)
    n = 2 * len(graph.edges)
    inverses = np.empty((QUAD_NODES, n, n), dtype=complex)
    for j, z in enumerate(nodes):
        try:
            sys = char_matrix(graph, z)
            inverses[j] = sys.col_scale[:, None] * np.linalg.inv(sys.matrix)
        except (np.linalg.LinAlgError, OverflowError) as exc:
            raise SpectralError(f"no M(lam)^-1 at contour node {z}: {exc}") from None
    powers = ((nodes - c) / rho)[None, :] ** np.arange(2 * MOMENTS)[:, None]
    moments = np.einsum("pj,jab->pab", powers * weights, inverses)
    # block Hankel matrices H0 = [A_{i+j}] and H1 = [A_{i+j+1}], i, j < MOMENTS
    hankel = np.block([[moments[i + j] for j in range(MOMENTS)]
                       for i in range(MOMENTS + 1)])
    h0, h1 = hankel[:-n], hankel[n:]
    u, s, vh = np.linalg.svd(h0)
    floor = NOISE_FLOOR * 0.5 * (a + b) * np.max(np.linalg.norm(inverses, 2, axis=(1, 2)))
    rank = int(np.sum(s > max(RANK_REL * s[0], floor)))
    if rank >= MOMENTS * n - 1:
        return None
    reduced = u[:, :rank].conj().T @ h1 @ vh[:rank].conj().T / s[:rank]
    return c + rho * np.linalg.eigvals(reduced)


def _strip_roots(graph, strip, tol, splits=0):
    """Polished roots inside one strip, with their multiplicity."""
    raw = _pencil_eigenvalues(graph, strip)
    re0, re1, im0, im1 = strip
    if raw is None:
        if splits == MAX_SPLITS:
            raise SpectralError(f"too many roots to resolve in {strip}")
        mid = 0.5 * (im0 + im1)
        return (_strip_roots(graph, (re0, re1, im0, mid), tol, splits + 1)
                + _strip_roots(graph, (re0, re1, mid, im1), tol, splits + 1))

    def inside(lam, slack):
        return (re0 - slack <= lam.real <= re1 + slack
                and im0 - slack <= lam.imag <= im1 + slack)

    roots = []
    for start in raw:
        if not inside(start, CANDIDATE_MARGIN):
            continue
        lam, res = newton_refine(graph, start, tol)
        if res <= tol and inside(lam, BOX_SLACK):
            near = np.abs(raw - lam) <= CLUSTER_TOL * (1.0 + abs(lam))
            roots.append(EigenRecord(lam, res, max(1, int(np.sum(near)))))
    return roots


def find_eigenvalues(graph: MetricGraph, box, tol: float = DET_TOL) -> EigenReport:
    """Locate zeros of det M inside a rectangle (re0, re1, im0, im1).

    One contour-integral pass per horizontal strip of the box gives the
    candidates; each is polished by Newton and kept when its residual is at
    most tol and it lies in its strip.  A root's box_count is its
    multiplicity.  An empty or non-finite box, or a contour node where M(lam)
    cannot be inverted, raises SpectralError.
    """
    box = tuple(float(b) for b in box)
    re0, re1, im0, im1 = box
    if not (all(math.isfinite(b) for b in box) and re0 < re1 and im0 < im1):
        raise SpectralError(f"box {box} needs finite re0 < re1 and im0 < im1")
    roots = [r for strip in _strips(box) for r in _strip_roots(graph, strip, tol)]
    roots = _dedupe(roots)
    roots = [r for r in roots if not _spurious_resonance(graph, r, tol)]
    roots.sort(key=lambda r: (r.lam.real, r.lam.imag))
    return EigenReport(roots, box, tol)


def _dedupe(roots):
    kept: list[EigenRecord] = []
    for r in sorted(roots, key=lambda r: r.residual):
        if all(abs(r.lam - k.lam) > 1e-8 * (1 + abs(r.lam)) for k in kept):
            kept.append(r)
    return kept


def _spurious_resonance(graph, record, tol):
    """Drop roots at +-i/sqrt(m_k) unless the system is genuinely singular."""
    for v in graph.mass_vertices:
        pole = 1.0 / math.sqrt(v.mass)
        if min(abs(record.lam - 1j * pole), abs(record.lam + 1j * pole)) < 1e-6:
            sys = char_matrix(graph, record.lam)
            s = np.linalg.svd(sys.matrix, compute_uv=False)
            return not s[-1] <= 1e-6 * s[0]
    return False


# -- eigenfunctions ---------------------------------------------------------


@dataclass
class EigenFunction:
    lam: complex
    coefficients: dict  # edge id -> (alpha, gamma)
    p: dict  # mass vertex id -> oscillator displacement
    q: dict  # mass vertex id -> oscillator velocity
    residual: float
    null_space_dim: int

    def y(self, edge_id: str, x):
        a, g = self.coefficients[edge_id]
        x = np.asarray(x, dtype=float)
        vals = np.array([_basis(self.lam, float(xx))[:2] for xx in np.atleast_1d(x)])
        out = a * vals[:, 0] + g * vals[:, 1]
        return out if np.ndim(x) else out[0]

    def v(self, edge_id: str, x):
        return self.lam * self.y(edge_id, x)


def eigenfunction(graph: MetricGraph, lam: complex, tol: float = 1e-7) -> EigenFunction:
    """Null vector of M(lam) lifted to a unit-norm state (y, v, p, q)."""
    sys = char_matrix(graph, lam)
    if sys.residual() > tol:
        raise SpectralError(f"{lam} is not a characteristic root (residual > {tol})")
    u, s, vh = np.linalg.svd(sys.matrix)
    null_dim = int(np.sum(s <= 10.0 * max(s[-1], 1e-300)))
    coeff_scaled = vh[-1].conj()
    coeff = coeff_scaled * sys.col_scale
    residual = float(
        np.linalg.norm(sys.matrix @ coeff_scaled) / np.linalg.norm(coeff_scaled)
    )

    coefficients = {
        e.id: (coeff[2 * j], coeff[2 * j + 1]) for j, e in enumerate(graph.edges)
    }

    p, q = {}, {}
    for v in graph.mass_vertices:
        inc = graph.incident(v.id)
        edge, d = inc[0]
        a, g = coefficients[edge.id]
        ch, sh, _, _ = _basis(lam, edge.ell)
        yk = a if d == -1 else a * ch + g * sh
        den = v.mass * lam * lam + 1.0
        if abs(den) > 1e-8:
            pk = -lam * yk / den
        else:
            # resonant mass: recover p from the flux jump instead
            flux = 0.0
            for e2, d2 in inc:
                a2, g2 = coefficients[e2.id]
                if d2 == -1:
                    flux += -g2
                else:
                    ch2, sh2, _, _ = _basis(lam, e2.ell)
                    flux += a2 * lam * lam * sh2 + g2 * ch2
            if graph.variant == "circuit":
                flux += lam * yk
            pk = flux / lam if lam != 0 else 0.0
        p[v.id] = pk
        q[v.id] = lam * pk

    norm = _state_norm(graph, lam, coefficients, p, q)
    if norm > 0:
        inv = 1.0 / norm
        coefficients = {k: (a * inv, g * inv) for k, (a, g) in coefficients.items()}
        p = {k: val * inv for k, val in p.items()}
        q = {k: val * inv for k, val in q.items()}
    return EigenFunction(lam, coefficients, p, q, residual, null_dim)


def _state_norm(graph, lam, coefficients, p, q):
    """H-norm: sum_j int(|y'|^2 + |v|^2) + sum_k (|p|^2 + m_k |q|^2)."""
    total = 0.0
    for e in graph.edges:
        a, g = coefficients[e.id]
        npts = max(24, int(4.0 * abs(lam) * e.ell) + 8)
        nodes, weights = np.polynomial.legendre.leggauss(npts)
        xs = 0.5 * e.ell * (nodes + 1.0)
        ws = 0.5 * e.ell * weights
        for x, w in zip(xs, ws):
            ch, sh, _, _ = _basis(lam, x)
            y = a * ch + g * sh
            yp = a * lam * lam * sh + g * ch
            total += w * (abs(yp) ** 2 + abs(lam * y) ** 2)
    for v in graph.mass_vertices:
        total += abs(p[v.id]) ** 2 + v.mass * abs(q[v.id]) ** 2
    return math.sqrt(total)
