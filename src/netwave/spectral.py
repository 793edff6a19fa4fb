"""Characteristic-system spectral analysis of the network generator.

On each edge an eigenfield solves y'' = lam^2 y, written in the entire basis
{cosh(lam x), sinh(lam x)/lam} so that nothing degenerates at lam = 0.  The
vertex laws assemble into a square complex matrix M(lam) acting on the edge
coefficient pairs (alpha_j, gamma_j); eigenvalues of the generator are the
zeros of det M.  Oscillator unknowns are eliminated row-wise, clearing the
denominators (m_k lam^2 + 1) so every entry stays entire in lam.

Roots are located by argument-principle counts on recursively subdivided
rectangles followed by Newton refinement on the logarithmic derivative
d/dlam log det M = tr(M^{-1} M'), with M' assembled analytically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import MetricGraph

DET_TOL = 1e-9
AXIS_SLACK = 1e-7


class ContourNearRoot(RuntimeError):
    """A box side passes too close to a determinant zero."""


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
    edge_ids: tuple
    log_scale: float = field(init=False)

    def __post_init__(self):
        self.log_scale = float(np.sum(np.log(self.col_scale)))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def slogdet(self):
        """(unit phase, log |det|) of the unscaled matrix."""
        sign, logabs = np.linalg.slogdet(self.matrix)
        return sign, logabs - self.log_scale

    def det(self) -> complex:
        sign, logabs = self.slogdet()
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
    return CharacteristicSystem(lam, mat, dmat, scale, tuple(e.id for e in graph.edges))


def char_det(graph: MetricGraph, lam: complex) -> complex:
    """det M(lam), entire in lam (denominators cleared)."""
    return char_matrix(graph, lam).det()


# -- argument-principle root search ----------------------------------------


@dataclass(frozen=True)
class EigenRecord:
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


def _phase(graph, lam):
    sys = char_matrix(graph, lam)
    sign, logabs = np.linalg.slogdet(sys.matrix)
    norms = np.linalg.norm(sys.matrix, axis=1)
    rel = logabs - float(np.sum(np.log(norms)))
    if sign == 0 or rel < math.log(1e-13):
        raise ContourNearRoot(f"contour point {lam} is numerically a root")
    return sign


def _segment_winding(graph, z0, f0, z1, f1, depth=0):
    ratio = f1 / f0
    delta = cmath.phase(ratio)
    if abs(delta) < 0.8:
        return delta
    if depth > 48:
        raise SpectralError(f"phase tracking failed on segment {z0} .. {z1}")
    zm = 0.5 * (z0 + z1)
    fm = _phase(graph, zm)
    return _segment_winding(graph, z0, f0, zm, fm, depth + 1) + _segment_winding(
        graph, zm, fm, z1, f1, depth + 1
    )


def _box_winding(graph, box) -> int:
    re0, re1, im0, im1 = box
    corners = [
        complex(re0, im0),
        complex(re1, im0),
        complex(re1, im1),
        complex(re0, im1),
    ]
    # initial sampling dense enough for the det's e^{lam L} oscillation
    ltot = graph.total_length() + 2.0
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        nseg = max(4, int(abs(b - a) * ltot / 0.5) + 1)
        pts = [a + (b - a) * t / nseg for t in range(nseg + 1)]
        vals = [_phase(graph, z) for z in pts]
        for (z0, f0), (z1, f1) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
            total += _segment_winding(graph, z0, f0, z1, f1)
    winding = total / (2.0 * math.pi)
    count = round(winding)
    if abs(winding - count) > 0.25:
        raise SpectralError(f"inconsistent winding {winding} on box {box}")
    if count < 0:
        raise SpectralError(f"negative winding on box {box}")
    return count


def _count_with_retries(graph, box, rng, tries=8):
    grow = 0.0
    diag = math.hypot(box[1] - box[0], box[3] - box[2])
    for attempt in range(tries):
        b = (
            box[0] - grow * (1 + rng.random()),
            box[1] + grow * (1 + rng.random()),
            box[2] - grow * (1 + rng.random()),
            box[3] + grow * (1 + rng.random()),
        )
        try:
            return _box_winding(graph, b), b
        except ContourNearRoot:
            grow = max(grow * 2.0, 1e-4 * diag)
    raise SpectralError(f"root on contour of {box} after {tries} perturbations")


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


def find_eigenvalues(graph: MetricGraph, box, tol: float = DET_TOL,
                     min_box: float = 1e-5, seed: int = 0) -> EigenReport:
    """Locate zeros of det M inside a rectangle (re0, re1, im0, im1).

    Argument-principle counts on subdivided boxes, Newton polishing of each
    isolated zero; multiplicity is reported as the box count.
    """
    rng = np.random.default_rng(seed)
    box = tuple(float(b) for b in box)
    roots: list[EigenRecord] = []

    def visit(b, count):
        if count == 0:
            return
        diag = math.hypot(b[1] - b[0], b[3] - b[2])
        if count == 1 or diag < min_box:
            center = complex(0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3]))
            for start in _newton_starts(center, b, rng):
                lam, res = newton_refine(graph, start, tol)
                inside = (
                    b[0] - 1e-7 <= lam.real <= b[1] + 1e-7
                    and b[2] - 1e-7 <= lam.imag <= b[3] + 1e-7
                )
                if res <= tol and inside:
                    roots.append(EigenRecord(lam, res, count))
                    return
            if diag < min_box:
                raise SpectralError(f"Newton failed to isolate root in {b}")
        # split along the longer side
        if b[1] - b[0] >= b[3] - b[2]:
            mid = 0.5 * (b[0] + b[1])
            halves = [(b[0], mid, b[2], b[3]), (mid, b[1], b[2], b[3])]
        else:
            mid = 0.5 * (b[2] + b[3])
            halves = [(b[0], b[1], b[2], mid), (b[0], b[1], mid, b[3])]
        for h in halves:
            c, hb = _count_with_retries(graph, h, rng)
            visit(hb, c)

    count, box_used = _count_with_retries(graph, box, rng)
    visit(box_used, count)

    roots = _dedupe(roots)
    roots = [r for r in roots if not _spurious_resonance(graph, r, tol)]
    roots.sort(key=lambda r: (r.lam.real, r.lam.imag))
    return EigenReport(roots, box, tol)


def _newton_starts(center, b, rng):
    yield center
    w, h = b[1] - b[0], b[3] - b[2]
    for _ in range(4):
        yield center + complex(
            0.3 * w * (rng.random() - 0.5), 0.3 * h * (rng.random() - 0.5)
        )


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
