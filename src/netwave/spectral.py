"""Characteristic-system spectral analysis of the network generator.

On each edge an eigenfield solves y'' = lam^2 y in the entire basis
{cosh(lam x), sinh(lam x)/lam}, so nothing degenerates at lam = 0.  The
characteristic matrix factors as M(lam) = R(lam) T(lam): T takes the edge
coefficients (alpha_j, gamma_j) to the traces y and d y' at both ends of every
edge, and R is `vertex_laws` with each oscillator (p, q) eliminated and its
denominator m_k lam^2 + 1 cleared: cubic in lam, entire, and with det M equal to
+-det of the first-order system, so the zeros of det M are the eigenvalues.

Roots are located by contour integrals of M(lam)^{-1} (Beyn's block-moment
method, one ellipse per horizontal strip of the search box) and polished by
Newton refinement on the logarithmic derivative
d/dlam log det M = tr(M^{-1} M'), with M' assembled analytically.  A strip
evaluates M at all of its quadrature nodes in one stacked pass: one basis
broadcast over the nodes and the edge lengths, one batched inverse.  M' is
built only for Newton, whose char_matrix is the same pass on a single lam.
The laws, the masses and the basis are real, so M(conj lam) = conj M(lam)
and the roots come in conjugate pairs: a box symmetric about the real axis
whose strips are cut on it is searched in its upper strips only, and each
root found above the axis brings its conjugate, unless one of those strips
holds more roots than its pencil resolves well; then the box is searched
whole.

eigenfunction lifts a null vector of M(lam) to a unit-norm state of the
energy space: each oscillator from the rows of the law table that hold it,
and each edge's energy from its exact integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import DET_TOL, MetricGraph, NetwaveError

NEWTON_MAXIT = 60
EIGEN_TOL = 1e-7  # residual up to which eigenfunction accepts a root
NULL_RTOL = 1e-10  # singular values up to this share of the largest are null


class SpectralError(NetwaveError, RuntimeError):
    pass


def _basis(lam, x) -> tuple:
    """The field y = alpha cosh(lam x) + gamma sinh(lam x)/lam at x, over
    arrays lam and x broadcast together: the coefficients of y(x) on
    (alpha, gamma) and their lam-derivatives, then those of y'(x).  Where
    cosh(lam x) overflows, beyond |Re lam| x ~ 710, the entries are not
    finite."""
    with np.errstate(all="ignore"):  # overflow stays inf; lam = 0 takes the series
        z = lam * x
        ch = np.cosh(z)
        sh = np.sinh(z) / lam
        dsh = (x * ch - sh) / lam
        if np.abs(z).min() < 1e-4:
            small = np.abs(z) < 1e-4
            z2 = z * z
            ch = np.where(small, 1.0 + z2 / 2.0 + z2 * z2 / 24.0, ch)
            sh = np.where(small, x * (1.0 + z2 / 6.0 + z2 * z2 / 120.0), sh)
            dsh = np.where(small, lam * x**3 * (1.0 / 3.0 + z2 / 30.0), dsh)
        s = lam * sh  # sinh(lam x)
        dch = x * s
        return (ch, sh, dch, dsh, lam * s, ch, s + z * ch, dch)


@functools.lru_cache(maxsize=64)
def vertex_laws(graph: MetricGraph) -> np.ndarray:
    """R(lam) = R_0 + lam R_1, shape (2, 2E + 2K, 4E + 2K): each vertex law
    once, as a row over the edge-end traces (y at 4j and 4j + 2, the tail and
    head of edge j, each followed by the outward flux d y') and then p_k, q_k
    of each mass in `graph.mass_vertices` order.  Per vertex, y = 0 if pinned,
    else continuity and sum d y' + c v - q = 0; per mass p' = q, m q' = -p - v."""
    ne, masses = len(graph.edges), graph.mass_vertices
    table = np.zeros((2, 2 * ne + 2 * len(masses), 4 * ne + 2 * len(masses)))
    offset = {e.id: 4 * j for j, e in enumerate(graph.edges)}
    column = {v.id: 4 * ne + 2 * k for k, v in enumerate(masses)}  # p_k, then q_k
    pinned, damped = graph.dirichlet_vertices, graph.damped_vertices
    row = 0
    for v in graph.vertices:
        ends = [offset[e.id] + (2 if d == 1 else 0) for e, d in graph.incident(v.id)]
        ref = ends[0]
        if v in pinned:  # y = 0
            table[0, row, ref] = 1.0
        else:
            for end in ends[1:]:  # continuity: y - y_ref = 0
                table[0, row, end] = 1.0
                table[0, row, ref] = -1.0
                row += 1
            table[0, row, [end + 1 for end in ends]] = 1.0  # sum d y' + c v - q = 0
            table[1, row, ref] = float(v in damped)
            if v.id in column:  # rows p_k - 2E on: lam p - q, p + m lam q + lam y
                p, k = column[v.id], column[v.id] - 2 * ne
                table[0, row, p + 1] = -1.0
                table[:, k:k + 2, p:p + 2] = ((0, -1), (1, 0)), ((1, 0), (0, v.mass))
                table[1, k + 1, ref] = 1.0
        row += 1
    table.flags.writeable = False
    return table


def _times(a, b):
    """The product of polynomials in lam, coefficients lowest power first."""
    out = np.zeros((len(a) + len(b) - 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for i, ai in enumerate(a):
        out[i:i + len(b)] += ai * b  # += into +0.0 leaves no -0.0
    return out


@functools.lru_cache(maxsize=64)
def _edge_laws(graph: MetricGraph) -> np.ndarray:
    """The vertex rows of `vertex_laws` over the traces with each mass block
    O_k over (p_k, q_k) eliminated: the flux row f that holds q_k becomes
    det(O_k) f_T - f_q adj(O_k)_q O_T, cubic in lam.  Row r of block j holds
    lam^0..lam^3 of law r over the four traces of edge j, shape (E, 2E, 16)."""
    laws, ne = vertex_laws(graph), len(graph.edges)
    table = np.concatenate((laws[:, :2 * ne, :4 * ne], np.zeros((2, 2 * ne, 4 * ne))))
    for p in range(4 * ne, laws.shape[2], 2):
        o = laws[:, p - 2 * ne:p - 2 * ne + 2]  # the rows of the mass
        f = np.flatnonzero(laws[:, :2 * ne, p + 1].any(axis=0))[0]
        # adj(O_k)_q O over every column: O_T, then 0 at p_k and det O_k at q_k
        lift = _times(np.stack((-o[:, 1, p], o[:, 0, p]), 1)[:, :, None], o).sum(1)
        table[:, f] = (_times(lift[:, p + 1], laws[:, f, :4 * ne])
                       - _times(laws[:, f, p + 1], lift[:, :4 * ne]))
    table = table.reshape(4, 2 * ne, ne, 4).transpose(2, 1, 0, 3)
    laws = np.ascontiguousarray(table.reshape(ne, 2 * ne, 16))
    laws.flags.writeable = False
    return laws


@functools.lru_cache(maxsize=64)
def _lengths(graph: MetricGraph) -> np.ndarray:
    """The edge lengths as a column, shape (E, 1)."""
    ell = np.array([[e.ell] for e in graph.edges])
    ell.flags.writeable = False
    return ell


# the tail traces in the layout of _basis: y(0) = alpha, -y'(0) = -gamma
_TAIL = np.array((1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0)).reshape(2, 2, 2, 1)
# lam^k and k lam^(k-1), k = 0..3: the powers in R = sum_k lam^k L_k and R'
_POWER_COEF = np.array(((1.0, 1.0, 1.0, 1.0), (0.0, 1.0, 2.0, 3.0)))[:, :, None]
_POWER_EXP = np.array(((0, 1, 2, 3), (0, 0, 1, 2)))[:, :, None]


def _trace_blocks(graph: MetricGraph, lam: np.ndarray) -> np.ndarray:
    """[T_j(lam), T_j'(lam)] for every edge j and every lam of a 1-D array,
    shape (E, 4, 2, 2, N): edge, trace, T or T', coefficient, lam.  T_j takes
    the coefficients (alpha_j, gamma_j) of edge j to y and d y' at its tail
    (x = 0, d = -1) and then at its head (x = l, d = +1)."""
    ell = _lengths(graph)
    blocks = np.empty((len(ell), 4, 2, 2, len(lam)), dtype=complex)
    blocks[:, :2] = _TAIL
    head = np.array(_basis(lam, ell)).reshape(2, 2, 2, len(ell), len(lam))
    blocks[:, 2:] = head.transpose(3, 0, 1, 2, 4)
    return blocks


def _assemble(graph: MetricGraph, lam: np.ndarray, derivative: bool) -> tuple:
    """M(lam) = R(lam) T(lam) for every lam of a 1-D array, and then
    M'(lam) = R' T + R T' when derivative: a stack of shape (1 or 2, N, 2E,
    2E).  Where |Re lam| max l > 30 the columns of edge j are scaled by
    exp(-|Re lam| l_j), and the column scales (N, 2E) are returned with the
    stack (None when no lam needs them).  Where cosh(lam l) overflows the
    entries are not finite.

    The powers of lam scale the trace blocks, and the law block of edge j
    takes them to the columns of edge j: M_j = sum_k L_kj (lam^k T_j) and
    M'_j = sum_k L_kj (k lam^(k-1) T_j + lam^k T'_j)."""
    ne, nlam = len(graph.edges), len(lam)
    ell = _lengths(graph)
    with np.errstate(all="ignore"):  # callers check for overflow
        blocks = _trace_blocks(graph, lam)
        a = np.abs(lam.real)
        scale = None
        if (a * ell).max() > 30.0:
            scale = np.where(a * ell.max() > 30.0, np.exp(-a * ell), 1.0)
            blocks *= scale[:, None, None, None]
            scale = np.repeat(scale.T, 2, axis=1)
        p = (_POWER_COEF * lam ** _POWER_EXP)[:, :, None, None, None, :]
        # edge, power, trace, [M, M'], coefficient, lam
        x = p[0] * blocks[:, None, :, 0:1]
        if derivative:
            dx = p[1] * blocks[:, None, :, 0:1] + p[0] * blocks[:, None, :, 1:2]
            x = np.concatenate((x, dx), axis=3)
        # real laws on the real and imaginary parts side by side
        cols = (_edge_laws(graph) @ x.reshape(ne, 16, -1).view(float)).view(complex)
    cols = cols.reshape(ne, 2 * ne, -1, 2, nlam).transpose(2, 4, 1, 0, 3)
    return cols.reshape(-1, nlam, 2 * ne, 2 * ne), scale


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
    """Assemble the characteristic system M(lam) = R(lam) T(lam) at spectral
    parameter lam, with M' = R' T + R T'."""
    lam = complex(lam)
    stack, col_scale = _assemble(graph, np.array((lam,)), derivative=True)
    if not np.isfinite(stack).all():
        raise SpectralError(f"M(lam) overflows at lam = {lam}")  # |Re lam| l ~ 710
    n = stack.shape[-1]
    return CharacteristicSystem(lam, stack[0, 0], stack[1, 0],
                                np.ones(n) if col_scale is None else col_scale[0])


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
    """The roots found in box, and what the search did: strips counts the
    strips of the box it searched (before any split), mirrored the roots it
    added as conjugates of roots found above the real axis."""

    roots: list
    box: tuple
    tol: float
    strips: int
    mirrored: int


def newton_refine(graph: MetricGraph, lam0: complex) -> tuple[complex, float]:
    """Polish a root of det M by Newton on the logarithmic derivative, and
    return the last iterate with its `residual`.

    Newton runs until its step falls below 1e-14 relative or NEWTON_MAXIT
    steps; it accepts nothing, and the caller judges the residual.  A step
    that lands exactly on a root leaves M(lam) singular; the iteration stops
    there and the returned residual reports it.  An iterate where M(lam)
    overflows stops it too, with residual inf.
    """
    lam = complex(lam0)
    try:
        for _ in range(NEWTON_MAXIT):
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
        return lam, char_matrix(graph, lam).residual()
    except SpectralError:
        return lam, math.inf


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
# RANK_REL * (the largest) and NOISE_FLOOR * max ||M^{-1}||_F * mean semi-axis.
# The roots of one strip spread its singular values over many decades with
# no gap, so the numerical rank is relative to the largest; a cut at 1e-12
# of the absolute scale alone lost roots.  In a strip without roots every
# singular value is rounding noise, and the floor keeps that noise from
# saturating the rank.  The floor takes the Frobenius norm of the 2E x 2E
# inverses, which exceeds their 2-norm by at most sqrt(2E) (3.5 at six
# edges), well inside the factor 10 either way that leaves the roots as they
# are: relative cuts from 1e-12 to 1e-14 and floors from 1e-16 to 1e-18 find
# the same roots on the benchmark's spectrum jobs.
RANK_REL = 1e-13
NOISE_FLOOR = 1e-17
CANDIDATE_MARGIN = 0.25  # pencil eigenvalues further outside are noise
BOX_SLACK = 1e-7
CLUSTER_TOL = 1e-6  # pencil eigenvalues this close (relative) are one root
# A strip whose Hankel rank passes this share of its capacity MOMENTS * 2E is
# crowded: its pencil places some roots too poorly for Newton, and which ones
# it loses shifts with the rounding of the nodes, so a strip and its mirror
# image can keep different roots.  A symmetric box with a crowded upper strip
# is therefore searched whole.  On the 250 mesh-free benchmark graphs of
# seeds 1-10 in the default spectrum box (-5, 0.5, -20, 20), the upper half
# and the lower half found conjugate root sets on every graph whose upper
# strips all had a share of at most 0.5, and differed on 57 graphs, all with
# a share of 0.52 or more.
CROWDED = 0.5


def _strips(box):
    """Horizontal strips tiling the box, each at most twice as tall as wide."""
    re0, re1, im0, im1 = box
    # capped before rounding up, since a box far taller than wide has a ratio
    # that overflows to inf, and at least one, since a box far wider than
    # tall has a ratio that underflows to 0
    count = max(1, math.ceil(min(MAX_STRIPS, (im1 - im0) / (2.0 * (re1 - re0)))))
    cuts = np.linspace(im0, im1, count + 1)
    return [(re0, re1, float(a), float(b)) for a, b in zip(cuts, cuts[1:])]


def _inverses(graph, nodes):
    """col_scale * M(z)^{-1} at every node z, from one stacked evaluation and
    one batched inverse.  The first node, in node order, where M overflows
    or is singular raises SpectralError."""
    (m,), col_scale = _assemble(graph, nodes, derivative=False)
    if np.isfinite(m).all():
        try:
            inverses = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            pass  # the batched inverse does not say which node is singular
        else:
            return inverses if col_scale is None else col_scale[:, :, None] * inverses
    for z, mz in zip(nodes, m):
        try:
            if not np.isfinite(mz).all():
                raise SpectralError(f"M(lam) overflows at lam = {z}")
            np.linalg.inv(mz)
        except (np.linalg.LinAlgError, SpectralError) as exc:
            raise SpectralError(f"no M(lam)^-1 at contour node {z}: {exc}") from None
    raise SpectralError("no M(lam)^-1 on the contour")


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
    if rho < np.finfo(float).tiny:  # the nodes' offsets over rho would overflow
        raise SpectralError(f"the strip {strip} is too small for its contour")
    theta = 2.0 * math.pi * np.arange(QUAD_NODES) / QUAD_NODES
    nodes = c + a * np.cos(theta) + 1j * b * np.sin(theta)
    weights = (-a * np.sin(theta) + 1j * b * np.cos(theta)) / (1j * QUAD_NODES)
    n = 2 * len(graph.edges)
    inverses = _inverses(graph, nodes)
    powers = ((nodes - c) / rho)[None, :] ** np.arange(2 * MOMENTS)[:, None]
    moments = ((powers * weights) @ inverses.reshape(QUAD_NODES, n * n)).reshape(-1, n, n)
    # block Hankel matrices H0 = [A_{i+j}] and H1 = [A_{i+j+1}], i, j < MOMENTS
    hankel = np.block([[moments[i + j] for j in range(MOMENTS)]
                       for i in range(MOMENTS + 1)])
    h0, h1 = hankel[:-n], hankel[n:]
    u, s, vh = np.linalg.svd(h0)
    floor = NOISE_FLOOR * 0.5 * (a + b) * np.linalg.norm(inverses, axis=(1, 2)).max()
    rank = int(np.sum(s > max(RANK_REL * s[0], floor)))
    if rank >= MOMENTS * n - 1:
        return None
    # singular values that underflow in a tiny box overflow the division
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = u[:, :rank].conj().T @ h1 @ vh[:rank].conj().T / s[:rank]
    if not np.isfinite(reduced).all():
        raise SpectralError(f"the reduced pencil of {strip} is not finite")
    return c + rho * np.linalg.eigvals(reduced)


def _strip_roots(graph, strip, tol, splits=0):
    """Polished roots inside one strip, with their multiplicity, and whether
    the strip is crowded (a saturated strip, which is split, is too)."""
    raw = _pencil_eigenvalues(graph, strip)
    re0, re1, im0, im1 = strip
    if raw is None:
        if splits == MAX_SPLITS:
            raise SpectralError(f"too many roots to resolve in {strip}")
        mid = 0.5 * (im0 + im1)
        lower, _ = _strip_roots(graph, (re0, re1, im0, mid), tol, splits + 1)
        upper, _ = _strip_roots(graph, (re0, re1, mid, im1), tol, splits + 1)
        return lower + upper, True

    def inside(lam, slack):
        return (re0 - slack <= lam.real <= re1 + slack
                and im0 - slack <= lam.imag <= im1 + slack)

    roots = []
    for start in raw:
        if not inside(start, CANDIDATE_MARGIN):
            continue
        lam, res = newton_refine(graph, start)
        if res <= tol and inside(lam, BOX_SLACK):
            near = np.abs(raw - lam) <= CLUSTER_TOL * (1.0 + abs(lam))
            roots.append(EigenRecord(lam, res, max(1, int(np.sum(near)))))
    return roots, len(raw) > CROWDED * MOMENTS * 2 * len(graph.edges)


def find_eigenvalues(graph: MetricGraph, box, tol: float = DET_TOL) -> EigenReport:
    """Locate zeros of det M inside a rectangle (re0, re1, im0, im1).

    One contour-integral pass per horizontal strip of the box gives the
    candidates; each is polished by Newton and kept when its residual is at
    most tol and it lies in its strip.  A root's box_count is its
    multiplicity.

    Roots come in conjugate pairs.  When im0 == -im1 and the box has an even
    number of strips, its middle cut lies on the real axis (within
    BOX_SLACK); then the strips above that cut are searched first, the
    lowest of them finds the real roots, and every root with Im > 0 adds its
    conjugate with the same residual and box_count.  When one of those
    strips is crowded (CROWDED), its roots and those of its mirror image may
    differ, so the strips below the cut are searched too and nothing is
    mirrored: the box is searched whole, as every other box is.

    An empty box, one whose width or height is not finite, a tol that is
    not finite and positive, or a contour node where M(lam) cannot be
    inverted, raises SpectralError.
    """
    box = tuple(float(b) for b in box)
    re0, re1, im0, im1 = box
    # the corners may be finite while the width or height overflows
    if not (math.isfinite(re1 - re0) and math.isfinite(im1 - im0)
            and re0 < re1 and im0 < im1):
        raise SpectralError(
            f"box {box} needs re0 < re1 and im0 < im1 with a finite width and height")
    if not 0 < tol < math.inf:
        raise SpectralError(f"tol {tol} must be finite and positive")
    strips = _strips(box)
    half = len(strips) // 2
    # M(conj lam) = conj M(lam), so a box cut on the axis needs its upper strips only
    mirror = (im0 == -im1 and len(strips) % 2 == 0
              and abs(strips[half][2]) <= BOX_SLACK)
    searched = strips[half:] if mirror else strips
    found = [_strip_roots(graph, strip, tol) for strip in searched]
    if mirror and any(crowded for _, crowded in found):
        mirror, searched = False, strips
        found = [_strip_roots(graph, strip, tol) for strip in strips[:half]] + found
    roots = [r for strip_roots, _ in found for r in strip_roots]
    mirrored = [EigenRecord(r.lam.conjugate(), r.residual, r.box_count)
                for r in roots if mirror and r.lam.imag > 0]
    roots = _dedupe(roots + mirrored)
    roots.sort(key=lambda r: (r.lam.real, r.lam.imag))
    added = {id(r) for r in mirrored}
    return EigenReport(roots, box, tol, len(searched),
                       sum(id(r) in added for r in roots))


def _dedupe(roots):
    kept: list[EigenRecord] = []
    for r in sorted(roots, key=lambda r: r.residual):
        if all(abs(r.lam - k.lam) > 1e-8 * (1 + abs(r.lam)) for k in kept):
            kept.append(r)
    return kept


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
        ch, sh = _basis(self.lam, np.asarray(x, dtype=float))[:2]
        return (a * ch + g * sh)[()]


def eigenfunction(graph: MetricGraph, lam: complex) -> EigenFunction:
    """Null vector of M(lam) lifted to a unit-norm state (y, v, p, q)."""
    sys = char_matrix(graph, lam)
    if sys.residual() > EIGEN_TOL:
        raise SpectralError(f"{lam} is not a characteristic root (residual > {EIGEN_TOL})")
    u, s, vh = np.linalg.svd(sys.matrix)
    null_dim = int(np.sum(s <= NULL_RTOL * s[0]))
    coeff_scaled = vh[-1].conj()
    coeff = coeff_scaled * sys.col_scale
    residual = float(
        np.linalg.norm(sys.matrix @ coeff_scaled) / np.linalg.norm(coeff_scaled)
    )

    coefficients = {
        e.id: (coeff[2 * j], coeff[2 * j + 1]) for j, e in enumerate(graph.edges)
    }

    # y and d y' at every edge end, read through the map the laws are written on
    t = _trace_blocks(graph, np.array((lam,)))[:, :, 0, :, 0]
    traces = (t @ coeff.reshape(-1, 2, 1)).ravel()
    # each oscillator from the law table: q_k from the flux row that holds it,
    # which holds at a resonant mass too, then p_k from p' = q (lam = 0 is no root)
    laws, nv, nt, p, q = vertex_laws(graph), len(coeff), len(traces), {}, {}
    rows = laws[0] + lam * laws[1]
    for v, col in zip(graph.mass_vertices, range(nt, laws.shape[2], 2)):
        f = np.flatnonzero(laws[:, :nv, col + 1].any(axis=0))[0]
        q[v.id] = -(rows[f, :nt] @ traces) / rows[f, col + 1]
        p[v.id] = -rows[col - nv, col + 1] * q[v.id] / rows[col - nv, col]

    norm = _state_norm(graph, lam, coefficients, p, q)
    if norm > 0:
        inv = 1.0 / norm
        coefficients = {k: (a * inv, g * inv) for k, (a, g) in coefficients.items()}
        p = {k: val * inv for k, val in p.items()}
        q = {k: val * inv for k, val in q.items()}
    return EigenFunction(lam, coefficients, p, q, residual, null_dim)


def _edge_energy(lam, alpha, gamma, ell):
    """int_0^ell (|y'|^2 + |lam y|^2) dx for y = alpha cosh(lam x) +
    gamma sinh(lam x)/lam, in closed form.  With u = lam alpha the parts
    (u +- gamma) e^(+-lam x)/2 of y' and lam y leave no cross term; a = Re lam.
    counterexample._edge_energy is the same integral on the axis."""
    u, a = lam * alpha, lam.real
    if a == 0:
        return (abs(u) ** 2 + abs(gamma) ** 2) * ell
    return (abs(u + gamma) ** 2 * math.expm1(2.0 * a * ell)
            - abs(u - gamma) ** 2 * math.expm1(-2.0 * a * ell)) / (4.0 * a)


def _state_norm(graph, lam, coefficients, p, q):
    """H-norm: sum_j int(|y'|^2 + |v|^2) + sum_k (|p|^2 + m_k |q|^2)."""
    total = sum(_edge_energy(lam, *coefficients[e.id], e.ell) for e in graph.edges)
    for v in graph.mass_vertices:
        total += abs(p[v.id]) ** 2 + v.mass * abs(q[v.id]) ** 2
    return math.sqrt(total)
