"""Diophantine instability probes for the circuit and star networks.

The circuit probe drives the network at frequencies beta_n = 2 pi q_n +
2 pi / q_n^{1/4} built from Dirichlet convergents p_n/q_n (q_n > 1) of the
cycle length l4, where all edge angles are nearly multiples of 2 pi.  The
edgewise response is obtained two independent ways: a direct solve of the 6x6
boundary system and a scalar reduction (FB + AG) beta b1 = A H - F C whose
coefficients A..H were re-derived from that system by elimination; the two
must agree to near machine precision on every probe.  The star probe
solves the three-edge star's boundary system in closed form at the same
frequencies and reports the H-norm amplification ||z|| / ||f||, a lower bound
for the resolvent norm.  Both probes share one frequency construction
(`_probe_angles`) and one guard against lengths that put an eigenvalue on
the axis; the star's H-norm is the energy identity on its two unforced
edges plus elementary integrals on the forced one.

Every digit of a length comes from one exact integer bracket n1/d1 <= l <=
n2/d2 (`Length.bracket`).  The convergents come from the partial quotients
on which both ends agree, and extended precision is needed only where the
probes cancel, in the phase beta_n l - 2 pi p_n = 2 pi (q l - p) + theta_1 l,
with q l - p = (q n1 - p d1) / d1 read from one bracket that covers q.  The
angles are formed at ENTRY_PREC bits, plus half the bits of q for the
circuit, whose smallest unknowns fall like q^(-1/4).  Its 6x6 is solved in
double precision and refined against residuals formed exactly in Python
integers (`_solve`); the star's closed form and the scalar reduction run in
double precision on beta-scaled quantities, so that beta^2 never forms, and
a star value that lies within a few ulps of a change in its printed digits
is redone in mpmath.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath as mp

from .graph import Length, NetwaveError

CONVERGENT_CAP = 10_000
# q = 1 and q = 16 make theta_1 = 2 pi / q^(1/4) a multiple of pi, so that
# sin(theta_1) = 0: the circuit's b_1 vanishes and its reduction divides by 0
DEGENERATE_Q = (1, 16)
# bits (about 30 digits) of the probe angles and of the row entries that the
# circuit's refinement reads, which adds half the bits of q
ENTRY_PREC = 100
# the refinement stops once the error it leaves is below 2^-REFINE_BITS of
# the smallest nonzero part of the solution, and refuses a system after
# MAX_ROUNDS rounds (a pi*1e-300 probe takes 20, a benchmark one 2 or 3)
REFINE_BITS = 60
MAX_ROUNDS = 32
# the star's double-precision values are redone in mpmath within this many
# ulps of a change in their printed digits
PRINT_GUARD = 16
# (-1+i) pi^3 of the growth ratio, at the 53 bits it is formed in
with mp.workprec(53):
    _RATIO_SCALE = (-1 + 1j) * mp.pi**3


class CounterexampleError(NetwaveError, RuntimeError):
    pass


class AxisEigenvalue(CounterexampleError):
    """The requested configuration has an eigenvalue on the imaginary axis."""

    def __init__(self, message, beta):
        super().__init__(message)
        self.beta = beta


@dataclass(frozen=True)
class ConvergentPair:
    """Rational approximation p/q with |q*ell - p| < 1/q."""

    p: int
    q: int


def _irrational_length(ell) -> Length:
    """ell as a Length, refused unless it is positive and not exactly
    rational: a rational p/q puts i*q*pi on the axis as an eigenvalue, and
    its approximation by convergents never improves."""
    length = Length.parse(ell)
    if not length.value > 0:
        raise CounterexampleError(f"length {length.value} must be positive")
    if length.is_rational:
        frac = length.frac
        raise AxisEigenvalue(
            f"length {frac} is rational: i*{frac.denominator}*pi is an "
            f"eigenvalue on the axis; convergent probes do not apply",
            float(frac.denominator) * mp.pi,
        )
    return length


# -- the refined double-precision solve -------------------------------------


def _solve(rows, rhs) -> tuple:
    """(x, e) with A x 2^e = b for the rows of A and b, exactly to every
    digit the entries carry: x holds the (re, im) integer parts of each
    unknown over the binary exponent e.

    One Gaussian elimination with partial pivoting on Python complex, then
    iterative refinement (Wilkinson; Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 12): each round forms the residual b - A x
    exactly in integers, solves for a correction d with the double factors
    and adds it exactly.  The error shrinks by about |d| / |d_last| a round,
    so the rounds stop once |d|^2 / |d_last| is below 2^-REFINE_BITS of the
    smallest nonzero part of x.  A zero pivot, an entry that is not finite
    and a refinement that does not settle raise CounterexampleError.
    """
    n = len(rhs)
    read, entries = {}, []  # the rows repeat a few values: each is read once
    for i, row in enumerate(rows):
        for j, a in enumerate([*row, rhs[i]]):
            if a.__class__ is int and not a:
                continue
            if id(a) not in read:
                t = _exact(a)
                read[id(a)] = t and (t, _complex(*t))
            if read[id(a)]:
                entries.append((i, j, *read[id(a)]))
    # b, x, the residual r and each correction d as flat lists of integer
    # parts (re_0, im_0, re_1, ...) over one binary exponent each, and the
    # rows as their nonzero (2 j, re, im) over the exponent of b
    eb = min((t[2] for _, _, t, _ in entries), default=0)
    dense, terms, b = [[0j] * n for _ in range(n)], [[] for _ in range(n)], [0] * (2 * n)
    for i, j, (re, im, e), z in entries:
        if j == n:
            b[2 * i: 2 * i + 2] = re << (e - eb), im << (e - eb)
        else:
            dense[i][j] = z
            terms[i].append((2 * j, re << (e - eb), im << (e - eb)))
    factors = _factor(dense)
    x, ex, r, er, last = [0] * (2 * n), eb, b, eb, None
    for _ in range(MAX_ROUNDS):
        # the largest residual part scaled to near 1 leaves the double
        # factors a correction in the double range
        top = max(map(abs, r)).bit_length()
        d = []
        for z in _substitute(factors, [_complex(r[k], r[k + 1], -top)
                                       for k in range(0, 2 * n, 2)]):
            d += math.frexp(z.real), math.frexp(z.imag)
        ed = min([de for m, de in d if m] or [53]) - 53
        d = [int(m * 2**53) << (de - 53 - ed) if m else 0 for m, de in d]
        ed += er + top
        e = min(ex, ed)
        x, ex = [(xp << (ex - e)) + (dp << (ed - e)) for xp, dp in zip(x, d)], e
        # log2 |d|, against log2 of the smallest nonzero part of x
        size = max(map(abs, d)).bit_length() + ed
        if not any(d) or last is not None and 2 * size - last <= min(
                abs(m).bit_length() for m in x if m) + ex - REFINE_BITS:
            return [(x[k], x[k + 1]) for k in range(0, 2 * n, 2)], ex
        last = size
        er = min(eb, eb + ex)
        sb, sx, r = eb - er, eb + ex - er, []
        for k, row in enumerate(terms):
            sr = si = 0
            for j, ar, ai in row:
                xr, xi = x[j], x[j + 1]
                sr += ar * xr - ai * xi
                si += ar * xi + ai * xr
            r += (b[2 * k] << sb) - (sr << sx), (b[2 * k + 1] << sb) - (si << sx)
    raise CounterexampleError(f"refinement does not settle in {MAX_ROUNDS} rounds")


def _exact(a):
    """(re, im, exp) with a = (re + i im) 2^exp exactly, or None for a zero."""
    if isinstance(a, int):
        return (a, 0, 0) if a else None
    a = mp.mpmathify(a)
    parts = a._mpc_ if isinstance(a, mp.mpc) else (a._mpf_, mp.libmp.fzero)
    (sr, mr, er, _), (si, mi, ei, _) = parts
    if not mr and er or not mi and ei:
        raise CounterexampleError(f"entry {a} is not finite")
    if not mr and not mi:
        return None
    e = min(er if mr else ei, ei if mi else er)
    return ((-mr if sr else mr) << (er - e) if mr else 0,
            (-mi if si else mi) << (ei - e) if mi else 0, e)


def _float(m: int, e: int) -> float:
    """m 2^e as a double, m cut to its leading 64 bits first."""
    shift = m.bit_length() - 64
    return math.ldexp(m >> shift, e + shift) if shift > 0 else math.ldexp(m, e)


def _complex(re: int, im: int, e: int) -> complex:
    return complex(_float(re, e), _float(im, e) if im else 0.0)


def _to_mpc(v, e, prec=ENTRY_PREC):
    """(re + i im) 2^e rounded to an mpc of prec bits."""
    return mp.make_mpc(tuple(
        mp.libmp.from_man_exp(m, e, prec, mp.libmp.round_nearest) for m in v))


def _factor(A) -> tuple:
    """(LU, perm) with P A = L U for the complex matrix A, by partial
    pivoting, in place."""
    n, perm = len(A), list(range(len(A)))
    for j in range(n):
        column = [abs(row[j]) for row in A[j:]]
        p = j + column.index(max(column))
        if not A[p][j]:
            raise CounterexampleError("singular: resonance")
        A[j], A[p], perm[j], perm[p] = A[p], A[j], perm[p], perm[j]
        pivot = A[j]
        for row in A[j + 1:]:
            if row[j]:
                f = row[j] = row[j] / pivot[j]
                for k in range(j + 1, n):
                    row[k] -= f * pivot[k]
    return A, perm


def _substitute(factors, b) -> list:
    """x with L U x = P b."""
    lu, perm = factors
    n, y = len(lu), [b[k] for k in perm]
    for i in range(n):
        row, acc = lu[i], y[i]
        for k in range(i):
            acc -= row[k] * y[k]
        y[i] = acc
    for i in reversed(range(n)):
        row, acc = lu[i], y[i]
        for k in range(i + 1, n):
            acc -= row[k] * y[k]
        y[i] = acc / row[i]
    return y


# -- convergents ------------------------------------------------------------


def dirichlet_convergents(ell, count: int) -> list:
    """First `count` continued-fraction convergents p/q of ell with p > 0,
    in ascending q; each satisfies the Dirichlet inequality |q ell - p| <
    1/q_next <= 1/q (Hardy and Wright, *An Introduction to the Theory of
    Numbers*, Thm 171).

    Rational lengths are refused: their approximation never improves and the
    probe construction does not apply.  So is a count above CONVERGENT_CAP,
    before any expansion.  The partial quotients are those on which both ends
    of the bracket of ell agree, which every number between them shares: at
    64 + 4 count bits, and then at twice the bits until `count` convergents
    are found.  An exact bracket whose expansion ends first, as a float's
    does, is refused.
    """
    length = _irrational_length(ell)
    if count > CONVERGENT_CAP:
        raise CounterexampleError(
            f"{count} convergents asked for, more than the iteration cap {CONVERGENT_CAP}")
    bits = 64 + 4 * count
    while True:
        n1, d1, n2, d2 = length.bracket(bits)
        out, p0, q0, p1, q1 = [], 0, 1, 1, 0  # convergent recurrence seeds
        while len(out) < count and d1 and d2 and n1 // d1 == n2 // d2:
            a = n1 // d1
            p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
            if p1 > 0:
                out.append(ConvergentPair(p1, q1))
            n1, d1, n2, d2 = d1, n1 - a * d1, d2, n2 - a * d2
        if len(out) == count:
            return out
        if (n1, d1) == (n2, d2):
            raise CounterexampleError(
                f"only {len(out)} convergents: the continued fraction of "
                f"{length.value!r} ends")
        bits *= 2


# -- probe angles -----------------------------------------------------------


def _ratio(n: int, d: int):
    """n/d rounded to an mpf at the working precision."""
    return mp.make_mpf(mp.libmp.from_rational(n, d, mp.mp.prec, mp.libmp.round_nearest))


def _value(length: Length):
    """length at the working precision, from its bracket at 8 more bits."""
    n, d, _, _ = length.bracket(mp.mp.prec + 8)
    return _ratio(n, d)


def _probe_angles(beta, length: Length, pair, prec=ENTRY_PREC):
    """(beta, theta_1, theta_l) as mpf numbers of at least prec bits:
    the frequency and the angles beta, beta*l of a unit edge and the probe
    edge of length l, the latter reduced modulo 2 pi.

    With a convergent pair, beta = 2 pi q + theta_1 with theta_1 =
    2 pi / q^{1/4}, and theta_l = 2 pi (q l - p) + theta_1 l, with
    q l - p = (q n1 - p d1) / d1 and l = n1 / d1 from one bracket of l at
    prec + 2 bits(q) + 64 bits: q l - p is about 1/q, and the 64 bits cover
    a large next partial quotient.  A beta that is 0 or not finite is refused.
    """
    with mp.workprec(prec):
        if pair is None:
            beta = mp.mpf(beta)
            _refuse_degenerate(beta)
            with mp.workprec(prec + max(0, mp.mag(beta))):
                return beta, beta, beta * _value(length)
        p, q, tau = pair.p, pair.q, 2 * mp.pi
        th1 = tau / mp.sqrt(mp.sqrt(q))
        n, d, _, _ = length.bracket(prec + 2 * q.bit_length() + 64)
        return tau * q + th1, th1, tau * _ratio(q * n - p * d, d) + th1 * _ratio(n, d)


def _refuse_degenerate(beta):
    if not beta:
        raise CounterexampleError(
            "beta = 0: the forcing -sin(beta x) vanishes and its particular "
            "response -x cos(beta x)/(2 beta) is undefined"
        )
    if not mp.isfinite(beta):
        raise CounterexampleError(f"beta = {beta} is not finite")


# -- circuit probes ---------------------------------------------------------


@dataclass
class CircuitProbe:
    """One solve of the circuit boundary system at a probe frequency."""

    beta: mp.mpf
    l4: Length
    pair: ConvergentPair | None
    b1: mp.mpc
    eqcir_rel_diff: float
    ratio: mp.mpc | None  # beta b1 / ((-1+i) pi^3 q^{1/4}), for a convergent

    @property
    def q(self) -> int | None:
        return self.pair.q if self.pair is not None else None


def _circuit_trig(th1, th4) -> tuple:
    """(c, s, c4, s4, h4): the cosines and sines of theta_1 and theta_4 and
    h4 = sin(theta_4 / 2), with c4 = 1 - 2 h4^2 and s4 = 2 h4 cos(theta_4 / 2)."""
    c, s = mp.cos_sin(th1)
    ch, h4 = mp.cos_sin(mp.ldexp(th4, -1))  # exact: a given beta leaves th4 unreduced
    return c, s, 1 - 2 * h4 * h4, 2 * h4 * ch, h4


def _coefficients(u, c, s, c4, s4, h4) -> dict:
    """A..H of the scalar reduction, from u = 1/beta, the cosines and sines
    of theta_1 and theta_4, and h4 = sin(theta_4 / 2): F's c4 - 1 is written
    as -2 h4^2, which does not cancel.  Python complex or mpmath numbers."""
    E = c - 1j * s  # exp(-i theta_1)
    return {
        "A": (1 + c4) * s + E * s4,
        "B": (2 - c4) * c + 1j * (E * s4 - s),
        "C": s * u / 2 - (s / 2 + 1j * c / 2 - c * u / 2) * s4 + c * c4 / 2,
        "F": -2 * E * h4 * h4 - s * s4,
        "G": E * (c / s - 2j) - c * s4 - 1j * E * c4,
        "H": (-E * u / 2 - c * s4 / 2 - s * c4 / 2 + c * c4 * u / 2
              - 1j * c * c4 / 2),
    }


def circuit_solve(beta, l4, pair: ConvergentPair | None = None) -> CircuitProbe:
    """Solve the circuit boundary system for the edge coefficients.

    The system couples a_1..a_4, b_1..b_4 (with b_1 = b_2 = b_3) under
    forcing -sin(beta x) on edge 2; beta may instead be derived from a
    Dirichlet convergent pair as beta = 2 pi q + 2 pi q^{-1/4}, where q is
    not in DEGENERATE_Q: at q = 1 and q = 16, theta_1 is a multiple of pi,
    which makes b1 vanish and the scalar reduction divide by sin(theta_1) = 0.
    Returns b1 together with the consistency defect between the two solution
    paths.
    """
    if pair is not None and pair.q in DEGENERATE_Q:
        raise CounterexampleError(
            f"convergent {pair.p}/{pair.q}: circuit probes need q > 1 and q != 16")
    length = Length.parse(l4) if pair is not None else _irrational_length(l4)
    # the smallest parts of the solution fall like q^(-1/4) against the
    # largest, as the rows' condition grows like q^(1/4)
    prec = ENTRY_PREC + (pair.q.bit_length() // 2 if pair is not None else 0)
    beta, th1, th4 = _probe_angles(beta, length, pair, prec)
    with mp.workprec(prec):
        c, s, c4, s4, h4 = trig = _circuit_trig(th1, th4)
        u = 1 / beta
        # boundary and transmission conditions for the unknowns
        # 2 beta (a1, b1, a2, a3, a4, b4), with the flux rows divided by beta
        ms, mc, ms4 = -s, -c, -s4
        rows = [
            [s, c, 0, 0, 0, 0],
            [1, mp.j, 1, 1, 0, 0],
            [0, c, s, 0, 0, -1],
            [0, s, mc, 0, 1, mp.j],
            [0, c, 0, s, ms4, -c4],
            [0, mp.mpc(ms, mc), 0, mp.mpc(c, ms), c4, ms4],
        ]
        rhs = [0, u, c, s - c * u, 0, 0]
        try:
            x, e = _solve(rows, rhs)
        except CounterexampleError as exc:
            raise CounterexampleError(f"boundary system at beta={beta}: {exc}") from None
        b1 = _to_mpc(x[1], e - 1, prec) * u
    # the scalar reduction, in double precision: (F B + A G) beta b1 = A H - F C,
    # against the solve's beta b1, which stays in the double range where b1 leaves it
    coeffs = _coefficients(float(u), *map(float, trig))
    A, B, C, F, G, H = (coeffs[k] for k in "ABCFGH")
    beta_b1 = _complex(*x[1], e - 1)
    rel = (abs((A * H - F * C) / (F * B + A * G) - beta_b1) / abs(beta_b1)
           if beta_b1 else math.inf)
    ratio = None
    if pair is not None:  # once per probe, in 53-bit arithmetic
        with mp.workprec(53):
            qq = mp.mpf(pair.q) ** mp.mpf(0.25)
            ratio = beta * b1 / (_RATIO_SCALE * qq)
    return CircuitProbe(
        beta=beta,
        l4=length,
        pair=pair,
        b1=b1,
        eqcir_rel_diff=rel,
        ratio=ratio,
    )


def asymptotic_defects(probe: CircuitProbe) -> dict:
    """Relative distance of A..H from their leading-order forms, with A..H
    evaluated in mpmath at a precision that grows with q, as the distances
    fall with it.

    The leading forms follow from the probe angles th1, th4 -> 0:
    A ~ 2 pi (2+l4) q^{-1/4}, B ~ 1, C ~ 1/2, F ~ -2 pi^2 l4 (l4+2) q^{-1/2},
    G ~ q^{1/4}/(2 pi) - 4i, H ~ -i/2.
    """
    if probe.q is None:
        raise CounterexampleError("asymptotics need a convergent probe")
    prec = ENTRY_PREC + 3 * probe.q.bit_length()
    beta, th1, th4 = _probe_angles(None, probe.l4, probe.pair, prec)
    with mp.workprec(prec):
        coeffs = _coefficients(1 / beta, *_circuit_trig(th1, th4))
        q = mp.mpf(probe.q)
        l4 = _value(probe.l4)
        qq = mp.sqrt(mp.sqrt(q))
        i = mp.mpc(0, 1)
        leading = {
            "A": 2 * mp.pi * (2 + l4) / qq,
            "B": mp.mpf(1),
            "C": mp.mpf(1) / 2,
            "F": -2 * mp.pi**2 * l4 * (l4 + 2) / mp.sqrt(q),
            "G": qq / (2 * mp.pi) - 4 * i,
            "H": -i / mp.mpf(2),
        }
        return {
            k: float(abs(coeffs[k] - leading[k]) / abs(leading[k]))
            for k in leading
        }


@dataclass
class GrowthReport:
    """Per-probe growth ratios and their extrapolated limit."""

    ratios: list  # complex ratio per probe, ascending q
    qs: list
    limit: complex
    predicted: float  # modulus of the target constant 2 l4 (2 l4+1)/(l4+2)
    verdict: str  # "non-exponential" | "inconclusive"


def growth_law(probes: list, l4) -> GrowthReport:
    """Extrapolate beta_n b_1 / ((-1+i) pi^3 q_n^{1/4}) over a probe ladder.

    Richardson extrapolation in q^{-1/4}; verdict "non-exponential" when the
    ratios stabilize within 10% of the target constant
    2 l4 (2 l4 + 1)/(l4 + 2), "inconclusive" otherwise.
    """
    length = _irrational_length(l4)
    probes = sorted(
        (pr for pr in probes if pr.q is not None), key=lambda pr: pr.q
    )
    if len(probes) < 3:
        raise CounterexampleError("need at least 3 convergent probes")
    ratios = [complex(pr.ratio) for pr in probes]
    qs = [pr.q for pr in probes]
    x = [q ** -0.25 for q in qs]
    # one Richardson step on the last pair, assuming error ~ q^{-1/4}
    r1, r0 = ratios[-1], ratios[-2]
    x1, x0 = x[-1], x[-2]
    limit = (r1 * x0 - r0 * x1) / (x0 - x1)
    l4v = float(length.value)
    predicted = 2 * l4v * (2 * l4v + 1) / (l4v + 2)
    tail = ratios[-3:]
    near = all(abs(abs(r) - predicted) <= 0.1 * predicted for r in tail)
    verdict = "non-exponential" if near else "inconclusive"
    return GrowthReport(ratios, qs, limit, predicted, verdict)


# -- star probe -------------------------------------------------------------


def _edge_energy(u, ba, bY, ell=1, trig=None):
    """int_0^ell (|y'|^2 + beta^2 |y|^2) dx for y = a sin(beta x) + Q cos(beta x),
    from u = 1/beta, ba = beta a and bY = beta Y.

    With constant Q = Y the integrand is the constant beta^2 (|a|^2 + |Y|^2).
    trig = (sin th, cos th), with th = beta modulo 2 pi, marks the unit
    forced edge, where Q = Y - x/(2 beta) adds the integrals over [0, 1] of
    x, x^2, cos^2(beta x), sin(beta x) cos(beta x) and x sin(beta x) cos(beta x).
    """
    total = (ba.real**2 + ba.imag**2 + bY.real**2 + bY.imag**2) * ell
    if trig is None:
        return total
    s, c = trig
    s2, c2, yr = 2 * s * c, c * c - s * s, bY.real
    return (total + (1 - 6 * yr) / 12
            + (u * u / 4 - u * ba.real) * (2 + s2 * u) / 4
            + yr * s * s * u * u / 2 - s2 * u**3 / 16 + c2 * u * u / 8)


def _star_unknowns(u, k, c, s, c3, s3, s13):
    """beta (a1, a2, a3, Y) of the star boundary system, by Cramer's rule,
    from u = 1/beta, k = kappa / beta and s13 = s c3 + c s3."""
    # y^j = a_j sin(beta x) + Y cos(beta x), and edge 2 adds the particular
    # response -x cos(beta x)/(2 beta); (c, s) and (c3, s3) are the cosine and
    # sine of beta and beta l3.  The absorbing end y'(1) = -i beta y(1) of
    # edge 1 reads beta (c + i s)(a1 + i Y) = 0, so a1 = -i Y.  That leaves
    # the clamped ends s a2 + c Y = c/(2 beta) and s3 a3 + c3 Y = 0, and the
    # centre flux with the oscillator eliminated, beta (a2 + a3) + kappa Y =
    # 1/(2 beta), with kappa = beta^2 / (1 - beta^2) - i beta.  Divided by
    # beta it holds no beta^2; no step divides by s or s3, and the
    # determinant vanishes only where both do.  Its s c3 + c s3 =
    # sin(beta (1 + l3)) cancels near a multiple of pi, so it comes formed
    # from the extended-precision cosines and sines.
    det = 2 * (s * s3 * k - s13)
    if not det:
        raise CounterexampleError(f"star system singular at beta={1 / u}: resonance")
    g = c - s * u
    bY = -s3 * g / det
    return (-1j * bY, c * (s3 * (k - u) - c3) / det, c3 * g / det, bY)


@dataclass
class StarProbe:
    beta: float
    norm_ratio: float  # ||z||_H / ||f||_H, a lower bound for the resolvent norm
    center_value: complex


def _star_values(u, w, c, s, c3, s3, s13, ell) -> tuple:
    """((||z|| / ||f||)^2, beta Y) from u = 1/beta, w = beta / (beta^2 - 1),
    the cosines and sines of beta and beta l3, s13 = s c3 + c s3 and the
    length l3, in Python floats or mpmath numbers."""
    a1, a2, a3, bY = _star_unknowns(u, -w - 1j, c, s, c3, s3, s13)
    # H-norm of z = (y, v = i beta y, p, q): the edge energies plus
    # |p|^2 + |q|^2 = (1 + beta^2) |p|^2 with p = -i beta Y / (1 - beta^2);
    # edge 2 carries the particular part
    total = (_edge_energy(u, a1, bY) + _edge_energy(u, a2, bY, trig=(s, c))
             + _edge_energy(u, a3, bY, ell)
             + (1 + u * u) * w * w * (bY.real**2 + bY.imag**2))
    # ||f||^2 = int_0^1 sin^2(beta x) dx, with sin 2 beta = 2 s c
    return 2 * total / (1 - s * c * u), bY


def star_probe(beta, l3, pair: ConvergentPair | None = None) -> StarProbe:
    """Exact response of the three-edge star to forcing -sin(beta x) on a
    clamped edge; returns the norm amplification ||z|| / ||f||.

    Geometry: edges 1, 2 of unit length and edge 3 of length l3 joined at a
    center mass; edge 1 carries the absorbing end, edges 2 and 3 are clamped.
    A length l3 in pi * N is refused: i is then an eigenvalue on the axis.
    The angles are formed at ENTRY_PREC bits and the rest runs in double
    precision, or again in mpmath for a value that lies within PRINT_GUARD
    ulps of a change in its printed digits.
    """
    length = Length.parse(l3)
    if length.pi_multiple() is not None:
        raise AxisEigenvalue(
            f"edge length {length.frac}*pi puts an eigenvalue at i on the axis", 1.0)
    beta, th, th3 = _probe_angles(beta, length, pair)
    if abs(beta) == 1:
        raise CounterexampleError(
            f"beta^2 = 1 at beta={beta}: the unit center oscillator resonates")
    with mp.workprec(ENTRY_PREC):
        u = 1 / beta
        (c, s), (c3, s3) = mp.cos_sin(th), mp.cos_sin(th3)
        entries = (u, u / (1 - u * u), c, s, c3, s3, s * c3 + c * s3)
    square, bY = _star_values(*map(float, entries), length.value)
    u = float(u)
    Y = complex(u * bY.real, u * bY.imag)  # u * bY would turn -0.0 parts to +0.0
    if bY and abs(Y) < sys.float_info.min:  # complex(Y) would print a false zero
        raise CounterexampleError(
            f"centre value |Y| = {mp.nstr(abs(mp.mpc(bY)) / beta, 3)} at "
            f"beta = {float(beta):.6e} lies below the double range")
    ratio = math.sqrt(square)
    if any(map(_near_print_boundary, (ratio, Y.real, Y.imag))):
        with mp.workprec(ENTRY_PREC):
            square, bY = _star_values(*entries, _value(length))
            ratio, Y = float(mp.sqrt(square)), complex(entries[0] * bY)
    return StarProbe(beta=float(beta), norm_ratio=ratio, center_value=Y)


def _near_print_boundary(v: float) -> bool:
    """True when v lies within PRINT_GUARD ulps of a change in the 13
    significant digits that probes.csv prints."""
    d = PRINT_GUARD * math.ulp(v)
    return f"{v - d:.12e}" != f"{v + d:.12e}"
