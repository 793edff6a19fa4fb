"""High-precision instability probes for the circuit and star networks.

The circuit probe drives the network at frequencies beta_n = 2 pi q_n +
2 pi / q_n^{1/4} built from Dirichlet convergents p_n/q_n (q_n > 1) of the
cycle length l4, where all edge angles are nearly multiples of 2 pi.  The
edgewise response is obtained two independent ways: a direct solve of the 6x6
boundary system and a scalar reduction (FB + AG) beta b1 = A H - F C whose
coefficients A..H were re-derived from that system by elimination; the two
must agree to near machine precision on every probe.  The star probe
solves the three-edge star's 4x4 boundary system at the same frequencies and
reports the H-norm amplification ||z|| / ||f||, a lower bound for the
resolvent norm.  Both probes share one frequency construction
(`_probe_angles`) and one guard against lengths that put an eigenvalue on
the axis; the star's H-norm is the energy identity on its two unforced
edges plus elementary integrals on the forced one.

Everything runs in mpmath extended precision with exact integer angle
reduction (2 pi p_n subtracted symbolically), since sin(beta_n l4) lives on
fine Diophantine margins that double precision destroys beyond q ~ 1e6.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .graph import Length, NetwaveError

CONVERGENT_CAP = 10_000


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


def _precision_for(q: int) -> int:
    return max(50, 30 + mp.mp.dps // 10 + len(str(q)) * 3)


def _lu_solve(rows, rhs) -> list:
    """x with A x = b for the rows of A and b, by Gaussian elimination with
    partial pivoting at the working precision.

    Products with an exact zero factor are skipped.  A pivot of at most
    eps * ||A||_1 raises ZeroDivisionError.
    """
    n = len(rows)
    A = [[mp.mpmathify(a) for a in [*row, b]] for row, b in zip(rows, rhs)]
    tol = max(mp.fsum(abs(row[j]) for row in A) for j in range(n)) * mp.eps
    for j in range(n):
        p = max(range(j, n), key=lambda k: abs(A[k][j]))
        A[j], A[p] = A[p], A[j]
        pivot = A[j]
        if abs(pivot[j]) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        for row in A[j + 1:]:
            if row[j]:
                f = row[j] / pivot[j]
                for k in range(j + 1, n + 1):
                    if pivot[k]:
                        row[k] -= f * pivot[k]
    x = [0] * n
    for i in reversed(range(n)):
        row, s = A[i], A[i][n]
        for k in range(i + 1, n):
            if row[k] and x[k]:
                s -= row[k] * x[k]
        x[i] = s / row[i]
    return x


def dirichlet_convergents(ell, count: int) -> list:
    """First `count` continued-fraction convergents of ell satisfying the
    Dirichlet inequality |q ell - p| < 1/q, in ascending q.

    Rational lengths are refused: their approximation never improves and the
    probe construction does not apply.  So is a count above CONVERGENT_CAP,
    which the iteration cannot reach, before any precision is set for it.
    The expansion loses about 2 log10 q digits by the denominator q, so it
    starts at 60 + count digits and is redone at twice the precision until
    its last denominator leaves 40 of them to spare.
    """
    length = _irrational_length(ell)
    if count > CONVERGENT_CAP:
        raise CounterexampleError(
            f"{count} convergents asked for, more than the iteration cap {CONVERGENT_CAP}")
    dps = 60 + count
    out, q = _convergents(length, count, dps)
    while 2 * len(str(q)) + 40 > dps:
        dps *= 2
        out, q = _convergents(length, count, dps)
    if len(out) < count:
        raise CounterexampleError(
            f"only {len(out)} convergents reachable within the iteration cap"
        )
    return out


def _convergents(length: Length, count: int, dps: int) -> tuple:
    """(at most `count` Dirichlet convergents of length, the last denominator
    the expansion formed), computed at dps digits."""
    out = []
    with mp.workdps(dps):
        target = length.mpf()
        p0, q0 = 1, 0  # convergent recurrence seeds
        p1, q1 = int(mp.floor(target)), 1
        frac = target - mp.floor(target)
        for _ in range(CONVERGENT_CAP):
            if len(out) >= count:
                break
            if q1 > 0 and p1 > 0 and abs(q1 * target - p1) < mp.mpf(1) / q1:
                out.append(ConvergentPair(p1, q1))
            if frac == 0:
                break
            x = 1 / frac
            a = int(mp.floor(x))
            frac = x - a
            p0, p1 = p1, a * p1 + p0
            q0, q1 = q1, a * q1 + q0
    return out, q1


# -- circuit probes ---------------------------------------------------------


@dataclass
class CircuitProbe:
    """One solve of the circuit boundary system at a probe frequency."""

    beta: complex  # mp.mpf really; kept generic for serialization
    l4: Length
    q: int | None
    b1: complex
    coeffs: dict  # A..H of the scalar reduction
    eqcir_rel_diff: float

    def growth_ratio(self):
        """beta * b1 normalized by (-1+i) pi^3 q^{1/4}."""
        if self.q is None:
            raise CounterexampleError("growth ratio needs a convergent probe")
        qq = mp.mpf(self.q) ** mp.mpf("0.25")
        return self.beta * self.b1 / ((-1 + 1j) * mp.pi**3 * qq)


def _probe_angles(beta, length, pair):
    """(beta, theta_1, theta_l): the frequency and the angles beta, beta*l
    of a unit edge and the probe edge of length l, reduced modulo 2 pi.

    With a convergent pair, beta = 2 pi q + theta_1 with theta_1 =
    2 pi / q^{1/4}, and the 2 pi p part of beta*l is subtracted as an exact
    integer before any trigonometry.
    """
    if pair is None:
        beta = mp.mpf(beta)
        return beta, beta, beta * length
    q = mp.mpf(pair.q)
    th1 = 2 * mp.pi / q ** mp.mpf("0.25")
    return 2 * mp.pi * q + th1, th1, 2 * mp.pi * (q * length - pair.p) + th1 * length


def _refuse_zero(beta):
    if not beta:
        raise CounterexampleError(
            "beta = 0: the forcing -sin(beta x) vanishes and its particular "
            "response -x cos(beta x)/(2 beta) is undefined"
        )


def circuit_solve(beta, l4, pair: ConvergentPair | None = None) -> CircuitProbe:
    """Solve the circuit boundary system for the edge coefficients.

    The system couples a_1..a_4, b_1..b_4 (with b_1 = b_2 = b_3) under
    forcing -sin(beta x) on edge 2; beta may instead be derived from a
    Dirichlet convergent pair as beta = 2 pi q + 2 pi q^{-1/4}, where q > 1:
    at q = 1, theta_1 = 2 pi makes b1 vanish and the scalar reduction divide
    by sin(theta_1) = 0.  Returns b1 together with the scalar-reduction
    coefficients and the consistency defect between the two solution paths.
    """
    if pair is not None and pair.q < 2:
        raise CounterexampleError(
            f"convergent {pair.p}/{pair.q}: circuit probes need q > 1")
    length = Length.parse(l4) if pair is not None else _irrational_length(l4)
    dps = _precision_for(pair.q if pair is not None else 1)
    with mp.workdps(dps):
        l4v = length.mpf()
        beta, th1, th4 = _probe_angles(beta, l4v, pair)
        _refuse_zero(beta)
        i = mp.mpc(0, 1)
        s, c = mp.sin(th1), mp.cos(th1)
        s4, c4 = mp.sin(th4), mp.cos(th4)
        E = mp.exp(-i * th1)

        # boundary and transmission conditions; unknowns (a1,b1,a2,a3,a4,b4)
        rows = [
            [s, c, 0, 0, 0, 0],
            [beta, i * beta, beta, beta, 0, 0],
            [0, c, s, 0, 0, -1],
            [0, beta * s, -beta * c, 0, beta, i * beta],
            [0, c, 0, s, -s4, -c4],
            [0, -i * beta * E, 0, beta * E, beta * c4, -beta * s4],
        ]
        rhs = [0, 1 / (2 * beta), c / (2 * beta), s / 2 - c / (2 * beta), 0, 0]
        try:
            b1 = _lu_solve(rows, rhs)[1]
        except ZeroDivisionError:
            raise CounterexampleError(
                f"boundary system singular at beta={beta}: resonance"
            ) from None

        # scalar reduction coefficients, re-derived by eliminating
        # (a1, b4, a4, a3) so that (F B + A G) beta b1 = A H - F C
        A = (1 + c4) * s + E * s4
        B = (2 - c4) * c + i * (E * s4 - s)
        C = s / (2 * beta) - (s / 2 + i * c / 2 - c / (2 * beta)) * s4 + c * c4 / 2
        F = E * (c4 - 1) - s * s4
        G = E * (c / s - 2 * i) - c * s4 - i * E * c4
        H = (
            -E / (2 * beta)
            - c * s4 / 2
            - s * c4 / 2
            + c * c4 / (2 * beta)
            - i * c * c4 / 2
        )
        b1_ec = (A * H - F * C) / ((F * B + A * G) * beta)
        rel = float(abs(b1_ec - b1) / abs(b1)) if b1 != 0 else mp.inf
        return CircuitProbe(
            beta=beta,
            l4=length,
            q=pair.q if pair is not None else None,
            b1=b1,
            coeffs={"A": A, "B": B, "C": C, "F": F, "G": G, "H": H},
            eqcir_rel_diff=rel,
        )


def asymptotic_defects(probe: CircuitProbe) -> dict:
    """Relative distance of A..H from their leading-order forms.

    The leading forms follow from the probe angles th1, th4 -> 0:
    A ~ 2 pi (2+l4) q^{-1/4}, B ~ 1, C ~ 1/2, F ~ -2 pi^2 l4 (l4+2) q^{-1/2},
    G ~ q^{1/4}/(2 pi) - 4i, H ~ -i/2.
    """
    if probe.q is None:
        raise CounterexampleError("asymptotics need a convergent probe")
    with mp.workdps(_precision_for(probe.q)):
        q = mp.mpf(probe.q)
        l4 = probe.l4.mpf()
        qq = q ** mp.mpf("0.25")
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
            k: float(abs(probe.coeffs[k] - leading[k]) / abs(leading[k]))
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
    ratios = [complex(pr.growth_ratio()) for pr in probes]
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


def _edge_energy(beta, a, Y, ell=1, trig=None):
    """int_0^ell (|y'|^2 + beta^2 |y|^2) dx for y = a sin(beta x) + Q cos(beta x).

    With constant Q = Y the integrand is the constant beta^2 (|a|^2 + |Y|^2).
    trig = (sin th, cos th), with th = beta modulo 2 pi, marks the unit
    forced edge, where Q = Y - x/(2 beta) adds the integrals over [0, 1] of
    x, x^2, cos^2(beta x), sin(beta x) cos(beta x) and x sin(beta x) cos(beta x).
    """
    b2 = beta**2
    total = b2 * (abs(a) ** 2 + abs(Y) ** 2) * ell
    if trig is None:
        return total
    s, c = trig
    s2, c2, ry = 2 * s * c, c * c - s * s, mp.re(Y)
    return (total - beta * ry / 2 + mp.mpf(1) / 12
            + (1 / (4 * b2) - mp.re(a)) * (mp.mpf(1) / 2 + s2 / (4 * beta))
            + ry * s * s / (2 * beta) - s2 / (16 * beta**3) + c2 / (8 * b2))


@dataclass
class StarProbe:
    beta: float
    norm_ratio: float  # ||z||_H / ||f||_H, a lower bound for the resolvent norm
    center_value: complex


def star_probe(beta, l3, pair: ConvergentPair | None = None) -> StarProbe:
    """Exact response of the three-edge star to forcing -sin(beta x) on a
    clamped edge; returns the norm amplification ||z|| / ||f||.

    Geometry: edges 1, 2 of unit length and edge 3 of length l3 joined at a
    center mass; edge 1 carries the absorbing end, edges 2 and 3 are clamped.
    A length l3 in pi * N is refused: i is then an eigenvalue on the axis.
    """
    length = Length.parse(l3)
    if length.pi_multiple() is not None:
        raise AxisEigenvalue(
            f"edge length {length.frac}*pi puts an eigenvalue at i on the axis", 1.0)
    dps = _precision_for(pair.q if pair is not None else 1)
    with mp.workdps(dps):
        l3v = length.mpf()
        i = mp.mpc(0, 1)
        beta, th, th3 = _probe_angles(beta, l3v, pair)
        _refuse_zero(beta)
        detune = 1 - beta**2
        if not detune:
            raise CounterexampleError(
                f"beta^2 = 1 at beta={beta}: the unit center oscillator resonates")
        s, c = mp.sin(th), mp.cos(th)
        s3, c3 = mp.sin(th3), mp.cos(th3)

        # unknowns (a1, a2, a3, Y): y^j = a_j sin(beta x) + Y cos(beta x),
        # edge 2 adds the particular response -x cos(beta x)/(2 beta)
        rows = [
            # absorbing end of edge 1: y'(1) = -i beta y(1)
            [beta * c + i * beta * s, 0, 0, -beta * s + i * beta * c],
            # clamped ends
            [0, s, 0, c],
            [0, 0, s3, c3],
            # center flux with the oscillator eliminated: sum d y' = q with
            # q = beta^2 Y / (1 - beta^2) and d = -1 at the center, so
            # sum_j y_j'(0) = -beta^2 Y / (1 - beta^2)
            [beta, beta, beta, beta**2 / detune],
        ]
        rhs = [0, c / (2 * beta), 0, 1 / (2 * beta)]
        try:
            a1, a2, a3, Y = _lu_solve(rows, rhs)
        except ZeroDivisionError:
            raise CounterexampleError(
                f"star system singular at beta={beta}: resonance"
            ) from None

        # H-norm of z = (y, v = i beta y, p, q): the edge energies plus
        # |p|^2 + |q|^2; edge 2 carries the particular part
        p_osc = -i * beta * Y / detune
        q_osc = i * beta * p_osc
        total = (_edge_energy(beta, a1, Y) + _edge_energy(beta, a2, Y, trig=(s, c))
                 + _edge_energy(beta, a3, Y, l3v)
                 + abs(p_osc) ** 2 + abs(q_osc) ** 2)
        # ||f||^2 = int_0^1 sin^2(beta x) dx, with sin 2 beta = 2 s c
        fnorm = mp.sqrt(mp.mpf(1) / 2 - s * c / (2 * beta))
        ratio = float(mp.sqrt(total) / fnorm)
        return StarProbe(
            beta=float(beta), norm_ratio=ratio, center_value=complex(Y))
