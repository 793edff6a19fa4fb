"""Exact stability predicate for the feedback chain with unequal masses.

For a chain of N strings with interior point masses m_2..m_N, damping at the
near end and a Dirichlet far end, an eigenvalue sits on the imaginary axis at
the resonance beta = 1/sqrt(m) of a mass value m exactly when a sine-product
determinant over the span between consecutive equal-mass nodes vanishes.  Two
evaluation routes are provided: brute-force enumeration of the closed form
(oracle) and a two-term recurrence (production path).  The tests cross-check
both against the direct determinant of the span boundary system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MASS_EQ_RTOL = 1e-12
DELTA_TOL = 1e-9
MAX_CLOSED_SPAN = 20


@dataclass(frozen=True)
class ChainSpec:
    """Edge lengths l_1..l_N and interior masses m_2..m_N (at nodes a_2..a_N)."""

    lengths: tuple
    masses: tuple

    def __post_init__(self):
        if len(self.lengths) < 1:
            raise ValueError("chain needs at least one edge")
        if len(self.masses) != len(self.lengths) - 1:
            raise ValueError("need one mass per interior node")
        if any(not 0 < l < math.inf for l in self.lengths):
            raise ValueError("length not positive and finite")
        if any(not 0 < m < math.inf for m in self.masses):
            raise ValueError("mass not positive and finite")

    @property
    def n_edges(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class MassGroup:
    """All interior nodes sharing one mass value, in ascending node order."""

    mass: float
    nodes: tuple  # node indices, a_i numbering (2..N)

    @property
    def beta(self) -> float:
        """Resonant frequency: m * beta^2 = 1."""
        return 1.0 / math.sqrt(self.mass)

    @property
    def k(self) -> int:
        return len(self.nodes)


def mass_groups(chain: ChainSpec) -> list[MassGroup]:
    """Group interior nodes by mass value (relative tolerance MASS_EQ_RTOL)."""
    groups: list[list] = []  # [mass, [nodes]]
    for node, m in enumerate(chain.masses, start=2):
        for g in groups:
            if math.isclose(g[0], m, rel_tol=MASS_EQ_RTOL, abs_tol=0.0):
                g[1].append(node)
                break
        else:
            groups.append([m, [node]])
    return [MassGroup(m, tuple(nodes)) for m, nodes in groups]


def _span(chain: ChainSpec, group: MassGroup, r: int):
    """Edges and couplings between node i_r and the next same-mass node.

    Returns (x, c): x[t] = beta*l for the span edges, c[t] = 1/(beta*(m_j - m))
    for the interior nodes strictly inside the span.  For the last group
    member the span runs to the Dirichlet far end.
    """
    if not 1 <= r <= group.k:
        raise ValueError(f"r must be in 1..{group.k}")
    lo = group.nodes[r - 1]
    hi = group.nodes[r] if r < group.k else chain.n_edges + 1
    beta = group.beta
    x = [beta * chain.lengths[j - 1] for j in range(lo, hi)]
    c = []
    for j in range(lo + 1, hi):
        mj = chain.masses[j - 2]
        dm = mj - group.mass
        assert dm != 0.0, "in-between node resonates with the group mass"
        c.append(1.0 / (beta * dm))
    return x, c


def delta_closed(group: MassGroup, r: int, chain: ChainSpec):
    """Span determinant by term-by-term enumeration of the closed form.

    With d span edges of angles x_0..x_{d-1} and couplings c_1..c_{d-1} at
    the interior break nodes,

        Delta = sum over break subsets S of (-1)^(d+1-|S|)
                * prod_{b in S} c_b * prod_{segments} sin(sum of x in segment)

    where the breaks in S split the edge sequence into consecutive segments.
    Exponential in the span length; serves as the oracle for the recurrence.
    """
    x, c = _span(chain, group, r)
    d = len(x)
    if d > MAX_CLOSED_SPAN:
        raise ValueError(f"span of {d} edges exceeds closed-form cap {MAX_CLOSED_SPAN}")
    return _delta_enumerate(x, c)


def _segments(breaks, d):
    bounds = [0, *breaks, d]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def _delta_enumerate(x, c):
    d = len(x)
    total = 0.0
    for mask in range(1 << (d - 1)) if d > 1 else [0]:
        breaks = [b + 1 for b in range(d - 1) if mask >> b & 1]
        term = (-1.0) ** (d + 1 - len(breaks))
        for b in breaks:
            term *= c[b - 1]
        for lo, hi in _segments(breaks, d):
            term *= math.sin(sum(x[lo:hi]))
        total += term
    return total


def delta_recurrence(x, c):
    """(Delta, M) by the two-term recurrence.

    x lists the span angles x_2..x_N (N-1 values) and c the couplings
    c_3..c_N (N-2 values).  Seeded by Delta_2 = sin x_2, M_2 = -cos x_2 and

        Delta_n = (-cos x_n + c_n sin x_n) Delta_{n-1} + sin x_n * M_{n-1}
        M_n     = (-sin x_n - c_n cos x_n) Delta_{n-1} - cos x_n * M_{n-1}.
    """
    if len(x) < 1:
        raise ValueError("need at least one angle")
    if len(c) != len(x) - 1:
        raise ValueError("need one coupling per interior node")
    delta, mm = math.sin(x[0]), -math.cos(x[0])
    for xn, cn in zip(x[1:], c):
        sn, cs = math.sin(xn), math.cos(xn)
        delta, mm = (
            (-cs + cn * sn) * delta + sn * mm,
            (-sn - cn * cs) * delta - cs * mm,
        )
    return delta, mm


@dataclass(frozen=True)
class ChainVerdict:
    stable: bool
    witnesses: tuple  # (mass, r, delta) triples with |delta| <= tol
    deltas: tuple  # (mass, r, delta) for every group member
    tol: float


def chain_stable(chain: ChainSpec) -> ChainVerdict:
    """Exponential-stability predicate: every span determinant away from zero.

    Stable iff |Delta_{r(m)}| > DELTA_TOL for every mass value m and every group
    member r, each evaluated at the resonance beta = 1/sqrt(m).
    """
    witnesses = []
    deltas = []
    for group in mass_groups(chain):
        for r in range(1, group.k + 1):
            x, c = _span(chain, group, r)
            delta, _ = delta_recurrence(x, c)
            deltas.append((group.mass, r, delta))
            if abs(delta) <= DELTA_TOL:
                witnesses.append((group.mass, r, delta))
    return ChainVerdict(not witnesses, tuple(witnesses), tuple(deltas), DELTA_TOL)
