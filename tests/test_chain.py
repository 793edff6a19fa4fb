import math

import numpy as np
import pytest

from netwave.chaincrit import (
    ChainSpec,
    _delta_enumerate,
    _segments,
    chain_stable,
    delta_closed,
    delta_recurrence,
    mass_groups,
)

# the low-order span determinants written out explicitly, as an independent
# oracle for the recurrence (x are the span angles, c the couplings)


def delta2(x, c):
    return math.sin(x[0])


def delta3(x, c):
    return -math.sin(x[0] + x[1]) + c[0] * math.sin(x[0]) * math.sin(x[1])


def delta4(x, c):
    return (
        math.sin(x[0] + x[1] + x[2])
        - c[0] * math.sin(x[0]) * math.sin(x[1] + x[2])
        - c[1] * math.sin(x[0] + x[1]) * math.sin(x[2])
        + c[0] * c[1] * math.sin(x[0]) * math.sin(x[1]) * math.sin(x[2])
    )


def m2(x, c):
    return -math.cos(x[0])


def m3(x, c):
    return math.cos(x[0] + x[1]) - c[0] * math.sin(x[0]) * math.cos(x[1])


def m4(x, c):
    return (
        -math.cos(x[0] + x[1] + x[2])
        + c[0] * math.sin(x[0]) * math.cos(x[1] + x[2])
        + c[1] * math.sin(x[0] + x[1]) * math.cos(x[2])
        - c[0] * c[1] * math.sin(x[0]) * math.sin(x[1]) * math.cos(x[2])
    )


def _m_enumerate(x, c):
    """The companion determinant M by enumeration of its closed form: like
    Delta, with a cosine in the last segment and the opposite sign."""
    d = len(x)
    total = 0.0
    for mask in range(1 << (d - 1)) if d > 1 else [0]:
        breaks = [b + 1 for b in range(d - 1) if mask >> b & 1]
        term = (-1.0) ** (d - len(breaks))
        for b in breaks:
            term *= c[b - 1]
        segs = _segments(breaks, d)
        for lo, hi in segs[:-1]:
            term *= math.sin(sum(x[lo:hi]))
        lo, hi = segs[-1]
        term *= math.cos(sum(x[lo:hi]))
        total += term
    return total


def span_system_matrix(x, c) -> np.ndarray:
    """Boundary-system matrix of the span, unknowns (alpha_j, gamma_j) per edge.

    Fields are y = alpha*cos(beta x) + gamma*sin(beta x); rows impose y = 0 at
    the span ends, continuity at interior nodes and the flux jump through the
    non-resonant masses.  Its determinant equals the recurrence Delta up to
    assembly sign: an independent numeric oracle.
    """
    d = len(x)
    n = 2 * d
    mat = np.zeros((n, n))
    mat[0, 0] = 1.0  # y(0) = 0 on the first span edge
    row = 1
    for t in range(d - 1):
        a, g = 2 * t, 2 * t + 1
        an, gn = a + 2, g + 2
        mat[row, a] = math.cos(x[t])
        mat[row, g] = math.sin(x[t])
        mat[row, an] = -1.0  # continuity: y_t(l_t) = y_{t+1}(0)
        row += 1
        # flux jump: y'_{t+1}(0) - y'_t(l_t) = i*beta*p with p eliminated
        mat[row, a] = math.sin(x[t])
        mat[row, g] = -math.cos(x[t])
        mat[row, an] = c[t]
        mat[row, gn] = 1.0
        row += 1
    a, g = 2 * (d - 1), 2 * (d - 1) + 1
    mat[row, a] = math.cos(x[-1])
    mat[row, g] = math.sin(x[-1])  # y(l) = 0 at the far span end
    return mat


def random_span(rng, d):
    x = rng.uniform(0.3, 3.0, d).tolist()
    c = rng.uniform(-2.0, 2.0, d - 1).tolist()
    return x, c


def test_low_order_forms_match_recurrence():
    rng = np.random.default_rng(7)
    forms = {1: (delta2, m2), 2: (delta3, m3), 3: (delta4, m4)}
    for d, (fd, fm) in forms.items():
        for _ in range(100):
            x, c = random_span(rng, d)
            delta, mm = delta_recurrence(x, c)
            assert abs(delta - fd(x, c)) <= 1e-12
            assert abs(mm - fm(x, c)) <= 1e-12


def test_recurrence_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(1, 8))  # chains with N <= 8 edges
        x, c = random_span(rng, d)
        delta, mm = delta_recurrence(x, c)
        assert abs(delta - _delta_enumerate(x, c)) <= 1e-12
        assert abs(mm - _m_enumerate(x, c)) <= 1e-12


def test_recurrence_matches_span_determinant():
    rng = np.random.default_rng(13)
    for _ in range(300):
        d = int(rng.integers(1, 7))
        x, c = random_span(rng, d)
        delta, _ = delta_recurrence(x, c)
        det = np.linalg.det(span_system_matrix(x, c))
        # the assembly orientation flips sign with the span parity
        assert abs(abs(det) - abs(delta)) <= 1e-11 * max(1.0, abs(delta))


def test_delta_closed_agrees_with_recurrence_on_chains():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        lengths = tuple(rng.uniform(0.4, 2.0, n).tolist())
        masses = tuple(rng.uniform(0.5, 3.0, n - 1).tolist())
        chain = ChainSpec(lengths, masses)
        for group in mass_groups(chain):
            for r in range(1, group.k + 1):
                from netwave.chaincrit import _span

                x, c = _span(chain, group, r)
                delta, _ = delta_recurrence(x, c)
                assert abs(delta - delta_closed(group, r, chain)) <= 1e-12


def test_single_mass_shortcut():
    # one interior mass: the span determinant is sin(beta * l_2) alone
    chain = ChainSpec((1.0, 1.3), (0.25,))
    group = mass_groups(chain)[0]
    assert group.beta == 2.0
    delta = delta_closed(group, 1, chain)
    assert abs(delta - math.sin(2.0 * 1.3)) <= 1e-14


def test_mass_groups_split_and_order():
    chain = ChainSpec((1.0,) * 5, (2.0, 1.0, 2.0, 3.0))
    groups = mass_groups(chain)
    assert [g.mass for g in groups] == [2.0, 1.0, 3.0]
    assert groups[0].nodes == (2, 4)


def test_chain_stable_generic_lengths():
    verdict = chain_stable(ChainSpec((1.0, 0.9), (1.0,)))
    assert verdict.stable
    assert verdict.witnesses == ()


def test_chain_unstable_at_resonant_length():
    # with m = 1 the resonance is beta = 1 and a span edge of length pi
    # zeroes the determinant
    verdict = chain_stable(ChainSpec((1.0, math.pi), (1.0,)))
    assert not verdict.stable
    assert len(verdict.witnesses) == 1


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec((1.0,), (1.0,))
    with pytest.raises(ValueError):
        ChainSpec((1.0, -1.0), (1.0,))
    with pytest.raises(ValueError):
        ChainSpec((1.0, 1.0), (0.0,))
