"""The integer Levin kernel against an exact-Fraction reference.

The reference evaluates the same u-transform orders with every term, partial
sum and remainder estimate held as Fraction pairs, and rounds each order
once.  The integer kernel must give the very same binary64 values, so the
orders are compared by ``repr``.
"""

from fractions import Fraction
from math import comb

import pytest

from gelfond import RangeError, SeriesSpec, identities, series
from conftest import random_complex


def fraction_levin_orders(terms, beta):
    """u-transform orders 1..LEVIN_MAX_ORDER of a term window in exact
    rational arithmetic, complex terms as (real, imaginary) Fraction pairs."""
    re = [Fraction(t.real) for t in terms]
    im = [Fraction(t.imag) for t in terms]
    if any(r == 0 and i == 0 for r, i in zip(re, im)):
        return None
    ratio, recip = [], []
    sr = si = Fraction(0)
    for j, (r, i) in enumerate(zip(re, im)):
        sr += r
        si += i
        wr, wi = (beta + j) * r, (beta + j) * i
        norm = wr * wr + wi * wi
        # 1/omega and S/omega via multiplication by conj(omega)/|omega|^2
        recip.append((wr / norm, -wi / norm))
        ratio.append(((sr * wr + si * wi) / norm, (si * wr - sr * wi) / norm))
    out = []
    for k in range(1, min(series.LEVIN_MAX_ORDER, len(terms) - 1) + 1):
        nr = ni = dr = di = Fraction(0)
        for j in range(k + 1):
            w = (-1) ** j * comb(k, j) * (beta + j) ** (k - 1)
            nr += w * ratio[j][0]
            ni += w * ratio[j][1]
            dr += w * recip[j][0]
            di += w * recip[j][1]
        norm = dr * dr + di * di
        if norm == 0:
            continue
        out.append(complex(float((nr * dr + ni * di) / norm),
                           float((ni * dr - nr * di) / norm)))
    return out if out else None


def assert_same_orders(windows):
    for terms, beta in windows:
        expected = fraction_levin_orders(terms, beta)
        assert repr(series._levin_orders(terms, beta)) == repr(expected), (terms, beta)


# 21-term windows at the base offsets of the Levin window ladder, dense
# first and then geometric: the windows the kernel was tuned on
WINDOW = 21


def ladder_offsets(count):
    offsets = [0]
    while len(offsets) < count:
        m = offsets[-1]
        offsets.append(m + 1 if m < 4 else int(m * 1.45) + 2)
    return offsets


def unit_windows(spec, count):
    """The first ``count`` ladder windows of a z = 1 series, each at the
    local beta = 1 and the global beta = offset + 1, with the terms stepped
    by the pFq recurrence in complex arithmetic."""
    offsets = ladder_offsets(count)
    terms = [1.0 + 0.0j]
    for n in range(offsets[-1] + WINDOW - 1):
        num = 1.0 + 0.0j
        for a in spec.upper:
            num *= a + n
        den = (n + 1) + 0.0j
        for b in spec.lower:
            den *= b + n
        terms.append(terms[-1] * spec.argument * num / den)
    out = []
    for offset in offsets:
        win = terms[offset:offset + WINDOW]
        out += [(win, 1), (win, offset + 1)]
    return out


def test_registry_windows():
    # ladder windows of every convergent z = 1 series of the registry, at
    # both betas
    specs = {spec for case in identities.registry() for spec, _ in case.lhs_plan or ()
             if spec.argument == 1 and spec.truncation_degree() is None
             and spec.convergence_parameter() > 0}
    windows = [w for spec in specs for w in unit_windows(spec, 2)]
    assert len(windows) >= 100
    assert {beta for _, beta in windows} != {1}
    # conjugate-pair upper parameters make every registry term real
    assert all(t.imag == 0.0 for terms, _ in windows for t in terms)
    assert_same_orders(windows)


def test_complex_gauss_windows(rng):
    windows = []
    for _ in range(9):
        a = complex(rng.uniform(0.1, 0.6), rng.uniform(-2.5, 2.5))
        b = rng.uniform(0.05, 0.6)
        c = a.real + b + rng.uniform(1.0, 3.0)
        windows += unit_windows(SeriesSpec((a, b), (c,), 1.0), 4)
    windows += unit_windows(SeriesSpec((0.3 + 2j, 0.1), (3,), 1.0), 6)
    assert len(windows) >= 80
    assert all(any(t.imag != 0.0 for t in terms) for terms, _ in windows)
    assert_same_orders(windows)


def test_random_windows(rng):
    # sizes up to 40 run past LEVIN_MAX_ORDER + 1 terms, so every cached
    # weight row is used and terms beyond the last order only enter the
    # products; the all-real windows (a quarter, with +0.0 and -0.0
    # imaginary parts) give orders with both signs of the real denominator
    windows = []
    for n in range(64):
        size = rng.randint(3, 40)
        terms = [random_complex(rng) * 10.0 ** rng.uniform(-12, 4) for _ in range(size)]
        if n % 2:
            terms = [complex(t.real, rng.choice((0.0, -0.0))) if rng.random() < 0.5 else t
                     for t in terms]
        if n % 4 == 1:
            terms = [complex(t.real, rng.choice((0.0, -0.0))) for t in terms]
        windows.append((terms, rng.randint(1, 60)))
    assert sum(len(terms) > series.LEVIN_MAX_ORDER + 1 for terms, _ in windows) >= 20
    real = [all(t.imag == 0.0 for t in terms) for terms, _ in windows]
    assert real.count(True) >= 16 and real.count(False) >= 16
    # order 1 is exactly 0 over a negative denominator: +0.0, not -0.0
    windows.append(([1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j], 1))
    assert_same_orders(windows)


def test_order_beyond_binary64_is_range_error():
    # terms near the top of the binary64 range give orders above it; the
    # int / int rounding of such an order must not leak an OverflowError
    real = [complex(1e307 * (1 + 0.01 * j) ** -2) for j in range(21)]
    skew = [t * (1 + 1j) for t in real]
    for terms in (real, skew):
        with pytest.raises(RangeError):
            series._levin_orders(terms, 1)
        with pytest.raises(RangeError):
            series.levin_accelerate(terms)


def reference_pick_transform(values):
    """_pick_transform as it stood with both differences of each order
    formed in the loop; the kernel's selection must match it bit for bit."""
    if len(values) < 3:
        return None
    best = None
    for k in range(2, len(values)):
        score = max(abs(values[k] - values[k - 1]), abs(values[k - 1] - values[k - 2]))
        if best is None or score < best[0]:
            best = (score, values[k])
    return best[1], best[0]


def test_pick_transform_matches_reference(rng):
    # repeated values give equal scores, where the first order must win,
    # and +-1e308 entries give infinite differences and scores
    for n in range(4000):
        values = []
        for _ in range(rng.randint(3, 20)):
            draw = rng.random()
            if draw < 0.25 and values:
                values.append(rng.choice(values))
            elif draw < 0.35:
                values.append(complex(rng.choice((1e308, -1e308)),
                                      rng.choice((0.0, -0.0, 1e308)) if n % 2 else 0.0))
            elif n % 2:
                values.append(random_complex(rng))
            else:
                values.append(complex(rng.uniform(-2.0, 2.0)))
        assert repr(series._pick_transform(values)) == \
            repr(reference_pick_transform(values)), values
    assert series._pick_transform([1.0 + 0.0j, 2.0 + 0.0j]) is None
