"""The integer Levin kernel against an exact-Fraction reference.

The reference evaluates the same u-transform orders with every term, partial
sum and remainder estimate held as Fraction pairs, and rounds each order
once.  The integer kernel must give the very same binary64 values, so the
orders are compared by ``repr``.
"""

from fractions import Fraction
from itertools import islice
from math import comb

from gelfond import SeriesSpec, identities, series
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


def unit_windows(spec, count):
    """The first ``count`` windows of the ladder on a z = 1 series, each at
    the local beta = 1 and the global beta = offset + 1.  The terms are
    stepped with the ladder's operations in the ladder's order."""
    offsets = list(islice(series._offset_ladder(10**6), count))
    terms = [1.0 + 0.0j]
    for n in range(offsets[-1] + series._LEVIN_WINDOW - 1):
        num = 1.0 + 0.0j
        for a in spec.upper:
            num *= a + n
        den = (n + 1) + 0.0j
        for b in spec.lower:
            den *= b + n
        terms.append(terms[-1] * spec.argument * num / den)
    out = []
    for offset in offsets:
        win = terms[offset:offset + series._LEVIN_WINDOW]
        out += [(win, 1), (win, offset + 1)]
    return out


def test_registry_windows(monkeypatch):
    # every window the ladder evaluates in verify_all(), at each beta it uses
    windows = []
    kernel = series._levin_orders

    def recording(terms, beta):
        windows.append((list(terms), beta))
        return kernel(terms, beta)

    monkeypatch.setattr(series, "_levin_orders", recording)
    identities.verify_all()
    monkeypatch.undo()
    assert len(windows) >= 100
    assert {beta for _, beta in windows} != {1}
    # conjugate-pair upper parameters make every registry term real, so
    # these windows all take the kernel's real path
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
    # imaginary parts) take the kernel's real path and give orders with
    # both signs of the real denominator
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
    # a zero term leaves no orders, on either path
    for terms in ([1.0 + 0.0j, 0.5 + 0.5j, 0.0j, 0.25 + 0.0j],
                  [1.0 + 0.0j, complex(-0.5, -0.0), 0.0j, 0.25 + 0.0j]):
        assert series._levin_orders(terms, 1) is None
        windows.append((terms, 1))
    # order 1 is exactly 0 over a negative denominator: +0.0, not -0.0
    windows.append(([1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j], 1))
    assert_same_orders(windows)
