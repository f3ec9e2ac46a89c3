"""tests/reference_pfq.py against closed forms evaluated in decimal: the
reference must lie within its own bound of each, and reach its target."""

import cmath
from decimal import Decimal, localcontext

import pytest

from reference_pfq import distance, reference_pfq


def _log_series(z: float) -> Decimal:
    # -ln(1 - z) / z = 2F1(1, 1; 2; z)
    return -(1 - Decimal(z)).ln() / Decimal(z)


def _power(a: float, z: float) -> Decimal:
    # (1 - z)^(-a) = 1F0(a;; z)
    return (1 - Decimal(z)) ** -Decimal(a)


def _cosh_root(x: float) -> Decimal:
    # cosh(2 sqrt x) = 0F1(; 1/2; x)
    e = (2 * Decimal(x).sqrt()).exp()
    return (e + 1 / e) / 2


@pytest.mark.parametrize("upper, lower, z, exact, digits", [
    ((1.0, 1.0), (2.0,), 0.5, lambda: _log_series(0.5), 40),
    # the ratio approaches 0.995 from above: a cap at 0.99 stops too early
    ((1.0, 1.0), (2.0,), 0.995, lambda: _log_series(0.995), 40),
    ((1.5,), (), 0.99, lambda: _power(1.5, 0.99), 40),
    ((), (0.5,), 2.4674011002723395, lambda: _cosh_root(2.4674011002723395), 40),
    # e^-30 from terms up to 8e11: 20 digits leave nothing, so only the
    # rounding term sends the sum back for more digits
    ((), (), -30.0, lambda: Decimal(-30.0).exp(), 20),
], ids=["log-0.5", "log-0.995", "power-0.99", "cosh-pi", "exp-cancelling"])
def test_reference_within_its_bound(upper, lower, z, exact, digits):
    value, bound = reference_pfq(upper, lower, z, digits=digits)
    with localcontext() as ctx:
        ctx.prec = 60
        reference = exact()
        assert value[1] == 0
        assert abs(value[0] - reference) <= bound
        assert bound <= Decimal("1e-22") * abs(reference)


@pytest.mark.parametrize("upper, lower, z, exact", [
    ((0.3 + 1.1j,), (), 0.6 - 0.7j, lambda: (1 - (0.6 - 0.7j)) ** -(0.3 + 1.1j)),
    ((), (), -4.0 + 9.0j, lambda: cmath.exp(-4.0 + 9.0j)),
    ((0.5 + 1j, -0.5 - 1j), (0.5,), 0.3,
     lambda: cmath.cos(2 * (0.5 + 1j) * cmath.asin(0.3 ** 0.5))),
])
def test_reference_complex_against_cmath(upper, lower, z, exact):
    # complex closed forms in binary64: the reference is the sharper side
    value, bound = reference_pfq(upper, lower, z)
    assert bound <= 1e-22 * abs(exact())
    assert distance(exact(), value) <= 1e-14 * abs(exact())
