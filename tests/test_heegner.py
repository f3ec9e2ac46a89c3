import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from gelfond import HEEGNER_BASES, heegner_row, heegner_table
from gelfond.heegner import is_near_integer

# published 21-digit mantissas (truncated, not rounded): the true value lies
# in [mantissa, mantissa + one unit in the last printed digit) * 10^exponent
REFERENCE_DIGITS = {
    19: (Fraction("8.85479777680154319497"), 5),
    43: (Fraction("8.84736743999777466034"), 8),
    67: (Fraction("1.47197952743999998662"), 11),
    163: (Fraction("2.62537412640768743999"), 17),
}


def test_reference_integers():
    rows = heegner_table()
    assert [r.n for r in rows] == [19, 43, 67, 163]
    assert [r.reference for r in rows] == [
        96**3 + 744, 960**3 + 744, 5280**3 + 744, 640320**3 + 744,
    ]


def test_rounds_to_reference_exactly():
    for row in heegner_table():
        assert is_near_integer(row), row.n


def test_values_match_published_digits():
    for n, (mantissa, exponent) in REFERENCE_DIGITS.items():
        row = heegner_row(n)
        value = row.value.to_fraction()
        low = mantissa * Fraction(10) ** exponent
        high = low + Fraction(10) ** (exponent - 20)
        assert low <= value < high, (n, float(value))


def test_deviation_bands():
    dev = {row.n: float(row.deviation.to_fraction()) for row in heegner_table()}
    assert abs(dev[19] - 0.2223) <= 1e-3
    assert abs(dev[43] - 2.2e-4) <= 0.05 * 2.2e-4
    assert abs(dev[67] - 1.3e-6) <= 0.05 * 1.3e-6
    assert 3.75e-13 <= dev[163] <= 1.5e-12


def test_deviations_monotone_and_positive():
    devs = [row.deviation.to_fraction() for row in heegner_table()]
    assert all(d > 0 for d in devs)
    assert devs[0] > devs[1] > devs[2] > devs[3]


def test_binary64_cross_check():
    for n in HEEGNER_BASES:
        row = heegner_row(n)
        plain = math.exp(math.pi * math.sqrt(n))
        assert abs(row.value.hi - plain) <= 1e-13 * plain


def test_error_bound_brackets_the_resolution():
    for row in heegner_table():
        # bound is positive and, even for n=163, smaller than the deviation:
        # the printed gap is resolved, not noise
        assert 0.0 < row.error_bound < float(row.deviation.to_fraction())


def _decimal_arctan_inv(x):
    """arctan(1/x) for an integer x > 1 by its Taylor series, at the
    current decimal precision."""
    term = total = Decimal(1) / x
    k, x2 = 1, x * x
    while True:
        term /= -x2
        k += 2
        step = term / k
        if total + step == total:
            return total
        total += step


def test_error_bound_holds_against_decimal_oracle():
    # e^(pi sqrt n) at 60 digits, pi by Machin's formula; the dd value
    # hi + lo converts to Decimal exactly
    with localcontext() as ctx:
        ctx.prec = 60
        pi = 16 * _decimal_arctan_inv(5) - 4 * _decimal_arctan_inv(239)
        for row in heegner_table():
            true = (pi * Decimal(row.n).sqrt()).exp()
            error = abs(Decimal(row.value.hi) + Decimal(row.value.lo) - true)
            assert error <= Decimal(row.error_bound), (row.n, float(error), row.error_bound)


def test_rejects_other_indices():
    with pytest.raises(ValueError):
        heegner_row(11)
