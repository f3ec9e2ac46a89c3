import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from gelfond import DDReal, DomainError, RangeError, ddreal, heegner_table
from gelfond.ddreal import (
    dd_add,
    dd_exp,
    dd_mul,
    dd_pi,
    dd_round,
    dd_sqrt,
    dd_sub,
    dd_to_decimal,
    quick_two_sum,
    two_prod,
    two_sum,
)

# 32-digit references, cross-checked against an independent high-precision
# source before pinning
PI_32 = Fraction("3.1415926535897932384626433832795")
E_32 = Fraction("2.71828182845904523536028747135266")
ZETA2_32 = Fraction("1.64493406684822643647241516664603")

DD_OP_BOUND = Fraction(4) / Fraction(2) ** 106


def _frac(x: DDReal) -> Fraction:
    return x.to_fraction()


def _rel(err: Fraction, reference: Fraction) -> Fraction:
    return abs(err) / abs(reference)


# ----------------------------------------------------------------------
# error-free transformations (exact rational checks)
# ----------------------------------------------------------------------

def test_two_sum_exact_on_100k_pairs(rng):
    for _ in range(100_000):
        a = rng.uniform(-1e10, 1e10) * 10.0 ** rng.randint(-8, 8)
        b = rng.uniform(-1e10, 1e10) * 10.0 ** rng.randint(-8, 8)
        s, e = two_sum(a, b)
        assert Fraction(a) + Fraction(b) == Fraction(s) + Fraction(e)


def test_two_prod_exact(rng):
    for _ in range(20_000):
        a = rng.uniform(-1e6, 1e6)
        b = rng.uniform(-1e6, 1e6)
        p, e = two_prod(a, b)
        assert Fraction(a) * Fraction(b) == Fraction(p) + Fraction(e)


def test_quick_two_sum_requires_ordered_magnitudes(rng):
    for _ in range(10_000):
        a = rng.uniform(-1e8, 1e8)
        b = rng.uniform(-1.0, 1.0)
        if abs(a) < abs(b):
            a, b = b, a
        s, e = quick_two_sum(a, b)
        assert Fraction(a) + Fraction(b) == Fraction(s) + Fraction(e)


# ----------------------------------------------------------------------
# arithmetic: normalization and per-operation error bounds
# ----------------------------------------------------------------------

def _normalized(x: DDReal) -> bool:
    if x.hi == 0.0:
        return x.lo == 0.0
    return abs(x.lo) <= 0.5 * math.ulp(x.hi)


def _random_dd(rng) -> DDReal:
    hi = rng.uniform(-1e3, 1e3)
    return DDReal(hi, rng.uniform(-1, 1) * 0.4 * math.ulp(hi))


def test_add_mul_error_bounds(rng):
    for _ in range(1000):
        x, y = _random_dd(rng), _random_dd(rng)
        fx, fy = _frac(x), _frac(y)
        s = dd_add(x, y)
        assert _normalized(s)
        if fx + fy != 0:
            assert _rel(_frac(s) - (fx + fy), fx + fy) <= DD_OP_BOUND
        p = dd_mul(x, y)
        assert _normalized(p)
        if fx * fy != 0:
            assert _rel(_frac(p) - fx * fy, fx * fy) <= DD_OP_BOUND


def test_sqrt_error_bound(rng):
    for _ in range(1000):
        x = DDReal(rng.uniform(1e-6, 1e6))
        r = dd_sqrt(x)
        assert _normalized(r)
        # compare squared result against the radicand, all in exact rationals
        err = _frac(r) ** 2 - _frac(x)
        assert _rel(err, _frac(x)) <= 3 * DD_OP_BOUND


def test_exactly_representable_pair():
    x = dd_add(DDReal(1.0), DDReal(2.0**-60))
    assert (x.hi, x.lo) == (1.0, 2.0**-60)


def test_sqrt2_squared():
    r = dd_sqrt(DDReal(2.0))
    err = _frac(dd_mul(r, r)) - 2
    assert abs(err) <= Fraction(2, 10**30)


def test_sqrt_domain():
    with pytest.raises(DomainError):
        dd_sqrt(DDReal(-1.0))
    assert dd_sqrt(DDReal(0.0)).hi == 0.0


@pytest.mark.parametrize("x", [DDReal(math.nan), DDReal(math.inf),
                               DDReal(1.0, math.nan), DDReal(-math.inf)])
def test_sqrt_rejects_non_finite(x):
    with pytest.raises(RangeError):
        dd_sqrt(x)


def test_sqrt_of_a_zero_hi_is_the_root_of_lo():
    x = DDReal(0.0, 1e-20)
    r = dd_sqrt(x)
    assert _normalized(r)
    assert _rel(_frac(r) ** 2 - _frac(x), _frac(x)) <= 3 * DD_OP_BOUND
    with pytest.raises(DomainError):
        dd_sqrt(DDReal(0.0, -1e-20))


@pytest.mark.parametrize("value", [2**1024, -(2**1024), 2**4000],
                         ids=["2^1024", "-2^1024", "2^4000"])
def test_from_int_beyond_binary64_is_range_error(value):
    with pytest.raises(RangeError):
        DDReal.from_int(value)


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------

def test_dd_pi_digits():
    assert dd_pi().hi == math.pi
    assert _rel(_frac(dd_pi()) - PI_32, PI_32) <= Fraction(1, 10**31)


def test_dd_pi_squared_over_six_matches_zeta2():
    probe = dd_mul(dd_pi(), dd_pi())
    assert _rel(_frac(probe) - 6 * ZETA2_32, 6 * ZETA2_32) <= Fraction(1, 10**30)


# ----------------------------------------------------------------------
# exponential
# ----------------------------------------------------------------------

def test_exp_zero_is_exact():
    r = dd_exp(DDReal(0.0))
    assert (r.hi, r.lo) == (1.0, 0.0)


def test_exp_one_digits():
    r = dd_exp(DDReal(1.0))
    assert _rel(_frac(r) - E_32, E_32) <= Fraction(1, 10**30)


@pytest.mark.parametrize("x", [0.3, 5.0, 40.1])
def test_exp_reciprocal_identity(x):
    product = dd_mul(dd_exp(DDReal(x)), dd_exp(DDReal(-x)))
    assert abs(_frac(product) - 1) <= Fraction(1, 10**29)


def test_exp_additivity(rng):
    for _ in range(60):
        a = rng.uniform(-20.0, 20.0)
        b = rng.uniform(-20.0, 20.0)
        lhs = dd_exp(dd_add(DDReal(a), DDReal(b)))
        rhs = dd_mul(dd_exp(DDReal(a)), dd_exp(DDReal(b)))
        assert _rel(_frac(lhs) - _frac(rhs), _frac(rhs)) <= Fraction(1, 10**28)


def test_exp_range_limit():
    with pytest.raises(RangeError):
        dd_exp(DDReal(701.0))
    dd_exp(DDReal(699.9))
    # the limit holds for hi + lo, not for hi alone
    for x in (DDReal(1.0, 800.0), DDReal(700.0, 1.0)):
        with pytest.raises(RangeError):
            dd_exp(x)


@pytest.mark.parametrize("x", [DDReal(1.0, math.nan), DDReal(1.0, math.inf),
                               DDReal(0.0, -math.inf), DDReal(math.nan),
                               DDReal(-math.inf)])
def test_exp_rejects_non_finite_parts(x):
    with pytest.raises(RangeError):
        dd_exp(x)


def test_exp_reduces_by_the_value_of_an_unnormalised_argument():
    # all of x in the low part: k comes from hi + lo = 40, not from hi = 0
    r = dd_exp(DDReal(0.0, 40.0))
    with localcontext() as ctx:
        ctx.prec = 60
        ref = Decimal(40).exp()
        err = abs((Decimal(r.hi) + Decimal(r.lo) - ref) / ref)
    assert err <= Decimal("1e-30"), err


@pytest.mark.parametrize("x", [DDReal(0.0, 0.34), DDReal(0.2, 0.1)])
def test_exp_normalises_an_unnormalised_argument_at_k_zero(x):
    # |x| < ln2/2, so k = 0 and x itself would be the Taylor argument; its
    # lo at or above ulp(hi) must not cost the sum its second double
    r = dd_exp(x)
    with localcontext() as ctx:
        ctx.prec = 60
        ref = (Decimal(x.hi) + Decimal(x.lo)).exp()
        err = abs((Decimal(r.hi) + Decimal(r.lo) - ref) / ref)
    assert err <= Decimal("1e-30"), err


def test_exp_of_parts_that_cancel_is_one():
    # hi + lo = 0 exactly; the parts themselves are far outside the range
    r = dd_exp(DDReal(1e308, -1e308))
    assert repr((r.hi, r.lo)) == repr((1.0, 0.0))


def _reference_exp(x: DDReal) -> DDReal:
    """dd_exp as it stood with its Taylor loop on DDReal values, through
    dd_mul and dd_add; dd_exp must give these very bits."""
    k = round(x.hi / ddreal._LN2_P1)
    r = dd_sub(x, DDReal(k * ddreal._LN2_P1))
    r = dd_sub(r, DDReal(k * ddreal._LN2_P2))
    p, e = two_prod(float(k), ddreal._LN2_P3)
    r = dd_sub(r, DDReal(p, e))
    total = power = DDReal(1.0)
    for hi, lo, _, _ in ddreal._INV_FACTORIAL_PARTS:
        power = dd_mul(power, r)
        total = dd_add(total, dd_mul(power, DDReal(hi, lo)))
    return DDReal(math.ldexp(total.hi, k), math.ldexp(total.lo, k))


def test_exp_matches_reference_loop_bit_for_bit(rng):
    # repr tells -0.0 from 0.0, so every bit of both parts is compared
    values = [DDReal(0.0), DDReal(-0.0), DDReal(700.0), DDReal(-700.0)]
    values += [dd_mul(dd_pi(), dd_sqrt(DDReal.from_int(n))) for n in (19, 43, 67, 163)]
    half_ln2 = math.log(2.0) / 2
    for n in range(20_000):
        hi = rng.uniform(-half_ln2, half_ln2) if n % 2 else rng.uniform(-700.0, 700.0)
        values.append(DDReal(hi, hi * rng.uniform(-1e-16, 1e-16)))
    for x in values:
        got, want = dd_exp(x), _reference_exp(x)
        assert repr((got.hi, got.lo)) == repr((want.hi, want.lo)), x


def test_exp_against_binary64_for_moderate_args(rng):
    for _ in range(50):
        x = rng.uniform(-40.0, 40.0)
        assert abs(float(dd_exp(DDReal(x))) - math.exp(x)) \
            <= 4e-16 * math.exp(x)


def test_exp_against_decimal_oracle(rng):
    # e^x at 60 digits from stdlib decimal; the Taylor sum over tabulated
    # 1/k! measured at most ~4.1 * 2^-106 relative over 2,000 such draws
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(300):
            x = rng.uniform(-300.0, 300.0)
            r = dd_exp(DDReal(x))
            ref = Decimal(x).exp()
            err = abs((Decimal(r.hi) + Decimal(r.lo) - ref) / ref)
            assert err <= Decimal(8) * Decimal(2) ** -106, x


# ----------------------------------------------------------------------
# rounding and formatting
# ----------------------------------------------------------------------

def test_dd_round():
    assert dd_round(DDReal(2.0, -1e-20)) == 2
    assert dd_round(dd_sub(DDReal(1e17), DDReal(0.4))) == 10**17
    assert dd_round(dd_sub(DDReal(1e17), DDReal(0.6))) == 10**17 - 1


@pytest.mark.parametrize("x, nearest", [
    (DDReal(2.5, 1e-20), 3),
    (DDReal(1.5, -1e-20), 1),
    (DDReal(-2.5, -1e-20), -3),
    (DDReal(2.5), 2),           # an exact tie goes to even
])
def test_dd_round_near_ties_follow_lo(x, nearest):
    assert dd_round(x) == nearest


@pytest.mark.parametrize("x", [DDReal(math.inf), DDReal(math.nan),
                               DDReal(1.0, -math.inf)])
def test_dd_round_rejects_non_finite(x):
    with pytest.raises(RangeError):
        dd_round(x)


@functools.cache
def _scientific(frac: Fraction) -> tuple[Fraction, int]:
    """(m, e) with frac = m * 10**e and 1 <= m < 10, for frac > 0."""
    exponent = 0
    while frac >= 10:
        frac /= 10
        exponent += 1
    while frac < 1:
        frac *= 10
        exponent -= 1
    return frac, exponent


def _decimal_reference(x: DDReal, digits: int) -> str:
    """dd_to_decimal by exact Fraction digit extraction, ties away from 0."""
    frac = x.to_fraction()
    if frac == 0:
        return "0." + "0" * (digits - 1) + "e+0"
    sign = "-" if frac < 0 else ""
    frac, exponent = _scientific(abs(frac))
    scaled = frac * Fraction(10) ** (digits - 1)
    mantissa = int(scaled)
    if scaled - mantissa >= Fraction(1, 2):
        mantissa += 1
        if mantissa >= 10 ** digits:
            mantissa //= 10
            exponent += 1
    text = str(mantissa)
    return f"{sign}{text[0]}.{text[1:]}e{exponent:+d}"


def test_dd_to_decimal_matches_exact_reference(rng):
    values = [DDReal(0.0), DDReal(-0.0), DDReal(9.9999), DDReal(-9.9999),
              DDReal(5e-183), DDReal(1e17, 0.5), DDReal(-1e17, -0.5)]
    values += [DDReal(k + 0.5) for k in range(-3, 3)]       # exact ties
    for row in heegner_table():
        values += [row.value, row.deviation]
    for _ in range(600):
        hi = rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 300)
        values.append(DDReal(*two_sum(rng.choice((1, -1)) * hi,
                                      rng.uniform(-0.5, 0.5) * math.ulp(hi))))
    for x in values:
        for digits in (1, 3, 12, 31, rng.randint(1, 40)):
            assert dd_to_decimal(x, digits) == _decimal_reference(x, digits), \
                (x, digits)


def test_dd_to_decimal_roundtrip():
    # pi's 32nd digit is 5, so the 31-digit mantissa rounds up to ...280
    assert dd_to_decimal(dd_pi(), 31) == "3.141592653589793238462643383280e+0"
    assert dd_to_decimal(DDReal(0.0)).startswith("0.")
    assert dd_to_decimal(DDReal(-2.0), 5) == "-2.0000e+0"


def test_dd_to_decimal_round_up_carries_into_exponent():
    assert dd_to_decimal(DDReal(9.9999), 3) == "1.00e+1"


@pytest.mark.parametrize("digits", [0, -3])
def test_dd_to_decimal_rejects_fewer_than_one_digit(digits):
    with pytest.raises(ValueError, match="digits must be >= 1"):
        dd_to_decimal(DDReal(5.0), digits)


@pytest.mark.parametrize("x", [DDReal(math.inf), DDReal(1.0, math.nan)])
def test_dd_to_decimal_rejects_non_finite(x):
    with pytest.raises(RangeError, match="non-finite"):
        dd_to_decimal(x)
