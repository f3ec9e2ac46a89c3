"""Double-double arithmetic for the Heegner table: unevaluated sums of two
binary64 values.

A DDReal(hi, lo) represents hi + lo with |lo| <= ulp(hi)/2, giving about
31-32 significant decimal digits.  The primitives are the classical
error-free transformations (Knuth two-sum, Dekker/Veltkamp split and
two-product); every public operation renormalizes its result.

This is the minimal precision that resolves deviations like 7.5e-13 in a
value of magnitude 2.6e17 (30-31 digits needed); a general bignum would be
out of proportion to that need.  The module holds what heegner uses: add,
subtract, multiply, square root, exp, rounding and exact decimal output.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

from .errors import DomainError, RangeError, as_index, as_type

_SPLITTER = 134217729.0            # 2^27 + 1, Veltkamp splitting constant


def two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, e) with s = fl(a+b) and s + e == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """two_sum specialization requiring |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def split(a: float) -> tuple[float, float]:
    """Veltkamp split into two 26/27-bit halves with hi + lo == a exactly."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a*b) and p + e == a * b exactly."""
    p = a * b
    ahi, alo = split(a)
    bhi, blo = split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


class DDReal(namedtuple("DDReal", "hi lo", defaults=(0.0,))):
    """hi + lo, an immutable named tuple of two floats whose + and * raise
    TypeError (a tuple's would concatenate and repeat): use dd_add and
    dd_mul, which import from gelfond.ddreal."""

    __slots__ = ()

    @staticmethod
    def from_int(value: int) -> "DDReal":
        try:
            hi = float(value)
        except OverflowError:
            raise RangeError(f"{value.bit_length()}-bit int beyond binary64") from None
        return DDReal(*quick_two_sum(hi, float(value - int(hi))))

    def to_fraction(self) -> Fraction:
        if not (math.isfinite(self.hi) and math.isfinite(self.lo)):
            raise RangeError(f"DDReal({self.hi}, {self.lo}) is not finite")
        return Fraction(self.hi) + Fraction(self.lo)

    def __float__(self) -> float:
        return self.hi + self.lo

    def __neg__(self) -> "DDReal":
        return DDReal(-self.hi, -self.lo)

    def __add__(self, other):
        raise TypeError("DDReal has no + or *: use dd_add and dd_mul")
    __radd__ = __mul__ = __rmul__ = __add__


def dd_add(x: DDReal, y: DDReal) -> DDReal:
    s, e = two_sum(x.hi, y.hi)
    t, f = two_sum(x.lo, y.lo)
    e += t
    s, e = quick_two_sum(s, e)
    e += f
    s, e = quick_two_sum(s, e)
    return DDReal(s, e)


def dd_sub(x: DDReal, y: DDReal) -> DDReal:
    return dd_add(x, -y)


def dd_mul(x: DDReal, y: DDReal) -> DDReal:
    p, e = two_prod(x.hi, y.hi)
    e += x.hi * y.lo + x.lo * y.hi
    s, e = quick_two_sum(p, e)
    return DDReal(s, e)


def dd_sqrt(x: DDReal) -> DDReal:
    """Square root of hi + lo, normalised first, via a double seed plus one
    Newton correction in dd; RangeError when not finite, DomainError when < 0."""
    hi, lo = two_sum(x.hi, x.lo)
    if not math.isfinite(hi):
        raise RangeError(f"dd_sqrt of non-finite ({x.hi}, {x.lo})")
    if hi < 0.0:
        raise DomainError(f"dd_sqrt of negative value {hi}")
    if hi == 0.0:
        return DDReal(0.0, 0.0)
    a = math.sqrt(hi)
    p, e = two_prod(a, a)
    r = dd_sub(DDReal(hi, lo), DDReal(p, e))
    s, err = quick_two_sum(a, r.hi / (2.0 * a))
    return DDReal(s, err)


# pi to double-double precision (hi = nearest binary64, lo = the rounded
# remainder; together ~32 significant decimal digits)
_DD_PI = DDReal(3.141592653589793, 1.2246467991473532e-16)


def dd_pi() -> DDReal:
    return _DD_PI


# ln 2 as three parts for exact argument reduction: L1 and L2 carry <= 43
# significand bits, so k*L1 and k*L2 are exact binary64 products for the
# |k| <= 1011 reachable under |x| <= 700.
_LN2_P1 = 0.6931471805598903
_LN2_P2 = 5.4979230187085024e-14
_LN2_P3 = -1.3124698417785255e-27

EXP_ARG_LIMIT = 700.0
_EXP_TAYLOR_ORDER = 30   # term 31 is below 2^-106 of e^r for |r| <= ln2/2


# 1/k! for k = 1..30 as float tuples: the nearest double-double (hi, lo)
# to the exact rational, then the Veltkamp halves of hi, so that dd_exp
# splits each coefficient once per process, not once per call
_INV_FACTORIAL_PARTS = tuple(
    (float(f), float(f - Fraction(float(f)))) + split(float(f))
    for f in (Fraction(1, math.factorial(k))
              for k in range(1, _EXP_TAYLOR_ORDER + 1))
)


def dd_exp(x: DDReal) -> DDReal:
    """e^x in double-double for |hi + lo| <= 700; a larger or non-finite
    hi + lo raises RangeError.

    Reduces x = k*ln2 + r with |r| <= ln2/2, k taken from hi + lo so that
    an x whose lo is not below ulp(hi) is reduced by its value (the k*ln2
    product is formed from the exact three-part ln 2 so the constant
    contributes ~1e-35, not k ulps), sums the order-30 Taylor series of
    e^r, multiplying each power r^k by the tabulated 1/k!, and scales by
    2^k.  Every x takes the three subtractions, k = 0 included (by exact
    zeros), and dd_sub normalises r on the way, so an unnormalised x loses
    no digits.  The Taylor loop runs on (hi, lo) float pairs: each step
    performs the operations of power = dd_mul(power, r) and
    total = dd_add(total, dd_mul(power, 1/k!)) in their order, with the
    Veltkamp splits of r and of 1/k! formed once and that of each power
    once, so it gives their bits without building a DDReal per operation.
    """
    value = x.hi + x.lo
    if not abs(value) <= EXP_ARG_LIMIT:
        raise RangeError(f"dd_exp argument ({x.hi}, {x.lo}) outside |x| <= "
                         f"{EXP_ARG_LIMIT} or not finite")
    k = round(value / _LN2_P1)
    r = dd_sub(x, DDReal(k * _LN2_P1))              # exact product
    r = dd_sub(r, DDReal(k * _LN2_P2))              # exact product
    p, e = two_prod(float(k), _LN2_P3)
    r = dd_sub(r, DDReal(p, e))
    rh, rl = r.hi, r.lo
    rh_hi, rh_lo = split(rh)
    th, tl = ph, pl = 1.0, 0.0
    ph_hi, ph_lo = split(ph)
    for ch, cl, ch_hi, ch_lo in _INV_FACTORIAL_PARTS:
        # power = dd_mul(power, r)
        p = ph * rh
        e = ((ph_hi * rh_hi - p) + ph_hi * rh_lo + ph_lo * rh_hi) + ph_lo * rh_lo
        e += ph * rl + pl * rh
        ph = p + e
        pl = e - (ph - p)
        c = _SPLITTER * ph
        ph_hi = c - (c - ph)
        ph_lo = ph - ph_hi
        # term = dd_mul(power, coef)
        p = ph * ch
        e = ((ph_hi * ch_hi - p) + ph_hi * ch_lo + ph_lo * ch_hi) + ph_lo * ch_lo
        e += ph * cl + pl * ch
        qh = p + e
        ql = e - (qh - p)
        # total = dd_add(total, term)
        s = th + qh
        bb = s - th
        e = (th - (s - bb)) + (qh - bb)
        t = tl + ql
        bb = t - tl
        f = (tl - (t - bb)) + (ql - bb)
        e += t
        th = s + e
        e -= th - s
        e += f
        s = th + e
        tl = e - (s - th)
        th = s
    return DDReal(math.ldexp(th, k), math.ldexp(tl, k))


def dd_round(x: DDReal) -> int:
    """Nearest integer to hi + lo (ties to even), exact when finite; else RangeError."""
    return round(x.to_fraction())


def dd_to_decimal(x: DDReal, digits: int = 31) -> str:
    """Decimal string of hi + lo correctly rounded (ties away from zero) to
    ``digits`` significant digits, with no float formatting involved; an x
    that is not a DDReal or ``digits`` that is not an int (a bool included)
    or is below 1 raises ValueError, a non-finite x RangeError."""
    as_type(x, DDReal, "x")
    if as_index(digits, "digits") < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    value = Context(prec=digits, rounding=ROUND_HALF_UP).add(Decimal(x.hi),
                                                             Decimal(x.lo))
    if not value.is_finite():
        raise RangeError(f"cannot format non-finite {x}")
    text = "".join(map(str, value.as_tuple().digits)).ljust(digits, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{text[0]}.{text[1:]}e{value.adjusted():+d}"
