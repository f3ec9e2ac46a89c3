"""Numerical summation of generalized hypergeometric series.

sum_pfq evaluates pFq(upper; lower; z) by direct term recurrence
(t_{n+1}/t_n = z * prod(upper_j + n) / (prod(lower_k + n) * (n + 1))).
sum_pfq holds the one rule that routes every spec: a polynomial (an upper
parameter exactly at a non-positive integer, not merely near one; see
truncation_degree()) is summed directly at every z and ends at its last
term, and only a series that does not terminate is checked for divergence
(p > q+1 refused for z != 0, p = q+1 for |z| > 1 and |z| = 1 off 1).
The direct sum keeps only the current term.  At unit argument a
non-polynomial p = q+1 series converges only algebraically (term magnitudes
~ n^{-1-s} with s = Re(sum(lower) - sum(upper))), so sum_pfq sums a head of
terms and adds the rest from the terms' asymptotic expansion (see
_unit_sum).  The direct loop and the head run in floats when the term ratio
is exactly real: z and every parameter real, or a conjugate pair leading
the upper row and the rest real (_loop_parameters); each is compiled once
per parameter shape (p, q, kind) from a source template by one builder,
so that a term pays for no for loop over its parameters and no test of
its kind (_term_loop).  The tail runs in floats for conjugate pairs,
forms its power sums by the multiplication chain of complex ** and does
its fixed-size work in one function per kind, float or complex, compiled
on first use (_asymptotic_tail, _power_sums, _tail_kernel).  All of them
keep the bits of complex arithmetic.
Near z = 1 a 2F1 or 1F0 that does not terminate is first tried by a 1 - z
connection formula, which answers only when its bound meets the tolerance
(_connection_sum); otherwise it is summed directly.
levin_accelerate, a Levin u-transform evaluated exactly in rationals, at
beta = 1 (see _levin_orders), is kept for the benchmark's window timings;
no summation route uses it.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb

from .closed_forms import gamma_quotient, log_gamma_sum
from .complex_gamma import (BERNOULLI, DIGAMMA_ENVELOPE, ENVELOPE_POLE_DISTANCE,
                            EULER_GAMMA, LOG_GAMMA_ENVELOPE, PSI_SLACK,
                            TRIGAMMA_BOUND, digamma, nearest_nonpositive_int,
                            within_envelope)
from .ddreal import two_sum
from .errors import (DivergentError, InsufficientTermsError, PoleError, RangeError,
                     as_index, as_number, as_real, as_type)

_EPS = 2.220446049250313e-16

# Lower parameters this near a non-positive integer are taken as poles.
NEAR_INT_TOLERANCE = 1e-9

LEVIN_MAX_ORDER = 20


class SumStatus(Enum):
    CONVERGED = "Converged"
    TRUNCATED = "Truncated"
    MAX_TERMS_EXCEEDED = "MaxTermsExceeded"
    DIVERGENT = "Divergent"


def _truncation(params) -> int | None:
    """The smallest -x over parameters x with zero imaginary part and a real
    part that is a non-positive integer, where a series with x upstairs ends
    at its term of that index; None when there is no such x."""
    return min((-int(x.real) for x in params
                if x.imag == 0.0 and x.real <= 0.0 and x.real.is_integer()),
               default=None)


def _parameters(row, what: str) -> tuple:
    """row, a tuple or list of numbers (errors.as_number), as a tuple of
    complex numbers."""
    if not isinstance(row, (tuple, list)):
        raise ValueError(f"{what}s must be a tuple or list, got {row!r}")
    return tuple([as_number(x, what) for x in row])


class SeriesSpec(namedtuple("SeriesSpec", "upper lower argument")):
    """One pFq evaluation, a named tuple of upper parameters, lower parameters
    and argument, coerced to complex and checked by the constructor, _replace
    and _make.  Each row is a tuple or list, and each parameter and the
    argument a number: int, float, Fraction or complex, not a bool; any
    other type is a ValueError.  p > q+1 is refused unless the series
    terminates or z = 0."""

    __slots__ = ()

    def __new__(cls, upper, lower, argument):
        self = super().__new__(cls, _parameters(upper, "upper parameter"),
                               _parameters(lower, "lower parameter"),
                               as_number(argument, "argument"))
        named = ([("upper parameter", a) for a in self.upper]
                 + [("lower parameter", b) for b in self.lower]
                 + [("argument", self.argument)])
        for name, x in named:
            if not cmath.isfinite(x):
                raise RangeError(f"{name} {x} is not finite")
        trunc = self.truncation_degree()
        p, q = len(self.upper), len(self.lower)
        if p > q + 1 and self.argument != 0 and trunc is None:
            raise ValueError(f"p = {p} > q + 1 = {q + 1}: series diverges for z != 0")
        for b in self.lower:
            k = nearest_nonpositive_int(b, NEAR_INT_TOLERANCE)
            if k is None:
                continue
            # A non-positive-integer lower parameter is tolerable only when an
            # upper parameter truncates the series strictly before the lower
            # Pochhammer factor hits zero (term index -k, truncation at -a < -k).
            if trunc is None or trunc >= -k:
                raise PoleError(
                    f"lower parameter {b} is within {NEAR_INT_TOLERANCE} of a "
                    "non-positive integer and no upper parameter truncates first"
                )
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    def truncation_degree(self) -> int | None:
        """The degree of the polynomial the series is when an upper parameter
        truncates it, _truncation(upper); None when none does."""
        return _truncation(self.upper)

    def convergence_parameter(self) -> float:
        """s = Re(sum(lower) - sum(upper)); at z=1 a p = q+1 series converges
        iff s > 0."""
        return (sum(self.lower) - sum(self.upper)).real


class SumPolicy(namedtuple("SumPolicy", "tolerance max_terms")):
    """Summation tolerance and term budget, a named tuple; SumPolicy() holds
    the defaults.  The tolerance may be any real number but a bool (int,
    float, Fraction) and is kept as given, and max_terms must be an int
    (not a bool): the constructor, _replace and _make raise ValueError for
    any other type, for a tolerance below 1e-15 or not finite, and for a
    max_terms below 10."""

    __slots__ = ()

    def __new__(cls, tolerance: float = 1e-13, max_terms: int = 10**6):
        if not (1e-15 <= as_real(tolerance, "tolerance") < math.inf):
            raise ValueError("tolerance must be finite and >= 1e-15")
        if as_index(max_terms, "max_terms") < 10:
            raise ValueError("max_terms must be an int >= 10")
        return super().__new__(cls, tolerance, max_terms)

    _make = classmethod(lambda cls, fields: cls(*fields))


SumResult = namedtuple("SumResult", "value terms_used tail_estimate status")


def _loop_parameters(spec: SeriesSpec) -> tuple[str, tuple, tuple, complex | float]:
    """(kind, upper, lower, z) for a term loop.  The kind is "real" when
    the argument and every parameter have zero imaginary part, "pair" when
    the argument is real, upper[0] and upper[1] are a conjugate pair
    x +- iy with y != 0 and every other parameter is real, and "complex"
    otherwise; the first two come as floats, a pair as x and y * y.

    A float loop has the bits of the complex one.  CPython's complex * and
    / (3.10-3.13) on operands with zero imaginary parts perform the very
    float operations on the real parts, and the pair's complex factor
    1.0 * (a0 + n) * (a1 + n) = (X + iy)(X - iy), X = x + n, has the real
    part X * X - y * -y = X * X + y * y and the imaginary part
    X * -y + y * X, which cancels exactly, so the real factors after it see
    a zero imaginary part too.  A pair anywhere else does not cancel:
    behind a real factor r the parts are r X * -y and r y * X, rounded
    differently, and den, which starts at n + 1, puts every lower pair
    behind one.  The tests that pin these bits in tests/test_series.py
    hold the rest of the argument."""
    upper, lower, z = spec
    if z.imag or any(c.imag for c in upper[2:] + lower):
        return "complex", upper, lower, z
    lead = ()
    if any(c.imag for c in upper[:2]):
        if len(upper) < 2 or upper[1] != upper[0].conjugate():
            return "complex", upper, lower, z
        lead = (upper[0].real, upper[0].imag * upper[0].imag)
        upper = upper[2:]
    return ("pair" if lead else "real", lead + tuple(a.real for a in upper),
            tuple(b.real for b in lower), z.real)


# The first _UNROLL parameters of each side enter a loop as names a0..,
# b0.. of straight-line products; any more are stepped by a for loop.
_UNROLL = 4

# Per kind, the parts of a term that _LOOP and _HEAD share: the index the
# factors add (both loops step the int n and the float x = n), the one
# that starts t, and num for a complex kind or p = 0, den's first factor,
# total's first value and the loops' isfinite.  tests/test_series.py holds
# why each kind keeps the bits of complex arithmetic.
_TERMS = {"real": ("x", "1.0", "(x + 1.0)", "0.0", math.isfinite),
          "complex": ("n", "(1.0 + 0.0j)", "(n + 1)", "0j", cmath.isfinite)}
_TERMS["pair"] = _TERMS["real"]


def _term_lines(p: int, q: int, kind: str) -> dict:
    """The template fields of p upper and q lower parameters of one kind
    (_TERMS): the parameter names, total's and t's first values, num as
    the product of the factors (a_j + i), i the kind's index, behind one
    for a complex kind or p = 0, and for a pair with xk * xk + a1,
    xk = a0 + i, in place of the first two, and den as the product of its
    first factor and the factors (b_j + i)."""
    i, one, first, zero, _ = _TERMS[kind]
    a = [f"a{j}" for j in range(min(p, _UNROLL))]
    b = [f"b{j}" for j in range(min(q, _UNROLL))]
    num = [f"({v} + {i})" for v in a]
    if kind == "pair":
        num[:2] = ["(xk * xk + a1)"]
    elif kind == "complex" or not num:
        num.insert(0, one)
    return dict(
        upper="".join(v + ", " for v in a), lower="".join(v + ", " for v in b),
        zero=zero, one=one,
        num=(f"xk = a0 + {i}; " if kind == "pair" else "") + "num = " + " * ".join(num),
        num_rest=f"for a in upper: num *= a + {i}" if p > _UNROLL else "pass",
        den=" * ".join([first] + [f"({v} + {i})" for v in b]),
        den_rest=f"for b in lower: den *= b + {i}" if q > _UNROLL else "pass")


def _compiled(template: tuple[int, str], fields: dict, scope: dict):
    """The function that template, a (first line, source) pair, defines
    once fields fill its placeholders, compiled with the blank lines ahead
    that make tracebacks and profiles point at the template's own lines in
    this file, and run with scope as its globals."""
    line, source = template
    source = source.format(**fields)
    exec(compile("\n" * (line - 1) + source, __file__, "exec"), scope)
    return scope[source[4:source.index("(")]]


# _direct_sum's loop, a (first line, source) pair; each placeholder fills
# one line, statements joined by "; "
_LOOP = sys._getframe().f_lineno + 1, """\
def direct_loop({upper}upper, {lower}lower, z, tol, stop, trunc):
    total = {zero}
    t = {one}
    den = 1.0
    prev_abs = 0.0
    small_streak = 0
    n = 0
    x = 0.0
    try:
        while True:
            total += t
            abs_t = abs(t)
            if abs_t > tol and abs_t > tol * abs(total) and n != stop:
                small_streak = 0
            else:
                # reached by the last term and by every total that is not
                # finite: both tests fail.  A term of 0, inf or NaN (which
                # the complex kind's inf * 0 parts give) after a
                # denominator at the limit names the denominator first
                if not 0.0 < abs_t < inf and not isfinite(2.0 * den):
                    raise RangeError(f"term {{n}}: denominator at the binary64 limit")
                if not isfinite(total):
                    raise RangeError("series accumulation overflowed binary64")
                small_streak += 1
                # |t_n| / (1 - r), the geometric tail at the observed ratio
                # r = |t_n / t_(n-1)| capped at 0.99, or at r = 0 when
                # prev_abs is 0; r may be inf, never NaN
                ratio = abs_t / prev_abs if prev_abs > 0.0 else 0.0
                tail = abs_t / (1.0 - (ratio if ratio < 0.99 else 0.99))
                if (small_streak >= 2 and n != trunc
                        and (tail <= tol or tail <= tol * abs(total))):
                    return SumResult(complex(total), n + 1, tail, SumStatus.CONVERGED)
                if n == stop:
                    break
            prev_abs = abs_t
            {num}
            {num_rest}
            den = {den}
            {den_rest}
            t = t * z * num / den
            n += 1
            x += 1.0
    except ZeroDivisionError:
        raise RangeError(f"term {{n + 1}}: denominator underflowed to 0") from None
    except OverflowError:
        # abs() of a finite complex term or sum of modulus beyond binary64;
        # a total that is not finite and a polynomial's last term, tested
        # after abs() in the loop, rank before this overflow
        if not isfinite(total):
            raise RangeError("series accumulation overflowed binary64") from None
        if n != trunc:
            raise RangeError(f"term {{n}}: modulus beyond binary64") from None
    if n == trunc:
        if not isfinite(2.0 * den):
            raise RangeError(f"term {{n}}: denominator at the binary64 limit")
        # polynomial case: the remaining terms vanish
        return SumResult(complex(total), n + 1, 0.0, SumStatus.TRUNCATED)
    return SumResult(complex(total), n + 1, tail, SumStatus.MAX_TERMS_EXCEEDED)
"""


@lru_cache(maxsize=64)
def _term_loop(template: tuple[int, str], p: int, q: int, kind: str):
    """The function template, _LOOP or _HEAD, defines for p upper and q
    lower parameters of one kind (_loop_parameters), compiled on first
    use.  Only the shape enters the source, never a value, so every spec
    of one shape shares the function and the cache holds no result.  It is
    called as loop(*upper[:_UNROLL], upper[_UNROLL:], *lower[:_UNROLL],
    lower[_UNROLL:], ...), the template's own arguments after those."""
    return _compiled(template, _term_lines(p, q, kind), {
        "RangeError": RangeError, "SumResult": SumResult, "SumStatus": SumStatus,
        "stays_below": _terms_stay_below, "inf": math.inf, "isfinite": _TERMS[kind][-1]})


def _direct_sum(spec: SeriesSpec, policy: SumPolicy) -> SumResult:
    """Plain term-by-term accumulation; used for every spec but a p = q+1
    series at z = 1 that does not terminate.

    No term is stored: one loop keeps the current term and steps it to the
    next, so memory does not grow with the number of terms.  A real spec,
    or one led by a conjugate pair, is summed in floats with the bits of
    complex arithmetic (_loop_parameters).  The loop is compiled once per
    shape (p, q, kind) (_term_loop), with the first _UNROLL parameters of
    a side as straight-line products, because a for loop over the
    parameters took about 40% of each term.  The tail estimate is worked
    out only for a small term and the last one; a polynomial returns at
    its last term with tail 0, since the term after it, zero by
    construction, is never formed.

    A denominator product at the binary64 limit, one with a part of 2^1023
    or more so that 2 * den is not finite, can make the next term 0 or NaN:
    float division by inf gives 0, and complex division scales by
    |den|^2 / max(|Re den|, |Im den|), which then overflows.  No value
    summed past it can be trusted, so RangeError names the denominator
    for a term of 0, inf or NaN or a polynomial's last term after it, in
    every kind, before it tests the total; and it is raised for a
    denominator that underflows to 0.
    """
    kind, upper, lower, z = _loop_parameters(spec)
    last = policy.max_terms - 1
    trunc = spec.truncation_degree()
    stop, trunc = (last, -1) if trunc is None else (min(trunc, last), trunc)
    loop = _term_loop(_LOOP, len(upper), len(lower), kind)
    return loop(*upper[:_UNROLL], upper[_UNROLL:], *lower[:_UNROLL],
                lower[_UNROLL:], z, policy.tolerance, stop, trunc)


# ----------------------------------------------------------------------
# Levin u-transform, in exact rationals
# ----------------------------------------------------------------------

def _levin_orders(terms: list[complex]) -> list[complex]:
    """u-transform values for orders 1..LEVIN_MAX_ORDER on a term window at
    beta = 1, in exact rational arithmetic (Levin 1973, Weniger 1989):
        u_k = (sum_j w_kj S_j/omega_j) / (sum_j w_kj/omega_j),  j = 0..k,
    with partial sums S_j, remainder estimates omega_j = (j+1) t_j and
    weights w_kj = (-1)^j C(k, j) (j+1)^(k-1).  Each binary64 part is taken
    exactly as a Fraction, a complex value as a (real, imaginary) pair of
    them; each part of an order is rounded once, and an order whose
    denominator is 0 is skipped.  RangeError when an order lies beyond the
    binary64 range.  Every term must be nonzero, since the omega_j divide;
    callers refuse a zero term."""
    rows = []
    sr = si = Fraction(0)
    for j, t in enumerate(terms[:LEVIN_MAX_ORDER + 1]):
        r, i = Fraction(t.real), Fraction(t.imag)
        sr += r
        si += i
        wr, wi = (j + 1) * r, (j + 1) * i
        norm = wr * wr + wi * wi
        # S/omega and 1/omega as (real, imaginary) pairs, through
        # multiplication by conj(omega)/|omega|^2
        rows.append(((sr * wr + si * wi) / norm, (si * wr - sr * wi) / norm,
                     wr / norm, -wi / norm))
    columns = list(zip(*rows))
    out: list[complex] = []
    try:
        for k in range(1, len(rows)):
            w = [(-1) ** j * comb(k, j) * (j + 1) ** (k - 1) for j in range(k + 1)]
            nr, ni, dr, di = (sum(x * y for x, y in zip(w, c)) for c in columns)
            norm = dr * dr + di * di
            if norm:
                out.append(complex(float((nr * dr + ni * di) / norm),
                                   float((ni * dr - nr * di) / norm)))
    except OverflowError:
        raise RangeError("a Levin order lies beyond the binary64 range") from None
    return out


def _pick_transform(values: list[complex]) -> tuple[complex, float] | None:
    """Select the transform order whose two trailing consecutive differences
    are jointly smallest.  A single spuriously small difference between two
    equally wrong orders cannot pass this two-difference consistency check.
    On equal scores the lowest order wins; fewer than three values give
    None."""
    best = None
    for k in range(2, len(values)):
        score = max(abs(values[k] - values[k - 1]), abs(values[k - 1] - values[k - 2]))
        if best is None or score < best[1]:
            best = values[k], score
    return best


def levin_accelerate(terms) -> tuple[complex, float]:
    """Levin u-transform estimate of sum(terms + tail), evaluated in
    rationals, at beta = 1 and orders up to LEVIN_MAX_ORDER.

    Returns (value, error_estimate) where the estimate is the difference of
    the last two transform orders used.  Requires at least 8 terms of a
    series whose terms eventually decay smoothly or with constant sign.
    A term that is not finite raises RangeError, a zero term ValueError.
    """
    terms = [complex(t) for t in terms]
    if len(terms) < 8:
        raise InsufficientTermsError(
            f"levin_accelerate needs >= 8 terms, got {len(terms)}"
        )
    if not all(map(cmath.isfinite, terms)):
        raise RangeError("levin_accelerate: a term is not finite")
    if 0 in terms:
        raise ValueError("levin_accelerate: zero term in input (omega undefined)")
    picked = _pick_transform(_levin_orders(terms))
    if picked is None:
        raise InsufficientTermsError("levin_accelerate: too few usable orders")
    value, err = picked
    return value, max(err, 4.0 * _EPS * abs(value))


# ----------------------------------------------------------------------
# unit argument: a head of terms plus an asymptotic tail
# ----------------------------------------------------------------------

_ORDERS = 12                # K, the orders of the term expansion in 1/n


@lru_cache(maxsize=1)
def _tail_weights() -> tuple[tuple[tuple[float, ...], ...],
                             tuple[tuple[float, float, float], ...]]:
    """The weights of _asymptotic_tail, made on first use: rows[k-1][j] =
    (-1)^(k+1) C(k+1, j) B_j / (k (k+1)) for k = 1..K+1, and the triples
    (B_2j / (2j)!, 2j - 1, 2j), the integers as floats: sigma + 3.0 has
    the bits of sigma + 3, and float + float skips a conversion."""
    rows = tuple(tuple((-1) ** (k + 1) * comb(k + 1, j) * p / (q * k * (k + 1))
                       for j, (p, q) in enumerate(BERNOULLI[:k + 1]))
                 for k in range(1, _ORDERS + 2))
    return rows, tuple((p / (q * math.factorial(j)), j - 1.0, float(j))
                       for j, (p, q) in enumerate(BERNOULLI) if j and not j % 2)


# _tail_kernel's source, a (first line, source) pair; each placeholder
# fills one line, statements joined by "; "
_TAIL = sys._getframe().f_lineno + 1, """\
def tail_kernel({powers}, n, t):
    {g}  # g_k = 0 + rows[k-1][0] * P_{{k+1}} + .. + rows[k-1][k] * P_1
    {kg}
    {d}  # d_m = (0 + kg_1 d_{{m-1}} + .. + kg_m d_0) / m
    inv = 1.0 / n
    {start}
    norm = whole = {zero}
    weight = part = rest = 0.0
    for m, dm in zip({ms}, ({ds})):
        sigma = {sigma}
        prev_weight, prev_part = weight, part
        weight = dm * inv ** m
        z = n / (sigma - 1.0) + 0.5
        rising = sigma * inv                    # (sigma)_{{2j-1}} n^(1-2j)
        {euler}
        part = weight * z
        norm += weight
        whole += part
        rest += abs(weight * last)
    ratio = t / norm
    tail = ratio * whole
    return tail, (abs(ratio) * (abs(part) + abs(prev_part) + rest)
                  + ((abs(weight) + abs(prev_weight)) / abs(norm)
                     + abs(g{orders}) * inv ** {orders}) * abs(tail))
"""


@lru_cache(maxsize=2)
def _tail_kernel(kind: str):
    """_asymptotic_tail's work after the power sums for float ("real") or
    complex power sums, compiled from _TAIL on first use with
    _tail_weights() as literals: called as kernel(P_1, .., P_{K+2}, n, t),
    n a float, it returns (tail, estimate).  Each row, convolution and
    Euler-Maclaurin sum is written out as a left-to-right fold from 0, the
    operations of the loops it replaces in their order, so the bits do not
    move; the products by the rows' zero weights are left out, since the
    powers are finite and a fold from 0 never holds -0.0, so adding +-0.0
    leaves it as it is.  The complex kernel's constants are complex, its
    n too, and it forms m - P_1 as -P_1 + m, so that no float or int
    stands left of a complex operand: CPython would first try the float
    method and then convert the float to exactly that complex number."""
    real = kind == "real"
    const = repr if real else (lambda v: repr(complex(v)))

    def fold(terms):
        return " + ".join([const(0.0), *terms])

    rows, euler = _tail_weights()
    g = [f"g{k} = " + fold(f"{const(w)} * p{k + 1 - j}" for j, w in enumerate(row) if w)
         for k, row in enumerate(rows, 1)]
    d = [f"d0 = {const(1.0)}"] + [
        f"d{m} = (" + fold(f"kg{k} * d{m - k}" for k in range(1, m + 1))
        + f") / {const(float(m))}" for m in range(1, _ORDERS + 1)]
    steps = []
    for c, lo, hi in euler:
        steps += [f"last = {const(c)} * rising", "z += last",
                  f"rising *= (sigma + {lo!r}) * (sigma + {hi!r}) * inv * inv"]
    return _compiled(_TAIL, dict(
        powers=", ".join(f"p{m}" for m in range(1, _ORDERS + 3)), g="; ".join(g),
        kg="; ".join(f"kg{k} = {const(float(k))} * g{k}" for k in range(1, _ORDERS + 1)),
        d="; ".join(d), ds=", ".join(f"d{m}" for m in range(_ORDERS + 1)),
        start="pass" if real else "n, minus_p1 = complex(n), -p1",
        zero=const(0.0), ms=repr(tuple(map(float, range(_ORDERS + 1)))),
        sigma="m - p1" if real else "minus_p1 + m",
        euler="; ".join(steps[:-1]), orders=_ORDERS + 1), {})


def _power_sums(params) -> list:
    """[sum of a^m over params for m = 1..K+2], each a left-to-right fold
    from 0, with every a^m formed as CPython's complex a ** m forms it for
    an int exponent (c_powu): a^m = a^(m-h) * a^h, h the top bit of m, and
    a^h by squaring.  The values are those of a ** m on CPython 3.10-3.13;
    only the signs of zero parts differ, and the fold from 0 washes them
    out.  A float parameter gives float powers, exact for 1.0.  A part
    beyond the binary64 range comes out inf or NaN where a ** m raised
    OverflowError, so a caller tests the sums for finiteness."""
    s1 = s2 = s3 = s4 = s5 = s6 = s7 = s8 = s9 = s10 = s11 = s12 = s13 = s14 = 0
    for a in params:
        a2 = a * a
        a4 = a2 * a2
        a8 = a4 * a4
        a3 = a * a2
        a5 = a * a4
        a6 = a2 * a4
        s1 += a
        s2 += a2
        s3 += a3
        s4 += a4
        s5 += a5
        s6 += a6
        s7 += a3 * a4
        s8 += a8
        s9 += a * a8
        s10 += a2 * a8
        s11 += a3 * a8
        s12 += a4 * a8
        s13 += a5 * a8
        s14 += a6 * a8
    return [s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14]


def _asymptotic_tail(upper: tuple[complex, ...], lower: tuple[complex, ...],
                     n: int, t: complex) -> tuple[complex, float]:
    """(sum_{k >= n} t_k, an estimate of its truncation error) of a p = q+1
    series at z = 1 from t = t_n; (0, inf) if an intermediate is not finite.

    DLMF 5.11.8 gives log t_k = C - (1+s) ln k + sum_{j<=K} g_j k^-j, each
    g_j a combination (rows) of the power sums P_m = sum_upper a^m -
    sum_lower b^m, 1 counted as lower.  With exp(sum_j g_j k^-j) =
    sum_m d_m k^-m the tail is t_n sum_m d_m n^-m Z_m / sum_m d_m n^-m,
    Z_m = n^sigma zeta(sigma, n) at sigma = 1+s+m by Euler-Maclaurin.  The
    estimate adds the last two terms of each sum (the lower one relative,
    times |tail|), |g_{K+1}| n^-(K+1) |tail| and the last Euler-Maclaurin
    terms.  It runs in floats when every P_m is real, as for conjugate
    pairs, with the bits of complex arithmetic (see _loop_parameters), and
    sums by explicit left-to-right folds from 0, as sum() did up to Python
    3.11 (3.12 compensates).  The power sums come from one pass over each
    row (_power_sums) with the bits of folds of a ** m; a power sum that
    is not finite gives (0, inf), as the OverflowError of a ** m did.
    Everything after the power sums, a fixed amount of work with fixed
    weights, runs in one function per kind, float or complex, compiled
    once per process on first use (_tail_kernel).
    """
    powers = [up - low for up, low in zip(_power_sums(upper),
                                          _power_sums(lower + (1.0,)))]
    if not all(map(cmath.isfinite, powers)):
        return 0.0, math.inf
    try:
        if any(p.imag for p in powers):
            tail, estimate = _tail_kernel("complex")(*powers, float(n), t)
        else:
            tail, estimate = _tail_kernel("real")(*[p.real for p in powers],
                                                  float(n), t)
    except (OverflowError, ZeroDivisionError):
        return 0.0, math.inf
    finite = cmath.isfinite(tail) and math.isfinite(estimate)
    return (tail, estimate) if finite else (0.0, math.inf)


def _terms_stay_below(spec: SeriesSpec, n: int) -> bool:
    """True when |t_{k+1}| <= |t_k| for every k >= n, shown exactly: the
    polynomial |num(k)|^2 - |den(k)|^2 of the term ratio at z = 1, in
    k = n + x, has no positive coefficient."""
    def squared_modulus(params):
        poly = [Fraction(1)]
        for c in params:        # times |x + c + n|^2 = x^2 + 2 re x + |c + n|^2
            re, im = Fraction(c.real) + n, Fraction(c.imag)
            poly = [a * (re * re + im * im) + 2 * re * b + c2 for a, b, c2
                    in zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]
        return poly
    return all(a <= b for a, b in zip(squared_modulus(spec.upper),
                                      squared_modulus(spec.lower + (1.0,))))


# _unit_sum's head, a (first line, source) pair; each placeholder fills
# one line, statements joined by "; ".  Called with N, rho, spread and
# spec after the parameters, it sums t_0 .. t_{N-1} and returns (total,
# compensation, err, t, N) with t = t_N, or t = 0 and N = n + 1 for a
# term t_{n+1} that underflowed in a series whose terms cannot grow again.
_HEAD = sys._getframe().f_lineno + 1, """\
def unit_head({upper}upper, {lower}lower, size, rho, spread, spec):
    total = comp = {zero}
    t = {one}
    err = 0.0
    abs_t = 1.0
    x = 0.0
    try:
        for n in range(size):
            partial = total + t
            back = partial - total
            comp += (total - (partial - back)) + (t - back)
            total = partial
            err += (x * rho + spread) * abs_t
            {num}
            {num_rest}
            den = {den}
            {den_rest}
            t = t * num / den
            abs_t = abs(t)
            if not t:
                # a true underflow: num is not 0, and den, at least 1, has
                # not lifted a product that underflowed
                if not (num and 1.0 <= abs(den) < inf and stays_below(spec, n + 1)):
                    raise RangeError(f"term {{n + 1}}: underflowed to 0")
                size = n + 1
                break
            if not abs_t < inf:
                raise RangeError(f"term {{n + 1}}: not finite")
            x += 1.0
    except ZeroDivisionError:
        raise RangeError(f"term {{n + 1}}: denominator underflowed to 0") from None
    except OverflowError:
        raise RangeError("series accumulation overflowed binary64") from None
    if not isfinite(total):
        raise RangeError("series accumulation overflowed binary64")
    return total, comp, err, t, size
"""


def _unit_sum(spec: SeriesSpec, policy: SumPolicy) -> SumResult:
    """A p = q+1 series at z = 1 with s > 0: the head t_0 .. t_{N-1} plus
    the asymptotic tail from t_N, N = max(40, ceil(8 max|parameter|))
    capped at max_terms - 1; a capped N never gives Converged.

    The head is summed with TwoSum, its errors added back at the end, and
    term n counts as off by n rho relative, rho bounding the rounding of
    one step.  The estimate adds that, the compensated sum's own bound
    (Ogita, Rump and Oishi 2005), the tail's estimate and (N+K) rho |tail|.
    A term that is not finite or of modulus beyond binary64, or a
    denominator or partial sum out of the binary64 range, raises
    RangeError, as does a term that underflows to 0 unless the terms
    cannot grow again (_terms_stay_below): then the sum ends there, with 5e-324 (1 + n/s) for the rest and no cap on N.  The
    head runs in floats for a real spec or one led by a conjugate pair,
    with the bits of complex arithmetic (_loop_parameters), in a function
    compiled once per shape (_term_loop).
    """
    kind, upper, lower, _ = _loop_parameters(spec)
    p, q = len(upper), len(lower)
    # math.hypot, not abs(): abs() of a complex number is libm's hypot,
    # which differs in the last bit now and then and so could move N
    want = 8.0 * max(math.hypot(c.real, c.imag) for c in spec.upper + spec.lower)
    size = max(40, math.ceil(min(want, 2.0 ** 62)))
    capped = size >= policy.max_terms
    size = min(size, policy.max_terms - 1)
    # p+q additions, p+q+1 products and a division per step, at eps/2 each
    # for real parameters and at eps/2, sqrt(5) eps/2 and 4 eps for complex,
    # a pair's steps counted as complex
    rho = (p + q + 1 if kind == "real" else 2 * (p + q) + 6) * _EPS
    spread = (size * _EPS) ** 2
    head = _term_loop(_HEAD, p, q, kind)
    total, comp, err, t, size = head(*upper[:_UNROLL], upper[_UNROLL:],
                                     *lower[:_UNROLL], lower[_UNROLL:],
                                     size, rho, spread, spec)
    if t:
        tail, estimate = _asymptotic_tail(spec.upper, spec.lower, size, complex(t))
        estimate += (size + _ORDERS) * rho * abs(tail)
    else:
        capped = False
        tail, estimate = 0.0, 5e-324 * (1.0 + size / spec.convergence_parameter())
    value = complex(total) + (complex(comp) + tail)
    estimate += err + _EPS * (abs(value) + abs(tail))
    if not capped and estimate <= policy.tolerance * max(1.0, abs(value)):
        return SumResult(value, size + 1, estimate, SumStatus.CONVERGED)
    return SumResult(value, size + 1, estimate, SumStatus.MAX_TERMS_EXCEEDED)


# ----------------------------------------------------------------------
# 2F1 near z = 1: the 1 - z connection formulas
# ----------------------------------------------------------------------

# rho: 2F1 is taken by _connection_sum when |1 - z| is below this
CONNECTION_RADIUS = 1.0 / 16.0


def _short_2f1(a, b, c, w, cap: int):
    """(value, bound, terms, sum of k |t_k|) of 2F1(a, b; c; w), summed
    until the truncation bound is below eps sum|t_k|, or to t_k, with no
    truncation, when a or b is exactly -k, k a non-negative integer, as
    _direct_sum ends a polynomial; at cap terms, the sum of those with its
    rounding bound alone and terms None.

    For k >= n >= 1 with n + min(Re c, 0) > 0, |c + k| >= k + min(Re c, 0)
    and k + 1 > k give |t_{k+1} / t_k| <= r_n = |w| (1 + |a|/n)
    (1 + |b|/n) / (1 + min(Re c, 0)/n), each factor falling in k, so the
    terms after t_n add up to at most |t_n| r_n / (1 - r_n).  The bound
    adds that and the rounding: t_k carries k steps of at most rho each
    (5 eps for floats, 14 eps for complex, counted as in _unit_sum) and
    the running sum n eps sum|t_k| ((n + 1) eps at the cap).  For
    c = 1 - M that test cannot pass below n = M, so cap = M sums the M
    terms of A&S 15.3.10's finite part."""
    rho = (5.0 if type(w) is float else 14.0) * _EPS
    aw, ma, mb, low = abs(w), abs(a), abs(b), min(c.real, 0.0)
    last = _truncation((a, b))
    t = total = 1.0
    abs_sum, weighted = 1.0, 0.0
    n = 0
    while n + 1 < cap:
        if n == last:
            return total, rho * weighted + n * _EPS * abs_sum, n + 1, weighted
        t = t * w * (a + n) * (b + n) / ((c + n) * (n + 1))
        n += 1
        total += t
        abs_t = abs(t)
        abs_sum += abs_t
        weighted += n * abs_t
        if n + low > 0.0:
            r = aw * (1.0 + ma / n) * (1.0 + mb / n) / (1.0 + low / n)
            if r < 1.0 and abs_t * r <= (1.0 - r) * _EPS * abs_sum:
                bound = abs_t * r / (1.0 - r) + rho * weighted + n * _EPS * abs_sum
                return total, bound, n + 1, weighted
    return total, rho * weighted + (n + 1) * _EPS * abs_sum, None, weighted


def _log_2f1(a, b, c, w, h, eh: float, cap: int):
    """(sum t_k h_k, bound, terms, sum |t_k|, sum k |t_k h_k|) for the
    terms t_k of 2F1(a, b; c; w), c >= 1 real, weighted by
    h_{k+1} = h_k + 1/(a+k) + 1/(b+k) - 1/(k+1) - 1/(c+k) from h_0 = h,
    known to within eh; None past cap terms.

    Summed until the truncation bound is below eps (sum|t_k h_k| +
    sum|t_k|).  The terms after t_n add up to at most |t_n| r/(1-r) in
    modulus, r = |w| (1 + |a|/n) (1 + |b|/n) as in _short_2f1 (c + k
    >= k + 1), and each of their weights to at most |h_n| + eh_n +
    D/(n + l - 1): h_k - h_n sums (1-a)/((a+j)(j+1)) + (c-b)/((b+j)(c+j))
    over n <= j < k, each factor of a denominator is at least j + l with
    l = min(Re a, Re b, 1), so the sum is at most D sum 1/((j+l)(j+l-1)) =
    D/(n + l - 1) with D = |1-a| + |c-b|, once n + l > 1.  The rounding
    adds, per term, |t_k| times h_k's error, which grows by 8 eps per
    reciprocal and eps |h_{k+1}| a step, and (k rho + 2 eps) |t_k h_k|,
    rho as in _short_2f1, and n eps sum|t_k h_k| for the running sum."""
    rho = (5.0 if type(w) is float else 14.0) * _EPS
    aw, ma, mb = abs(w), abs(a), abs(b)
    low = min(a.real, b.real, 1.0) - 1.0
    spread = abs(1.0 - a) + abs(c - b)
    t, total = 1.0, h
    abs_h = abs(h)
    abs_sum, log_sum, weighted, err = 1.0, abs_h, 0.0, eh
    n = 0
    while n + 1 < cap:
        ak, bk, ck = a + n, b + n, c + n
        n += 1
        t = t * w * ak * bk / (ck * n)
        ia, ib = 1.0 / ak, 1.0 / bk
        h += (ia + ib) - (1.0 / n + 1.0 / ck)
        abs_t, abs_h = abs(t), abs(h)
        eh += _EPS * (8.0 * (abs(ia) + abs(ib) + 2.0 / n) + abs_h)
        total += t * h
        abs_sum += abs_t
        log_sum += abs_t * abs_h
        weighted += n * abs_t * abs_h
        err += abs_t * eh + (n * rho + 2.0 * _EPS) * abs_t * abs_h
        if n + low > 0.0:
            r = aw * (1.0 + ma / n) * (1.0 + mb / n)
            if r < 1.0:
                trunc = abs_t * r / (1.0 - r) * (abs_h + eh + spread / (n + low))
                if trunc <= _EPS * (log_sum + abs_sum):
                    return (total, trunc + err + n * _EPS * log_sum, n + 1,
                            abs_sum, weighted)
    return None


def _gauss_terms(a, b, c, w, log_w, cap: int):
    """The parts of DLMF 15.8.4,
        A F(a, b; 1-s; w) + w^s B F(c-a, c-b; 1+s; w),  w = 1 - z,
    for _connection_sum: e = s = c - a - b, A = Gamma(c) Gamma(s) /
    (Gamma(c-a) Gamma(c-b)) and B = Gamma(c) Gamma(-s) / (Gamma(a)
    Gamma(b)), each one gamma ratio over a numerator log sum that starts
    from the one log Gamma(c) (closed_forms.log_gamma_sum), and the two
    short sums with their truncation and rounding (_short_2f1); None when
    one runs past cap terms, or when s, -s, c - a or c - b, but for one of
    the last two of exactly 0, lies off the region where LOG_GAMMA_ENVELOPE
    was measured (within_envelope).  That puts s at least delta =
    ENVELOPE_POLE_DISTANCE = 1/32 from every integer, so an s near an
    integer but not exactly one stays direct.  c - a or c - b is 0 only
    for c equal to a or b, exactly: then A holds 1/Gamma(0) = 0, and the
    first part is returned as zero in zero terms, without its sum or its
    ratio.  The bound terms of this formula:
    - in the rate, LOG_GAMMA_ENVELOPE per log-gamma, 4 a term, and 8 eps
      for the exponentials of the log sums and the final products and sum;
    - to first order, the rounding of the derived parameters s, 1 -+ s,
      c - a and c - b, each off by at most h = 2 eps (|a| + |b| + |c| + 1):
      h (3 psi + |log w|) in the rate, for the gamma factors and the
      power, psi = ln(2 + max|argument|) + PSI_SLACK bounding the digamma
      function over the region, and h 3/delta sum k|t_k| in each sum's
      error, since every Pochhammer factor of their perturbed parameters
      is at least delta from 0.
    """
    s = c - a - b
    if not all(map(within_envelope, (s, -s, *filter(None, (c - a, c - b))))):
        return None
    zero = not (c - a and c - b)
    first = (0.0, 0.0, 0, 0.0) if zero else _short_2f1(a, b, 1.0 - s, w, cap)
    if first[2] is None:
        return None
    second = _short_2f1(c - a, c - b, 1.0 + s, w, cap - first[2])
    if second[2] is None:
        return None
    (f1, err1, n1, k1), (f2, err2, n2, k2) = first, second
    psi = math.log(2.0 + max(map(abs, (c, s, a, b, c - a, c - b)))) + PSI_SLACK
    h = 2.0 * _EPS * (abs(a) + abs(b) + abs(c) + 1.0)
    rate = 4.0 * LOG_GAMMA_ENVELOPE + 8.0 * _EPS + h * (3.0 * psi + abs(log_w))
    pole = 3.0 * h / ENVELOPE_POLE_DISTANCE
    log_c = log_gamma_sum((c,))
    ratio_1 = 0j if zero else gamma_quotient(log_gamma_sum((s,), log_c), (c - a, c - b))
    return (s, rate, (ratio_1, f1, err1 + pole * k1, n1),
            (gamma_quotient(log_gamma_sum((-s,), log_c), (a, b)), f2,
             err2 + pole * k2, n2))


def _log_terms(a, b, c, m: int, w, log_w, cap: int):
    """The parts of A&S 15.3.10-15.3.12 for s = c - a - b equal to the
    integer e = m, w = 1 - z, for _connection_sum.  With M = |m|,
    (p, q) = (a, b) and (P, Q) = (a + M, b + M) for m >= 0, (p, q) =
    (a - M, b - M) and (P, Q) = (a, b) for m < 0, the value is
    F + w^m L for m >= 0 and L + w^m F for m < 0, with
        F = (M-1)! Gamma(c) / (Gamma(P) Gamma(Q))
            sum_{k<M} (p)_k (q)_k / (k! (1-M)_k) w^k,   0 for M = 0,
        L = -(-1)^M Gamma(c) / (Gamma(p) Gamma(q) M!) sum_k t_k h_k,
    t_k the terms of 2F1(P, Q; M+1; w) and h_k = ln w - psi(k+1) -
    psi(k+M+1) + psi(P+k) + psi(Q+k): digamma gives psi(P) and psi(Q),
    -psi(1) - psi(M+1) is 2 gamma - H_M, and _log_2f1 steps h_k.  F's sum
    is _short_2f1 capped at M terms.  L's factor is exactly 0 when
    Gamma(p) or Gamma(q) is at a pole (2F1(M, b; b; z) = w^-M), and then
    L is 0 without its sum or digamma; for m < 0 that is a + m = c - b of
    exactly 0.  Both factors divide the one log Gamma(c)
    (closed_forms.gamma_quotient).  None when M reaches cap, when the log
    sum runs past cap terms, or when a + m or b + m, unless exactly 0, lies
    off the region where LOG_GAMMA_ENVELOPE and DIGAMMA_ENVELOPE were
    measured (within_envelope).  The bound terms of this formula:
    - h_0's error, 2 DIGAMMA_ENVELOPE for digamma and 6 eps (|ln w| + 1 +
      H_M + |psi(P)| + |psi(Q)|) for the roundings of ln w, H_M, gamma and
      the sum, which _log_2f1 counts times sum|t_k| in L's error;
    - in the rate, LOG_GAMMA_ENVELOPE per log-gamma, 3 a term, and 10 eps
      for the factorials, the exponentials of the log sums and the final
      products and sum;
    - to first order, the rounding of a + m and b + m, taken exactly
      (TwoSum) as d: d psi in the rate, for the gamma factors, psi as in
      _gauss_terms; d/delta sum k|t_k| in F's error and d/delta
      sum k|t_k h_k| in L's, for the Pochhammer symbols; and
      d TRIGAMMA_BOUND sum|t_k| in L's, for psi(P+k) and psi(Q+k).
    """
    big = abs(m)
    shifted = a + m, b + m
    if big >= cap or not all(map(within_envelope, filter(None, shifted))):
        return None
    (p, q), (P, Q) = ((a, b), shifted) if m >= 0 else (shifted, (a, b))
    # the rounding of a + m and b + m, exactly
    d = abs(two_sum(a.real, m)[1]) + abs(two_sum(b.real, m)[1])
    psi = math.log(2.0 + max(map(abs, (c, p, q, P, Q)))) + PSI_SLACK
    rate = 3.0 * LOG_GAMMA_ENVELOPE + 10.0 * _EPS + d * psi
    sign = 1.0 if big % 2 else -1.0
    log_c = log_gamma_sum((c,))
    ratio = sign * gamma_quotient(log_c, (p, q)) / math.factorial(big)
    log_part = (ratio, 0.0, 0.0, 0)
    if ratio:
        psi_1, psi_2 = digamma(P), digamma(Q)
        if type(w) is float:
            psi_1, psi_2 = psi_1.real, psi_2.real
        harmonic = math.fsum(1.0 / j for j in range(1, big + 1))
        h = log_w + (psi_1 + psi_2) + (2.0 * EULER_GAMMA - harmonic)
        eh = 2.0 * DIGAMMA_ENVELOPE + 6.0 * _EPS * (abs(log_w) + 1.0 + harmonic
                                                    + abs(psi_1) + abs(psi_2))
        found = _log_2f1(P, Q, big + 1.0, w, h, eh, cap - big)
        if found is None:
            return None
        f, err, n, abs_sum, k = found
        log_part = (ratio, f, err + d * (k / ENVELOPE_POLE_DISTANCE
                                         + TRIGAMMA_BOUND * abs_sum), n)
    finite = (0.0, 0.0, 0.0, 0)
    if big:
        f, err, _, k = _short_2f1(p, q, 1.0 - big, w, big)
        finite = (math.factorial(big - 1) * gamma_quotient(log_c, (P, Q)), f,
                  err + d / ENVELOPE_POLE_DISTANCE * k, big)
    return (m, rate) + ((finite, log_part) if m >= 0 else (log_part, finite))


def _connection_sum(spec: SeriesSpec, policy: SumPolicy) -> SumResult | None:
    """2F1(a, b; c; z) for |1 - z| < CONNECTION_RADIUS by a 1 - z
    connection formula: DLMF 15.8.4 (_gauss_terms) when s = c - a - b is
    not an integer, A&S 15.3.10-15.3.12 (_log_terms) when it is one
    exactly at the binary64 parameters; None, so that sum_pfq sums
    directly, for |1 - z| >= CONNECTION_RADIUS or unless the formula's
    bound meets the tolerance by _direct_sum's test.

    A 1F0(a;;z) = (1 - z)^-a is taken as 2F1(a, b; b; z), equal to it for
    every b, with b = a + 1: c - b = 0, so 15.8.4's first part is 0
    (_gauss_terms) and its second the polynomial F(1, 0; 1+s; w) = 1, and
    a positive integer a takes the finite part of A&S 15.3.12 alone.  The
    padded parameters never form a SeriesSpec, whose lower-pole guard
    would refuse an a + 1 within 1e-9 of a non-positive integer.  An a
    within 1/32 of an integer, unless exactly a positive one, puts a,
    a + 1 or s = -a off the envelope and stays direct.  Other pads answer
    less often: b = 1/2 puts every half-integer a at a pole of 1/2 - a,
    and b = 1 every integer a >= 2 at one of 1 - a.

    a, b and c must lie where LOG_GAMMA_ENVELOPE and DIGAMMA_ENVELOPE
    were measured (within_envelope); each formula checks its other gamma
    and digamma arguments.  A real spec, z < 1, sums in floats and returns
    the real part of the combination.

    A formula returns what is its own: the exponent e of w = 1 - z, a
    rate, and two parts, each a gamma factor F_i, a sum S_i, that sum's
    error and its terms, the second part the one that w^e multiplies;
    each error already holds the sum's share of the derived-parameter
    rounding, and the rate the bound per unit of |T1| + |T2| of the gamma
    factors and that rounding.  This function combines them:
    T1 = F_1 S_1 and T2 = w^e F_2 S_2 with w^e = exp(e ln w) (None when
    it overflows), the value T1 + T2 and the bound
        |F_1| err_1 + |w^e F_2| err_2 + rate (|T1| + |T2|)
        + 4 eps (|e| (|ln w| + 1) + 1) |T2|,
    the last the rounding of w^e.
    """
    z = spec.argument
    if abs(1.0 - z) >= CONNECTION_RADIUS:
        return None
    if spec.lower:
        (a, b), (c,) = spec.upper, spec.lower
    else:               # 1F0(a;;z) = 2F1(a, b; b; z), padded with b = a + 1
        (a,) = spec.upper
        b = c = a + 1.0
    if not (within_envelope(a) and within_envelope(b) and within_envelope(c)):
        return None
    s = c - a - b
    m = round(s.real)
    # fsum rounds the exact sum once, so it is 0 only when s is exactly m
    degenerate = (math.fsum((c.real, -a.real, -b.real, -m)) == 0.0
                  and math.fsum((c.imag, -a.imag, -b.imag)) == 0.0)
    w = 1.0 - z
    real = not (a.imag or b.imag or c.imag or w.imag)
    if real:
        a, b, c, w = a.real, b.real, c.real, w.real
    log_w = math.log(w) if real else cmath.log(w)
    parts = (_log_terms(a, b, c, m, w, log_w, policy.max_terms) if degenerate
             else _gauss_terms(a, b, c, w, log_w, policy.max_terms))
    if parts is None:
        return None
    e, rate, (ratio_1, f1, err1, n1), (ratio_2, f2, err2, n2) = parts
    try:
        power = math.exp(e * log_w) if real else cmath.exp(e * log_w)
    except OverflowError:
        return None
    if real:
        ratio_1, ratio_2 = ratio_1.real, ratio_2.real
    ratio_2 *= power
    t1, t2 = ratio_1 * f1, ratio_2 * f2
    value = t1 + t2
    bound = (abs(ratio_1) * err1 + abs(ratio_2) * err2 + rate * (abs(t1) + abs(t2))
             + 4.0 * _EPS * (abs(e) * (abs(log_w) + 1.0) + 1.0) * abs(t2))
    # a term beyond binary64 makes the bound inf, which the second test
    # alone would pass against an infinite value
    if bound <= policy.tolerance or bound <= policy.tolerance * abs(value) < math.inf:
        return SumResult(complex(value), n1 + n2, bound, SumStatus.CONVERGED)
    return None


def sum_pfq_unit(spec: SeriesSpec, policy: SumPolicy = SumPolicy()) -> SumResult:
    """sum_pfq for an argument of exactly z = 1; ValueError for any other."""
    if as_type(spec, SeriesSpec, "spec").argument != 1.0 + 0.0j:
        raise ValueError("sum_pfq_unit requires argument z = 1")
    return sum_pfq(spec, policy)


def sum_pfq(spec: SeriesSpec, policy: SumPolicy = SumPolicy()) -> SumResult:
    """Evaluate pFq(upper; lower; z) to the policy tolerance.

    A polynomial, or a series with p <= q, is summed directly at every z.
    Only a p = q+1 series that does not terminate is routed by its
    argument: at z = 1 by s = Re(sum(lower) - sum(upper)), where s <= 0
    returns status Divergent without summing and s > 0 sums a head of
    terms plus an asymptotic tail (_unit_sum); DivergentError for
    |z| > 1; ValueError for |z| = 1 off z = 1; a direct sum for |z| < 1,
    after _connection_sum for a 2F1 or 1F0 near z = 1.  ValueError for a
    spec that is not a SeriesSpec or a policy that is not a SumPolicy.
    """
    as_type(spec, SeriesSpec, "spec")
    as_type(policy, SumPolicy, "policy")
    if len(spec.upper) > len(spec.lower) and spec.truncation_degree() is None:
        if spec.argument == 1.0:
            if spec.convergence_parameter() <= 0.0:
                return SumResult(0.0 + 0.0j, 0, math.inf, SumStatus.DIVERGENT)
            return _unit_sum(spec, policy)
        r = abs(spec.argument)
        if r > 1.0:
            raise DivergentError(f"p = q+1 series diverges for |z| = {r} > 1")
        if r == 1.0:
            raise ValueError("unit-modulus arguments other than z = 1 are not supported")
        if len(spec.upper) <= 2:
            result = _connection_sum(spec, policy)
            if result is not None:
                return result
    return _direct_sum(spec, policy)
