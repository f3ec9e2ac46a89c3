"""Numerical summation of generalized hypergeometric series.

sum_pfq evaluates pFq(upper; lower; z) by direct term recurrence
(t_{n+1}/t_n = z * prod(upper_j + n) / (prod(lower_k + n) * (n + 1))).
sum_pfq holds the one rule that routes every spec: a polynomial (an upper
parameter exactly at a non-positive integer, not merely near one; see
truncation_degree()) is summed directly at every z and ends at its last
term, and only a series that does not terminate is checked for divergence
(p > q+1 refused for z != 0, p = q+1 for |z| > 1 and |z| = 1 off 1).
The direct sum keeps only the current term, in floats for a real spec with
the bits of complex arithmetic (see _direct_sum).  At unit argument a
non-polynomial p = q+1 series converges only algebraically (term magnitudes
~ n^{-1-s} with s = Re(sum(lower) - sum(upper))), so sum_pfq sums a head of
terms and adds the rest from the terms' asymptotic expansion (see
_unit_sum), that tail in floats for conjugate pairs (_asymptotic_tail).
levin_accelerate, a Levin u-transform evaluated exactly in integers (see
_levin_orders), is public but no summation route uses it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb

from .complex_gamma import nearest_nonpositive_int
from .errors import DivergentError, InsufficientTermsError, PoleError, RangeError

_EPS = 2.220446049250313e-16

# Lower parameters this near a non-positive integer are taken as poles.
NEAR_INT_TOLERANCE = 1e-9

LEVIN_MAX_ORDER = 20


class SumStatus(Enum):
    CONVERGED = "Converged"
    TRUNCATED = "Truncated"
    MAX_TERMS_EXCEEDED = "MaxTermsExceeded"
    DIVERGENT = "Divergent"


class SeriesSpec(namedtuple("SeriesSpec", "upper lower argument")):
    """One pFq evaluation, a named tuple of upper parameters, lower parameters
    and argument, coerced to complex and checked by the constructor, _replace
    and _make: p > q+1 is refused unless the series terminates or z = 0."""

    __slots__ = ()

    def __new__(cls, upper, lower, argument):
        self = super().__new__(cls, tuple(complex(a) for a in upper),
                               tuple(complex(b) for b in lower), complex(argument))
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
        """The smallest -a over upper parameters a with zero imaginary part
        and a real part that is a non-positive integer (the series is then a
        polynomial of that degree); None when no upper parameter truncates."""
        return min((-int(a.real) for a in self.upper
                    if a.imag == 0.0 and a.real <= 0.0 and a.real.is_integer()),
                   default=None)

    def convergence_parameter(self) -> float:
        """s = Re(sum(lower) - sum(upper)); at z=1 a p = q+1 series converges
        iff s > 0."""
        return (sum(self.lower) - sum(self.upper)).real


class SumPolicy(namedtuple("SumPolicy", "tolerance max_terms")):
    """Summation tolerance and term budget, a named tuple; SumPolicy() holds
    the defaults.  The constructor, _replace and _make refuse a tolerance
    below 1e-15 or not finite and a max_terms that is not an int >= 10."""

    __slots__ = ()

    def __new__(cls, tolerance: float = 1e-13, max_terms: int = 10**6):
        if not (1e-15 <= tolerance < math.inf):
            raise ValueError("tolerance must be finite and >= 1e-15")
        if type(max_terms) is not int or max_terms < 10:
            raise ValueError("max_terms must be an int >= 10")
        return super().__new__(cls, tolerance, max_terms)

    _make = classmethod(lambda cls, fields: cls(*fields))


SumResult = namedtuple("SumResult", "value terms_used tail_estimate status")


def _observed_tail(abs_t: float, prev_abs: float) -> float:
    """|t_n| / (1 - r): the geometric tail at the observed ratio
    r = |t_n / t_{n-1}| capped at 0.99, or at r = 0 when prev_abs is 0."""
    ratio = min(abs_t / prev_abs, 0.99) if prev_abs > 0.0 else 0.0
    return abs_t / (1.0 - ratio)


def _direct_sum(spec: SeriesSpec, policy: SumPolicy) -> SumResult:
    """Plain term-by-term accumulation; used for every spec but a p = q+1
    series at z = 1 that does not terminate.

    No term is stored: one loop keeps the current term and steps it to the
    next, so memory does not grow with the number of terms.  A spec whose
    argument and parameters all have zero imaginary part is summed in
    floats, any other in complex arithmetic.  CPython's complex * and / on
    numbers with zero imaginary parts perform the very float operations the
    float loop performs on the real parts, so the float sum has the bits of
    the complex one.  The tail estimate is worked out only at the exits that
    report it; a polynomial returns at its last term with tail 0, since the
    term after it, zero by construction, is never formed.

    A denominator product at the binary64 limit, one with a part of 2^1023
    or more so that 2 * den is not finite, can make the next term 0 or NaN:
    float division by inf gives 0, and complex division scales by
    |den|^2 / max(|Re den|, |Im den|), which then overflows.  No value
    summed past it can be trusted, so RangeError is raised for a zero term
    or a polynomial's last term after such a denominator, and for a
    denominator that underflows to 0.
    """
    upper, lower, z = spec.upper, spec.lower, spec.argument
    isfinite = cmath.isfinite
    if z.imag == 0.0 and all(c.imag == 0.0 for c in upper + lower):
        upper = tuple(a.real for a in upper)
        lower = tuple(b.real for b in lower)
        z = z.real
        isfinite = math.isfinite
    tol = policy.tolerance
    last = policy.max_terms - 1
    trunc = spec.truncation_degree()
    if trunc is None:
        trunc = -1
    total = 0.0
    t = 1.0
    den = 1.0
    prev_abs = 0.0
    small_streak = 0
    n = 0
    try:
        while True:
            total += t
            if not isfinite(total):
                raise RangeError("series accumulation overflowed binary64")
            if n == trunc:
                if not isfinite(2.0 * den):
                    raise RangeError(f"term {n}: denominator at the binary64 limit")
                # polynomial case: the remaining terms vanish
                return SumResult(complex(total), n + 1, 0.0, SumStatus.TRUNCATED)
            abs_t = abs(t)
            if abs_t <= tol or abs_t <= tol * abs(total):
                if not abs_t and not isfinite(2.0 * den):
                    raise RangeError(f"term {n}: denominator at the binary64 limit")
                small_streak += 1
                if small_streak >= 2:
                    # _observed_tail inline; the ratio may be inf, never NaN
                    ratio = abs_t / prev_abs if prev_abs > 0.0 else 0.0
                    tail = abs_t / (1.0 - (ratio if ratio < 0.99 else 0.99))
                    if tail <= tol or tail <= tol * abs(total):
                        return SumResult(complex(total), n + 1, tail,
                                         SumStatus.CONVERGED)
            else:
                small_streak = 0
            if n >= last:
                return SumResult(complex(total), n + 1,
                                 _observed_tail(abs_t, prev_abs),
                                 SumStatus.MAX_TERMS_EXCEEDED)
            prev_abs = abs_t
            num = 1.0
            for a in upper:
                num *= a + n
            den = n + 1
            for b in lower:
                den *= b + n
            t = t * z * num / den
            n += 1
    except ZeroDivisionError:
        raise RangeError(f"term {n + 1}: denominator underflowed to 0") from None


# ----------------------------------------------------------------------
# Levin u-transform, exact-integer kernel
# ----------------------------------------------------------------------

def _gauss_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


@lru_cache(maxsize=64)
def _levin_weights(beta: int) -> tuple[tuple[int, ...], ...]:
    """Integer weights of orders 1..LEVIN_MAX_ORDER at this beta: row k holds
    v_kj = (-1)^j C(k, j) (beta+j)^(k-2) for j = 0..k, and row 1, whose
    exponent is -1, is scaled by beta (beta+1) to (beta+1, -beta)."""
    rows = [(beta + 1, -beta)]
    for k in range(2, LEVIN_MAX_ORDER + 1):
        rows.append(tuple((-1) ** j * comb(k, j) * (beta + j) ** (k - 2)
                          for j in range(k + 1)))
    return tuple(rows)


def _levin_orders(terms: list[complex], beta: int) -> list[complex]:
    """u-transform values for orders 1..LEVIN_MAX_ORDER on a term window,
    computed exactly in integers; RangeError when an order lies beyond the
    binary64 range.  Every term must be nonzero, since the remainder
    estimates omega_j = (beta+j) t_j divide; callers refuse a zero term.

    Every binary64 part is dyadic, so with one common power of two D each
    term is a Gaussian integer m_j / D.  Scaling S_j/omega_j and 1/omega_j by
    the common factor prod_i m_i / D leaves, with R_j = prod_{i != j} m_i,
    M_j the partial sums of the m_j and the weights v_kj of _levin_weights
    (which absorb the 1/(beta+j), so the long products carry no beta),
        u_k = sum_j v_kj M_j R_j / (D sum_j v_kj R_j).
    Each part of u_k is one correctly rounded int / int over D |den|^2, and
    an order whose denominator is 0 is skipped.  A real window has ni = di
    = 0, so its real part is the rational nr / (D dr) and its imaginary part
    +0.0.
    """
    rows = _levin_weights(beta)[:len(terms) - 1]
    parts = [(t.real.as_integer_ratio(), t.imag.as_integer_ratio()) for t in terms]
    scale = max(max(da, db) for (_, da), (_, db) in parts)
    m = [(a * (scale // da), b * (scale // db)) for (a, da), (b, db) in parts]
    prefix = [(1, 0)]
    for x in m[:-1]:
        prefix.append(_gauss_mul(prefix[-1], x))
    r = [(0, 0)] * len(m)
    suffix = (1, 0)
    for j in reversed(range(len(m))):
        r[j] = _gauss_mul(prefix[j], suffix)
        suffix = _gauss_mul(suffix, m[j])
    mr = []
    sr = si = 0
    for (a, b), rj in zip(m, r):
        sr += a
        si += b
        mr.append(_gauss_mul((sr, si), rj))
    out: list[complex] = []
    try:
        for row in rows:
            nr = ni = dr = di = 0
            for v, (ar, ai), (br, bi) in zip(row, mr, r):
                nr += v * ar
                ni += v * ai
                dr += v * br
                di += v * bi
            norm = scale * (dr * dr + di * di)
            if norm:
                out.append(complex((nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm))
    except OverflowError:
        raise RangeError("a Levin order lies beyond the binary64 range") from None
    return out


def _pick_transform(values: list[complex]) -> tuple[complex, float] | None:
    """Select the transform order whose two trailing consecutive differences
    are jointly smallest.  A single spuriously small difference between two
    equally wrong orders cannot pass this two-difference consistency check.
    Each difference is formed once; on equal scores the lowest order wins."""
    if len(values) < 3:
        return None
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    best_score, best_value = max(diffs[1], diffs[0]), values[2]
    for value, d1, d0 in zip(values[3:], diffs[2:], diffs[1:]):
        score = max(d1, d0)
        if score < best_score:
            best_score, best_value = score, value
    return best_value, best_score


def levin_accelerate(terms) -> tuple[complex, float]:
    """Levin u-transform estimate of sum(terms + tail), at beta = 1 and
    orders up to LEVIN_MAX_ORDER.

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
    picked = _pick_transform(_levin_orders(terms, 1))
    if picked is None:
        raise InsufficientTermsError("levin_accelerate: too few usable orders")
    value, err = picked
    return value, max(err, 4.0 * _EPS * abs(value))


# ----------------------------------------------------------------------
# unit argument: a head of terms plus an asymptotic tail
# ----------------------------------------------------------------------

_ORDERS = 12                # K, the orders of the term expansion in 1/n
# B_0 .. B_16 as (numerator, denominator), with B_1 = -1/2
_BERNOULLI = ((1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42),
              (0, 1), (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730),
              (0, 1), (7, 6), (0, 1), (-3617, 510))


@lru_cache(maxsize=1)
def _tail_weights() -> tuple[tuple[tuple[float, ...], ...],
                             tuple[tuple[float, float, float], ...]]:
    """The weights of _asymptotic_tail, made on first use: rows[k-1][j] =
    (-1)^(k+1) C(k+1, j) B_j / (k (k+1)) for k = 1..K+1, and the triples
    (B_2j / (2j)!, 2j - 1, 2j), the integers as floats: sigma + 3.0 has
    the bits of sigma + 3, and float + float skips a conversion."""
    rows = tuple(tuple((-1) ** (k + 1) * comb(k + 1, j) * p / (q * k * (k + 1))
                       for j, (p, q) in enumerate(_BERNOULLI[:k + 1]))
                 for k in range(1, _ORDERS + 2))
    return rows, tuple((p / (q * math.factorial(j)), j - 1.0, float(j))
                       for j, (p, q) in enumerate(_BERNOULLI) if j and not j % 2)


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
    pairs, with the bits of complex arithmetic (see _direct_sum), and sums
    by explicit left-to-right loops from 0, as sum() did up to Python 3.11
    (3.12 compensates).
    """
    rows, euler = _tail_weights()
    lower = lower + (1.0,)
    try:
        powers = []
        for m in range(1, _ORDERS + 3):
            up = low = 0
            for a in upper:
                up += a ** m
            for b in lower:
                low += b ** m
            powers.append(up - low)
        if not any(p.imag for p in powers):
            powers = [p.real for p in powers]
        g = []
        for k, row in enumerate(rows):          # g_{k+1} from P_{k+2} .. P_1
            acc = 0
            for w, p in zip(row, powers[k + 1::-1]):
                acc += w * p
            g.append(acc)
        kg = [k * gk for k, gk in enumerate(g, 1)]
        d = [1.0]
        for m in range(1, _ORDERS + 1):
            acc = 0
            for x, y in zip(kg, d[::-1]):       # k g_k d_{m-k}, k = 1 .. m
                acc += x * y
            d.append(acc / m)
        inv = 1.0 / n
        norm = whole = 0
        weight = part = rest = 0.0
        for m, dm in enumerate(d):
            sigma = m - powers[0]
            prev_weight, prev_part = weight, part
            weight = dm * inv ** m
            z = n / (sigma - 1.0) + 0.5
            rising = sigma * inv                # (sigma)_{2j-1} n^(1-2j)
            for c, lo, hi in euler:
                last = c * rising
                z += last
                rising *= (sigma + lo) * (sigma + hi) * inv * inv
            part = weight * z
            norm += weight
            whole += part
            rest += abs(weight * last)
        ratio = t / norm
        tail = ratio * whole
        estimate = (abs(ratio) * (abs(part) + abs(prev_part) + rest)
                    + ((abs(weight) + abs(prev_weight)) / abs(norm)
                       + abs(g[-1]) * inv ** (_ORDERS + 1)) * abs(tail))
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


def _unit_sum(spec: SeriesSpec, policy: SumPolicy) -> SumResult:
    """A p = q+1 series at z = 1 with s > 0: the head t_0 .. t_{N-1} plus
    the asymptotic tail from t_N, N = max(40, ceil(8 max|parameter|))
    capped at max_terms - 1; a capped N never gives Converged.

    The head is summed with TwoSum, its errors added back at the end, and
    term n counts as off by n rho relative, rho bounding the rounding of
    one step.  The estimate adds that, the compensated sum's own bound
    (Ogita, Rump and Oishi 2005), the tail's estimate and (N+K) rho |tail|.
    A term that is not finite, or a denominator or partial sum out of the
    binary64 range, raises RangeError, as does a term that underflows to 0
    unless the terms cannot grow again (_terms_stay_below): then the sum
    ends there, with 5e-324 (1 + n/s) for the rest and no cap on N.
    """
    upper, lower = spec.upper, spec.lower
    p, q = len(upper), len(lower)
    want = 8.0 * max(math.hypot(c.real, c.imag) for c in upper + lower)
    size = max(40, math.ceil(min(want, 2.0 ** 62)))
    capped = size >= policy.max_terms
    size = min(size, policy.max_terms - 1)
    # p+q additions, p+q+1 products and a division per step, at eps/2 each
    # for real parameters and at eps/2, sqrt(5) eps/2 and 4 eps for complex
    rho = (2 * (p + q) + 6 if any(c.imag for c in upper + lower) else p + q + 1) * _EPS
    spread = (size * _EPS) ** 2
    isfinite = cmath.isfinite
    total = comp = 0.0 + 0.0j
    t, err = 1.0 + 0.0j, 0.0
    try:
        for n in range(size):
            partial = total + t
            back = partial - total
            comp += (total - (partial - back)) + (t - back)
            total = partial
            err += (n * rho + spread) * abs(t)
            num = 1.0 + 0.0j
            for a in upper:
                num *= a + n
            den = (n + 1) + 0.0j
            for b in lower:
                den *= b + n
            t = t * num / den
            if not t:
                # a true underflow: num is not 0, and den, at least 1, has
                # not lifted a product that underflowed
                if not (num and 1.0 <= abs(den) < math.inf
                        and _terms_stay_below(spec, n + 1)):
                    raise RangeError(f"term {n + 1}: underflowed to 0")
                size, capped = n + 1, False
                tail, estimate = 0.0, 5e-324 * (1.0 + size / spec.convergence_parameter())
                break
            if not isfinite(t):
                raise RangeError(f"term {n + 1}: not finite")
        else:
            tail, estimate = _asymptotic_tail(upper, lower, size, t)
            estimate += (size + _ORDERS) * rho * abs(tail)
    except ZeroDivisionError:
        raise RangeError(f"term {n + 1}: denominator underflowed to 0") from None
    except OverflowError:
        raise RangeError("series accumulation overflowed binary64") from None
    if not isfinite(total):
        raise RangeError("series accumulation overflowed binary64")
    value = total + (comp + tail)
    estimate += err + _EPS * (abs(value) + abs(tail))
    if not capped and estimate <= policy.tolerance * max(1.0, abs(value)):
        return SumResult(value, size + 1, estimate, SumStatus.CONVERGED)
    return SumResult(value, size + 1, estimate, SumStatus.MAX_TERMS_EXCEEDED)


def sum_pfq_unit(spec: SeriesSpec, policy: SumPolicy = SumPolicy()) -> SumResult:
    """sum_pfq for an argument of exactly z = 1; ValueError for any other."""
    if spec.argument != 1.0 + 0.0j:
        raise ValueError("sum_pfq_unit requires argument z = 1")
    return sum_pfq(spec, policy)


def sum_pfq(spec: SeriesSpec, policy: SumPolicy = SumPolicy()) -> SumResult:
    """Evaluate pFq(upper; lower; z) to the policy tolerance.

    A polynomial, or a series with p <= q, is summed directly at every z.
    Only a p = q+1 series that does not terminate is routed by its
    argument: at z = 1 by s = Re(sum(lower) - sum(upper)), where s <= 0
    returns status Divergent without summing and s > 0 sums a head of
    terms plus an asymptotic tail (_unit_sum); DivergentError for
    |z| > 1; ValueError for |z| = 1 off z = 1; a direct sum for |z| < 1.
    """
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
    return _direct_sum(spec, policy)
