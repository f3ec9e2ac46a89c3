"""Shared oracles and sampling helpers.

Expected values in these tests are computed from routes independent of the
code under test: exponentials of pi multiples, exact Fraction arithmetic,
Euler-Maclaurin tail sums.  Random property tests use seeded generators so
every run exercises the same sample.
"""

import cmath
import math
import random
from functools import reduce
from operator import add

import pytest

from gelfond import (
    ConvergenceDomainError,
    PoleError,
    RangeError,
    SeriesSpec,
    SumResult,
    SumStatus,
    closed_forms,
    complex_gamma,
    identities,
    series,
    sum_pfq,
)

E_PI = math.exp(math.pi)
E_MINUS_PI = math.exp(-math.pi)
E_HALF_PI = math.exp(math.pi / 2)
E_MINUS_HALF_PI = math.exp(-math.pi / 2)
COSH_PI = (E_PI + E_MINUS_PI) / 2
SINH_PI = (E_PI - E_MINUS_PI) / 2
COSH_HALF_PI = (E_HALF_PI + E_MINUS_HALF_PI) / 2
SINH_HALF_PI = (E_HALF_PI - E_MINUS_HALF_PI) / 2


def rel_err(value, reference) -> float:
    return abs(value - reference) / abs(reference)


def corollary_d(kind: str, n: int, printed: bool = False) -> tuple:
    """The exact (d1, d2) at n of the identities.COROLLARIES row of family
    kind with this printed flag, the row the registry and corollary_case
    take."""
    (row,) = [r for r in identities.COROLLARIES if (r.kind, r.printed) == (kind, printed)]
    return row.d(n)


def reduced_3f2(a, b, c, d, z) -> complex:
    """3F2(a, b, d+1; c, d; z) from two 2F1 sums: (d+1)_n / (d)_n = 1 + n/d
    splits it as 2F1(a, b; c; z) + (a b z / (d c)) 2F1(a+1, b+1; c+1; z)."""
    first = sum_pfq(SeriesSpec((a, b), (c,), z)).value
    second = sum_pfq(SeriesSpec((a + 1, b + 1), (c + 1,), z)).value
    return first + a * b * z / (d * c) * second


def reference_direct_sum(spec, policy) -> SumResult:
    """Direct summation as it stood before the one-loop rewrite: every term
    kept in a list, complex arithmetic throughout, the ratio and tail worked
    out on every term.  series._direct_sum must return a repr-equal result,
    or raise the same exception, on every input whose denominator products
    stay below the binary64 limit; past it the reference sums spurious 0
    terms where series._direct_sum raises RangeError."""
    upper, lower, z = spec.upper, spec.lower, spec.argument
    terms = [1.0 + 0.0j]

    def extend(count):
        n = len(terms) - 1
        t = terms[-1]
        while len(terms) < count:
            num = 1.0 + 0.0j
            for a in upper:
                num *= a + n
            den = (n + 1) + 0.0j
            for b in lower:
                den *= b + n
            t = t * z * num / den
            terms.append(t)
            n += 1

    tol = policy.tolerance
    trunc = spec.truncation_degree()
    total = 0.0 + 0.0j
    small_streak = 0
    n = 0
    ratio = 0.0
    prev_abs = 1.0
    while True:
        extend(n + 1)
        t = terms[n]
        total += t
        if not cmath.isfinite(total):
            raise RangeError("series accumulation overflowed binary64")
        if trunc is not None and n >= trunc:
            extend(n + 2)
            tail = abs(terms[n + 1])
            return SumResult(total, n + 1, tail, SumStatus.TRUNCATED)
        abs_t = abs(t)
        if n > 0:
            ratio = min(max(abs_t / prev_abs if prev_abs > 0.0 else 0.0, 0.0), 0.99)
        prev_abs = abs_t
        tail = abs_t / (1.0 - ratio)
        scale = max(1.0, abs(total))
        if abs_t <= tol * scale:
            small_streak += 1
            if small_streak >= 2 and tail <= tol * scale:
                return SumResult(total, n + 1, tail, SumStatus.CONVERGED)
        else:
            small_streak = 0
        n += 1
        if n >= policy.max_terms:
            return SumResult(total, n, tail, SumStatus.MAX_TERMS_EXCEEDED)


def reference_asymptotic_tail(upper, lower, n, t) -> tuple[complex, float]:
    """series._asymptotic_tail as it stood before its float path: complex
    arithmetic throughout, P_0 formed though nothing reads it, and every sum
    a left-to-right fold from 0, as sum() adds up to Python 3.11.  The series
    version must give a repr-equal (tail, estimate) for every input."""
    rows, euler = series._tail_weights()
    orders = series._ORDERS
    try:
        powers = [reduce(add, (a ** m for a in upper), 0)
                  - reduce(add, (b ** m for b in lower + (1.0,)), 0)
                  for m in range(orders + 3)]
        g = [reduce(add, (w * powers[k + 1 - j] for j, w in enumerate(row)), 0)
             for k, row in enumerate(rows, 1)]
        d = [1.0 + 0.0j]
        for m in range(1, orders + 1):
            d.append(reduce(add, (k * g[k - 1] * d[m - k]
                                  for k in range(1, m + 1)), 0) / m)
        inv = 1.0 / n
        weights, parts, rest = [], [], 0.0
        for m, dm in enumerate(d):
            sigma = m - powers[1]
            weights.append(dm * inv ** m)
            z = n / (sigma - 1.0) + 0.5
            rising = sigma * inv
            for j, (c, _, _) in enumerate(euler, 1):
                last = c * rising
                z += last
                rising *= (sigma + (2 * j - 1)) * (sigma + 2 * j) * inv * inv
            parts.append(weights[-1] * z)
            rest += abs(weights[-1] * last)
        norm = reduce(add, weights, 0)
        ratio = t / norm
        tail = ratio * reduce(add, parts, 0)
        estimate = (abs(ratio) * (abs(parts[-1]) + abs(parts[-2]) + rest)
                    + ((abs(weights[-1]) + abs(weights[-2])) / abs(norm)
                       + abs(g[-1]) * inv ** (orders + 1)) * abs(tail))
    except (OverflowError, ZeroDivisionError):
        return 0.0, math.inf
    finite = cmath.isfinite(tail) and math.isfinite(estimate)
    return (tail, estimate) if finite else (0.0, math.inf)


def reference_unit_sum(spec, policy) -> SumResult:
    """series._unit_sum as it stood before its head bound cmath.isfinite to
    a local and tested a zero term first, with reference_asymptotic_tail
    for its tail.  series._unit_sum must return a repr-equal result, or
    raise the same exception and message, for every input but one whose
    complex head ends at a term of modulus beyond binary64, which
    series._unit_sum refuses (test_complex_head_refuses_a_last_term_beyond_binary64)."""
    upper, lower = spec.upper, spec.lower
    p, q = len(upper), len(lower)
    want = 8.0 * max(math.hypot(c.real, c.imag) for c in upper + lower)
    size = max(40, math.ceil(min(want, 2.0 ** 62)))
    capped = size >= policy.max_terms
    size = min(size, policy.max_terms - 1)
    rho = (2 * (p + q) + 6 if any(c.imag for c in upper + lower) else p + q + 1) * series._EPS
    spread = (size * series._EPS) ** 2
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
            if not cmath.isfinite(t):
                raise RangeError(f"term {n + 1}: not finite")
            if not t:
                if not (num and 1.0 <= abs(den) < math.inf
                        and series._terms_stay_below(spec, n + 1)):
                    raise RangeError(f"term {n + 1}: underflowed to 0")
                size, capped = n + 1, False
                tail, estimate = 0.0, 5e-324 * (1.0 + size / spec.convergence_parameter())
                break
        else:
            tail, estimate = reference_asymptotic_tail(upper, lower, size, t)
            estimate += (size + series._ORDERS) * rho * abs(tail)
    except ZeroDivisionError:
        raise RangeError(f"term {n + 1}: denominator underflowed to 0") from None
    except OverflowError:
        raise RangeError("series accumulation overflowed binary64") from None
    if not cmath.isfinite(total):
        raise RangeError("series accumulation overflowed binary64")
    value = total + (comp + tail)
    estimate += err + series._EPS * (abs(value) + abs(tail))
    if not capped and estimate <= policy.tolerance * max(1.0, abs(value)):
        return SumResult(value, size + 1, estimate, SumStatus.CONVERGED)
    return SumResult(value, size + 1, estimate, SumStatus.MAX_TERMS_EXCEEDED)


def outcome(f, *args) -> tuple[str, str]:
    """("value", repr of f(*args)), or f's exception's name and message."""
    try:
        return "value", repr(f(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def log_gamma_calls(monkeypatch) -> list:
    """The arguments of every closed_forms.log_gamma call the test makes."""
    calls = []
    log_gamma = closed_forms.log_gamma

    def counted(z):
        calls.append(z)
        return log_gamma(z)
    monkeypatch.setattr(closed_forms, "log_gamma", counted)
    return calls


# Lanczos g = 7, 9 coefficients (Godfrey's set, widely published): the data
# of reference_log_gamma, and what log_gamma's literals must be
LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def reference_log_gamma(z) -> complex:
    """complex_gamma.log_gamma as it stood before its Lanczos sum looped over
    (coefficient, k) pairs: an index loop over LANCZOS_COEF from
    complex(LANCZOS_COEF[0]), with float constants left of complex
    operands (the real parts of _LOG_PI and _LOG_SQRT_2PI).  log_gamma must
    return a repr-equal value, or raise the same exception and message, for
    every z."""
    cg = complex_gamma
    z = complex(z)
    if cg.nearest_nonpositive_int(z) is not None:
        raise PoleError(f"log_gamma: {z} is within {cg.POLE_TOLERANCE} of a pole")
    reflect = z.real < 0.5
    if reflect:
        head, z = cg._LOG_PI.real - cmath.log(cg.sin_pi(z)), 1.0 - z
    w = z - 1.0
    acc = complex(LANCZOS_COEF[0])
    for k in range(1, len(LANCZOS_COEF)):
        acc += LANCZOS_COEF[k] / (w + k)
    t = w + cg._LANCZOS_G + 0.5
    value = cg._LOG_SQRT_2PI.real + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)
    return head - value if reflect else value


# The gamma layer as it stood before gamma_ratio split into log_gamma_sum and
# gamma_quotient and the theorems formed a shared numerator once: each
# reference_* below is that body over reference_log_gamma.  The functions of
# complex_gamma and closed_forms must return a repr-equal value, or raise
# the same exception and message, for every input.

def reference_gamma(z) -> complex:
    return complex_gamma.exp_log_sum(reference_log_gamma(z))


def reference_gamma_ratio(numerator, denominator) -> complex:
    acc = 0.0 + 0.0j
    for z in numerator:
        acc += reference_log_gamma(z)
    try:
        for z in denominator:
            acc -= reference_log_gamma(z)
    except (PoleError, RangeError):
        if any(complex_gamma.nearest_nonpositive_int(complex(z)) is not None
               for z in denominator):
            return 0.0 + 0.0j
        raise
    return complex_gamma.exp_log_sum(acc)


def reference_gauss_unit(a, b, c) -> complex:
    a, b, c = complex(a), complex(b), complex(c)
    s = c - a - b
    if s.real <= 0.0:
        raise ConvergenceDomainError(f"gauss_unit requires Re(c-a-b) > 0, got {s.real}")
    return reference_gamma_ratio((c, s), (c - a, c - b))


def reference_gauss_ext_unit(a, b, c, d) -> complex:
    a, b, c = complex(a), complex(b), complex(c)
    d = closed_forms.check_d(d)
    s = c - a - b
    if s.real <= 0.0:
        raise ConvergenceDomainError(
            f"gauss_ext_unit requires Re(c-a-b) > 0, got {s.real}")
    prefactor = reference_gamma_ratio((c + 1, s), (c - a + 1, c - b + 1))
    return closed_forms._finite(prefactor * (s + a * b / d))


def reference_second_gauss_half(a, b) -> complex:
    a, b = complex(a), complex(b)
    return reference_gamma_ratio((0.5, (a + b + 1) / 2), ((a + 1) / 2, (b + 1) / 2))


def reference_bailey_half(a, c) -> complex:
    a, c = complex(a), complex(c)
    return reference_gamma_ratio((c / 2, c / 2 + 0.5), (c / 2 + a / 2, c / 2 - a / 2 + 0.5))


def reference_second_gauss_ext_half(a, b, d) -> complex:
    a, b = complex(a), complex(b)
    d = closed_forms.check_d(d)
    x = (a - b) / 2 - 0.5
    width = closed_forms.UNIT_DIFFERENCE_WIDTH
    if min(abs(a - b - 1.0), abs(a - b + 1.0)) < width:
        raise PoleError(f"second_gauss_ext_half: no closed form within "
                        f"{width} of a - b = +-1, at {a - b}")
    top = ((a + b) / 2 + 1.5,)
    brace = (((a + b - 1) / 2 - a * b / d)
             * reference_gamma_ratio(top, ((a + 1) / 2, (b + 1) / 2))
             + ((a + b + 1) / d - 2.0) * reference_gamma_ratio(top, (a / 2, b / 2)))
    return closed_forms._finite(math.sqrt(math.pi) / (x * (x + 1.0)) * brace)


def reference_bailey_ext_half(a, c, d) -> complex:
    a, c = complex(a), complex(c)
    d = closed_forms.check_d(d)
    top = (c / 2 + 1.0, c / 2 + 0.5)
    return closed_forms._finite(
        (2.0 / d) * reference_gamma_ratio(top, (c / 2 + a / 2, c / 2 - a / 2 + 0.5))
        + (1.0 - c / d)
        * reference_gamma_ratio(top, (c / 2 + a / 2 + 0.5, c / 2 - a / 2 + 1.0)))


def zeta_reference(s: float, cutoff: int = 2000) -> float:
    """zeta(s) by direct sum plus Euler-Maclaurin tail; independent of the
    series-acceleration machinery it is used to check."""
    head = math.fsum((n + 1.0) ** -s for n in range(cutoff))
    tail = (
        cutoff ** (1.0 - s) / (s - 1.0)
        - 0.5 * cutoff**-s
        + s / 12.0 * cutoff ** (-s - 1.0)
        - s * (s + 1.0) * (s + 2.0) / 720.0 * cutoff ** (-s - 3.0)
    )
    return head + tail


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)


def random_complex(rng: random.Random, box: float = 2.0) -> complex:
    return complex(rng.uniform(-box, box), rng.uniform(-box, box))
