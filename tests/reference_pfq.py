"""A decimal reference sum of pFq for the tests, sharing no code with src.

    value, bound = reference_pfq(upper, lower, z)

sums pFq(upper; lower; z), p <= q + 1, in ``decimal`` at P digits, with
complex numbers as (real, imaginary) pairs of Decimal.  Every binary64
number converts to Decimal exactly, so the parameters are taken at their
float values.  ``bound`` is rigorous: |value - pFq| <= bound.

Truncation: for k >= n > 2 max|parameter| the term ratio is at most
r = |z| n^(p-q-1) prod(1 + |a_i|/n) / prod(1 - |b_j|/n), since
|a_i + k| <= k + |a_i|, |b_j + k| >= k - |b_j| and 1/(k+1) < 1/k, and the
right side falls as k grows; the terms after t_n add up to at most
|t_n| r / (1 - r).  |t_n| and the running sums are measured as
|re| + |im|, an upper bound of the modulus.

Rounding: with u = 10^(1-P)/2, one complex operation is off by at most
8u relative and one step of the recurrence by rho = 10 (p + q + 3) u,
so t_k is off by at most k rho |t_k| to first order, and each addition
of the running sum by 2u |S_k|; the bound adds rho sum k |t_k| +
2u sum |S_k|.  P starts at ``digits`` and grows by the digits that
cancellation cost, log10(max |S_k| / |S|), while the rounding part
exceeds half the target ``rel`` |S|.
"""

from decimal import Decimal, localcontext


def _dec(x: complex) -> tuple[Decimal, Decimal]:
    x = complex(x)
    return Decimal(x.real), Decimal(x.imag)


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def _size(x) -> Decimal:
    return abs(x[0]) + abs(x[1])


def _modulus(x, digits: int) -> Decimal:
    # |x| rounded up: the squares, their sum and sqrt lose under 2 10^(1-P)
    return (x[0] * x[0] + x[1] * x[1]).sqrt() * (1 + Decimal(10) ** (2 - digits))


def _sum_at(upper, lower, z, digits: int, rel: Decimal, max_terms: int):
    """(value, truncation bound, rounding bound, max |S_k|) at ``digits``."""
    p, q = len(upper), len(lower)
    u = Decimal(10) ** (1 - digits) / 2
    rho = 10 * (p + q + 3) * u
    ups = [_modulus(a, digits) for a in upper]
    lows = [_modulus(b, digits) for b in lower]
    start = 2 * max(ups + lows + [Decimal(0)])
    zsize = _modulus(z, digits)
    t = total = (Decimal(1), Decimal(0))
    weighted = Decimal(0)
    partials = peak = Decimal(1)
    for n in range(max_terms):
        if n > start:
            r = zsize * Decimal(n) ** (p - q - 1)
            for a in ups:
                r *= 1 + a / n
            for b in lows:
                r /= 1 - b / n
            if r < 1:
                trunc = _size(t) * r / (1 - r)
                if trunc <= rel * _size(total) / 2:
                    return total, trunc, rho * weighted + 2 * u * partials, peak
        num = z
        for a in upper:
            num = _mul(num, (a[0] + n, a[1]))
        den = (Decimal(n + 1), Decimal(0))
        for b in lower:
            den = _mul(den, (b[0] + n, b[1]))
        t = _div(_mul(t, num), den)
        total = (total[0] + t[0], total[1] + t[1])
        size = _size(total)
        weighted += (n + 1) * _size(t)
        partials += size
        peak = max(peak, size)
    raise ValueError(f"reference_pfq: no bound within {max_terms} terms")


def reference_pfq(upper, lower, z, rel: float = 1e-22, digits: int = 40,
                  max_terms: int = 2_000_000):
    """((re, im) as Decimal, bound as Decimal) of pFq(upper; lower; z),
    p <= q + 1 and |z| < 1 for p = q + 1, to about ``rel`` relative."""
    if len(upper) > len(lower) + 1:
        raise ValueError("reference_pfq: p > q + 1")
    upper, lower, z = [_dec(a) for a in upper], [_dec(b) for b in lower], _dec(z)
    rel = Decimal(rel)
    while True:
        with localcontext() as ctx:
            ctx.prec = digits
            total, trunc, rounding, peak = _sum_at(upper, lower, z, digits, rel,
                                                   max_terms)
            size = _size(total)
            if rounding <= rel * size / 2:
                return total, trunc + rounding
            loss = (peak / size).log10() if size else Decimal(digits)
        digits += int(loss) + 10


def distance(x: complex, reference) -> float:
    """|x - reference| for a reference (re, im) pair, rounded up."""
    with localcontext() as ctx:
        ctx.prec = 40
        dr, di = Decimal(x.real) - reference[0], Decimal(x.imag) - reference[1]
        return float((dr * dr + di * di).sqrt() * (1 + Decimal(10) ** -30))
