"""Shared oracles and sampling helpers.

Expected values in these tests are computed from routes independent of the
code under test: exponentials of pi multiples, exact Fraction arithmetic,
Euler-Maclaurin tail sums.  Random property tests use seeded generators so
every run exercises the same sample.
"""

import math
import random

import pytest

from gelfond import SeriesSpec, sum_pfq

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


def reduced_3f2(a, b, c, d, z) -> complex:
    """3F2(a, b, d+1; c, d; z) from two 2F1 sums: (d+1)_n / (d)_n = 1 + n/d
    splits it as 2F1(a, b; c; z) + (a b z / (d c)) 2F1(a+1, b+1; c+1; z)."""
    first = sum_pfq(SeriesSpec((a, b), (c,), z)).value
    second = sum_pfq(SeriesSpec((a + 1, b + 1), (c + 1,), z)).value
    return first + a * b * z / (d * c) * second


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
