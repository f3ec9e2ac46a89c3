import math

import pytest

from gelfond import (
    DivergentError,
    InsufficientTermsError,
    PoleError,
    SeriesSpec,
    SumPolicy,
    SumStatus,
    levin_accelerate,
    sum_pfq,
    sum_pfq_unit,
)
from conftest import (
    COSH_HALF_PI,
    COSH_PI,
    random_complex,
    reduced_3f2,
    rel_err,
    zeta_reference,
)

I = 1j


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------

def test_spec_rejects_p_greater_than_q_plus_one():
    with pytest.raises(ValueError):
        SeriesSpec((1, 2, 3), (4,), 0.1)


def test_spec_rejects_nonpositive_integer_lower():
    with pytest.raises(PoleError):
        SeriesSpec((1.0, 2.0), (-3.0,), 0.5)


def test_spec_lower_pole_allowed_behind_truncation():
    # upper -2 truncates at term 2, before the lower -5 factor vanishes
    SeriesSpec((-2.0, 1.0), (-5.0,), 0.5)
    with pytest.raises(PoleError):
        SeriesSpec((-5.0, 1.0), (-2.0,), 0.5)
    with pytest.raises(PoleError):
        SeriesSpec((-3.0, 1.0), (-3.0,), 0.5)


def test_policy_validation():
    with pytest.raises(ValueError):
        SumPolicy(tolerance=1e-16)
    with pytest.raises(ValueError):
        SumPolicy(max_terms=5)


# ----------------------------------------------------------------------
# direct summation
# ----------------------------------------------------------------------

def test_sum_2f1_log_value():
    # 2F1(1,1;2;z) = -log(1-z)/z
    r = sum_pfq(SeriesSpec((1, 1), (2,), 0.5))
    assert r.status is SumStatus.CONVERGED
    assert rel_err(r.value.real, 2 * math.log(2)) <= 1e-13


def test_sum_0f1_cosh_shape():
    r = sum_pfq(SeriesSpec((), (0.5,), math.pi**2 / 4))
    assert r.status is SumStatus.CONVERGED
    assert rel_err(r.value.real, COSH_PI) <= 1e-13


def test_sum_2f1_half_argument_second_gauss_value():
    r = sum_pfq(SeriesSpec((I, -I), (0.5,), 0.5))
    assert rel_err(r.value.real, COSH_HALF_PI) <= 1e-13


def test_zero_upper_parameter_truncates():
    r = sum_pfq(SeriesSpec((0, 2.3 - 0.4j), (1.7,), 0.5))
    assert r.status is SumStatus.TRUNCATED
    assert r.value == 1.0 + 0.0j
    assert r.tail_estimate == 0.0


def test_polynomial_truncation_degree():
    # 2F1(-3, b; c; z) is a cubic; sum its four terms directly
    b, c, z = 1.3, 2.1, 0.4
    r = sum_pfq(SeriesSpec((-3, b), (c,), z))
    expected = sum(
        math.prod(-3 + j for j in range(n)) * math.prod(b + j for j in range(n))
        / (math.prod(c + j for j in range(n)) * math.factorial(n)) * z**n
        for n in range(4)
    )
    assert r.status is SumStatus.TRUNCATED
    assert rel_err(r.value.real, expected) <= 1e-14


def test_divergent_outside_unit_disk():
    with pytest.raises(DivergentError):
        sum_pfq(SeriesSpec((1, 1), (2,), 1.2))


def test_unit_modulus_off_one_unsupported():
    with pytest.raises(ValueError):
        sum_pfq(SeriesSpec((1, 1), (2,), -1.0))


def test_max_terms_exceeded_status():
    r = sum_pfq(SeriesSpec((1, 1), (2,), 0.5), SumPolicy(max_terms=10))
    assert r.status is SumStatus.MAX_TERMS_EXCEEDED
    assert r.terms_used == 10


def test_converged_tail_contract(rng):
    # status Converged implies tail_estimate <= tolerance * max(1, |value|)
    for tol in (1e-6, 1e-10, 1e-13):
        policy = SumPolicy(tolerance=tol)
        for _ in range(20):
            spec = SeriesSpec(
                (random_complex(rng), random_complex(rng)),
                (complex(rng.uniform(0.5, 3.0), rng.uniform(-1, 1)),),
                rng.uniform(-0.8, 0.8),
            )
            r = sum_pfq(spec, policy)
            if r.status is SumStatus.CONVERGED:
                assert r.tail_estimate <= tol * max(1.0, abs(r.value))


# ----------------------------------------------------------------------
# unit argument
# ----------------------------------------------------------------------

def test_unit_gauss_value_accelerated():
    r = sum_pfq_unit(SeriesSpec((I, -I), (0.5,), 1.0), SumPolicy(tolerance=1e-6))
    assert r.status is SumStatus.CONVERGED
    assert rel_err(r.value.real, COSH_PI) <= 1e-6
    assert r.tail_estimate <= 1e-6 * max(1.0, abs(r.value))


def test_unit_divergent_without_summing():
    # convergence parameter s = (3/2 - 5/2) - (1 - 3/2) = -1/2
    r = sum_pfq_unit(SeriesSpec((0.5 + I, 0.5 - I, -1.5), (1.5, -2.5), 1.0))
    assert r.status is SumStatus.DIVERGENT
    assert r.terms_used == 0


def test_unit_truncated():
    r = sum_pfq_unit(SeriesSpec((0, 1.7), (0.5,), 1.0))
    assert r.status is SumStatus.TRUNCATED
    assert r.value == 1.0 + 0.0j


def test_unit_requires_argument_one():
    with pytest.raises(ValueError):
        sum_pfq_unit(SeriesSpec((I, -I), (0.5,), 0.5))


def test_divergence_gate_property(rng):
    # sum_pfq_unit never reports Converged when s <= 0
    for _ in range(30):
        a = random_complex(rng)
        b = random_complex(rng)
        s = rng.uniform(-1.5, 0.0)
        c = complex((a + b).real + s, (a + b).imag + rng.uniform(-1, 1))
        if abs(c.imag) < 1e-6 and c.real < 0.5:
            continue
        spec = SeriesSpec((a, b), (c,), 1.0)
        if spec.truncation_degree() is not None:
            continue
        r = sum_pfq_unit(spec)
        assert r.status is SumStatus.DIVERGENT


# ----------------------------------------------------------------------
# Levin acceleration
# ----------------------------------------------------------------------

def test_levin_alternating_harmonic():
    terms = [(-1) ** k / (k + 1) for k in range(30)]
    value, estimate = levin_accelerate(terms)
    assert abs(value.real - math.log(2)) <= 1e-10
    assert abs(value.real - math.log(2)) <= max(estimate, 1e-15) * 10


def test_levin_algebraic_zeta():
    reference = zeta_reference(1.5)
    assert abs(reference - 2.612375348685488) <= 1e-12
    terms = [(k + 1) ** -1.5 for k in range(60)]
    value, _ = levin_accelerate(terms)
    assert abs(value.real - reference) <= 1e-6


def test_levin_geometric_exact():
    value, _ = levin_accelerate([0.5**k for k in range(30)])
    assert abs(value.real - 2.0) <= 1e-14


def test_levin_insufficient_terms():
    with pytest.raises(InsufficientTermsError):
        levin_accelerate([1.0, 0.5, 0.25])


def test_levin_zero_term_rejected():
    with pytest.raises(ValueError):
        levin_accelerate([1.0, 0.0] + [0.5**k for k in range(10)])


# ----------------------------------------------------------------------
# contiguous reduction
# ----------------------------------------------------------------------

def test_reduce_matches_direct_summation():
    combined = reduced_3f2(1, 1, 2, 3, 0.5)
    direct = sum_pfq(SeriesSpec((1, 1, 4), (2, 3), 0.5)).value
    assert abs(combined - direct) <= 1e-12 * max(1.0, abs(direct))


def test_reduce_zero_a_collapses():
    # a zero upper parameter truncates the 3F2 and both 2F1 pieces to 1
    assert reduced_3f2(0, 1.5, 2.5, 1.25, 0.5) == 1.0
    assert sum_pfq(SeriesSpec((0, 1.5, 2.25), (2.5, 1.25), 0.5)).value == 1.0


def test_reduce_cancellation_sanity():
    # d+1 equal to the 2F1 lower parameter: decomposition still matches the
    # direct 3F2 away from the unit argument
    combined = reduced_3f2(I, -I, 1.5, 0.5, 0.9)
    direct = sum_pfq(SeriesSpec((I, -I, 1.5), (1.5, 0.5), 0.9)).value
    assert abs(combined - direct) <= 1e-11 * max(1.0, abs(direct))


def test_reduction_equivalence_property(rng):
    checked = 0
    while checked < 200:
        a, b = random_complex(rng), random_complex(rng)
        c = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        d = complex(rng.uniform(0.3, 3.0) * rng.choice((-1, 1)),
                    rng.uniform(-1.0, 1.0))
        z = random_complex(rng, 0.5)
        if abs(z) > 0.8 or abs(d) < 0.2:
            continue
        try:
            direct = sum_pfq(SeriesSpec((a, b, d + 1), (c, d), z))
        except PoleError:
            continue
        combined = reduced_3f2(a, b, c, d, z)
        assert abs(combined - direct.value) <= 1e-11 * max(1.0, abs(direct.value))
        checked += 1


# ----------------------------------------------------------------------
# engine-wide properties
# ----------------------------------------------------------------------

def test_conjugate_pair_realness(rng):
    for _ in range(50):
        a = random_complex(rng)
        c = rng.uniform(0.3, 3.0)
        z = rng.uniform(-0.8, 0.8)
        r = sum_pfq(SeriesSpec((a, a.conjugate()), (c,), z))
        assert abs(r.value.imag) <= 1e-12 * max(1.0, abs(r.value))


def test_monotone_tolerance_on_examples():
    cases = [
        (SeriesSpec((1, 1), (2,), 0.5), 2 * math.log(2)),
        (SeriesSpec((), (0.5,), math.pi**2 / 4), COSH_PI),
        (SeriesSpec((I, -I), (0.5,), 0.5), COSH_HALF_PI),
    ]
    for spec, oracle in cases:
        errors = [
            abs(sum_pfq(spec, SumPolicy(tolerance=tol)).value.real - oracle)
            for tol in (1e-4, 1e-7, 1e-10, 1e-13)
        ]
        assert all(late <= early for early, late in zip(errors, errors[1:]))
