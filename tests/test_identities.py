import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from gelfond import (
    PoleError,
    RangeError,
    SeriesSpec,
    SumPolicy,
    corollary_case,
    gauss_ext_unit,
    gauss_unit,
    gelfond,
    gelfond_lambda,
    registry,
    sqrt_gelfond_pair,
    sum_pfq,
    theorem1,
    theorem2,
    verify,
    verify_all,
)
from gelfond.identities import theorem1_coefficients, theorem2_coefficients
from gelfond import identities
from gelfond.identities import _lambda_case, closed_route, expected_value
from conftest import COSH_PI, E_MINUS_PI, E_PI, corollary_d, rel_err

I = 1j
F = Fraction
GOLDEN = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# exact coefficient algebra (no floating point)
# ----------------------------------------------------------------------

def test_coefficients_recover_base_identities():
    assert theorem1_coefficients(F(1, 2), F(3, 2)) == (F(1), F(0))
    assert theorem2_coefficients(F(1, 2), F(3, 2)) == (F(1), F(0))


@pytest.mark.parametrize("n", range(1, 51))
def test_corollary_coefficients_exact(n):
    d1, d2 = corollary_d("cor1", n)
    assert theorem1_coefficients(d1, d2) == (F(n), F(0))
    d1, d2 = corollary_d("cor2", n)
    assert theorem1_coefficients(d1, d2) == (F(0), F(n))
    d1, d2 = corollary_d("cor3", n)
    assert theorem1_coefficients(d1, d2) == (F(n), F(n))
    d1, d2 = corollary_d("cor3", n, printed=True)
    assert theorem1_coefficients(d1, d2) == (4 * n - F(3, 10),) * 2
    d1, d2 = corollary_d("cor4", n)
    assert theorem2_coefficients(d1, d2) == (F(n), F(0))


def test_printed_parameter_tuples():
    # upper/lower pairs (d+1, d) of the published n = 2, 3 instances
    d1, d2 = corollary_d("cor1", 2)
    assert (d1 + 1, d1, d2 + 1, d2) == (F(11, 9), F(2, 9), F(41, 26), F(15, 26))
    d1, d2 = corollary_d("cor1", 3)
    assert (d1 + 1, d1, d2 + 1, d2) == (F(8, 7), F(1, 7), F(19, 14), F(5, 14))
    d1, d2 = corollary_d("cor2", 1)
    assert (d2 + 1, d2) == (F(7, 22), F(-15, 22))
    assert 15 / (64 * d2) == F(-11, 32)
    d1, d2 = corollary_d("cor4", 2)
    assert (d1 + 1, d1, d2 + 1, d2) == (F(10, 9), F(1, 9), F(49, 34), F(15, 34))
    d1, d2 = corollary_d("cor4", 3)
    assert (d1 + 1, d1, d2 + 1, d2) == (F(17, 16), F(1, 16), F(73, 58), F(15, 58))


# ----------------------------------------------------------------------
# scalar constants
# ----------------------------------------------------------------------

def test_gelfond_value():
    assert rel_err(gelfond(), E_PI) <= 1e-13
    assert rel_err(gauss_unit(I, -I, 0.5).real, COSH_PI) <= 1e-13


def test_gelfond_lambda_values():
    assert rel_err(gelfond_lambda(1.0), E_PI) <= 1e-13
    assert gelfond_lambda(0.0) == pytest.approx(1.0, rel=1e-13)
    assert rel_err(gelfond_lambda(0.5), math.exp(math.pi / 2)) <= 1e-13
    for k in range(-60, 61):
        lam = k / 4
        assert rel_err(gelfond_lambda(lam), math.exp(math.pi * lam)) <= 1e-11, lam


def test_gelfond_lambda_domain():
    with pytest.raises(RangeError):
        gelfond_lambda(15.5)


def test_sqrt_gelfond_pair():
    plus, minus = sqrt_gelfond_pair()
    assert rel_err(plus, math.exp(math.pi / 2)) <= 1e-12
    assert rel_err(minus, math.exp(-math.pi / 2)) <= 1e-12
    assert abs(plus * minus - 1.0) <= 1e-12


def test_constants_are_the_closed_routes_of_their_cases():
    # bit for bit: the constants evaluate the registry's member lists
    for k in range(301):
        lam = Fraction(k, 20)
        case = _lambda_case(lam, "lambda")
        assert gelfond_lambda(k / 20) == closed_route(case.rhs_plan).real, lam
    cases = {c.id: c for c in registry()}
    assert sqrt_gelfond_pair() == tuple(
        closed_route(cases[i].rhs_plan).real for i in ("eq4.1a", "eq4.1b"))


# ----------------------------------------------------------------------
# theorem constructors
# ----------------------------------------------------------------------

def test_theorem1_first_series_proof_value():
    # at d1 = 2 the first closed-form member is (e^pi + e^-pi)/5
    assert rel_err(gauss_ext_unit(I, -I, 0.5, 2.0).real,
                   (E_PI + E_MINUS_PI) / 5) <= 1e-13


def test_theorem1_second_series_vanishes_at_minus_five_halves():
    assert abs(gauss_ext_unit(0.5 + I, 0.5 - I, 1.5, -2.5)) <= 1e-13


def test_theorem1_rejects_bad_d():
    with pytest.raises(PoleError):
        theorem1(F(-2), F(3, 2))
    with pytest.raises(PoleError):
        theorem1(F(1, 2), 0)


@pytest.mark.parametrize("theorem", [theorem1, theorem2])
@pytest.mark.parametrize("near_pole", [F(-1) + F(1, 10**7), F(-3) + F(1, 10**8)])
def test_theorems_reject_d_near_pole_at_construction(theorem, near_pole):
    # the closed forms reject d within 1e-6 of a non-positive integer, so a
    # case holding such a d must not construct and then fail inside verify
    with pytest.raises(PoleError):
        theorem(near_pole, F(3, 2))
    with pytest.raises(PoleError):
        theorem(F(1, 2), near_pole)


@pytest.mark.parametrize("call", [
    lambda: theorem1(10**400, 1),
    lambda: theorem1(F(10**400), 1),
    lambda: gauss_ext_unit(I, -I, 0.5, 10**400),
], ids=["theorem1-int", "theorem1-fraction", "gauss_ext_unit-int"])
def test_finite_d_beyond_binary64_raises_range_error(call):
    with pytest.raises(RangeError):
        call()


def test_theorem1_closed_vs_expected_random(rng):
    for _ in range(100):
        d1 = F(rng.uniform(0.3, 5.0)).limit_denominator(997)
        d2 = F(rng.uniform(0.3, 5.0)).limit_denominator(997)
        case = theorem1(d1, d2)
        closed = closed_route(case.rhs_plan).real
        assert rel_err(closed, expected_value(case.expected)) <= 1e-12


def test_theorem2_first_series_value_at_one():
    from gelfond import second_gauss_ext_half

    expected = 0.6 * math.cosh(math.pi / 2) + 0.2 * math.sinh(math.pi / 2)
    assert rel_err(second_gauss_ext_half(I, -I, 1.0).real, expected) <= 1e-13


def test_theorem2_series_vs_expected_random(rng):
    policy = SumPolicy(tolerance=1e-13)
    for _ in range(25):
        d1 = F(rng.uniform(0.3, 5.0)).limit_denominator(997)
        d2 = F(rng.uniform(0.3, 5.0)).limit_denominator(997)
        case = theorem2(d1, d2)
        series = sum((w * sum_pfq(spec, policy).value).real
                     for spec, w in case.lhs_plan)
        assert rel_err(series, expected_value(case.expected)) <= 1e-11


# ----------------------------------------------------------------------
# corollary cases through verify
# ----------------------------------------------------------------------

def test_cor2_corrected_reproduces_inverse_constant():
    report = verify(corollary_case("cor2", 1))
    assert report.verdict == "Pass"
    assert rel_err(report.closed_value, E_MINUS_PI) <= 1e-12


def test_cor2_printed_companion_diverges():
    report = verify(corollary_case("cor2", 1, printed=True))
    assert report.verdict == "SkippedDivergent"
    assert report.series_status == "Divergent"


def test_cor3_variants_disagree_with_claim():
    for n in (1, 2, 3):
        printed = verify(corollary_case("cor3", n, printed=True))
        corrected = verify(corollary_case("cor3", n))
        claim = n * (E_PI + E_MINUS_PI)
        assert printed.verdict == "Pass"
        assert rel_err(printed.closed_value,
                       (4 * n - 0.3) * (E_PI + E_MINUS_PI)) <= 1e-12
        assert rel_err(printed.closed_value, claim) > 1e-3
        assert corrected.verdict == "Pass"
        assert rel_err(corrected.closed_value, claim) <= 1e-12


def test_cor1_and_cor4_have_no_printed_variant():
    # no printed row, so no printed parameters and no printed case
    for kind, n in (("cor1", 1), ("cor4", 2)):
        assert not [r for r in identities.COROLLARIES if r.kind == kind and r.printed]
        with pytest.raises(ValueError,
                           match=f"{kind} has no distinct printed variant"):
            corollary_case(kind, n, printed=True)


@pytest.mark.parametrize("kind, n, message", [
    ("cor1", 0, "corollary index n must be >= 1"),
    ("cor1", True, "corollary index n must be an int, got True"),
    ("cor1", 2.0, "corollary index n must be an int, got 2.0"),
    ("cor9", 1, "unknown corollary kind 'cor9'"),
])
@pytest.mark.parametrize("call", [corollary_case])
def test_corollary_rejects_bad_index_and_kind(call, kind, n, message):
    with pytest.raises(ValueError) as excinfo:
        call(kind, n)
    assert str(excinfo.value) == message


# ----------------------------------------------------------------------
# registry and verifier
# ----------------------------------------------------------------------

def test_registry_pinned_count_and_unique_ids():
    cases = registry()
    assert len(cases) == 40
    ids = [c.id for c in cases]
    assert len(set(ids)) == 40


def test_registry_stable_order():
    ids = [c.id for c in registry()]
    assert ids[:3] == ["eq1.1", "0f1-bessel", "sphere-volume"]
    assert ids[3:8] == [f"thm1-g{k}" for k in range(1, 6)]
    assert ids[-2:] == ["mobius-product", "leibniz-power"]
    assert registry()[0].id == "eq1.1"  # construction is deterministic


def test_registry_matches_golden():
    # every field a route or a report reads, one line per case in order
    lines = [repr((c.id, c.lhs_plan, c.rhs_plan, c.expected, c.n, c.lam,
                   c.erratum, c.expect_divergent)) for c in registry()]
    assert lines == (GOLDEN / "registry.txt").read_text().splitlines()


def test_registry_erratum_flags():
    by_id = {c.id: c for c in registry()}
    assert by_id["cor3-n1-printed"].erratum is not None
    assert by_id["cor2-n1"].erratum is not None
    assert by_id["cor2-n1-printed"].expect_divergent
    assert by_id["mobius-product"].documented_only
    assert by_id["leibniz-power"].documented_only
    assert by_id["eq1.1"].erratum is None


def test_verify_eq11_report():
    case = next(c for c in registry() if c.id == "eq1.1")
    report = verify(case)
    assert report.verdict == "Pass"
    assert report.rel_residual <= 1e-12
    assert rel_err(report.series_value, report.expected_value) <= 1e-6
    assert report.series_status == "Converged"


def test_verify_sphere_volume_tight():
    case = next(c for c in registry() if c.id == "sphere-volume")
    report = verify(case)
    assert report.verdict == "Pass"
    assert rel_err(report.series_value, E_PI) <= 1e-13


def test_verify_documented_only_skipped():
    case = next(c for c in registry() if c.id == "mobius-product")
    report = verify(case)
    assert report.verdict == "SkippedDocumented"
    assert report.closed_value is None and report.series_value is None


def test_verify_status_truncated_only_when_every_member_terminates():
    eq11 = next(c for c in registry() if c.id == "eq1.1")
    # (1 - z)^3 and 2F1(-2, 1; 1/2; z), both polynomials
    polynomials = ((SeriesSpec((-3,), (), 0.5), 1.0 + 0j),
                   (SeriesSpec((-2, 1), (0.5,), 0.7), 2.0 + 0j))
    report = verify(eq11._replace(lhs_plan=polynomials))
    assert report.series_status == "Truncated"
    assert report.series_value == pytest.approx(0.125 + 2 * (1 - 4 * 0.7 + 8 / 3 * 0.49))
    mixed = (polynomials[0], eq11.lhs_plan[0])
    assert verify(eq11._replace(lhs_plan=mixed)).series_status == "Converged"


def test_verify_all_registry_green():
    reports = verify_all()
    for report in reports:
        assert report.verdict in ("Pass", "SkippedDivergent", "SkippedDocumented"), (
            report.id, report.verdict)
    skipped = [r for r in reports if r.verdict == "SkippedDivergent"]
    assert {r.id for r in skipped} == {f"cor2-n{n}-printed" for n in (1, 2, 3)}


@pytest.mark.parametrize("max_terms", [SumPolicy().max_terms, 25])
def test_verify_abs_residual_is_the_difference_it_names(max_terms):
    """abs_residual is |primary - expected| to the bit, the primary value
    being the closed route's where there is one and the series' otherwise,
    and rel_residual is that divided by |expected|."""
    checked = 0
    for report in verify_all(max_terms=max_terms):
        if report.abs_residual is None:
            assert report.rel_residual is None
            continue
        primary = (report.closed_value if report.closed_value is not None
                   else report.series_value)
        assert report.abs_residual == abs(primary - report.expected_value), report.id
        assert report.rel_residual == (report.abs_residual
                                       / abs(report.expected_value)), report.id
        checked += 1
    assert checked >= 30


def test_verify_verdict_consistent_with_recorded_tolerance():
    for case in registry():
        report = verify(case)
        if report.verdict == "Pass" and report.rel_residual is not None:
            assert report.rel_residual <= case.closed_tol or \
                report.rel_residual <= case.series_tol


def test_registry_realness():
    # every evaluated identity value is real to 1e-12 relative residue
    policy = SumPolicy(tolerance=1e-8)
    for case in registry():
        if case.documented_only or case.expect_divergent:
            continue
        if case.rhs_plan:
            value = closed_route(case.rhs_plan)
            assert abs(value.imag) <= 1e-12 * max(1.0, abs(value)), case.id
        value = sum(w * sum_pfq(spec, policy).value for spec, w in case.lhs_plan)
        assert abs(value.imag) <= 1e-12 * max(1.0, abs(value)), case.id


def test_verify_with_corrupted_policy_fails():
    # a deliberately loose budget breaks the direct-summation cases
    case = next(c for c in registry() if c.id == "sphere-volume")
    report = verify(case, tolerance=9.9)
    assert report.verdict == "Fail"


@pytest.mark.parametrize("case", registry(), ids=lambda case: case.id)
def test_verify_rejects_bad_tolerance_for_every_case(case):
    # the arguments are checked before any route runs, so the
    # documented-only cases, which sum no series, reject them too
    with pytest.raises(ValueError, match="tolerance must be"):
        verify(case, tolerance=1e-16)


@pytest.mark.parametrize("tolerance", [Decimal("1e-8"), True],
                         ids=["Decimal", "bool"])
def test_verify_rejects_a_tolerance_that_is_not_a_real_number(tolerance):
    case = next(c for c in registry() if c.id == "sphere-volume")
    with pytest.raises(ValueError, match="tolerance must be a real number"):
        verify(case, tolerance)


def test_corollary_claim_checked(monkeypatch):
    # a row whose claimed coefficients the theorem does not give is refused,
    # and the message names the case
    monkeypatch.setattr(identities, "COROLLARIES", tuple(
        r._replace(claim=lambda n: (F(n + 1), F(0))) if r.kind == "cor4" else r
        for r in identities.COROLLARIES))
    with pytest.raises(AssertionError, match="^cor4-n2: the theorem gives "
                                             "coefficients"):
        corollary_case("cor4", 2)
    assert corollary_case("cor1", 2).n == 2


def test_corollary_claim_checked_under_optimize():
    """A row whose claimed coefficients the theorem does not give is refused
    under python -O too, which strips assert statements."""
    code = ("from fractions import Fraction\n"
            "import gelfond.identities as ids\n"
            "ids.COROLLARIES = tuple(\n"
            "    r._replace(claim=lambda n: (Fraction(n + 1), Fraction(0)))\n"
            "    if r.kind == 'cor1' else r for r in ids.COROLLARIES)\n"
            "ids.corollary_case('cor1', 1)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 1
    assert "cor1-n1: the theorem gives coefficients" in run.stderr
