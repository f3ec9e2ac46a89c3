"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion on top of the pytest per-test verdicts.
"""

import math
import time
from fractions import Fraction

from gelfond import (
    SeriesSpec,
    SumPolicy,
    bailey_ext_half,
    corollary_case,
    corollary_parameters,
    gauss_ext_unit,
    gauss_unit,
    gelfond,
    gelfond_lambda,
    heegner_table,
    registry,
    second_gauss_ext_half,
    sum_pfq,
    sum_pfq_unit,
    theorem1_coefficients,
    theorem2_coefficients,
    verify,
)
from gelfond.cli import main
from gelfond.ddreal import DDReal, dd_add, dd_exp, dd_mul, two_prod, two_sum
from gelfond.heegner import is_near_integer
from conftest import E_MINUS_PI, E_PI, random_complex, reduced_3f2, rel_err

I = 1j
F = Fraction


def _passed(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def test_criterion_01_gelfond_reproduction(capsys):
    start = time.perf_counter()
    value = gelfond()
    # truncate to 15 significant digits and compare with the published
    # expansion 23.1406926 32779...
    truncated = f"{math.floor(value * 10**13) / 10**13:.13f}"
    assert truncated == "23.1406926327792"
    assert truncated.startswith("23.140692632779")
    assert rel_err(value, math.exp(math.pi)) <= 1e-13
    code = main(["constants"])
    assert code == 0
    assert "23.140692632779267" in capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"e^pi = {value!r} matches exp(pi) to 1e-13 in {elapsed:.3f}s")


def test_criterion_02_base_identity():
    closed = gauss_unit(I, -I, 0.5) + 2 * gauss_unit(0.5 + I, 0.5 - I, 1.5)
    assert rel_err(closed.real, E_PI) <= 1e-12
    policy = SumPolicy(tolerance=1e-8)
    series = (
        sum_pfq_unit(SeriesSpec((I, -I), (0.5,), 1.0), policy).value
        + 2 * sum_pfq_unit(SeriesSpec((0.5 + I, 0.5 - I), (1.5,), 1.0), policy).value
    )
    assert rel_err(series.real, E_PI) <= 1e-6
    _passed(2, "closed form at 1e-12, accelerated series at 1e-6")


def test_criterion_03_theorem1_grid(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d1, d2 = rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0)
        closed = (gauss_ext_unit(I, -I, 0.5, d1)
                  + 2 * gauss_ext_unit(0.5 + I, 0.5 - I, 1.5, d2)).real
        c_plus, c_minus = theorem1_coefficients(F(d1), F(d2))
        expected = float(c_plus) * E_PI + float(c_minus) * E_MINUS_PI
        worst = max(worst, rel_err(closed, expected))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    _passed(3, f"100 draws, worst residual {worst:.2e} in {elapsed:.3f}s")


def test_criterion_04_corollary1():
    for n in (1, 2, 3):
        report = verify(corollary_case("cor1", n))
        assert report.verdict == "Pass"
        assert rel_err(report.closed_value, n * E_PI) <= 1e-12
    d1, d2 = corollary_parameters("cor1", 2)
    assert (d1 + 1, d1, d2 + 1, d2) == (F(11, 9), F(2, 9), F(41, 26), F(15, 26))
    d1, d2 = corollary_parameters("cor1", 3)
    assert (d1 + 1, d1, d2 + 1, d2) == (F(8, 7), F(1, 7), F(19, 14), F(5, 14))
    _passed(4, "n*e^pi at 1e-12 with the published parameter tuples")


def test_criterion_05_corollary2():
    for n in (1, 2, 3):
        corrected = verify(corollary_case("cor2", n))
        assert corrected.verdict == "Pass"
        assert rel_err(corrected.closed_value, n * E_MINUS_PI) <= 1e-12
        printed = verify(corollary_case("cor2", n, printed=True))
        assert printed.series_status == "Divergent"
        assert printed.verdict == "SkippedDivergent"
    _passed(5, "corrected n*e^-pi at 1e-12; printed companions Divergent")


def test_criterion_06_corollary3_dual_variant():
    for n in (1, 2, 3):
        printed = verify(corollary_case("cor3", n, printed=True))
        assert printed.verdict == "Pass"
        assert rel_err(printed.closed_value,
                       (4 * n - 0.3) * (E_PI + E_MINUS_PI)) <= 1e-12
        corrected = verify(corollary_case("cor3", n))
        assert corrected.verdict == "Pass"
        assert rel_err(corrected.closed_value, n * (E_PI + E_MINUS_PI)) <= 1e-12
        # the claim under printed parameters is not reproducible
        assert rel_err(printed.closed_value, n * (E_PI + E_MINUS_PI)) > 1e-3
    _passed(6, "printed gives (4n-3/10)(e^pi+e^-pi), corrected gives the claim")


def test_criterion_07_theorem2(rng):
    policy = SumPolicy(tolerance=1e-13)
    worst = 0.0
    for _ in range(100):
        d1, d2 = rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0)
        series = (
            sum_pfq(SeriesSpec((I, -I, d1 + 1), (1.5, d1), 0.5), policy).value
            + math.sqrt(2)
            * sum_pfq(SeriesSpec((0.5 + I, 0.5 - I, d2 + 1), (2.5, d2), 0.5),
                      policy).value
        ).real
        c_plus, c_minus = theorem2_coefficients(F(d1), F(d2))
        expected = (float(c_plus) * math.exp(math.pi / 2)
                    + float(c_minus) * math.exp(-math.pi / 2))
        worst = max(worst, rel_err(series, expected))
    assert worst <= 1e-11
    assert theorem2_coefficients(F(1, 2), F(3, 2)) == (F(1), F(0))
    _passed(7, f"100 draws, worst residual {worst:.2e}; (1/2,3/2) -> (1,0) exactly")


def test_criterion_08_half_argument_extensions_vs_series(rng):
    policy = SumPolicy(tolerance=1e-15)
    checked_a = checked_b = 0
    while checked_a < 100:
        a, b, d = (random_complex(rng, 5.0) for _ in range(3))
        c = (a + b + 3) / 2
        if abs(d) < 0.2:
            continue
        if abs(c.imag) < 1e-6 and c.real < 0.5 and abs(c.real - round(c.real)) < 0.05:
            continue
        if abs(d.imag) < 1e-6 and d.real < 0.5 and abs(d.real - round(d.real)) < 0.05:
            continue
        try:
            closed = second_gauss_ext_half(a, b, d)
        except Exception:
            continue
        r = sum_pfq(SeriesSpec((a, b, d + 1), (c, d), 0.5), policy)
        assert abs(closed - r.value) <= 1e-11 * max(1.0, abs(r.value))
        checked_a += 1
    while checked_b < 100:
        a, c, d = (random_complex(rng, 5.0) for _ in range(3))
        if abs(d) < 0.2:
            continue
        cc = c + 1
        if abs(cc.imag) < 1e-6 and cc.real < 0.5 and abs(cc.real - round(cc.real)) < 0.05:
            continue
        if abs(d.imag) < 1e-6 and d.real < 0.5 and abs(d.real - round(d.real)) < 0.05:
            continue
        try:
            closed = bailey_ext_half(a, c, d)
        except Exception:
            continue
        r = sum_pfq(SeriesSpec((a, 1 - a, d + 1), (c + 1, d), 0.5), policy)
        assert abs(closed - r.value) <= 1e-11 * max(1.0, abs(r.value))
        checked_b += 1
    _passed(8, "both half-argument extensions match direct summation, 100 draws each")


def test_criterion_09_corollary4():
    for n in (1, 2, 3):
        report = verify(corollary_case("cor4", n))
        assert report.verdict == "Pass"
        assert rel_err(report.closed_value, n * math.exp(math.pi / 2)) <= 1e-11
    d1, d2 = corollary_parameters("cor4", 2)
    assert (d1 + 1, d1, d2 + 1, d2) == (F(10, 9), F(1, 9), F(49, 34), F(15, 34))
    _passed(9, "n*e^(pi/2) at 1e-11 with the published n=2 parameters")


def test_criterion_10_lambda_extension():
    for lam in (0.0, 0.5, 1.0, 2.0, math.sqrt(19), math.sqrt(43)):
        value = gelfond_lambda(lam)
        assert rel_err(value, math.exp(math.pi * lam)) <= 1e-11, lam
    _passed(10, "e^(pi*lambda) at 1e-11 for the six reference lambdas")


def test_criterion_11_heegner_table():
    start = time.perf_counter()
    rows = heegner_table()
    for row in rows:
        assert is_near_integer(row)
    dev = {row.n: float(row.deviation.to_fraction()) for row in rows}
    assert abs(dev[19] - 0.2223) <= 1e-3
    assert abs(dev[43] - 2.2e-4) <= 0.05 * 2.2e-4
    assert abs(dev[67] - 1.3e-6) <= 0.05 * 1.3e-6
    assert 3.75e-13 <= dev[163] <= 1.5e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(11, f"all four rows round exactly; dev(163) = {dev[163]:.3e} "
                f"in {elapsed:.3f}s")


def test_criterion_12_property_suites(rng):
    from gelfond import gamma, sin_pi

    # gamma recurrence and reflection at 1e-12
    checked = 0
    while checked < 200:
        z = random_complex(rng, 15.0)
        k = round(z.real)
        if (k <= 0 and abs(z - k) < 0.05) or abs(z.imag) < 1e-3:
            continue
        lhs = gamma(z + 1)
        assert abs(lhs - z * gamma(z)) / abs(lhs) <= 1e-12
        refl = gamma(z) * gamma(1 - z)
        ref = math.pi / sin_pi(z)
        assert abs(refl - ref) / abs(ref) <= 1e-12
        checked += 1

    # contiguous-reduction equivalence at 1e-11
    checked = 0
    while checked < 50:
        a, b = random_complex(rng), random_complex(rng)
        c = complex(rng.uniform(0.3, 3.0), rng.uniform(-1, 1))
        d = complex(rng.uniform(0.3, 3.0), rng.uniform(-1, 1))
        z = random_complex(rng, 0.5)
        combined = reduced_3f2(a, b, c, d, z)
        direct = sum_pfq(SeriesSpec((a, b, d + 1), (c, d), z)).value
        assert abs(combined - direct) <= 1e-11 * max(1.0, abs(direct))
        checked += 1

    # DD error-free-transform exactness
    for _ in range(10_000):
        x, y = rng.uniform(-1e9, 1e9), rng.uniform(-1e9, 1e9)
        s, e = two_sum(x, y)
        assert F(x) + F(y) == F(s) + F(e)
        p, e = two_prod(x / 1e3, y / 1e3)
        assert F(x / 1e3) * F(y / 1e3) == F(p) + F(e)

    # dd_exp functional identities at 1e-28
    for _ in range(25):
        a, b = rng.uniform(-20, 20), rng.uniform(-20, 20)
        lhs = dd_exp(dd_add(DDReal(a), DDReal(b))).to_fraction()
        rhs = dd_mul(dd_exp(DDReal(a)), dd_exp(DDReal(b))).to_fraction()
        assert abs(lhs - rhs) / abs(rhs) <= F(1, 10**28)

    # registry realness at 1e-12
    policy = SumPolicy(tolerance=1e-8)
    for case in registry():
        if case.documented_only or case.expect_divergent:
            continue
        value = sum(w * sum_pfq(spec, policy).value for spec, w in case.lhs_plan)
        assert abs(value.imag) <= 1e-12 * max(1.0, abs(value)), case.id
    _passed(12, "gamma, reduction, error-free-transform, dd_exp, and "
                "realness property suites green")
