"""Identity registry and verifier.

Every identity this package checks is encoded as an IdentityCase holding
three independent routes to one number:

  * lhs_plan      -- hypergeometric series (summed numerically),
  * rhs_plan      -- closed forms (gamma ratios),
  * expected      -- rational combination of exponentials e^(pi*k),
                     always evaluated through math.exp, never through the
                     hypergeometric machinery.

Each closed route is a weighted sum of the summation theorems of
closed_forms, stated once as members (weight, theorem, args): a member
adds weight * theorem(*args) to the closed route and weight times the sum
of closed_forms.SERIES[theorem](*args) to the series route.  A case
without series members is documented only.  No case sets a tolerance:
closed routes compare at CLOSED_TOL = 1e-12, and each series member is
compared and summed at the (comparison, summation) pair its argument
selects, (1e-6, 3e-8) at z = 1 (head plus asymptotic tail), (1e-11, 1e-13) at
z = 1/2 (geometric) and (1e-13, 1e-15) for any other (entire) series;
summation is tighter because weighted combinations cancel (cor2 builds
n*e^(-pi) out of components ~12n: a ~270x loss).  A tolerance given to
verify replaces every member's summation tolerance, never a comparison one.

Rational parameters (the corollary families are parameterized by exact
fractions like 2/(5n-1)) are carried as Fraction values and rounded to
binary64 once, at plan construction.  COROLLARIES holds one row per
registry variant of a corollary family: its kind, id suffix and printed
flag, the theorem it instantiates at an exact (d1, d2) depending on n, the
coefficients it claims there, and its erratum.

Two printed corollary families do not follow from the main extension
theorem as stated; each has an as-printed and a corrected row, so the
report shows exactly which form is reproducible:

  * cor2: the as-printed second series (first lower parameter 3/2) has
    unit-argument convergence parameter -1/2 and diverges; the corrected
    variant uses 5/2 and reproduces n*e^(-pi).
  * cor3: the as-printed d1 = 1/(2(10n-1)) reproduces
    (4n - 3/10)(e^pi + e^(-pi)), not the claimed n(e^pi + e^(-pi)); the
    corrected d1 = 2/(10n-1) reproduces the claim.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import groupby

from . import closed_forms as cf
from .errors import RangeError
from .series import SeriesSpec, SumPolicy, SumStatus, sum_pfq

I = 1j

CLOSED_TOL = 1e-12    # gamma ratios, ~1e-13 per gamma
TOLERANCES_BY_ARGUMENT = {1.0: (1e-6, 3e-8), 0.5: (1e-11, 1e-13)}
OTHER_ARGUMENT_TOLERANCES = (1e-13, 1e-15)

LAMBDA_LIMIT = 15.0


# coef * e^(pi * power); coef and power stay exact when rational
ExpTerm = namedtuple("ExpTerm", "coef power")


def series_tolerances(spec: SeriesSpec) -> tuple[float, float]:
    """(comparison, summation) tolerance of one series member."""
    return TOLERANCES_BY_ARGUMENT.get(spec.argument, OTHER_ARGUMENT_TOLERANCES)


def expected_value(terms: tuple[ExpTerm, ...]) -> float:
    """Evaluate a rational-exponential combination with the exp oracle."""
    return math.fsum(float(c) * math.exp(math.pi * float(p)) for c, p in terms)


class IdentityCase(namedtuple(
        "IdentityCase", "id lhs_plan rhs_plan expected n lam expect_divergent erratum",
        defaults=(None, None, False, None))):
    """One registry identity: lhs_plan its (spec, weight) series members,
    rhs_plan its (weight, theorem, args) closed members or None, expected its
    ExpTerms or None; n is the corollary index and lam the lambda of a
    parameterized identity, each None elsewhere."""

    __slots__ = ()

    closed_tol = CLOSED_TOL   # a class constant, not a field

    @property
    def series_tol(self) -> float | None:
        """The loosest comparison tolerance of the series members."""
        return max((series_tolerances(spec)[0] for spec, _ in self.lhs_plan),
                   default=None)

    @property
    def documented_only(self) -> bool:
        """Recorded but never evaluated: the case has no series member."""
        return not self.lhs_plan


VerificationReport = namedtuple(
    "VerificationReport", "id n lam closed_value series_value expected_value "
    "abs_residual rel_residual series_status verdict erratum")


# ----------------------------------------------------------------------
# exact coefficient algebra
# ----------------------------------------------------------------------

def theorem1_coefficients(d1: Fraction, d2: Fraction) -> tuple[Fraction, Fraction]:
    """(coefficient of e^pi, coefficient of e^-pi) for the unit-argument
    extension 3F2(i,-i,d1+1; 3/2,d1; 1) + 2*3F2(1/2+i,1/2-i,d2+1; 5/2,d2; 1)."""
    d1, d2 = Fraction(d1), Fraction(d2)
    c_plus = Fraction(1, 5) / d1 + Fraction(15, 32) / d2 + Fraction(23, 80)
    c_minus = Fraction(1, 5) / d1 - Fraction(15, 32) / d2 - Fraction(7, 80)
    return c_plus, c_minus


def theorem2_coefficients(d1: Fraction, d2: Fraction) -> tuple[Fraction, Fraction]:
    """(coefficient of e^(pi/2), coefficient of e^(-pi/2)) for the
    half-argument extension 3F2(i,-i,d1+1; 3/2,d1; 1/2)
    + sqrt(2)*3F2(1/2+i,1/2-i,d2+1; 5/2,d2; 1/2)."""
    d1, d2 = Fraction(d1), Fraction(d2)
    c_plus = Fraction(1, 10) / d1 + Fraction(3, 16) / d2 + Fraction(27, 40)
    c_minus = Fraction(3, 10) / d1 - Fraction(21, 16) / d2 + Fraction(11, 40)
    return c_plus, c_minus


# ----------------------------------------------------------------------
# scalar constants
# ----------------------------------------------------------------------

def gelfond() -> float:
    """e^pi from the two unit-argument Gauss values."""
    return gelfond_lambda(1.0)


def closed_route(members) -> complex:
    """The weighted sum of the closed forms of members (weight, theorem, args)."""
    acc = 0.0 + 0.0j
    for weight, theorem, args in members:
        acc += complex(weight) * getattr(cf, theorem)(*args)
    return acc


def _lambda_members(lam: float) -> tuple:
    """e^(pi*lam) = 2F1(i lam, -i lam; 1/2; 1)
    + 2 lam * 2F1(1/2 + i lam, 1/2 - i lam; 3/2; 1)."""
    return ((1, "gauss_unit", (I * lam, -I * lam, 0.5)),
            (2 * lam, "gauss_unit", (0.5 + I * lam, 0.5 - I * lam, 1.5)))


def _sqrt_members(sign: int) -> tuple:
    """e^(+/- pi/2) = 2F1(i,-i;1/2;1/2) +/- sqrt(2) 2F1(1/2+i,1/2-i;3/2;1/2)."""
    return ((1, "second_gauss_half", (I, -I)),
            (sign * math.sqrt(2.0), "bailey_half", (0.5 + I, 1.5)))


def gelfond_lambda(lam: float) -> float:
    """e^(pi*lam) from the parameterized pair of unit-argument Gauss values;
    real lam with |lam| <= 15 (gamma accuracy domain)."""
    lam = float(lam)
    if not (abs(lam) <= LAMBDA_LIMIT):
        raise RangeError(f"lambda = {lam} outside |lambda| <= {LAMBDA_LIMIT}")
    if lam < 0.0:
        # the cosh- and sinh-sized members cancel for lam < 0
        return 1.0 / gelfond_lambda(-lam)
    return closed_route(_lambda_members(lam)).real


def sqrt_gelfond_pair() -> tuple[float, float]:
    """(e^(pi/2), e^(-pi/2)) as S +/- sqrt(2)*B, the closed routes of eq. 4.1
    with each of its members S and sqrt(2)*B evaluated once."""
    s, rb = (closed_route((member,)).real for member in _sqrt_members(+1))
    return s + rb, s - rb


# ----------------------------------------------------------------------
# case constructors
# ----------------------------------------------------------------------

def _theorem_case(case_id: str, expected: tuple[ExpTerm, ...],
                  *members, **fields) -> IdentityCase:
    """The case whose two routes are the weighted sums of its members
    (weight, theorem, args), with ``theorem`` a closed_forms function name;
    exact Fraction arguments reach SeriesSpec unrounded and round there."""
    return IdentityCase(
        id=case_id,
        lhs_plan=tuple((SeriesSpec(*cf.SERIES[theorem](*args)), complex(w))
                       for w, theorem, args in members),
        rhs_plan=members,
        expected=expected,
        **fields,
    )


def _exact_d(d) -> Fraction:
    """d as an exact fraction, rejected by the same pole guard the closed
    forms apply, so that every case that constructs also evaluates."""
    if isinstance(d, float) and not math.isfinite(d):
        raise RangeError(f"extension parameter d = {d} is not finite")
    d = Fraction(d)
    cf.check_d(d)
    return d


def theorem1(d1, d2, case_id: str | None = None) -> IdentityCase:
    """Unit-argument extension identity at exact rational (d1, d2)."""
    d1, d2 = _exact_d(d1), _exact_d(d2)
    c_plus, c_minus = theorem1_coefficients(d1, d2)
    return _theorem_case(
        case_id or f"thm1-d1={d1}-d2={d2}",
        (ExpTerm(c_plus, 1), ExpTerm(c_minus, -1)),
        (1, "gauss_ext_unit", (I, -I, 0.5, d1)),
        (2, "gauss_ext_unit", (0.5 + I, 0.5 - I, 1.5, d2)),
    )


def theorem2(d1, d2, case_id: str | None = None) -> IdentityCase:
    """Half-argument extension identity at exact rational (d1, d2)."""
    d1, d2 = _exact_d(d1), _exact_d(d2)
    c_plus, c_minus = theorem2_coefficients(d1, d2)
    return _theorem_case(
        case_id or f"thm2-d1={d1}-d2={d2}",
        (ExpTerm(c_plus, Fraction(1, 2)), ExpTerm(c_minus, Fraction(-1, 2))),
        (1, "second_gauss_ext_half", (I, -I, d1)),
        (math.sqrt(2.0), "bailey_ext_half", (0.5 + I, 1.5, d2)),
    )


# One registry variant of a corollary family, with id "<kind>-n<n><suffix>":
# theorem at the exact (d1, d2) = d(n), claimed to give the coefficients
# (c+, c-) = claim(n); second_lower is the as-printed second lower parameter
# that makes the series diverge, or None.
_Corollary = namedtuple(
    "_Corollary", "kind suffix printed theorem d claim erratum second_lower",
    defaults=(None, None))


# in registry order; a family's rows are adjacent
COROLLARIES = (
    _Corollary("cor1", "", False, theorem1,
               lambda n: (Fraction(2, 5 * n - 1), Fraction(15, 2 * (8 * n - 3))),
               lambda n: (Fraction(n), Fraction(0))),
    _Corollary("cor2", "", False, theorem1,
               lambda n: (Fraction(2, 5 * n - 1), Fraction(-15, 2 * (8 * n + 3))),
               lambda n: (Fraction(0), Fraction(n)),
               erratum="second series lower parameter 5/2, not the printed 3/2"),
    _Corollary("cor2", "-printed", True, theorem1,
               lambda n: (Fraction(2, 5 * n - 1), Fraction(-15, 2 * (8 * n + 3))),
               lambda n: (Fraction(0), Fraction(n)),
               erratum="as printed the second series diverges; "
                       "corrected companion uses lower parameter 5/2",
               second_lower=Fraction(3, 2)),
    _Corollary("cor3", "-printed", True, theorem1,
               lambda n: (Fraction(1, 2 * (10 * n - 1)), Fraction(-5, 2)),
               lambda n: (4 * n - Fraction(3, 10),) * 2,
               erratum="printed d1 = 1/(2(10n-1)) does not reproduce "
                       "n(e^pi+e^-pi); corrected companion uses d1 = 2/(10n-1)"),
    _Corollary("cor3", "-corrected", False, theorem1,
               lambda n: (Fraction(2, 10 * n - 1), Fraction(-5, 2)),
               lambda n: (Fraction(n), Fraction(n)),
               erratum="d1 corrected from the printed 1/(2(10n-1)) to 2/(10n-1)"),
    _Corollary("cor4", "", False, theorem2,
               lambda n: (Fraction(1, 7 * n - 5), Fraction(15, 24 * n - 14)),
               lambda n: (Fraction(n), Fraction(0))),
)


def _corollary_row(kind: str, n: int, printed: bool) -> _Corollary:
    """The row of family ``kind`` with this ``printed`` flag, once n and
    kind are checked; cor1 and cor4 have no printed row."""
    if n < 1:
        raise ValueError("corollary index n must be >= 1")
    rows = [row for row in COROLLARIES if row.kind == kind]
    if not rows:
        raise ValueError(f"unknown corollary kind {kind!r}")
    row = next((r for r in rows if r.printed == printed), None)
    if row is None:
        raise ValueError(f"{kind} has no distinct printed variant")
    return row


def corollary_parameters(kind: str, n: int, printed: bool = False
                         ) -> tuple[Fraction, Fraction]:
    """Exact (d1, d2) of the row that corollary_case(kind, n, printed)
    takes: ``printed=True`` gives the as-printed d1 of cor3, and raises
    ValueError for cor1 and cor4, which have no printed row."""
    return _corollary_row(kind, n, printed).d(n)


def corollary_case(kind: str, n: int, printed: bool = False) -> IdentityCase:
    """One corollary-family case.  ``printed=True`` selects the as-printed
    variant for cor2 (divergent companion) and cor3 (wrong-multiple
    variant); cor1 and cor4 have no distinct printed variant."""
    row = _corollary_row(kind, n, printed)
    case = row.theorem(*row.d(n), f"{kind}-n{n}{row.suffix}")
    assert tuple(t.coef for t in case.expected) == row.claim(n)
    case = case._replace(n=n, erratum=row.erratum)
    if row.second_lower is None:
        return case
    # the as-printed companion diverges: the second series takes the printed
    # lower parameter, and there is no closed route, claimed terms only
    first, (second, weight) = case.lhs_plan
    diverging = second._replace(lower=(row.second_lower, *second.lower[1:]))
    return case._replace(lhs_plan=(first, (diverging, weight)),
                         rhs_plan=None,
                         expected=tuple(t for t in case.expected if t.coef),
                         expect_divergent=True)


def _lambda_case(lam, case_id: str) -> IdentityCase:
    """The members of _lambda_members at lam, against e^(pi*lam)."""
    return _theorem_case(case_id, (ExpTerm(Fraction(1), lam),),
                         *_lambda_members(float(lam)), lam=float(lam))


def _sqrt_case(case_id: str, sign: int) -> IdentityCase:
    """The members of _sqrt_members at sign, against e^(sign pi/2)."""
    return _theorem_case(case_id, (ExpTerm(Fraction(1), Fraction(sign, 2)),),
                         *_sqrt_members(sign))


THEOREM1_GRID = (
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(2), Fraction(3, 2)),
    (Fraction(1), Fraction(1)),
    (Fraction(3), Fraction(1, 4)),
    (Fraction(4), Fraction(5, 2)),
)

THEOREM2_GRID = (
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(3, 2)),
    (Fraction(5, 2), Fraction(4)),
    (Fraction(1, 3), Fraction(5, 3)),
)

LAMBDA_GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def registry() -> list[IdentityCase]:
    """Deterministic, stable-ordered list of every identity this package
    verifies, plus two documented-but-never-evaluated entries."""
    quarter_pi2 = math.pi * math.pi / 4.0
    e_pi = (ExpTerm(Fraction(1), 1),)
    cases = [
        # e^pi as a sum of two unit-argument Gauss values
        _lambda_case(Fraction(1), "eq1.1")._replace(lam=None),
        # e^pi = 0F1(; 1/2; pi^2/4) + pi * 0F1(; 3/2; pi^2/4), summed directly
        IdentityCase("0f1-bessel",
                     ((SeriesSpec((), (0.5,), quarter_pi2), 1.0 + 0.0j),
                      (SeriesSpec((), (1.5,), quarter_pi2), complex(math.pi))),
                     None, e_pi),
        # e^pi = sum over n of pi^n / n! (even-dimension unit-ball volumes)
        IdentityCase("sphere-volume",
                     ((SeriesSpec((), (), math.pi), 1.0 + 0.0j),), None, e_pi),
    ]
    for k, (d1, d2) in enumerate(THEOREM1_GRID, start=1):
        cases.append(theorem1(d1, d2, case_id=f"thm1-g{k}"))
    for kind, rows in groupby(COROLLARIES, key=lambda row: row.kind):
        printed = [row.printed for row in rows]
        cases.extend(corollary_case(kind, n, p)
                     for n in (1, 2, 3) for p in printed)
    cases.append(_sqrt_case("eq4.1a", +1))
    cases.append(_sqrt_case("eq4.1b", -1))
    for k, (d1, d2) in enumerate(THEOREM2_GRID, start=1):
        cases.append(theorem2(d1, d2, case_id=f"thm2-g{k}"))
    for lam in LAMBDA_GRID:
        cases.append(_lambda_case(lam, f"eq4.6-lam{float(lam):g}"))
    # alternative e^(-pi/2) expression: lambda = -1/2
    cases.append(_lambda_case(Fraction(-1, 2), "eq4.7"))
    # recorded, never evaluated: the product over k of k^(-mu(k)/k) to the
    # power sqrt(6 zeta(2)), conditionally convergent, and an alternating-
    # factorial sum to the power -4 * (1 - 1/3 + 1/5 - ...), too slowly
    # convergent
    cases.append(IdentityCase("mobius-product", (), None, None))
    cases.append(IdentityCase("leibniz-power", (), None, None))
    return cases


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def _aggregate_status(statuses: list[SumStatus]) -> str:
    if any(s is SumStatus.DIVERGENT for s in statuses):
        return SumStatus.DIVERGENT.value
    if any(s is SumStatus.MAX_TERMS_EXCEEDED for s in statuses):
        return SumStatus.MAX_TERMS_EXCEEDED.value
    if statuses and all(s is SumStatus.TRUNCATED for s in statuses):
        return SumStatus.TRUNCATED.value
    return SumStatus.CONVERGED.value


def verify(case: IdentityCase, tolerance: float | None = None,
           max_terms: int = SumPolicy().max_terms) -> VerificationReport:
    """Evaluate one case along every route it defines and compare.

    Each series member is summed at SumPolicy(tolerance, max_terms), with
    the summation tolerance of its argument when ``tolerance`` is None; a
    given tolerance replaces every member's (and a loose one can
    deliberately make the series route fail).  Invalid arguments raise
    ValueError, for every case; failures of the routes are verdicts, not
    exceptions.  A documented-only case defines no route.
    """
    policy = (SumPolicy(max_terms=max_terms) if tolerance is None
              else SumPolicy(tolerance, max_terms))
    expected = expected_value(case.expected) if case.expected else None

    closed = closed_route(case.rhs_plan).real if case.rhs_plan is not None else None

    series_value = series_status = None
    if case.lhs_plan:
        statuses = []
        acc = 0.0 + 0.0j
        for spec, weight in case.lhs_plan:
            if tolerance is None:
                policy = SumPolicy(series_tolerances(spec)[1], max_terms)
            result = sum_pfq(spec, policy)
            statuses.append(result.status)
            acc += weight * result.value
        series_status = _aggregate_status(statuses)
        if series_status != SumStatus.DIVERGENT.value:
            series_value = acc.real

    scale = max(abs(expected), 1e-300) if expected is not None else 1.0
    primary_abs = None
    if case.documented_only:
        verdict = "SkippedDocumented"
    elif case.expect_divergent:
        verdict = ("SkippedDivergent"
                   if series_status == SumStatus.DIVERGENT.value else "Fail")
    else:
        closed_rel = series_rel = None
        if closed is not None and expected is not None:
            closed_rel = abs(closed - expected) / scale
        # the verdict is residual-based: a member that could not certify
        # its own tail (MaxTermsExceeded) still passes if its value meets
        # the comparison tolerance; divergence can never pass here
        if series_value is not None and expected is not None:
            series_rel = abs(series_value - expected) / scale
        passed = ((closed_rel is None or closed_rel <= case.closed_tol)
                  and series_rel is not None and series_rel <= case.series_tol)
        primary = closed if closed is not None else series_value
        if primary is not None and expected is not None:
            primary_abs = abs(primary - expected)
        verdict = "Pass" if passed else "Fail"

    return VerificationReport(
        id=case.id, n=case.n, lam=case.lam,
        closed_value=closed, series_value=series_value, expected_value=expected,
        abs_residual=primary_abs,
        rel_residual=primary_abs / scale if primary_abs is not None else None,
        series_status=series_status, verdict=verdict, erratum=case.erratum,
    )


def verify_all(tolerance: float | None = None,
               max_terms: int = SumPolicy().max_terms) -> list[VerificationReport]:
    """verify(case, tolerance, max_terms) for every registry case."""
    return [verify(case, tolerance, max_terms) for case in registry()]
