"""The package's records are immutable collections.namedtuple types: no
dataclasses or typing at import, no writable fields, constructor checks
that _replace cannot skip, no tuple arithmetic on DDReal, the reprs the
dataclasses printed, and round trips through pickle and deepcopy."""

import copy
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gelfond
from gelfond import (
    DDReal,
    ExpTerm,
    HeegnerRow,
    SeriesSpec,
    SumPolicy,
    SumResult,
    SumStatus,
    VerificationReport,
    registry,
    verify,
)

SRC = str(Path(gelfond.__file__).resolve().parent.parent)


def test_import_loads_no_dataclasses_inspect_or_typing():
    code = ("import sys, gelfond, gelfond.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def _records():
    case = next(c for c in registry() if c.id == "eq1.1")
    row = HeegnerRow(19, DDReal(885479.75), 96, 885480, DDReal(0.25), 3.5e-25)
    return [SumResult(1j, 3, 0.0, SumStatus.CONVERGED), SumPolicy(),
            SeriesSpec((1,), (2,), 0.5), case, verify(case), DDReal(1.0), row,
            ExpTerm(Fraction(1), Fraction(-1, 2))]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_replace_runs_the_constructor_checks():
    spec = SeriesSpec((1, 1), (2,), 0.5)
    with pytest.raises(ValueError, match="p = 3 > q \\+ 1 = 2"):
        spec._replace(upper=(1, 1, 1))
    with pytest.raises(ValueError, match="tolerance"):
        SumPolicy()._replace(tolerance=0.0)
    assert spec._replace(upper=(1,)).upper == (1 + 0j,)
    assert type(spec._replace(upper=(1,)).upper[0]) is complex
    assert SumPolicy()._replace(max_terms=50) == SumPolicy(max_terms=50)


@pytest.mark.parametrize("op", [lambda x: x + DDReal(2.0), lambda x: x * 2,
                                lambda x: 2 * x, lambda x: (2.0,) + x])
def test_ddreal_has_no_tuple_arithmetic(op):
    with pytest.raises(TypeError):
        op(DDReal(1.0))


def test_reprs_are_those_of_the_dataclasses():
    assert repr(SumResult(1 + 2j, 7, 0.0, SumStatus.CONVERGED)) == (
        "SumResult(value=(1+2j), terms_used=7, tail_estimate=0.0, "
        "status=<SumStatus.CONVERGED: 'Converged'>)")
    assert repr(SumResult(0j, 0, math.inf, SumStatus.DIVERGENT)) == (
        "SumResult(value=0j, terms_used=0, tail_estimate=inf, "
        "status=<SumStatus.DIVERGENT: 'Divergent'>)")
    assert repr(SumPolicy(1e-06, 50)) == "SumPolicy(tolerance=1e-06, max_terms=50)"
    assert repr(SumPolicy()) == "SumPolicy(tolerance=1e-13, max_terms=1000000)"
    assert repr(SeriesSpec((1, 1j), (2,), 0.5)) == (
        "SeriesSpec(upper=((1+0j), 1j), lower=((2+0j),), argument=(0.5+0j))")
    assert repr(DDReal(1.0, 2.0**-60)) == "DDReal(hi=1.0, lo=8.673617379884035e-19)"
    assert repr(DDReal(-2.5)) == "DDReal(hi=-2.5, lo=0.0)"
    row = HeegnerRow(19, DDReal(885479.75), 96, 885480, DDReal(0.25, -1e-17), 3.5e-25)
    assert repr(row) == (
        "HeegnerRow(n=19, value=DDReal(hi=885479.75, lo=0.0), cube_base=96, "
        "reference=885480, deviation=DDReal(hi=0.25, lo=-1e-17), "
        "error_bound=3.5e-25)")
    assert repr(ExpTerm(Fraction(1), Fraction(-1, 2))) == (
        "ExpTerm(coef=Fraction(1, 1), power=Fraction(-1, 2))")
    report = VerificationReport("cor1-n1", 1, None, 23.140692632779214,
                                23.14069263277927, 23.140692632779267, 5.3e-14,
                                2.3e-15, "Converged", "Pass", None)
    assert repr(report) == (
        "VerificationReport(id='cor1-n1', n=1, lam=None, "
        "closed_value=23.140692632779214, series_value=23.14069263277927, "
        "expected_value=23.140692632779267, abs_residual=5.3e-14, "
        "rel_residual=2.3e-15, series_status='Converged', verdict='Pass', "
        "erratum=None)")


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_survive_pickle_and_deepcopy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)
