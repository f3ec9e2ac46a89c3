"""The public API: every callable of gelfond.__all__ takes its arguments by
the rules of gelfond.errors, and the README's library example runs.

Each entry has one good call, and each of its checked positions is given
a bool, a numeric str, None and a Decimal in turn, wherever those are
invalid: the entry raises ValueError itself, naming the value, never an
AttributeError or TypeError from deeper down, and never a result.  CI
also runs this module under python -O, which strips every assert of the
package, so each refusal must be an explicit raise.
"""

import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import gelfond
from gelfond import DDReal, SeriesSpec, SumPolicy

README = Path(__file__).resolve().parent.parent / "README.md"

# plain records and exceptions: constructed by the package, not checked
RECORDS = {"SumResult", "VerificationReport", "HeegnerRow", "ExpTerm",
           "IdentityCase", "DDReal", "SumStatus", "ConvergenceDomainError",
           "DivergentError", "ParseError", "PoleError", "RangeError"}

BAD = {"bool": True, "str": "1", "None": None, "Decimal": Decimal("1")}

SPEC = SeriesSpec((1, 1), (2,), 0.5)
CASE = next(case for case in gelfond.registry() if case.id == "sphere-volume")
D = (Fraction(1, 2), Fraction(3, 2))

# name -> (the arguments of a good call, its checked positions); a position
# is an argument's index, or (index, item) for an item of a row argument
CONTRACT = {
    "SeriesSpec": (([1, 1], [2], 0.5), (0, (0, 0), 1, (1, 0), 2)),
    "SumPolicy": ((1e-10, 100), (0, 1)),
    "sum_pfq": ((SPEC, SumPolicy()), (0, 1)),
    "gamma": ((2.5,), (0,)),
    "log_gamma": ((2.5,), (0,)),
    "gauss_unit": ((0.1, 0.2, 1.5), (0, 1, 2)),
    "gauss_ext_unit": ((0.1, 0.2, 1.5, 2.0), (0, 1, 2, 3)),
    "second_gauss_half": ((0.1, 0.2), (0, 1)),
    "bailey_half": ((0.1, 1.5), (0, 1)),
    "second_gauss_ext_half": ((0.1, 0.2, 2.0), (0, 1, 2)),
    "bailey_ext_half": ((0.1, 1.5, 2.0), (0, 1, 2)),
    "gelfond": ((), ()),
    "gelfond_lambda": ((0.5,), (0,)),
    "sqrt_gelfond_pair": ((), ()),
    "theorem1": ((*D, "t1"), (0, 1, 2)),
    "theorem2": ((*D, "t2"), (0, 1, 2)),
    "corollary_case": (("cor2", 1, False), (0, 1, 2)),
    "registry": ((), ()),
    "verify": ((CASE, 1e-13, 10**6), (0, 1, 2)),
    "verify_all": ((None, 10**6), (0, 1)),
    "dd_to_decimal": ((DDReal(5.0), 31), (0, 1)),
    "heegner_row": ((19,), (0,)),
    "heegner_table": ((), ()),
}

# (name, position) -> the kinds of BAD value that the position accepts
ACCEPTED = {
    ("theorem1", 2): {"str", "None"},        # case_id: a str or None
    ("theorem2", 2): {"str", "None"},
    ("corollary_case", 2): {"bool"},         # printed
    ("verify", 1): {"None"},                 # tolerance: None for the default
    ("verify_all", 0): {"None"},
}


def _with(args, position, value) -> list:
    """args with value at position."""
    args = list(args)
    if isinstance(position, tuple):
        index, item = position
        args[index] = [*args[index][:item], value, *args[index][item + 1:]]
    else:
        args[position] = value
    return args


def test_every_public_name_has_a_row_or_is_a_record():
    assert set(gelfond.__all__) == RECORDS | CONTRACT.keys() | {"HEEGNER_BASES"}
    callables = {name for name in gelfond.__all__ if callable(getattr(gelfond, name))}
    assert callables - RECORDS == CONTRACT.keys()


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_public_entry_refuses_arguments_of_the_wrong_type(name):
    entry = getattr(gelfond, name)
    args, positions = CONTRACT[name]
    entry(*args)
    for position in positions:
        for kind, bad in BAD.items():
            if kind in ACCEPTED.get((name, position), ()):
                continue
            with pytest.raises(ValueError) as excinfo:
                entry(*_with(args, position, bad))
            assert excinfo.type is ValueError, (position, kind)
            assert repr(bad) in str(excinfo.value), (position, kind)


@pytest.mark.parametrize("call", [
    lambda: gelfond.log_gamma(10**400),
    lambda: gelfond.gauss_unit(0.1, Fraction(10**400), 1.5),
    lambda: SeriesSpec([1, 10**400], [2], 0.5),
], ids=["log_gamma", "gauss_unit", "SeriesSpec"])
def test_a_number_beyond_binary64_is_a_range_error(call):
    with pytest.raises(gelfond.RangeError, match="overflows binary64"):
        call()


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M)
    exec(compile(block.group(1), str(README), "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in printed] == [case.id for case in gelfond.registry()]
    assert {row[1] for row in printed} == {"Pass", "SkippedDivergent",
                                           "SkippedDocumented"}
