"""The benchmark's three workloads, built from a seed.

Each workload is a fixed list of operations.  An operation is one call
into gelfond on inputs generated here; the program receives only those
inputs.  This module never imports the oracle library, so a process that
builds and runs a workload through it alone measures gelfond's own memory.

Operations whose inputs are fixed rather than seeded carry a ``fault``
tag when they expose a known defect of the program: they fail the same
check on every run, whatever the seed, so the failed share of a run is
exact.  Seeded inputs are drawn from regions where today's program is
right (each family was checked against the oracle on hundreds of seeds).
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from gelfond import closed_forms, identities, series
from gelfond.series import SeriesSpec, SumPolicy

WORKLOADS = ("registry", "series", "closed")

# Known program faults exercised by fixed-input operations; README.md
# describes each, with the command that shows it.
FAULT_TAIL_CAP = "1"       # series._direct_sum caps the term ratio at 0.99
FAULT_ROUNDING = "2"       # _direct_sum's tail counts truncation, not rounding
FAULT_LAMBDA = "3"         # identities.gelfond_lambda cancels for lambda < 0


@dataclass
class Op:
    """One operation: ``call()`` runs it; ``kind`` and ``data`` tell the
    oracle what to compare the output with."""

    label: str
    call: Callable[[], object]
    kind: str
    data: dict = field(default_factory=dict)
    fault: str | None = None


# ----------------------------------------------------------------------
# registry: verify(case) over the 40 registry cases
# ----------------------------------------------------------------------

def _registry(rng: random.Random) -> list[Op]:
    cases = identities.registry()
    rng.shuffle(cases)
    return [Op(f"verify {case.id}", partial(identities.verify, case),
               "registry", {"case": case})
            for case in cases]


# ----------------------------------------------------------------------
# series: single sum_pfq calls on inputs the registry never reaches
# ----------------------------------------------------------------------

COMPLEX_UNIT_CALLS = 4
COMPLEX_UNIT_TOL = 1e-6
SEEDED_TOL = 1e-9
NEAR_UNIT_TOL = 1e-10


def _series_op(upper, lower, z, tol, fault=None) -> Op:
    spec = SeriesSpec(upper, lower, z)
    label = (f"sum_pfq {len(upper)}F{len(lower)}"
             f"({','.join(map(_fmt, upper))};{','.join(map(_fmt, lower))};"
             f"{_fmt(z)}) tol={tol:g}")
    return Op(label, partial(series.sum_pfq, spec, SumPolicy(tolerance=tol)),
              "series", {"spec": spec}, fault)


def _fmt(x) -> str:
    x = complex(x)
    return repr(x.real) if x.imag == 0.0 else repr(x)


def _series(rng: random.Random) -> list[Op]:
    ops = []
    # complex-term 2F1 at z = 1: the complex Levin kernel.  With
    # s = Re(c-a-b) in [2, 3] the window ladder certifies 1e-6 on its
    # second window for every draw, so the work per call hardly varies.
    for _ in range(COMPLEX_UNIT_CALLS):
        a = complex(rng.uniform(0.1, 0.6),
                    rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.5))
        b = rng.uniform(0.05, 0.6)
        c = a.real + b + rng.uniform(2.0, 3.0)
        ops.append(_series_op((a, b), (c,), 1.0, COMPLEX_UNIT_TOL))
    # p = q+1 direct sums.  Seeded draws stay at z <= 0.9, where the
    # term ratio (approaching z from below) keeps the tail honest.
    for z in (0.5, 0.9):
        a, b = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        c = a + b - 1.0 + rng.uniform(0.5, 2.0)
        ops.append(_series_op((a, b), (c,), z, SEEDED_TOL))
        ops.append(_series_op((rng.uniform(0.1, 0.9),), (), z, SEEDED_TOL))
    # fixed near-unit inputs: -ln(1-z)/z and asin(sqrt z)/sqrt z
    for z in (0.99, 0.999):
        fault = FAULT_TAIL_CAP if z == 0.999 else None
        ops.append(_series_op((1.0, 1.0), (2.0,), z, NEAR_UNIT_TOL, fault))
        ops.append(_series_op((0.5, 0.5), (1.5,), z, NEAR_UNIT_TOL, fault))
    # (1-z)^(-3/2): the term ratio approaches z = 0.99 from above
    ops.append(_series_op((1.5,), (), 0.99, NEAR_UNIT_TOL, FAULT_TAIL_CAP))
    # entire series, at a tolerance where truncation dominates rounding
    for _ in range(2):
        ops.append(_series_op((), (rng.uniform(0.3, 3.0),),
                              rng.uniform(0.5, 30.0), SEEDED_TOL))
        ops.append(_series_op((rng.uniform(0.2, 3.0),), (rng.uniform(0.3, 3.0),),
                              rng.uniform(0.5, 15.0), SEEDED_TOL))
        ops.append(_series_op((), (), rng.uniform(0.5, 20.0), SEEDED_TOL))
    # cosh(pi) = 0F1(;1/2;pi^2/4) at the default tolerance 1e-13
    ops.append(_series_op((), (0.5,), 2.4674011002723395, 1e-13, FAULT_ROUNDING))
    return ops


# ----------------------------------------------------------------------
# closed: the CLI's heegner and constants paths and the six theorems
# ----------------------------------------------------------------------

CONSTANTS_CALLS = 6
THEOREM_ROWS = 40
FAULT_LAMBDAS = (-5.0, -15.0)


def _cli_call(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _cli_op(argv: list[str], kind: str, data: dict, fault=None) -> Op:
    # imported here so that the other workloads' set-up does not load the CLI
    from gelfond import cli
    return Op("gelfond " + " ".join(argv), partial(_cli_call, cli.main, argv),
              kind, data, fault)


def _theorem_row(calls) -> list[complex]:
    return [fn(*args) for fn, args in calls]


def _theorem_args(rng: random.Random) -> dict[str, tuple]:
    """Seeded arguments for the six theorems, away from their poles."""
    def cplx(lo, hi, im):
        return complex(rng.uniform(lo, hi), rng.uniform(-im, im))
    a, b = cplx(-0.5, 0.5, 1.5), cplx(-0.5, 0.5, 1.5)
    c = (a + b).real + rng.uniform(0.5, 2.0)
    d = rng.uniform(0.5, 3.0)
    return {
        "gauss_unit": (a, b, c),
        "gauss_ext_unit": (a, b, c, d),
        "second_gauss_half": (a, b),
        "bailey_half": (a, rng.uniform(0.5, 3.0)),
        "second_gauss_ext_half": (a, b, d),
        "bailey_ext_half": (a, rng.uniform(0.5, 3.0), d),
    }


def _closed(rng: random.Random) -> list[Op]:
    ops = [_cli_op(["heegner", "--format", "json"], "heegner", {})]
    for n in (19, 43, 67, 163):
        ops.append(_cli_op(["heegner", "--n", str(n), "--format", "json"],
                           "heegner", {}))
    lambdas = [rng.uniform(-1.0, 15.0) for _ in range(CONSTANTS_CALLS)]
    for lam in lambdas:
        ops.append(_cli_op(["constants", "--lambda", repr(lam), "--format", "json"],
                           "constants", {"lambda": lam}))
    for lam in FAULT_LAMBDAS:
        ops.append(_cli_op(["constants", "--lambda", repr(lam), "--format", "json"],
                           "constants", {"lambda": lam}, FAULT_LAMBDA))
    for k in range(THEOREM_ROWS):
        args = _theorem_args(rng)
        calls = [(getattr(closed_forms, name), a) for name, a in args.items()]
        ops.append(Op(f"closed_forms row {k} {args}", partial(_theorem_row, calls),
                      "theorems", {"args": args}))
    return ops


_BUILDERS = {"registry": _registry, "series": _series, "closed": _closed}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations for ``seed``; the same seed gives the same
    inputs."""
    return _BUILDERS[workload](random.Random(seed))


def unit_series(ops: list[Op]) -> list[SeriesSpec]:
    """The convergent p = q+1 series at z = 1 that a workload's operations
    sum or evaluate in closed form; the Levin window timings use them."""
    specs = []
    for op in ops:
        if op.kind == "registry":
            specs += [spec for spec, _ in op.data["case"].lhs_plan]
        elif op.kind == "series":
            specs.append(op.data["spec"])
        elif op.kind == "constants":
            lam = op.data["lambda"]
            specs.append(SeriesSpec((1j * lam, -1j * lam), (0.5,), 1.0))
            specs.append(SeriesSpec((0.5 + 1j * lam, 0.5 - 1j * lam), (1.5,), 1.0))
        elif op.kind == "theorems":
            a, b, c = op.data["args"]["gauss_unit"]
            specs.append(SeriesSpec((a, b), (c,), 1.0))
    return [s for s in specs
            if s.argument == 1.0 and len(s.upper) == len(s.lower) + 1
            and s.truncation_degree() is None and s.convergence_parameter() > 0.0]
