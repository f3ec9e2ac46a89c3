"""The four largest Heegner numbers and their near-integer exponentials.

For n in {19, 43, 67, 163} the value e^(pi sqrt(n)) falls just below the
integer c^3 + 744; the gap shrinks from ~0.22 at n=19 to ~7.5e-13 at
n=163 (Ramanujan's constant).  Resolving the last gap requires ~30 of the
~31 digits double-double provides, so every row carries a computed error
bound and the n=163 deviation is only meaningful as an order-of-magnitude.
"""

from __future__ import annotations

from collections import namedtuple

from .ddreal import DDReal, dd_exp, dd_mul, dd_pi, dd_round, dd_sqrt, dd_sub

# cube bases of the near-integers c^3 + 744
HEEGNER_BASES = {19: 96, 43: 960, 67: 5280, 163: 640320}

# per-dd-operation ulp budget: pi and sqrt contribute relative error that
# the exponential turns into absolute exponent error ~x * 2^-106 per
# factor, plus a handful of ulps inside dd_exp itself
_ULP = 2.0 ** -106


# one table row: value = e^(pi sqrt n) as a DDReal, reference the int
# cube_base^3 + 744, deviation = reference - value as a DDReal (> 0 for all
# four rows), error_bound a float bound on |computed - true| of value
HeegnerRow = namedtuple("HeegnerRow",
                        "n value cube_base reference deviation error_bound")


def heegner_row(n: int) -> HeegnerRow:
    if type(n) is not int or n not in HEEGNER_BASES:
        raise ValueError(f"n must be one of the ints {sorted(HEEGNER_BASES)}, got {n!r}")
    base = HEEGNER_BASES[n]
    reference = base**3 + 744
    exponent = dd_mul(dd_pi(), dd_sqrt(DDReal.from_int(n)))
    value = dd_exp(exponent)
    deviation = dd_sub(DDReal.from_int(reference), value)
    rel_bound = (6.0 + 2.0 * exponent.hi) * _ULP
    return HeegnerRow(
        n=n,
        value=value,
        cube_base=base,
        reference=reference,
        deviation=deviation,
        error_bound=abs(value.hi) * rel_bound,
    )


def heegner_table() -> list[HeegnerRow]:
    return [heegner_row(n) for n in sorted(HEEGNER_BASES)]


def is_near_integer(row: HeegnerRow) -> bool:
    """round(e^(pi sqrt n)) equals the reference integer exactly."""
    return dd_round(row.value) == row.reference
