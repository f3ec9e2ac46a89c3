"""Calibrated timing of a workload pass.

The host this benchmark was tuned on slows CPU-bound Python by up to
about 1.7x in phases that last seconds, and CPU time slows as much as
wall time.  So each operation is timed next to a fixed pure-Python
reference loop, run right after it, and the operation's time is given in
units of that loop ("ref").  A pass's calibrated time is the sum over its
operations of the median, over the run, of operation time / reference
time.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_ITERATIONS = 1500
MIN_PASSES = 3


def _reference_loop() -> int:
    """A fixed mix of the interpreter work gelfond does: big-integer and
    small-integer arithmetic, float and complex arithmetic, calls and list
    appends.  It touches nothing outside its own locals."""
    big = 3 ** 300
    acc = 0
    z = 0j
    xs = []
    for i in range(REF_ITERATIONS):
        acc = (acc + big * (i | 1)) % 1000000007
        z = z * 0.5 + complex(i, 1.0)
        xs.append(abs(z) + float(acc))
    return len(xs)


def reference_seconds() -> float:
    """One timed run of the reference loop, with the garbage collector
    paused so that objects the program keeps alive cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def outcome(call):
    """``call()``'s output, or the exception it raised."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return exc


class Run:
    """Runs whole passes over a workload's operations and checks every
    output.  ``failures`` maps an operation's label to the first message
    its check gave."""

    def __init__(self, ops, checks):
        self.ops = ops
        self.checks = checks
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed = 0

    def _time(self, i: int):
        call = self.ops[i].call
        start = time.perf_counter()
        output = outcome(call)
        return time.perf_counter() - start, output

    def _check(self, i: int, output) -> None:
        self.attempted += 1
        if isinstance(output, Exception):
            message = f"raised {type(output).__name__}: {output}"
        else:
            message = self.checks[i](output)
        if message is not None:
            self.failed += 1
            self.failures.setdefault(self.ops[i].label, message)

    def raw_pass(self) -> float:
        """One pass, timed as a whole (seconds); outputs are checked after."""
        outputs = []
        start = time.perf_counter()
        for i in range(len(self.ops)):
            outputs.append(self._time(i)[1])
        elapsed = time.perf_counter() - start
        for i, output in enumerate(outputs):
            self._check(i, output)
        return elapsed

    def calibrated(self, seconds: float, between=None) -> float:
        """Run passes for ``seconds``; return the calibrated pass time in
        reference-loop units.  ``between(fraction)`` is called after each
        pass with the share of the run used so far."""
        ratios = [[] for _ in self.ops]
        start = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            for i in range(len(self.ops)):
                elapsed, output = self._time(i)
                ratios[i].append(elapsed / reference_seconds())
                self._check(i, output)
            passes += 1
            if between is not None:
                between((time.perf_counter() - start) / seconds)
        return sum(statistics.median(r) for r in ratios)
