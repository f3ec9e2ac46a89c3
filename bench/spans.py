"""Per-layer spans, recorded from outside the program.

``Tracer.install()`` replaces each wrapped public function of gelfond at
every module attribute that refers to it (the defining module and every
``from ... import`` site, such as ``identities.sum_pfq``, ``cli.sum_pfq``,
``closed_forms.log_gamma`` and ``heegner.dd_exp``).  Install it before a
workload's inputs are built, so that partials built from the registry
capture the wrappers too.  Nothing under ``src/`` changes.

Each wrapped call records one span: name, start, end, parent span and the
operation it ran under.  Spans stay in memory until ``write``.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

from gelfond import cli, closed_forms, complex_gamma, ddreal, heegner, identities, series

CLOSED_FORMS = ("gauss_unit", "gauss_ext_unit", "second_gauss_half", "bailey_half",
                "second_gauss_ext_half", "bailey_ext_half", "gamma_ratio")

WRAPPED = [
    (identities, "verify"),
    (series, "sum_pfq"),
    (series, "sum_pfq_unit"),
    (complex_gamma, "log_gamma"),
    (ddreal, "dd_exp"),
    (ddreal, "dd_to_decimal"),
    (heegner, "heegner_row"),
    (cli, "main"),
] + [(closed_forms, name) for name in CLOSED_FORMS]

# per-layer metric -> (span names, what is summed per pass)
_SELF, _TOTAL, _CALLS = "self", "total", "calls"
LAYER_METRICS = {
    "identities.verify.calls": (("identities.verify",), _CALLS),
    "identities.verify.self_ms": (("identities.verify",), _SELF),
    "series.sum_pfq.calls": (("series.sum_pfq",), _CALLS),
    "series.sum_pfq.self_ms": (("series.sum_pfq",), _SELF),
    "series.sum_pfq_unit.calls": (("series.sum_pfq_unit",), _CALLS),
    "series.sum_pfq_unit.self_ms": (("series.sum_pfq_unit",), _SELF),
    "complex_gamma.log_gamma.calls": (("complex_gamma.log_gamma",), _CALLS),
    "complex_gamma.log_gamma.self_ms": (("complex_gamma.log_gamma",), _SELF),
    "closed_forms.calls": (tuple(f"closed_forms.{n}" for n in CLOSED_FORMS), _CALLS),
    "closed_forms.self_ms": (tuple(f"closed_forms.{n}" for n in CLOSED_FORMS), _SELF),
    "ddreal.dd_exp.calls": (("ddreal.dd_exp",), _CALLS),
    "ddreal.dd_exp.ms": (("ddreal.dd_exp",), _TOTAL),
    "ddreal.dd_to_decimal.ms": (("ddreal.dd_to_decimal",), _TOTAL),
    "heegner.heegner_row.self_ms": (("heegner.heegner_row",), _SELF),
    "cli.main.calls": (("cli.main",), _CALLS),
    "cli.main.self_ms": (("cli.main",), _SELF),
}


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index, (pass, op), terms]
        self.spans: list[list] = []
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) for every import site
        self._sites: list[tuple] = []
        self.pass_no = -1
        self.op_id: tuple[int, int] | None = None

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_terms = name == "series.sum_pfq"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts_terms:
                span[5] = result.terms_used
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target at each gelfond module attribute bound to it."""
        if not self._sites:
            targets = {}
            for module, attr in WRAPPED:
                fn = getattr(module, attr)
                targets[id(fn)] = (fn, self._wrap(
                    f"{module.__name__.split('.')[-1]}.{attr}", fn))
            for modname, module in list(sys.modules.items()):
                if modname != "gelfond" and not modname.startswith("gelfond."):
                    continue
                for attr, value in list(vars(module).items()):
                    target = targets.get(id(value))
                    if target is not None and target[0] is value:
                        self._sites.append((module, attr, value, target[1]))
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def bind(self, index: int, call):
        """``call`` with its spans tagged as operation ``index`` of the
        current pass."""
        def tagged():
            self.op_id = (self.pass_no, index)
            try:
                return call()
            finally:
                self.op_id = None
        return tagged

    def per_pass(self) -> list[dict[str, float]]:
        """Layer metrics of each traced pass (passes numbered from 0)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        passes: dict[int, dict[str, float]] = {}
        for i, (name, start, end, _, op_id, terms) in enumerate(self.spans):
            if op_id is None or op_id[0] < 0:
                continue
            acc = passes.setdefault(op_id[0], {})
            acc[name + "#calls"] = acc.get(name + "#calls", 0) + 1
            acc[name + "#total"] = acc.get(name + "#total", 0.0) + (end - start) * 1e3
            acc[name + "#self"] = (acc.get(name + "#self", 0.0)
                                   + (end - start - child[i]) * 1e3)
            acc["terms"] = acc.get("terms", 0) + terms
        out = []
        for p in sorted(passes):
            acc = passes[p]
            row = {metric: sum(acc.get(f"{n}#{what}", 0) for n in names)
                   for metric, (names, what) in LAYER_METRICS.items()}
            row["series.terms"] = acc.get("terms", 0)
            out.append(row)
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, after a header naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "terms"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def unit(metric: str) -> str:
    return "count" if metric.endswith(".calls") or metric == "series.terms" else "ms"


def summarize(rows: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time metric over the passes; counts taken from the
    first pass.  Also returns the count metrics that differed between
    passes (they must repeat exactly)."""
    out, unsteady = {}, []
    for metric in rows[0]:
        values = [row[metric] for row in rows]
        if unit(metric) == "ms":
            out[metric] = statistics.median(values)
        else:
            out[metric] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(metric)
    return out, unsteady
