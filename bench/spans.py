"""Spans around the public functions of each weylscale module, and the
per-layer metrics derived from them.

The program binds these functions by name at import (``from .fock import
...``), so ``Tracer.install`` replaces the function object wherever a
weylscale module holds it, and ``uninstall`` puts every original back.  The
program's source is never touched.  Spans are kept in memory and written as
JSON lines at the end of a run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  A span name is ``<layer>.<part>``.
TARGETS = (
    ("weylscale.fock", "GnsModel.__init__", "fock.model"),
    ("weylscale.fock", "gns_expectation", "fock.expectation"),
    ("weylscale.fock", "weyl_relation_residual", "fock.relation"),
    ("weylscale.fock", "commutant_residual", "fock.commutant"),
    ("weylscale.states", "check_sigma_h_positivity", "states.gram"),
    ("weylscale.states", "scan_for_gram_violation", "states.gram"),
    ("weylscale.kms", "kms_model", "kms.model"),
    ("weylscale.kms", "rescaled_modular", "kms.model"),
    ("weylscale.kms", "kms_boundary_residuals", "kms.boundary"),
    ("weylscale.kms", "rescaled_kms_residuals", "kms.boundary"),
    ("weylscale.restriction", "restricted_model", "restriction.model"),
    ("weylscale.restriction", "spectral_correspondence_check", "restriction.model"),
    ("weylscale.restriction", "nonregular_extension", "restriction.model"),
    ("weylscale.restriction", "restricted_kms_residuals", "restriction.boundary"),
    ("weylscale.spectral", "make_operator", "spectral.calculus"),
    ("weylscale.spectral", "OperatorSpec.from_matrix", "spectral.calculus"),
    ("weylscale.spectral", "apply_function", "spectral.calculus"),
    ("weylscale.config", "ExperimentConfig.from_file", "config.parse"),
    ("weylscale.report", "render", "report.render"),
    ("weylscale.weyl", "weyl_multiply", "weyl.multiply"),
    ("weylscale.restriction", "check_trace_property", "weyl.multiply"),
)

JOB_SPAN = "cli.job"
SUITE_SPAN = "runner.suite"


def _work(fn: str, args: tuple, result) -> dict:
    """Sizes recorded on a span, from which the count metrics are derived."""
    if fn == "GnsModel.__init__":
        return {"doubled_axis": args[0].slot_dimension ** 2}
    if fn == "check_sigma_h_positivity":
        return {"kernel_n": int(result.kernel.shape[0])}
    if fn.endswith("kms_residuals") or fn == "kms_boundary_residuals":
        return {"t_points": len(result.t_grid)}
    if fn == "render":
        return {"bytes": len(result)}
    return {}


class Tracer:
    """Records spans (name, start, end, parent) for the rounds it is installed in."""

    def __init__(self):
        self.spans: list = []
        self.round = None
        self.job = None
        self._stack: list = []
        self._restore: list = []

    def open(self, name: str, fn: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append({"id": index, "parent": parent, "round": self.round, "job": self.job, "name": name, "fn": fn})
        self._stack.append(index)
        self.spans[index]["start"] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, function, name: str, fn: str):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.open(name, fn)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.spans[index].update(_work(fn, args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "weylscale" and m]
        for module_name, attribute, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(raw.__func__, name, attribute))
                else:
                    replacement = self.wrap(raw, name, attribute)
                setattr(owner, method, replacement)
                self._restore.append((owner, method, raw))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(original, name, attribute)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, original))
        suites = sys.modules["weylscale.runner"].SUITES
        for key, suite in list(suites.items()):
            suites[key] = self.wrap(suite, SUITE_SPAN, key)
            self._restore.append((suites, key, suite))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


# ---------------------------------------------------------------------------
# per-layer metrics

#: metric -> name of the spans whose self times it sums
SELF_TIMES = {
    "fock.model_s": "fock.model",
    "fock.expectation_s": "fock.expectation",
    "fock.relation_s": "fock.relation",
    "fock.commutant_s": "fock.commutant",
    "states.gram_s": "states.gram",
    "kms.model_s": "kms.model",
    "kms.boundary_s": "kms.boundary",
    "restriction.model_s": "restriction.model",
    "restriction.boundary_s": "restriction.boundary",
    "spectral.calculus_s": "spectral.calculus",
    "config.parse_s": "config.parse",
    "report.render_s": "report.render",
    "weyl.multiply_s": "weyl.multiply",
    "runner.self_s": SUITE_SPAN,
    "cli.self_s": JOB_SPAN,
}

UNITS = dict.fromkeys(SELF_TIMES, "s")
UNITS.update(
    {
        "fock.calls": "count",
        "fock.doubled_mb": "MB",
        "states.gram_calls": "count",
        "states.gram_entries": "count",
        "kms.evaluations": "count",
        "spectral.calls": "count",
        "report.kb": "KB",
        "trace.overhead_s": "s",
    }
)

#: F and Phi evaluations per boundary report and time point: F forward and
#: reversed, Phi on both edges, and Phi at five strip fractions.
EVALUATIONS_PER_POINT = 9


def round_metrics(spans: list, factors: dict) -> dict:
    """Per-layer metrics of one round's spans.

    ``factors[round, job]`` scales a job's span times to the reference speed.
    """
    child_time: dict = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_time: dict = defaultdict(float)
    for span in spans:
        own = span["end"] - span["start"] - child_time[span["id"]]
        self_time[span["name"]] += own * factors[span["round"], span["job"]]
    metrics = {metric: self_time[name] for metric, name in SELF_TIMES.items()}
    names = [span["name"] for span in spans]
    axes = [span["doubled_axis"] for span in spans if "doubled_axis" in span]
    metrics.update(
        {
            "fock.calls": sum(name.startswith("fock.") for name in names),
            "fock.doubled_mb": 16 * max(axes, default=0) ** 2 / 2**20,
            "states.gram_calls": sum("kernel_n" in span for span in spans),
            "states.gram_entries": sum(span.get("kernel_n", 0) ** 2 for span in spans),
            "kms.evaluations": EVALUATIONS_PER_POINT * sum(span.get("t_points", 0) for span in spans),
            "spectral.calls": names.count("spectral.calculus"),
            "report.kb": sum(span.get("bytes", 0) for span in spans) / 1024,
        }
    )
    return metrics


def layer_metrics(spans: list, factors: dict, traced_round_s: list, untraced_round_s: list) -> dict:
    """Median over traced rounds of each per-layer metric, plus tracing overhead."""
    by_round: dict = defaultdict(list)
    for span in spans:
        by_round[span["round"]].append(span)
    per_round = [round_metrics(group, factors) for _, group in sorted(by_round.items())]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_round_s) - statistics.median(untraced_round_s)
    return metrics
