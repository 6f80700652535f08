"""Span tracing for the benchmark's traced run.

The traced run replaces module attributes that the program looks up at
call time (``ingest.parse_matrix`` as called from ``cli``,
``_kernels.pairwise_complete_column_correlations`` as called from
``dupscan``, ``groupsearch.score_assignment`` as called from
``steepest_ascent``, ...) with wrappers that record a span per call: name,
start, end, parent span and operation id. Spans stay in memory until the
run ends. Counts (bytes parsed, pairs scanned, neighbors evaluated, ...)
are recorded at the same boundaries.

``signature.select_top_genes`` cannot be wrapped from outside: it is bound
as a default argument of ``score_assignment`` and ``steepest_ascent``. Its
cost shows as the self time of ``score_assignment``.

A target that a later version of the program no longer has is skipped, and
the metrics built on it read 0.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

CountFn = Optional[Callable[[tuple, object], dict]]

OTHER_PARSERS = ("parse_roster", "parse_signature", "parse_annotation", "parse_sensitivity", "parse_sample_meta")
DETECTORS = {
    "dupscan": (
        "find_duplicate_columns",
        "classify_duplicate_labels",
        "roster_duplicates",
        "matrices_identical",
        "check_signature_directions",
        "compare_labelings",
    ),
    "integrity": (
        "check_reversal",
        "check_separation",
        "check_flat_response",
        "infer_batches",
        "test_confounding",
        "confounding_findings",
        "detect_blocks",
        "sentinel_check",
    ),
    "matchscan": ("detect_offset", "check_platform_membership", "match_rows"),
}


class Tracer:
    """In-memory recorder of spans and counts, tagged with an operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[tuple[int, str, float]] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def _wrap(self, fn: Callable, name: str, counter: CountFn) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.count(key, value)
            return result

        return traced

    @contextmanager
    def installed(self, targets: list[tuple[object, str, str, CountFn]]):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, counter in targets:
                fn = getattr(module, attr, None)
                if callable(fn):
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, name, counter))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def op_totals(self) -> dict[int, defaultdict]:
        """Per operation: ``<span>.s`` (inclusive), ``<span>.self_s`` (minus
        the time covered by child spans), ``<span>.calls``, and every count."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        totals: dict[int, defaultdict] = {}
        for i, rec in enumerate(self.spans):
            tot = totals.setdefault(rec["op"], defaultdict(float))
            dur = rec["end"] - rec["start"]
            tot[rec["name"] + ".s"] += dur
            tot[rec["name"] + ".self_s"] += dur - child[i]
            tot[rec["name"] + ".calls"] += 1
            tot["trace.spans"] += 1
        for op, name, value in self.counts:
            totals.setdefault(op, defaultdict(float))[name] += value
        return totals

    def jsonl(self) -> str:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return "".join(
            json.dumps(dict(rec, id=i, start=rec["start"] - t0, end=rec["end"] - t0)) + "\n"
            for i, rec in enumerate(self.spans)
        )


# ---------------------------------------------------------------------------
# what is wrapped, and what each wrapper counts
# ---------------------------------------------------------------------------

def _dense_cost(args, result) -> dict:
    f, n = args[0].shape
    return {"kernels.flop": 2.0 * f * n * n, "kernels.bytes": 8.0 * (f * n + n * n)}


def _pairwise_cost(args, result) -> dict:
    f, n = args[0].shape
    pairs = n * (n - 1) // 2
    # per pair: mask, gather, center and three dot products over f rows
    return {
        "kernels.pairwise_complete.pairs": pairs,
        "kernels.flop": 10.0 * f * pairs,
        "kernels.bytes": 16.0 * f * pairs + 8.0 * n * n,
    }


def _cross_cost(args, result) -> dict:
    (q, c), r = args[0].shape, args[1].shape[0]
    return {"kernels.flop": 2.0 * q * r * c, "kernels.bytes": 8.0 * (q * c + r * c + q * r)}


def targets() -> list[tuple[object, str, str, CountFn]]:
    """Every (module, attribute, span name, counter) the traced run wraps."""
    from arrayaudit import _kernels, cli, groupsearch, ingest, signature, transform
    from arrayaudit import dupscan, integrity, matchscan

    modules = {"dupscan": dupscan, "integrity": integrity, "matchscan": matchscan}
    out: list[tuple[object, str, str, CountFn]] = [
        (cli, "run_audit", "cli.run_audit", lambda a, r: {"cli.findings": len(r[0].findings)}),
        (cli, "validate", "core.validate", None),
        (ingest, "parse_matrix", "ingest.parse_matrix", lambda a, r: {"ingest.parse_matrix.bytes": len(a[0])}),
        (_kernels, "column_correlations", "kernels.column_correlations", _dense_cost),
        (_kernels, "pairwise_complete_column_correlations", "kernels.pairwise_complete", _pairwise_cost),
        (_kernels, "cross_row_correlations", "kernels.cross_row", _cross_cost),
        (transform, "infer_pipeline", "transform.infer_pipeline", None),
        (transform, "_apply_values", "transform.apply", None),
        (signature, "pooled_t_statistics", "signature.pooled_t_statistics", None),
        (groupsearch, "score_assignment", "groupsearch.score_assignment", None),
        (
            groupsearch,
            "steepest_ascent",
            "groupsearch.steepest_ascent",
            lambda a, r: {"groupsearch.neighbors": sum(r.neighbors_per_step), "groupsearch.steps": len(r.neighbors_per_step)},
        ),
    ]
    out += [(ingest, name, f"ingest.{name}", None) for name in OTHER_PARSERS]
    for mod, names in DETECTORS.items():
        out += [(modules[mod], name, f"{mod}.{name}", None) for name in names]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: (metric, unit, better) for every metric built from the spans and counts
LAYER_METRICS = [
    ("ingest.parse_matrix.s", "s", "lower"),
    ("ingest.parse_matrix.mb_per_s", "MB/s", "higher"),
    ("ingest.parse_matrix.calls", "count", "lower"),
    ("ingest.other.s", "s", "lower"),
    ("kernels.column_correlations.s", "s", "lower"),
    ("kernels.pairwise_complete.s", "s", "lower"),
    ("kernels.pairwise_complete.calls", "count", "lower"),
    ("kernels.pairwise_complete.pairs", "count", "lower"),
    ("kernels.cross_row.s", "s", "lower"),
    ("kernels.flop", "flop-computed", "lower"),
    ("kernels.bytes", "B-computed", "lower"),
    ("dupscan.find_duplicate_columns.s", "s", "lower"),
    ("dupscan.find_duplicate_columns.self_s", "s", "lower"),
    ("dupscan.matrices_identical.s", "s", "lower"),
    ("integrity.detect_blocks.s", "s", "lower"),
    ("integrity.detect_blocks.self_s", "s", "lower"),
    ("matchscan.detect_offset.s", "s", "lower"),
    ("matchscan.match_rows.s", "s", "lower"),
    ("matchscan.match_rows.self_s", "s", "lower"),
    ("transform.infer_pipeline.s", "s", "lower"),
    ("transform.candidates", "count", "lower"),
    ("signature.pooled_t_statistics.s", "s", "lower"),
    ("signature.pooled_t_statistics.calls", "count", "lower"),
    ("groupsearch.steepest_ascent.s", "s", "lower"),
    ("groupsearch.score_assignment.s", "s", "lower"),
    ("groupsearch.score_assignment.calls", "count", "lower"),
    ("groupsearch.neighbors", "count", "lower"),
    ("groupsearch.steps", "count", "lower"),
    ("groupsearch.s_per_neighbor", "s", "lower"),
    ("cli.run_audit.s", "s", "lower"),
    ("cli.run_audit.self_s", "s", "lower"),
    ("cli.findings", "count", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
]

#: Metrics that are not a span total or count of the same name.
_DERIVED: dict[str, Callable[[defaultdict], float]] = {
    "ingest.parse_matrix.mb_per_s": lambda t: _ratio(t["ingest.parse_matrix.bytes"] / 1e6, t["ingest.parse_matrix.s"]),
    "ingest.other.s": lambda t: sum(t[f"ingest.{name}.s"] for name in OTHER_PARSERS),
    "transform.candidates": lambda t: t["transform.apply.calls"],
    "groupsearch.s_per_neighbor": lambda t: _ratio(t["groupsearch.steepest_ascent.s"], t["groupsearch.neighbors"]),
}

#: Computed by the worker from the operation times, not from the spans.
TRACE_METRICS = [("trace.op_s_p50", "s", "lower"), ("trace.overhead_s", "s", "lower")]

#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = LAYER_METRICS + TRACE_METRICS


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Each of LAYER_METRICS as its median over the traced operations."""
    totals = list(tracer.op_totals().values())
    out = {}
    for name, _, _ in LAYER_METRICS:
        fn = _DERIVED.get(name, lambda t, name=name: t[name])
        out[name] = statistics.median(fn(t) for t in totals) if totals else 0.0
    return out
