"""Closed-loop measurement of one workload over a corpus built by corpus.py.

One process, one operation at a time, for ``--seconds``. Every operation
is gated on the corpus's planted truth; an operation that raises, returns
the wrong exit code or fails its gate counts as failed. With ``--trace 1``
operations alternate between untraced and traced (see tracing.py), so the
tracing overhead is the difference of the two medians within one run.

A fixed reference computation is timed before the first operation and
after each one; an operation's reference ratio is its time over the mean
of the reference times on either side of it (see README.md for why).

    python perfbench/worker.py --workload W --dir CORPUS --seconds S --trace 0|1 --out RESULT.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import arrayaudit
from arrayaudit import _kernels, cli, groupsearch, matchscan, transform
from arrayaudit.core import GroupLabel, LabeledMatrix, SignatureList

import corpus
import reference as ref
import tracing

FIT_TOLERANCE = 1e-9
METRIC_TOLERANCE = 1e-9


def _metric_matches(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and abs(got - want) <= METRIC_TOLERANCE * max(1.0, abs(want))
    return got == want


def _findings_problem(report, expected: list[dict]) -> str | None:
    got = report.findings
    if len(got) != len(expected):
        return f"{len(got)} findings, expected {len(expected)}: {[f.code for f in got]}"
    for i, (f, want) in enumerate(zip(got, expected)):
        if (f.code, f.severity.value, list(f.subjects)) != (want["code"], want["severity"], want["subjects"]):
            return f"finding {i}: {f.code}/{f.severity.value} {list(f.subjects)} != {want['code']}/{want['severity']} {want['subjects']}"
        for key, value in want["metrics"].items():
            if not _metric_matches(f.metrics.get(key), value):
                return f"finding {i} ({f.code}): {key}={f.metrics.get(key)!r}, expected {value!r}"
    return None


def audit_operation(root: Path, audits: list[dict]):
    """run_audit over each manifest; the gate checks exit code, findings,
    and that every report of the run is byte-identical to the first."""
    manifests = [root / a["manifest"] for a in audits]
    first_digest: dict[int, str] = {}

    def op():
        return [cli.run_audit(m) for m in manifests]

    def gate(results, tracer) -> str | None:
        for i, ((report, code), want, manifest) in enumerate(zip(results, audits, manifests)):
            data = (manifest.parent / "report.json").read_bytes()
            if tracer is not None:
                tracer.count("cli.report_bytes", len(data))
            if code != want["exit_code"]:
                return f"{want['manifest']}: exit code {code}, expected {want['exit_code']}"
            problem = _findings_problem(report, want["findings"])
            if problem:
                return f"{want['manifest']}: {problem}"
            digest = hashlib.sha256(data).hexdigest()
            if first_digest.setdefault(i, digest) != digest:
                return f"{want['manifest']}: report bytes differ from the first report of the run"
        return None

    return op, gate


def reconstruct_operation(root: Path, want: dict):
    """The paper's three derivation steps, in memory: steepest ascent to
    the cell-line groups, row identification, pipeline inference."""
    data = np.load(root / "reconstruct.npz")
    lines = tuple(want["lines"])
    fids = tuple(corpus.feature_ids(data["panel"].shape[0]))
    panel = LabeledMatrix(fids, lines, data["panel"])
    query = LabeledMatrix(tuple(want["query_ids"]), lines, data["query"])
    reference = LabeledMatrix(fids, lines, data["reference"])
    transformed = LabeledMatrix(fids, lines, data["transformed"])
    start = groupsearch.Assignment({line: GroupLabel(s) for line, s in zip(lines, want["start"])})
    truth = {line: GroupLabel(s) for line, s in zip(lines, want["truth"])}
    target = SignatureList(tuple(want["target"]))
    mapping = dict(zip(want["query_ids"], want["query_rows"]))

    def op():
        search = groupsearch.steepest_ascent(start, panel, target, want["k"])
        match = matchscan.match_rows(query, panel)
        pipe, fit, _ = transform.infer_pipeline(transformed, reference, transform.default_candidate_grid())
        return search, match, pipe, fit

    def gate(result, tracer) -> str | None:
        search, match, pipe, fit = result
        if dict(search.final.state) != truth:
            moved = sorted(line for line in lines if search.final.state[line] != truth[line])
            return f"steepest ascent ended {len(moved)} lines from the truth: {moved}"
        if match.n_matched != len(mapping) or match.mapping != mapping:
            return f"match_rows matched {match.n_matched} of {len(mapping)} rows"
        if pipe.spec() != want["pipeline"] or fit < 1.0 - FIT_TOLERANCE:
            return f"inferred {pipe.spec()} with fit {fit!r}, expected {want['pipeline']} with fit 1.0"
        return None

    return op, gate


def provenance(expected: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    pairwise = getattr(_kernels, "pairwise_complete_column_correlations", None)
    return {
        "shapes": expected["shapes"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "arrayaudit": arrayaudit.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_imports": has_numba,
        "kernels_backend": getattr(_kernels, "BACKEND", None),
        "pairwise_complete_impl": getattr(pairwise, "__name__", None),
        "machine": platform.machine(),
    }


def measure(op, gate, seconds: float, tracer: tracing.Tracer | None) -> dict:
    targets = tracing.targets() if tracer is not None else []
    untraced: list[float] = []
    ratios: list[float] = []
    traced: list[float] = []
    failures: list[str] = []
    attempted = 0
    fastest = float("inf")
    deadline = time.perf_counter() + seconds
    reference = [ref.time_reference()]
    while True:
        active = tracer if tracer is not None and attempted % 2 == 1 else None
        attempted += 1
        if active is not None:
            active.op = attempted
        t0 = time.perf_counter()
        try:
            if active is not None:
                with active.installed(targets):
                    result = op()
            else:
                result = op()
            dt = time.perf_counter() - t0
            problem = gate(result, active)
        except Exception as exc:  # an operation that raises is a failed operation
            dt = time.perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        reference.append(ref.time_reference())
        if active is None:
            untraced.append(dt)
            ratios.append(dt / ((reference[-2] + reference[-1]) / 2))
        else:
            traced.append(dt)
        fastest = min(fastest, dt)
        if problem:
            failures.append(f"op {attempted}: {problem}")
        # stop before an operation that would overrun the deadline
        if time.perf_counter() + fastest + reference[-1] > deadline and (tracer is None or attempted >= 2):
            break
    return {"untraced": untraced, "ratios": ratios, "reference": reference, "traced": traced, "attempted": attempted, "failures": failures}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    expected = json.loads((args.dir / "expected.json").read_text(encoding="utf-8"))
    if "audits" in expected:
        op, gate = audit_operation(args.dir, expected["audits"])
    else:
        op, gate = reconstruct_operation(args.dir, expected["reconstruct"])
    tracer = tracing.Tracer() if args.trace else None
    run = measure(op, gate, args.seconds, tracer)
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run["workload"] = args.workload
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["trace.op_s_p50"] = statistics.median(run["traced"])
        layers["trace.overhead_s"] = layers["trace.op_s_p50"] - statistics.median(run["untraced"])
        run["layers"] = layers
        if args.spans is not None:
            args.spans.write_text(tracer.jsonl(), encoding="utf-8")
    run["provenance"] = provenance(expected)
    args.out.write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
