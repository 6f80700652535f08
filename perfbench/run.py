"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload audit-paper --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload audit-paper --seed 1 --seconds 60 --trace 1 --features 22283

Three kinds of process, run one after another from the repository root
with ``PYTHONPATH=src`` and one BLAS thread:

1. ``corpus.py`` builds the workload's seeded corpus and its planted truth,
   with ``--features`` rows (2,000 by default; 22,283 is paper scale);
2. fresh interpreters import the arrayaudit modules the workload calls,
   ``SETUP_REPEATS`` times after one untimed bytecode-compiling import,
   each between two fresh-interpreter imports of fixed third-party
   modules (reference.py); ``setup_s`` is the median import time rescaled
   to the reference import's nominal speed, and the wall times are kept
   in the record;
3. ``worker.py`` runs gated operations in a closed loop for ``--seconds``.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``). The line before it summarises the run: sample
count, quartiles, failure fraction and provenance. The full record, and
with ``--trace 1`` every span, is written under ``perfbench/.results/``.
The corpus is deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import corpus
import reference as ref
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: workload -> the modules whose import a user of that workload pays
WORKLOADS = {
    "audit-paper": ("arrayaudit.cli",),
    "audit-raw-missing": ("arrayaudit.cli",),
    "reconstruct": ("arrayaudit.groupsearch", "arrayaudit.matchscan", "arrayaudit.transform"),
    "audit-small": ("arrayaudit.cli",),
}
SETUP_REPEATS = 9
END_TO_END = (("op_ref_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ARRAYAUDIT_KERNELS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # glibc's dynamic mmap threshold makes peak RSS depend on allocation
    # history; fixed at 8 MiB, arrays as large as a paper-scale panel are
    # mapped and unmapped deterministically, smaller ones reuse the heap
    env["MALLOC_MMAP_THRESHOLD_"] = str(8 << 20)
    return env


def _run(cmd: list[str], timeout: float) -> str:
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} timed out after {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def _import_seconds(modules: tuple[str, ...]) -> float:
    """Wall time of importing ``modules`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {', '.join(modules)}; print(time.perf_counter() - t)"
    return float(_run([sys.executable, "-c", code], 120))


def setup_seconds(modules: tuple[str, ...]) -> tuple[list[float], list[float]]:
    """Time ``SETUP_REPEATS`` fresh-interpreter imports of ``modules``,
    after one untimed bytecode-compiling import, each between two
    fresh-interpreter reference imports (``reference.REFERENCE_IMPORT``);
    return (import wall times, imports rescaled to the reference import's
    nominal speed)."""
    _import_seconds(modules)
    before = _import_seconds(ref.REFERENCE_IMPORT)
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        dt = _import_seconds(modules)
        after = _import_seconds(ref.REFERENCE_IMPORT)
        wall.append(dt)
        scaled.append(dt * ref.NOMINAL_IMPORT_S / ((before + after) / 2))
        before = after
    return wall, scaled


def _quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    out = {"n": len(xs), "min": min(xs), "p25": q[0], "p50": statistics.median(xs), "p75": q[2], "max": max(xs)}
    if len(xs) >= 20:  # highest percentile with at least ten samples beyond it
        out[f"p{100 * (len(xs) - 10) // len(xs)}"] = sorted(xs)[len(xs) - 11]
    return out


def run_one(workload: str, seed: int, seconds: float, trace: int, features: int) -> tuple[dict, dict]:
    """Build, set up and measure one workload; return (result, record)."""
    results = BENCH / ".results"
    work = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    tag = f"{workload}-seed{seed}-trace{trace}"
    out = results / f"{tag}.json"
    results.mkdir(parents=True, exist_ok=True)
    try:
        _run([sys.executable, str(BENCH / "corpus.py"), "--workload", workload, "--seed", str(seed), "--out", str(work), "--features", str(features)], 600)
        setup_wall, setup = setup_seconds(WORKLOADS[workload])
        worker = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--dir", str(work)]
        worker += ["--seconds", str(seconds), "--trace", str(trace), "--out", str(out), "--spans", str(results / f"{tag}.spans.jsonl")]
        _run(worker, seconds + 120)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = json.loads(out.read_text(encoding="utf-8"))
    failed = len(record["failures"])
    if trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "op_ref_ratio": statistics.median(record["ratios"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record.update(
        seed=seed,
        features=features,
        seconds=seconds,
        trace=trace,
        setup_s=setup,
        setup_wall_s=setup_wall,
        op_s=_quartiles(record["untraced"]),
        op_ref_ratio=_quartiles(record["ratios"]),
        reference_s=_quartiles(record["reference"]),
        fail_frac=failed / record["attempted"],
        metrics=metrics,
    )
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {"correct": failed == 0, "attempted": record["attempted"], "failed": failed, "metrics": metrics}
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description="arrayaudit benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--features", type=int, default=corpus.BENCH_FEATURES, help="rows of the paper-layout panels")
    args = ap.parse_args()
    if not (SRC / "arrayaudit" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'arrayaudit'} is missing", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result, record = run_one(workload, args.seed, args.seconds, args.trace, args.features)
            keys = ("workload", "seed", "op_ref_ratio", "op_s", "reference_s", "fail_frac", "setup_s", "setup_wall_s", "provenance")
            summary = {k: record[k] for k in keys}
            print(json.dumps(summary))
            for failure in record["failures"][:3]:
                print(f"perfbench: {workload}: {failure}", file=sys.stderr)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{workload}/" if args.workload == "all" else ""
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
