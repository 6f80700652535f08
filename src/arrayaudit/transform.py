"""Row-wise transformation pipelines and pipeline reconstruction.

The pipelines modeled here are the ones that obscure provenance in
circulated data exports: log-transform, per-row z-scoring, exponentiation to
undo the log, and rounding. ``infer_pipeline`` searches a finite declared
candidate grid for the pipeline that best explains a query matrix as a
transformed reference: a small, auditable search instead of free-form
program synthesis.

Pipelines are value-level and row-independent; applying one never changes
ids or labels. NaN entries propagate elementwise; z-scoring computes its
moments over the present entries of each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .core import LabeledMatrix, first_cell

_BASES = {"e": math.e, "2": 2.0, "10": 10.0}
_KIND_ORDER = {"log": 0, "zscore": 1, "exp": 2, "round": 3}


@dataclass(frozen=True)
class Step:
    kind: str  # log | zscore | exp | round
    param: str  # base for log/exp, denominator for zscore, digits for round

    def __post_init__(self) -> None:
        if self.kind in ("log", "exp"):
            if self.param not in _BASES:
                raise ValueError(f"{self.kind} base must be e|2|10, got {self.param!r}")
        elif self.kind == "zscore":
            if self.param not in ("n-1", "n"):
                raise ValueError(f"zscore denominator must be n-1|n, got {self.param!r}")
        elif self.kind == "round":
            if not self.param.isdigit():
                raise ValueError(f"round digits must be a nonnegative int, got {self.param!r}")
        else:
            raise ValueError(f"unknown step kind {self.kind!r}")

    def __str__(self) -> str:
        return f"{self.kind}:{self.param}"


def log_step(base: str = "e") -> Step:
    return Step("log", base)


def zscore_step(denominator: str = "n-1") -> Step:
    return Step("zscore", denominator)


def exp_step(base: str = "e") -> Step:
    return Step("exp", base)


def round_step(digits: int = 2) -> Step:
    return Step("round", str(digits))


@dataclass(frozen=True)
class TransformPipeline:
    """An ordered list of steps, at most one per kind, in canonical order
    log -> zscore -> exp -> round."""

    steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        kinds = [s.kind for s in self.steps]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"pipeline repeats a step kind: {kinds}")
        order = [_KIND_ORDER[k] for k in kinds]
        if order != sorted(order):
            raise ValueError(
                "steps must appear in log, zscore, exp, round order; got " + str(kinds)
            )

    def __len__(self) -> int:
        return len(self.steps)

    def spec(self) -> str:
        """Render as a CLI spec string, e.g. 'log:e|zscore:n-1|exp:e|round:2'."""
        return "|".join(str(s) for s in self.steps) if self.steps else "identity"


def parse_pipeline_spec(spec: str) -> TransformPipeline:
    """Parse the --pipeline flag format, 'identity' for the empty pipeline."""
    spec = spec.strip()
    if spec in ("", "identity"):
        return TransformPipeline(())
    steps = []
    for part in spec.split("|"):
        if ":" not in part:
            raise ValueError(f"malformed pipeline step {part!r} (expected kind:param)")
        kind, param = part.split(":", 1)
        steps.append(Step(kind.strip(), param.strip()))
    return TransformPipeline(tuple(steps))


class TransformError(ValueError):
    pass


def _apply_values(m: LabeledMatrix, p: TransformPipeline) -> np.ndarray:
    out = np.array(m.values, dtype=np.float64, copy=True)
    for step in p.steps:
        if step.kind == "log":  # always the first step: out still holds m.values
            bad = (out <= 0) & np.isfinite(out)
            if bad.any():
                fid, sid, value = first_cell(m, bad)
                raise TransformError(f"log of nonpositive value {value!r} at feature {fid!r}, sample {sid!r}")
            out = np.log(out) / math.log(_BASES[step.param])
        elif step.kind == "zscore":
            ddof = 1 if step.param == "n-1" else 0
            present = np.isfinite(out)
            counts = present.sum(axis=1)
            if (counts < 2).any():
                i = int(np.argwhere(counts < 2)[0][0])
                raise TransformError(
                    f"zscore needs >= 2 present values per row; feature {m.feature_ids[i]!r} has {counts[i]}"
                )
            with np.errstate(invalid="ignore"):
                means = np.nanmean(out, axis=1, keepdims=True)
                sds = np.nanstd(out, axis=1, ddof=ddof, keepdims=True)
            # sums of squares over the present values, centered and raw
            centered_sq = sds[:, 0] ** 2 * (counts - ddof)
            flat = ~_kernels.varying(centered_sq, centered_sq + counts * means[:, 0] ** 2, counts)
            if flat.any():
                i = int(np.flatnonzero(flat)[0])
                raise TransformError(f"zero-variance row under zscore: feature {m.feature_ids[i]!r}")
            out = (out - means) / sds
        elif step.kind == "exp":
            out = np.power(_BASES[step.param], out)
        elif step.kind == "round":
            out = np.round(out, int(step.param)) + 0.0
    return out


def apply_pipeline(m: LabeledMatrix, p: TransformPipeline) -> LabeledMatrix:
    """Transform values row-wise; ids and labels pass through unchanged."""
    return LabeledMatrix(m.feature_ids, m.sample_ids, _apply_values(m, p), m.labels)


def default_candidate_grid() -> list[TransformPipeline]:
    """The declared reconstruction grid: log/exp base in {e,2,10} (bases
    coupled, since z-scoring makes the log base unobservable), zscore
    denominator in {n-1,n}, rounding in {none, 2 digits}. 12 candidates."""
    grid = []
    for base in ("e", "2", "10"):
        for denom in ("n-1", "n"):
            for digits in (None, 2):
                steps = [log_step(base), zscore_step(denom), exp_step(base)]
                if digits is not None:
                    steps.append(round_step(digits))
                grid.append(TransformPipeline(tuple(steps)))
    return grid


def _mean_row_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Pearson correlation over rows; rows that do not vary
    (``_kernels.varying``) in either matrix are skipped. NaN when no row is
    comparable."""
    am = a.mean(axis=1)
    bm = b.mean(axis=1)
    ac = a - am[:, None]
    bc = b - bm[:, None]
    na_sq = (ac * ac).sum(axis=1)
    nb_sq = (bc * bc).sum(axis=1)
    n = a.shape[1]
    # a row's raw sum of squares is its centered one plus n * mean^2
    ok = _kernels.varying(na_sq, na_sq + n * am * am, n) & _kernels.varying(nb_sq, nb_sq + n * bm * bm, n)
    if not ok.any():
        return float("nan")
    # single sqrt of the product keeps self-correlation exactly 1.0
    r = (ac[ok] * bc[ok]).sum(axis=1) / np.sqrt(na_sq[ok] * nb_sq[ok])
    return float(np.clip(r, -1.0, 1.0).mean())


def infer_pipeline(
    query: LabeledMatrix,
    reference: LabeledMatrix,
    candidates: Iterable[TransformPipeline],
) -> tuple[TransformPipeline, float, float]:
    """Find the candidate pipeline that best maps reference onto query.

    Fit is the mean Pearson row correlation between the query and the
    transformed reference (rows correspond by position). Ties break toward
    fewer steps, then earlier candidate order. Candidates whose application
    fails on the reference (e.g. log of a nonpositive value) are skipped.
    Returns (best pipeline, fit, max abs residual of the best candidate).
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("empty candidate list")
    if query.values.shape != reference.values.shape:
        raise ValueError(
            f"shape mismatch: query {query.values.shape} vs reference {reference.values.shape}"
        )
    best: tuple[float, int, int] | None = None  # (-fit, n_steps, position)
    best_pipe: TransformPipeline | None = None
    best_vals: np.ndarray | None = None
    for pos, cand in enumerate(cands):
        try:
            transformed = _apply_values(reference, cand)
        except TransformError:
            continue
        fit = _mean_row_correlation(query.values, transformed)
        if math.isnan(fit):
            continue
        key = (-fit, len(cand), pos)
        if best is None or key < best:
            best = key
            best_pipe = cand
            best_vals = transformed
    if best_pipe is None or best_vals is None or best is None:
        raise ValueError("no candidate pipeline was applicable to the reference")
    diff = np.abs(query.values - best_vals)
    residual = float(np.nanmax(diff)) if np.isfinite(diff).any() else float("nan")
    return best_pipe, -best[0], residual
