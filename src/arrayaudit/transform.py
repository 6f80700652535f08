"""Row-wise transformation pipelines and pipeline reconstruction.

The pipelines modeled here are the ones that obscure provenance in
circulated data exports: log-transform, per-row z-scoring, exponentiation to
undo the log, and rounding. ``infer_pipeline`` searches a finite declared
candidate grid for the pipeline that best explains a query matrix as a
transformed reference: a small, auditable search instead of free-form
program synthesis.

Pipelines are value-level and row-independent; applying one never changes
ids or labels. Non-finite entries pass through elementwise. The z-score
step and the fit of ``infer_pipeline`` center rows by the kernels' one row
rule (``_kernels.center_rows``), so both hold at any scale of the values.
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
    out = m.values  # read-only: every step below writes a new array
    for step in p.steps:
        if step.kind == "log":  # always the first step: out still holds m.values
            bad = (out <= 0) & np.isfinite(out)
            if bad.any():
                fid, sid, value = first_cell(m, bad)
                raise TransformError(f"log of nonpositive value {value!r} at feature {fid!r}, sample {sid!r}")
            out = np.log(out) / math.log(_BASES[step.param])
        elif step.kind == "zscore":
            ddof = 1 if step.param == "n-1" else 0
            scaled, present, centered, sq, counts, varies = _kernels.center_rows(out)
            if (counts < 2).any():
                i = int(np.argwhere(counts < 2)[0][0])
                raise TransformError(
                    f"zscore needs >= 2 present values per row; feature {m.feature_ids[i]!r} has {counts[i]}"
                )
            if not varies.all():
                i = int(np.flatnonzero(~varies)[0])
                raise TransformError(f"zero-variance row under zscore: feature {m.feature_ids[i]!r}")
            out = np.where(present, centered / np.sqrt(sq / (counts - ddof))[:, None], scaled)
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


def infer_pipeline(
    query: LabeledMatrix,
    reference: LabeledMatrix,
    candidates: Iterable[TransformPipeline],
) -> tuple[TransformPipeline, float, float]:
    """Find the candidate pipeline that best maps reference onto query.

    Fit is the mean Pearson row correlation between the query and the
    transformed reference (rows correspond by position), over the rows
    complete and varying in both (``_kernels.center_rows``). Ties break toward
    fewer steps, then earlier candidate order. Candidates whose application
    fails on the reference (e.g. log of a nonpositive value) are skipped.
    Returns (best pipeline, fit, max abs residual of the best candidate):
    the residual is taken over the cells both hold, is inf when it exceeds
    the float range, and NaN when no cell is held by both.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("empty candidate list")
    if query.values.shape != reference.values.shape:
        raise ValueError(
            f"shape mismatch: query {query.values.shape} vs reference {reference.values.shape}"
        )
    q = _kernels.center_rows(query.values)
    q_fits = q.varying & (q.k == query.values.shape[1])
    best: tuple[float, int, int] | None = None  # (-fit, n_steps, position)
    best_pipe: TransformPipeline | None = None
    best_vals: np.ndarray | None = None
    for pos, cand in enumerate(cands):
        try:
            transformed = _apply_values(reference, cand)
        except TransformError:
            continue
        t = _kernels.center_rows(transformed)
        ok = q_fits & t.varying & (t.k == transformed.shape[1])
        if not ok.any():
            continue
        # single sqrt of the product keeps self-correlation exactly 1.0
        r = (q.centered[ok] * t.centered[ok]).sum(axis=1) / np.sqrt(q.sq[ok] * t.sq[ok])
        fit = float(np.clip(r, -1.0, 1.0).mean())
        key = (-fit, len(cand), pos)
        if best is None or key < best:
            best = key
            best_pipe = cand
            best_vals = transformed
    if best_pipe is None or best_vals is None or best is None:
        raise ValueError("no candidate pipeline was applicable to the reference")
    with np.errstate(over="ignore"):  # a residual beyond the float range is inf
        diff = np.abs(query.values - best_vals)
    residual = float("nan") if np.isnan(diff).all() else float(np.nanmax(diff))
    return best_pipe, -best[0], residual
