"""Row-wise transformation pipelines and pipeline reconstruction.

The pipelines modeled here are the ones that obscure provenance in
circulated data exports: log-transform, per-row z-scoring, exponentiation to
undo the log, and rounding. ``infer_pipeline`` searches a finite declared
candidate grid for the pipeline that best explains a query matrix as a
transformed reference: a small, auditable search instead of free-form
program synthesis. It walks the candidates as a tree of their step
prefixes, so candidates that share steps share their values.

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
            if not (self.param.isascii() and self.param.isdigit()):
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


def round_values(values: np.ndarray, digits: int) -> np.ndarray:
    """``np.round(values, digits)`` with -0.0 read as 0.0, but a finite value whose
    scaling by 10**digits overflows stays as it is: below 309 digits, its exact rounding."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.round(values, digits)
    np.copyto(out, values, where=np.isfinite(values) & ~np.isfinite(out))
    return np.add(out, 0.0, out=out)


def _step(m: LabeledMatrix, out: np.ndarray, step: Step, centered: tuple | None = None) -> np.ndarray:
    """``out``, the values of ``m`` under the steps before ``step``, under
    ``step`` too, as a new array; ``centered`` is ``_kernels.center_rows(out)``
    when the caller holds it."""
    if step.kind == "log":  # always the first step: out still holds m.values
        bad = (out <= 0) & np.isfinite(out)
        if bad.any():
            fid, sid, value = first_cell(m, bad)
            raise TransformError(f"log of nonpositive value {value!r} at feature {fid!r}, sample {sid!r}")
        return np.log(out) / math.log(_BASES[step.param])
    if step.kind == "zscore":
        ddof = 1 if step.param == "n-1" else 0
        scaled, present, z, sq, counts, varies = _kernels.center_rows(out) if centered is None else centered
        if (counts < 2).any():
            i = int(np.argwhere(counts < 2)[0][0])
            raise TransformError(
                f"zscore needs >= 2 present values per row; feature {m.feature_ids[i]!r} has {counts[i]}"
            )
        if not varies.all():
            i = int(np.flatnonzero(~varies)[0])
            raise TransformError(f"zero-variance row under zscore: feature {m.feature_ids[i]!r}")
        return np.where(present, z / np.sqrt(sq / (counts - ddof))[:, None], scaled)
    if step.kind == "exp":
        return np.power(_BASES[step.param], out)
    return round_values(out, int(step.param))


def _branch_point(node: list) -> bool:
    """Whether a zscore step can follow a path node: the root and a log step."""
    return node[0] is None or node[0].kind == "log"


def _centered(node: list) -> tuple:
    """``_kernels.center_rows`` of a path node's values, kept on the node
    when it is a branch point."""
    if node[2] is not None:
        return node[2]
    centered = _kernels.center_rows(node[1])
    if _branch_point(node):
        node[2] = centered
    return centered


def _apply_values(m: LabeledMatrix, p: TransformPipeline, path: list | None = None) -> np.ndarray:
    """The values of ``m`` under ``p``.

    ``path``, when given, holds nodes ``[step, values, centered]`` from the
    root ``[None, m.values, None]`` along the steps of an earlier pipeline.
    It is cut to the deepest node it shares with ``p`` that still holds its
    values, and ``p``'s further steps are appended to it, so a prefix shared
    with the earlier pipeline is not computed again. Once a node has a
    child, only a branch point keeps its values: the default grid's
    candidates branch at the root and after a log step.
    """
    if path is None:  # a lone pipeline holds only its last array
        out = m.values  # read-only: every step writes a new array
        for step in p.steps:
            out = _step(m, out, step)
        return out
    depth = 0
    while depth < min(len(path) - 1, len(p)) and path[depth + 1][0] == p.steps[depth]:
        depth += 1
    while path[depth][1] is None:
        depth -= 1
    del path[depth + 1 :]
    for step in p.steps[depth:]:
        parent = path[-1]
        centered = _centered(parent) if step.kind == "zscore" else None
        path.append([step, _step(m, parent[1], step, centered), None])
        if not _branch_point(parent):
            parent[1] = None
    return path[-1][1]


def apply_pipeline(m: LabeledMatrix, p: TransformPipeline) -> LabeledMatrix:
    """Transform values row-wise; ids and labels pass through unchanged."""
    values = _apply_values(m, p)  # a new array, or m.values (read-only) for the identity
    values.setflags(write=False)  # handed over without a second copy
    return LabeledMatrix(m.feature_ids, m.sample_ids, values, m.labels)


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


def _fit(q: tuple, t: tuple) -> float | None:
    """The mean Pearson correlation of the rows of two centerings over the
    rows complete and varying in both; None when there are none."""
    n_cols = q.centered.shape[1]
    ok = q.varying & (q.k == n_cols) & t.varying & (t.k == n_cols)
    if not ok.any():
        return None
    qc, tc, qsq, tsq = (q.centered, t.centered, q.sq, t.sq)
    if not ok.all():
        qc, tc, qsq, tsq = qc[ok], tc[ok], qsq[ok], tsq[ok]
    # rows summed in C order, as a boolean index lays them out; a single
    # sqrt of the product keeps self-correlation exactly 1.0
    r = np.multiply(qc, tc, order="C").sum(axis=1) / np.sqrt(qsq * tsq)
    return float(np.clip(r, -1.0, 1.0).mean())


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

    The candidates are walked in order as a tree of their step prefixes
    (``_apply_values``): each one starts from the deepest prefix it shares
    with the one before it that is still held. On the default grid, whose
    shared prefixes are adjacent, each prefix's values are computed once
    and centered at most once, for its own fit and for any zscore step
    after it. Held are the current candidate's values, the branch points
    on its path with their centering, and the best candidate's values.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("empty candidate list")
    if query.values.shape != reference.values.shape:
        raise ValueError(
            f"shape mismatch: query {query.values.shape} vs reference {reference.values.shape}"
        )
    q = _kernels.center_rows(query.values)
    best: tuple[float, int, int] | None = None  # (-fit, n_steps, position)
    best_vals: np.ndarray | None = None
    path: list[list] = [[None, reference.values, None]]
    for pos, cand in enumerate(cands):
        try:
            _apply_values(reference, cand, path)
        except TransformError:
            continue
        fit = _fit(q, _centered(path[-1]))
        if fit is None:
            continue
        key = (-fit, len(cand), pos)
        if best is None or key < best:
            best, best_vals = key, path[-1][1]
    del path
    if best is None or best_vals is None:
        raise ValueError("no candidate pipeline was applicable to the reference")
    with np.errstate(over="ignore"):  # a residual beyond the float range is inf
        diff = np.abs(query.values - best_vals)
    residual = float("nan") if np.isnan(diff).all() else float(np.nanmax(diff))
    return cands[best[2]], -best[0], residual
