"""Row-wise transformation pipelines and pipeline reconstruction.

The pipelines modeled here are the ones that obscure provenance in
circulated data exports: log-transform, per-row z-scoring, exponentiation to
undo the log, and rounding. ``infer_pipeline`` searches a finite declared
candidate grid for the pipeline that best explains a query matrix as a
transformed reference: a small, auditable search instead of free-form
program synthesis. It screens every candidate on a sample of rows and
fits on every row only those whose bound can still win, walking the
candidates as a tree of their step prefixes, so candidates that share
steps share their values.

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
    finite = np.isfinite(out)
    if not finite.all():
        np.copyto(out, values, where=np.isfinite(values) & ~finite)
    return np.add(out, 0.0, out=out)


def _step(m: LabeledMatrix | _Rows, out: np.ndarray, step: Step, centered: tuple | None = None) -> np.ndarray:
    """``out``, the values of ``m`` under the steps before ``step``, under
    ``step`` too, as a new array; ``centered`` is ``_kernels.center_rows(out)``
    when the caller holds it."""
    if step.kind == "log":  # always the first step: out still holds m.values
        bad = out <= 0
        if bad.any():  # -inf is not refused: non-finite cells pass through
            bad &= np.isfinite(out)
        if bad.any():
            fid, sid, value = first_cell(m, bad)
            raise TransformError(f"log of nonpositive value {value!r} at feature {fid!r}, sample {sid!r}")
        logs = np.log(out)
        logs /= math.log(_BASES[step.param])
        return logs
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
        values = z / np.sqrt(sq / (counts - ddof))[:, None]
        if (counts < out.shape[1]).any():  # non-finite cells pass through
            np.copyto(values, scaled, where=~present)
        return values
    if step.kind == "exp":
        return np.power(_BASES[step.param], out)
    return round_values(out, int(step.param))


def _branch_point(node: list) -> bool:
    """Whether a zscore step can follow a path node: the root and a log step."""
    return node[0] is None or node[0].kind == "log"


def _centered(node: list, scratch: np.ndarray | None = None) -> tuple:
    """``_kernels.center_rows`` of a path node's values: kept on the node
    when it is a branch point, written into ``scratch`` (when given)
    otherwise, so a kept centering never shares it."""
    if node[2] is not None:
        return node[2]
    if not _branch_point(node):
        return _kernels.center_rows(node[1], scratch)
    node[2] = _kernels.center_rows(node[1])
    return node[2]


def _apply_values(m: LabeledMatrix | _Rows, p: TransformPipeline, path: list | None = None) -> np.ndarray:
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


def _correlations(q: tuple, t: tuple, scratch: np.ndarray) -> np.ndarray:
    """The Pearson correlations, clipped to [-1, 1], of the rows of two
    centerings that are complete and varying in both, in row order. Their
    product is written into ``scratch``, which may hold ``t.centered``."""
    n_cols = q.centered.shape[1]
    ok = q.varying & (q.k == n_cols) & t.varying & (t.k == n_cols)
    qc, tc, qsq, tsq = (q.centered, t.centered, q.sq, t.sq)
    if not ok.all():
        qc, tc, qsq, tsq = qc[ok], tc[ok], qsq[ok], tsq[ok]
    # rows summed in C order, as a boolean index lays them out; a single
    # sqrt of the product keeps self-correlation exactly 1.0
    product = np.multiply(qc, tc, out=scratch.reshape(-1, order="A")[: qc.size].reshape(qc.shape))
    r = product.sum(axis=1) / np.sqrt(qsq * tsq)
    return np.clip(r, -1.0, 1.0, out=r)


class _Rows:
    """Rows ``rows`` of a matrix: what ``_step`` reads of a ``LabeledMatrix``,
    with the values as a view, which the ``LabeledMatrix`` constructor
    would copy."""

    def __init__(self, m: LabeledMatrix, rows: slice) -> None:
        self.feature_ids, self.sample_ids, self.values = m.feature_ids[rows], m.sample_ids, m.values[rows]


def _fit_rows(
    q: tuple, m: _Rows, cand: TransformPipeline, path: list, scratch: np.ndarray, before: np.ndarray | None = None
) -> np.ndarray | None:
    """``_correlations`` of the query's centering ``q`` and ``cand``'s
    values of the rows ``m``, reached along ``path`` (``_apply_values``),
    after the correlations ``before`` of the rows above them when given;
    None when ``cand`` fails on them."""
    try:
        _apply_values(m, cand, path)
    except TransformError:
        return None
    # no name holds the node or its centering: either would keep this
    # candidate's arrays alive through the next one's steps
    r = _correlations(q, _centered(path[-1], scratch), scratch)
    return r if before is None else np.concatenate([before, r])


def _residual(query: np.ndarray, values: np.ndarray, out: np.ndarray) -> float:
    """The largest |query - values| over the cells both hold, computed in
    ``out``: inf when it exceeds the float range, NaN when no cell is held
    by both."""
    with np.errstate(over="ignore"):
        diff = np.subtract(query, values, out=out)
    return float(np.fmax.reduce(np.abs(diff, out=diff), axis=None))


#: rows on which every candidate is fitted before any is fitted on the rest
_SAMPLE_ROWS = 128
_EPS = np.finfo(np.float64).eps


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
    the float range, and NaN when no cell is held by both. The result is
    that of a scan of each candidate in order.

    Every candidate is fitted first on the sample, the first
    ``_SAMPLE_ROWS`` rows (every row of a smaller matrix), and then on the
    other rows only while it can still win. Over the sample it has h rows
    complete and varying in both matrices, whose correlations sum to S
    (``math.fsum``); past it at most R rows count, those complete and
    varying in the query. Each correlates at most 1, and (S + k) / (h + k)
    grows with k since S <= h, so no completion gives a mean above
    (S + R) / (h + R). Its rounding margin is (h + R + 4) eps, twice the
    first-order bound, as in ``_kernels._dot_tolerance``: a computed fit
    over m <= h + R rows sums m values of magnitude at most 1, which errs
    by (m - 1) eps / 2 of m in any order, and divides by m, which errs by
    eps / 2 more, so it lies within m eps / 2 of the exact mean; and the
    bound is computed within 3 eps / 2 (S correctly rounded, then one sum
    and one division). A candidate whose bound plus margin lies below the
    best computed fit so far cannot reach it, and is not fitted on the
    other rows; a tie always is.

    The first candidate that fits on every row (fails on none and has a row
    to fit) is a scan's first fit: when its fit is NaN it is the answer,
    and otherwise no NaN fit can win. The others follow in candidate order,
    so that they share prefixes, led by the one of the highest sample mean
    when that mean exceeds the bound of another that the first fit does not
    rule out: its fit is then likely to rule that one out.

    Each pass walks the candidates as a tree of their step prefixes
    (``_apply_values``): each one starts from the deepest prefix it shares
    with the one before it that is still held. On the default grid, whose
    shared prefixes are adjacent, each prefix's values are computed once a
    pass and centered at most once, for its own fit and for any zscore step
    after it. A pass holds the current candidate's values, the branch
    points on its path with their centering and one scratch array of its
    rows' shape: the centering of a candidate that is not a branch point
    goes there, and then its fit's product. Across them are held each
    candidate's correlations and residual over the sample, and in the
    second pass the best candidate's values of the other rows, whose
    residual is computed in the scratch array at the end.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("empty candidate list")
    if query.values.shape != reference.values.shape:
        raise ValueError(
            f"shape mismatch: query {query.values.shape} vs reference {reference.values.shape}"
        )
    n_rows, n_cols = reference.values.shape
    cut = min(_SAMPLE_ROWS, n_rows)
    head, rest = slice(cut), slice(cut, None)
    q = _kernels.center_rows(query.values[head])
    rows = _Rows(reference, head)
    scratch = np.empty_like(rows.values)
    path: list[list] = [[None, rows.values, None]]
    screen: list[tuple[np.ndarray, float] | None] = []  # per candidate: its correlations and residual
    for cand in cands:
        r = _fit_rows(q, rows, cand, path, scratch)
        screen.append(None if r is None else (r, _residual(query.values[head], path[-1][1], scratch)))
    reach = 0
    if cut < n_rows:
        q = _kernels.center_rows(query.values[rest])
        reach = int(np.count_nonzero(q.varying & (q.k == n_cols)))
        rows = _Rows(reference, rest)
        scratch = np.empty_like(rows.values)
        path = [[None, rows.values, None]]
    todo = [pos for pos, s in enumerate(screen) if s is not None and len(s[0]) + reach]
    bound, mean = {}, {}
    for pos in todo:
        h, total = len(screen[pos][0]), math.fsum(screen[pos][0])
        bound[pos] = (total + reach) / (h + reach) + (h + reach + 4) * _EPS
        mean[pos] = total / h if h and not math.isnan(total) else -math.inf
    best: tuple[float, int, int] | None = None  # (-fit, n_steps, position)
    best_vals: np.ndarray | None = None
    while todo:
        pos = todo.pop(0)
        if best is not None and bound[pos] < -best[0]:
            continue
        r, vals = screen[pos][0], None
        if cut < n_rows:
            r = _fit_rows(q, rows, cands[pos], path, scratch, r)
            if r is None:
                continue
            vals = path[-1][1]
        if not len(r):
            continue
        fit = float(r.mean())
        key = (-fit, len(cands[pos]), pos)
        if best is None:
            best, best_vals = key, vals
            if math.isnan(fit):
                break  # a scan keeps its first fit when it is NaN
            lead = max(todo, key=lambda p: (mean[p], -p), default=None)
            if lead is not None and any(fit <= bound[p] < mean[lead] for p in todo):
                todo.remove(lead)
                todo.insert(0, lead)
        elif key < best:
            best, best_vals = key, vals
    del path
    if best is None:
        raise ValueError("no candidate pipeline was applicable to the reference")
    residual = screen[best[2]][1]
    if cut < n_rows:
        residual = float(np.fmax(residual, _residual(query.values[rest], best_vals, scratch)))
    return cands[best[2]], -best[0], residual
