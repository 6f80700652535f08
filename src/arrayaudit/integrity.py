"""Dose-response sanity checks, run-date batch inference, block
detection, confounding tests, and the combination rules with their
renormalizations.

Potency convention throughout: values are on the -log10(molar) scale, so
larger means more potent and a correctly labeled Sensitive group sits at
higher values than the Resistant group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import timedelta
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    ContingencyTable,
    GroupLabel,
    LabeledMatrix,
    SampleMeta,
    SensitivityRecord,
)
from .dupscan import DupComponents, column_components, cross_tabulate
from .signature import auc


def _group_values(
    records: Sequence[SensitivityRecord], labels: Mapping[str, GroupLabel]
) -> tuple[list[float], list[float]]:
    sens, res = [], []
    for r in records:
        lab = labels.get(r.cell_line, GroupLabel.UNKNOWN)
        if lab == GroupLabel.SENSITIVE:
            sens.append(r.value)
        elif lab == GroupLabel.RESISTANT:
            res.append(r.value)
    return sens, res


@dataclass(frozen=True)
class SeparationResult:
    best_threshold: float
    misfit_count: int
    overlap: bool
    orientation: str  # sensitive_high | sensitive_low


def check_separation(
    records: Sequence[SensitivityRecord],
    labels: Mapping[str, GroupLabel],
    orientation: str = "sensitive_high",
) -> SeparationResult:
    """Can any single potency cutoff reproduce the claimed labels?

    Scores all n+1 threshold positions of the rule "value >= t means
    Sensitive": below everything, the n-1 midpoints of the sorted values,
    and above everything. misfit_count is the minimum number of
    misclassified lines, at the first candidate that reaches it; a nonzero
    minimum means the groups overlap and no cutoff could have produced the
    labeling. orientation='auto' also tries the reversed rule and keeps
    whichever fits better, sensitive_high on a tie.
    """
    if orientation not in ("sensitive_high", "sensitive_low", "auto"):
        raise ValueError(f"unknown orientation {orientation!r}")
    sens, res = _group_values(records, labels)
    if not sens or not res:
        raise ValueError("both Sensitive and Resistant values are required")
    values = np.sort(np.array(sens + res, dtype=np.float64), kind="stable")
    n = len(values)
    candidates = np.concatenate(([values[0]], (values[:-1] + values[1:]) / 2.0, [values[-1] + 1.0]))
    # Sensitive values below each cut plus Resistant values at or above it;
    # the reversed rule misfits exactly the other n - high lines
    high = np.searchsorted(np.sort(sens), candidates) + len(res) - np.searchsorted(np.sort(res), candidates)
    misfits = {"sensitive_high": high, "sensitive_low": n - high}
    names = ("sensitive_high", "sensitive_low") if orientation == "auto" else (orientation,)
    results = {}
    for name in names:
        i = int(np.argmin(misfits[name]))  # the first minimum
        results[name] = (float(candidates[i]), int(misfits[name][i]))
    name, (t, count) = min(results.items(), key=lambda kv: (kv[1][1], kv[0] != "sensitive_high"))
    return SeparationResult(t, count, count > 0, name)


@dataclass(frozen=True)
class ReversalResult:
    direction_stat: float  # AUC of "Sensitive values are higher"
    verdict: str  # ok | reversed | indeterminate

    @property
    def reversed(self) -> bool:
        return self.verdict == "reversed"


def check_reversal(
    records: Sequence[SensitivityRecord],
    labels: Mapping[str, GroupLabel],
    margin: float = 0.2,
) -> ReversalResult:
    """Rank-sum test of label orientation.

    direction_stat is the AUC of Sensitive-labeled potencies against
    Resistant-labeled ones: 1 means perfectly oriented, 0 means perfectly
    reversed. Below 0.5 - margin the labels are called reversed; inside
    the middle band the verdict stays indeterminate.
    """
    sens, res = _group_values(records, labels)
    if len(sens) < 2 or len(res) < 2:
        raise ValueError("need >= 2 values per group for a direction verdict")
    values = np.array(sens + res)
    y = np.array([1] * len(sens) + [0] * len(res))
    stat = auc(values, y)
    if stat < 0.5 - margin:
        verdict = "reversed"
    elif stat > 0.5 + margin:
        verdict = "ok"
    else:
        verdict = "indeterminate"
    return ReversalResult(stat, verdict)


@dataclass(frozen=True)
class FlatResponseResult:
    value_range: float
    iqr: float
    flat: bool


def check_flat_response(
    records: Sequence[SensitivityRecord], epsilon: float = 0.2
) -> FlatResponseResult:
    """Flag a drug with no differential activity across the panel (the
    prodrug pattern): interquartile range below epsilon on the -log10
    scale."""
    if len(records) < 5:
        raise ValueError("flat-response check needs >= 5 records")
    values = np.array([r.value for r in records], dtype=np.float64)
    q1, q3 = np.percentile(values, [25, 75])
    iqr = float(q3 - q1)
    return FlatResponseResult(float(values.max() - values.min()), iqr, iqr < epsilon)


def infer_batches(
    metas: Sequence[SampleMeta], gap: timedelta = timedelta(days=7)
) -> dict[str, int]:
    """Assign run batches by time gaps: sort by timestamp and open a new
    batch whenever the gap to the previous sample exceeds the threshold.
    Batches are numbered 1, 2, ... in time order."""
    if not metas:
        raise ValueError("no sample metadata supplied")
    ordered = sorted(metas, key=lambda m: (m.run_timestamp, m.sample_id))
    batches: dict[str, int] = {}
    batch = 1
    prev = ordered[0].run_timestamp
    for m in ordered:
        if m.run_timestamp - prev > gap:
            batch += 1
        batches[m.sample_id] = batch
        prev = m.run_timestamp
    return batches


def detect_blocks(m: LabeledMatrix, corr_threshold: float = 0.8) -> DupComponents:
    """Components of the sample-correlation graph at a loose threshold
    (``dupscan.column_components``); multi-sample components are the
    'blocks' that betray batch structure."""
    return column_components(m, m.values, corr_threshold)


@dataclass(frozen=True)
class ConfoundingResult:
    table: ContingencyTable
    cramers_v: float
    perfect: bool


def cramers_v(table: ContingencyTable) -> float:
    """Cramer's V from the chi-square statistic; empty rows/columns are
    dropped before computing."""
    counts = np.array(table.counts, dtype=np.float64)
    counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    r, c = counts.shape
    if r < 2 or c < 2:
        raise ValueError("Cramer's V needs at least a 2x2 table after dropping empty margins")
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return math.sqrt(chi2 / (n * (min(r, c) - 1)))


def test_confounding(
    batches: Mapping[str, object], treatments: Mapping[str, object]
) -> ConfoundingResult:
    """Quantify how strongly a grouping (run batch, scanner, ...) is tied
    to treatment arm.

    perfect means each treatment's samples occupy batch sets disjoint from
    every other treatment's - the design cannot distinguish treatment
    effect from batch effect at all. The table is ``cross_tabulate``'s,
    batches on its rows.
    """
    table = cross_tabulate(batches, treatments)
    if len(table.row_labels) < 2 or len(table.col_labels) < 2:
        raise ValueError("confounding test needs >= 2 batches and >= 2 treatments")
    perfect = all(sum(1 for c in row if c) <= 1 for row in table.counts)
    return ConfoundingResult(table, cramers_v(table), perfect)


# ---------------------------------------------------------------------------
# combination rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinationRule:
    drug_keys: tuple[str, ...]
    combine: Callable[[list[float]], float]  # of the probabilities in key order
    renormalization: str | None  # batch (min-max) | clip | None


COMBINATION_RULES = {
    "tfac": CombinationRule(("T", "F", "A", "C"), lambda p: sum(p) - math.prod(p), "batch"),
    "tet": CombinationRule(("E", "T"), max, None),
    "fec": CombinationRule(("F", "E", "C"), lambda p: 5.0 / 8.0 * sum(p) - 0.25, "clip"),
}


def combination_scores(
    rows: Mapping[str, Mapping[str, float]], rule: str, normalization: str
) -> list[float]:
    """Each sample's score under the named rule, in the order of ``rows``
    (sample id to its probability per drug key). Every probability must lie
    in [0, 1]; a raw score may leave it, which is what the rule's
    renormalization repairs. ``normalization`` is "raw", "sample" (only the
    per-sample part: fec's clip) or "batch" (``renormalize_batch`` over the
    rows, so a tfac score depends on every other row's inputs)."""
    if normalization not in ("raw", "sample", "batch"):
        raise ValueError(f"unknown normalization {normalization!r}")
    r = COMBINATION_RULES[rule]
    raw = []
    for sid, inputs in rows.items():
        probs = []
        for key in r.drug_keys:
            if key not in inputs:
                raise KeyError(f"sample {sid!r}: rule {rule!r} needs drug key {key!r}")
            v = float(inputs[key])
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"sample {sid!r}: P({key}) = {v} is outside [0, 1]")
            probs.append(v)
        raw.append(r.combine(probs))
    if normalization == "raw" or (normalization == "sample" and r.renormalization != "clip"):
        return raw
    return renormalize_batch(raw, rule)


def raw_combination_score(inputs: Mapping[str, float], rule: str) -> float:
    """One sample's ``combination_scores`` under "raw"."""
    return combination_scores({"": inputs}, rule, "raw")[0]


def combine_probabilities(inputs: Mapping[str, float], rule: str) -> float:
    """One sample's ``combination_scores`` under "sample"."""
    return combination_scores({"": inputs}, rule, "sample")[0]


def renormalize_batch(raw_scores: Sequence[float], rule: str) -> list[float]:
    """The rule's renormalization of a batch of raw scores: tfac maps the
    batch min to 0 and max to 1 by linear interpolation; fec clips to
    [0, 1]; tet is left untouched."""
    renormalization = COMBINATION_RULES[rule].renormalization
    scores = [float(v) for v in raw_scores]
    if renormalization == "batch":
        if not scores:
            raise ValueError("empty batch")
        lo, hi = min(scores), max(scores)
        if hi == lo:
            raise ValueError("degenerate batch: all combination scores equal")
        return [(v - lo) / (hi - lo) for v in scores]
    if renormalization == "clip":
        return [min(1.0, max(0.0, v)) for v in scores]
    return scores
