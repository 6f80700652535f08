"""Duplicate-sample detection and label-consistency forensics.

Duplication is defined by Pearson correlation at a tight threshold
(default 0.9999) rather than bitwise equality, because different sources
round the same underlying numbers differently. ``blocks`` and ``match``
share the scan and its hit rule: a pair's correlation over the features
both hold reaches the threshold within its rounding bound, so exact and
affine copies, also ones lacking some values, are duplicates at 1.
Components of the correlation graph, not pairs, are the reporting unit;
transitive closure can merge near-duplicates, which forensics accepts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels, transform
from .core import ContingencyTable, Direction, GroupLabel, LabeledMatrix, LabelRoster, first_cell


@dataclass(frozen=True)
class DupComponents:
    """Connected components (size >= 2) of a column-correlation graph: the
    duplicates of ``find_duplicate_columns`` or the blocks of
    ``integrity.detect_blocks``.

    ``multiplicity_histogram`` counts distinct samples at each observed
    multiplicity, singletons included at multiplicity 1, so the identity
    n_distinct = n_samples - sum(size - 1 over components) always holds.
    Degenerate columns (fewer than 3 values, or constant over them) never
    join the graph and are listed separately.
    """

    components: tuple[tuple[str, ...], ...]
    multiplicity_histogram: dict[int, int]
    n_distinct: int
    n_samples: int
    degenerate_columns: tuple[str, ...] = ()


def column_components(m: LabeledMatrix, values: np.ndarray, threshold: float) -> DupComponents:
    """The components of the correlation graph of the columns of ``values``
    (``m``'s, or a transform of them) at ``threshold``
    (``_kernels.correlated_components``), named by ``m``'s sample ids, in
    order of their smallest column index with members in column order."""
    comps, degenerate = _kernels.correlated_components(values, threshold)
    histogram = dict(Counter(len(c) for c in comps))
    singletons = m.n_samples - sum(len(c) for c in comps)
    if singletons:
        histogram[1] = singletons
    return DupComponents(
        components=tuple(tuple(m.sample_ids[i] for i in c) for c in comps),
        multiplicity_histogram=histogram,
        n_distinct=singletons + len(comps),
        n_samples=m.n_samples,
        degenerate_columns=tuple(sid for sid, d in zip(m.sample_ids, degenerate) if d),
    )


def find_duplicate_columns(
    m: LabeledMatrix, threshold: float = 0.9999, compare_on: str = "raw", missing_policy: str = "pairwise_complete"
) -> DupComponents:
    """Group samples into duplicate components: ``column_components`` at
    ``threshold`` over the raw values or, with ``compare_on`` "log", their
    natural log. With ``missing_policy`` "fail" a missing value is an error
    naming its cell; "pairwise_complete" correlates each pair over the
    features both hold."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if compare_on not in ("raw", "log"):
        raise ValueError(f"compare_on must be raw|log, got {compare_on!r}")
    if missing_policy not in ("pairwise_complete", "fail"):
        raise ValueError(f"missing_policy must be pairwise_complete|fail, got {missing_policy!r}")
    vals = m.values
    if missing_policy == "fail" and np.isnan(vals).any():
        fid, sid, _ = first_cell(m, np.isnan(vals))
        raise ValueError(f"missing_policy is 'fail' but the value at feature {fid!r}, sample {sid!r} is missing")
    if compare_on == "log":
        vals = transform.apply_pipeline(m, transform.parse_pipeline_spec("log:e")).values
    return column_components(m, vals, threshold)


def conflicting(labels: Iterable[GroupLabel]) -> bool:
    """The conflict rule for label claims: two distinct labels other than
    Unknown. Unknown never conflicts with anything."""
    return len(set(labels) - {GroupLabel.UNKNOWN}) >= 2


def claims_by_id(r: LabelRoster) -> dict[str, list[GroupLabel]]:
    """Each id's labels in roster order, ids in order of first appearance."""
    claims: dict[str, list[GroupLabel]] = {}
    for e in r.entries:
        claims.setdefault(e.sample_id, []).append(e.label)
    return claims


def first_claims(r: LabelRoster) -> dict[str, GroupLabel]:
    """Each id's first label in roster order: a repeated id's conflicts are
    the ``roster`` check's business (``roster_duplicates``)."""
    return {sid: labs[0] for sid, labs in claims_by_id(r).items()}


def classify_duplicate_labels(
    comps: DupComponents, labels: Mapping[str, GroupLabel]
) -> tuple[list[tuple[str, ...]], list[tuple[tuple[str, ...], dict[GroupLabel, int]]]]:
    """Split components into consistently and inconsistently labeled
    (``conflicting``); an inconsistent component comes with the count of
    each label among its members."""
    consistent: list[tuple[str, ...]] = []
    inconsistent: list[tuple[tuple[str, ...], dict[GroupLabel, int]]] = []
    for comp in comps.components:
        labs = [labels.get(sid, GroupLabel.UNKNOWN) for sid in comp]
        if conflicting(labs):
            inconsistent.append((comp, dict(Counter(labs))))
        else:
            consistent.append(comp)
    return consistent, inconsistent


def roster_duplicates(r: LabelRoster) -> tuple[int, list[str], list[str]]:
    """Census of a roster: (distinct ids, duplicated ids, ids labeled
    inconsistently among their duplicates). Order follows first appearance."""
    claims = claims_by_id(r)
    duplicated = [sid for sid, labs in claims.items() if len(labs) >= 2]
    inconsistent = [sid for sid in duplicated if conflicting(claims[sid])]
    return len(claims), duplicated, inconsistent


#: Extended label used on the claimed axis of a cross-tabulation for
#: samples whose duplicate roster entries disagree.
BOTH = "Both"

_CROSS_ORDER = {
    GroupLabel.SENSITIVE.value: 0,
    GroupLabel.INTERMEDIATE.value: 1,
    GroupLabel.RESISTANT.value: 2,
    BOTH: 3,
    GroupLabel.UNUSED.value: 4,
    GroupLabel.UNKNOWN.value: 5,
}


def roster_labeling(r: LabelRoster) -> dict[str, str]:
    """Collapse a roster to one label per id: Both for conflicting claims,
    else the id's first label other than Unknown, else Unknown."""
    out: dict[str, str] = {}
    for sid, labs in claims_by_id(r).items():
        if conflicting(labs):
            out[sid] = BOTH
        else:
            out[sid] = next((lab.value for lab in labs if lab != GroupLabel.UNKNOWN), GroupLabel.UNKNOWN.value)
    return out


def _level_key(level: str) -> tuple[int, str]:
    return _CROSS_ORDER.get(level, 99), level


def _canon_label(lab) -> str:
    if isinstance(lab, GroupLabel):
        return lab.value
    return str(lab)


def cross_tabulate(a: Mapping[str, object], b: Mapping[str, object]) -> ContingencyTable:
    """Joint classification counts for two labelings of one sample universe.

    ``a`` may use the extended Both label for internally conflicting
    entries. Samples present on only one axis are an error only when the
    shared universe is empty; otherwise the table covers the intersection.
    Levels are ordered label levels first, in ``_CROSS_ORDER``, then any
    other values in string order.
    """
    shared = [sid for sid in a if sid in b]
    if not shared:
        raise ValueError("the two labelings share no samples")
    rows = sorted({_canon_label(a[s]) for s in shared}, key=_level_key)
    cols = sorted({_canon_label(b[s]) for s in shared}, key=_level_key)
    ri = {lab: i for i, lab in enumerate(rows)}
    ci = {lab: i for i, lab in enumerate(cols)}
    counts = [[0] * len(cols) for _ in rows]
    for sid in shared:
        counts[ri[_canon_label(a[sid])]][ci[_canon_label(b[sid])]] += 1
    return ContingencyTable(tuple(rows), tuple(cols), tuple(tuple(r) for r in counts))


def matrices_identical(m1: LabeledMatrix, m2: LabeledMatrix, digits: int = 2) -> bool:
    """Whether two matrices hold equal values, NaN equal to NaN, after
    ``transform.round_values`` to ``digits`` decimals; ids and labels are left
    out, as the reuse this detects is the same numbers under other names."""
    a, b = (transform.round_values(m.values, digits) for m in (m1, m2))
    return a.shape == b.shape and bool(((a == b) | (np.isnan(a) & np.isnan(b))).all())


@dataclass(frozen=True)
class FlipReport:
    """Which drugs show at least one Sensitive/Resistant reversal across
    sources."""

    flipped_drugs: dict[str, list[str]]  # drug -> entities carrying both labels
    drugs_checked: dict[str, int]  # drug -> number of sources covering it


def compare_labelings(
    sources: Sequence[tuple[str, str, Mapping[str, GroupLabel]]]
) -> FlipReport:
    """Compare sensitive/resistant labelings of the same entities across
    sources. A drug is flagged when any entity is labeled Sensitive by one
    source and Resistant by another: a flip is an orientation change, so
    this rule is not ``conflicting``."""
    if not sources:
        raise ValueError("at least one labeling source is required")
    claims: dict[tuple[str, str], set[GroupLabel]] = {}
    drug_sources: dict[str, set[str]] = {}
    for source_id, drug_id, labeling in sources:
        drug_sources.setdefault(drug_id, set()).add(source_id)
        for entity, lab in labeling.items():
            claims.setdefault((drug_id, entity), set()).add(lab)
    flipped: dict[str, list[str]] = {}
    for drug_id, entity in sorted(claims):
        if {GroupLabel.SENSITIVE, GroupLabel.RESISTANT} <= claims[drug_id, entity]:
            flipped.setdefault(drug_id, []).append(entity)
    return FlipReport(
        flipped_drugs=flipped,
        drugs_checked={d: len(s) for d, s in drug_sources.items()},
    )


def check_signature_directions(sig) -> list[str]:
    """Feature ids a signature lists as up in both groups (its direction
    entries conflict). Signatures without direction data lint clean."""
    dirs = sig.direction_map()
    both = {Direction.UP_IN_RESISTANT, Direction.UP_IN_SENSITIVE}
    return [fid for fid in dict.fromkeys(sig.feature_ids) if dirs.get(fid, set()) >= both]
