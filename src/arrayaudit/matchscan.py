"""Identify unlabeled rows/columns by brute-force correlation against a
reference panel, and detect index offsets between reported gene lists and
platform row order.

The row/column matcher finds every hit an exhaustive scan would, and
multiplies only the pairs that can reach the threshold. The scan is
``_kernels.cross_row_correlations``: BLAS matmuls over tiles of the query
x reference grid that keep only each tile's hits, so its memory is the
two prepared inputs, one tile's products and the hits, whatever the
product of the row counts. Two standardized rows at correlation c lie
sqrt(2 - 2c) apart, so no coordinate of theirs differs by more: the
complete rows are ordered by their value (key) in one column, and each
tile of query rows meets only the band of reference rows whose keys lie
within that distance at the threshold, widened by the rounding bound. At
0.9999 that is under 5% of the pairs of a random 4,000 x 24 panel; at a
threshold near 0 it is nearly all of them. A grid of at most
``_kernels._PAIR_BUDGET`` complete pairs (a 72 x 72 column scan) is one
band in row order, and rows with holes take the masked tiles, which
score every pair: both match too.

Offsets are applied in annotation row space, not list position: a shift
of +1 replaces each reported id with the id on the next platform row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .core import AnnotationIndex, LabeledMatrix, SignatureList


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching query rows (or columns) against a reference.

    A reference row is a hit when it correlates with the query row at
    ``min_corr`` or more over the positions both hold (3 or more, where
    both vary), within the rounding error of computing it, so exact
    copies are hits at ``min_corr`` 1. ``mapping`` sends each query id to
    its unique hit, or None when there is no hit or more than one;
    multi-hit queries are listed in ``ambiguous`` with all their hits, in
    reference order. Degenerate rows (constant, or fewer than 3 finite
    values), and all rows when no reference row is live, never match.
    """

    mapping: dict[str, Optional[str]]
    ambiguous: dict[str, tuple[str, ...]]
    degenerate: tuple[str, ...]
    n_matched: int
    n_unmatched: int
    n_ambiguous: int


def _match(
    query_ids: tuple[str, ...],
    query_values: np.ndarray,
    ref_ids: tuple[str, ...],
    ref_values: np.ndarray,
    min_corr: float,
    positions: str,
) -> MatchResult:
    """Match the rows of ``query_values`` against those of ``ref_values``,
    whose shared positions are the user's ``positions`` ("columns" when
    matching rows, "rows" when matching columns)."""
    if query_values.shape[1] != ref_values.shape[1]:
        raise ValueError(f"query has {query_values.shape[1]} {positions} but reference has {ref_values.shape[1]}")
    if query_values.shape[1] < 3:
        raise ValueError("matching needs at least 3 shared positions")
    live, hits = _kernels.cross_row_correlations(query_values, ref_values, min_corr)

    mapping: dict[str, Optional[str]] = {}
    ambiguous: dict[str, tuple[str, ...]] = {}
    degenerate: list[str] = []
    n_matched = n_unmatched = n_ambiguous = 0
    for qid, is_live, found in zip(query_ids, live, hits):
        if not is_live:
            degenerate.append(qid)
            mapping[qid] = None
            n_unmatched += 1
        elif found.size == 1:
            mapping[qid] = ref_ids[int(found[0])]
            n_matched += 1
        elif found.size == 0:
            mapping[qid] = None
            n_unmatched += 1
        else:
            mapping[qid] = None
            ambiguous[qid] = tuple(ref_ids[int(h)] for h in found)
            n_ambiguous += 1
    return MatchResult(
        mapping=mapping,
        ambiguous=ambiguous,
        degenerate=tuple(degenerate),
        n_matched=n_matched,
        n_unmatched=n_unmatched,
        n_ambiguous=n_ambiguous,
    )


def match_rows(query: LabeledMatrix, reference: LabeledMatrix, min_corr: float = 0.9999) -> MatchResult:
    """Identify query features by correlating each query row against every
    reference row (columns must correspond by position)."""
    return _match(query.feature_ids, query.values, reference.feature_ids, reference.values, min_corr, "columns")


def match_columns(query: LabeledMatrix, reference: LabeledMatrix, min_corr: float = 0.9999) -> MatchResult:
    """Identify query samples (e.g. unnamed cell lines) against a reference
    panel; rows must correspond by position."""
    return _match(query.sample_ids, query.values.T, reference.sample_ids, reference.values.T, min_corr, "rows")


@dataclass(frozen=True)
class OffsetResult:
    best_shift: int
    overlap_at_best: int
    outliers: tuple[str, ...]
    overlap_by_shift: dict[int, int]
    foreign_ids: tuple[str, ...]  # reported ids absent from the annotation


def detect_offset(
    reported: SignatureList,
    ann: AnnotationIndex,
    generated: SignatureList,
    max_shift: int = 3,
) -> OffsetResult:
    """Find the annotation-row shift that best aligns a reported gene list
    with an independently generated one.

    For each shift s, every reported id sitting on annotation row i is
    replaced by the id on row i+s (ids not on the platform can never shift
    and count as outliers everywhere; shifts off the end contribute
    nothing). Ties prefer smaller |s|, then negative over positive.
    Only shifts of at most ``len(ann) - 1`` are scanned, because a larger
    one moves every row off the annotation and matches nothing; so
    ``overlap_by_shift`` holds just those reachable shifts.
    """
    if len(reported) == 0 or len(generated) == 0:
        raise ValueError("offset detection needs nonempty signatures")
    gen = set(generated.feature_ids)
    rep = list(dict.fromkeys(reported.feature_ids))
    foreign = tuple(fid for fid in rep if fid not in ann)
    reach = min(max_shift, len(ann.feature_ids) - 1)
    shifts = sorted(range(-reach, reach + 1), key=lambda s: (abs(s), s > 0))
    overlap_by_shift: dict[int, int] = {}
    best_shift = 0
    best_overlap = -1
    best_matched: set[str] = set()
    for s in shifts:
        matched = set()
        for fid in rep:
            row = ann.index.get(fid)
            if row is None:
                continue
            target = row + s
            if 0 <= target < len(ann.feature_ids) and ann.feature_ids[target] in gen:
                matched.add(fid)
        overlap_by_shift[s] = len(matched)
        if len(matched) > best_overlap:
            best_overlap = len(matched)
            best_shift = s
            best_matched = matched
    outliers = tuple(fid for fid in rep if fid not in best_matched)
    return OffsetResult(
        best_shift=best_shift,
        overlap_at_best=best_overlap,
        outliers=outliers,
        overlap_by_shift=dict(sorted(overlap_by_shift.items())),
        foreign_ids=foreign,
    )


def check_platform_membership(sig: SignatureList, ann: AnnotationIndex) -> list[str]:
    """Reported ids that do not exist on the platform at all (the
    gene-from-another-array case): exact set difference, reported order."""
    return [fid for fid in dict.fromkeys(sig.feature_ids) if fid not in ann]
