"""Shared domain model: labeled matrices, rosters, signatures, findings.

All container types are immutable after construction and safe to share
across threads. No statistics and no I/O live here; detectors state their
own missing-value policy and this module never imputes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import Mapping, Optional

import numpy as np


class GroupLabel(enum.Enum):
    SENSITIVE = "Sensitive"
    RESISTANT = "Resistant"
    INTERMEDIATE = "Intermediate"
    UNUSED = "Unused"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


class Direction(enum.Enum):
    UP_IN_RESISTANT = "UpInResistant"
    UP_IN_SENSITIVE = "UpInSensitive"

    def __str__(self) -> str:
        return self.value


class Measure(enum.Enum):
    GI50 = "GI50"
    TGI = "TGI"
    LC50 = "LC50"

    def __str__(self) -> str:
        return self.value


class Severity(enum.Enum):
    INFO = "Info"
    WARNING = "Warning"
    CRITICAL = "Critical"

    def __str__(self) -> str:
        return self.value


class PlatformMismatchError(ValueError):
    """Signature and matrix/annotation share no feature ids."""


@dataclass(frozen=True, eq=False)
class LabeledMatrix:
    """Numeric feature x sample matrix with ids and optional group labels.

    ``values`` is coerced to a read-only float64 array of shape
    (n_features, n_samples): a read-only float64 array that owns its data
    is taken as it is, any other input is copied. Missing entries are NaN.
    Files parse strictly: ``ingest.parse_matrix`` refuses a repeated id and
    labels that are not the sample ids. In memory the constructor is
    permissive, because ``groupsearch`` lets one line hold several columns.
    """

    feature_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    values: np.ndarray
    labels: Optional[Mapping[str, GroupLabel]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        vals = self.values
        if not (type(vals) is np.ndarray and vals.dtype == np.float64 and vals.flags.owndata and not vals.flags.writeable):
            vals = np.array(vals, dtype=np.float64, copy=True)
            vals.setflags(write=False)
        if vals.ndim != 2:
            raise ValueError(f"values must be 2-D, got ndim={vals.ndim}")
        object.__setattr__(self, "values", vals)
        if self.labels is not None:
            object.__setattr__(self, "labels", dict(self.labels))

    @property
    def n_features(self) -> int:
        return len(self.feature_ids)

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    def label_of(self, sample_id: str) -> GroupLabel:
        """Label for a sample; samples without an entry count as Unknown."""
        if self.labels is None:
            return GroupLabel.UNKNOWN
        return self.labels.get(sample_id, GroupLabel.UNKNOWN)

    def feature_index(self) -> dict[str, int]:
        return {fid: i for i, fid in enumerate(self.feature_ids)}

    def with_labels(self, labels: Mapping[str, GroupLabel]) -> "LabeledMatrix":
        return LabeledMatrix(self.feature_ids, self.sample_ids, self.values, labels)


@dataclass(frozen=True)
class RosterEntry:
    sample_id: str
    label: GroupLabel
    source_id: str = ""
    note: Optional[str] = None


@dataclass(frozen=True)
class LabelRoster:
    """Ordered label claims; the same sample id may appear repeatedly.

    Repetition is the point: rosters record what each source asserted,
    conflicts included.
    """

    entries: tuple[RosterEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("roster must contain at least one entry")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SignatureList:
    """An ordered reported gene list, optionally with per-gene direction.

    Direction entries are kept as (feature_id, direction) pairs because a
    defective list can assign the same gene both directions; that is a
    lintable state, not a construction error.
    """

    feature_ids: tuple[str, ...]
    direction_entries: tuple[tuple[str, Direction], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        object.__setattr__(self, "direction_entries", tuple(self.direction_entries))
        if not self.feature_ids:
            raise ValueError("signature must list at least one feature id")
        known = set(self.feature_ids)
        for fid, _ in self.direction_entries:
            if fid not in known:
                raise ValueError(f"direction assigned to unknown feature id {fid!r}")

    def __len__(self) -> int:
        return len(self.feature_ids)

    def direction_map(self) -> dict[str, set[Direction]]:
        out: dict[str, set[Direction]] = {}
        for fid, d in self.direction_entries:
            out.setdefault(fid, set()).add(d)
        return out


@dataclass(frozen=True)
class AnnotationIndex:
    """Ordered feature-id universe of a platform; row position is semantic."""

    platform_id: str
    feature_ids: tuple[str, ...]
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        if len(set(self.feature_ids)) != len(self.feature_ids):
            raise ValueError("annotation feature ids must be unique")
        object.__setattr__(self, "index", {fid: i for i, fid in enumerate(self.feature_ids)})

    def __len__(self) -> int:
        return len(self.feature_ids)

    def __contains__(self, fid: str) -> bool:
        return fid in self.index


@dataclass(frozen=True)
class SensitivityRecord:
    """Potency of one drug against one cell line, on the -log10(molar)
    scale (higher value = more potent = more sensitive line)."""

    cell_line: str
    drug_id: str
    measure: Measure
    value: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError(f"potency for {self.cell_line}/{self.drug_id} is not finite")


@dataclass(frozen=True)
class SampleMeta:
    sample_id: str
    run_timestamp: datetime
    scanner_id: str
    treatment_arm: str
    included: bool

    def __post_init__(self) -> None:
        if not self.sample_id:
            raise ValueError("sample_id must be nonempty")


@dataclass(frozen=True)
class Finding:
    code: str
    severity: Severity
    subjects: tuple[str, ...]
    metrics: Mapping[str, float | int]
    message: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(self, "metrics", dict(self.metrics))


@dataclass(frozen=True)
class FindingsReport:
    findings: tuple[Finding, ...]
    tool_version: str
    input_digests: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "findings", tuple(self.findings))
        object.__setattr__(self, "input_digests", dict(self.input_digests))


@dataclass(frozen=True)
class ContingencyTable:
    """Counts over (row label, column label) pairs with margins."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    @property
    def col_totals(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.counts) for j in range(len(self.col_labels)))

    @property
    def total(self) -> int:
        return sum(self.row_totals)

    def as_text(self) -> str:
        width = max([8] + [len(lbl) for lbl in self.row_labels + self.col_labels]) + 2
        head = " " * width + "".join(f"{c:>{width}}" for c in self.col_labels) + f"{'total':>{width}}"
        lines = [head]
        for lbl, row, tot in zip(self.row_labels, self.counts, self.row_totals):
            lines.append(f"{lbl:>{width}}" + "".join(f"{v:>{width}}" for v in row) + f"{tot:>{width}}")
        lines.append(f"{'total':>{width}}" + "".join(f"{v:>{width}}" for v in self.col_totals) + f"{self.total:>{width}}")
        return "\n".join(lines)


def first_cell(m: LabeledMatrix, bad: np.ndarray) -> tuple[str, str, float]:
    """(feature id, sample id, value) of the first True cell of ``bad``, a
    mask shaped like ``m.values``, in column order; one must exist."""
    j, i = np.argwhere(bad.T)[0]
    return m.feature_ids[i], m.sample_ids[j], float(m.values[i, j])


def extract_submatrix(m: LabeledMatrix, sig: SignatureList) -> tuple[LabeledMatrix, list[str]]:
    """Restrict a matrix to the signature's features, in signature order.

    Returns the submatrix together with the signature ids absent from the
    matrix. An empty intersection raises PlatformMismatchError: the
    signature was almost certainly reported for a different platform.
    """
    findex = m.feature_index()
    ids = dict.fromkeys(sig.feature_ids)  # signature order, repeats dropped
    kept_ids = tuple(fid for fid in ids if fid in findex)
    absent = [fid for fid in ids if fid not in findex]
    if not kept_ids:
        raise PlatformMismatchError(
            f"none of the {len(sig)} signature ids occur in the matrix; "
            "probable platform mismatch"
        )
    labels = None
    if m.labels is not None:
        labels = {s: m.labels[s] for s in m.sample_ids if s in m.labels}
    values = m.values[[findex[fid] for fid in kept_ids]]  # a new array, handed over without a second copy
    values.setflags(write=False)
    return LabeledMatrix(kept_ids, m.sample_ids, values, labels), absent

