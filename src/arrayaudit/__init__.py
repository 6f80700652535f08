"""arrayaudit: forensic audits for labeled high-throughput data matrices.

Detects the data-handling failure modes that survive peer review:
duplicated samples with contradictory labels, off-by-one indexing between
reported gene lists and platform rows, sensitive/resistant label
reversals, run-batch confounding of treatment arms, and silently reused
figures or tables.
"""

__version__ = "0.1.0"

from .core import (
    AnnotationIndex,
    ContingencyTable,
    Direction,
    Finding,
    FindingsReport,
    GroupLabel,
    LabeledMatrix,
    LabelRoster,
    Measure,
    PlatformMismatchError,
    RosterEntry,
    SampleMeta,
    SensitivityRecord,
    Severity,
    SignatureList,
    extract_submatrix,
)

__all__ = [
    "__version__",
    "AnnotationIndex",
    "ContingencyTable",
    "Direction",
    "Finding",
    "FindingsReport",
    "GroupLabel",
    "LabeledMatrix",
    "LabelRoster",
    "Measure",
    "PlatformMismatchError",
    "RosterEntry",
    "SampleMeta",
    "SensitivityRecord",
    "Severity",
    "SignatureList",
    "extract_submatrix",
]
