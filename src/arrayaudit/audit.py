"""The manifest runner: the finding-code registry, manifest validation,
the check adapters and the canonical report.

A manifest declares named inputs (with their kinds) and an ordered list of
checks; ``run_audit`` executes every check and emits a canonical JSON
findings report (sorted keys, LF, UTF-8, no timestamps) so that repeated
runs over identical inputs are byte-identical. Exit codes triage for CI:
0 = nothing above Info, 2 = findings present, 1 = execution error.

Every finding code is drawn from the closed registry below; ``explain``
documents the failure mode behind each code. This is the one module that
builds a ``Finding``: detectors return results, the adapters here turn
them into findings.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from . import __version__
from .core import Finding, FindingsReport, GroupLabel, LabeledMatrix, Measure, Severity
from . import dupscan as _dup
from . import ingest
from . import integrity as _integ
from . import matchscan as _match

SCHEMA_VERSION = "1"

#: Closed registry: every reportable finding code and its explanation.
FINDING_CODES: dict[str, str] = {
    "DUP_COLUMNS": (
        "Duplicate test samples: several data columns carry (near-)identical "
        "values, so the effective sample size is smaller than the column count "
        "and any accuracy computed over all columns is inflated."
    ),
    "DUP_INCONSISTENT_LABELS": (
        "Duplicated columns with contradictory group labels: the same sample "
        "is counted as sensitive in one column and resistant in another, which "
        "is impossible and poisons both training and evaluation."
    ),
    "ROSTER_DUP": (
        "A sample roster lists the same id more than once, so the stated "
        "sample count overstates the number of distinct samples."
    ),
    "ROSTER_CONFLICT": (
        "Duplicated roster entries disagree on the group label for the same "
        "sample id; at least one of the claims must be wrong."
    ),
    "OFFSET_DETECTED": (
        "The reported gene list matches an independently regenerated list "
        "only after shifting annotation rows by a fixed offset: an indexing "
        "error replaced every gene with a neighbor from the platform table."
    ),
    "PLATFORM_MISMATCH": (
        "Reported feature ids do not exist on the platform the data was "
        "measured on; those genes cannot have come from this dataset."
    ),
    "LABEL_REVERSAL": (
        "Drug-response potencies contradict the sensitive/resistant "
        "orientation: the group called sensitive is the less responsive one. "
        "Every downstream treatment recommendation built on the labels is "
        "inverted."
    ),
    "SENTINEL_VIOLATION": (
        "A sample whose correct group is known a priori (for example a cell "
        "line selected for resistance to the drug) carries a conflicting "
        "label - the classic symptom of a swapped label set."
    ),
    "FLAT_RESPONSE": (
        "The drug shows no differential activity across the panel (typical "
        "for prodrugs that are inert in vitro); sensitive/resistant groups "
        "cannot have been derived from this response data."
    ),
    "SEPARATION_OVERLAP": (
        "No single potency cutoff reproduces the claimed sensitive/resistant "
        "split: group potency ranges overlap, so the labeling cannot be "
        "explained by moving the threshold."
    ),
    "CONFOUND_PERFECT": (
        "Treatment arms occupy disjoint run batches or scanners: processing "
        "effects and treatment effects are mathematically indistinguishable, "
        "and any classifier may be learning the batch or scanner."
    ),
    "CONFOUND_HIGH": (
        "Treatment arm is strongly (but not perfectly) associated with run "
        "batch or scanner; batch or scanner effects will leak into any "
        "treatment comparison."
    ),
    "BLOCK_STRUCTURE": (
        "Samples form high-correlation blocks, typically reflecting runs "
        "processed together; check block membership against design variables."
    ),
    "REUSED_ARTIFACT": (
        "Two matrices are identical after rounding: a figure or table was "
        "reused under a different name, so at least one report does not show "
        "the data it claims to."
    ),
    "DIRECTION_CONFLICT": (
        "A signature lists the same gene as more highly expressed in both "
        "groups; the direction annotations are internally inconsistent."
    ),
    "LABELING_FLIP": (
        "Across sources, the same entity is labeled sensitive by one and "
        "resistant by another for the same drug: the orientation of the "
        "signature has flipped over time."
    ),
    "DEGENERATE_DATA": (
        "An input could not be used as declared (unreadable file, "
        "zero-variance column, or similar); the affected checks are partial."
    ),
}


def explain(code: str) -> str:
    """Explanation text for a registry code; unknown codes are an error."""
    if code not in FINDING_CODES:
        raise KeyError(f"unknown finding code {code!r}")
    return FINDING_CODES[code]


class ManifestError(ValueError):
    pass


#: What a bad input file, manifest or parameter raises: ``main`` prints it
#: as ``error: ...`` and exits 1, ``run_audit`` reports it as DEGENERATE_DATA.
_INPUT_ERRORS = (OSError, ValueError, KeyError, OverflowError)


#: input kind -> its parser (looked up in ``ingest`` at call time)
_INPUT_KINDS = {
    "matrix": lambda text, fmt: ingest.parse_matrix(text, fmt),
    "roster": lambda text, fmt: ingest.parse_roster(text),
    "signature": lambda text, fmt: ingest.parse_signature(text),
    "annotation": lambda text, fmt: ingest.parse_annotation(text),
    "sensitivity": lambda text, fmt: ingest.parse_sensitivity(text),
    "meta": lambda text, fmt: ingest.parse_sample_meta(text),
}


@dataclass(frozen=True)
class InputDecl:
    name: str
    path: str
    kind: str
    format: ingest.MatrixFormat = ingest.MatrixFormat()

    def parse(self, text: str):
        return _INPUT_KINDS[self.kind](text, self.format)


@dataclass(frozen=True)
class AuditManifest:
    inputs: dict[str, InputDecl]
    checks: tuple[dict, ...]
    output: Optional[str]
    base_dir: Path = field(default_factory=Path)

    def resolve(self, decl: InputDecl) -> Path:
        return self.base_dir / decl.path


def _known_keys(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    """Refuse a key the runner would ignore, such as a misspelt ``output``."""
    for key in doc:
        if key not in allowed:
            raise ManifestError(f"{where} has unknown key {key!r}; allowed: {', '.join(allowed)}")


def _input_decl(name: str, spec) -> InputDecl:
    if not isinstance(spec, dict) or "path" not in spec or "kind" not in spec:
        raise ManifestError(f"input {name!r} needs 'path' and 'kind'")
    _known_keys(spec, ("path", "kind", "format"), f"input {name!r}")
    if not isinstance(spec["kind"], str) or spec["kind"] not in _INPUT_KINDS:
        raise ManifestError(f"input {name!r} has unknown kind {spec['kind']!r}")
    if not isinstance(spec["path"], str):
        raise ManifestError(f"input {name!r}: path must be a string, got {spec['path']!r}")
    fmt = spec.get("format", {})
    if not isinstance(fmt, dict):
        raise ManifestError(f"input {name!r}: format must be an object, got {fmt!r}")
    if fmt and spec["kind"] != "matrix":
        raise ManifestError(f"input {name!r}: format applies to a matrix input, not a {spec['kind']} one")
    try:
        return InputDecl(name, spec["path"], spec["kind"], ingest.MatrixFormat(**fmt))
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"input {name!r}: bad format: {exc}") from None


def _input_refs(chk: dict) -> list[tuple[str, object, str]]:
    """``(where, reference, kind)`` for every input reference of a manifest
    check whose name is in ``CHECKS``."""
    spec = CHECKS[chk["check"]]
    refs = [(param, chk.get(param), kind) for param, kind in spec.inputs.items()]
    for lst, fields in spec.item_inputs.items():  # malformed lists are the parameter check's
        items = chk[lst] if isinstance(chk.get(lst), list) else []
        refs += [
            (f"{lst}[{j}].{fld}", it.get(fld), kind)
            for j, it in enumerate(items)
            if isinstance(it, dict)
            for fld, kind in fields.items()
        ]
    return refs


def _validate_manifest(doc: dict, base_dir: Path) -> AuditManifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    inputs_doc = doc.get("inputs")
    checks_doc = doc.get("checks")
    if not isinstance(inputs_doc, dict) or not isinstance(checks_doc, list):
        raise ManifestError("manifest needs an 'inputs' object and a 'checks' array")
    _known_keys(doc, ("inputs", "checks", "output", "schema_version"), "manifest")
    inputs = {name: _input_decl(name, spec) for name, spec in inputs_doc.items()}
    checks = []
    for i, chk in enumerate(checks_doc):
        if not isinstance(chk, dict) or "check" not in chk:
            raise ManifestError(f"check #{i + 1} is missing its 'check' name")
        name = chk["check"]
        if not isinstance(name, str) or name not in CHECKS:
            raise ManifestError(f"check #{i + 1}: unknown check {name!r}")
        for where, ref, kind in _input_refs(chk):
            if ref is None:
                raise ManifestError(f"check #{i + 1} ({name}): missing input reference {where!r}")
            if not isinstance(ref, str) or ref not in inputs:
                raise ManifestError(f"check #{i + 1} ({name}): undeclared input {ref!r}")
            if inputs[ref].kind != kind:
                raise ManifestError(
                    f"check #{i + 1} ({name}): input {ref!r} has kind "
                    f"{inputs[ref].kind!r}, needs {kind!r}"
                )
        checks.append(dict(chk))
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ManifestError(f"schema_version {version!r} is not supported; this runner reads {SCHEMA_VERSION!r}")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ManifestError(f"output must be a string, got {output!r}")
    if output == "":
        raise ManifestError("output is empty; name the report's path or leave output out")
    return AuditManifest(inputs, tuple(checks), output, base_dir)


def load_manifest(path: str | Path) -> AuditManifest:
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    # bad JSON, a file that is not UTF-8 and an integer over Python's digit
    # limit raise ValueError; too deep a nesting raises RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise ManifestError(f"cannot load manifest {p}: {exc}") from exc
    return _validate_manifest(doc, p.parent)


#: What a check adapter gets its inputs from: the parsed value of a
#: declared input, by name.
Loader = Callable[[str], object]


# ---------------------------------------------------------------------------
# check parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bounds:
    """The interval a numeric parameter must lie in, printed like ``(0, 1]``
    (an infinite end prints open)."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, value) -> bool:
        above = self.lo < value if self.lo_open else self.lo <= value
        below = value < self.hi if self.hi_open else value <= self.hi
        return above and below

    def __str__(self) -> str:
        close = ")" if self.hi_open or self.hi == math.inf else "]"
        return f"{'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}{close}"


def _param(name: str, value, kind: type, allowed) -> None:
    """Raise ValueError unless ``value`` has the declared kind and lies in
    ``allowed`` (None admits any value of the kind). ``float`` is a finite
    number and ``int`` an integer, never a bool, within ``Bounds``; ``str``
    is one of a tuple; ``list`` is a non-empty list drawn from a tuple or,
    when ``allowed`` maps fields to ``"required"``/``"optional"``, a list of
    objects with string fields."""
    if kind is list and isinstance(allowed, dict):
        want = "a list of objects with string fields " + ", ".join(f"{f} ({need})" for f, need in allowed.items())
        required = {f for f, need in allowed.items() if need == "required"}
        ok = isinstance(value, list) and all(
            isinstance(it, dict)
            and required <= set(it) <= set(allowed)
            and all(isinstance(v, str) for v in it.values())
            for it in value
        )
    elif kind is list:
        want = f"a non-empty list drawn from {'|'.join(allowed)}"
        ok = isinstance(value, list) and bool(value) and all(isinstance(v, str) and v in allowed for v in value)
    elif kind is str:
        want = "a string" if allowed is None else f"one of {'|'.join(allowed)}"
        ok = isinstance(value, str) and (allowed is None or value in allowed)
    else:
        want = ("an integer" if kind is int else "a finite number") + ("" if allowed is None else f" in {allowed}")
        ok = (
            isinstance(value, int if kind is int else (int, float))
            and not isinstance(value, bool)
            and not (isinstance(value, float) and not math.isfinite(value))
            and (allowed is None or value in allowed)
        )
    if not ok:
        raise ValueError(f"parameter {name!r} must be {want}, got {value!r}")


def _resolve(chk: dict) -> dict:
    """``chk`` with every parameter checked against its ``CHECKS`` entry
    and each absent one set to its default."""
    spec = CHECKS[chk["check"]]
    for key, value in chk.items():
        if key in spec.params:
            kind, _, allowed = spec.params[key]
            _param(key, value, kind, allowed)
        elif key != "check" and key not in spec.inputs:
            raise ValueError(f"parameter {key!r} is unknown; {chk['check']} takes {sorted(spec.params)}")
    return {**{name: default for name, (_, default, _) in spec.params.items()}, **chk}


# ---------------------------------------------------------------------------
# check adapters: resolved manifest check dict -> findings
# ---------------------------------------------------------------------------

def _degenerate(severity: Severity, subject: str, message: str) -> Finding:
    return Finding("DEGENERATE_DATA", severity, (subject,), {}, message)


def _check_validate(load: Loader, chk: dict) -> list[Finding]:
    """parse a matrix: a fault is named by its row and column"""
    load(chk["matrix"])  # the parse refuses repeated ids, ragged rows and bad cells
    return []


def _check_dup(load: Loader, chk: dict) -> list[Finding]:
    """duplicate-column scan"""
    m: LabeledMatrix = load(chk["matrix"])
    comps = _dup.find_duplicate_columns(m, chk["threshold"], chk["compare_on"], chk["missing_policy"])
    findings = [
        _degenerate(
            Severity.INFO, sid, f"{chk['matrix']}: column {sid!r} is degenerate (zero variance or too much missing data)"
        )
        for sid in comps.degenerate_columns
    ]
    if comps.components:
        subjects = tuple(sid for c in comps.components for sid in c)
        findings.append(
            Finding(
                "DUP_COLUMNS",
                Severity.WARNING,
                subjects,
                {
                    "n_samples": comps.n_samples,
                    "n_distinct": comps.n_distinct,
                    "n_components": len(comps.components),
                },
                f"{chk['matrix']}: only {comps.n_distinct} of {comps.n_samples} samples are "
                f"distinct at correlation >= {chk['threshold']}",
            )
        )
        labels = m.labels or {}
        _, inconsistent = _dup.classify_duplicate_labels(comps, labels)
        for comp, multiset in inconsistent:
            census = ", ".join(f"{lab.value}:{n}" for lab, n in sorted(multiset.items(), key=lambda kv: kv[0].value))
            findings.append(
                Finding(
                    "DUP_INCONSISTENT_LABELS",
                    Severity.CRITICAL,
                    comp,
                    {"component_size": len(comp)},
                    f"{chk['matrix']}: duplicated samples {list(comp)} carry conflicting labels ({census})",
                )
            )
    return findings


def _check_roster(load: Loader, chk: dict) -> list[Finding]:
    """roster duplicate/conflict census"""
    roster = load(chk["roster"])
    n_distinct, duplicated, inconsistent = _dup.roster_duplicates(roster)
    findings = []
    if duplicated:
        findings.append(
            Finding(
                "ROSTER_DUP",
                Severity.WARNING,
                tuple(duplicated),
                {"n_entries": len(roster), "n_distinct": n_distinct, "n_duplicated": len(duplicated)},
                f"{chk['roster']}: {len(roster)} entries but only {n_distinct} distinct ids "
                f"({len(duplicated)} duplicated)",
            )
        )
    if inconsistent:
        findings.append(
            Finding(
                "ROSTER_CONFLICT",
                Severity.CRITICAL,
                tuple(inconsistent),
                {"n_conflicting": len(inconsistent)},
                f"{chk['roster']}: {len(inconsistent)} duplicated ids are labeled both ways",
            )
        )
    return findings


def _check_offset(load: Loader, chk: dict) -> list[Finding]:
    """detect annotation-row offsets"""
    reported = load(chk["reported"])
    generated = load(chk["generated"])
    ann = load(chk["annotation"])
    res = _match.detect_offset(reported, ann, generated, max_shift=chk["max_shift"])
    findings = []
    if res.best_shift != 0:
        findings.append(
            Finding(
                "OFFSET_DETECTED",
                Severity.CRITICAL,
                res.outliers,
                {
                    "best_shift": res.best_shift,
                    "overlap_at_best": res.overlap_at_best,
                    "overlap_at_zero": res.overlap_by_shift.get(0, 0),
                    "n_reported": len(set(reported.feature_ids)),
                },
                f"reported list matches the generated list best at annotation shift "
                f"{res.best_shift:+d} ({res.overlap_at_best} ids vs "
                f"{res.overlap_by_shift.get(0, 0)} at shift 0); unmatched: {list(res.outliers)}",
            )
        )
    if res.foreign_ids:
        findings.append(
            Finding(
                "PLATFORM_MISMATCH",
                Severity.CRITICAL,
                res.foreign_ids,
                {"n_foreign": len(res.foreign_ids)},
                f"{len(res.foreign_ids)} reported ids are not on platform {ann.platform_id!r}: "
                f"{list(res.foreign_ids)}",
            )
        )
    return findings


def _check_platform(load: Loader, chk: dict) -> list[Finding]:
    """signature ids missing from the platform annotation"""
    sig = load(chk["signature"])
    ann = load(chk["annotation"])
    absent = _match.check_platform_membership(sig, ann)
    if not absent:
        return []
    return [
        Finding(
            "PLATFORM_MISMATCH",
            Severity.CRITICAL,
            tuple(absent),
            {"n_absent": len(absent)},
            f"{len(absent)} signature ids are not on platform {ann.platform_id!r}: {absent}",
        )
    ]


def _check_dose(load: Loader, chk: dict) -> list[Finding]:
    """dose-response label sanity checks"""
    records = load(chk["sensitivity"])
    roster = load(chk["labels"])
    labels = _dup.first_claims(roster)
    drug = chk["drug"]
    measure = chk["measure"]
    recs = [
        r
        for r in records
        if (drug is None or r.drug_id == drug) and (measure is None or r.measure.value == measure)
    ]
    if not recs:
        raise ValueError(f"no sensitivity records for drug={drug!r} measure={measure!r}")
    # potencies of two drugs, or two measures, are not on one scale
    for param, kept in (("drug", {r.drug_id for r in recs}), ("measure", {r.measure.value for r in recs})):
        if chk[param] is None and len(kept) > 1:
            named = ", ".join(repr(v) for v in sorted(kept))
            raise ValueError(f"sensitivity input {chk['sensitivity']!r} holds {param}s {named}: name one with {param!r}")
    tests = chk["tests"]
    findings: list[Finding] = []
    subject = drug or "all-drugs"
    if "reversal" in tests:
        rev = _integ.check_reversal(recs, labels, margin=chk["margin"])
        if rev.reversed:
            findings.append(
                Finding(
                    "LABEL_REVERSAL",
                    Severity.CRITICAL,
                    (subject,),
                    {"direction_auc": rev.direction_stat},
                    f"{subject}: sensitive-labeled lines are less potent than resistant-labeled "
                    f"ones (direction AUC {rev.direction_stat:.3f}); labels look reversed",
                )
            )
    if "separation" in tests:
        sep = _integ.check_separation(recs, labels, orientation=chk["orientation"])
        if sep.overlap:
            findings.append(
                Finding(
                    "SEPARATION_OVERLAP",
                    Severity.WARNING,
                    (subject,),
                    {"misfit_count": sep.misfit_count, "best_threshold": sep.best_threshold},
                    f"{subject}: no potency cutoff reproduces the labels "
                    f"(best threshold {sep.best_threshold:g} still misfits {sep.misfit_count})",
                )
            )
    if "flat" in tests:
        flat = _integ.check_flat_response(recs, epsilon=chk["epsilon"])
        if flat.flat:
            findings.append(
                Finding(
                    "FLAT_RESPONSE",
                    Severity.WARNING,
                    (subject,),
                    {"iqr": flat.iqr, "range": flat.value_range},
                    f"{subject}: response is flat across the panel (IQR {flat.iqr:.3g}); "
                    "group selection cannot be potency-driven",
                )
            )
    return findings


#: A confound grouping (the check's ``by``) -> its noun and plural in findings
_CONFOUND_NOUNS = {"batch": ("run batch", "run batches"), "scanner": ("scanner", "scanners")}


def confounding_findings(
    result: _integ.ConfoundingResult, high_v: float = 0.8, prefix: str = "", by: str = "batch"
) -> list[Finding]:
    """Translate a confounding test of treatment arms against the grouping
    ``by`` (a key of ``_CONFOUND_NOUNS``) into report findings whose
    messages start with ``prefix``."""
    noun, nouns = _CONFOUND_NOUNS[by]
    subjects = result.table.col_labels
    metrics = {"cramers_v": result.cramers_v, "n_batches": len(result.table.row_labels)}
    if result.perfect:
        return [
            Finding(
                "CONFOUND_PERFECT",
                Severity.CRITICAL,
                subjects,
                metrics,
                f"{prefix}treatment arms occupy disjoint {nouns}: treatment effect and "
                f"{by} effect are indistinguishable",
            )
        ]
    if result.cramers_v >= high_v:
        return [
            Finding(
                "CONFOUND_HIGH",
                Severity.WARNING,
                subjects,
                metrics,
                f"{prefix}treatment is strongly associated with {noun} (V = {result.cramers_v:.3f})",
            )
        ]
    return []


def _check_confound(load: Loader, chk: dict) -> list[Finding]:
    """run-date batch (or scanner) confounding test"""
    included = [m for m in load(chk["meta"]) if m.included]
    if not included:
        raise ValueError(f"meta input {chk['meta']!r} has no included sample (every row has included=0)")
    [(sid, n)] = Counter(m.sample_id for m in included).most_common(1)
    if n > 1:  # such a sample is batched twice and keeps only its last arm
        raise ValueError(f"meta input {chk['meta']!r} lists sample {sid!r} on {n} included rows")
    treatments = {m.sample_id: m.treatment_arm for m in included}
    by = chk["by"]
    if by == "scanner":
        grouping = {m.sample_id: m.scanner_id for m in included}
    else:
        grouping = _integ.infer_batches(included, gap=timedelta(days=chk["gap_days"]))
    if len(set(grouping.values())) < 2 or len(set(treatments.values())) < 2:
        return []
    result = _integ.test_confounding(grouping, treatments)
    return confounding_findings(result, chk["high_v"], f"{chk['meta']} ({_CONFOUND_NOUNS[by][0]}): ", by)


def _check_blocks(load: Loader, chk: dict) -> list[Finding]:
    """high-correlation block structure among columns"""
    m = load(chk["matrix"])
    threshold = chk["threshold"]
    blocks = _integ.detect_blocks(m, corr_threshold=threshold).components
    if len(blocks) < chk["min_blocks"]:
        return []
    sizes = [len(c) for c in blocks]
    return [
        Finding(
            "BLOCK_STRUCTURE",
            Severity.WARNING,
            tuple(sid for c in blocks for sid in c),
            {"n_blocks": len(blocks), "largest_block": max(sizes)},
            f"{chk['matrix']}: {len(blocks)} high-correlation blocks of sizes {sizes} at threshold {threshold}",
        )
    ]


def _check_reuse(load: Loader, chk: dict) -> list[Finding]:
    """two matrices identical after rounding"""
    a = load(chk["a"])
    b = load(chk["b"])
    digits = chk["digits"]
    if not _dup.matrices_identical(a, b, digits):
        return []
    return [
        Finding(
            "REUSED_ARTIFACT",
            Severity.CRITICAL,
            (chk["a"], chk["b"]),
            {"digits": digits, "n_features": a.n_features, "n_samples": a.n_samples},
            f"matrices {chk['a']!r} and {chk['b']!r} are identical to {digits} decimals: "
            "one of them does not show the data it claims to",
        )
    ]


def _check_directions(load: Loader, chk: dict) -> list[Finding]:
    """genes listed as up in both groups"""
    sig = load(chk["signature"])
    conflicted = _dup.check_signature_directions(sig)
    if not conflicted:
        return []
    return [
        Finding(
            "DIRECTION_CONFLICT",
            Severity.WARNING,
            tuple(conflicted),
            {"n_conflicted": len(conflicted)},
            f"{chk['signature']}: genes listed as up in both groups: {conflicted}",
        )
    ]


def _check_flips(load: Loader, chk: dict) -> list[Finding]:
    sources = []
    for src in chk["sources"]:
        roster = load(src["roster"])
        sources.append((src["source_id"], src["drug_id"], _dup.first_claims(roster)))
    if not sources:
        raise ValueError("flips check needs at least one source")
    report = _dup.compare_labelings(sources)
    findings = []
    for drug, entities in sorted(report.flipped_drugs.items()):
        findings.append(
            Finding(
                "LABELING_FLIP",
                Severity.CRITICAL,
                tuple(entities),
                {"n_entities": len(entities), "n_sources": report.drugs_checked[drug]},
                f"drug {drug!r}: sensitive/resistant labels flip across sources for {entities}",
            )
        )
    return findings


@dataclass(frozen=True)
class Sentinel:
    sample_id: str
    expected: GroupLabel
    reason: str


def sentinel_check(
    labels: Mapping[str, GroupLabel], sentinels: Sequence[Sentinel]
) -> list[Finding]:
    """Check samples whose correct label is known a priori (e.g. a cell
    line selected for resistance must not sit in the sensitive group).

    A present sentinel with a definite conflicting label is Critical; a
    present-but-Unknown or absent sentinel is reported as Info.
    """
    findings: list[Finding] = []
    for s in sentinels:
        why = f" ({s.reason})" if s.reason else ""
        if s.sample_id not in labels:
            severity, text = Severity.INFO, f"sentinel {s.sample_id!r} absent from the labeling{why}"
        elif labels[s.sample_id] == s.expected:
            continue
        elif labels[s.sample_id] == GroupLabel.UNKNOWN:
            severity, text = Severity.INFO, f"sentinel {s.sample_id!r} is unlabeled; expected {s.expected}{why}"
        else:
            severity = Severity.CRITICAL
            text = f"sentinel {s.sample_id!r} labeled {labels[s.sample_id]}, expected {s.expected}{why}"
        findings.append(Finding("SENTINEL_VIOLATION", severity, (s.sample_id,), {}, text))
    return findings


def _check_sentinels(load: Loader, chk: dict) -> list[Finding]:
    """samples whose correct label is known a priori"""
    m = load(chk["matrix"])
    sentinels = []
    for i, s in enumerate(chk["sentinels"]):
        try:
            expected = ingest.normalize_label(s["expected"])
        except ValueError as exc:
            raise ValueError(f"sentinels[{i}].expected: {exc}") from None
        if expected == GroupLabel.UNKNOWN:
            raise ValueError(f"sentinels[{i}].expected: a sentinel needs a definite expected label")
        sentinels.append(Sentinel(s["sample_id"], expected, s.get("reason", "")))
    return sentinel_check(m.labels or {}, sentinels)


_DOSE_TESTS = ("separation", "reversal", "flat")


@dataclass(frozen=True)
class CheckSpec:
    """One manifest check, declared once.

    ``inputs`` maps each input reference to the input kind it must name;
    ``params`` maps each parameter to ``(kind, default, allowed)`` as
    ``_param`` reads them; ``run`` turns the resolved check dict into
    findings, and its docstring is the help of the ``audit`` view.
    ``item_inputs`` maps a list parameter to its objects' input fields and kinds.
    """

    inputs: dict[str, str]
    params: dict[str, tuple]
    run: Callable[[Loader, dict], list[Finding]]
    item_inputs: dict[str, dict[str, str]] = field(default_factory=dict)


#: Every manifest check: ``load_manifest`` checks input references against
#: it, ``run_audit`` resolves parameters and ``cli`` its views through it,
#: and ``data/manifest_schema.json`` restates it.
CHECKS: dict[str, CheckSpec] = {
    "validate": CheckSpec({"matrix": "matrix"}, {}, _check_validate),
    "dup": CheckSpec(
        {"matrix": "matrix"},
        {
            "threshold": (float, 0.9999, Bounds(0, 1, lo_open=True)),
            "compare_on": (str, "raw", ("raw", "log")),
            "missing_policy": (str, "pairwise_complete", ("pairwise_complete", "fail")),
        },
        _check_dup,
    ),
    "roster": CheckSpec({"roster": "roster"}, {}, _check_roster),
    "offset": CheckSpec(
        {"reported": "signature", "generated": "signature", "annotation": "annotation"},
        {"max_shift": (int, 3, Bounds(0))},
        _check_offset,
    ),
    "platform": CheckSpec({"signature": "signature", "annotation": "annotation"}, {}, _check_platform),
    "dose": CheckSpec(
        {"sensitivity": "sensitivity", "labels": "roster"},
        {
            "drug": (str, None, None),
            "measure": (str, None, tuple(m.value for m in Measure)),
            "tests": (list, _DOSE_TESTS, _DOSE_TESTS),
            "margin": (float, 0.2, Bounds(0, 0.5)),
            "epsilon": (float, 0.2, Bounds(0, lo_open=True)),
            "orientation": (str, "sensitive_high", ("sensitive_high", "sensitive_low", "auto")),
        },
        _check_dose,
    ),
    "confound": CheckSpec(
        {"meta": "meta"},
        {
            "by": (str, "batch", ("batch", "scanner")),
            "gap_days": (float, 7, Bounds(0, lo_open=True)),
            "high_v": (float, 0.8, Bounds(0, 1, lo_open=True)),
        },
        _check_confound,
    ),
    "blocks": CheckSpec(
        {"matrix": "matrix"},
        {"threshold": (float, 0.8, Bounds(0, 1, lo_open=True)), "min_blocks": (int, 2, Bounds(1))},
        _check_blocks,
    ),
    "reuse": CheckSpec({"a": "matrix", "b": "matrix"}, {"digits": (int, 2, Bounds(0))}, _check_reuse),
    "directions": CheckSpec({"signature": "signature"}, {}, _check_directions),
    "flips": CheckSpec(
        {},
        {"sources": (list, (), {"roster": "required", "source_id": "required", "drug_id": "required"})},
        _check_flips,
        item_inputs={"sources": {"roster": "roster"}},
    ),
    "sentinels": CheckSpec(
        {"matrix": "matrix"},
        {"sentinels": (list, (), {"sample_id": "required", "expected": "required", "reason": "optional"})},
        _check_sentinels,
    ),
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _load_input(path: Path, parse: Optional[Callable[[str], object]]) -> tuple[str, object]:
    """One read of an input: the SHA-256 of its bytes and, unless ``parse``
    is None, the value ``parse`` makes of the same bytes (decoded as
    ``Path.read_text`` decodes a file: UTF-8, universal newlines) or the
    error parsing raised. An OSError from the read propagates."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if parse is None:
        return digest, None
    try:
        text = data.decode("utf-8")
        del data  # only the text is kept while it is parsed
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return digest, parse(text)
    except _INPUT_ERRORS as exc:
        return digest, exc


def _input_value(name: str, path, value):
    """``value``, unless it is the error reading or parsing input ``name``
    raised: that is raised again in the one wording of an input fault."""
    if isinstance(value, Exception):
        raise ValueError(f"input {name!r} ({path}): {value}")
    return value


def read_input(name: str, path: str, parse: Callable[[str], object]):
    """The value ``parse`` makes of the file at ``path``, read as a manifest
    input is; a fault reading or parsing it raises ValueError naming the
    input ``name`` and the path, as a check names its input."""
    try:
        _, value = _load_input(Path(path), parse)
    except OSError as exc:
        value = exc
    return _input_value(name, path, value)


def report_to_json(report: FindingsReport) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "input_digests": dict(report.input_digests),
        "findings": [
            {
                "code": f.code,
                "severity": f.severity.value,
                "subjects": list(f.subjects),
                "metrics": dict(f.metrics),
                "message": f.message,
            }
            for f in report.findings
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def run_audit(manifest: AuditManifest | str | Path) -> tuple[FindingsReport, int]:
    """Run every manifest check in order; returns the report and the exit
    code (0 clean, 2 findings above Info, 1 execution error).

    Unreadable or unparseable inputs become DEGENERATE_DATA findings and
    force exit code 1; remaining checks still run so the report is as
    complete as the inputs allow. The JSON report is also written to the
    manifest's output path when one is declared.
    """
    if not isinstance(manifest, AuditManifest):
        manifest = load_manifest(manifest)
    findings: list[Finding] = []
    digests: dict[str, str] = {}
    had_error = False
    used = {ref for chk in manifest.checks for _, ref, _ in _input_refs(chk)}
    values: dict[str, object] = {}  # parsed input, or the error reading or parsing it raised
    for name, decl in manifest.inputs.items():
        try:
            digests[decl.path], values[name] = _load_input(manifest.resolve(decl), decl.parse if name in used else None)
        except OSError as exc:
            had_error = True
            findings.append(_degenerate(Severity.WARNING, name, f"input {name!r} ({decl.path}) is unreadable: {exc}"))
            values[name] = exc

    def load(name: str):
        return _input_value(name, manifest.inputs[name].path, values[name])

    for chk in manifest.checks:
        try:
            new = CHECKS[chk["check"]].run(load, _resolve(chk))
        except _INPUT_ERRORS as exc:
            had_error = True
            findings.append(_degenerate(Severity.WARNING, chk["check"], f"check {chk['check']!r} could not run: {exc}"))
            continue
        for f in new:
            if f.code not in FINDING_CODES:
                raise RuntimeError(f"internal error: unregistered finding code {f.code!r}")
        findings.extend(new)
    report = FindingsReport(tuple(findings), __version__, digests)
    if had_error:
        code = 1
    elif any(f.severity != Severity.INFO for f in findings):
        code = 2
    else:
        code = 0
    if manifest.output:
        _output(report_to_json(report), manifest.base_dir / manifest.output)
    return report, code


def _output(text: str, path: Optional[str | Path], what: str = "") -> None:
    """The one writer of the tool's files: ``text`` as UTF-8 with LF line
    ends to ``path``, then "<what> written to PATH" when ``what`` is given;
    without a path, ``text`` goes to stdout."""
    if not path:
        sys.stdout.write(text)
        return
    Path(path).write_text(text, encoding="utf-8", newline="\n")
    if what:
        print(f"{what} written to {path}")
