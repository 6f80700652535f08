"""Audit orchestration and the command-line interface.

A manifest declares named inputs (with their kinds) and an ordered list of
checks; ``run_audit`` executes every check and emits a canonical JSON
findings report (sorted keys, LF, UTF-8, no timestamps) so that repeated
runs over identical inputs are byte-identical. Exit codes triage for CI:
0 = nothing above Info, 2 = findings present, 1 = execution error.

Every finding code is drawn from the closed registry below; ``explain``
documents the failure mode behind each code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .core import (
    Finding,
    FindingsReport,
    GroupLabel,
    LabeledMatrix,
    PlatformMismatchError,
    Severity,
    extract_submatrix,
    validate,
)
from . import dupscan as _dup
from . import ingest
from . import integrity as _integ
from . import matchscan as _match
from . import signature as _sig
from .groupsearch import Assignment, steepest_ascent
from .transform import apply_pipeline, parse_pipeline_spec

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
        "Treatment arms occupy disjoint run batches: processing effects and "
        "treatment effects are mathematically indistinguishable, and any "
        "classifier may be learning the batch."
    ),
    "CONFOUND_HIGH": (
        "Treatment arm is strongly (but not perfectly) associated with run "
        "batch; batch effects will leak into any treatment comparison."
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


_INPUT_KINDS = ("matrix", "roster", "signature", "annotation", "sensitivity", "meta")
_CHECK_NAMES = (
    "validate",
    "dup",
    "roster",
    "offset",
    "platform",
    "dose",
    "confound",
    "blocks",
    "reuse",
    "directions",
    "flips",
    "sentinels",
)

#: check name -> {param: required input kind}
_CHECK_INPUTS: dict[str, dict[str, str]] = {
    "validate": {"matrix": "matrix"},
    "dup": {"matrix": "matrix"},
    "roster": {"roster": "roster"},
    "offset": {"reported": "signature", "generated": "signature", "annotation": "annotation"},
    "platform": {"signature": "signature", "annotation": "annotation"},
    "dose": {"sensitivity": "sensitivity", "labels": "roster"},
    "confound": {"meta": "meta"},
    "blocks": {"matrix": "matrix"},
    "reuse": {"a": "matrix", "b": "matrix"},
    "directions": {"signature": "signature"},
    "flips": {},
    "sentinels": {"matrix": "matrix"},
}


@dataclass(frozen=True)
class InputDecl:
    name: str
    path: str
    kind: str
    format: Optional[dict] = None


@dataclass(frozen=True)
class AuditManifest:
    inputs: dict[str, InputDecl]
    checks: tuple[dict, ...]
    output: Optional[str]
    base_dir: Path = field(default_factory=Path)

    def resolve(self, decl: InputDecl) -> Path:
        return self.base_dir / decl.path


def _validate_manifest(doc: dict, base_dir: Path) -> AuditManifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    inputs_doc = doc.get("inputs")
    checks_doc = doc.get("checks")
    if not isinstance(inputs_doc, dict) or not isinstance(checks_doc, list):
        raise ManifestError("manifest needs an 'inputs' object and a 'checks' array")
    inputs: dict[str, InputDecl] = {}
    for name, spec in inputs_doc.items():
        if not isinstance(spec, dict) or "path" not in spec or "kind" not in spec:
            raise ManifestError(f"input {name!r} needs 'path' and 'kind'")
        if spec["kind"] not in _INPUT_KINDS:
            raise ManifestError(f"input {name!r} has unknown kind {spec['kind']!r}")
        inputs[name] = InputDecl(name, spec["path"], spec["kind"], spec.get("format"))
    checks = []
    for i, chk in enumerate(checks_doc):
        if not isinstance(chk, dict) or "check" not in chk:
            raise ManifestError(f"check #{i + 1} is missing its 'check' name")
        name = chk["check"]
        if name not in _CHECK_NAMES:
            raise ManifestError(f"check #{i + 1}: unknown check {name!r}")
        for param, kind in _CHECK_INPUTS[name].items():
            ref = chk.get(param)
            if ref is None:
                raise ManifestError(f"check #{i + 1} ({name}): missing input reference {param!r}")
            if ref not in inputs:
                raise ManifestError(f"check #{i + 1} ({name}): undeclared input {ref!r}")
            if inputs[ref].kind != kind:
                raise ManifestError(
                    f"check #{i + 1} ({name}): input {ref!r} has kind "
                    f"{inputs[ref].kind!r}, needs {kind!r}"
                )
        if name == "flips":
            for src in chk.get("sources", []):
                ref = src.get("roster")
                if ref not in inputs or inputs[ref].kind != "roster":
                    raise ManifestError(
                        f"check #{i + 1} (flips): source roster {ref!r} is not a declared roster input"
                    )
        checks.append(dict(chk))
    return AuditManifest(inputs, tuple(checks), doc.get("output"), base_dir)


def load_manifest(path: str | Path) -> AuditManifest:
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot load manifest {p}: {exc}") from exc
    return _validate_manifest(doc, p.parent)


class _InputLoader:
    """Lazy, caching loader for declared inputs."""

    def __init__(self, manifest: AuditManifest):
        self.manifest = manifest
        self._cache: dict[str, object] = {}

    def load(self, name: str):
        if name in self._cache:
            return self._cache[name]
        decl = self.manifest.inputs[name]
        text = self.manifest.resolve(decl).read_text(encoding="utf-8")
        if decl.kind == "matrix":
            fmt_doc = decl.format or {}
            fmt = ingest.MatrixFormat(
                delimiter=fmt_doc.get("delimiter", "tab"),
                has_label_row=fmt_doc.get("has_label_row", True),
                label_row_key=fmt_doc.get("label_row_key", "label"),
                missing_token=fmt_doc.get("missing_token", "NA"),
            )
            value = ingest.parse_matrix(text, fmt)
        elif decl.kind == "roster":
            value = ingest.parse_roster(text)
        elif decl.kind == "signature":
            value = ingest.parse_signature(text)
        elif decl.kind == "annotation":
            value = ingest.parse_annotation(text)
        elif decl.kind == "sensitivity":
            value = ingest.parse_sensitivity(text)
        else:
            value = ingest.parse_sample_meta(text)
        self._cache[name] = value
        return value


def _strict_roster_labeling(roster) -> dict[str, GroupLabel]:
    """First claim per id wins; internal conflicts are the roster check's
    business, not this adapter's."""
    out: dict[str, GroupLabel] = {}
    for e in roster.entries:
        out.setdefault(e.sample_id, e.label)
    return out


# ---------------------------------------------------------------------------
# check adapters: manifest check dict -> findings
# ---------------------------------------------------------------------------

#: The types a manifest may give each numeric check parameter. A bool is
#: never a number here, though Python counts it as an int.
_NUMERIC_PARAMS = {
    "threshold": (int, float),
    "max_shift": (int,),
    "gap_days": (int, float),
    "margin": (int, float),
    "epsilon": (int, float),
    "high_v": (int, float),
    "min_blocks": (int,),
    "digits": (int,),
}


def _numeric_param(chk: dict, name: str, default):
    """``chk[name]``, or ``default`` when absent, checked against
    ``_NUMERIC_PARAMS``. A wrong type raises ValueError, which ``run_audit``
    reports as a DEGENERATE_DATA finding for the check."""
    value = chk.get(name, default)
    kinds = _NUMERIC_PARAMS[name]
    if isinstance(value, bool) or not isinstance(value, kinds) or not math.isfinite(value):
        want = "an integer" if kinds == (int,) else "a finite number"
        raise ValueError(f"parameter {name!r} must be {want}, got {value!r}")
    return value


def _check_validate(loader: _InputLoader, chk: dict) -> list[Finding]:
    m: LabeledMatrix = loader.load(chk["matrix"])
    out = []
    for v in validate(m):
        out.append(
            Finding(
                "DEGENERATE_DATA",
                Severity.WARNING,
                (v.subject,),
                {},
                f"{chk['matrix']}: invalid {v.field}: {v.message}",
            )
        )
    return out


def _check_dup(loader: _InputLoader, chk: dict) -> list[Finding]:
    m: LabeledMatrix = loader.load(chk["matrix"])
    cfg = _dup.DupScanConfig(
        corr_threshold=_numeric_param(chk, "threshold", 0.9999),
        compare_on=chk.get("compare_on", "raw"),
        missing_policy=chk.get("missing_policy", "pairwise_complete"),
    )
    comps = _dup.find_duplicate_columns(m, cfg)
    findings: list[Finding] = []
    for sid in comps.degenerate_columns:
        findings.append(
            Finding(
                "DEGENERATE_DATA",
                Severity.INFO,
                (sid,),
                {},
                f"{chk['matrix']}: column {sid!r} is degenerate (zero variance or too much missing data)",
            )
        )
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
                f"distinct at correlation >= {cfg.corr_threshold}",
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


def _check_roster(loader: _InputLoader, chk: dict) -> list[Finding]:
    roster = loader.load(chk["roster"])
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


def _check_offset(loader: _InputLoader, chk: dict) -> list[Finding]:
    reported = loader.load(chk["reported"])
    generated = loader.load(chk["generated"])
    ann = loader.load(chk["annotation"])
    res = _match.detect_offset(reported, ann, generated, max_shift=_numeric_param(chk, "max_shift", 3))
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


def _check_platform(loader: _InputLoader, chk: dict) -> list[Finding]:
    sig = loader.load(chk["signature"])
    ann = loader.load(chk["annotation"])
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


def _check_dose(loader: _InputLoader, chk: dict) -> list[Finding]:
    records = loader.load(chk["sensitivity"])
    roster = loader.load(chk["labels"])
    labels = _strict_roster_labeling(roster)
    drug = chk.get("drug")
    measure = chk.get("measure")
    recs = [
        r
        for r in records
        if (drug is None or r.drug_id == drug) and (measure is None or r.measure.value == measure)
    ]
    if not recs:
        raise ValueError(f"no sensitivity records for drug={drug!r} measure={measure!r}")
    tests = chk.get("tests", ["separation", "reversal", "flat"])
    findings: list[Finding] = []
    subject = drug or "all-drugs"
    if "reversal" in tests:
        rev = _integ.check_reversal(recs, labels, margin=_numeric_param(chk, "margin", 0.2))
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
        sep = _integ.check_separation(recs, labels, orientation=chk.get("orientation", "sensitive_high"))
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
        flat = _integ.check_flat_response(recs, epsilon=_numeric_param(chk, "epsilon", 0.2))
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


def _check_confound(loader: _InputLoader, chk: dict) -> list[Finding]:
    metas = loader.load(chk["meta"])
    included = [m for m in metas if m.included] or list(metas)
    treatments = {m.sample_id: m.treatment_arm for m in included}
    if chk.get("by", "batch") == "scanner":
        grouping = {m.sample_id: m.scanner_id for m in included}
        label = "scanner"
    else:
        grouping = _integ.infer_batches(included, gap=timedelta(days=_numeric_param(chk, "gap_days", 7)))
        label = "run batch"
    if len(set(grouping.values())) < 2 or len(set(treatments.values())) < 2:
        return []
    result = _integ.test_confounding(grouping, treatments)
    findings = _integ.confounding_findings(result, high_v=_numeric_param(chk, "high_v", 0.8))
    out = []
    for f in findings:
        out.append(
            Finding(
                f.code,
                f.severity,
                f.subjects,
                f.metrics,
                f"{chk['meta']} ({label}): {f.message}",
            )
        )
    return out


def _check_blocks(loader: _InputLoader, chk: dict) -> list[Finding]:
    m = loader.load(chk["matrix"])
    threshold = _numeric_param(chk, "threshold", 0.8)
    report = _integ.detect_blocks(m, corr_threshold=threshold)
    if len(report.components) < _numeric_param(chk, "min_blocks", 2):
        return []
    return [
        Finding(
            "BLOCK_STRUCTURE",
            Severity.WARNING,
            tuple(sid for c in report.components for sid in c),
            {"n_blocks": len(report.components), "largest_block": max(report.sizes)},
            f"{chk['matrix']}: {len(report.components)} high-correlation blocks of sizes "
            f"{list(report.sizes)} at threshold {threshold}",
        )
    ]


def _check_reuse(loader: _InputLoader, chk: dict) -> list[Finding]:
    a = loader.load(chk["a"])
    b = loader.load(chk["b"])
    digits = _numeric_param(chk, "digits", 2)
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


def _check_directions(loader: _InputLoader, chk: dict) -> list[Finding]:
    sig = loader.load(chk["signature"])
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


def _check_flips(loader: _InputLoader, chk: dict) -> list[Finding]:
    sources = []
    for src in chk.get("sources", []):
        roster = loader.load(src["roster"])
        sources.append((src["source_id"], src["drug_id"], _strict_roster_labeling(roster)))
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


def _check_sentinels(loader: _InputLoader, chk: dict) -> list[Finding]:
    m = loader.load(chk["matrix"])
    sentinels = []
    for s in chk.get("sentinels", []):
        sentinels.append(
            _integ.Sentinel(s["sample_id"], GroupLabel(s["expected"]), s.get("reason", ""))
        )
    labels = m.labels or {}
    return _integ.sentinel_check(labels, sentinels)


_CHECK_RUNNERS = {
    "validate": _check_validate,
    "dup": _check_dup,
    "roster": _check_roster,
    "offset": _check_offset,
    "platform": _check_platform,
    "dose": _check_dose,
    "confound": _check_confound,
    "blocks": _check_blocks,
    "reuse": _check_reuse,
    "directions": _check_directions,
    "flips": _check_flips,
    "sentinels": _check_sentinels,
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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


def summarize_report(report: FindingsReport, exit_code: int) -> str:
    lines = [f"arrayaudit {report.tool_version} - {len(report.findings)} finding(s)"]
    counts: dict[str, int] = {}
    for f in report.findings:
        counts[f.severity.value] = counts.get(f.severity.value, 0) + 1
    if counts:
        lines.append("  " + ", ".join(f"{sev}: {n}" for sev, n in sorted(counts.items())))
    for f in report.findings:
        lines.append(f"  [{f.severity.value:>8}] {f.code}: {f.message}")
    lines.append(f"exit code: {exit_code}")
    return "\n".join(lines)


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
    for name, decl in manifest.inputs.items():
        path = manifest.resolve(decl)
        try:
            digests[decl.path] = _sha256_file(path)
        except OSError as exc:
            had_error = True
            findings.append(
                Finding(
                    "DEGENERATE_DATA",
                    Severity.WARNING,
                    (name,),
                    {},
                    f"input {name!r} ({decl.path}) is unreadable: {exc}",
                )
            )
    loader = _InputLoader(manifest)
    for chk in manifest.checks:
        runner = _CHECK_RUNNERS[chk["check"]]
        try:
            new = runner(loader, chk)
        except (OSError, ValueError, KeyError, PlatformMismatchError) as exc:
            had_error = True
            findings.append(
                Finding(
                    "DEGENERATE_DATA",
                    Severity.WARNING,
                    (chk["check"],),
                    {},
                    f"check {chk['check']!r} could not run: {exc}",
                )
            )
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
        out_path = manifest.base_dir / manifest.output
        out_path.write_text(report_to_json(report), encoding="utf-8", newline="\n")
    return report, code


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_matrix(path: str, delimiter: str = "tab") -> LabeledMatrix:
    return ingest.parse_matrix(_read(path), ingest.MatrixFormat(delimiter=delimiter))


def _parse_scores_csv(path: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for i, line in enumerate(_read(path).replace("\r\n", "\n").split("\n")):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if i == 0 and cells[0].lower() in ("sample_id", "id"):
            continue
        out[cells[0]] = float(cells[1])
    return out


def _parse_binary_labels_csv(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for i, line in enumerate(_read(path).replace("\r\n", "\n").split("\n")):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if i == 0 and cells[0].lower() in ("sample_id", "id"):
            continue
        tok = cells[1]
        if tok in ("0", "1"):
            out[cells[0]] = int(tok)
        else:
            lab = ingest.normalize_label(tok)
            if lab == GroupLabel.SENSITIVE:
                out[cells[0]] = 1
            elif lab == GroupLabel.RESISTANT:
                out[cells[0]] = 0
            else:
                raise ValueError(f"label {tok!r} for {cells[0]!r} is neither binary nor Sensitive/Resistant")
    return out


def _parse_assignment_csv(path: str) -> Assignment:
    state: dict[str, GroupLabel] = {}
    for i, line in enumerate(_read(path).replace("\r\n", "\n").split("\n")):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if i == 0 and cells[0].lower() in ("cell_line", "sample_id", "id"):
            continue
        state[cells[0]] = ingest.normalize_label(cells[1])
    return Assignment(state)


def _cmd_audit_dup(args) -> int:
    m = _load_matrix(args.matrix, args.delimiter)
    cfg = _dup.DupScanConfig(corr_threshold=args.threshold, compare_on="log" if args.log else "raw")
    comps = _dup.find_duplicate_columns(m, cfg)
    print(f"{m.n_samples} samples, {comps.n_distinct} distinct at correlation >= {cfg.corr_threshold}")
    print(f"multiplicity histogram: {dict(sorted(comps.multiplicity_histogram.items()))}")
    _, inconsistent = _dup.classify_duplicate_labels(comps, m.labels or {})
    for comp in comps.components:
        labs = [m.label_of(s).value for s in comp]
        tag = "INCONSISTENT" if any(comp == c for c, _ in inconsistent) else "consistent"
        print(f"  {tag}: {list(comp)} labels={labs}")
    for sid in comps.degenerate_columns:
        print(f"  degenerate column: {sid}")
    return 2 if comps.components else 0


def _cmd_audit_roster(args) -> int:
    roster = ingest.parse_roster(_read(args.roster))
    n_distinct, duplicated, inconsistent = _dup.roster_duplicates(roster)
    print(f"{len(roster)} entries, {n_distinct} distinct ids")
    print(f"duplicated ({len(duplicated)}): {duplicated}")
    print(f"labeled both ways ({len(inconsistent)}): {inconsistent}")
    return 2 if duplicated else 0


def _cmd_audit_crosstab(args) -> int:
    roster_a = ingest.parse_roster(_read(args.a))
    roster_b = ingest.parse_roster(_read(args.b))
    a = _dup.roster_labeling(roster_a)
    b_strict = _strict_roster_labeling(roster_b)
    b = {sid: lab.value for sid, lab in b_strict.items()}
    table = _dup.cross_tabulate(a, b)
    print(table.as_text())
    return 0


def _cmd_audit_offset(args) -> int:
    reported = ingest.parse_signature(_read(args.reported))
    generated = ingest.parse_signature(_read(args.generated))
    ann = ingest.parse_annotation(_read(args.annotation))
    res = _match.detect_offset(reported, ann, generated, max_shift=args.max_shift)
    print(f"overlap by shift: {res.overlap_by_shift}")
    print(f"best shift {res.best_shift:+d} with overlap {res.overlap_at_best}")
    if res.outliers:
        print(f"unmatched at best shift: {list(res.outliers)}")
    if res.foreign_ids:
        print(f"not on platform {ann.platform_id}: {list(res.foreign_ids)}")
    return 2 if res.best_shift != 0 else 0


def _cmd_audit_dose(args) -> int:
    records = ingest.parse_sensitivity(_read(args.records))
    roster = ingest.parse_roster(_read(args.labels))
    labels = _strict_roster_labeling(roster)
    recs = [r for r in records if r.drug_id == args.drug and r.measure.value == args.measure]
    if not recs:
        print(f"no records for drug={args.drug} measure={args.measure}", file=sys.stderr)
        return 1
    bad = False
    rev = _integ.check_reversal(recs, labels, margin=args.margin)
    print(f"direction AUC (sensitive high): {rev.direction_stat:.4f} -> {rev.verdict}")
    bad = bad or rev.reversed
    sep = _integ.check_separation(recs, labels)
    print(
        f"best threshold {sep.best_threshold:g}: {sep.misfit_count} misfits "
        f"({'groups overlap' if sep.overlap else 'clean split'})"
    )
    bad = bad or sep.overlap
    if len(recs) >= 5:
        flat = _integ.check_flat_response(recs, epsilon=args.epsilon)
        print(f"range {flat.value_range:.3g}, IQR {flat.iqr:.3g}{' -> FLAT' if flat.flat else ''}")
        bad = bad or flat.flat
    return 2 if bad else 0


def _cmd_audit_confound(args) -> int:
    metas = ingest.parse_sample_meta(_read(args.meta))
    included = [m for m in metas if m.included] or metas
    batches = _integ.infer_batches(included, gap=timedelta(days=args.gap_days))
    treatments = {m.sample_id: m.treatment_arm for m in included}
    n_batches = len(set(batches.values()))
    print(f"{len(included)} samples in {n_batches} run batch(es)")
    if n_batches < 2 or len(set(treatments.values())) < 2:
        print("confounding not assessable (need >= 2 batches and >= 2 treatments)")
        return 0
    result = _integ.test_confounding(batches, treatments)
    print(result.table.as_text())
    print(f"Cramer's V = {result.cramers_v:.4f}, perfect confounding: {result.perfect}")
    return 2 if result.perfect or result.cramers_v >= 0.8 else 0


def _cmd_match(args, by_rows: bool) -> int:
    query = _load_matrix(args.query, args.delimiter)
    reference = _load_matrix(args.reference, args.delimiter)
    if args.pipeline:
        reference = apply_pipeline(reference, parse_pipeline_spec(args.pipeline))
    fn = _match.match_rows if by_rows else _match.match_columns
    res = fn(query, reference, min_corr=args.min_corr)
    print(
        f"matched {res.n_matched}, unmatched {res.n_unmatched}, "
        f"ambiguous {res.n_ambiguous}, degenerate {len(res.degenerate)}"
    )
    if args.out:
        lines = ["query_id,reference_id"]
        for qid, rid in res.mapping.items():
            lines.append(f"{qid},{rid or ''}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"mapping written to {args.out}")
    else:
        for qid, rid in res.mapping.items():
            suffix = rid if rid else ("AMBIGUOUS " + str(list(res.ambiguous.get(qid, ()))) if qid in res.ambiguous else "-")
            print(f"  {qid} -> {suffix}")
    return 0 if res.n_unmatched == 0 and res.n_ambiguous == 0 else 2


def _cmd_search_groups(args) -> int:
    panel = _load_matrix(args.panel, args.delimiter)
    target = ingest.parse_signature(_read(args.target))
    start = _parse_assignment_csv(args.start)
    result = steepest_ascent(start, panel, target, args.k)
    print(f"start score: {result.start_score}")
    for mv in result.trajectory:
        print(f"  {mv.line} -> {mv.new_state.value}: score {mv.score}")
    final_score = result.trajectory[-1].score if result.trajectory else result.start_score
    print(f"final score: {final_score} after {len(result.trajectory)} move(s)")
    if result.budget_exceeded:
        print("move budget exceeded; trajectory is partial", file=sys.stderr)
    if args.trace:
        doc = {
            "start_score": result.start_score,
            "trajectory": [
                {"line": mv.line, "state": mv.new_state.value, "score": mv.score}
                for mv in result.trajectory
            ],
            "final": {line: lab.value for line, lab in sorted(result.final.state.items())},
            "neighbors_per_step": list(result.neighbors_per_step),
            "budget_exceeded": result.budget_exceeded,
        }
        Path(args.trace).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"trace written to {args.trace}")
    return 0


def _cmd_signature_derive(args) -> int:
    m = _load_matrix(args.matrix, args.delimiter)
    sig = _sig.select_top_genes(m, args.k)
    text = ingest.serialize_signature(sig)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"signature ({len(sig)} genes) written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_signature_predict(args) -> int:
    train = _load_matrix(args.train, args.delimiter)
    test = _load_matrix(args.test, args.delimiter)
    sig = _sig.select_top_genes(train, args.k)
    shared = [fid for fid in sig.feature_ids if fid in set(test.feature_ids)]
    if not shared:
        print("signature and test matrix share no features", file=sys.stderr)
        return 1
    from .core import SignatureList

    sig_shared = SignatureList(tuple(shared))
    train_sub, _ = extract_submatrix(train, sig_shared)
    test_sub, _ = extract_submatrix(test, sig_shared)
    train_scores = _sig.metagene_scores(train_sub)
    # recover the feature-space direction from the scores (scores = sigma * v)
    xc = train_sub.values - train_sub.values.mean(axis=1, keepdims=True)
    u = xc @ train_scores
    u /= np.linalg.norm(u)
    test_centered = test_sub.values - train_sub.values.mean(axis=1, keepdims=True)
    test_scores = test_centered.T @ u
    y = []
    for sid in train_sub.sample_ids:
        lab = train_sub.label_of(sid)
        if lab == GroupLabel.SENSITIVE:
            y.append(1)
        elif lab == GroupLabel.RESISTANT:
            y.append(0)
        else:
            y.append(-1)
    keep = [i for i, v in enumerate(y) if v >= 0]
    model = _sig.fit_probit(train_scores[keep], np.array(y)[keep])
    if model.converged:
        probs = _sig.predict_prob(model, test_scores)
    else:
        thr = model.separation_threshold
        if thr is None:
            print("probit fit failed and no separating threshold exists", file=sys.stderr)
            return 1
        probs = (test_scores >= thr).astype(float)
        print("warning: perfect separation; emitting hard 0/1 calls", file=sys.stderr)
    lines = ["sample_id,metagene_score,p_sensitive"]
    for sid, sc, pr in zip(test_sub.sample_ids, test_scores, probs):
        lines.append(f"{sid},{format(float(sc), '.17g')},{format(float(pr), '.17g')}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(test_sub.sample_ids)} predictions written to {args.out}")
    return 0


def _cmd_roc(args) -> int:
    scores = _parse_scores_csv(args.scores)
    labels = _parse_binary_labels_csv(args.labels)
    shared = [sid for sid in scores if sid in labels]
    if not shared:
        print("scores and labels share no sample ids", file=sys.stderr)
        return 1
    s = np.array([scores[sid] for sid in shared])
    y = np.array([labels[sid] for sid in shared])
    value = _sig.auc(s, y)
    print(f"n = {len(shared)}, AUC = {value:.6f}")
    if args.out:
        pts = _sig.roc_curve(s, y)
        lines = ["fpr,tpr"] + [f"{x:.10g},{ypt:.10g}" for x, ypt in pts]
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"curve written to {args.out}")
    return 0


def _cmd_combo(args) -> int:
    rule = _integ.COMBINATION_RULES[args.rule]
    raw_rows: list[tuple[str, float]] = []
    header: list[str] = []
    for i, line in enumerate(_read(args.inputs).replace("\r\n", "\n").split("\n")):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if i == 0:
            header = cells
            missing = [k for k in rule.drug_keys if k not in header[1:]]
            if missing:
                print(f"input file is missing drug column(s) {missing}", file=sys.stderr)
                return 1
            continue
        inputs = {k: float(v) for k, v in zip(header[1:], cells[1:])}
        raw_rows.append((cells[0], _integ.raw_combination_score(inputs, rule)))
    if not raw_rows:
        print("no input rows", file=sys.stderr)
        return 1
    values = [v for _, v in raw_rows]
    normalized = _integ.renormalize_batch(values, rule) if args.batch_normalize else None
    lines = ["sample_id,raw" + (",normalized" if normalized else "")]
    for idx, (sid, raw) in enumerate(raw_rows):
        row = f"{sid},{format(raw, '.17g')}"
        if normalized is not None:
            row += f",{format(normalized[idx], '.17g')}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{len(raw_rows)} combination scores written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report_run(args) -> int:
    try:
        report, code = run_audit(args.manifest)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 1
    print(summarize_report(report, code))
    return code


def _cmd_explain(args) -> int:
    try:
        text = explain(args.code)
    except KeyError:
        print(f"unknown finding code {args.code!r}; known codes:", file=sys.stderr)
        for code in FINDING_CODES:
            print(f"  {code}", file=sys.stderr)
        return 1
    print(f"{args.code}: {text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrayaudit",
        description="Forensic audits for labeled high-throughput data matrices.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"arrayaudit {__version__} (report schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="single-input audits").add_subparsers(
        dest="audit_command", required=True
    )

    p = audit.add_parser("dup", help="duplicate-column scan")
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float, default=0.9999)
    p.add_argument("--log", action="store_true", help="correlate log values")
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.set_defaults(fn=_cmd_audit_dup)

    p = audit.add_parser("roster", help="roster duplicate/conflict census")
    p.add_argument("--roster", required=True)
    p.set_defaults(fn=_cmd_audit_roster)

    p = audit.add_parser("crosstab", help="cross-tabulate two labelings")
    p.add_argument("--a", required=True, help="roster for the row axis (conflicts become Both)")
    p.add_argument("--b", required=True, help="roster for the column axis")
    p.set_defaults(fn=_cmd_audit_crosstab)

    p = audit.add_parser("offset", help="detect annotation-row offsets")
    p.add_argument("--reported", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--annotation", required=True)
    p.add_argument("--max-shift", type=int, default=3)
    p.set_defaults(fn=_cmd_audit_offset)

    p = audit.add_parser("dose", help="dose-response label sanity checks")
    p.add_argument("--records", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--drug", required=True)
    p.add_argument("--measure", choices=("GI50", "TGI", "LC50"), required=True)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.set_defaults(fn=_cmd_audit_dose)

    p = audit.add_parser("confound", help="run-date batch confounding test")
    p.add_argument("--meta", required=True)
    p.add_argument("--gap-days", type=float, default=7.0)
    p.set_defaults(fn=_cmd_audit_confound)

    match = sub.add_parser("match", help="brute-force correlation matching").add_subparsers(
        dest="match_command", required=True
    )
    for name, by_rows in (("rows", True), ("columns", False)):
        p = match.add_parser(name)
        p.add_argument("--query", required=True)
        p.add_argument("--reference", required=True)
        p.add_argument("--pipeline", help="transform reference first, e.g. log:e|zscore:n-1|exp:e|round:2")
        p.add_argument("--min-corr", type=float, default=0.9999)
        p.add_argument("--out")
        p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
        p.set_defaults(fn=lambda args, rows=by_rows: _cmd_match(args, rows))

    search = sub.add_parser("search", help="assignment search").add_subparsers(
        dest="search_command", required=True
    )
    p = search.add_parser("groups", help="steepest-ascent over line assignments")
    p.add_argument("--panel", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--start", required=True, help="CSV cell_line,state")
    p.add_argument("--trace", help="write trajectory JSON here")
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.set_defaults(fn=_cmd_search_groups)

    signature = sub.add_parser("signature", help="signature derivation and prediction").add_subparsers(
        dest="signature_command", required=True
    )
    p = signature.add_parser("derive")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.set_defaults(fn=_cmd_signature_derive)
    p = signature.add_parser("predict")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.set_defaults(fn=_cmd_signature_predict)

    p = sub.add_parser("roc", help="ROC curve and AUC from score/label files")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_roc)

    p = sub.add_parser("combo", help="combination-therapy score rules")
    p.add_argument("--rule", choices=tuple(_integ.COMBINATION_RULES), required=True)
    p.add_argument("--inputs", required=True, help="CSV: sample_id plus one column per drug key")
    p.add_argument("--batch-normalize", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_combo)

    report = sub.add_parser("report", help="manifest-driven audit runs").add_subparsers(
        dest="report_command", required=True
    )
    p = report.add_parser("run")
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=_cmd_report_run)

    p = sub.add_parser("explain", help="explain a finding code")
    p.add_argument("code")
    p.set_defaults(fn=_cmd_explain)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
