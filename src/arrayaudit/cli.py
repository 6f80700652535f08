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
from dataclasses import dataclass, field, replace
from datetime import timedelta
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .core import (
    Finding,
    FindingsReport,
    GroupLabel,
    LabeledMatrix,
    Measure,
    Severity,
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


@dataclass(frozen=True)
class AuditManifest:
    inputs: dict[str, InputDecl]
    checks: tuple[dict, ...]
    output: Optional[str]
    base_dir: Path = field(default_factory=Path)

    def resolve(self, decl: InputDecl) -> Path:
        return self.base_dir / decl.path


def _input_decl(name: str, spec) -> InputDecl:
    if not isinstance(spec, dict) or "path" not in spec or "kind" not in spec:
        raise ManifestError(f"input {name!r} needs 'path' and 'kind'")
    if not isinstance(spec["kind"], str) or spec["kind"] not in _INPUT_KINDS:
        raise ManifestError(f"input {name!r} has unknown kind {spec['kind']!r}")
    if not isinstance(spec["path"], str):
        raise ManifestError(f"input {name!r}: path must be a string, got {spec['path']!r}")
    fmt = spec.get("format", {})
    if not isinstance(fmt, dict):
        raise ManifestError(f"input {name!r}: format must be an object, got {fmt!r}")
    try:
        return InputDecl(name, spec["path"], spec["kind"], ingest.MatrixFormat(**fmt))
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"input {name!r}: bad format: {exc}") from None


def _validate_manifest(doc: dict, base_dir: Path) -> AuditManifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    inputs_doc = doc.get("inputs")
    checks_doc = doc.get("checks")
    if not isinstance(inputs_doc, dict) or not isinstance(checks_doc, list):
        raise ManifestError("manifest needs an 'inputs' object and a 'checks' array")
    inputs = {name: _input_decl(name, spec) for name, spec in inputs_doc.items()}
    checks = []
    for i, chk in enumerate(checks_doc):
        if not isinstance(chk, dict) or "check" not in chk:
            raise ManifestError(f"check #{i + 1} is missing its 'check' name")
        name = chk["check"]
        if not isinstance(name, str) or name not in CHECKS:
            raise ManifestError(f"check #{i + 1}: unknown check {name!r}")
        spec = CHECKS[name]
        refs = [(param, chk.get(param), kind) for param, kind in spec.inputs.items()]
        for lst, fields in spec.item_inputs.items():  # malformed lists are the parameter check's
            items = chk[lst] if isinstance(chk.get(lst), list) else []
            refs += [
                (f"{lst}[{j}].{fld}", it.get(fld), kind)
                for j, it in enumerate(items)
                if isinstance(it, dict)
                for fld, kind in fields.items()
            ]
        for where, ref, kind in refs:
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
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ManifestError(f"output must be a string, got {output!r}")
    return AuditManifest(inputs, tuple(checks), output, base_dir)


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
        value = _INPUT_KINDS[decl.kind](text, decl.format)
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


def _check_validate(loader: _InputLoader, chk: dict) -> list[Finding]:
    m: LabeledMatrix = loader.load(chk["matrix"])
    return [
        _degenerate(Severity.WARNING, v.subject, f"{chk['matrix']}: invalid {v.field}: {v.message}")
        for v in validate(m)
    ]


def _check_dup(loader: _InputLoader, chk: dict) -> list[Finding]:
    m: LabeledMatrix = loader.load(chk["matrix"])
    cfg = _dup.DupScanConfig(
        corr_threshold=chk["threshold"],
        compare_on=chk["compare_on"],
        missing_policy=chk["missing_policy"],
    )
    comps = _dup.find_duplicate_columns(m, cfg)
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
    drug = chk["drug"]
    measure = chk["measure"]
    recs = [
        r
        for r in records
        if (drug is None or r.drug_id == drug) and (measure is None or r.measure.value == measure)
    ]
    if not recs:
        raise ValueError(f"no sensitivity records for drug={drug!r} measure={measure!r}")
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


def _check_confound(loader: _InputLoader, chk: dict) -> list[Finding]:
    metas = loader.load(chk["meta"])
    included = [m for m in metas if m.included] or list(metas)
    treatments = {m.sample_id: m.treatment_arm for m in included}
    if chk["by"] == "scanner":
        grouping = {m.sample_id: m.scanner_id for m in included}
        label = "scanner"
    else:
        grouping = _integ.infer_batches(included, gap=timedelta(days=chk["gap_days"]))
        label = "run batch"
    if len(set(grouping.values())) < 2 or len(set(treatments.values())) < 2:
        return []
    result = _integ.test_confounding(grouping, treatments)
    findings = _integ.confounding_findings(result, high_v=chk["high_v"])
    return [replace(f, message=f"{chk['meta']} ({label}): {f.message}") for f in findings]


def _check_blocks(loader: _InputLoader, chk: dict) -> list[Finding]:
    m = loader.load(chk["matrix"])
    threshold = chk["threshold"]
    report = _integ.detect_blocks(m, corr_threshold=threshold)
    if len(report.components) < chk["min_blocks"]:
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
    for src in chk["sources"]:
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
    sentinels = [
        _integ.Sentinel(s["sample_id"], GroupLabel(s["expected"]), s.get("reason", "")) for s in chk["sentinels"]
    ]
    labels = m.labels or {}
    return _integ.sentinel_check(labels, sentinels)


_DOSE_TESTS = ("separation", "reversal", "flat")


@dataclass(frozen=True)
class CheckSpec:
    """One manifest check, declared once.

    ``inputs`` maps each input reference to the input kind it must name;
    ``params`` maps each parameter to ``(kind, default, allowed)`` as
    ``_param`` reads them; ``run`` turns the resolved check dict into
    findings. ``item_inputs`` maps a list parameter to the fields of its
    objects that are input references, and their kinds.
    """

    inputs: dict[str, str]
    params: dict[str, tuple]
    run: Callable[[_InputLoader, dict], list[Finding]]
    item_inputs: dict[str, dict[str, str]] = field(default_factory=dict)


#: Every manifest check: ``load_manifest`` checks input references against
#: it, ``run_audit`` resolves parameters through it, and
#: ``data/manifest_schema.json`` restates it.
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
            "epsilon": (float, 0.2, None),
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
            findings.append(_degenerate(Severity.WARNING, name, f"input {name!r} ({decl.path}) is unreadable: {exc}"))
    loader = _InputLoader(manifest)
    for chk in manifest.checks:
        try:
            new = CHECKS[chk["check"]].run(loader, _resolve(chk))
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


def _read_classes(path: str) -> dict[str, int]:
    """``roc --labels``: per id a class, written as its number or as a label
    that ``signature.CLASS_OF`` maps."""
    numbers = {str(c): c for c in _sig.CLASS_OF.values()}
    out: dict[str, int] = {}
    for row, (sid, tok) in ingest.read_csv_rows(_read(path), 2, ("sample_id", "id"), exact=False):
        try:
            cls = numbers[tok] if tok in numbers else _sig.CLASS_OF.get(ingest.normalize_label(tok))
        except ingest.ParseError as exc:
            raise ingest.ParseError(f"row {row}: {exc}") from None
        if cls is None:
            raise ingest.ParseError(f"row {row}: label {tok!r} for {sid!r} is neither 0/1 nor Sensitive/Resistant")
        out[sid] = cls
    return out


def _parse_assignment_csv(path: str) -> Assignment:
    rows = ingest.read_csv_rows(_read(path), 2, ("cell_line", "sample_id", "id"), exact=False)
    return Assignment({line: ingest.normalize_label(tok) for _, (line, tok) in rows})


def _audit_view(check: str):
    """The handler of ``audit <check>``: run ``check`` as a one-check
    manifest whose input references and parameters are the flags of the
    same dest (a flag left out takes the registry default), and print the
    report summary."""
    spec = CHECKS[check]

    def run(args) -> int:
        fmt = {"delimiter": args.delimiter} if "delimiter" in args else {}
        params = {k: getattr(args, k) for k in spec.params if getattr(args, k, None) is not None}
        inputs = {ref: {"path": getattr(args, ref), "kind": kind, "format": fmt} for ref, kind in spec.inputs.items()}
        doc = {"inputs": inputs, "checks": [{"check": check, **{ref: ref for ref in inputs}, **params}]}
        report, code = run_audit(_validate_manifest(doc, Path()))
        print(summarize_report(report, code))
        return code

    return run


def _cmd_audit_crosstab(args) -> int:
    roster_a = ingest.parse_roster(_read(args.a))
    roster_b = ingest.parse_roster(_read(args.b))
    a = _dup.roster_labeling(roster_a)
    b_strict = _strict_roster_labeling(roster_b)
    b = {sid: lab.value for sid, lab in b_strict.items()}
    table = _dup.cross_tabulate(a, b)
    print(table.as_text())
    return 0


def _cmd_match(args, by_rows: bool) -> int:
    _param("min_corr", args.min_corr, float, Bounds(0, 1, lo_open=True))
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
    pred = _sig.predict(_load_matrix(args.train, args.delimiter), _load_matrix(args.test, args.delimiter), args.k)
    if pred.hard_calls:
        print("warning: perfect separation; emitting hard 0/1 calls", file=sys.stderr)
    lines = ["sample_id,metagene_score,p_sensitive"]
    for sid, sc, pr in zip(pred.sample_ids, pred.scores, pred.probabilities):
        lines.append(f"{sid},{format(float(sc), '.17g')},{format(float(pr), '.17g')}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(pred.sample_ids)} predictions written to {args.out}")
    return 0


def _cmd_roc(args) -> int:
    rows = ingest.read_csv_rows(_read(args.scores), 2, ("sample_id", "id"), exact=False)
    scores = {sid: ingest.number_cell(tok, row, 2) for row, (sid, tok) in rows}
    labels = _read_classes(args.labels)
    shared = [sid for sid in scores if sid in labels]
    if not shared:
        raise ValueError("scores and labels share no sample ids")
    s = [scores[sid] for sid in shared]
    y = [labels[sid] for sid in shared]
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
    columns, rows = ingest.parse_table(_read(args.inputs))
    missing = [k for k in rule.drug_keys if k not in columns]
    if missing:
        raise ValueError(f"input file is missing drug column(s) {missing}")
    if not rows:
        raise ValueError("no input rows")
    raw_rows = [(sid, _integ.raw_combination_score(dict(zip(columns, values)), rule)) for sid, values in rows]
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
    report, code = run_audit(args.manifest)
    print(summarize_report(report, code))
    return code


def _cmd_explain(args) -> int:
    if args.code not in FINDING_CODES:
        raise ValueError(f"unknown finding code {args.code!r}; known codes: {', '.join(FINDING_CODES)}")
    print(f"{args.code}: {explain(args.code)}")
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

    audit = sub.add_parser("audit", help="one-check audits that print the report summary").add_subparsers(
        dest="audit_command", required=True
    )

    p = audit.add_parser("dup", help="duplicate-column scan")
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--log", dest="compare_on", action="store_const", const="log", help="correlate log values")
    p.add_argument("--delimiter", choices=("tab", "comma"), default="tab")
    p.set_defaults(fn=_audit_view("dup"))

    p = audit.add_parser("roster", help="roster duplicate/conflict census")
    p.add_argument("--roster", required=True)
    p.set_defaults(fn=_audit_view("roster"))

    p = audit.add_parser("crosstab", help="cross-tabulate two labelings")
    p.add_argument("--a", required=True, help="roster for the row axis (conflicts become Both)")
    p.add_argument("--b", required=True, help="roster for the column axis")
    p.set_defaults(fn=_cmd_audit_crosstab)

    p = audit.add_parser("offset", help="detect annotation-row offsets")
    p.add_argument("--reported", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--annotation", required=True)
    p.add_argument("--max-shift", type=int)
    p.set_defaults(fn=_audit_view("offset"))

    p = audit.add_parser("dose", help="dose-response label sanity checks")
    p.add_argument("--records", dest="sensitivity", metavar="RECORDS", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--drug", required=True)
    p.add_argument("--measure", choices=CHECKS["dose"].params["measure"][2], required=True)
    p.add_argument("--margin", type=float)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(fn=_audit_view("dose"))

    p = audit.add_parser("confound", help="run-date batch confounding test")
    p.add_argument("--meta", required=True)
    p.add_argument("--gap-days", type=float)
    p.set_defaults(fn=_audit_view("confound"))

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
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
