import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
import fixtures_lib as fx
from test_ingest import _HOSTILE
from arrayaudit import cli, ingest
from arrayaudit.audit import (
    _INPUT_KINDS,
    CHECKS,
    Bounds,
    FINDING_CODES,
    ManifestError,
    _param,
    explain,
    load_manifest,
    report_to_json,
    run_audit,
)
from arrayaudit.cli import main
from arrayaudit.core import GroupLabel, LabeledMatrix, LabelRoster, RosterEntry, Severity
from arrayaudit.groupsearch import Assignment, SearchResult
from arrayaudit.signature import auc, predict, select_top_genes

REQUIRED_CORRUPTED_CODES = {
    "DUP_INCONSISTENT_LABELS",
    "OFFSET_DETECTED",
    "SENTINEL_VIOLATION",
    "CONFOUND_PERFECT",
    "REUSED_ARTIFACT",
    "LABELING_FLIP",
}


def _check_report_schema(doc: dict) -> None:
    assert set(doc) == {"schema_version", "tool_version", "input_digests", "findings"}
    assert isinstance(doc["input_digests"], dict)
    for digest in doc["input_digests"].values():
        assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
    for f in doc["findings"]:
        assert set(f) == {"code", "severity", "subjects", "metrics", "message"}
        assert f["code"] in FINDING_CODES
        assert f["severity"] in ("Info", "Warning", "Critical")
        assert isinstance(f["subjects"], list)
        assert isinstance(f["metrics"], dict)


def test_corrupted_corpus_exits_2_with_expected_codes(tmp_path):
    manifest_path = corpus.write_corrupted_corpus(tmp_path / "bad")
    report, code = run_audit(manifest_path)
    assert code == 2
    codes = {f.code for f in report.findings}
    assert REQUIRED_CORRUPTED_CODES <= codes
    doc = json.loads((tmp_path / "bad" / "report.json").read_text())
    _check_report_schema(doc)
    # the duplicate census matches the planted multiplicity profile
    dup = next(f for f in report.findings if f.code == "DUP_COLUMNS")
    assert dup.metrics["n_distinct"] == 84
    assert dup.metrics["n_samples"] == 122


def test_clean_corpus_exits_0(tmp_path):
    manifest_path = corpus.write_clean_corpus(tmp_path / "good")
    report, code = run_audit(manifest_path)
    above_info = [f for f in report.findings if f.severity != Severity.INFO]
    assert above_info == []
    assert code == 0


def test_report_is_byte_deterministic(tmp_path):
    manifest_path = corpus.write_corrupted_corpus(tmp_path / "bad")
    report1, _ = run_audit(manifest_path)
    bytes1 = (tmp_path / "bad" / "report.json").read_bytes()
    report2, _ = run_audit(manifest_path)
    bytes2 = (tmp_path / "bad" / "report.json").read_bytes()
    assert bytes1 == bytes2
    assert report_to_json(report1) == report_to_json(report2)
    assert b"\r" not in bytes1


def test_report_bytes_match_golden(tmp_path):
    # the golden files are the reports of a known-good version; a change
    # meant to alter report bytes regenerates them and says so
    golden = Path(__file__).parent / "golden"
    for name, write in (("corrupted", corpus.write_corrupted_corpus), ("clean", corpus.write_clean_corpus)):
        run_audit(write(tmp_path / name))
        assert (tmp_path / name / "report.json").read_bytes() == (golden / f"{name}_report.json").read_bytes(), name


def _confound_manifest(root: Path, rows: list[str], **params) -> Path:
    """A manifest of one confound check, with ``params``, over metadata ``rows``."""
    root.mkdir()
    (root / "meta.csv").write_text("sample_id,run_timestamp,scanner_id,treatment_arm,included\n" + "\n".join(rows) + "\n")
    inputs = {"meta": {"path": "meta.csv", "kind": "meta"}}
    checks = [{"check": "confound", "meta": "meta", **params}]
    (root / "manifest.json").write_text(json.dumps({"inputs": inputs, "checks": checks}))
    return root / "manifest.json"


def _confound_high_manifest(root: Path) -> Path:
    """A one-check confound manifest whose arms share a run batch but are
    strongly associated with it: batch x arm counts [[10, 1], [0, 10]]."""
    rows = [f"a{i},2020-01-01T{i:02d}:00:00+00:00,X,A,1" for i in range(10)]
    rows += ["b0,2020-01-01T10:00:00+00:00,X,B,1"]
    rows += [f"b{i},2020-03-01T{i:02d}:00:00+00:00,X,B,1" for i in range(1, 11)]
    return _confound_manifest(root, rows)


def test_confound_high_when_arms_share_a_batch(tmp_path, capsys):
    report, code = run_audit(_confound_high_manifest(tmp_path / "high"))
    assert code == 2
    [f] = report.findings
    assert (f.code, f.severity, f.subjects) == ("CONFOUND_HIGH", Severity.WARNING, ("A", "B"))
    assert f.metrics == {"cramers_v": pytest.approx(10 / 11, abs=1e-12), "n_batches": 2}
    assert f.message == "meta (run batch): treatment is strongly associated with run batch (V = 0.909)"
    assert main(["audit", "confound", "--meta", str(tmp_path / "high" / "meta.csv")]) == 2
    assert "[ Warning] CONFOUND_HIGH: " in capsys.readouterr().out


@pytest.mark.parametrize(
    "b_scanners, code, message",
    [
        (
            "Y" * 10,
            "CONFOUND_PERFECT",
            "meta (scanner): treatment arms occupy disjoint scanners: treatment effect and scanner effect "
            "are indistinguishable",
        ),
        ("X" + "Y" * 10, "CONFOUND_HIGH", "meta (scanner): treatment is strongly associated with scanner (V = 0.909)"),
    ],
)
def test_confound_by_scanner_words_findings_as_scanners(tmp_path, b_scanners, code, message):
    # one run batch throughout: arm A on scanner X, arm B on the scanners drawn
    rows = [f"a{i},2020-01-01T00:00:00+00:00,X,A,1" for i in range(10)]
    rows += [f"b{i},2020-01-01T00:00:00+00:00,{s},B,1" for i, s in enumerate(b_scanners)]
    [f] = run_audit(_confound_manifest(tmp_path / "scanner", rows, by="scanner"))[0].findings
    assert (f.code, f.subjects, f.metrics["n_batches"], f.message) == (code, ("A", "B"), 2, message)


def test_confound_with_every_sample_excluded_exits_1_naming_the_input(tmp_path, capsys):
    rows = [f"a{i},2020-01-01T00:00:00+00:00,X,A,0" for i in range(2)]
    rows += [f"b{i},2020-03-01T00:00:00+00:00,Y,B,0" for i in range(2)]
    report, code = run_audit(_confound_manifest(tmp_path / "excluded", rows))
    assert code == 1
    [f] = report.findings
    assert (f.code, f.severity, f.subjects) == ("DEGENERATE_DATA", Severity.WARNING, ("confound",))
    assert f.message == (
        "check 'confound' could not run: meta input 'meta' has no included sample (every row has included=0)"
    )
    assert main(["audit", "confound", "--meta", str(tmp_path / "excluded" / "meta.csv")]) == 1
    assert "has no included sample" in capsys.readouterr().out


_FOUR_SAMPLES = [
    "s1,2020-01-01,A,T,1",
    "s2,2020-01-02,A,T,1",
    "s3,2020-03-01,B,C,1",
    "s4,2020-03-02,B,C,1",
]


@pytest.mark.parametrize("by", ["batch", "scanner"])
def test_confound_refuses_a_sample_on_two_included_rows(tmp_path, by):
    # batched twice and kept with its last arm, a repeated sample hid the
    # perfect confound of the four rows
    report, code = run_audit(_confound_manifest(tmp_path / "four", _FOUR_SAMPLES, by=by))
    assert (code, [f.code for f in report.findings]) == (2, ["CONFOUND_PERFECT"])
    excluded = _confound_manifest(tmp_path / "excluded", [*_FOUR_SAMPLES, "s1,2020-03-03,B,T,0"], by=by)
    assert run_audit(excluded)[0].findings == report.findings
    report, code = run_audit(_confound_manifest(tmp_path / "repeated", [*_FOUR_SAMPLES, "s1,2020-03-03,B,T,1"], by=by))
    assert code == 1
    [f] = report.findings
    assert (f.code, f.subjects) == ("DEGENERATE_DATA", ("confound",))
    assert f.message == "check 'confound' could not run: meta input 'meta' lists sample 's1' on 2 included rows"


def test_confound_with_one_arm_among_included_samples_finds_nothing(tmp_path):
    # two run batches, but the arm C rows are excluded
    rows = [*_FOUR_SAMPLES[:2], "s3,2020-03-01,B,C,0", "s4,2020-03-02,B,T,1"]
    report, code = run_audit(_confound_manifest(tmp_path / "one-arm", rows))
    assert (report.findings, code) == ((), 0)


def _sentinels_report(root: Path, expected: list[str]):
    """The corrupted corpus audited by its sentinels check alone, with one
    sentinel NCI/ADR-RES per token of ``expected``."""
    manifest_path = corpus.write_corrupted_corpus(root)
    doc = json.loads(manifest_path.read_text())
    [chk] = [c for c in doc["checks"] if c["check"] == "sentinels"]
    chk["sentinels"] = [{"sample_id": "NCI/ADR-RES", "expected": e, "reason": "selected"} for e in expected]
    doc["checks"] = [chk]
    manifest_path.write_text(json.dumps(doc))
    return run_audit(manifest_path)


def test_sentinel_expected_reads_the_label_vocabulary(tmp_path):
    # the roster vocabulary: "res" and "NR" are Resistant, "sensitive" is Sensitive
    report, code = _sentinels_report(tmp_path / "vocab", ["res", "NR", "sensitive"])
    assert code == 2
    assert [f.message for f in report.findings] == [
        "sentinel 'NCI/ADR-RES' labeled Sensitive, expected Resistant (selected)",
        "sentinel 'NCI/ADR-RES' labeled Sensitive, expected Resistant (selected)",
    ]
    report, code = _sentinels_report(tmp_path / "unknown", ["Resistant", "sensitiv"])
    assert code == 1
    [f] = report.findings
    assert (f.code, f.subjects) == ("DEGENERATE_DATA", ("sentinels",))
    assert f.message == "check 'sentinels' could not run: sentinels[1].expected: unknown group label token 'sensitiv'"


@pytest.mark.parametrize("expected", ["Unknown", "", "na", "?"])
def test_sentinel_expected_unknown_is_refused(tmp_path, expected):
    # an Unknown expectation would flag every definitely labeled sentinel
    report, code = _sentinels_report(tmp_path, ["Resistant", expected])
    assert code == 1
    [f] = report.findings
    assert (f.code, f.subjects) == ("DEGENERATE_DATA", ("sentinels",))
    assert f.message == "check 'sentinels' could not run: sentinels[1].expected: a sentinel needs a definite expected label"


def test_sentinel_present_but_unlabeled_is_info(tmp_path):
    (tmp_path / "m.tsv").write_text("feature_id\tA\tB\tC\nlabel\tSensitive\tUnknown\tResistant\ng1\t1\t2\t4\n")
    sentinels = [{"sample_id": "B", "expected": "Resistant", "reason": "selected"}]
    doc = {"inputs": {"m": {"path": "m.tsv", "kind": "matrix"}}, "checks": [{"check": "sentinels", "matrix": "m", "sentinels": sentinels}]}
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    report, code = run_audit(tmp_path / "manifest.json")
    assert code == 0
    [f] = report.findings
    assert (f.code, f.severity, f.subjects) == ("SENTINEL_VIOLATION", Severity.INFO, ("B",))
    assert f.message == "sentinel 'B' is unlabeled; expected Resistant (selected)"


def test_corpus_and_confound_high_cover_every_finding_code(tmp_path):
    codes = {f.code for f in run_audit(corpus.write_corrupted_corpus(tmp_path / "bad"))[0].findings}
    codes |= {f.code for f in run_audit(_confound_high_manifest(tmp_path / "high"))[0].findings}
    assert codes == set(FINDING_CODES) - {"DEGENERATE_DATA"}


def test_finding_subjects_exist_in_inputs(tmp_path):
    manifest_path = corpus.write_corrupted_corpus(tmp_path / "bad")
    manifest = load_manifest(manifest_path)
    report, _ = run_audit(manifest)
    known_ids = set(manifest.inputs)
    for decl in manifest.inputs.values():
        text = (tmp_path / "bad" / decl.path).read_text()
        for token in text.replace("\t", "\n").replace(",", "\n").split("\n"):
            known_ids.add(token.strip())
    for f in report.findings:
        for subject in f.subjects:
            assert subject in known_ids or subject in ("pemetrexed", "cyclophosphamide")


def test_missing_input_file_exits_1(tmp_path):
    manifest_path = corpus.write_corrupted_corpus(tmp_path / "bad")
    (tmp_path / "bad" / "meta.csv").unlink()
    report, code = run_audit(manifest_path)
    assert code == 1
    assert any(f.code == "DEGENERATE_DATA" for f in report.findings)


def test_manifest_validation_errors(tmp_path):
    matrix = {"path": "x.tsv", "kind": "matrix"}
    dup = {"check": "dup", "matrix": "m"}

    def flips(ref):
        return {"check": "flips", "sources": [{"roster": ref, "source_id": "s", "drug_id": "d"}]}

    cases = [
        ({"inputs": {"m": matrix}, "checks": [{"check": "dup"}]}, "missing input reference"),
        ({"inputs": {"m": {"path": "x.tsv", "kind": "roster"}}, "checks": [dup]}, "kind"),
        ({"inputs": {}, "checks": [{"check": "frobnicate"}]}, "unknown check"),
        ({"inputs": {"m": dict(matrix, format="tsv")}, "checks": [dup]}, "input 'm': format must be an object"),
        ({"inputs": {"m": dict(matrix, path=5)}, "checks": [dup]}, "input 'm': path must be a string"),
        ({"inputs": {"m": dict(matrix, kind=["matrix"])}, "checks": [dup]}, "input 'm' has unknown kind"),
        ({"inputs": {"m": dict(matrix, format={"has_label_row": "yes"})}, "checks": [dup]}, "has_label_row"),
        ({"inputs": {"m": dict(matrix, format={"delimiter": "pipe"})}, "checks": [dup]}, "delimiter"),
        ({"inputs": {"m": dict(matrix, format={"sep": ","})}, "checks": [dup]}, "input 'm': bad format"),
        (
            {"inputs": {"m": dict(matrix, format={"missing_token": " -999"})}, "checks": [dup]},
            "input 'm': bad format: missing_token ' -999' can equal no cell: it has leading or trailing spaces",
        ),
        ({"inputs": {"m": matrix}, "checks": [flips("r")]}, "undeclared input 'r'"),
        ({"inputs": {"m": matrix}, "checks": [flips("m")]}, "kind"),
        ({"inputs": {"m": matrix}, "checks": [dup], "output": 5}, "output must be a string"),
    ]
    p = tmp_path / "m.json"
    for doc, match in cases:
        p.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=match):
            load_manifest(p)
        assert main(["report", "run", "--manifest", str(p)]) == 1


@pytest.mark.parametrize(
    "check,param,value",
    [
        ("dup", "threshold", "high"),
        ("dup", "threshold", None),
        ("offset", "max_shift", "3"),
        ("offset", "max_shift", 3.0),
        ("blocks", "threshold", True),
        ("blocks", "min_blocks", "2"),
        ("reuse", "digits", 2.5),
        ("confound", "high_v", "0.8"),
        ("blocks", "threshold", 1.5),
        ("blocks", "threshhold", 0.8),
        ("offset", "max_shift", -1),
        ("reuse", "digits", -3),
        ("confound", "by", "treatment"),
        pytest.param("dose", "tests", ["flta"], id="dose-tests-flta"),
        ("dose", "tests", "flat"),
        ("dose", "epsilon", -1.0),
        ("dose", "epsilon", 0),
        ("flips", "sources", "abc"),
        pytest.param("flips", "sources", [1], id="flips-sources-[1]"),
        pytest.param("sentinels", "sentinels", [1], id="sentinels-sentinels-[1]"),
    ],
)
def test_wrongly_typed_parameter_is_a_finding_and_exit_1(tmp_path, capsys, check, param, value):
    manifest_path = corpus.write_clean_corpus(tmp_path / "good")
    doc = json.loads(manifest_path.read_text())
    next(c for c in doc["checks"] if c["check"] == check)[param] = value
    manifest_path.write_text(json.dumps(doc))
    report, code = run_audit(manifest_path)
    assert code == 1
    bad = [f for f in report.findings if f.code == "DEGENERATE_DATA" and f.subjects == (check,)]
    assert len(bad) == 1
    assert f"check {check!r} could not run: parameter {param!r}" in bad[0].message
    assert main(["report", "run", "--manifest", str(manifest_path)]) == 1
    assert bad[0].message in capsys.readouterr().out


@pytest.mark.parametrize("check,param,value", [("reuse", "digits", 10**400), ("confound", "gap_days", 1e308)])
def test_overflowing_parameter_is_a_finding_and_exit_1(tmp_path, check, param, value):
    manifest_path = corpus.write_clean_corpus(tmp_path / "good")
    doc = json.loads(manifest_path.read_text())
    next(c for c in doc["checks"] if c["check"] == check)[param] = value
    manifest_path.write_text(json.dumps(doc))
    report, code = run_audit(manifest_path)
    assert code == 1
    bad = [f for f in report.findings if f.code == "DEGENERATE_DATA" and f.subjects == (check,)]
    assert len(bad) == 1 and bad[0].message.startswith(f"check {check!r} could not run")


@pytest.mark.parametrize("digits,scale", [(309, 1.0), (299, 1e10)])
def test_reuse_of_values_whose_rounding_overflows(tmp_path, digits, scale):
    # numpy's rounding makes every cell NaN at 309 digits, and cells near
    # 1e10 inf at 299: two different matrices once read as one reused table
    values = scale + np.arange(6.0).reshape(2, 3) / 8
    for name, vals in (("a", values), ("b", values + 0.25), ("c", values.copy())):
        (tmp_path / f"{name}.tsv").write_text(ingest.serialize_matrix(LabeledMatrix(("g1", "g2"), ("A", "B", "C"), vals)))
    inputs = {name: {"path": f"{name}.tsv", "kind": "matrix"} for name in "abc"}
    for other, expected in (("b", ()), ("c", ("REUSED_ARTIFACT",))):
        manifest_path = tmp_path / f"{other}.json"
        manifest_path.write_text(json.dumps({"inputs": inputs, "checks": [{"check": "reuse", "a": "a", "b": other, "digits": digits}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, code = run_audit(manifest_path)
        assert (tuple(f.code for f in report.findings), code) == (expected, 2 if expected else 0)


def test_match_rows_after_a_rounding_that_would_overflow(tmp_path, capsys):
    values = 1e10 + 100 * np.random.default_rng(8).standard_normal((3, 5))
    panel = LabeledMatrix(("g0", "g1", "g2"), tuple(f"s{j}" for j in range(5)), values)
    (tmp_path / "p.tsv").write_text(ingest.serialize_matrix(panel))
    argv = ["match", "rows", "--query", str(tmp_path / "p.tsv"), "--reference", str(tmp_path / "p.tsv"), "--pipeline"]
    for spec in ("round:2", "round:300"):
        assert main([*argv, spec]) == 0
        assert capsys.readouterr().out.startswith("matched 3, unmatched 0, ambiguous 0, degenerate 0\n")


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"[" * 200_000, id="deeply-nested"),
        pytest.param(b'{"inputs": {}, "checks": [], "output": "\xff"}', id="not-utf-8"),
        pytest.param(b'{"inputs": {}, "checks": [], "n": ' + b"9" * 5000 + b"}", id="int-over-digit-limit"),
        pytest.param(b'{"inputs": {}, "checks": [', id="truncated"),
    ],
)
def test_unloadable_manifest_exits_1_without_a_traceback(tmp_path, content):
    manifest_path = tmp_path / "m.json"
    manifest_path.write_bytes(content)
    out = subprocess.run(
        [sys.executable, "-m", "arrayaudit.cli", "report", "run", "--manifest", str(manifest_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert f"error: cannot load manifest {manifest_path}: " in out.stderr
    with pytest.raises(ManifestError, match="cannot load manifest"):
        run_audit(manifest_path)


def test_malformed_sources_exit_1_without_a_traceback(tmp_path):
    manifest_path = corpus.write_clean_corpus(tmp_path / "good")
    doc = json.loads(manifest_path.read_text())
    next(c for c in doc["checks"] if c["check"] == "flips")["sources"] = "abc"
    manifest_path.write_text(json.dumps(doc))
    out = subprocess.run(
        [sys.executable, "-m", "arrayaudit.cli", "report", "run", "--manifest", str(manifest_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert "check 'flips' could not run: parameter 'sources'" in out.stdout


def test_manifest_schema_states_the_check_registry():
    schema = json.loads(resources.files("arrayaudit").joinpath("data/manifest_schema.json").read_text("utf-8"))
    type_names = {float: "number", int: "integer", str: "string", list: "array"}

    def as_json(value):
        return str(value) if isinstance(value, Bounds) else list(value) if isinstance(value, tuple) else value

    expected = {}
    for name, spec in CHECKS.items():
        params = {}
        for param, (kind, default, allowed) in spec.params.items():
            if default is not None:  # every default passes its own check
                _param(param, as_json(default), kind, allowed)
            params[param] = {"type": type_names[kind], "default": as_json(default), "allowed": as_json(allowed)}
        expected[name] = {"inputs": spec.inputs, "params": params}
        if spec.item_inputs:
            expected[name]["item_inputs"] = spec.item_inputs
    assert schema["checkParameters"] == expected
    props = schema["properties"]
    assert props["checks"]["items"]["properties"]["check"]["enum"] == list(CHECKS)
    input_props = props["inputs"]["additionalProperties"]["properties"]
    assert input_props["kind"]["enum"] == list(_INPUT_KINDS)
    assert list(input_props["format"]["properties"]) == [f.name for f in dataclasses.fields(ingest.MatrixFormat)]


def test_explain_covers_all_codes():
    assert len(FINDING_CODES) == 17
    for code in FINDING_CODES:
        text = explain(code)
        assert len(text) > 20
    assert "duplicate" in explain("DUP_COLUMNS").lower()
    with pytest.raises(KeyError):
        explain("NOT_A_CODE")


# --- CLI surface ------------------------------------------------------------


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "arrayaudit" in out and "schema" in out


def test_cli_explain(capsys):
    assert main(["explain", "OFFSET_DETECTED"]) == 0
    assert "indexing" in capsys.readouterr().out
    assert main(["explain", "BOGUS"]) == 1


def test_cli_report_run(tmp_path, capsys):
    manifest_path = corpus.write_corrupted_corpus(tmp_path / "bad")
    code = main(["report", "run", "--manifest", str(manifest_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "CONFOUND_PERFECT" in out


def test_cli_audit_dup_and_roster(tmp_path, capsys):
    m, _ = fx.duplicate_profile_matrix()
    path = tmp_path / "m.tsv"
    path.write_text(ingest.serialize_matrix(m))
    assert main(["audit", "dup", "--matrix", str(path)]) == 2
    out = capsys.readouterr().out
    assert "only 84 of 122 samples are distinct" in out

    roster, _ = fx.roster95()
    rpath = tmp_path / "r.csv"
    rpath.write_text(ingest.serialize_roster(roster))
    assert main(["audit", "roster", "--roster", str(rpath)]) == 2
    out = capsys.readouterr().out
    assert "95 entries but only 80 distinct ids" in out


def test_cli_audit_crosstab(tmp_path, capsys):
    roster, source_rules = fx.roster95()
    a = tmp_path / "a.csv"
    a.write_text(ingest.serialize_roster(roster))
    b = tmp_path / "b.csv"
    b.write_text("\n".join(f"{sid},{lab}" for sid, lab in source_rules.items()) + "\n")
    assert main(["audit", "crosstab", "--a", str(a), "--b", str(b)]) == 0
    out = capsys.readouterr().out
    assert "Both" in out and "Intermediate" in out


def test_cli_audit_offset(tmp_path, capsys):
    reported, ann, generated = fx.offset_fixture()
    (tmp_path / "rep.csv").write_text(ingest.serialize_signature(reported))
    (tmp_path / "gen.csv").write_text(ingest.serialize_signature(generated))
    (tmp_path / "ann.txt").write_text(ingest.serialize_annotation(ann))
    code = main(
        [
            "audit", "offset",
            "--reported", str(tmp_path / "rep.csv"),
            "--generated", str(tmp_path / "gen.csv"),
            "--annotation", str(tmp_path / "ann.txt"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "best at annotation shift +1" in out


def test_cli_match_rows_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(1)
    from arrayaudit.core import LabeledMatrix

    vals = rng.standard_normal((30, 8))
    ref = LabeledMatrix(tuple(f"g{i}" for i in range(30)), tuple(f"s{j}" for j in range(8)), vals)
    perm = rng.permutation(30)
    query = LabeledMatrix(tuple(f"q{i}" for i in range(30)), ref.sample_ids, vals[perm])
    (tmp_path / "ref.tsv").write_text(ingest.serialize_matrix(ref))
    (tmp_path / "q.tsv").write_text(ingest.serialize_matrix(query))
    out_csv = tmp_path / "map.csv"
    code = main(
        [
            "match", "rows",
            "--query", str(tmp_path / "q.tsv"),
            "--reference", str(tmp_path / "ref.tsv"),
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")[1:]
    assert len(lines) == 30
    for line in lines:
        qid, rid = line.split(",")
        assert rid == f"g{perm[int(qid[1:])]}"


def test_cli_match_rows_exact_copies_at_min_corr_one(tmp_path, capsys):
    rng = np.random.default_rng(6)
    from arrayaudit.core import LabeledMatrix

    vals = rng.standard_normal((200, 24))
    ref = LabeledMatrix(tuple(f"g{i}" for i in range(200)), tuple(f"s{j}" for j in range(24)), vals)
    rows = rng.choice(200, size=40, replace=False)
    query = LabeledMatrix(tuple(f"q{i}" for i in range(40)), ref.sample_ids, vals[rows])
    (tmp_path / "ref.tsv").write_text(ingest.serialize_matrix(ref))
    (tmp_path / "q.tsv").write_text(ingest.serialize_matrix(query))
    argv = ["match", "rows", "--query", str(tmp_path / "q.tsv"), "--reference", str(tmp_path / "ref.tsv")]
    assert main([*argv, "--min-corr", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("matched 40, unmatched 0, ambiguous 0, degenerate 0\n")
    assert all(f"  q{i} -> g{r}\n" in out for i, r in enumerate(rows))


def test_cli_signature_derive_and_predict(tmp_path, capsys):
    rng = np.random.default_rng(2)
    from arrayaudit.core import LabeledMatrix

    values = rng.standard_normal((40, 16))
    values[:5, :8] += 1.0  # the groups overlap, so the probit is fitted, not replaced by hard calls
    labels = {f"s{j}": (GroupLabel.SENSITIVE if j < 8 else GroupLabel.RESISTANT) for j in range(16)}
    train = LabeledMatrix(tuple(f"g{i}" for i in range(40)), tuple(f"s{j}" for j in range(16)), values, labels)
    (tmp_path / "train.tsv").write_text(ingest.serialize_matrix(train))
    test_m = LabeledMatrix(
        tuple(f"g{i}" for i in range(40)),
        tuple(f"t{j}" for j in range(6)),
        rng.standard_normal((40, 6)),
    )
    (tmp_path / "test.tsv").write_text(ingest.serialize_matrix(test_m))

    sig_out = tmp_path / "sig.csv"
    assert main(["signature", "derive", "--matrix", str(tmp_path / "train.tsv"), "--k", "5", "--out", str(sig_out)]) == 0
    sig = ingest.parse_signature(sig_out.read_text())
    assert sig == select_top_genes(train, 5) and {"g0", "g1", "g2"} <= set(sig.feature_ids)

    scores_out = tmp_path / "scores.csv"
    code = main(
        [
            "signature", "predict",
            "--train", str(tmp_path / "train.tsv"),
            "--test", str(tmp_path / "test.tsv"),
            "--k", "5",
            "--out", str(scores_out),
        ]
    )
    assert code == 0
    rows = scores_out.read_text().strip().split("\n")
    assert rows[0] == "sample_id,metagene_score,p_sensitive"
    pred = predict(train, test_m, 5)
    assert not pred.hard_calls
    written = [[float(cell) for cell in row.split(",")[1:]] for row in rows[1:]]
    assert [row.split(",")[0] for row in rows[1:]] == list(pred.sample_ids)
    assert written == [[float(sc), float(p)] for sc, p in zip(pred.scores, pred.probabilities)]
    assert any(0.0 < p < 1.0 for _, p in written)

    # a test sample missing a signature gene is an error naming the first
    # such sample (in column order) and gene; outside the signature NA is fine
    argv = ["signature", "predict", "--train", str(tmp_path / "train.tsv"), "--test", str(tmp_path / "test.tsv")]
    for gaps, code in (({(20, 1)}, 0), ({(20, 1), (3, 4), (0, 2), (2, 2)}, 1)):
        holes = test_m.values.copy()
        for i, j in gaps:
            holes[i, j] = np.nan
        (tmp_path / "test.tsv").write_text(ingest.serialize_matrix(LabeledMatrix(test_m.feature_ids, test_m.sample_ids, holes)))
        capsys.readouterr()
        assert main([*argv, "--k", "5", "--out", str(scores_out)]) == code
    first = next(fid for fid in sig.feature_ids if fid in ("g0", "g2"))  # in signature order
    assert capsys.readouterr().err.splitlines()[-1] == f"error: test sample 't2' has no value for signature gene '{first}'"

    # hard calls of a perfectly separated training set follow the class:
    # the metagene puts the Sensitive lines above the Resistant ones at
    # seed 0 and below them at seed 2; copies of the training columns are
    # called as their class either way
    for seed in (0, 2):
        values = np.random.default_rng(seed).standard_normal((6, 10))
        values[:3, :5] += 4.0
        ids = tuple(f"L{j}" for j in range(10))
        classes = {sid: GroupLabel.SENSITIVE if j < 5 else GroupLabel.RESISTANT for j, sid in enumerate(ids)}
        panel = LabeledMatrix(tuple(f"g{i}" for i in range(6)), ids, values, classes)
        (tmp_path / "train.tsv").write_text(ingest.serialize_matrix(panel))
        (tmp_path / "test.tsv").write_text(ingest.serialize_matrix(LabeledMatrix(panel.feature_ids, ids, values)))
        assert main([*argv, "--k", "3", "--out", str(scores_out)]) == 0
        assert "perfect separation" in capsys.readouterr().err
        calls = [row.split(",")[2] for row in scores_out.read_text().split("\n")[1:-1]]
        assert calls == ["1"] * 5 + ["0"] * 5, seed


def test_cli_roc(tmp_path, capsys):
    (tmp_path / "scores.csv").write_text("sample_id,score\na,0.9\nb,0.8\nc,0.4\nd,0.3\n")
    (tmp_path / "labels.csv").write_text("a,1\nb,1\nc,0\nd,0\n")
    assert main(["roc", "--scores", str(tmp_path / "scores.csv"), "--labels", str(tmp_path / "labels.csv")]) == 0
    assert "AUC = 1.000000" in capsys.readouterr().out


def test_cli_roc_rejects_nan_score(tmp_path):
    # run in a child with a timeout: a NaN score once made the AUC loop spin
    (tmp_path / "scores.csv").write_text("sample_id,score\na,0.9\nb,nan\nc,0.4\nd,0.3\n")
    (tmp_path / "labels.csv").write_text("a,1\nb,1\nc,0\nd,0\n")
    argv = ["roc", "--scores", str(tmp_path / "scores.csv"), "--labels", str(tmp_path / "labels.csv")]
    out = subprocess.run(
        [sys.executable, "-m", "arrayaudit.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 1
    assert "row 3, column 2: unparseable numeric cell 'nan'" in out.stderr


def test_cli_combo(tmp_path, capsys):
    (tmp_path / "in.csv").write_text(
        "sample_id,T,F,A,C\np1,0.5,0.5,0.5,0.5\np2,0.1,0.2,0.3,0.4\np3,0.9,0.9,0.9,0.9\n"
    )
    assert main(["combo", "--rule", "tfac", "--inputs", str(tmp_path / "in.csv"), "--batch-normalize"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "sample_id,raw,normalized"
    raw_p1 = float(lines[1].split(",")[1])
    assert raw_p1 == 1.9375
    normalized = [float(l.split(",")[2]) for l in lines[1:]]
    assert min(normalized) == 0.0 and max(normalized) == 1.0


def test_cli_search_groups(tmp_path, capsys):
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    (tmp_path / "target.csv").write_text(ingest.serialize_signature(target))
    start = dict(truth)
    sens = [l for l, lab in truth.items() if lab == GroupLabel.SENSITIVE]
    start[sens[0]] = GroupLabel.UNUSED
    (tmp_path / "start.csv").write_text(
        "cell_line,state\n" + "\n".join(f"{l},{lab.value}" for l, lab in start.items()) + "\n"
    )
    trace = tmp_path / "trace.json"
    code = main(
        [
            "search", "groups",
            "--panel", str(tmp_path / "panel.tsv"),
            "--target", str(tmp_path / "target.csv"),
            "--k", "10",
            "--start", str(tmp_path / "start.csv"),
            "--trace", str(trace),
        ]
    )
    assert code == 0
    doc = json.loads(trace.read_text())
    assert doc["final"][sens[0]] == "Sensitive"
    assert doc["neighbors_per_step"] and all(n == 40 for n in doc["neighbors_per_step"])


def test_cli_search_groups_with_k_beyond_gene_count_exits_1(tmp_path, capsys):
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    (tmp_path / "target.csv").write_text(ingest.serialize_signature(target))
    (tmp_path / "start.csv").write_text(
        "cell_line,state\n" + "\n".join(f"{l},{lab.value}" for l, lab in truth.items()) + "\n"
    )
    code = main(
        [
            "search", "groups",
            "--panel", str(tmp_path / "panel.tsv"),
            "--target", str(tmp_path / "target.csv"),
            "--k", str(panel.n_features + 1),
            "--start", str(tmp_path / "start.csv"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "exceeds" in captured.err and "start score" not in captured.out


def test_cli_search_groups_reports_an_exceeded_move_budget(tmp_path, monkeypatch, capsys):
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    (tmp_path / "target.csv").write_text(ingest.serialize_signature(target))
    (tmp_path / "start.csv").write_text("".join(f"{l},{lab.value}\n" for l, lab in truth.items()))
    partial = SearchResult(Assignment(truth), (), 10, (), True)
    monkeypatch.setattr(cli, "steepest_ascent", lambda *args: partial)
    argv = ["search", "groups", "--panel", "panel.tsv", "--target", "target.csv", "--k", "10", "--start", "start.csv"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == "move budget exceeded; trajectory is partial\n"
    assert out.out == "start score: 10\nfinal score: 10 after 0 move(s)\n"


def test_cli_audit_dose_and_confound(tmp_path, capsys):
    records, labels = fx.pemetrexed_reversal_records()
    (tmp_path / "gi50.csv").write_text(ingest.serialize_sensitivity(records))
    roster_lines = ["sample_id,label"] + [f"{line},{lab.value}" for line, lab in labels.items()]
    (tmp_path / "labels.csv").write_text("\n".join(roster_lines) + "\n")
    code = main(
        [
            "audit", "dose",
            "--records", str(tmp_path / "gi50.csv"),
            "--labels", str(tmp_path / "labels.csv"),
            "--drug", "pemetrexed",
            "--measure", "GI50",
        ]
    )
    assert code == 2
    assert "reversed" in capsys.readouterr().out

    (tmp_path / "meta.csv").write_text(ingest.serialize_sample_meta(fx.confound_meta()))
    code = main(["audit", "confound", "--meta", str(tmp_path / "meta.csv")])
    out = capsys.readouterr().out
    assert code == 2
    assert "[Critical] CONFOUND_PERFECT" in out


def test_cli_error_paths(tmp_path, capsys):
    assert main(["audit", "dup", "--matrix", str(tmp_path / "missing.tsv")]) == 1
    assert main(["report", "run", "--manifest", str(tmp_path / "none.json")]) == 1


_TWO_COLUMNS = "feature_id\t{}\t{}\ng1\t1\t2\ng2\t3\t5\ng3\t2\t9\n"
_THREE_ROWS = "feature_id\tA\tB\tC\ng1\t1\t2\t4\ng2\t3\t5\t1\ng3\t2\t9\t7\n"
_PIPELINE_ERRORS = [
    ("log:3", "log base must be e|2|10, got '3'"),
    ("zscore:n-2", "zscore denominator must be n-1|n, got 'n-2'"),
    ("round:x", "round digits must be a nonnegative int, got 'x'"),
    ("cube:2", "unknown step kind 'cube'"),
    ("exp:e|log:e", "steps must appear in log, zscore, exp, round order; got ['exp', 'log']"),
    ("round:2|round:3", "pipeline repeats a step kind: ['round', 'round']"),
    ("log", "malformed pipeline step 'log' (expected kind:param)"),
]
_MANIFEST_SHAPE_ERRORS = [
    ("manifest-not-an-object", [], "manifest must be a JSON object"),
    ("inputs-not-an-object", {"inputs": [], "checks": []}, "manifest needs an 'inputs' object and a 'checks' array"),
    ("check-without-name", {"inputs": {}, "checks": [{"a": "m"}]}, "check #1 is missing its 'check' name"),
    ("input-without-kind", {"inputs": {"r": {"path": "r.csv"}}, "checks": []}, "input 'r' needs 'path' and 'kind'"),
]


@pytest.mark.parametrize(
    "files,argv,message",
    [
        pytest.param(
            {"q.tsv": _TWO_COLUMNS.format("A", "B"), "r.tsv": _TWO_COLUMNS.format("C", "D")},
            ["match", "rows", "--query", "q.tsv", "--reference", "r.tsv"],
            "error: matching needs at least 3 shared positions",
            id="match-two-columns",
        ),
        pytest.param(
            {"q.tsv": _THREE_ROWS + "g4\t7\t1\t2\n", "r.tsv": _THREE_ROWS},
            ["match", "columns", "--query", "q.tsv", "--reference", "r.tsv"],
            "error: query has 4 rows but reference has 3\n",
            id="match-columns-row-count-mismatch",
        ),
        pytest.param(
            {"m.tsv": "feature_id\ng1\ng2\n"},
            ["audit", "dup", "--matrix", "m.tsv"],
            "check 'dup' could not run: input 'matrix' (m.tsv): header row declares no sample ids",
            id="header-without-sample-ids",
        ),
        pytest.param(
            {"m.tsv": "feature_id\tA\tB\n"},
            ["audit", "dup", "--matrix", "m.tsv"],
            "check 'dup' could not run: input 'matrix' (m.tsv): matrix has no feature rows",
            id="header-only-matrix",
        ),
        pytest.param(
            {"sig.csv": "feature_id\ng1\ng2\n", "ann.txt": "GPL96\n"},
            ["audit", "offset", "--reported", "sig.csv", "--generated", "sig.csv", "--annotation", "ann.txt"],
            "check 'offset' could not run: input 'annotation' (ann.txt): annotation needs a platform id line and at least one feature id",
            id="annotation-without-feature-ids",
        ),
        pytest.param(
            {"rec.csv": "cell_line,drug_id,measure,value\nL1,D1,GI50,1.0\n", "lab.csv": "sample_id,label\nL1,Sensitive\n"},
            ["audit", "dose", "--records", "rec.csv", "--labels", "lab.csv", "--drug", "D2", "--measure", "GI50"],
            "check 'dose' could not run: no sensitivity records for drug='D2' measure='GI50'",
            id="dose-drug-without-records",
        ),
        pytest.param(
            {"m.json": json.dumps({"inputs": {}, "checks": [{"check": "flips", "sources": []}]})},
            ["report", "run", "--manifest", "m.json"],
            "check 'flips' could not run: flips check needs at least one source",
            id="flips-without-sources",
        ),
        *(
            pytest.param(
                {"q.tsv": _TWO_COLUMNS.format("A", "B")},
                ["match", "rows", "--query", "q.tsv", "--reference", "q.tsv", "--pipeline", spec],
                f"error: {message}\n",
                id=f"pipeline-{spec}",
            )
            for spec, message in _PIPELINE_ERRORS
        ),
        pytest.param(
            {"m.tsv": "feature_id\tA\tB\tC\tD\nlabel\tSensitive\tResistant\ng1\t1\t2\t3\t4\n"},
            ["audit", "dup", "--matrix", "m.tsv"],
            "DEGENERATE_DATA: check 'dup' could not run: input 'matrix' (m.tsv): row 2: label row has 2 cells, expected 4\n",
            id="label-row-of-the-wrong-width",
        ),
        *(
            pytest.param({"m.json": json.dumps(doc)}, ["report", "run", "--manifest", "m.json"], f"error: {message}\n", id=name)
            for name, doc, message in _MANIFEST_SHAPE_ERRORS
        ),
        pytest.param(
            {"in.csv": "sample_id,T,F,A\np1,0.5,0.5,0.5\n"},
            ["combo", "--rule", "tfac", "--inputs", "in.csv"],
            "error: input file is missing drug column(s) ['C']\n",
            id="combo-missing-drug-column",
        ),
        pytest.param(
            {"in.csv": "sample_id,T,F,A,C\n"},
            ["combo", "--rule", "tfac", "--inputs", "in.csv"],
            "error: no input rows\n",
            id="combo-without-rows",
        ),
        pytest.param(
            {"in.csv": "sample_id,T,F,A,C\np1,0.5,0.5,0.5,0.5\np2,0.5,0.5,0.5,0.5\n"},
            ["combo", "--rule", "tfac", "--inputs", "in.csv", "--batch-normalize"],
            "error: degenerate batch: all combination scores equal\n",
            id="combo-degenerate-batch",
        ),
        pytest.param(
            {"m.tsv": "feature_id\tA\tB\tC\tD\nlabel\tS\tS\tR\tR\ng1\t1\t2\t3\t4\n"},
            ["signature", "derive", "--matrix", "m.tsv", "--k", "0"],
            "error: k must be >= 1\n",
            id="signature-derive-k-0",
        ),
        pytest.param(
            {"train.tsv": "feature_id\tA\tB\tC\tD\nlabel\tS\tS\tI\tI\ng1\t1\t2\t3\t5\n", "test.tsv": "feature_id\tE\ng1\t1\n"},
            ["signature", "predict", "--train", "train.tsv", "--test", "test.tsv", "--k", "1", "--out", "p.csv"],
            "error: prediction needs Sensitive and Resistant training groups, found Sensitive and Intermediate\n",
            id="signature-predict-without-resistant",
        ),
        pytest.param(
            {"scores.csv": "sample_id,score\na,0.9\nb,0.1\n", "labels.csv": "a,Unused\nb,0\n"},
            ["roc", "--scores", "scores.csv", "--labels", "labels.csv"],
            "error: row 1: label 'Unused' for 'a' is neither 0/1 nor Sensitive/Resistant\n",
            id="roc-label-unused",
        ),
    ],
)
def test_failure_paths_exit_1_with_their_message(tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)  # the files are named as given, as a message names them
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 1
    out = capsys.readouterr()
    assert message in out.out + out.err


def test_cli_match_columns(tmp_path):
    rng = np.random.default_rng(9)
    from arrayaudit.core import LabeledMatrix

    vals = rng.standard_normal((25, 10))
    ref = LabeledMatrix(tuple(f"g{i}" for i in range(25)), tuple(f"CL{j}" for j in range(10)), vals)
    chosen = [7, 2, 5]
    query = LabeledMatrix(ref.feature_ids, ("a0", "a1", "a2"), vals[:, chosen])
    (tmp_path / "ref.tsv").write_text(ingest.serialize_matrix(ref))
    (tmp_path / "q.tsv").write_text(ingest.serialize_matrix(query))
    out = tmp_path / "map.csv"
    code = main(
        [
            "match", "columns",
            "--query", str(tmp_path / "q.tsv"),
            "--reference", str(tmp_path / "ref.tsv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    got = dict(line.split(",") for line in out.read_text().strip().split("\n")[1:])
    assert got == {"a0": "CL7", "a1": "CL2", "a2": "CL5"}


def test_cli_audit_dup_log_switch(tmp_path, capsys):
    rng = np.random.default_rng(10)
    from arrayaudit.core import LabeledMatrix

    base = np.exp(rng.standard_normal(12))
    vals = np.column_stack([base, base, np.exp(rng.standard_normal(12))])
    m = LabeledMatrix(tuple(f"g{i}" for i in range(12)), ("c0", "c1", "c2"), vals)
    (tmp_path / "m.tsv").write_text(ingest.serialize_matrix(m))
    assert main(["audit", "dup", "--matrix", str(tmp_path / "m.tsv"), "--log"]) == 2
    assert "only 2 of 3 samples are distinct" in capsys.readouterr().out


def _dup_view(tmp_path):
    m, _ = fx.duplicate_profile_matrix()
    (tmp_path / "m.csv").write_text(ingest.serialize_matrix(m, ingest.MatrixFormat(delimiter="comma")))
    argv = ["dup", "--matrix", str(tmp_path / "m.csv"), "--delimiter", "comma", "--threshold", "0.999"]
    inputs = {"matrix": {"path": "m.csv", "kind": "matrix", "format": {"delimiter": "comma"}}}
    return argv, inputs, {"check": "dup", "matrix": "matrix", "threshold": 0.999}, 2


def _roster_view(tmp_path):
    roster, _ = fx.roster95()
    (tmp_path / "r.csv").write_text(ingest.serialize_roster(roster))
    inputs = {"roster": {"path": "r.csv", "kind": "roster"}}
    return ["roster", "--roster", str(tmp_path / "r.csv")], inputs, {"check": "roster", "roster": "roster"}, 2


def _offset_view(tmp_path):
    reported, ann, generated = fx.offset_fixture()
    (tmp_path / "rep.csv").write_text(ingest.serialize_signature(reported))
    (tmp_path / "gen.csv").write_text(ingest.serialize_signature(generated))
    (tmp_path / "ann.txt").write_text(ingest.serialize_annotation(ann))
    argv = ["offset", "--max-shift", "2"] + [
        f"--{ref}={tmp_path / name}" for ref, name in (("reported", "rep.csv"), ("generated", "gen.csv"), ("annotation", "ann.txt"))
    ]
    inputs = {
        "reported": {"path": "rep.csv", "kind": "signature"},
        "generated": {"path": "gen.csv", "kind": "signature"},
        "annotation": {"path": "ann.txt", "kind": "annotation"},
    }
    check = {"check": "offset", "reported": "reported", "generated": "generated", "annotation": "annotation", "max_shift": 2}
    return argv, inputs, check, 2


def _dose_view(tmp_path, n_records=None):
    records, labels = fx.pemetrexed_reversal_records()
    if n_records:  # two lines of each group
        records = records[:2] + records[-2:]
    (tmp_path / "gi50.csv").write_text(ingest.serialize_sensitivity(records))
    (tmp_path / "labels.csv").write_text(
        "\n".join(["sample_id,label"] + [f"{line},{lab.value}" for line, lab in labels.items()]) + "\n"
    )
    argv = ["dose", "--records", str(tmp_path / "gi50.csv"), "--labels", str(tmp_path / "labels.csv")]
    argv += ["--drug", "pemetrexed", "--measure", "GI50", "--margin", "0.1"]
    inputs = {"sensitivity": {"path": "gi50.csv", "kind": "sensitivity"}, "labels": {"path": "labels.csv", "kind": "roster"}}
    check = {"check": "dose", "sensitivity": "sensitivity", "labels": "labels", "drug": "pemetrexed", "measure": "GI50", "margin": 0.1}
    return argv, inputs, check, 1 if n_records else 2


def _confound_view(tmp_path):
    (tmp_path / "meta.csv").write_text(ingest.serialize_sample_meta(fx.confound_meta()))
    argv = ["confound", "--meta", str(tmp_path / "meta.csv"), "--gap-days", "3"]
    return argv, {"meta": {"path": "meta.csv", "kind": "meta"}}, {"check": "confound", "meta": "meta", "gap_days": 3}, 2


@pytest.mark.parametrize(
    "view",
    [
        _dup_view,
        _roster_view,
        _offset_view,
        _dose_view,
        pytest.param(lambda tmp_path: _dose_view(tmp_path, 4), id="_dose_view_4_records"),
        _confound_view,
    ],
    ids=lambda fn: fn.__name__,
)
def test_audit_view_equals_its_one_check_manifest(tmp_path, capsys, view):
    argv, inputs, check, expected_code = view(tmp_path)
    assert main(["audit", *argv]) == expected_code
    view_out = capsys.readouterr().out
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"inputs": inputs, "checks": [check]}))
    assert main(["report", "run", "--manifest", str(manifest_path)]) == expected_code
    assert capsys.readouterr().out == view_out
    if expected_code == 1:
        assert "check 'dose' could not run: flat-response check needs >= 5 records" in view_out


def test_short_csv_row_exits_1_naming_its_line(tmp_path, capsys):
    (tmp_path / "scores.csv").write_text("sample_id,score\na,0.9\nb\n")
    (tmp_path / "labels.csv").write_text("a,1\nb,0\n")
    assert main(["roc", "--scores", str(tmp_path / "scores.csv"), "--labels", str(tmp_path / "labels.csv")]) == 1
    assert "row 3: expected at least 2 cells, got 1" in capsys.readouterr().err

    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    (tmp_path / "target.csv").write_text(ingest.serialize_signature(target))
    line = next(iter(truth))
    (tmp_path / "start.csv").write_text(f"cell_line,state\n\n{line},Sensitive\n{line}\n")
    argv = ["search", "groups", "--panel", str(tmp_path / "panel.tsv"), "--target", str(tmp_path / "target.csv")]
    assert main([*argv, "--k", "10", "--start", str(tmp_path / "start.csv")]) == 1
    assert "row 4: expected at least 2 cells, got 1" in capsys.readouterr().err


def test_search_start_state_errors_name_their_row(tmp_path, capsys):
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    (tmp_path / "target.csv").write_text(ingest.serialize_signature(target))
    argv = ["search", "groups", "--panel", str(tmp_path / "panel.tsv"), "--target", str(tmp_path / "target.csv")]
    other, line = list(truth)[:2]
    for state, message in (("wibble", "unknown group label token 'wibble'"), ("INT", f"{line!r} has non-search state")):
        (tmp_path / "start.csv").write_text(f"cell_line,state\n{other},Sensitive\n\n{line},{state}\n")
        assert main([*argv, "--k", "10", "--start", str(tmp_path / "start.csv")]) == 1
        assert f"error: row 4: {message}" in capsys.readouterr().err


def test_search_start_line_missing_from_panel_exits_1(tmp_path, capsys):
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    (tmp_path / "target.csv").write_text(ingest.serialize_signature(target))
    rows = [f"{l},{lab.value}" for l, lab in truth.items()]
    (tmp_path / "start.csv").write_text("\n".join(["cell_line,state", *rows[:3], "TYPO,Sensitive", *rows[3:]]) + "\n")
    argv = ["search", "groups", "--panel", str(tmp_path / "panel.tsv"), "--target", str(tmp_path / "target.csv")]
    assert main([*argv, "--k", "10", "--start", str(tmp_path / "start.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: start line 'TYPO' is not a line of the panel\n" and captured.out == ""


def test_bom_headers_and_empty_ids_in_manifest_inputs(tmp_path, monkeypatch, capsys):
    (tmp_path / "sig.csv").write_text("\ufefffeature_id,direction\ng1,UpInResistant\n", encoding="utf-8")
    (tmp_path / "ann.txt").write_text("\ufeffP\ng1\ng2\n", encoding="utf-8")
    inputs = {"sig": {"path": "sig.csv", "kind": "signature"}, "ann": {"path": "ann.txt", "kind": "annotation"}}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"inputs": inputs, "checks": [{"check": "platform", "signature": "sig", "annotation": "ann"}]}))
    assert main(["report", "run", "--manifest", str(manifest)]) == 0
    assert "PLATFORM_MISMATCH" not in capsys.readouterr().out
    (tmp_path / "ann.txt").write_text("P\ng1\ng2\ng1\n", encoding="utf-8")
    assert main(["report", "run", "--manifest", str(manifest)]) == 1
    assert "row 4: duplicate feature id 'g1' (first on row 2)" in capsys.readouterr().out

    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_text("GSM1,Sensitive\n,Resistant\n")
    assert main(["audit", "roster", "--roster", "r.csv"]) == 1
    assert "check 'roster' could not run: input 'roster' (r.csv): row 2: empty sample id" in capsys.readouterr().out


def test_an_input_fault_names_the_input_and_its_path(tmp_path, monkeypatch, capsys):
    # two matrices in one check: the message says which one is at fault
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.tsv").write_text("feature_id\tA\tB\tC\ng1\t1\t2\t3\n")
    (tmp_path / "b.tsv").write_text("feature_id\tA\tB\tC\nlabel\tSensitive\tResistant\ng1\t1\t2\t3\n")
    inputs = {"a": {"path": "a.tsv", "kind": "matrix"}, "b": {"path": "b.tsv", "kind": "matrix"}}
    (tmp_path / "m.json").write_text(json.dumps({"inputs": inputs, "checks": [{"check": "reuse", "a": "a", "b": "b"}]}))
    assert main(["report", "run", "--manifest", "m.json"]) == 1
    assert (
        "DEGENERATE_DATA: check 'reuse' could not run: input 'b' (b.tsv): row 2: label row has 2 cells, expected 3\n"
        in capsys.readouterr().out
    )
    # an unreadable input is a finding of its own, and the check names it too
    inputs["b"]["path"] = "gone.tsv"
    (tmp_path / "m.json").write_text(json.dumps({"inputs": inputs, "checks": [{"check": "reuse", "a": "a", "b": "b"}]}))
    report, code = run_audit("m.json")
    unreadable, could_not_run = (f.message for f in report.findings)
    assert code == 1 and unreadable.startswith("input 'b' (gone.tsv) is unreadable: [Errno 2]")
    assert could_not_run.startswith("check 'reuse' could not run: input 'b' (gone.tsv): [Errno 2]")


def test_roc_and_search_read_predict_output_and_rosters(tmp_path, capsys):
    # the two-column readers take the first two cells of wider rows: the
    # scores that signature predict writes and the rows of a roster file
    rng = np.random.default_rng(5)
    values = rng.standard_normal((30, 12))
    values[:4, :6] += 3.0
    train = LabeledMatrix(
        tuple(f"g{i}" for i in range(30)),
        tuple(f"s{j}" for j in range(12)),
        values,
        {f"s{j}": (GroupLabel.SENSITIVE if j < 6 else GroupLabel.RESISTANT) for j in range(12)},
    )
    (tmp_path / "train.tsv").write_text(ingest.serialize_matrix(train))
    test_values = rng.standard_normal((30, 6))
    test_values[:4, :3] += 3.0
    test_m = LabeledMatrix(tuple(f"g{i}" for i in range(30)), tuple(f"t{j}" for j in range(6)), test_values)
    (tmp_path / "test.tsv").write_text(ingest.serialize_matrix(test_m))
    scores = tmp_path / "scores.csv"
    argv = ["signature", "predict", "--train", str(tmp_path / "train.tsv"), "--test", str(tmp_path / "test.tsv")]
    assert main([*argv, "--k", "4", "--out", str(scores)]) == 0
    truth = [GroupLabel.SENSITIVE] * 3 + [GroupLabel.RESISTANT] * 3
    roster = LabelRoster(tuple(RosterEntry(f"t{j}", lab, "lab-a", "note") for j, lab in enumerate(truth)))
    (tmp_path / "roster.csv").write_text(ingest.serialize_roster(roster))
    capsys.readouterr()
    assert main(["roc", "--scores", str(scores), "--labels", str(tmp_path / "roster.csv")]) == 0
    rows = [r.split(",") for r in scores.read_text().strip().split("\n")[1:]]
    want = auc([float(r[1]) for r in rows], [int(lab == GroupLabel.SENSITIVE) for lab in truth])
    assert capsys.readouterr().out.strip() == f"n = 6, AUC = {want:.6f}"

    panel, planted, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    (tmp_path / "target.csv").write_text(ingest.serialize_signature(target))
    start = LabelRoster(tuple(RosterEntry(line, lab, "lab-a", "") for line, lab in planted.items()))
    (tmp_path / "start.csv").write_text(ingest.serialize_roster(start))
    trace = tmp_path / "trace.json"
    argv = ["search", "groups", "--panel", str(tmp_path / "panel.tsv"), "--target", str(tmp_path / "target.csv")]
    assert main([*argv, "--k", "10", "--start", str(tmp_path / "start.csv"), "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert doc["final"] == {line: lab.value for line, lab in planted.items()}


def test_sensitivity_and_meta_rows_must_have_their_exact_width():
    with pytest.raises(ingest.ParseError, match="row 3: expected 4 cells, got 5"):
        ingest.parse_sensitivity("cell_line,drug_id,measure,value\n\nA,d1,GI50,-5.0,extra\n")
    with pytest.raises(ingest.ParseError, match="row 2: expected 5 cells, got 6"):
        ingest.parse_sample_meta("sample_id,run_timestamp,scanner_id,treatment_arm,included\ns1,2020-01-01,x,a,1,z\n")
    with pytest.raises(ingest.ParseError, match="sensitivity file has a header but no rows"):
        ingest.parse_sensitivity("cell_line,drug_id,measure,value\n")
    with pytest.raises(ingest.ParseError, match="empty sample metadata file"):
        ingest.parse_sample_meta("\n\n")


_OFFSET_CHILD = """
import contextlib, io, json, resource, sys
from pathlib import Path
# a scan of every shift up to max_shift would need gigabytes: fail fast instead
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from arrayaudit import ingest
from arrayaudit.audit import report_to_json, run_audit
from arrayaudit.cli import main
from arrayaudit.matchscan import detect_offset

root, max_shift = Path(sys.argv[1]), int(sys.argv[2])
reported, generated = (ingest.parse_signature((root / name).read_text()) for name in ("rep.csv", "gen.csv"))
ann = ingest.parse_annotation((root / "ann.txt").read_text())
res = detect_offset(reported, ann, generated, max_shift=max_shift)
manifest = json.loads((root / "manifest.json").read_text())
manifest["checks"][0]["max_shift"] = max_shift
(root / "manifest.json").write_text(json.dumps(manifest))
report, code = run_audit(root / "manifest.json")
view = io.StringIO()
with contextlib.redirect_stdout(view):
    view_code = main(["audit", *sys.argv[3:], "--max-shift", str(max_shift)])
print(json.dumps([repr(res), report_to_json(report), code, view.getvalue(), view_code]))
"""


def test_huge_max_shift_scans_only_reachable_shifts(tmp_path):
    argv, inputs, check, _ = _offset_view(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"inputs": inputs, "checks": [check]}))
    view_argv = [argv[0], *argv[3:]]  # without the view's own --max-shift 2
    n_ann = len(fx.offset_fixture()[1].feature_ids)
    runs = {}
    for max_shift in (n_ann, 10**9):
        out = subprocess.run(
            [sys.executable, "-c", _OFFSET_CHILD, str(tmp_path), str(max_shift), *view_argv],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        runs[max_shift] = json.loads(out.stdout)
    assert runs[10**9] == runs[n_ann]
    assert "best_shift=1," in runs[n_ann][0] and runs[n_ann][2] == 2


# --- every command on hostile files ------------------------------------------


def _grid(text: str, sep: str) -> list[list[str]]:
    return [line.split(sep) for line in text.splitlines()]


def _valid_inputs(command: str):
    """Small valid inputs of ``command``: {file name: (delimiter, rows of
    cells, index of the first row of numeric cells or None)} and the argv,
    with ``{name}`` standing for a file's path."""
    rng = np.random.default_rng(0)
    if command == "roc":
        scores = [["sample_id", "score"]] + [[f"a{j}", f"{x:.3f}"] for j, x in enumerate(rng.random(6))]
        labels = [[f"a{j}", "1" if j % 2 else "Resistant"] for j in range(6)]
        files = {"scores.csv": (",", scores, 1), "labels.csv": (",", labels, None)}
        return files, ["roc", "--scores", "{scores.csv}", "--labels", "{labels.csv}", "--out", "{out.csv}"]
    if command == "combo":
        rows = [["sample_id", "T", "F", "A", "C"]] + [[f"p{i}", *(f"{x:.2f}" for x in rng.random(4))] for i in range(4)]
        return {"in.csv": (",", rows, 1)}, ["combo", "--rule", "tfac", "--inputs", "{in.csv}", "--batch-normalize"]
    if command == "predict":
        values = rng.standard_normal((8, 8))
        values[:3, :4] += 3.0
        labels = {f"s{j}": GroupLabel.SENSITIVE if j < 4 else GroupLabel.RESISTANT for j in range(8)}
        genes = tuple(f"g{i}" for i in range(8))
        train = LabeledMatrix(genes, tuple(labels), values, labels)
        test_m = LabeledMatrix(genes, ("t0", "t1", "t2"), rng.standard_normal((8, 3)))
        files = {
            "train.tsv": ("\t", _grid(ingest.serialize_matrix(train), "\t"), 2),
            "test.tsv": ("\t", _grid(ingest.serialize_matrix(test_m), "\t"), 1),
        }
        return files, ["signature", "predict", "--train", "{train.tsv}", "--test", "{test.tsv}", "--k", "3", "--out", "{out.csv}"]
    if command.startswith("match"):
        values = rng.standard_normal((6, 5))
        ref = LabeledMatrix(tuple(f"r{i}" for i in range(6)), tuple(f"c{j}" for j in range(5)), values)
        query = LabeledMatrix(tuple(f"q{i}" for i in range(6)), ref.sample_ids, values[::-1])
        files = {
            "q.tsv": ("\t", _grid(ingest.serialize_matrix(query), "\t"), 1),
            "ref.tsv": ("\t", _grid(ingest.serialize_matrix(ref), "\t"), 1),
        }
        return files, [*command.split(), "--query", "{q.tsv}", "--reference", "{ref.tsv}", "--out", "{out.csv}"]
    panel, truth, target = fx.planted_panel(2025, 3, 3, 2, n_noise=4, k=3)
    files = {
        "panel.tsv": ("\t", _grid(ingest.serialize_matrix(panel), "\t"), 1),
        "target.csv": (",", _grid(ingest.serialize_signature(target), ","), None),
        "start.csv": (",", [["cell_line", "state"]] + [[line, lab.value] for line, lab in truth.items()], None),
    }
    argv = ["search", "groups", "--panel", "{panel.tsv}", "--target", "{target.csv}", "--k", "3", "--start", "{start.csv}"]
    return files, argv + ["--trace", "{trace.json}"]


_CELL_TOKENS = sorted(set(_HOSTILE) | {"1_0"})

#: files read by the two-cell readers, which take the first two cells of a
#: wider row (``roc --scores``/``--labels``, ``search groups --start``)
_TWO_CELL_FILES = {"scores.csv", "labels.csv", "start.csv"}


def _run_on_files(files, argv, tmp: str):
    """Write ``files`` into ``tmp`` and run ``main`` on ``argv``; returns the
    exit code, stdout, stderr and the bytes of the outputs written."""
    paths = {name: str(Path(tmp) / name) for name in ("out.csv", "trace.json", *files)}
    for name in ("out.csv", "trace.json"):
        Path(paths[name]).unlink(missing_ok=True)
    for name, (sep, rows, _) in files.items():
        Path(paths[name]).write_text("".join(sep.join(cells) + "\n" for cells in rows), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths[a[1:-1]] if a[1:-1] in paths else a for a in argv])
    written = {name: Path(paths[name]).read_bytes() for name in ("out.csv", "trace.json") if Path(paths[name]).exists()}
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(["roc", "combo", "predict", "match rows", "match columns", "search"]),
    st.sampled_from(["token", "ragged", "blank", "empty", "nan", "constant", "none", "bom", "extra cell", "empty id"]),
    st.sampled_from(_CELL_TOKENS),
    st.integers(0, 10**6),
)
@example("roc", "token", "1_0", 0)
@example("predict", "constant", "", 0)
@example("roc", "bom", "", 0)  # labels.csv: its first id
@example("roc", "bom", "", 1)  # scores.csv: its header
@example("search", "extra cell", "", 2)  # target.csv: a third cell after the direction
@example("roc", "empty id", "", 1)  # scores.csv
def test_main_on_hostile_files_exits_0_1_or_2_and_names_the_bad_cell(command, fault, token, where):
    """One fault in otherwise valid inputs: no exception escapes ``main``,
    exit 1 ends in an ``error:`` line, and a bad numeric cell is exit 1
    naming that cell. A byte-order mark changes nothing; an extra cell in
    the last row changes nothing for a two-cell reader and is exit 1
    naming that row for every other reader, and so is an empty id."""
    files, argv = _valid_inputs(command)
    numeric = [
        (name, i, j)
        for name, (_, rows, first) in files.items()
        if first is not None
        for i in range(first, len(rows))
        for j in range(1, len(rows[i]))
    ]
    bad_cell = bad_row = None
    same_as_valid = fault == "bom"
    if fault == "token":
        name, i, j = bad_cell = numeric[where % len(numeric)]
        files[name][1][i][j] = token
    elif fault in ("nan", "constant"):
        name = numeric[where % len(numeric)][0]
        for _, i, j in (c for c in numeric if c[0] == name):
            files[name][1][i][j] = "NA" if fault == "nan" else "7.3"
    elif fault != "none":
        name = sorted(files)[where % len(files)]
        rows = files[name][1]
        if fault == "ragged":
            i = where % len(rows)
            rows[i] = rows[i][:-1]
        elif fault == "blank":
            rows.insert(where % (len(rows) + 1), [""])
        elif fault == "bom":
            rows[0][0] = "\ufeff" + rows[0][0]
        elif fault == "extra cell":
            rows[-1].append("x")
            same_as_valid = name in _TWO_CELL_FILES
            bad_row = None if same_as_valid else len(rows)
        elif fault == "empty id":
            rows[-1][0] = ""
            bad_row = len(rows)
        else:
            rows.clear()
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, written = _run_on_files(files, argv, tmp)
        if same_as_valid:
            assert (code, out, err, written) == _run_on_files(_valid_inputs(command)[0], argv, tmp)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.splitlines()[-1].startswith("error: ")
    if bad_cell is not None:
        _, i, j = bad_cell
        assert code == 1
        assert f"error: row {i + 1}, column {j + 1}: " in err
    if bad_row is not None:
        assert code == 1
        assert f"error: row {bad_row}: " in err


# --- what the tool writes reads back ------------------------------------------


def _separated_panel(feature_ids, sample_ids) -> LabeledMatrix:
    rng = np.random.default_rng(11)
    values = rng.standard_normal((len(feature_ids), len(sample_ids)))
    half = len(sample_ids) // 2
    values[:2, :half] += 4.0
    labels = {sid: GroupLabel.SENSITIVE if j < half else GroupLabel.RESISTANT for j, sid in enumerate(sample_ids)}
    return LabeledMatrix(tuple(feature_ids), tuple(sample_ids), values, labels)


def test_outputs_refuse_an_id_that_would_shift_a_column(tmp_path, capsys):
    # a comma in a tab-delimited matrix's ids is fine there, but not in the
    # comma-separated files written from them: exit 1 and no file
    panel = _separated_panel([f"g{i}" for i in range(6)], ["s0", "A,x", "s2", "s3", "s4", "s5"])
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    out = tmp_path / "scores.csv"
    argv = ["signature", "predict", "--train", str(tmp_path / "panel.tsv"), "--test", str(tmp_path / "panel.tsv")]
    assert main([*argv, "--k", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: row 3, column 1: cell 'A,x' holds the delimiter ','"
    assert not out.exists()

    panel = _separated_panel(["g0", "g,1", "g2", "g3", "g4", "g5"], [f"s{j}" for j in range(6)])
    (tmp_path / "panel.tsv").write_text(ingest.serialize_matrix(panel))
    out = tmp_path / "sig.csv"
    argv = ["signature", "derive", "--matrix", str(tmp_path / "panel.tsv"), "--k", "3"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: row 2, column 1: cell 'g,1' holds the delimiter ','"
    assert not out.exists()
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_match_out_bytes_are_unchanged_on_valid_ids(tmp_path, capsys):
    (tmp_path / "ref.tsv").write_text("id\tc0\tc1\tc2\nr0\t1\t2\t4\nr1\t3\t1\t2\nr2\t5\t9\t1\n")
    (tmp_path / "q.tsv").write_text("id\tc0\tc1\tc2\nq0\t5\t9\t1\nq1\t1\t2\t4\nq2\t2\t2\t7\n")
    out = tmp_path / "map.csv"
    argv = ["match", "rows", "--query", str(tmp_path / "q.tsv"), "--reference", str(tmp_path / "ref.tsv")]
    assert main([*argv, "--out", str(out)]) == 2
    assert out.read_bytes() == b"query_id,reference_id\nq0,r2\nq1,r0\nq2,\n"
    assert capsys.readouterr().out.splitlines()[-1] == f"mapping written to {out}"


@pytest.mark.parametrize("reader", ["roc --scores", "roc --labels", "search groups --start"])
def test_two_column_readers_refuse_a_repeated_id(tmp_path, capsys, reader):
    files = {"scores.csv": "sample_id,score\nA,0.9\nB,0.2\n", "labels.csv": "A,1\nB,0\n"}
    argv = ["roc", "--scores", "{scores.csv}", "--labels", "{labels.csv}"]
    if reader == "roc --scores":
        files["scores.csv"] += "A,0.2\n"
        message = "row 4: duplicate sample id 'A' (first on row 2)"
    elif reader == "roc --labels":
        files["labels.csv"] += "\nA,0\n"
        message = "row 4: duplicate sample id 'A' (first on row 1)"
    else:
        panel, truth, target = fx.planted_panel(2025, 3, 3, 2, n_noise=4, k=3)
        line = next(iter(truth))
        files = {
            "panel.tsv": ingest.serialize_matrix(panel),
            "target.csv": ingest.serialize_signature(target),
            "start.csv": "cell_line,state\n" + "".join(f"{l},{lab.value}\n" for l, lab in truth.items()) + f"{line},Unused\n",
        }
        argv = ["search", "groups", "--panel", "{panel.tsv}", "--target", "{target.csv}", "--k", "3", "--start", "{start.csv}"]
        message = f"row {len(truth) + 2}: duplicate cell line {line!r} (first on row 2)"
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_run_audit_reads_each_input_once_and_parses_only_used_ones(tmp_path, monkeypatch):
    manifest_path = corpus.write_corrupted_corpus(tmp_path)
    doc = json.loads(manifest_path.read_text())
    doc["inputs"]["spare"] = {"path": "spare.tsv", "kind": "matrix"}  # no check uses it
    manifest_path.write_text(json.dumps(doc))
    (tmp_path / "spare.tsv").write_text("id\tS1\ng1\t1\n")
    opened: dict[str, int] = {}
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened[self.name] = opened.get(self.name, 0) + 1
        return real_open(self, *args, **kwargs)

    parsed = []
    real_parse = ingest.parse_matrix
    monkeypatch.setattr(Path, "open", counting_open)
    monkeypatch.setattr(ingest, "parse_matrix", lambda text, fmt: parsed.append(text) or real_parse(text, fmt))
    report, code = run_audit(manifest_path)
    monkeypatch.undo()
    paths = [spec["path"] for spec in doc["inputs"].values()]
    assert {p: opened.get(p) for p in paths} == dict.fromkeys(paths, 1)
    matrices = sorted(spec["path"] for name, spec in doc["inputs"].items() if spec["kind"] == "matrix" and name != "spare")
    assert sorted(parsed) == sorted((tmp_path / p).read_text() for p in matrices)
    assert code == 2 and report.input_digests["spare.tsv"] == hashlib.sha256(b"id\tS1\ng1\t1\n").hexdigest()


def test_cr_and_crlf_inputs_parse_as_lf_inputs(tmp_path):
    text = "sample_id,label\nGSM1,RES\nGSM2,SEN\n\nGSM2,RES\n"
    findings = []
    for ending in ("\n", "\r", "\r\n"):
        data = text.replace("\n", ending).encode()
        (tmp_path / "roster.csv").write_bytes(data)
        manifest = {"inputs": {"r": {"path": "roster.csv", "kind": "roster"}}, "checks": [{"check": "roster", "roster": "r"}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        report, code = run_audit(tmp_path / "manifest.json")
        assert code == 2 and report.input_digests == {"roster.csv": hashlib.sha256(data).hexdigest()}
        findings.append(report.findings)
    assert findings[0] == findings[1] == findings[2]
    assert [f.code for f in findings[0]] == ["ROSTER_DUP", "ROSTER_CONFLICT"]
