"""Builders for the end-to-end audit corpora.

``write_corrupted_corpus`` plants every defect class the tool audits for;
``write_clean_corpus`` builds the same input shapes defect-free. Both
return the manifest path.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import fixtures_lib as fx
from arrayaudit import ingest
from arrayaudit.core import (
    Direction,
    GroupLabel,
    LabeledMatrix,
    LabelRoster,
    RosterEntry,
    SensitivityRecord,
    Measure,
    SignatureList,
)

S = GroupLabel.SENSITIVE
R = GroupLabel.RESISTANT


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _training_matrix(reversed_labels: bool) -> LabeledMatrix:
    rng = np.random.default_rng(23)
    lines = ("NCI/ADR-RES", "SF-539", "SNB-75", "HCT-15", "HT29", "EKVX")
    labels = {
        "NCI/ADR-RES": S if reversed_labels else R,
        "SF-539": R,
        "SNB-75": R,
        "HCT-15": S if not reversed_labels else R,
        "HT29": S,
        "EKVX": S,
    }
    return LabeledMatrix(
        tuple(f"p{i:03d}_at" for i in range(12)),
        lines,
        rng.standard_normal((12, 6)),
        labels,
    )


def _dose_records_clean() -> tuple[list[SensitivityRecord], LabelRoster]:
    rng = np.random.default_rng(31)
    records = []
    entries = []
    for i in range(6):
        line = f"CS{i + 1:02d}"
        records.append(SensitivityRecord(line, "drugX", Measure.GI50, 6.0 + 0.3 * float(rng.random())))
        entries.append(RosterEntry(line, S, "panel"))
    for i in range(6):
        line = f"CR{i + 1:02d}"
        records.append(SensitivityRecord(line, "drugX", Measure.GI50, 4.0 + 0.3 * float(rng.random())))
        entries.append(RosterEntry(line, R, "panel"))
    return records, LabelRoster(tuple(entries))


def write_corrupted_corpus(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)

    test_matrix, _ = fx.duplicate_profile_matrix()
    _write(root / "test_matrix.tsv", ingest.serialize_matrix(test_matrix))

    _write(root / "train_matrix.tsv", ingest.serialize_matrix(_training_matrix(reversed_labels=True)))

    reported, ann, generated = fx.offset_fixture()
    _write(root / "reported_sig.csv", ingest.serialize_signature(reported))
    _write(root / "generated_sig.csv", ingest.serialize_signature(generated))
    _write(root / "annotation.txt", ingest.serialize_annotation(ann))

    _write(root / "meta.csv", ingest.serialize_sample_meta(fx.confound_meta()))

    rng = np.random.default_rng(91)
    shared_values = rng.standard_normal((43, 15))
    cis = LabeledMatrix(tuple(f"c{i:03d}_at" for i in range(43)), tuple(f"CL{j:02d}" for j in range(15)), shared_values)
    tem = LabeledMatrix(tuple(f"t{i:03d}_at" for i in range(43)), tuple(f"TM{j:02d}" for j in range(15)), shared_values)
    _write(root / "cis_matrix.tsv", ingest.serialize_matrix(cis))
    _write(root / "tem_matrix.tsv", ingest.serialize_matrix(tem))

    roster, _ = fx.roster95()
    _write(root / "roster95.csv", ingest.serialize_roster(roster))

    flip_a = LabelRoster((RosterEntry("NCI-H522", S, "heatmap-2006"), RosterEntry("SK-MEL-5", R, "heatmap-2006")))
    flip_b = LabelRoster((RosterEntry("NCI-H522", R, "genelist-2007"), RosterEntry("SK-MEL-5", S, "genelist-2007")))
    _write(root / "labels_2006.csv", ingest.serialize_roster(flip_a))
    _write(root / "labels_2007.csv", ingest.serialize_roster(flip_b))

    pem_records, pem_labels = fx.pemetrexed_reversal_records()
    records = pem_records + fx.prodrug_flat_records()
    _write(root / "gi50.csv", ingest.serialize_sensitivity(records))
    pem_roster = LabelRoster(tuple(RosterEntry(line, lab, "panel") for line, lab in pem_labels.items()))
    _write(root / "lines_roster.csv", ingest.serialize_roster(pem_roster))

    # RRAGD is listed twice, up in each group: a direction conflict
    dir_sig = SignatureList(
        ("RRAGD", "SFN", "SLC43A3", "ERCC1", "RRAGD"),
        (
            ("RRAGD", Direction.UP_IN_RESISTANT),
            ("SFN", Direction.UP_IN_SENSITIVE),
            ("SLC43A3", Direction.UP_IN_SENSITIVE),
            ("ERCC1", Direction.UP_IN_RESISTANT),
            ("RRAGD", Direction.UP_IN_SENSITIVE),
        ),
    )
    _write(root / "dir_sig.csv", ingest.serialize_signature(dir_sig))

    _write(root / "blocks_matrix.tsv", ingest.serialize_matrix(fx.block_structured_matrix()))

    manifest = {
        "schema_version": "1",
        "inputs": {
            "test_matrix": {"path": "test_matrix.tsv", "kind": "matrix"},
            "train_matrix": {"path": "train_matrix.tsv", "kind": "matrix"},
            "reported": {"path": "reported_sig.csv", "kind": "signature"},
            "generated": {"path": "generated_sig.csv", "kind": "signature"},
            "annotation": {"path": "annotation.txt", "kind": "annotation"},
            "meta": {"path": "meta.csv", "kind": "meta"},
            "cis_matrix": {"path": "cis_matrix.tsv", "kind": "matrix"},
            "tem_matrix": {"path": "tem_matrix.tsv", "kind": "matrix"},
            "roster95": {"path": "roster95.csv", "kind": "roster"},
            "labels_2006": {"path": "labels_2006.csv", "kind": "roster"},
            "labels_2007": {"path": "labels_2007.csv", "kind": "roster"},
            "gi50": {"path": "gi50.csv", "kind": "sensitivity"},
            "lines": {"path": "lines_roster.csv", "kind": "roster"},
            "dir_sig": {"path": "dir_sig.csv", "kind": "signature"},
            "blocks_matrix": {"path": "blocks_matrix.tsv", "kind": "matrix"},
        },
        "checks": [
            {"check": "validate", "matrix": "test_matrix"},
            {"check": "dup", "matrix": "test_matrix", "threshold": 0.9999},
            {"check": "roster", "roster": "roster95"},
            {"check": "offset", "reported": "reported", "generated": "generated", "annotation": "annotation", "max_shift": 3},
            {"check": "platform", "signature": "reported", "annotation": "annotation"},
            {
                "check": "sentinels",
                "matrix": "train_matrix",
                "sentinels": [
                    {"sample_id": "NCI/ADR-RES", "expected": "Resistant", "reason": "line selected for drug resistance"}
                ],
            },
            {"check": "dose", "sensitivity": "gi50", "labels": "lines", "drug": "pemetrexed", "measure": "GI50", "tests": ["reversal", "separation"]},
            {"check": "dose", "sensitivity": "gi50", "labels": "lines", "drug": "cyclophosphamide", "measure": "GI50", "tests": ["flat"]},
            {"check": "confound", "meta": "meta", "gap_days": 7},
            {"check": "blocks", "matrix": "blocks_matrix", "threshold": 0.8},
            {"check": "reuse", "a": "cis_matrix", "b": "tem_matrix", "digits": 2},
            {"check": "directions", "signature": "dir_sig"},
            {
                "check": "flips",
                "sources": [
                    {"roster": "labels_2006", "source_id": "heatmap-2006", "drug_id": "doxorubicin"},
                    {"roster": "labels_2007", "source_id": "genelist-2007", "drug_id": "doxorubicin"},
                ],
            },
        ],
        "output": "report.json",
    }
    manifest_path = root / "manifest.json"
    _write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def write_clean_corpus(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(57)

    labels = {f"C{j:03d}": (S if j % 2 else R) for j in range(30)}
    clean_matrix = LabeledMatrix(
        tuple(f"g{i}" for i in range(40)),
        tuple(f"C{j:03d}" for j in range(30)),
        rng.standard_normal((40, 30)),
        labels,
    )
    _write(root / "clean_matrix.tsv", ingest.serialize_matrix(clean_matrix))

    _write(root / "train_matrix.tsv", ingest.serialize_matrix(_training_matrix(reversed_labels=False)))

    _, ann, generated = fx.offset_fixture()
    _write(root / "generated_sig.csv", ingest.serialize_signature(generated))
    _write(root / "annotation.txt", ingest.serialize_annotation(ann))

    # two balanced run blocks: both arms present in both batches
    from datetime import datetime, timedelta, timezone

    from arrayaudit.core import SampleMeta

    metas = []
    t0 = datetime(2008, 1, 10, 9, 0, 0, tzinfo=timezone.utc)
    for b, start in enumerate((t0, t0 + timedelta(days=40))):
        for i in range(10):
            metas.append(SampleMeta(f"M{b}F{i:02d}", start + timedelta(hours=4 * i), "SC01", "FEC", True))
            metas.append(SampleMeta(f"M{b}T{i:02d}", start + timedelta(hours=4 * i + 2), "SC01", "TET", True))
    _write(root / "meta.csv", ingest.serialize_sample_meta(metas))

    m_a = LabeledMatrix(tuple(f"c{i:03d}_at" for i in range(43)), tuple(f"CL{j:02d}" for j in range(15)), rng.standard_normal((43, 15)))
    m_b = LabeledMatrix(tuple(f"t{i:03d}_at" for i in range(43)), tuple(f"TM{j:02d}" for j in range(15)), rng.standard_normal((43, 15)))
    _write(root / "cis_matrix.tsv", ingest.serialize_matrix(m_a))
    _write(root / "tem_matrix.tsv", ingest.serialize_matrix(m_b))

    roster = LabelRoster(tuple(RosterEntry(f"GSM{8000 + i}", S if i % 3 else R, "claims") for i in range(40)))
    _write(root / "roster.csv", ingest.serialize_roster(roster))

    flip_a = LabelRoster((RosterEntry("NCI-H522", R, "heatmap-2006"), RosterEntry("SK-MEL-5", S, "heatmap-2006")))
    flip_b = LabelRoster((RosterEntry("NCI-H522", R, "genelist-2007"), RosterEntry("SK-MEL-5", S, "genelist-2007")))
    _write(root / "labels_2006.csv", ingest.serialize_roster(flip_a))
    _write(root / "labels_2007.csv", ingest.serialize_roster(flip_b))

    records, lines_roster = _dose_records_clean()
    _write(root / "gi50.csv", ingest.serialize_sensitivity(records))
    _write(root / "lines_roster.csv", ingest.serialize_roster(lines_roster))

    dir_sig = SignatureList(
        ("RRAGD", "SFN", "ERCC1"),
        (
            ("RRAGD", Direction.UP_IN_RESISTANT),
            ("SFN", Direction.UP_IN_SENSITIVE),
            ("ERCC1", Direction.UP_IN_RESISTANT),
        ),
    )
    _write(root / "dir_sig.csv", ingest.serialize_signature(dir_sig))

    manifest = {
        "schema_version": "1",
        "inputs": {
            "clean_matrix": {"path": "clean_matrix.tsv", "kind": "matrix"},
            "train_matrix": {"path": "train_matrix.tsv", "kind": "matrix"},
            "generated": {"path": "generated_sig.csv", "kind": "signature"},
            "annotation": {"path": "annotation.txt", "kind": "annotation"},
            "meta": {"path": "meta.csv", "kind": "meta"},
            "cis_matrix": {"path": "cis_matrix.tsv", "kind": "matrix"},
            "tem_matrix": {"path": "tem_matrix.tsv", "kind": "matrix"},
            "roster": {"path": "roster.csv", "kind": "roster"},
            "labels_2006": {"path": "labels_2006.csv", "kind": "roster"},
            "labels_2007": {"path": "labels_2007.csv", "kind": "roster"},
            "gi50": {"path": "gi50.csv", "kind": "sensitivity"},
            "lines": {"path": "lines_roster.csv", "kind": "roster"},
            "dir_sig": {"path": "dir_sig.csv", "kind": "signature"},
        },
        "checks": [
            {"check": "validate", "matrix": "clean_matrix"},
            {"check": "dup", "matrix": "clean_matrix", "threshold": 0.9999},
            {"check": "roster", "roster": "roster"},
            {"check": "offset", "reported": "generated", "generated": "generated", "annotation": "annotation", "max_shift": 3},
            {"check": "platform", "signature": "generated", "annotation": "annotation"},
            {
                "check": "sentinels",
                "matrix": "train_matrix",
                "sentinels": [
                    {"sample_id": "NCI/ADR-RES", "expected": "Resistant", "reason": "line selected for drug resistance"}
                ],
            },
            {"check": "dose", "sensitivity": "gi50", "labels": "lines", "drug": "drugX", "measure": "GI50", "tests": ["reversal", "separation", "flat"]},
            {"check": "confound", "meta": "meta", "gap_days": 7},
            {"check": "blocks", "matrix": "clean_matrix", "threshold": 0.8},
            {"check": "reuse", "a": "cis_matrix", "b": "tem_matrix", "digits": 2},
            {"check": "directions", "signature": "dir_sig"},
            {
                "check": "flips",
                "sources": [
                    {"roster": "labels_2006", "source_id": "heatmap-2006", "drug_id": "doxorubicin"},
                    {"roster": "labels_2007", "source_id": "genelist-2007", "drug_id": "doxorubicin"},
                ],
            },
        ],
        "output": "report.json",
    }
    manifest_path = root / "manifest.json"
    _write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return manifest_path
