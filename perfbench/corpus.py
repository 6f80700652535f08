"""Seeded input corpora for the benchmark workloads, with their planted truth.

Each generator writes one workload's inputs into a directory and records in
``expected.json`` exactly what the program must find there, so the worker
can gate every operation on it. Inputs depend only on the seed. The
generators follow the shapes of ``tests/corpus.py`` and
``tests/fixtures_lib.py`` but do not import them: editing the tests must
never change what the benchmark measures. Only numpy is used here, so a
defect in the program cannot leak into its own expected answers.

Every planted structure is checked against an independent numpy oracle
before the corpus is written; a seed that does not force the truth raises
instead of producing a silently different workload.

    python perfbench/corpus.py --workload audit-paper --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

S = "Sensitive"
R = "Resistant"
U = "Unused"
SENTINEL = "NCI/ADR-RES"
FOREIGN_IDS = ("AFFX-X01_at", "AFFX-X02_at")
# equal-length names, so report bytes do not depend on the seed
GENE_POOL = ("RRAGD", "ERCC1", "ABCB1", "TOP2A", "GSTP1", "BRCA1", "CDK12", "PARP1")
FLIP_ENTITIES = ("NCI-H522", "SK-MEL-5", "HCC-2998", "NCI-H226", "NCI-H460", "NCI-H322")
PIPELINE = "log:2|zscore:n|exp:2|round:2"


@dataclass(frozen=True)
class PanelShape:
    """Shape of an audited expression panel.

    ``extra_copies`` gives, per duplicated line, the number of columns it
    has beyond its first; ``batches`` the sizes of the groups of distinct
    lines that share a batch factor (the remaining lines stand alone).
    """

    n_features: int
    n_distinct: int
    extra_copies: tuple[int, ...]
    batches: tuple[int, ...]
    n_conflicts: int
    n_annotation: int


#: Features of the HG-U133A platform the paper audits.
PAPER_FEATURES = 22283
#: Features of the benchmark's panels: one in eleven of the platform's, so
#: an operation takes 0.1-0.3 s instead of 1-5 s (see README.md).
BENCH_FEATURES = 2000
#: The 122-column duplicate-profile fixture of the test corpus.
SMALL_PANEL = PanelShape(60, 84, (1,) * 14 + (2,) * 6 + (3,) * 4, (10, 8, 12), 1, 400)


def paper_panel(n_features: int) -> PanelShape:
    """The NCI-60 layout, 48 distinct lines plus 12 duplicate columns,
    over ``n_features`` features and as many annotation rows."""
    return PanelShape(n_features, 48, (1,) * 8 + (2,) * 2, (14, 12, 10, 6), 3, n_features)


def feature_ids(n: int) -> list[str]:
    return [f"{200000 + i}_at" for i in range(n)]


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _cell(v: float, digits17: bool) -> str:
    if v != v:
        return "NA"
    return format(v, ".17g") if digits17 else repr(v)


def _matrix_text(fids, sample_ids, labels, values: np.ndarray, sep: str, digits17: bool) -> str:
    out = [sep.join(["id", *sample_ids]), sep.join(["label", *labels])]
    for fid, row in zip(fids, values.tolist()):
        out.append(sep.join([fid, *(_cell(v, digits17) for v in row)]))
    return "\n".join(out) + "\n"


def _components(keys: list) -> list[list[int]]:
    """Columns grouped by key, groups of size >= 2, ordered by first column."""
    groups: dict = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    return sorted((g for g in groups.values() if len(g) >= 2), key=lambda g: g[0])


def _check_margins(values: np.ndarray, same, lo: float, hi: float, what: str) -> None:
    """Oracle: pairs in ``same`` correlate >= lo, all other pairs <= hi."""
    rows = np.isfinite(values).all(axis=1)
    corr = np.corrcoef(values[rows].T)
    off = ~np.eye(len(corr), dtype=bool)
    if (corr[same & off] < lo).any() or (corr[~same & off] > hi).any():
        raise ValueError(f"{what}: the seed does not force the planted truth")


# ---------------------------------------------------------------------------
# audit corpora
# ---------------------------------------------------------------------------

def _panel(rng, shape: PanelShape, planted: bool, raw: bool) -> dict:
    nd, nf = shape.n_distinct, shape.n_features
    batch_of = np.full(nd, -1)
    # which lines play which part is random, but the parts sit at fixed
    # positions of ``order``: duplicated lines fill the first batches and the
    # sentinel stands alone, so component sizes do not depend on the seed
    order = rng.permutation(nd)
    sentinel = int(order[-1])
    dup_lines: list[int] = []
    if planted:
        pos = 0
        for b, size in enumerate(shape.batches):
            batch_of[order[pos : pos + size]] = b
            pos += size
        dup_lines = [int(d) for d in order[: len(shape.extra_copies)]]
    # standardized structure: batch lines share 95% of their variance
    factors = rng.standard_normal((nf, max(len(shape.batches), 1)))
    own = rng.standard_normal((nf, nd))
    z = np.where(batch_of >= 0, math.sqrt(0.95) * factors[:, batch_of] + math.sqrt(0.05) * own, own)
    log_values = 8.0 + 1.5 * z

    columns = [(d, 0) for d in range(nd)]
    for d, extra in zip(dup_lines, shape.extra_copies):
        columns += [(d, k) for k in range(1, extra + 1)]
    columns = [columns[i] for i in rng.permutation(len(columns))]
    n = len(columns)

    line_label = [S if x else R for x in rng.integers(0, 2, nd)]
    line_label[sentinel] = S if planted else R
    conflicted = set(dup_lines[: shape.n_conflicts])
    labels = []
    for d, k in columns:
        flip = k == 1 and d in conflicted
        labels.append({S: R, R: S}[line_label[d]] if flip else line_label[d])
    sample_ids = [SENTINEL if (d, k) == (sentinel, 0) else f"T{j + 1:03d}" for j, (d, k) in enumerate(columns)]

    if raw:
        scale = 10.0 ** rng.uniform(2.0, 5.0, n)
        values = np.column_stack([scale[j] * 2.0 ** ((log_values[:, d] - 8.0) / 2.0) for j, (d, _) in enumerate(columns)])
        values[rng.random(values.shape) < 0.01] = np.nan
    else:
        # odd copies are bitwise duplicates, even copies carry rounding-level noise
        cols = []
        for d, k in columns:
            col = log_values[:, d]
            if k and k % 2 == 0:
                col = col + 0.003 * rng.standard_normal(nf)
            cols.append(col)
        values = np.round(np.column_stack(cols), 4)

    line_keys = [d for d, _ in columns]
    block_keys = [("batch", int(batch_of[d])) if batch_of[d] >= 0 else ("line", d) for d in line_keys]
    same_line = np.equal.outer(line_keys, line_keys)
    _check_margins(values, same_line, 0.99999, 0.999, "duplicate columns")
    same_block = np.array([[a == b for b in block_keys] for a in block_keys])
    _check_margins(values, same_block, 0.85, 0.7, "correlation blocks")

    dups = _components(line_keys)
    blocks = _components(block_keys)

    def ids(comp):
        return [sample_ids[j] for j in comp]

    return {
        "sample_ids": sample_ids,
        "labels": labels,
        "values": values,
        "dup_components": [ids(c) for c in dups],
        "conflicting": [ids(c) for c in dups if len({labels[j] for j in c}) > 1],
        "blocks": [ids(c) for c in blocks],
    }


def _roster(rng, planted: bool) -> tuple[str, list[str], list[str]]:
    ids = [f"GSM{9000 + i}" for i in rng.permutation(80)]
    if not planted:
        entries = [(sid, S if i % 3 else R) for i, sid in enumerate(ids[:40])]
    else:
        entries = [(sid, S) for sid in ids[:13]] + [(sid, R) for sid in ids[13:]]
        entries += [(sid, S) for sid in ids[:2]] + [(sid, R) for sid in ids[13:20]]
        entries += [(sid, S) for sid in ids[74:]]  # second claims that flip
        entries = [entries[i] for i in rng.permutation(len(entries))]
    seen: dict[str, set] = {}
    counts: dict[str, int] = {}
    for sid, lab in entries:
        seen.setdefault(sid, set()).add(lab)
        counts[sid] = counts.get(sid, 0) + 1
    duplicated = [sid for sid in seen if counts[sid] > 1]
    conflicting = [sid for sid in duplicated if len(seen[sid]) > 1]
    text = "sample_id,label,source,note\n" + "".join(f"{sid},{lab},claims,\n" for sid, lab in entries)
    return text, duplicated, conflicting


def _offset(rng, n_annotation: int, planted: bool) -> tuple[list[str], list[str], list[str]]:
    """Annotation ids, generated list, reported list. Listed rows sit >= 8
    rows apart, so only the planted shift (+1) can produce overlap."""
    ann = feature_ids(n_annotation)
    rows = 8 * rng.choice(n_annotation // 8 - 1, 47, replace=False) + 4
    generated = [ann[r] for r in rows[:45]]
    if not planted:
        return ann, generated, list(generated)
    reported = [ann[r - 1] for r in rows[:41]] + [ann[r] for r in rows[45:]] + list(FOREIGN_IDS)
    return ann, generated, [reported[i] for i in rng.permutation(len(reported))]


def _meta(rng, planted: bool) -> str:
    t0 = datetime(2008, 1, 10, 9, tzinfo=timezone.utc) + timedelta(days=int(rng.integers(300)))
    rows = []

    def block(start, n, arm, scanner, prefix, included=True, step_h=6):
        for i in range(n):
            ts = start + timedelta(hours=step_h * i, minutes=int(rng.integers(60)))
            rows.append(f"{prefix}{i + 1:03d},{ts.strftime('%Y-%m-%dT%H:%M:%S+00:00')},{scanner},{arm},{int(included)}")

    if planted:
        block(t0, 20, "FEC", "SC01", "FA")
        block(t0 + timedelta(hours=3), 18, "FEC", "SC01", "FX", included=False)
        block(t0 + timedelta(days=40), 20, "FEC", "SC01", "FB")
        block(t0 + timedelta(days=90), 30, "TET", "SC02", "TE")
    else:
        for b in range(2):
            start = t0 + timedelta(days=40 * b)
            block(start, 10, "FEC", "SC01", f"M{b}F", step_h=4)
            block(start + timedelta(hours=2), 10, "TET", "SC01", f"M{b}T", step_h=4)
    return "sample_id,run_timestamp,scanner_id,treatment_arm,included\n" + "\n".join(rows) + "\n"


def _dose(rng, planted: bool) -> tuple[str, str]:
    # potencies are fixed, so report bytes do not depend on the seed
    fixed = np.random.default_rng(11)
    low = 4.0 + 0.05 * fixed.random(10)
    high = 6.0 + 0.05 * fixed.random(8)
    sens, res = (low, high) if planted else (6.0 + 0.05 * fixed.random(10), 4.0 + 0.05 * fixed.random(8))
    records = [(f"SENS{i + 1:02d}", "pemetrexed", v) for i, v in enumerate(sens)]
    records += [(f"RES{i + 1:02d}", "pemetrexed", v) for i, v in enumerate(res)]
    flat = 4.5 + 0.1 * (fixed.random(20) - 0.5) if planted else np.linspace(4.0, 6.0, 20)
    records += [(f"L{i + 1:02d}", "cyclophosphamide", v) for i, v in enumerate(flat)]
    records = [records[i] for i in rng.permutation(len(records))]
    gi50 = "cell_line,drug_id,measure,value\n" + "".join(f"{c},{d},GI50,{format(float(v), '.17g')}\n" for c, d, v in records)
    lines = [f"SENS{i + 1:02d},{S},panel," for i in range(10)] + [f"RES{i + 1:02d},{R},panel," for i in range(8)]
    return gi50, "sample_id,label,source,note\n" + "\n".join(lines) + "\n"


def _directions(rng, planted: bool) -> tuple[str, list[str]]:
    genes = [GENE_POOL[i] for i in rng.permutation(len(GENE_POOL))][:5]
    conflicted = genes[:2] if planted else []
    entries = [(g, "UpInSensitive" if i % 2 else "UpInResistant") for i, g in enumerate(genes)]
    entries += [(g, "UpInResistant" if i % 2 else "UpInSensitive") for i, g in enumerate(conflicted)]
    entries = [entries[i] for i in rng.permutation(len(entries))]
    order = list(dict.fromkeys(g for g, _ in entries))
    return "".join(f"{g},{d}\n" for g, d in entries), [g for g in order if g in conflicted]


def _flips(rng, planted: bool) -> tuple[str, str, list[str]]:
    labels = {e: (S if x else R) for e, x in zip(FLIP_ENTITIES, rng.integers(0, 2, len(FLIP_ENTITIES)))}
    flipped = sorted(rng.choice(FLIP_ENTITIES, 2, replace=False).tolist()) if planted else []
    later = {e: ({S: R, R: S}[lab] if e in flipped else lab) for e, lab in labels.items()}

    def roster(labs, source):
        return "sample_id,label,source,note\n" + "".join(f"{e},{lab},{source},\n" for e, lab in labs.items())

    return roster(labels, "heatmap-2006"), roster(later, "genelist-2007"), flipped


def write_audit_corpus(root: Path, seed: int, shape: PanelShape, raw: bool = False, planted: bool = True) -> dict:
    """Write one audit manifest with its inputs; return its expectation:
    the manifest name, the exit code and the exact findings in report
    order (code, severity, subjects and the metrics that are forced)."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1 if raw else 0, 1 if planted else 0, shape.n_features])
    panel = _panel(rng, shape, planted, raw)
    sep, fmt = (",", {"delimiter": "comma"}) if raw else ("\t", {"delimiter": "tab"})
    fids = feature_ids(shape.n_features)
    values = panel["values"]
    _write(root / "panel.txt", _matrix_text(fids, panel["sample_ids"], panel["labels"], values, sep, raw))
    rounded = values if planted else rng.standard_normal(values.shape) + 8.0
    _write(root / "panel_rounded.txt", _matrix_text(fids, panel["sample_ids"], panel["labels"], np.round(rounded, 2), sep, False))

    roster_text, roster_dups, roster_conflicts = _roster(rng, planted)
    _write(root / "roster.csv", roster_text)
    ann, generated, reported = _offset(rng, shape.n_annotation, planted)
    _write(root / "annotation.txt", "\n".join(["HG-U133A", *ann]) + "\n")
    _write(root / "generated.csv", "\n".join(generated) + "\n")
    _write(root / "reported.csv", "\n".join(reported) + "\n")
    _write(root / "meta.csv", _meta(rng, planted))
    gi50, lines = _dose(rng, planted)
    _write(root / "gi50.csv", gi50)
    _write(root / "lines.csv", lines)
    dir_text, dir_conflicts = _directions(rng, planted)
    _write(root / "dir_sig.csv", dir_text)
    early, late, flipped = _flips(rng, planted)
    _write(root / "labels_2006.csv", early)
    _write(root / "labels_2007.csv", late)

    kinds = {
        "panel": ("panel.txt", "matrix"),
        "panel_rounded": ("panel_rounded.txt", "matrix"),
        "reported": ("reported.csv", "signature"),
        "generated": ("generated.csv", "signature"),
        "annotation": ("annotation.txt", "annotation"),
        "meta": ("meta.csv", "meta"),
        "roster": ("roster.csv", "roster"),
        "labels_2006": ("labels_2006.csv", "roster"),
        "labels_2007": ("labels_2007.csv", "roster"),
        "gi50": ("gi50.csv", "sensitivity"),
        "lines": ("lines.csv", "roster"),
        "dir_sig": ("dir_sig.csv", "signature"),
    }
    inputs = {name: {"path": path, "kind": kind} for name, (path, kind) in kinds.items()}
    inputs["panel"]["format"] = inputs["panel_rounded"]["format"] = fmt
    sentinel = {"sample_id": SENTINEL, "expected": R, "reason": "line selected for drug resistance"}
    manifest = {
        "schema_version": "1",
        "inputs": inputs,
        "checks": [
            {"check": "validate", "matrix": "panel"},
            {"check": "dup", "matrix": "panel", "threshold": 0.9999},
            {"check": "roster", "roster": "roster"},
            {"check": "offset", "reported": "reported", "generated": "generated", "annotation": "annotation", "max_shift": 3},
            {"check": "platform", "signature": "reported", "annotation": "annotation"},
            {"check": "sentinels", "matrix": "panel", "sentinels": [sentinel]},
            {"check": "dose", "sensitivity": "gi50", "labels": "lines", "drug": "pemetrexed", "measure": "GI50", "tests": ["reversal", "separation"]},
            {"check": "dose", "sensitivity": "gi50", "labels": "lines", "drug": "cyclophosphamide", "measure": "GI50", "tests": ["flat"]},
            {"check": "confound", "meta": "meta", "gap_days": 7},
            {"check": "blocks", "matrix": "panel", "threshold": 0.8},
            {"check": "reuse", "a": "panel", "b": "panel_rounded", "digits": 2},
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
    _write(root / "manifest.json", json.dumps(manifest, indent=2) + "\n")

    if not planted:
        return {"manifest": "manifest.json", "exit_code": 0, "findings": []}

    def finding(code, severity, subjects, **metrics):
        return {"code": code, "severity": severity, "subjects": list(subjects), "metrics": metrics}

    n = len(panel["sample_ids"])
    dups = panel["dup_components"]
    row = {fid: i for i, fid in enumerate(ann)}
    matched = {fid for fid in reported if fid in row and ann[row[fid] + 1] in set(generated)}
    outliers = [fid for fid in reported if fid not in matched]
    foreign = [fid for fid in reported if fid in FOREIGN_IDS]
    findings = [
        finding("DUP_COLUMNS", "Warning", [s for c in dups for s in c], n_samples=n, n_distinct=shape.n_distinct, n_components=len(dups)),
        *(finding("DUP_INCONSISTENT_LABELS", "Critical", c, component_size=len(c)) for c in panel["conflicting"]),
        finding("ROSTER_DUP", "Warning", roster_dups, n_entries=95, n_distinct=80, n_duplicated=len(roster_dups)),
        finding("ROSTER_CONFLICT", "Critical", roster_conflicts, n_conflicting=len(roster_conflicts)),
        finding("OFFSET_DETECTED", "Critical", outliers, best_shift=1, overlap_at_best=41, overlap_at_zero=0, n_reported=45),
        finding("PLATFORM_MISMATCH", "Critical", foreign, n_foreign=len(foreign)),
        finding("PLATFORM_MISMATCH", "Critical", foreign, n_absent=len(foreign)),
        finding("SENTINEL_VIOLATION", "Critical", [SENTINEL]),
        finding("LABEL_REVERSAL", "Critical", ["pemetrexed"], direction_auc=0.0),
        finding("SEPARATION_OVERLAP", "Warning", ["pemetrexed"], misfit_count=8),
        finding("FLAT_RESPONSE", "Warning", ["cyclophosphamide"]),
        finding("CONFOUND_PERFECT", "Critical", ["FEC", "TET"], cramers_v=1.0, n_batches=3),
        finding(
            "BLOCK_STRUCTURE",
            "Warning",
            [s for c in panel["blocks"] for s in c],
            n_blocks=len(panel["blocks"]),
            largest_block=max(len(c) for c in panel["blocks"]),
        ),
        finding("REUSED_ARTIFACT", "Critical", ["panel", "panel_rounded"], digits=2, n_features=shape.n_features, n_samples=n),
        finding("DIRECTION_CONFLICT", "Warning", dir_conflicts, n_conflicted=len(dir_conflicts)),
        finding("LABELING_FLIP", "Critical", flipped, n_entities=len(flipped), n_sources=2),
    ]
    return {"manifest": "manifest.json", "exit_code": 2, "findings": findings}


# ---------------------------------------------------------------------------
# reconstruction corpus
# ---------------------------------------------------------------------------

def _top_genes(values: np.ndarray, state: list[str], k: int) -> np.ndarray:
    """Oracle for the reported list: top-k rows by |pooled t|, Sensitive
    minus Resistant, ties broken by ascending row index."""
    state = np.array(state)
    x1, x2 = values[:, state == S], values[:, state == R]
    n1, n2 = x1.shape[1], x2.shape[1]
    m1, m2 = x1.mean(axis=1), x2.mean(axis=1)
    pooled = (((x1 - m1[:, None]) ** 2).sum(axis=1) + ((x2 - m2[:, None]) ** 2).sum(axis=1)) / (n1 + n2 - 2)
    t = (m1 - m2) / np.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    return np.lexsort((np.arange(len(t)), -np.abs(t)))[:k]


def _pipeline_oracle(x: np.ndarray) -> np.ndarray:
    """log:2 | zscore:n | exp:2 | round:2, row-wise."""
    z = np.log(x) / math.log(2.0)
    z = (z - np.nanmean(z, axis=1, keepdims=True)) / np.nanstd(z, axis=1, keepdims=True)
    return np.round(np.power(2.0, z), 2) + 0.0


def write_reconstruct_corpus(root: Path, seed: int, n_features: int, n_query: int, k: int = 20, effect: float = 8.0) -> dict:
    """Planted 8 Sensitive / 8 Resistant / 8 Unused panel with one decoy
    gene per used line (the design of ``fixtures_lib.planted_panel``).

    The core genes 0..k-1 carry ``effect`` in the Sensitive lines. A used
    line's decoy marks its own group (and the Unused lines) at 1.5 x
    ``effect`` but is absent at that line itself. While the line sits in
    its true group that hole keeps the decoy far below the core genes;
    once the line leaves its group, either way, the decoy outranks them
    and the score drops by one. Here the fixture's -3 x ``effect`` poison
    would leave a line moved to the wrong group unpenalized, and with
    a paper-scale panel such a state ties with the truth often enough to derail
    the search. The search starts with the first Sensitive and the first
    Resistant line dropped: two lines from the truth, each restored by the
    first improving neighbor in tie-break order.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, n_features, 2])
    lines = [f"CL{i + 1:02d}" for i in range(24)]
    truth = [S] * 8 + [R] * 8 + [U] * 8
    values = rng.standard_normal((n_features, 24))
    values[:k, :8] += effect
    used = [j for j, lab in enumerate(truth) if lab != U]
    for d, line in enumerate(used):
        opposite = R if truth[line] == S else S
        for j, lab in enumerate(truth):
            if j != line and lab != opposite:
                values[k + d, j] += 1.5 * effect
    top = _top_genes(values, truth, k)
    if sorted(top.tolist()) != list(range(k)):
        raise ValueError("reconstruct: the seed does not force the core genes into the reported list")
    start = list(truth)
    start[0] = start[8] = U

    rows = rng.choice(n_features, n_query, replace=False)
    query = np.round(values[rows], 4)
    reference = 2.0 ** (8.0 + values / 4.0)
    np.savez(root / "reconstruct.npz", panel=values, query=query, reference=reference, transformed=_pipeline_oracle(reference))
    fids = feature_ids(n_features)
    return {
        "lines": lines,
        "truth": truth,
        "start": start,
        "k": k,
        "target": [fids[i] for i in top],
        "query_ids": [f"Q{i + 1:05d}" for i in range(n_query)],
        "query_rows": [fids[i] for i in rows],
        "pipeline": PIPELINE,
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def write_workload(workload: str, seed: int, out: Path, n_features: int = BENCH_FEATURES) -> dict:
    """Write a workload's corpus into ``out`` and its expectation into
    ``out/expected.json``; return the expectation. ``n_features`` sets the
    rows of the paper-layout panels (``PAPER_FEATURES`` for paper scale);
    ``audit-small`` ignores it."""
    if workload in ("audit-paper", "audit-raw-missing"):
        shape = paper_panel(n_features)
        expected = {"audits": [write_audit_corpus(out, seed, shape, raw=workload == "audit-raw-missing")]}
        expected["shapes"] = {"panel": [shape.n_features, shape.n_distinct + sum(shape.extra_copies)]}
    elif workload == "audit-small":
        expected = {
            "audits": [
                dict(write_audit_corpus(out / "corrupted", seed, SMALL_PANEL), manifest="corrupted/manifest.json"),
                dict(write_audit_corpus(out / "clean", seed, SMALL_PANEL, planted=False), manifest="clean/manifest.json"),
            ],
            "shapes": {"panel": [SMALL_PANEL.n_features, SMALL_PANEL.n_distinct + sum(SMALL_PANEL.extra_copies)]},
        }
    elif workload == "reconstruct":
        n_query = min(1000, n_features // 2)
        expected = {"reconstruct": write_reconstruct_corpus(out, seed, n_features, n_query)}
        expected["shapes"] = {"panel": [n_features, 24], "query": [n_query, 24]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write(out / "expected.json", json.dumps(expected, indent=1) + "\n")
    return expected


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--features", type=int, default=BENCH_FEATURES)
    args = ap.parse_args()
    write_workload(args.workload, args.seed, args.out, args.features)


if __name__ == "__main__":
    main()
