"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s to see them). Every expected value is either
forced arithmetic or checked against an independent in-test oracle.
"""

import itertools
import json

import numpy as np
import pytest
import scipy.stats

import corpus
import fixtures_lib as fx
from arrayaudit import ingest
from arrayaudit.audit import FINDING_CODES, run_audit
from arrayaudit.core import (
    AnnotationIndex,
    GroupLabel,
    LabeledMatrix,
    Measure,
    SensitivityRecord,
    Severity,
    SignatureList,
)
from arrayaudit.dupscan import (
    classify_duplicate_labels,
    cross_tabulate,
    find_duplicate_columns,
    roster_duplicates,
    roster_labeling,
)
from arrayaudit.groupsearch import Assignment, steepest_ascent
from arrayaudit.integrity import (
    check_separation,
    combine_probabilities,
    infer_batches,
    raw_combination_score,
    renormalize_batch,
    test_confounding as run_confounding,
)
from arrayaudit.matchscan import detect_offset, match_rows, check_platform_membership
from arrayaudit.signature import (
    auc,
    metagene_scores,
    probit_gradient,
    probit_loglik,
)
from arrayaudit.transform import apply_pipeline, default_candidate_grid, infer_pipeline

S = GroupLabel.SENSITIVE
R = GroupLabel.RESISTANT
U = GroupLabel.UNUSED


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_acceptance_01_duplicate_census():
    m, special = fx.duplicate_profile_matrix()
    comps = find_duplicate_columns(m)
    assert comps.n_samples == 122
    assert comps.n_distinct == 84
    assert comps.multiplicity_histogram == {1: 60, 2: 14, 3: 6, 4: 4}
    _, inconsistent = classify_duplicate_labels(comps, m.labels)
    assert len(inconsistent) >= 1
    special_multisets = [ms for comp, ms in inconsistent if comp == special]
    assert special_multisets == [{S: 1, R: 3}]
    _ok(1, "122-column fixture: 84 distinct, 4-member component labeled S/R/R/R")


def test_acceptance_02_roster_census_and_crosstab():
    roster, source_rules = fx.roster95()
    n_distinct, duplicated, inconsistent = roster_duplicates(roster)
    assert (n_distinct, len(duplicated), len(inconsistent)) == (80, 15, 6)
    table = cross_tabulate(roster_labeling(roster), source_rules)
    assert table.counts == ((13, 0, 0), (29, 10, 22), (6, 0, 0))
    _ok(2, "roster census (80, 15, 6); joint-classification table reproduced exactly")


def test_acceptance_03_pipeline_recovery_full_grid():
    rng = np.random.default_rng(303)
    ref = LabeledMatrix(
        tuple(f"g{i}" for i in range(200)),
        tuple(f"s{j}" for j in range(20)),
        np.exp(rng.standard_normal((200, 20))),
    )
    grid = default_candidate_grid()
    assert len(grid) == 12
    for true in grid:
        query = apply_pipeline(ref, true)
        best, fit, _ = infer_pipeline(query, ref, grid)
        assert best == true, f"{true.spec()} not recovered (got {best.spec()})"
        if any(s.kind == "round" for s in true.steps):
            assert fit >= 0.999
        else:
            assert abs(fit - 1.0) <= 1e-12
    _ok(3, "all 12 grid pipelines recovered on 200x20 data at stated fits")


def test_acceptance_04_row_identification_at_scale():
    rng = np.random.default_rng(404)
    values = np.exp(rng.standard_normal((1000, 22)))
    reference = LabeledMatrix(
        tuple(f"r{i}" for i in range(1000)), tuple(f"s{j}" for j in range(22)), values
    )
    pipe = default_candidate_grid()[1]  # log/zscore/exp with Round(2)
    transformed = apply_pipeline(reference, pipe)
    perm = rng.permutation(1000)
    query = LabeledMatrix(
        tuple(f"q{i}" for i in range(1000)), reference.sample_ids, transformed.values[perm]
    )
    res = match_rows(query, transformed, min_corr=0.999)
    assert res.n_matched == 1000
    assert res.n_ambiguous == 0 and res.n_unmatched == 0
    for qi, ri in enumerate(perm):
        assert res.mapping[f"q{qi}"] == f"r{ri}"
    _ok(4, "1000/1000 transformed, permuted rows identified with zero ambiguity")


def test_acceptance_05_offset_recovery():
    rng = np.random.default_rng(505)
    ann = AnnotationIndex("U133A-like", tuple(f"P{i:04d}" for i in range(400)))
    gen_rows = [8 + 8 * i for i in range(40)]  # spaced beyond max_shift
    generated = SignatureList(tuple(ann.feature_ids[r] for r in gen_rows))
    for shift in range(-3, 4):
        reported_ids = [ann.feature_ids[r - shift] for r in gen_rows[:36]]
        reported_ids += [ann.feature_ids[395], ann.feature_ids[398]]  # unmatched on-platform
        reported_ids += ["FOREIGN_1", "FOREIGN_2"]  # 10% contamination total
        res = detect_offset(SignatureList(tuple(reported_ids)), ann, generated, max_shift=3)
        assert res.best_shift == shift, f"planted {shift}, got {res.best_shift}"
        assert res.overlap_at_best == 36
        assert len(res.outliers) == 4

    reported, cis_ann, cis_gen = fx.offset_fixture()
    res = detect_offset(reported, cis_ann, cis_gen, max_shift=3)
    assert res.best_shift == 1
    assert res.overlap_at_best == 41
    assert len(res.outliers) == 4
    absent = check_platform_membership(reported, cis_ann)
    assert len(absent) == 2
    _ok(5, "shifts -3..3 recovered under contamination; 41/45 overlap, 4 outliers, 2 off-platform")


@pytest.mark.parametrize("seed,n_sens,n_res,n_unused", [(2025, 7, 7, 6), (2041, 8, 8, 8), (2026, 10, 10, 10)])
def test_acceptance_06_steepest_ascent(seed, n_sens, n_res, n_unused):
    panel, truth, target = fx.planted_panel(seed, n_sens, n_res, n_unused, k=20, effect=4.0)
    used = [l for l, lab in truth.items() if lab in (S, R)]
    n = panel.n_samples
    pairs = list(itertools.combinations(range(0, len(used), 2), 2))[:8]
    for i, j in pairs:
        start = dict(truth)
        start[used[i]] = U
        start[used[j]] = U
        result = steepest_ascent(Assignment(start), panel, target, 20)
        assert result.final.state == truth
        scores = [m.score for m in result.trajectory]
        assert scores == sorted(set(scores))  # strictly increasing
        assert all(count == 2 * n for count in result.neighbors_per_step)
    _ok(6, f"{n}-line panel: planted assignment recovered from 2-error starts, 2N={2 * n} neighbors/step")


def test_acceptance_07_numeric_kernels():
    rng = np.random.default_rng(707)

    # probit gradient vs central finite differences at 100 random points
    s = rng.standard_normal(80)
    y = (rng.random(80) < 0.5).astype(int)
    y[0], y[1] = 0, 1
    h = 1e-5
    for _ in range(100):
        a, b = rng.normal(scale=1.0, size=2)
        g = probit_gradient(a, b, s, y)
        fd = np.array(
            [
                (probit_loglik(a + h, b, s, y) - probit_loglik(a - h, b, s, y)) / (2 * h),
                (probit_loglik(a, b + h, s, y) - probit_loglik(a, b - h, s, y)) / (2 * h),
            ]
        )
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    # metagene scores vs a dense eigensolve of the Gram matrix
    x = rng.standard_normal((45, 30))
    sub = LabeledMatrix(tuple(f"g{i}" for i in range(45)), tuple(f"s{j}" for j in range(30)), x)
    scores = metagene_scores(sub)
    xc = x - x.mean(axis=1, keepdims=True)
    w, vecs = np.linalg.eigh(xc.T @ xc)
    oracle = np.sqrt(w[-1]) * vecs[:, -1]
    if oracle[np.argmax(np.abs(oracle))] < 0:
        oracle = -oracle
    np.testing.assert_allclose(scores, oracle, atol=1e-8)

    # AUC vs brute-force pair concordance on 500 random instances
    for _ in range(500):
        n = int(rng.integers(4, 30))
        sc = np.round(rng.standard_normal(n), 1)
        lab = rng.integers(0, 2, size=n)
        if lab.sum() in (0, n):
            lab[0] = 1 - lab[0]
        pos = sc[lab == 1]
        neg = sc[lab == 0]
        wins = sum(1.0 if a > b else (0.5 if a == b else 0.0) for a in pos for b in neg)
        brute = wins / (len(pos) * len(neg))
        got = auc(sc, lab)
        assert abs(got - brute) <= 1e-12
        assert auc(sc, 1 - lab) == 1.0 - got
    _ok(7, "probit gradient, metagene eigensolve, AUC concordance and exact inversion")


def test_acceptance_08_combination_rules():
    assert raw_combination_score({"T": 0.5, "F": 0.5, "A": 0.5, "C": 0.5}, "tfac") == 1.9375
    assert combine_probabilities({"E": 0.3, "T": 0.7}, "tet") == 0.7
    assert combine_probabilities({"F": 0.2, "E": 0.4, "C": 0.6}, "fec") == pytest.approx(0.5, abs=1e-15)
    assert raw_combination_score({"F": 1.0, "E": 1.0, "C": 1.0}, "fec") == 1.625
    assert combine_probabilities({"F": 1.0, "E": 1.0, "C": 1.0}, "fec") == 1.0
    normalized = renormalize_batch([1.2, 1.9375, 1.5], "tfac")
    assert normalized[0] == 0.0 and normalized[1] == 1.0
    assert normalized[2] == pytest.approx(0.3 / 0.7375, rel=1e-12)
    rng = np.random.default_rng(808)
    for _ in range(10000):
        f, e, c = rng.uniform(0, 1, 3)
        out = combine_probabilities({"F": f, "E": e, "C": c}, "fec")
        assert 0.0 <= out <= 1.0
    _ok(8, "combination rules exact values; affine-mean output bounded over 10^4 trials")


def test_acceptance_09_confounding():
    metas = [m for m in fx.confound_meta() if m.included]
    batches = infer_batches(metas)
    assert len(set(batches.values())) == 3
    treatments = {m.sample_id: m.treatment_arm for m in metas}
    res = run_confounding(batches, treatments)
    assert res.perfect
    assert res.cramers_v == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(3)  # verified balanced seed
    rand_batches = {f"s{i}": f"b{rng.integers(0, 2)}" for i in range(200)}
    rand_treat = {f"s{i}": f"t{rng.integers(0, 2)}" for i in range(200)}
    res2 = run_confounding(rand_batches, rand_treat)
    assert not res2.perfect
    assert res2.cramers_v < 0.15
    counts = np.array(res2.table.counts)
    chi2 = scipy.stats.chi2_contingency(counts, correction=False)[0]
    assert res2.cramers_v == pytest.approx(
        float(np.sqrt(chi2 / (counts.sum() * (min(counts.shape) - 1)))), abs=1e-12
    )
    _ok(9, "3 batches, perfect confounding, V = 1; balanced design V < 0.15")


def test_acceptance_10_dose_response(tmp_path):
    # brute-force separation equals an independent exhaustive scan
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        n_s = int(rng.integers(1, 9))
        n_r = int(rng.integers(1, 9))
        sens = list(np.round(rng.normal(5, 1, n_s), 1))
        res_vals = list(np.round(rng.normal(4.5, 1, n_r), 1))
        records = [SensitivityRecord(f"S{i}", "d", Measure.GI50, v) for i, v in enumerate(sens)]
        records += [SensitivityRecord(f"R{i}", "d", Measure.GI50, v) for i, v in enumerate(res_vals)]
        labels = {f"S{i}": S for i in range(n_s)}
        labels.update({f"R{i}": R for i in range(n_r)})
        got = check_separation(records, labels)
        values = sorted(set(sens) | set(res_vals))
        cuts = [min(values) - 1.0] + values + [v + 1e-9 for v in values]
        oracle = min(
            sum(1 for v in sens if v < t) + sum(1 for v in res_vals if v >= t) for t in cuts
        )
        assert got.misfit_count == oracle

    # reversal and flatness fixtures flag the right codes end to end
    pem_records, pem_labels = fx.pemetrexed_reversal_records()
    all_records = pem_records + fx.prodrug_flat_records()
    (tmp_path / "gi50.csv").write_text(ingest.serialize_sensitivity(all_records))
    roster_lines = ["sample_id,label"] + [f"{k},{v.value}" for k, v in pem_labels.items()]
    (tmp_path / "lines.csv").write_text("\n".join(roster_lines) + "\n")
    manifest = {
        "inputs": {
            "gi50": {"path": "gi50.csv", "kind": "sensitivity"},
            "lines": {"path": "lines.csv", "kind": "roster"},
        },
        "checks": [
            {"check": "dose", "sensitivity": "gi50", "labels": "lines", "drug": "pemetrexed", "measure": "GI50", "tests": ["reversal"]},
            {"check": "dose", "sensitivity": "gi50", "labels": "lines", "drug": "cyclophosphamide", "measure": "GI50", "tests": ["flat"]},
        ],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    report, code = run_audit(tmp_path / "manifest.json")
    codes = {f.code for f in report.findings}
    assert code == 2
    assert "LABEL_REVERSAL" in codes
    assert "FLAT_RESPONSE" in codes
    _ok(10, "separation matches exhaustive oracle on 1000 instances; reversal and flat fixtures flagged")


def test_acceptance_11_end_to_end(tmp_path):
    manifest_path = corpus.write_corrupted_corpus(tmp_path / "bad")
    report, code = run_audit(manifest_path)
    assert code == 2
    codes = {f.code for f in report.findings}
    required = {
        "DUP_INCONSISTENT_LABELS",
        "OFFSET_DETECTED",
        "SENTINEL_VIOLATION",
        "CONFOUND_PERFECT",
        "REUSED_ARTIFACT",
        "LABELING_FLIP",
    }
    assert required <= codes

    # schema-valid
    doc = json.loads((tmp_path / "bad" / "report.json").read_text(encoding="utf-8"))
    assert set(doc) == {"schema_version", "tool_version", "input_digests", "findings"}
    for f in doc["findings"]:
        assert f["code"] in FINDING_CODES
        assert f["severity"] in ("Info", "Warning", "Critical")

    # byte-deterministic
    first = (tmp_path / "bad" / "report.json").read_bytes()
    run_audit(manifest_path)
    assert (tmp_path / "bad" / "report.json").read_bytes() == first

    clean_manifest = corpus.write_clean_corpus(tmp_path / "good")
    clean_report, clean_code = run_audit(clean_manifest)
    assert clean_code == 0
    assert all(f.severity == Severity.INFO for f in clean_report.findings)
    _ok(11, "corrupted corpus: required codes, exit 2, byte-deterministic; clean corpus exits 0")
