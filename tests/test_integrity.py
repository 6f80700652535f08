from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures_lib as fx
from arrayaudit.audit import Sentinel, confounding_findings, sentinel_check
from arrayaudit.core import ContingencyTable, GroupLabel, LabeledMatrix, Measure, SensitivityRecord, Severity
from arrayaudit.integrity import (
    check_flat_response,
    check_reversal,
    check_separation,
    combine_probabilities,
    cramers_v,
    detect_blocks,
    infer_batches,
    raw_combination_score,
    renormalize_batch,
    test_confounding as run_confounding,
)

S = GroupLabel.SENSITIVE
R = GroupLabel.RESISTANT


def _records(sens_vals, res_vals, drug="d", measure=Measure.GI50):
    records = []
    labels = {}
    for i, v in enumerate(sens_vals):
        line = f"S{i}"
        records.append(SensitivityRecord(line, drug, measure, float(v)))
        labels[line] = S
    for i, v in enumerate(res_vals):
        line = f"R{i}"
        records.append(SensitivityRecord(line, drug, measure, float(v)))
        labels[line] = R
    return records, labels


def _oracle_min_misfits(sens, res, sensitive_high=True):
    """Independent exhaustive scan over every observed value as the cut."""
    values = sorted(set(sens) | set(res))
    cuts = [min(values) - 1.0] + values + [max(values) + 1.0]
    best = len(sens) + len(res)
    for t in cuts:
        # rule: value >= t means Sensitive, or value < t when reversed
        # (cut just above each value too)
        for tt in (t, t + 1e-9):
            if sensitive_high:
                misfits = sum(1 for v in sens if v < tt) + sum(1 for v in res if v >= tt)
            else:
                misfits = sum(1 for v in sens if v >= tt) + sum(1 for v in res if v < tt)
            best = min(best, misfits)
    return best


# --- separation -----------------------------------------------------------


def test_separation_clean_split():
    records, labels = _records([5, 6], [3, 4])
    res = check_separation(records, labels)
    assert res.misfit_count == 0
    assert not res.overlap
    assert 4 < res.best_threshold <= 5


def test_separation_interleaved_one_misfit():
    records, labels = _records([5, 3.5], [4, 3])
    res = check_separation(records, labels)
    assert res.misfit_count == 1
    assert res.overlap


def test_separation_single_group_errors():
    records, labels = _records([5, 6], [])
    with pytest.raises(ValueError):
        check_separation(records, labels)


def test_separation_matches_oracle_on_random_instances():
    rng = np.random.default_rng(404)
    for _ in range(300):
        n_s = int(rng.integers(1, 10))
        n_r = int(rng.integers(1, 10))
        sens = list(np.round(rng.normal(5, 1, n_s), 1))
        res_vals = list(np.round(rng.normal(4, 1, n_r), 1))
        # each instance also with its groups swapped, where the reversed
        # rule usually fits better
        for a, b in ((sens, res_vals), (res_vals, sens)):
            records, labels = _records(a, b)
            high = _oracle_min_misfits(a, b)
            low = _oracle_min_misfits(a, b, sensitive_high=False)
            assert check_separation(records, labels).misfit_count == high
            assert check_separation(records, labels, orientation="sensitive_low").misfit_count == low
            auto = check_separation(records, labels, orientation="auto")
            # a tie goes to sensitive_high
            assert (auto.misfit_count, auto.orientation) == min((high, "sensitive_high"), (low, "sensitive_low"))


def test_separation_auto_orientation():
    # reversed data: the auto mode should pick the reversed rule
    records, labels = _records([3, 3.5], [5, 6])
    fixed = check_separation(records, labels, orientation="sensitive_high")
    auto = check_separation(records, labels, orientation="auto")
    assert fixed.misfit_count == 2
    assert auto.misfit_count == 0
    assert auto.orientation == "sensitive_low"


# --- reversal ---------------------------------------------------------------


def test_reversal_clean_cases():
    records, labels = _records([3, 3.5, 3.2], [5, 6, 5.5])
    res = check_reversal(records, labels)
    assert res.direction_stat == 0.0
    assert res.reversed

    records, labels = _records([5, 6, 5.5], [3, 3.5, 3.2])
    res = check_reversal(records, labels)
    assert res.direction_stat == 1.0
    assert res.verdict == "ok"


def test_reversal_middle_band_indeterminate():
    records, labels = _records([4, 5, 3, 6], [4.5, 3.5, 5.5, 2.5])
    res = check_reversal(records, labels)
    assert res.verdict == "indeterminate"
    assert not res.reversed


def test_reversal_pemetrexed_structure():
    records, labels = fx.pemetrexed_reversal_records()
    res = check_reversal(records, labels)
    assert res.reversed
    assert res.direction_stat == 0.0


def test_reversal_needs_two_per_group():
    records, labels = _records([5], [3, 4])
    with pytest.raises(ValueError):
        check_reversal(records, labels)


# --- flat response ----------------------------------------------------------


def test_flat_all_equal():
    records = [SensitivityRecord(f"L{i}", "d", Measure.GI50, 4.5) for i in range(6)]
    res = check_flat_response(records)
    assert res.flat and res.iqr == 0.0 and res.value_range == 0.0


def test_flat_prodrug_structure():
    res = check_flat_response(fx.prodrug_flat_records())
    assert res.flat
    assert res.iqr < 0.2


def test_flat_bimodal_is_not_flat():
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.normal(4, 0.1, 10), rng.normal(6, 0.1, 10)])
    records = [SensitivityRecord(f"L{i}", "d", Measure.GI50, float(v)) for i, v in enumerate(vals)]
    res = check_flat_response(records)
    assert not res.flat
    assert res.value_range > 1.5


def test_flat_needs_five_records():
    records = [SensitivityRecord(f"L{i}", "d", Measure.GI50, 4.0) for i in range(4)]
    with pytest.raises(ValueError):
        check_flat_response(records)


# --- sentinels ----------------------------------------------------------------


def test_sentinel_conflict_is_critical():
    labels = {"NCI/ADR-RES": S, "HT29": S}
    sentinels = [Sentinel("NCI/ADR-RES", R, "selected for resistance")]
    findings = sentinel_check(labels, sentinels)
    assert len(findings) == 1
    assert findings[0].code == "SENTINEL_VIOLATION"
    assert findings[0].severity == Severity.CRITICAL
    assert findings[0].subjects == ("NCI/ADR-RES",)


def test_sentinel_match_and_absent():
    labels = {"NCI/ADR-RES": R}
    assert sentinel_check(labels, [Sentinel("NCI/ADR-RES", R, "")]) == []
    findings = sentinel_check(labels, [Sentinel("GHOST", R, "")])
    assert len(findings) == 1
    assert findings[0].severity == Severity.INFO


# --- batches -------------------------------------------------------------------


def test_infer_batches_three_blocks():
    metas = [m for m in fx.confound_meta() if m.included]
    batches = infer_batches(metas)
    assert set(batches.values()) == {1, 2, 3}
    assert all(batches[m.sample_id] == 1 for m in metas if m.sample_id.startswith("FA"))
    assert all(batches[m.sample_id] == 2 for m in metas if m.sample_id.startswith("FB"))
    assert all(batches[m.sample_id] == 3 for m in metas if m.sample_id.startswith("TE"))


def test_infer_batches_same_day_single_batch():
    t0 = datetime(2008, 1, 1, tzinfo=timezone.utc)
    from arrayaudit.core import SampleMeta

    metas = [SampleMeta(f"s{i}", t0 + timedelta(hours=i), "SC", "A", True) for i in range(10)]
    assert set(infer_batches(metas).values()) == {1}


def test_infer_batches_empty_errors():
    with pytest.raises(ValueError):
        infer_batches([])


def test_infer_batches_order_invariant():
    metas = fx.confound_meta()
    rng = np.random.default_rng(1)
    shuffled = list(metas)
    rng.shuffle(shuffled)
    assert infer_batches(metas) == infer_batches(shuffled)


# --- blocks ---------------------------------------------------------------------


def test_detect_blocks_three_planted():
    m = fx.block_structured_matrix(sizes=(10, 8, 12))
    report = detect_blocks(m, corr_threshold=0.8)
    assert len(report.components) == 3
    assert sorted(report.sizes) == [8, 10, 12]


def test_detect_blocks_independent_columns_all_singletons():
    rng = np.random.default_rng(21)
    m = LabeledMatrix(
        tuple(f"g{i}" for i in range(60)),
        tuple(f"s{j}" for j in range(20)),
        rng.standard_normal((60, 20)),
    )
    report = detect_blocks(m, corr_threshold=0.8)
    assert report.components == ()
    assert len(report.singletons) == 20


def test_detect_blocks_one_block():
    m = fx.block_structured_matrix(sizes=(9,))
    report = detect_blocks(m, corr_threshold=0.8)
    assert len(report.components) == 1
    assert report.sizes == (9,)


def test_detect_blocks_refuses_two_rows():
    # over two rows every correlation is +-1, so no block would mean anything
    values = np.random.default_rng(4).standard_normal((2, 5))
    m = LabeledMatrix(("g0", "g1"), tuple(f"s{j}" for j in range(5)), values)
    with pytest.raises(ValueError, match="at least 3 features and 2 samples, got 2 x 5"):
        detect_blocks(m)


# --- confounding -----------------------------------------------------------------


def test_confounding_perfect_structure():
    metas = [m for m in fx.confound_meta() if m.included]
    batches = infer_batches(metas)
    treatments = {m.sample_id: m.treatment_arm for m in metas}
    res = run_confounding(batches, treatments)
    assert res.perfect
    assert res.cramers_v == pytest.approx(1.0, abs=1e-12)
    findings = confounding_findings(res)
    assert findings[0].code == "CONFOUND_PERFECT"
    assert findings[0].severity == Severity.CRITICAL
    # batch ids 1-10 are table levels in string order
    batches = {f"s{i}": i % 10 + 1 for i in range(40)}
    treatments = {s: "AC" if b <= 5 else "FEC" for s, b in batches.items()}
    res = run_confounding(batches, treatments)
    assert res.perfect
    assert res.table.row_labels == ("1", "10", "2", "3", "4", "5", "6", "7", "8", "9")
    assert res.table.col_labels == ("AC", "FEC")


def test_confounding_balanced_random_low_v():
    rng = np.random.default_rng(3)  # verified: perfect=False, V < 0.15
    batches = {f"s{i}": f"b{rng.integers(0, 2)}" for i in range(200)}
    treatments = {f"s{i}": f"t{rng.integers(0, 2)}" for i in range(200)}
    res = run_confounding(batches, treatments)
    assert not res.perfect
    assert res.cramers_v < 0.15
    # independent oracle: scipy chi-square without continuity correction
    counts = np.array(res.table.counts)
    chi2 = scipy.stats.chi2_contingency(counts, correction=False)[0]
    v_oracle = float(np.sqrt(chi2 / (counts.sum() * (min(counts.shape) - 1))))
    assert res.cramers_v == pytest.approx(v_oracle, abs=1e-12)
    assert confounding_findings(res) == []


def test_confounding_diagonal_2x2():
    batches = {"a": 1, "b": 1, "c": 2, "d": 2}
    treatments = {"a": "X", "b": "X", "c": "Y", "d": "Y"}
    res = run_confounding(batches, treatments)
    assert res.perfect
    assert res.cramers_v == pytest.approx(1.0, abs=1e-12)


def test_confounding_requires_two_levels():
    with pytest.raises(ValueError):
        run_confounding({"a": 1, "b": 1}, {"a": "X", "b": "Y"})


def test_cramers_v_drops_empty_margins():
    table = ContingencyTable(("a", "b", "c"), ("x", "y"), ((5, 0), (0, 5), (0, 0)))
    assert cramers_v(table) == pytest.approx(1.0, abs=1e-12)


# --- combination rules ---------------------------------------------------------------


def test_tfac_raw_value():
    assert raw_combination_score({"T": 0.5, "F": 0.5, "A": 0.5, "C": 0.5}, "tfac") == 1.9375


def test_tet_is_max():
    assert combine_probabilities({"E": 0.3, "T": 0.7}, "tet") == 0.7
    assert combine_probabilities({"E": 0.7, "T": 0.3}, "tet") == 0.7


def test_fec_values_and_clipping():
    assert combine_probabilities({"F": 0.2, "E": 0.4, "C": 0.6}, "fec") == pytest.approx(0.5, abs=1e-15)
    assert raw_combination_score({"F": 1.0, "E": 1.0, "C": 1.0}, "fec") == 1.625
    assert combine_probabilities({"F": 1.0, "E": 1.0, "C": 1.0}, "fec") == 1.0


def test_tfac_batch_normalization():
    normalized = renormalize_batch([1.2, 1.9375, 1.5], "tfac")
    assert normalized[0] == 0.0
    assert normalized[1] == 1.0
    assert normalized[2] == pytest.approx(0.3 / 0.7375, rel=1e-12)
    # order preserving
    rng = np.random.default_rng(7)
    raw = list(rng.uniform(1.0, 2.0, 50))
    out = renormalize_batch(raw, "tfac")
    assert np.all(np.diff(np.array(out)[np.argsort(raw)]) >= 0)
    assert min(out) == 0.0 and max(out) == 1.0


def test_fec_renormalization_is_clipping():
    assert renormalize_batch([-0.25, 0.5, 1.625], "fec") == [0.0, 0.5, 1.0]


def test_max_rule_no_renormalization():
    assert renormalize_batch([0.3, 0.9], "tet") == [0.3, 0.9]


def test_combination_missing_key_and_range_errors():
    with pytest.raises(KeyError):
        combine_probabilities({"T": 0.5, "F": 0.5, "A": 0.5}, "tfac")
    with pytest.raises(ValueError):
        combine_probabilities({"E": 1.3, "T": 0.5}, "tet")


def test_affine_mean_always_in_unit_interval():
    rng = np.random.default_rng(12)
    inputs = rng.uniform(0, 1, size=(10000, 3))
    raw = 5.0 / 8.0 * inputs.sum(axis=1) - 0.25
    clipped = np.clip(raw, 0.0, 1.0)
    for row, expect in zip(inputs[:200], clipped[:200]):
        got = combine_probabilities({"F": row[0], "E": row[1], "C": row[2]}, "fec")
        assert got == pytest.approx(expect, abs=1e-15)
        assert 0.0 <= got <= 1.0
    # vectorized sweep for the full 10^4 trials
    assert np.all(clipped >= 0.0) and np.all(clipped <= 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
)
def test_fec_bounds_property(f, e, c):
    out = combine_probabilities({"F": f, "E": e, "C": c}, "fec")
    assert 0.0 <= out <= 1.0


def test_tet_permutation_invariance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        e, t = rng.uniform(0, 1, 2)
        assert combine_probabilities({"E": e, "T": t}, "tet") == combine_probabilities(
            {"E": t, "T": e}, "tet"
        )


def test_v_equal_one_without_perfect_confounding():
    # three treatments over two batches, two treatments sharing a batch:
    # batch fully determines nothing is mixed, so V = 1, yet the treatments'
    # batch sets are not disjoint and the design is not perfectly confounded
    batches = {}
    treatments = {}
    for i in range(10):
        batches[f"a{i}"] = "b1"
        treatments[f"a{i}"] = "T1"
        batches[f"b{i}"] = "b1"
        treatments[f"b{i}"] = "T2"
        batches[f"c{i}"] = "b2"
        treatments[f"c{i}"] = "T3"
    res = run_confounding(batches, treatments)
    assert res.cramers_v == pytest.approx(1.0, abs=1e-12)
    assert not res.perfect
