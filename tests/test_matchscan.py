import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures_lib as fx
from arrayaudit import _kernels
from arrayaudit.core import AnnotationIndex, LabeledMatrix, SignatureList
from arrayaudit.matchscan import (
    check_platform_membership,
    detect_offset,
    match_columns,
    match_rows,
)
from arrayaudit.transform import (
    TransformPipeline,
    apply_pipeline,
    exp_step,
    log_step,
    round_step,
    zscore_step,
)

def _matrix(values, prefix="g", sample_prefix="s"):
    values = np.asarray(values, dtype=float)
    return LabeledMatrix(
        tuple(f"{prefix}{i}" for i in range(values.shape[0])),
        tuple(f"{sample_prefix}{j}" for j in range(values.shape[1])),
        values,
    )


def test_match_rows_recovers_permutation():
    rng = np.random.default_rng(100)
    ref_vals = rng.standard_normal((500, 22))
    reference = _matrix(ref_vals, prefix="r")
    perm = rng.permutation(500)
    query = _matrix(ref_vals[perm], prefix="q")
    res = match_rows(query, reference, min_corr=0.9999)
    assert res.n_matched == 500
    assert res.n_ambiguous == 0 and res.n_unmatched == 0
    for qi, ri in enumerate(perm):
        assert res.mapping[f"q{qi}"] == f"r{ri}"


def test_match_rows_tolerates_pipeline_rounding():
    rng = np.random.default_rng(200)
    ref_vals = np.exp(rng.standard_normal((300, 22)))
    reference = _matrix(ref_vals, prefix="r")
    with_round = TransformPipeline((log_step(), zscore_step(), exp_step(), round_step(2)))
    without_round = TransformPipeline((log_step(), zscore_step(), exp_step()))
    perm = rng.permutation(300)
    query = LabeledMatrix(
        tuple(f"q{i}" for i in range(300)),
        reference.sample_ids,
        apply_pipeline(reference, with_round).values[perm],
    )
    # rounding perturbs each value by <= 0.005, so the rounded query still
    # correlates >= 0.999 with the unrounded transform of the true row
    res = match_rows(query, apply_pipeline(reference, without_round), min_corr=0.999)
    assert res.n_matched == 300 and res.n_ambiguous == 0
    for qi, ri in enumerate(perm):
        assert res.mapping[f"q{qi}"] == f"r{ri}"
    # against the untransformed reference the values do not line up
    assert match_rows(query, reference, min_corr=0.999).n_matched < 300


def test_match_rows_constant_row_flagged():
    rng = np.random.default_rng(4)
    reference = _matrix(rng.standard_normal((5, 6)), prefix="r")
    qvals = rng.standard_normal((3, 6))
    qvals[1] = 2.5
    query = _matrix(qvals, prefix="q")
    res = match_rows(query, reference, min_corr=0.99)
    assert "q1" in res.degenerate
    assert res.mapping["q1"] is None


def test_match_rows_identity_property():
    rng = np.random.default_rng(8)
    m = _matrix(rng.standard_normal((40, 10)))
    res = match_rows(m, m, min_corr=0.9999)
    assert res.n_matched == 40
    assert all(res.mapping[fid] == fid for fid in m.feature_ids)


def test_match_rows_column_count_mismatch():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="query has 5 columns but reference has 6"):
        match_rows(_matrix(rng.standard_normal((4, 5))), _matrix(rng.standard_normal((4, 6))))
    with pytest.raises(ValueError, match="query has 4 rows but reference has 3"):
        match_columns(_matrix(rng.standard_normal((4, 5))), _matrix(rng.standard_normal((3, 5))))


def test_match_columns_identifies_planted_lines():
    rng = np.random.default_rng(300)
    ref_vals = rng.standard_normal((120, 60))
    reference = _matrix(ref_vals, sample_prefix="CL")
    chosen = rng.choice(60, size=22, replace=False)
    query = LabeledMatrix(
        reference.feature_ids,
        tuple(f"anon{j}" for j in range(22)),
        ref_vals[:, chosen],
    )
    res = match_columns(query, reference, min_corr=0.9999)
    assert res.n_matched == 22
    for j, cj in enumerate(chosen):
        assert res.mapping[f"anon{j}"] == f"CL{cj}"


def test_match_columns_outside_reference_unmatched():
    rng = np.random.default_rng(301)
    reference = _matrix(rng.standard_normal((60, 8)), sample_prefix="CL")
    query = _matrix(rng.standard_normal((60, 1)), sample_prefix="anon")
    res = match_columns(query, reference, min_corr=0.9999)
    assert res.n_unmatched == 1


def test_match_columns_identical_reference_columns_ambiguous():
    rng = np.random.default_rng(302)
    col = rng.standard_normal(30)
    others = rng.standard_normal((30, 2))
    ref_vals = np.column_stack([col, col, others])
    reference = _matrix(ref_vals, sample_prefix="CL")
    query = LabeledMatrix(reference.feature_ids, ("q0",), col[:, None])
    res = match_columns(query, reference, min_corr=0.9999)
    assert res.n_ambiguous == 1
    assert set(res.ambiguous["q0"]) == {"CL0", "CL1"}


@pytest.mark.parametrize("width", [3, 24, 60])
def test_match_rows_finds_exact_and_affine_copies_at_min_corr_one(width):
    # a copy correlates at 1 - a few ulps, whatever rows share its matmul
    rng = np.random.default_rng(width)
    ref_vals = rng.standard_normal((2000, width))
    reference = _matrix(ref_vals, prefix="r")
    rows = rng.choice(2000, size=40, replace=False)
    for copies in (ref_vals[rows], 2.5 * ref_vals[rows] - 4.0):
        res = match_rows(_matrix(copies, prefix="q"), reference, min_corr=1.0)
        assert res.n_matched == 40
        assert res.mapping == {f"q{i}": f"r{r}" for i, r in enumerate(rows)}


def test_match_rows_memory_is_bounded_by_the_tile():
    # the full 4,000 x 4,000 correlation matrix alone would be 128 MB
    rng = np.random.default_rng(12)
    ref_vals = rng.standard_normal((4000, 24))
    reference = _matrix(ref_vals, prefix="r")
    perm = rng.permutation(4000)
    query = _matrix(ref_vals[perm], prefix="q")
    tracemalloc.start()
    try:
        res = match_rows(query, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_matched == 4000
    assert peak <= 16e6


@st.composite
def _panel_pair(draw, min_corr):
    """Reference and query rows of one width: random, copies or affine
    images of earlier reference rows (ties, ambiguous hits), rows with a
    NaN or infinite value (missing cells), constants that do not round
    (7.3), and rows that correlate with an earlier reference row 1e-7
    above or below ``min_corr``, unlike it most in one column."""
    width = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.lists(st.sampled_from(["random", "copy", "affine", "bad", "constant", "above", "below"]), max_size=9)

    def near(row, corr):
        # corr u + sqrt(1 - corr^2) v, u the row standardized and v a column
        # standardized and made orthogonal to u
        u = row - row.mean()
        u /= np.linalg.norm(u)
        v = np.eye(width)[rng.integers(width)] - 1.0 / width
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        return rng.uniform(0.5, 3.0) * (corr * u + np.sqrt(1.0 - corr * corr) * v) + rng.uniform(-10.0, 10.0)

    def rows(kinds, pool):
        out = []
        for kind in kinds:
            row = rng.standard_normal(width)
            if kind in ("copy", "affine") and pool:
                row = pool[rng.integers(len(pool))]
                row = row if kind == "copy" else rng.uniform(0.5, 3.0) * row + rng.uniform(-10.0, 10.0)
            elif kind in ("above", "below") and pool:
                row = near(pool[rng.integers(len(pool))], min(min_corr + (1e-7 if kind == "above" else -1e-7), 1.0))
            elif kind == "bad":
                row[rng.integers(width)] = rng.choice([np.nan, np.inf, -np.inf])
            elif kind == "constant":
                row = np.full(width, rng.choice([7.3, 0.1, 1e7 + 0.3]))
            out.append(row)
            if kind == "random":
                pool.append(row)
        return np.array(out).reshape(len(kinds), width)

    pool = []
    ref_vals = rows(draw(kinds), pool)
    return rows(draw(kinds), pool), ref_vals


def _oracle_check(res, q_vals, ref_vals, min_corr):
    """Hits against np.corrcoef over the cells both rows hold: a row with
    fewer than 3 finite cells, or constant on them, is degenerate; a pair
    that shares fewer than 3 cells, or holds a row constant on them, is
    not a hit; a live pair 1e-9 above min_corr, or within 1e-12 of 1, is a
    hit, one 1e-9 below it is not."""
    def live(v):
        f = v[np.isfinite(v)]
        return len(f) >= 3 and f.max() > f.min()

    ref_live = [j for j, v in enumerate(ref_vals) if live(v)]
    for i, v in enumerate(q_vals):
        qid = f"q{i}"
        if not (live(v) and ref_live):
            assert qid in res.degenerate
            continue
        found = res.ambiguous.get(qid) or ((res.mapping[qid],) if res.mapping[qid] else ())
        assert list(found) == sorted(found, key=lambda rid: int(rid[1:]))
        for j in ref_live:
            both = np.isfinite(v) & np.isfinite(ref_vals[j])
            a, b = v[both], ref_vals[j][both]
            if both.sum() < 3 or a.max() == a.min() or b.max() == b.min():
                assert f"r{j}" not in found, (i, j)
                continue
            r = np.corrcoef(a, b)[0, 1]
            if r >= min_corr + 1e-9 or r >= 1 - 1e-12:
                assert f"r{j}" in found, (i, j, r)
            elif r < min_corr - 1e-9:
                assert f"r{j}" not in found, (i, j, r)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1.0, 0.9999, 0.5, 1e-9]).flatmap(lambda c: st.tuples(_panel_pair(c), st.just(c))))
def test_match_is_the_same_for_every_block_size(case):
    (q_vals, ref_vals), min_corr = case
    query, reference = _matrix(q_vals, prefix="q"), _matrix(ref_vals, prefix="r")
    # the same panels with rows as columns, under the same ids
    query_t = LabeledMatrix(query.sample_ids, query.feature_ids, q_vals.T)
    reference_t = LabeledMatrix(reference.sample_ids, reference.feature_ids, ref_vals.T)
    want = match_rows(query, reference, min_corr=min_corr)
    _oracle_check(want, q_vals, ref_vals, min_corr)
    # query rows x reference rows per matmul: 1 x 1, odd x odd, a partial
    # last tile of the one buffer on both axes, all x one tile; a budget
    # below the complete pairs bands them, the last keeps them in one band
    cases = ((1, 1, 1), (3, 5, 15), (4, 7, 28), (len(q_vals) + 1, 2048, 1), (32, 2048, (len(q_vals) + 1) * 2048))
    for step, tile, budget in cases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_QUERY_TILE", step)
            mp.setattr(_kernels, "_REF_TILE", tile)
            mp.setattr(_kernels, "_PAIR_BUDGET", budget)
            assert repr(match_rows(query, reference, min_corr=min_corr)) == repr(want)
            assert repr(match_columns(query_t, reference_t, min_corr=min_corr)) == repr(want)


# --- offset detection ---------------------------------------------------


def test_detect_offset_tiny_forced_example():
    ann = AnnotationIndex("P", ("A", "B", "C", "D", "E"))
    res = detect_offset(SignatureList(("B", "C")), ann, SignatureList(("C", "D")), max_shift=2)
    assert res.best_shift == 1
    assert res.overlap_at_best == 2
    assert res.outliers == ()


def test_detect_offset_identity():
    ann = AnnotationIndex("P", tuple(f"x{i}" for i in range(20)))
    sig = SignatureList(tuple(f"x{i}" for i in range(4, 14)))
    res = detect_offset(sig, ann, sig, max_shift=3)
    assert res.best_shift == 0
    assert res.overlap_at_best == 10


def test_detect_offset_contaminated_fixture():
    reported, ann, generated = fx.offset_fixture()
    res = detect_offset(reported, ann, generated, max_shift=3)
    assert res.best_shift == 1
    assert res.overlap_at_best == 41
    assert len(res.outliers) == 4
    assert res.foreign_ids == ("F0001_at", "F0002_at")
    assert check_platform_membership(reported, ann) == ["F0001_at", "F0002_at"]


def test_detect_offset_zero_shift_is_plain_intersection():
    reported, ann, generated = fx.offset_fixture()
    res = detect_offset(reported, ann, generated, max_shift=3)
    assert res.overlap_by_shift[0] == len(set(reported.feature_ids) & set(generated.feature_ids))


def test_detect_offset_translation_equivariance():
    ann = AnnotationIndex("P", tuple(f"x{i}" for i in range(60)))
    rep_rows = [10, 17, 24, 33]
    gen_rows = [11, 18, 25, 34]
    rep = SignatureList(tuple(ann.feature_ids[r] for r in rep_rows))
    gen = SignatureList(tuple(ann.feature_ids[r] for r in gen_rows))
    base = detect_offset(rep, ann, gen, max_shift=3)
    for delta in (1, 2, -2):
        rep_d = SignatureList(tuple(ann.feature_ids[r + delta] for r in rep_rows))
        gen_d = SignatureList(tuple(ann.feature_ids[r + delta] for r in gen_rows))
        shifted = detect_offset(rep_d, ann, gen_d, max_shift=3)
        assert shifted.overlap_by_shift == base.overlap_by_shift


def test_detect_offset_tie_prefers_small_then_negative():
    ann = AnnotationIndex("P", tuple(f"x{i}" for i in range(30)))
    # reported x10; generated {x9, x11}: shifts -1 and +1 both score 1
    rep = SignatureList(("x10",))
    gen = SignatureList(("x9", "x11"))
    res = detect_offset(rep, ann, gen, max_shift=3)
    assert res.best_shift == -1


def test_empty_signature_is_unconstructable():
    # the empty-signature error contract is enforced at the type level
    with pytest.raises(ValueError):
        SignatureList(())


def test_platform_membership_trivial():
    ann = AnnotationIndex("P", ("a", "b"))
    assert check_platform_membership(SignatureList(("a", "b")), ann) == []
    empty_ann = AnnotationIndex("P", ("zzz",))
    assert check_platform_membership(SignatureList(("a", "b")), empty_ann) == ["a", "b"]
