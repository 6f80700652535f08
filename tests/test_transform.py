import math

import numpy as np
import pytest

from arrayaudit.core import LabeledMatrix
from arrayaudit.transform import (
    TransformError,
    TransformPipeline,
    apply_pipeline,
    default_candidate_grid,
    exp_step,
    infer_pipeline,
    log_step,
    parse_pipeline_spec,
    round_step,
    zscore_step,
)


def _matrix(values, prefix="g"):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return LabeledMatrix(
        tuple(f"{prefix}{i}" for i in range(values.shape[0])),
        tuple(f"s{j}" for j in range(values.shape[1])),
        values,
    )


FULL_PIPE = TransformPipeline((log_step("e"), zscore_step("n-1"), exp_step("e"), round_step(2)))


def test_log_z_exp_round_forced_example():
    m = _matrix([[1.0, math.e, math.e**2]])
    out = apply_pipeline(m, FULL_PIPE)
    np.testing.assert_array_equal(out.values, [[0.37, 1.0, 2.72]])


def test_zero_variance_row_names_feature():
    # 7.3 does not round exactly: its computed mean leaves residuals of an ulp
    for row in ([5.0, 5.0, 5.0], [7.3] * 7):
        with pytest.raises(TransformError, match="g0"):
            apply_pipeline(_matrix([row]), TransformPipeline((zscore_step(),)))


def test_log_nonpositive_reports_coordinates():
    m = _matrix([[1.0, -2.0]])
    with pytest.raises(TransformError, match=r"^log of nonpositive value -2.0 at feature 'g0', sample 's1'$"):
        apply_pipeline(m, TransformPipeline((log_step(),)))


def test_identity_pipeline_is_noop(small_matrix):
    out = apply_pipeline(small_matrix, TransformPipeline(()))
    np.testing.assert_array_equal(out.values, small_matrix.values)
    assert out.labels == small_matrix.labels


def test_step_order_enforced():
    with pytest.raises(ValueError, match="order"):
        TransformPipeline((exp_step(), log_step()))
    with pytest.raises(ValueError, match="repeats"):
        TransformPipeline((log_step("e"), log_step("2")))


def test_spec_string_round_trip():
    spec = "log:e|zscore:n-1|exp:e|round:2"
    assert parse_pipeline_spec(spec).spec() == spec
    assert parse_pipeline_spec("identity").steps == ()
    with pytest.raises(ValueError):
        parse_pipeline_spec("log=e")


def test_default_grid_shape():
    grid = default_candidate_grid()
    assert len(grid) == 12
    assert len({p.spec() for p in grid}) == 12


def test_infer_recovers_generating_pipeline_exactly():
    rng = np.random.default_rng(101)
    ref = _matrix(np.exp(rng.standard_normal((50, 10))))
    grid = default_candidate_grid()
    for true in grid:
        query = apply_pipeline(ref, true)
        best, fit, residual = infer_pipeline(query, ref, grid)
        assert best == true, f"expected {true.spec()}, got {best.spec()}"
        if any(s.kind == "round" for s in true.steps):
            assert fit >= 0.999
            assert residual == 0.0
        else:
            assert abs(fit - 1.0) <= 1e-12


def test_infer_identity_wins_on_equal_query(small_matrix):
    candidates = [TransformPipeline(())] + default_candidate_grid()
    # constant first rows (0.1 and 0.3 do not round exactly) are skipped, not
    # scored on the rounding noise of their means
    ramp = np.arange(12.0)
    for query, reference in ((small_matrix, small_matrix), (_matrix([[0.1] * 12, ramp]), _matrix([[0.3] * 12, ramp]))):
        best, fit, _ = infer_pipeline(query, reference, candidates)
        assert best.steps == ()
        assert fit == 1.0


def test_infer_permuted_rows_scores_low():
    rng = np.random.default_rng(2024)
    values = np.exp(rng.standard_normal((100, 20)))
    ref = _matrix(values)
    perm = rng.permutation(100)
    query = _matrix(values[perm])
    # independent oracle: mean per-row correlation of misaligned rows
    oracle = []
    for i in range(100):
        a = query.values[i] - query.values[i].mean()
        b = ref.values[i] - ref.values[i].mean()
        oracle.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
    assert np.mean(oracle) < 0.5
    _, fit, _ = infer_pipeline(query, ref, [TransformPipeline(())])
    assert fit < 0.5
    assert abs(fit - np.mean(oracle)) < 1e-12


def test_infer_empty_candidates_and_shape_mismatch(small_matrix):
    with pytest.raises(ValueError, match="empty candidate"):
        infer_pipeline(small_matrix, small_matrix, [])
    other = _matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        infer_pipeline(small_matrix, other, [TransformPipeline(())])


def test_zscored_row_correlates_one_with_original():
    rng = np.random.default_rng(8)
    m = _matrix(np.exp(rng.standard_normal((20, 15))))
    z = apply_pipeline(m, TransformPipeline((log_step(), zscore_step())))
    for i in range(20):
        a = np.log(m.values[i])
        b = z.values[i]
        r = np.corrcoef(a, b)[0, 1]
        assert r == pytest.approx(1.0, abs=1e-12)


def test_round_two_keeps_fit_above_threshold_when_sd_large():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((30, 25)) * 2.0 + 10.0  # row sd ~2 >= 0.5
    m = _matrix(np.abs(base) + 1.0)
    rounded = apply_pipeline(m, TransformPipeline((round_step(2),)))
    fits = []
    for i in range(30):
        fits.append(np.corrcoef(m.values[i], rounded.values[i])[0, 1])
    assert min(fits) >= 0.999


def test_nan_propagates_and_zscore_uses_present_values():
    vals = np.array([[1.0, 2.0, 3.0, np.nan]])
    out = apply_pipeline(_matrix(vals), TransformPipeline((zscore_step("n-1"),)))
    assert np.isnan(out.values[0, 3])
    np.testing.assert_allclose(out.values[0, :3], [-1.0, 0.0, 1.0])
