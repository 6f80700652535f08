import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from arrayaudit.core import Direction, GroupLabel, LabeledMatrix
from arrayaudit.signature import (
    MetageneConvergenceError,
    auc,
    fit_probit,
    metagene_scores,
    predict,
    predict_prob,
    probit_gradient,
    probit_loglik,
    roc_curve,
    select_top_genes,
)

S = GroupLabel.SENSITIVE
R = GroupLabel.RESISTANT


def _two_group_matrix(values, n1, labels=(S, R)):
    values = np.asarray(values, dtype=float)
    lab = {}
    for j in range(values.shape[1]):
        lab[f"s{j}"] = labels[0] if j < n1 else labels[1]
    return LabeledMatrix(
        tuple(f"g{i}" for i in range(values.shape[0])),
        tuple(f"s{j}" for j in range(values.shape[1])),
        values,
        lab,
    )


# --- select_top_genes -----------------------------------------------------


def test_select_top_genes_matches_scipy_oracle():
    rng = np.random.default_rng(500)
    k = 12
    values = rng.standard_normal((80, 20))
    values[:k, :10] += 5.0
    m = _two_group_matrix(values, 10)
    sig = select_top_genes(m, k)
    assert set(sig.feature_ids) == {f"g{i}" for i in range(k)}
    # oracle: scipy pooled-variance t, exhaustive ranking
    t_oracle, _ = stats.ttest_ind(values[:, :10], values[:, 10:], axis=1, equal_var=True)
    order = sorted(range(80), key=lambda i: (-abs(t_oracle[i]), i))
    assert list(sig.feature_ids) == [f"g{i}" for i in order[:k]]


def test_select_top_genes_all_features_ranked():
    rng = np.random.default_rng(501)
    values = rng.standard_normal((10, 8))
    m = _two_group_matrix(values, 4)
    sig = select_top_genes(m, 10)
    assert len(sig) == 10
    t_oracle, _ = stats.ttest_ind(values[:, :4], values[:, 4:], axis=1, equal_var=True)
    ranked = sorted(range(10), key=lambda i: (-abs(t_oracle[i]), i))
    assert list(sig.feature_ids) == [f"g{i}" for i in ranked]


def test_select_top_genes_tie_breaks_by_row_index():
    values = np.array(
        [
            [1.0, 2.0, 5.0, 6.0],
            [1.0, 2.0, 5.0, 6.0],  # bitwise-equal |t| with row 0
            [0.0, 0.0, 0.1, -0.1],
        ]
    )
    m = _two_group_matrix(values, 2)
    sig = select_top_genes(m, 2)
    assert sig.feature_ids == ("g0", "g1")


def test_select_top_genes_ranks_like_the_sorted_key_with_ties_and_infinities():
    from arrayaudit.signature import pooled_t_statistics

    rng = np.random.default_rng(503)
    base = np.round(rng.standard_normal((12, 8)), 1)
    base[0] = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]  # constant per group: t = -inf
    base[1] = [3.0, 3.0, 3.0, 3.0, 0.5, 0.5, 0.5, 0.5]  # t = +inf
    base[2] = 0.5  # constant: t = 0
    values = np.vstack([base, base[::-1], base])  # every |t| appears at least twice
    m = _two_group_matrix(values, 4)
    t = pooled_t_statistics(m)
    assert np.isposinf(t).sum() == 3 and np.isneginf(t).sum() == 3
    order = sorted(range(len(t)), key=lambda i: (-abs(t[i]), i))
    for k in range(1, len(t) + 1):
        assert select_top_genes(m, k).feature_ids == tuple(f"g{i}" for i in order[:k])
    # constants that do not round exactly, in groups of 5 and 7: 7.3
    # throughout scores 0, below a real gene, and 0.1 | 0.3 is -inf
    real = [0.3, -0.5, 1.2, 0.1, 0.9, -0.2, 0.4, -1.1, 0.0, -0.6, 0.5, -0.3]
    m = _two_group_matrix([[7.3] * 12, [0.1] * 5 + [0.3] * 7, real], 5)
    t = pooled_t_statistics(m)
    assert t[0] == 0.0 and t[1] == -math.inf and 0.0 < abs(t[2]) < math.inf
    assert select_top_genes(m, 2).feature_ids == ("g1", "g2")


def test_select_top_genes_directions_flip_with_labels():
    rng = np.random.default_rng(502)
    values = rng.standard_normal((6, 12))
    values[0, :6] += 4.0  # up in the first group
    m = _two_group_matrix(values, 6, labels=(S, R))
    sig = select_top_genes(m, 6)
    dmap = sig.direction_map()
    assert dmap["g0"] == {Direction.UP_IN_SENSITIVE}
    m_swapped = _two_group_matrix(values, 6, labels=(R, S))
    sig2 = select_top_genes(m_swapped, 6)
    assert sig2.feature_ids == sig.feature_ids  # |t| is swap-invariant
    assert sig2.direction_map()["g0"] == {Direction.UP_IN_RESISTANT}


def test_select_top_genes_errors():
    rng = np.random.default_rng(1)
    m = _two_group_matrix(rng.standard_normal((4, 6)), 3)
    with pytest.raises(ValueError):
        select_top_genes(m, 5)
    single = _two_group_matrix(rng.standard_normal((4, 3)), 1)
    with pytest.raises(ValueError):
        select_top_genes(single, 2)


# --- metagene -------------------------------------------------------------


def test_metagene_rank_one_recovers_v():
    rng = np.random.default_rng(600)
    u = rng.standard_normal(30)
    v = rng.standard_normal(12)
    v -= v.mean()  # keep the rank-1 structure invariant under row-centering
    x = np.outer(u, v)
    m = LabeledMatrix(
        tuple(f"g{i}" for i in range(30)), tuple(f"s{j}" for j in range(12)), x
    )
    scores = metagene_scores(m)
    cos = abs(scores @ v) / (np.linalg.norm(scores) * np.linalg.norm(v))
    assert cos >= 1.0 - 1e-8


def test_metagene_matches_dense_eigensolve():
    rng = np.random.default_rng(601)
    noise = rng.standard_normal((45, 30))
    # top two Gram eigenvalues 100 and 99.99, a relative gap of 1e-4: the
    # direction is identified (the ambiguity rule needs a gap <= 1e-6)
    u, _ = np.linalg.qr(rng.standard_normal((45, 3)))
    v = rng.standard_normal((30, 3))
    v, _ = np.linalg.qr(v - v.mean(axis=0))  # rows stay centered
    gap = u @ np.diag([10.0, 10.0 * math.sqrt(1.0 - 1e-4), 1.0]) @ v.T + rng.standard_normal((45, 1))
    for x in (noise, gap):
        m = LabeledMatrix(
            tuple(f"g{i}" for i in range(45)), tuple(f"s{j}" for j in range(30)), x
        )
        scores = metagene_scores(m)
        xc = x - x.mean(axis=1, keepdims=True)
        w, vecs = np.linalg.eigh(xc.T @ xc)  # dense oracle on the Gram matrix
        oracle = math.sqrt(w[-1]) * vecs[:, -1]
        if oracle[np.argmax(np.abs(oracle))] < 0:
            oracle = -oracle
        np.testing.assert_allclose(scores, oracle, atol=1e-8)


def test_metagene_wide_matrix_matches_eigensolve():
    rng = np.random.default_rng(602)
    x = rng.standard_normal((10, 40))
    m = LabeledMatrix(
        tuple(f"g{i}" for i in range(10)), tuple(f"s{j}" for j in range(40)), x
    )
    scores = metagene_scores(m)
    xc = x - x.mean(axis=1, keepdims=True)
    w, vecs = np.linalg.eigh(xc.T @ xc)
    oracle = math.sqrt(w[-1]) * vecs[:, -1]
    if oracle[np.argmax(np.abs(oracle))] < 0:
        oracle = -oracle
    np.testing.assert_allclose(scores, oracle, atol=1e-8)


def test_metagene_duplicate_singular_values_flagged():
    # two orthogonal rows of equal norm: top two singular values coincide
    x = np.array(
        [
            [1.0, -1.0, 1.0, -1.0],
            [1.0, 1.0, -1.0, -1.0],
        ]
    )
    m = LabeledMatrix(("g0", "g1"), ("a", "b", "c", "d"), x)
    with pytest.raises(MetageneConvergenceError, match="ambiguous"):
        metagene_scores(m)
    # a constant training panel has no leading direction at any width,
    # however its constant rounds
    for value in (7.3, 0.1):
        for width in range(4, 41):
            train = _two_group_matrix(np.full((6, width), value), width // 2)
            test = LabeledMatrix(train.feature_ids, ("t0",), np.ones((6, 1)))
            with pytest.raises(MetageneConvergenceError, match="no leading direction"):
                predict(train, test, 3)


def test_metagene_row_shift_invariance():
    rng = np.random.default_rng(603)
    x = rng.standard_normal((20, 15))
    m1 = LabeledMatrix(tuple(f"g{i}" for i in range(20)), tuple(f"s{j}" for j in range(15)), x)
    shifted = x.copy()
    shifted[3] += 100.0  # constant row offset is removed by centering
    m2 = LabeledMatrix(m1.feature_ids, m1.sample_ids, shifted)
    np.testing.assert_allclose(metagene_scores(m1), metagene_scores(m2), atol=1e-8)


def test_metagene_requires_complete_2x2():
    with pytest.raises(ValueError):
        metagene_scores(LabeledMatrix(("g0",), ("a", "b"), np.ones((1, 2))))
    holes = np.array([[1.0, 2.0, 3.0], [4.0, np.nan, 6.0], [np.nan, 8.0, 9.0]])
    with pytest.raises(ValueError, match="gene 'g2' is missing in sample 'a'"):
        metagene_scores(LabeledMatrix(("g0", "g1", "g2"), ("a", "b", "c"), holes))


# --- probit ---------------------------------------------------------------


def test_probit_perfect_separation_flagged():
    model = fit_probit(np.array([-1.0, 1.0]), np.array([0, 1]))
    assert not model.converged
    assert model.separation_threshold == 0.0


def test_probit_simulation_recovers_truth():
    rng = np.random.default_rng(700)
    s = rng.standard_normal(2000)
    p = stats.norm.cdf(0.0 + 2.0 * s)
    y = (rng.random(2000) < p).astype(int)
    model = fit_probit(s, y)
    assert model.converged
    assert abs(model.intercept - 0.0) < 0.15
    assert abs(model.slope - 2.0) < 0.15


def test_probit_gradient_near_zero_at_optimum():
    rng = np.random.default_rng(701)
    s = rng.standard_normal(400)
    y = (rng.random(400) < stats.norm.cdf(0.3 + 1.2 * s)).astype(int)
    model = fit_probit(s, y)
    g = probit_gradient(model.intercept, model.slope, s, y)
    assert np.linalg.norm(g) < 1e-6


def test_probit_gradient_matches_finite_differences():
    rng = np.random.default_rng(702)
    s = rng.standard_normal(60)
    y = (rng.random(60) < 0.5).astype(int)
    if y.sum() in (0, len(y)):
        y[0] = 1 - y[0]
    h = 1e-5
    for _ in range(25):
        a, b = rng.normal(scale=0.8, size=2)
        g = probit_gradient(a, b, s, y)
        fd = np.array(
            [
                (probit_loglik(a + h, b, s, y) - probit_loglik(a - h, b, s, y)) / (2 * h),
                (probit_loglik(a, b + h, s, y) - probit_loglik(a, b - h, s, y)) / (2 * h),
            ]
        )
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_probit_score_scaling_identity():
    rng = np.random.default_rng(703)
    s = rng.standard_normal(300)
    y = (rng.random(300) < stats.norm.cdf(0.5 * s)).astype(int)
    m1 = fit_probit(s, y)
    c = 3.7
    m2 = fit_probit(c * s, y)
    assert m2.slope == pytest.approx(m1.slope / c, rel=1e-6)
    p1 = predict_prob(m1, s)
    p2 = predict_prob(m2, c * s)
    np.testing.assert_allclose(p1, p2, atol=1e-8)


def test_probit_single_class_errors():
    with pytest.raises(ValueError):
        fit_probit(np.array([0.1, 0.2]), np.array([1, 1]))


def test_predict_prob_refuses_unconverged_unless_forced():
    model = fit_probit(np.array([-1.0, 1.0]), np.array([0, 1]))
    with pytest.raises(ValueError):
        predict_prob(model, [0.0])


def test_predict_prob_values():
    from arrayaudit.signature import ProbitModel

    model = ProbitModel(0.0, 1.0, True, 1)
    assert predict_prob(model, [0.0])[0] == pytest.approx(0.5, abs=1e-12)
    # quadrature oracle for the standard normal CDF at 1.6449
    grid = np.linspace(-12.0, 1.6449, 400001)
    pdf = np.exp(-0.5 * grid * grid) / math.sqrt(2 * math.pi)
    oracle = np.trapezoid(pdf, grid)
    assert predict_prob(model, [1.6449])[0] == pytest.approx(oracle, abs=1e-4)
    assert abs(oracle - 0.95) < 1e-3
    s = np.linspace(-3, 3, 50)
    p = predict_prob(model, s)
    assert np.all(np.diff(p) > 0)


# --- ROC / AUC ------------------------------------------------------------


def _brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_trivial_and_tabulated():
    assert auc([0.9, 0.8, 0.4, 0.3], [1, 1, 0, 0]) == 1.0
    assert auc([0.9, 0.35, 0.4, 0.3], [1, 1, 0, 0]) == 0.75


def test_auc_matches_brute_force_concordance():
    rng = np.random.default_rng(800)
    for _ in range(200):
        n = int(rng.integers(4, 25))
        scores = np.round(rng.standard_normal(n), 1)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(
            _brute_force_auc(scores, labels), abs=1e-12
        )


def test_auc_label_inversion_exact():
    rng = np.random.default_rng(801)
    for _ in range(300):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.standard_normal(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, 1 - labels) == 1.0 - auc(scores, labels)


def trapezoid_auc(points):
    """AUC oracle: the trapezoid rule over the ROC curve's points."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def test_roc_curve_and_trapezoid_consistency():
    rng = np.random.default_rng(802)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.standard_normal(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        pts = roc_curve(scores, labels)
        assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
        assert trapezoid_auc(pts) == pytest.approx(auc(scores, labels), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=4, max_size=30).filter(
        lambda xs: len(set(xs)) >= 2
    ),
    st.data(),
)
def test_auc_bounds_and_inversion_property(score_ints, data):
    n = len(score_ints)
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda ys: 0 < sum(ys) < len(ys)
        )
    )
    scores = np.array(score_ints, dtype=float)
    y = np.array(labels)
    a = auc(scores, y)
    assert 0.0 <= a <= 1.0
    assert auc(scores, 1 - y) == 1.0 - a
    assert a == pytest.approx(_brute_force_auc(scores, y), abs=1e-12)


def test_gene_ranking_rejects_missing_values():
    values = np.random.default_rng(0).standard_normal((6, 8))
    values[2, 3] = values[4, 1] = np.nan  # the first in column order is (4, 1)
    m = _two_group_matrix(values, 4)
    with pytest.raises(ValueError, match="non-missing.*gene 'g4' is missing in sample 's1'"):
        select_top_genes(m, 3)


def test_auc_rejects_nan_score_without_hanging():
    # in a child with a timeout: a NaN score once made the tie loop spin
    code = (
        "from arrayaudit.signature import auc\n"
        "try:\n"
        "    auc([0.9, float('nan'), 0.4, 0.3], [1, 1, 0, 0])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "score at index 1 is not finite (nan)"


@pytest.mark.parametrize(
    "fn, bad",
    # auc with NaN is covered in a child process above
    [(auc, math.inf), (auc, -math.inf), (roc_curve, math.inf), (roc_curve, math.nan)],
)
def test_roc_curve_and_auc_reject_non_finite_scores(fn, bad):
    with pytest.raises(ValueError, match="index 2 is not finite"):
        fn([0.9, 0.8, bad, 0.3], [1, 1, 0, 0])
