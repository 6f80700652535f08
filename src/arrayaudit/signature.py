"""Deterministic signature pipeline: differential-gene selection, metagene
scoring by leading singular direction, maximum-likelihood probit
classification, and ROC/AUC.

This is a deterministic proxy for the Bayesian fitting used in the
original reports: gene ranking by pooled-variance |t|, metagene by power
iteration on the Gram matrix of the row-centered signature submatrix, and
a Newton-fitted probit on the metagene score. Everything downstream
depends only on score rankings, which this preserves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

from .core import Direction, GroupLabel, LabeledMatrix, SignatureList, extract_submatrix

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class DegenerateGroupsError(ValueError):
    pass


def _two_groups(m: LabeledMatrix, min_size: int = 2) -> tuple[GroupLabel, list[int], GroupLabel, list[int]]:
    groups: dict[GroupLabel, list[int]] = {}
    for j, sid in enumerate(m.sample_ids):
        g = m.label_of(sid)
        if g != GroupLabel.UNKNOWN:
            groups.setdefault(g, []).append(j)
    if len(groups) != 2:
        raise DegenerateGroupsError(
            f"need exactly two non-Unknown groups, found {sorted(g.value for g in groups)}"
        )
    # first group by enum declaration order (Sensitive before Resistant)
    (g1, idx1), (g2, idx2) = sorted(groups.items(), key=lambda kv: list(GroupLabel).index(kv[0]))
    if len(idx1) < min_size or len(idx2) < min_size:
        raise DegenerateGroupsError(
            f"groups need >= {min_size} samples each, got {len(idx1)} and {len(idx2)}"
        )
    return g1, idx1, g2, idx2


def pooled_t(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Row-wise pooled-variance two-sample t of ``x1`` minus ``x2`` (features
    by samples, complete values). Zero pooled variance yields 0 for equal
    means and +/-inf otherwise."""
    n1, n2 = x1.shape[1], x2.shape[1]
    m1 = x1.mean(axis=1)
    m2 = x2.mean(axis=1)
    pooled = ((x1 - m1[:, None]) ** 2).sum(axis=1) + ((x2 - m2[:, None]) ** 2).sum(axis=1)
    pooled /= n1 + n2 - 2
    se = np.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    diff = m1 - m2
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / se
    t[(se == 0) & (diff == 0)] = 0.0
    t[(se == 0) & (diff > 0)] = np.inf
    t[(se == 0) & (diff < 0)] = -np.inf
    return t


def pooled_t_statistics(m: LabeledMatrix) -> np.ndarray:
    """Pooled-variance two-sample t per feature, first group (by label
    enum order) minus second (see ``pooled_t``). Missing values are
    rejected: a ranking over silently imputed data is exactly the kind of
    artifact this tool exists to catch."""
    _, idx1, _, idx2 = _two_groups(m)
    x1 = m.values[:, idx1]
    x2 = m.values[:, idx2]
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise ValueError("gene ranking requires complete (non-missing) values in both groups")
    return pooled_t(x1, x2)


def select_top_genes(m: LabeledMatrix, k: int) -> SignatureList:
    """Top-k features by |pooled t|, ties broken by ascending row index.

    Directions are recorded when the two groups are Sensitive and
    Resistant: a higher mean in the resistant group marks the gene
    UpInResistant, and vice versa.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > m.n_features:
        raise ValueError(f"k={k} exceeds the {m.n_features} available features")
    g1, idx1, g2, idx2 = _two_groups(m)
    t = pooled_t_statistics(m)
    chosen = np.lexsort((np.arange(m.n_features), -np.abs(t)))[:k].tolist()
    ids = tuple(m.feature_ids[i] for i in chosen)
    dirs: tuple[tuple[str, Direction], ...] = ()
    if {g1, g2} == {GroupLabel.SENSITIVE, GroupLabel.RESISTANT}:
        # t is first-group minus second; first group is Sensitive by enum order
        entries = []
        for i in chosen:
            d = Direction.UP_IN_SENSITIVE if t[i] > 0 else Direction.UP_IN_RESISTANT
            entries.append((m.feature_ids[i], d))
        dirs = tuple(entries)
    return SignatureList(ids, dirs)


class MetageneConvergenceError(RuntimeError):
    def __init__(self, message: str, n_iter: int, residual: float):
        super().__init__(message)
        self.n_iter = n_iter
        self.residual = residual


def _power_iteration(gram: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, float, int, float]:
    n = gram.shape[0]
    rng = np.random.default_rng(0)  # fixed seed: determinism contract
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise MetageneConvergenceError("matrix has no leading direction (zero Gram)", it, 0.0)
        v_new = w / norm
        # align sign so the convergence test is rotation-free
        if v_new @ v < 0:
            v_new = -v_new
        lam_new = float(v_new @ (gram @ v_new))
        delta = np.linalg.norm(v_new - v)
        v = v_new
        lam_prev, lam = lam, lam_new
        if delta <= tol and abs(lam - lam_prev) <= tol * max(abs(lam), 1.0):
            return v, lam, it, float(np.linalg.norm(gram @ v - lam * v) / max(lam, 1e-300))
    residual = float(np.linalg.norm(gram @ v - lam * v) / max(lam, 1e-300))
    raise MetageneConvergenceError(
        f"power iteration did not converge in {max_iter} iterations (residual {residual:.3e})",
        max_iter,
        residual,
    )


def metagene_scores(
    sub: LabeledMatrix, tol: float = 1e-10, max_iter: int = 10000
) -> np.ndarray:
    """Per-sample projections onto the leading singular direction of the
    row-centered signature submatrix.

    Power iteration runs over the smaller Gram dimension; scores equal the
    top singular value times the leading right singular vector. Sign is
    fixed so the score of largest absolute value is positive. A (near)
    tie in the top two singular values raises MetageneConvergenceError:
    the metagene is not identified in that case.
    """
    if sub.n_features < 2 or sub.n_samples < 2:
        raise ValueError("metagene needs at least a 2x2 submatrix")
    if not np.isfinite(sub.values).all():
        raise ValueError("metagene scoring requires complete (non-missing) values")
    x = sub.values - sub.values.mean(axis=1, keepdims=True)
    nr, nc = x.shape
    if nc <= nr:
        gram = x.T @ x
        lead, lam, n_iter, _ = _power_iteration(gram, tol, max_iter)
        scores = math.sqrt(max(lam, 0.0)) * lead
    else:
        gram = x @ x.T
        lead, lam, n_iter, _ = _power_iteration(gram, tol, max_iter)
        scores = x.T @ lead
    # ambiguity check: a second singular value within 1e-6 of the first
    # means the leading direction is start-dependent
    lam1 = float(max(lam, 0.0))
    if lam1 > 0.0:
        rng = np.random.default_rng(1)
        w = rng.standard_normal(gram.shape[0])
        w -= (w @ lead) * lead
        norm = np.linalg.norm(w)
        if norm > 0:
            w /= norm
            for _ in range(200):
                w = gram @ w
                w -= (w @ lead) * lead
                norm = np.linalg.norm(w)
                if norm == 0.0:
                    break
                w /= norm
            lam2 = float(w @ (gram @ w)) if norm > 0 else 0.0
            if lam2 > (1.0 - 1e-6) * lam1:
                raise MetageneConvergenceError(
                    "leading singular value is (near-)duplicated; metagene direction is ambiguous",
                    n_iter,
                    1.0 - lam2 / lam1,
                )
    imax = int(np.argmax(np.abs(scores)))
    if scores[imax] < 0:
        scores = -scores
    return scores


@dataclass(frozen=True)
class ProbitModel:
    intercept: float
    slope: float
    converged: bool
    n_iter: int
    separation_threshold: Optional[float] = None


def probit_loglik(intercept: float, slope: float, scores: np.ndarray, labels: np.ndarray) -> float:
    eta = intercept + slope * np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    return float(np.where(y == 1, log_ndtr(eta), log_ndtr(-eta)).sum())


def probit_gradient(intercept: float, slope: float, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the probit log-likelihood in (intercept, slope)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    eta = intercept + slope * s
    log_phi = -0.5 * eta * eta - _LOG_SQRT_2PI
    r1 = np.exp(log_phi - log_ndtr(eta))  # phi/Phi
    r0 = np.exp(log_phi - log_ndtr(-eta))  # phi/(1-Phi)
    u = np.where(y == 1, r1, -r0)
    return np.array([u.sum(), (u * s).sum()])


def _probit_hessian(intercept: float, slope: float, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    eta = intercept + slope * s
    log_phi = -0.5 * eta * eta - _LOG_SQRT_2PI
    r1 = np.exp(log_phi - log_ndtr(eta))
    r0 = np.exp(log_phi - log_ndtr(-eta))
    h = np.where(y == 1, -r1 * (eta + r1), r0 * eta - r0 * r0)
    h00 = h.sum()
    h01 = (h * s).sum()
    h11 = (h * s * s).sum()
    return np.array([[h00, h01], [h01, h11]])


def fit_probit(
    scores: Sequence[float],
    labels: Sequence[int],
    tol: float = 1e-8,
    max_iter: int = 100,
) -> ProbitModel:
    """Maximum-likelihood probit P(y=1) = Phi(a + b*score) by Newton
    iteration from (0, 0).

    Perfect separation (one class entirely above the other) makes the
    likelihood monotone with no finite optimum; it is detected up front
    and reported via converged=False plus the separating threshold.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and aligned")
    if not set(np.unique(y)) <= {0, 1}:
        raise ValueError("labels must be binary 0/1")
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    s1 = s[y == 1]
    s0 = s[y == 0]
    if s1.min() > s0.max():
        thr = float((s1.min() + s0.max()) / 2.0)
        return ProbitModel(math.nan, math.nan, False, 0, separation_threshold=thr)
    if s1.max() < s0.min():
        thr = float((s1.max() + s0.min()) / 2.0)
        return ProbitModel(math.nan, math.nan, False, 0, separation_threshold=thr)

    a, b = 0.0, 0.0
    for it in range(1, max_iter + 1):
        g = probit_gradient(a, b, s, y)
        h = _probit_hessian(a, b, s, y)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            return ProbitModel(a, b, False, it)
        a += float(step[0])
        b += float(step[1])
        if np.abs(step).max() < tol:
            return ProbitModel(a, b, True, it)
    return ProbitModel(a, b, False, max_iter)


def predict_prob(model: ProbitModel, scores: Sequence[float]) -> np.ndarray:
    """Phi(a + b*score) elementwise; refuses an unconverged model."""
    if not model.converged:
        raise ValueError("model did not converge")
    s = np.asarray(scores, dtype=np.float64)
    return ndtr(model.intercept + model.slope * s)


#: The class of each label in the probit fit and in ROC: Sensitive is positive.
CLASS_OF = {GroupLabel.SENSITIVE: 1, GroupLabel.RESISTANT: 0}


@dataclass(frozen=True)
class Predictions:
    """Test samples' metagene scores and probabilities of the Sensitive
    class; ``hard_calls`` marks 0/1 calls at the separating threshold of a
    perfectly separated training set."""

    sample_ids: tuple[str, ...]
    scores: np.ndarray
    probabilities: np.ndarray
    hard_calls: bool


def predict(train: LabeledMatrix, test: LabeledMatrix, k: int) -> Predictions:
    """Predict the test samples from a signature derived on ``train``.

    The model: the top-k genes of ``train`` (``select_top_genes``) that
    ``test`` also has, the metagene of the training submatrix, the test
    samples centered by the training gene means and projected onto the
    metagene's feature direction, and a probit of the training classes
    (``CLASS_OF``) on the training scores. A perfectly separated training
    set has no probit optimum and gives hard calls at the separating
    threshold instead.
    """
    g1, idx1, g2, idx2 = _two_groups(train)
    if {g1, g2} != CLASS_OF.keys():
        raise DegenerateGroupsError(f"prediction needs Sensitive and Resistant training groups, found {g1} and {g2}")
    sig = select_top_genes(train, k)
    test_sub, _ = extract_submatrix(test, sig)
    train_sub, _ = extract_submatrix(train, SignatureList(test_sub.feature_ids))
    train_scores = metagene_scores(train_sub)
    means = train_sub.values.mean(axis=1, keepdims=True)
    # the feature-space direction behind the scores (scores = sigma * v)
    u = (train_sub.values - means) @ train_scores
    u /= np.linalg.norm(u)
    test_scores = (test_sub.values - means).T @ u
    y = np.full(train.n_samples, -1)
    y[idx1], y[idx2] = CLASS_OF[g1], CLASS_OF[g2]
    model = fit_probit(train_scores[y >= 0], y[y >= 0])
    if model.converged:
        return Predictions(test_sub.sample_ids, test_scores, predict_prob(model, test_scores), False)
    if model.separation_threshold is None:
        raise ValueError("probit fit failed and no separating threshold exists")
    return Predictions(test_sub.sample_ids, test_scores, (test_scores >= model.separation_threshold).astype(float), True)


def _check_scores(scores: Sequence[float]) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise ValueError(f"score at index {int(bad[0])} is not finite ({float(s[bad[0]])})")
    return s


def _check_binary(labels: Sequence[int]) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if not set(np.unique(y)) <= {0, 1}:
        raise ValueError("labels must be binary 0/1")
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    return y


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> list[tuple[float, float]]:
    """(fpr, tpr) points over all distinct score thresholds, highest
    threshold first, starting at (0, 0) and ending at (1, 1)."""
    s = _check_scores(scores)
    y = _check_binary(labels)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    p = int(y.sum())
    n = len(y) - p
    tps = np.cumsum(y_sorted)
    fps = np.arange(1, len(y) + 1) - tps
    distinct = np.nonzero(np.diff(s_sorted))[0]
    idx = np.r_[distinct, len(y) - 1]
    points = [(0.0, 0.0)]
    for i in idx:
        points.append((float(fps[i] / n), float(tps[i] / p)))
    return points


_AUC_GRID = float(1 << 53)


def _round_half_even(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return q


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve with tied pairs counted 1/2.

    Computed from exact integer pair counts via grouped ranks
    (mathematically identical to the trapezoid over roc_curve). The final
    ratio is rounded, in exact integer arithmetic, to the 2^-53 grid; on
    that grid x -> 1 - x is exact, so auc(s, 1-y) == 1 - auc(s, y) holds
    bitwise while staying within one part in 2^53 of the true value.
    Non-finite scores are rejected.
    """
    s = _check_scores(scores)
    y = _check_binary(labels)
    p = int(y.sum())
    n = len(y) - p
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # 2*U = 2*concordant + ties, accumulated in exact integers
    two_u = 0
    below_neg = 0  # negatives with strictly smaller score
    i = 0
    while i < len(s_sorted):
        j = i
        tied_pos = 0
        tied_neg = 0
        while j < len(s_sorted) and s_sorted[j] == s_sorted[i]:
            if y_sorted[j] == 1:
                tied_pos += 1
            else:
                tied_neg += 1
            j += 1
        two_u += tied_pos * (2 * below_neg + tied_neg)
        below_neg += tied_neg
        i = j
    denom = 2 * p * n
    return _round_half_even(two_u << 53, denom) / _AUC_GRID
