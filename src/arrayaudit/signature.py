"""Deterministic signature pipeline: differential-gene selection, metagene
scoring by leading singular direction, maximum-likelihood probit
classification, and ROC/AUC.

This is a deterministic proxy for the Bayesian fitting used in the
original reports: gene ranking by pooled-variance |t|, metagene by the
singular value decomposition of the row-centered signature submatrix, and
a Newton-fitted probit on the metagene score. Everything downstream
depends only on score rankings, which this preserves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .core import Direction, GroupLabel, LabeledMatrix, SignatureList, extract_submatrix, first_cell

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_EPS = np.finfo(np.float64).eps


def _ndtr(x: float) -> float:
    z = x * _SQRT_HALF
    if abs(z) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))  # the small side, without cancellation
    return 1.0 - tail if z > 0 else tail


def _log_ndtr(x: float) -> float:
    if x > 0:
        return math.log1p(-_ndtr(-x))
    if x > -20:
        return math.log(_ndtr(x))
    # log(phi(x) / -x) + log(1 - 1/x^2 + 3/x^4 - ...), summed to rounding
    inv_sq = 1.0 / (x * x)
    total, term, i = 1.0, 1.0, 0
    while abs(term) > _EPS:
        i += 1
        term *= -(2 * i - 1) * inv_sq
        total += term
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log(total)


#: The standard normal CDF Phi and its logarithm, elementwise, from the
#: stdlib's erf and erfc: each side's tail is taken directly, and log Phi
#: below -20 from its asymptotic series, so neither under- nor overflows
#: before the true value does.
ndtr = np.vectorize(_ndtr, otypes=[np.float64])
log_ndtr = np.vectorize(_log_ndtr, otypes=[np.float64])


class DegenerateGroupsError(ValueError):
    pass


def _two_groups(m: LabeledMatrix) -> tuple[GroupLabel, list[int], GroupLabel, list[int]]:
    groups: dict[GroupLabel, list[int]] = {}
    for j, sid in enumerate(m.sample_ids):
        g = m.label_of(sid)
        if g not in (GroupLabel.UNKNOWN, GroupLabel.UNUSED):
            groups.setdefault(g, []).append(j)
    if len(groups) != 2:
        raise DegenerateGroupsError(
            f"need exactly two groups other than Unknown and Unused, found {sorted(g.value for g in groups)}"
        )
    # first group by enum declaration order (Sensitive before Resistant)
    (g1, idx1), (g2, idx2) = sorted(groups.items(), key=lambda kv: list(GroupLabel).index(kv[0]))
    if len(idx1) < 2 or len(idx2) < 2:
        raise DegenerateGroupsError(
            f"groups need >= 2 samples each, got {len(idx1)} and {len(idx2)}"
        )
    return g1, idx1, g2, idx2


def pooled_t(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Row-wise pooled-variance two-sample t of ``x1`` minus ``x2`` (features
    by samples, complete values).

    Degenerate rows follow ``_kernels.varying``, with the raw sum of
    squares over both groups: a row whose values do not vary over both
    groups (their sum of squares about the common mean, pooled plus
    n1 n2 / n times the squared mean difference) gets 0, and a row that
    varies but whose pooled within-group residuals do not gets +/-inf by
    the sign of the mean difference. So a constant row scores 0 however
    its constant rounds. Each row is first scaled by
    ``_kernels.row_exponents`` of both groups, so t does not over- or
    underflow in its squares."""
    scale = _kernels.row_exponents(x1, x2)
    if scale is not None:
        x1, x2 = np.ldexp(x1, scale), np.ldexp(x2, scale)
    n1, n2 = x1.shape[1], x2.shape[1]
    m1 = x1.mean(axis=1)
    m2 = x2.mean(axis=1)
    ss = ((x1 - m1[:, None]) ** 2).sum(axis=1) + ((x2 - m2[:, None]) ** 2).sum(axis=1)
    raw = ss + n1 * m1 * m1 + n2 * m2 * m2  # sum of x**2, without another pass
    diff = m1 - m2
    n = n1 + n2
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(ss / (n - 2) * (1.0 / n1 + 1.0 / n2))
    flat = ~_kernels.varying(ss, raw, n)
    t[flat] = np.copysign(np.inf, diff[flat])
    t[~_kernels.varying(ss + n1 * n2 / n * diff * diff, raw, n)] = 0.0
    return t


def pooled_t_statistics(m: LabeledMatrix) -> np.ndarray:
    """Pooled-variance two-sample t per feature, first group (by label
    enum order) minus second (see ``pooled_t``). Missing values are
    rejected, naming the first one: a ranking over silently imputed data is
    exactly the kind of artifact this tool exists to catch."""
    _, idx1, _, idx2 = _two_groups(m)
    x1 = m.values[:, idx1]
    x2 = m.values[:, idx2]
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        grouped = np.zeros(m.n_samples, dtype=bool)
        grouped[idx1 + idx2] = True
        fid, sid, _ = first_cell(m, ~np.isfinite(m.values) & grouped)
        raise ValueError(
            f"gene ranking requires complete (non-missing) values in both groups; gene {fid!r} is missing in sample {sid!r}"
        )
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


class MetageneConvergenceError(ValueError):
    """The metagene is not identified: the signature submatrix has no
    leading direction, or its top two singular values (near-)tie."""


def _metagene(sub: LabeledMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The metagene scores s0 * v0 and the feature direction u0 of the
    leading singular triple (s0, u0, v0) of the row-centered ``sub``."""
    if sub.n_features < 2 or sub.n_samples < 2:
        raise ValueError("metagene needs at least a 2x2 submatrix")
    if not np.isfinite(sub.values).all():
        fid, sid, _ = first_cell(sub, ~np.isfinite(sub.values))
        raise ValueError(f"metagene scoring requires complete (non-missing) values; gene {fid!r} is missing in sample {sid!r}")
    # one power of two for the whole submatrix (``row_exponents`` of it as
    # one row): exact, and it leaves u0 and v0 as they are
    scale = _kernels.row_exponents(sub.values.reshape(1, -1))
    values = sub.values if scale is None else np.ldexp(sub.values, scale[0, 0])
    x = values - values.mean(axis=1, keepdims=True)
    if not _kernels.varying((x * x).sum(), (values * values).sum(), sub.n_samples):
        raise MetageneConvergenceError("signature submatrix does not vary: no leading direction")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[1] ** 2 > (1.0 - 1e-6) * s[0] ** 2:
        raise MetageneConvergenceError("leading singular value is (near-)duplicated; metagene direction is ambiguous")
    scores, direction = s[0] * vt[0], u[:, 0]
    if scale is not None:
        scores = np.ldexp(scores, -scale[0, 0])
    if scores[np.argmax(np.abs(scores))] < 0:
        return -scores, -direction
    return scores, direction


def metagene_scores(sub: LabeledMatrix) -> np.ndarray:
    """Per-sample projections s0 * v0 onto the leading singular direction
    of the row-centered signature submatrix, s0 its top singular value and
    v0 the right singular vector. Sign is fixed so the score of largest
    absolute value is positive.

    MetageneConvergenceError means the metagene is not identified: the
    submatrix as a whole fails ``_kernels.varying`` (no leading
    direction), or s1**2 > (1 - 1e-6) s0**2 (an ambiguous direction).
    """
    return _metagene(sub)[0]


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


def _probit_derivatives(
    intercept: float, slope: float, scores: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the probit log-likelihood in
    (intercept, slope)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    eta = intercept + slope * s
    log_phi = -0.5 * eta * eta - _LOG_SQRT_2PI
    r1 = np.exp(log_phi - log_ndtr(eta))  # phi/Phi
    r0 = np.exp(log_phi - log_ndtr(-eta))  # phi/(1-Phi)
    u = np.where(y == 1, r1, -r0)
    h = np.where(y == 1, -r1 * (eta + r1), r0 * eta - r0 * r0)
    h01 = (h * s).sum()
    return np.array([u.sum(), (u * s).sum()]), np.array([[h.sum(), h01], [h01, (h * s * s).sum()]])


def probit_gradient(intercept: float, slope: float, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the probit log-likelihood in (intercept, slope)."""
    return _probit_derivatives(intercept, slope, scores, labels)[0]


_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100


def fit_probit(scores: Sequence[float], labels: Sequence[int]) -> ProbitModel:
    """Maximum-likelihood probit P(y=1) = Phi(a + b*score) by Newton
    iteration from (0, 0), converged when a step is below 1e-8 in both
    coordinates, within 100 steps.

    Perfect separation (one class entirely above the other) makes the
    likelihood monotone with no finite optimum; it is detected up front
    and reported via converged=False plus the separating threshold, with
    the slope at the limit the likelihood climbs towards: +inf when class
    1 lies above the threshold, -inf when it lies below.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _check_binary(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and aligned")
    s1 = s[y == 1]
    s0 = s[y == 0]
    if s1.min() > s0.max():
        thr = float((s1.min() + s0.max()) / 2.0)
        return ProbitModel(math.nan, math.inf, False, 0, separation_threshold=thr)
    if s1.max() < s0.min():
        thr = float((s1.max() + s0.min()) / 2.0)
        return ProbitModel(math.nan, -math.inf, False, 0, separation_threshold=thr)

    a, b = 0.0, 0.0
    for it in range(1, _NEWTON_MAX_ITER + 1):
        g, h = _probit_derivatives(a, b, s, y)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            return ProbitModel(a, b, False, it)
        a += float(step[0])
        b += float(step[1])
        if np.abs(step).max() < _NEWTON_TOL:
            return ProbitModel(a, b, True, it)
    return ProbitModel(a, b, False, _NEWTON_MAX_ITER)


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
    metagene's feature direction u0, and a probit of the training classes
    (``CLASS_OF``) on the training scores. A perfectly separated training
    set has no probit optimum and gives hard calls at the separating
    threshold instead, 1 on the Sensitive training samples' side. The
    probit sees the scores scaled by one power of two, so neither the fit
    nor the probabilities depend on the scale of the values. A test
    sample missing a signature gene is an error naming the first such
    sample and gene, in column order.
    """
    g1, idx1, g2, idx2 = _two_groups(train)
    if {g1, g2} != CLASS_OF.keys():
        raise DegenerateGroupsError(f"prediction needs Sensitive and Resistant training groups, found {g1} and {g2}")
    sig = select_top_genes(train, k)
    test_sub, _ = extract_submatrix(test, sig)
    if not np.isfinite(test_sub.values).all():
        fid, sid, _ = first_cell(test_sub, ~np.isfinite(test_sub.values))
        raise ValueError(f"test sample {sid!r} has no value for signature gene {fid!r}")
    train_sub, _ = extract_submatrix(train, SignatureList(test_sub.feature_ids))
    train_scores, direction = _metagene(train_sub)
    test_scores = (test_sub.values - train_sub.values.mean(axis=1, keepdims=True)).T @ direction
    y = np.full(train.n_samples, -1)
    y[idx1], y[idx2] = CLASS_OF[g1], CLASS_OF[g2]
    # one power of two for all scores (``row_exponents`` of the training
    # scores as one row), so the fit neither over- nor underflows
    scale = _kernels.row_exponents(train_scores.reshape(1, -1))
    exponent = 0 if scale is None else int(scale[0, 0])
    model = fit_probit(np.ldexp(train_scores, exponent)[y >= 0], y[y >= 0])
    scaled = np.ldexp(test_scores, exponent)
    if model.converged:
        return Predictions(test_sub.sample_ids, test_scores, predict_prob(model, scaled), False)
    thr = model.separation_threshold
    if thr is None:
        raise ValueError("probit fit failed and no separating threshold exists")
    on_class_1_side = scaled >= thr if model.slope > 0 else scaled <= thr
    return Predictions(test_sub.sample_ids, test_scores, on_class_1_side.astype(float), True)


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


def _counts_at_or_above(scores: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Positives and negatives scoring at or above each distinct score,
    highest score first; the last entries are the class totals."""
    s = _check_scores(scores)
    y = _check_binary(labels)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    last = np.r_[np.nonzero(np.diff(s_sorted))[0], len(y) - 1]  # last index of each distinct score
    tp = np.cumsum(y[order])[last]
    return tp, last + 1 - tp


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> list[tuple[float, float]]:
    """(fpr, tpr) points over all distinct score thresholds, highest
    threshold first, starting at (0, 0) and ending at (1, 1)."""
    tp, fp = _counts_at_or_above(scores, labels)
    return [(0.0, 0.0)] + [(float(x), float(t)) for x, t in zip(fp / fp[-1], tp / tp[-1])]


_AUC_GRID = float(1 << 53)


def _round_half_even(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return q


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve with tied pairs counted 1/2.

    The exact trapezoid over ``roc_curve``'s counts: twice the area times
    p*n is the integer sum of dfp * (tp_prev + tp) over the distinct
    scores, p and n the class sizes. The final ratio is rounded, in exact
    integer arithmetic, to the 2^-53 grid; on that grid x -> 1 - x is
    exact, so auc(s, 1-y) == 1 - auc(s, y) holds bitwise while staying
    within one part in 2^53 of the true value. Non-finite scores are
    rejected.
    """
    tp, fp = _counts_at_or_above(scores, labels)
    tp_prev = np.r_[0, tp[:-1]]
    two_area = int(np.dot(np.diff(fp, prepend=0), tp_prev + tp))
    return _round_half_even(two_area << 53, 2 * int(tp[-1]) * int(fp[-1])) / _AUC_GRID
