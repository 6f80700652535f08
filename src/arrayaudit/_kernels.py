"""Hot numeric kernels: all-pairs and query-vs-reference Pearson scans, and
the connected components of a thresholded correlation graph.

One numpy implementation per scan. The dense scans are one BLAS matmul
over standardized vectors. The missing-data scan is four matmuls over the
presence mask and the column-centered, zero-filled values. Centering comes
first because the uncentered single-pass form (sum x^2 - (sum x)^2 / n)
cancels catastrophically on raw intensities (Chan, Golub & LeVeque 1983).

The public scans are looked up as module attributes at call time, so a
caller (or a tracer) that replaces one sees every call to it, including
the one ``column_correlations`` makes for a matrix with missing values.

Degenerate (zero-variance) rows/columns yield NaN correlations; callers
decide how to report them.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(np.float64).eps


def varying(centered_sq: np.ndarray, raw_sq: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """The degeneracy rule, from the sums of squares of ``n`` values
    centered and raw: they vary when their centered norm exceeds the
    rounding error of centering them, 4 * n * eps of their raw norm. The
    computed mean of a constant that does not round exactly (0.1, 7.3)
    leaves residuals of a few ulps, not zeros."""
    return np.sqrt(centered_sq) > 4.0 * n * _EPS * np.sqrt(raw_sq)


def _standardize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center rows and scale to unit Euclidean norm; flag the rows that
    vary (``varying``)."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=1, keepdims=True)
    sq = (centered * centered).sum(axis=1)
    norms = np.sqrt(sq)
    ok = varying(sq, (x * x).sum(axis=1), x.shape[1])
    safe = np.where(ok, norms, 1.0)
    return centered / safe[:, None], ok


def column_correlations(values: np.ndarray) -> np.ndarray:
    """Full n_cols x n_cols Pearson matrix; NaN row/col for zero variance.

    A matrix with any non-finite entry is scanned over pairwise-complete
    observations instead (``pairwise_complete_column_correlations``).
    """
    x = np.asarray(values, dtype=np.float64)
    if not np.isfinite(x).all():
        return pairwise_complete_column_correlations(x)
    z, ok = _standardize_rows(x.T)
    corr = np.clip(z @ z.T, -1.0, 1.0)
    corr[~ok, :] = np.nan
    corr[:, ~ok] = np.nan
    np.fill_diagonal(corr, np.where(ok, 1.0, np.nan))
    return corr


def cross_row_correlations(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Pearson correlation of every query row against every reference row."""
    q, qok = _standardize_rows(query)
    r, rok = _standardize_rows(reference)
    corr = np.clip(q @ r.T, -1.0, 1.0)
    corr[~qok, :] = np.nan
    corr[:, ~rok] = np.nan
    return corr


def pairwise_complete_column_correlations(
    values: np.ndarray, min_overlap: int = 3
) -> np.ndarray:
    """All-pairs column correlations over pairwise-complete observations.

    Non-finite entries are missing. Pairs with fewer than ``min_overlap``
    jointly observed entries, or with zero variance on the overlap, come
    back NaN. A variance within the rounding-error bound of its own
    computation (4 * overlap * eps of the overlap's sum of squares) counts
    as zero, so a column that is constant on the overlap gives NaN however
    its constant rounds. The diagonal is exactly 1.0, or NaN for a column
    with too few observations or no variance.
    """
    x = np.asarray(values, dtype=np.float64)
    present = np.isfinite(x)
    mask = present.astype(np.float64)
    count = np.maximum(mask.sum(axis=0), 1.0)
    x0 = np.where(present, x, 0.0)
    x0 = np.where(present, x0 - x0.sum(axis=0) / count, 0.0)
    n = mask.T @ mask  # jointly observed entries per pair
    s = x0.T @ mask  # s[i, j]: sum of column i over the rows column j has
    q = (x0 * x0).T @ mask
    c = x0.T @ x0
    with np.errstate(divide="ignore", invalid="ignore"):
        var = q - s * s / n  # var[i, j]: column i's variance on the overlap
        flat = var <= 4.0 * n * _EPS * q
        corr = (c - s * s.T / n) / np.sqrt(var * var.T)
    corr[(n < min_overlap) | flat | flat.T] = np.nan
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, np.where(np.isnan(np.diag(corr)), np.nan, 1.0))
    return corr


def connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of a symmetric boolean adjacency matrix,
    singletons included: ordered by smallest member, members ascending."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            new = np.flatnonzero(adjacency[v] & ~seen)
            seen[new] = True
            stack.extend(new.tolist())
        comps.append(sorted(members))
    return comps
