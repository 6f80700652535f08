"""Hot numeric kernels: all-pairs and query-vs-reference Pearson scans, and
the column-correlation graph, all thresholded by one rule (``_hit_floor``).

One numpy implementation per scan. The dense all-pairs scan is one BLAS
matmul over standardized vectors. The query-vs-reference scan is the same
matmul taken a tile at a time, keeping only the pairs that reach a
threshold, so its memory is bounded by the tile and the hits rather than
by the product of the row counts. The missing-data scan is four matmuls
over the presence mask and the column-centered, zero-filled values.
Centering comes first because the uncentered single-pass form
(sum x^2 - (sum x)^2 / n) cancels catastrophically on raw intensities
(Chan, Golub & LeVeque 1983).

The public scans are looked up as module attributes at call time, so a
caller (or a tracer) that replaces one sees every call to it, including
those ``column_correlations`` and ``correlated_components`` make.

Degenerate (zero-variance) rows/columns yield NaN correlations, or no
hits; callers decide how to report them.
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


#: query x reference pairs per matmul of ``cross_row_correlations``: a 4 MiB
#: float64 tile, whatever the row counts
_PAIR_BUDGET = 1 << 19
#: reference rows per tile; the query rows per tile are the budget's rest
_REF_TILE = 2048


def _dot_tolerance(n: int) -> float:
    """The rounding bound of a correlation computed as the dot product of
    two rows of ``n`` values standardized by ``_standardize_rows``:
    2 * (n + 4) * eps. Each standardized value carries a relative error of
    at most (n / 2 + 4) eps, to first order: one rounding in centering,
    n / 2 from the sum of n squares through the square root, and one each
    from the square root and the division. (The rounding of the mean
    shifts a row's values alike, orthogonally to the centered row, which
    moves a correlation only to second order.) These move the exact dot
    product of the two rows by at most (n + 8) eps, and computing it over
    n positions adds n eps, in any summation order. So a copy of a row
    correlates with it at 1 - a few ulps, and which ulps depends on how
    BLAS blocks the product."""
    return 2.0 * (n + 4) * _EPS


def _hit_floor(threshold: float, n: int) -> float:
    """The hit rule of every thresholded scan: a correlation over ``n``
    values is a hit when it reaches ``threshold`` within ``_dot_tolerance``."""
    return threshold - _dot_tolerance(n)


def _live_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The standardized rows of ``x`` that are finite and vary
    (``varying``), and their row indices."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.flatnonzero(np.isfinite(x).all(axis=1))
    z, ok = _standardize_rows(x[rows])
    return z[ok], rows[ok]


def cross_row_correlations(
    query: np.ndarray, reference: np.ndarray, min_corr: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The reference rows each query row correlates with at ``min_corr`` or
    more, by ``_hit_floor`` over the shared width.

    Returns ``(live, hits)``: ``live[i]`` holds when query row ``i`` has a
    correlation at all, that is when it and at least one reference row are
    finite and vary; ``hits[i]`` holds the indices of its hits in
    reference order. Both sides are standardized once. The scan then takes
    ``_PAIR_BUDGET // _REF_TILE`` query rows by ``_REF_TILE`` reference
    rows per matmul and keeps each tile's hits as flat indices into the
    query x reference grid, which one sort puts in query, then reference,
    order.
    """
    q, qrows = _live_rows(query)
    r, rrows = _live_rows(reference)
    floor = _hit_floor(min_corr, q.shape[1])
    step = _PAIR_BUDGET // _REF_TILE
    flat = [np.zeros(0, dtype=np.intp)]
    for lo in range(0, len(q), step):
        for rlo in range(0, len(r), _REF_TILE):
            tile = r[rlo : rlo + _REF_TILE]
            # one expression, so each tile's products are freed before the next's
            i, j = np.divmod(np.flatnonzero(q[lo : lo + step] @ tile.T >= floor), len(tile))
            flat.append((lo + i) * len(r) + rlo + j)
    qi, ri = np.divmod(np.sort(np.concatenate(flat)), len(r))
    qi, ri = qrows[qi], rrows[ri]
    live = np.zeros(len(query), dtype=bool)
    live[qrows] = len(r) > 0
    starts = np.searchsorted(qi, np.arange(len(live) + 1))
    return live, [ri[a:b] for a, b in zip(starts[:-1], starts[1:])]


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

    ``_hit_floor`` holds here too, with n the row count, for two columns
    missing the same cells (a copy that kept its column's holes): their
    ``s`` terms cancel the rounding of the column means, and counting unit
    roundoffs u = eps / 2 to first order, relative to the product of the
    column norms, gives n + 3 for the numerator (centering, ``c``, its
    ``s`` term) and n + 6.5 for the norms (centered squares, ``q``, the
    ``s`` terms, product, root) and the division: (n + 4.75) eps in all,
    inside 2 * (n + 4) eps. Pairs missing different cells have no such
    bound: centering a column on part of its observations can cancel most
    of its digits.
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


def correlated_components(values: np.ndarray, threshold: float) -> tuple[list[list[int]], np.ndarray]:
    """The components of size >= 2 (as ``connected_components`` orders
    them) of the graph joining the columns of ``values`` whose correlation
    is a hit at ``threshold`` (``_hit_floor`` over the row count), and the
    mask of degenerate columns, whose NaN diagonal no hit joins. It needs
    2 columns and 3 rows: over two, every correlation is +-1."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape[1] < 2 or x.shape[0] < 3:
        raise ValueError(f"a correlation scan needs at least 3 features and 2 samples, got {x.shape[0]} x {x.shape[1]}")
    corr = column_correlations(x)
    adj = corr >= _hit_floor(threshold, x.shape[0])
    np.fill_diagonal(adj, False)
    return [c for c in connected_components(adj) if len(c) >= 2], np.isnan(np.diag(corr))
