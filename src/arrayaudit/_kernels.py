"""The one correlation scan, and the column-correlation graph built on it.

``cross_row_correlations`` finds the reference rows each query row
correlates with at a threshold or more, over the cells both hold
(non-finite cells are missing): ``match`` scans query rows against
reference rows, ``dup`` and ``blocks`` the columns of one matrix against
themselves (``correlated_components``). It keeps only each tile's hits, so
its memory is bounded by the tile, not by the product of the row counts;
the complete pairs' tile is one buffer, allocated once per call.
Rows are centered first, by ``center_rows``: the uncentered single-pass form
(sum x^2 - (sum x)^2 / n) cancels catastrophically on raw intensities
(Chan, Golub & LeVeque 1983). The scan is looked up as a module attribute
at call time, so a tracer that replaces it sees every call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_EPS = np.finfo(np.float64).eps


def varying(centered_sq: np.ndarray, raw_sq: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """The degeneracy rule, from the sums of squares of ``n`` values
    centered and raw: they vary when their centered norm exceeds the
    rounding error of centering them, 4 * n * eps of their raw norm. The
    computed mean of a constant that does not round exactly (0.1, 7.3)
    leaves residuals of a few ulps, not zeros."""
    return np.sqrt(centered_sq) > 4.0 * n * _EPS * np.sqrt(raw_sq)


#: query x reference pairs per matmul of ``cross_row_correlations``: a 4 MiB
#: float64 tile, whatever the row counts
_PAIR_BUDGET = 1 << 19
#: reference rows per tile; the query rows per tile are the budget's rest
_REF_TILE = 2048


def _dot_tolerance(n: int | np.ndarray) -> float | np.ndarray:
    """The rounding bound of a correlation computed as the dot product of
    two rows of ``n`` values, each centered and scaled to unit norm:
    2 * (n + 4) * eps. It is the one hit rule: a correlation over ``n``
    values is a hit when it reaches the threshold within this bound, its
    floor. To first order each standardized value errs by (n / 2 + 4) eps:
    one rounding in centering, n / 2 from the sum of squares through the
    root, one each from the root and the division (the mean's rounding
    shifts a row alike, orthogonally to it). That moves the dot product by
    (n + 8) eps, and computing it adds n eps in any order: a copy
    correlates with its row at 1 - a few ulps, however BLAS blocks."""
    return 2.0 * (n + 4) * _EPS


class _Side(NamedTuple):
    values: np.ndarray  # the whole side, rows scaled as in _live_rows, for the two-pass recomputation
    rows: np.ndarray  # row indices of the live rows, complete ones first, each kind in row order
    n_complete: int
    present: np.ndarray  # their finite cells
    z: np.ndarray  # centered on the mean of their finite cells, unit norm, zero where missing


def row_exponents(*blocks: np.ndarray) -> np.ndarray | None:
    """The power of two by which to scale each row of the column
    ``blocks`` (the same rows, finite values) taken together, as an n x 1
    column of exponents for ``np.ldexp``, or None when no row needs one. A
    row whose sum of squares lies outside 2^-800...2^800 gets the exponent
    that brings its largest |value| into [0.5, 1), so none of its squares
    over- or underflows; other rows get 0, since they need none. Scaling by
    a power of two is exact, so a statistic that a row's scale does not
    change keeps its bits."""
    with np.errstate(over="ignore"):
        raw = sum(np.einsum("ij,ij->i", b, b) for b in blocks)
    far = ~((raw > 2.0**-800) & (raw < 2.0**800))
    if not far.any():
        return None
    scale = np.zeros((len(raw), 1), dtype=np.int64)
    top = np.max([np.abs(b[far]).max(axis=1, initial=0.0) for b in blocks], axis=0)
    scale[far, 0] = -np.frexp(top)[1]
    return scale


class Centered(NamedTuple):
    values: np.ndarray  # the rows, scaled by row_exponents, non-finite cells as they were
    present: np.ndarray  # their finite cells
    centered: np.ndarray  # centered on the mean of their finite cells, zero elsewhere
    sq: np.ndarray  # sum of squares of each centered row
    k: np.ndarray  # finite cells per row
    varying: np.ndarray  # rows that vary over their finite cells (``varying``)


def center_rows(x: np.ndarray) -> Centered:
    """The one row rule, of the scan (``_live_rows``), the z-score step and
    the pipeline fit: each row of ``x`` over its finite cells, scaled by
    ``row_exponents`` of them and centered on their mean."""
    x = np.asarray(x, dtype=np.float64)
    present = np.isfinite(x)
    holes = not present.all()
    x0 = np.where(present, x, 0.0) if holes else x
    scale = row_exponents(x0)
    if scale is not None:
        x, x0 = np.ldexp(x, scale), np.ldexp(x0, scale)
    raw = np.einsum("ij,ij->i", x0, x0)
    k = present.sum(axis=1) if holes else np.full(len(x), x.shape[1])
    z = x0 - x0.sum(axis=1, keepdims=True) / np.maximum(k, 1)[:, None]
    if holes:
        z *= present
    sq = (z * z).sum(axis=1)
    return Centered(x, present, z, sq, k, varying(sq, raw, k))


def _live_rows(x: np.ndarray) -> _Side:
    """The rows of ``center_rows(x)`` that have at least 3 finite cells and
    vary over them, scaled to unit norm, complete ones first."""
    x, present, z, sq, k, live = center_rows(x)
    ok = (k >= 3) & live
    z /= np.sqrt(np.where(ok, sq, 1.0))[:, None]
    complete = ok & (k == x.shape[1])
    rows = np.concatenate([np.flatnonzero(complete), np.flatnonzero(ok & ~complete)])
    if not np.array_equal(rows, np.arange(len(x))):
        present, z = present[rows], z[rows]
    return _Side(x, rows, int(complete.sum()), present, z)


def _masked_keys(q: _Side, qsel: slice, r: _Side, rsel: slice, min_corr: float) -> np.ndarray:
    """The hits among query rows ``qsel`` x reference rows ``rsel`` of two
    sides, as keys query row * reference rows + reference row.

    A pair is scored when it shares n >= 3 cells and both rows vary on them:
    v > 4 n eps s, where s is a row's sum of squares about its own mean over
    the overlap and v = s - (overlap sum)^2 / n. Its floor is that of
    ``_dot_tolerance`` over n. The subtraction cancels digits, so its
    one-pass value's rounding bound is ``_dot_tolerance`` times
    2 max(s / v) - 1 over the two rows (to first order each sum errs by
    n eps / 2 of its absolute sum, the cancelled term doubles that, and
    dividing by v scales it by s / v). A pair within that bound of the
    floor is recomputed in two passes on its overlap, so a copy that lacks
    some of its row's cells is a hit at threshold 1, whatever the rest holds.
    """
    qz, qm, qrows = q.z[qsel], q.present[qsel], q.rows[qsel]
    rz, rm, rrows = r.z[rsel], r.present[rsel], r.rows[rsel]
    if not (len(qz) and len(rz)):
        return np.zeros(0, dtype=np.intp)
    # every scored pair at or above its floor less its bound reaches this
    reach = 2.0 * _dot_tolerance(qz.shape[1])
    # six products per pair: half the query rows by a quarter of the reference rows
    step, tile = max(_PAIR_BUDGET // _REF_TILE // 2, 1), max(_REF_TILE // 4, 1)
    keys = []
    for rlo in range(0, len(rz), tile):
        b, mb = rz[rlo : rlo + tile], rm[rlo : rlo + tile].astype(np.float64)
        bb = b * b
        for lo in range(0, len(qz), step):
            if q is r and np.array_equal(qrows[lo : lo + step], rrows[rlo : rlo + tile]):
                # a block of a self-scan against itself: its products are symmetric
                n, sa, qa, c = mb @ mb.T, b @ mb.T, bb @ mb.T, b @ b.T
                sb, qb = sa.T, qa.T
            else:
                a, ma = qz[lo : lo + step], qm[lo : lo + step].astype(np.float64)
                n, sa, qa, c = ma @ mb.T, a @ mb.T, (a * a) @ mb.T, a @ b.T
                sb, qb = ma @ b.T, ma @ bb.T
            with np.errstate(divide="ignore", invalid="ignore"):
                va = qa - sa * sa / n
                vb = qb - sb * sb / n
                corr = (c - sa * sb / n) / np.sqrt(va * vb)
                cancel = np.maximum(qa / va, qb / vb)
                i, j = np.divmod(np.flatnonzero(corr >= min_corr - reach * cancel), len(b))
            n, va, vb, corr, cancel = (t[i, j] for t in (n, va, vb, corr, cancel))
            floor = min_corr - _dot_tolerance(n)
            scored = (n >= 3) & (va > 0) & (vb > 0) & (4.0 * n * _EPS * cancel < 1.0)
            near = scored & (np.abs(corr - floor) <= _dot_tolerance(n) * (2.0 * cancel - 1.0))
            hit = scored & (corr >= floor)
            qi, ri = qrows[lo + i], rrows[rlo + j]
            # the second pass: center each near pair on its overlap, whose bound is _dot_tolerance
            u, v = q.values[qi[near]], r.values[ri[near]]
            both = np.isfinite(u) & np.isfinite(v)
            u, v = (np.where(both, x - np.where(both, x, 0.0).sum(1, keepdims=True) / n[near, None], 0.0) for x in (u, v))
            hit[near] = (u * v).sum(axis=1) / np.sqrt((u * u).sum(axis=1) * (v * v).sum(axis=1)) >= floor[near]
            keys.append(qi[hit] * len(r.values) + ri[hit])
    return np.concatenate(keys)


def cross_row_correlations(
    query: np.ndarray, reference: np.ndarray, min_corr: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The reference rows each query row correlates with at ``min_corr`` or
    more, over the cells both hold, by the rule of ``_dot_tolerance``.

    Returns ``(live, hits)``: ``live[i]`` holds when query row ``i`` and at
    least one reference row have 3 or more finite cells and vary over them;
    ``hits[i]`` holds the indices of its hits in reference order. Each side
    is prepared once (once in all when ``reference`` is ``query``). Pairs of
    complete rows take ``_PAIR_BUDGET // _REF_TILE`` query rows by
    ``_REF_TILE`` reference rows per matmul, written into one product and
    one compare buffer sized once per call, keeping each tile's hits as
    flat indices into the query x reference grid; the other pairs go to
    ``_masked_keys`` once the buffers are freed. One sort puts the hits in
    query, then reference, order.
    """
    qs = _live_rows(query)
    rs = qs if reference is query else _live_rows(reference)
    q, r = qs.z[: qs.n_complete], rs.z[: rs.n_complete]
    floor = min_corr - _dot_tolerance(q.shape[1])
    step = _PAIR_BUDGET // _REF_TILE
    n_ref = len(rs.values)
    flat = [np.zeros(0, dtype=np.intp)]
    # one tile's products and compares, allocated once: a buffer freed per
    # tile can go back to the system and fault its pages in again
    size = min(step, len(q)) * min(_REF_TILE, len(r))
    prod, ge = np.empty(size), np.empty(size, dtype=bool)
    for lo in range(0, len(q), step):
        a = q[lo : lo + step]
        for rlo in range(0, len(r), _REF_TILE):
            tile = r[rlo : rlo + _REF_TILE]
            n = len(a) * len(tile)
            np.matmul(a, tile.T, out=prod[:n].reshape(len(a), len(tile)))
            np.greater_equal(prod[:n], floor, out=ge[:n])
            i, j = np.divmod(np.flatnonzero(ge[:n]), len(tile))
            flat.append(qs.rows[lo + i] * n_ref + rs.rows[rlo + j])
    del prod, ge
    flat.append(_masked_keys(qs, slice(qs.n_complete, None), rs, slice(None), min_corr))
    flat.append(_masked_keys(qs, slice(qs.n_complete), rs, slice(rs.n_complete, None), min_corr))
    qi, ri = np.divmod(np.sort(np.concatenate(flat)), max(n_ref, 1))
    live = np.zeros(len(qs.values), dtype=bool)
    live[qs.rows] = len(rs.rows) > 0
    starts = np.searchsorted(qi, np.arange(len(live) + 1))
    return live, [ri[a:b] for a, b in zip(starts[:-1], starts[1:])]


def correlated_components(values: np.ndarray, threshold: float) -> tuple[list[list[int]], np.ndarray]:
    """The components of size >= 2, ordered by smallest member with members
    ascending, of the graph joining two columns of ``values`` when either
    is a hit of the other in the scan of the columns against themselves,
    and the mask of the columns that are not live there. It needs 2 columns
    and 3 rows: over two, every correlation is +-1.

    Each column's label starts as its own index and takes the smallest
    label across its hit pairs, in both directions, and the label of its
    label, until none changes: then a component's label is its smallest
    member."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape[1] < 2 or x.shape[0] < 3:
        raise ValueError(f"a correlation scan needs at least 3 features and 2 samples, got {x.shape[0]} x {x.shape[1]}")
    cols = x.T
    live, hits = cross_row_correlations(cols, cols, threshold)
    a = np.repeat(np.arange(len(hits)), [len(h) for h in hits])
    b = np.concatenate(hits)
    a, b = np.concatenate([a, b]), np.concatenate([b, a])
    label = np.arange(len(hits))
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    # columns by label, each label's in column order, from its first column
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=len(label))
    starts = np.cumsum(sizes) - sizes
    return [order[s : s + c].tolist() for s, c in zip(starts.tolist(), sizes.tolist()) if c >= 2], ~live
