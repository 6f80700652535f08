import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrayaudit import _kernels
from arrayaudit.core import LabeledMatrix
from arrayaudit.dupscan import find_duplicate_columns
from arrayaudit.integrity import detect_blocks
from arrayaudit.matchscan import match_columns, match_rows


def _masked_corr_oracle(values, i, j):
    """np.corrcoef over the rows both columns hold; NaN when they share
    fewer than 3 or either is constant there."""
    mask = np.isfinite(values[:, i]) & np.isfinite(values[:, j])
    if mask.sum() < 3:
        return np.nan
    a = values[mask, i]
    b = values[mask, j]
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        return np.nan
    return float(np.corrcoef(a, b)[0, 1])


def _assert_scan_matches_oracle(values, thresholds=(-0.5, 0.0, 0.3, 0.6, 0.99)):
    """The scan of the columns of ``values`` against themselves, at each
    threshold: a column's hits are the columns whose oracle correlation
    reaches it (a NaN one never does), and no oracle value lies within
    1e-9 of a threshold. Returns the scan's live mask."""
    cols = values.T
    n = cols.shape[0]
    oracle = np.array([[_masked_corr_oracle(values, i, j) for j in range(n)] for i in range(n)])
    for t in thresholds:
        assert not (np.abs(oracle - t) < 1e-9).any()
        live, hits = _kernels.cross_row_correlations(cols, cols, t)
        with np.errstate(invalid="ignore"):
            assert [h.tolist() for h in hits] == [np.flatnonzero(row >= t).tolist() for row in oracle], t
    return live


def _scored(values):
    """The pairs of columns the scan scores, as its hits at threshold -1."""
    _, hits = _kernels.cross_row_correlations(values.T, values.T, -1.0)
    return {(i, int(j)) for i, found in enumerate(hits) for j in found}


def test_center_rows_writes_the_same_bits_into_an_output_array():
    # complete and holed matrices with rows scaled by 2**700 and 2**-700,
    # each taller than one block of squared rows, in either layout
    rng = np.random.default_rng(12)
    x = rng.normal(3.0, 2.0, (3 * _kernels._SQ_BLOCK // 24 + 5, 24))
    x[5] *= 2.0**700
    x[6] *= 2.0**-700
    holed = x.copy()
    holed[rng.random(x.shape) < 0.02] = np.nan
    holed[7, 3], holed[6, 0] = np.inf, np.nan
    for values in (x, holed, np.asfortranarray(x), np.asfortranarray(holed)):
        want = _kernels.center_rows(values)
        out = np.empty_like(values)
        got = _kernels.center_rows(values, out)
        assert got.centered is out
        for field in _kernels.Centered._fields:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        # each row's sum of squares is the one a whole-array square gives
        assert want.sq.tobytes() == (want.centered * want.centered).sum(axis=1).tobytes()


def test_cross_row_self_scan_against_corrcoef():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((30, 12))
    assert _assert_scan_matches_oracle(values).all()


def test_cross_row_constant_column_is_not_live():
    # a constant column is not live: no hit, not even itself
    rng = np.random.default_rng(2)
    values = rng.standard_normal((10, 5))
    values[:, 3] = 7.0
    live = _assert_scan_matches_oracle(values)
    assert live.tolist() == [True, True, True, False, True]
    assert all(3 not in {i, j} for i, j in _scored(values))


def test_cross_row_constant_columns_that_do_not_round_are_not_live():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((10, 6))
    constants = {1: 0.1, 3: 7.3, 4: 1e7 + 0.3}  # means off by an ulp or more
    for j, c in constants.items():
        values[:, j] = c
    live = _assert_scan_matches_oracle(values)
    assert np.flatnonzero(live).tolist() == [0, 2, 5]
    assert _scored(values) == {(i, j) for i in (0, 2, 5) for j in (0, 2, 5)}


def test_cross_row_correlations_against_corrcoef():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((40, 15))
    r = rng.standard_normal((60, 15))
    oracle = np.corrcoef(q, r)[:40, 40:]
    for min_corr in (-0.5, 0.0, 0.3, 0.6):
        assert np.abs(oracle - min_corr).min() > 1e-12  # no pair on the threshold
        live, hits = _kernels.cross_row_correlations(q, r, min_corr)
        assert live.all()
        assert [h.tolist() for h in hits] == [np.flatnonzero(row >= min_corr).tolist() for row in oracle]


def test_cross_row_with_missing_cells_matches_masked_oracle():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((25, 8))
    values[rng.random((25, 8)) < 0.15] = np.nan
    live = _assert_scan_matches_oracle(values)
    assert live.all() and len(_scored(values)) == 8 * 8


def test_cross_row_raw_scale_with_missing_cells_matches_masked_oracle():
    # unlogged intensities: column means from 1e3 to 1e7, 1-5% missing,
    # some columns near-duplicates of each other
    rng = np.random.default_rng(5)
    n_rows, n_cols = 400, 10
    base = rng.standard_normal(n_rows)
    values = np.empty((n_rows, n_cols))
    for j, mean in enumerate(np.logspace(3, 7, n_cols)):
        rho = 0.99999 if j % 3 == 0 else rng.uniform(-0.9, 0.9)
        signal = rho * base + np.sqrt(1 - rho * rho) * rng.standard_normal(n_rows)
        values[:, j] = mean * (1.0 + 0.2 * signal)
        values[rng.random(n_rows) < rng.uniform(0.01, 0.05), j] = np.nan
    live = _assert_scan_matches_oracle(values, thresholds=(-0.5, 0.0, 0.5, 0.9999))
    assert live.all() and len(_scored(values)) == n_cols * n_cols


def test_cross_row_short_overlap_and_all_nan_columns():
    rng = np.random.default_rng(6)
    values = rng.standard_normal((12, 5))
    values[:, 1] = np.nan  # all-NaN column
    values[:10, 2] = np.nan  # observed on rows 10, 11 only
    values[9:, 3] = np.nan  # overlaps column 2 on nothing, column 0 on 9 rows
    values[:7, 4] = np.nan  # overlaps column 3 on rows 7 and 8 only
    live = _assert_scan_matches_oracle(values)
    assert live.tolist() == [True, False, False, True, True]
    assert _scored(values) == {(0, 0), (0, 3), (0, 4), (3, 0), (3, 3), (4, 0), (4, 4)}


@pytest.mark.parametrize("const", [0.1, 7.3, 1e7 + 0.3])
def test_cross_row_constant_on_overlap_scores_no_pair(const):
    # a pair is scored only when both columns vary on the cells they share
    rng = np.random.default_rng(7)
    values = rng.standard_normal((200, 4)) * 50.0 + 1e3
    values[:100, 0] = np.nan
    values[100:, 1] = const  # constant exactly where column 0 is observed
    values[:, 2] = const  # constant everywhere
    values[3, 3] = np.nan
    live = _assert_scan_matches_oracle(values)
    assert live.tolist() == [True, True, False, True]
    assert _scored(values) == {(i, j) for i in (0, 1, 3) for j in (0, 1, 3)} - {(0, 1), (1, 0)}


def test_cross_row_routes_only_pairs_with_missing_cells_to_masked_tiles(monkeypatch):
    # complete pairs take the dense tile; every pair that holds a missing
    # cell, and only those, takes the masked products
    rng = np.random.default_rng(8)
    values = rng.standard_normal((30, 6))
    values[4, 2] = np.nan
    masked_pairs = []
    masked_keys = _kernels._masked_keys

    def spy(q, qsel, r, rsel, min_corr):
        masked_pairs.extend((int(a), int(b)) for a in q.rows[qsel] for b in r.rows[rsel])
        return masked_keys(q, qsel, r, rsel, min_corr)

    monkeypatch.setattr(_kernels, "_masked_keys", spy)
    _assert_scan_matches_oracle(values)
    assert sorted(set(masked_pairs)) == sorted({(2, j) for j in range(6)} | {(j, 2) for j in range(6)})
    masked_pairs.clear()
    _assert_scan_matches_oracle(np.nan_to_num(values))
    assert masked_pairs == []


@pytest.mark.parametrize("min_corr", [1.0, 0.9999, 0.8, 1e-9])
def test_banded_scan_finds_the_hits_of_the_whole_grid(monkeypatch, min_corr):
    # a rank-40 panel with exact, affine and noisy copies (correlating near
    # 0.9999), against itself and a shuffled part of itself: a budget of
    # the whole grid multiplies every query row by every reference row
    rng = np.random.default_rng(40)
    x = rng.standard_normal((1500, 40)) @ rng.standard_normal((40, 48)) + 0.05 * rng.standard_normal((1500, 48))
    x[1300:1350] = x[:50] + 0.09 * rng.standard_normal((50, 48))
    x[1400:1450] = x[50:100]
    x[1450:] = 2.5 * x[100:150] - 4.0
    for query in (x, x[rng.permutation(1500)[:700]]):
        assert len(query) * len(x) > _kernels._PAIR_BUDGET
        live, hits = _kernels.cross_row_correlations(query, x, min_corr)
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "_PAIR_BUDGET", len(query) * len(x))
            whole_live, whole = _kernels.cross_row_correlations(query, x, min_corr)
        assert np.array_equal(live, whole_live)
        assert [h.tolist() for h in hits] == [h.tolist() for h in whole]
        assert any(len(h) > 1 for h in hits)


def test_band_reaches_pairs_that_differ_in_the_key_column(monkeypatch):
    # unit rows at correlation c lie sqrt(2 - 2c) apart; these query rows
    # put all but about 0.5% of that distance from reference row 0 in
    # column 7, the key, above and below it: one query row per band
    rng = np.random.default_rng(200)
    ref = rng.standard_normal((64, 200))
    ref[1:, 7] *= 30.0
    u = ref[0] - ref[0].mean()
    u /= np.linalg.norm(u)
    v = np.eye(200)[7] - 1.0 / 200
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    monkeypatch.setattr(_kernels, "_QUERY_TILE", 1)
    monkeypatch.setattr(_kernels, "_PAIR_BUDGET", 1)
    for c, want in ((0.9999 + 1e-9, [[0], [0]]), (0.9999 - 1e-9, [[], []])):
        s = np.sqrt(1.0 - c * c)
        _, hits = _kernels.cross_row_correlations(np.array([c * u + s * v, c * u - s * v]), ref, 0.9999)
        assert [h.tolist() for h in hits] == want


def test_band_multiplies_only_pairs_that_can_reach_the_threshold(monkeypatch):
    x = np.random.default_rng(24).standard_normal((4000, 24))
    pairs = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        pairs.append(a.shape[0] * b.shape[1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    _kernels.cross_row_correlations(x, x, 0.9999)
    assert 0 < sum(pairs) < 0.2 * 4000**2
    pairs.clear()
    # nearly every pair passes 1e-9 or lies within reach of one that does
    _kernels.cross_row_correlations(x, x, 1e-9)
    assert sum(pairs) == 4000**2


def test_correlated_components_order():
    # columns built from orthogonal centered Walsh rows: 5-1, 1-3 and 6-2
    # correlate at cos 20 degrees, 5 and 3 only at cos 40 degrees, and 0 and
    # 4 with nothing, so the chain 5-1-3 is one component
    h = np.kron(np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]), [[1, 1], [1, -1]])[1:].astype(float)
    c, s = np.cos(np.radians(20)), np.sin(np.radians(20))
    cols = [h[4], h[0], h[2], c * h[0] - s * h[1], h[5], c * h[0] + s * h[1], c * h[2] + s * h[3]]
    comps, dead = _kernels.correlated_components(np.array(cols).T, 0.9)
    assert comps == [[1, 3, 5], [2, 6]]
    assert not dead.any()


# --- the one hit rule: dup, blocks and match ---------------------------------------

#: (a, b) of the copies a * x + b planted beside a column of eighths; each
#: is exact in binary, so a copy correlates exactly +1 or -1 with its column
_COPIES = [(1.0, 0.0), (2.5, -4.0), (0.5, 3.25), (4.0, 1.0), (-1.0, 0.0)]


@st.composite
def _panels(draw, missing):
    """2-5 columns of eighths in [-512, 512] over 3-400 rows, each beside
    0-2 planted copies that keep its missing cells, in a drawn order, and a
    threshold in (0, 1], 1 in about one draw of six."""
    rows = draw(st.integers(3, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    holes = draw(st.sampled_from([0.1, 0.5])) if missing else 0.0
    cols = []
    for _ in range(draw(st.integers(2, 5))):
        col = rng.integers(-4096, 4097, rows) / 8
        col[rng.random(rows) < holes] = np.nan
        cols += [col] + [a * col + b for a, b in draw(st.lists(st.sampled_from(_COPIES), max_size=2))]
    order = draw(st.permutations(range(len(cols))))
    threshold = draw(st.sampled_from([1.0, 0.9999, 0.99]) | st.floats(0.01, 1.0))
    return np.column_stack([cols[i] for i in order]), threshold


def _exact_hits(values, threshold):
    """The exhaustive oracle: the pairs whose exact correlation over their
    shared cells, in integer arithmetic on the values times 16, reaches
    ``threshold``, and the degenerate columns (fewer than 3 cells, or
    constant). A pair within 3 rounding bounds under the threshold, or,
    when the two miss different cells, within 1e-6 of it either way,
    rejects the example: no computed scan can place such a pair."""
    present = np.isfinite(values)
    rows, n = values.shape
    ints = np.where(present, values * 16, 0).astype(np.int64)
    degenerate = [present[:, j].sum() < 3 or np.ptp(ints[present[:, j], j]) == 0 for j in range(n)]
    t2 = Fraction(threshold) ** 2
    hits = set()
    for i in range(n):
        for j in range(i + 1, n):
            both = present[:, i] & present[:, j]
            x, y, k = ints[both, i], ints[both, j], int(both.sum())
            sx, sy = int(x.sum()), int(y.sum())
            sxx = k * int((x * x).sum()) - sx * sx
            syy = k * int((y * y).sum()) - sy * sy
            sxy = k * int((x * y).sum()) - sx * sy
            if k < 3 or sxx == 0 or syy == 0:
                continue
            hit = sxy > 0 and sxy * sxy >= t2 * sxx * syy
            below = threshold - math.copysign(math.sqrt(Fraction(sxy * sxy, sxx * syy)), sxy)
            if (present[:, i] == present[:, j]).all():
                assume(hit or below >= 3 * _kernels._dot_tolerance(rows))
            else:
                assume(abs(below) >= 1e-6)
            if hit:
                hits.add((i, j))
    return hits, degenerate


def _components(hits, n):
    """Union-find over the oracle's hits: the groups of 2 or more, members
    ascending, ordered by smallest member."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for i, j in hits:
        root[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(g for g in groups.values() if len(g) >= 2)


@pytest.mark.parametrize("missing", [False, True], ids=["dense", "shared-missing"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dup_blocks_and_match_apply_one_hit_rule(missing, data):
    values, threshold = data.draw(_panels(missing))
    rows, n = values.shape
    hits, degenerate = _exact_hits(values, threshold)
    m = LabeledMatrix(tuple(f"g{i}" for i in range(rows)), tuple(f"c{j}" for j in range(n)), values)
    index = {sid: i for i, sid in enumerate(m.sample_ids)}
    expected = [tuple(m.sample_ids[i] for i in c) for c in _components(hits, n)]
    dup = find_duplicate_columns(m, threshold=threshold)
    assert list(dup.components) == expected
    assert dup.degenerate_columns == tuple(sid for sid, d in zip(m.sample_ids, degenerate) if d)
    assert list(detect_blocks(m, corr_threshold=threshold).components) == expected
    if not missing:
        match = match_columns(m, m, min_corr=threshold)
        hits_of = {q: set(match.ambiguous.get(q, ())) | {match.mapping[q]} - {None} for q in m.sample_ids}
        assert all(q in hits_of[q] for q in m.sample_ids if q not in match.degenerate)
        found = {(index[q], index[r]) for q, rs in hits_of.items() for r in rs if r != q}
        assert found == hits | {(j, i) for i, j in hits}
        assert match.degenerate == dup.degenerate_columns


# --- holes that differ between the two sides -----------------------------------------


@st.composite
def _holed_panels(draw):
    """2-4 columns of eighths in [-512, 512] over 3-300 rows with 0-30% of
    their cells missing, 0-2 far values (+-1e6) each, and 0-2 copies
    a * x + b each that lack their column's far cells and 0-30% of its
    other cells; in a drawn order, with a threshold in (0, 1], 1 in about
    one draw of six."""
    rows = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.integers(2, 4))):
        col = rng.integers(-4096, 4097, rows) / 8
        col[rng.random(rows) < draw(st.sampled_from([0.0, 0.1, 0.3]))] = np.nan
        far = rng.choice(rows, size=draw(st.integers(0, min(2, rows))), replace=False)
        col[far] = rng.choice([-1e6, 1e6], size=len(far))
        cols.append(col)
        for a, b in draw(st.lists(st.sampled_from(_COPIES), max_size=2)):
            copy = a * col + b
            copy[far] = np.nan
            copy[rng.random(rows) < draw(st.sampled_from([0.0, 0.1, 0.3]))] = np.nan
            cols.append(copy)
    order = draw(st.permutations(range(len(cols))))
    threshold = draw(st.sampled_from([1.0, 0.9999, 0.99]) | st.floats(0.01, 1.0))
    return np.column_stack([cols[i] for i in order]), threshold


def _exact_overlap_hits(values, threshold):
    """The exhaustive oracle over each pair's shared cells, in integer
    arithmetic on the values times 16: the pairs whose exact correlation
    reaches ``threshold``, and the degenerate columns (fewer than 3 cells,
    or constant). A pair within 3 rounding bounds of its overlap under the
    threshold rejects the example: no computed scan can place it."""
    present = np.isfinite(values)
    n = values.shape[1]
    ints = np.where(present, values * 16, 0).astype(np.int64)
    degenerate = [present[:, j].sum() < 3 or np.ptp(ints[present[:, j], j]) == 0 for j in range(n)]
    t2 = Fraction(threshold) ** 2
    hits = set()
    for i in range(n):
        for j in range(i + 1, n):
            both = present[:, i] & present[:, j]
            x, y, k = [int(v) for v in ints[both, i]], [int(v) for v in ints[both, j]], int(both.sum())
            sx, sy = sum(x), sum(y)
            sxx = k * sum(v * v for v in x) - sx * sx
            syy = k * sum(v * v for v in y) - sy * sy
            sxy = k * sum(u * v for u, v in zip(x, y)) - sx * sy
            if k < 3 or sxx == 0 or syy == 0:
                continue
            hit = sxy > 0 and sxy * sxy >= t2 * sxx * syy
            below = threshold - math.copysign(math.sqrt(Fraction(sxy * sxy, sxx * syy)), sxy)
            assume(hit or below >= 3 * _kernels._dot_tolerance(k))
            if hit:
                hits.add((i, j))
    return hits, degenerate


@settings(max_examples=200, deadline=None)
@given(_holed_panels())
def test_one_scan_against_exact_arithmetic_with_holes_and_far_values(panel):
    # a copy that lacks some of its column's cells, far values among them,
    # is placed exactly as a complete one
    values, threshold = panel
    rows, n = values.shape
    hits, degenerate = _exact_overlap_hits(values, threshold)
    m = LabeledMatrix(tuple(f"g{i}" for i in range(rows)), tuple(f"c{j}" for j in range(n)), values)
    index = {sid: i for i, sid in enumerate(m.sample_ids)}
    expected = [tuple(m.sample_ids[i] for i in c) for c in _components(hits, n)]
    dup = find_duplicate_columns(m, threshold=threshold)
    assert list(dup.components) == expected
    assert dup.degenerate_columns == tuple(sid for sid, d in zip(m.sample_ids, degenerate) if d)
    assert list(detect_blocks(m, corr_threshold=threshold).components) == expected
    match = match_columns(m, m, min_corr=threshold)
    hits_of = {q: set(match.ambiguous.get(q, ())) | {match.mapping[q]} - {None} for q in m.sample_ids}
    assert all(q in hits_of[q] for q in m.sample_ids if q not in match.degenerate)
    found = {(index[q], index[r]) for q, rs in hits_of.items() for r in rs if r != q}
    assert found == hits | {(j, i) for i, j in hits}
    assert match.degenerate == dup.degenerate_columns


def test_copy_lacking_its_columns_far_cell_is_a_duplicate_at_threshold_one():
    # centering on the whole column would cancel most digits of the overlap
    found = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(50, 2001))
        values = rng.standard_normal((rows, 4))
        far = int(rng.integers(rows))
        values[far, 0] = 1e6
        values[:, 3] = values[:, 0]
        values[far, 3] = np.nan
        m = LabeledMatrix(tuple(f"g{i}" for i in range(rows)), ("a", "b", "c", "copy"), values)
        comps = find_duplicate_columns(m, threshold=1.0).components
        found += comps == (("a", "copy"),) and detect_blocks(m, corr_threshold=1.0).components == comps
    assert found == 200


def test_match_identifies_every_sample_and_row_of_a_raw_panel_with_missing_cells():
    # the audit-raw-missing shape: 2,000 unlogged intensities x 60 lines, 1% NA
    rng = np.random.default_rng(11)
    values = np.exp(rng.standard_normal((2000, 60)) + rng.uniform(4.5, 11.5, 60))
    values[rng.random(values.shape) < 0.01] = np.nan
    assert 800 < (~np.isfinite(values)).any(axis=1).sum() < 1000
    m = LabeledMatrix(tuple(f"g{i}" for i in range(2000)), tuple(f"s{j}" for j in range(60)), values)
    by_column = match_columns(m, m, min_corr=0.999)
    assert by_column.n_matched == 60 and by_column.mapping == {s: s for s in m.sample_ids}
    by_row = match_rows(m, m, min_corr=0.999)
    assert by_row.n_matched == 2000 and by_row.mapping == {g: g for g in m.feature_ids}


def test_live_rows_of_huge_and_tiny_magnitude_vary_and_match_their_copies():
    # squared unscaled, rows near 1e300 overflow and rows near 1e-200
    # underflow, and either way every row read as degenerate
    rng = np.random.default_rng(5)
    for scale in (1e300, 1e-200):
        rows = scale * rng.standard_normal((50, 20))
        rows[31] = rows[12]
        assert len(_kernels._live_rows(rows).rows) == 50
        m = LabeledMatrix(tuple(f"g{i}" for i in range(20)), tuple(f"c{j}" for j in range(50)), rows.T)
        dup = find_duplicate_columns(m, threshold=1.0)
        assert dup.components == (("c12", "c31"),) and dup.degenerate_columns == ()


def test_cli_import_loads_only_the_stdlib_numpy_and_arrayaudit():
    # guards start-up time and memory: numpy is the one runtime dependency
    code = (
        "import sys; import numpy; base = set(sys.modules);"
        "import arrayaudit.cli, arrayaudit.groupsearch, arrayaudit.matchscan, arrayaudit.transform;"
        "top = lambda m: m.split('.')[0];"
        "extra = [m for m in set(sys.modules) - base if top(m) not in sys.stdlib_module_names | {'arrayaudit'}];"
        "print(sorted(extra), any(top(m) == 'scipy' for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[] False"
