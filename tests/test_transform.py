import math
import tracemalloc
import warnings

import numpy as np
import pytest

from arrayaudit import _kernels, transform
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


@pytest.mark.parametrize("digits", ["\u00b2", "\u0663"])
def test_round_digits_must_be_ascii(digits):
    # a superscript two and an Arabic-Indic three are digits to str.isdigit
    with pytest.raises(ValueError, match="round digits must be a nonnegative int"):
        parse_pipeline_spec(f"round:{digits}")


@pytest.mark.parametrize("digits", [0, 2, 293, 299, 300, 308, 309, 400])
def test_round_keeps_a_value_whose_scaling_overflows(digits):
    # numpy rounds x as rint(x * 10**d) / 10**d, which is inf or NaN once
    # the product overflows; such an x has fewer than d decimals, so it is
    # its own rounding, and Python's correctly rounded round() says so
    rng = np.random.default_rng(digits)
    values = np.array([rng.standard_normal(6), 1e10 + rng.random(6), [0.0, -0.0, -2.5, 1.7976931348623157e308, np.nan, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_pipeline(_matrix(values), TransformPipeline((round_step(digits),))).values
    with np.errstate(over="ignore", invalid="ignore"):
        numpy_rounding = np.round(values, digits) + 0.0
    kept = np.isfinite(values) & ~np.isfinite(numpy_rounding)
    assert kept[1].all() == (digits >= 299) and kept[2, 3] == (digits > 0)
    assert out[~kept].tobytes() == numpy_rounding[~kept].tobytes()
    assert out[kept].tobytes() == np.array([round(x, digits) + 0.0 for x in values[kept].tolist()]).tobytes()
    assert not np.signbit(out[values == 0]).any()


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
    # at 2**700 a row's squares overflow and at 2**-700 they underflow,
    # unless the row is first scaled by a power of two
    for exponent in (0, 700, -700):
        for query, reference in ((small_matrix.values, small_matrix.values), ([[0.1] * 12, ramp], [[0.3] * 12, ramp])):
            query, reference = (_matrix(np.ldexp(np.asarray(x, dtype=float), exponent)) for x in (query, reference))
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
    # a power-of-two scale of every row leaves the fit's bits as they are
    for exponent in (700, -700):
        scaled = (_matrix(np.ldexp(m.values, exponent)) for m in (query, ref))
        assert infer_pipeline(*scaled, [TransformPipeline(())])[1] == fit


def test_residual_near_the_top_of_the_float_range():
    # values of 1e307-1e308: the residual of -x against x (2e307-2e308)
    # exceeds the float range, and is inf without an overflow warning
    x = np.linspace(1e307, 1e308, 12).reshape(3, 4)
    identity = [TransformPipeline(())]
    assert infer_pipeline(_matrix(-x), _matrix(x), identity) == (identity[0], -1.0, math.inf)
    assert infer_pipeline(_matrix(x), _matrix(0.5 * x), identity) == (identity[0], 1.0, 5e307)


def test_infer_empty_candidates_and_shape_mismatch(small_matrix):
    with pytest.raises(ValueError, match="empty candidate"):
        infer_pipeline(small_matrix, small_matrix, [])
    other = _matrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        infer_pipeline(small_matrix, other, [TransformPipeline(())])


def _scan_each_candidate(query, reference, candidates):
    """Independent oracle of ``infer_pipeline``: each candidate applied on
    its own and fitted, in candidate order, the best kept while a later one
    is strictly better by (-fit, steps, position)."""
    q = _kernels.center_rows(query.values)
    n = query.values.shape[1]
    best = None
    for pos, cand in enumerate(candidates):
        try:
            values = apply_pipeline(reference, cand).values
        except TransformError:
            continue
        t = _kernels.center_rows(values)
        ok = q.varying & (q.k == n) & t.varying & (t.k == n)
        if ok.any():
            r = (q.centered[ok] * t.centered[ok]).sum(axis=1) / np.sqrt(q.sq[ok] * t.sq[ok])
            key = (-float(np.clip(r, -1.0, 1.0).mean()), len(cand), pos)
            if best is None or key < best:
                best, best_values = key, values
    if best is None:
        raise ValueError("no candidate pipeline was applicable to the reference")
    diff = np.abs(query.values - best_values)
    return candidates[best[2]], -best[0], float("nan") if np.isnan(diff).all() else float(np.nanmax(diff))


_EXTRA_CANDIDATES = [
    TransformPipeline(()),
    TransformPipeline((log_step("2"),)),
    TransformPipeline((zscore_step("n"),)),
    TransformPipeline((exp_step("e"),)),
    TransformPipeline((round_step(1),)),
    TransformPipeline((round_step(2),)),
    TransformPipeline((log_step("e"), zscore_step("n-1"))),
    TransformPipeline((zscore_step("n-1"), exp_step("10"))),
]


def _inference_case(kind, seed):
    """A query, a reference and candidates drawn with repeats from the
    grid and the single steps, with a panel defect of the given kind."""
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(2, 30)), int(rng.integers(3, 12))
    ref = np.exp(rng.normal(1.0, 1.0, (rows, cols)))
    pool = default_candidate_grid() + _EXTRA_CANDIDATES
    candidates = [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(1, 20)))]
    if kind == "nan":
        ref[rng.random(ref.shape) < 0.1] = np.nan
    elif kind == "constant":  # zscore fails
        ref[rng.integers(rows)] = 7.3
    elif kind == "nonpositive":  # log fails
        ref[rng.integers(rows), rng.integers(cols)] = -rng.random()
    elif kind == "repeated":
        candidates = [candidates[i] for i in rng.integers(0, len(candidates), 2 * len(candidates))]
    elif kind == "ties":  # on integers rounding changes nothing: exact ties of fit
        ref = rng.integers(1, 1000, (rows, cols)).astype(float)
        candidates += [TransformPipeline((round_step(2),)), TransformPipeline(()), TransformPipeline((round_step(1),))]
        rng.shuffle(candidates)
    elif kind == "identity":
        candidates.insert(int(rng.integers(len(candidates) + 1)), TransformPipeline(()))
    true = pool[int(rng.integers(len(pool)))]
    try:
        query = apply_pipeline(_matrix(ref), true).values
    except TransformError:
        query = ref
    query = query + rng.normal(0.0, 0.05, query.shape) * (seed % 3)
    return _matrix(query[rng.permutation(rows)] if seed % 5 == 4 else query), _matrix(ref), candidates


def _outcome(infer, *args):
    try:
        best, fit, residual = infer(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return best, np.array([fit, residual]).tobytes()


@pytest.mark.parametrize("kind", ["nan", "constant", "nonpositive", "repeated", "ties", "identity"])
def test_infer_equals_a_scan_of_each_candidate(kind):
    with np.errstate(all="ignore"):  # exp of a large value overflows to inf
        for seed in range(40):
            args = _inference_case(kind, seed)
            assert _outcome(infer_pipeline, *args) == _outcome(_scan_each_candidate, *args), seed


def _screened_case(kind, seed):
    """A case of ``_SAMPLE_ROWS`` to 4 x ``_SAMPLE_ROWS`` rows, so that
    every candidate is screened on the sample before it is fitted on every
    row, with a defect of the given kind past the sample or in it."""
    rng = np.random.default_rng([seed, 30])
    sample = transform._SAMPLE_ROWS
    rows, cols = int(rng.choice([sample, sample + 1, rng.integers(sample, 4 * sample + 1)])), int(rng.integers(3, 12))
    past = int(rng.integers(sample, rows)) if rows > sample else rows - 1
    ref = np.exp(rng.normal(1.0, 1.0, (rows, cols)))
    pool = default_candidate_grid() + _EXTRA_CANDIDATES
    candidates = [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(1, 20)))]
    if kind == "nonpositive-past":  # log fails on one row only
        ref[past, rng.integers(cols)] = -rng.random()
    elif kind == "constant-past":  # zscore fails on one row only
        ref[past] = 7.3
    elif kind == "ties":  # on integers rounding changes nothing: exact ties at fit 1.0
        ref = rng.integers(1, 1000, (rows, cols)).astype(float)
        candidates += [TransformPipeline((round_step(2),)), TransformPipeline(()), TransformPipeline((round_step(1),))]
        rng.shuffle(candidates)
    elif kind == "grid":
        candidates = default_candidate_grid()
    true = pool[int(rng.integers(len(pool)))]
    try:
        query = apply_pipeline(_matrix(ref), true).values
    except TransformError:
        query = ref
    query = query + rng.normal(0.0, 0.05, query.shape) * (seed % 3) * (kind != "ties")
    if kind == "flat-sample":  # no sample row varies in the query: nothing to bound by
        query[:sample] = 2.0 if seed % 2 else 0.1
    return _matrix(query[rng.permutation(rows)] if seed % 5 == 4 else query), _matrix(ref), candidates


@pytest.mark.parametrize("kind", ["nonpositive-past", "constant-past", "flat-sample", "ties", "grid"])
def test_screened_infer_equals_a_scan_of_each_candidate(kind):
    with np.errstate(all="ignore"):  # exp of a large value overflows to inf
        for seed in range(20):
            args = _screened_case(kind, seed)
            assert _outcome(infer_pipeline, *args) == _outcome(_scan_each_candidate, *args), seed


def test_screened_infer_keeps_a_scans_choice_of_a_nan_fit():
    # the orthogonal pair of the test below, past the sample, under rows
    # that fit: the identity's and the unrounded candidate's fits are NaN
    # only once every row is fitted, the zscore's never
    sample = transform._SAMPLE_ROWS
    rng = np.random.default_rng(31)
    query, reference = np.exp(rng.normal(1.0, 1.0, (2, 2 * sample, 3)))
    query[sample + 5], reference[sample + 5] = np.ldexp([1.0, -1.0, 0.0], -395), np.ldexp([1.0, 1.0, -2.0], -200)
    query, reference = _matrix(query), _matrix(reference)
    identity, unrounded, zscore = (TransformPipeline(s) for s in ((), (round_step(300),), (zscore_step(),)))
    with np.errstate(all="ignore"):
        for candidates in ([identity, unrounded], [unrounded, identity], [zscore, identity], [identity, zscore]):
            got = _outcome(infer_pipeline, query, reference, candidates)
            assert got == _outcome(_scan_each_candidate, query, reference, candidates)
            assert got[0] == candidates[0]
            assert math.isnan(np.frombuffer(got[1])[0]) == (candidates[0] != zscore)


def test_screened_infer_fits_two_candidates_on_every_row(monkeypatch):
    calls = []

    def spy(fn):
        def counted(*args):
            calls.append((fn.__name__, len(getattr(args[0], "values", args[0]))))  # the rows it is given
            return fn(*args)

        return counted

    grid = default_candidate_grid()
    ref = _matrix(np.exp(np.random.default_rng(7).standard_normal((2000, 24))))
    query = apply_pipeline(ref, grid[7])  # log:2|zscore:n|exp:2|round:2
    monkeypatch.setattr(_kernels, "center_rows", spy(_kernels.center_rows))
    monkeypatch.setattr(transform, "_apply_values", spy(transform._apply_values))
    assert infer_pipeline(query, ref, grid) == (grid[7], 1.0, 0.0)
    rest = 2000 - transform._SAMPLE_ROWS
    applied = [n for name, n in calls if name == "_apply_values"]
    # every candidate on the sample; on the other rows the first one, for
    # a scan's first fit, and grid[7], which rules out the other ten
    assert [n == rest for n in applied] == [False] * 12 + [True] * 2
    # on the sample: the query, each log and each candidate's fit; on the
    # other rows: the query, and the log and the fit of each of the two
    assert [name for name, _ in calls].count("center_rows") == (1 + 3 + 12) + (1 + 2 + 2)


def test_infer_keeps_a_scans_choice_of_a_nan_fit():
    # an orthogonal pair whose product of sums of squares underflows: its
    # fit is 0 / 0, and a scan in candidate order keeps it when it comes
    # first and passes it over otherwise
    query = _matrix(np.ldexp([[1.0, -1.0, 0.0]], -395))
    reference = _matrix(np.ldexp([[1.0, 1.0, -2.0]], -200))
    identity, unrounded, zscore = (TransformPipeline(s) for s in ((), (round_step(300),), (zscore_step(),)))
    with np.errstate(all="ignore"):
        for candidates in ([identity, unrounded], [unrounded, identity], [zscore, identity], [identity, zscore]):
            got = _outcome(infer_pipeline, query, reference, candidates)
            assert got == _outcome(_scan_each_candidate, query, reference, candidates)
            assert got[0] == candidates[0]


def test_infer_centers_each_prefix_once(monkeypatch):
    calls = []

    def spy(fn):
        def counted(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return counted

    monkeypatch.setattr(_kernels, "center_rows", spy(_kernels.center_rows))
    monkeypatch.setattr(transform, "_apply_values", spy(transform._apply_values))
    grid = default_candidate_grid()
    ref = _matrix(np.exp(np.random.default_rng(5).standard_normal((30, 8))))
    query = apply_pipeline(ref, grid[7])
    calls.clear()
    assert infer_pipeline(query, ref, grid)[0] == grid[7]
    # the query; each log's values, for its two zscores; each exp's and
    # each round's values, for their fits. Each candidate on its own takes 1 + 12 + 12.
    assert calls.count("center_rows") == 1 + 3 + 12
    # one application per candidate, from the prefix it shares with the one before
    assert calls.count("_apply_values") == len(grid)


def test_infer_keeps_the_centerings_it_holds_apart_from_its_scratch():
    # the identity's fit comes between the log branch and the zscore that
    # starts from the reference's kept centering: a fit product written
    # into that centering would change the zscore candidate's fit
    rng = np.random.default_rng(19)
    ref = _matrix(np.exp(rng.normal(1.0, 1.0, (12, 7))))
    candidates = [parse_pipeline_spec(s) for s in ("log:2", "identity", "zscore:n-1|exp:10")]
    query = _matrix(apply_pipeline(ref, candidates[2]).values + rng.normal(0.0, 0.05, ref.values.shape))
    want = _outcome(_scan_each_candidate, query, ref, candidates)
    assert want[0] == candidates[2]
    assert _outcome(infer_pipeline, query, ref, candidates) == want


def test_infer_holds_nothing_after_it_returns():
    grid = default_candidate_grid()
    ref = _matrix(np.exp(np.random.default_rng(6).normal(2.0, 1.0, (500, 20))))
    query = apply_pipeline(ref, grid[7])
    # a call of another shape first: a buffer kept across calls shows in the traced one
    infer_pipeline(_matrix(query.values[:50]), _matrix(ref.values[:50]), grid)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = infer_pipeline(query, ref, grid)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the result holds a pipeline of the grid and two floats: no array
    # survives the call, not even a block of a row sum's squares
    assert result[0] == grid[7] and after - before < 4096


def test_infer_holds_few_arrays():
    # the query's centering, the best values, the log branch point with its
    # centering, and the candidate being fitted with its centering: about
    # 7.5 panels at the peak (a scan of each candidate on its own takes 8.6)
    grid = default_candidate_grid()
    ref = _matrix(np.exp(np.random.default_rng(6).normal(2.0, 1.0, (3000, 60))))
    query = apply_pipeline(ref, grid[7])
    tracemalloc.start()
    try:
        assert infer_pipeline(query, ref, grid)[0] == grid[7]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ref.values.nbytes


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
    # an infinite cell is not present either: it passes through as it is
    for exponent in (0, 700, -700):
        vals = np.ldexp([[1.0, 2.0, 3.0, np.nan], [-np.inf, 1.0, 2.0, 3.0]], exponent)
        out = apply_pipeline(_matrix(vals), TransformPipeline((zscore_step("n-1"),)))
        assert np.isnan(out.values[0, 3]) and out.values[1, 0] == -np.inf
        np.testing.assert_array_equal(out.values[0, :3], [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(out.values[1, 1:], [-1.0, 0.0, 1.0])


def _nan_moment_zscore(x, ddof):
    """Independent oracle: the z-score by numpy's NaN-aware moments."""
    return (x - np.nanmean(x, axis=1, keepdims=True)) / np.nanstd(x, axis=1, ddof=ddof, keepdims=True)


def _panel_with_holes(seed, exponent=0):
    """Raw-intensity-like rows of several scales, 10% NaN, each row with at
    least two present values, times 2**exponent."""
    rng = np.random.default_rng(seed)
    values = np.exp(rng.standard_normal((40, 12)) * rng.uniform(0.1, 3.0, (40, 1)) + rng.uniform(-5.0, 10.0, (40, 1)))
    holes = rng.random(values.shape) < 0.1
    holes[:, :2] = False
    values[holes] = np.nan
    return np.ldexp(values, exponent)


@pytest.mark.parametrize("denominator,ddof", [("n-1", 1), ("n", 0)])
def test_zscore_equals_the_nan_aware_moments_bit_for_bit(denominator, ddof):
    for seed in range(10):
        values = _panel_with_holes(seed)
        out = apply_pipeline(_matrix(values), TransformPipeline((zscore_step(denominator),))).values
        assert out.tobytes() == _nan_moment_zscore(values, ddof).tobytes()


@pytest.mark.parametrize("exponent", [700, -700])
def test_zscore_and_fit_do_not_depend_on_the_scale_of_the_rows(exponent):
    # every row scaled by 2**exponent: the squares of the values over- or
    # underflow unless the row is first scaled back by a power of two
    unit, scaled = _matrix(_panel_with_holes(3)), _matrix(_panel_with_holes(3, exponent))
    noisy = np.random.default_rng(4).standard_normal(unit.values.shape)
    candidates = [TransformPipeline(()), TransformPipeline((zscore_step("n-1"),)), TransformPipeline((zscore_step("n"),))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for denominator in ("n-1", "n"):
            pipe = TransformPipeline((zscore_step(denominator),))
            assert apply_pipeline(scaled, pipe).values.tobytes() == apply_pipeline(unit, pipe).values.tobytes()
        query = _matrix(unit.values + np.ldexp(noisy, -8))
        # z-scored queries: the residual of a z-score is free of the scale too
        best, fit, residual = infer_pipeline(apply_pipeline(scaled, candidates[2]), scaled, candidates[1:])
        assert (best, fit, residual) == infer_pipeline(apply_pipeline(unit, candidates[2]), unit, candidates[1:])
        best, fit, residual = infer_pipeline(_matrix(np.ldexp(query.values, exponent)), scaled, candidates)
        want = infer_pipeline(query, unit, candidates)
        assert (best, fit, residual) == (want[0], want[1], np.ldexp(want[2], exponent))
        assert infer_pipeline(scaled, scaled, candidates[:1]) == (candidates[0], 1.0, 0.0)
