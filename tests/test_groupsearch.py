import itertools

import numpy as np
import pytest

import fixtures_lib as fx
from arrayaudit import groupsearch
from arrayaudit.core import GroupLabel, LabeledMatrix, SignatureList
from arrayaudit.groupsearch import (
    SEARCH_STATES,
    Assignment,
    UnscorableAssignmentError,
    score_assignment,
    steepest_ascent,
)
from arrayaudit.signature import pooled_t, select_top_genes

S = GroupLabel.SENSITIVE
R = GroupLabel.RESISTANT
U = GroupLabel.UNUSED

# panels whose every 2-error flip-to-Unused start was verified to recover
VERIFIED_PANELS = [
    (2025, 7, 7, 6),    # 20 lines
    (2041, 8, 8, 8),    # 24 lines
    (2026, 10, 10, 10),  # 30 lines
]


def test_score_equals_k_for_true_assignment():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=20)
    assert score_assignment(Assignment(truth), panel, target, 20) == 20


def test_score_zero_for_disjoint_target():
    panel, truth, _ = fx.planted_panel(2025, 7, 7, 6, k=10)
    foreign = SignatureList(tuple(f"zz{i}" for i in range(10)))
    assert score_assignment(Assignment(truth), panel, foreign, 10) == 0


def test_unscorable_assignment_raises():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    bad = {line: (U if lab == S else lab) for line, lab in truth.items()}
    with pytest.raises(UnscorableAssignmentError):
        score_assignment(Assignment(bad), panel, target, 10)


def test_start_at_optimum_gives_empty_trajectory():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=20)
    result = steepest_ascent(Assignment(truth), panel, target, 20)
    assert result.trajectory == ()
    assert result.final.state == truth
    assert result.start_score == 20


def test_neighbor_count_is_2n_every_step():
    panel, truth, target = fx.planted_panel(2026, 10, 10, 10, k=20)
    start = dict(truth)
    sens_lines = [l for l, lab in truth.items() if lab == S]
    start[sens_lines[0]] = U
    result = steepest_ascent(Assignment(start), panel, target, 20)
    n = panel.n_samples
    assert n == 30
    assert all(count == 2 * n for count in result.neighbors_per_step)
    assert len(result.neighbors_per_step) == len(result.trajectory) + 1


@pytest.mark.parametrize("seed,n_sens,n_res,n_unused", VERIFIED_PANELS)
def test_recovers_planted_assignment_from_two_error_starts(seed, n_sens, n_res, n_unused):
    panel, truth, target = fx.planted_panel(seed, n_sens, n_res, n_unused, k=20, effect=4.0)
    used = [l for l, lab in truth.items() if lab in (S, R)]
    # a deterministic spread of 2-error starts (every pair is known to
    # recover for these seeds; testing a lattice of them keeps this fast)
    pairs = list(itertools.combinations(range(0, len(used), 2), 2))[:12]
    for i, j in pairs:
        start = dict(truth)
        start[used[i]] = U
        start[used[j]] = U
        result = steepest_ascent(Assignment(start), panel, target, 20)
        assert result.final.state == truth, f"failed to recover from flipping {used[i]}, {used[j]}"
        assert len(result.trajectory) <= 2
        scores = [m.score for m in result.trajectory]
        assert scores == sorted(scores) and len(set(scores)) == len(scores)
        assert all(s > result.start_score for s in scores)
        assert not result.budget_exceeded


def test_single_error_start_recovers_in_one_move():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=20)
    used = [l for l, lab in truth.items() if lab in (S, R)]
    for line in used[::3]:
        start = dict(truth)
        start[line] = U
        result = steepest_ascent(Assignment(start), panel, target, 20)
        assert result.final.state == truth
        assert len(result.trajectory) == 1
        assert result.trajectory[0].line == line


def _panel(kind):
    """The planted 24-line panel ``fx.planted_panel(2041, 8, 8, 8)`` in one
    of the forms the batched neighbor scorer must match the reference on:
    (panel, truth, target, k)."""
    panel, truth, target = fx.planted_panel(2041, 8, 8, 8, k=20)
    x, fids, k = panel.values, panel.feature_ids, 20
    copies = tuple(f"copy{i}" for i in range(k))
    if kind == "raw":  # unlogged intensities around 2**12
        x = 2.0 ** (12.0 + x)
    elif kind == "ties":  # with k odd the k-th gene ties with its copy
        x, fids, k = np.round(np.vstack([x, x[:k]]), 1), fids + copies, 21
    elif kind == "near-ties":  # shifted copies: equal t, computed a few ulps apart
        x, fids, k = np.vstack([x, x[:k] + 1000.0]), fids + copies, 21
    elif kind == "constant":
        flat = np.full((2, x.shape[1]), 0.1)
        flat[1] = 7.3
        x, fids = np.round(np.vstack([x, x[:k], flat]), 1), fids + copies + ("flat0.1", "flat7.3")
    elif kind == "near-constant":  # a few ulps of spread: pooled_t scores them 0
        jitter = np.random.default_rng(7).standard_normal((2, x.shape[1]))
        flat = np.array([[7.3], [0.1]]) + np.array([[1e-14], [1e-16]]) * jitter
        x, fids = np.vstack([x, flat]), fids + ("flat7.3", "flat0.1")
    elif kind == "nan":  # column 0 is Sensitive, column 20 Unused
        x = x.copy()
        x[3, 0] = x[5, 20] = np.nan
    elif kind == "duplicate-ids":
        fids = ("g1",) + fids[1:]
    elif kind == "k-all":
        k = len(fids)
    elif kind == "four-lines":  # every neighbor of the truth is unscorable
        keep = [0, 1, 8, 9]
        x = x[:, keep]
        truth = {panel.sample_ids[j]: truth[panel.sample_ids[j]] for j in keep}
    else:
        assert kind == "planted"
    return LabeledMatrix(fids, tuple(truth), x), truth, target, k


def _oracle_score(a, panel, target, k):
    try:
        return score_assignment(a, panel, target, k)
    except (UnscorableAssignmentError, ValueError):
        return -1


@pytest.mark.parametrize("kind", ["planted", "raw", "ties"])
def test_moves_match_exhaustive_neighbor_oracle(kind):
    panel, truth, target, k = _panel(kind)
    lines = list(panel.sample_ids)
    start = dict(truth)
    start[lines[0]] = U
    start[lines[8]] = U
    result = steepest_ascent(Assignment(start), panel, target, k)

    def oracle_score(a):
        return _oracle_score(a, panel, target, k)

    # replay: at every step the chosen move must be the tie-rule argmax
    current = Assignment({l: start[l] for l in lines})
    for move in result.trajectory:
        best = None
        for line in lines:
            for state in SEARCH_STATES:
                if state == current.state[line]:
                    continue
                sc = oracle_score(current.replace(line, state))
                if best is None or sc > best[0]:
                    best = (sc, line, state)
        assert best is not None
        assert (best[1], best[2], best[0]) == (move.line, move.new_state, move.score)
        current = current.replace(move.line, move.new_state)
    # final is a local maximum under exhaustive neighbor evaluation
    final_score = oracle_score(result.final)
    for line in lines:
        for state in SEARCH_STATES:
            if state != result.final.state[line]:
                assert oracle_score(result.final.replace(line, state)) <= final_score


def _count_reference_calls(monkeypatch):
    calls = []
    reference = groupsearch.score_assignment

    def counting(*args, **kwargs):
        calls.append(args[0])
        return reference(*args, **kwargs)

    monkeypatch.setattr(groupsearch, "score_assignment", counting)
    return calls


def _states(truth):
    """The truth, a start two lines away from it, and a state with only
    two Sensitive and two Resistant lines (most neighbors unscorable)."""
    lines = list(truth)
    start = dict(truth)
    start[lines[0]] = start[lines[8 % len(lines)]] = U
    sens = [l for l in lines if truth[l] == S][:2]
    res = [l for l in lines if truth[l] == R][:2]
    minimal = {l: S if l in sens else R if l in res else U for l in lines}
    return [Assignment(truth), Assignment(start), Assignment(minimal)]


@pytest.mark.parametrize(
    "kind,fallback",
    [
        ("verified-2025", "none"),
        ("verified-2041", "none"),
        ("verified-2026", "none"),
        ("raw", "none"),
        ("ties", "some"),
        ("near-ties", "some"),
        ("constant", "scorable"),
        ("near-constant", "scorable"),
        ("nan", "every"),
        ("duplicate-ids", "every"),
        ("k-all", "none"),
        ("four-lines", "none"),
    ],
)
def test_batched_neighbor_scores_match_reference(kind, fallback, monkeypatch):
    if kind.startswith("verified-"):
        seed, n_sens, n_res, n_unused = next(p for p in VERIFIED_PANELS if p[0] == int(kind[9:]))
        panel, truth, target = fx.planted_panel(seed, n_sens, n_res, n_unused, k=20)
        k = 20
    else:
        panel, truth, target, k = _panel(kind)
    score_moves = groupsearch._neighbor_scorer(panel, target, k, select_top_genes)
    for current in _states(truth):
        moves = [(l, st) for l in panel.sample_ids for st in SEARCH_STATES if st != current.state[l]]
        want = [_oracle_score(current.replace(l, st), panel, target, k) for l, st in moves]
        calls = _count_reference_calls(monkeypatch)
        assert score_moves(current, moves) == want
        monkeypatch.undo()
        # neighbors the reference scored: none, some, every scorable one, or all
        n_scorable = sum(1 for l, st in moves if current.replace(l, st).scorable())
        if fallback == "none":
            assert calls == []
        elif fallback == "scorable":
            assert len(calls) == n_scorable
        elif fallback == "every":
            assert len(calls) == len(moves)
        elif current.state == truth:
            assert 0 < len(calls) <= n_scorable


@pytest.mark.parametrize(
    "kind,tolerance",
    [("planted", 1e-10), ("raw", 1e-10), ("near-ties", 1e-10), ("offset", 1e-3)],
)
def test_batched_t_is_within_its_error_bound_of_pooled_t(kind, tolerance):
    panel, truth, _, _ = _panel("planted" if kind == "offset" else kind)
    x = panel.values
    if kind == "offset":  # means of 1e7, spread 0.01: both paths lose 6 digits
        x = 1e7 + 0.01 * x
    mu = x.mean(axis=1, keepdims=True)
    centered = np.ascontiguousarray((x - mu).T)
    scale = np.abs(x).max(axis=1) + np.abs(mu[:, 0])
    lines = list(truth)
    for current in _states(truth)[:2]:
        states = [
            current.replace(l, st).state
            for l in lines
            for st in SEARCH_STATES
            if st != current.state[l] and current.replace(l, st).scorable()
        ]
        in_s = np.array([[a[l] == S for l in lines] for a in states]).T
        in_r = np.array([[a[l] == R for l in lines] for a in states]).T
        t, err, holds = groupsearch._batched_abs_t(centered, centered * centered, scale, in_s, in_r)
        assert holds.all()
        for i in range(len(states)):
            ref = np.abs(pooled_t(x[:, in_s[:, i]], x[:, in_r[:, i]]))
            assert (np.abs(t[i] - ref) <= err[i]).all()
            assert (err[i] <= tolerance * np.maximum(t[i], 1.0)).all()


def test_custom_generator_gives_the_default_result():
    def wrapped(sub, k):
        return select_top_genes(sub, k)

    for kind in ("planted", "raw", "ties"):
        panel, truth, target, k = _panel(kind)
        for start in _states(truth)[1:]:
            default = steepest_ascent(start, panel, target, k)
            assert steepest_ascent(start, panel, target, k, wrapped) == default


def test_search_is_deterministic():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=10)
    start = dict(truth)
    line = next(iter(start))
    start[line] = U if start[line] != U else R
    r1 = steepest_ascent(Assignment(start), panel, target, 10)
    r2 = steepest_ascent(Assignment(start), panel, target, 10)
    assert r1 == r2


def test_score_invariant_under_panel_column_permutation():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=8)
    rng = np.random.default_rng(0)
    perm = rng.permutation(panel.n_samples)
    from arrayaudit.core import LabeledMatrix

    permuted = LabeledMatrix(
        panel.feature_ids,
        tuple(panel.sample_ids[i] for i in perm),
        panel.values[:, perm],
        panel.labels,
    )
    a = Assignment(truth)
    assert score_assignment(a, panel, target, 8) == score_assignment(a, permuted, target, 8)


def test_unscorable_start_raises():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=8)
    start = {line: U for line in truth}
    with pytest.raises(UnscorableAssignmentError):
        steepest_ascent(Assignment(start), panel, target, 8)


def test_start_with_k_beyond_gene_count_raises():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=8)
    with pytest.raises(ValueError, match="exceeds"):
        steepest_ascent(Assignment(truth), panel, target, panel.n_features + 1)


def test_failing_generator_raises_at_start_but_scores_neighbors_minus_one():
    panel, truth, target = fx.planted_panel(2025, 7, 7, 6, k=8)
    start = Assignment(truth)
    calls = []

    def only_the_start(sub, k):
        calls.append(sub.sample_ids)
        if len(calls) > 1:
            raise ValueError("generator failure")
        return select_top_genes(sub, k)

    result = steepest_ascent(start, panel, target, 8, only_the_start)
    assert result.start_score == 8 and result.trajectory == ()
    assert result.neighbors_per_step == (2 * panel.n_samples,)

    def never(sub, k):
        raise ValueError("generator failure")

    with pytest.raises(ValueError, match="generator failure"):
        steepest_ascent(start, panel, target, 8, never)


def _long_induced_path(n_lines=6, rng_seed=50):
    """Greedy induced path through the scorable-assignment graph: each
    state is adjacent (single-line change) only to its path predecessor
    and successor, so a score equal to the path index forces the search
    to take every step one at a time."""
    import random

    states = (R, S, U)

    def scorable(s):
        return s.count(S) >= 2 and s.count(R) >= 2

    def neighbors(s):
        for i in range(n_lines):
            for st in states:
                if st != s[i]:
                    t = list(s)
                    t[i] = st
                    yield tuple(t)

    rng = random.Random(rng_seed)
    nodes = [s for s in itertools.product(states, repeat=n_lines) if scorable(s)]
    path = [rng.choice(nodes)]
    pathset = {path[0]}
    while True:
        cands = []
        for nb in neighbors(path[-1]):
            if nb in pathset or not scorable(nb):
                continue
            if all(
                sum(1 for a, b in zip(nb, earlier) if a != b) != 1
                for earlier in path[:-1]
            ):
                cands.append(nb)
        if not cands:
            return path
        path.append(rng.choice(cands))
        pathset.add(path[-1])


def test_move_budget_exceeded_returns_partial_trajectory():
    path = _long_induced_path()
    n_lines = 6
    budget = 10 * n_lines
    assert len(path) - 1 > budget  # enough improving moves to exhaust it
    lines = [f"L{i}" for i in range(n_lines)]
    index_of = {state: i for i, state in enumerate(path)}
    target = SignatureList(tuple(f"g{i}" for i in range(len(path))))

    def mock_generator(sub, k):
        # reconstruct the full assignment: panel lines absent from the
        # restricted submatrix are Unused
        state = []
        labels = sub.labels or {}
        for line in lines:
            state.append(labels.get(line, U))
        idx = index_of.get(tuple(state), -1)
        if idx < 1:
            return SignatureList(("off-target",))
        return SignatureList(tuple(f"g{i}" for i in range(idx)))

    from arrayaudit.core import LabeledMatrix

    panel = LabeledMatrix(("f0", "f1", "f2"), tuple(lines), np.zeros((3, n_lines)))
    start = Assignment({line: st for line, st in zip(lines, path[0])})
    result = steepest_ascent(start, panel, target, len(path), generator=mock_generator)
    assert result.budget_exceeded
    assert len(result.trajectory) == budget
    scores = [m.score for m in result.trajectory]
    assert scores == list(range(1, budget + 1))
