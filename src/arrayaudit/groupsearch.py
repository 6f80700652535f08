"""Steepest-ascent search over sensitive/resistant/unused assignments of
panel cell lines, scored by overlap between the top-k gene list that
``signature.select_top_genes`` derives from the assignment and a reported
target list.

This reconstructs which lines a reported signature was actually built
from: start from a guess, try every single-line state change, take the
strictly best one, repeat until no change helps. Strict improvement only,
so the search always terminates; a move budget of 10 * n_lines guards
against pathological score landscapes.

All neighbors of a step are scored at once (``_neighbor_scorer``), on
every panel. A screen first bounds every gene's |t| under every neighbor
(``_move_bounds``), and only the genes that could reach some neighbor's
top k get an exact pooled t (``_batched_abs_t``). A neighbor whose batched
score is not certified equal to the reference ``score_assignment`` is
scored by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _kernels, signature
from .core import GroupLabel, LabeledMatrix, SignatureList

#: Neighbor states in tie-break order.
SEARCH_STATES = (GroupLabel.RESISTANT, GroupLabel.SENSITIVE, GroupLabel.UNUSED)


@dataclass(frozen=True)
class Assignment:
    """A full sensitive/resistant/unused labeling of the panel lines."""

    state: Mapping[str, GroupLabel]

    def __post_init__(self) -> None:
        state = dict(self.state)
        for line, lab in state.items():
            if lab not in SEARCH_STATES:
                raise ValueError(f"{line!r} has non-search state {lab}")
        object.__setattr__(self, "state", state)

    def scorable(self) -> bool:
        n_s = sum(1 for v in self.state.values() if v == GroupLabel.SENSITIVE)
        n_r = sum(1 for v in self.state.values() if v == GroupLabel.RESISTANT)
        return n_s >= 2 and n_r >= 2

    def replace(self, line: str, new_state: GroupLabel) -> "Assignment":
        state = dict(self.state)
        state[line] = new_state
        return Assignment(state)


class UnscorableAssignmentError(ValueError):
    pass


def score_assignment(a: Assignment, panel: LabeledMatrix, target: SignatureList, k: int) -> int:
    """Number of distinct ids among the top-k genes of ``a`` that hit the
    target list. The genes are ranked on ``panel`` itself, labeled with
    ``a``; the ranking leaves its Unused lines out, as it does unlabeled
    columns."""
    if not a.scorable():
        raise UnscorableAssignmentError(
            "assignment needs >= 2 Sensitive and >= 2 Resistant lines"
        )
    generated = signature.select_top_genes(panel.with_labels(a.state), k)
    return len(set(generated.feature_ids) & set(target.feature_ids))


@dataclass(frozen=True)
class Move:
    line: str
    new_state: GroupLabel
    score: int


@dataclass(frozen=True)
class SearchResult:
    final: Assignment
    trajectory: tuple[Move, ...]
    start_score: int
    neighbors_per_step: tuple[int, ...]
    budget_exceeded: bool


_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny

MoveList = Sequence[tuple[str, GroupLabel]]


def _neighbor_scorer(panel: LabeledMatrix, target: SignatureList, k: int) -> Callable[[Assignment, MoveList], list[int]]:
    """Scores of ``current.replace(line, state)`` for each move, equal to
    ``score_assignment`` with the neighbors it rejects at -1, on any panel.

    Columns that hold a missing or infinite value are left out of the
    group sums: a neighbor that puts one into a group scores -1, since
    ``select_top_genes`` raises on it. The overlap counts distinct feature
    ids, as ``score_assignment`` counts a set. A neighbor whose top-k set
    is not certified goes through ``score_assignment``.

    Each step scores a seed exactly, the 2k genes of largest current |t|.
    A gene whose bound (``_move_bounds``) lies below every neighbor's k-th
    largest seed |t| - err is skipped, and the others are scored too. A
    neighbor is certified only when its chosen genes also beat every
    skipped gene's bound. When no gene can be skipped, every gene is
    scored, on the same path.
    """
    finite = np.isfinite(panel.values).all(axis=0)
    # |t| does not change when a row is scaled by a power of two, and its
    # squares then neither over- nor underflow
    x = panel.values[:, finite]
    exponents = _kernels.row_exponents(x)
    if exponents is not None:
        x = np.ldexp(x, exponents)
    n_genes = panel.n_features
    mu = x.mean(axis=1, keepdims=True)
    # sample-major, so that each step's group sums are one matrix product
    centered = np.subtract(x.T, mu.T, order="C")
    squares = centered * centered
    scale = np.abs(x).max(axis=1) + np.abs(mu[:, 0])  # >= |x| and >= |x - mu|
    # a target gene's code is the first row of its id, any other gene's -1:
    # a neighbor's overlap is its number of distinct codes >= 0
    wanted = set(target.feature_ids)
    first: dict[str, int] = {}
    codes = np.array([first.setdefault(fid, i) if fid in wanted else -1 for i, fid in enumerate(panel.feature_ids)])
    line_index = {line: i for i, line in enumerate(dict.fromkeys(panel.sample_ids))}
    col_line = np.array([line_index[sid] for sid in panel.sample_ids])
    holed = np.zeros(len(line_index), dtype=bool)  # lines with a non-finite cell
    holed[col_line[~finite]] = True
    col_line = col_line[finite]

    def batched(current: Assignment, moves: MoveList) -> list[int]:
        states = [current.state[line] for line in line_index]
        is_s = np.array([st == GroupLabel.SENSITIVE for st in states])
        is_r = np.array([st == GroupLabel.RESISTANT for st in states])
        move_line = np.array([line_index[line] for line, _ in moves])
        to_s = np.array([st == GroupLabel.SENSITIVE for _, st in moves])
        to_r = np.array([st == GroupLabel.RESISTANT for _, st in moves])
        # Assignment.scorable counts lines, not columns
        n_s = is_s.sum() - is_s[move_line] + to_s
        n_r = is_r.sum() - is_r[move_line] + to_r
        # select_top_genes raises on a group that holds a holed line
        grouped_holed = (is_s | is_r) & holed
        n_holed = grouped_holed.sum() - grouped_holed[move_line] + ((to_s | to_r) & holed[move_line])
        scores = np.full(len(moves), -1)
        cols = np.flatnonzero((n_s >= 2) & (n_r >= 2) & (n_holed == 0))
        moved = col_line[:, None] == move_line[None, cols]
        cur_s, cur_r = is_s[col_line], is_r[col_line]
        in_s = np.where(moved, to_s[cols], cur_s[:, None])
        in_r = np.where(moved, to_r[cols], cur_r[:, None])
        t_now, bound, cls = _move_bounds(centered, squares, scale, cur_s, cur_r, in_s, in_r)
        # k seed genes reach a neighbor's floor, its k-th largest seed
        # t - err. A neighbor whose error bound fails goes to the reference
        # anyway, so its floor (inf) skips nothing for it
        n_seed = min(2 * k, n_genes)
        seed = np.argpartition(t_now, n_genes - n_seed)[n_genes - n_seed:]
        t, err, holds = _batched_abs_t(centered[:, seed], squares[:, seed], scale[seed], in_s, in_r)
        floor = np.where(holds, np.partition(t - err, n_seed - k, axis=1)[:, n_seed - k], np.inf)
        class_floor = np.full(len(bound), np.inf)
        np.minimum.at(class_floor, cls, floor)
        skipped = (bound < class_floor[:, None]).all(axis=0)
        skipped[seed] = False
        skipped_cap = np.where(skipped, bound, -np.inf).max(axis=1)[cls]
        rest = np.setdiff1d(np.flatnonzero(~skipped), seed, assume_unique=True)
        t_rest, err_rest, holds_rest = _batched_abs_t(centered[:, rest], squares[:, rest], scale[rest], in_s, in_r)
        genes = np.concatenate([seed, rest])
        t, err = np.hstack([t, t_rest]), np.hstack([err, err_rest])
        top = np.argpartition(t, len(genes) - k, axis=1)[:, len(genes) - k:]
        chosen = np.sort(codes[genes[top]], axis=1)
        scores[cols] = ((chosen >= 0) & (np.diff(chosen, axis=1, prepend=-1) != 0)).sum(axis=1)
        # certified: every chosen gene's |t| - err exceeds every other
        # scored gene's |t| + err and every skipped gene's bound, so the
        # reference picks the same top-k set whatever its rounding and
        # tie-break
        lowest_chosen = (np.take_along_axis(t, top, axis=1) - np.take_along_axis(err, top, axis=1)).min(axis=1)
        upper = np.add(err, t, out=err)
        np.put_along_axis(upper, top, -np.inf, axis=1)
        certified = holds & holds_rest & (lowest_chosen > np.maximum(upper.max(axis=1), skipped_cap))
        for i in cols[~certified]:
            scores[i] = score_assignment(current.replace(*moves[i]), panel, target, k)
        return scores.tolist()

    return batched


def _batched_abs_t(
    centered: np.ndarray,
    squares: np.ndarray,
    scale: np.ndarray,
    in_s: np.ndarray,
    in_r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|pooled t| per gene (columns) for every column of the sample x
    neighbor group indicators ``in_s`` and ``in_r`` (rows), a per-entry
    bound ``err`` on its distance from ``signature.pooled_t``'s, and per
    neighbor whether that bound holds. A step calls it on the genes its
    screen keeps, the seed first and the rest after, so its arrays hold
    those genes only.

    ``centered`` is Xc transposed, Xc the panel minus each row's computed
    mean mu, and ``squares`` its elementwise square; ``scale`` is
    L = max|x| + |mu| per row.

    Derivation (u = eps/2, N samples, constants rounded up). t is shift
    invariant and Xc is x - mu rounded once, so both paths estimate the
    exact t of the panel. A group sum here is an N-term dot product, within
    N u sum|x| of exact in any summation order, so the mean difference D is
    within (N+3) eps L of exact, and the reference's within (N+1) eps L:
    e_D = 2 (N+4) eps L bounds the gap. The pooled sum of squares
    V = Q - S**2/n over both groups (Q the groups' sum of Xc**2, S**2/n <= Q
    by Cauchy-Schwarz) is within (1.5 N + 7) eps Q of exact; the
    reference's two-pass V is within (0.5 N + 2) eps Q plus N ((N+1) u L)**2
    from its rounded means, so with N tiny for gradual underflow
    e_V = (2N + 10) eps Q + N ((N+2) eps L)**2 + N tiny bounds both.
    A V at or below 8 e_V cannot be told from zero (a constant row), and
    the bound does not hold for that neighbor. That covers every row the
    reference scores as degenerate (0 or +/-inf): it flags one only when
    its V, or the larger sum about the common mean, is at most
    (4 n eps)**2 R, R the raw sum of squares of the n <= N used values.
    As sqrt(R) <= sqrt(Q) + sqrt(n) |mu| (the triangle inequality) and
    L >= 2 |mu|, that V is at most 1616 n**2 eps**2 Q + 4.04 n**3 (eps L)**2
    (by (a + b)**2 <= 101 a**2 + 1.01 b**2), so this V, within
    (2N + 9) eps Q + N ((N+1) eps L)**2 / 4 of it, is below 8 e_V with room
    for the roundings of R. Otherwise, with
    w = e_V / V >= 18 eps, the exact V exceeds 7/8 of this one, each
    path's standard error se is within 8/7 w + 4 eps of exact, and the two
    t differ by at most 4/3 (e_D / se + 2 w |t|), so by
    err = 3 ((N+4) eps L / se + w |t|), which also covers the last
    roundings of t. Such a t stays below 1 / ((N+2) eps), so it is finite.
    """
    m, n = in_s.shape[1], float(in_s.shape[0])
    n1 = in_s.sum(axis=0)[:, None].astype(np.float64)
    n2 = in_r.sum(axis=0)[:, None].astype(np.float64)
    sums = np.hstack([in_s, in_r]).T.astype(np.float64) @ centered
    s1, s2 = sums[:m], sums[m:]
    q = (in_s | in_r).T.astype(np.float64) @ squares
    # in place where the operands are not needed again: at paper scale
    # each pass is a 20 MB array
    mean1, mean2 = s1 / n1, s2 / n2
    v = q - np.multiply(s1, mean1, out=s1)
    v -= np.multiply(s2, mean2, out=s2)
    w = np.multiply(q, (2.0 * n + 10.0) * _EPS, out=q)
    w += n * ((n + 2.0) * _EPS * scale) ** 2 + n * _TINY
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w /= v
        holds = ((w > 0.0) & (w < 0.125)).all(axis=1)
        t = np.abs(np.subtract(mean1, mean2, out=mean1), out=mean1)
        inv_se = np.sqrt(np.multiply(v, (1.0 / n1 + 1.0 / n2) / (n1 + n2 - 2.0), out=v), out=v)
        np.divide(1.0, inv_se, out=inv_se)
        t *= inv_se
        err = np.multiply(inv_se, 3.0 * (n + 4.0) * _EPS * scale, out=inv_se)
        w *= t
        w *= 3.0
        err += w
    return t, err, holds


def _move_bounds(
    centered: np.ndarray,
    squares: np.ndarray,
    scale: np.ndarray,
    cur_s: np.ndarray,
    cur_r: np.ndarray,
    in_s: np.ndarray,
    in_r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gene screen of a step: per gene, its |pooled t| under the
    current groups (the sample indicators ``cur_s`` and ``cur_r``), and a
    bound on the reference's computed |t| (``signature.pooled_t``) under
    each neighbor (the columns of ``in_s`` and ``in_r``). Neighbors whose
    moves share the bound share a row of ``bound``; ``cls`` gives each
    neighbor's row. Other arguments as in ``_batched_abs_t``, whose
    notation this follows.

    Exact arithmetic first. Let a current group g have n_g samples, mean
    m_g and sum of squares W_g; D = m_S - m_R and W = W_S + W_R. A neighbor
    moves the c samples (columns) of one line, with mean y, from one of
    the sets Sensitive, Resistant and Unused to another; n_g' is the
    neighbor's count. A group that gains or loses them has its mean moved
    by +/- c (y - m_g) / n_g', so D' = D + c_S (y - m_S) + c_R (y - m_R),
    c_S = (n_S' - n_S) / n_S' and c_R = (n_R - n_R') / n_R'. That is
    linear in y, which lies in the range of the samples' set, so |D'| is
    at most its larger value at the two ends of that range. Losing them
    lowers W_g by sum (y_i - m_g)**2 + c**2 (y - m_g)**2 / n_g'
    <= b_g P_g**2 (Cauchy-Schwarz), with b_g = c n_g / n_g' and P_g the
    largest |y_i - m_g| of the group's members; gaining them does not
    lower it. So W' >= W - Z, Z = b_S P_S**2 + b_R P_R**2.

    Rounding (constants rounded up). D, the means and the ranges' ends
    are computed here within s = 2 (N+4) eps L of exact, and so is the
    reference's own D'; D' above is then within (1 + |c_S| + |c_R|) s of
    exact, and P_g within s. W is within
    E = (2N+10) eps Q + N ((N+2) eps L)**2 + N tiny of exact, Q the sum of
    squares of the centered row: E is e_V at its largest, so it bounds the
    reference's error in W' too. The reference's pooled sum of squares is
    therefore at least V- = W - (1 + 8 eps) Z - 3 E, with Z taken at
    P_g + s and the last E and 8 eps Z covering the roundings of V-
    itself, and its |t| is at most
    (1 + 16 eps) (|D'| + (2 + |c_S| + |c_R|) s) / sqrt(V- h'), with
    h' = (1/n_S' + 1/n_R') / (n_S' + n_R' - 2) and the factor covering the
    last roundings of both t. The bound is inf where V- <= 16 E: the
    reference scores a row +/-inf only when its pooled sum of squares is
    below 9 e_V (``_batched_abs_t``), so such a gene is always scored.
    Samples are the columns, so a line that holds several counts c of
    them, and a row scaled by a power of two scales s, D, the ranges, P_g
    and sqrt(W) alike and leaves the bound as it is.
    """
    n = float(centered.shape[0])
    # each sample's set, Sensitive, Resistant or Unused, and per set and
    # gene the sum, the sum of squares and the range of its values
    code = np.where(cur_s, 0, np.where(cur_r, 1, 2))
    sets = (code == np.arange(3)[:, None]).astype(np.float64)
    sums = sets[:2] @ centered
    sq = sets @ squares
    low = np.full((3, centered.shape[1]), np.inf)
    high = np.full((3, centered.shape[1]), -np.inf)
    for j, row in zip(code, centered):
        np.minimum(low[j], row, out=low[j])
        np.maximum(high[j], row, out=high[j])
    s = 2.0 * (n + 4.0) * _EPS * scale
    e = (2.0 * n + 10.0) * _EPS * sq.sum(axis=0) + n * ((n + 2.0) * _EPS * scale) ** 2 + n * _TINY
    n_s, n_r = sets[0].sum(), sets[1].sum()
    n1, n2 = in_s.sum(axis=0), in_r.sum(axis=0)
    source = code[np.argmax((cur_s[:, None] != in_s) | (cur_r[:, None] != in_r), axis=0)]
    # a neighbor's bound depends only on its group sizes and the set its
    # moved samples come from: one row of ``bound`` per such class
    size = len(code) + 1
    _, first, cls = np.unique((source * size + n1) * size + n2, return_index=True, return_inverse=True)
    source, n1, n2 = source[first], n1[first, None].astype(np.float64), n2[first, None].astype(np.float64)
    c_s, c_r = (n1 - n_s) / n1, (n_r - n2) / n2
    b_s, b_r = np.maximum(n_s - n1, 0.0) * n_s / n1, np.maximum(n_r - n2, 0.0) * n_r / n2
    h = (1.0 / n1 + 1.0 / n2) / (n1 + n2 - 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_s, m_r = sums[0] / n_s, sums[1] / n_r
        w = sq[0] + sq[1] - sums[0] * m_s - sums[1] * m_r
        d = m_s - m_r
        t_now = np.abs(d) / np.sqrt(w * ((1.0 / n_s + 1.0 / n_r) / (n_s + n_r - 2.0)))
        # D' = D + c_S (y - m_S) + c_R (y - m_R) is linear in the moved
        # samples' mean y, which lies in the range of their set
        base = d - c_s * m_s - c_r * m_r
        slope = c_s + c_r
        reach = np.maximum(np.abs(base + slope * low[source]), np.abs(base + slope * high[source]))
        p_s = np.maximum(high[0] - m_s, m_s - low[0]) + s
        p_r = np.maximum(high[1] - m_r, m_r - low[1]) + s
        lowered = w - (1.0 + 8.0 * _EPS) * (b_s * (p_s * p_s) + b_r * (p_r * p_r)) - 3.0 * e
        bound = (1.0 + 16.0 * _EPS) * (reach + (2.0 + np.abs(c_s) + np.abs(c_r)) * s) / np.sqrt(lowered * h)
    bound[~(lowered > 16.0 * e)] = np.inf
    return t_now, bound, cls


def steepest_ascent(start: Assignment, panel: LabeledMatrix, target: SignatureList, k: int) -> SearchResult:
    """Greedy local search over single-line state changes.

    Every step evaluates all 2N neighbors (N panel lines times the 2
    states each line is not currently in) and moves to the strictly best
    one; ties break by lower line index in panel order, then by state
    order Resistant < Sensitive < Unused. Neighbors that are unscorable or
    whose gene ranking fails (a missing or infinite value in a group) score
    -1 and can never be selected over a valid state; such a start raises
    instead. Panel lines the
    start omits begin Unused; a start line the panel lacks raises ValueError.
    """
    lines = list(dict.fromkeys(panel.sample_ids))  # a line may hold several columns
    on_panel = set(lines)
    missing = next((line for line in start.state if line not in on_panel), None)
    if missing is not None:
        raise ValueError(f"start line {missing!r} is not a line of the panel")
    current = Assignment({line: start.state.get(line, GroupLabel.UNUSED) for line in lines})
    current_score = score_assignment(current, panel, target, k)
    start_score = current_score
    score_moves = _neighbor_scorer(panel, target, k)
    trajectory: list[Move] = []
    neighbors_per_step: list[int] = []
    budget = 10 * len(lines)
    budget_exceeded = False
    while True:
        moves = [(line, state) for line in lines for state in SEARCH_STATES if state != current.state[line]]
        scores = score_moves(current, moves)
        neighbors_per_step.append(len(moves))
        best = int(np.argmax(scores))  # the first maximum: the tie-break order
        if scores[best] <= current_score:
            break
        current = current.replace(*moves[best])
        current_score = scores[best]
        trajectory.append(Move(moves[best][0], moves[best][1], current_score))
        if len(trajectory) >= budget:
            budget_exceeded = True
            break
    return SearchResult(
        final=current,
        trajectory=tuple(trajectory),
        start_score=start_score,
        neighbors_per_step=tuple(neighbors_per_step),
        budget_exceeded=budget_exceeded,
    )
