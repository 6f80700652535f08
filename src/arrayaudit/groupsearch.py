"""Steepest-ascent search over sensitive/resistant/unused assignments of
panel cell lines, scored by overlap between the gene list a generator
derives from the assignment and a reported target list.

This reconstructs which lines a reported signature was actually built
from: start from a guess, try every single-line state change, take the
strictly best one, repeat until no change helps. Strict improvement only,
so the search always terminates; a move budget of 10 * n_lines guards
against pathological generators.

With the default generator, all neighbors of a step are scored at once
(``_neighbor_scorer``). A neighbor whose batched score is not certified
equal to the reference ``score_assignment`` is scored by it, as is every
neighbor for any other generator, or for a panel with missing or infinite
values or duplicate feature ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import GroupLabel, LabeledMatrix, SignatureList
from .signature import select_top_genes

#: Neighbor states in tie-break order.
SEARCH_STATES = (GroupLabel.RESISTANT, GroupLabel.SENSITIVE, GroupLabel.UNUSED)

Generator = Callable[[LabeledMatrix, int], SignatureList]


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


def _restrict_panel(panel: LabeledMatrix, a: Assignment) -> LabeledMatrix:
    used = [
        j
        for j, sid in enumerate(panel.sample_ids)
        if a.state.get(sid, GroupLabel.UNUSED) in (GroupLabel.SENSITIVE, GroupLabel.RESISTANT)
    ]
    sub = panel.take_samples(used)
    labels = {sid: a.state[sid] for sid in sub.sample_ids}
    return sub.with_labels(labels)


def score_assignment(
    a: Assignment,
    panel: LabeledMatrix,
    target: SignatureList,
    k: int,
    generator: Generator = select_top_genes,
) -> int:
    """Number of generated gene ids that hit the target list."""
    if not a.scorable():
        raise UnscorableAssignmentError(
            "assignment needs >= 2 Sensitive and >= 2 Resistant lines"
        )
    generated = generator(_restrict_panel(panel, a), k)
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


def _neighbor_scorer(
    panel: LabeledMatrix, target: SignatureList, k: int, generator: Generator
) -> Callable[[Assignment, MoveList], list[int]]:
    """Scores of ``current.replace(line, state)`` for each move, equal to
    ``score_assignment`` with unscorable or generator-failing neighbors at -1.

    Moves are batched when the generator is ``select_top_genes``, the
    feature ids are unique (overlap is counted as a set) and every panel
    value is finite; otherwise each neighbor goes through the reference.
    """

    def reference(current: Assignment, moves: MoveList) -> list[int]:
        scores = []
        for line, state in moves:
            try:
                scores.append(score_assignment(current.replace(line, state), panel, target, k, generator))
            except ValueError:  # includes UnscorableAssignmentError
                scores.append(-1)
        return scores

    if (
        generator is not select_top_genes
        or len(set(panel.feature_ids)) != panel.n_features
        or not np.isfinite(panel.values).all()
    ):
        return reference

    x = panel.values
    n_genes = panel.n_features
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    # sample-major, so that each step's group sums are one matrix product
    centered = np.ascontiguousarray(xc.T)
    squares = centered * centered
    scale = np.abs(x).max(axis=1) + np.abs(mu[:, 0])  # >= |x| and >= |x - mu|
    wanted = set(target.feature_ids)
    hits = np.array([fid in wanted for fid in panel.feature_ids])
    line_index = {line: i for i, line in enumerate(dict.fromkeys(panel.sample_ids))}
    col_line = np.array([line_index[sid] for sid in panel.sample_ids])

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
        scores = np.full(len(moves), -1)
        cols = np.flatnonzero((n_s >= 2) & (n_r >= 2))
        moved = col_line[:, None] == move_line[None, cols]
        in_s = np.where(moved, to_s[cols], is_s[col_line][:, None])
        in_r = np.where(moved, to_r[cols], is_r[col_line][:, None])
        t, err, holds = _batched_abs_t(centered, squares, scale, in_s, in_r)
        top = np.argpartition(t, n_genes - k, axis=1)[:, n_genes - k:]
        scores[cols] = hits[top].sum(axis=1)
        # certified: every chosen gene's |t| - err exceeds every other
        # gene's |t| + err, so the reference picks the same top-k set
        # whatever its rounding and tie-break
        lowest_chosen = (np.take_along_axis(t, top, axis=1) - np.take_along_axis(err, top, axis=1)).min(axis=1)
        upper = np.add(err, t, out=err)
        np.put_along_axis(upper, top, -np.inf, axis=1)
        certified = holds & (lowest_chosen > upper.max(axis=1))
        for i in cols[~certified]:
            scores[i] = reference(current, [moves[i]])[0]
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
    neighbor whether that bound holds.

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


def steepest_ascent(
    start: Assignment,
    panel: LabeledMatrix,
    target: SignatureList,
    k: int,
    generator: Generator = select_top_genes,
) -> SearchResult:
    """Greedy local search over single-line state changes.

    Every step evaluates all 2N neighbors (N panel lines times the 2
    states each line is not currently in) and moves to the strictly best
    one; ties break by lower line index in panel order, then by state
    order Resistant < Sensitive < Unused. Unscorable or generator-failing
    neighbors score -1 and can never be selected over a valid state; an
    unscorable or generator-failing start raises instead.
    """
    lines = list(panel.sample_ids)
    current = Assignment({line: start.state.get(line, GroupLabel.UNUSED) for line in lines})
    current_score = score_assignment(current, panel, target, k, generator)
    start_score = current_score
    score_moves = _neighbor_scorer(panel, target, k, generator)
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
