"""Steepest-ascent search over sensitive/resistant/unused assignments of
panel cell lines, scored by overlap between the gene list a generator
derives from the assignment and a reported target list.

This reconstructs which lines a reported signature was actually built
from: start from a guess, try every single-line state change, take the
strictly best one, repeat until no change helps. Strict improvement only,
so the search always terminates; a move budget of 10 * n_lines guards
against pathological generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

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

    def safe_score(a: Assignment) -> int:
        try:
            return score_assignment(a, panel, target, k, generator)
        except (UnscorableAssignmentError, ValueError):
            return -1

    current = Assignment({line: start.state.get(line, GroupLabel.UNUSED) for line in lines})
    current_score = score_assignment(current, panel, target, k, generator)
    start_score = current_score
    trajectory: list[Move] = []
    neighbors_per_step: list[int] = []
    budget = 10 * len(lines)
    budget_exceeded = False
    while True:
        best_move: Optional[tuple[str, GroupLabel]] = None
        best_score = current_score
        n_evaluated = 0
        for line in lines:
            cur_state = current.state[line]
            for state in SEARCH_STATES:
                if state == cur_state:
                    continue
                n_evaluated += 1
                s = safe_score(current.replace(line, state))
                if s > best_score:
                    best_score = s
                    best_move = (line, state)
        neighbors_per_step.append(n_evaluated)
        if best_move is None:
            break
        current = current.replace(*best_move)
        current_score = best_score
        trajectory.append(Move(best_move[0], best_move[1], best_score))
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
