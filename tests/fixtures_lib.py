"""Deterministic fixture builders shared across the test suite.

These plant known failure structures (multiplicity profiles, conflict
counts, offsets, block layouts) in synthetic data, so every expected
number in the tests is forced by construction.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

from arrayaudit.core import (
    AnnotationIndex,
    GroupLabel,
    LabeledMatrix,
    LabelRoster,
    RosterEntry,
    SampleMeta,
    SensitivityRecord,
    Measure,
    SignatureList,
)

S = GroupLabel.SENSITIVE
R = GroupLabel.RESISTANT


def duplicate_profile_matrix(
    seed: int = 7,
    n_features: int = 60,
    profile: dict[int, int] | None = None,
    special_positions: tuple[int, ...] = (31, 65, 88, 116),
) -> tuple[LabeledMatrix, tuple[str, ...]]:
    """A 122-column matrix with multiplicity profile {1:60, 2:14, 3:6, 4:4}.

    One 4-copy group is pinned at ``special_positions`` and labeled
    Sensitive/Resistant/Resistant/Resistant; all other duplicate groups are
    labeled consistently. Returns the matrix and the pinned group's ids.
    """
    profile = profile or {1: 60, 2: 14, 3: 6, 4: 4}
    assert profile.get(len(special_positions), 0) >= 1, "pinned group must fit the profile"
    rng = np.random.default_rng(seed)
    n_distinct = sum(profile.values())
    base = rng.standard_normal((n_features, n_distinct))

    # expanded occupancy: distinct index repeated per its multiplicity;
    # the last distinct index (largest multiplicity, sorted order) is held
    # back for the pinned positions
    special_distinct = n_distinct - 1
    expanded: list[int] = []
    d = 0
    for mult in sorted(profile):
        for _ in range(profile[mult]):
            if d == special_distinct:
                d += 1
                continue
            expanded.extend([d] * mult)
            d += 1
    n_total = len(expanded) + len(special_positions)
    order = list(rng.permutation(len(expanded)))
    columns: list[int | None] = [None] * n_total
    for pos in special_positions:
        columns[pos] = special_distinct
    it = iter(order)
    for pos in range(n_total):
        if columns[pos] is None:
            columns[pos] = expanded[next(it)]

    sample_ids = tuple(f"T{j + 1:03d}" for j in range(n_total))
    values = base[:, columns]

    labels: dict[str, GroupLabel] = {}
    group_label: dict[int, GroupLabel] = {}
    for pos, dist in enumerate(columns):
        sid = sample_ids[pos]
        if dist == special_distinct:
            labels[sid] = S if pos == special_positions[0] else R
            continue
        if dist not in group_label:
            group_label[dist] = S if dist % 5 == 0 else R
        labels[sid] = group_label[dist]
    special_ids = tuple(sample_ids[p] for p in special_positions)
    return LabeledMatrix(tuple(f"g{i}" for i in range(n_features)), sample_ids, values, labels), special_ids


def roster95() -> tuple[LabelRoster, dict[str, str]]:
    """95 roster entries over 80 distinct ids: 15 duplicated, 6 of those
    labeled both ways. Also returns a rival (source-rule) labeling whose
    joint-classification table against the claims is fixed by construction:

        rows (claimed) x cols (source): S (13,0,0) / R (29,10,22) / Both (6,0,0)
    """
    ids = [f"GSM{9000 + i}" for i in range(80)]
    claimed_s = ids[:13]
    claimed_r = ids[13:74]
    conflicted = ids[74:]

    entries: list[RosterEntry] = []
    for sid in claimed_s:
        entries.append(RosterEntry(sid, S, "claims"))
    for sid in claimed_r:
        entries.append(RosterEntry(sid, R, "claims"))
    for sid in conflicted:
        entries.append(RosterEntry(sid, R, "claims"))
    # consistent duplicates: 2 sensitive, 7 resistant
    for sid in claimed_s[:2]:
        entries.append(RosterEntry(sid, S, "claims"))
    for sid in claimed_r[:7]:
        entries.append(RosterEntry(sid, R, "claims"))
    # conflicting duplicates: second claim flips to sensitive
    for sid in conflicted:
        entries.append(RosterEntry(sid, S, "claims"))
    roster = LabelRoster(tuple(entries))

    source_rules: dict[str, str] = {}
    for sid in claimed_s:
        source_rules[sid] = "Sensitive"
    for sid in claimed_r[:29]:
        source_rules[sid] = "Sensitive"
    for sid in claimed_r[29:39]:
        source_rules[sid] = "Intermediate"
    for sid in claimed_r[39:]:
        source_rules[sid] = "Resistant"
    for sid in conflicted:
        source_rules[sid] = "Sensitive"
    return roster, source_rules


def offset_fixture() -> tuple[SignatureList, AnnotationIndex, SignatureList]:
    """Cisplatin-structured offset fixture.

    45 reported ids: 41 sit one annotation row before the generated ids
    (recoverable at shift +1), 2 are on-platform ids that match at no
    shift, and 2 are off-platform entirely. Generated rows are spaced so
    no other shift produces collisions.
    """
    ann = AnnotationIndex("U133A-like", tuple(f"P{i:04d}" for i in range(300)))
    gen_rows = [5 + 6 * i for i in range(45)]
    generated = SignatureList(tuple(ann.feature_ids[r] for r in gen_rows))
    reported_ids = [ann.feature_ids[r - 1] for r in gen_rows[:41]]
    reported_ids += [ann.feature_ids[280], ann.feature_ids[286]]  # on-platform outliers
    reported_ids += ["F0001_at", "F0002_at"]  # off-platform outliers
    return SignatureList(tuple(reported_ids)), ann, generated


def confound_meta() -> list[SampleMeta]:
    """Three run blocks: two carry only treatment FEC (first one also has
    excluded samples), the third carries only TET on a different scanner."""
    metas: list[SampleMeta] = []
    t0 = datetime(2008, 1, 10, 9, 0, 0, tzinfo=timezone.utc)

    def block(start: datetime, n: int, arm: str, scanner: str, prefix: str, included: bool = True):
        for i in range(n):
            metas.append(
                SampleMeta(
                    f"{prefix}{i + 1:03d}",
                    start + timedelta(hours=6 * i),
                    scanner,
                    arm,
                    included,
                )
            )

    block(t0, 20, "FEC", "SC01", "FA")
    block(t0 + timedelta(hours=3), 18, "FEC", "SC01", "FX", included=False)
    block(t0 + timedelta(days=40), 20, "FEC", "SC01", "FB")
    block(t0 + timedelta(days=90), 30, "TET", "SC02", "TE")
    return metas


def pemetrexed_reversal_records() -> tuple[list[SensitivityRecord], dict[str, GroupLabel]]:
    """10 'Sensitive' lines with uniformly lower potency than 8 'Resistant'
    lines: a clean label reversal."""
    records = []
    labels: dict[str, GroupLabel] = {}
    rng = np.random.default_rng(11)
    for i in range(10):
        line = f"SENS{i + 1:02d}"
        records.append(SensitivityRecord(line, "pemetrexed", Measure.GI50, 4.0 + 0.05 * float(rng.random())))
        labels[line] = S
    for i in range(8):
        line = f"RES{i + 1:02d}"
        records.append(SensitivityRecord(line, "pemetrexed", Measure.GI50, 6.0 + 0.05 * float(rng.random())))
        labels[line] = R
    return records, labels


def prodrug_flat_records() -> list[SensitivityRecord]:
    """Cyclophosphamide-like: every potency within +/- 0.05 of 4.5."""
    rng = np.random.default_rng(13)
    return [
        SensitivityRecord(f"L{i + 1:02d}", "cyclophosphamide", Measure.GI50, 4.5 + 0.1 * (float(rng.random()) - 0.5))
        for i in range(20)
    ]


def planted_panel(
    seed: int,
    n_sens: int = 8,
    n_res: int = 8,
    n_unused: int = 8,
    n_noise: int = 80,
    k: int = 20,
    effect: float = 4.0,
) -> tuple[LabeledMatrix, dict[str, GroupLabel], SignatureList]:
    """Panel whose top-k gene list is sensitive to individual line
    membership, so greedy search can actually recover a planted assignment.

    Genes 0..k-1 carry a uniform ``effect`` in the sensitive group. Each
    used line additionally gets one decoy gene: a strong group marker
    (1.5x effect, also present on unused lines) poisoned by an anti-signal
    (-3x effect) at that line. While the line sits in its true group the
    poison keeps the decoy out of the top-k; remove the line and the decoy
    jumps in, displacing a core gene and dropping the overlap score by one.
    Returns (panel, truth assignment, target = list generated at truth).

    Seeds verified to recover from every 2-error flip-to-Unused start:
    2025 at (7,7,6), 2041 at (8,8,8), 2026 at (10,10,10).
    """
    from arrayaudit.signature import select_top_genes

    rng = np.random.default_rng(seed)
    lines = [f"CL{i + 1:02d}" for i in range(n_sens + n_res + n_unused)]
    truth: dict[str, GroupLabel] = {}
    for i, line in enumerate(lines):
        if i < n_sens:
            truth[line] = S
        elif i < n_sens + n_res:
            truth[line] = R
        else:
            truth[line] = GroupLabel.UNUSED
    used_lines = [line for line in lines if truth[line] != GroupLabel.UNUSED]
    n_features = k + len(used_lines) + n_noise
    values = rng.standard_normal((n_features, len(lines)))
    for j, line in enumerate(lines):
        if truth[line] == S:
            values[:k, j] += effect
    for d, dline in enumerate(used_lines):
        g = k + d
        opposite = R if truth[dline] == S else S
        for j, line in enumerate(lines):
            if line == dline:
                values[g, j] += -3.0 * effect
            elif truth[line] != opposite:
                values[g, j] += 1.5 * effect
    panel = LabeledMatrix(tuple(f"g{i}" for i in range(n_features)), tuple(lines), values)
    target = select_top_genes(panel.with_labels({line: truth[line] for line in used_lines}), k)
    return panel, truth, target


def block_structured_matrix(seed: int = 5, sizes: tuple[int, ...] = (10, 8, 12), n_features: int = 80) -> LabeledMatrix:
    """Samples driven by one latent factor per block: within-block sample
    correlations approach 1, across-block correlations hover near 0."""
    rng = np.random.default_rng(seed)
    cols = []
    ids = []
    for b, size in enumerate(sizes):
        factor = rng.standard_normal(n_features) * 3.0
        for i in range(size):
            cols.append(factor + 0.1 * rng.standard_normal(n_features))
            ids.append(f"B{b + 1}S{i + 1:02d}")
    return LabeledMatrix(tuple(f"g{i}" for i in range(n_features)), tuple(ids), np.array(cols).T)
