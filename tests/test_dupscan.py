import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures_lib as fx
from arrayaudit.core import Direction, GroupLabel, LabeledMatrix, LabelRoster, RosterEntry, SignatureList
from arrayaudit.dupscan import (
    BOTH,
    check_signature_directions,
    classify_duplicate_labels,
    compare_labelings,
    cross_tabulate,
    find_duplicate_columns,
    matrices_identical,
    roster_duplicates,
    roster_labeling,
)

S = GroupLabel.SENSITIVE
R = GroupLabel.RESISTANT
U = GroupLabel.UNKNOWN


def _matrix(values, labels=None):
    values = np.asarray(values, dtype=float)
    return LabeledMatrix(
        tuple(f"g{i}" for i in range(values.shape[0])),
        tuple(f"c{j}" for j in range(values.shape[1])),
        values,
        labels,
    )


def _brute_force_components(values, threshold):
    """Independent oracle: numpy corrcoef + union-find over pairs."""
    n = values.shape[1]
    corr = np.corrcoef(values.T)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if corr[i, j] >= threshold:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(sorted(g) for g in groups.values() if len(g) >= 2)


def test_bitwise_duplicate_pair():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(10)
    b = rng.standard_normal(10)
    m = _matrix(np.column_stack([a, a, b]))
    comps = find_duplicate_columns(m)
    assert comps.components == (("c0", "c1"),)
    assert comps.n_distinct == 2
    assert comps.multiplicity_histogram == {2: 1, 1: 1}


def test_all_distinct_random_columns():
    rng = np.random.default_rng(77)
    values = rng.standard_normal((40, 50))
    m = _matrix(values)
    comps = find_duplicate_columns(m)
    assert comps.components == ()
    assert comps.n_distinct == 50
    # oracle agrees
    assert _brute_force_components(values, 0.9999) == []


def test_duplicate_profile_census():
    m, special = fx.duplicate_profile_matrix()
    comps = find_duplicate_columns(m)
    assert comps.n_samples == 122
    assert comps.n_distinct == 84
    assert comps.multiplicity_histogram == {1: 60, 2: 14, 3: 6, 4: 4}
    index = {sid: i for i, sid in enumerate(m.sample_ids)}
    assert _brute_force_components(m.values, 0.9999) == sorted(
        sorted(index[s] for s in comp) for comp in comps.components
    )
    # the pinned component is present and labeled S/R/R/R
    assert special in comps.components
    _, inconsistent = classify_duplicate_labels(comps, m.labels)
    bad_comps = [c for c, _ in inconsistent]
    assert special in bad_comps
    multiset = dict(inconsistent[bad_comps.index(special)][1])
    assert multiset == {S: 1, R: 3}


def test_components_invariant_under_column_permutation():
    m, _ = fx.duplicate_profile_matrix(seed=3)
    rng = np.random.default_rng(0)
    perm = rng.permutation(m.n_samples)
    m2 = LabeledMatrix(m.feature_ids, tuple(m.sample_ids[i] for i in perm), m.values[:, perm], m.labels)
    c1 = {frozenset(c) for c in find_duplicate_columns(m).components}
    c2 = {frozenset(c) for c in find_duplicate_columns(m2).components}
    assert c1 == c2


def test_zero_variance_column_excluded_and_reported():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((8, 4))
    values[:, 2] = 3.0
    comps = find_duplicate_columns(_matrix(values))
    assert comps.degenerate_columns == ("c2",)
    assert comps.n_distinct == 4


def test_constant_columns_that_do_not_round_are_degenerate_not_duplicates():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((10, 4))
    values[:, 1] = 0.1  # the computed mean is an ulp off: residuals are not zero
    values[:, 2] = 7.3
    comps = find_duplicate_columns(_matrix(values))
    assert comps.degenerate_columns == ("c1", "c2")
    assert comps.components == ()
    assert comps.n_distinct == 4


def test_bitwise_duplicates_detected_at_threshold_one():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(9)
    noisy = a + 1e-6 * rng.standard_normal(9)
    values = np.column_stack([a, a, rng.standard_normal(9), noisy, 2.5 * a - 4])
    comps = find_duplicate_columns(_matrix(values), threshold=1.0)
    # at threshold 1 the exact and the affine copy are found, the near-copy is not
    assert comps.components == (("c0", "c1", "c4"),)
    # the near-copy still shows up at the default forensic threshold
    loose = find_duplicate_columns(_matrix(values))
    assert loose.components == (("c0", "c1", "c3", "c4"),)


def test_min_shape_preconditions():
    with pytest.raises(ValueError):
        find_duplicate_columns(_matrix(np.ones((3, 1))))
    with pytest.raises(ValueError):
        find_duplicate_columns(_matrix(np.ones((2, 4))))


def test_missing_policy():
    values = np.random.default_rng(2).standard_normal((10, 3))
    values[0, 0] = np.nan
    with pytest.raises(ValueError, match="missing"):
        find_duplicate_columns(_matrix(values), missing_policy="fail")
    comps = find_duplicate_columns(_matrix(values))  # pairwise_complete default
    assert comps.n_distinct == 3


def test_unusable_cells_are_named_by_feature_and_sample_in_column_order():
    values = np.exp(np.random.default_rng(3).standard_normal((4, 3)))
    values[2, 0] = values[1, 2] = np.nan
    values[3, 1] = -1.5
    values[0, 2] = 0.0
    m = _matrix(values)
    with pytest.raises(ValueError, match=r"^missing_policy is 'fail' but the value at feature 'g2', sample 'c0' is missing$"):
        find_duplicate_columns(m, missing_policy="fail")
    with pytest.raises(ValueError, match=r"^log of nonpositive value -1.5 at feature 'g3', sample 'c1'$"):
        find_duplicate_columns(m, compare_on="log")


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"threshold": 0.0}, r"^threshold must be in \(0, 1\], got 0.0$"),
        ({"threshold": 1.5}, r"^threshold must be in \(0, 1\], got 1.5$"),
        ({"compare_on": "logged"}, r"^compare_on must be raw\|log, got 'logged'$"),
        ({"missing_policy": "impute"}, r"^missing_policy must be pairwise_complete\|fail, got 'impute'$"),
    ],
)
def test_scan_arguments_outside_their_range_are_refused(kwargs, message):
    # a misspelt compare_on is refused, not read as raw
    with pytest.raises(ValueError, match=message):
        find_duplicate_columns(_matrix(np.random.default_rng(5).standard_normal((6, 3))), **kwargs)


def test_compare_on_log_detects_scaled_copies():
    rng = np.random.default_rng(12)
    base = np.exp(rng.standard_normal(12))
    values = np.column_stack([base, base * 7.0, np.exp(rng.standard_normal(12))])
    raw = find_duplicate_columns(_matrix(values))
    assert raw.components == (("c0", "c1"),)  # scaling preserves correlation anyway
    logged = find_duplicate_columns(_matrix(values), compare_on="log")
    assert logged.components == (("c0", "c1"),)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(0, 4))
def test_n_distinct_identity_on_planted_duplication(seed, n_groups, n_singletons):
    rng = np.random.default_rng(seed)
    cols = []
    expected_distinct = n_groups + n_singletons
    for g in range(n_groups):
        base = rng.standard_normal(7)
        for _ in range(int(rng.integers(2, 5))):
            cols.append(base)
    for _ in range(n_singletons):
        cols.append(rng.standard_normal(7))
    values = np.array(cols).T
    comps = find_duplicate_columns(_matrix(values))
    assert comps.n_distinct == comps.n_samples - sum(len(c) - 1 for c in comps.components)
    assert comps.n_distinct == expected_distinct
    assert _brute_force_components(values, 0.9999) == sorted(
        sorted(int(s[1:]) for s in comp) for comp in comps.components
    )


def test_classify_labels_rules():
    comps_fixture, _ = fx.duplicate_profile_matrix()
    comps = find_duplicate_columns(comps_fixture)
    # forced rules on synthetic components
    from arrayaudit.dupscan import DupComponents

    made = DupComponents((("a", "b"), ("c", "d"), ("e", "f", "g", "h")), {}, 0, 8)
    labels = {
        "a": R, "b": R,          # consistent
        "c": R, "d": U,          # Unknown never conflicts
        "e": S, "f": R, "g": R, "h": R,  # inconsistent
    }
    consistent, inconsistent = classify_duplicate_labels(made, labels)
    assert ("a", "b") in consistent and ("c", "d") in consistent
    assert [c for c, _ in inconsistent] == [("e", "f", "g", "h")]


def test_roster_duplicates_fixture():
    roster, _ = fx.roster95()
    n_distinct, duplicated, inconsistent = roster_duplicates(roster)
    assert len(roster) == 95
    assert n_distinct == 80
    assert len(duplicated) == 15
    assert len(inconsistent) == 6


def test_roster_duplicates_consistent_pair():
    roster = LabelRoster((RosterEntry("GSM0053", R), RosterEntry("GSM0053", R)))
    n_distinct, duplicated, inconsistent = roster_duplicates(roster)
    assert (n_distinct, duplicated, inconsistent) == (1, ["GSM0053"], [])


def test_roster_no_duplicates():
    roster = LabelRoster(tuple(RosterEntry(f"G{i}", R) for i in range(5)))
    assert roster_duplicates(roster) == (5, [], [])


def test_cross_tabulate_joint_classification_counts():
    roster, source_rules = fx.roster95()
    a = roster_labeling(roster)
    table = cross_tabulate(a, source_rules)
    assert table.row_labels == ("Sensitive", "Resistant", BOTH)
    assert table.col_labels == ("Sensitive", "Intermediate", "Resistant")
    assert table.counts == ((13, 0, 0), (29, 10, 22), (6, 0, 0))
    assert table.row_totals == (13, 61, 6)
    assert table.col_totals == (48, 10, 22)
    assert table.total == 80


def test_cross_tabulate_diagonal_and_disjoint():
    a = {f"s{i}": S if i < 4 else R for i in range(10)}
    table = cross_tabulate(a, a)
    assert table.counts == ((4, 0), (0, 6))
    # levels that are not labels follow the label levels in string order,
    # whatever order they first appear in
    runs = ["run7", "run2", "run10", "run5", "run1", "run8", "run3", "run4"]
    table = cross_tabulate({f"s{i}": runs[i % 8] for i in range(10)}, a)
    assert table.row_labels == ("run1", "run10", "run2", "run3", "run4", "run5", "run7", "run8")
    assert table.col_labels == ("Sensitive", "Resistant")
    with pytest.raises(ValueError, match="share no samples"):
        cross_tabulate({"x": S}, {"y": S})


def test_fingerprint_identity_and_perturbation(small_matrix):
    assert matrices_identical(small_matrix, small_matrix)
    bumped = LabeledMatrix(
        small_matrix.feature_ids,
        small_matrix.sample_ids,
        small_matrix.values + np.array([[0.1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        small_matrix.labels,
    )
    assert not matrices_identical(small_matrix, bumped)


def test_fingerprint_ignores_ids_detecting_reuse():
    rng = np.random.default_rng(99)
    values = rng.standard_normal((43, 15))
    cis = LabeledMatrix(tuple(f"c{i}" for i in range(43)), tuple(f"x{j}" for j in range(15)), values)
    tem = LabeledMatrix(tuple(f"t{i}" for i in range(43)), tuple(f"y{j}" for j in range(15)), values)
    assert matrices_identical(cis, tem)


def test_fingerprint_rounding_tolerance():
    a = LabeledMatrix(("g",), ("s1", "s2"), np.array([[1.2341, 2.3449]]))
    b = LabeledMatrix(("g",), ("s1", "s2"), np.array([[1.2312, 2.3411]]))
    assert matrices_identical(a, b, digits=2)
    assert not matrices_identical(a, b, digits=3)


def test_compare_labelings_flags_flip():
    report = compare_labelings(
        [
            ("src1", "doxorubicin", {"L1": S, "L2": R}),
            ("src2", "doxorubicin", {"L1": R, "L2": R}),
        ]
    )
    assert report.flipped_drugs == {"doxorubicin": ["L1"]}


def test_compare_labelings_single_source_no_flip():
    report = compare_labelings([("src1", "doxorubicin", {"L1": S})])
    assert report.flipped_drugs == {}


def test_compare_labelings_figure_structure():
    # 12 sources over 10 drugs; every drug covered more than once flips
    drugs = ["D", "P", "A", "F", "T", "E", "C", "Pem", "Cis", "Tem"]
    coverage = {
        "s1": ["D", "P", "A", "F", "T", "E"],
        "s2": ["Cis", "Pem"],
        "s3": ["D", "P", "A", "F", "T", "E", "C"],
        "s4": ["D"],
        "s5": ["A"],
        "s6": ["D", "P", "A", "F", "T", "E", "C"],
        "s7": ["D", "A", "F", "C"],
        "s8": ["P", "A", "F", "C"],
        "s9": ["D", "P", "A", "F", "T", "E", "C"],
        "s10": ["D", "A", "F", "C"],
        "s11": ["D", "P", "A", "F", "T", "E", "C"],
        "s12": ["Tem"],
    }
    sources = []
    flip_parity = {}
    for i, (sid, ds) in enumerate(sorted(coverage.items())):
        for d in ds:
            flip_parity.setdefault(d, 0)
            label = S if flip_parity[d] % 2 == 0 else R
            flip_parity[d] += 1
            sources.append((sid, d, {"LINE1": label}))
    report = compare_labelings(sources)
    multi = {d for d, n in report.drugs_checked.items() if n > 1}
    assert multi == set(report.flipped_drugs)
    assert all(d in report.flipped_drugs for d in multi)


def test_check_signature_directions():
    sig = SignatureList(
        ("RRAGD", "SFN", "ABC"),
        (
            ("RRAGD", Direction.UP_IN_RESISTANT),
            ("RRAGD", Direction.UP_IN_SENSITIVE),
            ("SFN", Direction.UP_IN_SENSITIVE),
        ),
    )
    assert check_signature_directions(sig) == ["RRAGD"]
    clean = SignatureList(("A", "B"), (("A", Direction.UP_IN_SENSITIVE),))
    assert check_signature_directions(clean) == []
    no_dirs = SignatureList(("A", "B"))
    assert check_signature_directions(no_dirs) == []
    # reported in signature order, whatever the order of the direction entries
    up, down = Direction.UP_IN_RESISTANT, Direction.UP_IN_SENSITIVE
    both = SignatureList(("B", "A", "B"), (("A", up), ("A", down), ("B", down), ("B", up)))
    assert check_signature_directions(both) == ["B", "A"]
