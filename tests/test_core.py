import tracemalloc

import numpy as np
import pytest

from arrayaudit.core import (
    GroupLabel,
    LabeledMatrix,
    PlatformMismatchError,
    SignatureList,
    extract_submatrix,
    label_census,
    validate,
)
from arrayaudit.transform import apply_pipeline, parse_pipeline_spec


def test_validate_well_formed(small_matrix):
    assert validate(small_matrix) == []


def test_validate_duplicate_sample_id():
    m = LabeledMatrix(("A", "B", "C"), ("S1", "S1", "S2"), np.zeros((3, 3)))
    violations = validate(m)
    assert len(violations) == 1
    assert violations[0].field == "sample_ids"
    assert violations[0].subject == "S1"


def test_validate_duplicate_feature_id():
    m = LabeledMatrix(("A", "A", "C"), ("S1", "S2", "S3"), np.zeros((3, 3)))
    assert [v.subject for v in validate(m)] == ["A"]


def test_validate_reports_repeated_ids_feature_axis_first_in_order_of_first_appearance():
    m = LabeledMatrix(("B", "A", "B", "A", "B"), ("S2", "S1", "S1", "S2", "S3"), np.zeros((5, 5)))
    assert [(v.field, v.subject, v.message) for v in validate(m)] == [
        ("feature_ids", "B", "feature id 'B' appears 3 times"),
        ("feature_ids", "A", "feature id 'A' appears 2 times"),
        ("sample_ids", "S2", "sample id 'S2' appears 2 times"),
        ("sample_ids", "S1", "sample id 'S1' appears 2 times"),
    ]


def test_validate_label_for_unknown_sample():
    m = LabeledMatrix(
        ("A", "B", "C"), ("S1", "S2", "S3"), np.zeros((3, 3)), {"S9": GroupLabel.SENSITIVE}
    )
    violations = validate(m)
    assert len(violations) == 1
    assert violations[0].field == "labels"
    assert violations[0].subject == "S9"


def test_validate_is_pure(small_matrix):
    assert validate(small_matrix) == validate(small_matrix)


def test_values_are_read_only(small_matrix):
    with pytest.raises(ValueError):
        small_matrix.values[0, 0] = 99.0


def test_values_are_shared_when_read_only_and_owned_and_copied_otherwise(small_matrix):
    labeled = small_matrix.with_labels({small_matrix.sample_ids[0]: GroupLabel.SENSITIVE})
    assert np.shares_memory(labeled.values, small_matrix.values)
    writable = np.zeros((3, 3))
    m = LabeledMatrix(("A", "B", "C"), ("S1", "S2", "S3"), writable)
    writable[0, 0] = 99.0
    assert m.values[0, 0] == 0.0 and not m.values.flags.writeable
    view = writable[:, ::-1]  # read-only, but its base is writable
    view.setflags(write=False)
    m = LabeledMatrix(("A", "B", "C"), ("S1", "S2", "S3"), view)
    writable[1, 1] = 7.0
    assert not np.shares_memory(m.values, writable) and m.values[1, 1] == 0.0


def _peak(fn):
    """``fn()`` and the ``tracemalloc`` peak of the call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_derived_matrices_are_one_array_handed_over():
    # a paper-scale panel: a derived matrix's values are the one array made,
    # read-only and taken by the matrix as they are; a second copy would
    # double each peak
    values = np.exp(np.random.default_rng(0).standard_normal((22283, 60)))
    m = LabeledMatrix(tuple(map(str, range(22283))), tuple(map(str, range(60))), values)
    panel = m.values.nbytes
    for spec, bound in (("round:2", 1.3), ("exp:e", 1.1)):
        out, peak = _peak(lambda: apply_pipeline(m, parse_pipeline_spec(spec)))
        assert peak <= bound * panel and not out.values.flags.writeable, spec
    assert apply_pipeline(m, parse_pipeline_spec("identity")).values is m.values
    (sub, absent), peak = _peak(lambda: extract_submatrix(m, SignatureList(m.feature_ids[::2])))
    assert peak <= 1.5 * sub.values.nbytes and absent == [] and not sub.values.flags.writeable
    np.testing.assert_array_equal(sub.values, m.values[::2])


def test_extract_submatrix_preserves_signature_order(small_matrix):
    sub, absent = extract_submatrix(small_matrix, SignatureList(("B", "C")))
    assert sub.feature_ids == ("B", "C")
    assert absent == []
    np.testing.assert_array_equal(sub.values[0], small_matrix.values[1])


def test_extract_submatrix_reports_absent_ids():
    rng = np.random.default_rng(3)
    fids = tuple(f"g{i}" for i in range(43))
    m = LabeledMatrix(fids, ("a", "b", "c"), rng.standard_normal((43, 3)))
    sig = SignatureList(fids + ("u133b_1", "u133b_2"))
    sub, absent = extract_submatrix(m, sig)
    assert sub.n_features == 43
    assert absent == ["u133b_1", "u133b_2"]


def test_extract_submatrix_disjoint_raises(small_matrix):
    with pytest.raises(PlatformMismatchError):
        extract_submatrix(small_matrix, SignatureList(("X", "Y")))


def test_unlabeled_sample_counts_as_unknown(small_matrix):
    assert small_matrix.label_of("S3") == GroupLabel.UNKNOWN
    census = label_census(small_matrix)
    assert census[GroupLabel.UNKNOWN] == 1
    assert census[GroupLabel.RESISTANT] == 1


def test_signature_direction_requires_known_ids():
    from arrayaudit.core import Direction

    with pytest.raises(ValueError):
        SignatureList(("A",), (("B", Direction.UP_IN_SENSITIVE),))
