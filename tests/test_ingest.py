import dataclasses
import math
import re
from collections import Counter
from datetime import timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayaudit import ingest
from arrayaudit.core import (
    AnnotationIndex,
    Direction,
    GroupLabel,
    LabeledMatrix,
    LabelRoster,
    Measure,
    RosterEntry,
    SampleMeta,
    SensitivityRecord,
    SignatureList,
)
from arrayaudit.ingest import MatrixFormat, ParseError

TSV_2X2 = "id\tS1\tS2\nlabel\tNR\tResp\ngene1\t1.5\t2.5\ngene2\t-3\t4e-2\n"


def test_parse_matrix_basic():
    m = ingest.parse_matrix(TSV_2X2)
    assert m.feature_ids == ("gene1", "gene2")
    assert m.sample_ids == ("S1", "S2")
    assert m.labels == {"S1": GroupLabel.RESISTANT, "S2": GroupLabel.SENSITIVE}
    np.testing.assert_allclose(m.values, [[1.5, 2.5], [-3.0, 0.04]])


def test_parse_matrix_crlf_and_missing():
    text = "id\tS1\tS2\r\ngene1\tNA\t2\r\n"
    m = ingest.parse_matrix(text)
    assert np.isnan(m.values[0, 0])
    assert m.labels is None


def test_parse_matrix_label_census_structure():
    # 122 columns: 99 NR + 23 Resp
    sids = [f"T{j:03d}" for j in range(122)]
    labels = ["NR"] * 99 + ["Resp"] * 23
    lines = ["id\t" + "\t".join(sids), "label\t" + "\t".join(labels)]
    lines.append("g1\t" + "\t".join(["1"] * 122))
    m = ingest.parse_matrix("\n".join(lines) + "\n")
    census = Counter(map(m.label_of, m.sample_ids))
    assert census[GroupLabel.RESISTANT] == 99
    assert census[GroupLabel.SENSITIVE] == 23


def test_parse_matrix_bad_cell_coordinates():
    text = "id\tS1\tS2\ngene1\t1\tn/a\n"
    with pytest.raises(ParseError, match=r"row 2, column 3"):
        ingest.parse_matrix(text, MatrixFormat(has_label_row=False))
    with pytest.raises(ParseError, match=r"^row 3, column 2: unparseable numeric cell '1e999'"):
        ingest.parse_matrix("id\tS1\tS2\nlabel\tNR\tResp\ngene1\t1e999\t1\n")
    with pytest.raises(ParseError, match=r"^row 2, column 3: unknown group label token 'wibble'"):
        ingest.parse_matrix("id\tS1\tS2\nlabel\tNR\twibble\ngene1\t1\t2\n")
    # a label cell loses spaces and tabs only: a form feed is not an empty (Unknown) label
    with pytest.raises(ParseError, match=r"^row 2, column 3: unknown group label token '\\x0c'$"):
        ingest.parse_matrix("id\tS1\tS2\nlabel\tNR\t\x0c\ngene1\t1\t2\n")


def test_parse_matrix_ragged_row():
    with pytest.raises(ParseError, match="ragged"):
        ingest.parse_matrix("id\tS1\tS2\ngene1\t1\n")


def test_parse_matrix_duplicate_feature():
    with pytest.raises(ParseError, match="duplicate feature id"):
        ingest.parse_matrix("id\tS1\ngene1\t1\ngene1\t2\n")


def test_parse_matrix_rejects_locale_numbers():
    with pytest.raises(ParseError):
        ingest.parse_matrix("id\tS1\ngene1\t1 234\n")


def test_matrix_round_trip(small_matrix):
    text = ingest.serialize_matrix(small_matrix)
    again = ingest.parse_matrix(text)
    assert again.feature_ids == small_matrix.feature_ids
    assert again.sample_ids == small_matrix.sample_ids
    assert again.labels == {**{s: GroupLabel.UNKNOWN for s in ("S3",)}, "S1": GroupLabel.RESISTANT, "S2": GroupLabel.SENSITIVE}
    np.testing.assert_array_equal(again.values, small_matrix.values)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12),
        min_size=4,
        max_size=4,
    )
)
def test_matrix_value_round_trip_exact(vals):
    m = LabeledMatrix(("f1", "f2"), ("s1", "s2"), np.array(vals).reshape(2, 2))
    again = ingest.parse_matrix(ingest.serialize_matrix(m))
    np.testing.assert_array_equal(again.values, m.values)


def test_parse_roster_duplicates_kept():
    text = "GSM0007,RES\nGSM0008,RES\nGSM0008,SEN\nGSM0009,RES\n"
    roster = ingest.parse_roster(text)
    assert len(roster) == 4
    assert len({e.sample_id for e in roster.entries}) == 3


def test_parse_roster_95_rows():
    lines = [f"GSM{9000 + i},RES" for i in range(95)]
    roster = ingest.parse_roster("\n".join(lines))
    assert len(roster) == 95


def test_parse_roster_empty_errors():
    with pytest.raises(ParseError, match="empty"):
        ingest.parse_roster("")


def test_parse_roster_unknown_token():
    with pytest.raises(ParseError, match="unknown group label"):
        ingest.parse_roster("GSM1,wibble\n")


def test_roster_round_trip():
    roster = ingest.parse_roster("GSM1,RES,websiteA,dup of 2\nGSM2,SEN\n")
    again = ingest.parse_roster(ingest.serialize_roster(roster))
    assert again.entries == roster.entries


def test_parse_signature_45_ids():
    text = "\n".join(f"{200000 + i}_at" for i in range(45))
    sig = ingest.parse_signature(text)
    assert len(sig) == 45


def test_signature_direction_round_trip():
    text = "g1,UpInResistant\ng2,UpInSensitive\ng1,UpInSensitive\n"
    sig = ingest.parse_signature(text)
    assert len(sig.direction_entries) == 3
    again = ingest.parse_signature(ingest.serialize_signature(sig))
    assert again == sig


def test_parse_annotation_order_is_semantic():
    ann = ingest.parse_annotation("U95Av2\nA\nB\nC\n")
    assert ann.platform_id == "U95Av2"
    assert ann.index == {"A": 0, "B": 1, "C": 2}


def test_parse_sensitivity_row():
    recs = ingest.parse_sensitivity("MCF7,NSC26271,GI50,4.2\n")
    assert len(recs) == 1
    assert recs[0].cell_line == "MCF7"
    assert recs[0].measure.value == "GI50"
    assert recs[0].value == 4.2


def test_parse_sensitivity_bad_measure():
    with pytest.raises(ParseError, match="^row 1: unknown measure 'XX50'$"):
        ingest.parse_sensitivity("MCF7,NSC26271,XX50,4.2\n")


def test_parse_sample_meta_and_timezone():
    metas = ingest.parse_sample_meta(
        "sample_id,run_timestamp,scanner_id,treatment_arm,included\n"
        "A1,2007-01-03T10:00:00,SC01,FEC,1\n"
        "A2,2007-01-03T11:00:00Z,SC01,TET,0\n"
    )
    assert metas[0].run_timestamp.tzinfo is not None
    assert metas[1].included is False


def test_parse_sample_meta_bad_timestamp_names_row():
    with pytest.raises(ParseError, match="^row 2: unparseable ISO-8601 timestamp 'yesterday'$"):
        ingest.parse_sample_meta("A1,2007-01-03T10:00:00,SC01,FEC,1\nA2,yesterday,SC01,TET,1\n")
    with pytest.raises(ParseError, match="^row 1: included must be 0 or 1, got 'yes'$"):
        ingest.parse_sample_meta("A1,2007-01-03T10:00:00,SC01,FEC,yes\n")
    # a timestamp loses spaces and tabs only
    assert ingest.parse_sample_meta("A1, 2007-01-03T10:00:00\t,SC01,FEC,1\n")[0].run_timestamp.hour == 10
    with pytest.raises(ParseError, match=r"^row 1: unparseable ISO-8601 timestamp '2007-01-03T10:00:00\\xa0'$"):
        ingest.parse_sample_meta("A1,2007-01-03T10:00:00\xa0,SC01,FEC,1\n")


def test_meta_round_trip():
    text = "A1,2007-01-03T10:00:00+00:00,SC01,FEC,1\n"
    metas = ingest.parse_sample_meta(text)
    again = ingest.parse_sample_meta(ingest.serialize_sample_meta(metas))
    assert again == metas


NO_LABELS = MatrixFormat(has_label_row=False)


@pytest.mark.parametrize("tok", ["+inf", "+Infinity", "-nan", "+nan", "1_000", "١٢", "0x10", "1,5"])
def test_parse_matrix_rejects_float_extensions(tok):
    text = f"id\tS1\tS2\ngene1\t1\t2\ngene2\t3\t{tok}\n"
    with pytest.raises(ParseError, match=r"row 3, column 3: unparseable numeric cell"):
        ingest.parse_matrix(text, NO_LABELS)


@pytest.mark.parametrize(
    "tok, expected", [(" 1.5 ", 1.5), (".5", 0.5), ("5.", 5.0), ("+5", 5.0), ("1E-3", 0.001), (" NA ", None)]
)
def test_parse_matrix_accepts_padded_ascii_decimals(tok, expected):
    m = ingest.parse_matrix(f"id\tS1\tS2\ngene1\t{tok}\t2\n", NO_LABELS)
    if expected is None:
        assert np.isnan(m.values[0, 0])
    else:
        assert m.values[0, 0] == expected
    assert m.values[0, 1] == 2.0


def test_parse_matrix_reports_the_first_fault_in_reading_order():
    rows = ["id\tS1\tS2", "gene1\t1\t2", "gene2\t1\tinf", "gene3\t1\t2", "gene4\t1"]
    with pytest.raises(ParseError, match=r"^row 3, column 3: "):
        ingest.parse_matrix("\n".join(rows) + "\n", NO_LABELS)
    rows[2] = "gene1\t1\t2"  # now a duplicate id comes before the ragged row
    with pytest.raises(ParseError, match=r"^row 3: duplicate feature id"):
        ingest.parse_matrix("\n".join(rows) + "\n", NO_LABELS)
    rows[2] = "gene2\t-1e400\t1"  # an overflow is found before a later fault
    with pytest.raises(ParseError, match=r"^row 3, column 2: "):
        ingest.parse_matrix("\n".join(rows) + "\n", NO_LABELS)


def test_parse_matrix_bad_cell_beside_missing_cells_names_its_column():
    fmt = MatrixFormat(delimiter="comma", has_label_row=False)
    text = "id,S1,S2,S3,S4\ngene1,NA,1,x1,NA\n"
    with pytest.raises(ParseError, match=r"row 2, column 4: unparseable numeric cell 'x1'"):
        ingest.parse_matrix(text, fmt)
    for before in ("gene0,1,1e,2,3", "gene0,NA,1e,NA,3"):  # a whitelist-clean fault on an earlier row comes first
        with pytest.raises(ParseError, match=r"^row 2, column 3: unparseable numeric cell '1e'$"):
            ingest.parse_matrix(text.replace("\n", f"\n{before}\n", 1), fmt)


@pytest.mark.parametrize("field", ["missing_token", "label_row_key"])
@pytest.mark.parametrize(
    "delimiter, token, fault",
    [
        ("tab", " -999", "has leading or trailing spaces or tabs"),
        ("comma", "NA ", "has leading or trailing spaces or tabs"),
        ("comma", "NA\t", "has leading or trailing spaces or tabs"),
        ("tab", "NA\t", "holds the delimiter '\\t'"),
        ("comma", "1,5", "holds the delimiter ','"),
        ("comma", ",", "holds the delimiter ','"),
        ("tab", "N\rA", "holds a line break"),
        ("comma", "NA\n", "holds a line break"),
    ],
)
def test_matrix_format_refuses_a_token_no_cell_can_equal(field, delimiter, token, fault):
    message = rf"^{field} {re.escape(repr(token))} can equal no cell: it {re.escape(fault)}$"
    with pytest.raises(ValueError, match=message):
        MatrixFormat(delimiter=delimiter, **{field: token})


def test_matrix_format_accepts_a_token_a_cell_can_equal():
    fmt = MatrixFormat(has_label_row=False, missing_token="1,5", label_row_key="N A")
    m = ingest.parse_matrix("id\tS1\tS2\ngene1\t1,5\t2\n", fmt)
    np.testing.assert_array_equal(m.values, [[np.nan, 2.0]])
    for token in ("", "-999", "N A"):
        assert MatrixFormat(delimiter="comma", missing_token=token, label_row_key=token).missing_token == token


@pytest.mark.parametrize("missing", ["NA", "", "-999"])
def test_parse_matrix_converts_every_row_in_one_c_call(monkeypatch, missing):
    calls = []
    loadtxt = np.loadtxt

    def spy(rows, *args, **kwargs):
        calls.append(list(rows))
        return loadtxt(rows, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    rows = [[missing, "1", "2"], ["3", f" {missing} ", "4"], [missing, missing, missing], ["5", "-9990", missing]]
    text = "id,S1,S2,S3\n" + "".join(f"gene{i},{','.join(row)}\n" for i, row in enumerate(rows))
    fmt = MatrixFormat(delimiter="comma", has_label_row=False, missing_token=missing)
    m = ingest.parse_matrix(text, fmt)
    nan = np.nan
    expected = [[nan, 1, 2], [3, nan, 4], [nan, nan, nan], [5, -9990, nan]]
    np.testing.assert_array_equal(m.values, expected)
    assert len(calls) == 1 and len(calls[0]) == len(rows)
    # a body of more than one chunk: one call per chunk, each on its own rows
    calls.clear()
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", len(",".join(rows[0])) + len(",".join(rows[1])))
    np.testing.assert_array_equal(ingest.parse_matrix(text, fmt).values, expected)
    assert [len(chunk) for chunk in calls] == [2, 2]


@pytest.mark.parametrize("missing", ["NA", "", "-999"])
def test_parse_matrix_checks_the_body_without_a_per_row_search(monkeypatch, missing):
    # the whitelist is checked over a chunk's text at once, not by a regex
    # search of each row; the regex only looks into the missing token
    searched = []
    pattern = ingest._NOT_NUMERIC

    class Spy:
        def search(self, text):
            searched.append(text)
            return pattern.search(text)

    fmt = MatrixFormat(delimiter="comma", has_label_row=False, missing_token=missing)
    rows = [[missing, "1", "2"], ["3", "4", "5"], ["6", f" {missing} ", "-9990"]]
    text = "id,S1,S2,S3\n" + "".join(f"gene{i},{','.join(row)}\n" for i, row in enumerate(rows))
    monkeypatch.setattr(ingest, "_NOT_NUMERIC", Spy())
    m = ingest.parse_matrix(text, fmt)
    np.testing.assert_array_equal(m.values, [[np.nan, 1, 2], [3, 4, 5], [6, np.nan, -9990]])
    assert searched == ([missing] if missing else [])
    with pytest.raises(ParseError, match=r"^row 3, column 3: unparseable numeric cell 'x'$"):
        ingest.parse_matrix(text.replace(",4,", ",x,"), fmt)


def test_parse_matrix_non_default_missing_tokens():
    fmt = MatrixFormat(has_label_row=False, missing_token="-999")
    m = ingest.parse_matrix("id\tS1\tS2\tS3\ngene1\t-999\t-9990\t 1\ngene2\t1\t2\t -999 \n", fmt)
    np.testing.assert_array_equal(m.values, [[np.nan, -9990.0, 1.0], [1.0, 2.0, np.nan]])
    fmt = MatrixFormat(delimiter="comma", has_label_row=False, missing_token="")
    m = ingest.parse_matrix("id,S1,S2,S3\ngene1,,2, \ngene2,1,2,3\n", fmt)
    np.testing.assert_array_equal(m.values, [[np.nan, 2.0, np.nan], [1.0, 2.0, 3.0]])
    with pytest.raises(ParseError, match=r"row 2, column 2: unparseable numeric cell 'NA'"):
        ingest.parse_matrix("id,S1\ngene1,NA\n", fmt)


# An independent statement of the grammar: ASCII decimal, space/tab padding.
_ASCII_DECIMAL = re.compile(r"[ \t]*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[ \t]*")


def _reference_cells(cells: list[list[str]], missing: str):
    """Per-cell oracle: NaN for the missing token, else the grammar and a
    finite float(); the first bad cell in reading order as (row, column)."""
    out = []
    for i, row in enumerate(cells):
        vals = []
        for j, tok in enumerate(row):
            if tok.strip(" \t") == missing:
                vals.append(float("nan"))
            elif _ASCII_DECIMAL.fullmatch(tok) and math.isfinite(float(tok)):
                vals.append(float(tok))
            else:
                return None, (i + 2, j + 2)
        out.append(vals)
    return np.array(out, dtype=np.float64), None


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER_TOKENS = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda x: format(x, ".17g")),
    _FINITE.map(lambda x: format(x, ".6e")),
    _FINITE.map(lambda x: format(x, "E")),
    st.integers(-(10**20), 10**20).map(str),
    st.integers(0, 10**6).flatmap(lambda n: st.sampled_from([f"{n}.", f".{n}", f"+{n}", f"-{n}."])),
)
_HOSTILE = [
    "inf", "-inf", "+inf", "Infinity", "+Infinity", "nan", "-nan", "+nan", "NaN", "NAN", "n/a",
    "1_000", "\u0661\u0662", "\uff0e5", "0x10", "1d5", "1e", "e5", "--1", "1.2.3", "1 2", "", " ",
    "\xa01", "\x0b1", "1\x0c", "1\u2003", "1e999", "-1e400",
]


@st.composite
def _matrix_cells(draw):
    delimiter = draw(st.sampled_from(["tab", "comma"]))
    missing = draw(st.sampled_from(["NA", "", "-999"]))
    pads = [" ", "  "] + (["\t", " \t"] if delimiter == "comma" else [])
    padded = st.tuples(st.sampled_from(["", *pads]), _NUMBER_TOKENS, st.sampled_from(["", *pads])).map("".join)
    cell = st.one_of(_NUMBER_TOKENS, padded, st.sampled_from([missing, f" {missing} ", f"\xa0{missing}"]))
    if draw(st.booleans()):  # some matrices hold hostile tokens as well
        cell = st.one_of(cell, st.sampled_from(_HOSTILE + (["1,5"] if delimiter == "tab" else [])))
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    return delimiter, missing, cells


@settings(max_examples=300, deadline=None)
@given(_matrix_cells())
def test_parse_matrix_matches_per_cell_oracle(case):
    _check_per_cell_oracle(case)


@settings(max_examples=300, deadline=None)
@given(_matrix_cells(), st.integers(1, 24))
def test_parse_matrix_matches_per_cell_oracle_across_chunks(case, budget):
    # a budget of a few characters puts each row, or each few, in a chunk of its own
    with mock.patch.object(ingest, "_CHUNK_CHARS", budget):
        _check_per_cell_oracle(case)


def _check_per_cell_oracle(case):
    delimiter, missing, cells = case
    fmt = MatrixFormat(delimiter=delimiter, has_label_row=False, missing_token=missing)
    sep = fmt.sep
    lines = [sep.join(["id", *(f"S{j}" for j in range(len(cells[0])))])]
    lines += [sep.join([f"g{i}", *row]) for i, row in enumerate(cells)]
    text = "\n".join(lines) + "\n"
    expected, bad = _reference_cells(cells, missing)
    if bad is not None:
        with pytest.raises(ParseError, match=rf"^row {bad[0]}, column {bad[1]}: "):
            ingest.parse_matrix(text, fmt)
        return
    got = ingest.parse_matrix(text, fmt).values
    assert got.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))


#: Whitelist-clean tokens that are not numbers or overflow: they reach the
#: C conversion, so the error locator must name them.
_CLEAN_FAULTS = ["1e", "--1", "1.2.3", "1e999", "-1e400"]


@st.composite
def _matrix_with_structural_fault(draw):
    """A matrix of ``_matrix_cells`` with one row inserted at a drawn index
    that has an empty id, a wrong width or an earlier row's id, and the
    rows before it, of which one may hold a whitelist-clean fault."""
    delimiter, missing, cells = draw(_matrix_cells())
    kind = draw(st.sampled_from(["empty id", "ragged", "repeated id"]))
    at = draw(st.integers(1 if kind == "repeated id" else 0, len(cells)))
    if at and draw(st.booleans()):
        faults = _CLEAN_FAULTS + (["1,5"] if delimiter == "tab" else [])
        i, j = draw(st.integers(0, at - 1)), draw(st.integers(0, len(cells[0]) - 1))
        cells[i][j] = draw(st.sampled_from(faults))
    fault_cells = list(draw(st.sampled_from(cells)))
    if kind == "ragged":
        fault_cells = fault_cells[:-1] if draw(st.booleans()) else [*fault_cells, "1"]
    fid = draw(st.sampled_from(["", " "])) if kind == "empty id" else "h"
    if kind == "repeated id":
        fid = f"g{draw(st.integers(0, at - 1))}"
    return delimiter, missing, cells, at, kind, fid, fault_cells


@settings(max_examples=300, deadline=None)
@given(_matrix_with_structural_fault())
def test_parse_matrix_raises_the_first_fault_in_reading_order(case):
    _check_first_fault(case)


@settings(max_examples=300, deadline=None)
@given(_matrix_with_structural_fault(), st.integers(1, 24))
def test_parse_matrix_raises_the_first_fault_in_reading_order_across_chunks(case, budget):
    with mock.patch.object(ingest, "_CHUNK_CHARS", budget):
        _check_first_fault(case)


def _check_first_fault(case):
    delimiter, missing, cells, at, kind, fid, fault_cells = case
    fmt = MatrixFormat(delimiter=delimiter, has_label_row=False, missing_token=missing)
    sep = fmt.sep
    ncol = len(cells[0])
    rows = [sep.join([f"g{i}", *row]) for i, row in enumerate(cells)]
    rows.insert(at, sep.join([fid, *fault_cells]))
    text = "\n".join([sep.join(["id", *(f"S{j}" for j in range(ncol))]), *rows]) + "\n"
    _, bad = _reference_cells(cells[:at], missing)
    if bad is not None:
        expected = rf"^row {bad[0]}, column {bad[1]}: unparseable numeric cell "
    elif kind == "empty id":
        expected = rf"^row {at + 2}: empty feature id$"
    elif kind == "ragged":
        expected = rf"^row {at + 2}: ragged row \({len(fault_cells)} cells, expected {ncol}\)$"
    else:
        expected = rf"^row {at + 2}: duplicate feature id '{fid}' \(first on row {int(fid[1:]) + 2}\)$"
    with pytest.raises(ParseError, match=expected):
        ingest.parse_matrix(text, fmt)


@pytest.mark.parametrize("missing", ["NA", "", "-999"])
@pytest.mark.parametrize("delimiter, cell", [("tab", ""), ("tab", " "), ("comma", ""), ("comma", "  "), ("comma", " \t")])
@pytest.mark.parametrize("around", [False, True])
def test_parse_matrix_one_column_row_of_empty_or_padding_cell(missing, delimiter, cell, around):
    fmt = MatrixFormat(delimiter=delimiter, has_label_row=False, missing_token=missing)
    sep = fmt.sep
    body = [f"g0{sep}1", f"g1{sep}{cell}", f"g2{sep}2"] if around else [f"g1{sep}{cell}"]
    text = "\n".join([f"id{sep}S1", *body]) + "\n"
    if missing == "":
        expected = [[1.0], [np.nan], [2.0]] if around else [[np.nan]]
        np.testing.assert_array_equal(ingest.parse_matrix(text, fmt).values, expected)
    else:
        row = 2 + around
        with pytest.raises(ParseError, match=rf"^row {row}, column 2: unparseable numeric cell {re.escape(repr(cell))}$"):
            ingest.parse_matrix(text, fmt)


def _chunked_panel(cells, newline="\n", bom=""):
    """A comma-delimited matrix of 4-character cells under a budget of 50
    characters: each chunk holds 3 rows of 19 characters (rows 2-4, 5-7
    and 8-10 of the file)."""
    rows = [f"g{i}," + ",".join(row) for i, row in enumerate(cells)]
    return bom + newline.join(["id,S1,S2,S3,S4", *rows]) + newline


_PANEL = [[f"{10 + 4 * i + j}.5" for j in range(4)] for i in range(9)]


@pytest.mark.parametrize("missing", ["NA", "", "-999"])
@pytest.mark.parametrize("newline, bom", [("\n", ""), ("\r\n", ""), ("\n", "\ufeff"), ("\r\n", "\ufeff")])
def test_parse_matrix_marks_missing_cells_at_chunk_edges(monkeypatch, missing, newline, bom):
    chunks = []
    convert = ingest._convert_body

    def spy(rests, lineno, *args):
        chunks.append((lineno, len(rests)))
        return convert(rests, lineno, *args)

    monkeypatch.setattr(ingest, "_convert_body", spy)
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", 50)
    cells = [row[:] for row in _PANEL]
    expected = np.array(cells, dtype=np.float64)
    for i, j in [(0, 0), (3, 0), (5, 3), (8, 3)]:  # the first and last cells of the body and of its middle chunk
        cells[i][j] = f" {missing} "
        expected[i, j] = np.nan
    fmt = MatrixFormat(delimiter="comma", has_label_row=False, missing_token=missing)
    m = ingest.parse_matrix(_chunked_panel(cells, newline, bom), fmt)
    assert chunks == [(2, 3), (5, 3), (8, 3)]
    assert m.feature_ids == tuple(f"g{i}" for i in range(9)) and m.sample_ids == ("S1", "S2", "S3", "S4")
    np.testing.assert_array_equal(m.values, expected)


@pytest.mark.parametrize("bad", ["x5.5", "1e", "1e999", "nan"])
def test_parse_matrix_names_a_bad_cell_in_the_last_chunk(monkeypatch, bad):
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", 50)
    cells = [row[:] for row in _PANEL]
    cells[7][2] = bad
    with pytest.raises(ParseError, match=rf"^row 9, column 4: unparseable numeric cell '{bad}'$"):
        ingest.parse_matrix(_chunked_panel(cells), MatrixFormat(delimiter="comma", has_label_row=False))


@pytest.mark.parametrize("fault", ["ragged", "duplicate"])
@pytest.mark.parametrize("bad_row", [1, 3])  # in an earlier chunk than the faulty row 4, or in its chunk
def test_parse_matrix_names_a_bad_cell_before_a_later_structural_fault(monkeypatch, fault, bad_row):
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", 50)
    cells = [row[:] for row in _PANEL]
    cells[bad_row][1] = "1e"
    text = _chunked_panel(cells).replace("g4,", "g4,1,", 1) if fault == "ragged" else _chunked_panel(cells).replace("g4,", "g0,", 1)
    fmt = MatrixFormat(delimiter="comma", has_label_row=False)
    with pytest.raises(ParseError, match=rf"^row {bad_row + 2}, column 3: unparseable numeric cell '1e'$"):
        ingest.parse_matrix(text, fmt)
    message = r"ragged row \(5 cells, expected 4\)" if fault == "ragged" else r"duplicate feature id 'g0' \(first on row 2\)"
    fixed = text.replace(",1e,", ",1.5,")
    with pytest.raises(ParseError, match=rf"^row 6: {message}$"):
        ingest.parse_matrix(fixed, fmt)


def test_parse_sensitivity_reads_potency_through_the_number_grammar():
    with pytest.raises(ParseError, match=r"^row 3, column 4: unparseable numeric cell '1_0'"):
        ingest.parse_sensitivity("cell_line,drug_id,measure,value\nMCF7,D1,GI50,4.2\nA549,D1,GI50,1_0\n")
    with pytest.raises(ParseError, match=r"^row 1, column 4: unparseable numeric cell 'inf'"):
        ingest.parse_sensitivity("MCF7,D1,GI50,inf\n")
    with pytest.raises(ParseError, match=r"^row 1, column 4: unparseable numeric cell '1e999'"):
        ingest.parse_sensitivity("MCF7,D1,GI50,1e999\n")
    assert ingest.parse_sensitivity("MCF7,D1,GI50,+5.\n")[0].value == 5.0


def test_roster_and_signature_rows_are_file_line_numbers():
    with pytest.raises(ParseError, match=r"^row 4: expected 2 to 4 cells, got 1"):
        ingest.parse_roster("sample_id,label\nGSM1,RES\n\nGSM2\n")
    with pytest.raises(ParseError, match=r"^row 3: unknown group label token 'wibble'"):
        ingest.parse_roster("GSM1,RES\n\nGSM2,wibble\n")
    with pytest.raises(ParseError, match=r"^row 4: unknown direction token 'sideways'"):
        ingest.parse_signature("feature_id,direction\n\ng1,UpInResistant\ng2,sideways\n")
    with pytest.raises(ParseError, match=r"^row 3: empty feature id"):
        ingest.parse_signature("g1\n\n,UpInResistant\n")
    with pytest.raises(ParseError, match=r"^row 2: expected 2 to 4 cells, got 5"):
        ingest.parse_roster("GSM1,RES\nA,Sensitive,src,note,extra\n")
    with pytest.raises(ParseError, match=r"^row 1: expected 1 to 2 cells, got 3"):
        ingest.parse_signature("g1,UpInResistant,x\n")


_KIND_TEXTS = {
    "roster": (ingest.parse_roster, "sample_id,label,source,note\nGSM1,RES,site-a,\nGSM2,SEN\n"),
    "signature": (ingest.parse_signature, "feature_id,direction\ng1,UpInResistant\ng2\n"),
    "annotation": (ingest.parse_annotation, "U95Av2\nA\nB\n"),
    "sensitivity": (ingest.parse_sensitivity, "cell_line,drug_id,measure,value\nMCF7,D1,GI50,4.2\n"),
    "meta": (
        ingest.parse_sample_meta,
        "sample_id,run_timestamp,scanner_id,treatment_arm,included\nA1,2007-01-03T10:00:00,SC01,FEC,1\n",
    ),
    "matrix": (lambda text: ingest.serialize_matrix(ingest.parse_matrix(text)), TSV_2X2),
    "table": (ingest.parse_table, "sample_id,T,F\np1,1,2\n"),
}


@pytest.mark.parametrize("kind", sorted(_KIND_TEXTS))
def test_every_kind_parses_the_same_with_and_without_a_bom(kind):
    parse, text = _KIND_TEXTS[kind]
    assert parse("\ufeff" + text) == parse(text)
    assert parse("\ufeff" + text.replace("\n", "\r\n")) == parse(text)


def test_roster_header_is_its_first_cell_and_cells_lose_spaces_and_tabs():
    assert [e.sample_id for e in ingest.parse_roster("Sample_ID,group\nGSM1,RES\n").entries] == ["GSM1"]
    assert [e.sample_id for e in ingest.parse_roster("GSM1\xa0,RES\n").entries] == ["GSM1\xa0"]
    roster = ingest.parse_roster("GSM1, RES ,\tsite-a, \n")
    assert roster.entries[0].label == GroupLabel.RESISTANT
    assert (roster.entries[0].source_id, roster.entries[0].note) == ("site-a", None)
    with pytest.raises(ParseError, match=r"^row 1: unknown group label token '\\xa0RES'$"):
        ingest.parse_roster("GSM1,\xa0RES\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (ingest.parse_roster, "GSM1,RES\n,Resistant\n", "row 2: empty sample id"),
        (ingest.parse_sensitivity, "cell_line,drug_id,measure,value\n ,D1,GI50,4.2\n", "row 2: empty cell line"),
        (ingest.parse_sample_meta, ",2007-01-03T10:00:00,SC01,FEC,1\n", "row 1: empty sample id"),
        (ingest.parse_table, "sample_id,T\np1,1\n,2\n", "row 3: empty id"),
        (ingest.parse_matrix, "id\tS1\ng1\t1\n \t2\n", "row 3: empty feature id"),
    ],
    ids=["roster", "sensitivity", "meta", "table", "matrix"],
)
def test_an_empty_id_is_an_error_naming_its_row(parse, text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse(text)


def test_annotation_duplicate_names_both_rows():
    with pytest.raises(ParseError, match=r"^row 5: duplicate feature id 'A' \(first on row 2\)$"):
        ingest.parse_annotation("P\nA\nB\n\nA\n")
    assert ingest.parse_annotation("GPL96, HG-U133A\nA\n").platform_id == "GPL96, HG-U133A"



@pytest.mark.parametrize(
    "text, message",
    [
        ("id\tS1\t\tS3\ng1\t1\t2\t3\n", "row 1, column 3: empty sample id"),
        ("id\tS1\tS1\t\ng1\t1\t2\t3\n", "row 1, column 3: duplicate sample id 'S1' (first in column 2)"),
        ("id\tS1\tS2\tS1\ng1\t1\t2\t3\n", "row 1, column 4: duplicate sample id 'S1' (first in column 2)"),
        ("id\tS1\ng1\t1\n g1 \t2\n", "row 3: duplicate feature id 'g1' (first on row 2)"),
    ],
    ids=["empty", "repeated", "repeated later", "feature"],
)
def test_matrix_header_ids_are_nonempty_and_unique(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        ingest.parse_matrix(text, NO_LABELS)


def test_matrix_ids_lose_spaces_and_tabs_only():
    m = ingest.parse_matrix("id\t S1 \t\xa0S2\nlabel \tRes\tSen\n g1\xa0\t1\t2\n", MatrixFormat())
    assert m.sample_ids == ("S1", "\xa0S2")
    assert m.feature_ids == ("g1\xa0",)
    assert m.labels == {"S1": GroupLabel.RESISTANT, "\xa0S2": GroupLabel.SENSITIVE}
    text = "id,S1,S2\n\tg1 ,1,2\n"
    assert ingest.parse_matrix(text, MatrixFormat(delimiter="comma")).feature_ids == ("g1",)


@st.composite
def _matrix_texts(draw):
    """A matrix text whose ids are drawn from a few names, some padded, so
    that ids repeat, some only once their padding is stripped; with or
    without a label row and with missing cells. Returns the text, its
    format, the stripped sample and feature ids and whether it has labels."""
    delimiter = draw(st.sampled_from(["tab", "comma"]))
    fmt = MatrixFormat(delimiter=delimiter, missing_token=draw(st.sampled_from(["NA", "", "-999"])))
    pad = st.sampled_from(["", " ", "  "] + (["\t"] if delimiter == "comma" else []))

    def ids(prefix: str, n: int) -> tuple[list[str], list[str]]:
        names = draw(st.lists(st.sampled_from([f"{prefix}{k}" for k in range(5)]), min_size=n, max_size=n))
        return names, [draw(pad) + name + draw(pad) for name in names]

    samples, header = ids("S", draw(st.integers(1, 4)))
    features, heads = ids("g", draw(st.integers(1, 5)))
    cell = st.one_of(st.integers(-9, 9).map(str), st.sampled_from([fmt.missing_token, f" {fmt.missing_token} "]))
    row = st.lists(cell, min_size=len(samples), max_size=len(samples))
    lines = [["id", *header]]
    has_labels = draw(st.booleans())
    if has_labels:
        lines.append(["label", *draw(st.lists(st.sampled_from(["Sensitive", "R", ""]), min_size=len(samples), max_size=len(samples)))])
    lines += [[head, *draw(row)] for head in heads]
    return "".join(fmt.sep.join(cells) + "\n" for cells in lines), fmt, samples, features, has_labels


def _first_repeat(ids: list[str]):
    """(index, index of its first appearance) of the first repeated id, or None."""
    return next(((k, ids.index(name)) for k, name in enumerate(ids) if name in ids[:k]), None)


@settings(max_examples=300, deadline=None)
@given(_matrix_texts())
def test_an_accepted_matrix_has_unique_ids_and_labels_of_exactly_its_samples(case):
    # the guarantee the ``validate`` check stands on: what parses is well formed
    text, fmt, samples, features, has_labels = case
    sample_repeat, feature_repeat = _first_repeat(samples), _first_repeat(features)
    if sample_repeat is not None:
        j, first = sample_repeat
        message = f"row 1, column {j + 2}: duplicate sample id {samples[j]!r} (first in column {first + 2})"
    elif feature_repeat is not None:
        i, first = (k + 2 + has_labels for k in feature_repeat)
        message = f"row {i}: duplicate feature id {features[feature_repeat[0]]!r} (first on row {first})"
    else:
        m = ingest.parse_matrix(text, fmt)
        assert (m.feature_ids, m.sample_ids) == (tuple(features), tuple(samples))
        assert len(set(m.feature_ids)) == m.n_features and len(set(m.sample_ids)) == m.n_samples
        assert m.values.shape == (m.n_features, m.n_samples)
        assert list(m.labels) == list(m.sample_ids) if has_labels else m.labels is None
        return
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        ingest.parse_matrix(text, fmt)


# --- the one writer -----------------------------------------------------------


def test_format_rows_joins_cells_and_ends_every_row_with_lf():
    assert ingest.format_rows([("id", "a", ""), ["x", "", "1"]]) == "id,a,\nx,,1\n"
    assert ingest.format_rows([["g1", "", "", "2"]], "\t") == "g1\t\t\t2\n"  # empty missing cells
    assert ingest.format_rows([["a,b c"], ["\xa0d"]], "\n") == "a,b c\n\xa0d\n"
    assert ingest.format_rows([]) == ""


@pytest.mark.parametrize(
    "rows, sep, message",
    [
        ([["sample_id", "score"], ["A,x", "1"]], ",", "row 2, column 1: cell 'A,x' holds the delimiter ','"),
        ([["g1", "1", "2\t3"]], "\t", "row 1, column 3: cell '2\\t3' holds the delimiter '\\t'"),
        ([["a", "x\ry"]], ",", "row 1, column 2: cell 'x\\ry' holds a line break"),
        ([["P"], ["g\n1"]], "\n", "row 2, column 1: cell 'g\\n1' holds a line break"),
        ([["a", " b"]], ",", "row 1, column 2: cell ' b' has leading or trailing spaces or tabs"),
        ([["a", "1"], ["b\t", "2"]], ",", "row 2, column 1: cell 'b\\t' has leading or trailing spaces or tabs"),
        ([["P"], ["g1 "]], "\n", "row 2, column 1: cell 'g1 ' has leading or trailing spaces or tabs"),
        ([["a", "1"], ["", "2"]], ",", "row 2, column 1: cell '' is an empty id"),
        ([["a", "1"], ["", ""]], "\t", "row 2, column 1: cell '' is an empty id"),
        ([["﻿g1", "1"]], ",", "row 1, column 1: cell '\\ufeffg1' opens with a byte-order mark"),
    ],
)
def test_format_rows_refuses_a_cell_the_readers_would_not_return(rows, sep, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ingest.format_rows(rows, sep)


def test_serializers_refuse_what_their_parser_would_read_otherwise():
    m = LabeledMatrix(("label", "g2"), ("S1", "S2"), [[1.0, -999.0], [np.inf, 2.0]])
    cases = [
        (lambda: ingest.serialize_matrix(m), "row 2, column 1: feature id 'label' would read as the label row"),
        (lambda: ingest.serialize_matrix(m.with_labels({}), NO_LABELS), "row 2, column 1: the matrix has labels but"),
        (lambda: ingest.serialize_matrix(m, NO_LABELS), "row 3, column 2: value inf would not read back"),
        (
            lambda: ingest.serialize_matrix(m, MatrixFormat(has_label_row=False, missing_token="-999")),
            "row 2, column 3: value -999.0 would not read back",
        ),
        (
            lambda: ingest.serialize_matrix(LabeledMatrix(("g", "g"), ("S1",), [[1.0], [2.0]]), NO_LABELS),
            "row 3: duplicate feature id 'g' (first on row 2)",
        ),
        (
            lambda: ingest.serialize_matrix(LabeledMatrix(("g",), ("S1", ""), [[1.0, 2.0]])),
            "row 1, column 3: empty sample id",
        ),
        (lambda: ingest.serialize_matrix(LabeledMatrix(("g", "h"), ("S1",), [[1.0]])), "(1, 1) values under 2 feature"),
        (lambda: ingest.serialize_matrix(LabeledMatrix((), ("S1",), np.empty((0, 1)))), "(0, 1) values under 0 feature"),
        (
            lambda: ingest.serialize_signature(SignatureList(("g1",), (("g1", Direction.UP_IN_RESISTANT),) * 2)),
            "feature id 'g1' has more direction entries than rows",
        ),
    ]
    for write, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            write()
    # a first feature id that reads as the header gets the header written
    sig = SignatureList(("Feature_ID", "g2"), (("g2", Direction.UP_IN_SENSITIVE),))
    assert ingest.serialize_signature(sig) == "feature_id,direction\nFeature_ID\ng2,UpInSensitive\n"
    assert ingest.parse_signature(ingest.serialize_signature(sig)) == sig


# Every character the row format gives a meaning to, and ids that read as a
# header, a label row or the missing token.
_TEXT = st.text(st.sampled_from("ab,\t\r\n ﻿\xa0\x0c"), max_size=4)
_ID = st.one_of(
    _TEXT,
    st.sampled_from(["label", "Feature_ID", "sample_id", "cell_line", "-999", "NA"]),
    st.text("abc12", min_size=1, max_size=3),
)
_CELL_ERROR = re.compile(r"^row \d+(, column \d+)?: ")


@st.composite
def _matrices(draw):
    fmt = MatrixFormat(
        delimiter=draw(st.sampled_from(["tab", "comma"])),
        has_label_row=draw(st.booleans()),
        missing_token=draw(st.sampled_from(["NA", "", "-999"])),
    )
    fids = draw(st.lists(_ID, min_size=1, max_size=3))
    sids = draw(st.lists(_ID, min_size=1, max_size=3))
    cell = st.one_of(st.floats(), st.sampled_from([-999.0, -0.0]))
    values = draw(st.lists(st.lists(cell, min_size=len(sids), max_size=len(sids)), min_size=len(fids), max_size=len(fids)))
    labels = draw(st.one_of(st.none(), st.dictionaries(st.sampled_from(sids), st.sampled_from(GroupLabel))))
    return fmt, LabeledMatrix(tuple(fids), tuple(sids), np.array(values, dtype=np.float64), labels)


def _matrix_key(m: LabeledMatrix):
    """Ids, labels per sample, missing cells and the bits of the others."""
    labels = None if m.labels is None else [m.label_of(s) for s in m.sample_ids]
    missing = np.isnan(m.values)
    return m.feature_ids, m.sample_ids, labels, missing.tobytes(), np.where(missing, 0.0, m.values).tobytes()


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_matrix_round_trip_or_refusal_naming_the_cell(case):
    fmt, m = case
    try:
        text = ingest.serialize_matrix(m, fmt)
    except ValueError as exc:
        assert _CELL_ERROR.match(str(exc)), exc
        return
    assert _matrix_key(ingest.parse_matrix(text, fmt)) == _matrix_key(m)


@st.composite
def _signatures(draw):
    ids = draw(st.lists(_ID, min_size=1, max_size=4))
    dirs = draw(st.lists(st.one_of(st.none(), st.sampled_from(Direction)), min_size=len(ids), max_size=len(ids)))
    return SignatureList(tuple(ids), tuple((fid, d) for fid, d in zip(ids, dirs) if d))


_TIMESTAMPS = st.datetimes(timezones=st.just(timezone.utc)).map(lambda ts: ts.replace(microsecond=0))

#: kind -> (values, serialize, parse, the form both sides are compared in)
_ROUND_TRIPS = {
    "roster": (
        st.lists(st.builds(RosterEntry, _ID, st.sampled_from(GroupLabel), _TEXT, st.none() | _TEXT), min_size=1, max_size=4)
        .map(lambda entries: LabelRoster(tuple(entries))),
        ingest.serialize_roster,
        ingest.parse_roster,
        # an empty note is no note
        lambda r: [dataclasses.replace(e, note=e.note or None) for e in r.entries],
    ),
    "signature": (
        _signatures(),
        ingest.serialize_signature,
        ingest.parse_signature,
        # the rows of an id take its directions in order, whichever rows they came from
        lambda s: (s.feature_ids, {fid: [d for f, d in s.direction_entries if f == fid] for fid in s.feature_ids}),
    ),
    "annotation": (
        st.builds(AnnotationIndex, _ID, st.lists(_ID, min_size=1, max_size=4, unique=True).map(tuple)),
        ingest.serialize_annotation,
        ingest.parse_annotation,
        lambda a: a,
    ),
    "sensitivity": (
        st.lists(st.builds(SensitivityRecord, _ID, _TEXT, st.sampled_from(Measure), _FINITE), min_size=1, max_size=3),
        ingest.serialize_sensitivity,
        ingest.parse_sensitivity,
        lambda records: records,
    ),
    "meta": (
        st.lists(st.builds(SampleMeta, _ID.filter(bool), _TIMESTAMPS, _TEXT, _TEXT, st.booleans()), min_size=1, max_size=3),
        ingest.serialize_sample_meta,
        ingest.parse_sample_meta,
        lambda metas: metas,
    ),
}


@pytest.mark.parametrize("kind", sorted(_ROUND_TRIPS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_round_trip_or_refusal_naming_the_cell(kind, data):
    values, serialize, parse, key = _ROUND_TRIPS[kind]
    value = data.draw(values)
    try:
        text = serialize(value)
    except ValueError as exc:
        assert _CELL_ERROR.match(str(exc)), exc
        return
    assert key(parse(text)) == key(value)
