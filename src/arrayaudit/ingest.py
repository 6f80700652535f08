"""Strict delimited-text parsers for every input kind, plus serializers.

Format rules are bit-exact on purpose: the audits downstream are only as
trustworthy as the ingest layer, so anything surprising (ragged row, junk
numeric cell, unknown label token) is an error with coordinates rather
than a silent coercion. Label vocabulary normalization is driven by a
shipped data file (``data/label_synonyms.json``) so new source
vocabularies can be added without code changes.

Parsing is locale-independent: decimal point only, no thousands
separators. Timestamps are ISO-8601; a missing timezone means UTC.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from importlib import resources
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
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


class ParseError(ValueError):
    """Malformed input; message carries 1-based row/column coordinates."""


def _load_synonyms() -> dict[str, GroupLabel]:
    raw = json.loads(
        resources.files("arrayaudit").joinpath("data/label_synonyms.json").read_text("utf-8")
    )
    table: dict[str, GroupLabel] = {}
    for canonical, variants in raw.items():
        lab = GroupLabel(canonical)
        for v in variants:
            table[v.lower()] = lab
    return table


_SYNONYMS = _load_synonyms()

_DIRECTION_TOKENS = {
    "upinresistant": Direction.UP_IN_RESISTANT,
    "up_in_resistant": Direction.UP_IN_RESISTANT,
    "upinsensitive": Direction.UP_IN_SENSITIVE,
    "up_in_sensitive": Direction.UP_IN_SENSITIVE,
}

_MEASURES = {m.value: m for m in Measure}


def normalize_label(token: str) -> GroupLabel:
    """Map a source vocabulary token (NR, Resp, RES, SEN, ...) to a label."""
    key = token.strip().lower()
    if key in _SYNONYMS:
        return _SYNONYMS[key]
    raise ParseError(f"unknown group label token {token!r}")


#: The padding a cell loses on reading, and a blank line holds only.
_PADDING = " \t"


def _unreadable(cell: str, sep: str) -> Optional[str]:
    """Why the readers cannot return ``cell`` unchanged from a row split on
    ``sep``, or None: it holds CR or LF, holds ``sep``, or has leading or
    trailing spaces or tabs."""
    if "\r" in cell or "\n" in cell:
        return "holds a line break"
    if sep in cell:
        return f"holds the delimiter {sep!r}"
    if cell != cell.strip(_PADDING):
        return "has leading or trailing spaces or tabs"
    return None


@dataclass(frozen=True)
class MatrixFormat:
    delimiter: str = "tab"
    has_label_row: bool = True
    label_row_key: str = "label"
    missing_token: str = "NA"

    def __post_init__(self) -> None:
        for f in fields(self):
            if not isinstance(getattr(self, f.name), type(f.default)):
                raise ValueError(f"{f.name} must be a {type(f.default).__name__}, got {getattr(self, f.name)!r}")
        if self.delimiter not in ("tab", "comma"):
            raise ValueError(f"delimiter must be tab|comma, got {self.delimiter!r}")
        for name, token in (("label_row_key", self.label_row_key), ("missing_token", self.missing_token)):
            fault = _unreadable(token, self.sep)  # a token is compared with a read cell
            if fault:
                raise ValueError(f"{name} {token!r} can equal no cell: it {fault}")

    @property
    def sep(self) -> str:
        return "\t" if self.delimiter == "tab" else ","


def _split_lines(text: str) -> list[str]:
    # LF or CRLF; a leading byte-order mark is not part of the first cell,
    # and a single trailing newline does not create an empty row
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _nonblank_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines as ``(line number, line)``; blank lines count."""
    return [(lineno, line) for lineno, line in enumerate(_split_lines(text), start=1) if line.strip(_PADDING)]


def _first_rows(ids: Iterable[tuple[int, str]], id_name: str) -> dict[str, int]:
    """The row of each id's first appearance; a repeated id raises
    ParseError naming both rows."""
    first_row: dict[str, int] = {}
    for lineno, key in ids:
        if key in first_row:
            raise ParseError(f"row {lineno}: duplicate {id_name} {key!r} (first on row {first_row[key]})")
        first_row[key] = lineno
    return first_row


def read_csv_rows(
    text: str, width: int, most: Optional[int], header_keys: tuple[str, ...] = (), unique: bool = False
) -> list[tuple[int, list[str]]]:
    """Comma-separated rows as ``(line number, cells)``, each cell stripped
    of the padding the number rule allows (spaces and tabs).

    Blank lines are skipped, and so is the first row when its first cell,
    lowercased, is one of ``header_keys``. A row of fewer than ``width`` or
    more than ``most`` cells (None: no upper bound), or with an empty first
    cell, the row's id (named after the first header key), raises
    ParseError naming its line; with ``unique``, so does a repeated id,
    naming both rows. Rows are returned whole.
    """
    rows = [(lineno, [c.strip(_PADDING) for c in line.split(",")]) for lineno, line in _nonblank_lines(text)]
    if rows and rows[0][1][0].lower() in header_keys:
        rows = rows[1:]
    expected = f"{width}" if most == width else f"at least {width}" if most is None else f"{width} to {most}"
    id_name = header_keys[0].replace("_", " ") if header_keys else "id"
    for lineno, cells in rows:
        if len(cells) < width or (most is not None and len(cells) > most):
            raise ParseError(f"row {lineno}: expected {expected} cells, got {len(cells)}")
        if not cells[0]:
            raise ParseError(f"row {lineno}: empty {id_name}")
    if unique:
        _first_rows(((lineno, cells[0]) for lineno, cells in rows), id_name)
    return rows


def format_rows(rows: Iterable[Sequence[str]], sep: str = ",") -> str:
    """The one writer of delimited rows and the exact inverse of the
    readers: cells joined by ``sep``, each row ended by LF, no quoting. A
    cell the readers would not return unchanged raises ValueError naming
    its 1-based row and column: one holding ``sep``, CR or LF, one with
    leading or trailing spaces or tabs, an empty first cell (the row's id)
    and a byte-order mark opening the first row."""
    lines = []
    for i, cells in enumerate(rows, start=1):
        for j, cell in enumerate(cells, start=1):
            fault = _unreadable(cell, sep)
            if fault is None and j == 1 and not cell:
                fault = "is an empty id"
            elif fault is None and i == j == 1 and cell[:1] == "\ufeff":
                fault = "opens with a byte-order mark"
            if fault:
                raise ValueError(f"row {i}, column {j}: cell {cell!r} {fault}")
        lines.append(sep.join(cells) + "\n")
    return "".join(lines)


@contextmanager
def row_context(lineno: int) -> Iterator[None]:
    """Name the row of any error raised while its cells become values: a
    ValueError inside the block is raised again as "row N: <message>"."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"row {lineno}: {exc}") from None


#: Any character outside an ASCII decimal number, its space/tab padding and
#: the delimiters, so one search covers a whole row (float() rejects a comma).
_NOT_NUMERIC = re.compile(r"[^0-9+\-.eE \t,]")


def parse_number(token: str) -> Optional[float]:
    """The one number rule for numeric cells: an ASCII decimal number,
    optionally padded with spaces or tabs (``1``, `` -2.5 ``, ``.5``,
    ``5.``, ``+1E-3``), that a float can hold; None for anything else. The
    character whitelist rules out what ``float()`` accepts beyond that
    (``inf``, ``nan``, ``1_000``, non-ASCII digits, other whitespace), and
    the finiteness check a decimal that overflows (``1e999``)."""
    if _NOT_NUMERIC.search(token):
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def number_cell(token: str, row: int, column: int) -> float:
    """``parse_number`` for the cell at 1-based (row, column); a ParseError
    naming the cell when the token is not a number."""
    value = parse_number(token)
    if value is None:
        raise ParseError(f"row {row}, column {column}: unparseable numeric cell {token!r}")
    return value


def parse_table(text: str) -> tuple[list[str], list[tuple[str, list[float]]]]:
    """A comma-separated table under a required header row: an id column,
    then numeric columns whose cells follow ``parse_number``. Returns the
    numeric column names and ``(id, values)`` per row."""
    lines = _nonblank_lines(text)
    if not lines:
        raise ParseError("empty table file")
    width = lines[0][1].count(",") + 1
    (_, header), *rows = read_csv_rows(text, width, width)
    return header[1:], [
        (cells[0], [number_cell(tok, row, j) for j, tok in enumerate(cells[1:], start=2)]) for row, cells in rows
    ]


def _first_bad_cell(lines: list[str], rows: range, sep: str, missing: str) -> None:
    """The error locator of ``parse_matrix``: raise ParseError for the first
    cell, in reading order, of the rows ``lines[i]`` (``i`` in ``rows``)
    that is neither the missing token nor a number by ``number_cell``."""
    for i in rows:
        for j, tok in enumerate(lines[i].split(sep)[1:], start=2):
            if tok.strip(_PADDING) != missing:
                number_cell(tok, i + 1, j)


def _convert_body(lines: list[str], start: int, body: list[str], ncol: int, sep: str, missing: str) -> np.ndarray:
    """The values of the body rows ``lines[start:start + len(body)]``.
    ``body`` holds their numeric text, in reading order, with each missing
    cell written ``nan``; one C call converts it, parsing each cell with the
    routine ``float()`` uses. The first cell in reading order that is not a
    finite number raises ParseError, found by the error locator."""
    try:
        values = (
            np.loadtxt(body, delimiter=sep, dtype=np.float64, comments=None, quotechar=None, ndmin=2)
            if body
            else np.empty((0, ncol))
        )
        if values.shape != (len(body), ncol):  # the reader skips a line it takes for empty
            raise ValueError(f"{values.shape} values from {len(body)} rows of {ncol} cells")
    except ValueError:
        _first_bad_cell(lines, range(start, start + len(body)), sep, missing)
        raise
    # a decimal that overflows (1e999) converts to infinity
    overflow = np.isinf(values).any(axis=1)
    if overflow.any():
        i = start + int(overflow.argmax())
        _first_bad_cell(lines, range(i, i + 1), sep, missing)
    return values


def _check_sample_ids(sample_ids: Sequence[str]) -> None:
    """The header rule of a matrix: at least one sample id, none empty or
    repeated; a ParseError names the column of the first bad one."""
    if not sample_ids:
        raise ParseError("header row declares no sample ids")
    first_column: dict[str, int] = {}
    for j, sid in enumerate(sample_ids, start=2):
        if not sid:
            raise ParseError(f"row 1, column {j}: empty sample id")
        if sid in first_column:
            raise ParseError(f"row 1, column {j}: duplicate sample id {sid!r} (first in column {first_column[sid]})")
        first_column[sid] = j


def parse_matrix(text: str, fmt: MatrixFormat = MatrixFormat()) -> LabeledMatrix:
    """Parse a delimited expression matrix.

    Layout: header row (corner cell then sample ids), an optional group
    label row whose first cell equals ``fmt.label_row_key``, then one row
    per feature (feature id followed by numeric cells). Label tokens are
    normalized through the synonym table; an empty token means Unknown.

    Each feature row is checked in reading order: a non-empty id, the
    header's width, an id not seen before, then one whitelist search over
    its cells. A row that fails the search, or may hold the missing token,
    is split into cells: a cell that is the missing token once stripped of
    spaces and tabs is written ``nan``, and every other cell must pass the
    whitelist. The text of every row then goes to one C call,
    ``np.loadtxt``, so every value equals ``float()`` of its cell and every
    missing cell is NaN. When a row check fails, the C call raises or a
    value overflows, ``number_cell`` locates the error, so the ParseError
    names the first fault in reading order.
    """
    lines = _split_lines(text)
    if not lines:
        raise ParseError("empty matrix file")
    sep = fmt.sep
    sample_ids = [c.strip(_PADDING) for c in lines[0].split(sep)[1:]]
    _check_sample_ids(sample_ids)
    ncol = len(sample_ids)

    body_start = 1
    labels: Optional[dict[str, GroupLabel]] = None
    if fmt.has_label_row and len(lines) > 1:
        cells = lines[1].split(sep)
        if cells[0].strip(_PADDING) == fmt.label_row_key:
            if len(cells) - 1 != ncol:
                raise ParseError(
                    f"row 2: label row has {len(cells) - 1} cells, expected {ncol}"
                )
            labels = {}
            for j, (sid, tok) in enumerate(zip(sample_ids, cells[1:]), start=2):
                try:
                    labels[sid] = normalize_label(tok)
                except ParseError as exc:
                    raise ParseError(f"row 2, column {j}: {exc}") from None
            body_start = 2

    first_row: dict[str, int] = {}  # feature id -> its row, in row order
    body: list[str] = []  # numeric text of each row, missing cells as nan
    missing = fmt.missing_token
    # a whitelist-clean token ("", "-999") could pass as a number: look for it
    find_missing = not _NOT_NUMERIC.search(missing)
    try:
        for i, line in enumerate(lines[body_start:]):
            lineno = body_start + 1 + i
            head, _, rest = line.partition(sep)
            fid = head.strip(_PADDING)
            if not fid:
                raise ParseError(f"row {lineno}: empty feature id")
            n_cells = line.count(sep)
            if n_cells != ncol:
                raise ParseError(f"row {lineno}: ragged row ({n_cells} cells, expected {ncol})")
            if fid in first_row:
                raise ParseError(f"row {lineno}: duplicate feature id {fid!r} (first on row {first_row[fid]})")
            first_row[fid] = lineno
            # one whitelist search per row; the C reader would skip an empty one
            if rest and not (_NOT_NUMERIC.search(rest) or (find_missing and missing in rest)):
                body.append(rest)
                continue
            cells = rest.split(sep)
            marked = ["nan" if c.strip(_PADDING) == missing else c for c in cells]
            # the C reader reads nan and inf, so the cells left unmarked (the same
            # objects) must pass the whitelist; it would skip an empty row
            if not rest or _NOT_NUMERIC.search(sep.join([c for c, k in zip(cells, marked) if c is k])):
                _first_bad_cell(lines, range(lineno - 1, lineno), sep, missing)
            body.append(sep.join(marked))
    except ParseError:
        _convert_body(lines, body_start, body, ncol, sep, missing)  # a fault in an earlier row comes first
        raise
    if not first_row:
        raise ParseError("matrix has no feature rows")
    values = _convert_body(lines, body_start, body, ncol, sep, missing)
    return LabeledMatrix(tuple(first_row), tuple(sample_ids), values, labels)


def serialize_matrix(m: LabeledMatrix, fmt: MatrixFormat = MatrixFormat()) -> str:
    """Inverse of parse_matrix up to canonicalization (canonical label
    tokens, numbers at 17 significant digits). A matrix that would read
    back otherwise raises ValueError naming the cell: besides the cells
    ``format_rows`` refuses, an empty or repeated id, a label row the
    format has no place for or a feature row that would read as one, and a
    value that is infinite or prints as the missing token. So does a
    matrix without feature rows or whose values do not fit its ids."""
    if not m.n_features or m.values.shape != (m.n_features, m.n_samples):
        raise ValueError(f"{m.values.shape} values under {m.n_features} feature and {m.n_samples} sample ids")
    _check_sample_ids(m.sample_ids)
    if m.labels is not None and not fmt.has_label_row:
        raise ValueError("row 2, column 1: the matrix has labels but the format has no label row")
    if m.labels is None and fmt.has_label_row and m.feature_ids[:1] == (fmt.label_row_key,):
        raise ValueError(f"row 2, column 1: feature id {fmt.label_row_key!r} would read as the label row")
    labels = [] if m.labels is None else [[fmt.label_row_key, *(m.label_of(s).value for s in m.sample_ids)]]
    first = 2 + len(labels)
    _first_rows(enumerate(m.feature_ids, start=first), "feature id")
    bad = np.isinf(m.values)
    clash = parse_number(fmt.missing_token)
    if clash is not None and format(clash, ".17g") == fmt.missing_token:  # that number would read back as missing
        bad |= (m.values == clash) & (np.signbit(m.values) == np.signbit(clash))
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise ValueError(f"row {first + i}, column {j + 2}: value {float(m.values[i, j])!r} would not read back")
    body = (
        [fid, *(fmt.missing_token if np.isnan(v) else format(v, ".17g") for v in row)]
        for fid, row in zip(m.feature_ids, m.values)
    )
    return format_rows([["id", *m.sample_ids], *labels, *body], fmt.sep)


def parse_roster(text: str) -> LabelRoster:
    """Parse sample_id,label[,source,note] rows. Duplicate ids are kept:
    repeated and contradictory claims are exactly what gets audited."""
    entries: list[RosterEntry] = []
    for lineno, (sample_id, label, *rest) in read_csv_rows(text, 2, 4, ("sample_id",)):
        source, note = [*rest, "", ""][:2]
        with row_context(lineno):
            entries.append(RosterEntry(sample_id, normalize_label(label), source, note or None))
    if not entries:
        raise ParseError("roster file has a header but no entries" if text.strip() else "empty roster file")
    return LabelRoster(tuple(entries))


def serialize_roster(r: LabelRoster) -> str:
    rows = ([e.sample_id, e.label.value, e.source_id, e.note or ""] for e in r.entries)
    return format_rows([["sample_id", "label", "source", "note"], *rows])


def parse_signature(text: str) -> SignatureList:
    """Parse a reported gene list: one feature id per line, optionally
    followed by ,direction (UpInResistant / UpInSensitive)."""
    ids: list[str] = []
    dirs: list[tuple[str, Direction]] = []
    for lineno, (fid, *rest) in read_csv_rows(text, 1, 2, ("feature_id",)):
        ids.append(fid)
        token = rest[0] if rest else ""
        if token:
            if token.lower() not in _DIRECTION_TOKENS:
                raise ParseError(f"row {lineno}: unknown direction token {token!r}")
            dirs.append((fid, _DIRECTION_TOKENS[token.lower()]))
    if not ids:
        raise ParseError("signature file has a header but no entries" if text.strip() else "empty signature file")
    return SignatureList(tuple(ids), tuple(dirs))


def serialize_signature(sig: SignatureList) -> str:
    """One row per feature id, its direction entries given to its
    occurrences in order; a header only when the first id would read as
    one. An id with more direction entries than rows raises ValueError."""
    pending: dict[str, list[Direction]] = {}
    for fid, d in reversed(sig.direction_entries):
        pending.setdefault(fid, []).append(d)
    rows = [[fid, pending[fid].pop().value] if pending.get(fid) else [fid] for fid in sig.feature_ids]
    for fid, left in pending.items():
        if left:
            raise ValueError(f"feature id {fid!r} has more direction entries than rows")
    header = [["feature_id", "direction"]] if sig.feature_ids[0].lower() == "feature_id" else []
    return format_rows([*header, *rows])


def parse_annotation(text: str) -> AnnotationIndex:
    """Parse a platform annotation: platform id on the first line, then
    one feature id per line in platform row order. A line is one whole id,
    commas included (platform titles may hold them)."""
    lines = [(lineno, line.strip(_PADDING)) for lineno, line in _nonblank_lines(text)]
    if len(lines) < 2:
        raise ParseError("annotation needs a platform id line and at least one feature id")
    return AnnotationIndex(lines[0][1], tuple(_first_rows(lines[1:], "feature id")))


def serialize_annotation(ann: AnnotationIndex) -> str:
    # one cell per line: the delimiter rule is the line-break rule
    return format_rows([[line] for line in (ann.platform_id, *ann.feature_ids)], "\n")


def parse_sensitivity(text: str) -> list[SensitivityRecord]:
    """Parse cell_line,drug_id,measure,value potency rows."""
    records: list[SensitivityRecord] = []
    for lineno, (cell_line, drug_id, measure, value) in read_csv_rows(text, 4, 4, ("cell_line",)):
        if measure not in _MEASURES:
            raise ParseError(f"row {lineno}: unknown measure {measure!r}")
        records.append(SensitivityRecord(cell_line, drug_id, _MEASURES[measure], number_cell(value, lineno, 4)))
    if not records:
        raise ParseError("sensitivity file has a header but no rows" if text.strip() else "empty sensitivity file")
    return records


def serialize_sensitivity(records: list[SensitivityRecord]) -> str:
    rows = ([r.cell_line, r.drug_id, r.measure.value, format(r.value, ".17g")] for r in records)
    return format_rows([["cell_line", "drug_id", "measure", "value"], *rows])


def parse_timestamp(token: str) -> datetime:
    tok = token.strip()
    if tok.endswith("Z"):
        tok = tok[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(tok)
    except ValueError:
        raise ParseError(f"unparseable ISO-8601 timestamp {token!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def parse_sample_meta(text: str) -> list[SampleMeta]:
    """Parse sample_id,run_timestamp,scanner_id,treatment_arm,included rows."""
    metas: list[SampleMeta] = []
    for lineno, (sample_id, stamp, scanner_id, arm, included) in read_csv_rows(text, 5, 5, ("sample_id",)):
        with row_context(lineno):
            ts = parse_timestamp(stamp)
            if included not in ("0", "1"):
                raise ParseError(f"included must be 0 or 1, got {included!r}")
            metas.append(SampleMeta(sample_id, ts, scanner_id, arm, included == "1"))
    if not metas:
        raise ParseError("metadata file has a header but no rows" if text.strip() else "empty sample metadata file")
    return metas


def serialize_sample_meta(metas: list[SampleMeta]) -> str:
    # isoformat pads the year to four digits, as fromisoformat needs
    stamps = (m.run_timestamp.astimezone(timezone.utc).replace(microsecond=0).isoformat() for m in metas)
    rows = ([m.sample_id, ts, m.scanner_id, m.treatment_arm, str(int(m.included))] for m, ts in zip(metas, stamps))
    return format_rows([["sample_id", "run_timestamp", "scanner_id", "treatment_arm", "included"], *rows])
