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
from itertools import chain
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
    key = token.strip(_PADDING).lower()
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


#: The text budget of one chunk: lines are split, and matrix rows checked
#: and converted, about this many characters at a time.
_CHUNK_CHARS = 1 << 16


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, split a chunk of about ``_CHUNK_CHARS``
    characters at a time, so no list of all of them is built. LF or CRLF
    ends a line; a leading byte-order mark is not part of the first cell,
    and a single trailing newline does not create an empty row."""
    pos = 1 if text.startswith("\ufeff") else 0
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK_CHARS)  # a chunk ends after a LF, so no CRLF is cut
        end = len(text) if end < 0 else end + 1
        chunk = text[pos:end]
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n")
        yield from chunk.removesuffix("\n").split("\n")
        pos = end


def _nonblank_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines as ``(line number, line)``; blank lines count."""
    return [(lineno, line) for lineno, line in enumerate(_lines(text), start=1) if line.strip(_PADDING)]


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


#: The characters of an ASCII decimal number, its space/tab padding and the
#: delimiters, so one check covers many cells (float() rejects a comma).
_NUMERIC_CHARS = "0123456789+-.eE \t,"
_NOT_NUMERIC = re.compile(f"[^{re.escape(_NUMERIC_CHARS)}]")
_NUMERIC_BYTES = (_NUMERIC_CHARS + "\n").encode()  # LF joins the rows of a chunk


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
    then named numeric columns whose cells follow ``parse_number``. A
    repeated or empty column name, and a repeated id, raise ParseError
    naming both places. Returns the numeric column names and
    ``(id, values)`` per row."""
    lines = _nonblank_lines(text)
    if not lines:
        raise ParseError("empty table file")
    width = lines[0][1].count(",") + 1
    (lineno, header), *rows = read_csv_rows(text, width, width)
    _check_header(header[1:], "column name", lineno)
    _first_rows(((row, cells[0]) for row, cells in rows), "id")
    return header[1:], [
        (cells[0], [number_cell(tok, row, j) for j, tok in enumerate(cells[1:], start=2)]) for row, cells in rows
    ]


def _first_bad_cell(rests: list[str], lineno: int, sep: str, missing: str) -> None:
    """The error locator of ``parse_matrix``: raise ParseError for the first
    cell, in reading order, of the body rows ``rests`` (each row's text after
    its id, the first on line ``lineno``) that is neither the missing token
    nor a number by ``number_cell``."""
    for i, rest in enumerate(rests, start=lineno):
        for j, tok in enumerate(rest.split(sep), start=2):
            if tok.strip(_PADDING) != missing:
                number_cell(tok, i, j)


def _around_missing(body: str, sep: str, missing: str) -> list[str]:
    """The text of ``body`` around its missing cells: each cell that is
    ``missing`` once stripped of its padding is cut out with the padding.
    ``body`` holds rows of ``sep``-delimited cells, each row opened and
    closed by LF. ``str.find`` finds the token by its first character that
    no number holds (one memchr for ``NA``), or whole; a match widened over
    padding to a cell boundary on each side is a missing cell. The empty
    token's cells are found as a boundary followed by a boundary or padding.
    """
    pad = _PADDING.replace(sep, "")
    ends = sep + "\n"
    if missing:
        rare = _NOT_NUMERIC.search(missing)
        probes = [(rare.group(), rare.start())] if rare else [(missing, 0)]
    else:
        probes = [(b + c, -1) for b in ends for c in ends + pad]
    cuts = []
    for probe, at in probes:  # the probe lies at ``at`` in the token
        p = body.find(probe)
        while p >= 0:
            lo = hi = p - at
            if lo > 0 and body.startswith(missing, lo):
                hi += len(missing)
                while body[lo - 1] in pad:
                    lo -= 1
                while body[hi] in pad:
                    hi += 1
                if body[lo - 1] in ends and body[hi] in ends:
                    cuts.append((lo, hi))
            p = body.find(probe, p + 1)
    pieces, pos = [], 0
    for lo, hi in sorted(cuts):
        pieces.append(body[pos:lo])
        pos = hi
    pieces.append(body[pos:])
    return pieces


def _convert_body(rests: list[str], lineno: int, sep: str, missing: str) -> np.ndarray:
    """The values of one chunk of body rows: ``rests`` holds each row's text
    after its id, the first row on line ``lineno``. Each missing cell is
    written ``nan``, the other text must pass the whitelist in one C pass
    (``bytes.translate``), and one C call, ``np.loadtxt``, converts the
    chunk, parsing each cell with the routine ``float()`` uses. The first
    cell in reading order that is not a finite number raises ParseError,
    found by the error locator, which runs only when a check fails."""
    pieces = _around_missing("\n".join(["", *rests, ""]), sep, missing)
    numeric = "".join(pieces)
    try:
        if not numeric.isascii() or numeric.encode().translate(None, _NUMERIC_BYTES):
            raise ValueError("a cell holds a character outside the number grammar")
        # the C reader reads nan and inf, so only the missing cells may hold them
        body = "nan".join(pieces)
        if "\n\n" in body:  # the C reader would skip an empty row
            raise ValueError("an empty row")
        values = np.loadtxt(body.split("\n")[1:-1], delimiter=sep, dtype=np.float64, comments=None, quotechar=None, ndmin=2)
    except ValueError:
        _first_bad_cell(rests, lineno, sep, missing)
        raise
    # a decimal that overflows (1e999) converts to infinity
    overflow = np.isinf(values).any(axis=1)
    if overflow.any():
        i = int(overflow.argmax())
        _first_bad_cell(rests[i : i + 1], lineno + i, sep, missing)
    return values


def _check_header(names: Sequence[str], what: str, row: int = 1) -> None:
    """The header rule of a matrix's sample ids and a table's numeric
    columns, the header's cells from column 2 on: none empty or repeated; a
    ParseError names the column of the first bad one."""
    first_column: dict[str, int] = {}
    for j, name in enumerate(names, start=2):
        if not name:
            raise ParseError(f"row {row}, column {j}: empty {what}")
        if name in first_column:
            raise ParseError(f"row {row}, column {j}: duplicate {what} {name!r} (first in column {first_column[name]})")
        first_column[name] = j


def parse_matrix(text: str, fmt: MatrixFormat = MatrixFormat()) -> LabeledMatrix:
    """Parse a delimited expression matrix.

    Layout: header row (corner cell then sample ids), an optional group
    label row whose first cell equals ``fmt.label_row_key``, then one row
    per feature (feature id followed by numeric cells). Label tokens are
    normalized through the synonym table; an empty token means Unknown.

    The body is read in chunks of about ``_CHUNK_CHARS`` characters. Each
    feature row is checked in reading order: a non-empty id, the header's
    width, an id not seen before. Then each chunk is converted at once: a
    cell that is the missing token once stripped of spaces and tabs is
    written ``nan``, the other cells must pass the whitelist in one C pass,
    and one C call, ``np.loadtxt``, converts the chunk into its rows of a
    preallocated array, so every value equals ``float()`` of its cell and
    every missing cell is NaN. Only when a check fails, the C call raises
    or a value overflows does ``number_cell`` walk the chunk's cells, so the
    ParseError names the first fault in reading order.
    """
    lines = _lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty matrix file")
    sep = fmt.sep
    sample_ids = [c.strip(_PADDING) for c in header.split(sep)[1:]]
    if not sample_ids:
        raise ParseError("header row declares no sample ids")
    _check_header(sample_ids, "sample id")
    ncol = len(sample_ids)

    body_start = 1
    labels: Optional[dict[str, GroupLabel]] = None
    second = next(lines, None)
    if fmt.has_label_row and second is not None and second.partition(sep)[0].strip(_PADDING) == fmt.label_row_key:
        cells = second.split(sep)
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
    elif second is not None:
        lines = chain([second], lines)

    n_lines = text.count("\n") + (not text.endswith("\n"))
    values = np.empty((n_lines - body_start, ncol))
    first_row: dict[str, int] = {}  # feature id -> its row, in row order
    rests: list[str] = []  # the text after the id of each row not yet converted
    size = 0

    def convert() -> None:
        done = len(first_row)
        values[done - len(rests) : done] = _convert_body(rests, body_start + 1 + done - len(rests), sep, fmt.missing_token)

    for lineno, line in enumerate(lines, start=body_start + 1):
        head, _, rest = line.partition(sep)
        fid = head.strip(_PADDING)
        n_cells = line.count(sep)
        if not fid:
            fault = "empty feature id"
        elif n_cells != ncol:
            fault = f"ragged row ({n_cells} cells, expected {ncol})"
        elif fid in first_row:
            fault = f"duplicate feature id {fid!r} (first on row {first_row[fid]})"
        else:
            first_row[fid] = lineno
            rests.append(rest)
            size += len(rest)
            if size >= _CHUNK_CHARS:
                convert()
                rests, size = [], 0
            continue
        if rests:
            convert()  # a fault in an earlier row comes first
        raise ParseError(f"row {lineno}: {fault}")
    if not first_row:
        raise ParseError("matrix has no feature rows")
    if rests:
        convert()
    values.setflags(write=False)  # the matrix takes it over without a copy
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
    if not m.sample_ids:
        raise ParseError("header row declares no sample ids")
    _check_header(m.sample_ids, "sample id")
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
    tok = token.strip(_PADDING)
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
