"""Diary parsing and work-location classification.

Diary files are UTF-8 CSV with exactly this header::

    participant_id,date,location,travel_min,work_min,chores_min,leisure_min,
    walk_min,bike_min,car_min,pt_min,other_mode_min

(one physical line; wrapped here for readability). Dates are YYYY-MM-DD,
minute fields are non-negative decimals, and the location vocabulary is
``office | coworking | home | other | multiple``. Unknown location strings
fall back to ``other_location``: a parse logs one warning that gives the
number of such rows that enter the table and the first five row numbers.

:func:`parse_diary_file` (any binary or text stream, read once and never
seeked) and :func:`parse_diary_path` share one reader, which reads a range
of lines :data:`CHUNK_ROWS` lines at a time (see :func:`_read_range`) into a
part, then merges the parts (:func:`_merge`). ``np.loadtxt`` codes dates and
locations through memos of their texts, so Python code runs once per
distinct text; ids stay text. A quoted record that spans lines is read
whole, its pass pulling more lines until the quote closes. Row numbers are
line numbers; a record that spans lines has the number of its last line. A
record that does not parse, whose date is not a date or whose minutes break
a day's limits is a ``PARSE_ERROR``; a later row with the participant and
date of a kept row is a ``DUPLICATE_DAY``. A byte order mark before the
header is skipped. Only a missing or wrong header, or a byte that is not
UTF-8, aborts a parse, with :class:`DiaryFormatError`.

A file of at least :data:`SPLIT_MIN_BYTES` is read as two ranges, cut just
after the first ``\n`` from its middle: a forked child reads the second
while the parent reads the first (see :mod:`.split_read`). The parent forks
only where that is safe: on a host that lets it run on two CPUs or more,
and from a process with one thread. A process in which numpy has started
BLAS threads gets the one-process read, so the CLI sets
``OPENBLAS_NUM_THREADS=1`` before it imports this module, and a library
caller who wants the two-process read does the same. A stream or a smaller
file is one range. Either way the table, the rejections and the warning are
the same.

A parse gives a :class:`DiaryTable`: int32 participant and date codes into
tuples of the distinct ids and dates, int64 source rows, int8 day-type
codes and an ``(n, 9)`` float64 matrix of the minute columns. The table is a
sequence of :class:`DiaryDay`, so code written for lists of days keeps
working, while the quality filter (:mod:`.quality`) and the aggregation
work on its arrays. The rejections are a :class:`RejectionTable`, a sequence
of :class:`RejectedDay` held as columns; the read collects them as records.

Importing this module imports numpy. The package root, the CLI,
:mod:`.aggregation` and :mod:`.report` import it inside the functions that
need it, so only the commands that read diaries load it, :mod:`.quality`
and numpy: ``validate``, ``profile``, ``delta``, and ``sweep``/``breakeven``
with ``--diaries``.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import logging
import numbers
import os
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import contains
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DiaryFormatError
from .model import (
    COUNT,
    DAY_TYPES,
    MINUTE,
    Activity,
    DayType,
    DiaryDay,
    TransportMode,
    checked,
)

logger = logging.getLogger(__name__)

DIARY_HEADER = tuple(
    "participant_id,date,location,travel_min,work_min,chores_min,leisure_min,"
    "walk_min,bike_min,car_min,pt_min,other_mode_min".split(",")
)

LOCATION_VOCABULARY = {
    "office": DayType.EMPLOYER_OFFICE,
    "coworking": DayType.COWORKING,
    "home": DayType.HOME,
    "other": DayType.OTHER_LOCATION,
    "multiple": DayType.MULTI_LOCATION,
}

#: Minute columns of the CSV, in the column order of ``DiaryTable.minutes``:
#: the activities in :class:`Activity` order, then the modes in
#: :class:`TransportMode` order.
MINUTE_COLUMNS = DIARY_HEADER[3:]
_ACTIVITIES = tuple(Activity)
_MODES = tuple(TransportMode)

_DAY_TYPE_CODE = {day_type: code for code, day_type in enumerate(DAY_TYPES)}
_LOCATION_CODE = {raw: _DAY_TYPE_CODE[day_type] for raw, day_type in LOCATION_VOCABULARY.items()}
_OTHER_CODE = _DAY_TYPE_CODE[DayType.OTHER_LOCATION]
#: The one date form; ``date.fromisoformat`` alone takes more from Python 3.11 on.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
#: Row numbers the folded unknown-location warning lists.
_WARNED_ROWS = 5

#: ``DiaryTable.source_rows`` entry of a day that has no source row.
NO_ROW = -1

#: Lines per pass of the read; bounds the memory one pass holds beyond the
#: growing columns.
CHUNK_ROWS = 4096
#: Size from which :func:`parse_diary_path` reads a file in two processes,
#: where that is safe (see :mod:`.split_read`): 1.25 MiB, about where the
#: fork's fixed cost of ~10 ms is won back on a 2-CPU host.
SPLIT_MIN_BYTES = 5 << 18
#: Record of one diary line for ``np.loadtxt``: the participant id as it
#: stands, the date code of the date text (see :class:`_DateTexts`), the day
#: type code of the location (-1 for an unknown one), then the nine minute
#: fields.
_BULK_DTYPE = [
    ("participant_id", object), ("date", "i4"), ("location", "i1"),
    ("minutes", "f8", (len(MINUTE_COLUMNS),)),
]


class RejectReason(str, Enum):
    """Why a day was excluded: the quality rules of :mod:`.quality` in the
    order they are checked, then the reasons of a read."""

    WORK_TOO_SHORT = "WORK_TOO_SHORT"
    TOTAL_TOO_SHORT = "TOTAL_TOO_SHORT"
    MODE_MISMATCH = "MODE_MISMATCH"
    EXCLUDED_LOCATION = "EXCLUDED_LOCATION"
    PARSE_ERROR = "PARSE_ERROR"
    DUPLICATE_DAY = "DUPLICATE_DAY"


@dataclass(frozen=True)
class RejectedDay:
    """A day excluded from analysis, with the first failing rule as primary
    reason and every failing rule in ``failures``."""

    reason: RejectReason
    row: int | None = None
    participant_id: str = ""
    date: str = ""
    detail: str = ""
    failures: tuple[RejectReason, ...] = ()


class DiaryTable(Sequence):
    """Diary days held as columns; a read-only sequence of :class:`DiaryDay`.

    ``participant_codes`` and ``date_codes`` hold int32 indices into the
    tuples ``distinct_ids`` and ``distinct_dates``; ``participant_ids`` and
    ``dates`` decode them into object arrays. ``source_rows`` is int64, with
    :data:`NO_ROW` for a day without one. ``day_types`` holds int8 indices
    into :data:`DAY_TYPES`, and ``minutes`` is an ``(n, 9)`` float64 matrix
    whose columns are in the order of :data:`MINUTE_COLUMNS`.

    An int index builds the :class:`DiaryDay` of that row. A slice, boolean
    mask or index array gives a sub-table that shares the distinct tuples.
    Those of a sub-table may hold values that no row has; those of a parse
    or of :meth:`from_days` hold exactly the values of its rows, in order of
    first appearance. The arrays are read-only.
    """

    __slots__ = (
        "participant_codes", "distinct_ids", "date_codes", "distinct_dates", "source_rows",
        "day_types", "minutes",
    )

    def __init__(
        self, participant_codes, distinct_ids, date_codes, distinct_dates, source_rows,
        day_types, minutes,
    ):
        self.participant_codes = np.asarray(participant_codes, dtype=np.int32)
        self.distinct_ids = tuple(distinct_ids)
        self.date_codes = np.asarray(date_codes, dtype=np.int32)
        self.distinct_dates = tuple(distinct_dates)
        self.source_rows = np.asarray(source_rows, dtype=np.int64)
        self.day_types = np.asarray(day_types, dtype=np.int8)
        self.minutes = np.asarray(minutes, dtype=np.float64).reshape(-1, len(MINUTE_COLUMNS))
        columns = (self.participant_codes, self.date_codes, self.source_rows, self.day_types)
        if {len(column) for column in columns} != {len(self.minutes)}:
            raise ValueError("diary table columns differ in length")
        for codes, values in ((columns[0], self.distinct_ids), (columns[1], self.distinct_dates)):
            if len(codes) and not 0 <= codes.min() <= codes.max() < len(values):
                raise ValueError("diary table code out of range")
        for column in (*columns, self.minutes):
            column.flags.writeable = False

    @classmethod
    def from_days(cls, days: Iterable[DiaryDay]) -> DiaryTable:
        """Table of the given days, in order; a table is returned as it is."""
        if isinstance(days, DiaryTable):
            return days
        days = list(days)
        ids: dict[str, int] = {}
        dates: dict[_dt.date, int] = {}
        minutes = array("d")
        for day in days:
            minutes.extend([day.activity(a) for a in _ACTIVITIES])
            minutes.extend([day.mode(m) for m in _MODES])
        return cls(
            [ids.setdefault(day.participant_id, len(ids)) for day in days], ids,
            [dates.setdefault(day.date, len(dates)) for day in days], dates,
            [NO_ROW if day.source_row is None else day.source_row for day in days],
            [_DAY_TYPE_CODE[day.day_type] for day in days],
            minutes,
        )

    @property
    def participant_ids(self) -> np.ndarray:
        """Participant id of each row, as an object array."""
        return _decode(self.distinct_ids, self.participant_codes)

    @property
    def dates(self) -> np.ndarray:
        """Date of each row, as an object array."""
        return _decode(self.distinct_dates, self.date_codes)

    def __len__(self) -> int:
        return len(self.day_types)

    def __getitem__(self, item):
        # numpy registers its integer scalars as numbers.Integral.
        if isinstance(item, numbers.Integral):
            i = range(len(self))[item]
            row = int(self.source_rows[i])
            return _day(
                self.distinct_ids[self.participant_codes[i]],
                self.distinct_dates[self.date_codes[i]],
                self.day_types[i],
                self.minutes[i].tolist(),
                None if row == NO_ROW else row,
            )
        # take copies the rows of a matrix several times faster than indexing
        # it by a mask or an index array.
        rows = np.arange(len(self))[item]
        return DiaryTable(
            self.participant_codes.take(rows), self.distinct_ids,
            self.date_codes.take(rows), self.distinct_dates,
            self.source_rows.take(rows), self.day_types.take(rows), self.minutes.take(rows, axis=0),
        )

    def __repr__(self) -> str:
        return f"DiaryTable({len(self)} days)"


def _decode(values: Sequence, codes: np.ndarray) -> np.ndarray:
    """``values`` at ``codes``, as an object array. Fewer codes than a
    quarter of the values are looked up one by one, so that a sub-table
    decodes in time that follows its size; more index an array of all the
    values, which is then the cheaper way."""
    if 4 * len(codes) < len(values):
        return np.fromiter(map(values.__getitem__, codes.tolist()), object, len(codes))
    return np.array(values, dtype=object)[codes]


def _day(participant_id: str, date: _dt.date, code: int, values: list[float], row) -> DiaryDay:
    """The :class:`DiaryDay` of one row of the columns."""
    return DiaryDay(
        participant_id=participant_id,
        date=date,
        day_type=DAY_TYPES[code],
        activity_minutes=dict(zip(_ACTIVITIES, values)),
        mode_minutes=dict(zip(_MODES, values[len(_ACTIVITIES):])),
        source_row=row,
    )


#: Reasons in code order; ``RejectionTable.reasons`` holds indices into it.
REASONS = tuple(RejectReason)


class RejectionTable(Sequence):
    """Rejections held as columns; a read-only sequence of :class:`RejectedDay`.

    ``rows`` is int64 (:data:`NO_ROW` for ``None``), ``reasons`` int8 indices
    into :data:`REASONS`; the other fields are object arrays, but a quality
    rule's detail is its template's ``format``, which an int index calls
    with that row of ``measures`` (work, total and mismatch minutes). An int
    index builds a :class:`RejectedDay`; a slice, boolean mask or index
    array gives a sub-table. The arrays are read-only.
    """

    __slots__ = ("rows", "participant_ids", "dates", "details", "reasons", "failures", "measures")

    def __init__(self, rows, participant_ids, dates, details, reasons, failures, measures=None):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.participant_ids, self.dates, self.details, self.failures = (
            c if isinstance(c, np.ndarray) else np.fromiter(c, object, len(c))
            for c in (participant_ids, dates, details, failures)
        )
        self.reasons = np.asarray(reasons, dtype=np.int8)
        measures = np.zeros((len(self.rows), 3)) if measures is None else measures
        self.measures = np.asarray(measures, dtype=np.float64).reshape(-1, 3)
        if len(set(map(len, self._columns()))) != 1:
            raise ValueError("rejection table columns differ in length")
        for column in self._columns():
            column.flags.writeable = False

    @classmethod
    def from_rejected(cls, rejected: Iterable[RejectedDay]) -> RejectionTable:
        """Table of the given rejections, in order; a table is returned as it
        is. A row must be ``None`` or a line number, a :data:`.model.COUNT`."""
        if isinstance(rejected, RejectionTable):
            return rejected
        rejected = list(rejected)
        fields = ("participant_id", "date", "detail", "failures")
        ids, dates, details, failures = ([getattr(r, f) for r in rejected] for f in fields)
        return cls(
            [NO_ROW if r.row is None else checked("row", r.row, COUNT) for r in rejected],
            ids, dates, details, [REASONS.index(RejectReason(r.reason)) for r in rejected], failures,
        )

    def _columns(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, item):
        if isinstance(item, numbers.Integral):
            i = range(len(self))[item]
            row, detail = int(self.rows[i]), self.details[i]
            if callable(detail):
                detail = detail(*self.measures[i].tolist())
            return RejectedDay(
                REASONS[self.reasons[i]], None if row == NO_ROW else row,
                self.participant_ids[i], self.dates[i], detail, self.failures[i],
            )
        return RejectionTable(*(column[item] for column in self._columns()))


def in_row_order(*tables: RejectionTable) -> RejectionTable:
    """The rejections of ``tables`` joined and stably sorted by row; a lone
    table in row order is returned as it is. Each table's part of a column
    is copied once, straight to its places, since an object column costs a
    visit to every object it holds."""
    rows = np.concatenate([table.rows for table in tables])
    if len(tables) == 1 and not (rows[1:] < rows[:-1]).any():
        return tables[0]
    order = np.argsort(rows, kind="stable")
    places = np.empty_like(order)
    places[order] = np.arange(len(order))
    places = np.split(places, np.cumsum([len(table) for table in tables])[:-1])
    columns = []
    for parts in zip(*(table._columns() for table in tables)):
        column = np.empty((len(order), *parts[0].shape[1:]), parts[0].dtype)
        for part, at in zip(parts, places):
            column[at] = part
        columns.append(column)
    return RejectionTable(*columns)


def _read_rejections(rows, participant_ids, dates, details, reason) -> RejectionTable:
    """Table of rejections of the read, all for ``reason``."""
    codes, failures = [REASONS.index(reason)] * len(rows), [(reason,)] * len(rows)
    return RejectionTable(rows, participant_ids, dates, details, codes, failures)


def identities(table: DiaryTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source rows, participant ids and ISO dates of the days of ``table``:
    the first three columns of a :class:`RejectionTable` of them."""
    dates = [date.isoformat() for date in table.distinct_dates]
    return table.source_rows, table.participant_ids, _decode(dates, table.date_codes)


def row_sums(block: np.ndarray) -> np.ndarray:
    """Row totals summed left to right in column order, starting from 0.0,
    as :class:`DiaryDay` sums its minute maps."""
    total = np.zeros(len(block))
    for j in range(block.shape[1]):
        total += block[:, j]
    return total


class _LocationCodes(dict):
    """Location texts as they stand -> day type codes, -1 for a text outside
    the vocabulary. ``np.loadtxt`` takes ``__getitem__`` as a converter, so
    only a text not seen before runs Python code."""

    def __missing__(self, text):
        code = self[text] = _LOCATION_CODE.get(text.strip(), -1)
        return code


class _DateTexts(dict):
    """Date texts as they stand -> date codes, a converter like
    :class:`_LocationCodes`: the position of the date in ``dates``, in order
    of first appearance, or ``~k`` for the k-th text that is not a date,
    whose stripped text and error ``refused[k]`` holds. A stripped date text
    is its date's ``isoformat()``."""

    def __init__(self):
        super().__init__()
        self.dates: list[_dt.date] = []
        self.codes: dict[_dt.date, int] = {}
        self.refused: list[tuple[str, str]] = []

    def __missing__(self, text):
        stripped = text.strip()
        try:
            if not _ISO_DATE.fullmatch(stripped):
                raise ValueError(f"Invalid isoformat string: {stripped!r}")
            date = _dt.date.fromisoformat(stripped)
        except ValueError as exc:
            code = ~len(self.refused)
            self.refused.append((stripped, str(exc)))
        else:
            code = self.codes.setdefault(date, len(self.dates))
            if code == len(self.dates):
                self.dates.append(date)
        self[text] = code
        return code


def _id_serials(distinct: dict[str, int], texts: list[str], serials: Iterator[int]) -> np.ndarray:
    """int32 serial numbers of the stripped ``texts``: ``distinct`` maps
    each id to the number its first row drew from ``serials``. One dict call
    per text and no Python code, as most ids of a file may be new;
    :func:`_positions` turns the numbers into codes."""
    keys = map(str.strip, texts)
    return np.fromiter(map(distinct.setdefault, keys, serials), dtype=np.int32, count=len(texts))


def _positions(distinct: dict[str, int], serials: np.ndarray) -> None:
    """Replace the serial numbers in place by the positions of their ids in
    ``distinct``, that is in order of first appearance."""
    firsts = np.fromiter(distinct.values(), dtype=np.int32, count=len(distinct))
    position = np.zeros(firsts.max(initial=-1) + 1, dtype=np.int32)
    position[firsts] = np.arange(len(firsts), dtype=np.int32)
    serials[:] = position[serials]


def _parse_record(values: list[str], row: int, dates: _DateTexts) -> list[float] | tuple:
    """Minutes of one non-empty CSV record, or its PARSE_ERROR record;
    the fields are checked in order: their count, the date, the minutes."""
    try:
        if len(values) != len(DIARY_HEADER):
            raise ValueError(f"expected {len(DIARY_HEADER)} fields, got {len(values)}")
        if (code := dates[values[1]]) < 0:
            raise ValueError(dates.refused[~code][1])
        return list(map(float, values[3:]))
    except ValueError as exc:
        return row, values[0].strip(), values[1].strip() if len(values) > 1 else "", str(exc)


def _minute_screen(block: np.ndarray) -> np.ndarray:
    """Mask of the rows of a minute matrix with a value outside
    :data:`.model.MINUTE` or an activity or mode total over a day: the rows
    a :class:`DiaryDay` may refuse."""
    suspect = ((block < MINUTE.low) | (block > MINUTE.high)).any(axis=1)
    suspect |= row_sums(block[:, :len(_ACTIVITIES)]) > MINUTE.high
    suspect |= row_sums(block[:, len(_ACTIVITIES):]) > MINUTE.high
    return suspect


#: A line that the read hands to ``np.loadtxt`` in a pass it cannot read
#: whole: twelve fields, no ``"``, and only digits and dots in each minute
#: field.
_PLAIN_LINE = re.compile(r'[^,"]*,[^,"]*,[^,"]*' + ",[0-9.]+" * len(MINUTE_COLUMNS) + r"\r?\n?")


def _load_lines(
    lines: list[str], dates: _DateTexts, locations: _LocationCodes
) -> np.ndarray | None:
    """Records of ``lines`` as ``np.loadtxt`` reads them, dates and
    locations coded through the memos, or ``None`` when it refuses one;
    blank lines are skipped."""
    if not lines:
        return np.empty(0, dtype=_BULK_DTYPE)
    try:
        # Before numpy 2, converters get latin-1 bytes unless encoding is None.
        return np.loadtxt(
            lines, dtype=_BULK_DTYPE, delimiter=",", comments=None, quotechar=None, ndmin=1,
            encoding=None, converters={1: dates.__getitem__, 2: locations.__getitem__},
        )
    except ValueError:
        return None


def _join_spans(lines: list[str], handle: Iterable[str]) -> None:
    """Make every item of ``lines`` hold whole records: a quoted record that
    runs past its line moves, joined, into the item of its last line, and
    the items of its other lines become empty, so that indices still give
    line numbers. A record left open by the last line pulls lines from
    ``handle``, appended to ``lines``, until its quote closes."""
    quoted = list(compress(range(len(lines)), map(contains, lines, repeat('"'))))
    # Only a line with a quote can open a record that spans lines; read
    # alone, each such line is one record unless it pulls the next one.
    reader = csv.reader(chain(map(lines.__getitem__, quoted), ("",)))
    for n, start in enumerate(quoted, 1):
        next(reader)
        if reader.line_num != n:
            break
    else:
        return
    # From the first record that spans lines on, read every line; those
    # pulled from handle are kept in pulled.
    first, pulled, spans = start, [], []
    reader = csv.reader(
        chain(islice(lines, first, None), (pulled.append(line) or line for line in handle))
    )
    while start < len(lines) + len(pulled):
        next(reader)
        end = first + reader.line_num
        if end - start > 1:
            spans.append((start, end))
        start = end
    lines.extend(pulled)
    for start, end in spans:
        lines[end - 1] = "".join(lines[start:end])
        lines[start:end - 1] = [""] * (end - 1 - start)


def _read_pass(
    lines: list[str], handle: Iterable[str], first_row: int, dates: _DateTexts,
    locations: _LocationCodes, rejected: list[tuple],
) -> tuple[np.ndarray, np.ndarray]:
    """Line numbers and records (in the layout of :func:`_load_lines`), in
    line order, of one pass of lines numbered from ``first_row``; records
    that do not parse go to ``rejected`` as records (see :class:`_Part`).

    ``np.loadtxt`` reads the pass whole unless it holds a ``"`` (see
    :func:`_join_spans`) or a blank line, or ``np.loadtxt`` refuses a line.
    Then only the lines :data:`_PLAIN_LINE` matches go to ``np.loadtxt``,
    and ``csv`` reads the others, blank or whitespace-only lines, quoted
    fields, wrong field counts and numbers such as ``abc`` or ``1_000``
    (which ``float()`` takes and ``loadtxt`` does not), one record at a time
    through :func:`_parse_record`.
    """
    quoted = '"' in "".join(lines)
    if quoted:
        _join_spans(lines, handle)
    # A pass of blank lines alone makes np.loadtxt warn.
    chunk = None if quoted or not lines[0].strip("\r\n") else _load_lines(lines, dates, locations)
    if chunk is not None and len(chunk) == len(lines):
        return np.arange(first_row, first_row + len(lines), dtype=np.int64), chunk

    at = list(compress(range(len(lines)), map(_PLAIN_LINE.fullmatch, lines)))
    chunk = _load_lines([lines[i] for i in at], dates, locations)
    if chunk is None or len(chunk) != len(at):
        at, chunk = [], _load_lines([], dates, locations)
    left = np.ones(len(lines), dtype=bool)
    left[at] = False
    left = np.flatnonzero(left).tolist()
    records = []
    for i, values in zip(left, csv.reader(map(lines.__getitem__, left))):
        if values:
            record = _parse_record(values, first_row + i, dates)
            if isinstance(record, tuple):
                rejected.append(record)
            else:
                at.append(i)
                records.append((values[0], dates[values[1]], locations[values[2]], record))
    if not records:  # at is still ascending
        return np.array(at, dtype=np.int64) + first_row, chunk
    order = np.argsort(at, kind="stable")
    chunk = np.concatenate([chunk, np.array(records, dtype=_BULK_DTYPE)])
    return np.array(at, dtype=np.int64)[order] + first_row, chunk[order]


@dataclass
class _Part:
    """What a read of one range of diary lines gives, before the merge.

    ``columns`` are arrays of the kept rows: line numbers (``q``, counted
    from the range's first row), participant and date codes (``i``) into
    ``ids`` and ``dates``, day type codes (``b``) and the minutes (``d``,
    nine a row). ``ids`` and ``dates`` hold each value in order of its first
    row, as the keys of a dict (whose values are of no further use) where
    :func:`_read_range` made the part, as a list in the part a child sends.
    ``size`` is the row count, ``lines`` the number of the range's last
    line, and ``rejected`` the PARSE_ERRORs as columns of line numbers, ids,
    dates and details. A child's part has ``columns`` None: they go to the
    head's.
    """

    columns: tuple[array, ...] | None
    size: int
    ids: dict[str, int] | list[str]
    dates: dict[_dt.date, None] | list[_dt.date]
    rejected: tuple[tuple, ...]
    unknown_rows: list[int]
    lines: int


def _read_header(handle: IO[str], pull: Iterable[str]) -> int:
    """Check the header that starts ``handle``; returns its line count. A
    leading U+FEFF is dropped."""
    lines = [handle.readline().removeprefix("\ufeff")]
    if not lines[0]:
        raise DiaryFormatError("diary file is empty (missing header)")
    _join_spans(lines, pull)
    if tuple(h.strip() for h in next(csv.reader(lines[-1:]))) != DIARY_HEADER:
        raise DiaryFormatError(
            "unexpected diary header; expected exactly: " + ",".join(DIARY_HEADER)
        )
    return len(lines)


def _read_range(
    handle: Iterable[str], first_row: int, pull: Iterable[str] | None = None
) -> _Part:
    """The part of the diary lines that ``handle`` yields, numbered from
    ``first_row`` and read in passes of :data:`CHUNK_ROWS` lines; a record
    left open by a pass's last line pulls lines from ``pull`` (by default
    ``handle``).

    The minutes are the bits ``float()`` gives: both use CPython's string to
    double conversion, and spellings only ``float()`` takes make ``loadtxt``
    raise. ``np.loadtxt`` codes dates and locations through memos of their
    texts (:class:`_DateTexts`, :class:`_LocationCodes`), which run Python
    code once per distinct text; ids stay text, and each pass numbers those
    of its kept rows with :func:`_id_serials`. Only the columns of a pass's
    kept rows outlive it.
    """
    distinct_ids: dict[str, int] = {}
    serials = count()
    dates, locations = _DateTexts(), _LocationCodes()
    columns = (array("q"), array("i"), array("i"), array("b"), array("d"))
    rejected: list[tuple] = []
    unknown_rows: list[int] = []
    while lines := list(islice(handle, CHUNK_ROWS)):
        rows, chunk = _read_pass(lines, pull or handle, first_row, dates, locations, rejected)
        first_row += len(lines)
        id_texts, date_codes, block = chunk["participant_id"], chunk["date"], chunk["minutes"]
        drop = date_codes < 0
        for i in np.flatnonzero(drop).tolist():
            rejected.append((int(rows[i]), id_texts[i].strip(), *dates.refused[~date_codes[i]]))
        # The DiaryDay constructor names the fault of a flagged row, exactly
        # as for a single day.
        for i in np.flatnonzero(_minute_screen(block) & ~drop).tolist():
            try:
                _day("", _dt.date.min, 0, block[i].tolist(), None)
            except ValueError as exc:
                drop[i] = True
                date = dates.dates[date_codes[i]].isoformat()
                rejected.append((int(rows[i]), id_texts[i].strip(), date, str(exc)))
        read = [rows, id_texts, date_codes, chunk["location"], block]
        if drop.any():
            read = [column[~drop] for column in read]
        rows, day_types = read[0], read[3]
        unknown = np.flatnonzero(day_types < 0)
        unknown_rows.extend(rows[unknown].tolist())
        day_types[unknown] = _OTHER_CODE
        read[1] = _id_serials(distinct_ids, read[1].tolist(), serials)
        # ravel copies a column only where it is a strided field of chunk.
        for column, values in zip(columns, read):
            column.frombytes(values.ravel().view(np.uint8))

    id_codes, date_codes = (np.frombuffer(column, dtype=np.int32) for column in columns[1:3])
    _positions(distinct_ids, id_codes)
    order = _first_appearance(date_codes, len(dates.dates)).tolist()
    return _Part(
        columns, len(columns[0]), distinct_ids, dict.fromkeys(dates.dates[code] for code in order),
        tuple(zip(*rejected)) or ((),) * 4, unknown_rows, first_row - 1,
    )


def _first_appearance(codes: np.ndarray, size: int) -> np.ndarray:
    """Renumber ``codes``, each below ``size``, in place in the order of
    their first appearance; returns the old code of each new one."""
    first = np.full(size, len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    order = np.argsort(first, kind="stable")[:np.count_nonzero(first < len(codes))]
    new = np.zeros(size, dtype=np.int32)
    new[order] = np.arange(len(order), dtype=np.int32)
    codes[:] = new[codes]
    return order


def _renumber(codes: np.ndarray, values: dict, more: Sequence) -> list:
    """The keys of ``values`` and then the values of ``more`` that they
    lack, in order; ``codes`` into ``more``, whose values are distinct,
    become codes into that list in place. Where ``more`` has none of the
    keys, as when no participant has rows on both sides of a cut, that is
    a shift, and no dict of positions is built."""
    if values.keys().isdisjoint(more):
        codes += len(values)
        return [*values, *more]
    position = dict(zip(values, count()))
    recode = np.fromiter(map(position.get, more, repeat(-1)), np.int32, len(more))
    new = recode < 0
    recode[new] = np.arange(len(values), len(values) + np.count_nonzero(new))
    codes[:] = recode[codes]
    return [*values, *compress(more, new.tolist())]


def _merge(head: _Part, tail: _Part | None = None) -> tuple[DiaryTable, RejectionTable]:
    """Table and rejections, in row order, of the lines of ``head`` and then
    of ``tail``, whose line numbers go on from head's; drops the duplicate
    days and logs the folded unknown-location warning.

    The tail's ids and dates are renumbered after head's, by first
    appearance; its columns are appended to head's, unless they already
    have been.
    """
    ids, dates, unknown_rows = head.ids, head.dates, head.unknown_rows
    parse_rows, *parse_errors = head.rejected
    if tail is not None and tail.columns is not None:
        for column, more in zip(head.columns, tail.columns):
            column.extend(more)
    rows, id_codes, date_codes, day_types, minutes = (
        np.frombuffer(column, dtype=column.typecode) for column in head.columns
    )
    if tail is not None:
        start, shift = len(rows) - tail.size, head.lines
        rows[start:] += shift
        ids = _renumber(id_codes[start:], ids, tail.ids)
        dates = _renumber(date_codes[start:], dates, tail.dates)
        tail_rows, *columns = tail.rejected
        parse_rows += tuple(row + shift for row in tail_rows)
        parse_errors = [mine + theirs for mine, theirs in zip(parse_errors, columns)]
        unknown_rows += [row + shift for row in tail.unknown_rows]
    rejected = [_read_rejections(parse_rows, *parse_errors, RejectReason.PARSE_ERROR)]
    table = DiaryTable(id_codes, ids, date_codes, dates, rows, day_types, minutes)
    table, unknown_rows = _drop_duplicates(table, rejected, unknown_rows)
    if unknown_rows:
        logger.warning(
            "%d rows with an unknown location classified as other_location (first rows: %s)",
            len(unknown_rows),
            ", ".join(map(str, unknown_rows[:_WARNED_ROWS])),
        )
    return table, in_row_order(*rejected)


def _drop_duplicates(
    table: DiaryTable, rejected: list[RejectionTable], unknown_location_rows: list[int]
) -> tuple[DiaryTable, list[int]]:
    """The table less every row whose participant and date an earlier row
    has, each rejected as DUPLICATE_DAY naming that row (a table of them
    goes to ``rejected``), and the unknown location rows less the dropped
    ones."""
    def pair_keys() -> np.ndarray:
        keys = table.participant_codes.astype(np.int64)
        keys *= len(table.distinct_dates)
        keys += table.date_codes
        return keys

    # Sorted in place, so that the check holds one copy of the keys.
    keys = pair_keys()
    keys.sort()
    if not (keys[1:] == keys[:-1]).any():
        return table, unknown_location_rows
    _, first, pair = np.unique(pair_keys(), return_index=True, return_inverse=True)
    first = first[pair]
    later = np.flatnonzero(first != np.arange(len(first)))
    rows = table.source_rows
    details = [f"duplicate of row {row}" for row in rows[first[later]].tolist()]
    reason = RejectReason.DUPLICATE_DAY
    rejected.append(_read_rejections(*identities(table[later]), details, reason))
    dropped = set(rows[later].tolist())
    keep = np.ones(len(table), dtype=bool)
    keep[later] = False
    return table[keep], [row for row in unknown_location_rows if row not in dropped]


def parse_diary_file(stream: IO) -> tuple[DiaryTable, RejectionTable]:
    """Parse a diary CSV stream, binary or text (opened with
    ``newline=""``), into a table of days plus PARSE_ERROR and DUPLICATE_DAY
    rejections, both in row order. The stream is read once and never
    seeked, nor closed; blank lines are skipped, and so is a byte order mark
    before the header. Logs one warning for all kept rows with an unknown
    location. A stream that is not UTF-8 raises :class:`DiaryFormatError`
    naming it."""
    text = stream
    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(
        stream, "mode", ""
    ):
        text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
    try:
        return _merge(_read_range(text, _read_header(text, text) + 1))
    except UnicodeDecodeError as exc:
        raise _not_utf8(stream, exc) from None
    finally:
        # A wrapper closes the stream it wraps when it is collected.
        if text is not stream:
            text.detach()


def parse_diary_path(path: str | Path) -> tuple[DiaryTable, RejectionTable]:
    """Parse a diary CSV file, as :func:`parse_diary_file` does a stream.

    A file of at least :data:`SPLIT_MIN_BYTES` is read in two processes
    where that is safe (see :mod:`.split_read`)."""
    with open(path, "rb") as raw:
        if os.fstat(raw.fileno()).st_size < SPLIT_MIN_BYTES:
            return parse_diary_file(raw)
        from . import split_read

        try:
            return split_read.parse(raw)
        except UnicodeDecodeError as exc:
            raise _not_utf8(raw, exc) from None


def _not_utf8(stream: IO, exc: UnicodeDecodeError) -> DiaryFormatError:
    """The refusal of the diary ``stream`` whose read met ``exc``."""
    name, bad = getattr(stream, "name", "stream"), exc.object[exc.start:exc.end]
    return DiaryFormatError(f"diary file {name} is not UTF-8: {exc.reason} {bad!r}")
