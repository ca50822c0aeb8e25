"""Diary parsing, quality filtering, and work-location classification.

Diary files are UTF-8 CSV with exactly this header::

    participant_id,date,location,travel_min,work_min,chores_min,leisure_min,
    walk_min,bike_min,car_min,pt_min,other_mode_min

(one physical line; wrapped here for readability). Dates are ISO-8601,
minute fields are non-negative decimals, and the location vocabulary is
``office | coworking | home | other | multiple``. Unknown location strings
fall back to ``other_location``: :func:`classify_day` logs a warning per
call, and a parse logs one warning that gives the number of such rows
that enter the table and the first five row numbers.

A parse reads the file into a :class:`DiaryTable`: one array per field and
an ``(n, 9)`` float64 matrix of the minute columns. :func:`parse_diary_path`
reads a file in :func:`numpy.loadtxt` passes of :data:`CHUNK_ROWS` lines.
When ``loadtxt`` cannot read a pass whole, its lines with twelve fields, no
``"`` and only digits and dots in the minute fields still go to one
``loadtxt`` call; the row parse that :func:`parse_diary_file` applies to
every record reads the others one line at a time: blank or whitespace-only
lines, quoted fields, wrong field counts, and numbers such as ``abc`` or
``1_000`` (which ``float()`` takes and ``loadtxt`` does not). A line that
``loadtxt`` read but whose date does not parse is rejected from the columns
of its pass, without the row parse. Only a quoted record that spans lines
sends the file to the row loop of :func:`parse_diary_file`, the one path
for streams. Either path gives the same table, minutes to the bit, row
numbers, rejections and warning.

The table is a sequence of :class:`DiaryDay` (indexing builds the day object
of a row), so code written for lists of days keeps working, while the
quality filter and the aggregation work on its arrays.
:func:`apply_quality_filter` returns the kind of container it is given: a
table for a table, and for any other iterable of days a list of the very
same objects.

numpy is imported by the functions that build or reduce the arrays, not by
this module, so only the commands that read diaries load it: ``validate``,
``profile``, ``delta``, and ``sweep``/``breakeven`` with ``--diaries``.

Row-level problems never abort a parse; each bad row becomes a
:class:`RejectedDay` with reason ``PARSE_ERROR``. Only whole-file problems
(missing or wrong header) raise :class:`DiaryFormatError`.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import logging
import numbers
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, islice
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

from .errors import DiaryFormatError
from .model import (
    MINUTES_PER_DAY,
    Activity,
    DayType,
    DiaryDay,
    TransportMode,
    finite_at_least,
)

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

DIARY_HEADER = (
    "participant_id",
    "date",
    "location",
    "travel_min",
    "work_min",
    "chores_min",
    "leisure_min",
    "walk_min",
    "bike_min",
    "car_min",
    "pt_min",
    "other_mode_min",
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
_TRAVEL = _ACTIVITIES.index(Activity.TRAVEL)
_WORK = _ACTIVITIES.index(Activity.WORK)

#: Day types in code order; ``DiaryTable.day_types`` holds indices into it.
DAY_TYPES = tuple(DayType)
_DAY_TYPE_CODE = {day_type: code for code, day_type in enumerate(DAY_TYPES)}
_DAY_TYPE_VALUES = tuple(day_type.value for day_type in DAY_TYPES)
_LOCATION_CODE = {raw: _DAY_TYPE_CODE[day_type] for raw, day_type in LOCATION_VOCABULARY.items()}
_EXCLUDED_CODES = [_DAY_TYPE_CODE[DayType.OTHER_LOCATION], _DAY_TYPE_CODE[DayType.MULTI_LOCATION]]
#: Row numbers the folded unknown-location warning lists.
_WARNED_ROWS = 5

#: Rows per ``np.loadtxt`` pass of the bulk read; bounds the memory one
#: pass holds beyond the growing columns.
CHUNK_ROWS = 4096
#: Record of one diary line for ``np.loadtxt``: the three text fields as
#: they stand, then the nine minute fields.
_BULK_DTYPE = [
    ("participant_id", object),
    ("date", object),
    ("location", object),
    ("minutes", "f8", (len(MINUTE_COLUMNS),)),
]


class RejectReason(str, Enum):
    """Why a day was excluded; listed in the order rules are checked."""

    WORK_TOO_SHORT = "WORK_TOO_SHORT"
    TOTAL_TOO_SHORT = "TOTAL_TOO_SHORT"
    MODE_MISMATCH = "MODE_MISMATCH"
    EXCLUDED_LOCATION = "EXCLUDED_LOCATION"
    PARSE_ERROR = "PARSE_ERROR"


#: Reasons of the quality rules, in the order the rules are checked, and the
#: detail text of each. Formatting with the rules gives a template whose
#: fields are a day's work, total, mismatch and day type.
_RULE_REASONS = tuple(RejectReason)[:4]
_RULE_DETAILS = (
    "work {{0:g}} < {rules.min_work_minutes:g} min",
    "total {{1:g}} < {rules.min_total_minutes:g} min",
    "|travel - modes| = {{2:g}} > {rules.max_mode_mismatch_minutes:g} min",
    "day type {{3}} excluded",
)


@dataclass(frozen=True)
class QualityRules:
    """Thresholds for excluding low-quality entries and untypical workdays.

    Defaults: at least 4 h of work, at least 8 h recorded in total, and at
    most 100 min absolute difference between the travel activity and the sum
    of the per-mode times.
    """

    min_work_minutes: float = 240.0
    min_total_minutes: float = 480.0
    max_mode_mismatch_minutes: float = 100.0
    exclude_multi_location: bool = True

    def __post_init__(self):
        for name in ("min_work_minutes", "min_total_minutes", "max_mode_mismatch_minutes"):
            object.__setattr__(self, name, finite_at_least(name, getattr(self, name)))
        if not isinstance(self.exclude_multi_location, bool):
            value = self.exclude_multi_location
            raise ValueError(f"exclude_multi_location must be true or false, got {value!r}")


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


_PARSE_FAILURES = (RejectReason.PARSE_ERROR,)
_BY_ROW = attrgetter("row")


class DiaryTable(Sequence):
    """Diary days held as columns; a read-only sequence of :class:`DiaryDay`.

    ``participant_ids``, ``dates`` and ``source_rows`` are object arrays,
    ``day_types`` holds int8 indices into :data:`DAY_TYPES`, and ``minutes``
    is an ``(n, 9)`` float64 matrix whose columns are the activities in
    :class:`Activity` order, then the modes in :class:`TransportMode` order
    (the order of :data:`MINUTE_COLUMNS`).

    An int index builds the :class:`DiaryDay` of that row. A slice, boolean
    mask or index array gives a sub-table. The arrays are read-only.
    """

    __slots__ = ("participant_ids", "dates", "source_rows", "day_types", "minutes")

    def __init__(self, participant_ids, dates, source_rows, day_types, minutes):
        import numpy as np

        self.participant_ids = _object_array(participant_ids)
        self.dates = _object_array(dates)
        self.source_rows = _object_array(source_rows)
        self.day_types = np.asarray(day_types, dtype=np.int8)
        self.minutes = np.asarray(minutes, dtype=np.float64).reshape(-1, len(MINUTE_COLUMNS))
        columns = (self.participant_ids, self.dates, self.source_rows, self.day_types)
        if {len(column) for column in columns} != {len(self.minutes)}:
            raise ValueError("diary table columns differ in length")
        for column in (*columns, self.minutes):
            column.flags.writeable = False

    @classmethod
    def from_days(cls, days: Iterable[DiaryDay]) -> DiaryTable:
        """Table of the given days, in order; a table is returned as it is."""
        if isinstance(days, DiaryTable):
            return days
        import numpy as np

        days = list(days)
        minutes = array("d")
        for day in days:
            minutes.extend([day.activity(a) for a in _ACTIVITIES])
            minutes.extend([day.mode(m) for m in _MODES])
        return cls(
            [day.participant_id for day in days],
            [day.date for day in days],
            [day.source_row for day in days],
            [_DAY_TYPE_CODE[day.day_type] for day in days],
            np.frombuffer(minutes, dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.day_types)

    def __getitem__(self, item):
        # numpy registers its integer scalars as numbers.Integral.
        if isinstance(item, numbers.Integral):
            i = range(len(self))[item]
            values = self.minutes[i].tolist()
            return DiaryDay(
                participant_id=self.participant_ids[i],
                date=self.dates[i],
                day_type=DAY_TYPES[self.day_types[i]],
                activity_minutes=dict(zip(_ACTIVITIES, values)),
                mode_minutes=dict(zip(_MODES, values[len(_ACTIVITIES):])),
                source_row=self.source_rows[i],
            )
        return DiaryTable(
            self.participant_ids[item],
            self.dates[item],
            self.source_rows[item],
            self.day_types[item],
            self.minutes[item],
        )

    def __repr__(self) -> str:
        return f"DiaryTable({len(self)} days)"


def _object_array(values) -> np.ndarray:
    """1-D object array of ``values``; ``np.array`` would turn elements that
    are sequences into extra dimensions."""
    import numpy as np

    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _row_sums(block: np.ndarray) -> np.ndarray:
    """Row totals summed left to right in column order, starting from 0.0,
    as :class:`DiaryDay` sums its minute maps."""
    import numpy as np

    total = np.zeros(len(block))
    for j in range(block.shape[1]):
        total += block[:, j]
    return total


def classify_day(raw_location: str) -> DayType:
    """Map a raw location string to a :class:`DayType`.

    Total function: anything outside the documented vocabulary maps to
    ``other_location`` and logs a warning.
    """
    key = str(raw_location).strip()
    day_type = LOCATION_VOCABULARY.get(key)
    if day_type is None:
        logger.warning("unknown location %r, classifying as other_location", raw_location)
        return DayType.OTHER_LOCATION
    return day_type


def _parse_error(row: int, participant_id: str, date: str, detail: str) -> RejectedDay:
    return RejectedDay(
        RejectReason.PARSE_ERROR, row, participant_id.strip(), date.strip(), detail,
        _PARSE_FAILURES,
    )


def _parse_record(
    values: list[str], row: int, known_dates: dict[str, _dt.date]
) -> tuple[_dt.date, list[float]] | RejectedDay:
    """Date and minutes of one non-empty CSV record, or its PARSE_ERROR
    rejection.

    Both parse paths read every record they do not read in bulk through
    here. ``known_dates`` maps date texts as they stand to their dates, so
    each distinct text is parsed once.
    """
    try:
        if len(values) != len(DIARY_HEADER):
            raise ValueError(f"expected {len(DIARY_HEADER)} fields, got {len(values)}")
        date = known_dates.get(values[1])
        if date is None:
            date = known_dates[values[1]] = _dt.date.fromisoformat(values[1].strip())
        return date, list(map(float, values[3:]))
    except ValueError as exc:
        date_text = values[1] if len(values) > 1 else ""
        return _parse_error(row, values[0], date_text, str(exc))


def _location_codes(
    locations: list[str], rows: Sequence[int], unknown_rows: list[int]
) -> list[int]:
    """Day-type codes of raw location texts. An unknown location is coded
    other_location and its row goes to ``unknown_rows``."""
    codes = list(map(_LOCATION_CODE.get, locations))
    if None in codes:
        for i, code in enumerate(codes):
            if code is None:
                code = _LOCATION_CODE.get(locations[i].strip())
                if code is None:
                    code = _DAY_TYPE_CODE[DayType.OTHER_LOCATION]
                    unknown_rows.append(rows[i])
                codes[i] = code
    return codes


def _minute_screen(block: np.ndarray) -> np.ndarray:
    """Mask of the rows of a minute matrix with a negative value or an
    activity or mode total over a day: the rows a :class:`DiaryDay` may
    refuse."""
    suspect = (block < 0).any(axis=1)
    suspect |= _row_sums(block[:, :len(_ACTIVITIES)]) > MINUTES_PER_DAY
    suspect |= _row_sums(block[:, len(_ACTIVITIES):]) > MINUTES_PER_DAY
    return suspect


def parse_diary_file(stream: IO) -> tuple[DiaryTable, list[RejectedDay]]:
    """Parse a diary CSV stream into a table of days plus PARSE_ERROR
    rejections, both in row order.

    Accepts a binary or text stream; blank lines are skipped. Logs one
    warning for all kept rows with an unknown location. This row loop is the
    reference that the bulk read of :func:`parse_diary_path` matches.
    """
    import numpy as np

    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(
        stream, "mode", ""
    ):
        stream = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DiaryFormatError("diary file is empty (missing header)") from None
    if tuple(h.strip() for h in header) != DIARY_HEADER:
        raise DiaryFormatError(
            "unexpected diary header; expected exactly: " + ",".join(DIARY_HEADER)
        )

    participant_ids: list[str] = []
    dates: list[_dt.date] = []
    date_texts: list[str] = []
    rows: list[int] = []
    locations: list[str] = []
    minutes = array("d")
    rejected: list[RejectedDay] = []
    known_dates: dict[str, _dt.date] = {}
    for values in reader:
        if not values:
            continue
        row = reader.line_num
        record = _parse_record(values, row, known_dates)
        if isinstance(record, RejectedDay):
            rejected.append(record)
            continue
        participant_ids.append(values[0].strip())
        dates.append(record[0])
        date_texts.append(values[1])
        rows.append(row)
        locations.append(values[2])
        minutes.extend(record[1])

    unknown_location_rows: list[int] = []
    day_types = _location_codes(locations, rows, unknown_location_rows)
    block = np.frombuffer(minutes, dtype=np.float64).reshape(-1, len(MINUTE_COLUMNS))
    suspects = {i: date_texts[i] for i in np.flatnonzero(_minute_screen(block)).tolist()}
    return _build_table(
        participant_ids, dates, rows, day_types, minutes, rejected, unknown_location_rows, suspects
    )


#: A line that the bulk read hands to ``np.loadtxt`` in a pass it cannot
#: read whole: twelve fields, no ``"``, and only digits and dots in each
#: minute field.
_PLAIN_LINE = re.compile(r'[^,"]*,[^,"]*,[^,"]*' + ",[0-9.]+" * len(MINUTE_COLUMNS) + r"\r?\n?")
_TEXT_FIELDS = ("participant_id", "date", "location")


def _load_lines(lines: list[str]) -> np.ndarray | None:
    """Records of ``lines`` as ``np.loadtxt`` reads them, or ``None`` when it
    refuses one; blank lines are skipped."""
    import numpy as np

    if not lines:
        return np.empty(0, dtype=_BULK_DTYPE)
    try:
        return np.loadtxt(
            lines, dtype=_BULK_DTYPE, delimiter=",", comments=None, quotechar=None, ndmin=1
        )
    except ValueError:
        return None


def _parse_lines(
    lines: list[str],
    at: list[int],
    first_row: int,
    known_dates: dict[str, _dt.date],
    rejected: list[RejectedDay],
) -> tuple[list[int], np.ndarray] | None:
    """Read ``lines[i]`` for each ``i`` of ascending ``at`` on its own, with
    ``csv`` and :func:`_parse_record`; rejections go to ``rejected``.

    Returns the ``i`` of the records kept and those records in the layout of
    :func:`_load_lines`, or ``None`` when a quoted record runs past its line.
    """
    import numpy as np

    reader = csv.reader(chain(map(lines.__getitem__, at), ("",)))
    kept: list[int] = []
    records = []
    for n, (i, values) in enumerate(zip(at, reader), 1):
        # A record that pulled a further line is quoted across lines.
        if reader.line_num != n:
            return None
        if not values:
            continue
        record = _parse_record(values, first_row + i, known_dates)
        if isinstance(record, RejectedDay):
            rejected.append(record)
            continue
        kept.append(i)
        records.append((values[0], values[1], values[2], record[1]))
    return kept, np.array(records, dtype=_BULK_DTYPE)


def _read_pass(
    lines: list[str],
    first_row: int,
    known_dates: dict[str, _dt.date],
    bad_dates: dict[str, str],
    rejected: list[RejectedDay],
) -> tuple | None:
    """Rows, ids, date texts, dates, locations and minute matrix of the
    records of one pass of lines numbered from ``first_row``, in line order;
    ``None`` when a quoted record runs past its line.

    ``np.loadtxt`` reads the pass whole unless it refuses a line, skips a
    blank one or reads a ``"`` as text; then only the lines
    :data:`_PLAIN_LINE` matches go to ``np.loadtxt``. A line it read whose
    date does not parse is rejected from its columns, with the error text
    that ``bad_dates`` keeps per date text. Only the lines it did not read
    go to :func:`_parse_lines`.
    """
    import numpy as np

    at = range(len(lines))
    # A pass of blank lines alone makes np.loadtxt warn.
    chunk = _load_lines(lines) if lines[0].strip("\r\n") else None
    if chunk is None or len(chunk) != len(lines) or '"' in "".join(lines):
        at = list(compress(at, map(_PLAIN_LINE.fullmatch, lines)))
        chunk = _load_lines([lines[i] for i in at])
        if chunk is None or len(chunk) != len(at):
            at, chunk = [], _load_lines([])
    ids, date_texts, locations = (chunk[name].tolist() for name in _TEXT_FIELDS)
    for text in set(date_texts).difference(known_dates, bad_dates):
        try:
            known_dates[text] = _dt.date.fromisoformat(text.strip())
        except ValueError as exc:
            bad_dates[text] = str(exc)
    dates = list(map(known_dates.get, date_texts))
    if len(at) == len(lines) and None not in dates:
        rows = range(first_row, first_row + len(lines))
        return rows, ids, date_texts, dates, locations, chunk["minutes"]

    keep = [date is not None for date in dates]
    pass_rejected = [
        _parse_error(first_row + at[i], ids[i], date_texts[i], bad_dates[date_texts[i]])
        for i, date in enumerate(dates)
        if date is None
    ]
    left = np.ones(len(lines), dtype=bool)
    left[at] = False
    parsed = _parse_lines(
        lines, np.flatnonzero(left).tolist(), first_row, known_dates, pass_rejected
    )
    if parsed is None:
        return None
    rejected.extend(sorted(pass_rejected, key=_BY_ROW))
    mask = np.array(keep, dtype=bool)
    at = np.asarray(at, dtype=np.intp)[mask]
    if not parsed[0]:
        # The row parse kept no line: the read columns stand, less the bad dates.
        columns = (list(compress(column, keep)) for column in (ids, date_texts, dates, locations))
        return ((at + first_row).tolist(), *columns, chunk["minutes"][mask])
    positions = np.concatenate([at, np.asarray(parsed[0], dtype=np.intp)])
    order = np.argsort(positions)
    chunk = np.concatenate([chunk[mask], parsed[1]])[order]
    rows = (positions[order] + first_row).tolist()
    ids, date_texts, locations = (chunk[name].tolist() for name in _TEXT_FIELDS)
    dates = list(map(known_dates.__getitem__, date_texts))
    return rows, ids, date_texts, dates, locations, chunk["minutes"]


def _read_bulk(handle: IO) -> tuple | None:
    """Columns of a diary file read in passes of :data:`CHUNK_ROWS` lines
    (see :func:`_read_pass`), in the argument order of :func:`_build_table`;
    ``None`` when the file needs the row loop.

    The minutes are the bits ``float()`` gives: both use CPython's string to
    double conversion, and spellings only ``float()`` takes (``1_000``,
    non-ASCII digits) make ``loadtxt`` raise. Row numbers are line numbers.
    Only the rows the minute screen flags keep their date text.
    """
    import numpy as np

    header = handle.readline()
    if '"' in header or tuple(h.strip() for h in header.split(",")) != DIARY_HEADER:
        return None
    participant_ids: list[str] = []
    dates: list[_dt.date] = []
    rows = array("q")
    day_types = array("b")
    minutes = array("d")
    rejected: list[RejectedDay] = []
    unknown_location_rows: list[int] = []
    suspects: dict[int, str] = {}
    known_dates: dict[str, _dt.date] = {}
    bad_dates: dict[str, str] = {}
    first_row = 2
    while lines := list(islice(handle, CHUNK_ROWS)):
        read = _read_pass(lines, first_row, known_dates, bad_dates, rejected)
        if read is None:
            return None
        pass_rows, ids, date_texts, pass_dates, locations, block = read
        for i in np.flatnonzero(_minute_screen(block)).tolist():
            suspects[len(day_types) + i] = date_texts[i]
        participant_ids.extend(map(str.strip, ids))
        dates.extend(pass_dates)
        rows.extend(pass_rows)
        day_types.extend(_location_codes(locations, pass_rows, unknown_location_rows))
        minutes.frombytes(block.tobytes())
        first_row += len(lines)
    return (
        participant_ids, dates, rows, day_types, minutes, rejected, unknown_location_rows, suspects
    )


def _build_table(
    participant_ids: list[str],
    dates: list[_dt.date],
    rows: Sequence[int],
    day_types: Sequence[int],
    minutes: array,
    rejected: list[RejectedDay],
    unknown_location_rows: list[int],
    suspects: dict[int, str],
) -> tuple[DiaryTable, list[RejectedDay]]:
    """Table of the parsed columns, with rows that break a day's minute
    limits moved to ``rejected``; logs the folded unknown-location warning.

    ``suspects`` maps the index of each row that :func:`_minute_screen`
    flags to its date text.
    """
    import numpy as np

    table = DiaryTable(
        participant_ids, dates, rows, day_types, np.frombuffer(minutes, dtype=np.float64)
    )
    # The DiaryDay constructor names the fault of a flagged row, exactly as
    # for a single day.
    keep = np.ones(len(table), dtype=bool)
    for i, date_text in suspects.items():
        try:
            table[i]
        except ValueError as exc:
            keep[i] = False
            rejected.append(_parse_error(rows[i], participant_ids[i], date_text, str(exc)))
    if not keep.all():
        table = table[keep]
        rejected.sort(key=_BY_ROW)
        dropped = {item.row for item in rejected}
        unknown_location_rows = [row for row in unknown_location_rows if row not in dropped]
    if unknown_location_rows:
        logger.warning(
            "%d rows with an unknown location classified as other_location (first rows: %s)",
            len(unknown_location_rows),
            ", ".join(map(str, unknown_location_rows[:_WARNED_ROWS])),
        )
    return table, rejected


def parse_diary_path(path: str | Path) -> tuple[DiaryTable, list[RejectedDay]]:
    """Parse a diary CSV file: in bulk when it can be (see the module
    docstring), else with :func:`parse_diary_file`, which is also the path
    for a file that cannot be read twice, such as a pipe. Both give the same
    table, rejections and warning."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        if handle.seekable():
            columns = _read_bulk(handle)
            if columns is not None:
                return _build_table(*columns)
            handle.seek(0)
        return parse_diary_file(handle)


def apply_quality_filter(
    days: Iterable[DiaryDay], rules: QualityRules | None = None
) -> tuple[DiaryTable | list[DiaryDay], list[RejectedDay]]:
    """Partition days into (kept, rejected) according to the quality rules.

    The first failing rule (in :class:`RejectReason` order) is the primary
    reason; all failing rules are attached. ``kept`` is the kind of
    container given: a :class:`DiaryTable` for a table, otherwise a list of
    the very same day objects. Rejections are described from the table's
    columns; no day object is built for them.
    """
    import numpy as np

    rules = rules or QualityRules()
    if not isinstance(days, DiaryTable):
        days = list(days)
    table = DiaryTable.from_days(days)
    minutes = table.minutes
    work = minutes[:, _WORK]
    total = _row_sums(minutes[:, :len(_ACTIVITIES)])
    mismatch = np.abs(minutes[:, _TRAVEL] - _row_sums(minutes[:, len(_ACTIVITIES):]))
    excluded = np.isin(table.day_types, _EXCLUDED_CODES) & rules.exclude_multi_location
    failing = np.stack(
        [
            work < rules.min_work_minutes,
            total < rules.min_total_minutes,
            mismatch > rules.max_mode_mismatch_minutes,
            excluded,
        ],
        axis=1,
    )
    rejected_at = np.flatnonzero(failing.any(axis=1))
    # The reason, failures and detail template of each combination of
    # failing rules, built once; bit k of a combination is rule k.
    combinations = failing[rejected_at] @ (1 << np.arange(len(_RULE_REASONS)))
    outcomes = {}
    for combination in set(combinations.tolist()):
        flags = [combination >> k & 1 for k in range(len(_RULE_REASONS))]
        failures = tuple(compress(_RULE_REASONS, flags))
        details = (text.format(rules=rules) for text in compress(_RULE_DETAILS, flags))
        outcomes[combination] = failures[0], failures, "; ".join(details)
    dates = table.dates[rejected_at].tolist()
    iso_dates = {date: date.isoformat() for date in set(dates)}

    rejected: list[RejectedDay] = []
    for row, participant_id, date, code, combination, work_i, total_i, mismatch_i in zip(
        table.source_rows[rejected_at].tolist(),
        table.participant_ids[rejected_at].tolist(),
        dates,
        table.day_types[rejected_at].tolist(),
        combinations.tolist(),
        work[rejected_at].tolist(),
        total[rejected_at].tolist(),
        mismatch[rejected_at].tolist(),
    ):
        reason, failures, template = outcomes[combination]
        detail = template.format(work_i, total_i, mismatch_i, _DAY_TYPE_VALUES[code])
        rejected.append(
            RejectedDay(reason, row, participant_id, iso_dates[date], detail, failures)
        )

    keep = np.ones(len(table), dtype=bool)
    keep[rejected_at] = False
    if isinstance(days, DiaryTable):
        return (days[keep] if rejected else days), rejected
    return list(compress(days, keep.tolist())), rejected
