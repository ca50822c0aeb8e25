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
reads a file in :func:`numpy.loadtxt` passes of :data:`CHUNK_ROWS` rows. It
hands the file to the row loop of :func:`parse_diary_file` (the one path for
streams) when a line is blank or whitespace only, a field holds ``"`` (CSV
quoting), a line has the wrong field count, a date does not parse, or a
number is one ``loadtxt`` does not read (such as ``1_000`` or non-ASCII
digits, which ``float()`` takes). Either path gives the same table, minutes
to the bit, row numbers, rejections and warning.

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
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, count, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

from .errors import DiaryFormatError
from .model import MINUTES_PER_DAY, Activity, DayType, DiaryDay, TransportMode

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
#: detail text of each.
_RULE_REASONS = tuple(RejectReason)[:4]
_RULE_DETAILS = (
    "work {work:g} < {rules.min_work_minutes:g} min",
    "total {total:g} < {rules.min_total_minutes:g} min",
    "|travel - modes| = {mismatch:g} > {rules.max_mode_mismatch_minutes:g} min",
    "day type {day_type} excluded",
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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


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


def _parse_error(row: int, participant_id: str, date: str, exc: Exception) -> RejectedDay:
    return RejectedDay(
        reason=RejectReason.PARSE_ERROR,
        row=row,
        participant_id=participant_id.strip(),
        date=date.strip(),
        detail=str(exc),
        failures=(RejectReason.PARSE_ERROR,),
    )


def parse_diary_file(stream: IO) -> tuple[DiaryTable, list[RejectedDay]]:
    """Parse a diary CSV stream into a table of days plus PARSE_ERROR
    rejections, both in row order.

    Accepts a binary or text stream; blank lines are skipped. Logs one
    warning for all kept rows with an unknown location. This row loop is the
    reference that the bulk read of :func:`parse_diary_path` matches.
    """
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
    day_types = array("b")
    minutes = array("d")
    rejected: list[RejectedDay] = []
    unknown_location_rows: list[int] = []
    width = len(MINUTE_COLUMNS)
    for values in reader:
        if not values:
            continue
        row = reader.line_num
        try:
            if len(values) != len(DIARY_HEADER):
                raise ValueError(f"expected {len(DIARY_HEADER)} fields, got {len(values)}")
            date_text = values[1].strip()
            date = _dt.date.fromisoformat(date_text)
            code = _LOCATION_CODE.get(values[2])
            if code is None:
                code = _LOCATION_CODE.get(values[2].strip())
            minutes.extend(map(float, values[3:]))
        except ValueError as exc:
            del minutes[width * len(rows):]
            fields = dict(zip(DIARY_HEADER, values))
            rejected.append(
                _parse_error(row, fields.get("participant_id", ""), fields.get("date", ""), exc)
            )
            continue
        if code is None:
            code = _DAY_TYPE_CODE[DayType.OTHER_LOCATION]
            unknown_location_rows.append(row)
        participant_ids.append(values[0].strip())
        date_texts.append(date_text)
        dates.append(date)
        rows.append(row)
        day_types.append(code)

    return _build_table(
        participant_ids, dates, date_texts, rows, day_types, minutes, rejected, unknown_location_rows
    )


def _read_bulk(handle: IO) -> tuple | None:
    """Columns of a diary file read in :func:`numpy.loadtxt` passes of
    :data:`CHUNK_ROWS` rows, in the argument order of :func:`_build_table`;
    ``None`` when the file needs the row loop.

    The minutes are the bits ``float()`` gives: both use CPython's string to
    double conversion, and spellings only ``float()`` takes (``1_000``,
    non-ASCII digits) make ``loadtxt`` raise. Row numbers are line numbers
    when no line is blank and no field is quoted, which the read checks.
    """
    import numpy as np

    header = handle.readline()
    if '"' in header or tuple(h.strip() for h in header.split(",")) != DIARY_HEADER:
        return None
    # zip pulls a line before a count, so the counter ends at the lines read.
    counter = count()
    lines = map(itemgetter(0), zip(handle, counter))
    participant_ids: list[str] = []
    dates: list[_dt.date] = []
    date_texts: list[str] = []
    day_types = array("b")
    minutes = array("d")
    unknown_location_rows: list[int] = []
    while (first := next(lines, None)) is not None:
        # A pass of blank lines alone makes np.loadtxt warn; any blank line
        # needs the row loop anyway.
        if not first.strip("\r\n"):
            return None
        try:
            chunk = np.loadtxt(
                chain((first,), islice(lines, CHUNK_ROWS - 1)),
                dtype=_BULK_DTYPE,
                delimiter=",",
                comments=None,
                quotechar=None,
                ndmin=1,
            )
        except ValueError:
            return None
        texts = [chunk[name].tolist() for name in ("participant_id", "date", "location")]
        if any('"' in "".join(column) for column in texts):
            return None
        raw_ids, raw_dates, locations = texts
        stripped_dates = list(map(str.strip, raw_dates))
        try:
            dates.extend(map(_dt.date.fromisoformat, stripped_dates))
        except ValueError:
            return None
        first_row = len(day_types) + 2
        codes = list(map(_LOCATION_CODE.get, locations))
        if None in codes:
            for i, code in enumerate(codes):
                if code is None:
                    code = _LOCATION_CODE.get(locations[i].strip())
                    if code is None:
                        code = _DAY_TYPE_CODE[DayType.OTHER_LOCATION]
                        unknown_location_rows.append(first_row + i)
                    codes[i] = code
        participant_ids.extend(map(str.strip, raw_ids))
        date_texts.extend(stripped_dates)
        day_types.extend(codes)
        minutes.frombytes(chunk["minutes"].tobytes())
    if len(day_types) != next(counter):
        return None
    rows = range(2, len(day_types) + 2)
    return participant_ids, dates, date_texts, rows, day_types, minutes, [], unknown_location_rows


def _build_table(
    participant_ids: list[str],
    dates: list[_dt.date],
    date_texts: list[str],
    rows: Sequence[int],
    day_types: array,
    minutes: array,
    rejected: list[RejectedDay],
    unknown_location_rows: list[int],
) -> tuple[DiaryTable, list[RejectedDay]]:
    """Table of the parsed columns, with rows that break a day's minute
    limits moved to ``rejected``; logs the folded unknown-location warning."""
    import numpy as np

    table = DiaryTable(
        participant_ids, dates, rows, day_types, np.frombuffer(minutes, dtype=np.float64)
    )
    # Negative minutes and totals over a day are screened on the matrix; the
    # DiaryDay constructor then names the fault, exactly as for a single day.
    suspect = (table.minutes < 0).any(axis=1)
    suspect |= _row_sums(table.minutes[:, :len(_ACTIVITIES)]) > MINUTES_PER_DAY
    suspect |= _row_sums(table.minutes[:, len(_ACTIVITIES):]) > MINUTES_PER_DAY
    keep = np.ones(len(table), dtype=bool)
    for i in np.flatnonzero(suspect).tolist():
        try:
            table[i]
        except ValueError as exc:
            keep[i] = False
            rejected.append(_parse_error(rows[i], participant_ids[i], date_texts[i], exc))
    if not keep.all():
        table = table[keep]
        rejected.sort(key=lambda item: item.row)
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

    rejected: list[RejectedDay] = []
    for row, participant_id, date, code, flags, work_i, total_i, mismatch_i in zip(
        table.source_rows[rejected_at].tolist(),
        table.participant_ids[rejected_at].tolist(),
        table.dates[rejected_at].tolist(),
        table.day_types[rejected_at].tolist(),
        failing[rejected_at].tolist(),
        work[rejected_at].tolist(),
        total[rejected_at].tolist(),
        mismatch[rejected_at].tolist(),
    ):
        values = {
            "work": work_i,
            "total": total_i,
            "mismatch": mismatch_i,
            "day_type": DAY_TYPES[code].value,
            "rules": rules,
        }
        failures = tuple(compress(_RULE_REASONS, flags))
        rejected.append(
            RejectedDay(
                reason=failures[0],
                row=row,
                participant_id=participant_id,
                date=date.isoformat(),
                detail="; ".join(text.format(**values) for text in compress(_RULE_DETAILS, flags)),
                failures=failures,
            )
        )

    keep = np.ones(len(table), dtype=bool)
    keep[rejected_at] = False
    if isinstance(days, DiaryTable):
        return (days[keep] if rejected else days), rejected
    return list(compress(days, keep.tolist())), rejected
