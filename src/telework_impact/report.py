"""Deterministic CSV/JSON artifact writers.

All machine artifacts carry full float precision (shortest round-trip repr)
and contain no timestamps, so identical inputs produce byte-identical files.
Wall-clock metadata goes into a separate sidecar file that is excluded from
any comparison.

The rows and dicts of a sweep are built here; the ``sweep`` command writes
its files through :mod:`.sweep_writer`, which only that command imports.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
from collections.abc import Iterator
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .aggregation import PROFILE_MAPS, DayTypeProfile, profiles_to_dict
from .config import AppConfig
from .model import DayType, EnergyDelta

if TYPE_CHECKING:
    from .diary import RejectedDay
    from .scenario import SweepResult

REJECTION_HEADER = ("row", "participant_id", "date", "reason")
PROFILE_HEADER = ("day_type", "metric", "key", "value")
PLOT_HEADER = ("day_type", "series", "key", "value")
DELTA_HEADER = ("baseline", "facility_mj", "equipment_mj", "travel_mj", "net_mj")
SWEEP_HEADER = (
    "parameter",
    "value",
    "facility_mj",
    "equipment_mj",
    "travel_mj",
    "credit_mj",
    "net_mj",
)

RUN_INFO_FILENAME = "run_info.json"


def write_json(path: str | Path, payload) -> Path:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.
    An iterator, which ``json`` cannot encode, is taken as that text in
    pieces, written one at a time so that a long text is never held whole
    (see :func:`.sweep_writer.write_sweep`)."""
    path = Path(path)
    if not isinstance(payload, Iterator):
        payload = [json.dumps(payload, indent=2, sort_keys=True)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(payload)
        handle.write("\n")
    return path


#: Rows per batch of :func:`write_csv`; bounds the text held at once.
_CSV_BATCH_ROWS = 4096


class CsvColumns(NamedTuple):
    """The cells of a table of ``size`` rows held as columns:
    ``cells(start, stop)`` gives those of the rows ``start:stop``, a list
    per column, so that :func:`write_csv` renders a batch at a time."""

    size: int
    cells: Callable[[int, int], list[list[str]]]


def _plain_columns(columns: Sequence[Sequence[str]]) -> str | None:
    """The text ``csv.writer(lineterminator="\\n")`` writes for the rows
    ``zip(*columns)`` when no cell needs quoting: every cell is a ``str``
    without ``,``, ``"``, ``\\r`` or ``\\n``, and no row is a lone empty
    cell. ``None`` otherwise."""
    try:
        cells = "".join(map("".join, columns))
    except TypeError:
        return None
    if any(mark in cells for mark in ',"\r\n') or len(columns) == 1 and "" in columns[0]:
        return None
    # Cell, ",", cell, ..., cell, "\n": every other item is a separator.
    width, rows = 2 * len(columns), len(columns[0])
    items = [","] * (width * rows)
    for j, column in enumerate(columns):
        items[2 * j::width] = column
    items[width - 1::width] = ["\n"] * rows
    return "".join(items)


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]] | CsvColumns
) -> Path:
    """Write ``header`` and ``rows``, rows of cells or :class:`CsvColumns`,
    as the bytes of ``csv.writer(lineterminator="\\n")``. Rows go straight to
    it; columns are taken ``_CSV_BATCH_ROWS`` rows at a time, and a batch in
    which no cell needs quoting is laid out as text (see
    :func:`_plain_columns`)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if not isinstance(rows, CsvColumns):
            writer.writerows(rows)
            return path
        for start in range(0, rows.size, _CSV_BATCH_ROWS):
            columns = rows.cells(start, start + _CSV_BATCH_ROWS)
            text = _plain_columns(columns)
            if text is None:
                writer.writerows(zip(*columns))
            else:
                handle.write(text)
    return path


def rejection_columns(
    rejected: Iterable[RejectedDay], *more: Iterable[RejectedDay]
) -> CsvColumns:
    """The cells of ``rejections.csv`` as :class:`CsvColumns`, read a batch
    at a time from the columns of the rejections given, tables or iterables
    of :class:`RejectedDay`. Several are written in one stable order of
    their rows, ties in the order given, a lone one as it stands; a batch
    gathers from each table only the four columns written, with no joined
    copy."""
    import numpy as np

    from .diary import NO_ROW, REASONS, RejectionTable

    tables = [RejectionTable.from_rejected(item) for item in (rejected, *more)]
    starts = np.cumsum([0, *map(len, tables)])
    order = np.argsort(np.concatenate([t.rows for t in tables]), kind="stable") if more else None
    reasons = np.array([reason.value for reason in REASONS], dtype=object)

    def cells(start: int, stop: int) -> list[list[str]]:
        at = np.arange(start, min(stop, starts[-1])) if order is None else order[start:stop]
        which = np.searchsorted(starts, at, side="right") - 1
        columns = [np.empty(len(at), t) for t in (np.int64, object, object, np.int8)]
        for k, table in enumerate(tables):
            # take and put copy an object column's entries faster than a mask.
            mine = np.flatnonzero(which == k)
            index = at[mine] - starts[k]
            parts = (table.rows, table.participant_ids, table.dates, table.reasons)
            for column, part in zip(columns, parts):
                column.put(mine, part.take(index))
        rows, ids, dates, codes = columns
        texts = list(map(str, rows.tolist()))
        for i in np.flatnonzero(rows == NO_ROW).tolist():
            texts[i] = ""
        return [texts, ids.tolist(), dates.tolist(), reasons[codes].tolist()]

    return CsvColumns(int(starts[-1]), cells)


def rejection_rows(rejected: Iterable[RejectedDay]) -> list[list[str]]:
    """The cells of ``rejections.csv``, a list per row (see :func:`rejection_columns`)."""
    columns = rejection_columns(rejected)
    return list(map(list, zip(*columns.cells(0, columns.size))))


def profile_rows(profiles: Mapping[DayType, DayTypeProfile]) -> list[list[str]]:
    rows = []
    for day_type, profile in profiles.items():
        rows.append([day_type.value, "day_count", "days", str(profile.day_count)])
        for metric, keys in PROFILE_MAPS:
            values = getattr(profile, metric)
            rows += [[day_type.value, metric, key.value, repr(values[key])] for key in keys]
    return rows


def plot_rows(profiles: Mapping[DayType, DayTypeProfile]) -> list[list[str]]:
    """Stacked-bar friendly shape: one series per figure-style panel, named
    as its profile map without ``mean_``; day_count has no series."""
    return [
        [day_type, metric.removeprefix("mean_"), key, value]
        for day_type, metric, key, value in profile_rows(profiles)
        if metric != "day_count"
    ]


def delta_to_dict(delta: EnergyDelta) -> dict:
    return {
        "baseline": delta.baseline.value,
        "facility_mj": delta.facility_mj,
        "equipment_mj": delta.equipment_mj,
        "travel_mj": delta.travel_mj,
        "net_mj": delta.net_mj,
    }


def delta_rows(deltas: Iterable[EnergyDelta]) -> list[list[str]]:
    """The cells of ``DELTA_HEADER``; every cell after the baseline is a
    float's ``repr``."""
    components = DELTA_HEADER[1:]
    return [
        [delta.baseline.value, *(repr(getattr(delta, name)) for name in components)]
        for delta in deltas
    ]


def scenario_delta_to_dict(delta: EnergyDelta) -> dict:
    """:func:`delta_to_dict` with the credit."""
    return {**delta_to_dict(delta), "credit_mj": delta.credit_mj}


def _sweep_columns(
    result: SweepResult, start: int = 0, stop: int | None = None
) -> list[list[str]]:
    """The ``repr`` of each value, facility, credit and net MJ of the points
    ``start:stop``, a column each."""
    columns = (result.values, result.facility_mj, result.credit_mj, result.net_mj)
    return [list(map(repr, column[start:stop])) for column in columns]


def sweep_rows(result: SweepResult) -> list[tuple[str, ...]]:
    """One row per point; every cell after the parameter is a float's
    ``repr``."""
    value, facility, credit, net = _sweep_columns(result)
    equipment, travel = repeat(repr(result.equipment_mj)), repeat(repr(result.travel_mj))
    return list(zip(repeat(result.parameter), value, facility, equipment, travel, credit, net))


def sweep_to_dict(result: SweepResult) -> dict:
    """The sweep document as plain values: what
    :func:`.sweep_writer.write_sweep` lays out. A point of a sweep with a
    weekly net also gives its value under the parameter's name, as the days."""
    points = [{"value": value, **scenario_delta_to_dict(delta)} for value, delta in result.points]
    if result.weekly_net_mj is not None:
        for point, weekly in zip(points, result.weekly_net_mj):
            point.update({result.parameter: point["value"], "weekly_net_mj": weekly})
    return {"parameter": result.parameter, "points": points}


def base_report(command: str, config: AppConfig, version: str, inputs: Mapping[str, str]) -> dict:
    return {
        "tool": {"name": "telework-impact", "version": version},
        "command": command,
        "config_fingerprint": config.fingerprint,
        "inputs": dict(inputs),
    }


def input_summary(
    diary_path: str | Path,
    parsed_count: int,
    kept_count: int,
    rejected: Iterable[RejectedDay],
    *more: Iterable[RejectedDay],
) -> dict:
    """The ``input_summary`` section of a report: the rows parsed, the days
    kept and the rejections given, tables or iterables of
    :class:`RejectedDay` as :func:`rejection_columns` takes them, counted
    by reason without being joined."""
    import numpy as np

    from .diary import REASONS, RejectionTable

    tables = [RejectionTable.from_rejected(item) for item in (rejected, *more)]
    counts = sum(np.bincount(table.reasons, minlength=len(REASONS)) for table in tables).tolist()
    return {
        "diaries": str(diary_path),
        "rows_parsed": parsed_count,
        "kept": kept_count,
        "rejected": sum(map(len, tables)),
        "rejected_by_reason": {r.value: n for r, n in zip(REASONS, counts) if n},
    }


def profiles_section(profiles: Mapping[DayType, DayTypeProfile]) -> dict:
    return profiles_to_dict(profiles)


def write_run_info(out_dir: str | Path) -> Path:
    """Sidecar with wall-clock metadata, excluded from determinism checks."""
    payload = {
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    }
    return write_json(Path(out_dir) / RUN_INFO_FILENAME, payload)
