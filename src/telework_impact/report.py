"""Deterministic CSV/JSON artifact writers.

All machine artifacts carry full float precision (shortest round-trip repr)
and contain no timestamps, so identical inputs produce byte-identical files.
Wall-clock metadata goes into a separate sidecar file that is excluded from
any comparison.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
from collections.abc import Iterator
from contextlib import ExitStack
from itertools import chain, repeat
from operator import mul
from pathlib import Path
from string import Formatter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .aggregation import DayTypeProfile, profiles_to_dict
from .config import AppConfig
from .model import Activity, DayType, EnergyDelta, TransportMode
from .scenario import SweepResult, weekly_net_mj

if TYPE_CHECKING:
    from .diary import RejectedDay

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
    (see :func:`write_sweep`)."""
    path = Path(path)
    if not isinstance(payload, Iterator):
        payload = [json.dumps(payload, indent=2, sort_keys=True)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(payload)
        handle.write("\n")
    return path


#: Rows per batch of :func:`write_csv` and points per batch of
#: :func:`write_sweep`; bounds the text held at once.
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


def rejection_columns(rejected: Iterable[RejectedDay]) -> CsvColumns:
    """The cells of ``rejections.csv`` as :class:`CsvColumns`, read from a
    :class:`RejectionTable`'s columns a batch at a time."""
    import numpy as np

    from .diary import NO_ROW, REASONS, RejectionTable

    table = RejectionTable.from_rejected(rejected)
    reasons = np.array([reason.value for reason in REASONS], dtype=object)

    def cells(start: int, stop: int) -> list[list[str]]:
        rows = table.rows[start:stop]
        texts = list(map(str, rows.tolist()))
        for i in np.flatnonzero(rows == NO_ROW).tolist():
            texts[i] = ""
        return [
            texts,
            table.participant_ids[start:stop].tolist(),
            table.dates[start:stop].tolist(),
            reasons[table.reasons[start:stop]].tolist(),
        ]

    return CsvColumns(len(table), cells)


def rejection_rows(rejected: Iterable[RejectedDay]) -> list[list[str]]:
    """The cells of ``rejections.csv``, a list per row (see :func:`rejection_columns`)."""
    columns = rejection_columns(rejected)
    return list(map(list, zip(*columns.cells(0, columns.size))))


def profile_rows(profiles: Mapping[DayType, DayTypeProfile]) -> list[list[str]]:
    rows = []
    for day_type, profile in profiles.items():
        rows.append([day_type.value, "day_count", "days", str(profile.day_count)])
        for metric, keys, values in (
            ("mean_activity_minutes", Activity, profile.mean_activity_minutes),
            ("mean_mode_minutes", TransportMode, profile.mean_mode_minutes),
            ("mode_share", TransportMode, profile.mode_share),
        ):
            rows += [[day_type.value, metric, key.value, repr(values[key])] for key in keys]
    return rows


#: profile_rows metric -> plot_data.csv series; day_count has no series.
_PLOT_SERIES = {
    "mean_activity_minutes": "activity_minutes",
    "mean_mode_minutes": "mode_minutes",
    "mode_share": "mode_share",
}


def plot_rows(profiles: Mapping[DayType, DayTypeProfile]) -> list[list[str]]:
    """Stacked-bar friendly shape: one series per figure-style panel."""
    return [
        [day_type, _PLOT_SERIES[metric], key, value]
        for day_type, metric, key, value in profile_rows(profiles)
        if metric in _PLOT_SERIES
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


def scenario_delta_to_dict(delta: EnergyDelta, cw_days_per_week: float | None = None) -> dict:
    """:func:`delta_to_dict` with the credit, and the weekly net when
    ``cw_days_per_week`` is given."""
    payload = {**delta_to_dict(delta), "credit_mj": delta.credit_mj}
    if cw_days_per_week is not None:
        payload["cw_days_per_week"] = cw_days_per_week
        payload["weekly_net_mj"] = weekly_net_mj(delta, cw_days_per_week)
    return payload


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


def _templates(result: SweepResult) -> tuple[str, str]:
    """``str.format`` templates of one point's CSV line and of its entry in
    the sweep document, indented as it sits there and followed by ``,\\n``.
    They take the point's :func:`_sweep_columns` cells and, in the entry of
    a ``cw_days_per_week`` sweep, the weekly net's text (with the value
    again, as the days); what every point shares is laid in as text."""
    shared = repr(result.equipment_mj), repr(result.travel_mj)
    cells = dict(zip(SWEEP_HEADER[1:], ("{0}", "{1}", *shared, "{2}", "{3}")))
    line = ",".join([result.parameter, *cells.values()]) + "\n"
    cells["baseline"] = json.dumps(result.baseline.value)
    if result.parameter == "cw_days_per_week":
        cells.update(cw_days_per_week="{0}", weekly_net_mj="{4}")
    entry = ",\n".join(f"      {json.dumps(name)}: {cells[name]}" for name in sorted(cells))
    return line, "    {{\n" + entry + "\n    }},\n"


def _laid_out(template: str, columns: list[list[str]]) -> str:
    """``template`` formatted with each point's cells of ``columns``, all
    joined: one ``str.join``, where a ``format`` call per point takes ~5x
    as long."""
    streams = []
    for text, index, _, _ in Formatter().parse(template):
        streams += [repeat(text)] if index is None else [repeat(text), columns[int(index)]]
    return "".join(chain.from_iterable(zip(*streams)))


def _sweep_pieces(result: SweepResult, table, document, on_batch) -> Iterator[str]:
    """The text of the sweep document, one piece per batch of points. Each
    batch's values and nets also go to ``on_batch``, and its text to the
    open ``table`` (CSV) and ``document`` (JSON) files that are not
    ``None``, before the next batch is rendered."""
    line, entry = _templates(result)
    if table is not None:
        table.write(",".join(SWEEP_HEADER) + "\n")
    text = f'{{\n  "parameter": {json.dumps(result.parameter)},\n  "points": [\n'
    for start in range(0, len(result.values), _CSV_BATCH_ROWS):
        stop = start + _CSV_BATCH_ROWS
        # No cell needs CSV quoting: each is a supported parameter's name or
        # a float's repr.
        columns = _sweep_columns(result, start, stop)
        if table is not None:
            table.write(_laid_out(line, columns))
        values, nets = result.values[start:stop], result.net_mj[start:stop]
        if result.parameter == "cw_days_per_week":
            columns.append(list(map(repr, map(mul, values, nets))))
        text += _laid_out(entry, columns)[:-2]  # less the last ",\n"
        del columns  # so that no two batches' cells are alive at once
        if document is not None:
            document.write(text)
        on_batch(values, nets)
        yield text
        text = ",\n"
    text = "\n  ]\n}"
    if document is not None:
        document.write(text + "\n")
    yield text


def write_sweep(
    out_dir: str | Path,
    result: SweepResult,
    report: Mapping,
    formats: str,
    on_batch: Callable[[Sequence[float], Sequence[float]], None],
) -> None:
    """Write ``report.json``, which is ``report`` with the sweep document as
    its ``sweep`` member, and, as ``formats`` ("csv", "json" or "both")
    asks, ``sweep.csv`` and ``sweep.json``: one pass over the columns in
    batches of ``_CSV_BATCH_ROWS`` points, whose values and nets are handed
    to ``on_batch`` too.

    A batch's cells are rendered once, by :func:`_sweep_columns`, and no
    file's whole text is held. The document is
    ``json.dumps(sweep_to_dict(result), indent=2, sort_keys=True)``, laid out
    from the cells, exactly: a point has fixed keys and only finite floats
    besides its baseline, and ``json`` renders a finite float with
    ``float.__repr__``, as the cells do. ``report.json`` is ``json.dumps``
    of ``report`` with a ``None`` sweep, cut at that member and joined
    around the document's pieces, which :func:`write_json` writes.
    """
    out_dir = Path(out_dir)
    with ExitStack() as files:
        table = document = None
        if formats in ("csv", "both"):
            table = files.enter_context(
                open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="")
            )
        if formats in ("json", "both"):
            document = files.enter_context(open(out_dir / "sweep.json", "w", encoding="utf-8"))
        # The one line at two spaces' indent that reads so: a JSON string
        # escapes its quotes and newlines, and a nested member sits deeper.
        slot = '\n  "sweep": '
        text = json.dumps({**report, "sweep": None}, indent=2, sort_keys=True)
        head, _, tail = text.partition(slot + "null")
        # Every raw newline of the document is structural: indent it as a member.
        pieces = _sweep_pieces(result, table, document, on_batch)
        member = (piece.replace("\n", "\n  ") for piece in pieces)
        write_json(out_dir / "report.json", chain([head + slot], member, [tail]))


def sweep_to_dict(result: SweepResult) -> dict:
    """The sweep document as plain values: what :func:`write_sweep` lays out."""
    points = []
    for value, delta in result.points:
        days = value if result.parameter == "cw_days_per_week" else None
        entry = {"value": value, **scenario_delta_to_dict(delta, days)}
        points.append(entry)
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
) -> dict:
    import numpy as np

    from .diary import REASONS, RejectionTable

    table = RejectionTable.from_rejected(rejected)
    counts = np.bincount(table.reasons, minlength=len(REASONS)).tolist()
    return {
        "diaries": str(diary_path),
        "rows_parsed": parsed_count,
        "kept": kept_count,
        "rejected": len(table),
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
