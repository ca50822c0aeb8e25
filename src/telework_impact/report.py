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
from collections import Counter
from contextlib import ExitStack
from itertools import chain, islice, repeat
from operator import mul
from pathlib import Path
from string import Formatter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .aggregation import DayTypeProfile, profiles_to_dict
from .config import AppConfig
from .diary import RejectedDay, RejectReason
from .model import Activity, DayType, EnergyDelta, TransportMode
from .scenario import SweepResult, weekly_net_mj

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


def fmt(value) -> str:
    """Full-precision cell rendering; floats use shortest round-trip repr."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class EncodedJson:
    """JSON text laid out the way :func:`write_json` lays out a value, given
    as pieces that :func:`write_json` writes one at a time, so that a long
    text never has to be held whole. ``chunks`` may be an iterator, which
    is then consumed by the one write it is given to."""

    def __init__(self, chunks: Iterable[str]):
        self.chunks = chunks


def _json_pieces(payload) -> Iterator[str]:
    """The pieces of ``json.dumps(payload, indent=2, sort_keys=True)``, where
    ``payload`` may be an :class:`EncodedJson`, which stands for the value
    its pieces encode, or a dict with string keys that holds some as
    members.

    A member's pieces are spliced in re-indented by two spaces, one piece
    at a time. That is exact when every raw newline of the text is
    structural, as in the output of ``json.dumps`` (which escapes newlines
    inside strings) and of :func:`write_sweep`.
    """
    if isinstance(payload, EncodedJson):
        yield from payload.chunks
    elif isinstance(payload, dict) and any(isinstance(v, EncodedJson) for v in payload.values()):
        opening = "{"
        for key, value in sorted(payload.items()):
            yield f"{opening}\n  {json.dumps(key)}: "
            for piece in _json_pieces(value):
                yield piece.replace("\n", "\n  ")
            opening = ","
        yield "\n}"
    else:
        yield json.dumps(payload, indent=2, sort_keys=True)


def write_json(path: str | Path, payload) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_json_pieces(payload))
        handle.write("\n")
    return path


#: Rows per batch of :func:`write_csv` and points per batch of
#: :func:`write_sweep`; bounds the text held at once.
_CSV_BATCH_ROWS = 4096


def _plain_csv(rows: list[Sequence[str]]) -> str | None:
    """The text ``csv.writer(lineterminator="\\n")`` writes for ``rows`` when
    no cell needs quoting: every row has a cell, every cell is a ``str``
    without ``,``, ``"``, ``\\r`` or ``\\n``, and no row is a lone empty cell
    (which the writer quotes). ``None`` otherwise."""
    try:
        separators = sum(map(len, rows)) - len(rows)
        lines = list(map(",".join, rows))
    except TypeError:
        return None
    if not all(rows) or "" in lines:
        return None
    text = "\n".join(lines) + "\n"
    # Each row gives len(row) - 1 commas and one newline; any more sit in cells.
    if text.count(",") != separators or text.count("\n") != len(lines):
        return None
    if '"' in text or "\r" in text:
        return None
    return text


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> Path:
    """Write ``header`` and ``rows`` as the bytes of
    ``csv.writer(lineterminator="\\n")``: a batch of rows in which no cell
    needs quoting is laid out as text (see :func:`_plain_csv`), any other
    goes through ``csv.writer``."""
    path = Path(path)
    rows = chain([header], rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        while batch := list(islice(rows, _CSV_BATCH_ROWS)):
            text = _plain_csv(batch)
            if text is None:
                writer.writerows(batch)
            else:
                handle.write(text)
    return path


#: Reason -> its CSV cell, so that no rejection reads the Enum ``value``.
_REASON_VALUES = {reason: reason.value for reason in RejectReason}


def rejection_rows(rejected: Iterable[RejectedDay]) -> list[list[str]]:
    return [
        [
            "" if item.row is None else str(item.row),
            item.participant_id,
            item.date,
            _REASON_VALUES[item.reason],
        ]
        for item in rejected
    ]


def profile_rows(profiles: Mapping[DayType, DayTypeProfile]) -> list[list[str]]:
    rows = []
    for day_type, profile in profiles.items():
        rows.append([day_type.value, "day_count", "days", str(profile.day_count)])
        for activity in Activity:
            rows.append(
                [
                    day_type.value,
                    "mean_activity_minutes",
                    activity.value,
                    fmt(profile.mean_activity_minutes[activity]),
                ]
            )
        for mode in TransportMode:
            rows.append(
                [
                    day_type.value,
                    "mean_mode_minutes",
                    mode.value,
                    fmt(profile.mean_mode_minutes[mode]),
                ]
            )
        for mode in TransportMode:
            rows.append(
                [day_type.value, "mode_share", mode.value, fmt(profile.mode_share[mode])]
            )
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
    return [
        [
            delta.baseline.value,
            fmt(delta.facility_mj),
            fmt(delta.equipment_mj),
            fmt(delta.travel_mj),
            fmt(delta.net_mj),
        ]
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
    file's whole text is held; only ``report.json`` passes through
    :func:`write_json`. The document is ``json.dumps(sweep_to_dict(result),
    indent=2, sort_keys=True)``, laid out from the cells, exactly: a point
    has fixed keys and only finite floats besides its baseline, and
    ``json`` renders a finite float with ``float.__repr__``, as the cells do.
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
        member = EncodedJson(_sweep_pieces(result, table, document, on_batch))
        write_json(out_dir / "report.json", {**report, "sweep": member})


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
    rejected: Sequence[RejectedDay],
) -> dict:
    counts = Counter(item.reason for item in rejected)
    by_reason = {reason.value: count for reason, count in counts.items()}
    return {
        "diaries": str(diary_path),
        "rows_parsed": parsed_count,
        "kept": kept_count,
        "rejected": len(rejected),
        "rejected_by_reason": by_reason,
    }


def profiles_section(profiles: Mapping[DayType, DayTypeProfile]) -> dict:
    return profiles_to_dict(profiles)


def write_run_info(out_dir: str | Path) -> Path:
    """Sidecar with wall-clock metadata, excluded from determinism checks."""
    payload = {
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    }
    return write_json(Path(out_dir) / RUN_INFO_FILENAME, payload)
