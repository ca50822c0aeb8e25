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
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
    """JSON text laid out the way :func:`write_json` lays out a value, so
    that one text can be written as a file of its own and embedded in a
    report."""

    def __init__(self, text: str):
        self.text = text


def encode_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, where ``payload``
    may be an :class:`EncodedJson`, which stands for the value its text
    encodes, or a dict with string keys that holds some as members.

    A member's text is spliced in re-indented by two spaces. That is exact
    when every raw newline of the text is structural, as in the output of
    ``json.dumps`` (which escapes newlines inside strings) and of
    :func:`sweep_json`.
    """
    if isinstance(payload, EncodedJson):
        return payload.text
    if not (
        isinstance(payload, dict) and any(isinstance(v, EncodedJson) for v in payload.values())
    ):
        return json.dumps(payload, indent=2, sort_keys=True)
    members = (
        f"\n  {json.dumps(key)}: " + encode_json(value).replace("\n", "\n  ")
        for key, value in sorted(payload.items())
    )
    return "{" + ",".join(members) + "\n}"


def write_json(path: str | Path, payload) -> Path:
    path = Path(path)
    path.write_text(encode_json(payload) + "\n", encoding="utf-8")
    return path


#: Rows per batch of :func:`write_csv`; bounds the text held at once.
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
    payload = {
        "baseline": delta.baseline.value,
        "facility_mj": delta.facility_mj,
        "equipment_mj": delta.equipment_mj,
        "travel_mj": delta.travel_mj,
        "credit_mj": delta.credit_mj,
        "net_mj": delta.net_mj,
    }
    if cw_days_per_week is not None:
        payload["cw_days_per_week"] = cw_days_per_week
        payload["weekly_net_mj"] = weekly_net_mj(delta, cw_days_per_week)
    return payload


def sweep_rows(result: SweepResult) -> list[list[str]]:
    """One row per point; every cell after the parameter is a float."""
    return [
        [
            result.parameter,
            repr(value),
            repr(delta.facility_mj),
            repr(delta.equipment_mj),
            repr(delta.travel_mj),
            repr(delta.credit_mj),
            repr(delta.net_mj),
        ]
        for value, delta in result.points
    ]


#: Day type -> its JSON string, so that no point needs ``json.dumps``.
_BASELINE_JSON = {day_type: json.dumps(day_type.value) for day_type in DayType}


def sweep_json(result: SweepResult, rows: Sequence[Sequence[str]]) -> str:
    """``json.dumps(sweep_to_dict(result), indent=2, sort_keys=True)``, laid
    out from the cells of ``rows = sweep_rows(result)``.

    Exact by construction: a point has fixed keys and only finite floats
    besides its baseline, and ``json`` renders a finite float with
    ``float.__repr__``, as ``sweep_rows`` does.
    """
    names = [*SWEEP_HEADER[1:], "baseline"]
    weekly = result.parameter == "cw_days_per_week"
    if weekly:
        names += ["cw_days_per_week", "weekly_net_mj"]
    fields = ",\n".join(f"      {json.dumps(n)}: {{{names.index(n)}}}" for n in sorted(names))
    point = "    {{\n" + fields + "\n    }}"
    texts = []
    for (value, delta), row in zip(result.points, rows):
        cells = [*row[1:], _BASELINE_JSON[delta.baseline]]
        if weekly:
            cells += [row[1], repr(weekly_net_mj(delta, value))]
        texts.append(point.format(*cells))
    head = f'{{\n  "parameter": {json.dumps(result.parameter)},\n  "points": [\n'
    return head + ",\n".join(texts) + "\n  ]\n}"


def sweep_to_dict(result: SweepResult) -> dict:
    """The sweep document as plain values: what :func:`sweep_json` lays out."""
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
