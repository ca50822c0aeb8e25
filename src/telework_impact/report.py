"""Deterministic CSV/JSON artifact writers.

All machine artifacts carry full float precision (shortest round-trip repr)
and contain no timestamps, so identical inputs produce byte-identical files.
Wall-clock metadata goes into a separate sidecar file that is excluded from
any comparison.

A large sweep is rendered in two processes: a child forked through
:mod:`.forked` renders blocks of points from the back while this process
renders them from the front, and only this process writes (see
:func:`write_sweep`). The files and console text are those of a render in
one process.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import os
import struct
from collections.abc import Iterator
from contextlib import ExitStack
from functools import partial
from itertools import chain, repeat
from operator import mul
from pathlib import Path
from string import Formatter
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

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


#: Rows per batch of :func:`write_csv`; bounds the text held at once.
_CSV_BATCH_ROWS = 4096
#: Points per block of :func:`write_sweep`: what a process renders at once,
#: and what each claim takes where two processes render a sweep.
_SWEEP_BLOCK = 512
#: Most blocks of a sweep; past it, blocks grow. The pipe of claims holds a
#: byte per block, written before either process reads it, and a pipe holds
#: 4096 bytes at least.
_MAX_BLOCKS = 4096
#: Points from which :func:`write_sweep` renders in two processes, where
#: that is safe: about where the fork's fixed cost is won back on a 2-CPU
#: host.
SPLIT_MIN_POINTS = 4096


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


def _render_block(
    result: SweepResult,
    line: str | None,
    entry: str,
    echo: Callable[[Sequence[float], Sequence[float]], str],
    start: int,
    stop: int,
) -> tuple[str, str, str]:
    """The three texts of the points ``start:stop``: their lines of
    ``sweep.csv`` from the ``line`` template (none where it is None), their
    entries in the sweep document from ``entry``, joined by ``,\\n``, and
    ``echo`` of their values and nets, their console lines."""
    # No cell needs CSV quoting: each is a supported parameter's name or a
    # float's repr.
    columns = _sweep_columns(result, start, stop)
    table = "" if line is None else _laid_out(line, columns)
    values, nets = result.values[start:stop], result.net_mj[start:stop]
    if result.parameter == "cw_days_per_week":
        columns.append(list(map(repr, map(mul, values, nets))))
    return table, _laid_out(entry, columns)[:-2], echo(values, nets)


def _blocks(
    count: int, render: Callable[[int], tuple[str, str, str]], share: bool
) -> Iterator[tuple[str, str, str]]:
    """``render`` of the blocks ``0`` to ``count - 1``, in order.

    With ``share``, and where :func:`.forked.fork_is_safe` allows it, a
    forked child renders blocks too. A pipe holds a token per block: this
    process claims blocks from the front and the child from the back, a
    token a claim, so they meet wherever the slower one lets them. Once no
    token is left, the child's texts are passed on as they come (see
    :func:`_render_from_back`), and the blocks that a failed child did not
    send are rendered here. Without a child, every block is rendered here.
    """
    claims = child = None
    if share:
        from . import forked

        if forked.fork_is_safe():
            claims, tokens = os.pipe()
            os.write(tokens, bytes(count))
            os.close(tokens)
            child = forked.start(partial(_render_from_back, claims, count, render))
    done = 0
    try:
        if child is not None:
            while os.read(claims, 1):
                yield render(done)
                done += 1
            for texts in _received(child.receiver):
                yield texts
                done += 1
        while done < count:
            yield render(done)
            done += 1
    finally:
        if claims is not None:
            os.close(claims)
        if child is not None:
            child.stop()


#: The byte lengths of a block's three texts, ahead of them in the pipe.
_LENGTHS = struct.Struct("3q")


def _render_from_back(
    claims: int, count: int, render: Callable[[int], tuple[str, str, str]], sender: int
) -> None:
    """In the forked child: claim blocks from the back through the pipe
    ``claims``, one token each, and render them; once no token is left,
    send their texts through the pipe ``sender`` in file order, each
    block's three as their UTF-8 lengths and bytes."""
    rendered = []
    while os.read(claims, 1):
        rendered.append(render(count - 1 - len(rendered)))
    with open(sender, "wb") as pipe:
        for texts in reversed(rendered):
            encoded = [text.encode() for text in texts]
            pipe.write(_LENGTHS.pack(*map(len, encoded)))
            pipe.writelines(encoded)


def _received(receiver: int) -> Iterator[tuple[str, str, str]]:
    """The blocks' texts a child sent through the pipe ``receiver``, as they
    come, up to the first block it did not send whole."""
    with open(receiver, "rb", closefd=False) as pipe:
        while len(head := pipe.read(_LENGTHS.size)) == _LENGTHS.size:
            lengths = _LENGTHS.unpack(head)
            encoded = [pipe.read(length) for length in lengths]
            if tuple(map(len, encoded)) != lengths:
                return
            yield tuple(text.decode() for text in encoded)


def _sweep_pieces(
    parameter: str, blocks: Iterable[tuple[str, str, str]], table, document, console: IO[str]
) -> Iterator[str]:
    """The text of the sweep document, one piece per block of points. Each
    block's texts go to the open ``table`` (CSV) and ``document`` (JSON)
    files that are not ``None`` and to ``console`` before the next block is
    taken."""
    text = f'{{\n  "parameter": {json.dumps(parameter)},\n  "points": [\n'
    for lines, entries, echoed in blocks:
        if table is not None:
            table.write(lines)
        text += entries
        if document is not None:
            document.write(text)
        console.write(echoed)
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
    echo: Callable[[Sequence[float], Sequence[float]], str],
    console: IO[str],
) -> None:
    """Write ``report.json``, which is ``report`` with the sweep document as
    its ``sweep`` member, and, as ``formats`` ("csv", "json" or "both")
    asks, ``sweep.csv`` and ``sweep.json``; ``echo`` gives the console text
    of a block's values and nets, which goes to ``console``.

    The points are rendered in blocks of ``_SWEEP_BLOCK`` (at most
    ``_MAX_BLOCKS`` blocks), each once, by :func:`_render_block`; from
    :data:`SPLIT_MIN_POINTS` points and two blocks on, two processes render
    them (see :func:`_blocks`). Only this process writes, a block at a time
    in order, so no file's whole text is held here. The document is
    ``json.dumps(sweep_to_dict(result), indent=2, sort_keys=True)``, laid out
    from the cells, exactly: a point has fixed keys and only finite floats
    besides its baseline, and ``json`` renders a finite float with
    ``float.__repr__``, as the cells do. ``report.json`` is ``json.dumps``
    of ``report`` with a ``None`` sweep, cut at that member and joined
    around the document's pieces, which :func:`write_json` writes.
    """
    out_dir = Path(out_dir)
    size = len(result.values)
    block = max(_SWEEP_BLOCK, -(-size // _MAX_BLOCKS))
    count = -(-size // block)
    line, entry = _templates(result)
    if formats == "json":
        line = None

    def render(index: int) -> tuple[str, str, str]:
        return _render_block(result, line, entry, echo, index * block, (index + 1) * block)

    with ExitStack() as files:
        table = document = None
        if formats in ("csv", "both"):
            table = files.enter_context(
                open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="")
            )
            table.write(",".join(SWEEP_HEADER) + "\n")
        if formats in ("json", "both"):
            document = files.enter_context(open(out_dir / "sweep.json", "w", encoding="utf-8"))
        blocks = _blocks(count, render, count > 1 and size >= SPLIT_MIN_POINTS)
        files.callback(blocks.close)
        # The one line at two spaces' indent that reads so: a JSON string
        # escapes its quotes and newlines, and a nested member sits deeper.
        slot = '\n  "sweep": '
        text = json.dumps({**report, "sweep": None}, indent=2, sort_keys=True)
        head, _, tail = text.partition(slot + "null")
        # Every raw newline of the document is structural: indent it as a member.
        pieces = _sweep_pieces(result.parameter, blocks, table, document, console)
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
