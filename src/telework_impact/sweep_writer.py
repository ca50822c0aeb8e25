"""The files and console text of the ``sweep`` command, which alone
imports this module.

A sweep's points are rendered in blocks (see :func:`write_sweep`). A large
sweep is rendered in two processes: a child forked through :mod:`.forked`
renders blocks of points from the back while this process renders them
from the front, and only this process writes. The files and console text
are those of a render in one process. ``report.json`` is written through
:func:`.report.write_json`, looked up on :mod:`.report` at each call.
"""

from __future__ import annotations

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
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from . import report as rpt
from .report import SWEEP_HEADER, _sweep_columns

if TYPE_CHECKING:
    from .scenario import SweepResult

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
    ``json.dumps(rpt.sweep_to_dict(result), indent=2, sort_keys=True)``,
    laid out from the cells, exactly: a point has fixed keys and only finite floats
    besides its baseline, and ``json`` renders a finite float with
    ``float.__repr__``, as the cells do. ``report.json`` is ``json.dumps``
    of ``report`` with a ``None`` sweep, cut at that member and joined
    around the document's pieces, which ``rpt.write_json`` writes.
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
        rpt.write_json(out_dir / "report.json", chain([head + slot], member, [tail]))
