"""Reading a large diary file in two processes.

:func:`parse` cuts a diary file just after the first ``\\n`` from its
middle. A forked child reads the lines after the cut while the parent reads
those before, each into a part (:func:`.diary._read_range`). The child,
forked through :mod:`.forked`, sends its part through a pipe, the raw bytes
of its columns and then a pickle of the rest, and exits; the parent appends
the columns to its own in bounded blocks, merges the two parts
(:func:`.diary._merge`) and only then reaps the child. Both processes read
the one file that the parent opened, by positional reads, so a file renamed
over the path meanwhile is not read. The result is that of a read in one
process, which the parent makes itself where a fork is not safe, the cut
falls inside a quoted record, or the child fails.

:mod:`.diary` imports this module only for a file of at least
:data:`.diary.SPLIT_MIN_BYTES`, so that other runs do not load it.
"""

from __future__ import annotations

import io
import os
import pickle
from array import array
from dataclasses import replace
from functools import partial
from typing import IO, Iterator

from . import diary, forked

#: Bytes after a file's middle in which the cut between its two ranges is
#: looked for.
_CUT_WINDOW = 1 << 16


def parse(raw: IO[bytes]) -> tuple[diary.DiaryTable, diary.RejectionTable]:
    """Table and rejections of the diary file open as ``raw``, read in two
    processes where :func:`.forked.fork_is_safe` allows it and the file has a
    cut."""
    fd = raw.fileno()
    cut = _cut(fd, os.fstat(fd).st_size) if forked.fork_is_safe() else None
    if cut is None:
        return diary.parse_diary_file(raw)
    return read_split(fd, cut, fork=True)


def _cut(fd: int, size: int) -> int | None:
    """Offset just after the first ``\\n`` from the middle of the file of
    ``size`` bytes open as ``fd``, which starts a line; None if there is none
    within :data:`_CUT_WINDOW` bytes, or no byte follows it."""
    end = os.pread(fd, _CUT_WINDOW, size // 2).find(b"\n")
    cut = size // 2 + end + 1
    return cut if end >= 0 and cut < size else None


class _Range(io.RawIOBase):
    """The bytes of the file open as ``fd`` from byte ``position`` up to
    byte ``end``, or up to the file's end once ``end`` is None. Positional
    reads leave the offset of ``fd``, which a forked child shares, alone."""

    def __init__(self, fd: int, position: int, end: int | None):
        self.fd, self.position, self.end = fd, position, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        view = memoryview(buffer)
        if self.end is not None:
            view = view[:self.end - self.position]
        read = os.preadv(self.fd, [view], self.position)
        self.position += read
        return read


def _lines_past(text: IO[str], limited: _Range) -> Iterator[str]:
    """The lines of ``text``, which reads ``limited``. Only a record left
    open by a pass's last line pulls from it, so lines that run out here end
    the range inside a record: the range is lifted, and they go on to the
    end of the file."""
    yield from text
    limited.end = None
    yield from text


def read_split(
    fd: int, cut: int, fork: bool = False
) -> tuple[diary.DiaryTable, diary.RejectionTable]:
    """Table and rejections of the diary file open as ``fd``, read as the
    ranges before and after byte ``cut``, which starts a line; the same as a
    read in one range.

    With ``fork``, a forked child reads the second range while this process
    reads the first. If the first range ends inside a quoted record, this
    process reads on to the end of the file and drops the child's part;
    without ``fork``, or without a child, or if the child fails, it reads
    the second range after the first.
    """
    limited = _Range(fd, 0, cut)
    text = io.TextIOWrapper(limited, encoding="utf-8-sig", newline="")
    pull = _lines_past(text, limited)
    first_row = diary._read_header(text, pull) + 1
    tail = None
    child = forked.start(partial(_read_in_child, fd, cut)) if fork else None
    try:
        head = diary._read_range(text, first_row, pull)
        if child is not None and limited.end is not None:
            with open(child.receiver, "rb", closefd=False) as pipe:
                tail = _receive(pipe, head.columns)
    finally:
        if child is not None and tail is None:
            # The child's part will not be taken: stop it reading on.
            child.stop()
    if tail is None and limited.end is not None:
        limited.end = None
        tail = diary._read_range(text, 1)
    try:
        return diary._merge(head, tail)
    finally:
        # A child that sent its part leaves while the parts are merged.
        if child is not None:
            child.stop()


def _read_in_child(fd: int, cut: int, sender: int) -> None:
    """In the forked child: read the range of the file ``fd`` from byte
    ``cut`` on and send its part through the pipe ``sender``."""
    text = io.TextIOWrapper(_Range(fd, cut, None), encoding="utf-8", newline="")
    part = diary._read_range(text, 1)
    # One text of the ids pickles and loads in a fraction of the time of a
    # list, where no id holds the newline that joins them.
    ids = "\n".join(part.ids)
    if ids.count("\n") != len(part.ids) - 1:
        ids = list(part.ids)
    rest = replace(part, columns=None, ids=ids, dates=list(part.dates))
    pickled = pickle.dumps(rest, protocol=pickle.HIGHEST_PROTOCOL)
    with open(sender, "wb") as pipe:
        pipe.write(array("q", [*map(len, part.columns), len(pickled)]))
        for column in part.columns:
            pipe.write(column)
        pipe.write(pickled)


def _receive(pipe: IO[bytes], columns: tuple[array, ...]) -> diary._Part | None:
    """The part a child sent through ``pipe``, its columns appended to
    ``columns`` in blocks of at most :data:`.forked.PIPE_BLOCK` bytes; None,
    with ``columns`` as they were, if the child failed before it sent it all."""
    sizes = [len(column) for column in columns]
    try:
        *counts, pickled = array("q", _read(pipe, (len(columns) + 1) * array("q").itemsize))
        for column, items in zip(columns, counts):
            left = items * column.itemsize
            while left:
                block = _read(pipe, min(left, forked.PIPE_BLOCK))
                column.frombytes(block)
                left -= len(block)
        part = pickle.loads(_read(pipe, pickled))
    except (EOFError, pickle.UnpicklingError):
        for column, size in zip(columns, sizes):
            del column[size:]
        return None
    if isinstance(part.ids, str):
        part.ids = part.ids.split("\n")
    return part


def _read(pipe: IO[bytes], size: int) -> bytes:
    """The next ``size`` bytes of ``pipe``; EOFError if it ends first."""
    block = pipe.read(size)
    if len(block) != size:
        raise EOFError("the child's part ends early")
    return block
