"""Reading a large diary file in two processes.

:func:`parse` cuts a diary file just after the first ``\\n`` from its
middle. A forked child reads the lines after the cut while the parent reads
those before, each into a part (:func:`.diary._read_range`). The child sends
its part through a pipe, a pickle of all but the columns and then their raw
bytes, and exits; the parent appends the columns to its own in bounded
blocks and merges the two parts (:func:`.diary._merge`). Both processes
read the one file that the parent opened, by positional reads, so a file
renamed over the path meanwhile is not read. The result is
that of a read in one process, which the parent makes itself where a fork is
not safe, the cut falls inside a quoted record, or the child fails.

:mod:`.diary` imports this module only for a file of at least
:data:`.diary.SPLIT_MIN_BYTES`, so that other runs do not load it.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
from array import array
from dataclasses import replace
from typing import IO, Iterator, NoReturn

from . import diary

#: Bytes after a file's middle in which the cut between its two ranges is
#: looked for.
_CUT_WINDOW = 1 << 16
#: Largest block of a child's columns that the parent reads from the pipe
#: at once.
_PIPE_BLOCK = 1 << 20


def parse(raw: IO[bytes]) -> tuple[diary.DiaryTable, diary.RejectionTable]:
    """Table and rejections of the diary file open as ``raw``, read in two
    processes where :func:`_fork_is_safe` allows it and the file has a cut."""
    # Imported before the fork, so that the child need not import it, and
    # before the thread count is taken, since numpy may start BLAS threads.
    import numpy  # noqa: F401

    fd = raw.fileno()
    cut = _cut(fd, os.fstat(fd).st_size) if _fork_is_safe() else None
    if cut is None:
        return diary.parse_diary_file(raw)
    return read_split(fd, cut, fork=True)


def _fork_is_safe() -> bool:
    """Whether this process may fork a child that reads: it can fork, may
    run on two CPUs or more, and has one thread, since a fork copies only
    the thread that calls it."""
    try:
        return (
            hasattr(os, "fork")
            and len(os.sched_getaffinity(0)) >= 2
            and len(os.listdir("/proc/self/task")) == 1
        )
    except (AttributeError, OSError):
        return False


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
    tail = pid = None
    if fork:
        receiver, sender = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(receiver)
        if pid == 0:
            _read_in_child(fd, cut, receiver, sender)
        os.close(sender)
    try:
        head = diary._read_range(text, first_row, pull)
        if pid is not None and limited.end is not None:
            with open(receiver, "rb", closefd=False) as pipe:
                tail = _receive(pipe, head.columns)
    finally:
        if pid is not None:
            if tail is None:
                # The child's part will not be taken: stop it reading on.
                os.kill(pid, signal.SIGKILL)
            os.close(receiver)
            os.waitpid(pid, 0)
    if tail is None and limited.end is not None:
        limited.end = None
        tail = diary._read_range(text, 1)
    return diary._merge(head, tail)


def _read_in_child(fd: int, cut: int, receiver: int, sender: int) -> NoReturn:
    """In a forked child: read the range of the file ``fd`` from byte ``cut``
    on, send its part through the pipe ``sender`` and leave by ``os._exit``,
    whatever happens."""
    status = 1
    try:
        os.close(receiver)
        text = io.TextIOWrapper(_Range(fd, cut, None), encoding="utf-8", newline="")
        part = diary._read_range(text, 1)
        with open(sender, "wb") as pipe:
            pickled = pickle.dumps(
                (replace(part, columns=None), [len(column) for column in part.columns]),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            pipe.write(pickled)
            for column in part.columns:
                pipe.write(column)
        status = 0
    finally:
        os._exit(status)


def _receive(pipe: IO[bytes], columns: tuple[array, ...]) -> diary._Part | None:
    """The part a child sent through ``pipe``, its columns appended to
    ``columns`` in blocks of at most :data:`_PIPE_BLOCK` bytes; None, with
    ``columns`` as they were, if the child failed before it sent it all."""
    sizes = [len(column) for column in columns]
    try:
        part, counts = pickle.load(pipe)
        for column, items in zip(columns, counts):
            left = items * column.itemsize
            while left:
                block = pipe.read(min(left, _PIPE_BLOCK))
                if len(block) != min(left, _PIPE_BLOCK):
                    raise EOFError("the child's part ends early")
                column.frombytes(block)
                left -= len(block)
    except (EOFError, pickle.UnpicklingError):
        for column, size in zip(columns, sizes):
            del column[size:]
        return None
    return part
