"""Reading a large diary file in two processes.

:func:`parse` cuts a diary file just after the first ``\\n`` from its
middle. A forked child reads the lines after the cut while the parent reads
those before, each into a part (:func:`.diary._read_range`). The child sends
its part through a pipe, the raw bytes of its columns and then a pickle of
the rest, and exits; the parent appends the columns to its own in bounded
blocks, merges the two parts (:func:`.diary._merge`) and only then waits
for the child's exit. The pipe holds :data:`_PIPE_BLOCK` bytes where the
system allows it, so that a child done first has written that much ahead.
Both processes read the one file that the parent opened, by positional
reads, so a file renamed over the path meanwhile is not read. The result is
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
#: at once, and the size asked for the pipe.
_PIPE_BLOCK = 1 << 20


def parse(raw: IO[bytes]) -> tuple[diary.DiaryTable, diary.RejectionTable]:
    """Table and rejections of the diary file open as ``raw``, read in two
    processes where :func:`_fork_is_safe` allows it and the file has a cut."""
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
        _enlarge(sender)
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
            os.close(receiver)
            if tail is None:
                # The child's part will not be taken: stop it reading on.
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pid = None
    if tail is None and limited.end is not None:
        limited.end = None
        tail = diary._read_range(text, 1)
    try:
        return diary._merge(head, tail)
    finally:
        # A child that sent its part exits while the parts are merged.
        if pid is not None:
            os.waitpid(pid, 0)


def _enlarge(pipe: int) -> None:
    """Let the pipe written through ``pipe`` hold :data:`_PIPE_BLOCK` bytes
    where the system allows it (Linux); the default size only costs time."""
    try:
        import fcntl

        fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, _PIPE_BLOCK)
    except (ImportError, AttributeError, OSError):
        pass


def _read_in_child(fd: int, cut: int, receiver: int, sender: int) -> NoReturn:
    """In a forked child: read the range of the file ``fd`` from byte ``cut``
    on, send its part through the pipe ``sender`` and leave by ``os._exit``,
    whatever happens."""
    status = 1
    try:
        os.close(receiver)
        text = io.TextIOWrapper(_Range(fd, cut, None), encoding="utf-8", newline="")
        part = diary._read_range(text, 1)
        # One text of the ids pickles and loads in a fraction of the time of
        # a list, where no id holds the newline that joins them.
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
        status = 0
    finally:
        os._exit(status)


def _receive(pipe: IO[bytes], columns: tuple[array, ...]) -> diary._Part | None:
    """The part a child sent through ``pipe``, its columns appended to
    ``columns`` in blocks of at most :data:`_PIPE_BLOCK` bytes; None, with
    ``columns`` as they were, if the child failed before it sent it all."""
    sizes = [len(column) for column in columns]
    try:
        *counts, pickled = array("q", _read(pipe, (len(columns) + 1) * array("q").itemsize))
        for column, items in zip(columns, counts):
            left = items * column.itemsize
            while left:
                block = _read(pipe, min(left, _PIPE_BLOCK))
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
