"""A forked child that takes a share of this process's work.

The two-process diary read (:mod:`.split_read`) and the sweep writer
(:func:`.sweep_writer.write_sweep`) fork a child through :func:`start` where
:func:`fork_is_safe` allows it. The child moves off the parent's CPU, runs
its work, writes what it makes to a pipe, and leaves by ``os._exit``: it
never returns into the caller's code, runs no ``atexit`` handler and flushes
no buffer it inherited. The pipe holds :data:`PIPE_BLOCK` bytes where the
system allows it, so that a child done first has written that much ahead.
:meth:`Child.stop` kills and reaps the child, whether it has finished or
not.

This module imports no numpy, and its callers import it only when they may
fork, so that other runs do not load it.
"""

from __future__ import annotations

import os
from typing import Callable

#: Size asked for the pipe a child writes to; :mod:`.split_read` reads the
#: child's columns from it in blocks of at most this size.
PIPE_BLOCK = 1 << 20


def fork_is_safe() -> bool:
    """Whether this process may fork a child that works beside it: it can
    fork, may run on two CPUs or more, and has one thread, since a fork
    copies only the thread that calls it."""
    try:
        return (
            hasattr(os, "fork")
            and len(os.sched_getaffinity(0)) >= 2
            and len(os.listdir("/proc/self/task")) == 1
        )
    except (AttributeError, OSError):
        return False


class Child:
    """A forked child and the read end, ``receiver``, of the pipe it writes to."""

    def __init__(self, pid: int, receiver: int):
        self.pid: int | None = pid
        self.receiver = receiver

    def stop(self) -> None:
        """Close the pipe and reap the child, killed first unless it has
        left. Once stopped, a child is not stopped again."""
        if self.pid is None:
            return
        os.close(self.receiver)
        if os.waitpid(self.pid, os.WNOHANG)[0] == 0:
            # Imported here, as only a child whose work is not taken is
            # killed: the module takes ~1 ms to import.
            from signal import SIGKILL

            os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
        self.pid = None


def start(work: Callable[[int], object]) -> Child | None:
    """Fork a child that calls ``work`` with the write end of a new pipe and
    then leaves by ``os._exit``, with status 0 once ``work`` returns and 1 if
    it raises; None if the fork fails.

    The child first leaves the CPU this process runs on (see
    :func:`_leave_cpu`)."""
    cpu = _cpu()
    receiver, sender = os.pipe()
    _enlarge(sender)
    try:
        pid = os.fork()
    except OSError:
        os.close(receiver)
        os.close(sender)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(receiver)
            _leave_cpu(cpu)
            work(sender)
            status = 0
        finally:
            os._exit(status)
    os.close(sender)
    return Child(pid, receiver)


def _cpu() -> int | None:
    """The CPU this process runs on, from ``/proc/self/stat`` (Linux); None
    where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            # Field 39; the command name, field 2, may hold spaces.
            return int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Let this process run on any CPU it may use but ``cpu``, where there
    is one. A child forked on its parent's CPU is often left there for the
    whole of a short task, so that the two share one CPU while another
    idles: half of the forks of a 25 ms task on a 2-CPU host."""
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (AttributeError, OSError):
        pass


def _enlarge(pipe: int) -> None:
    """Let the pipe written through ``pipe`` hold :data:`PIPE_BLOCK` bytes
    where the system allows it (Linux); the default size only costs time."""
    try:
        import fcntl

        fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, PIPE_BLOCK)
    except (ImportError, AttributeError, OSError):
        pass
