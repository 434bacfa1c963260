"""A forked worker process: how ``report`` puts a second core to work.

Two pieces of ``report`` run in a forked child when the CDR file is large
enough (``ingest.FORK_BYTES``): the read of the second half of the CDR,
in ``ingest.read_cdr``, which sends back the reduction of its rows, not
the rows; and the ingest artifacts, written by ``cli.run_command`` while
the analysis stages run. Each worker runs the code the process would
otherwise run itself and sends what it made through a pipe; when a
worker fails, or sends less than it should, the parent does the work
itself. So a worker changes no result.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterator


@contextmanager
def forked(work: Callable[[BinaryIO], object]) -> Iterator[BinaryIO | None]:
    """Run ``work(pipe)`` in a forked child; yield the read end of ``pipe``.

    Yields None where ``os.fork`` is missing or fails; the caller then
    does the work itself. The child leaves by ``os._exit``, with status 0
    once ``work`` has returned and 1 on any exception, so it never
    returns into the caller's frames, flushes the parent's stdio buffers
    or runs ``atexit`` handlers. It must not call BLAS: the BLAS threads
    of the parent do not exist in it. It runs off the CPU its parent ran
    on when it was forked (see ``_leave_cpu``).

    Leaving the block closes the read end, kills the child and reaps it,
    on every path. So a child blocked on a full pipe, or one whose work
    is no longer wanted, can neither hang the parent nor outlive it.
    """
    if not hasattr(os, "fork"):
        yield None
        return
    cpu = _current_cpu()
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns when a process with threads forks; the
            # only other threads are BLAS's, which a worker never calls.
            warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            _leave_cpu(cpu)
            with open(write_end, "wb") as pipe:
                work(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    pipe = open(read_end, "rb")
    try:
        yield pipe
    finally:
        # Imported here: a run with no worker starts faster without it.
        from signal import SIGKILL
        pipe.close()
        os.kill(pid, SIGKILL)    # a zombie until reaped: never another's pid
        os.waitpid(pid, 0)


def _current_cpu() -> int | None:
    """The CPU this process runs on (Linux), else None."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # Field 39, counted after the command name in parentheses.
            return int(fh.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Keep this process off ``cpu`` where it may run elsewhere.

    Linux starts a forked child on its parent's CPU and moves it to an
    idle one only when it balances load, after tens of milliseconds: on a
    2-vCPU host, a child and its parent that each ran 50 ms of Python
    took 2.0x as long as one, and 1.1x with the child moved at once.
    """
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:
        pass
