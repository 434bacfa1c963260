"""A forked worker process: how ``report`` puts a second core to work.

Two pieces of ``report`` run in a forked child when the CDR file is large
enough (``ingest.FORK_BYTES``): the read of the second half of the CDR,
in ``ingest.read_cdr``, which returns the reduction of its rows, not the
rows; and the ingest artifacts, written by ``cli.run_command`` while the
analysis stages run, which returns the record of its stage.

Both keep one contract, ``forked``'s: a worker is a function of no
arguments, whose return value the child sends back pickled through a
pipe. The parent gets that value when it is whole; else, and where there
is no child, it runs the same function itself, and it is told which. So
a worker changes no result, and its caller keeps only its own work.

A worker forked by the command has no BLAS threads to lose: ``crowdcdr.cli``
runs BLAS on one thread, the caller's, unless the user set a thread count.
A program that loaded numpy before ``crowdcdr.cli``, or set more threads,
keeps the rule that its workers must not call BLAS. A worker inherits its
parent's cyclic collector, off in the command process, and leaves by
``os._exit``, so no collection of the inherited heap runs in it at exit.
"""

from __future__ import annotations

import os
import pickle
import warnings
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterator, TypeVar

T = TypeVar("T")


@contextmanager
def forked(work: Callable[[], T]) -> Iterator[Callable[[], tuple[T, bool]]]:
    """Run ``work()`` in a forked child; yield ``result``, to be called at
    most once.

    ``result()`` waits for the child's value and returns ``(value,
    True)``. Where ``os.fork`` is missing or fails, or the child raised,
    died or sent less than a whole pickle, it runs ``work()`` here and
    returns ``(value, False)``; what that raises propagates.

    Leaving the block closes the read end, kills the child and reaps it,
    on every path. So a child blocked on a full pipe, or one whose work
    is no longer wanted, can neither hang the parent nor outlive it.
    """
    pid, pipe = _start(work)

    def result() -> tuple[T, bool]:
        if pipe is not None:
            try:
                return pickle.load(pipe), True
            except (EOFError, pickle.UnpicklingError):
                pass
        return work(), False

    try:
        yield result
    finally:
        if pipe is not None:
            # Imported here: a run with no worker starts faster without it.
            from signal import SIGKILL
            pipe.close()
            os.kill(pid, SIGKILL)    # a zombie until reaped: never another's pid
            os.waitpid(pid, 0)


def _start(work: Callable[[], object]) -> tuple[int, BinaryIO] | tuple[None, None]:
    """Fork a child that sends the value of ``work()`` through a pipe,
    pickled; return its pid and the read end, or Nones where ``os.fork``
    is missing or fails.

    The child leaves by ``os._exit``, with status 0 once its value is
    sent and 1 on any exception, so it never returns into the caller's
    frames, flushes the parent's stdio buffers or runs ``atexit``
    handlers. Under the command BLAS runs on the calling thread alone, so
    ``work`` may call it; where BLAS has more threads (numpy loaded before
    ``crowdcdr.cli``, or a thread count the user set), ``work`` must not
    call BLAS there: the BLAS threads of the parent do not exist in it.
    The child runs off the CPU its parent ran on when it was forked (see
    ``_leave_cpu``).
    """
    if not hasattr(os, "fork"):
        return None, None
    cpu = _current_cpu()
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns when a process with threads forks; the
            # only other threads can be BLAS's (none under the command),
            # which a worker then must not call.
            warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None, None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            _leave_cpu(cpu)
            with open(write_end, "wb") as pipe:
                pickle.dump(work(), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


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
