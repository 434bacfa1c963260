"""``worker.forked``: the child's value, or the same work redone here."""

import os
import pickle
import time

import pytest

from crowdcdr.worker import forked

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="a worker needs os.fork")


@pytest.fixture
def children(monkeypatch):
    """The pids of the children ``os.fork`` makes during the test; each
    must be reaped by the end of it."""
    pids = []
    fork = getattr(os, "fork", None)

    def spied():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    if fork is not None:
        monkeypatch.setattr(os, "fork", spied)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def where() -> tuple[int, list[int]]:
    """The pid of the process that runs it, and a value to send."""
    return os.getpid(), list(range(100_000))


@needs_fork
def test_the_child_value_is_used(children):
    with forked(where) as result:
        (pid, sent), from_child = result()
    assert from_child
    assert [pid] == children
    assert pid != os.getpid()
    assert sent == list(range(100_000))


@needs_fork
@pytest.mark.parametrize("failure", ["raises", "exits", "short"])
def test_a_failed_child_is_redone_here(children, monkeypatch, failure):
    parent = os.getpid()

    def work():
        if os.getpid() != parent:
            if failure == "raises":
                raise MemoryError
            if failure == "exits":
                os._exit(0)
        return where()
    if failure == "short":
        # What the child sends is half of its pickle.
        def short(value, pipe, protocol=None):
            sent = pickle.dumps(value, protocol)
            pipe.write(sent[:len(sent) // 2])
        monkeypatch.setattr(pickle, "dump", short)
    with forked(work) as result:
        (pid, _), from_child = result()
    assert (pid, from_child) == (parent, False)
    assert len(children) == 1


@pytest.mark.parametrize("failure", ["no_fork", "fork_fails"])
def test_without_a_child_the_work_is_done_here(children, monkeypatch, failure):
    if failure == "no_fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        def fails():
            raise OSError("no more processes")
        monkeypatch.setattr(os, "fork", fails)
    with forked(where) as result:
        (pid, _), from_child = result()
    assert (pid, from_child) == (os.getpid(), False)
    assert children == []


@needs_fork
def test_an_error_of_the_redone_work_propagates(children):
    def work():
        raise ValueError("bad input")
    with forked(work) as result, pytest.raises(ValueError, match="bad input"):
        result()
    assert len(children) == 1


@needs_fork
def test_a_child_not_waited_for_is_killed(children):
    start = time.monotonic()
    with pytest.raises(KeyError), forked(lambda: time.sleep(30)):
        raise KeyError("the caller failed")
    # A child left to finish holds the block for its 30 s.
    assert time.monotonic() - start < 15
    assert len(children) == 1
