"""Helpers for tests of work split into parts run in forked children."""

import contextlib
import os

import pytest


def split_test(test):
    """Mark a split test: skipped without os.fork, and failing on a
    DeprecationWarning, which Python 3.12+ issues when a process with
    threads forks."""
    needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    return needs_fork(pytest.mark.filterwarnings("error::DeprecationWarning")(test))


@contextlib.contextmanager
def on_cpus(cpus):
    """Split work as on a machine with `cpus` CPUs; yields the MonkeyPatch
    in force and the list of pids this process forked."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: range(cpus), raising=False)
        mp.setattr(os, "fork", counting_fork)
        yield mp, forks


def assert_all_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """The process's open file descriptors, where /proc lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
