"""Work split into contiguous spans, each span but the first run in a
forked child.

`map_spans` is the one place that decides how far work splits: into
2^m spans, 2^m the largest power of two at most both the CPUs this
process may use and len(units) // least, and into one span when that
quotient is below 2, os.fork is missing, another thread is alive
(forking a threaded process can deadlock the child) or a `map_spans`
call is already running, in this process or in the parent that forked
it.  A span whose child fails is run in the parent, so the results
never depend on how many spans ran; only the wall time does.  Glynn's
walk in `invariants.permanent` and `verify_matrix`'s sign vectors are
split here.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import Any, Callable, Sequence

# POSIX's SIGKILL, named here because importing the signal module costs
# about 1 ms at start-up
_SIGKILL = 9
# true while a map_spans call runs, in its caller and in the children it
# forks, so that work nested in a span runs as one span
_in_parts = False


def _fork_part(work: Callable[[Any], Any], part: Any) -> tuple[int, int] | None:
    """Start work(part) in a forked child: the pid and the read end of the
    pipe it writes its result to, or None when no child could be made.

    The child writes an 8-byte length and then the result in marshal's
    binary format, which holds ints of any size without the decimal text
    that Python's int-to-text digit limit could refuse.  It leaves by
    os._exit in any case, so it never flushes stdio buffers it shares with
    the parent or returns into the caller, and exits 0 only once everything
    is written.
    """
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # pragma: no cover - the child
        code = 1
        try:
            os.close(read_end)
            payload = marshal.dumps(work(part))
            data = memoryview(len(payload).to_bytes(8, "little") + payload)
            while data:
                data = data[os.write(write_end, data) :]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def map_spans(work: Callable[[Sequence], Any], units: Sequence, least: int) -> list:
    """[work(span) for span in spans], the spans being 2^m contiguous
    slices of `units` in order, each at least `least` long (see the module
    docstring for m), with the first span run here and every other span in
    a forked child, all at once.

    Each result must be a value marshal can write other than None, which
    stands for a failed child.  Every child is reaped before this returns or
    raises, and killed first when this is interrupted before all results are
    in.  A span whose child could not be forked, exited nonzero or wrote
    short is run here.  Until this returns, a nested map_spans runs one
    span, here and in every child, so work nested in a span never forks.
    """
    global _in_parts
    outer, _in_parts = _in_parts, True
    try:
        count = len(units) // least
        if count < 2 or outer or not hasattr(os, "fork") or threading.active_count() > 1:
            return [work(units)]
        try:
            count = min(count, len(os.sched_getaffinity(0)))
        except AttributeError:
            count = min(count, os.cpu_count() or 1)
        count = 1 << (count.bit_length() - 1)
        size = len(units)
        spans = [units[size * p // count : size * (p + 1) // count] for p in range(count)]
        children = {}  # index of a span: (pid, read end) of its child
        finished = False
        try:
            for index in range(1, count):
                child = _fork_part(work, spans[index])
                if child is not None:
                    children[index] = child
            results = [None if i in children else work(span) for i, span in enumerate(spans)]
            sent = {}
            for index, (_, read_end) in children.items():
                with open(read_end, "rb", closefd=False) as pipe:
                    sent[index] = pipe.read()
            finished = True
        finally:
            for pid, read_end in children.values():
                os.close(read_end)
                if not finished:
                    try:
                        os.kill(pid, _SIGKILL)
                    except ProcessLookupError:  # reaped already, see _reap
                        pass
            statuses = {index: _reap(pid) for index, (pid, _) in children.items()}
        for index in children:
            value = _child_result(sent[index], statuses[index])
            results[index] = work(spans[index]) if value is None else value
        return results
    finally:
        _in_parts = outer


def _reap(pid: int) -> int:
    """The wait status of child `pid` once it has exited, or 1 when the
    system reaped it already, as it does while SIGCHLD is ignored; the
    child's span is then run in the parent."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return 1


def _child_result(data: bytes, status: int) -> Any:
    """The result a _fork_part child sent as `data`, or None when its wait
    status is not a clean exit or the bytes fall short of their length."""
    if status != 0 or len(data) < 8 or int.from_bytes(data[:8], "little") != len(data) - 8:
        return None
    return marshal.loads(data[8:])
