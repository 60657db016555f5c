"""Jobs split between this process and one child made with os.fork.

``run_split`` deals no-argument jobs out by a fixed cost estimate, runs
each once and returns every job's (error, value) in job order. The run's
stages and the event-log parse share it; every job's outcome is pickled
back to this process, which writes every file.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from typing import Callable, Sequence


def split_jobs(costs: Sequence[float]) -> tuple[list[int], list[int]]:
    """(this process's, the child's) job indices: longest first, each job to
    the side with less cost so far, ties to this process."""
    sides: tuple[list[int], list[int]] = ([], [])
    load = [0.0, 0.0]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        side = min((0, 1), key=lambda k: (load[k], len(sides[k])))
        sides[side].append(i)
        load[side] += costs[i]
    return sides


def _attempt(job: Callable[[], object]) -> tuple[Exception | None, object]:
    try:
        return None, job()
    except Exception as exc:
        return exc, None


def _pickled(outcome: tuple[Exception | None, object]) -> bytes:
    """One outcome of the child's, pickled. A traceback does not pickle, so an
    error carries its traceback's text as a note."""
    if outcome[0] is not None:
        import traceback

        outcome[0].add_note("".join(traceback.format_exception(outcome[0])).rstrip())
    try:
        return pickle.dumps(outcome)
    except Exception as exc:
        kind = type(outcome[0] or outcome[1]).__name__
        return pickle.dumps((RuntimeError(f"cannot send a job's {kind} outcome: {exc}"), None))


def _unpickled(blob: bytes) -> tuple[Exception | None, object]:
    try:
        return pickle.loads(blob)
    except Exception as exc:
        return RuntimeError(f"cannot read a job's outcome: {exc}"), None


def _sendable(w: warnings.WarningMessage) -> tuple[Warning, str, int]:
    """(message, filename, line) of a warning the child caught; a message that
    does not pickle goes as a UserWarning of its text."""
    try:
        pickle.dumps(w.message)
        return w.message, w.filename, w.lineno
    except Exception:
        return UserWarning(f"{w.category.__name__}: {w.message}"), w.filename, w.lineno


def _reissue(caught: list[tuple[Warning, str, int]]):
    """Issue the child's warnings in this process, each from the module and
    line that issued it, so this process's filters and registries decide."""
    by_file = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        module = by_file.get(filename)
        warnings.warn_explicit(message, type(message), filename, lineno,
                               module and module.__name__,
                               module and vars(module).setdefault("__warningregistry__", {}))


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _exit_description(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


def run_split(jobs: Sequence[Callable[[], object]],
              costs: Sequence[float]) -> list[tuple[Exception | None, object]]:
    """Run every job once, split by split_jobs between this process and one
    child made with os.fork; return (error, value) per job, in job order.

    The child pickles its outcomes into a pipe, with the warnings its jobs
    issued, and always ends with os._exit; this process always reaps it,
    then issues those warnings as if the child's jobs had run here. With
    fewer than two jobs nothing is forked. Raises RuntimeError when the
    child ends without writing its outcomes.
    """
    mine, theirs = split_jobs(costs)
    outcomes: list = [None] * len(jobs)
    if not theirs:
        for i in mine:
            outcomes[i] = _attempt(jobs[i])
        return outcomes
    sys.stdout.flush()   # else both processes would flush what is buffered
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with warnings.catch_warnings(record=True) as caught:
                sent = [(i, _pickled(_attempt(jobs[i]))) for i in theirs]
            data = pickle.dumps((sent, [_sendable(w) for w in caught]))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        for i in mine:
            outcomes[i] = _attempt(jobs[i])
        data = _read_all(read_fd)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"the child process of the split {_exit_description(status)} "
                           "before sending its outcomes")
    sent, caught = pickle.loads(data)
    for i, blob in sent:
        outcomes[i] = _unpickled(blob)
    _reissue(caught)
    return outcomes
