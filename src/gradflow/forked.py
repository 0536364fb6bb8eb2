"""Ordered jobs on every allowed CPU, their output in job order.

Weighted items are cut into one contiguous group per allowed CPU (cut).
The caller runs the first group on the output stream; each later group
runs in a plain `os.fork` child on an anonymous temporary file, copied into
the output once the child is joined.  A child's pipe carries
only its status and exception; it leaves with `os._exit`, so no Python
buffer is flushed twice and no `atexit` handler runs in it.  A child may
call BLAS after the caller ran threaded BLAS: OpenBLAS's `pthread_atfork`
handler shuts its thread pool down before every fork.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import shutil
import tempfile
from typing import BinaryIO, Callable, Sequence

# (label, weight, item): the weight (>= 0) is the item's share of the work;
# the label names it if its child dies silently
Item = tuple[str, float, object]
# an Item whose item is a job: job(out) writes its bytes to out
Job = tuple[str, float, Callable[[BinaryIO], object]]


def allowed_cpus() -> int:
    """The CPUs this process may run on, os.sched_getaffinity(0); 1 where
    that is missing (macOS, Windows), so nothing is forked there."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


def cut(weights: Sequence[float], parts: int) -> list[int]:
    """Bounds [0, ..., len(weights)] of at most `parts` contiguous groups of
    about equal weight: a job joins the slice of the total weight its
    midpoint falls in, the earlier one on a boundary, and empty groups are
    dropped.  Zero total weight makes one group."""
    total = sum(weights)
    ends = list(itertools.accumulate(weights, initial=0))
    # ceil(parts * midpoint / total) - 1, exact for integer weights
    group = [max(0, -(-parts * (a + b) // (2 * total)) - 1) if total else 0
             for a, b in zip(ends, ends[1:])]
    return ([0] + [i for i in range(1, len(group)) if group[i] > group[i - 1]]
            + [len(group)])


def run_jobs(jobs: Sequence[Job], out: BinaryIO) -> None:
    """Run job(out) for every job, in job order as far as out can tell:
    run_groups with each group's jobs run in turn."""
    run_groups(jobs, _run_each, out)


def _run_each(jobs: list, out: BinaryIO) -> None:
    for job in jobs:
        job(out)


def run_groups(items: Sequence[Item], work: Callable[[list, BinaryIO], object],
               out: BinaryIO) -> None:
    """Call work(the group's items, out) once per group of items, in item
    order as far as out can tell.

    Every group after the first (cut, at most allowed_cpus() groups) is
    forked before the caller runs the first.  A child's exception comes
    back with its type and message (an OSError with its text if it does not
    pickle); a child that dies silently raises OSError("<first label>
    through <last label> exited with status N").  The first failure in item
    order is raised once every child is joined and every pipe and file
    closed.
    """
    bounds = cut([weight for _, weight, _ in items], allowed_cpus())
    groups = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []
    try:
        for group in groups[1:]:
            children.append(_fork(group, work))
        work([item for _, _, item in groups[0]], out)
        while children:
            _join(*children.pop(0), out)
    finally:
        for child in children:
            try:
                _join(*child, None)
            except BaseException:
                pass


def _fork(group: Sequence[Item], work: Callable[[list, BinaryIO], object]
          ) -> tuple[str, int, int, BinaryIO]:
    """Start a group in a child; return its name, pid, the read end of its
    pipe and the temporary file it writes."""
    name = (group[0][0] if len(group) == 1
            else f"{group[0][0]} through {group[-1][0]}")
    with contextlib.ExitStack() as opened:    # closed if the fork fails
        tmp = opened.enter_context(tempfile.TemporaryFile())
        pipe, report = os.pipe()
        opened.callback(os.close, pipe)
        opened.callback(os.close, report)
        pid = os.fork()
        opened.pop_all()
    if pid == 0:  # the child never returns: it reports and exits
        status = 1
        try:
            os.close(pipe)
            try:
                work([item for _, _, item in group], tmp)
                tmp.flush()
                tag, body = b"R", b""
            except BaseException as exc:
                tag, body = _pickled(exc)
            with os.fdopen(report, "wb") as fh:
                fh.write(tag)
                fh.write(body)
            status = 0 if tag == b"R" else 1
        finally:
            os._exit(status)
    os.close(report)
    return name, pid, pipe, tmp


def _pickled(exc: BaseException) -> tuple[bytes, bytes]:
    """(b"E", the pickled exception), or (b"T", its text) if it does not
    come back from pickle."""
    try:
        body = pickle.dumps(exc)
        pickle.loads(body)
        return b"E", body
    except Exception:
        return b"T", (str(exc) or type(exc).__name__).encode(errors="replace")


def _join(name: str, pid: int, pipe: int, tmp: BinaryIO,
          out: BinaryIO | None) -> None:
    """Wait for one child, then copy its file into out (unless None) or
    raise what it reported; its pipe and file are closed either way."""
    with tmp, os.fdopen(pipe, "rb") as fh:
        report = fh.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        tag, body = report[:1], report[1:]
        if tag == b"R" and status == 0:
            if out is not None:
                tmp.seek(0)
                shutil.copyfileobj(tmp, out)
            return
        if tag == b"E":
            raise pickle.loads(body)
        if tag == b"T":
            raise OSError(body.decode(errors="replace"))
        raise OSError(f"{name} exited with status {status}")
