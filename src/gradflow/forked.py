"""Ordered jobs on every allowed CPU: the caller runs the first, forked
children the rest.

The children are plain `os.fork` processes, no `multiprocessing`.  Each
later job returns bytes, which its child sends back on a pipe before it
leaves with `os._exit`, so no Python buffer (stdout included) is flushed
twice and no `atexit` handler runs in a child.  A child may call BLAS even
when the caller has run threaded BLAS before: OpenBLAS registers a
`pthread_atfork` handler that shuts its thread pool down before every fork,
and the child starts a fresh pool on its first threaded call.
"""
from __future__ import annotations

import os
import pickle
from typing import Callable, Sequence

# (label, job): the label names the job when its child dies without a report
Job = tuple[str, Callable[[], object]]


def allowed_cpus() -> int:
    """The CPUs this process may run on, os.sched_getaffinity(0); 1 where
    that is missing (macOS, Windows), so nothing is forked there."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


def run_jobs(jobs: Sequence[Job]) -> list:
    """[job() for _, job in jobs], every job after the first returning bytes.

    With more than one allowed CPU each later job runs in a forked child,
    all of them started before the caller runs the first job; otherwise the
    caller runs every job in order.  A child's exception is re-raised here
    with its type and message (an OSError with its text if it does not
    survive pickling); a child that dies without reporting raises
    OSError("<label> exited with status N").  The first failure in job order
    is raised, once every child is joined and every pipe closed.
    """
    if len(jobs) < 2 or allowed_cpus() < 2:
        return [job() for _, job in jobs]
    children = []
    try:
        for label, job in jobs[1:]:
            children.append((label, *_fork(job)))
        results = [jobs[0][1]()]
        while children:
            results.append(_join(*children.pop(0)))
        return results
    finally:
        for label, pid, pipe in children:
            try:
                _join(label, pid, pipe)
            except BaseException:
                pass


def _fork(job: Callable[[], bytes]) -> tuple[int, int]:
    """Start job in a child; return its pid and the read end of its pipe."""
    pipe, report = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(pipe)
        os.close(report)
        raise
    if pid == 0:  # the child never returns: it reports and exits
        status = 1
        try:
            os.close(pipe)
            try:
                tag, body = b"R", job()
            except BaseException as exc:
                tag, body = _pickled(exc)
            with os.fdopen(report, "wb") as fh:
                fh.write(tag)
                fh.write(body)
            status = 0 if tag == b"R" else 1
        finally:
            os._exit(status)
    os.close(report)
    return pid, pipe


def _pickled(exc: BaseException) -> tuple[bytes, bytes]:
    """(b"E", the pickled exception), or (b"T", its text) if it does not
    come back from pickle."""
    try:
        body = pickle.dumps(exc)
        pickle.loads(body)
        return b"E", body
    except Exception:
        return b"T", (str(exc) or type(exc).__name__).encode(errors="replace")


def _join(label: str, pid: int, pipe: int) -> bytes:
    """Wait for one child; return its bytes or raise what it reported."""
    with os.fdopen(pipe, "rb") as fh:
        report = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    tag, body = report[:1], report[1:]
    if tag == b"R" and status == 0:
        return body
    if tag == b"E":
        raise pickle.loads(body)
    if tag == b"T":
        raise OSError(body.decode(errors="replace"))
    raise OSError(f"{label} exited with status {status}")
