"""Work shared between this process and forked helpers, each of which
leaves its output in a temporary file.

forked starts one helper per job and gives the caller each helper's exit
status and file, in job order, once that helper has exited.  Its two
users differ only in what they do with a file:

- write_ranges writes one text file in order.  This process writes the
  first contiguous range of items itself, one item at a time; each later
  range is written, one item at a time, by a helper into an unlinked
  temporary file in the file's directory, and this process then appends
  the helpers' files in range order, in the kernel by os.copy_file_range
  where it can.  Every process renders with the same function, so the
  bytes do not depend on the number of ranges, and no process holds more
  than one item's text.  A helper that fails is an OSError naming the file.
- io's distributions CSV reader parses every part of a file but the
  last in a helper, which leaves the parsed records in a temporary file
  in the system's default directory, and reads them back in part order.
  A helper that fails sends the caller to its row-by-row reader.

A helper touches only its own temporary file and always leaves through
os._exit: 0 once its job returns, 1 on any exception.  When the caller
leaves the block, normally or by an error, the helpers still running are
killed; either way every helper is reaped and every temporary file closed.
"""

from __future__ import annotations

import contextlib
import errno
import os
import signal
import tempfile
from functools import partial
from pathlib import Path

# the most bytes one read or one copy call moves when a helper's file is
# appended (_append)
_COPY_BYTES = 1 << 20


@contextlib.contextmanager
def forked(jobs, directory=None):
    """Fork a helper for each of jobs, which runs job(fd) with fd an
    unlinked temporary file in directory (None: the system's default),
    and yield an iterator over the helpers in job order.  Each step of it
    waits for the next helper to exit and gives that helper's wait status
    (0 when its job returned) and its temporary file (see the module
    docstring for the rules every helper keeps)."""
    running = set()  # helpers not yet reaped
    with contextlib.ExitStack() as files:
        try:
            helpers = []
            for job in jobs:
                out = files.enter_context(tempfile.TemporaryFile(dir=directory))
                pid = _fork(job, out.fileno())
                running.add(pid)
                helpers.append((pid, out))
            yield _exits(helpers, running)
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _exits(helpers, running):
    """(wait status, temporary file) of each of the (pid, file) helpers, in
    order, each once it has exited; its pid leaves running."""
    for pid, out in helpers:
        status = os.waitpid(pid, 0)[1]
        running.discard(pid)
        yield status, out


def _fork(job, fd: int) -> int:
    """Fork a process that runs job(fd) and exits, 0 when job returns; its pid."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            job(fd)
            status = 0
        finally:
            os._exit(status)
    return pid


def write_ranges(handle, items, bounds, render) -> None:
    """Write render(item) for each item of items to the open text file
    handle, in order.  bounds are 0, the first index of each later range
    and len(items); items[:bounds[1]] are written by this process and each
    later range by a helper of its own (see the module docstring)."""
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    jobs = [partial(_write_items, items[lo:hi], render) for lo, hi in ranges]
    with forked(jobs, Path(handle.name).parent) as helpers:
        for item in items[:bounds[1]]:
            handle.write(render(item))
        handle.flush()
        for (lo, hi), (status, part) in zip(ranges, helpers):
            if status != 0:
                raise OSError(f"{handle.name}: the process writing items {lo} to {hi - 1} "
                              f"failed (wait status {status})")
            _append(part.fileno(), handle.fileno())


def _write_items(items, render, fd: int) -> None:
    """Write render(item) for each of items to the file descriptor fd."""
    with open(fd, "w", closefd=False) as out:
        for item in items:
            out.write(render(item))


def _append(src: int, dst: int) -> None:
    """Append all of file src at dst's position: in the kernel by
    os.copy_file_range where the platform and file system have it, else
    by reads and writes of at most _COPY_BYTES."""
    offset = 0
    if hasattr(os, "copy_file_range"):
        try:
            while copied := os.copy_file_range(src, dst, _COPY_BYTES, offset):
                offset += copied
            return
        except OSError as exc:
            if exc.errno not in (errno.ENOSYS, errno.EXDEV, errno.EINVAL, errno.EOPNOTSUPP):
                raise
    while chunk := os.pread(src, _COPY_BYTES, offset):
        offset += len(chunk)
        view = memoryview(chunk)
        while view:
            view = view[os.write(dst, view):]
