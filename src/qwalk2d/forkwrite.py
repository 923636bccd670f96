"""One text file written by several processes, in order.

write_ranges writes the text of a list of items into an open file.  This
process writes the first contiguous range of items itself, one item at a
time.  Each later range goes to a forked helper, which writes it, one item
at a time, into an unlinked temporary file in the file's directory.  This
process then waits for the helpers in range order and appends each one's
file, in the kernel by os.copy_file_range where it can.  Every process
renders with the same function, so the bytes do not depend on the number
of ranges, and no process holds more than one item's text.

A helper touches only its own temporary file and always leaves through
os._exit: 0 once all of its text is written, 1 on any exception.  A helper
that fails is an OSError naming the file.  On any error the helpers still
running are killed; either way every helper is reaped and every temporary
file closed.
"""

from __future__ import annotations

import contextlib
import errno
import os
import signal
import tempfile
from pathlib import Path

# the most bytes one read or one copy call moves when a helper's file is
# appended (_append)
_COPY_BYTES = 1 << 20


def write_ranges(handle, items, bounds, render) -> None:
    """Write render(item) for each item of items to the open text file
    handle, in order.  bounds are 0, the first index of each later range
    and len(items); items[:bounds[1]] are written by this process and each
    later range by a helper of its own (see the module docstring)."""
    running = set()  # helpers not yet reaped
    with contextlib.ExitStack() as parts:
        try:
            helpers = []
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                part = parts.enter_context(tempfile.TemporaryFile(dir=Path(handle.name).parent))
                pid = _fork_helper(part.fileno(), items[lo:hi], render)
                running.add(pid)
                helpers.append((pid, part, lo, hi))
            for item in items[:bounds[1]]:
                handle.write(render(item))
            handle.flush()
            for pid, part, lo, hi in helpers:
                status = os.waitpid(pid, 0)[1]
                running.discard(pid)
                if os.waitstatus_to_exitcode(status) != 0:
                    raise OSError(f"{handle.name}: the process writing items {lo} to {hi - 1} "
                                  f"failed (wait status {status})")
                _append(part.fileno(), handle.fileno())
        finally:
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_helper(fd: int, items, render) -> int:
    """Fork a process that writes render(item) for each of items to the
    file descriptor fd and exits, 0 when all of them are written; its pid."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with open(fd, "w", closefd=False) as out:
                for item in items:
                    out.write(render(item))
            status = 0
        finally:
            os._exit(status)
    return pid


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
