"""Orphan watchdog: workers must not outlive a SIGKILL'd parent.

A fork-started sweep worker blocks reading a pipe whose other end it
inherited itself, so losing the parent never delivers EOF — the
orphan would sit there forever, and while it sits it also pins open
the ``multiprocessing.resource_tracker`` pipe it inherited. The
tracker only performs its crash cleanup (unlinking shared-memory
segments such as the sweep's trace plane) once *every* holder of that
pipe is gone, so orphaned workers turn a SIGKILL'd sweep into a
/dev/shm leak.

The watchdog is a daemon thread that polls the parent pid and
hard-exits the worker the moment it is re-parented. Exiting drops the
worker's inherited pipe ends, which lets the surviving resource
tracker run its cleanup and unlink the plane.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = ["start_orphan_watchdog"]

#: Seconds between parent-pid checks. Cheap enough to keep tight so a
#: killed sweep's resources come back promptly.
_WATCH_INTERVAL = 0.25


def start_orphan_watchdog(interval: float = _WATCH_INTERVAL) -> threading.Thread:
    """Start the orphan watchdog in the calling (worker) process.

    Records the current parent pid; once ``os.getppid()`` reports a
    different one (the parent died and the worker was re-parented),
    the worker is terminated with :func:`os._exit` — the process is
    an orphan mid-batch, so no result it could produce has a reader,
    and a hard exit is what releases the inherited pipes.
    """
    parent = os.getppid()

    def _watch() -> None:
        while True:
            if os.getppid() != parent:
                os._exit(1)
            time.sleep(interval)

    thread = threading.Thread(
        target=_watch, name="orphan-watchdog", daemon=True
    )
    thread.start()
    return thread
