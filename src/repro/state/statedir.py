"""Filesystem state directory with atomic write-rename semantics.

Real libvirtd persists driver state under ``/var/lib/libvirt`` and
``/run/libvirt`` so a daemon restart can reattach to running guests.
:class:`StateDir` is the equivalent anchor for this reproduction: a
directory of named files where every full-file write is atomic
(write to a temp name in the same directory, then ``os.replace``), so
a crash can never leave a half-written snapshot behind — readers see
the old bytes or the new bytes, nothing in between.

Appends (the journal path) are deliberately *not* atomic: a torn tail
after a crash is exactly the failure :class:`repro.state.journal`
recovery must tolerate, so :meth:`append` exposes the raw behaviour
and even lets callers write a partial suffix on purpose.

Appends go through one unbuffered ``O_APPEND`` handle per file, kept
open between calls: every append hands all of its bytes to the OS
before it returns, so a ``kill -9`` loses nothing that a per-call
open/write/close would have kept, without paying for the open and
close on every record.  Replacing, truncating or removing a file drops
its handle first, so the next append opens the new file;
:meth:`StateDir.close` releases every handle.
"""

from __future__ import annotations

import os
import threading
from typing import BinaryIO, Dict, List, Optional

from repro.errors import InvalidArgumentError


class StateDir:
    """One directory of named state files, with atomic replace writes."""

    def __init__(self, root: str) -> None:
        if not root:
            raise InvalidArgumentError("state directory path must be non-empty")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        #: guards the append handles and every operation that swaps the
        #: file underneath one (replace, truncate, remove)
        self._lock = threading.Lock()
        self._handles: Dict[str, BinaryIO] = {}

    def path(self, name: str) -> str:
        if not name or os.sep in name or name.startswith("."):
            raise InvalidArgumentError(f"bad state file name {name!r}")
        return os.path.join(self.root, name)

    def exists(self, name: str) -> bool:
        return os.path.exists(self.path(name))

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self.path(name))
        except OSError:
            return 0

    def read_bytes(self, name: str) -> Optional[bytes]:
        """Return the file's bytes, or None if it does not exist."""
        try:
            with open(self.path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def write_atomic(self, name: str, data: bytes) -> None:
        """Replace the file's contents atomically (temp + ``os.replace``).

        The temp file lives in the same directory so the final rename
        never crosses a filesystem boundary; flush+fsync before the
        rename models the write barrier a journalling daemon needs.
        """
        target = self.path(name)
        tmp = f"{target}.tmp"
        with self._lock:
            self._drop_locked(name)
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)

    def append(self, name: str, data: bytes) -> None:
        """Append raw bytes — intentionally non-atomic (journal tail).

        All of ``data`` reaches the OS before this returns (short writes
        are retried), so it survives the process being killed.
        """
        path = self.path(name)
        with self._lock:
            handle = self._handles.get(name)
            if handle is None:
                handle = self._handles[name] = open(path, "ab", buffering=0)
            view = memoryview(data)
            while view:
                view = view[handle.write(view):]

    def truncate(self, name: str, size: int = 0) -> None:
        """Cut the file down to ``size`` bytes (recovery discards a torn
        tail this way); creates the file if missing."""
        path = self.path(name)
        with self._lock:
            self._drop_locked(name)
            with open(path, "ab") as handle:
                pass
            with open(path, "r+b") as handle:
                handle.truncate(size)

    def remove(self, name: str) -> None:
        path = self.path(name)
        with self._lock:
            self._drop_locked(name)
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    def close(self) -> None:
        """Release every kept-open append handle (idempotent); a later
        append simply reopens its file."""
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.close()

    def _drop_locked(self, name: str) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()

    def list(self) -> List[str]:
        return sorted(
            entry
            for entry in os.listdir(self.root)
            if not entry.startswith(".") and not entry.endswith(".tmp")
        )
