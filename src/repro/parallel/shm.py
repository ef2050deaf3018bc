"""Zero-copy array sharing for the sharded trainer.

``ArrayBundle`` packs a set of named numpy arrays into ONE
``multiprocessing.shared_memory`` segment (64-byte-aligned offsets, so
every view starts on a cache-line boundary).  The parent creates the
bundle once; workers receive only the tiny picklable :class:`BundleSpec`
(segment name + per-array offset/shape/dtype) and ``attach`` to build
zero-copy numpy views over the same physical pages.  Nothing graph-sized
ever crosses a pickle boundary.

For the in-process serial backend the same interface runs over a
private heap buffer — no segment, no cleanup, identical view semantics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

_ALIGN = 64
#: Where POSIX shared-memory segments live on Linux.
SHM_DIR = "/dev/shm"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _check_room(nbytes: int) -> None:
    """Raise ``OSError`` unless ``/dev/shm`` has ``nbytes`` free.

    A POSIX segment is created sparse, so a too-small ``/dev/shm`` (a
    container's 64 MB default) accepts it and the first write past the
    free space kills the process with SIGBUS.  Checked before the segment
    exists, so nothing is left behind; skipped where the directory does
    not exist.
    """
    if not os.path.isdir(SHM_DIR):
        return
    stat = os.statvfs(SHM_DIR)
    free = stat.f_bavail * stat.f_frsize
    if nbytes > free:
        raise OSError(
            f"shared-memory bundle needs {nbytes} bytes but {SHM_DIR} has "
            f"only {free} bytes free"
        )


@dataclass(frozen=True)
class BundleSpec:
    """Picklable description of a shared bundle: O(#arrays), not O(bytes)."""

    segment_name: str
    entries: Dict[str, Tuple[int, Tuple[int, ...], str]]
    nbytes: int


class ArrayBundle:
    """Named numpy arrays over one shared (or private) buffer."""

    def __init__(self, buffer, entries, segment=None, owner: bool = False) -> None:
        self._buffer = buffer
        self._entries = entries
        self._segment = segment
        self._owner = owner
        self._views: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, arrays: Mapping[str, np.ndarray], shared: bool = True
    ) -> "ArrayBundle":
        """Pack ``arrays`` into a fresh bundle, copying their contents."""
        entries: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = _aligned(offset)
            entries[name] = (offset, tuple(arr.shape), arr.dtype.str)
            offset += arr.nbytes
        total = max(offset, 1)
        segment = None
        if shared:
            from multiprocessing import shared_memory

            _check_room(total)
            segment = shared_memory.SharedMemory(create=True, size=total)
            buffer = segment.buf
        else:
            # Not a numpy array: scipy copies a view that covers only a
            # small part of a larger *ndarray* base, which would quietly
            # undo the zero-copy operators built over these views.
            buffer = bytearray(total)
        bundle = cls(buffer, entries, segment=segment, owner=True)
        for name, arr in arrays.items():
            np.copyto(bundle.view(name), np.ascontiguousarray(arr))
        return bundle

    @classmethod
    def attach(cls, spec: BundleSpec) -> "ArrayBundle":
        """Attach to an existing shared segment by its spec (zero-copy)."""
        from multiprocessing import shared_memory

        try:
            # Only the creating process owns the segment's lifetime;
            # track=False (3.13+) keeps the attach out of the resource
            # tracker entirely.
            segment = shared_memory.SharedMemory(
                name=spec.segment_name, track=False
            )
        except TypeError:  # pragma: no cover - Python < 3.13
            # Forked workers share the parent's tracker, where the extra
            # registration is an idempotent set-add; the parent's unlink
            # unregisters it exactly once.
            segment = shared_memory.SharedMemory(name=spec.segment_name)
        return cls(segment.buf, dict(spec.entries), segment=segment, owner=False)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def view(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of one named array."""
        if name not in self._views:
            offset, shape, dtype = self._entries[name]
            self._views[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._buffer, offset=offset
            )
        return self._views[name]

    def names(self):
        return list(self._entries)

    @property
    def nbytes(self) -> int:
        last = max(
            (off + int(np.prod(shape)) * np.dtype(dt).itemsize
             for off, shape, dt in self._entries.values()),
            default=0,
        )
        return last

    def spec(self) -> BundleSpec:
        """The picklable attachment handle (shared bundles only)."""
        if self._segment is None:
            raise ValueError("private (in-process) bundles have no spec")
        return BundleSpec(
            segment_name=self._segment.name,
            entries=dict(self._entries),
            nbytes=self.nbytes,
        )

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the mapping (workers call this on shutdown)."""
        self._views.clear()
        self._buffer = None
        if self._segment is not None:
            try:
                self._segment.close()
            except BufferError:
                # numpy views outside the bundle still pin the mapping;
                # the OS reclaims it when the process exits.
                pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; after all workers closed)."""
        if self._segment is not None and self._owner:
            self._segment.unlink()

    def __enter__(self) -> "ArrayBundle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()
