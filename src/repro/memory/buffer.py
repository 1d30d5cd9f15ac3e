"""Per-engine distributed SRAM buffer with occupancy tracking.

Each engine's global buffer holds atom outputs (ofmaps) and weight slices
awaiting reuse.  The buffer enforces capacity; *what* to evict on overflow
is decided by the buffering policy (:mod:`repro.buffering`), which
implements the paper's Algorithm 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable


class BufferOverflowError(RuntimeError):
    """Raised when a store cannot fit even after the caller's evictions."""


@dataclass
class EngineBuffer:
    """One engine's global buffer.

    Entries are keyed by arbitrary hashable ids (atom ids, weight-slice ids).

    Attributes:
        capacity_bytes: SRAM capacity of this engine.
        engine_index: Position in the mesh, for error messages and tracing.
    """

    capacity_bytes: int
    engine_index: int = 0
    _entries: dict[Hashable, int] = field(default_factory=dict, repr=False)
    #: Running sum of ``_entries`` sizes, kept by every mutator so the
    #: simulator's per-atom ``fits`` checks never re-sum the entries.
    _used: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._used = sum(self._entries.values())

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied."""
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def contains(self, key: Hashable) -> bool:
        return key in self._entries

    def size_of(self, key: Hashable) -> int:
        """Stored size of an entry.

        Raises:
            KeyError: When the entry is absent.
        """
        return self._entries[key]

    def keys(self) -> tuple[Hashable, ...]:
        """All stored entry keys."""
        return tuple(self._entries)

    def fits(self, size_bytes: int) -> bool:
        """Whether ``size_bytes`` more would fit right now."""
        return size_bytes <= self.free_bytes

    def store(self, key: Hashable, size_bytes: int) -> None:
        """Insert an entry.

        Storing an existing key replaces its size (an atom recomputed or a
        weight slice refreshed).

        Raises:
            BufferOverflowError: When the entry does not fit; the caller
                must evict first (see :mod:`repro.buffering`).
            ValueError: On non-positive sizes or entries larger than the
                whole buffer.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if size_bytes > self.capacity_bytes:
            raise ValueError(
                f"entry of {size_bytes} B exceeds engine {self.engine_index} "
                f"buffer capacity {self.capacity_bytes} B"
            )
        delta = size_bytes - self._entries.get(key, 0)
        if delta > self.free_bytes:
            raise BufferOverflowError(
                f"engine {self.engine_index}: need {delta} B, "
                f"free {self.free_bytes} B"
            )
        self._entries[key] = size_bytes
        self._used += delta

    def release(self, key: Hashable) -> int:
        """Remove an entry and return its size.

        Raises:
            KeyError: When the entry is absent.
        """
        size = self._entries.pop(key)
        self._used -= size
        return size

    def release_if_present(self, key: Hashable) -> int:
        """Remove an entry if stored; returns freed bytes (0 if absent)."""
        size = self._entries.pop(key, 0)
        self._used -= size
        return size

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()
        self._used = 0


def make_buffers(num_engines: int, capacity_bytes: int) -> list[EngineBuffer]:
    """Construct the distributed buffer array for a mesh of engines."""
    return [
        EngineBuffer(capacity_bytes=capacity_bytes, engine_index=i)
        for i in range(num_engines)
    ]
