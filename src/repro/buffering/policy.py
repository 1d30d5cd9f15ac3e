"""Buffering strategy: what to keep on-chip, what to spill (Algorithm 3).

When an engine's buffer overflows, the paper evicts the entry with the
largest *invalid occupation* — the product of (1) its size and (2) how many
Rounds it must sit idle before its earliest reuse.  Entries with no future
use are released for free (no write-back).  Because DNN inference is static,
every "earliest reuse" is known at compile time from the Round schedule.

Buffer entries are either atom outputs (keyed by dense atom index) or weight
slices (keyed by ``("w", layer, channel_tile)``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.atoms.dag import AtomicDAG, row_owners
from repro.memory.buffer import EngineBuffer
from repro.scheduling.rounds import Schedule


def weight_entry_key(layer: int, channel_tile: int) -> tuple[str, int, int]:
    """Buffer key of one layer's weight slice for one output-channel tile."""
    return ("w", layer, channel_tile)


@dataclass(frozen=True)
class Eviction:
    """One eviction decision.

    Attributes:
        key: The evicted buffer entry.
        size_bytes: Freed bytes.
        writeback_bytes: Bytes that must go to DRAM (0 for dead entries and
            clean weight slices, which can be re-fetched).
    """

    key: Hashable
    size_bytes: int
    writeback_bytes: int


class BufferPolicy:
    """Compile-time reuse oracle + the Algorithm 3 eviction rule.

    Args:
        dag: The atomic DAG.
        schedule: The Round schedule (fixes every atom's execution time).
    """

    def __init__(self, dag: AtomicDAG, schedule: Schedule) -> None:
        self.dag = dag
        #: Atom -> the Round it executes in (-1 if unscheduled).
        self.round_of = schedule.round_index(dag.num_atoms)
        rounds = np.asarray(self.round_of, dtype=np.int64)
        # Rounds in which each atom's consumers execute, sorted within the
        # atom's succ row: ``_use_rounds[ptr[a]:ptr[a + 1]]``.
        ptr = dag.succ_ptr
        owner = row_owners(ptr)
        use = rounds[dag.succ_ids]
        self._use_ptr: list[int] = ptr.tolist()
        self._use_rounds: list[int] = use[np.lexsort((use, owner))].tolist()
        #: Atom -> dense weight-slice id (-1 if weightless), and each id's
        #: ``AtomicDAG.weight_key``.
        self.weight_slot, self.weight_slot_keys = dag.weight_slots
        # Weight key -> sorted Rounds in which an atom needing it executes.
        slot = np.asarray(self.weight_slot, dtype=np.int64)
        users = np.flatnonzero(slot >= 0)
        by_slot = users[np.lexsort((rounds[users], slot[users]))]
        bounds = np.searchsorted(
            slot[by_slot], np.arange(len(self.weight_slot_keys) + 1)
        ).tolist()
        ordered = rounds[by_slot].tolist()
        self._weight_rounds: dict[tuple[int, int], list[int]] = {
            key: ordered[lo:hi]
            for key, lo, hi in zip(self.weight_slot_keys, bounds, bounds[1:])
        }

    def next_use(self, key: Hashable, t0: int) -> int | None:
        """Earliest Round >= ``t0`` that reads this entry, or None.

        Atom entries are read by their consumers' Rounds; weight entries by
        any Round executing an atom of the same (layer, channel tile).
        """
        if isinstance(key, tuple) and len(key) == 3 and key[0] == "w":
            rounds = self._weight_rounds.get((key[1], key[2]), [])
            i = bisect_left(rounds, t0)
            return rounds[i] if i < len(rounds) else None
        rounds = self._use_rounds
        hi = self._use_ptr[key + 1]  # type: ignore[operator]
        i = bisect_left(rounds, t0, self._use_ptr[key], hi)  # type: ignore[index]
        return rounds[i] if i < hi else None

    def release_dead(self, buffer: EngineBuffer, t0: int) -> list[Eviction]:
        """Free every entry with no use at or after Round ``t0`` (lines 8-12).

        Returns:
            The released entries (write-back is never needed for them).
        """
        dead = [
            key for key in buffer.keys() if self.next_use(key, t0) is None
        ]
        return [
            Eviction(key=key, size_bytes=buffer.release(key), writeback_bytes=0)
            for key in dead
        ]

    def choose_victim(self, buffer: EngineBuffer, t0: int) -> Eviction | None:
        """The Algorithm 3 write-back choice: max ``(t_next - t0) * size``.

        Weight slices are clean (a copy lives in DRAM), so their eviction
        costs no write-back; atom outputs must be written back to remain
        recoverable.

        Returns:
            The eviction, or None when the buffer is empty.
        """
        best_key: Hashable | None = None
        best_occupation = -1
        for key in buffer.keys():
            t_next = self.next_use(key, t0)
            wait = (t_next - t0) if t_next is not None else _NEVER
            occupation = wait * buffer.size_of(key)
            if occupation > best_occupation:
                best_occupation = occupation
                best_key = key
        if best_key is None:
            return None
        size = buffer.release(best_key)
        is_weight = (
            isinstance(best_key, tuple)
            and len(best_key) == 3
            and best_key[0] == "w"
        )
        return Eviction(
            key=best_key,
            size_bytes=size,
            writeback_bytes=0 if is_weight else size,
        )

    def make_room(
        self, buffer: EngineBuffer, needed_bytes: int, t0: int
    ) -> list[Eviction]:
        """Evict until ``needed_bytes`` fit, dead entries first.

        Returns:
            All evictions performed (possibly empty).

        Raises:
            ValueError: When ``needed_bytes`` exceeds the whole buffer.
        """
        if needed_bytes > buffer.capacity_bytes:
            raise ValueError(
                f"request of {needed_bytes} B cannot fit buffer of "
                f"{buffer.capacity_bytes} B"
            )
        evictions: list[Eviction] = []
        if buffer.fits(needed_bytes):
            return evictions
        evictions.extend(self.release_dead(buffer, t0))
        while not buffer.fits(needed_bytes):
            ev = self.choose_victim(buffer, t0)
            if ev is None:
                break
            evictions.append(ev)
        return evictions


_NEVER = 10**9
