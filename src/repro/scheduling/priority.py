"""The four priority rules pruning the DAG-scheduling combination space.

Sec. IV-B of the paper: with ``P`` ready atoms and ``N`` engines there are
``C(P, N)`` candidate combinations per Round; the scheduler prunes them by
filling engines in priority order:

1. remaining atoms of *traversed* (started, unfinished) layers — their
   ifmaps/weights are already resident on-chip;
2. atoms of layers at the *same depth* as traversed layers — they share
   common inputs, so scheduling them releases buffer capacity early;
3. atoms of *dependent* layers that became ready through atom-level edges;
4. atoms of the *next batch sample* — only touched when the current sample
   cannot fill all engines, to protect inference latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atoms.dag import AtomicDAG, row_slots


@dataclass(frozen=True)
class RoundUndo:
    """What :meth:`SchedulerState.undo` needs to reverse one commit.

    Attributes:
        chosen: The committed Round's atoms.
        became_ready: Successors the commit moved into the ready set.
        touched: Every successor of the chosen atoms, ascending.
        reads: How many chosen atoms each touched successor reads.
        fresh: Each touched successor's ``(round, bytes)`` fresh-bytes
            entry as it was before the commit, flattened.
    """

    chosen: tuple[int, ...]
    became_ready: tuple[int, ...]
    touched: list[int]
    reads: list[int]
    fresh: list[int]


@dataclass
class SchedulerState:
    """Mutable bookkeeping shared by the priority rules and the searchers.

    Atoms of one (sample, layer) pair are a contiguous *block* of the DAG's
    dense layout; rule 1 and rule 2 reason about blocks.

    Attributes:
        dag: The atomic DAG being scheduled.
        indegree: Remaining unscheduled predecessors per atom.
        ready: Atom indices whose dependencies have all completed.
        scheduled: Flags per atom.
        remaining: Count of unscheduled atoms.
        round_of: Round index each scheduled atom ran in (-1 = unscheduled).
        rounds_committed: Rounds committed so far (the next Round's index).
        in_progress: Blocks with some, but not all, atoms scheduled.
    """

    dag: AtomicDAG
    indegree: list[int] = field(init=False)
    ready: set[int] = field(init=False)
    scheduled: list[bool] = field(init=False)
    remaining: int = field(init=False)
    round_of: list[int] = field(init=False)
    rounds_committed: int = field(init=False)
    in_progress: set[int] = field(init=False)

    def __post_init__(self) -> None:
        dag = self.dag
        n = dag.num_atoms
        self.indegree = dag.indegrees()
        self.ready = {i for i, d in enumerate(self.indegree) if d == 0}
        self.scheduled = [False] * n
        self.remaining = n
        self.round_of = [-1] * n
        self.rounds_committed = 0
        self.in_progress = set()

        sample = dag.atom_sample
        layer = dag.atom_layer
        # Block boundaries: wherever the (sample, layer) pair changes.
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = (layer[1:] != layer[:-1]) | (sample[1:] != sample[:-1])
        starts = np.flatnonzero(boundary)
        block = np.cumsum(boundary) - 1
        self.block_of: list[int] = block.tolist()
        self.block_remaining: list[int] = np.bincount(block).tolist()
        self._block_size = list(self.block_remaining)
        depth = dag.layer_depth
        self._block_depth = [depth[lyr] for lyr in layer[starts].tolist()]
        self._depth_of = [self._block_depth[b] for b in self.block_of]
        self._sample_of: list[int] = dag.as_list("atom_sample")
        self._sample_remaining = np.bincount(sample, minlength=dag.batch).tolist()
        # Priority lists sort by (sample, layer, tile index); one integer
        # rank per atom encodes that order.
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((dag.atom_tile, layer, sample))] = np.arange(n)
        self.sort_rank: list[int] = rank.tolist()
        # Bytes each atom would receive from the last committed Round: the
        # entry counts only while its round tag is that Round.
        self._fresh_bytes = [0] * n
        self._fresh_round = [-1] * n

    def blocking_bytes(self, atom: int) -> int:
        """Bytes ``atom`` must receive from the *previous* Round if run now.

        Data produced in the immediately preceding Round cannot be
        prefetched; scheduling such consumers one Round later hides the
        transfer behind compute (the communication term of Algorithm 2's
        round cost).
        """
        if self._fresh_round[atom] == self.rounds_committed - 1:
            return self._fresh_bytes[atom]
        return 0

    def current_sample(self) -> int:
        """Smallest sample index with unscheduled atoms (rule 4's 'current')."""
        for sample, left in enumerate(self._sample_remaining):
            if left:
                return sample
        return 0

    def commit(self, chosen: tuple[int, ...]) -> RoundUndo:
        """Mark a Round's atoms as executed and grow the ready set.

        Successors become ready only after the full Round commits, matching
        Round-synchronized execution.

        Returns:
            The record :meth:`undo` takes to reverse this commit.

        Raises:
            ValueError: If a chosen atom is not ready or already scheduled.
        """
        scheduled = self.scheduled
        ready = self.ready
        for a in chosen:
            if scheduled[a] or a not in ready:
                raise ValueError(f"atom {a} is not schedulable now")
        t = self.rounds_committed
        round_of = self.round_of
        block_of = self.block_of
        block_remaining = self.block_remaining
        in_progress = self.in_progress
        sample_remaining = self._sample_remaining
        sample_of = self._sample_of
        for a in chosen:
            scheduled[a] = True
            ready.discard(a)
            round_of[a] = t
            b = block_of[a]
            left = block_remaining[b] - 1
            block_remaining[b] = left
            if left:
                in_progress.add(b)
            else:
                in_progress.discard(b)
            sample_remaining[sample_of[a]] -= 1
        self.remaining -= len(chosen)

        touched, reads, fresh = self._successor_rows(chosen)
        indegree = self.indegree
        fresh_bytes = self._fresh_bytes
        fresh_round = self._fresh_round
        became_ready: list[int] = []
        saved: list[int] = []
        for s, n_reads, nbytes in zip(touched, reads, fresh):
            saved += (fresh_round[s], fresh_bytes[s])
            fresh_round[s] = t
            fresh_bytes[s] = nbytes
            d = indegree[s] - n_reads
            indegree[s] = d
            if d == 0 and not scheduled[s]:
                ready.add(s)
                became_ready.append(s)
        self.rounds_committed = t + 1
        return RoundUndo(
            chosen=chosen,
            became_ready=tuple(became_ready),
            touched=touched,
            reads=reads,
            fresh=saved,
        )

    def _successor_rows(
        self, chosen: tuple[int, ...]
    ) -> tuple[list[int], list[int], list[int]]:
        """The chosen atoms' succ CSR rows, merged per successor.

        Returns ``(successors ascending, edges from the chosen atoms into
        each, bytes those edges carry)``.
        """
        dag = self.dag
        edges, _ = row_slots(dag.succ_ptr, np.asarray(chosen, dtype=np.int64))
        if not len(edges):
            return [], [], []
        succ = dag.succ_ids[edges]
        order = np.argsort(succ, kind="stable")
        succ = succ[order]
        starts = np.flatnonzero(
            np.concatenate(([True], succ[1:] != succ[:-1]))
        )
        reads = np.diff(np.concatenate((starts, [len(succ)])))
        nbytes = np.add.reduceat(dag.succ_bytes[edges][order], starts)
        return succ[starts].tolist(), reads.tolist(), nbytes.tolist()

    def undo(self, record: RoundUndo) -> None:
        """Reverse the most recent :meth:`commit` exactly."""
        self.rounds_committed -= 1
        ready = self.ready
        for s in record.became_ready:
            ready.discard(s)
        indegree = self.indegree
        fresh_bytes = self._fresh_bytes
        fresh_round = self._fresh_round
        saved = record.fresh
        for i, (s, n_reads) in enumerate(zip(record.touched, record.reads)):
            indegree[s] += n_reads
            fresh_round[s] = saved[2 * i]
            fresh_bytes[s] = saved[2 * i + 1]
        scheduled = self.scheduled
        round_of = self.round_of
        block_of = self.block_of
        block_remaining = self.block_remaining
        block_size = self._block_size
        in_progress = self.in_progress
        sample_remaining = self._sample_remaining
        sample_of = self._sample_of
        for a in record.chosen:
            scheduled[a] = False
            ready.add(a)
            round_of[a] = -1
            b = block_of[a]
            left = block_remaining[b] + 1
            block_remaining[b] = left
            if left == block_size[b]:
                in_progress.discard(b)
            else:
                in_progress.add(b)
            sample_remaining[sample_of[a]] += 1
        self.remaining += len(record.chosen)

    def snapshot_key(self) -> frozenset[int]:
        """Hashable identity of the untraversed sub-DAG (the DP Table key)."""
        return frozenset(
            i for i in range(self.dag.num_atoms) if not self.scheduled[i]
        )


def classify_ready(state: SchedulerState) -> tuple[list[int], ...]:
    """Split the ready set into the four priority levels.

    Returns:
        Four lists of atom indices (level 1..4), each sorted by
        (sample, layer, tile index) for determinism.
    """
    current = state.current_sample()
    in_progress = state.in_progress
    block_depth = state._block_depth
    active_depths = {block_depth[b] for b in in_progress}
    sample_of = state._sample_of
    block_of = state.block_of
    depth_of = state._depth_of

    level1: list[int] = []
    level2: list[int] = []
    level3: list[int] = []
    level4: list[int] = []
    for a in state.ready:
        if sample_of[a] != current:
            level4.append(a)
        elif block_of[a] in in_progress:
            level1.append(a)
        elif depth_of[a] in active_depths:
            level2.append(a)
        else:
            level3.append(a)
    # Sample-major within a level: waves of consecutive samples stay
    # contiguous, so producer and consumer Rounds keep the same slot
    # alignment (level 4 holds several pending samples at once).
    order = state.sort_rank.__getitem__
    for lst in (level1, level2, level3, level4):
        lst.sort(key=order)
    return level1, level2, level3, level4


def fill_by_priority(state: SchedulerState, num_engines: int) -> list[int]:
    """Default combination: fill up to N engine slots in 1->2->3->4 order."""
    chosen: list[int] = []
    for level in classify_ready(state):
        for a in level:
            if len(chosen) == num_engines:
                return chosen
            chosen.append(a)
    return chosen


def candidate_combinations(
    state: SchedulerState, num_engines: int, max_options: int = 5
) -> list[tuple[int, ...]]:
    """Generate the pruned option set ``{Comb_i}`` for one Round.

    Besides the canonical priority fill, emits a few principled variants the
    DP can compare (Algorithm 2 line 8): a cycle-balanced fill (largest atoms
    first, to shorten the max-synchronized Round), a fill that keeps strictly
    to the highest non-empty priority level, and a truncated fill that leaves
    slack when the marginal atoms are much smaller than the Round maximum
    (running a tiny atom next Round can beat stretching this one).
    """
    levels = classify_ready(state)
    flat = [a for level in levels for a in level]
    if not flat:
        return []
    dag = state.dag

    options: list[tuple[int, ...]] = []

    def push(combo: list[int]) -> None:
        t = tuple(sorted(combo))
        if t and t not in options:
            options.append(t)

    push(flat[:num_engines])

    atom_cycles = dag.atom_cycles
    by_cycles = sorted(flat, key=lambda a: -atom_cycles[a])
    push(by_cycles[:num_engines])

    first_level = next((lvl for lvl in levels if lvl), [])
    push(first_level[:num_engines])

    base = flat[:num_engines]
    if len(base) > 1:
        longest = max(atom_cycles[a] for a in base)
        trimmed = [a for a in base if atom_cycles[a] * 4 >= longest]
        if trimmed and len(trimmed) < len(base):
            push(trimmed)

    # Pipeline-friendly fill: prefer atoms whose inputs finished at least
    # two Rounds ago (their transfers prefetch behind compute), topping up
    # with fresh-dependent atoms only if slots remain.  This is how the DP
    # interleaves batch samples to hide inter-layer halo traffic.
    mature = [a for a in flat if state.blocking_bytes(a) == 0]
    if mature and len(mature) != len(flat):
        fill = mature[:num_engines]
        if len(fill) < num_engines:
            taken = set(fill)
            fill += [a for a in flat if a not in taken][
                : num_engines - len(fill)
            ]
        push(fill)

    return options[:max_options]
