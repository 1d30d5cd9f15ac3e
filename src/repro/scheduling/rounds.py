"""Schedule data types: Rounds of concurrently executing atoms.

Per Sec. III of the paper, execution proceeds in discrete *Rounds*: at most
``N`` atoms (one per engine) run concurrently and synchronize on the slowest
before the next Round starts.  Consequently an atom's dependencies must all
be scheduled in strictly earlier Rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atoms.dag import AtomicDAG


@dataclass(frozen=True)
class Round:
    """One synchronized execution step.

    Attributes:
        index: Round number ``t``.
        atom_indices: Dense atom indices running this Round (≤ N of them).
    """

    index: int
    atom_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.atom_indices)


@dataclass
class Schedule:
    """A complete ordering of an atomic DAG into Rounds.

    Attributes:
        rounds: The Rounds in execution order.
    """

    rounds: list[Round] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def atom_round(self) -> dict[int, int]:
        """Map atom index -> the Round it executes in."""
        return {
            a: r.index for r in self.rounds for a in r.atom_indices
        }

    def round_index(self, num_atoms: int) -> list[int]:
        """Round each atom executes in, by atom index (-1 if unscheduled)."""
        out = [-1] * num_atoms
        for r in self.rounds:
            for a in r.atom_indices:
                out[a] = r.index
        return out

    def validate(self, dag: AtomicDAG, num_engines: int) -> None:
        """Check schedule feasibility against a DAG.

        Verified: every atom appears exactly once, no Round exceeds the
        engine count, and every dependency resolves in an earlier Round.
        The dependency check runs over the DAG's pred CSR in one pass and
        reports the first violation in schedule order.

        Raises:
            ValueError: On any violation.
        """
        n = dag.num_atoms
        seen = bytearray(n)
        order: list[int] = []
        rounds: list[int] = []
        for r in self.rounds:
            if len(r.atom_indices) == 0:
                raise ValueError(f"round {r.index} is empty")
            if len(r.atom_indices) > num_engines:
                raise ValueError(
                    f"round {r.index} schedules {len(r.atom_indices)} atoms "
                    f"on {num_engines} engines"
                )
            for a in r.atom_indices:
                if not 0 <= a < n:
                    raise ValueError(f"atom {a} is not in the DAG")
                if seen[a]:
                    raise ValueError(f"atom {a} scheduled twice")
                seen[a] = 1
            order.extend(r.atom_indices)
            rounds.extend([r.index] * len(r.atom_indices))
        if len(order) != n:
            raise ValueError(f"schedule covers {len(order)} of {n} atoms")
        round_of = np.empty(n, dtype=np.int64)
        round_of[order] = rounds
        consumer_round = np.repeat(round_of, np.diff(dag.pred_ptr))
        late = np.flatnonzero(round_of[dag.pred_ids] >= consumer_round)
        if len(late):
            # The first violation in schedule order, preds ascending.
            position = np.empty(n, dtype=np.int64)
            position[order] = np.arange(n)
            consumers = np.searchsorted(dag.pred_ptr, late, side="right") - 1
            first = int(np.argmin(position[consumers]))
            a = int(consumers[first])
            p = int(dag.pred_ids[late[first]])
            raise ValueError(
                f"atom {a} in round {int(round_of[a])} depends on atom {p} "
                f"in round {int(round_of[p])}"
            )

    def compute_cycles(self, dag: AtomicDAG) -> int:
        """Total compute cycles: sum over Rounds of the slowest atom.

        This is the synchronization-aware compute time, before NoC/DRAM
        delays are added by the system simulator.
        """
        cycles = dag.atom_cycles
        return sum(
            max(cycles[a] for a in r.atom_indices) for r in self.rounds
        )


def layer_sequential_schedule(
    dag: AtomicDAG, num_engines: int, interleave_batch: bool = True
) -> Schedule:
    """Rounds that run one layer at a time across all engines.

    The LS policy's atom ordering — used by the LS baseline and, with
    batch > 1, tried by the framework as an alternative ordering inside
    atomic dataflow's search space.  With ``interleave_batch`` (the
    paper's batch-enhanced LS), the same layer of consecutive samples is
    co-scheduled so partial last Rounds of one sample are topped up with
    the next sample's atoms.
    """
    schedule = Schedule()
    t = 0
    layer_ids = np.unique(dag.atom_layer).tolist()
    pending: list[int] = []

    def flush(force: bool) -> None:
        nonlocal t, pending
        while len(pending) >= num_engines or (force and pending):
            chunk, pending = pending[:num_engines], pending[num_engines:]
            schedule.rounds.append(Round(index=t, atom_indices=tuple(chunk)))
            t += 1

    if interleave_batch:
        for layer in layer_ids:
            for sample in range(dag.batch):
                pending.extend(dag.atoms_of_layer(layer, sample))
            flush(force=False)
            # A layer's stragglers cannot merge with the *next* layer (it may
            # depend on them), so force a Round boundary here.
            flush(force=True)
    else:
        for sample in range(dag.batch):
            for layer in layer_ids:
                pending.extend(dag.atoms_of_layer(layer, sample))
                flush(force=True)
    return schedule
