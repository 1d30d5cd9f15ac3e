"""Atomic DAG scheduling (the paper's Algorithm 2).

Two searchers share the Round/candidate machinery:

* :func:`schedule_exact_dp` — the literal dynamic program: memoize the
  minimum cost of every *untraversed sub-DAG* (the optimal substructure of
  Sec. IV-B) and try every atom combination per Round.  Exponential; used to
  validate optimality on small DAGs and as ground truth in tests.
* :func:`schedule_pruned` — the practical search the paper runs on real
  networks: the priority rules prune ``C(P, N)`` combinations to a handful
  of principled options per Round, and each option is scored by its Round
  cost plus a bounded lookahead (recursively applying the same rule) and a
  work-conserving lower bound on the remainder.  With ``lookahead=0`` and a
  single option this degenerates to pure priority-order filling.

Round cost defaults to the slowest chosen atom's cycles (Rounds synchronize
on the last finisher); callers may inject a richer cost (e.g. including a
communication estimate) via ``round_cost_fn``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from repro.atoms.dag import AtomicDAG
from repro.scheduling.priority import (
    SchedulerState,
    candidate_combinations,
    fill_by_priority,
)
from repro.scheduling.rounds import Round, Schedule

RoundCostFn = Callable[[AtomicDAG, tuple[int, ...]], float]


def default_round_cost(dag: AtomicDAG, combo: tuple[int, ...]) -> float:
    """Synchronized Round cost: cycles of the slowest chosen atom."""
    cycles = dag.atom_cycles
    return float(max(cycles[a] for a in combo))


class SearchBudgetExceeded(RuntimeError):
    """Raised when exact DP would visit more states than allowed."""


def schedule_exact_dp(
    dag: AtomicDAG,
    num_engines: int,
    round_cost_fn: RoundCostFn = default_round_cost,
    max_states: int = 100_000,
) -> tuple[Schedule, float]:
    """Optimal Round schedule by exhaustive memoized DP.

    Args:
        dag: The atomic DAG.
        num_engines: ``N``, the per-Round parallelism cap.
        round_cost_fn: Cost of one Round given its atom combination.
        max_states: Abort threshold on distinct sub-DAG states.

    Returns:
        (schedule, optimal total cost).

    Raises:
        SearchBudgetExceeded: When the state space exceeds ``max_states``
            (use :func:`schedule_pruned` instead).
        ValueError: On non-positive engine counts.
    """
    if num_engines <= 0:
        raise ValueError("num_engines must be positive")
    state = SchedulerState(dag)
    table: dict[frozenset[int], tuple[float, tuple[int, ...]]] = {}

    def solve() -> float:
        if state.remaining == 0:
            return 0.0
        key = state.snapshot_key()
        hit = table.get(key)
        if hit is not None:
            return hit[0]
        if len(table) >= max_states:
            raise SearchBudgetExceeded(
                f"exact DP exceeded {max_states} sub-DAG states"
            )
        ready = sorted(state.ready)
        best = float("inf")
        best_combo: tuple[int, ...] = ()
        max_k = min(num_engines, len(ready))
        for k in range(1, max_k + 1):
            for combo in combinations(ready, k):
                undo = state.commit(combo)
                cost = round_cost_fn(dag, combo) + solve()
                state.undo(undo)
                if cost < best:
                    best, best_combo = cost, combo
        table[key] = (best, best_combo)
        return best

    total = solve()

    # Reconstruct the optimal Round sequence from the table.
    schedule = Schedule()
    t = 0
    while state.remaining > 0:
        _, combo = table[state.snapshot_key()]
        state.commit(combo)
        schedule.rounds.append(Round(index=t, atom_indices=combo))
        t += 1
    return schedule, total


def schedule_pruned(
    dag: AtomicDAG,
    num_engines: int,
    round_cost_fn: RoundCostFn = default_round_cost,
    lookahead: int = 1,
    max_options: int = 5,
    link_bytes_per_cycle: float = 8.0,
) -> Schedule:
    """Priority-rule pruned scheduling with bounded lookahead.

    The per-Round cost the search minimizes is Algorithm 2's
    ``Cycle(Comb_i)``: compute (slowest atom) **plus** the communication the
    combination cannot prefetch — bytes produced in the immediately
    preceding Round, serialized over a NoC link.  This term is what steers
    the DP toward the pipeline-friendly interleavings (e.g. alternating
    batch samples) that hide inter-layer halo traffic behind compute.

    Args:
        dag: The atomic DAG.
        num_engines: Per-Round parallelism cap ``N``.
        round_cost_fn: Compute cost of one Round.
        lookahead: Extra Rounds explored recursively when comparing options
            (0 = pure greedy priority filling).
        max_options: Candidate combinations considered per Round.
        link_bytes_per_cycle: NoC link bandwidth used to convert blocking
            bytes into a cycle estimate.

    Returns:
        A valid :class:`Schedule`.

    Raises:
        ValueError: On non-positive engine counts.
    """
    if num_engines <= 0:
        raise ValueError("num_engines must be positive")
    state = SchedulerState(dag)
    atom_cycles = dag.atom_cycles
    total_remaining = float(dag.total_compute_cycles())

    def remainder_bound(remaining_cycles: float) -> float:
        """Work-conserving lower bound on finishing the untraversed DAG."""
        return remaining_cycles / num_engines

    def blocking_estimate(combo: tuple[int, ...]) -> float:
        return sum(state.blocking_bytes(a) for a in combo) / link_bytes_per_cycle

    def option_score(combo: tuple[int, ...], depth: int, remaining: float) -> float:
        cost = round_cost_fn(dag, combo) + blocking_estimate(combo)
        left = remaining - sum(atom_cycles[a] for a in combo)
        if depth == 0 or state.remaining == len(combo):
            return cost + remainder_bound(left)
        undo = state.commit(combo)
        options = candidate_combinations(state, num_engines, max_options)
        if options:
            best_next = min(
                option_score(o, depth - 1, left) for o in options
            )
        else:
            best_next = remainder_bound(left)
        state.undo(undo)
        return cost + best_next

    schedule = Schedule()
    t = 0
    remaining_cycles = total_remaining
    while state.remaining > 0:
        options = candidate_combinations(state, num_engines, max_options)
        if not options:
            raise RuntimeError("no ready atoms but DAG not exhausted (cycle?)")
        if len(options) == 1:
            best = options[0]
        else:
            best = min(
                options,
                key=lambda o: option_score(o, lookahead, remaining_cycles),
            )
        state.commit(best)
        remaining_cycles -= sum(atom_cycles[a] for a in best)
        schedule.rounds.append(Round(index=t, atom_indices=best))
        t += 1
    return schedule


def schedule_greedy(dag: AtomicDAG, num_engines: int) -> Schedule:
    """Pure priority-order filling, no option comparison.

    The cheapest scheduler; used as the ablation's "no DP" configuration
    (Fig. 10) and as a fast fallback for very large DAGs.
    """
    state = SchedulerState(dag)
    schedule = Schedule()
    t = 0
    while state.remaining > 0:
        combo = tuple(fill_by_priority(state, num_engines))
        if not combo:
            raise RuntimeError("no ready atoms but DAG not exhausted (cycle?)")
        state.commit(combo)
        schedule.rounds.append(Round(index=t, atom_indices=combo))
        t += 1
    return schedule
