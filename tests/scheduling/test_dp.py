"""Tests for exact DP and the pruned lookahead scheduler."""

import pytest

from repro.atoms import TileSize, build_atomic_dag, uniform_tiling
from repro.ir import GraphBuilder
from repro.ir.transforms import fuse_elementwise
from repro.scheduling import (
    SearchBudgetExceeded,
    schedule_exact_dp,
    schedule_greedy,
    schedule_pruned,
)

from tests.dag_rows import in_bytes, preds, succs


def _tiny_dag(kc_model, tiles=TileSize(4, 8, 16, 16)):
    b = GraphBuilder(name="tiny")
    x = b.input(8, 8, 16)
    c1 = b.conv(x, 16, kernel=3, name="c1")
    b.conv(c1, 16, kernel=3, name="c2")
    g = fuse_elementwise(b.build()).graph
    return build_atomic_dag(g, uniform_tiling(g, tiles), kc_model)


class TestExactDP:
    def test_schedule_is_valid(self, kc_model):
        dag = _tiny_dag(kc_model)
        schedule, _ = schedule_exact_dp(dag, 2)
        schedule.validate(dag, 2)

    def test_cost_matches_reconstruction(self, kc_model):
        dag = _tiny_dag(kc_model)
        schedule, cost = schedule_exact_dp(dag, 2)
        assert cost == pytest.approx(schedule.compute_cycles(dag))

    def test_never_worse_than_greedy(self, kc_model):
        dag = _tiny_dag(kc_model)
        exact, cost = schedule_exact_dp(dag, 2)
        greedy = schedule_greedy(dag, 2)
        assert cost <= greedy.compute_cycles(dag) + 1e-9

    def test_single_engine_serializes(self, kc_model):
        dag = _tiny_dag(kc_model)
        schedule, cost = schedule_exact_dp(dag, 1)
        assert schedule.num_rounds == dag.num_atoms
        assert cost == pytest.approx(dag.total_compute_cycles())

    def test_budget_exceeded_raises(self, kc_model):
        dag = _tiny_dag(kc_model, TileSize(2, 2, 16, 16))
        with pytest.raises(SearchBudgetExceeded):
            schedule_exact_dp(dag, 4, max_states=10)

    def test_invalid_engine_count(self, kc_model):
        dag = _tiny_dag(kc_model)
        with pytest.raises(ValueError):
            schedule_exact_dp(dag, 0)


class TestPrunedScheduler:
    def test_schedule_is_valid(self, chain_dag):
        schedule = schedule_pruned(chain_dag, 4)
        schedule.validate(chain_dag, 4)

    def test_lookahead_not_worse_than_greedy(self, chain_dag):
        pruned = schedule_pruned(chain_dag, 4, lookahead=2)
        greedy = schedule_greedy(chain_dag, 4)
        assert (
            pruned.compute_cycles(chain_dag)
            <= greedy.compute_cycles(chain_dag) * 1.05
        )

    def test_matches_exact_on_tiny_dag(self, kc_model):
        dag = _tiny_dag(kc_model)
        _, exact_cost = schedule_exact_dp(dag, 2)
        pruned = schedule_pruned(dag, 2, lookahead=2)
        # The pruned search is near-optimal on trivially small DAGs.
        assert pruned.compute_cycles(dag) <= exact_cost * 1.25

    def test_zero_lookahead_runs(self, chain_dag):
        schedule = schedule_pruned(chain_dag, 4, lookahead=0)
        schedule.validate(chain_dag, 4)

    def test_invalid_engine_count(self, chain_dag):
        with pytest.raises(ValueError):
            schedule_pruned(chain_dag, -1)


class TestGreedyScheduler:
    def test_all_atoms_scheduled_once(self, chain_dag):
        schedule = schedule_greedy(chain_dag, 3)
        schedule.validate(chain_dag, 3)
        scheduled = [a for r in schedule.rounds for a in r.atom_indices]
        assert sorted(scheduled) == list(range(chain_dag.num_atoms))

    def test_rounds_respect_engine_cap(self, chain_dag):
        schedule = schedule_greedy(chain_dag, 2)
        assert all(len(r) <= 2 for r in schedule.rounds)

    def test_more_engines_fewer_rounds(self, chain_dag):
        r2 = schedule_greedy(chain_dag, 2).num_rounds
        r8 = schedule_greedy(chain_dag, 8).num_rounds
        assert r8 <= r2


class TestCommunicationAwareDP:
    def _batched_chain_dag(self, kc_model, batch=3):
        from repro.ir import GraphBuilder
        from repro.ir.transforms import fuse_elementwise

        b = GraphBuilder(name="chainB")
        x = b.input(8, 8, 8)
        c1 = b.conv(x, 8, kernel=3, name="c1")
        c2 = b.conv(c1, 8, kernel=3, name="c2")
        b.conv(c2, 8, kernel=3, name="c3")
        g = fuse_elementwise(b.build()).graph
        return build_atomic_dag(
            g, uniform_tiling(g, TileSize(4, 4, 8, 8)), kc_model, batch=batch
        )

    def _blocking_bytes(self, dag, schedule):
        """Bytes crossing adjacent-Round dependency edges (unprefetchable)."""
        rounds = schedule.atom_round()
        return sum(
            nbytes
            for a in range(dag.num_atoms)
            for p, nbytes in in_bytes(dag, a).items()
            if rounds[p] == rounds[a] - 1
        )

    def test_dp_hides_more_traffic_than_greedy(self, kc_model):
        dag = self._batched_chain_dag(kc_model)
        greedy = schedule_greedy(dag, 4)
        pruned = schedule_pruned(dag, 4, lookahead=1)
        pruned.validate(dag, 4)
        assert self._blocking_bytes(dag, pruned) <= self._blocking_bytes(
            dag, greedy
        )

    def test_round_state_tracks_blocking(self, kc_model):
        from repro.scheduling import SchedulerState, fill_by_priority

        dag = self._batched_chain_dag(kc_model, batch=1)
        state = SchedulerState(dag)
        first = tuple(fill_by_priority(state, 4))
        state.commit(first)
        # Any successor of a first-Round atom now reports blocking bytes.
        succ = next(
            s for a in first for s in succs(dag, a) if s in state.ready
        )
        assert state.blocking_bytes(succ) > 0
        # An atom with no just-produced inputs reports zero.
        fresh = next(
            (a for a in state.ready if not preds(dag, a)), None
        )
        if fresh is not None:
            assert state.blocking_bytes(fresh) == 0

    def test_rounds_committed_counter(self, kc_model):
        from repro.scheduling import SchedulerState, fill_by_priority

        dag = self._batched_chain_dag(kc_model, batch=1)
        state = SchedulerState(dag)
        assert state.rounds_committed == 0
        state.commit(tuple(fill_by_priority(state, 4)))
        assert state.rounds_committed == 1
        committed = [a for a in range(dag.num_atoms) if state.scheduled[a]]
        assert all(state.round_of[a] == 0 for a in committed)
