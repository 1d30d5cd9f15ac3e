"""Tests for the scheduler state and the four priority rules."""

import pytest

from repro.atoms import TileSize, build_atomic_dag, uniform_tiling
from repro.ir import GraphBuilder
from repro.ir.transforms import fuse_elementwise
from repro.scheduling import (
    SchedulerState,
    candidate_combinations,
    classify_ready,
    fill_by_priority,
)

from tests.dag_rows import preds


def _two_branch_dag(kc_model):
    """Two parallel convs at the same depth feeding a concat."""
    b = GraphBuilder(name="par")
    x = b.input(8, 8, 8)
    l = b.conv(x, 8, kernel=1, name="left")
    r = b.conv(x, 8, kernel=1, name="right")
    b.concat(l, r, name="join")
    g = fuse_elementwise(b.build()).graph
    tiling = uniform_tiling(g, TileSize(4, 4, 8, 8))
    return g, build_atomic_dag(g, tiling, kc_model)


class TestSchedulerState:
    def test_initial_ready_set_is_sources(self, chain_dag):
        state = SchedulerState(chain_dag)
        assert state.ready == {
            i for i in range(chain_dag.num_atoms) if not preds(chain_dag, i)
        }

    def test_commit_unlocks_successors(self, chain_dag):
        state = SchedulerState(chain_dag)
        first = tuple(sorted(state.ready))
        state.commit(first)
        assert state.remaining == chain_dag.num_atoms - len(first)
        # All of layer 2's atoms become ready once layer 1 is done.
        assert state.ready

    def test_commit_unready_atom_rejected(self, chain_dag):
        state = SchedulerState(chain_dag)
        not_ready = next(
            i for i in range(chain_dag.num_atoms) if preds(chain_dag, i)
        )
        with pytest.raises(ValueError):
            state.commit((not_ready,))

    def test_double_commit_rejected(self, chain_dag):
        state = SchedulerState(chain_dag)
        a = next(iter(state.ready))
        state.commit((a,))
        with pytest.raises(ValueError):
            state.commit((a,))

    def test_current_sample_advances(self, chain_graph, kc_model):
        g = fuse_elementwise(chain_graph).graph
        tiling = uniform_tiling(g, TileSize(16, 16, 8, 8))
        dag = build_atomic_dag(g, tiling, kc_model, batch=2)
        state = SchedulerState(dag)
        assert state.current_sample() == 0
        for a in [i for i in range(dag.num_atoms) if dag.atoms[i].sample == 0]:
            if a in state.ready:
                state.commit((a,))
        # Drain sample 0 completely.
        while any(
            not state.scheduled[i]
            for i in range(dag.num_atoms)
            if dag.atoms[i].sample == 0
        ):
            ready0 = [a for a in state.ready if dag.atoms[a].sample == 0]
            state.commit(tuple(ready0))
        assert state.current_sample() == 1


class TestPriorityRules:
    def test_rule1_prefers_started_layers(self, kc_model):
        g, dag = _two_branch_dag(kc_model)
        state = SchedulerState(dag)
        left = g.by_name("left").node_id
        l_atoms = list(dag.atoms_of_layer(left))
        # Start 'left' but leave atoms remaining.
        state.commit((l_atoms[0],))
        level1, level2, _, _ = classify_ready(state)
        assert set(level1) == set(l_atoms[1:])

    def test_rule2_same_depth_layers(self, kc_model):
        g, dag = _two_branch_dag(kc_model)
        state = SchedulerState(dag)
        left = g.by_name("left").node_id
        right = g.by_name("right").node_id
        state.commit((dag.atoms_of_layer(left)[0],))
        _, level2, _, _ = classify_ready(state)
        # 'right' shares the depth of in-progress 'left'.
        assert set(level2) == set(dag.atoms_of_layer(right))

    def test_rule4_defers_next_sample(self, chain_graph, kc_model):
        g = fuse_elementwise(chain_graph).graph
        tiling = uniform_tiling(g, TileSize(8, 8, 8, 8))
        dag = build_atomic_dag(g, tiling, kc_model, batch=2)
        state = SchedulerState(dag)
        levels = classify_ready(state)
        assert all(dag.atoms[a].sample == 0 for a in levels[0] + levels[1] + levels[2])
        assert all(dag.atoms[a].sample == 1 for a in levels[3])

    def test_fill_caps_at_engine_count(self, chain_dag):
        state = SchedulerState(chain_dag)
        chosen = fill_by_priority(state, num_engines=2)
        assert len(chosen) == 2

    def test_fill_spills_into_lower_levels(self, kc_model):
        g, dag = _two_branch_dag(kc_model)
        state = SchedulerState(dag)
        left = g.by_name("left").node_id
        state.commit((dag.atoms_of_layer(left)[0],))
        chosen = fill_by_priority(state, num_engines=8)
        # 3 remaining left atoms (level 1), then right atoms (level 2), then
        # the one concat tile whose only input (left tile 0) is complete.
        layers = [dag.atoms[a].layer for a in chosen]
        right = g.by_name("right").node_id
        assert layers.count(left) == 3
        assert layers.count(right) == 4
        assert len(chosen) == 8
        # Priority ordering: left atoms come before right atoms.
        assert layers.index(right) >= 3


class TestCandidateCombinations:
    def test_options_nonempty_and_unique(self, chain_dag):
        state = SchedulerState(chain_dag)
        options = candidate_combinations(state, num_engines=2)
        assert options
        assert len(set(options)) == len(options)

    def test_options_are_schedulable(self, chain_dag):
        state = SchedulerState(chain_dag)
        for combo in candidate_combinations(state, num_engines=4):
            assert set(combo) <= state.ready
            assert len(combo) <= 4

    def test_empty_when_exhausted(self, chain_dag):
        state = SchedulerState(chain_dag)
        while state.remaining:
            combo = tuple(fill_by_priority(state, 64))
            state.commit(combo)
        assert candidate_combinations(state, 4) == []
