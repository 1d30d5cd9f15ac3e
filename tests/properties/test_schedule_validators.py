"""Property-based tests tying the builder and schedulers to the validators.

Invariants: every schedule produced by the three schedulers
(exact DP, priority-pruned, greedy) passes `check_schedule` with zero
findings on randomly-shaped graphs; conversely, pulling any atom into
the Round of one of its predecessors always trips AD203.  Every built
DAG passes `check_dag`, and each seeded corruption of its CSR arrays
(`repro.analysis.selfcheck.DAG_CORRUPTIONS`) fires exactly its rule.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import check_dag, check_schedule
from repro.analysis.selfcheck import DAG_CORRUPTIONS
from repro.atoms import TileSize, build_atomic_dag, uniform_tiling
from repro.config import EngineConfig
from repro.engine import EngineCostModel, get_dataflow
from repro.ir import GraphBuilder
from repro.scheduling import (
    Round,
    Schedule,
    SearchBudgetExceeded,
    default_round_cost,
    schedule_exact_dp,
    schedule_greedy,
    schedule_pruned,
)

from tests.dag_rows import preds

COST_MODEL = EngineCostModel(
    EngineConfig(pe_rows=8, pe_cols=8), get_dataflow("kc")
)


@st.composite
def small_dags(draw):
    """Random small DAGs: chain or residual shape, random tiling/batch."""
    tile_h = draw(st.sampled_from([4, 8]))
    tile_c = draw(st.sampled_from([4, 8]))
    batch = draw(st.integers(1, 2))
    residual = draw(st.booleans())

    b = GraphBuilder(name="prop_validator")
    x = b.input(8, 8, 4)
    c1 = b.conv(x, 8, kernel=3, name="c1")
    c2 = b.conv(c1, 8, kernel=3, name="c2")
    if residual:
        s = b.conv(x, 8, kernel=1, name="proj")
        b.add(c2, s, name="join")
    g = b.build()
    tiling = uniform_tiling(g, TileSize(tile_h, 8, 8, tile_c))
    return build_atomic_dag(g, tiling, COST_MODEL, batch=batch)


@st.composite
def varied_dags(draw):
    """DAGs with a depthwise, a stride-2 and a concat layer, odd spatial
    sizes, random tiles and batch 1-3."""
    height = draw(st.sampled_from([5, 7, 9]))
    width = draw(st.sampled_from([3, 5, 7]))
    tile = TileSize(
        draw(st.sampled_from([2, 3, 4])),
        draw(st.sampled_from([2, 3, 8])),
        8,
        draw(st.sampled_from([4, 8])),
    )
    batch = draw(st.integers(1, 3))

    b = GraphBuilder(name="prop_arrays")
    x = b.input(height, width, 4)
    c1 = b.conv(x, 8, kernel=3, name="c1")
    dw = b.depthwise_conv(c1, kernel=3, name="dw")
    down = b.conv(dw, 8, kernel=3, stride=2, name="down")
    side = b.conv(c1, 4, kernel=1, stride=2, name="side")
    join = b.concat(down, side, name="join")
    b.conv(join, 8, kernel=1, name="tail")
    g = b.build()
    return build_atomic_dag(g, uniform_tiling(g, tile), COST_MODEL, batch=batch)


class TestDagCheckersOnGeneratedDags:
    @given(varied_dags())
    @settings(max_examples=25, deadline=None)
    def test_clean_and_each_corruption_fires_its_rule(self, dag):
        report = check_dag(dag)
        assert report.checked and not report.diagnostics, report.render()
        for rule, (label, corrupt) in DAG_CORRUPTIONS.items():
            assert check_dag(corrupt(dag)).fired_rule_ids() == {rule}, label


class TestSchedulersSatisfyValidator:
    @given(small_dags(), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_greedy_passes(self, dag, engines):
        report = check_schedule(dag, schedule_greedy(dag, engines), engines)
        assert report.ok and not report.diagnostics

    @given(small_dags(), st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_pruned_passes(self, dag, engines):
        schedule = schedule_pruned(dag, engines)
        report = check_schedule(dag, schedule, engines)
        assert report.ok and not report.diagnostics

    @given(small_dags(), st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_exact_dp_passes_including_cost_crosscheck(self, dag, engines):
        try:
            schedule, total = schedule_exact_dp(
                dag, engines, max_states=20_000
            )
        except SearchBudgetExceeded:
            assume(False)
        # AD205: the reported optimum must match recomputation with the
        # same round_cost_fn the DP minimized.
        report = check_schedule(
            dag,
            schedule,
            engines,
            round_cost_fn=default_round_cost,
            expected_cost=total,
        )
        assert report.ok and not report.diagnostics


class TestMutatedSchedulesFailValidator:
    @given(small_dags(), st.integers(2, 6), st.data())
    @settings(max_examples=20, deadline=None)
    def test_hoisting_a_dependent_atom_trips_ad203(
        self, dag, engines, data
    ):
        schedule = schedule_greedy(dag, engines)
        atom_round = schedule.atom_round()
        movable = [
            (a, p)
            for a in range(dag.num_atoms)
            for p in preds(dag, a)
        ]
        assume(movable)
        a, p = data.draw(st.sampled_from(movable))

        # Move atom `a` into its predecessor's Round: a dependency can
        # then no longer resolve strictly earlier.
        target = atom_round[p]
        rounds = []
        for rnd in schedule.rounds:
            atoms = tuple(x for x in rnd.atom_indices if x != a)
            if rnd.index == target:
                atoms += (a,)
            if atoms:
                rounds.append(Round(len(rounds), atoms))
        mutated = Schedule(rounds=rounds)

        report = check_schedule(dag, mutated, engines)
        assert not report.ok
        assert "AD203" in report.fired_rule_ids()
