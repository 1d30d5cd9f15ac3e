"""Tests for the SA tiling memo shared through the engine cost model.

Every :class:`~repro.atoms.generation.AtomGenerator` over one cost model
shares one :class:`~repro.engine.cost_model.TileMemo` per distinct layer
content, so restarts, tempering segments and repeated layers reuse each
other's priced tile-lattice points.  The memo holds pure values only:
a warm cost model must anneal exactly like a fresh one, in any order and
from concurrent threads.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atoms.generation import (
    _INFEASIBLE_CYCLES,
    _UTIL_PENALTY,
    AtomGenerator,
    SAParams,
    _best_on_axis,
)
from repro.config import DEFAULT_ARCH
from repro.ir import GraphBuilder
from repro.models import get_model
from repro.pipeline import SATilingStage, SearchContext

PARAMS = SAParams(max_iterations=40)


def _context(model: str = "resnet50_bench") -> SearchContext:
    return SearchContext.create(get_model(model), DEFAULT_ARCH)


def _anneal(ctx: SearchContext, seed) -> tuple:
    """One restart's tiling stage, reduced to everything it decides."""
    gen = AtomGenerator(
        ctx.graph, ctx.cost_model, rng=np.random.default_rng(seed)
    ).generate_sa(PARAMS, parallel_hint=ctx.num_engines)
    return (
        gen.tiling,
        gen.unified_cycle,
        gen.energy,
        gen.history,
        gen.layer_cycles,
        gen.iterations,
    )


class TestWarmMemo:
    def test_warm_cost_model_reproduces_fresh_results(self):
        warm = _context()
        sources = [0] + list(np.random.SeedSequence(0).spawn(7))
        stage = SATilingStage(params=PARAMS)
        for source in sources:  # an 8-restart search's tiling phase
            stage.run(warm, np.random.default_rng(source))
        assert warm.cost_model.tile_memos
        for seed in (11, 12, 13):
            assert _anneal(warm, seed) == _anneal(_context(), seed)

    def test_repeated_layers_share_one_entry(self):
        ctx = SearchContext.create(get_model("resnet50"), DEFAULT_ARCH)
        gen = AtomGenerator(ctx.graph, ctx.cost_model)
        assert len(gen._compute_nodes) == 54
        assert len(ctx.cost_model.tile_memos) == 24
        # Every layer's memo is the shared entry of its content key.
        for node in gen._compute_nodes:
            key = (
                node.op,
                ctx.graph.input_shapes(node.node_id),
                node.output_shape,
            )
            assert gen._memos[node.node_id] is ctx.cost_model.tile_memos[key]

    def test_layers_differing_only_in_input_shape_do_not_share(self):
        b = GraphBuilder(name="twins")
        wide = b.input(16, 16, 16, name="wide")
        narrow = b.input(16, 16, 4, name="narrow")
        b.conv(wide, 32, kernel=3, name="from_wide")
        b.conv(narrow, 32, kernel=3, name="from_narrow")
        b.conv(wide, 32, kernel=3, name="from_wide_again")
        ctx = SearchContext.create(b.build(), DEFAULT_ARCH)
        gen = AtomGenerator(ctx.graph, ctx.cost_model)
        nodes = {n.name: n for n in gen._compute_nodes}
        assert nodes["from_wide"].op == nodes["from_narrow"].op
        assert (
            nodes["from_wide"].output_shape == nodes["from_narrow"].output_shape
        )
        memos = {name: gen._memos[n.node_id] for name, n in nodes.items()}
        assert memos["from_wide"] is not memos["from_narrow"]
        assert memos["from_wide"] is memos["from_wide_again"]
        assert len(ctx.cost_model.tile_memos) == 2

    def test_memo_values_are_immutable_scalars(self):
        ctx = _context()
        _anneal(ctx, 0)
        for memo in ctx.cost_model.tile_memos.values():
            for cycles, util in memo.lattice.values():
                assert type(cycles) is int and type(util) is float
            for cycles, utils in memo.axis.values():
                assert isinstance(cycles, tuple) and isinstance(utils, tuple)
                assert all(type(c) is int for c in cycles)
                assert all(type(u) is float for u in utils)
            assert all(type(n) is int for n in memo.counts.values())


class TestConcurrentAnnealing:
    def test_threads_on_one_cost_model_match_serial_runs(self):
        # More threads than cores and a short switch interval, so memo
        # reads and writes interleave as finely as the interpreter allows.
        seeds = (3, 4, 5, 6)
        serial = {seed: _anneal(_context(), seed) for seed in seeds}
        shared = _context()
        barrier = threading.Barrier(len(seeds))
        results: dict = {}
        errors: list = []

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=60)
                results[seed] = _anneal(shared, seed)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == serial


def _numpy_best_on_axis(cycles, utils, target, best_gap):
    """The vectorized sweep the scalar scan replaced (the oracle)."""
    gaps = np.abs(np.array(cycles, dtype=np.int64) - target) + (
        _UTIL_PENALTY * target
    ) * (1.0 - np.array(utils, dtype=float))
    j = int(np.argmin(gaps))
    gap = float(gaps[j])
    if gap < best_gap:
        return j, gap
    return -1, best_gap


@st.composite
def axis_cases(draw):
    size = draw(st.integers(1, 13))
    # Few distinct values, so exact ties between candidates are common.
    cycle_pool = draw(
        st.lists(st.integers(1, 5000), min_size=1, max_size=4)
    ) + [_INFEASIBLE_CYCLES]
    util_pool = draw(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)
    )
    cycles, utils = [], []
    for _ in range(size):
        c = draw(st.sampled_from(cycle_pool))
        cycles.append(c)
        infeasible = c == _INFEASIBLE_CYCLES
        utils.append(0.0 if infeasible else draw(st.sampled_from(util_pool)))
    # Targets on a cycle value make |cycles - target| tie at zero.
    target = draw(
        st.one_of(
            st.sampled_from([float(c) for c in cycle_pool[:-1]]),
            st.floats(1.0, 1e6),
        )
    )
    return tuple(cycles), tuple(utils), target


class TestScalarSweep:
    @given(axis_cases(), st.floats(0.0, 1e13), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_scalar_scan_matches_numpy_formula(self, case, incumbent, at_min):
        cycles, utils, target = case
        oracle_j, oracle_gap = _numpy_best_on_axis(cycles, utils, target, np.inf)
        # Either an arbitrary incumbent or one tying the best candidate
        # exactly (which must then never be displaced).
        best_gap = oracle_gap if at_min else incumbent
        expected = _numpy_best_on_axis(cycles, utils, target, best_gap)
        got = _best_on_axis(cycles, utils, target, _UTIL_PENALTY * target, best_gap)
        assert got == expected

    def test_ties_pick_the_first_index(self):
        cycles = (_INFEASIBLE_CYCLES, 120, 80, 120, 80)
        utils = (0.0, 0.5, 0.5, 0.5, 0.5)
        got = _best_on_axis(cycles, utils, 100.0, _UTIL_PENALTY * 100.0, np.inf)
        assert got == _numpy_best_on_axis(cycles, utils, 100.0, np.inf)
        assert got[0] == 1

    def test_all_infeasible_keeps_a_better_incumbent(self):
        cycles = (_INFEASIBLE_CYCLES,) * 3
        utils = (0.0,) * 3
        got = _best_on_axis(cycles, utils, 50.0, _UTIL_PENALTY * 50.0, 10.0)
        assert got == (-1, 10.0)
