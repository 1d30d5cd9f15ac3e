"""Golden-equivalence properties of the vectorized cost-kernel core.

The refactor's contract is *bit-identical* results: the batched
structure-of-arrays kernel must reproduce the scalar
:meth:`EngineCostModel.cost` field for field on every op kind, tile
region, and dataflow, and the SA loop's incremental delta-cost
bookkeeping must always equal a from-scratch re-sum.

All randomized dimensions stay far below 2**53, so ``ceil`` of a float
quotient is exact in both the scalar (``math.ceil(a / b)``) and the
vectorized (``np.ceil(a / b)``) paths — the regime the kernel documents.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atoms.generation import _FIT_SWEEPS, _UTIL_PENALTY, AtomGenerator
from repro.config import EngineConfig
from repro.engine import EngineCostModel, get_dataflow
from repro.engine.batch import region_bounds
from repro.ir import Conv2D, GraphBuilder, Region, TensorShape
from repro.ir.ops import Add, FullyConnected, GlobalPool, Pool, ReLU

small = st.integers(min_value=1, max_value=20)
chans = st.integers(min_value=1, max_value=48)
dataflows = st.sampled_from(["kc", "yx", "kcw"])


@st.composite
def conv_cases(draw):
    groups = draw(st.sampled_from([1, 2]))
    cin = groups * draw(st.integers(1, 24))
    cout = groups * draw(st.integers(1, 24))
    # Spatial extents start at 4 so any kernel<=3 / stride<=2 combination
    # keeps the output dimensions positive.
    shape = TensorShape(draw(st.integers(4, 20)), draw(st.integers(4, 20)), cin)
    k = draw(st.integers(1, 3))
    op = Conv2D(
        out_channels=cout,
        kernel=(k, draw(st.integers(1, 3))),
        stride=(draw(st.integers(1, 2)), draw(st.integers(1, 2))),
        padding=(draw(st.integers(0, 1)), draw(st.integers(0, 1))),
        groups=groups,
    )
    return op, (shape,)


@st.composite
def vector_cases(draw):
    shape = TensorShape(draw(st.integers(3, 20)), draw(st.integers(3, 20)), draw(chans))
    kind = draw(st.sampled_from(["pool", "gpool", "add", "relu", "fc"]))
    if kind == "pool":
        return Pool(kernel=(draw(st.integers(1, 3)),) * 2), (shape,)
    if kind == "gpool":
        return GlobalPool(), (shape,)
    if kind == "add":
        arity = draw(st.integers(2, 3))
        return Add(arity=arity), (shape,) * arity
    if kind == "relu":
        return ReLU(), (shape,)
    return FullyConnected(out_features=draw(chans)), (shape,)


@st.composite
def regions_of(draw, shape: TensorShape):
    def span(extent):
        a = draw(st.integers(0, extent - 1))
        b = draw(st.integers(0, extent - 1))
        return (min(a, b), max(a, b))

    return Region(span(shape.height), span(shape.width), span(shape.channels))


@st.composite
def op_with_regions(draw):
    op, in_shapes = draw(st.one_of(conv_cases(), vector_cases()))
    out = op.infer_shape(in_shapes)
    regions = draw(st.lists(regions_of(out), min_size=1, max_size=6))
    return op, in_shapes, regions


class TestScalarBatchEquivalence:
    @given(op_with_regions(), dataflows)
    @settings(max_examples=300, deadline=None)
    def test_batched_costs_match_scalar_field_for_field(self, case, df):
        op, in_shapes, regions = case
        cm = EngineCostModel(EngineConfig(), get_dataflow(df))
        arrays = cm.kernel.price_regions(op, in_shapes, region_bounds(regions))
        for i, region in enumerate(regions):
            scalar = cm.cost(op, in_shapes, region)
            batched = arrays.cost_at(i)
            assert batched == scalar

    @given(op_with_regions(), dataflows)
    @settings(max_examples=100, deadline=None)
    def test_layer_cost_consistent_with_batch(self, case, df):
        op, in_shapes, regions = case
        cm = EngineCostModel(EngineConfig(), get_dataflow(df))
        out = op.infer_shape(in_shapes)
        full = Region(
            (0, out.height - 1), (0, out.width - 1), (0, out.channels - 1)
        )
        arrays = cm.kernel.price_regions(op, in_shapes, region_bounds([full]))
        assert arrays.cost_at(0) == cm.layer_cost(op, in_shapes)

    @given(op_with_regions(), dataflows, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_prototype_engine_equivalence(self, case, df, wide):
        op, in_shapes, regions = case
        engine = EngineConfig(pe_rows=32, pe_cols=32) if wide else EngineConfig(
            pe_rows=8, pe_cols=8
        )
        cm = EngineCostModel(engine, get_dataflow(df))
        arrays = cm.kernel.price_regions(op, in_shapes, region_bounds(regions))
        for i, region in enumerate(regions):
            assert arrays.cost_at(i) == cm.cost(op, in_shapes, region)


def _make_generator(df: str, seed: int) -> AtomGenerator:
    b = GraphBuilder(name="sa_prop")
    x = b.input(14, 14, 8)
    c1 = b.conv(x, 16, kernel=3, name="c1")
    c2 = b.conv(c1, 16, kernel=3, stride=2, name="c2")
    b.conv(c2, 24, kernel=1, name="c3")
    return AtomGenerator(
        b.build(),
        EngineCostModel(EngineConfig(), get_dataflow(df)),
        rng=np.random.default_rng(seed),
    )


def _reference_fit(gen, node, start, target):
    """The pre-vectorization scalar sweep: ladder order, strict-< accept."""
    ladders = gen._memos[node.node_id].ladders
    cycles0, util0 = gen.atom_cost(node, start)
    best = start
    best_gap = abs(cycles0 - target) + (_UTIL_PENALTY * target) * (1.0 - util0)
    for _ in range(_FIT_SWEEPS):
        improved = False
        for k in range(4):
            for v in ladders[k]:
                cand = best[:k] + (v,) + best[k + 1 :]
                cycles, util = gen.atom_cost(node, cand)
                gap = abs(cycles - target) + (_UTIL_PENALTY * target) * (
                    1.0 - util
                )
                if gap < best_gap:
                    best, best_gap = cand, gap
                    improved = True
        if not improved:
            break
    return best


class TestSADeltaCostEquivalence:
    @given(
        st.sampled_from(["kc", "yx"]),
        st.integers(0, 2**32 - 1),
        st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_fit_matches_scalar_sweep(self, df, seed, target):
        gen = _make_generator(df, seed)
        ref = _make_generator(df, seed)
        for node in gen._compute_nodes:
            start = gen._random_coeffs(node)
            assert gen._fit_layer_to_state(node, start, target) == _reference_fit(
                ref, node, start, target
            )

    @given(
        st.sampled_from(["kc", "yx"]),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_delta_bookkeeping_matches_full_resum(self, df, seed, states):
        """Incremental cycle/count updates == recomputing from scratch.

        This is the invariant the SA loop relies on: refitting only the
        changed layers keeps the maintained arrays (and hence the energy,
        always evaluated over the full arrays) equal to a full re-sum.
        """
        gen = _make_generator(df, seed)
        assignment = {
            n.node_id: gen._random_coeffs(n) for n in gen._compute_nodes
        }
        cycles = gen._cycles_of(assignment)
        counts = gen._counts_of(assignment)
        for state in states:
            for i, node in enumerate(gen._compute_nodes):
                fitted = gen._fit_layer_to_state(
                    node, assignment[node.node_id], state
                )
                if fitted == assignment[node.node_id]:
                    continue
                assignment[node.node_id] = fitted
                cycles[i] = gen.atom_cycles(node, fitted)
                counts[i] = gen._count_of(node, fitted)
            assert cycles == gen._cycles_of(assignment)
            assert counts == gen._counts_of(assignment)
            assert gen._energy(cycles, counts) == gen._energy(
                gen._cycles_of(assignment), gen._counts_of(assignment)
            )
