"""Functional-correctness tests: atom-wise execution == direct execution.

These are the strongest partition-correctness checks in the suite: any
error in tile grids, receptive-field algebra, concat channel offsets, or
atomic-DAG edge inference shows up as NaN reads or numeric mismatches.
"""

import numpy as np
import pytest

from repro.atoms import TileSize, build_atomic_dag, uniform_tiling
from repro.exec import (
    AtomExecutionError,
    execute_atomwise,
    execute_graph,
    random_weights,
)
from repro.ir import GraphBuilder
from repro.ir.transforms import fuse_elementwise
from repro.scheduling import schedule_greedy

RNG = np.random.default_rng(42)


def _feeds(graph, rng):
    out = {}
    for i in graph.sources():
        s = graph.node(i).output_shape
        out[i] = rng.standard_normal((s.height, s.width, s.channels))
    return out


def _check_graph(graph, tile: TileSize, kc_model, batch_schedule=True):
    """Direct vs atom-wise execution must agree everywhere."""
    rng = np.random.default_rng(7)
    weights = random_weights(graph, rng)
    feeds = _feeds(graph, rng)
    direct = execute_graph(graph, feeds, weights)

    tiling = uniform_tiling(graph, tile)
    dag = build_atomic_dag(graph, tiling, kc_model)
    schedule = schedule_greedy(dag, 4) if batch_schedule else None
    atomwise = execute_atomwise(dag, feeds, weights, schedule=schedule)
    for layer, expected in direct.items():
        got = atomwise[layer]
        np.testing.assert_allclose(
            got, expected, rtol=1e-9, atol=1e-9,
            err_msg=f"layer {graph.node(layer).name} mismatch",
        )


class TestAtomwiseMatchesDirect:
    def test_conv_chain_with_halos(self, kc_model):
        b = GraphBuilder(name="halo")
        x = b.input(12, 12, 4)
        c = b.conv(x, 8, kernel=3, name="c1")
        b.conv(c, 8, kernel=3, name="c2")
        _check_graph(b.build(), TileSize(5, 5, 4, 4), kc_model)

    def test_strided_conv(self, kc_model):
        b = GraphBuilder(name="stride")
        x = b.input(12, 12, 4)
        c = b.conv(x, 8, kernel=3, stride=2, name="c1")
        b.conv(c, 8, kernel=3, name="c2")
        _check_graph(b.build(), TileSize(3, 3, 8, 4), kc_model)

    def test_valid_padding_conv(self, kc_model):
        b = GraphBuilder(name="valid")
        x = b.input(10, 10, 4)
        c = b.conv(x, 8, kernel=3, padding="valid", name="c1")
        b.conv(c, 4, kernel=1, name="c2")
        _check_graph(b.build(), TileSize(4, 4, 8, 4), kc_model)

    def test_rectangular_kernels(self, kc_model):
        b = GraphBuilder(name="rect")
        x = b.input(10, 10, 4)
        c = b.conv(x, 8, kernel=(1, 7), padding=(0, 3), name="c1")
        b.conv(c, 8, kernel=(7, 1), padding=(3, 0), name="c2")
        _check_graph(b.build(), TileSize(4, 4, 4, 4), kc_model)

    def test_residual_add(self, kc_model, residual_graph):
        g = fuse_elementwise(residual_graph).graph
        _check_graph(g, TileSize(6, 6, 8, 4), kc_model)

    def test_concat_channel_offsets(self, kc_model, branching_graph):
        g = fuse_elementwise(branching_graph).graph
        _check_graph(g, TileSize(4, 4, 8, 4), kc_model)

    def test_pooling(self, kc_model):
        b = GraphBuilder(name="pool")
        x = b.input(12, 12, 4)
        c = b.conv(x, 8, kernel=3, name="c1")
        p = b.max_pool(c, kernel=2, name="p1")
        a = b.avg_pool(p, kernel=3, stride=1, padding=1, name="p2")
        b.conv(a, 4, kernel=1, name="c2")
        _check_graph(b.build(), TileSize(3, 3, 8, 4), kc_model)

    def test_depthwise_conv(self, kc_model):
        b = GraphBuilder(name="dw")
        x = b.input(10, 10, 8)
        d = b.depthwise_conv(x, kernel=3, name="dw1")
        b.conv(d, 8, kernel=1, name="pw1")
        _check_graph(b.build(), TileSize(4, 4, 8, 4), kc_model)

    def test_se_block_with_scale(self, kc_model):
        b = GraphBuilder(name="se")
        x = b.input(8, 8, 8)
        c = b.conv(x, 8, kernel=3, name="c1")
        s = b.global_avg_pool(c, name="sq")
        s = b.fc(s, 8, name="exc")
        s = b.sigmoid(s, name="gate")
        y = b.scale(c, s, name="scale")
        b.conv(y, 4, kernel=1, name="c2")
        g = fuse_elementwise(b.build()).graph
        _check_graph(g, TileSize(4, 4, 8, 4), kc_model)

    def test_fc_head(self, kc_model):
        b = GraphBuilder(name="fc")
        x = b.input(6, 6, 4)
        c = b.conv(x, 8, kernel=3, name="c1")
        g1 = b.global_avg_pool(c, name="gap")
        b.fc(g1, 10, name="fc")
        _check_graph(b.build(), TileSize(3, 3, 4, 4), kc_model)

    def test_unfused_relu_and_bn(self, kc_model):
        b = GraphBuilder(name="unfused", fold_batchnorm=False)
        x = b.input(8, 8, 4)
        b.conv_bn_relu(x, 8, kernel=3, name="blk")
        _check_graph(b.build(), TileSize(4, 4, 4, 4), kc_model)

    def test_whole_layer_tiles(self, kc_model, residual_graph):
        # Degenerate tiling (one atom per layer) must also agree.
        g = fuse_elementwise(residual_graph).graph
        _check_graph(g, TileSize(100, 100, 100, 100), kc_model)


class TestErrorDetection:
    def test_missing_edge_detected(self, kc_model):
        b = GraphBuilder(name="sab")
        x = b.input(8, 8, 4)
        c1 = b.conv(x, 4, kernel=3, name="c1")
        b.conv(c1, 4, kernel=3, name="c2")
        g = b.build()
        dag = build_atomic_dag(g, uniform_tiling(g, TileSize(4, 4, 4, 4)), kc_model)
        # Sabotage: a schedule that runs c2 before c1 materializes.
        rng = np.random.default_rng(0)
        weights = random_weights(g, rng)
        feeds = _feeds(g, rng)
        c2 = g.by_name("c2").node_id
        c2_first = sorted(
            range(dag.num_atoms),
            key=lambda a: 0 if dag.atoms[a].layer == c2 else 1,
        )
        from repro.scheduling.rounds import Round, Schedule

        sabotaged = Schedule(
            rounds=[
                Round(index=t, atom_indices=(a,))
                for t, a in enumerate(c2_first)
            ]
        )
        with pytest.raises(AtomExecutionError, match="unmaterialized"):
            execute_atomwise(dag, feeds, weights, schedule=sabotaged)

    def test_missing_feed_rejected(self, kc_model, chain_dag):
        with pytest.raises(ValueError, match="feed"):
            execute_atomwise(chain_dag, {}, random_weights(
                chain_dag.graph, np.random.default_rng(0)
            ))


class TestReferenceExecutor:
    def test_shape_assertions_hold_on_models(self):
        # Shape inference of the IR and the numpy executor agree on a
        # small but representative model.
        from repro.models import vgg19

        g = vgg19(input_size=32, width_mult=0.25)
        rng = np.random.default_rng(1)
        values = execute_graph(g, _feeds(g, rng), random_weights(g, rng))
        assert len(values) == len(g)

    def test_feed_shape_mismatch_rejected(self, chain_graph):
        rng = np.random.default_rng(0)
        weights = random_weights(chain_graph, rng)
        bad = {chain_graph.sources()[0]: np.zeros((2, 2, 2))}
        with pytest.raises(ValueError, match="shape"):
            execute_graph(chain_graph, bad, weights)
