"""Tests for atomic DAG construction and dependency inference."""

import numpy as np
import pytest

from repro.analysis import check_dag
from repro.atoms import AtomId, TileSize, build_atomic_dag, uniform_tiling
from repro.atoms.dag import row_owners
from repro.ir import GraphBuilder
from repro.ir.transforms import fuse_elementwise

from tests.dag_rows import in_bytes, preds


def _fused(graph):
    return fuse_elementwise(graph).graph


class TestConstruction:
    def test_input_node_produces_no_atoms(self, chain_dag):
        layers = {a.layer for a in chain_dag.atoms}
        assert 0 not in layers  # node 0 is the Input

    def test_atom_count_matches_grids(self, chain_dag):
        expected = sum(g.num_tiles for g in chain_dag.grids.values())
        assert chain_dag.num_atoms == expected

    def test_costs_aligned_with_atoms(self, chain_dag):
        assert len(chain_dag.costs) == chain_dag.num_atoms

    def test_validates(self, chain_dag):
        report = check_dag(chain_dag)
        assert report.checked and not report.diagnostics

    def test_index_of_round_trips(self, chain_dag):
        for i, atom in enumerate(chain_dag.atoms):
            assert chain_dag.index_of(atom.atom_id) == i

    def test_index_of_unknown_raises(self, chain_dag):
        with pytest.raises(KeyError):
            chain_dag.index_of(AtomId(sample=0, layer=1, index=9999))

    def test_zero_batch_rejected(self, chain_graph, kc_model):
        g = _fused(chain_graph)
        with pytest.raises(ValueError):
            build_atomic_dag(g, {}, kc_model, batch=0)


class TestDependencies:
    def test_first_layer_reads_dram(self, chain_dag):
        first_layer = min(a.layer for a in chain_dag.atoms)
        for i in chain_dag.atoms_of_layer(first_layer):
            assert preds(chain_dag, i) == []
            assert chain_dag.atom_dram_bytes[i] > 0

    def test_halo_dependencies(self, kc_model):
        # 3x3 conv: an interior consumer tile overlaps 4 producer tiles when
        # its receptive field crosses both tile boundaries.
        b = GraphBuilder(name="halo")
        x = b.input(8, 8, 4)
        c1 = b.conv(x, 4, kernel=3, name="c1")
        b.conv(c1, 4, kernel=3, name="c2")
        g = b.build()
        dag = build_atomic_dag(g, uniform_tiling(g, TileSize(4, 4, 4, 4)), kc_model)
        c2_id = g.by_name("c2").node_id
        atoms = list(dag.atoms_of_layer(c2_id))
        # Every c2 tile touches its own producer tile plus halo neighbours.
        pred_counts = [len(preds(dag, i)) for i in atoms]
        assert all(c == 4 for c in pred_counts)

    def test_pointwise_conv_is_one_to_one(self, kc_model):
        b = GraphBuilder(name="pw")
        x = b.input(8, 8, 4)
        c1 = b.conv(x, 4, kernel=1, name="c1")
        b.conv(c1, 4, kernel=1, name="c2")
        g = b.build()
        dag = build_atomic_dag(g, uniform_tiling(g, TileSize(4, 4, 4, 4)), kc_model)
        c2_id = g.by_name("c2").node_id
        for i in dag.atoms_of_layer(c2_id):
            assert len(preds(dag, i)) == 1

    def test_edge_bytes_equal_overlap(self, kc_model):
        b = GraphBuilder(name="pw")
        x = b.input(8, 8, 4)
        c1 = b.conv(x, 4, kernel=1, name="c1")
        b.conv(c1, 4, kernel=1, name="c2")
        g = b.build()
        dag = build_atomic_dag(g, uniform_tiling(g, TileSize(4, 8, 4, 4)), kc_model)
        c2_id = g.by_name("c2").node_id
        for i in dag.atoms_of_layer(c2_id):
            ((p, nbytes),) = in_bytes(dag, i).items()
            assert nbytes == dag.atoms[i].region.num_elements

    def test_concat_edges_respect_channel_ranges(self, branching_graph, kc_model):
        g = _fused(branching_graph)
        tiling = uniform_tiling(g, TileSize(8, 8, 16, 8))
        dag = build_atomic_dag(g, tiling, kc_model)
        join = g.by_name("join").node_id
        b1 = g.by_name("b1").node_id
        b2 = g.by_name("b2").node_id
        atoms = list(dag.atoms_of_layer(join))
        # Tiled 8 channels each: first concat tile reads b1, second reads b2.
        first, second = atoms[0], atoms[1]
        pred_layers_first = {dag.atoms[p].layer for p in preds(dag, first)}
        pred_layers_second = {dag.atoms[p].layer for p in preds(dag, second)}
        assert pred_layers_first == {b1}
        assert pred_layers_second == {b2}

    def test_residual_add_depends_on_both_branches(self, residual_graph, kc_model):
        g = _fused(residual_graph)
        tiling = uniform_tiling(g, TileSize(8, 8, 8, 8))
        dag = build_atomic_dag(g, tiling, kc_model)
        join = g.by_name("join").node_id
        for i in dag.atoms_of_layer(join):
            pred_layers = {dag.atoms[p].layer for p in preds(dag, i)}
            assert len(pred_layers) == 2


class TestBatch:
    def test_batch_replicates_atoms(self, chain_graph, kc_model):
        g = _fused(chain_graph)
        tiling = uniform_tiling(g, TileSize(8, 8, 8, 8))
        d1 = build_atomic_dag(g, tiling, kc_model, batch=1)
        d3 = build_atomic_dag(g, tiling, kc_model, batch=3)
        assert d3.num_atoms == 3 * d1.num_atoms

    def test_no_cross_sample_edges(self, chain_graph, kc_model):
        g = _fused(chain_graph)
        tiling = uniform_tiling(g, TileSize(4, 4, 8, 8))
        dag = build_atomic_dag(g, tiling, kc_model, batch=2)
        consumers = row_owners(dag.pred_ptr)
        assert len(consumers) > 0
        np.testing.assert_array_equal(
            dag.atom_sample[dag.pred_ids], dag.atom_sample[consumers]
        )

    def test_weight_key_shared_across_samples(self, chain_graph, kc_model):
        g = _fused(chain_graph)
        tiling = uniform_tiling(g, TileSize(8, 8, 8, 8))
        dag = build_atomic_dag(g, tiling, kc_model, batch=2)
        layer = g.compute_nodes()[0].node_id
        k0 = dag.weight_key(dag.atoms_of_layer(layer, 0)[0])
        k1 = dag.weight_key(dag.atoms_of_layer(layer, 1)[0])
        assert k0 == k1 and k0 is not None


class TestHelpers:
    def test_total_compute_cycles(self, chain_dag):
        assert chain_dag.total_compute_cycles() == sum(
            c.cycles for c in chain_dag.costs
        )

    def test_indegrees_fresh_copy(self, chain_dag):
        d1 = chain_dag.indegrees()
        d1[0] = 999
        assert chain_dag.indegrees()[0] != 999 or preds(chain_dag, 0) == []

    def test_weight_key_none_for_vector_atoms(self, residual_graph, kc_model):
        g = _fused(residual_graph)
        tiling = uniform_tiling(g, TileSize(8, 8, 8, 8))
        dag = build_atomic_dag(g, tiling, kc_model)
        join = g.by_name("join").node_id
        for i in dag.atoms_of_layer(join):
            assert dag.weight_key(i) is None
