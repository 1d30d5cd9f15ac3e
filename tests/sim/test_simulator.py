"""Tests for the system-level simulator."""

import pytest

from repro.atoms import TileSize, build_atomic_dag, uniform_tiling
from repro.config import ArchConfig, EngineConfig
from repro.engine import EngineCostModel, get_dataflow
from repro.ir import GraphBuilder
from repro.ir.transforms import fuse_elementwise
from repro.mapping import optimized_placement, zigzag_placement
from repro.noc import Mesh2D
from repro.scheduling import schedule_greedy
from repro.sim import SystemSimulator


@pytest.fixture
def setup(small_arch, kc_model, chain_graph):
    g = fuse_elementwise(chain_graph).graph
    tiling = uniform_tiling(g, TileSize(8, 8, 8, 8))
    dag = build_atomic_dag(g, tiling, kc_model)
    schedule = schedule_greedy(dag, small_arch.num_engines)
    mesh = Mesh2D(small_arch.mesh_rows, small_arch.mesh_cols)
    placement = optimized_placement(dag, mesh, schedule)
    return small_arch, dag, schedule, placement


class TestRunBasics:
    def test_result_fields_consistent(self, setup):
        arch, dag, schedule, placement = setup
        result = SystemSimulator(arch, dag).run(schedule, placement)
        assert result.total_cycles >= result.compute_cycles
        assert result.num_rounds == schedule.num_rounds
        assert 0 <= result.pe_utilization <= 1
        assert 0 <= result.onchip_reuse_ratio <= 1
        assert result.batch == 1
        assert result.workload == dag.graph.name

    def test_compute_cycles_match_schedule(self, setup):
        arch, dag, schedule, placement = setup
        result = SystemSimulator(arch, dag).run(schedule, placement)
        assert result.compute_cycles == schedule.compute_cycles(dag)

    def test_energy_components_positive(self, setup):
        arch, dag, schedule, placement = setup
        result = SystemSimulator(arch, dag).run(schedule, placement)
        e = result.energy
        assert e.mac_pj > 0 and e.sram_pj > 0
        assert e.dram_pj > 0  # at least weights and the input come from HBM
        assert e.static_pj > 0
        assert e.total_pj == pytest.approx(
            e.mac_pj + e.sram_pj + e.noc_pj + e.dram_pj + e.static_pj
        )

    def test_dram_reads_cover_input_and_weights(self, setup):
        arch, dag, schedule, placement = setup
        result = SystemSimulator(arch, dag).run(schedule, placement)
        min_reads = int(dag.atom_dram_bytes.sum())
        assert result.dram_bytes_read >= min_reads

    def test_throughput_latency_relation(self, setup):
        arch, dag, schedule, placement = setup
        result = SystemSimulator(arch, dag).run(schedule, placement)
        assert result.throughput_fps == pytest.approx(
            1.0 / (result.latency_ms * 1e-3)
        )

    def test_invalid_placement_rejected(self, setup):
        arch, dag, schedule, _ = setup
        with pytest.raises(ValueError, match="placement"):
            SystemSimulator(arch, dag).run(schedule, {})

    def test_schedule_validated(self, setup):
        arch, dag, schedule, placement = setup
        schedule.rounds = schedule.rounds[:-1]
        with pytest.raises(ValueError):
            SystemSimulator(arch, dag).run(schedule, placement)


class TestLocalityEffects:
    def test_optimized_mapping_moves_fewer_bytes(self, setup):
        arch, dag, schedule, opt_placement = setup
        mesh = Mesh2D(arch.mesh_rows, arch.mesh_cols)
        zz = zigzag_placement(dag, mesh, schedule)
        r_opt = SystemSimulator(arch, dag).run(schedule, opt_placement)
        r_zz = SystemSimulator(arch, dag).run(schedule, zz)
        assert r_opt.noc_bytes_hops <= r_zz.noc_bytes_hops

    def test_tiny_buffer_forces_spills(self, chain_graph):
        # A buffer that cannot hold a single tile output for reuse must
        # round-trip feature maps through DRAM.
        tiny = ArchConfig(
            mesh_rows=2,
            mesh_cols=2,
            engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=256),
        )
        roomy = ArchConfig(
            mesh_rows=2,
            mesh_cols=2,
            engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=64 * 1024),
        )
        g = fuse_elementwise(chain_graph).graph
        results = {}
        for name, arch in (("tiny", tiny), ("roomy", roomy)):
            cm = EngineCostModel(arch.engine, get_dataflow("kc"))
            tiling = uniform_tiling(g, TileSize(8, 8, 8, 8))
            dag = build_atomic_dag(g, tiling, cm)
            schedule = schedule_greedy(dag, arch.num_engines)
            mesh = Mesh2D(arch.mesh_rows, arch.mesh_cols)
            placement = optimized_placement(dag, mesh, schedule)
            results[name] = SystemSimulator(arch, dag).run(schedule, placement)
        assert (
            results["tiny"].onchip_reuse_ratio
            < results["roomy"].onchip_reuse_ratio
        )
        assert results["tiny"].dram_bytes_read > results["roomy"].dram_bytes_read


class TestBatchRuns:
    def test_batch_scales_traffic(self, small_arch, kc_model, chain_graph):
        g = fuse_elementwise(chain_graph).graph
        tiling = uniform_tiling(g, TileSize(8, 8, 8, 8))
        results = []
        for batch in (1, 2):
            dag = build_atomic_dag(g, tiling, kc_model, batch=batch)
            schedule = schedule_greedy(dag, small_arch.num_engines)
            mesh = Mesh2D(small_arch.mesh_rows, small_arch.mesh_cols)
            placement = optimized_placement(dag, mesh, schedule)
            results.append(
                SystemSimulator(small_arch, dag).run(schedule, placement)
            )
        r1, r2 = results
        assert r2.total_cycles > r1.total_cycles
        assert r2.energy.mac_pj == pytest.approx(2 * r1.energy.mac_pj)


class TestTracedRun:
    """Per-Round timing comes from :meth:`SystemSimulator.run_timeline`."""

    def test_trace_covers_all_rounds(self, setup):
        arch, dag, schedule, placement = setup
        _, timeline = SystemSimulator(arch, dag).run_timeline(
            schedule, placement
        )
        assert len(timeline.rounds) == schedule.num_rounds
        assert [rw.index for rw in timeline.rounds] == [
            r.index for r in schedule.rounds
        ]

    def test_trace_sums_to_total(self, setup):
        arch, dag, schedule, placement = setup
        result, timeline = SystemSimulator(arch, dag).run_timeline(
            schedule, placement
        )
        rounds = timeline.rounds
        assert sum(rw.round_cycles for rw in rounds) == result.total_cycles
        assert sum(rw.compute_cycles for rw in rounds) == result.compute_cycles
        assert (
            sum(rw.blocking_noc_cycles for rw in rounds)
            == result.noc_blocking_cycles
        )

    def test_traced_matches_untraced(self, setup):
        arch, dag, schedule, placement = setup
        plain = SystemSimulator(arch, dag).run(schedule, placement)
        traced, _ = SystemSimulator(arch, dag).run_timeline(
            schedule, placement
        )
        assert plain.total_cycles == traced.total_cycles
        assert plain.energy.total_pj == traced.energy.total_pj

    def test_bound_by_classification(self, setup):
        arch, dag, schedule, placement = setup
        _, timeline = SystemSimulator(arch, dag).run_timeline(
            schedule, placement
        )
        rounds = timeline.rounds
        assert all(rw.bound_by in ("compute", "noc", "dram") for rw in rounds)
        # A round's wall time is never below its binding component.
        for rw in rounds:
            assert rw.round_cycles >= rw.compute_cycles