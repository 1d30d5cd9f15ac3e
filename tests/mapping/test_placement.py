"""Tests for atom-engine mapping strategies."""

from repro.mapping import (
    optimized_placement,
    placement_transfer_cost,
    zigzag_placement,
)
from repro.noc import Mesh2D
from repro.scheduling import schedule_greedy

from tests.dag_rows import in_bytes


class TestZigzagPlacement:
    def test_every_atom_placed(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        placement = zigzag_placement(chain_dag, mesh, schedule)
        assert set(placement) == set(range(chain_dag.num_atoms))

    def test_round_atoms_on_distinct_engines(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        placement = zigzag_placement(chain_dag, mesh, schedule)
        for rnd in schedule.rounds:
            engines = [placement[a] for a in rnd.atom_indices]
            assert len(set(engines)) == len(engines)

    def test_slots_follow_zigzag_order(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        placement = zigzag_placement(chain_dag, mesh, schedule)
        order = mesh.zigzag_order()
        first = schedule.rounds[0]
        for slot, a in enumerate(first.atom_indices):
            assert placement[a] == order[slot]


class TestOptimizedPlacement:
    def test_every_atom_placed_once(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        placement = optimized_placement(chain_dag, mesh, schedule)
        assert set(placement) == set(range(chain_dag.num_atoms))
        for rnd in schedule.rounds:
            engines = [placement[a] for a in rnd.atom_indices]
            assert len(set(engines)) == len(engines)

    def test_not_worse_than_zigzag(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        zz = zigzag_placement(chain_dag, mesh, schedule)
        opt = optimized_placement(chain_dag, mesh, schedule)
        assert placement_transfer_cost(
            chain_dag, mesh, schedule, opt
        ) <= placement_transfer_cost(chain_dag, mesh, schedule, zz)

    def test_chain_alignment_gives_local_reuse(self, chain_dag):
        # On a 1:1 pointwise chain the optimizer should keep consumer tiles
        # on their producer's engine (zero-hop reuse) wherever possible.
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        opt = optimized_placement(chain_dag, mesh, schedule)
        local = 0
        remote = 0
        for i in range(chain_dag.num_atoms):
            for p, nbytes in in_bytes(chain_dag, i).items():
                if opt[p] == opt[i]:
                    local += nbytes
                else:
                    remote += nbytes
        assert local >= remote


class TestPlacementTransferCost:
    def test_zero_for_single_engine_mesh(self, chain_dag):
        mesh = Mesh2D(1, 1)
        schedule = schedule_greedy(chain_dag, 1)
        placement = zigzag_placement(chain_dag, mesh, schedule)
        # Single engine: everything local; only the flat DRAM penalty for
        # first-touch weights remains.
        cost = placement_transfer_cost(chain_dag, mesh, schedule, placement)
        from repro.mapping.transfer_cost import DRAM_HOP_PENALTY

        assert cost >= 0
