"""Tests for the TransferCost(P) objective."""

import random

import pytest

from repro.mapping import round_transfer_cost
from repro.mapping.transfer_cost import DRAM_HOP_PENALTY, round_cost_matrix
from repro.noc import Mesh2D, Torus2D
from repro.scheduling import schedule_greedy

from tests.dag_rows import in_bytes, preds


def _first_consumer_round(dag, schedule):
    """First round containing atoms with on-chip predecessors."""
    done: dict[int, int] = {}
    for rnd in schedule.rounds:
        if any(preds(dag, a) for a in rnd.atom_indices):
            return rnd, done
        for a in rnd.atom_indices:
            done[a] = 0
    raise AssertionError("no dependent round found")


class TestRoundTransferCost:
    def test_local_placement_costs_nothing(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        rnd, _ = _first_consumer_round(chain_dag, schedule)
        # Place every predecessor on engine 0 and every consumer on 0 too.
        placement = {p: 0 for a in rnd.atom_indices for p in preds(chain_dag, a)}
        cost = round_transfer_cost(
            chain_dag, mesh, placement, rnd.atom_indices,
            tuple(0 for _ in rnd.atom_indices),
        )
        assert cost == 0

    def test_distance_scales_cost(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        rnd, _ = _first_consumer_round(chain_dag, schedule)
        placement = {p: 0 for a in rnd.atom_indices for p in preds(chain_dag, a)}
        near = round_transfer_cost(
            chain_dag, mesh, placement, rnd.atom_indices,
            tuple(1 for _ in rnd.atom_indices),  # 1 hop from engine 0
        )
        far = round_transfer_cost(
            chain_dag, mesh, placement, rnd.atom_indices,
            tuple(3 for _ in rnd.atom_indices),  # 2 hops from engine 0
        )
        assert far == 2 * near

    def test_unplaced_predecessor_charged_dram_penalty(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        rnd, _ = _first_consumer_round(chain_dag, schedule)
        bytes_in = sum(
            sum(in_bytes(chain_dag, a).values()) for a in rnd.atom_indices
        )
        cost = round_transfer_cost(
            chain_dag, mesh, {}, rnd.atom_indices,
            tuple(0 for _ in rnd.atom_indices),
        )
        assert cost == DRAM_HOP_PENALTY * bytes_in

    def test_dram_penalty_position_independent(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        rnd, _ = _first_consumer_round(chain_dag, schedule)
        at0 = round_transfer_cost(
            chain_dag, mesh, {}, rnd.atom_indices,
            tuple(0 for _ in rnd.atom_indices),
        )
        at3 = round_transfer_cost(
            chain_dag, mesh, {}, rnd.atom_indices,
            tuple(3 for _ in rnd.atom_indices),
        )
        assert at0 == at3

    def test_weight_home_attracts(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        rnd = schedule.rounds[0]
        atom = rnd.atom_indices[0]
        wk = chain_dag.weight_key(atom)
        assert wk is not None
        home_cost = round_transfer_cost(
            chain_dag, mesh, {}, (atom,), (2,), weight_home={wk: 2}
        )
        away_cost = round_transfer_cost(
            chain_dag, mesh, {}, (atom,), (1,), weight_home={wk: 2}
        )
        assert home_cost < away_cost


class TestRoundCostMatrixEquivalence:
    """The matrix form must price any ordering like the direct walk.

    The placement search evaluates every candidate (zig-zag, greedy, layer
    permutations) as a gather over one per-Round cost matrix; that is only
    sound if ``sum(M[row_of[ordered[j]], j]) + const`` equals
    :func:`round_transfer_cost` for *every* ordering, placement, and
    weight-home state — including spilled (DRAM) predecessors and
    homeless weight slices.
    """

    @staticmethod
    def _rounds_with_placements(dag, rng, num_engines):
        """Yield (round_atoms, placement) pairs walking the schedule.

        Atoms of earlier Rounds are placed at random; some are left
        unplaced so the DRAM-spill constant is exercised too.
        """
        schedule = schedule_greedy(dag, 4)
        placement: dict[int, int] = {}
        for rnd in schedule.rounds:
            yield rnd.atom_indices, dict(placement)
            for a in rnd.atom_indices:
                if rng.random() < 0.75:
                    placement[a] = rng.randrange(num_engines)

    @staticmethod
    def _weight_home_variants(dag, atoms, rng, num_engines):
        partial = {}
        for a in atoms:
            wk = dag.weight_key(a)
            if wk is not None and rng.random() < 0.5:
                partial[wk] = rng.randrange(num_engines)
        return [None, {}, partial]

    @pytest.mark.parametrize("mesh", [Mesh2D(2, 2), Torus2D(2, 2)])
    def test_matrix_gather_matches_direct_cost(self, chain_dag, mesh):
        rng = random.Random(7)
        n = mesh.num_engines
        rounds = self._rounds_with_placements(chain_dag, rng, n)
        for atoms, placement in rounds:
            slots = tuple(rng.randrange(n) for _ in atoms)
            row_of = {a: i for i, a in enumerate(atoms)}
            for home in self._weight_home_variants(chain_dag, atoms, rng, n):
                matrix, const = round_cost_matrix(
                    chain_dag, mesh, placement, atoms, slots, home
                )
                for _ in range(4):
                    ordered = list(atoms)
                    rng.shuffle(ordered)
                    gathered = const + sum(
                        int(matrix[row_of[a], j])
                        for j, a in enumerate(ordered)
                    )
                    direct = round_transfer_cost(
                        chain_dag, mesh, placement,
                        tuple(ordered), slots, home,
                    )
                    assert gathered == direct

    def test_identity_ordering_is_plain_diagonal(self, chain_dag):
        mesh = Mesh2D(2, 2)
        schedule = schedule_greedy(chain_dag, 4)
        placement = {
            a: (a * 7) % mesh.num_engines
            for rnd in schedule.rounds[:-1]
            for a in rnd.atom_indices
        }
        atoms = schedule.rounds[-1].atom_indices
        slots = tuple((i + 1) % mesh.num_engines for i in range(len(atoms)))
        matrix, const = round_cost_matrix(
            chain_dag, mesh, placement, atoms, slots
        )
        diagonal = const + int(matrix.diagonal().sum())
        assert diagonal == round_transfer_cost(
            chain_dag, mesh, placement, atoms, slots
        )
