"""Tests for the Algorithm 3 buffering strategy."""

import pytest

from repro.buffering import BufferPolicy, weight_entry_key
from repro.memory import EngineBuffer
from repro.scheduling import schedule_greedy

from tests.dag_rows import succs


@pytest.fixture
def policy(chain_dag):
    schedule = schedule_greedy(chain_dag, 4)
    return BufferPolicy(chain_dag, schedule), schedule


class TestNextUse:
    def test_atom_next_use_is_first_consumer_round(self, chain_dag, policy):
        pol, schedule = policy
        atom_round = schedule.atom_round()
        for a in range(chain_dag.num_atoms):
            if not succs(chain_dag, a):
                continue
            expected = min(atom_round[s] for s in succs(chain_dag, a))
            assert pol.next_use(a, 0) == expected

    def test_next_use_respects_t0(self, chain_dag, policy):
        pol, schedule = policy
        atom_round = schedule.atom_round()
        a = next(i for i in range(chain_dag.num_atoms) if succs(chain_dag, i))
        last = max(atom_round[s] for s in succs(chain_dag, a))
        assert pol.next_use(a, last + 1) is None

    def test_sink_atom_never_used(self, chain_dag, policy):
        pol, _ = policy
        sink = next(
            i for i in range(chain_dag.num_atoms) if not succs(chain_dag, i)
        )
        assert pol.next_use(sink, 0) is None

    def test_weight_next_use(self, chain_dag, policy):
        pol, schedule = policy
        atom_round = schedule.atom_round()
        a = 0
        wk = chain_dag.weight_key(a)
        assert wk is not None
        users = [
            atom_round[i]
            for i in range(chain_dag.num_atoms)
            if chain_dag.weight_key(i) == wk
        ]
        assert pol.next_use(weight_entry_key(*wk), 0) == min(users)


class TestReleaseDead:
    def test_dead_entries_released_without_writeback(self, chain_dag, policy):
        pol, _ = policy
        buf = EngineBuffer(capacity_bytes=10_000)
        sink = next(
            i for i in range(chain_dag.num_atoms) if not succs(chain_dag, i)
        )
        buf.store(sink, 100)
        evs = pol.release_dead(buf, t0=0)
        assert [e.key for e in evs] == [sink]
        assert evs[0].writeback_bytes == 0
        assert not buf.contains(sink)

    def test_live_entries_kept(self, chain_dag, policy):
        pol, _ = policy
        buf = EngineBuffer(capacity_bytes=10_000)
        live = next(i for i in range(chain_dag.num_atoms) if succs(chain_dag, i))
        buf.store(live, 100)
        assert pol.release_dead(buf, t0=0) == []
        assert buf.contains(live)


class TestChooseVictim:
    def test_picks_max_invalid_occupation(self, chain_dag, policy):
        pol, schedule = policy
        atom_round = schedule.atom_round()
        live = [
            i
            for i in range(chain_dag.num_atoms)
            if succs(chain_dag, i) and atom_round[i] == 0
        ]
        assert len(live) >= 2
        buf = EngineBuffer(capacity_bytes=10**6)
        # Same size: the one reused latest is the worst occupant.
        for a in live[:2]:
            buf.store(a, 500)
        expected = max(live[:2], key=lambda a: pol.next_use(a, 1))
        ev = pol.choose_victim(buf, t0=1)
        assert ev.key == expected
        assert ev.writeback_bytes == 500

    def test_size_dominates_when_wait_equal(self, chain_dag, policy):
        pol, _ = policy
        a = next(i for i in range(chain_dag.num_atoms) if succs(chain_dag, i))
        buf = EngineBuffer(capacity_bytes=10**6)
        buf.store(a, 100)
        buf.store(("w", 99, 0), 10_000)  # never-used weight: huge occupation
        ev = pol.choose_victim(buf, t0=0)
        assert ev.key == ("w", 99, 0)
        assert ev.writeback_bytes == 0  # weights are clean

    def test_empty_buffer_returns_none(self, chain_dag, policy):
        pol, _ = policy
        assert pol.choose_victim(EngineBuffer(capacity_bytes=10), 0) is None


class TestMakeRoom:
    def test_noop_when_fits(self, chain_dag, policy):
        pol, _ = policy
        buf = EngineBuffer(capacity_bytes=1000)
        assert pol.make_room(buf, 500, 0) == []

    def test_evicts_until_fit(self, chain_dag, policy):
        pol, schedule = policy
        atom_round = schedule.atom_round()
        live = [
            i
            for i in range(chain_dag.num_atoms)
            if succs(chain_dag, i) and atom_round[i] == 0
        ][:2]
        buf = EngineBuffer(capacity_bytes=1000)
        for a in live:
            buf.store(a, 400)
        evs = pol.make_room(buf, 500, t0=1)
        assert evs
        assert buf.fits(500)

    def test_impossible_request_rejected(self, chain_dag, policy):
        pol, _ = policy
        buf = EngineBuffer(capacity_bytes=100)
        with pytest.raises(ValueError):
            pol.make_room(buf, 200, 0)
