"""System-level simulator of the scalable accelerator (Sec. V-A).

Executes a Round schedule with an atom-engine placement over the full
machine model — engines (compute), distributed buffers (capacity +
Algorithm 3 evictions), 2D-mesh NoC (contention), and HBM (bandwidth) —
and reports the paper's metrics: end-to-end cycles, PE utilization, NoC
blocking overhead, on-chip reuse ratio, DRAM traffic, and energy.

Timing model per Round ``t`` (double buffering):

* *blocking* I/O — data produced in Round ``t-1`` (no chance to prefetch)
  must arrive before compute starts;
* *prefetchable* I/O — weights, network inputs, and data produced earlier
  than ``t-1`` overlap with compute;
* ``round_time = blocking + max(compute, prefetch_noc, prefetch_dram)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.atoms.atom import AtomId
from repro.atoms.dag import AtomicDAG, row_slots
from repro.atoms.table import AtomCostTable
from repro.buffering.policy import BufferPolicy, weight_entry_key
from repro.config import ArchConfig, EnergyConfig
from repro.engine.energy import atom_energy_terms
from repro.memory.buffer import EngineBuffer, make_buffers
from repro.memory.hbm import HbmModel
from repro.metrics import EnergyBreakdown, RunResult
from repro.noc.mesh import Mesh2D
from repro.noc.torus import make_topology
from repro.noc.traffic import NocModel, NocRoundCost, Transfer
from repro.noc.wormhole import WormholeSimulator
from repro.obs.tracer import get_tracer
from repro.scheduling.rounds import Schedule
from repro.sim.timeline import (
    EngineInterval,
    HbmSample,
    LinkSample,
    RoundWindow,
    SimTimeline,
)

#: Weight slices larger than this fraction of the buffer stream from DRAM
#: instead of being retained for reuse.
WEIGHT_RESIDENCY_FRACTION = 2


_NO_MOVES = np.zeros(0, dtype=np.int64)


class _Movements(NamedTuple):
    """One overlap class's NoC movements as int64 columns, in issue order.

    The analytical path prices the columns as they are; :class:`Transfer`
    objects are built only for the wormhole model and timelines.
    """

    src: np.ndarray = _NO_MOVES
    dst: np.ndarray = _NO_MOVES
    size: np.ndarray = _NO_MOVES

    def transfers(self) -> list[Transfer]:
        """:class:`Transfer` objects for the consumers that walk them."""
        return [
            Transfer(src, dst, size)
            for src, dst, size in zip(
                self.src.tolist(), self.dst.tolist(), self.size.tolist()
            )
        ]


@dataclass
class _RoundIO:
    """Accumulated I/O of one Round, split by overlap class.

    The in-order pass over the Round's atoms (weights, then outputs) keeps
    ``position`` at the atom it is processing and records, by position,
    the weight pulls it issues and the atom outputs it evicts; the input
    gather then runs once for the whole Round (see
    :meth:`SystemSimulator._gather_inputs`).
    """

    blocking: _Movements = _Movements()
    prefetch: _Movements = _Movements()
    blocking_dram_bytes: int = 0
    blocking_dram_requests: int = 0
    prefetch_dram_bytes: int = 0
    prefetch_dram_requests: int = 0
    writeback_bytes: int = 0
    onchip_bytes: int = 0
    offchip_bytes: int = 0
    position: int = 0
    pull_src: list[int] = field(default_factory=list)
    pull_dst: list[int] = field(default_factory=list)
    pull_size: list[int] = field(default_factory=list)
    pull_at: list[int] = field(default_factory=list)
    evicted: list[int] = field(default_factory=list)
    evicted_at: list[int] = field(default_factory=list)


@dataclass
class _SimState:
    """Mutable machine state of one simulation, shared by the helpers.

    ``atom_location`` and ``weight_locations`` mirror the buffers exactly:
    entries are added on every store and dropped on every eviction, so a
    location lookup replaces a buffer-membership check per edge.

    Attributes:
        round_of: Round of each atom, by atom index.
        atom_location: Engine holding each atom's output (-1: not on-chip).
        weight_locations: Engines holding each weight slice, by slice id.
        weight_slot_of: Weight-entry key ``("w", layer, tile)`` -> slice id.
        evicted_at: Work array, by atom: the Round position that evicted
            its output (``_NOT_EVICTED`` outside :meth:`_gather_inputs`).
        succ_ptr: The DAG's succ CSR pointers as a list.
    """

    round_of: np.ndarray
    buffers: list[EngineBuffer]
    policy: BufferPolicy
    distance_to: tuple[tuple[int, ...], ...]
    weight_limit: int
    atom_location: np.ndarray
    weight_locations: list[set[int]]
    weight_slot_of: dict[tuple[str, int, int], int]
    evicted_at: np.ndarray
    succ_ptr: list[int]


#: ``_SimState.evicted_at`` of an output no atom of the Round evicted.
_NOT_EVICTED = np.iinfo(np.int64).max


class SystemSimulator:
    """Simulates one (schedule, placement) solution on one architecture.

    Args:
        arch: Machine configuration.
        dag: The atomic DAG being executed.
        strategy: Label recorded in the result (e.g. ``"AD"``).
        noc_mode: ``"analytical"`` (default) or ``"wormhole"``.
        mesh: Pre-built topology to reuse; built from ``arch`` when None.
    """

    def __init__(
        self,
        arch: ArchConfig,
        dag: AtomicDAG,
        strategy: str = "AD",
        noc_mode: str = "analytical",
        mesh: Mesh2D | None = None,
    ) -> None:
        if noc_mode not in ("analytical", "wormhole"):
            raise ValueError(f"unknown noc_mode {noc_mode!r}")
        self.arch = arch
        self.dag = dag
        self.strategy = strategy
        self.noc_mode = noc_mode
        # Search loops pass the mesh from their SearchContext so thousands
        # of candidate simulations share one topology object.
        self.mesh = mesh if mesh is not None else make_topology(
            arch.mesh_rows, arch.mesh_cols, arch.noc.topology
        )
        self.noc = NocModel(self.mesh, arch.noc, arch.energy)
        self._wormhole = (
            WormholeSimulator(self.mesh, arch.noc)
            if noc_mode == "wormhole"
            else None
        )

    def _noc_cost(self, moves: _Movements) -> tuple[NocRoundCost, int]:
        """Analytical cost of one transfer class and its Round NoC delay.

        The delay comes from the selected fidelity model; the analytical
        cost always supplies energy and hop volume.
        """
        if not len(moves.src):
            return _NO_NOC, 0
        cost = self.noc.round_cost_columns(moves.src, moves.dst, moves.size)
        if self._wormhole is not None:
            return cost, self._wormhole.simulate(moves.transfers()).makespan
        return cost, cost.cycles

    def run(self, schedule: Schedule, placement: dict[int, int]) -> RunResult:
        """Execute the schedule and return the full metric set.

        Raises:
            ValueError: When the schedule or placement is inconsistent with
                the DAG (validated up front).
        """
        with self._run_span():
            result, _ = self._run(schedule, placement)
        return result

    def _run_span(self):
        """A ``sim.run`` tracer span labelling one whole simulation."""
        return get_tracer().span(
            "sim.run",
            category="sim",
            workload=self.dag.graph.name,
            strategy=self.strategy,
        )

    def run_timeline(
        self, schedule: Schedule, placement: dict[int, int]
    ) -> tuple[RunResult, SimTimeline]:
        """Like :meth:`run`, also building the full resource timeline.

        The returned :class:`~repro.sim.timeline.SimTimeline` carries
        per-engine busy intervals, Round windows, per-link NoC occupancy,
        and per-Round HBM bandwidth samples; the :class:`RunResult` is
        bit-identical to what :meth:`run` returns.
        """
        with self._run_span():
            result, timeline = self._run(
                schedule, placement, collect_timeline=True
            )
        assert timeline is not None
        return result, timeline

    def _run(
        self,
        schedule: Schedule,
        placement: dict[int, int],
        collect_timeline: bool = False,
    ) -> tuple[RunResult, SimTimeline | None]:
        schedule.validate(self.dag, self.arch.num_engines)
        for rnd in schedule.rounds:
            for a in rnd.atom_indices:
                if a not in placement:
                    raise ValueError(f"atom {a} has no engine placement")

        dag = self.dag
        arch = self.arch
        policy = BufferPolicy(dag, schedule)
        buffers = make_buffers(arch.num_engines, arch.engine.buffer_bytes)
        hbm = HbmModel(arch.hbm, arch.energy, arch.engine.frequency_hz)
        table = dag.costs
        atom_mac_pj, atom_sram_pj = _atom_energies(table, arch.energy)
        state = _SimState(
            round_of=np.asarray(policy.round_of, dtype=np.int64),
            buffers=buffers,
            policy=policy,
            # Transposed, so ``distance_to[engine][h]`` is
            # ``hop_distance(h, engine)`` on any topology.
            distance_to=tuple(zip(*self.mesh.distance_matrix())),
            weight_limit=arch.engine.buffer_bytes // WEIGHT_RESIDENCY_FRACTION,
            atom_location=np.full(dag.num_atoms, -1, dtype=np.int64),
            weight_locations=[set() for _ in policy.weight_slot_keys],
            weight_slot_of={
                weight_entry_key(*key): slot
                for slot, key in enumerate(policy.weight_slot_keys)
            },
            evicted_at=np.full(dag.num_atoms, _NOT_EVICTED, dtype=np.int64),
            succ_ptr=dag.as_list("succ_ptr"),
        )

        total_cycles = 0
        compute_cycles_total = 0
        noc_blocking_total = 0
        dram_blocking_total = 0
        noc_energy_pj = 0.0
        dram_energy_pj = 0.0
        mac_energy_pj = 0.0
        sram_energy_pj = 0.0
        noc_bytes_hops = 0
        total_macs_pe = 0
        onchip_bytes_total = 0
        offchip_bytes_total = 0
        tl_rounds: list[RoundWindow] = []
        tl_intervals: list[EngineInterval] = []
        tl_links: list[LinkSample] = []
        tl_hbm: list[HbmSample] = []
        tracer = get_tracer()
        atom_cycles = dag.atom_cycles
        macs = table.macs
        uses_pe_array = table.uses_pe_array

        for rnd in schedule.rounds:
            with tracer.span(
                "sim.round",
                category="sim",
                index=rnd.index,
                atoms=len(rnd.atom_indices),
            ):
                io = _RoundIO()
                t = rnd.index
                atoms = np.asarray(rnd.atom_indices, dtype=np.int64)
                edges, reads = row_slots(dag.pred_ptr, atoms)
                preds = dag.pred_ids[edges]
                # Where each input sits before this Round's stores and
                # evictions; the input gather reads it after them.
                located = state.atom_location[preds]
                engines = []
                for position, a in enumerate(rnd.atom_indices):
                    engine = placement[a]
                    engines.append(engine)
                    io.position = position
                    self._gather_weights(a, engine, t, state, io)
                    self._store_output(a, engine, t, state, io)
                    mac_energy_pj += atom_mac_pj[a]
                    sram_energy_pj += atom_sram_pj[a]
                    if uses_pe_array[a]:
                        total_macs_pe += macs[a]
                self._gather_inputs(
                    atoms, engines, edges, reads, preds, located, t, state, io
                )

                compute = max(atom_cycles[a] for a in rnd.atom_indices)
                blocking_noc, blocking_noc_cycles = self._noc_cost(
                    io.blocking
                )
                prefetch_noc, prefetch_noc_cycles = self._noc_cost(
                    io.prefetch
                )
                blocking_dram = hbm.batch_cycles(
                    io.blocking_dram_bytes, io.blocking_dram_requests
                )
                prefetch_dram = hbm.batch_cycles(
                    io.prefetch_dram_bytes + io.writeback_bytes,
                    io.prefetch_dram_requests
                    + (1 if io.writeback_bytes else 0),
                )
                round_time = (
                    blocking_noc_cycles
                    + blocking_dram
                    + max(compute, prefetch_noc_cycles, prefetch_dram)
                )
                if collect_timeline:
                    self._collect_round_timeline(
                        rnd, placement, table, io, total_cycles, compute,
                        blocking_noc_cycles, blocking_dram,
                        prefetch_noc_cycles, prefetch_dram, round_time, hbm,
                        tl_rounds, tl_intervals, tl_links, tl_hbm,
                    )
                total_cycles += round_time
                compute_cycles_total += compute
                noc_blocking_total += blocking_noc_cycles
                dram_blocking_total += blocking_dram
                noc_energy_pj += (
                    blocking_noc.energy_pj + prefetch_noc.energy_pj
                )
                noc_bytes_hops += (
                    blocking_noc.total_hop_bits + prefetch_noc.total_hop_bits
                ) // 8
                read_bytes = io.blocking_dram_bytes + io.prefetch_dram_bytes
                if read_bytes:
                    dram_energy_pj += hbm.access(read_bytes).energy_pj
                if io.writeback_bytes:
                    dram_energy_pj += hbm.access(
                        io.writeback_bytes, write=True
                    ).energy_pj
                onchip_bytes_total += io.onchip_bytes
                offchip_bytes_total += io.offchip_bytes

        seconds = total_cycles / arch.engine.frequency_hz
        static_pj = (
            arch.energy.static_w_per_engine * arch.num_engines * seconds * 1e12
        )
        energy = EnergyBreakdown(
            mac_pj=mac_energy_pj,
            sram_pj=sram_energy_pj,
            noc_pj=noc_energy_pj,
            dram_pj=dram_energy_pj,
            static_pj=static_pj,
        )
        peak = compute_cycles_total * arch.num_engines * arch.engine.macs_per_cycle
        served = onchip_bytes_total + offchip_bytes_total
        result = RunResult(
            strategy=self.strategy,
            workload=dag.graph.name,
            batch=dag.batch,
            total_cycles=total_cycles,
            compute_cycles=compute_cycles_total,
            noc_blocking_cycles=noc_blocking_total,
            dram_blocking_cycles=dram_blocking_total,
            num_rounds=schedule.num_rounds,
            pe_utilization=(total_macs_pe / peak) if peak else 0.0,
            onchip_reuse_ratio=(
                onchip_bytes_total / served if served else 0.0
            ),
            dram_bytes_read=hbm.total_bytes_read,
            dram_bytes_written=hbm.total_bytes_written,
            noc_bytes_hops=noc_bytes_hops,
            energy=energy,
            frequency_hz=arch.engine.frequency_hz,
        )
        timeline = None
        if collect_timeline:
            timeline = SimTimeline(
                workload=dag.graph.name,
                strategy=self.strategy,
                num_engines=arch.num_engines,
                frequency_hz=arch.engine.frequency_hz,
                macs_per_cycle=arch.engine.macs_per_cycle,
                total_cycles=total_cycles,
                compute_cycles=compute_cycles_total,
                rounds=tuple(tl_rounds),
                intervals=tuple(tl_intervals),
                links=tuple(tl_links),
                hbm=tuple(tl_hbm),
            )
        return result, timeline

    def _collect_round_timeline(
        self,
        rnd,
        placement: dict[int, int],
        table: AtomCostTable,
        io: _RoundIO,
        round_start: int,
        compute: int,
        blocking_noc_cycles: int,
        blocking_dram: int,
        prefetch_noc_cycles: int,
        prefetch_dram: int,
        round_time: int,
        hbm: HbmModel,
        tl_rounds: list[RoundWindow],
        tl_intervals: list[EngineInterval],
        tl_links: list[LinkSample],
        tl_hbm: list[HbmSample],
    ) -> None:
        """Append one executed Round's resource occupancy to the timeline.

        Engine intervals start after the Round's blocking stall — the
        window in which the timing model lets compute proceed.  HBM bytes
        are the raw (pre-burst-rounding) payloads the Round moved.
        """
        dag = self.dag
        sample_of = dag.as_list("atom_sample")
        layer_of = dag.as_list("atom_layer")
        tile_of = dag.as_list("atom_tile")
        stall = blocking_noc_cycles + blocking_dram
        tl_rounds.append(
            RoundWindow(
                index=rnd.index,
                start=round_start,
                compute_cycles=compute,
                blocking_noc_cycles=blocking_noc_cycles,
                blocking_dram_cycles=blocking_dram,
                prefetch_noc_cycles=prefetch_noc_cycles,
                prefetch_dram_cycles=prefetch_dram,
                round_cycles=round_time,
            )
        )
        for a in rnd.atom_indices:
            tl_intervals.append(
                EngineInterval(
                    engine=placement[a],
                    round_index=rnd.index,
                    atom=a,
                    label=str(AtomId(sample_of[a], layer_of[a], tile_of[a])),
                    start=round_start + stall,
                    duration=table.cycles[a],
                    macs=table.macs[a],
                    uses_pe_array=table.uses_pe_array[a],
                )
            )
        occupancy = self.noc.link_occupancy(
            io.blocking.transfers() + io.prefetch.transfers()
        )
        for (src, dst), busy in sorted(occupancy.items()):
            tl_links.append(LinkSample(rnd.index, src, dst, busy))
        moved = (
            io.blocking_dram_bytes
            + io.prefetch_dram_bytes
            + io.writeback_bytes
        )
        tl_hbm.append(
            HbmSample(
                round_index=rnd.index,
                start=round_start,
                duration=round_time,
                bytes_read=io.blocking_dram_bytes + io.prefetch_dram_bytes,
                bytes_written=io.writeback_bytes,
                utilization=hbm.bandwidth_utilization(moved, round_time),
            )
        )

    # ------------------------------------------------------------- internals

    def _gather_inputs(
        self,
        atoms: np.ndarray,
        engines: list[int],
        edges: np.ndarray,
        reads: np.ndarray,
        preds: np.ndarray,
        located: np.ndarray,
        t: int,
        state: _SimState,
        io: _RoundIO,
    ) -> None:
        """Resolve where every input tile of a Round comes from, and charge it.

        Network inputs always stream from DRAM (prefetchable).  Produced
        tiles come from the local buffer (free), a remote buffer (NoC), or
        DRAM if they were spilled; data produced in the immediately
        preceding Round cannot be prefetched and blocks.

        The Round's atoms are processed in order, each gathering its
        inputs before its weight and output can evict anything, so an
        input is on-chip where it was at the start of the Round
        (``located``) unless an *earlier* atom of the Round evicted it.
        The pred-CSR rows of all the Round's atoms (``edges``, ``reads``
        per atom, producers ``preds``) are classified at once, and the
        NoC movements keep the order in which atoms issue them, one atom
        after another: an atom's input pulls, in pred order, then its
        weight pull.
        """
        dag = self.dag
        dram_inputs = dag.atom_dram_bytes[atoms]
        io.prefetch_dram_bytes += int(dram_inputs.sum())
        io.prefetch_dram_requests += int(np.count_nonzero(dram_inputs))
        rows = np.repeat(np.arange(len(atoms), dtype=np.int64), reads)
        if io.evicted:
            evicted = np.asarray(io.evicted, dtype=np.int64)
            state.evicted_at[evicted] = io.evicted_at
            located = np.where(state.evicted_at[preds] < rows, -1, located)
            state.evicted_at[evicted] = _NOT_EVICTED
        sizes = dag.pred_bytes[edges]
        blocking = state.round_of[preds] == t - 1
        live = sizes > 0
        onchip = live & (located >= 0)
        offchip = live & (located < 0)
        io.onchip_bytes += int(sizes[onchip].sum())
        io.offchip_bytes += int(sizes[offchip].sum())
        spilled = offchip & blocking
        io.blocking_dram_bytes += int(sizes[spilled].sum())
        io.blocking_dram_requests += int(np.count_nonzero(spilled))
        spilled = offchip & ~blocking
        io.prefetch_dram_bytes += int(sizes[spilled].sum())
        io.prefetch_dram_requests += int(np.count_nonzero(spilled))
        dst = np.asarray(engines, dtype=np.int64)[rows]
        moving = onchip & (located != dst)
        pull = moving & blocking
        io.blocking = _Movements(located[pull], dst[pull], sizes[pull])
        pull = moving & ~blocking
        src, dst, sizes, rows = located[pull], dst[pull], sizes[pull], rows[pull]
        if io.pull_at:
            order = np.argsort(
                np.concatenate((2 * rows, 2 * np.asarray(io.pull_at) + 1)),
                kind="stable",
            )
            src = np.concatenate((src, io.pull_src))[order]
            dst = np.concatenate((dst, io.pull_dst))[order]
            sizes = np.concatenate((sizes, io.pull_size))[order]
        io.prefetch = _Movements(src, dst, sizes)

    def _gather_weights(
        self, a: int, engine: int, t: int, state: _SimState, io: _RoundIO
    ) -> None:
        """Source the atom's weight slice: local hit, remote copy, or DRAM."""
        slot = state.policy.weight_slot[a]
        if slot < 0:
            return
        nbytes = self.dag.atom_weight_bytes[a]
        # weight_locations mirrors the buffers: every holder is live.
        holders = state.weight_locations[slot]
        if engine in holders:
            io.onchip_bytes += nbytes
            return
        if holders:
            # The nearest holder; ties keep the lowest engine index.
            distance = state.distance_to[engine]
            src = min(sorted(holders), key=distance.__getitem__)
            io.pull_src.append(src)
            io.pull_dst.append(engine)
            io.pull_size.append(nbytes)
            io.pull_at.append(io.position)
            io.onchip_bytes += nbytes
        else:
            io.prefetch_dram_bytes += nbytes
            io.prefetch_dram_requests += 1
            io.offchip_bytes += nbytes
        if nbytes <= state.weight_limit:
            buffer = state.buffers[engine]
            evs = state.policy.make_room(buffer, nbytes, t)
            self._apply_evictions(evs, engine, state, io)
            if buffer.fits(nbytes):
                buffer.store(
                    weight_entry_key(*state.policy.weight_slot_keys[slot]),
                    nbytes,
                )
                holders.add(engine)

    def _store_output(
        self, a: int, engine: int, t: int, state: _SimState, io: _RoundIO
    ) -> None:
        """Retain the atom's output on-chip, or drain results to DRAM."""
        dag = self.dag
        nbytes = dag.atom_ofmap_bytes[a]
        if nbytes == 0:
            return
        buffer = state.buffers[engine]
        succ_ptr = state.succ_ptr
        if succ_ptr[a] == succ_ptr[a + 1] or nbytes > buffer.capacity_bytes:
            # Network output (drained off-chip, never buffered) or a tile
            # larger than the whole buffer: stream straight to DRAM.
            io.writeback_bytes += nbytes
            return
        evs = state.policy.make_room(buffer, nbytes, t + 1)
        self._apply_evictions(evs, engine, state, io)
        if buffer.fits(nbytes):
            buffer.store(a, nbytes)
            state.atom_location[a] = engine
        else:
            # Even a fully drained buffer cannot hold it: spill immediately.
            io.writeback_bytes += nbytes

    @staticmethod
    def _apply_evictions(
        evictions, engine: int, state: _SimState, io: _RoundIO
    ) -> None:
        """Charge write-backs and forget evicted entries' locations."""
        for ev in evictions:
            io.writeback_bytes += ev.writeback_bytes
            key = ev.key
            if isinstance(key, tuple):
                slot = state.weight_slot_of[key]
                state.weight_locations[slot].discard(engine)
            else:
                state.atom_location[key] = -1
                io.evicted.append(key)
                io.evicted_at.append(io.position)


def _atom_energies(
    table: AtomCostTable, energy: EnergyConfig
) -> tuple[list[float], list[float]]:
    """Per-atom ``(mac_pj, sram_pj)`` lists, priced column by column."""
    mac_pj, sram_pj = atom_energy_terms(
        *(
            np.asarray(column, dtype=np.int64)
            for column in (
                table.macs,
                table.ifmap_bytes,
                table.weight_bytes,
                table.ofmap_bytes,
            )
        ),
        energy,
    )
    return mac_pj.tolist(), sram_pj.tolist()


_NO_NOC = NocRoundCost(
    cycles=0, energy_pj=0.0, total_hop_bits=0, busiest_link_cycles=0
)
