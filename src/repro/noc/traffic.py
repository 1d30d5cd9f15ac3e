"""Contention-aware NoC traffic accounting for one scheduling Round.

The simulator hands this module the set of inter-engine transfers a Round
performs; it returns the blocking delay and energy.  Latency model per
transfer: router overhead + hop latency + serialization of the payload over
the link width.  Contention: transfers sharing a directed link serialize on
it, so the Round's NoC delay is bounded below by the busiest link's total
occupancy (a standard static-network bound; the paper's STN schedules routes
at compile time, making this bound tight).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import EnergyConfig, NocConfig
from repro.intmath import ceil_div
from repro.noc.mesh import Mesh2D


@dataclass(frozen=True)
class Transfer:
    """One tensor movement between engines over the mesh.

    Attributes:
        src: Source engine index.
        dst: Destination engine index.
        size_bytes: Payload size.
        tag: Free-form label for tracing (e.g. the atom id moved).
    """

    src: int
    dst: int
    size_bytes: int
    tag: str = ""

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")


@dataclass(frozen=True)
class NocRoundCost:
    """NoC cost of one Round.

    Attributes:
        cycles: Blocking delay the Round's compute must wait for.
        energy_pj: Transfer energy (bits x hops x pJ/bit/hop).
        total_hop_bits: Sum over transfers of bits * hops (traffic volume).
        busiest_link_cycles: Occupancy of the most contended link.
    """

    cycles: int
    energy_pj: float
    total_hop_bits: int
    busiest_link_cycles: int


class NocModel:
    """Evaluates transfer batches on a 2D mesh.

    Args:
        mesh: Mesh topology.
        config: Link/router timing parameters.
        energy: Energy constants (uses ``noc_pj_per_bit_hop``).
    """

    def __init__(self, mesh: Mesh2D, config: NocConfig, energy: EnergyConfig) -> None:
        self.mesh = mesh
        self.config = config
        self.energy = energy

    def transfer_cycles(self, transfer: Transfer) -> int:
        """Uncontended latency of a single transfer."""
        if transfer.src == transfer.dst or transfer.size_bytes == 0:
            return 0
        hops = self.mesh.hop_distance(transfer.src, transfer.dst)
        serialization = ceil_div(8 * transfer.size_bytes, self.config.link_bits)
        return (
            self.config.router_overhead_cycles
            + hops * self.config.hop_cycles
            + serialization
        )

    def link_occupancy(
        self, transfers: list[Transfer]
    ) -> dict[tuple[int, int], int]:
        """Serialization cycles per directed link for a transfer batch.

        The same occupancy :meth:`round_cost` bounds its delay with, kept
        as a separate walk so the hot search path pays nothing for it;
        timeline collection calls this once per Round.
        """
        occupancy: dict[tuple[int, int], int] = defaultdict(int)
        for t in transfers:
            if t.src == t.dst or t.size_bytes == 0:
                continue
            serialization = ceil_div(8 * t.size_bytes, self.config.link_bits)
            for link in self.mesh.route(t.src, t.dst):
                occupancy[link] += serialization
        return dict(occupancy)

    def round_cost(self, transfers: Sequence[Transfer]) -> NocRoundCost:
        """Delay and energy of a batch of transfers issued together.

        The batch's blocking delay is ``max(single-transfer latency,
        busiest-link occupancy)``: transfers on disjoint routes proceed in
        parallel, transfers sharing a link serialize.
        """
        return self.round_cost_columns(
            [t.src for t in transfers],
            [t.dst for t in transfers],
            [t.size_bytes for t in transfers],
        )

    def round_cost_columns(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        size: Sequence[int],
    ) -> NocRoundCost:
        """:meth:`round_cost` over ``(src, dst, bytes)`` columns.

        The columns hold one transfer per index, in issue order; the
        simulator's analytical path hands them over without building a
        :class:`Transfer` per movement.  Vectorized over the batch against
        the mesh's cached distance/route tables; results are bit-identical
        to the per-transfer walk (serialization keeps the original
        ``ceil`` of a float quotient, and energy sums terms in transfer
        order).

        Raises:
            ValueError: On a negative size.
        """
        cols = np.array((src, dst, size), dtype=np.int64).reshape(3, -1)
        if (cols[2] < 0).any():
            raise ValueError("size_bytes must be non-negative")
        cols = cols[:, (cols[0] != cols[1]) & (cols[2] != 0)]
        if not cols.shape[1]:
            return NocRoundCost(
                cycles=0, energy_pj=0.0, total_hop_bits=0,
                busiest_link_cycles=0,
            )
        src, dst, size = cols
        dist = self.mesh.distance_array()
        hops = dist[src, dst]
        # static-ok: LINT012 -- link payloads sit far below 2**53, so float
        # ceil is exact here and bit-identical to the scalar ceil_div path
        serialization = np.ceil(
            8.0 * size / self.config.link_bits
        ).astype(np.int64)
        singles = (
            self.config.router_overhead_cycles
            + hops * self.config.hop_cycles
            + serialization
        )
        link_ids, offsets, num_links = self.mesh.route_table()
        keys = src * self.mesh.num_engines + dst
        starts = offsets[keys]
        lens = offsets[keys + 1] - starts
        total_links = int(lens.sum())
        if total_links:
            # Ragged gather of every route's link ids into one flat array.
            shift = np.concatenate(
                ([0], np.cumsum(lens)[:-1])
            )
            gather = np.arange(total_links, dtype=np.int64) + np.repeat(
                starts - shift, lens
            )
            occupancy = np.zeros(num_links, dtype=np.int64)
            np.add.at(
                occupancy, link_ids[gather], np.repeat(serialization, lens)
            )
            busiest = int(occupancy.max())
        else:
            busiest = 0
        hop_bits = 8 * size * lens
        energy_pj = float(
            sum((hop_bits * self.energy.noc_pj_per_bit_hop).tolist())
        )
        return NocRoundCost(
            cycles=max(int(singles.max()), busiest),
            energy_pj=energy_pj,
            total_hop_bits=int(hop_bits.sum()),
            busiest_link_cycles=busiest,
        )
