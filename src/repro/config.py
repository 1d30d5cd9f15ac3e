"""Hardware and search configuration for the atomic-dataflow framework.

All architectural parameters from the paper's Sec. V-A methodology live here:
an 8x8 grid of engines, each with a 16x16 PE array and 128 KB of SRAM at
500 MHz, backed by a 4-layer HBM stack (4 GB, 128 GB/s), with the energy
constants the paper cites (TSMC 28 nm SRAM, 0.61 pJ/bit/hop NoC, 7 pJ/bit
HBM).  Everything is a frozen dataclass so a configuration can be hashed,
compared, and safely shared between search stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class EngineConfig:
    """A single tensor engine: 2D PE array plus local global-buffer SRAM.

    Attributes:
        pe_rows: Number of PE rows (``PE_x`` in the paper).
        pe_cols: Number of PE columns (``PE_y``).
        buffer_bytes: Capacity of the engine's global buffer in bytes.
        buffer_port_bits: SRAM port width in bits (64 in the paper).
        frequency_hz: Engine clock frequency.
        mac_per_pe: MACs one PE retires per cycle (1 for the default design).
    """

    pe_rows: int = 16
    pe_cols: int = 16
    buffer_bytes: int = 128 * 1024
    buffer_port_bits: int = 64
    frequency_hz: float = 500e6
    mac_per_pe: int = 1

    def __post_init__(self) -> None:
        if self.pe_rows <= 0 or self.pe_cols <= 0:
            raise ValueError("PE array dimensions must be positive")
        if self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")

    @property
    def num_pes(self) -> int:
        """Total PEs in the array."""
        return self.pe_rows * self.pe_cols

    @property
    def macs_per_cycle(self) -> int:
        """Peak MAC throughput of the engine per cycle."""
        return self.num_pes * self.mac_per_pe


@dataclass(frozen=True)
class NocConfig:
    """2D-mesh static network parameters (TILE64-style STN).

    Attributes:
        hop_cycles: Cycles per hop between adjacent engines (1 in TILE64).
        link_bits: Flit/link width in bits moved per cycle per link.
        router_overhead_cycles: Fixed per-transfer serialization overhead.
        topology: Interconnect kind, ``"mesh"`` (default) or ``"torus"``
            (the alternatives Sec. IV-C lists for scalable accelerators).
    """

    hop_cycles: int = 1
    link_bits: int = 64
    router_overhead_cycles: int = 2
    topology: str = "mesh"

    def __post_init__(self) -> None:
        if self.hop_cycles <= 0 or self.link_bits <= 0:
            raise ValueError("NoC parameters must be positive")
        if self.router_overhead_cycles < 0:
            raise ValueError("router_overhead_cycles must be non-negative")
        if self.topology not in ("mesh", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")


@dataclass(frozen=True)
class HbmConfig:
    """Off-chip HBM stack model parameters (Ramulator substitute).

    Defaults model the paper's 4-layer HBM: 4 GB capacity, 128 GB/s peak.

    Attributes:
        capacity_bytes: Total DRAM capacity.
        peak_bandwidth_bytes_per_s: Peak sequential bandwidth.
        access_latency_ns: Base latency of one burst (row activate + CAS).
        burst_bytes: Granularity of one access burst.
    """

    capacity_bytes: int = 4 * 1024**3
    peak_bandwidth_bytes_per_s: float = 128e9
    access_latency_ns: float = 100.0
    burst_bytes: int = 64

    def __post_init__(self) -> None:
        if self.peak_bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.burst_bytes <= 0:
            raise ValueError("burst_bytes must be positive")


@dataclass(frozen=True)
class EnergyConfig:
    """Energy constants from the paper's Sec. V-A.

    Attributes:
        mac_pj: Energy of one INT8/INT16 MAC operation.
        sram_pj_per_bit: On-chip SRAM access energy per bit, derived from the
            TSMC 28 nm datasheet figure cited by the paper (128 KB read power
            10.96 mW at 500 MHz with a 64 b port -> ~0.34 pJ/bit).
        noc_pj_per_bit_hop: NoC transfer energy per bit per hop (0.61 pJ,
            the Tangram figure the paper adopts).
        hbm_pj_per_bit: HBM access energy per bit (7 pJ via Cacti-3dd).
        static_w_per_engine: Leakage + clock power per engine, charged over
            total runtime ("shorter execution time -> less static power").
    """

    mac_pj: float = 0.5
    sram_pj_per_bit: float = 0.34
    noc_pj_per_bit_hop: float = 0.61
    hbm_pj_per_bit: float = 7.0
    static_w_per_engine: float = 0.01

    def __post_init__(self) -> None:
        for name in (
            "mac_pj",
            "sram_pj_per_bit",
            "noc_pj_per_bit_hop",
            "hbm_pj_per_bit",
            "static_w_per_engine",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ArchConfig:
    """Full scalable-accelerator configuration.

    The default matches the paper's evaluation platform: an 8x8 mesh of
    engines (64 engines, 16384 PEs total), 128 KB SRAM per engine, HBM
    off-chip memory.

    Attributes:
        mesh_rows: Engine-grid rows.
        mesh_cols: Engine-grid columns.
        engine: Per-engine configuration.
        noc: Mesh interconnect configuration.
        hbm: Off-chip memory configuration.
        energy: Energy constants.
        bytes_per_element: Tensor element width (1 for INT8).
    """

    mesh_rows: int = 8
    mesh_cols: int = 8
    engine: EngineConfig = field(default_factory=EngineConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    hbm: HbmConfig = field(default_factory=HbmConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    bytes_per_element: int = 1

    def __post_init__(self) -> None:
        if self.mesh_rows <= 0 or self.mesh_cols <= 0:
            raise ValueError("mesh dimensions must be positive")
        if self.bytes_per_element <= 0:
            raise ValueError("bytes_per_element must be positive")

    @property
    def num_engines(self) -> int:
        """Number of independent tensor engines (``N`` in the paper)."""
        return self.mesh_rows * self.mesh_cols

    @property
    def total_pes(self) -> int:
        """PEs summed over all engines."""
        return self.num_engines * self.engine.num_pes

    @property
    def total_buffer_bytes(self) -> int:
        """On-chip SRAM summed over all engines."""
        return self.num_engines * self.engine.buffer_bytes

    def with_mesh(self, rows: int, cols: int) -> "ArchConfig":
        """Return a copy with a different engine grid.

        Used by the Fig. 12 design-space sweep, which re-partitions a fixed
        PE and SRAM budget across varying engine counts.
        """
        return replace(self, mesh_rows=rows, mesh_cols=cols)

    def repartitioned(self, mesh_rows: int, mesh_cols: int) -> "ArchConfig":
        """Redistribute the *total* PE and buffer budget over a new grid.

        Keeps ``total_pes`` and ``total_buffer_bytes`` constant (the Fig. 12
        experiment) by shrinking or growing each engine. The per-engine PE
        array stays square when the budget allows, else as close as possible.

        Raises:
            ValueError: If the PE budget does not divide evenly into the
                requested number of engines.
        """
        n_new = mesh_rows * mesh_cols
        pes_per_engine = self.total_pes // n_new
        if pes_per_engine * n_new != self.total_pes:
            raise ValueError(
                f"total PE budget {self.total_pes} does not divide into "
                f"{n_new} engines"
            )
        side = int(math.isqrt(pes_per_engine))
        while side > 1 and pes_per_engine % side != 0:
            side -= 1
        engine = replace(
            self.engine,
            pe_rows=side,
            pe_cols=pes_per_engine // side,
            buffer_bytes=self.total_buffer_bytes // n_new,
        )
        return replace(self, mesh_rows=mesh_rows, mesh_cols=mesh_cols, engine=engine)


def parse_mesh(spec: str) -> tuple[int, int]:
    """An ``RxC`` engine-grid spec (``"4x4"``) as ``(rows, cols)`` — the
    ``type=`` of every ``--mesh`` option."""
    try:
        rows, cols = spec.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(
            f"mesh must look like 4x4, got {spec!r}"
        ) from None


#: The paper's default evaluation platform (Sec. V-A).
DEFAULT_ARCH = ArchConfig()

#: The 2x2-engine FPGA-prototype-like platform of Sec. V-D
#: (32x32 MACs per engine, 600 MHz).
PROTOTYPE_ARCH = ArchConfig(
    mesh_rows=2,
    mesh_cols=2,
    engine=EngineConfig(pe_rows=32, pe_cols=32, frequency_hz=600e6),
)
