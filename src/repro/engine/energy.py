"""Per-atom energy accounting for a single engine.

Splits an atom's energy into MAC, local-SRAM, and (filled in later by the
system simulator) NoC/HBM shares, using the Sec. V-A constants collected in
:class:`repro.config.EnergyConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import EnergyConfig
from repro.engine.cost_model import EngineCost


@dataclass(frozen=True)
class AtomEnergy:
    """Energy of one atom execution, in picojoules.

    Attributes:
        mac_pj: Arithmetic energy.
        sram_pj: Local global-buffer read/write energy (inputs read once,
            outputs written once; intra-array register reuse is folded into
            ``mac_pj``).
    """

    mac_pj: float
    sram_pj: float

    @property
    def total_pj(self) -> float:
        return self.mac_pj + self.sram_pj


def atom_energy(cost: EngineCost, energy: EnergyConfig) -> AtomEnergy:
    """Compute-side energy of one atom from its engine cost."""
    mac_pj, sram_pj = atom_energy_terms(
        cost.macs, cost.ifmap_bytes, cost.weight_bytes, cost.ofmap_bytes, energy
    )
    return AtomEnergy(mac_pj=mac_pj, sram_pj=sram_pj)


def atom_energy_terms(
    macs: Any,
    ifmap_bytes: Any,
    weight_bytes: Any,
    ofmap_bytes: Any,
    energy: EnergyConfig,
) -> tuple[Any, Any]:
    """``(mac_pj, sram_pj)`` of :func:`atom_energy` from raw cost terms.

    Pure arithmetic over ints or int64 arrays: the simulator prices whole
    cost columns at once, bit-identical to the per-atom scalar call
    (every term stays far below 2**53, where int -> float is exact).
    """
    mac_pj = macs * energy.mac_pj
    accessed_bits = 8 * (ifmap_bytes + weight_bytes + ofmap_bytes)
    return mac_pj, accessed_bits * energy.sram_pj_per_bit
