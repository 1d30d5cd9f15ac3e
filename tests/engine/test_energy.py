"""Tests for per-atom energy accounting."""

import numpy as np

from repro.config import EnergyConfig
from repro.engine import atom_energy
from repro.engine.cost_model import EngineCost
from repro.engine.energy import atom_energy_terms


def _cost(macs=1000, ifmap=100, weights=50, ofmap=25) -> EngineCost:
    return EngineCost(
        cycles=10,
        macs=macs,
        pe_utilization=0.5,
        uses_pe_array=True,
        ifmap_bytes=ifmap,
        weight_bytes=weights,
        ofmap_bytes=ofmap,
    )


class TestAtomEnergy:
    def test_mac_energy(self):
        e = atom_energy(_cost(macs=1000), EnergyConfig(mac_pj=0.5))
        assert e.mac_pj == 500.0

    def test_sram_energy_counts_all_traffic_bits(self):
        cfg = EnergyConfig(sram_pj_per_bit=0.25)
        e = atom_energy(_cost(ifmap=100, weights=50, ofmap=25), cfg)
        assert e.sram_pj == 8 * 175 * 0.25

    def test_total(self):
        cfg = EnergyConfig(mac_pj=1.0, sram_pj_per_bit=0.0)
        e = atom_energy(_cost(macs=7), cfg)
        assert e.total_pj == e.mac_pj == 7.0

    def test_zero_cost_atom(self):
        e = atom_energy(_cost(macs=0, ifmap=0, weights=0, ofmap=0), EnergyConfig())
        assert e.total_pj == 0.0


class TestColumnTerms:
    def test_columns_match_the_per_atom_call_bit_for_bit(self):
        rng = np.random.default_rng(0)
        cfg = EnergyConfig(mac_pj=0.37, sram_pj_per_bit=0.0123)
        cols = rng.integers(0, 10**9, size=(4, 200), dtype=np.int64)
        mac_pj, sram_pj = atom_energy_terms(*cols, cfg)
        for i in range(cols.shape[1]):
            macs, ifmap, weights, ofmap = (int(c[i]) for c in cols)
            e = atom_energy(_cost(macs, ifmap, weights, ofmap), cfg)
            assert (mac_pj[i], sram_pj[i]) == (e.mac_pj, e.sram_pj)
