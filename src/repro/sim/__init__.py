"""Round-synchronized system simulator for the scalable accelerator.

Rounds run one after another; within Round ``t`` the simulator charges
``round_time = blocking + max(compute, prefetch_noc, prefetch_dram)``
(double buffering, see :mod:`repro.sim.simulator`).
"""

from __future__ import annotations

from repro.sim.simulator import SystemSimulator, WEIGHT_RESIDENCY_FRACTION
from repro.sim.timeline import (
    EngineAccounting,
    EngineInterval,
    HbmSample,
    LinkSample,
    RoundWindow,
    SimTimeline,
)

__all__ = [
    "SystemSimulator",
    "WEIGHT_RESIDENCY_FRACTION",
    "EngineAccounting",
    "EngineInterval",
    "HbmSample",
    "LinkSample",
    "RoundWindow",
    "SimTimeline",
    "simulate_timeline",
]


def simulate_timeline(
    arch,
    dag,
    schedule,
    placement,
    strategy: str = "AD",
    noc_mode: str = "analytical",
    mesh=None,
):
    """Re-simulate one solution and return ``(RunResult, SimTimeline)``.

    Convenience wrapper for callers outside the simulator package (CLI
    profiling, validators) that need the resource timeline of a finished
    solution without constructing a :class:`SystemSimulator` themselves.
    The result is bit-identical to :meth:`SystemSimulator.run` with the
    same arguments.
    """
    sim = SystemSimulator(
        arch, dag, strategy=strategy, noc_mode=noc_mode, mesh=mesh
    )
    return sim.run_timeline(schedule, placement)
