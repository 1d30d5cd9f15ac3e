"""Tier-A validators for buffering feasibility (AD4xx).

The checker replays the simulator's storage decisions — weight-slice
retention and atom-output buffering under the Algorithm 3 policy — against
per-engine capacity, without running the full timing model:

* ``AD401`` — resident bytes must never exceed an engine's SRAM capacity:
  after the policy makes room for an entry that fits an empty buffer, the
  entry must actually fit (fires when the eviction policy under-frees);
* ``AD402`` — warning: the policy evicted an entry that is needed again in
  the very Round being provisioned (forces a same-Round DRAM round-trip);
* ``AD403`` — warning: an atom output with on-chip consumers is larger
  than the whole engine buffer, so it can never be reused on-chip.

AD402/AD403 findings are legal-but-costly (the simulator charges the DRAM
traffic and continues), which is why they are warnings, not errors.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import Report, Severity, register_rule
from repro.atoms.dag import AtomicDAG
from repro.buffering.policy import BufferPolicy, weight_entry_key
from repro.memory.buffer import BufferOverflowError, EngineBuffer, make_buffers
from repro.scheduling.rounds import Schedule
from repro.sim.simulator import WEIGHT_RESIDENCY_FRACTION

register_rule(
    "AD401",
    Severity.ERROR,
    "artifact",
    "resident bytes must never exceed an engine's SRAM capacity",
)
register_rule(
    "AD402",
    Severity.WARNING,
    "artifact",
    "eviction policy should not evict an entry needed again in the Round "
    "being provisioned",
)
register_rule(
    "AD403",
    Severity.WARNING,
    "artifact",
    "an atom output with consumers should fit the engine buffer (else it "
    "can never be reused on-chip)",
)


def check_buffering(
    dag: AtomicDAG,
    schedule: Schedule,
    placement: dict[int, int],
    num_engines: int,
    capacity_bytes: int,
    report: Report | None = None,
    policy: BufferPolicy | None = None,
) -> Report:
    """Replay buffer occupancy for one solution and run the AD4xx rules.

    Args:
        dag: The atomic DAG being executed.
        schedule: The Round schedule.
        placement: Atom index -> engine index (atoms without a placement
            are skipped here; AD301 reports them).
        num_engines: Engines in the mesh.
        capacity_bytes: Per-engine SRAM capacity.
        report: Optional report to append to.
        policy: Eviction policy under test (the solution's own
            :class:`~repro.buffering.policy.BufferPolicy` by default);
            injectable so tests can validate mis-behaving policies.

    Returns:
        The report with any findings added.
    """
    report = report if report is not None else Report()
    report.mark_checked(
        f"Buffering({num_engines} engines x {capacity_bytes} B)"
    )
    policy = policy if policy is not None else BufferPolicy(dag, schedule)
    buffers = make_buffers(num_engines, capacity_bytes)
    weight_limit = capacity_bytes // WEIGHT_RESIDENCY_FRACTION
    consumer_counts = np.diff(dag.succ_ptr).tolist()

    for rnd in schedule.rounds:
        t = rnd.index
        for a in rnd.atom_indices:
            engine = placement.get(a)
            if engine is None or not 0 <= engine < num_engines:
                continue  # AD301/AD303 territory
            _replay_weight(
                dag, a, buffers[engine], policy, t, weight_limit, report
            )
            _replay_output(
                dag, a, consumer_counts[a], buffers[engine], policy, t, report
            )
    return report


def _checked_evictions(
    buffer: EngineBuffer,
    policy: BufferPolicy,
    needed_bytes: int,
    t0: int,
    report: Report,
) -> None:
    """Run the policy's make_room, flagging premature evictions (AD402)."""
    evictions = policy.make_room(buffer, needed_bytes, t0)
    for ev in evictions:
        if ev.writeback_bytes == 0 and policy.next_use(ev.key, t0) is None:
            continue  # dead entry released for free: always fine
        if policy.next_use(ev.key, t0) == t0:
            report.emit(
                "AD402",
                f"engine {buffer.engine_index}",
                f"entry {ev.key!r} evicted while provisioning round {t0} "
                f"but is needed again in round {t0}",
            )


def _replay_weight(
    dag: AtomicDAG,
    a: int,
    buffer: EngineBuffer,
    policy: BufferPolicy,
    t: int,
    weight_limit: int,
    report: Report,
) -> None:
    wk = dag.weight_key(a)
    if wk is None:
        return
    nbytes = dag.costs[a].weight_bytes
    key = weight_entry_key(*wk)
    if buffer.contains(key) or nbytes > weight_limit:
        return
    _checked_evictions(buffer, policy, nbytes, t, report)
    _checked_store(buffer, key, nbytes, report)


def _replay_output(
    dag: AtomicDAG,
    a: int,
    consumers: int,
    buffer: EngineBuffer,
    policy: BufferPolicy,
    t: int,
    report: Report,
) -> None:
    nbytes = dag.costs[a].ofmap_bytes
    if nbytes == 0 or not consumers:
        return
    if nbytes > buffer.capacity_bytes:
        report.emit(
            "AD403",
            f"atom {a}",
            f"output of {nbytes} B exceeds the {buffer.capacity_bytes} B "
            f"engine buffer; its {consumers} consumers must read "
            "it back from DRAM",
        )
        return
    # The output is needed from the next Round onward.
    _checked_evictions(buffer, policy, nbytes, t + 1, report)
    _checked_store(buffer, a, nbytes, report)


def _checked_store(
    buffer: EngineBuffer, key, nbytes: int, report: Report
) -> None:
    """Store an entry the policy just made room for; flag under-freeing.

    ``make_room`` was called with ``nbytes`` no larger than the buffer, so
    an empty buffer always fits it; failure to fit here means the policy
    stopped evicting too early and on-chip residency accounting would
    exceed capacity (AD401).
    """
    try:
        buffer.store(key, nbytes)
    except BufferOverflowError:
        report.emit(
            "AD401",
            f"engine {buffer.engine_index}",
            f"storing {nbytes} B for entry {key!r} overflows the buffer "
            f"({buffer.used_bytes}/{buffer.capacity_bytes} B resident "
            "after make_room); the eviction policy under-freed",
        )
