"""Simulated-time timeline: what every engine, link, and HBM stack did.

:meth:`repro.sim.simulator.SystemSimulator.run_timeline` fills a
:class:`SimTimeline` while executing a schedule — the per-resource
occupancy view the paper's Fig. 9/11 analyses need and the plain
:class:`~repro.metrics.RunResult` aggregates away:

* one :class:`RoundWindow` per Round (when it started, how long its
  blocking stall was, what bounded it);
* one :class:`EngineInterval` per executed atom (which engine was busy
  when, doing how many MACs);
* :class:`LinkSample` occupancy per contended NoC link per Round;
* one :class:`HbmSample` per Round with bytes moved and achieved
  bandwidth as a fraction of peak.

Accounting contract (enforced by the AD7xx validators and the test
suite): for every engine, ``busy + stall + idle == total_cycles``, where
*stall* is the Round-blocking I/O time every engine waits out, *busy* is
the engine's own atom compute time, and *idle* is the remainder of each
Round's overlap window.  ``pe_utilization()`` recomputed from the
intervals equals ``RunResult.pe_utilization`` exactly — both are
``sum(PE-array MACs) / (compute_cycles * engines * macs_per_cycle)``
over the same integer sums.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineInterval:
    """One atom's compute occupancy on one engine.

    Attributes:
        engine: Engine index the atom ran on.
        round_index: Round it executed in.
        atom: DAG atom index.
        label: Human-readable atom identity (``sample/layer/index``).
        start: Simulated cycle compute began (after the Round's blocking
            I/O).
        duration: Compute cycles the atom occupied the engine.
        macs: MAC operations the atom performed.
        uses_pe_array: Whether those MACs ran on the PE array (counted
            toward PE utilization) or on the vector unit.
    """

    engine: int
    round_index: int
    atom: int
    label: str
    start: int
    duration: int
    macs: int
    uses_pe_array: bool

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class RoundWindow:
    """One Round's position and timing decomposition on the global axis."""

    index: int
    start: int
    compute_cycles: int
    blocking_noc_cycles: int
    blocking_dram_cycles: int
    prefetch_noc_cycles: int
    prefetch_dram_cycles: int
    round_cycles: int

    @property
    def stall_cycles(self) -> int:
        """Blocking I/O every engine waits out before compute starts."""
        return self.blocking_noc_cycles + self.blocking_dram_cycles

    @property
    def end(self) -> int:
        return self.start + self.round_cycles

    @property
    def bound_by(self) -> str:
        """What limited this Round: "compute", "noc", or "dram"."""
        overlapped = max(
            self.compute_cycles,
            self.prefetch_noc_cycles,
            self.prefetch_dram_cycles,
        )
        if overlapped == self.compute_cycles:
            return "compute"
        if overlapped == self.prefetch_noc_cycles:
            return "noc"
        return "dram"


@dataclass(frozen=True)
class LinkSample:
    """Serialization occupancy of one directed NoC link in one Round."""

    round_index: int
    src: int
    dst: int
    busy_cycles: int


@dataclass(frozen=True)
class HbmSample:
    """HBM traffic of one Round.

    Attributes:
        round_index: Round the traffic belongs to.
        start: The Round's start cycle.
        duration: The Round's total cycles.
        bytes_read: DRAM bytes read (blocking + prefetch).
        bytes_written: DRAM bytes written back.
        utilization: Achieved bandwidth over the Round as a fraction of
            peak (0 when the Round moved nothing).
    """

    round_index: int
    start: int
    duration: int
    bytes_read: int
    bytes_written: int
    utilization: float


@dataclass(frozen=True)
class EngineAccounting:
    """Busy/stall/idle decomposition of one engine's simulated time."""

    engine: int
    busy_cycles: int
    stall_cycles: int
    idle_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.busy_cycles + self.stall_cycles + self.idle_cycles


@dataclass(frozen=True)
class SimTimeline:
    """Everything one simulation did, on one simulated-cycle axis."""

    workload: str
    strategy: str
    num_engines: int
    frequency_hz: float
    macs_per_cycle: int
    total_cycles: int
    compute_cycles: int
    rounds: tuple[RoundWindow, ...]
    intervals: tuple[EngineInterval, ...]
    links: tuple[LinkSample, ...]
    hbm: tuple[HbmSample, ...]

    # ------------------------------------------------------------ accounting

    def busy_intervals(self, engine: int) -> tuple[EngineInterval, ...]:
        """This engine's intervals, ordered by start cycle."""
        return tuple(
            sorted(
                (iv for iv in self.intervals if iv.engine == engine),
                key=lambda iv: (iv.start, iv.atom),
            )
        )

    def engine_accounting(self, engine: int) -> EngineAccounting:
        """Busy/stall/idle cycles for one engine (sums to total_cycles)."""
        busy = sum(
            iv.duration for iv in self.intervals if iv.engine == engine
        )
        stall = sum(rw.stall_cycles for rw in self.rounds)
        return EngineAccounting(
            engine=engine,
            busy_cycles=busy,
            stall_cycles=stall,
            idle_cycles=self.total_cycles - busy - stall,
        )

    def accounting(self) -> tuple[EngineAccounting, ...]:
        """Per-engine busy/stall/idle decomposition, engine order."""
        return tuple(
            self.engine_accounting(e) for e in range(self.num_engines)
        )

    def pe_utilization(self) -> float:
        """PE utilization recomputed from the intervals.

        Same definition as :attr:`repro.metrics.RunResult.pe_utilization`:
        PE-array MACs over the peak the busy compute windows offered.
        """
        peak = self.compute_cycles * self.num_engines * self.macs_per_cycle
        if not peak:
            return 0.0
        macs = sum(iv.macs for iv in self.intervals if iv.uses_pe_array)
        return macs / peak

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """This timeline as a JSON-serializable mapping."""
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "num_engines": self.num_engines,
            "frequency_hz": self.frequency_hz,
            "macs_per_cycle": self.macs_per_cycle,
            "total_cycles": self.total_cycles,
            "compute_cycles": self.compute_cycles,
            "rounds": [
                {
                    "index": rw.index,
                    "start": rw.start,
                    "compute_cycles": rw.compute_cycles,
                    "blocking_noc_cycles": rw.blocking_noc_cycles,
                    "blocking_dram_cycles": rw.blocking_dram_cycles,
                    "prefetch_noc_cycles": rw.prefetch_noc_cycles,
                    "prefetch_dram_cycles": rw.prefetch_dram_cycles,
                    "round_cycles": rw.round_cycles,
                }
                for rw in self.rounds
            ],
            "intervals": [
                {
                    "engine": iv.engine,
                    "round": iv.round_index,
                    "atom": iv.atom,
                    "label": iv.label,
                    "start": iv.start,
                    "duration": iv.duration,
                    "macs": iv.macs,
                    "uses_pe_array": iv.uses_pe_array,
                }
                for iv in self.intervals
            ],
            "links": [
                {
                    "round": ls.round_index,
                    "src": ls.src,
                    "dst": ls.dst,
                    "busy_cycles": ls.busy_cycles,
                }
                for ls in self.links
            ],
            "hbm": [
                {
                    "round": hs.round_index,
                    "start": hs.start,
                    "duration": hs.duration,
                    "bytes_read": hs.bytes_read,
                    "bytes_written": hs.bytes_written,
                    "utilization": hs.utilization,
                }
                for hs in self.hbm
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SimTimeline":
        """Rebuild a timeline from :meth:`to_dict` output.

        Raises:
            ValueError: On a malformed timeline mapping.
        """
        try:
            return cls(
                workload=doc["workload"],
                strategy=doc["strategy"],
                num_engines=int(doc["num_engines"]),
                frequency_hz=float(doc["frequency_hz"]),
                macs_per_cycle=int(doc["macs_per_cycle"]),
                total_cycles=int(doc["total_cycles"]),
                compute_cycles=int(doc["compute_cycles"]),
                rounds=tuple(
                    RoundWindow(
                        index=int(r["index"]),
                        start=int(r["start"]),
                        compute_cycles=int(r["compute_cycles"]),
                        blocking_noc_cycles=int(r["blocking_noc_cycles"]),
                        blocking_dram_cycles=int(r["blocking_dram_cycles"]),
                        prefetch_noc_cycles=int(r["prefetch_noc_cycles"]),
                        prefetch_dram_cycles=int(r["prefetch_dram_cycles"]),
                        round_cycles=int(r["round_cycles"]),
                    )
                    for r in doc["rounds"]
                ),
                intervals=tuple(
                    EngineInterval(
                        engine=int(i["engine"]),
                        round_index=int(i["round"]),
                        atom=int(i["atom"]),
                        label=i["label"],
                        start=int(i["start"]),
                        duration=int(i["duration"]),
                        macs=int(i["macs"]),
                        uses_pe_array=bool(i["uses_pe_array"]),
                    )
                    for i in doc["intervals"]
                ),
                links=tuple(
                    LinkSample(
                        round_index=int(s["round"]),
                        src=int(s["src"]),
                        dst=int(s["dst"]),
                        busy_cycles=int(s["busy_cycles"]),
                    )
                    for s in doc["links"]
                ),
                hbm=tuple(
                    HbmSample(
                        round_index=int(s["round"]),
                        start=int(s["start"]),
                        duration=int(s["duration"]),
                        bytes_read=int(s["bytes_read"]),
                        bytes_written=int(s["bytes_written"]),
                        utilization=float(s["utilization"]),
                    )
                    for s in doc["hbm"]
                ),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed timeline: {exc}") from None
