"""Parallel-tempering replica exchange over Algorithm 1's annealer.

Replaces independent SA restarts with a coupled temperature ladder: K
*rungs* (rung 0 coldest) anneal the same workload concurrently, and at
every segment boundary neighboring rungs propose a Metropolis
configuration swap — hot rungs explore, cold rungs refine, and good
configurations migrate down the ladder instead of being rediscovered
from scratch.  Each rung additionally runs its own member of a proposal
*portfolio* (exponential vs linear cooling, coarse/fine move-length
families), so the ladder hedges across annealing styles the way the
tensor-PCA exemplar's cooling caveat recommends.

Determinism contract (the repo-wide ``jobs=1 ≡ jobs=N`` gate):

- every rung owns a dedicated ``SeedSequence.spawn`` child stream that
  lives inside its :class:`~repro.atoms.generation.RungState` and
  travels with it across segments, so worker scheduling never reorders
  draws;
- swap decisions draw from a *dedicated exchange stream* (child K) held
  by the parent-side coordinator, never by workers;
- segments are harvested in submission order via
  ``ResilientExecutor.map``, which preserves payload order.

Swap protocol: segments alternate even pairs ``(0,1), (2,3), ...`` and
odd pairs ``(1,2), (3,4), ...`` (segment parity picks the family); a
pair swaps with probability ``min(1, exp((1/T_i - 1/T_j) (E_i -
E_j)))``; an accepted swap exchanges the *configurations* (assignment,
cycles, counts, unified cycle, energy, replica id) while temperature,
RNG stream, history, and best-so-far bookkeeping stay with the rung.
One uniform draw is consumed per proposal whether or not it is needed,
so the exchange stream position is a pure function of the proposal
count — the property that makes ``--resume`` bit-identical across a
swap boundary.

Every segment is journaled (post-swap states, exchange decisions,
exchange-stream state) under label ``pt-segment[s]``, so an interrupted
search resumes from the last completed segment and replays nothing;
validator AD604 (:mod:`repro.analysis.tempering_rules`) audits the
records for exchange legality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro.atoms.generation import (
    AtomGenerator,
    GenerationResult,
    RungState,
    SAParams,
)
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.resilience.checkpoint import CheckpointJournal
from repro.resilience.executor import ResilientExecutor
from repro.resilience.faults import FaultPlan

_log = get_logger(__name__)

#: Temperature ratio between adjacent rungs (rung k starts at
#: ``base.temperature * LADDER_RATIO**k``; rung 0 is the coldest).
LADDER_RATIO = 2.0

#: Move-length multipliers cycled across rungs: the base family, a
#: coarse (far-jumping) family, and a fine (refining) family.
MOVE_FAMILIES = (1.0, 1.75, 0.5)

#: Valid ``portfolio`` values: ``"mixed"`` alternates cooling schedules
#: by rung parity; the other two pin every rung to one schedule.
PORTFOLIOS = ("mixed", "exponential", "linear")

#: Journal-record kind and label stem for tempering segments.
SEGMENT_KIND = "pt-segment"


class TemperingError(RuntimeError):
    """A rung segment failed permanently (or was interrupted)."""

    def __init__(self, message: str, interrupted: bool = False) -> None:
        super().__init__(message)
        self.interrupted = interrupted


@dataclass(frozen=True)
class TemperingPlan:
    """Configuration of one replica-exchange search.

    Attributes:
        rungs: Temperature rungs K (rung 0 is the coldest and behaves
            like the plain single-chain annealer).
        exchange_every: Iterations per segment between swap phases.
        portfolio: Proposal portfolio — ``"mixed"`` (default) alternates
            exponential/linear cooling by rung parity, or pin every rung
            with ``"exponential"``/``"linear"``.  Move-length families
            cycle through :data:`MOVE_FAMILIES` regardless.
        base: Baseline annealing hyperparameters (rung 0's, before the
            ladder/portfolio adjustments).
        seed: Root seed: ``SeedSequence(seed)`` spawns K rung streams
            plus the dedicated exchange stream.
    """

    rungs: int
    exchange_every: int = 25
    portfolio: str = "mixed"
    base: SAParams = field(default_factory=SAParams)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rungs < 1:
            raise ValueError("rungs must be >= 1")
        if self.exchange_every < 1:
            raise ValueError("exchange_every must be >= 1")
        if self.portfolio not in PORTFOLIOS:
            raise ValueError(
                f"unknown portfolio {self.portfolio!r} "
                f"(expected one of {', '.join(PORTFOLIOS)})"
            )

    @property
    def segments(self) -> int:
        """Segment count covering ``base.max_iterations`` iterations."""
        return max(
            1, -(-self.base.max_iterations // self.exchange_every)
        )

    def rung_params(self, rung: int) -> SAParams:
        """The portfolio member annealing rung ``rung`` runs."""
        if self.portfolio == "mixed":
            schedule = "exponential" if rung % 2 == 0 else "linear"
        else:
            schedule = self.portfolio
        return replace(
            self.base,
            temperature=self.base.temperature * LADDER_RATIO**rung,
            move_length_frac=(
                self.base.move_length_frac
                * MOVE_FAMILIES[rung % len(MOVE_FAMILIES)]
            ),
            schedule=schedule,
        )


@dataclass(frozen=True)
class ExchangeRecord:
    """One neighbor-pair swap proposal and its verdict."""

    seq: int
    segment: int
    lower: int
    upper: int
    energy_lower: float
    energy_upper: float
    accepted: bool

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "segment": self.segment,
            "lower": self.lower,
            "upper": self.upper,
            "energy_lower": self.energy_lower,
            "energy_upper": self.energy_upper,
            "accepted": self.accepted,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExchangeRecord":
        return cls(
            seq=int(doc["seq"]),
            segment=int(doc["segment"]),
            lower=int(doc["lower"]),
            upper=int(doc["upper"]),
            energy_lower=float(doc["energy_lower"]),
            energy_upper=float(doc["energy_upper"]),
            accepted=bool(doc["accepted"]),
        )


@dataclass(frozen=True)
class TemperingOutcome:
    """Everything one coordinated ladder run produced.

    Attributes:
        results: Per-rung best-so-far generation results, rung order.
        seconds: Per-rung cumulative annealing wall seconds.
        exchanges: Every swap proposal, in exchange-sequence order
            (restored proposals included, so resumed ≡ uninterrupted).
        replicas: Final replica-id permutation (``replicas[k]`` is the
            identity of the configuration that ended in rung k).
        swaps_proposed: Per-rung proposal counts.
        swaps_accepted: Per-rung accepted-swap counts.
        segments_run: Segments actually stepped this run.
        segments_restored: Segments restored from the journal.
    """

    results: tuple[GenerationResult, ...]
    seconds: tuple[float, ...]
    exchanges: tuple[ExchangeRecord, ...]
    replicas: tuple[int, ...]
    swaps_proposed: tuple[int, ...]
    swaps_accepted: tuple[int, ...]
    segments_run: int = 0
    segments_restored: int = 0


@dataclass(frozen=True)
class _SegmentItem:
    """One rung-segment task payload."""

    rung: int
    segment: int
    steps: int
    params: SAParams
    state: dict | None
    rng_source: Any
    parallel_hint: int | None
    harvest: bool
    faults: FaultPlan | None = None


@dataclass(frozen=True)
class _SegmentOutcome:
    """One rung-segment task result: the advanced state, serialized."""

    rung: int
    segment: int
    state: dict
    seconds: float
    result: GenerationResult | None = None


def _run_segment(attempt: int, item: _SegmentItem):
    """Task: advance one rung by one segment (init on segment 0)."""
    from repro.pipeline import _WORKER_STATE, _wrap_obs

    ctx = _WORKER_STATE["ctx"]
    if item.faults is not None:
        item.faults.fire("tiling", item.rung, attempt)
    t0 = time.perf_counter()
    with get_tracer().span(
        "executor.attempt", category="resilience",
        task=f"pt[{item.rung}]", attempt=attempt,
    ):
        generator = AtomGenerator(
            ctx.graph, ctx.cost_model, rng=np.random.default_rng(0)
        )
        with get_tracer().span(
            "sa.rung", category="sa",
            rung=item.rung, segment=item.segment, steps=item.steps,
        ):
            if item.state is None:
                rung_state = generator.init_rung(
                    item.params,
                    rng=np.random.default_rng(item.rng_source),
                    parallel_hint=item.parallel_hint,
                    replica=item.rung,
                )
            else:
                rung_state = RungState.from_dict(item.state)
            if item.steps > 0:
                generator.step_rung(rung_state, item.params, steps=item.steps)
        result = generator.rung_result(rung_state) if item.harvest else None
    return _wrap_obs(
        _SegmentOutcome(
            rung=item.rung,
            segment=item.segment,
            state=rung_state.to_dict(),
            seconds=time.perf_counter() - t0,
            result=result,
        )
    )


def _metropolis_swap(
    states: list[dict],
    lower: int,
    upper: int,
    seq: int,
    segment: int,
    ex_rng: np.random.Generator,
    epsilons: Sequence[float],
) -> ExchangeRecord:
    """Propose one neighbor swap; apply it to ``states`` if accepted.

    One uniform draw is consumed unconditionally so the exchange-stream
    position depends only on the proposal count, not on outcomes.
    """
    e_lo = float(states[lower]["energy"])
    e_hi = float(states[upper]["energy"])
    t_lo = max(float(states[lower]["temperature"]), 1e-12)
    t_hi = max(float(states[upper]["temperature"]), 1e-12)
    delta = (1.0 / t_lo - 1.0 / t_hi) * (e_lo - e_hi)
    u = float(ex_rng.uniform(0, 1))
    accepted = delta >= 0.0 or u < math.exp(delta)
    if accepted:
        for key in RungState.SWAP_KEYS:
            states[lower][key], states[upper][key] = (
                states[upper][key], states[lower][key],
            )
        for k in (lower, upper):
            doc = states[k]
            if doc["energy"] < doc["best_energy"]:
                doc["best_assignment"] = dict(doc["assignment"])
                doc["best_energy"] = doc["energy"]
                doc["best_state"] = doc["state"]
            doc["converged"] = doc["energy"] <= epsilons[k]
    return ExchangeRecord(
        seq=seq,
        segment=segment,
        lower=lower,
        upper=upper,
        energy_lower=e_lo,
        energy_upper=e_hi,
        accepted=accepted,
    )


def segment_label(segment: int) -> str:
    return f"{SEGMENT_KIND}[{segment}]"


def _segment_record(
    segment: int,
    states: list[dict],
    exchanges: list[ExchangeRecord],
    next_seq: int,
    ex_rng: np.random.Generator,
    seconds: list[float],
    swaps_proposed: list[int],
    swaps_accepted: list[int],
) -> dict:
    return {
        "label": segment_label(segment),
        "kind": SEGMENT_KIND,
        "segment": segment,
        "rungs": len(states),
        "states": [dict(doc) for doc in states],
        "replicas": [int(doc["replica"]) for doc in states],
        "exchanges": [rec.to_dict() for rec in exchanges],
        "next_seq": next_seq,
        "exchange_rng": ex_rng.bit_generator.state,
        "seconds": list(seconds),
        "swaps_proposed": list(swaps_proposed),
        "swaps_accepted": list(swaps_accepted),
    }


def _restore_segments(records: dict, rungs: int) -> dict | None:
    """The longest valid consecutive segment prefix in journal records.

    Returns the last prefix record plus the exchange history of the
    whole prefix, or None when segment 0 is absent or malformed —
    corruption can cost work, never correctness (the same contract as
    candidate restore).
    """
    exchanges: list[ExchangeRecord] = []
    last: dict | None = None
    segment = 0
    while True:
        record = records.get(segment_label(segment))
        if not isinstance(record, dict) or record.get("kind") != SEGMENT_KIND:
            break
        try:
            if int(record["rungs"]) != rungs:
                break
            states = record["states"]
            if len(states) != rungs:
                break
            recs = [ExchangeRecord.from_dict(d) for d in record["exchanges"]]
        except (KeyError, TypeError, ValueError):
            break
        exchanges.extend(recs)
        last = record
        segment += 1
    if last is None:
        return None
    return {"last": last, "exchanges": exchanges, "next_segment": segment}


def run_tempering(
    plan: TemperingPlan,
    executor: ResilientExecutor,
    parallel_hint: int | None,
    journal: CheckpointJournal | None = None,
    resume_records: dict | None = None,
    faults: FaultPlan | None = None,
) -> TemperingOutcome:
    """Run the replica-exchange ladder to completion on ``executor``.

    Args:
        plan: Ladder configuration.
        executor: A search executor whose workers were initialized with
            the target :class:`~repro.pipeline.SearchContext`.
        parallel_hint: Engine count for the parallelism deficit term.
        journal: Open checkpoint journal; every completed segment is
            appended (post-swap) under label ``pt-segment[s]``.
        resume_records: Journal records from ``CheckpointJournal.open``;
            the longest valid segment prefix is restored instead of
            being re-stepped.
        faults: Deterministic fault plan (chaos tests); rung segments
            fire phase-``"tiling"`` faults indexed by rung.

    Raises:
        TemperingError: A rung segment failed past its retry budget or
            the run was interrupted — the ladder is coupled, so a lost
            rung invalidates every later segment.
    """
    rungs = plan.rungs
    tracer = get_tracer()
    registry = get_registry()
    children = np.random.SeedSequence(plan.seed).spawn(rungs + 1)
    ex_rng = np.random.default_rng(children[rungs])
    params = [plan.rung_params(k) for k in range(rungs)]
    epsilons = [p.epsilon for p in params]
    states: list[dict | None] = [None] * rungs
    seconds = [0.0] * rungs
    swaps_proposed = [0] * rungs
    swaps_accepted = [0] * rungs
    exchanges: list[ExchangeRecord] = []
    seq = 0
    start_segment = 0

    if resume_records:
        restored = _restore_segments(resume_records, rungs)
        if restored is not None:
            last = restored["last"]
            states = [dict(doc) for doc in last["states"]]
            exchanges = list(restored["exchanges"])
            seq = int(last["next_seq"])
            ex_rng.bit_generator.state = last["exchange_rng"]
            seconds = [float(s) for s in last["seconds"]]
            swaps_proposed = [int(s) for s in last["swaps_proposed"]]
            swaps_accepted = [int(s) for s in last["swaps_accepted"]]
            start_segment = restored["next_segment"]
            _log.info(
                "restored %d tempering segment(s) from checkpoint",
                start_segment,
            )
            registry.counter("search.pt.segments_restored").inc(start_segment)

    n_segments = plan.segments
    results: list[GenerationResult | None] = [None] * rungs

    def run_segment_map(
        segment: int, steps: int, harvest: bool
    ) -> list[_SegmentOutcome]:
        payloads = [
            _SegmentItem(
                rung=k,
                segment=segment,
                steps=steps,
                params=params[k],
                state=states[k],
                rng_source=children[k] if states[k] is None else None,
                parallel_hint=parallel_hint,
                harvest=harvest,
                faults=faults,
            )
            for k in range(rungs)
        ]

        def verify(index: int, value: Any) -> str | None:
            from repro.pipeline import _ObsEnvelope

            outcome = (
                value.value if isinstance(value, _ObsEnvelope) else value
            )
            if not isinstance(outcome, _SegmentOutcome):
                return f"segment result has type {type(outcome).__name__}"
            if (outcome.rung, outcome.segment) != (index, segment):
                return (
                    "segment echo mismatch: got "
                    f"rung {outcome.rung} segment {outcome.segment}, "
                    f"expected rung {index} segment {segment}"
                )
            return None

        with tracer.span(
            "search.phase", phase="tempering", segment=segment, tasks=rungs
        ):
            reports = executor.map(_run_segment, payloads, verify=verify)
        outcomes = []
        for k, report in enumerate(reports):
            if not report.ok:
                raise TemperingError(
                    f"tempering rung {k} segment {segment} "
                    f"{report.status}: {report.error or 'interrupted'}",
                    interrupted=report.status == "interrupted",
                )
            from repro.pipeline import _unwrap_obs

            outcomes.append(_unwrap_obs(report.value))
        return outcomes

    if start_segment >= n_segments:
        # Every segment restored: one zero-step pass harvests results.
        for outcome in run_segment_map(n_segments - 1, 0, True):
            results[outcome.rung] = outcome.result

    for segment in range(start_segment, n_segments):
        done = segment * plan.exchange_every
        steps = min(plan.exchange_every, plan.base.max_iterations - done)
        harvest = segment == n_segments - 1
        for outcome in run_segment_map(segment, max(steps, 0), harvest):
            k = outcome.rung
            states[k] = outcome.state
            seconds[k] += outcome.seconds
            if harvest:
                results[k] = outcome.result
        segment_exchanges: list[ExchangeRecord] = []
        if not harvest and rungs > 1:
            with tracer.span(
                "sa.exchange", category="sa", segment=segment
            ) as span:
                for lower in range(segment % 2, rungs - 1, 2):
                    seq += 1
                    record = _metropolis_swap(
                        states,  # type: ignore[arg-type]
                        lower,
                        lower + 1,
                        seq,
                        segment,
                        ex_rng,
                        epsilons,
                    )
                    segment_exchanges.append(record)
                    exchanges.append(record)
                    for k in (lower, lower + 1):
                        swaps_proposed[k] += 1
                        if record.accepted:
                            swaps_accepted[k] += 1
                accepted = sum(r.accepted for r in segment_exchanges)
                if hasattr(span, "args"):
                    # static-ok: LINT011 -- parent-side span annotation; never runs in a worker
                    span.args.update(
                        proposed=len(segment_exchanges), accepted=accepted
                    )
            registry.counter("search.pt.swaps_proposed").inc(
                len(segment_exchanges)
            )
            if accepted:
                registry.counter("search.pt.swaps_accepted").inc(accepted)
        registry.counter("search.pt.segments").inc()
        if journal is not None:
            journal.append(
                _segment_record(
                    segment,
                    states,  # type: ignore[arg-type]
                    segment_exchanges,
                    seq,
                    ex_rng,
                    seconds,
                    swaps_proposed,
                    swaps_accepted,
                )
            )

    assert all(r is not None for r in results)
    _log.info(
        "tempering finished: %d rung(s), %d/%d swap(s) accepted",
        rungs,
        sum(swaps_accepted) // 2,
        sum(swaps_proposed) // 2,
    )
    return TemperingOutcome(
        results=tuple(results),  # type: ignore[arg-type]
        seconds=tuple(seconds),
        exchanges=tuple(exchanges),
        replicas=tuple(
            int(doc["replica"]) for doc in states  # type: ignore[index]
        ),
        swaps_proposed=tuple(swaps_proposed),
        swaps_accepted=tuple(swaps_accepted),
        segments_run=n_segments - start_segment,
        segments_restored=start_segment,
    )
