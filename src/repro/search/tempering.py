"""The annealing driver: every SA chain of a search runs here.

One driver steps K chains of Algorithm 1's annealer in segments on the
search executor.  A :class:`TemperingPlan` says how the chains couple:

* an exchanging plan is a parallel-tempering ladder: K *rungs* (rung 0
  coldest) anneal the same workload concurrently, and at every segment
  boundary neighboring rungs propose a Metropolis configuration swap —
  hot rungs explore, cold rungs refine, and good configurations migrate
  down the ladder instead of being rediscovered from scratch.  Each rung
  additionally runs its own member of a proposal *portfolio*
  (exponential vs linear cooling, coarse/fine move-length families), so
  the ladder hedges across annealing styles the way the tensor-PCA
  exemplar's cooling caveat recommends;
* a plan with ``exchange=False`` is the independent-restart search of
  Fig. 4(b)'s outer loop: a ladder that never exchanges, every chain at
  the base parameters, stepped to completion in one segment.

Determinism contract (the repo-wide ``jobs=1 ≡ jobs=N`` gate):

- every chain owns a dedicated seed stream (:meth:`TemperingPlan.streams`)
  that lives inside its :class:`~repro.atoms.generation.RungState` and
  travels with it across segments, so worker scheduling never reorders
  draws;
- swap decisions draw from a *dedicated exchange stream* held by the
  parent-side coordinator, never by workers;
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

Every segment but the last is journaled (post-swap states, exchange
decisions, exchange-stream state) under label ``pt-segment[s]``, so an
interrupted search resumes from the last completed segment and replays
nothing; the last segment's results go straight to evaluation, whose
candidate records are its checkpoint.  Validator AD604
(:mod:`repro.analysis.tempering_rules`) audits the records for exchange
legality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
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
from repro.resilience.executor import (
    WORKER_STATE,
    ObsEnvelope,
    ResilientExecutor,
    TaskReport,
    unwrap_obs,
    wrap_obs,
)
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


@dataclass(frozen=True)
class TemperingPlan:
    """Configuration of one search's annealing chains.

    Attributes:
        rungs: Chains K (for a ladder, rung 0 is the coldest and behaves
            like the plain single-chain annealer).
        exchange_every: Iterations per segment between swap phases.
        portfolio: Proposal portfolio — ``"mixed"`` (default) alternates
            exponential/linear cooling by rung parity, or pin every rung
            with ``"exponential"``/``"linear"``.  Move-length families
            cycle through :data:`MOVE_FAMILIES` regardless.
        base: Baseline annealing hyperparameters (rung 0's, before the
            ladder/portfolio adjustments).
        seed: Root seed of every chain's stream (:meth:`streams`).
        exchange: False makes the plan independent restarts: a ladder
            that never exchanges, every chain at ``base``, one segment
            of ``base.max_iterations`` steps; ``exchange_every`` and
            ``portfolio`` then go unused.
    """

    rungs: int
    exchange_every: int = 25
    portfolio: str = "mixed"
    base: SAParams = field(default_factory=SAParams)
    seed: int = 0
    exchange: bool = True

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
    def segment_length(self) -> int:
        """Iterations per segment (the whole run when never exchanging)."""
        if self.exchange:
            return self.exchange_every
        return max(self.base.max_iterations, 1)

    @property
    def segments(self) -> int:
        """Segment count covering ``base.max_iterations`` iterations."""
        return max(
            1, -(-self.base.max_iterations // self.segment_length)
        )

    def label(self, chain: int) -> str:
        """Candidate label of ``chain``: ``pt[k]`` on a ladder, else ``sa[i]``."""
        return f"pt[{chain}]" if self.exchange else f"sa[{chain}]"

    def rung_params(self, rung: int) -> SAParams:
        """The portfolio member annealing rung ``rung`` runs."""
        if not self.exchange:
            return self.base
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

    def streams(self) -> tuple[list[Any], np.random.SeedSequence | None]:
        """Each chain's seed source, and the exchange stream's.

        A ladder spawns ``SeedSequence(seed).spawn(K+1)``: child k seeds
        rung k, child K the coordinator's exchange stream.  Restarts keep
        the layout of earlier releases: chain 0 draws from ``seed``
        itself (so one restart anneals exactly as ``generate_sa`` on
        ``default_rng(seed)`` does) and chain i >= 1 from child i-1 of
        ``SeedSequence(seed).spawn(K-1)``; they have no exchange stream.
        """
        if not self.exchange:
            children = np.random.SeedSequence(self.seed).spawn(self.rungs - 1)
            return [self.seed, *children], None
        children = np.random.SeedSequence(self.seed).spawn(self.rungs + 1)
        return list(children[: self.rungs]), children[self.rungs]


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
    """Everything one driver run produced.

    Attributes:
        results: Per-chain best-so-far generation results, chain order;
            None for a chain lost in the final segment.
        seconds: Per-chain cumulative annealing wall seconds.
        exchanges: Every swap proposal, in exchange-sequence order
            (restored proposals included, so resumed ≡ uninterrupted).
        replicas: Final replica-id permutation (``replicas[k]`` is the
            identity of the configuration that ended in rung k).
        swaps_proposed: Per-rung proposal counts.
        swaps_accepted: Per-rung accepted-swap counts.
        segments_run: Segments actually stepped this run.
        segments_restored: Segments restored from the journal.
        attempts: Per-chain supervised attempts: one plus every retry
            its segments took.
        failures: Per-chain report of a final segment that failed or
            was interrupted (None where the chain finished).
    """

    results: tuple[GenerationResult | None, ...]
    seconds: tuple[float, ...]
    exchanges: tuple[ExchangeRecord, ...]
    replicas: tuple[int, ...]
    swaps_proposed: tuple[int, ...]
    swaps_accepted: tuple[int, ...]
    segments_run: int = 0
    segments_restored: int = 0
    attempts: tuple[int, ...] = ()
    failures: tuple[TaskReport | None, ...] = ()


@dataclass(frozen=True)
class _SegmentItem:
    """One chain-segment task payload."""

    rung: int
    label: str
    segment: int
    steps: int
    params: SAParams
    state: dict | None
    rng_source: Any
    parallel_hint: int | None
    final: bool
    faults: FaultPlan | None = None


@dataclass(frozen=True)
class _SegmentOutcome:
    """One chain-segment task result: the advanced state, serialized, or
    (final segment) the chain's result."""

    rung: int
    segment: int
    seconds: float
    state: dict | None = None
    result: GenerationResult | None = None


def _run_segment(attempt: int, item: _SegmentItem):
    """Task: advance one chain by one segment (init on segment 0)."""
    ctx = WORKER_STATE["ctx"]
    if item.faults is not None:
        item.faults.fire("tiling", item.rung, attempt)
    t0 = time.perf_counter()
    with get_tracer().span(
        "executor.attempt", category="resilience",
        task=item.label, attempt=attempt,
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
            generator.step_rung(rung_state, item.params, steps=item.steps)
        if item.final:
            state, result = None, generator.rung_result(rung_state)
        else:
            state, result = rung_state.to_dict(), None
    return wrap_obs(
        _SegmentOutcome(
            rung=item.rung,
            segment=item.segment,
            seconds=time.perf_counter() - t0,
            state=state,
            result=result,
        )
    )


def _verify_segment(
    payloads: list[_SegmentItem], index: int, value: Any
) -> str | None:
    """The executor's integrity check of one chain-segment result."""
    outcome = value.value if isinstance(value, ObsEnvelope) else value
    if not isinstance(outcome, _SegmentOutcome):
        return f"segment result has type {type(outcome).__name__}"
    item = payloads[index]
    if (outcome.rung, outcome.segment) != (item.rung, item.segment):
        return (
            "segment echo mismatch: got "
            f"rung {outcome.rung} segment {outcome.segment}, "
            f"expected rung {item.rung} segment {item.segment}"
        )
    return None


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


def _restore_segments(records: dict, rungs: int, limit: int) -> dict | None:
    """The longest valid consecutive segment prefix in journal records.

    At most ``limit`` segments are restored: the caller passes
    ``segments - 1``, so the final segment is always stepped (its
    results feed evaluation) even when a journal holds its record.
    Returns the last prefix record plus the exchange history of the
    whole prefix, or None when segment 0 is absent or malformed —
    corruption can cost work, never correctness (the same contract as
    candidate restore).
    """
    exchanges: list[ExchangeRecord] = []
    last: dict | None = None
    segment = 0
    while segment < limit:
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
    done: frozenset[int] = frozenset(),
) -> TemperingOutcome:
    """Run every chain of ``plan`` to completion on ``executor``.

    Four rules, the same for a ladder and for restarts:

    * a chain lost (failed past its retries, or interrupted) in the
      final segment sinks only itself: ``results[k]`` is None and
      ``failures[k]`` says why, since no later step reads its state;
      lost in a segment that an exchange follows, it sinks every chain
      and the run stops there;
    * a chain's segment retries add to ``attempts[k]``;
    * swaps are recorded only when the ladder exchanges;
    * every segment but the last is journaled.

    Args:
        plan: Chain configuration.
        executor: A search executor whose workers were initialized with
            the target :class:`~repro.pipeline.SearchContext`.
        parallel_hint: Engine count for the parallelism deficit term.
        journal: Open checkpoint journal; every completed segment but
            the last is appended (post-swap) under label
            ``pt-segment[s]``.
        resume_records: Journal records from ``CheckpointJournal.open``;
            the longest valid segment prefix (at most ``segments - 1``)
            is restored instead of being re-stepped.
        faults: Deterministic fault plan (chaos tests); chain segments
            fire phase-``"tiling"`` faults indexed by chain.
        done: Chains whose candidates the caller already holds (restored
            from a checkpoint).  In a one-segment plan no exchange reads
            their state, so they are not stepped and their results stay
            None; a ladder of several segments steps every chain.
    """
    rungs = plan.rungs
    tracer = get_tracer()
    registry = get_registry()
    sources, ex_source = plan.streams()
    ex_rng = None if ex_source is None else np.random.default_rng(ex_source)
    params = [plan.rung_params(k) for k in range(rungs)]
    epsilons = [p.epsilon for p in params]
    n_segments = plan.segments
    stepped = [k for k in range(rungs) if n_segments > 1 or k not in done]
    states: list[dict | None] = [None] * rungs
    seconds = [0.0] * rungs
    attempts = [1] * rungs
    swaps_proposed = [0] * rungs
    swaps_accepted = [0] * rungs
    exchanges: list[ExchangeRecord] = []
    seq = 0
    start_segment = 0

    if resume_records:
        restored = _restore_segments(resume_records, rungs, n_segments - 1)
        if restored is not None:
            assert ex_rng is not None  # only a ladder has segments to restore
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

    results: list[GenerationResult | None] = [None] * rungs
    failures: list[TaskReport | None] = [None] * rungs
    for segment in range(start_segment, n_segments):
        final = segment == n_segments - 1
        done = segment * plan.segment_length
        payloads = [
            _SegmentItem(
                rung=k,
                label=plan.label(k),
                segment=segment,
                steps=min(plan.segment_length, plan.base.max_iterations - done),
                params=params[k],
                state=states[k],
                rng_source=sources[k] if states[k] is None else None,
                parallel_hint=parallel_hint,
                final=final,
                faults=faults,
            )
            for k in stepped
        ]
        with tracer.span(
            "search.phase", phase="tiling", segment=segment,
            tasks=len(payloads),
        ):
            reports = executor.map(
                _run_segment, payloads, verify=partial(_verify_segment, payloads)
            )
        for item, report in zip(payloads, reports):
            k = item.rung
            attempts[k] += max(report.attempts - 1, 0)
            if not report.ok:
                failures[k] = replace(report, index=k, attempts=attempts[k])
                continue
            outcome = unwrap_obs(report.value)
            seconds[k] += outcome.seconds
            if final:
                results[k] = outcome.result
            else:
                states[k] = outcome.state
        registry.counter("search.pt.segments").inc()
        lost = next((f for f in failures if f is not None), None)
        if lost is not None and not final:
            # The lost chain's state feeds the exchange: every chain sinks.
            message = (
                f"tempering rung {lost.index} segment {segment} "
                f"{lost.status}: {lost.error or 'interrupted'}"
            )
            _log.error("annealing failed: %s", message)
            attempts = [1] * rungs
            failures = [
                TaskReport(index=k, status=lost.status, error=message, attempts=1)
                for k in range(rungs)
            ]
        if final or lost is not None:
            break
        assert ex_rng is not None  # a plan with several segments exchanges
        segment_exchanges: list[ExchangeRecord] = []
        if rungs > 1:
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

    _log.info(
        "annealing finished: %d chain(s), %d lost, %d/%d swap(s) accepted",
        rungs,
        sum(f is not None for f in failures),
        sum(swaps_accepted) // 2,
        sum(swaps_proposed) // 2,
    )
    return TemperingOutcome(
        results=tuple(results),
        seconds=tuple(seconds),
        exchanges=tuple(exchanges),
        replicas=tuple(
            k if doc is None else int(doc["replica"])
            for k, doc in enumerate(states)
        ),
        swaps_proposed=tuple(swaps_proposed),
        swaps_accepted=tuple(swaps_accepted),
        segments_run=segment + 1 - start_segment,
        segments_restored=start_segment,
        attempts=tuple(attempts),
        failures=tuple(failures),
    )
