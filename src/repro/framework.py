"""The atomic-dataflow optimization framework (Sec. III, Fig. 4).

Ties the three techniques into the paper's iterative search:

1. **Atom generation** — SA-balanced tile sizes per layer (Sec. IV-A);
2. **Atomic DAG scheduling** — priority-pruned DP over Rounds (Sec. IV-B);
3. **Mapping + buffering** — TransferCost-minimizing placement and
   Algorithm 3 evictions (Sec. IV-C);

then evaluates each candidate end-to-end on the system simulator and keeps
the cheapest.  The search itself runs on the staged pipeline of
:mod:`repro.pipeline`: a shared :class:`~repro.pipeline.SearchContext`,
one annealing driver whose chains own their RNG streams (so ``jobs=1``
and ``jobs=8`` decide identically), tiling-fingerprint deduplication, and a
:class:`~repro.pipeline.CandidateTrace` per candidate.  Every stage can be
swapped for its naive counterpart, which is how the Fig. 10 per-stage
ablation is produced.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

from repro.atoms.dag import AtomicDAG
from repro.atoms.generation import SAParams
from repro.config import ArchConfig
from repro.fingerprint import request_fingerprint
from repro.ir.graph import Graph
from repro.metrics import RunResult, SearchStats
from repro.pipeline import (
    CandidatePipeline,
    CandidateSpec,
    CandidateTrace,
    EvenTilingStage,
    LayerSequentialSchedulingStage,
    SATilingStage,
    SearchContext,
    SearchRun,
    StagedSearch,
    mapping_stage_for,
    scheduling_stage_for,
    select_best,
)
from repro.obs.log import get_logger
from repro.obs.tracer import get_tracer
from repro.resilience import CheckpointJournal, FaultPlan, RetryPolicy
from repro.resilience.executor import ResilientExecutor
from repro.resilience.faults import FaultSpec
from repro.search.tempering import PORTFOLIOS, TemperingPlan
from repro.scheduling.rounds import Schedule

_log = get_logger(__name__)


def _build_nested(cls: type, doc: Mapping[str, Any], what: str) -> Any:
    """Construct a nested options dataclass, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    return cls(**dict(doc))


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs of the optimization framework.

    Attributes:
        dataflow: Single-engine spatial mapping: ``"kc"``, ``"yx"``, or
            ``"kcw"`` (the flexible 3-parameter array of Sec. VI).
        batch: Batch size gathered into one atomic DAG.
        atom_generation: ``"sa"`` (Algorithm 1) or ``"even"`` (LS-style even
            split, the ablation's no-SA arm).
        scheduler: ``"dp"`` (pruned lookahead, Algorithm 2), ``"greedy"``
            (priority filling only), or ``"exact"`` (exhaustive DP — tiny
            DAGs only).
        mapping: ``"optimized"`` (TransferCost permutation search) or
            ``"zigzag"`` (naive baseline).
        sa_params: Annealing hyperparameters.
        lookahead: DP lookahead depth.
        restarts: Independent SA chains ``sa[i]``; the best simulated
            candidate wins (the outer iterative loop of Fig. 4(b)).  They
            run on the same annealing driver as ``rungs``
            (:mod:`repro.search.tempering`), as a ladder that never
            exchanges.  Mutually exclusive with ``rungs``.
        rungs: Parallel-tempering temperature rungs ``pt[k]`` (0
            disables).  When set, the driver anneals this many coupled
            chains that exchange configurations instead of independent
            restarts; every rung's final tiling is evaluated and the best
            simulated candidate wins.  Requires ``atom_generation="sa"``.
        exchange_every: Iterations per tempering segment between
            neighbor-rung swap proposals.
        portfolio: Tempering proposal portfolio: ``"mixed"`` (default),
            ``"exponential"``, or ``"linear"`` — which cooling-schedule
            family the rungs run (mixed alternates by rung parity).
        seed: RNG seed for reproducibility.  Restart 0 draws from
            ``default_rng(seed)`` (bit-compatible with earlier releases)
            and restarts 1..n-1 from the n-1 children ``seed`` spawns;
            rung k draws from child k of K+1 children and child K drives
            the exchanges
            (:meth:`~repro.search.tempering.TemperingPlan.streams`).
            Outcomes are independent of evaluation order and of ``jobs``.
        jobs: Worker processes for candidate fan-out; 1 (default) runs
            fully inline.  Any ``jobs`` value decides identically.
        dedup: Skip scheduling/simulation of candidates whose tiling
            fingerprint was already evaluated this search.
        validate: Debug flag: statically verify every intermediate
            artifact (DAG, schedule, placement, buffering) the search
            produces with :mod:`repro.analysis` and raise
            :class:`~repro.analysis.diagnostics.ArtifactValidationError`
            on the first illegal one.  Off by default (it roughly doubles
            candidate-evaluation time); tests turn it on.
        retries: Extra supervised attempts a failing candidate gets
            before it becomes a permanent failure trace (0 = fail fast).
        candidate_timeout_s: Per-candidate running-time budget under
            ``jobs > 1`` (a stuck candidate costs one attempt and a pool
            respawn); None disables deadlines.  Not enforceable inline
            (``jobs=1``) — a serial search cannot pre-empt itself.
        checkpoint: Path of an append-only JSONL journal recording every
            completed candidate; None (default) disables checkpointing.
        resume: Load completed candidates from ``checkpoint`` instead of
            re-evaluating them.  Requires ``checkpoint``; the journal key
            (the request fingerprint: graph, architecture and every
            option that decides) must match.
        faults: Deterministic fault-injection plan
            (:class:`~repro.resilience.FaultPlan`) — the chaos tests
            only, never production searches.
    """

    dataflow: str = "kc"
    batch: int = 1
    atom_generation: str = "sa"
    scheduler: str = "dp"
    mapping: str = "optimized"
    sa_params: SAParams = field(default_factory=SAParams)
    lookahead: int = 1
    restarts: int = 1
    rungs: int = 0
    exchange_every: int = 25
    portfolio: str = "mixed"
    seed: int = 0
    jobs: int = 1
    dedup: bool = True
    validate: bool = False
    retries: int = 1
    candidate_timeout_s: float | None = None
    checkpoint: str | None = None
    resume: bool = False
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.atom_generation not in ("sa", "even"):
            raise ValueError(f"unknown atom_generation {self.atom_generation!r}")
        if self.scheduler not in ("dp", "greedy", "exact"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.mapping not in ("optimized", "zigzag"):
            raise ValueError(f"unknown mapping {self.mapping!r}")
        if self.batch <= 0 or self.restarts <= 0:
            raise ValueError("batch and restarts must be positive")
        if self.rungs < 0:
            raise ValueError("rungs must be >= 0")
        if self.exchange_every <= 0:
            raise ValueError("exchange_every must be positive")
        if self.portfolio not in PORTFOLIOS:
            raise ValueError(
                f"unknown portfolio {self.portfolio!r} "
                f"(expected one of {', '.join(PORTFOLIOS)})"
            )
        if self.rungs:
            if self.atom_generation != "sa":
                raise ValueError('rungs requires atom_generation="sa"')
            if self.restarts > 1:
                raise ValueError(
                    "rungs and restarts are mutually exclusive — "
                    "choose a tempering ladder or independent restarts"
                )
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.candidate_timeout_s is not None and self.candidate_timeout_s <= 0:
            raise ValueError("candidate_timeout_s must be positive")
        if self.resume and not self.checkpoint:
            raise ValueError("resume requires a checkpoint path")

    def to_dict(self) -> dict:
        """The canonical serialized form of these options.

        Every field appears (including the execution-only ones — the
        request fingerprint drops
        :data:`repro.fingerprint.EXECUTION_KEYS` itself); ``sa_params``
        flattens to a mapping and ``faults`` to ``{"specs": [...]}`` or
        None, so the document is pure JSON and round-trips through
        :meth:`from_dict` to an equal options object.
        """
        doc = asdict(self)
        doc["sa_params"] = asdict(self.sa_params)
        doc["faults"] = (
            None
            if self.faults is None
            else {"specs": [asdict(s) for s in self.faults.specs]}
        )
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "OptimizerOptions":
        """Rebuild options from :meth:`to_dict` output.

        Unknown keys are rejected, not ignored: a request carrying a
        knob this build does not understand must fail loudly, or the
        served solution would silently differ from what the client
        asked for.

        Raises:
            ValueError: On unknown keys (top-level, ``sa_params``, or
                fault-spec level) or values ``__post_init__`` rejects.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown option key(s): {', '.join(unknown)}")
        kwargs = dict(doc)
        sa = kwargs.get("sa_params")
        if isinstance(sa, Mapping):
            kwargs["sa_params"] = _build_nested(SAParams, sa, "sa_params")
        faults = kwargs.get("faults")
        if isinstance(faults, Mapping):
            extra = sorted(set(faults) - {"specs"})
            if extra:
                raise ValueError(
                    f"unknown faults key(s): {', '.join(extra)}"
                )
            kwargs["faults"] = FaultPlan(
                specs=tuple(
                    _build_nested(FaultSpec, spec, "fault spec")
                    for spec in faults.get("specs", ())
                )
            )
        # JSON round-trips tuples as lists; FaultSpec has no tuple
        # fields today, but stall_s arrives as float either way.
        return cls(**kwargs)


@dataclass(frozen=True)
class OptimizationOutcome:
    """Everything the framework decided, plus the simulated result.

    Attributes:
        result: Simulated metrics of the selected solution.
        dag: The atomic DAG of the selected tiling.
        schedule: Selected Round schedule.
        placement: Selected atom-engine mapping.
        tiling_energy: Final SA energy (atom-cycle variance), if SA ran.
        search_seconds: Wall-clock compile-time search cost (the quantity
            the paper reports as "searching overheads", Sec. V-B).
        traces: One :class:`~repro.pipeline.CandidateTrace` per candidate
            the search considered, in candidate order.
        interrupted: The search was cut short (Ctrl-C); the result is the
            best of the candidates that completed, not of the full set.
        pool_restarts: Worker-pool failures the search survived.
        degraded_to_serial: Repeated pool failures forced the remainder
            of the search to run inline.
    """

    result: RunResult
    dag: AtomicDAG
    schedule: Schedule
    placement: dict[int, int]
    tiling_energy: float | None
    search_seconds: float = 0.0
    traces: tuple[CandidateTrace, ...] = ()
    interrupted: bool = False
    pool_restarts: int = 0
    degraded_to_serial: bool = False

    @property
    def search_stats(self) -> SearchStats:
        """Aggregated per-stage search cost over all candidates."""
        return SearchStats.from_traces(
            self.traces, search_seconds=self.search_seconds
        )


class AtomicDataflowOptimizer:
    """End-to-end optimizer for one workload on one architecture.

    Args:
        graph: The DNN graph (pre-fusion; unary elementwise layers are
            folded into producers automatically).
        arch: Target accelerator configuration.
        options: Search configuration.
        context: Warm :class:`~repro.pipeline.SearchContext` to reuse
            (e.g. from a :class:`~repro.pipeline.ContextCache`) instead
            of building one; must have been created from the same
            ``(graph, arch, dataflow, batch)``.
        executor: Warm executor (from
            :func:`~repro.resilience.executor.make_search_executor`,
            initialized with ``context``) the search runs on instead of
            spawning a private pool; the caller owns its shutdown.
    """

    def __init__(
        self,
        graph: Graph,
        arch: ArchConfig,
        options: OptimizerOptions = OptimizerOptions(),
        context: SearchContext | None = None,
        executor: ResilientExecutor | None = None,
    ) -> None:
        self.arch = arch
        self.options = options
        self.context = context or SearchContext.create(
            graph,
            arch,
            dataflow=options.dataflow,
            batch=options.batch,
        )
        self.executor = executor
        # Shorthands for the shared state (kept for API compatibility).
        self.graph = self.context.graph
        self.cost_model = self.context.cost_model

    def optimize(self, strategy_label: str = "AD") -> OptimizationOutcome:
        """Run the iterative search and return the best solution found.

        Besides the SA restarts, one candidate built from the even-split
        tiling is always evaluated: the paper observes that the previous
        resource-allocation schemes are covered by atomic dataflow's search
        space, so the framework never does worse than scheduling the naive
        granularity with its own DAG scheduler and mapper.
        """
        start = time.perf_counter()
        o = self.options
        specs = self._candidate_specs()
        journal = None
        if o.checkpoint:
            journal = CheckpointJournal(o.checkpoint, self._checkpoint_key())
        search = StagedSearch(
            self.context,
            self._pipeline(),
            jobs=o.jobs,
            dedup=o.dedup,
            retry=RetryPolicy(
                retries=o.retries, candidate_timeout_s=o.candidate_timeout_s
            ),
            faults=o.faults,
            journal=journal,
            resume=o.resume,
            executor=self.executor,
            tempering=self._tempering_plan(),
        )
        _log.info(
            "optimizing %s (batch %d, %d candidate(s), jobs=%d)",
            self.graph.name, o.batch, len(specs), o.jobs,
        )
        with get_tracer().span(
            "optimize",
            workload=self.graph.name,
            candidates=len(specs),
            jobs=o.jobs,
        ):
            run = search.run(specs, strategy=strategy_label)
            try:
                winner = select_best(run.solutions)
            except ValueError:
                raise self._empty_search_error(run) from None
        best = run.solutions[winner]
        assert best is not None
        _log.info(
            "selected %s: %d cycles in %.2fs of search",
            specs[winner].label,
            best.result.total_cycles,
            time.perf_counter() - start,
        )
        return OptimizationOutcome(
            result=best.result,
            dag=best.dag,
            schedule=best.schedule,
            placement=best.placement,
            tiling_energy=best.tiling_energy,
            search_seconds=time.perf_counter() - start,
            traces=tuple(
                self._judged(t, accepted=(i == winner), winner=specs[winner])
                for i, t in enumerate(run.traces)
            ),
            interrupted=run.interrupted,
            pool_restarts=run.pool_restarts,
            degraded_to_serial=run.degraded_to_serial,
        )

    def _checkpoint_key(self) -> dict:
        """The request fingerprint of this search, as the journal key.

        A checkpoint journal is only resumable into a search whose key is
        identical — same graph, same architecture, same options up to
        :data:`~repro.fingerprint.EXECUTION_KEYS` — so restored
        candidates are guaranteed to be the ones this search would have
        produced.
        """
        return {
            "request": request_fingerprint(
                self.context.graph, self.arch, self.options
            )
        }

    @staticmethod
    def _empty_search_error(run: SearchRun) -> BaseException:
        """The error to raise when not one candidate was evaluated."""
        if run.interrupted and not any(t.failed for t in run.traces):
            # Interrupted before anything finished: there is no partial
            # result to hand back, so surface the interrupt itself.
            return KeyboardInterrupt()
        failures = [t for t in run.traces if t.failed]
        detail = "; ".join(
            f"{t.label}: {t.error or t.reason}" for t in failures[:5]
        )
        if len(failures) > 5:
            detail += f"; ... {len(failures) - 5} more"
        return RuntimeError(
            f"search failed: no candidate was evaluated "
            f"({len(failures)}/{len(run.traces)} candidates failed"
            f"{', search interrupted' if run.interrupted else ''})"
            + (f": {detail}" if detail else "")
        )

    def _tempering_plan(self) -> TemperingPlan | None:
        """The annealing chains: the exchanging ladder ``rungs`` asks
        for, else ``restarts`` chains that never exchange; None when
        no spec anneals (``atom_generation="even"``)."""
        o = self.options
        if o.atom_generation != "sa":
            return None
        if not o.rungs:
            return TemperingPlan(
                rungs=o.restarts, base=o.sa_params, seed=o.seed, exchange=False
            )
        return TemperingPlan(
            rungs=o.rungs,
            exchange_every=o.exchange_every,
            portfolio=o.portfolio,
            base=o.sa_params,
            seed=o.seed,
        )

    def _candidate_specs(self) -> list[CandidateSpec]:
        """One spec per annealing chain, plus the even-split candidate.

        The plan names each chain (``sa[i]`` for restarts, ``pt[k]`` for
        rungs) and owns its seed stream (:meth:`TemperingPlan.streams`).
        With ``atom_generation="even"`` every restart is an even split.
        """
        o = self.options
        plan = self._tempering_plan()
        if plan is None:
            return [
                CandidateSpec(label=f"even[{i}]", tiling_stage=EvenTilingStage())
                for i in range(o.restarts)
            ]
        specs = [
            CandidateSpec(
                label=plan.label(k),
                tiling_stage=SATilingStage(params=plan.rung_params(k)),
            )
            for k in range(plan.rungs)
        ]
        specs.append(
            CandidateSpec(label="even-split", tiling_stage=EvenTilingStage())
        )
        return specs

    def _pipeline(self) -> CandidatePipeline:
        """The per-candidate stage chain the options describe.

        Two atom orderings are evaluated per tiling when batch > 1 — the
        DAG search's and the plain layer-sequential one (a valid atom
        order inside atomic dataflow's search space, and occasionally
        optimal on perfectly uniform chains with large batches) — keeping
        the cheaper.
        """
        o = self.options
        scheduling: tuple = (scheduling_stage_for(o.scheduler, o.lookahead),)
        if o.batch > 1:
            scheduling += (LayerSequentialSchedulingStage(),)
        return CandidatePipeline(
            scheduling=scheduling,
            mapping=mapping_stage_for(o.mapping),
            validate=o.validate,
        )

    @staticmethod
    def _judged(
        trace: CandidateTrace, accepted: bool, winner: CandidateSpec
    ) -> CandidateTrace:
        if accepted:
            return replace(trace, accepted=True, reason="selected")
        if trace.reason:  # dedup skip, keep "duplicate of X"
            return trace
        return replace(trace, reason=f"beaten by {winner.label}")

    def _evaluate_tiling(
        self,
        tiling: dict,
        tiling_energy: float | None,
        strategy_label: str,
    ) -> OptimizationOutcome:
        """Evaluate one explicit tiling through the stage pipeline.

        Exposed for tests and ad-hoc experiments that want to price a
        hand-constructed tiling with the optimizer's exact stage chain.
        """
        sol = self._pipeline().evaluate(
            self.context,
            tiling,
            label="adhoc",
            strategy=strategy_label,
            tiling_energy=tiling_energy,
        )
        trace = replace(sol.trace, accepted=True, reason="selected")
        return OptimizationOutcome(
            result=sol.result,
            dag=sol.dag,
            schedule=sol.schedule,
            placement=sol.placement,
            tiling_energy=sol.tiling_energy,
            traces=(trace,),
        )


def optimize(
    graph: Graph,
    arch: ArchConfig | None = None,
    **option_kwargs,
) -> OptimizationOutcome:
    """One-call convenience API: optimize a graph on an architecture.

    Example::

        from repro import models, optimize
        outcome = optimize(models.resnet50(), batch=1, dataflow="kc")
        print(outcome.result.latency_ms)
    """
    from repro.config import DEFAULT_ARCH

    arch = arch or DEFAULT_ARCH
    options = OptimizerOptions(**option_kwargs)
    return AtomicDataflowOptimizer(graph, arch, options).optimize()


__all__ = [
    "AtomicDataflowOptimizer",
    "OptimizationOutcome",
    "OptimizerOptions",
    "optimize",
]
