"""The staged compilation pipeline behind the Fig. 4(b) search loop.

The paper's framework is a staged compiler: atom generation (Sec. IV-A)
produces a candidate tiling, DAG scheduling (Sec. IV-B) orders its atoms
into Rounds, mapping (Sec. IV-C) assigns atoms to engines, and the system
simulator prices the solution.  This module makes those stages first-class
objects threaded through a shared :class:`SearchContext`, so that

* shared state (fused graph, cost model, mesh) is built **once** per
  search instead of once per candidate;
* annealing chains and candidate evaluation fan out across processes
  (``jobs=``) while staying bit-identical to the serial path — every
  chain owns its seed stream (:meth:`~repro.search.tempering.TemperingPlan.streams`)
  and results are consumed in submission order;
* SA restarts that converge to the same tiling are deduplicated by a
  stable *tiling fingerprint* and scheduled/simulated once;
* every candidate leaves a :class:`CandidateTrace` (per-stage
  wall-seconds, cost-model cache counters, accepted/rejected + reason) —
  the "searching overheads" the paper reports in Sec. V-B, made
  measurable;
* execution is supervised by :mod:`repro.resilience`: a candidate that
  raises, hangs, or loses its worker becomes a first-class failure
  *trace* (retried within :class:`~repro.resilience.RetryPolicy` budget)
  instead of aborting the search, completed candidates stream into an
  optional :class:`~repro.resilience.CheckpointJournal` for
  ``--resume``, and ``Ctrl-C`` returns the partial results instead of a
  traceback.

Process pools are pinned to the **spawn** start method
(:data:`repro.resilience.executor.START_METHOD`): fork — the Linux
default before Python 3.14 — would hand workers a silent copy-on-write
snapshot of parent state (cost-model caches, open journal file
descriptors) that spawn platforms (macOS, Windows) never see.  Spawned
workers rebuild their state via
:func:`~repro.resilience.executor.init_worker` instead, so behaviour
is identical across platforms and worker state is exactly the pickled
``(ctx, profile)`` pair — nothing else.  Request-specific values
(pipeline, strategy, faults) ride inside each task payload, which is
what lets a warm pool
(:func:`~repro.resilience.executor.make_search_executor`) and a warm
:class:`SearchContext` (:class:`ContextCache`) be reused across
searches by the compile service without respawning or re-initializing
anything.

:class:`~repro.framework.AtomicDataflowOptimizer` and every baseline in
:mod:`repro.baselines` drive their searches through this module.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro.atoms.atom import AtomId
from repro.atoms.dag import AtomicDAG, build_atomic_dag
from repro.atoms.generation import (
    AtomGenerator,
    SAParams,
    layer_sequential_tiling,
)
from repro.atoms.atom import TileSize
from repro.resilience.checkpoint import CheckpointJournal
from repro.resilience.executor import (
    WORKER_STATE,
    ObsEnvelope,
    ResilientExecutor,
    RetryPolicy,
    TaskReport,
    make_search_executor,
    unwrap_obs,
    wrap_obs,
)
from repro.resilience.faults import FaultPlan
from repro.search.tempering import SEGMENT_KIND, TemperingPlan, run_tempering
from repro.atoms.partition import clamp_tile
from repro.config import ArchConfig
from repro.engine.cost_model import EngineCostModel
from repro.engine.dataflow import get_dataflow
from repro.fingerprint import arch_fingerprint, graph_fingerprint
from repro.ir.graph import Graph
from repro.ir.ops import Input
from repro.ir.transforms import fuse_elementwise
from repro.mapping.placement import optimized_placement, zigzag_placement
from repro.metrics import RunResult
from repro.noc.mesh import Mesh2D
from repro.noc.torus import make_topology
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer, tracing_enabled
from repro.scheduling.dp import (
    schedule_exact_dp,
    schedule_greedy,
    schedule_pruned,
)
from repro.scheduling.rounds import Round, Schedule, layer_sequential_schedule
from repro.sim.simulator import SystemSimulator

_log = get_logger(__name__)


# ---------------------------------------------------------------------------
# Shared search state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchContext:
    """Everything shared by all candidates of one search.

    Built once per search (not once per candidate): the fused graph, the
    memoizing engine cost model, and the NoC mesh derived directly from
    :class:`~repro.config.ArchConfig` — previously a throwaway
    :class:`~repro.sim.simulator.SystemSimulator` was constructed per
    candidate just to read its ``.mesh``.

    All fields are picklable, so a context ships to worker processes once
    per pool, not once per task.

    Attributes:
        graph: The workload **after** elementwise fusion.
        arch: Target machine configuration.
        cost_model: Shared memoizing single-engine cost model.
        mesh: The NoC topology, built once from ``arch``.
        dataflow: Engine dataflow name ("kc", "yx", "kcw").
        batch: Batch size gathered into one atomic DAG.
    """

    graph: Graph
    arch: ArchConfig
    cost_model: EngineCostModel
    mesh: Mesh2D
    dataflow: str = "kc"
    batch: int = 1

    @classmethod
    def create(
        cls,
        graph: Graph,
        arch: ArchConfig,
        dataflow: str = "kc",
        batch: int = 1,
        fused: bool = False,
    ) -> "SearchContext":
        """Build a context from a (pre-fusion, unless ``fused``) graph."""
        g = graph if fused else fuse_elementwise(graph).graph
        cost_model = EngineCostModel(
            arch.engine,
            get_dataflow(dataflow),
            bytes_per_element=arch.bytes_per_element,
        )
        # Warm the vectorized kernel's per-layer statics and the mesh's
        # distance/route tables once, so per-candidate work starts from
        # fully populated caches (workers re-derive them lazily).
        for node in g.nodes:
            cost_model.kernel.statics(node.op, g.input_shapes(node.node_id))
        mesh = make_topology(arch.mesh_rows, arch.mesh_cols, arch.noc.topology)
        mesh.distance_array()
        mesh.route_table()
        return cls(
            graph=g,
            arch=arch,
            cost_model=cost_model,
            mesh=mesh,
            dataflow=dataflow,
            batch=batch,
        )

    @property
    def num_engines(self) -> int:
        return self.arch.num_engines

    def build_dag(self, tiling: dict[int, TileSize]) -> AtomicDAG:
        """Partition the fused graph under ``tiling`` into an atomic DAG."""
        return build_atomic_dag(
            self.graph, tiling, self.cost_model, batch=self.batch
        )

    def canonical_tiling(
        self, tiling: dict[int, TileSize]
    ) -> dict[int, TileSize]:
        """The tiling as DAG construction will actually apply it.

        Mirrors :func:`~repro.atoms.dag.build_atomic_dag`: missing layers
        default to one full-extent tile and oversized extents clamp to the
        layer shape.  Fingerprints are taken over this canonical form, so
        two raw tilings that clamp to the same grids deduplicate (and the
        accepted fingerprint always matches the selected DAG's grids).
        """
        canonical: dict[int, TileSize] = {}
        for node in self.graph.nodes:
            if isinstance(node.op, Input):
                continue
            shape = node.output_shape
            in_shapes = self.graph.input_shapes(node.node_id)
            in_channels = in_shapes[0].channels if in_shapes else 1
            tile = tiling.get(
                node.node_id,
                TileSize(
                    shape.height,
                    shape.width,
                    max(in_channels, 1),
                    shape.channels,
                ),
            )
            canonical[node.node_id] = clamp_tile(tile, shape, in_channels)
        return canonical

    def simulator(
        self, dag: AtomicDAG, strategy: str = "AD", noc_mode: str = "analytical"
    ) -> SystemSimulator:
        """A system simulator reusing this context's mesh."""
        return SystemSimulator(
            self.arch, dag, strategy=strategy, noc_mode=noc_mode, mesh=self.mesh
        )


class ContextCache:
    """LRU cache of warm :class:`SearchContext` objects.

    Building a context is the expensive, request-independent part of a
    search — graph fusion, cost-kernel statics, mesh distance/route
    tables — so the compile service keeps them warm across requests.
    Entries are keyed by ``(graph fingerprint, arch fingerprint,
    dataflow, batch)`` — everything :meth:`SearchContext.create`
    consumes — so a cached context is interchangeable with a fresh one.

    Eviction is LRU by access order (no wall clock involved).  Counters
    land in the :mod:`repro.obs` metrics registry as
    ``context_cache.hits`` / ``.misses`` / ``.evictions``.

    Not thread-safe by itself; the service serializes access through
    its session manager.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # dict preserves insertion order; pop + reinsert keeps the most
        # recently used entry last, so eviction pops the front.
        self._entries: dict[tuple, SearchContext] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(
        graph: Graph, arch: ArchConfig, dataflow: str = "kc", batch: int = 1
    ) -> tuple:
        """The cache key of a (graph, arch, dataflow, batch) request."""
        return (
            graph_fingerprint(graph),
            arch_fingerprint(arch),
            dataflow,
            batch,
        )

    def get(
        self,
        graph: Graph,
        arch: ArchConfig,
        dataflow: str = "kc",
        batch: int = 1,
    ) -> SearchContext:
        """A warm context for the request, building one on miss."""
        key = self.key_for(graph, arch, dataflow, batch)
        registry = get_registry()
        ctx = self._entries.pop(key, None)
        if ctx is not None:
            self._entries[key] = ctx
            registry.counter("context_cache.hits").inc()
            return ctx
        registry.counter("context_cache.misses").inc()
        ctx = SearchContext.create(graph, arch, dataflow=dataflow, batch=batch)
        self._entries[key] = ctx
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            self._entries.pop(oldest)
            registry.counter("context_cache.evictions").inc()
        return ctx

    def clear(self) -> None:
        """Drop every cached context."""
        self._entries.clear()


# ---------------------------------------------------------------------------
# Tiling fingerprints and traces
# ---------------------------------------------------------------------------


def tiling_fingerprint(tiling: dict[int, TileSize]) -> str:
    """Stable digest of a candidate tiling.

    Two candidates with equal fingerprints build identical atomic DAGs, so
    the search schedules/simulates only the first and the selection rule
    can use the fingerprint as a deterministic tie-breaker.
    """
    blob = ";".join(
        f"{layer}:{t.h}x{t.w}x{t.ci}x{t.co}"
        for layer, t in sorted(tiling.items())
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CandidateTrace:
    """What one search candidate cost and how it fared.

    Wall-second fields are measured in whichever process ran the stage;
    cache counters are deltas of that process's cost-model cache, so under
    ``jobs>1`` they are per-worker quantities (decision fields — cycles,
    fingerprint, accepted, reason — are identical across job counts).

    Attributes:
        label: Candidate name, e.g. ``"sa[3]"`` or ``"even-split"``.
        fingerprint: :func:`tiling_fingerprint` of the candidate's tiling
            (empty when the candidate failed before producing one).
        accepted: Whether this candidate's solution was selected.
        reason: Why it was accepted/rejected ("selected", "beaten by X",
            "duplicate of X", "failed after N attempt(s): ...",
            "interrupted").
        total_cycles: Simulated cost; None when the candidate was
            deduplicated, failed, or interrupted before evaluation.
        attempts: Supervised attempts this candidate consumed across its
            stages (1 for a clean run; each retry after an injected or
            real failure adds one).
        error: Last failure description the supervisor recorded for this
            candidate ("" when it never failed).
        restored: Whether the solution came from a checkpoint journal
            (``--resume``) instead of being evaluated this run.
        rung: Parallel-tempering temperature rung this candidate annealed
            on (None outside tempering searches).
        swaps_proposed: Exchange proposals this rung participated in.
        swaps_accepted: Exchange proposals this rung accepted (its
            configuration migrated to/from a neighbor rung).
        tiling_seconds: Atom-generation stage wall time.
        dag_seconds: DAG partitioning wall time.
        schedule_seconds: Scheduling stage wall time (all orderings tried).
        mapping_seconds: Mapping stage wall time.
        sim_seconds: System-simulation wall time.
        cost_cache_hits: Cost-model cache hits while evaluating.
        cost_cache_misses: Cost-model cache misses while evaluating.
        kernel_batch_calls: Vectorized cost-kernel invocations (one per
            priced lattice/ladder) while evaluating.
        kernel_batch_rows: Total tile regions those invocations priced.
    """

    label: str
    fingerprint: str
    accepted: bool = False
    reason: str = ""
    total_cycles: int | None = None
    tiling_seconds: float = 0.0
    dag_seconds: float = 0.0
    schedule_seconds: float = 0.0
    mapping_seconds: float = 0.0
    sim_seconds: float = 0.0
    cost_cache_hits: int = 0
    cost_cache_misses: int = 0
    kernel_batch_calls: int = 0
    kernel_batch_rows: int = 0
    attempts: int = 1
    error: str = ""
    restored: bool = False
    rung: int | None = None
    swaps_proposed: int = 0
    swaps_accepted: int = 0

    @property
    def evaluated(self) -> bool:
        """Whether this candidate went through schedule/map/simulate."""
        return self.total_cycles is not None

    @property
    def failed(self) -> bool:
        """Whether the candidate exhausted its retry budget."""
        return self.reason.startswith("failed")

    @property
    def interrupted(self) -> bool:
        """Whether the search was interrupted before this candidate ran."""
        return self.reason == "interrupted"

    @property
    def deduplicated(self) -> bool:
        """Whether a fingerprint-equal candidate was evaluated instead."""
        return self.reason.startswith("duplicate of ")

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Per-stage wall seconds, keyed by stage name."""
        return {
            "tiling": self.tiling_seconds,
            "dag": self.dag_seconds,
            "schedule": self.schedule_seconds,
            "mapping": self.mapping_seconds,
            "sim": self.sim_seconds,
        }

    def to_dict(self) -> dict:
        """This trace as a JSON-serializable mapping."""
        return {
            "label": self.label,
            "fingerprint": self.fingerprint,
            "accepted": self.accepted,
            "reason": self.reason,
            "total_cycles": self.total_cycles,
            "seconds": {
                "tiling": self.tiling_seconds,
                "dag": self.dag_seconds,
                "schedule": self.schedule_seconds,
                "mapping": self.mapping_seconds,
                "sim": self.sim_seconds,
            },
            "cost_cache": {
                "hits": self.cost_cache_hits,
                "misses": self.cost_cache_misses,
            },
            "cost_kernel": {
                "batch_calls": self.kernel_batch_calls,
                "batch_rows": self.kernel_batch_rows,
            },
            "attempts": self.attempts,
            "error": self.error,
            "restored": self.restored,
            "rung": self.rung,
            "swaps": {
                "proposed": self.swaps_proposed,
                "accepted": self.swaps_accepted,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CandidateTrace":
        """Rebuild a trace from :meth:`to_dict` output.

        Documents written before the resilience fields existed load with
        their defaults (``attempts=1``, no error, not restored).

        Raises:
            ValueError: On a malformed trace mapping.
        """
        try:
            seconds = doc["seconds"]
            cache = doc["cost_cache"]
            return cls(
                label=doc["label"],
                fingerprint=doc["fingerprint"],
                accepted=bool(doc["accepted"]),
                reason=doc["reason"],
                total_cycles=doc["total_cycles"],
                tiling_seconds=seconds["tiling"],
                dag_seconds=seconds["dag"],
                schedule_seconds=seconds["schedule"],
                mapping_seconds=seconds["mapping"],
                sim_seconds=seconds["sim"],
                cost_cache_hits=cache["hits"],
                cost_cache_misses=cache["misses"],
                # Documents written before the vectorized kernel existed
                # load with zeroed kernel counters.
                kernel_batch_calls=int(
                    doc.get("cost_kernel", {}).get("batch_calls", 0)
                ),
                kernel_batch_rows=int(
                    doc.get("cost_kernel", {}).get("batch_rows", 0)
                ),
                attempts=int(doc.get("attempts", 1)),
                error=doc.get("error", ""),
                restored=bool(doc.get("restored", False)),
                # Documents written before parallel tempering existed
                # load as plain (rung-less) candidates.
                rung=doc.get("rung"),
                swaps_proposed=int(doc.get("swaps", {}).get("proposed", 0)),
                swaps_accepted=int(doc.get("swaps", {}).get("accepted", 0)),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed candidate trace: {exc}") from None


@dataclass(frozen=True)
class CandidateSolution:
    """A fully evaluated candidate: artifacts, simulated result, trace."""

    dag: AtomicDAG
    schedule: Schedule
    placement: dict[int, int]
    result: RunResult
    tiling_energy: float | None
    trace: CandidateTrace


# ---------------------------------------------------------------------------
# Stage objects
# ---------------------------------------------------------------------------


class TilingStage:
    """Produces a candidate tiling (atom generation, Sec. IV-A)."""

    name = "tiling"

    def run(
        self, ctx: SearchContext, rng: np.random.Generator | None = None
    ) -> tuple[dict[int, TileSize], float | None]:
        """Return ``(tiling, sa_energy-or-None)``."""
        raise NotImplementedError


@dataclass(frozen=True)
class SATilingStage(TilingStage):
    """Algorithm 1: simulated-annealing balanced tile sizes.

    :meth:`run` anneals one chain to completion (Fig. 5, the examples).
    A search never calls it: every chain of a search is stepped by the
    annealing driver (:func:`~repro.search.tempering.run_tempering`),
    and the chain's spec carries this stage only to name its ``params``.
    """

    params: SAParams = field(default_factory=SAParams)

    def run(
        self, ctx: SearchContext, rng: np.random.Generator | None = None
    ) -> tuple[dict[int, TileSize], float | None]:
        if rng is None:
            raise ValueError("SATilingStage requires an RNG")
        generator = AtomGenerator(ctx.graph, ctx.cost_model, rng=rng)
        gen = generator.generate_sa(
            self.params, parallel_hint=ctx.num_engines
        )
        return gen.tiling, gen.energy


@dataclass(frozen=True)
class EvenTilingStage(TilingStage):
    """LS-style even split: every layer divided N ways (no search)."""

    def run(
        self, ctx: SearchContext, rng: np.random.Generator | None = None
    ) -> tuple[dict[int, TileSize], float | None]:
        return layer_sequential_tiling(ctx.graph, ctx.num_engines), None


class SchedulingStage:
    """Orders an atomic DAG into Rounds (Sec. IV-B)."""

    name = "schedule"

    def run(
        self, ctx: SearchContext, dag: AtomicDAG
    ) -> tuple[Schedule, float | None]:
        """Return ``(schedule, expected_cost-or-None)``.

        ``expected_cost`` is the producer-reported optimum for validators
        to cross-check (only the exact DP reports one).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class DPSchedulingStage(SchedulingStage):
    """Algorithm 2: priority-pruned DP with lookahead."""

    lookahead: int = 1

    def run(
        self, ctx: SearchContext, dag: AtomicDAG
    ) -> tuple[Schedule, float | None]:
        return (
            schedule_pruned(dag, ctx.num_engines, lookahead=self.lookahead),
            None,
        )


@dataclass(frozen=True)
class GreedySchedulingStage(SchedulingStage):
    """Priority filling only (the ablation's no-DP arm)."""

    def run(
        self, ctx: SearchContext, dag: AtomicDAG
    ) -> tuple[Schedule, float | None]:
        return schedule_greedy(dag, ctx.num_engines), None


@dataclass(frozen=True)
class ExactSchedulingStage(SchedulingStage):
    """Exhaustive DP (tiny DAGs only); reports its cost for cross-checks."""

    def run(
        self, ctx: SearchContext, dag: AtomicDAG
    ) -> tuple[Schedule, float | None]:
        schedule, total = schedule_exact_dp(dag, ctx.num_engines)
        return schedule, total


@dataclass(frozen=True)
class LayerSequentialSchedulingStage(SchedulingStage):
    """One layer at a time (the LS policy, batch-interleaved)."""

    def run(
        self, ctx: SearchContext, dag: AtomicDAG
    ) -> tuple[Schedule, float | None]:
        return layer_sequential_schedule(dag, ctx.num_engines), None


class MappingStage:
    """Assigns scheduled atoms to engines (Sec. IV-C)."""

    name = "mapping"

    def run(
        self, ctx: SearchContext, dag: AtomicDAG, schedule: Schedule
    ) -> dict[int, int]:
        raise NotImplementedError


@dataclass(frozen=True)
class TransferCostMappingStage(MappingStage):
    """The paper's mapping: per-Round TransferCost permutation search."""

    def run(
        self, ctx: SearchContext, dag: AtomicDAG, schedule: Schedule
    ) -> dict[int, int]:
        return optimized_placement(dag, ctx.mesh, schedule)


@dataclass(frozen=True)
class ZigzagMappingStage(MappingStage):
    """Naive baseline: Round atoms fill engines in zig-zag order."""

    def run(
        self, ctx: SearchContext, dag: AtomicDAG, schedule: Schedule
    ) -> dict[int, int]:
        return zigzag_placement(dag, ctx.mesh, schedule)


@dataclass(frozen=True)
class SimulationEvaluationStage:
    """Prices a complete solution on the system simulator."""

    name = "sim"

    def run(
        self,
        ctx: SearchContext,
        dag: AtomicDAG,
        schedule: Schedule,
        placement: dict[int, int],
        strategy: str = "AD",
    ) -> RunResult:
        sim = ctx.simulator(dag, strategy=strategy)
        return sim.run(schedule, placement)


def scheduling_stage_for(scheduler: str, lookahead: int = 1) -> SchedulingStage:
    """The scheduling stage an :class:`OptimizerOptions` choice names."""
    if scheduler == "exact":
        return ExactSchedulingStage()
    if scheduler == "greedy":
        return GreedySchedulingStage()
    return DPSchedulingStage(lookahead=lookahead)


def mapping_stage_for(mapping: str) -> MappingStage:
    """The mapping stage an :class:`OptimizerOptions` choice names."""
    if mapping == "zigzag":
        return ZigzagMappingStage()
    return TransferCostMappingStage()


# ---------------------------------------------------------------------------
# Candidate pipeline: one tiling through schedule -> map -> simulate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidatePipeline:
    """The per-candidate stage chain of Fig. 4(b).

    Attributes:
        scheduling: Atom orderings to try; the cheapest simulated one is
            kept (ties keep the earlier stage, matching the historical
            strict-``<`` comparison).
        mapping: The placement stage.
        evaluation: The pricing stage.
        validate: Statically verify every intermediate artifact with
            :mod:`repro.analysis`, raising on the first illegal one.
    """

    scheduling: tuple[SchedulingStage, ...]
    mapping: MappingStage
    evaluation: SimulationEvaluationStage = SimulationEvaluationStage()
    validate: bool = False

    def evaluate(
        self,
        ctx: SearchContext,
        tiling: dict[int, TileSize],
        label: str,
        strategy: str = "AD",
        tiling_energy: float | None = None,
        tiling_seconds: float = 0.0,
    ) -> CandidateSolution:
        """Run one candidate tiling through every remaining stage."""
        tracer = get_tracer()
        hits0, misses0 = ctx.cost_model.cache_counters()
        calls0, rows0 = ctx.cost_model.kernel.batch_counters()
        t0 = time.perf_counter()
        with tracer.span("stage.dag", candidate=label):
            dag = ctx.build_dag(tiling)
        dag_seconds = time.perf_counter() - t0
        if self.validate:
            self._validate(ctx, dag)

        schedule_seconds = mapping_seconds = sim_seconds = 0.0
        best: tuple[Schedule, dict[int, int], RunResult] | None = None
        for stage in self.scheduling:
            t0 = time.perf_counter()
            with tracer.span("stage.schedule", candidate=label):
                schedule, expected_cost = stage.run(ctx, dag)
            schedule_seconds += time.perf_counter() - t0
            if self.validate and expected_cost is not None:
                self._crosscheck(ctx, dag, schedule, expected_cost)

            t0 = time.perf_counter()
            with tracer.span("stage.mapping", candidate=label):
                placement = self.mapping.run(ctx, dag, schedule)
            mapping_seconds += time.perf_counter() - t0
            if self.validate:
                self._validate(ctx, dag, schedule, placement)

            t0 = time.perf_counter()
            with tracer.span("stage.sim", candidate=label):
                result = self.evaluation.run(
                    ctx, dag, schedule, placement, strategy
                )
            sim_seconds += time.perf_counter() - t0
            if best is None or result.total_cycles < best[2].total_cycles:
                best = (schedule, placement, result)
        assert best is not None
        schedule, placement, result = best

        hits1, misses1 = ctx.cost_model.cache_counters()
        calls1, rows1 = ctx.cost_model.kernel.batch_counters()
        registry = get_registry()
        registry.counter("search.cost_cache.hits").inc(hits1 - hits0)
        registry.counter("search.cost_cache.misses").inc(misses1 - misses0)
        registry.counter("search.cost_kernel.batch_calls").inc(calls1 - calls0)
        registry.counter("search.cost_kernel.batch_rows").inc(rows1 - rows0)
        registry.counter("search.candidates_evaluated").inc()
        registry.histogram("search.candidate_seconds").observe(
            tiling_seconds
            + dag_seconds
            + schedule_seconds
            + mapping_seconds
            + sim_seconds
        )
        _log.debug(
            "candidate %s: %d cycles (dag %.3fs, schedule %.3fs, "
            "mapping %.3fs, sim %.3fs)",
            label, result.total_cycles, dag_seconds, schedule_seconds,
            mapping_seconds, sim_seconds,
        )
        trace = CandidateTrace(
            label=label,
            fingerprint=tiling_fingerprint(ctx.canonical_tiling(tiling)),
            total_cycles=result.total_cycles,
            tiling_seconds=tiling_seconds,
            dag_seconds=dag_seconds,
            schedule_seconds=schedule_seconds,
            mapping_seconds=mapping_seconds,
            sim_seconds=sim_seconds,
            cost_cache_hits=hits1 - hits0,
            cost_cache_misses=misses1 - misses0,
            kernel_batch_calls=calls1 - calls0,
            kernel_batch_rows=rows1 - rows0,
        )
        return CandidateSolution(
            dag=dag,
            schedule=schedule,
            placement=placement,
            result=result,
            tiling_energy=tiling_energy,
            trace=trace,
        )

    @staticmethod
    def _validate(
        ctx: SearchContext,
        dag: AtomicDAG,
        schedule: Schedule | None = None,
        placement: dict[int, int] | None = None,
    ) -> None:
        # Imported here: only validate=True searches load the checkers.
        from repro.analysis.artifacts import validate_artifacts
        from repro.analysis.diagnostics import assert_valid

        assert_valid(
            validate_artifacts(
                dag, schedule=schedule, placement=placement, arch=ctx.arch
            )
        )

    @staticmethod
    def _crosscheck(
        ctx: SearchContext,
        dag: AtomicDAG,
        schedule: Schedule,
        expected_cost: float,
    ) -> None:
        from repro.analysis.diagnostics import assert_valid
        from repro.analysis.schedule_rules import check_schedule

        assert_valid(
            check_schedule(
                dag, schedule, ctx.num_engines, expected_cost=expected_cost
            )
        )


# ---------------------------------------------------------------------------
# The fan-out driver: generate -> dedup -> evaluate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateSpec:
    """One candidate to search: its label and the stage naming its tiling.

    A chain's spec carries an :class:`SATilingStage` holding the
    parameters the annealing driver steps that chain with; any other
    spec's stage runs in the parent.
    """

    label: str
    tiling_stage: TilingStage


@dataclass(frozen=True)
class _EvalItem:
    """One phase-2 payload: an evaluation keyed back to its spec.

    ``spec_index`` rides along because dedup submits a *subset* of specs,
    so positional correspondence is lost — faults, integrity checks, and
    checkpoint records all key on the original candidate index.  The
    pipeline/strategy/faults travel in the payload (not in worker state)
    so one warm pool can serve searches with different stage chains.
    """

    spec_index: int
    label: str
    tiling: dict[int, TileSize]
    energy: float | None
    tiling_seconds: float
    fingerprint: str
    pipeline: CandidatePipeline
    strategy: str = "AD"
    faults: FaultPlan | None = None
    rung: int | None = None
    swaps_proposed: int = 0
    swaps_accepted: int = 0


def _run_evaluation(attempt: int, item: _EvalItem):
    """Phase-2 task: schedule/map/simulate one unique tiling."""
    if item.faults is not None:
        item.faults.fire("eval", item.spec_index, attempt)
    with get_tracer().span(
        "executor.attempt", category="resilience",
        task=f"eval[{item.spec_index}]", attempt=attempt,
    ):
        solution = item.pipeline.evaluate(
            WORKER_STATE["ctx"],
            item.tiling,
            label=item.label,
            strategy=item.strategy,
            tiling_energy=item.energy,
            tiling_seconds=item.tiling_seconds,
        )
    if item.rung is not None:
        solution = replace(
            solution,
            trace=replace(
                solution.trace,
                rung=item.rung,
                swaps_proposed=item.swaps_proposed,
                swaps_accepted=item.swaps_accepted,
            ),
        )
    if item.faults is not None:
        solution = item.faults.tamper(
            "eval", item.spec_index, attempt, solution
        )
    return wrap_obs(solution)


# ---------------------------------------------------------------------------
# Checkpoint records: a completed candidate as a JSONL journal line
# ---------------------------------------------------------------------------


def identity_sections(
    dag: AtomicDAG, schedule: Schedule, placement: dict[int, int]
) -> dict:
    """The ``tiling``, ``rounds`` and ``placement`` sections of a solution.

    Atoms are named by their stable ``(sample, layer, index)`` identity,
    read from the DAG's id columns, and the tiling is the canonical
    (clamped) grid tiling, so the sections survive DAG-construction
    reordering and re-bind to a rebuilt graph.  Shared by the solution
    document and the checkpoint record.
    """
    sample = dag.as_list("atom_sample")
    layer = dag.as_list("atom_layer")
    tile = dag.as_list("atom_tile")
    return {
        "tiling": {
            str(layer_id): [grid.tile.h, grid.tile.w, grid.tile.ci, grid.tile.co]
            for layer_id, grid in dag.grids.items()
        },
        "rounds": [
            [[sample[a], layer[a], tile[a]] for a in rnd.atom_indices]
            for rnd in schedule.rounds
        ],
        "placement": [
            [sample[a], layer[a], tile[a], engine]
            for a, engine in sorted(placement.items())
        ],
    }


def bind_identities(
    dag: AtomicDAG, sections: dict
) -> tuple[Schedule, dict[int, int], list[tuple[str, AtomId]]]:
    """Resolve :func:`identity_sections` ``rounds``/``placement`` on a DAG.

    One pass over the identities.  An identity that names no atom of
    ``dag`` is left out of the schedule or placement and returned as
    ``(where, atom_id)``, ``where`` being ``"round t"`` or
    ``"placement"``, so each caller applies its own policy.

    Returns:
        ``(schedule, placement, unresolved)``.
    """
    unresolved: list[tuple[str, AtomId]] = []

    def index(where: str, atom_id: AtomId) -> int | None:
        try:
            return dag.index_of(atom_id)
        except KeyError:
            unresolved.append((where, atom_id))
            return None

    rounds: list[Round] = []
    for t, combo in enumerate(sections["rounds"]):
        atoms = [index(f"round {t}", AtomId(s, layer, i)) for s, layer, i in combo]
        rounds.append(Round(t, tuple(a for a in atoms if a is not None)))
    placement: dict[int, int] = {}
    for sample, layer, tile, engine in sections["placement"]:
        a = index("placement", AtomId(sample, layer, tile))
        if a is not None:
            placement[a] = engine
    return Schedule(rounds=rounds), placement, unresolved


def solution_record(solution: CandidateSolution) -> dict:
    """A completed candidate as a checkpoint-journal record.

    Its ``tiling``, ``rounds`` and ``placement`` are
    :func:`identity_sections`, as in :func:`repro.serialize.solution_to_dict`,
    so the record re-verifies against a rebuilt graph on restore.  The
    embedded trace is *pre-judgment* (no accept/reject reason): judgment
    depends on the full candidate set, which a partial journal does not
    know yet.
    """
    trace = replace(solution.trace, accepted=False, reason="")
    return {
        "label": solution.trace.label,
        "fingerprint": solution.trace.fingerprint,
        **identity_sections(solution.dag, solution.schedule, solution.placement),
        "tiling_energy": solution.tiling_energy,
        "result": solution.result.to_dict(),
        "trace": trace.to_dict(),
    }


def restore_solution(
    ctx: SearchContext, record: dict
) -> CandidateSolution | None:
    """Rebuild a journaled candidate against this search's context.

    The record's tiling is re-partitioned into a fresh DAG, its schedule
    and placement are resolved through stable atom identities and
    re-validated, and the recorded fingerprint is recomputed from the
    tiling — a record that fails *any* of these checks returns None and
    the candidate is simply re-evaluated (corruption can cost work, never
    correctness).
    """
    try:
        tiling = {
            int(layer): TileSize(*(int(x) for x in extents))
            for layer, extents in record["tiling"].items()
        }
        if tiling_fingerprint(ctx.canonical_tiling(tiling)) != record[
            "fingerprint"
        ]:
            return None
        dag = ctx.build_dag(tiling)
        schedule, placement, unresolved = bind_identities(dag, record)
        if unresolved:
            return None
        placement = {a: int(engine) for a, engine in placement.items()}
        schedule.validate(dag, ctx.num_engines)
        result = RunResult.from_dict(record["result"])
        trace = replace(CandidateTrace.from_dict(record["trace"]), restored=True)
        return CandidateSolution(
            dag=dag,
            schedule=schedule,
            placement=placement,
            result=result,
            tiling_energy=record.get("tiling_energy"),
            trace=trace,
        )
    except Exception:
        return None


@dataclass(frozen=True)
class SearchRun:
    """Everything one supervised :meth:`StagedSearch.run` produced.

    Attributes:
        solutions: Per-spec solutions; None where the spec was
            deduplicated, failed, or interrupted (its trace says which).
        traces: One :class:`CandidateTrace` per spec, in spec order.
        interrupted: A ``KeyboardInterrupt`` cut the search short;
            ``solutions`` holds whatever completed before it.
        pool_restarts: Worker-pool failures survived (crash or timeout).
        degraded_to_serial: Repeated pool failures forced the remainder
            of the search inline.
        restored: Candidates loaded from the checkpoint journal instead
            of being evaluated.
        retry_attempts: Attempts beyond each task's first, summed over
            the whole search.
    """

    solutions: tuple[CandidateSolution | None, ...]
    traces: tuple[CandidateTrace, ...]
    interrupted: bool = False
    pool_restarts: int = 0
    degraded_to_serial: bool = False
    restored: int = 0
    retry_attempts: int = 0


class StagedSearch:
    """Fans candidate specs through the staged pipeline, supervised.

    Two phases with a dedup barrier between them: the tiling phase
    anneals every chain on the annealing driver and computes every
    other spec's tiling (the even split) in the parent, then
    fingerprint-duplicate tilings are dropped (recording a skip trace),
    then the surviving candidates are scheduled/mapped/simulated in
    parallel.  ``executor.map`` preserves submission order and every
    chain owns its RNG stream, so results are independent of worker
    count and completion order — and, because retries re-run pure
    payloads, independent of any faults the search survived along the
    way.

    Args:
        ctx: Shared search state.
        pipeline: Per-candidate stage chain.
        jobs: Worker processes; 1 runs everything inline (no pool).
        dedup: Evaluate each unique tiling fingerprint once.
        retry: Supervision policy (retries, per-candidate timeout, pool
            restarts); defaults to :class:`~repro.resilience.RetryPolicy`.
        faults: Optional deterministic fault plan (tests / chaos leg).
        journal: Optional checkpoint journal; every completed candidate
            is appended as it finishes.
        resume: Load completed candidates from ``journal`` instead of
            re-evaluating them (requires a matching journal key).
        executor: Warm executor to run on (from
            :func:`~repro.resilience.executor.make_search_executor`,
            initialized with the *same* context).  The search installs its own ``retry`` policy but
            does not shut the executor down — the owner keeps it alive
            across searches.  None (default) spawns a private executor
            per :meth:`run` call, exactly as before.
        tempering: The annealing chains
            (:class:`~repro.search.tempering.TemperingPlan`): specs
            ``0 .. tempering.rungs - 1`` are its chains, in order, run by
            :func:`~repro.search.tempering.run_tempering` — an exchanging
            ladder or independent restarts.  None when no spec anneals.
    """

    def __init__(
        self,
        ctx: SearchContext,
        pipeline: CandidatePipeline,
        jobs: int = 1,
        dedup: bool = True,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        journal: CheckpointJournal | None = None,
        resume: bool = False,
        executor: ResilientExecutor | None = None,
        tempering: "TemperingPlan | None" = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.ctx = ctx
        self.pipeline = pipeline
        self.jobs = jobs
        self.dedup = dedup
        self.retry = retry or RetryPolicy()
        self.faults = faults
        self.journal = journal
        self.resume = resume
        self.executor = executor
        self.tempering = tempering

    def run(
        self, specs: Sequence[CandidateSpec], strategy: str = "AD"
    ) -> SearchRun:
        """Search every spec under supervision; never raises for a
        candidate-level failure — those become failure traces."""
        executor = self.executor
        owned = executor is None
        if owned:
            executor = make_search_executor(
                self.ctx,
                jobs=self.jobs,
                policy=self.retry,
                profile=tracing_enabled(),
            )
        else:
            executor.policy = self.retry
        try:
            return self._run(executor, specs, strategy)
        finally:
            if owned:
                executor.shutdown()
            if self.journal is not None:
                self.journal.close()

    def _run(
        self,
        executor: ResilientExecutor,
        specs: Sequence[CandidateSpec],
        strategy: str,
    ) -> SearchRun:
        n = len(specs)
        tracer = get_tracer()
        restored, records = self._restore(specs)
        if restored:
            _log.info("restored %d candidate(s) from checkpoint", len(restored))
            get_registry().counter("search.restored").inc(len(restored))

        entries: list[tuple | None] = [None] * n
        attempts = [1] * n
        traces: list[CandidateTrace | None] = [None] * n
        plan = self.tempering
        chains = range(plan.rungs if plan is not None else 0)
        outcome = None
        if plan is not None and any(i not in restored for i in chains):
            _log.info(
                "phase tiling: %d chain(s) x %d segment(s) on %d job(s)",
                plan.rungs, plan.segments, self.jobs,
            )
            outcome = run_tempering(
                plan,
                executor,
                parallel_hint=self.ctx.num_engines,
                journal=self.journal,
                resume_records=records if self.resume else None,
                faults=self.faults,
                done=frozenset(restored),
            )
        retry_attempts = 0
        for i in chains:
            if outcome is None or i in restored:
                continue
            attempts[i] = outcome.attempts[i]
            retry_attempts += attempts[i] - 1
            result, lost = outcome.results[i], outcome.failures[i]
            if result is not None:
                entries[i] = (result.tiling, result.energy, outcome.seconds[i])
            elif lost is not None:
                traces[i] = self._failure_trace(specs[i].label, "", lost)
        # The even split is a pure function of the context: the parent
        # computes it, and a raise is that candidate's failure trace.
        for i, spec in enumerate(specs):
            if i in restored or i in chains:
                continue
            t0 = time.perf_counter()
            try:
                tiling, energy = spec.tiling_stage.run(self.ctx)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                _log.warning("%s failed: %s", spec.label, error, exc_info=True)
                traces[i] = self._failure_trace(
                    spec.label, "",
                    TaskReport(index=i, status="failed", error=error, attempts=1),
                )
                continue
            entries[i] = (tiling, energy, time.perf_counter() - t0)
        for i, solution in restored.items():
            dag = solution.dag
            entries[i] = (
                {layer: grid.tile for layer, grid in dag.grids.items()},
                solution.tiling_energy,
                solution.trace.tiling_seconds,
            )

        # Dedup barrier over every tiling that exists (fresh + restored).
        eval_items, skips = self._dedup(specs, entries, strategy)
        if outcome is not None and plan is not None and plan.exchange:
            # Provenance: only a ladder that exchanges records rungs.
            eval_items = [
                replace(
                    item,
                    rung=item.spec_index,
                    swaps_proposed=outcome.swaps_proposed[item.spec_index],
                    swaps_accepted=outcome.swaps_accepted[item.spec_index],
                )
                if item.spec_index in chains
                else item
                for item in eval_items
            ]
        for i, skip in skips.items():
            traces[i] = replace(skip, attempts=attempts[i])
            restored.pop(i, None)
        if skips:
            _log.debug("deduplicated %d candidate(s)", len(skips))
            get_registry().counter("search.deduplicated").inc(len(skips))

        # Phase 2: evaluation of first-occurrence, non-restored tilings.
        eval_payloads = [
            item for item in eval_items if item.spec_index not in restored
        ]
        _log.info(
            "phase evaluate: pricing %d unique tiling(s)", len(eval_payloads)
        )
        verify, on_success = self._supervision_hooks(eval_payloads, attempts)
        with tracer.span(
            "search.phase", phase="evaluate", tasks=len(eval_payloads)
        ):
            eval_reports = executor.map(
                _run_evaluation, eval_payloads,
                verify=verify, on_success=on_success,
            )

        solutions: list[CandidateSolution | None] = [None] * n
        for i, solution in restored.items():
            solutions[i] = solution
            traces[i] = solution.trace
        for item, report in zip(eval_payloads, eval_reports):
            i = item.spec_index
            if report.ok:
                solutions[i] = report.value
                traces[i] = report.value.trace
            else:
                traces[i] = self._failure_trace(
                    item.label, item.fingerprint, report, base=attempts[i] - 1
                )

        missing = [i for i, t in enumerate(traces) if t is None]
        if missing:
            raise RuntimeError(
                "staged search lost track of candidates "
                f"{[specs[i].label for i in missing]} — this is a bug in the "
                "search driver, not in the workload"
            )
        retry_attempts += sum(max(r.attempts - 1, 0) for r in eval_reports)
        if retry_attempts:
            get_registry().counter("search.retry_attempts").inc(retry_attempts)
        return SearchRun(
            solutions=tuple(solutions),
            traces=tuple(t for t in traces if t is not None),
            interrupted=executor.interrupted,
            pool_restarts=executor.pool_failures,
            degraded_to_serial=executor.degraded,
            restored=len(restored),
            retry_attempts=retry_attempts,
        )

    def _restore(
        self, specs: Sequence[CandidateSpec]
    ) -> tuple[dict[int, CandidateSolution], dict]:
        """Load completed candidates from the journal (resume path).

        Returns both the per-spec restored solutions and the raw label-
        keyed journal records — the tempering coordinator resumes its
        segment records (``pt-segment[s]``) from the same journal.
        """
        if self.journal is None:
            return {}, {}
        records = self.journal.open(resume=self.resume)
        restored: dict[int, CandidateSolution] = {}
        for i, spec in enumerate(specs):
            record = records.get(spec.label)
            if record is None or record.get("kind") == SEGMENT_KIND:
                continue
            solution = restore_solution(self.ctx, record)
            if solution is not None:
                restored[i] = solution
        return restored, records

    def _supervision_hooks(
        self, eval_payloads: list[_EvalItem], attempts: list[int]
    ) -> tuple:
        """The executor's integrity check and checkpoint hook for phase 2."""

        def verify(index: int, value: Any) -> str | None:
            # Peek through the profiling envelope without absorbing it:
            # a failed check retries the task and discards the envelope.
            solution: CandidateSolution = (
                value.value if isinstance(value, ObsEnvelope) else value
            )
            expected = eval_payloads[index].fingerprint
            if solution.trace.fingerprint != expected:
                return (
                    "result integrity check failed: tiling fingerprint "
                    f"{solution.trace.fingerprint!r} != expected {expected!r}"
                )
            return None

        def on_success(report: TaskReport) -> None:
            report.value = unwrap_obs(report.value)
            item = eval_payloads[report.index]
            total = attempts[item.spec_index] - 1 + report.attempts
            if total > 1:
                solution = report.value
                report.value = replace(
                    solution, trace=replace(solution.trace, attempts=total)
                )
            if self.journal is not None:
                self.journal.append(solution_record(report.value))

        return verify, on_success

    @staticmethod
    def _failure_trace(
        label: str, fingerprint: str, report: TaskReport, base: int = 0
    ) -> CandidateTrace:
        """A first-class verdict for a candidate that never completed."""
        total = base + max(report.attempts, 0)
        if report.status == "interrupted":
            return CandidateTrace(
                label=label,
                fingerprint=fingerprint,
                reason="interrupted",
                attempts=max(total, 1),
            )
        noun = "attempt" if total == 1 else "attempts"
        return CandidateTrace(
            label=label,
            fingerprint=fingerprint,
            reason=f"failed after {total} {noun}: {report.error}",
            error=report.error,
            attempts=max(total, 1),
        )

    def _dedup(
        self,
        specs: Sequence[CandidateSpec],
        entries: Sequence[tuple[dict[int, TileSize], float | None, float] | None],
        strategy: str = "AD",
    ) -> tuple[list[_EvalItem], dict[int, CandidateTrace]]:
        """Split generated tilings into evaluate-list and skip-traces.

        ``entries[i]`` is None for specs whose tiling never materialized
        (failed or interrupted); they neither evaluate nor claim a
        fingerprint.
        """
        eval_items: list[_EvalItem] = []
        skips: dict[int, CandidateTrace] = {}
        first_by_fp: dict[str, str] = {}
        for i, (spec, entry) in enumerate(zip(specs, entries)):
            if entry is None:
                continue
            tiling, energy, seconds = entry
            fp = tiling_fingerprint(self.ctx.canonical_tiling(tiling))
            if self.dedup and fp in first_by_fp:
                skips[i] = CandidateTrace(
                    label=spec.label,
                    fingerprint=fp,
                    reason=f"duplicate of {first_by_fp[fp]}",
                    tiling_seconds=seconds,
                )
                continue
            first_by_fp.setdefault(fp, spec.label)
            eval_items.append(
                _EvalItem(
                    spec_index=i,
                    label=spec.label,
                    tiling=tiling,
                    energy=energy,
                    tiling_seconds=seconds,
                    fingerprint=fp,
                    pipeline=self.pipeline,
                    strategy=strategy,
                    faults=self.faults,
                )
            )
        return eval_items, skips


def select_best(solutions: Sequence[CandidateSolution | None]) -> int:
    """Index of the winning candidate.

    Deterministic selection key: ``(total_cycles, fingerprint)``.  The
    fingerprint tie-break makes the choice independent of candidate order
    (and therefore of parallel completion order); post-dedup, fingerprints
    are unique among evaluated candidates, so the key never ties.

    Raises:
        ValueError: When no candidate was evaluated.
    """
    ranked = [
        (sol.result.total_cycles, sol.trace.fingerprint, i)
        for i, sol in enumerate(solutions)
        if sol is not None
    ]
    if not ranked:
        raise ValueError("no candidates were evaluated")
    return min(ranked)[2]
