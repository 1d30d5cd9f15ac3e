"""Pinned benchmark scenarios behind ``repro bench`` and the ``BENCH.json`` ledger.

The paper judges the framework by the schedules its deterministic search
finds and by what that search costs ("searching overheads", Sec. V-B).
Four pinned scenarios measure both:

* ``perf`` — ResNet-50 on the default 8x8 platform, ``restarts=8``,
  seed 0, serial.  Gate: ``total_cycles``, the winning candidate, the
  number of evaluated candidates and the cost kernel's batch calls and
  rows are bit-exact against the ledger, and wall time is at most the
  committed value + :data:`WALL_THRESHOLD`.
* ``tempering`` — ``restarts=8`` vs an 8-rung tempering ladder on five
  pinned workloads, timed as :data:`PAIRS` adjacent pairs in alternating
  order so slow host drift hits both arms alike.  Gate: every arm's
  cycles are bit-exact, every repeat and a ``jobs=2`` leg decide
  identically, tempering beats restarts where the ledger says it does,
  and the median per-pair wall ratio is at most 1 + :data:`WALL_SLACK`.
* ``serve`` — the ``perf`` request through a real traced daemon with
  ``/metrics`` attached: cold, warm (other seed), cache hit, and a hit
  after a daemon restart on the same state dir.  Gate: the served bytes
  equal in-process ``optimize``, both hits are byte-identical cache hits
  at least :data:`MIN_HIT_SPEEDUP` x faster than cold, ``/metrics``
  scrapes taken during the warm search cohere, ``service.latency.e2e``
  counts the done jobs, every runner is alive, and tracing costs less
  than :data:`MAX_TRACING_OVERHEAD` of the cold search.  The cold
  request runs with no scraper polling, so its wall time is the search's
  own.
* ``profile`` — two small zoo searches at ``jobs`` 1 and 2, profiled and
  not.  Gate: all four arms decide identically, the disabled tracer costs
  less than :data:`OVERHEAD_BUDGET` of the unprofiled wall, and a sample
  Chrome trace is written (beside ``--out``).

``repro bench [SCENARIO ...]`` runs the named scenarios (default
``perf``).  ``--check`` gates each fresh row, against the committed
ledger where the gate has a reference, and exits 1 on any problem;
``--out PATH`` merges the fresh rows into the JSON ledger at PATH, so
``--out BENCH.json`` refreshes the committed numbers.  Wall seconds are
honest measurements of the host that ran them, so rows carry
``cpu_count``.  Every search row also reports the per-stage seconds the
search records; those are not gated.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.atoms.generation import SAParams
from repro.config import DEFAULT_ARCH, ArchConfig
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import get_model
from repro.obs import (
    disable_tracing,
    drain_observations,
    enable_tracing,
    get_tracer,
    parse_prometheus,
    reset_registry,
    trace_to_chrome,
)
from repro.serialize import canonical_solution_bytes, solution_to_dict
from repro.service import (
    CompileRequest,
    MetricsHTTPServer,
    ReproService,
    ServeClient,
    serve,
)
from repro.sim import simulate_timeline

#: The committed ledger every ``--check`` compares against.
LEDGER = Path("BENCH.json")

ARCH_LABEL = f"{DEFAULT_ARCH.mesh_rows}x{DEFAULT_ARCH.mesh_cols} default"

#: The pinned search of ``perf`` and ``serve``, and the restarts arm of
#: ``tempering``.
PERF_MODEL = "resnet50"
PERF_OPTIONS = OptimizerOptions(restarts=8, seed=0, jobs=1)

#: Allowed fractional ``perf`` wall-time regression over the ledger.
WALL_THRESHOLD = 0.25

#: Wall time of the pinned search on the scalar (pre-vectorization) hot
#: path, measured on the host that produced the ledger's ``perf`` row.
SCALAR_BASELINE_WALL_SECONDS = 102.55

#: Tempering comparisons: (model, portfolio, sa_iterations, expect_win).
#: ``expect_win`` entries are the committed quality claim — tempering
#: must beat restarts=8 there; the rest are tracked but not gated.
TEMPERING_WORKLOADS: tuple[tuple[str, str, int, bool], ...] = (
    ("vgg19_bench", "exponential", 200, True),
    ("resnet50_bench", "exponential", 200, True),
    ("efficientnet_bench", "exponential", 200, True),
    ("resnet152_bench", "mixed", 200, True),
    ("mobilenet_v2_bench", "exponential", 200, False),
)
RUNGS = 8

#: Adjacent restarts/tempering timing pairs per workload (odd, so the
#: median ratio is one pair's ratio).
PAIRS = 3

#: Allowed fractional tempering wall-time excess over restarts.
WALL_SLACK = 0.10

#: A repeated request must return its byte-identical document at least
#: this much faster than the cold search.
MIN_HIT_SPEEDUP = 100.0

#: Traced serving must cost less than this fraction of the cold search.
MAX_TRACING_OVERHEAD = 0.05

PROFILE_MODELS = ("vgg19_bench", "mobilenet_v2_bench")
PROFILE_ARCH = ArchConfig(mesh_rows=2, mesh_cols=2)
PROFILE_OPTIONS = OptimizerOptions(
    sa_params=SAParams(max_iterations=24), restarts=3, seed=0
)

#: Disabled-tracer overhead budget, as a fraction of unprofiled wall time.
OVERHEAD_BUDGET = 0.05

#: File name of the sample Chrome trace ``profile`` writes beside ``--out``.
SAMPLE_TRACE = "profile_sample_trace.json"


# ------------------------------------------------------------ shared parts


def _timed_search(
    model: str, arch: ArchConfig, options: OptimizerOptions
) -> tuple[Any, float]:
    """Build ``model`` and search it; returns (outcome, wall seconds)."""
    t0 = time.perf_counter()
    outcome = AtomicDataflowOptimizer(get_model(model), arch, options).optimize()
    return outcome, time.perf_counter() - t0


def _search_row(outcome, wall: float) -> dict:
    """Result, wall time, and the per-stage breakdown the search records."""
    stats = outcome.search_stats
    return {
        "total_cycles": outcome.result.total_cycles,
        "wall_seconds": round(wall, 3),
        "evaluated": stats.evaluated,
        "stage_seconds": {
            stage: round(seconds, 3)
            for stage, seconds in stats.stage_seconds.items()
        },
        "cost_kernel": {
            "batch_calls": sum(t.kernel_batch_calls for t in outcome.traces),
            "batch_rows": sum(t.kernel_batch_rows for t in outcome.traces),
        },
    }


def _decisions(outcome) -> list[tuple]:
    return [
        (t.label, t.fingerprint, t.accepted, t.reason, t.total_cycles,
         t.rung, t.swaps_proposed, t.swaps_accepted)
        for t in outcome.traces
    ]


def _same(a, b) -> bool:
    """Whether two outcomes decided bit-identically."""
    return (
        _decisions(a) == _decisions(b)
        and a.result.to_dict() == b.result.to_dict()
    )


def _span_cost_s(samples: int = 20_000) -> float:
    """Measured wall cost of one span on the active tracer."""
    tracer = get_tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tracer.span("bench.probe", category="bench"):
            pass
    return (time.perf_counter() - t0) / samples


def _failed(checks: list[tuple[bool, str]]) -> list[str]:
    return [problem for ok, problem in checks if not ok]


# --------------------------------------------------------------------- perf


def run_perf(out: Path | None) -> dict:
    outcome, wall = _timed_search(PERF_MODEL, DEFAULT_ARCH, PERF_OPTIONS)
    stats = outcome.search_stats
    winner = next(t for t in outcome.traces if t.accepted)
    row = {
        "model": PERF_MODEL,
        "arch": ARCH_LABEL,
        "restarts": PERF_OPTIONS.restarts,
        "seed": PERF_OPTIONS.seed,
        "jobs": PERF_OPTIONS.jobs,
        "cpu_count": os.cpu_count(),
        "candidates": stats.candidates,
        "candidates_per_second": round(stats.candidates / wall, 3),
        **_search_row(outcome, wall),
        "winner": {"label": winner.label, "fingerprint": winner.fingerprint},
        "scalar_baseline_wall_seconds": SCALAR_BASELINE_WALL_SECONDS,
        "speedup_vs_scalar_baseline": round(
            SCALAR_BASELINE_WALL_SECONDS / wall, 2
        ),
    }
    print(
        f"perf: {PERF_MODEL} restarts={row['restarts']} seed={row['seed']}: "
        f"{row['wall_seconds']:.2f}s ({row['candidates_per_second']:.2f} "
        f"cand/s), total_cycles={row['total_cycles']}, winner "
        f"{winner.label}, {row['speedup_vs_scalar_baseline']:.2f}x vs "
        f"scalar baseline, stages {row['stage_seconds']}"
    )
    return row


def check_perf(row: dict, reference: dict | None) -> list[str]:
    """Regression verdicts of a fresh ``perf`` row vs the ledger's."""
    if reference is None:
        return [f"no committed row in {LEDGER}"]
    limit = reference["wall_seconds"] * (1.0 + WALL_THRESHOLD)
    return _failed([
        (
            row["total_cycles"] == reference["total_cycles"],
            "bit-exactness violated: total_cycles "
            f"{row['total_cycles']} != committed {reference['total_cycles']}",
        ),
        (
            row["winner"] == reference["winner"],
            f"winner drifted: {row['winner']} != "
            f"committed {reference['winner']}",
        ),
        # The search's own work counts: every candidate is priced once
        # per DAG build, so a change to the hot path moves none of them.
        (
            row.get("evaluated") == reference.get("evaluated"),
            f"evaluated candidates drifted: {row.get('evaluated')} != "
            f"committed {reference.get('evaluated')}",
        ),
        (
            row.get("cost_kernel") == reference.get("cost_kernel"),
            f"cost-kernel work drifted: {row.get('cost_kernel')} != "
            f"committed {reference.get('cost_kernel')}",
        ),
        (
            row["wall_seconds"] <= limit,
            f"wall time regressed: {row['wall_seconds']:.2f}s > "
            f"{limit:.2f}s (committed {reference['wall_seconds']:.2f}s "
            f"+ {WALL_THRESHOLD:.0%})",
        ),
    ])


# ---------------------------------------------------------------- tempering


def _tempering_row(
    model: str, portfolio: str, iterations: int, expect_win: bool
) -> dict:
    arms = {
        "restarts": PERF_OPTIONS,
        "tempering": OptimizerOptions(
            rungs=RUNGS, seed=PERF_OPTIONS.seed, jobs=1, portfolio=portfolio,
            sa_params=SAParams(max_iterations=iterations),
        ),
    }
    first: dict[str, Any] = {}
    walls: dict[str, list[float]] = {arm: [] for arm in arms}
    repeats_identical = True
    for pair in range(PAIRS):
        order = list(arms) if pair % 2 == 0 else list(reversed(arms))
        for arm in order:
            outcome, wall = _timed_search(model, DEFAULT_ARCH, arms[arm])
            walls[arm].append(wall)
            if arm in first:
                repeats_identical &= _same(outcome, first[arm])
            else:
                first[arm] = outcome
    restarts, tempered = first["restarts"], first["tempering"]
    ratios = [t / r for r, t in zip(walls["restarts"], walls["tempering"])]

    # Determinism leg: the same tempered search fanned across two
    # workers must decide bit-identically.
    parallel, parallel_wall = _timed_search(
        model, DEFAULT_ARCH, replace(arms["tempering"], jobs=2)
    )
    tempering = _search_row(tempered, statistics.median(walls["tempering"]))
    tempering.update(
        swaps_accepted=sum(t.swaps_accepted for t in tempered.traces) // 2,
        swaps_proposed=sum(t.swaps_proposed for t in tempered.traces) // 2,
        jobs2_wall_seconds=round(parallel_wall, 3),
    )
    return {
        "model": model,
        "portfolio": portfolio,
        "sa_iterations": iterations,
        "expect_win": expect_win,
        "restarts": _search_row(
            restarts, statistics.median(walls["restarts"])
        ),
        "tempering": tempering,
        "wall_ratios": [round(r, 4) for r in ratios],
        "wall_ratio": round(statistics.median(ratios), 4),
        "cycles_improvement": round(
            1.0 - tempered.result.total_cycles / restarts.result.total_cycles,
            4,
        ),
        "repeats_bit_identical": repeats_identical,
        "jobs2_bit_identical": _same(parallel, tempered),
    }


def run_tempering(out: Path | None) -> dict:
    rows = []
    for workload in TEMPERING_WORKLOADS:
        row = _tempering_row(*workload)
        rows.append(row)
        won = row["tempering"]["total_cycles"] < row["restarts"]["total_cycles"]
        print(
            f"tempering: {'WIN ' if won else '    '}{row['model']}: "
            f"tempering {row['tempering']['total_cycles']} "
            f"({row['tempering']['wall_seconds']:.2f}s, jobs=2 "
            f"{row['tempering']['jobs2_wall_seconds']:.2f}s, "
            f"{row['tempering']['swaps_accepted']}/"
            f"{row['tempering']['swaps_proposed']} swaps) vs restarts "
            f"{row['restarts']['total_cycles']} "
            f"({row['restarts']['wall_seconds']:.2f}s), "
            f"wall ratio {row['wall_ratio']:.3f} {row['wall_ratios']}, "
            f"jobs=2 identical: {row['jobs2_bit_identical']}"
        )
    return {
        "arch": ARCH_LABEL,
        "rungs": RUNGS,
        "restarts": PERF_OPTIONS.restarts,
        "seed": PERF_OPTIONS.seed,
        "cpu_count": os.cpu_count(),
        "workloads": rows,
        "wins": sum(
            r["tempering"]["total_cycles"] < r["restarts"]["total_cycles"]
            for r in rows
        ),
    }


def check_tempering(row: dict, reference: dict | None) -> list[str]:
    """Regression verdicts of a fresh ``tempering`` row vs the ledger's."""
    if reference is None:
        return [f"no committed row in {LEDGER}"]
    problems: list[str] = []
    ref_rows = {r["model"]: r for r in reference["workloads"]}
    for w in row["workloads"]:
        model = w["model"]
        ref = ref_rows.get(model)
        if ref is None:
            problems.append(f"{model}: not in committed reference")
            continue
        for arm in ("restarts", "tempering"):
            got = w[arm]["total_cycles"]
            want = ref[arm]["total_cycles"]
            if got != want:
                problems.append(
                    f"{model}: {arm} total_cycles drifted "
                    f"{got} != committed {want}"
                )
        if not w["repeats_bit_identical"]:
            problems.append(f"{model}: a repeated run diverged from the first")
        if not w["jobs2_bit_identical"]:
            problems.append(f"{model}: tempering jobs=2 diverged from jobs=1")
        if not w["expect_win"]:
            continue
        if w["tempering"]["total_cycles"] >= w["restarts"]["total_cycles"]:
            problems.append(
                f"{model}: tempering lost the committed quality win "
                f"({w['tempering']['total_cycles']} >= "
                f"{w['restarts']['total_cycles']})"
            )
        if w["wall_ratio"] > 1.0 + WALL_SLACK:
            problems.append(
                f"{model}: median tempering/restarts wall ratio "
                f"{w['wall_ratio']:.3f} (pairs {w['wall_ratios']}) "
                f"exceeds 1 + {WALL_SLACK:.0%}"
            )
    return problems


# -------------------------------------------------------------------- serve


class Daemon:
    """A real daemon (runner, unix socket, ``/metrics``) on a state dir."""

    def __init__(self, state_dir: Path):
        self.state_dir = state_dir
        self.socket_path = str(state_dir / "repro.sock")
        self.client = ServeClient(self.socket_path, timeout_s=1800.0)
        self.exporter: MetricsHTTPServer | None = None
        self.thread: threading.Thread | None = None

    def start(self) -> "Daemon":
        service = ReproService(self.state_dir / "state")
        self.exporter = MetricsHTTPServer(service, port=0)
        self.exporter.start()
        self.thread = threading.Thread(
            target=serve, args=(service, self.socket_path), daemon=True
        )
        self.thread.start()
        for _ in range(200):
            try:
                self.client.ping()
                return self
            except OSError:
                time.sleep(0.05)
        raise RuntimeError("daemon did not come up")

    def stop(self) -> None:
        self.client.shutdown()
        assert self.thread is not None and self.exporter is not None
        self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("daemon did not stop")
        self.exporter.stop()

    def submit(self, request: CompileRequest) -> tuple[dict, float]:
        """Submit, wait, fetch the result; returns (result, wall seconds)."""
        t0 = time.perf_counter()
        submitted = self.client.submit(request)
        if submitted["state"] != "done":
            self.client.wait(submitted["job_id"], timeout_s=1800.0)
        result = self.client.result(submitted["job_id"])
        return result, time.perf_counter() - t0

    def scrape(self, path: str) -> tuple[str, float]:
        """GET one exporter endpoint; returns (body, wall seconds)."""
        assert self.exporter is not None
        url = f"http://127.0.0.1:{self.exporter.port}{path}"
        t0 = time.perf_counter()
        with urllib.request.urlopen(url, timeout=30) as resp:
            body = resp.read().decode("utf-8")
        return body, time.perf_counter() - t0


def run_serve(out: Path | None) -> dict:
    # Production mode: the daemon serves traced with /metrics attached.
    enable_tracing()
    reset_registry()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            row = _serve_row(Path(tmp))
    finally:
        disable_tracing()
    obs = row["observability"]
    print(
        f"serve: {PERF_MODEL} restarts={row['restarts']}: cold "
        f"{row['cold_seconds']:.2f}s, warm {row['warm_seconds']:.2f}s, hit "
        f"{row['cache_hit_seconds'] * 1000:.1f}ms "
        f"({row['cache_hit_speedup_vs_cold']:.0f}x), restart hit "
        f"{row['restart_hit_seconds'] * 1000:.1f}ms; {obs['scrape_samples']} "
        f"scrapes, {obs['cold_trace_spans']} spans on the cold job, tracing "
        f"overhead {obs['traced_overhead_fraction']:.2%}"
    )
    return row


def _serve_row(tmp: Path) -> dict:
    pinned = CompileRequest(
        model=PERF_MODEL, arch=DEFAULT_ARCH, options=PERF_OPTIONS
    )
    warm_probe = CompileRequest(
        model=PERF_MODEL,
        arch=DEFAULT_ARCH,
        options=replace(PERF_OPTIONS, seed=PERF_OPTIONS.seed + 1),
    )
    # The in-process reference: what `repro optimize` would emit.
    outcome, direct_wall = _timed_search(
        PERF_MODEL, DEFAULT_ARCH, PERF_OPTIONS
    )
    direct_bytes = canonical_solution_bytes(
        solution_to_dict(outcome, PERF_OPTIONS.dataflow, include_search=False)
    )

    daemon = Daemon(tmp).start()
    # The cold search runs alone: its wall time is the denominator of the
    # hit-speedup and tracing-overhead gates, so no scraper may share the
    # daemon's interpreter with it.
    cold, cold_wall = daemon.submit(pinned)

    # Scrape /metrics continuously while the warm search (a second full
    # search, other seed) runs: the exporter must answer mid-compile and
    # every page must cohere.
    scrape_ms: list[float] = []
    scrape_problems: list[str] = []
    scrape_stop = threading.Event()

    def scrape_loop() -> None:
        while not scrape_stop.is_set():
            try:
                body, wall = daemon.scrape("/metrics")
                scrape_ms.append(wall * 1000.0)
                for name, state in parse_prometheus(body).histograms.items():
                    if sum(state["counts"]) != state["count"]:
                        scrape_problems.append(f"torn mid-run scrape of {name}")
            except Exception as exc:  # noqa: BLE001
                scrape_problems.append(f"mid-run scrape failed: {exc!r}")
            time.sleep(0.05)

    scraper = threading.Thread(target=scrape_loop, daemon=True)
    scraper.start()
    try:
        _, warm_wall = daemon.submit(warm_probe)
    finally:
        scrape_stop.set()
        scraper.join(timeout=30)
    warm_scrapes = len(scrape_ms)
    hit, hit_wall = daemon.submit(pinned)

    # The exposition contract after three completed jobs: the e2e
    # latency histogram must count exactly the jobs /jobs calls done.
    metrics_body, metrics_wall = daemon.scrape("/metrics")
    scrape_ms.append(metrics_wall * 1000.0)
    e2e = parse_prometheus(metrics_body).histograms.get("service.latency.e2e")
    jobs_doc = json.loads(daemon.scrape("/jobs")[0])
    health_doc = json.loads(daemon.scrape("/healthz")[0])
    # The cold job's stitched span tree sizes the overhead estimate.
    trace_spans = len(daemon.client.trace(cold["job_id"])["spans"])
    counters = daemon.client.stats()["counters"]
    daemon.stop()

    # The store must survive a daemon restart on the same state dir.
    daemon = Daemon(tmp).start()
    restart_hit, restart_wall = daemon.submit(pinned)
    daemon.stop()

    # Traced-vs-untraced overhead: the spans the cold job actually
    # recorded, priced at the measured per-span cost, against the cold
    # search wall.  Direct A/B timing of two full searches would drown
    # in search-time variance.
    span_cost = _span_cost_s()
    lookups = counters.get("store.hits", 0) + counters.get("store.misses", 0)
    return {
        "model": PERF_MODEL,
        "arch": ARCH_LABEL,
        "restarts": PERF_OPTIONS.restarts,
        "seed": PERF_OPTIONS.seed,
        "cpu_count": os.cpu_count(),
        "direct_optimize_seconds": round(direct_wall, 3),
        "cold_seconds": round(cold_wall, 3),
        "warm_seconds": round(warm_wall, 3),
        "cache_hit_seconds": round(hit_wall, 4),
        "restart_hit_seconds": round(restart_wall, 4),
        "cache_hit_speedup_vs_cold": round(cold_wall / hit_wall, 1),
        "min_hit_speedup": MIN_HIT_SPEEDUP,
        "warm_speedup_vs_cold": round(cold_wall / warm_wall, 2),
        "served_equals_direct": cold["solution_json"].encode() == direct_bytes,
        "hit_source": hit["source"],
        "hit_identical": hit["solution_json"] == cold["solution_json"],
        "restart_hit_source": restart_hit["source"],
        "restart_hit_identical": (
            restart_hit["solution_json"] == cold["solution_json"]
        ),
        "store_hit_ratio": round(
            counters.get("store.hits", 0) / max(lookups, 1), 3
        ),
        "counters": counters,
        "observability": {
            "warm_scrapes": warm_scrapes,
            "scrape_samples": len(scrape_ms),
            "scrape_problems": scrape_problems,
            "scrape_latency_ms": {
                "mean": round(statistics.fmean(scrape_ms), 3),
                "p95": round(
                    sorted(scrape_ms)[int(0.95 * (len(scrape_ms) - 1))], 3
                ),
                "max": round(max(scrape_ms), 3),
            },
            "e2e_histogram_count": e2e["count"] if e2e else 0,
            "completed_jobs": jobs_doc["jobs_by_state"].get("done", 0),
            "runners_alive": all(
                r["alive"] for r in health_doc.get("runners", [])
            ),
            "cold_trace_spans": trace_spans,
            "per_span_cost_us": round(span_cost * 1e6, 3),
            "traced_overhead_fraction": round(
                trace_spans * span_cost / cold_wall, 6
            ),
            "max_overhead_fraction": MAX_TRACING_OVERHEAD,
        },
    }


def check_serve(row: dict, reference: dict | None) -> list[str]:
    """The serving contract's verdicts (absolute, no ledger reference)."""
    obs = row["observability"]
    return _failed([
        (
            row["served_equals_direct"],
            "served cold compile != direct optimize (bytes)",
        ),
        (
            row["hit_source"] == "cache",
            f"repeat was {row['hit_source']}, not a hit",
        ),
        (row["hit_identical"], "cache hit was not byte-identical"),
        (
            row["cache_hit_speedup_vs_cold"] >= MIN_HIT_SPEEDUP,
            f"cache-hit speedup {row['cache_hit_speedup_vs_cold']:.0f}x "
            f"< {MIN_HIT_SPEEDUP:.0f}x",
        ),
        (
            row["restart_hit_source"] == "cache",
            "post-restart repeat was not a cache hit",
        ),
        (
            row["restart_hit_identical"],
            "post-restart hit was not byte-identical",
        ),
        (
            obs["warm_scrapes"] > 0,
            "no /metrics scrape completed during warm search",
        ),
        (
            obs["e2e_histogram_count"] == obs["completed_jobs"],
            f"service.latency.e2e count {obs['e2e_histogram_count']} != "
            f"{obs['completed_jobs']} completed jobs",
        ),
        (obs["runners_alive"], "/healthz reported a dead runner"),
        (
            obs["cold_trace_spans"] > 0,
            "traced daemon produced no spans for cold job",
        ),
        (
            obs["traced_overhead_fraction"] < MAX_TRACING_OVERHEAD,
            f"tracing overhead {obs['traced_overhead_fraction']:.1%} >= "
            f"{MAX_TRACING_OVERHEAD:.0%} of cold search wall",
        ),
    ]) + obs["scrape_problems"]


# ------------------------------------------------------------------ profile


def _profile_arm(model: str, jobs: int, profile: bool) -> tuple:
    """One search, traced or not; returns (outcome, wall, spans, metrics)."""
    if profile:
        enable_tracing()
        reset_registry()
    else:
        disable_tracing()
    try:
        outcome, wall = _timed_search(
            model, PROFILE_ARCH, replace(PROFILE_OPTIONS, jobs=jobs)
        )
        spans, metrics = drain_observations() if profile else ([], {})
    finally:
        disable_tracing()
    return outcome, wall, spans, metrics


def run_profile(out: Path | None) -> dict:
    disable_tracing()
    noop_span_ns = _span_cost_s() * 1e9
    workloads: dict[str, dict] = {}
    for model in PROFILE_MODELS:
        arms = {
            (jobs, profile): _profile_arm(model, jobs, profile)
            for jobs in (1, 2)
            for profile in (False, True)
        }
        baseline, unprofiled_wall, _, _ = arms[1, False]
        profiled_spans = len(arms[1, True][2])
        workloads[model] = {
            "arms": [
                {
                    "jobs": jobs,
                    "profiled": profile,
                    "wall_seconds": round(wall, 3),
                    "spans": len(spans),
                    "counters": len(metrics.get("counters", {})),
                    "total_cycles": outcome.result.total_cycles,
                }
                for (jobs, profile), (outcome, wall, spans, metrics)
                in arms.items()
            ],
            "disabled_overhead_fraction": round(
                noop_span_ns * profiled_spans / (unprofiled_wall * 1e9), 6
            ),
            "decisions_identical": all(
                _same(arm[0], baseline) for arm in arms.values()
            ),
        }
        print(
            f"profile: {model}: unprofiled {unprofiled_wall:.2f}s, profiled "
            f"{arms[1, True][1]:.2f}s ({profiled_spans} spans), disabled "
            f"overhead {workloads[model]['disabled_overhead_fraction']:.3%} "
            f"of wall, decisions identical: "
            f"{workloads[model]['decisions_identical']}"
        )

    # The richest trace (last model, jobs=2, profiled) plus the winner's
    # simulated timeline, written beside --out (or into a scratch dir).
    outcome, _, spans, _ = arms[2, True]
    _, timeline = simulate_timeline(
        PROFILE_ARCH,
        outcome.dag,
        outcome.schedule,
        outcome.placement,
        strategy=outcome.result.strategy,
    )
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        path = out.with_name(SAMPLE_TRACE) if out else Path(tmp) / SAMPLE_TRACE
        doc = trace_to_chrome(
            path, spans, timeline,
            metadata={"benchmark": "profile", "seed": PROFILE_OPTIONS.seed},
        )
    print(
        f"profile: sample trace of {len(doc['traceEvents'])} events"
        + (f" written to {path}" if out else "")
    )
    return {
        "cpu_count": os.cpu_count(),
        "seed": PROFILE_OPTIONS.seed,
        "noop_span_ns": round(noop_span_ns, 1),
        "overhead_budget": OVERHEAD_BUDGET,
        "workloads": workloads,
        "sample_trace_events": len(doc["traceEvents"]),
    }


def check_profile(row: dict, reference: dict | None) -> list[str]:
    """Tracing must neither perturb nor slow the search (no reference)."""
    checks = [(row["sample_trace_events"] > 0, "no sample trace written")]
    for model, w in row["workloads"].items():
        checks += [
            (
                w["decisions_identical"],
                f"{model}: profiled or jobs=2 arms diverged from the "
                "unprofiled jobs=1 run",
            ),
            (
                w["disabled_overhead_fraction"] <= OVERHEAD_BUDGET,
                f"{model}: disabled-tracer overhead estimate "
                f"{w['disabled_overhead_fraction']:.2%} exceeds the "
                f"{OVERHEAD_BUDGET:.0%} budget",
            ),
        ]
    return _failed(checks)


# ------------------------------------------------------------- the harness


#: name -> (run, check): ``run(out)`` measures the scenario's row;
#: ``check(row, reference)`` lists its problems, given the ledger's row
#: (``None`` when the ledger has none).
SCENARIOS = {
    "perf": (run_perf, check_perf),
    "tempering": (run_tempering, check_tempering),
    "serve": (run_serve, check_serve),
    "profile": (run_profile, check_profile),
}


def run_bench(scenarios: list[str], check: bool, out: str | None) -> int:
    """Run ``scenarios`` in order; gate with ``check``; merge rows into ``out``.

    Returns the process exit code: 1 when ``check`` found a problem.
    """
    reference = (
        json.loads(LEDGER.read_text()) if check and LEDGER.exists() else {}
    )
    out_path = Path(out) if out else None
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
    rows: dict[str, dict] = {}
    problems: list[str] = []
    for name in scenarios:
        run, gate = SCENARIOS[name]
        rows[name] = run(out_path)
        if check:
            problems += [
                f"{name}: {problem}"
                for problem in gate(rows[name], reference.get(name))
            ]
    if out_path is not None:
        ledger = (
            json.loads(out_path.read_text()) if out_path.exists() else {}
        )
        ledger.update(rows)
        out_path.write_text(json.dumps(ledger, indent=2) + "\n")
        print(f"rows written to {out_path} (cpu_count={os.cpu_count()})")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if check and not problems:
        print(f"check passed: {', '.join(scenarios)} (ledger {LEDGER})")
    return 1 if problems else 0
