"""The benchmark's workloads, each a closed loop with one caller.

* ``search-resnet50`` compiles the pinned ResNet-50 search through the
  public optimizer API
  (``AtomicDataflowOptimizer(..., context=SearchContext.create(...))``),
  publishes the winner into a fresh in-process service's solution store
  — the write a cold request ends with — and then asks that service for
  the same compile :data:`SEARCH_HITS` times, so it also measures cache
  hits of a full-size solution.
* ``serve-mix`` replays a seeded request trace against a fresh
  in-process ``ReproService`` (``runners=1``) through one
  ``ServeClient``: every :attr:`ServeMixWorkload.new_every`-th request
  is a first-time compile on a small parallel-tempering ladder, the
  rest repeat an already-answered one.

A caller waits for each answer before sending the next request, so hits
are only ever measured while no compile is running.  Cold requests are
waited on by polling ``status`` every :data:`POLL_S` seconds, not with
``ServeClient.wait``, whose doubling backoff would round compile times
up to its poll grid.  When a run hands in a :class:`stats.HostProbe`,
the caller samples it after every answer and around every search, and
a timer samples it during every search, so each timing can be scaled
by the host's speed around it.
"""

from __future__ import annotations

import gc
import json
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import DEFAULT_ARCH, AtomicDataflowOptimizer, OptimizerOptions, SearchContext
from repro.atoms.generation import SAParams
from repro.models import get_model
from repro.serialize import solution_to_dict
from repro.service import CompileRequest, ReproService, ServeClient, serve
from stats import HostProbe

#: Client poll cadence while a cold request compiles (seconds).
POLL_S = 0.01

#: Cache hits each search workload asks for after its compile: the p95
#: has fifteen samples beyond it, and the hits span ~8 s of host time,
#: which averages out the host's second-to-second drift (on a shared
#: 2-vCPU VM, 200 hits in ~5 s gave up to twice the run-to-run spread).
SEARCH_HITS = 300

#: Probe loops timed just before and just after each search.
SEARCH_PROBE_LOOPS = 30

#: ``(wall seconds, start, end)`` of one timed operation, the ends in
#: ``time.perf_counter`` seconds.
Timed = tuple[float, float, float]

_TERMINAL = ("done", "failed", "cancelled")


def _timed(t0: float, t1: float) -> Timed:
    return (t1 - t0, t0, t1)


@dataclass(frozen=True)
class SearchWorkload:
    """One independent-restart search through the public optimizer API."""

    name: str
    model: str
    restarts: int = 1

    def options(self, seed: int) -> OptimizerOptions:
        return OptimizerOptions(restarts=self.restarts, seed=seed, jobs=1)


@dataclass(frozen=True)
class ServeMixWorkload:
    """A seeded cold/hit request trace over one zoo model's compiles.

    The compiles are ``model`` under search seeds ``0..compiles-1``: like
    work, so the cold-latency median and the hit percentiles rest on many
    comparable samples (a trace over the eight ``*_bench`` models put the
    cold median on the one or two mid-sized compiles, and read 0.11-0.29
    run-to-run spread on a shared 2-vCPU VM), and one warm session serves
    every cold after the first.  Each compile runs a ``rungs``-rung
    tempering ladder, so the tempering search loop and its swaps are
    measured here while ``search-resnet50`` runs independent restarts.
    """

    name: str = "serve-mix"
    model: str = "resnet50_bench"
    compiles: int = 16
    requests: int = 224
    new_every: int = 14
    sa_iterations: int = 50
    rungs: int = 2
    exchange_every: int = 10

    def compile_request(self, sa_seed: int) -> dict:
        options = OptimizerOptions(
            rungs=self.rungs,
            exchange_every=self.exchange_every,
            seed=sa_seed,
            sa_params=SAParams(max_iterations=self.sa_iterations),
            jobs=1,
        )
        return CompileRequest(model=self.model, options=options).to_dict()


WORKLOADS: dict[str, SearchWorkload | ServeMixWorkload] = {
    w.name: w
    for w in (
        SearchWorkload("search-resnet50", "resnet50", restarts=8),
        ServeMixWorkload(),
    )
}

#: Seed -> (total_cycles, winner fingerprint) a search must reproduce:
#: search-resnet50 at seed 0 is the pinned search of BENCH_perf.json.
PINNED = {"search-resnet50": {0: (1383855, "c6cbbd0f81242d66")}}


@dataclass(frozen=True)
class Request:
    """One trace entry: which compile, and whether it is its first ask."""

    compile: int
    cold: bool


def serve_mix_trace(workload: ServeMixWorkload, seed: int) -> list[Request]:
    """The request sequence, a pure function of ``seed``.

    Request ``i`` is the next compile's first ask when ``i`` is a
    multiple of ``new_every``, else a seeded repeat of a compile already
    asked.  The compiles and their order are fixed, so the seed moves
    which answers repeat, not how much searching the trace holds.
    """
    rng = random.Random(seed)
    requests: list[Request] = []
    asked = 0
    for i in range(workload.requests):
        if i % workload.new_every == 0 and asked < workload.compiles:
            requests.append(Request(asked, True))
            asked += 1
        else:
            requests.append(Request(rng.randrange(asked), False))
    return requests


class LocalDaemon:
    """A ``ReproService`` behind :func:`repro.service.serve` on a thread,
    with the one client that talks to it; ready once a ping answers."""

    def __init__(self, state_dir: Path, ready_timeout_s: float = 60.0) -> None:
        self.service = ReproService(state_dir, jobs=1, runners=1)
        self.socket = str(state_dir / "d.sock")
        self._thread = threading.Thread(
            target=serve, args=(self.service, self.socket), name="perfbench-serve"
        )
        self._thread.start()
        pinger = ServeClient(self.socket, retries=0)
        deadline = time.monotonic() + ready_timeout_s
        while True:
            try:
                pinger.ping()
                break
            except OSError:
                if time.monotonic() > deadline or not self._thread.is_alive():
                    self.close()
                    raise RuntimeError("daemon did not come up") from None
                time.sleep(0.001)
        self.client = ServeClient(self.socket, timeout_s=120.0)

    def close(self) -> None:
        """Shut the daemon down and wait for its threads to end."""
        if self._thread.is_alive():
            try:
                ServeClient(self.socket).shutdown()
            except OSError:
                pass  # never came up; serve() returns on its own
            self._thread.join(timeout=120.0)
        if self._thread.is_alive():
            raise RuntimeError("daemon thread did not stop")

    def __enter__(self) -> "LocalDaemon":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class UnitResult:
    """What one measured unit of a workload produced."""

    window: tuple[float, float] = (0.0, 0.0)
    searches: list[Timed] = field(default_factory=list)
    colds: list[Timed] = field(default_factory=list)
    hits: list[Timed] = field(default_factory=list)
    sim_cycles: int = 0
    sim_energy_mj: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: What a rerun of the same unit must reproduce bit for bit.
    decisions: list[Any] = field(default_factory=list)
    outcomes: list[Any] = field(default_factory=list)
    daemon_stats: tuple[dict, dict] = ({}, {})
    #: serve-mix: the model every served answer in ``decisions`` compiles.
    served_model: str = ""

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def requests(self) -> int:
        return len(self.colds) + len(self.hits)


def _ask(
    client: ServeClient,
    doc: dict,
    cold: bool,
    unit: UnitResult,
    probe: HostProbe | None,
) -> str | None:
    """One closed-loop request; returns the served document (or None)."""
    unit.attempted += 1
    t0 = time.perf_counter()
    try:
        sub = client.submit(doc)
        job_id = sub["job_id"]
        if cold:
            while client.status(job_id)["state"] not in _TERMINAL:
                time.sleep(POLL_S)
        res = client.result(job_id)
    except (OSError, RuntimeError, ValueError) as exc:
        unit.failures.append(f"{doc['model']}: {type(exc).__name__}: {exc}")
        return None
    t1 = time.perf_counter()
    if probe is not None:
        probe.sample()
    want = "search" if cold else "cache"
    if sub["source"] != want or res["source"] != want:
        unit.failures.append(
            f"{doc['model']}: answered from {sub['source']}/{res['source']}, "
            f"expected {want}"
        )
        return None
    (unit.colds if cold else unit.hits).append(_timed(t0, t1))
    if cold:
        seconds = float(client.status(job_id)["search_seconds"])
        unit.searches.append((seconds, t0, t1))
    return res["solution_json"]


def run_search(
    workload: SearchWorkload,
    seed: int,
    state_dir: Path,
    probe: HostProbe | None = None,
) -> UnitResult:
    """Compile once through the optimizer API, publish, then serve hits."""
    unit = UnitResult()
    options = workload.options(seed)
    graph = get_model(workload.model)
    ctx = SearchContext.create(
        graph, DEFAULT_ARCH, dataflow=options.dataflow, batch=options.batch
    )
    with LocalDaemon(state_dir) as daemon:
        unit.daemon_stats = (daemon.client.stats(), {})
        if probe is not None:
            probe.sample(SEARCH_PROBE_LOOPS)
        optimizer = AtomicDataflowOptimizer(graph, DEFAULT_ARCH, options, context=ctx)
        with probe.sampling() if probe is not None else nullcontext():
            t0 = time.perf_counter()
            outcome = optimizer.optimize()
            t_search = time.perf_counter()
        unit.searches.append(_timed(t0, t_search))
        request = CompileRequest(model=workload.model, options=options)
        doc = solution_to_dict(outcome, options.dataflow, include_search=False)
        payload = daemon.service.store.put(
            request.fingerprint, doc, graph=request.graph, arch=request.arch
        ).decode("utf-8")
        unit.colds.append(_timed(t0, time.perf_counter()))
        unit.attempted += 1
        if probe is not None:
            probe.sample(SEARCH_PROBE_LOOPS)
        wire = request.to_dict()
        # The search's objects stay alive for the checks after the unit;
        # keep the collector from rescanning them during every hit, which
        # a daemon that never ran this search would not pay for.
        gc.collect()
        gc.freeze()
        try:
            for _ in range(SEARCH_HITS):
                served = _ask(daemon.client, wire, False, unit, probe)
                if served not in (payload, None):
                    unit.failures.append(f"{workload.model}: hit bytes differ")
        finally:
            gc.unfreeze()
        unit.window = (t0, time.perf_counter())
        unit.daemon_stats = (unit.daemon_stats[0], daemon.client.stats())
    winner = next(t for t in outcome.traces if t.accepted)
    unit.outcomes.append(outcome)
    unit.sim_cycles = outcome.result.total_cycles
    unit.sim_energy_mj = outcome.result.energy.total_mj
    unit.decisions = [outcome.result.total_cycles, winner.fingerprint, payload]
    pinned = PINNED.get(workload.name, {}).get(seed)
    if pinned is not None and pinned != (
        outcome.result.total_cycles,
        winner.fingerprint,
    ):
        unit.failures.append(
            f"{workload.name} seed {seed}: got {outcome.result.total_cycles} "
            f"cycles winner {winner.fingerprint}, pinned {pinned}"
        )
    return unit


def run_serve_mix(
    workload: ServeMixWorkload,
    seed: int,
    state_dir: Path,
    probe: HostProbe | None = None,
) -> UnitResult:
    """Replay the seeded trace against a fresh in-process daemon."""
    unit = UnitResult()
    requests = serve_mix_trace(workload, seed)
    docs = [workload.compile_request(k) for k in range(workload.compiles)]
    answers: dict[int, str] = {}
    with LocalDaemon(state_dir) as daemon:
        before = daemon.client.stats()
        t0 = time.perf_counter()
        for req in requests:
            served = _ask(daemon.client, docs[req.compile], req.cold, unit, probe)
            if served is None:
                continue
            if req.cold:
                answers[req.compile] = served
            elif served != answers.get(req.compile):
                unit.failures.append(
                    f"{docs[req.compile]['model']}: hit bytes differ from "
                    "the cold answer"
                )
        unit.window = (t0, time.perf_counter())
        unit.daemon_stats = (before, daemon.client.stats())
    unit.decisions = [answers.get(i) for i in range(len(docs))]
    unit.served_model = workload.model
    return unit


def run_unit(
    name: str, seed: int, state_dir: Path, probe: HostProbe | None = None
) -> UnitResult:
    workload = WORKLOADS[name]
    if isinstance(workload, SearchWorkload):
        return run_search(workload, seed, state_dir, probe)
    return run_serve_mix(workload, seed, state_dir, probe)


def check(unit: UnitResult, scratch: Path) -> list[str]:
    """Untimed correctness checks of one unit's outputs (files go to
    ``scratch``).

    Every search winner passes ``validate_outcome``; every served
    solution re-binds to a fresh graph and re-simulates to the cycles it
    claims, which also yields its energy (the stored document carries
    cycles only).
    """
    from repro.analysis import validate_outcome
    from repro.serialize import load_solution

    problems = []
    for outcome in unit.outcomes:
        report = validate_outcome(outcome, DEFAULT_ARCH)
        if not report.ok:
            problems.append(f"validate_outcome: {report.errors[:3]}")
    if not unit.served_model:
        return problems
    graph = get_model(unit.served_model)
    ctx = SearchContext.create(graph, DEFAULT_ARCH)
    unit.sim_cycles, unit.sim_energy_mj = 0, 0.0
    path = scratch / "solution.json"
    for index, served in enumerate(unit.decisions):
        if served is None:
            continue
        path.write_text(served, encoding="utf-8")
        claimed = json.loads(served)["metrics"]["total_cycles"]
        doc = load_solution(path, graph, DEFAULT_ARCH)
        result = ctx.simulator(doc.dag).run(doc.schedule, doc.placement)
        if result.total_cycles != claimed:
            problems.append(
                f"compile {index}: served solution re-simulates to "
                f"{result.total_cycles} cycles, claims {claimed}"
            )
        unit.sim_cycles += result.total_cycles
        unit.sim_energy_mj += result.energy.total_mj
    return problems


def set_up(name: str, state_dir: Path) -> Callable[[], None]:
    """What ``setup_s`` times after interpreter start: model build and
    search context, or daemon init, socket up and first ping.  Returns
    the untimed teardown."""
    workload = WORKLOADS[name]
    if isinstance(workload, SearchWorkload):
        options = workload.options(0)
        SearchContext.create(
            get_model(workload.model),
            DEFAULT_ARCH,
            dataflow=options.dataflow,
            batch=options.batch,
        )
        return lambda: None
    return LocalDaemon(state_dir).close
