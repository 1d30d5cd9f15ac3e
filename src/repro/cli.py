"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``models`` — list the model zoo and Table I characteristics.
* ``optimize`` — run the atomic-dataflow framework on one workload and
  print the solution (optionally save it as JSON).
* ``compare`` — run AD and the baselines on one workload, print the table.
* ``dse`` — engine-grid design-space sweep under a fixed silicon budget.
* ``check`` — static verification: lint the codebase, validate a saved
  solution artifact, or run the analysis self-check
  (see :mod:`repro.analysis`).
* ``serve`` — run the compile service daemon on a unix socket
  (see :mod:`repro.service`).
* ``submit`` — submit one compile to a running daemon and (by default)
  wait for the result.
* ``jobs`` — list a daemon's jobs, print its stats, or cancel a job.
* ``cache`` — inspect or garbage-collect a solution store directory
  offline (``ls`` / ``info`` / ``gc``).
* ``profile`` — re-simulate a saved solution with timeline collection
  and print its per-engine occupancy breakdown (optionally exporting a
  Chrome/Perfetto trace; see :mod:`repro.obs`).
* ``bench`` — run the pinned benchmark scenarios and gate them against
  the committed ``BENCH.json`` ledger (see :mod:`repro.bench`).

``repro -v`` raises library log verbosity (``-vv`` for per-candidate
debug events); ``repro optimize --profile out.json`` records a span
trace of the whole search and writes it as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.atoms.generation import SAParams
from repro.baselines import (
    ideal_result,
    run_cnn_partition,
    run_il_pipe,
    run_layer_sequential,
    run_rammer,
)
from repro.config import ArchConfig
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import available_models, characterize, get_model
from repro.obs import configure_logging
from repro.resilience import CheckpointError
from repro.report import (
    comparison_table,
    render_gantt,
    search_trace_table,
    summarize_schedule,
)
from repro.serialize import save_search_trace, save_solution


def parse_mesh(spec: str) -> tuple[int, int]:
    """An ``RxC`` engine-grid option value as ``(rows, cols)``."""
    try:
        rows, cols = spec.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mesh must look like 4x4, got {spec!r}"
        ) from None


def _arch_from_args(args: argparse.Namespace) -> ArchConfig:
    rows, cols = args.mesh
    return ArchConfig(mesh_rows=rows, mesh_cols=cols)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model zoo name")
    p.add_argument(
        "--mesh", type=parse_mesh, default=(4, 4),
        help="engine grid, e.g. 8x8 (default 4x4)",
    )
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--dataflow", choices=("kc", "yx", "kcw"), default="kc")
    p.add_argument(
        "--sa-iterations", type=int, default=120,
        help="simulated-annealing iteration budget",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--restarts", type=int, default=1,
        help="independent SA restarts (the outer Fig. 4(b) loop): chains "
        "that never exchange",
    )
    p.add_argument(
        "--rungs", type=int, default=0,
        help="parallel-tempering temperature rungs: chains that exchange "
        "configurations (instead of --restarts; 0 = disabled)",
    )
    p.add_argument(
        "--exchange-every", type=int, default=25, metavar="ITERS",
        help="iterations per tempering segment between neighbor-rung "
        "swap proposals (default 25)",
    )
    p.add_argument(
        "--portfolio", choices=("mixed", "exponential", "linear"),
        default="mixed",
        help="tempering proposal portfolio: which cooling-schedule family "
        "the rungs run (mixed alternates by rung parity)",
    )
    p.add_argument(
        "--sa-schedule", choices=("exponential", "linear"),
        default="exponential",
        help="cooling schedule of the plain (non-tempering) annealer",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for candidate fan-out (1 = inline; any "
        "value decides identically)",
    )


def _options_from_args(
    args: argparse.Namespace, **overrides
) -> OptimizerOptions:
    """The optimizer options the shared search flags describe.

    Raises:
        ValueError: On an inconsistent flag combination (e.g. both
            ``--restarts`` and ``--rungs``); commands print it and exit 2.
    """
    return OptimizerOptions(
        dataflow=args.dataflow,
        batch=args.batch,
        scheduler=args.scheduler,
        sa_params=SAParams(
            max_iterations=args.sa_iterations, schedule=args.sa_schedule
        ),
        seed=args.seed,
        restarts=args.restarts,
        rungs=args.rungs,
        exchange_every=args.exchange_every,
        portfolio=args.portfolio,
        jobs=args.jobs,
        **overrides,
    )


def _cmd_models(args: argparse.Namespace) -> int:
    print(f"{'name':<22}{'layers':>8}{'params':>12}{'GMACs':>9}  class")
    for name in available_models():
        info = characterize(name)
        print(
            f"{name:<22}{info.num_layers:>8}"
            f"{info.num_params / 1e6:>11.1f}M"
            f"{info.total_macs / 1e9:>9.2f}  {info.characteristics}"
        )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    arch = _arch_from_args(args)
    graph = get_model(args.model)
    try:
        options = _options_from_args(
            args,
            retries=args.retries,
            candidate_timeout_s=args.candidate_timeout,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.profile:
        from repro.obs import enable_tracing, reset_registry

        enable_tracing()
        reset_registry()
    try:
        return _run_optimize(args, arch, graph, options)
    finally:
        if args.profile:
            from repro.obs import disable_tracing

            disable_tracing()


def _run_optimize(
    args: argparse.Namespace,
    arch: ArchConfig,
    graph,
    options: OptimizerOptions,
) -> int:
    try:
        outcome = AtomicDataflowOptimizer(graph, arch, options).optimize()
    except CheckpointError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "\ninterrupted before any candidate completed; nothing to "
            "report"
            + (
                f" (completed candidates remain in {args.checkpoint}; "
                "re-run with --resume)"
                if args.checkpoint
                else ""
            ),
            file=sys.stderr,
        )
        return 130
    r = outcome.result
    stats = outcome.search_stats
    summary = summarize_schedule(outcome.dag, outcome.schedule, arch.num_engines)
    if outcome.interrupted:
        print(
            "search interrupted — reporting best-so-far partial results"
            + (
                f" ({args.checkpoint} holds the completed candidates; "
                "re-run with --resume to finish)"
                if args.checkpoint
                else ""
            )
            + "\n"
        )
    print(
        f"{graph.name} on {arch.mesh_rows}x{arch.mesh_cols} engines "
        f"({args.dataflow.upper()}-Partition, batch {args.batch})\n"
        f"  candidates        : {stats.evaluated}/{stats.candidates} evaluated"
        f" ({stats.deduplicated} deduplicated, jobs {args.jobs})\n"
        f"  search time       : {outcome.search_seconds:.1f} s\n"
        f"  atoms / rounds    : {outcome.dag.num_atoms} / {summary.num_rounds}\n"
        f"  engine occupancy  : {summary.mean_occupancy:.1%}"
        f" ({summary.layers_per_round:.1f} layers/round)\n"
        f"  latency           : {r.latency_ms:.3f} ms"
        f" ({r.throughput_fps:.1f} fps)\n"
        f"  PE utilization    : {r.pe_utilization:.1%}\n"
        f"  on-chip reuse     : {r.onchip_reuse_ratio:.1%}\n"
        f"  NoC blocking      : {r.noc_overhead_fraction:.1%}\n"
        f"  energy            : {r.energy.total_mj:.2f} mJ"
    )
    if (
        stats.failed
        or stats.interrupted
        or stats.restored
        or stats.retry_attempts
        or outcome.pool_restarts
        or outcome.degraded_to_serial
    ):
        notes = [
            f"{stats.failed} failed",
            f"{stats.restored} restored from checkpoint",
            f"{stats.retry_attempts} retr{'y' if stats.retry_attempts == 1 else 'ies'}",
            f"{outcome.pool_restarts} pool restart(s)",
        ]
        if stats.interrupted:
            notes.append(f"{stats.interrupted} interrupted")
        if outcome.degraded_to_serial:
            notes.append("degraded to serial execution")
        print(f"  resilience        : {', '.join(notes)}")
    if args.gantt:
        print()
        print(
            render_gantt(
                outcome.dag, outcome.schedule, outcome.placement,
                arch.num_engines, max_rounds=args.gantt,
            )
        )
    if args.trace:
        print()
        print(search_trace_table(outcome.traces, outcome.search_seconds))
        save_search_trace(outcome, args.trace, workload=graph.name)
        print(f"\nsearch trace written to {args.trace}")
    if args.save:
        save_solution(outcome, args.save, dataflow=args.dataflow)
        print(f"\nsolution written to {args.save}")
    if args.profile:
        _export_profile(args, arch, outcome)
    return 130 if outcome.interrupted else 0


def _export_profile(
    args: argparse.Namespace, arch: ArchConfig, outcome
) -> None:
    """Drain the run's spans/metrics and write the Chrome trace."""
    from repro.obs import (
        MetricsSnapshot,
        drain_observations,
        flamegraph_summary,
        metrics_summary,
        trace_to_chrome,
    )
    from repro.sim import simulate_timeline

    # Re-simulate the winner with timeline collection so the trace also
    # carries the simulated-time view (engines, rounds, NoC, HBM); the
    # sim.* spans it emits land in the same drain below.
    _, timeline = simulate_timeline(
        arch,
        outcome.dag,
        outcome.schedule,
        outcome.placement,
        strategy=outcome.result.strategy,
    )
    spans, metrics = drain_observations()
    trace_to_chrome(
        args.profile,
        spans,
        timeline,
        metadata={
            "workload": outcome.result.workload,
            "mesh": f"{arch.mesh_rows}x{arch.mesh_cols}",
            "jobs": args.jobs,
            "seed": args.seed,
        },
    )
    print(f"\nprofile written to {args.profile} ({len(spans)} span(s))")
    print("\n" + flamegraph_summary(spans))
    print("\n" + metrics_summary(MetricsSnapshot.from_dict(metrics)))


def _cmd_compare(args: argparse.Namespace) -> int:
    arch = _arch_from_args(args)
    graph = get_model(args.model)
    try:
        options = _options_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    results = [
        AtomicDataflowOptimizer(graph, arch, options).optimize().result,
        run_layer_sequential(graph, arch, args.dataflow, args.batch),
        run_cnn_partition(graph, arch, args.dataflow, args.batch),
        run_il_pipe(graph, arch, args.dataflow, args.batch),
        run_rammer(graph, arch, args.dataflow, args.batch),
        ideal_result(graph, arch, args.dataflow, args.batch),
    ]
    print(comparison_table(results))
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.config import EngineConfig

    graph = get_model(args.model)
    try:
        options = _options_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rows, cols = args.budget_mesh
    budget = ArchConfig(
        mesh_rows=1,
        mesh_cols=1,
        engine=EngineConfig(
            pe_rows=rows * 16, pe_cols=cols * 16,
            buffer_bytes=rows * cols * 128 * 1024,
        ),
    )
    print(
        f"budget: {budget.total_pes} PEs, "
        f"{budget.total_buffer_bytes // 1024} KB SRAM"
    )
    grids = [(1, 1), (2, 2), (4, 4), (8, 8)]
    best = None
    for gr, gc in grids:
        try:
            arch = budget.repartitioned(gr, gc)
        except ValueError:
            continue
        r = AtomicDataflowOptimizer(graph, arch, options).optimize().result
        if best is None or r.total_cycles < best[1]:
            best = (f"{gr}x{gc}", r.total_cycles)
        print(
            f"  {gr}x{gc}: {r.total_cycles:>10} cycles "
            f"(util {r.pe_utilization:.1%})"
        )
    assert best is not None
    print(f"sweet spot: {best[0]}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    arch = _arch_from_args(args)
    graph = get_model(args.model)
    from repro.analysis import check_timeline
    from repro.serialize import load_solution
    from repro.sim import simulate_timeline

    try:
        sol = load_solution(args.solution, graph, arch)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load {args.solution}: {exc}", file=sys.stderr)
        return 2
    result, timeline = simulate_timeline(
        arch, sol.dag, sol.schedule, sol.placement, strategy=args.strategy
    )

    print(
        f"{graph.name} on {arch.mesh_rows}x{arch.mesh_cols} engines "
        f"(batch {sol.batch}, {len(timeline.rounds)} rounds, "
        f"{result.total_cycles} cycles)"
    )
    print(f"{'engine':>8}{'busy':>10}{'stall':>10}{'idle':>10}")
    for acc in timeline.accounting():
        total = acc.total_cycles or 1
        print(
            f"{acc.engine:>8}"
            f"{acc.busy_cycles / total:>10.1%}"
            f"{acc.stall_cycles / total:>10.1%}"
            f"{acc.idle_cycles / total:>10.1%}"
        )
    bound: dict[str, int] = {}
    for rw in timeline.rounds:
        bound[rw.bound_by] = bound.get(rw.bound_by, 0) + 1
    bound_txt = ", ".join(
        f"{n} {k}-bound" for k, n in sorted(bound.items())
    )
    print(f"  rounds            : {bound_txt}")
    if timeline.hbm:
        utils = [hs.utilization for hs in timeline.hbm]
        print(
            f"  HBM utilization   : mean {sum(utils) / len(utils):.1%}, "
            f"peak {max(utils):.1%}"
        )
    print(f"  PE utilization    : {timeline.pe_utilization():.1%}")

    report = check_timeline(timeline, result=result)
    if report.ok:
        print("  timeline check    : clean (AD701-AD703)")
    else:
        print("\n" + report.render(), file=sys.stderr)
    if args.out:
        from repro.obs import trace_to_chrome

        trace_to_chrome(
            args.out,
            timeline=timeline,
            metadata={
                "workload": graph.name,
                "mesh": f"{arch.mesh_rows}x{arch.mesh_cols}",
                "solution": args.solution,
            },
        )
        print(f"\ntimeline trace written to {args.out}")
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the :mod:`repro.analysis` CLI on the ``check`` arguments."""
    from repro.analysis.__main__ import main as analysis_main

    return analysis_main(args.analysis_argv, prog="repro check")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile-service daemon (blocks until shutdown)."""
    from repro.obs.tracer import ensure_tracing
    from repro.service import ReproService, serve, socket_path_problem

    # Traced serving is the production mode: per-job span trees cost
    # microseconds per span and `repro jobs --trace` depends on them.
    ensure_tracing()

    quotas: dict[str, int] = {}
    for spec in args.tenant_quota or ():
        try:
            tenant, quota = spec.rsplit("=", 1)
            quotas[tenant] = int(quota)
        except ValueError:
            print(f"--tenant-quota must look like NAME=N, got {spec!r}",
                  file=sys.stderr)
            return 2
    socket_path = args.socket or str(Path(args.state) / "repro.sock")
    problem = socket_path_problem(socket_path)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    try:
        service = ReproService(
            args.state,
            jobs=args.jobs,
            store_capacity_bytes=args.store_max_bytes,
            max_queue_depth=args.max_queue_depth,
            default_quota=args.quota,
            quotas=quotas,
            session_capacity=args.session_capacity,
            runners=args.runners,
            max_job_attempts=args.max_attempts,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        serve(
            service,
            socket_path,
            drain_timeout_s=args.drain_timeout,
            metrics_port=args.metrics_port,
        )
    except KeyboardInterrupt:
        return 130
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one compile to a running daemon."""
    from repro.service import CompileRequest, ServeClient, ServiceError

    try:
        request = CompileRequest(
            model=args.model,
            arch=_arch_from_args(args),
            options=_options_from_args(args),
            tenant=args.tenant,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        client = ServeClient(args.socket)
    except ValueError as exc:
        # e.g. a socket path over the sun_path limit.
        print(str(exc), file=sys.stderr)
        return 2
    try:
        submitted = client.submit(request)
        print(
            f"{submitted['job_id']}: {submitted['state']} "
            f"(source {submitted['source']})"
        )
        if args.no_wait:
            return 0
        job = client.wait(submitted["job_id"], timeout_s=args.timeout)
        if job["state"] != "done":
            print(
                f"{job['job_id']}: {job['state']}"
                + (f" — {job['error']}" if job.get("error") else ""),
                file=sys.stderr,
            )
            return 1
        result = client.result(job["job_id"])
        print(
            f"{job['job_id']}: done (source {job['source']}, "
            f"{result['total_cycles']} cycles, "
            f"{job['search_seconds']:.2f}s of search)"
        )
        if args.out:
            # Write the daemon's bytes verbatim: the saved document is
            # byte-identical to what the original search stored.
            Path(args.out).write_bytes(result["solution_json"].encode("utf-8"))
            print(f"solution written to {args.out}")
        return 0
    except (ServiceError, TimeoutError) as exc:
        code = getattr(exc, "code", "timeout")
        print(f"{code}: {exc}", file=sys.stderr)
        return 3 if code in ("queue-full", "quota-exceeded") else 1
    except OSError as exc:
        print(f"cannot reach daemon at {args.socket}: {exc}", file=sys.stderr)
        return 1


def _print_latency_quantiles(latency: dict) -> None:
    """Render the service SLO histograms as a p50/p95/p99 table."""
    if not latency:
        print("latency: no observations yet")
        return
    print("latency quantiles (seconds):")
    print(
        f"  {'histogram':<14}{'count':>7}{'mean':>9}{'p50':>9}"
        f"{'p95':>9}{'p99':>9}{'max':>9}"
    )
    for name in sorted(latency):
        q = latency[name]
        print(
            f"  {name:<14}{int(q['count']):>7}{q['mean']:>9.4f}"
            f"{q['p50']:>9.4f}{q['p95']:>9.4f}{q['p99']:>9.4f}"
            f"{q['max']:>9.4f}"
        )


def _cmd_jobs(args: argparse.Namespace) -> int:
    """List jobs / print stats / cancel on a running daemon."""
    import json as _json

    from repro.service import ServeClient, ServiceError
    from repro.service.daemon import LATENCY_PREFIX

    try:
        client = ServeClient(args.socket)
    except ValueError as exc:
        # e.g. a socket path over the sun_path limit.
        print(str(exc), file=sys.stderr)
        return 2
    try:
        if args.cancel:
            cancelled = client.cancel(args.cancel)
            print(f"{cancelled['job_id']}: {cancelled['state']}")
            return 0
        if args.trace:
            from repro.obs.export import trace_to_chrome
            from repro.obs.tracer import SpanRecord

            doc = client.trace(args.trace)
            spans = [SpanRecord.from_dict(s) for s in doc["spans"]]
            if not spans:
                print(f"{args.trace}: no trace recorded "
                      f"(daemon running untraced?)", file=sys.stderr)
                return 1
            out = args.out or f"{args.trace}.trace.json"
            trace_to_chrome(
                out,
                spans=spans,
                metadata={
                    "job_id": doc["job_id"],
                    "trace_id": doc.get("trace_id"),
                },
            )
            print(
                f"{args.trace}: {len(spans)} span(s) "
                f"(trace {doc.get('trace_id')}) written to {out}"
            )
            return 0
        if args.stats:
            stats = client.stats()
            latency = stats.pop("latency", {})
            print(_json.dumps(stats, indent=2, sort_keys=True))
            _print_latency_quantiles(latency)
            return 0
        if args.health:
            health = client.health()
            latency = health.pop("latency", {})
            metrics = health.get("metrics", {})
            # The quantile table replaces the raw bucket dicts.
            metrics["histograms"] = {
                name: hist
                for name, hist in metrics.get("histograms", {}).items()
                if not name.startswith(LATENCY_PREFIX)
            }
            print(_json.dumps(health, indent=2, sort_keys=True))
            _print_latency_quantiles(latency)
            return 0
        if args.drain:
            drained = client.drain(timeout_s=args.timeout)
            print(
                f"drained: {drained['queued']} job(s) requeued for the "
                f"successor daemon"
            )
            return 0
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
            return 0
        print(
            f"{'job':<12}{'state':<11}{'source':<11}{'tenant':<10}"
            f"{'cycles':>12}  model"
        )
        for job in jobs:
            cycles = job["total_cycles"]
            print(
                f"{job['job_id']:<12}{job['state']:<11}{job['source']:<11}"
                f"{job['tenant']:<10}"
                f"{cycles if cycles is not None else '-':>12}  {job['model']}"
            )
        return 0
    except ServiceError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach daemon at {args.socket}: {exc}", file=sys.stderr)
        return 1


def _cmd_cache(args: argparse.Namespace) -> int:
    """Offline solution-store inspection (daemon not required)."""
    from repro.service import SolutionStore

    store = SolutionStore(args.store)
    if args.cache_command == "ls":
        entries = store.ls()
        if not entries:
            print("store is empty")
            return 0
        print(f"{'fingerprint':<18}{'bytes':>10}{'hits':>6}{'cycles':>12}  workload")
        for e in entries:
            print(
                f"{e.fingerprint[:16] + '..':<18}{e.size_bytes:>10}"
                f"{e.hits:>6}{e.total_cycles:>12}  {e.workload}"
            )
        print(f"total: {len(entries)} entr(ies), {store.total_bytes} bytes")
        return 0
    if args.cache_command == "info":
        matches = [
            e for e in store.ls() if e.fingerprint.startswith(args.fingerprint)
        ]
        if not matches:
            print(f"no entry matches {args.fingerprint!r}", file=sys.stderr)
            return 1
        if len(matches) > 1:
            print(f"{args.fingerprint!r} is ambiguous "
                  f"({len(matches)} matches)", file=sys.stderr)
            return 1
        e = matches[0]
        print(
            f"fingerprint : {e.fingerprint}\n"
            f"workload    : {e.workload}\n"
            f"cycles      : {e.total_cycles}\n"
            f"bytes       : {e.size_bytes}\n"
            f"sha256      : {e.sha256}\n"
            f"hits        : {e.hits}\n"
            f"created seq : {e.created_seq}\n"
            f"last access : {e.last_access}"
        )
        return 0
    # gc
    before = store.total_bytes
    evicted = store.gc(args.max_bytes)
    print(
        f"evicted {len(evicted)} entr(ies), "
        f"{before - store.total_bytes} bytes freed "
        f"({store.total_bytes} bytes remain)"
    )
    return 0


def _bench_scenario(name: str) -> str:
    from repro.bench import SCENARIOS

    if name not in SCENARIOS:
        raise argparse.ArgumentTypeError(
            f"unknown scenario {name!r} (choose from {', '.join(SCENARIOS)})"
        )
    return name


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run pinned benchmark scenarios (see :mod:`repro.bench`)."""
    from repro.bench import run_bench

    return run_bench(args.scenarios or ["perf"], args.check, args.out)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Atomic dataflow workload orchestration (HPCA 2022).",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise library log verbosity (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo")

    p_opt = sub.add_parser("optimize", help="optimize one workload")
    _add_common(p_opt)
    p_opt.add_argument(
        "--scheduler", choices=("dp", "greedy", "exact"), default="dp"
    )
    p_opt.add_argument(
        "--gantt", type=int, default=0, metavar="ROUNDS",
        help="print an engine-occupancy chart for the first N rounds",
    )
    p_opt.add_argument("--save", help="write the solution JSON here")
    p_opt.add_argument(
        "--trace", metavar="PATH",
        help="print the per-candidate search trace and write it as JSON",
    )
    p_opt.add_argument(
        "--retries", type=int, default=1,
        help="re-evaluations granted per candidate after a transient "
        "failure (default 1)",
    )
    p_opt.add_argument(
        "--candidate-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any candidate evaluation exceeding this many "
        "seconds (worker pools only; default: no timeout)",
    )
    p_opt.add_argument(
        "--checkpoint", metavar="JSONL",
        help="journal completed candidates to this file as the search runs",
    )
    p_opt.add_argument(
        "--resume", action="store_true",
        help="restore completed candidates from --checkpoint instead of "
        "re-evaluating them",
    )
    p_opt.add_argument(
        "--profile", metavar="JSON",
        help="record a span trace of the search and write it as "
        "Chrome/Perfetto trace-event JSON (decisions stay bit-identical)",
    )

    p_cmp = sub.add_parser("compare", help="AD vs all baselines")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--scheduler", choices=("dp", "greedy", "exact"), default="dp"
    )

    p_dse = sub.add_parser("dse", help="engine-grid design-space sweep")
    _add_common(p_dse)
    p_dse.set_defaults(scheduler="greedy")
    p_dse.add_argument(
        "--budget-mesh", type=parse_mesh, default=(4, 4),
        help="budget expressed as an equivalent engine grid (default 4x4)",
    )

    p_prof = sub.add_parser(
        "profile", help="re-simulate a saved solution with a timeline"
    )
    p_prof.add_argument("--model", required=True, help="model zoo name")
    p_prof.add_argument(
        "--mesh", type=parse_mesh, default=(4, 4),
        help="engine grid the solution targets (default 4x4)",
    )
    p_prof.add_argument(
        "--solution", required=True, metavar="JSON",
        help="solution file written by `repro optimize --save`",
    )
    p_prof.add_argument(
        "--strategy", default="AD",
        help="strategy label for the re-simulation (default AD)",
    )
    p_prof.add_argument(
        "--out", metavar="JSON",
        help="also write the timeline as Chrome trace-event JSON",
    )

    p_bench = sub.add_parser(
        "bench", help="pinned benchmark scenarios (BENCH.json ledger)"
    )
    p_bench.add_argument(
        "scenarios", nargs="*", type=_bench_scenario, metavar="SCENARIO",
        help="perf, tempering, serve, or profile (default: perf)",
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="gate every fresh row (vs the committed BENCH.json where a "
        "reference applies); exit 1 on any problem",
    )
    p_bench.add_argument(
        "--out", metavar="JSON",
        help="merge the fresh rows into this ledger file (BENCH.json "
        "refreshes the committed one)",
    )

    p_srv = sub.add_parser(
        "serve", help="run the compile-service daemon (unix socket)"
    )
    p_srv.add_argument(
        "--state", required=True, metavar="DIR",
        help="durable state directory (store, job journal, checkpoints)",
    )
    p_srv.add_argument(
        "--socket", metavar="PATH",
        help="unix socket path (default: <state>/repro.sock)",
    )
    p_srv.add_argument(
        "--jobs", type=int, default=1,
        help="default worker processes per search (requests asking for "
        "more keep their own setting)",
    )
    p_srv.add_argument(
        "--store-max-bytes", type=int, default=None, metavar="BYTES",
        help="solution-store LRU capacity (default: unbounded)",
    )
    p_srv.add_argument(
        "--max-queue-depth", type=int, default=16,
        help="total in-flight job cap (default 16)",
    )
    p_srv.add_argument(
        "--quota", type=int, default=4,
        help="per-tenant in-flight job cap (default 4)",
    )
    p_srv.add_argument(
        "--tenant-quota", action="append", metavar="NAME=N",
        help="override the quota for one tenant (repeatable)",
    )
    p_srv.add_argument(
        "--session-capacity", type=int, default=4,
        help="warm compile sessions kept alive (default 4)",
    )
    p_srv.add_argument(
        "--runners", type=int, default=1,
        help="supervised runner threads executing jobs (default 1); "
        "results are byte-identical at any runner count",
    )
    p_srv.add_argument(
        "--max-attempts", type=int, default=3,
        help="lease attempts per job before it fails for good (default 3)",
    )
    p_srv.add_argument(
        "--drain-timeout", type=float, default=60.0,
        help="seconds a SIGTERM drain waits for running jobs (default 60)",
    )
    p_srv.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve read-only /metrics (Prometheus), /healthz, and /jobs "
        "over HTTP on 127.0.0.1:PORT (0 = ephemeral; default: off)",
    )

    p_sub = sub.add_parser(
        "submit", help="submit one compile to a running daemon"
    )
    _add_common(p_sub)
    p_sub.add_argument(
        "--scheduler", choices=("dp", "greedy", "exact"), default="dp"
    )
    p_sub.add_argument(
        "--socket", required=True, metavar="PATH",
        help="the daemon's unix socket",
    )
    p_sub.add_argument("--tenant", default="default")
    p_sub.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return instead of waiting",
    )
    p_sub.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for the result (default 600)",
    )
    p_sub.add_argument("--out", metavar="JSON",
                       help="write the solution document here (byte-exact)")

    p_jobs = sub.add_parser(
        "jobs", help="list a daemon's jobs / stats / cancel one"
    )
    p_jobs.add_argument(
        "--socket", required=True, metavar="PATH",
        help="the daemon's unix socket",
    )
    p_jobs.add_argument(
        "--stats", action="store_true", help="print daemon stats as JSON"
    )
    p_jobs.add_argument(
        "--health", action="store_true",
        help="print runner liveness, live leases, and lease stats as JSON",
    )
    p_jobs.add_argument(
        "--drain", action="store_true",
        help="gracefully drain the daemon (it exits once drained)",
    )
    p_jobs.add_argument(
        "--timeout", type=float, default=60.0,
        help="seconds --drain waits for running jobs (default 60)",
    )
    p_jobs.add_argument("--cancel", metavar="JOB", help="cancel a queued job")
    p_jobs.add_argument(
        "--trace", metavar="JOB",
        help="export the job's stitched span tree as a Chrome/Perfetto "
        "trace (see --out)",
    )
    p_jobs.add_argument(
        "--out", metavar="JSON",
        help="output path for --trace (default: <JOB>.trace.json)",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect / garbage-collect a solution store (offline)"
    )
    p_cache.add_argument(
        "--store", required=True, metavar="DIR",
        help="store directory (<state>/store under a serve state dir)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("ls", help="list entries, most recently used first")
    p_cinfo = cache_sub.add_parser("info", help="show one entry")
    p_cinfo.add_argument("fingerprint", help="fingerprint (prefix ok)")
    p_cgc = cache_sub.add_parser("gc", help="evict LRU entries over a cap")
    p_cgc.add_argument("--max-bytes", type=int, required=True)

    # Every `repro check` argument belongs to `python -m repro.analysis`
    # and is handed to it unparsed (see main).
    sub.add_parser(
        "check", add_help=False,
        help="static verification (lint / artifact validation); takes "
        "the arguments of python -m repro.analysis",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "check":
        args.analysis_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    configure_logging(args.verbose)
    handlers = {
        "models": _cmd_models,
        "optimize": _cmd_optimize,
        "compare": _cmd_compare,
        "dse": _cmd_dse,
        "check": _cmd_check,
        "profile": _cmd_profile,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "cache": _cmd_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
