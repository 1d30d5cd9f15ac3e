"""Layered benchmark of the optimizer and its compile service.

Usage, from the repository root (one fresh interpreter per run)::

    python3 perfbench/run.py --workload search-resnet50 --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed:
set-up time (the median of :data:`SETUP_SAMPLES` fresh interpreters),
then whole units of the workload until the next one would overrun
``--seconds`` (always at least one: a unit is one search or one trace
replay, and each takes over half the 10 s ``BENCHMARK.json`` sets, so
a run measures exactly one).  The host probe of :mod:`stats` is
sampled beside the timed operations, and every timing is reported in
the reference seconds it defines, which the host's drift leaves in
place.  ``--trace 1`` runs one unit
untraced and one with the layer wrappers of :mod:`layers`, checks that
both decide bit-identically, and reports the per-layer metrics (in wall
seconds, with the probe sampled only at the start and the end).

Human-readable lines (each metric with its unit and sample count, the
host probe) come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when any correctness check failed and 2 when the program's source
tree is missing.  State directories live under ``.perfbench_run/`` in
the working directory and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = Path(".perfbench_run")

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 5

#: Probe loops timed at the start and at the end of every run, and
#: before and after each set-up sample.
EDGE_PROBE_LOOPS = 30
SETUP_PROBE_LOOPS = 10

#: ``(name, unit)`` of every end-to-end metric an untraced run reports.
END_TO_END = (
    ("setup_s", "s"),
    ("search_s", "s"),
    ("sim_cycles", "cycles"),
    ("sim_energy_mj", "mJ"),
    ("peak_rss_mb", "MB"),
    ("hit_p50_ms", "ms"),
    ("hit_p95_ms", "ms"),
    ("cold_p50_s", "s"),
    ("req_per_s", "req/s"),
)


@contextmanager
def fresh_dir() -> Iterator[Path]:
    """A new, empty state directory, removed afterwards (relative, so
    socket paths stay short)."""
    RUN_DIR.mkdir(exist_ok=True)
    path = Path(os.path.relpath(tempfile.mkdtemp(prefix="u", dir=RUN_DIR)))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure_setup(name: str, probe: stats.HostProbe) -> tuple[float, float, float]:
    """Spawning a fresh interpreter until its ``ready`` line, timed."""
    probe.sample(SETUP_PROBE_LOOPS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", name, "--setup-child"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline() if proc.stdout else ""
        t1 = time.perf_counter()
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    probe.sample(SETUP_PROBE_LOOPS)
    return (t1 - t0, t0, t1)


def setup_child(name: str) -> int:
    import workloads

    with fresh_dir() as state:
        teardown = workloads.set_up(name, state)
        print("ready", flush=True)
        teardown()
    return 0


def run_units(
    name: str, seed: int, seconds: float, probe: stats.HostProbe
) -> list:
    """Whole units until the next would overrun ``seconds`` (at least one)."""
    import workloads

    units = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with fresh_dir() as state:
            units.append(workloads.run_unit(name, seed, state, probe))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return units


def end_to_end(
    units: list, setup: list[tuple[float, float, float]], probe: stats.HostProbe
) -> tuple[dict, list[str]]:
    """The :data:`END_TO_END` values with sample counts, plus problems.

    Timings are in the reference seconds of the run's ``probe``.
    """
    ref = probe.reference
    hits = [ref(t) * 1e3 for u in units for t in u.hits]
    colds = [ref(t) for u in units for t in u.colds]
    summaries = {
        "setup_s": stats.median([ref(t) for t in setup]),
        "search_s": stats.mean([ref(t) for u in units for t in u.searches]),
        "sim_cycles": stats.Summary(float(units[0].sim_cycles), len(units)),
        "sim_energy_mj": stats.Summary(units[0].sim_energy_mj, len(units)),
        "peak_rss_mb": stats.Summary(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "hit_p50_ms": stats.median(hits),
        "hit_p95_ms": stats.tail_percentile(hits, 0.95),
        "cold_p50_s": stats.median(colds),
        "req_per_s": stats.Summary(
            (len(colds) + len(hits)) / (sum(colds) + sum(hits) / 1e3),
            len(colds) + len(hits),
        ),
    }
    problems = [
        f"{name}: not reportable from {s.samples} samples ({s.beyond} beyond)"
        for name, s in summaries.items()
        if s.value is None
    ]
    if any(u.decisions != units[0].decisions for u in units):
        problems.append("repeated units decided differently")
    return summaries, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(workloads.WORKLOADS)})")
    if args.setup_child:
        return setup_child(args.workload)

    probe = stats.HostProbe()
    probe.sample(EDGE_PROBE_LOOPS)
    failures: list[str] = []
    if args.trace:
        with fresh_dir() as state:
            plain = workloads.run_unit(args.workload, args.seed, state)
        rec = layers.Recorder()
        with fresh_dir() as state, layers.traced(rec):
            unit = workloads.run_unit(args.workload, args.seed, state)
        units = [plain, unit]
        if unit.decisions != plain.decisions:
            failures.append("traced run decided differently from untraced run")
        outcomes = unit.outcomes + rec.outcomes
        failures += layers.stats_agreement(rec, [o.search_stats for o in outcomes])
    else:
        setup = [measure_setup(args.workload, probe) for _ in range(SETUP_SAMPLES)]
        units = run_units(args.workload, args.seed, args.seconds, probe)
    probe.sample(EDGE_PROBE_LOOPS)
    with fresh_dir() as scratch:
        for u in units:
            failures += u.failures + workloads.check(u, scratch)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)}")
    if args.trace:
        values = layers.layer_metrics(
            rec, unit.window, outcomes, unit.requests, len(unit.colds),
            unit.daemon_stats, plain.wall_s, probe.median_ms(),
        )
        metrics = {
            name: {"value": float(values[name]), "unit": unit_name}
            for name, unit_name in layers.PER_LAYER
        }
        for name, m in metrics.items():
            print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    else:
        summaries, problems = end_to_end(units, setup, probe)
        failures += problems
        metrics = {
            name: {"value": summaries[name].value, "unit": unit_name}
            for name, unit_name in END_TO_END
            if summaries[name].value is not None
        }
        for name, unit_name in END_TO_END:
            s = summaries[name]
            shown = "-" if s.value is None else f"{s.value:.6g}"
            print(f"  {name:<14} {shown:>14} {unit_name:<6} "
                  f"({s.samples} samples)")
    print(f"  host.probe_ms {probe.median_ms():.4f} (median of {len(probe.loops)} "
          f"loops; {stats.REF_LOOP_MS} ms is one reference second per second)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(u.attempted for u in units),
        "failed": len(failures),
        "metrics": metrics,
    }))
    if RUN_DIR.is_dir() and not any(RUN_DIR.iterdir()):
        RUN_DIR.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
