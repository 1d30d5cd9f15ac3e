"""Pinned tempering-vs-restarts quality benchmark (``tools/pt_smoke.py``).

The parallel-tempering ladder replaces independent SA restarts; this
benchmark pins the claim that justifies it — on the pinned workloads the
tempered search finds a **better** ``total_cycles`` than ``restarts=8``
without spending more wall time.  For every entry in :data:`WORKLOADS`
it runs both searches serially on the paper's default 8x8 platform and
records cycles, wall seconds, and exchange statistics.

The committed ``BENCH_pt.json`` is the reference; CI re-runs with
``--check`` and fails when

* either search's ``total_cycles`` drifts at all (both search paths are
  bit-exact given their pinned seeds), or
* tempering stops beating restarts on a workload it is committed to
  beat, or
* tempering's wall time exceeds the restarts wall time by more than
  ``--wall-slack`` (default 10%) on such a workload.

The two arms are timed as :data:`PAIRS` adjacent pairs in alternating
order (restarts first, then tempering first, ...), so slow drift of
the host hits both arms alike; the wall gate compares the *median* of
the per-pair tempering/restarts ratios, so one noisy pair cannot decide
it.  Wall seconds are honest measurements of the machine they ran on
(the report carries ``cpu_count`` and each arm's median); only the
cycle counts are pinned.

Also gated here: the determinism contract — every repeat of an arm
must decide bit-identically, and the pinned tempered search re-run with
``jobs=2`` must produce the same decision traces and solution as the
serial run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import replace
from typing import Any

from repro.atoms.generation import SAParams
from repro.config import DEFAULT_ARCH
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import get_model

#: Pinned comparisons: (model, portfolio, sa_iterations, expect_win).
#: ``expect_win`` entries are the committed quality claim — tempering
#: must beat restarts=8 there; the rest are tracked but not gated.
WORKLOADS: tuple[tuple[str, str, int, bool], ...] = (
    ("vgg19_bench", "exponential", 200, True),
    ("resnet50_bench", "exponential", 200, True),
    ("efficientnet_bench", "exponential", 200, True),
    ("resnet152_bench", "mixed", 200, True),
    ("mobilenet_v2_bench", "exponential", 200, False),
)

RUNGS = 8
RESTARTS = 8
SEED = 0

#: Adjacent restarts/tempering timing pairs per workload (odd, so the
#: median ratio is one pair's ratio).
PAIRS = 3


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


def run_pair(
    model: str, portfolio: str, iterations: int, expect_win: bool
) -> dict:
    """Run restarts vs tempering on one workload and summarize."""
    graph = get_model(model)
    arms = {
        "restarts": OptimizerOptions(restarts=RESTARTS, seed=SEED, jobs=1),
        "tempering": OptimizerOptions(
            rungs=RUNGS, seed=SEED, jobs=1, portfolio=portfolio,
            sa_params=SAParams(max_iterations=iterations),
        ),
    }
    first: dict[str, Any] = {}
    walls: dict[str, list[float]] = {arm: [] for arm in arms}
    repeats_identical = True
    for pair in range(PAIRS):
        order = list(arms) if pair % 2 == 0 else list(reversed(arms))
        for arm in order:
            t0 = time.perf_counter()
            outcome = AtomicDataflowOptimizer(
                graph, DEFAULT_ARCH, arms[arm]
            ).optimize()
            walls[arm].append(time.perf_counter() - t0)
            if arm in first:
                repeats_identical &= _same(outcome, first[arm])
            else:
                first[arm] = outcome
    restarts, tempered = first["restarts"], first["tempering"]
    ratios = [t / r for r, t in zip(walls["restarts"], walls["tempering"])]

    # Determinism leg: the same tempered search fanned across two
    # workers must decide bit-identically.
    parallel = AtomicDataflowOptimizer(
        graph, DEFAULT_ARCH, replace(arms["tempering"], jobs=2)
    ).optimize()

    swaps = sum(t.swaps_accepted for t in tempered.traces) // 2
    proposed = sum(t.swaps_proposed for t in tempered.traces) // 2
    return {
        "model": model,
        "portfolio": portfolio,
        "sa_iterations": iterations,
        "expect_win": expect_win,
        "restarts": {
            "total_cycles": restarts.result.total_cycles,
            "wall_seconds": round(statistics.median(walls["restarts"]), 3),
            "evaluated": restarts.search_stats.evaluated,
        },
        "tempering": {
            "total_cycles": tempered.result.total_cycles,
            "wall_seconds": round(statistics.median(walls["tempering"]), 3),
            "evaluated": tempered.search_stats.evaluated,
            "swaps_accepted": swaps,
            "swaps_proposed": proposed,
        },
        "wall_ratios": [round(r, 4) for r in ratios],
        "wall_ratio": round(statistics.median(ratios), 4),
        "cycles_improvement": round(
            1.0
            - tempered.result.total_cycles / restarts.result.total_cycles,
            4,
        ),
        "repeats_bit_identical": repeats_identical,
        "jobs2_bit_identical": _same(parallel, tempered),
    }


def run_benchmark() -> dict:
    rows = [run_pair(*w) for w in WORKLOADS]
    return {
        "benchmark": "pt-smoke",
        "arch": f"{DEFAULT_ARCH.mesh_rows}x{DEFAULT_ARCH.mesh_cols} default",
        "rungs": RUNGS,
        "restarts": RESTARTS,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "workloads": rows,
        "wins": sum(
            r["tempering"]["total_cycles"] < r["restarts"]["total_cycles"]
            for r in rows
        ),
    }


def check_against(
    report: dict, reference: dict, wall_slack: float
) -> list[str]:
    """Regression verdicts of a fresh run vs the committed reference."""
    problems: list[str] = []
    ref_rows = {r["model"]: r for r in reference["workloads"]}
    for row in report["workloads"]:
        model = row["model"]
        ref = ref_rows.get(model)
        if ref is None:
            problems.append(f"{model}: not in committed reference")
            continue
        for arm in ("restarts", "tempering"):
            got = row[arm]["total_cycles"]
            want = ref[arm]["total_cycles"]
            if got != want:
                problems.append(
                    f"{model}: {arm} total_cycles drifted "
                    f"{got} != committed {want}"
                )
        if not row["repeats_bit_identical"]:
            problems.append(f"{model}: a repeated run diverged from the first")
        if not row["jobs2_bit_identical"]:
            problems.append(
                f"{model}: tempering jobs=2 diverged from jobs=1"
            )
        if not row["expect_win"]:
            continue
        if row["tempering"]["total_cycles"] >= row["restarts"]["total_cycles"]:
            problems.append(
                f"{model}: tempering lost the committed quality win "
                f"({row['tempering']['total_cycles']} >= "
                f"{row['restarts']['total_cycles']})"
            )
        if row["wall_ratio"] > 1.0 + wall_slack:
            problems.append(
                f"{model}: median tempering/restarts wall ratio "
                f"{row['wall_ratio']:.3f} (pairs {row['wall_ratios']}) "
                f"exceeds 1 + {wall_slack:.0%}"
            )
    wins = report["wins"]
    committed = sum(1 for w in WORKLOADS if w[3])
    if wins < committed:
        problems.append(
            f"only {wins} quality win(s); {committed} committed"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pt_smoke", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--out", default="BENCH_pt.json", help="report JSON path"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed --out file instead of "
        "rewriting it; exit 1 on drift, a lost quality win, or a "
        "determinism violation",
    )
    parser.add_argument(
        "--wall-slack", type=float, default=0.10,
        help="allowed fractional tempering wall-time excess over the "
        "restarts baseline in --check mode (default 0.10)",
    )
    args = parser.parse_args(argv)

    report = run_benchmark()
    for row in report["workloads"]:
        marker = "WIN " if (
            row["tempering"]["total_cycles"]
            < row["restarts"]["total_cycles"]
        ) else "    "
        print(
            f"{marker}{row['model']}: tempering "
            f"{row['tempering']['total_cycles']} "
            f"({row['tempering']['wall_seconds']:.2f}s, "
            f"{row['tempering']['swaps_accepted']}/"
            f"{row['tempering']['swaps_proposed']} swaps) vs restarts "
            f"{row['restarts']['total_cycles']} "
            f"({row['restarts']['wall_seconds']:.2f}s), "
            f"wall ratio {row['wall_ratio']:.3f} {row['wall_ratios']}, "
            f"jobs=2 identical: {row['jobs2_bit_identical']}"
        )

    if args.check:
        with open(args.out) as f:
            reference = json.load(f)
        problems = check_against(report, reference, args.wall_slack)
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        if not problems:
            print(f"check passed vs {args.out} ({report['wins']} win(s))")
        return 1 if problems else 0

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"report written to {args.out} (cpu_count={report['cpu_count']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
