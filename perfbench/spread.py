"""Run-to-run spread of the end-to-end metrics, as the bounds judge it.

    python3 perfbench/spread.py --workload serve-mix --seeds 0-9 [--seconds 20]

Runs ``run.py`` once per seed (one fresh interpreter each), then prints
for every end-to-end metric its median and quartile spread
``(Q3 - Q1) / median`` beside the bound ``BENCHMARK.json`` fixes.  Runs
that fail their correctness checks are reported and stop the sweep.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for metric in bench["end_to_end"]:
        series = values[metric["name"]]
        spread = stats.quartile_spread(series) if len(series) > 1 else 0.0
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"{metric['name']:<14} median {stats.median(series).value:<12.5g} "
              f"spread {spread:6.3f}  bound {metric['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
