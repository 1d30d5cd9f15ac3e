"""Self-tests of the benchmark: ``python -m pytest perfbench`` (~1 min)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import stats
import workloads

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A small stand-in for the search workloads: same code path, seconds.
SMALL_SEARCH = workloads.SearchWorkload("search-small", "vgg19_bench", restarts=2)


def span(layer: str, start: float, end: float) -> layers.Span:
    return layers.Span(layer, layer, start, end)


def test_self_times_of_a_hand_built_tree() -> None:
    spans = [
        span("service.client", 0.0, 10.0),
        span("service.store", 1.0, 4.0),
        span("fingerprint", 5.0, 6.0),
        span("service.session", 6.0, 9.5),
        span("sim", 7.0, 9.0),
        span("engine.batch", 7.5, 8.0),
    ]
    own = layers.self_times(spans)
    assert own == pytest.approx({
        "service.client": 10.0 - 3.0 - 1.0 - 3.5,
        "service.store": 3.0,
        "fingerprint": 1.0,
        "service.session": 3.5 - 2.0,
        "sim": 2.0 - 0.5,
        "engine.batch": 0.5,
    })
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_times_clip_to_window_and_split_threads() -> None:
    # A runner-thread span overlapping a client poll owns the overlap.
    spans = [
        span("service.client", 0.0, 4.0),
        span("atoms.dag", 3.0, 6.0),
        span("engine.batch", 5.5, 7.0),
    ]
    own = layers.self_times(spans, window=(1.0, 6.0))
    assert own == pytest.approx({
        "service.client": 2.0,
        "atoms.dag": 2.5,
        "engine.batch": 0.5,
    })


def test_tail_percentile_needs_ten_samples_beyond() -> None:
    assert stats.tail_percentile([float(v) for v in range(199)], 0.95).value is None
    p95 = stats.tail_percentile([float(v) for v in range(1, 201)], 0.95)
    assert (p95.value, p95.samples, p95.beyond) == (190.0, 200, 10)
    p50 = stats.median([3.0, 1.0, 2.0])
    assert (p50.value, p50.samples) == (2.0, 3)
    assert stats.median([]).value is None


def test_reference_seconds_use_the_probe_loops_around_the_interval() -> None:
    probe = stats.HostProbe()
    probe.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    probe.loops = [2.0, 2.0, 8.0, 4.0, 4.0, 4.0]
    ref = stats.REF_LOOP_MS
    # Loops within PAD_S of [0.5, 1.5]: 2, 2, 8 -> median 2.
    assert probe.reference((1.0, 0.5, 1.5)) == pytest.approx(ref / 2.0)
    assert probe.reference((1.0, 10.5, 11.5)) == pytest.approx(ref / 4.0)
    assert probe.median_ms() == pytest.approx(4.0)  # the whole run
    with pytest.raises(RuntimeError):
        probe.reference((1.0, 5.0, 6.0))


def test_timer_sampling_runs_during_the_block_and_restores() -> None:
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = stats.HostProbe()
    with probe.sampling():
        end = time.perf_counter() + 4 * stats.TIMER_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(probe.loops) >= 2
    assert probe.times == sorted(probe.times)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_serve_mix_trace_is_a_pure_function_of_the_seed() -> None:
    mix = workloads.WORKLOADS["serve-mix"]
    assert workloads.serve_mix_trace(mix, 3) == workloads.serve_mix_trace(mix, 3)
    assert workloads.serve_mix_trace(mix, 3) != workloads.serve_mix_trace(mix, 4)
    for seed in range(20):
        requests = workloads.serve_mix_trace(mix, seed)
        asked = 0
        for req in requests:
            if req.cold:
                assert req.compile == asked
                asked += 1
            else:
                assert req.compile < asked  # never a hit before its cold answer
        assert asked == mix.compiles
        assert len(requests) - asked >= 200  # hit p95 is reportable


def test_metric_names_units_and_benchmark_json_agree() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(layers.PER_LAYER)
    names = [n for n, _ in e2e + per_layer] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name, unit in e2e + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert unit and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_search_unit_traced_decides_like_untraced(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(workloads, "SEARCH_HITS", 12)
    plain = workloads.run_search(SMALL_SEARCH, 1, tmp_path / "a")
    rec = layers.Recorder()
    with layers.traced(rec):
        unit = workloads.run_search(SMALL_SEARCH, 1, tmp_path / "b")
    assert not plain.failures and not unit.failures
    assert unit.decisions == plain.decisions
    assert workloads.check(unit, tmp_path) == []
    assert layers.stats_agreement(rec, [o.search_stats for o in unit.outcomes]) == []
    values = layers.layer_metrics(
        rec, unit.window, unit.outcomes, unit.requests, len(unit.colds),
        unit.daemon_stats, plain.wall_s, 1.0,
    )
    assert set(values) == {name for name, _ in layers.PER_LAYER}
    own = sum(values[f"{layer}.self_s"] for layer in (
        "atoms.generation", "atoms.dag", "scheduling", "mapping", "sim",
        "engine.batch", "service.store", "service.jobs", "service.events",
        "service.session", "service.client",
    )) + values["fingerprint.self_ms"] / 1e3
    assert own + values["pipeline.other_s"] == pytest.approx(unit.wall_s)
    assert values["pipeline.other_s"] >= 0.0
    assert values["fingerprint.calls"] == 1 + 12  # publish + one per hit
    assert values["atoms.generation.iterations"] > 0
    assert values["engine.batch.calls"] > 0
    # Wrappers are gone after the block.
    assert workloads.SearchContext.build_dag.__name__ == "build_dag"
    assert not hasattr(workloads.SearchContext.build_dag, "__wrapped__")


def test_pinned_mismatch_is_a_failure(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(workloads, "SEARCH_HITS", 1)
    monkeypatch.setitem(workloads.PINNED, "search-small", {1: (1, "0" * 16)})
    unit = workloads.run_search(SMALL_SEARCH, 1, tmp_path / "s")
    assert any("pinned" in f for f in unit.failures)


def test_second_seed_passes_every_check(tmp_path) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS["serve-mix"].requests
    assert [n for n, _ in run.END_TO_END] == list(result["metrics"])
    assert result["metrics"]["sim_cycles"]["value"] > 0
    assert not (tmp_path / run.RUN_DIR).exists()


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
