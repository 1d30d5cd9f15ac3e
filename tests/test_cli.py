"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_mesh_parsing(self):
        args = build_parser().parse_args(
            ["optimize", "--model", "x", "--mesh", "8x8"]
        )
        assert args.mesh == (8, 8)

    def test_bad_mesh_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["optimize", "--model", "x", "--mesh", "eight"]
            )

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_defaults_match_pinned_config(self):
        from repro.bench import PERF_MODEL, PERF_OPTIONS, WALL_THRESHOLD

        args = build_parser().parse_args(["bench"])
        assert args.scenarios == []  # the pinned perf scenario
        assert args.check is False
        assert args.out is None
        assert PERF_MODEL == "resnet50"
        assert PERF_OPTIONS.restarts == 8
        assert PERF_OPTIONS.seed == 0
        assert PERF_OPTIONS.jobs == 1
        assert WALL_THRESHOLD == 0.25
        # The pinned configuration is not settable from the command line.
        for flag in ("--seed", "--restarts", "--threshold", "--wall-slack"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", flag, "1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "chaos"])


class TestBenchCheck:
    """The regression verdicts of `repro bench --check` (no search run)."""

    REFERENCE = {
        "restarts": 8,
        "seed": 0,
        "wall_seconds": 20.0,
        "total_cycles": 1_000_000,
        "winner": {"label": "sa[4]", "fingerprint": "abcd"},
    }

    def _report(self, **overrides):
        report = dict(self.REFERENCE)
        report.update(overrides)
        return report

    def test_identical_run_passes(self):
        from repro.bench import check_perf

        assert check_perf(self._report(), self.REFERENCE) == []

    def test_tolerated_slowdown_passes(self):
        from repro.bench import check_perf

        report = self._report(wall_seconds=24.9)
        assert check_perf(report, self.REFERENCE) == []

    def test_wall_time_regression_fails(self):
        from repro.bench import check_perf

        report = self._report(wall_seconds=26.0)
        problems = check_perf(report, self.REFERENCE)
        assert len(problems) == 1 and "regressed" in problems[0]

    def test_result_drift_fails_regardless_of_speed(self):
        from repro.bench import check_perf

        report = self._report(
            wall_seconds=1.0,
            total_cycles=999_999,
            winner={"label": "sa[0]", "fingerprint": "ffff"},
        )
        problems = check_perf(report, self.REFERENCE)
        assert any("bit-exactness" in p for p in problems)
        assert any("winner drifted" in p for p in problems)

    @staticmethod
    def _tempering(**overrides):
        """A one-workload tempering ledger row; ``overrides`` patch it."""
        workload = {
            "model": "vgg19_bench",
            "expect_win": True,
            "restarts": {"total_cycles": 100},
            "tempering": {"total_cycles": 90},
            "wall_ratios": [0.9, 1.0, 1.05],
            "wall_ratio": 1.0,
            "repeats_bit_identical": True,
            "jobs2_bit_identical": True,
        }
        for key, value in overrides.items():
            if key in ("restarts", "tempering"):
                workload[key] = {"total_cycles": value}
            else:
                workload[key] = value
        return {"workloads": [workload]}

    @pytest.mark.parametrize(
        "report,reference,verdict",
        [
            ({"restarts": 101}, {}, "restarts total_cycles drifted"),
            (
                {"tempering": 100},
                {"tempering": 100},
                "lost the committed quality win",
            ),
            (
                {"wall_ratios": [1.11, 1.2, 0.9], "wall_ratio": 1.11},
                {},
                "wall ratio 1.110",
            ),
            (
                {"repeats_bit_identical": False},
                {},
                "repeated run diverged",
            ),
            (
                {"jobs2_bit_identical": False},
                {},
                "jobs=2 diverged from jobs=1",
            ),
        ],
        ids=["cycles-drift", "lost-win", "wall-ratio", "repeat", "jobs2"],
    )
    def test_tempering_verdicts(self, report, reference, verdict):
        from repro.bench import check_tempering

        baseline = self._tempering()
        assert check_tempering(baseline, baseline) == []
        problems = check_tempering(
            self._tempering(**report), self._tempering(**reference)
        )
        assert len(problems) == 1 and verdict in problems[0], problems

    def test_tempering_wall_gate_ignores_untracked_workloads(self):
        from repro.bench import check_tempering

        report = self._tempering(
            expect_win=False, tempering=110, wall_ratio=1.5
        )
        assert check_tempering(report, report) == []

    def test_committed_ledger_passes_its_own_cycle_gates(self):
        """Every committed row is a reference ``--check`` can gate on."""
        import json
        from pathlib import Path

        from repro.bench import LEDGER, check_perf

        ledger = json.loads(
            (Path(__file__).resolve().parent.parent / LEDGER).read_text()
        )
        assert check_perf(ledger["perf"], ledger["perf"]) == []
        assert ledger["perf"]["total_cycles"] == 1383855
        assert ledger["perf"]["winner"] == {
            "label": "sa[4]", "fingerprint": "c6cbbd0f81242d66"
        }
        assert ledger["perf"]["cost_kernel"] == {
            "batch_calls": 648, "batch_rows": 58261
        }
        wins = {
            w["model"]: w["tempering"]["total_cycles"]
            < w["restarts"]["total_cycles"]
            for w in ledger["tempering"]["workloads"]
        }
        assert wins == {
            "vgg19_bench": True,
            "resnet50_bench": True,
            "efficientnet_bench": True,
            "resnet152_bench": True,
            "mobilenet_v2_bench": False,
        }


class TestCommands:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "vgg19" in out

    def test_optimize_runs(self, capsys, tmp_path):
        rc = main(
            [
                "optimize",
                "--model", "vgg19_bench",
                "--mesh", "2x2",
                "--sa-iterations", "10",
                "--scheduler", "greedy",
                "--gantt", "3",
                "--save", str(tmp_path / "sol.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PE utilization" in out
        assert "R0" in out  # gantt header
        assert (tmp_path / "sol.json").exists()

    def test_compare_prints_all_strategies(self, capsys):
        rc = main(
            [
                "compare",
                "--model", "vgg19_bench",
                "--mesh", "2x2",
                "--sa-iterations", "10",
                "--scheduler", "greedy",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for strategy in ("AD", "LS", "CNN-P", "IL-Pipe", "Rammer", "Ideal"):
            assert strategy in out

    @pytest.mark.parametrize("command", ["compare", "dse"])
    def test_conflicting_search_flags_are_a_usage_error(
        self, command, capsys
    ):
        rc = main(
            [
                command,
                "--model", "vgg19_bench",
                "--mesh", "2x2",
                "--restarts", "2",
                "--rungs", "2",
            ]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            main(["optimize", "--model", "alexnet", "--sa-iterations", "5"])
