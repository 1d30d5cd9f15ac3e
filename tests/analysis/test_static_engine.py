"""Engine plumbing: loader, call graph, summaries, baseline, CLI."""

from __future__ import annotations

import json

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.static import (
    apply_baseline,
    load_baseline,
    load_paths,
    module_name_for,
    parse_suppressions,
    run_static_analysis,
    save_baseline,
    summarize_all,
)
from repro.obs.metrics import get_registry
from tests.analysis._static_helpers import (
    FUTURE,
    graph_for,
    write_module,
)

NP_SEED = FUTURE + "import numpy as np\nnp.random.seed(1)\n"


class TestLoader:
    def test_module_name_walks_packages(self, tmp_path):
        pkg = tmp_path / "outer" / "inner"
        pkg.mkdir(parents=True)
        (tmp_path / "outer" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        mod = pkg / "leaf.py"
        mod.write_text("x = 1\n")
        assert module_name_for(mod) == "outer.inner.leaf"

    def test_load_paths_recurses_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        modules = load_paths([tmp_path])
        assert [m.path.name for m in modules] == ["a.py", "b.py"]

    def test_same_line_suppression(self):
        sups = parse_suppressions(
            "x = f()  # static-ok: LINT008 -- replay is deterministic\n"
        )
        [sup] = sups[1]
        assert sup.rule_ids == ("LINT008",)
        assert sup.justification == "replay is deterministic"

    def test_comment_above_attaches_to_next_code_line(self):
        source = (
            "# static-ok: LINT011 -- worker installs its own copy\n"
            "\n"
            "# another comment\n"
            "_STATE = {}\n"
        )
        sups = parse_suppressions(source)
        assert 4 in sups
        assert sups[4][0].rule_ids == ("LINT011",)

    def test_multi_rule_suppression(self):
        sups = parse_suppressions(
            "y = g()  # static-ok: LINT008, LINT009 -- both benign here\n"
        )
        assert sups[1][0].rule_ids == ("LINT008", "LINT009")

    def test_suppression_for_wrong_rule_is_none(self, tmp_path):
        path = write_module(
            tmp_path,
            FUTURE + "x = 1  # static-ok: LINT009 -- reason\n",
        )
        [module] = load_paths([path])
        assert module.suppression_for(2, "LINT009") is not None
        assert module.suppression_for(2, "LINT008") is None


class TestCallGraph:
    def test_local_direct_call_edge(self, tmp_path):
        graph = graph_for(
            tmp_path,
            FUTURE + "def a():\n    return b()\ndef b():\n    return 1\n",
        )
        assert "mod.b" in graph.edges["mod.a"]

    def test_method_call_over_approximation(self, tmp_path):
        graph = graph_for(
            tmp_path,
            FUTURE
            + (
                "class P:\n"
                "    def go(self):\n"
                "        return 1\n"
                "class Q:\n"
                "    def go(self):\n"
                "        return 2\n"
                "def drive(obj):\n"
                "    return obj.go()\n"
            ),
        )
        assert {"mod.P.go", "mod.Q.go"} <= graph.edges["mod.drive"]

    def test_nested_function_edge(self, tmp_path):
        graph = graph_for(
            tmp_path,
            FUTURE
            + (
                "def outer():\n"
                "    def inner():\n"
                "        return 1\n"
                "    return inner\n"
            ),
        )
        assert "mod.inner" in graph.edges["mod.outer"]
        assert graph.functions["mod.inner"].is_nested

    def test_reachability_is_transitive(self, tmp_path):
        graph = graph_for(
            tmp_path,
            FUTURE
            + (
                "def a():\n    return b()\n"
                "def b():\n    return c()\n"
                "def c():\n    return 1\n"
                "def island():\n    return 0\n"
            ),
        )
        reach = graph.reachable_from({"mod.a"})
        assert {"mod.a", "mod.b", "mod.c"} <= reach
        assert "mod.island" not in reach


class TestSummaries:
    def test_pure_function(self, tmp_path):
        graph = graph_for(
            tmp_path, FUTURE + "def f(x):\n    return x + 1\n"
        )
        summaries = summarize_all(graph)
        assert summaries["mod.f"].is_pure
        assert summaries["mod.f"].transitively_pure

    def test_param_mutation_recorded(self, tmp_path):
        graph = graph_for(
            tmp_path,
            FUTURE + "def f(bag):\n    bag.items.append(1)\n",
        )
        summary = summarize_all(graph)["mod.f"]
        assert not summary.is_pure
        assert any(m.receiver == "bag" for m in summary.mutations)

    def test_global_write_recorded(self, tmp_path):
        graph = graph_for(
            tmp_path,
            FUTURE + "_C = {}\ndef f(k):\n    _C[k] = 1\n",
        )
        summary = summarize_all(graph)["mod.f"]
        assert any(m.receiver == "_C" for m in summary.global_writes)

    def test_transitive_impurity_propagates(self, tmp_path):
        graph = graph_for(
            tmp_path,
            FUTURE
            + (
                "_C = {}\n"
                "def sink(k):\n    _C[k] = 1\n"
                "def relay(k):\n    return sink(k)\n"
            ),
        )
        summaries = summarize_all(graph)
        assert summaries["mod.relay"].is_pure
        assert not summaries["mod.relay"].transitively_pure


class TestBaseline:
    def _one_finding(self, tmp_path):
        result = run_static_analysis([write_module(tmp_path, NP_SEED)])
        [finding] = result.unsuppressed
        return finding

    def test_save_load_roundtrip(self, tmp_path):
        finding = self._one_finding(tmp_path)
        baseline = tmp_path / "baseline.json"
        save_baseline(baseline, [finding])
        [entry] = load_baseline(baseline)
        assert entry.rule_id == finding.rule_id
        assert entry.message == finding.message

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []

    def test_baselined_finding_not_reemitted(self, tmp_path):
        path = write_module(tmp_path, NP_SEED)
        baseline = tmp_path / "baseline.json"
        first = run_static_analysis([path])
        save_baseline(baseline, first.unsuppressed)
        second = run_static_analysis([path], baseline_path=baseline)
        assert second.report.ok
        assert len(second.baselined) == 1

    def test_baseline_survives_line_shift(self, tmp_path):
        path = write_module(tmp_path, NP_SEED)
        baseline = tmp_path / "baseline.json"
        save_baseline(
            baseline, run_static_analysis([path]).unsuppressed
        )
        path.write_text("# a new leading comment\n" + NP_SEED)
        shifted = run_static_analysis([path], baseline_path=baseline)
        assert shifted.report.ok

    def test_stale_entry_is_error(self, tmp_path):
        path = write_module(tmp_path, NP_SEED)
        baseline = tmp_path / "baseline.json"
        save_baseline(
            baseline, run_static_analysis([path]).unsuppressed
        )
        path.write_text(FUTURE + "import numpy as np\n")
        result = run_static_analysis([path], baseline_path=baseline)
        assert not result.report.ok
        assert len(result.stale_entries) == 1
        assert any(
            "stale baseline entry" in d.message
            for d in result.report.errors
        )

    def test_apply_baseline_splits_new_from_accepted(self, tmp_path):
        finding = self._one_finding(tmp_path)
        match = apply_baseline([finding], [])
        assert match.new_findings == [finding]
        assert match.accepted == [] and match.stale == []


class TestSuppressionFiltering:
    def test_justified_suppression_silences(self, tmp_path):
        path = write_module(
            tmp_path,
            FUTURE
            + "import numpy as np\n"
            + "np.random.seed(1)  # static-ok: LINT007 -- demo script\n",
        )
        result = run_static_analysis([path])
        assert result.report.ok
        assert len(result.suppressed) == 1

    def test_unjustified_suppression_reemits(self, tmp_path):
        path = write_module(
            tmp_path,
            FUTURE
            + "import numpy as np\n"
            + "np.random.seed(1)  # static-ok: LINT007\n",
        )
        result = run_static_analysis([path])
        assert not result.report.ok
        [diag] = result.report.errors
        assert "does not suppress" in diag.message


class TestMetrics:
    def test_pass_timing_and_finding_counters(self, tmp_path):
        registry = get_registry()
        before = registry.snapshot()
        run_static_analysis([write_module(tmp_path, NP_SEED)])
        after = registry.snapshot()
        hist = after.histograms["static.pass_seconds.seedflow"]
        prev = before.histograms.get("static.pass_seconds.seedflow")
        assert hist["count"] > (prev["count"] if prev else 0)
        assert after.counters["static.findings.LINT007"] >= (
            before.counters.get("static.findings.LINT007", 0) + 1
        )


class TestCli:
    def test_static_clean_exit_zero(self, tmp_path, capsys):
        path = write_module(tmp_path, FUTURE + "x = 1\n")
        rc = analysis_main(["--static", str(path)])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_static_finding_exit_one(self, tmp_path, capsys):
        path = write_module(tmp_path, NP_SEED)
        rc = analysis_main(["--static", str(path)])
        assert rc == 1
        assert "LINT007" in capsys.readouterr().out

    def test_missing_path_exit_two(self, tmp_path, capsys):
        rc = analysis_main(["--static", str(tmp_path / "nope.py")])
        assert rc == 2

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        path = write_module(tmp_path, NP_SEED)
        baseline = tmp_path / "baseline.json"
        rc = analysis_main(
            ["--update-baseline", "--baseline", str(baseline), str(path)]
        )
        assert rc == 0
        data = json.loads(baseline.read_text())
        assert len(data["entries"]) == 1
        capsys.readouterr()
        rc = analysis_main(
            ["--static", "--baseline", str(baseline), str(path)]
        )
        assert rc == 0

    def test_json_output_shape(self, tmp_path, capsys):
        path = write_module(tmp_path, NP_SEED)
        rc = analysis_main(["--static", "--json", str(path)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["diagnostics"][0]["rule_id"] == "LINT007"


class TestRuleRegistration:
    def test_all_static_rules_registered(self):
        from repro.analysis.diagnostics import get_rule

        for rule_id in (
            "LINT007",
            "LINT008",
            "LINT009",
            "LINT010",
            "LINT011",
            "LINT012",
            "LINT013",
        ):
            rule = get_rule(rule_id)
            assert rule.tier == "static"

    def test_repro_source_tree_is_clean(self):
        import repro
        from pathlib import Path

        result = run_static_analysis([Path(repro.__file__).parent])
        assert result.report.ok, result.report.render()
