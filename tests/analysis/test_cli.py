"""End-to-end CLI tests: ``python -m repro.analysis`` and ``repro check``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.__main__ import main as analysis_main
from repro.cli import main as repro_main

REPO = Path(__file__).resolve().parents[2]
BROKEN_FIXTURE = REPO / "tests" / "fixtures" / "broken_solution.json"


@pytest.fixture
def clean_module(tmp_path):
    mod = tmp_path / "clean.py"
    mod.write_text("from __future__ import annotations\n\nx = 1\n")
    return mod


@pytest.fixture
def dirty_module(tmp_path):
    mod = tmp_path / "dirty.py"
    mod.write_text(
        "from __future__ import annotations\n\nbad = cost == 1.5\n"
    )
    return mod


class TestLintMode:
    def test_clean_file_exits_zero(self, clean_module, capsys):
        assert analysis_main([str(clean_module)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_dirty_file_exits_one(self, dirty_module, capsys):
        assert analysis_main([str(dirty_module)]) == 1
        assert "LINT001" in capsys.readouterr().out

    def test_directory_recursion(self, clean_module, dirty_module, capsys):
        assert analysis_main([str(clean_module.parent)]) == 1
        out = capsys.readouterr().out
        assert "dirty.py" in out

    def test_repro_source_tree_is_clean(self, capsys):
        pkg = Path(repro.__file__).parent
        assert analysis_main([str(pkg)]) == 0
        capsys.readouterr()

    def test_missing_lint_path_is_usage_error(self, capsys):
        assert analysis_main(["/nonexistent/mod.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_json_output_is_machine_readable(self, dirty_module, capsys):
        assert analysis_main(["--json", str(dirty_module)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["diagnostics"][0]["rule_id"] == "LINT001"


class TestListRules:
    def test_lists_every_rule(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("AD101", "AD205", "AD302", "AD403", "LINT005"):
            assert rule_id in out


class TestArtifactMode:
    def test_broken_fixture_fails_validation(self, capsys):
        assert BROKEN_FIXTURE.exists(), "regenerate via tools/make_broken_fixture.py"
        rc = analysis_main(
            [
                "--artifact", str(BROKEN_FIXTURE),
                "--model", "vgg19_bench",
                "--mesh", "2x2",
            ]
        )
        assert rc == 1
        assert "AD203" in capsys.readouterr().out

    def test_artifact_requires_model(self, capsys):
        assert analysis_main(["--artifact", str(BROKEN_FIXTURE)]) == 2
        capsys.readouterr()

    def test_unknown_model_is_usage_error(self, capsys):
        rc = analysis_main(
            ["--artifact", str(BROKEN_FIXTURE), "--model", "no_such_model"]
        )
        assert rc == 2
        assert "no_such_model" in capsys.readouterr().err

    def test_missing_artifact_file_is_usage_error(self, capsys):
        rc = analysis_main(
            ["--artifact", "/nonexistent/sol.json", "--model", "vgg19_bench"]
        )
        assert rc == 2
        assert "no such artifact" in capsys.readouterr().err

    def test_non_solution_document_is_usage_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text('{"hello": 1}')
        rc = analysis_main(
            ["--artifact", str(junk), "--model", "vgg19_bench"]
        )
        assert rc == 2
        assert "not a solution document" in capsys.readouterr().err


class TestReproCheckSubcommand:
    def test_forwards_to_analysis(self, dirty_module, capsys):
        assert repro_main(["check", str(dirty_module)]) == 1
        assert "LINT001" in capsys.readouterr().out

    def test_list_rules_forwarded(self, capsys):
        assert repro_main(["check", "--list-rules"]) == 0
        assert "AD101" in capsys.readouterr().out

    def test_broken_artifact_forwarded(self, capsys):
        rc = repro_main(
            [
                "check",
                "--artifact", str(BROKEN_FIXTURE),
                "--model", "vgg19_bench",
                "--mesh", "2x2",
            ]
        )
        assert rc == 1
        capsys.readouterr()


class TestReproCheckArguments:
    """`repro check` hands its arguments to `python -m repro.analysis`."""

    def test_accepts_exactly_the_analysis_options(self, monkeypatch):
        from repro.analysis.__main__ import build_parser

        options = sorted(
            opt for action in build_parser()._actions
            for opt in action.option_strings
        )
        seen = []
        monkeypatch.setattr(
            "repro.analysis.__main__.main",
            lambda argv, prog: seen.append(argv) or 0,
        )
        argv = ["src/repro", *options, "--mesh=2x2"]
        assert repro_main(["check", *argv]) == 0
        assert seen == [argv]

    def test_unknown_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["check", "--no-such-option"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro check ")
        assert "--no-such-option" in err

    def test_verbosity_before_the_subcommand(self, capsys):
        assert repro_main(["-v", "check", "--list-rules"]) == 0
        assert "AD101" in capsys.readouterr().out

    def test_other_commands_still_reject_unknown_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["models", "--no-such-option"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
