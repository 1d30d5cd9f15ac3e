"""The seeded-violation table: one row per analysis rule, each firing
exactly its rule on a corrupted copy of clean shared artifacts."""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import Report, all_rules
from repro.analysis.selfcheck import (
    _TRACE_ID,
    _TREE,
    CASES,
    _span,
    _write_trace,
    clean_reports,
    run_self_check,
    shared_artifacts,
)
from repro.analysis.service_rules import check_event_log, check_trace_file


@pytest.fixture(scope="module")
def artifacts():
    return shared_artifacts()


def test_every_rule_has_exactly_one_row():
    assert [case.rule for case in CASES] == [r.rule_id for r in all_rules()]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.rule)
def test_row_fires_exactly_its_rule(case, artifacts):
    assert case.build(artifacts).fired_rule_ids() == {case.rule}


def test_shared_artifacts_are_clean(artifacts):
    for label, report in clean_reports(artifacts):
        assert report.checked and not report.diagnostics, (
            label, report.render()
        )


def test_event_log_with_a_foreign_trace_id(artifacts):
    path = artifacts.fresh("events.jsonl")
    path.write_text(artifacts.events.read_text().replace(_TRACE_ID, "tr-x"))
    assert check_event_log(path, artifacts.jobs).fired_rule_ids() == {"AD807"}


@pytest.mark.parametrize(
    "extra",
    [
        _span("sa.anneal", 200.0, 100.0, 9, 99),  # parent never recorded
        _span("sa.anneal", 850.0, 100.0, 9, 3),  # outlives its parent
    ],
    ids=["orphan-parent", "window-overflow"],
)
def test_more_malformed_job_traces(extra, artifacts):
    path = _write_trace(artifacts.fresh("trace.json"), _TREE + (extra,))
    assert check_trace_file(path).fired_rule_ids() == {"AD808"}


def test_silenced_rule_fails_the_self_check(monkeypatch):
    emit = Report.emit

    def emit_except_ad203(self, rule_id, location, message):
        if rule_id != "AD203":
            return emit(self, rule_id, location, message)

    monkeypatch.setattr(Report, "emit", emit_except_ad203)
    passed, transcript = run_self_check()
    assert not passed
    assert "FAIL AD203 Rounds 0 and 1 swapped: fired []" in transcript
    assert transcript.endswith("self-check FAILED")
    assert sum(line.startswith("FAIL") for line in transcript.splitlines()) == 1
