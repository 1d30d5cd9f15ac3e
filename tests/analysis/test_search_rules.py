"""AD501-AD502 (search traces) and AD601-AD603 (resilience), one seeded
problem per case.

Each negative case corrupts a real search's traces or checkpoint journal
in one way and asserts that exactly the guarding rule fires; the clean
restart and tempering searches the corruptions start from emit nothing.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.resilience_rules import (
    check_checkpoint_journal,
    check_resilience_traces,
)
from repro.analysis.tempering_rules import check_tempering_journal
from repro.analysis.trace_rules import check_search_trace
from repro.atoms.generation import SAParams
from repro.config import ArchConfig, EngineConfig
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.models import get_model


def _search(tmp_path_factory, name, **options):
    journal = tmp_path_factory.mktemp(name) / "ck.jsonl"
    arch = ArchConfig(
        mesh_rows=2, mesh_cols=2,
        engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=64 * 1024),
    )
    outcome = AtomicDataflowOptimizer(
        get_model("vgg19_bench"),
        arch,
        OptimizerOptions(
            sa_params=SAParams(max_iterations=12),
            seed=0,
            checkpoint=str(journal),
            **options,
        ),
    ).optimize()
    return outcome, journal


@pytest.fixture(scope="module")
def restarts(tmp_path_factory):
    """A three-restart search and its checkpoint journal."""
    return _search(tmp_path_factory, "restarts", restarts=3)


@pytest.fixture(scope="module")
def tempering(tmp_path_factory):
    """A three-rung tempering search and its checkpoint journal."""
    return _search(tmp_path_factory, "tempering", rungs=3, exchange_every=4)


def _rules(report) -> list[str]:
    return [d.rule_id for d in report.diagnostics]


def _only(report, rule: str) -> str:
    assert _rules(report) == [rule]
    return report.diagnostics[0].message


def _winner(outcome):
    return next(i for i, t in enumerate(outcome.traces) if t.accepted)


def _loser(outcome):
    """Index of an evaluated candidate that was not selected."""
    return next(
        i for i, t in enumerate(outcome.traces)
        if t.evaluated and not t.accepted
    )


def _with(traces, index, **fields):
    traces = list(traces)
    traces[index] = replace(traces[index], **fields)
    return traces


# ---------------------------------------------------------------- clean


@pytest.mark.parametrize("search", ["restarts", "tempering"])
def test_clean_search_emits_nothing(search, request):
    outcome, journal = request.getfixturevalue(search)
    for report in (
        check_search_trace(outcome.traces, result=outcome.result, dag=outcome.dag),
        check_resilience_traces(outcome.traces),
        check_checkpoint_journal(journal),
        check_tempering_journal(journal),
    ):
        assert report.ok and report.diagnostics == []


def test_restart_journal_holds_no_segment_records(restarts):
    # One segment per chain, and the final segment is never journaled:
    # header, then one record per evaluated candidate.
    outcome, journal = restarts
    docs = [json.loads(line) for line in journal.read_text().splitlines()]
    assert "key" in docs[0]
    assert [d["label"] for d in docs[1:]] == [
        t.label for t in outcome.traces if t.evaluated
    ]


# ---------------------------------------------------------------- AD501


def test_ad501_doubly_accepted(restarts):
    outcome, _ = restarts
    traces = [
        replace(t, accepted=True, reason="selected") if t.evaluated else t
        for t in outcome.traces
    ]
    assert "marked accepted" in _only(check_search_trace(traces), "AD501")


def test_ad501_nothing_accepted(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _winner(outcome), accepted=False)
    assert "0 candidates marked accepted" in _only(
        check_search_trace(traces), "AD501"
    )


def test_ad501_accepted_but_never_evaluated(restarts):
    outcome, _ = restarts
    loser = outcome.traces[_loser(outcome)]
    traces = _with(outcome.traces, _winner(outcome), total_cycles=None,
                   reason=f"duplicate of {loser.label}")
    assert "never evaluated" in _only(check_search_trace(traces), "AD501")


def test_ad501_accepted_cycles_disagree_with_result(restarts):
    outcome, _ = restarts
    winner = outcome.traces[_winner(outcome)]
    traces = _with(outcome.traces, _winner(outcome),
                   total_cycles=winner.total_cycles + 1)
    assert "selected result has" in _only(
        check_search_trace(traces, result=outcome.result), "AD501"
    )


def test_ad501_accepted_fingerprint_disagrees_with_dag(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _winner(outcome), fingerprint="0" * 16)
    assert "does not match the selected DAG" in _only(
        check_search_trace(traces, dag=outcome.dag), "AD501"
    )


# ---------------------------------------------------------------- AD502


def test_ad502_duplicate_labels(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _loser(outcome),
                   label=outcome.traces[_winner(outcome)].label)
    assert "duplicate candidate label" in _only(
        check_search_trace(traces), "AD502"
    )


def test_ad502_evaluated_fingerprint_twice(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _loser(outcome),
                   fingerprint=outcome.traces[_winner(outcome)].fingerprint)
    assert "dedup should have skipped one" in _only(
        check_search_trace(traces), "AD502"
    )


def test_ad502_unevaluated_without_a_verdict(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _loser(outcome),
                   total_cycles=None, reason="beaten")
    assert "unevaluated candidate has reason" in _only(
        check_search_trace(traces), "AD502"
    )


def test_ad502_duplicate_of_an_unevaluated_candidate(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _loser(outcome),
                   total_cycles=None, reason="duplicate of nowhere[9]")
    assert "does not name an evaluated candidate" in _only(
        check_search_trace(traces), "AD502"
    )


# ---------------------------------------------------------------- AD602


def test_ad602_two_verdicts(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _winner(outcome),
                   reason="failed after 2 attempts: boom", error="boom",
                   attempts=2)
    assert "'evaluated', 'failed'" in _only(
        check_resilience_traces(traces), "AD602"
    )


def test_ad602_no_verdict(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _loser(outcome), total_cycles=None, reason="")
    assert "['none']" in _only(check_resilience_traces(traces), "AD602")


# ---------------------------------------------------------------- AD603


def test_ad603_zero_attempts(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _winner(outcome), attempts=0)
    assert "attempts=0" in _only(check_resilience_traces(traces), "AD603")


def test_ad603_failure_without_error(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _loser(outcome), total_cycles=None,
                   reason="failed after 1 attempt: boom", error="")
    assert "no error description" in _only(
        check_resilience_traces(traces), "AD603"
    )


def test_ad603_failure_reason_disagrees_with_attempts(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _loser(outcome), total_cycles=None,
                   reason="failed after 3 attempts: boom", error="boom",
                   attempts=2)
    assert "says 3 attempt(s)" in _only(
        check_resilience_traces(traces), "AD603"
    )


def test_ad603_error_without_a_retry(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _winner(outcome), error="boom", attempts=1)
    assert "without any retry" in _only(
        check_resilience_traces(traces), "AD603"
    )


def test_ad603_restored_but_unevaluated(restarts):
    outcome, _ = restarts
    traces = _with(outcome.traces, _loser(outcome), total_cycles=None,
                   reason=f"duplicate of {outcome.traces[_winner(outcome)].label}",
                   restored=True)
    assert "restored candidate is not evaluated" in _only(
        check_resilience_traces(traces), "AD603"
    )


# ---------------------------------------------------------------- AD601


def _write(tmp_path, lines: list[str]):
    path = tmp_path / "ck.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _journal(restarts) -> list[dict]:
    _, journal = restarts
    return [json.loads(line) for line in journal.read_text().splitlines()]


def _dumps(docs) -> list[str]:
    return [json.dumps(d, sort_keys=True) for d in docs]


def test_ad601_unreadable(tmp_path):
    assert "unreadable journal" in _only(
        check_checkpoint_journal(tmp_path / "missing.jsonl"), "AD601"
    )


def test_ad601_empty(tmp_path):
    assert "missing header" in _only(
        check_checkpoint_journal(_write(tmp_path, [])), "AD601"
    )


def test_ad601_header_not_an_object(restarts, tmp_path):
    lines = _dumps(_journal(restarts))
    lines[0] = "[1, 2]"
    assert "header is not a JSON object" in _only(
        check_checkpoint_journal(_write(tmp_path, lines)), "AD601"
    )


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("format", "other", "header format 'other'"),
        ("version", 99, "unsupported version 99"),
        ("key", None, "header carries no search key"),
    ],
)
def test_ad601_bad_header_field(restarts, tmp_path, field, value, message):
    docs = _journal(restarts)
    docs[0][field] = value
    assert message in _only(
        check_checkpoint_journal(_write(tmp_path, _dumps(docs))), "AD601"
    )


def test_ad601_record_not_an_object(restarts, tmp_path):
    lines = _dumps(_journal(restarts))
    lines.insert(1, "not json")
    assert "line is not a JSON object" in _only(
        check_checkpoint_journal(_write(tmp_path, lines)), "AD601"
    )


def test_ad601_record_without_label(restarts, tmp_path):
    docs = _journal(restarts)
    docs.insert(1, {"fingerprint": "x"})
    assert "no candidate label" in _only(
        check_checkpoint_journal(_write(tmp_path, _dumps(docs))), "AD601"
    )


def test_ad601_duplicate_record(restarts, tmp_path):
    docs = _journal(restarts)
    docs.append(docs[1])
    assert "duplicate record" in _only(
        check_checkpoint_journal(_write(tmp_path, _dumps(docs))), "AD601"
    )


def test_ad601_record_missing_keys(restarts, tmp_path):
    docs = _journal(restarts)
    del docs[1]["placement"]
    assert "missing keys ['placement']" in _only(
        check_checkpoint_journal(_write(tmp_path, _dumps(docs))), "AD601"
    )


def test_ad601_malformed_embedded_trace(restarts, tmp_path):
    docs = _journal(restarts)
    del docs[1]["trace"]["seconds"]
    assert "malformed candidate trace" in _only(
        check_checkpoint_journal(_write(tmp_path, _dumps(docs))), "AD601"
    )


def test_ad601_embedded_label_disagrees(restarts, tmp_path):
    docs = _journal(restarts)
    docs[1]["trace"]["label"] = "elsewhere[0]"
    assert "embedded trace label" in _only(
        check_checkpoint_journal(_write(tmp_path, _dumps(docs))), "AD601"
    )


def test_ad601_tampered_fingerprint(restarts, tmp_path):
    docs = _journal(restarts)
    docs[1]["fingerprint"] = "bad-" + docs[1]["fingerprint"]
    assert "embedded trace fingerprint" in _only(
        check_checkpoint_journal(_write(tmp_path, _dumps(docs))), "AD601"
    )


def test_ad601_embedded_cycles_disagree(restarts, tmp_path):
    docs = _journal(restarts)
    docs[1]["result"]["total_cycles"] += 1
    assert "embedded trace reports" in _only(
        check_checkpoint_journal(_write(tmp_path, _dumps(docs))), "AD601"
    )
