"""The append-only journal primitive and its three owners.

Every owner (candidate checkpoint, job journal, event log) is driven
through the same torn-write property: cut the file at any byte offset
at or past the header's newline and reopen.  The reopen yields exactly
the records whose newline survived the cut, the next append starts a
clean line, and a further reopen yields those records plus the new one.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atoms.generation import SAParams
from repro.config import DEFAULT_ARCH
from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.journal import Journal, read_lines
from repro.models import get_model
from repro.resilience import CheckpointError, CheckpointJournal
from repro.service.events import EventLog
from repro.service.jobs import JobJournal, JobJournalError, JobRecord

KEY = {"workload": "vgg19_bench", "seed": 0, "mesh": [2, 2, "mesh"], "restarts": 3}


def _id(i: int) -> str:
    return f"job-{i:06d}"


def _job(i: int, **changes) -> JobRecord:
    base = JobRecord(
        job_id=_id(i),
        fingerprint="ab" * 32,
        model="vgg19_bench",
        tenant="ténant",
        request={"model": "vgg19_bench"},
        trace_id=f"tr-{i:016x}",
    )
    return base.advanced(changes.pop("state", "queued"), **changes)


# Each owner: open `path` (creating it when missing), append one record
# per index, close, and return the ids the open replayed, in file order.


def _checkpoint(path: str, append=()) -> list[str]:
    journal = CheckpointJournal(path, KEY)
    records = journal.open(resume=True)
    for i in append:
        journal.append({"label": _id(i), "fingerprint": f"fp-{i}", "cycles": i})
    journal.close()
    return list(records)


def _jobs(path: str, append=()) -> list[str]:
    journal = JobJournal(path)
    jobs = journal.open()
    for i in append:
        journal.record("queued", _job(i))
    journal.close()
    return list(jobs)


def _events(path: str, append=()) -> list[str]:
    log = EventLog(path)
    events = log.open()
    for i in append:
        log.append("submit", _id(i), trace_id=f"tr-{i}", tenant="ci")
    log.close()
    return [event["job_id"] for event in events]


OWNERS = {"checkpoint": _checkpoint, "jobs": _jobs, "events": _events}


@settings(max_examples=90, deadline=None)
@given(
    owner=st.sampled_from(sorted(OWNERS)),
    n=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_cut_at_any_offset_reopens_to_whole_records(owner, n, data):
    drive = OWNERS[owner]
    with tempfile.TemporaryDirectory(prefix="repro-journal-") as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        assert drive(path, append=range(n)) == []
        with open(path, "rb") as fh:
            raw = fh.read()
        ends = [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
        # Any offset, with the tears a uniform draw rarely hits weighted
        # in: a cut exactly at a line end, and one that removes only a
        # record's newline.
        cut = data.draw(
            st.one_of(
                st.integers(min_value=ends[0], max_value=len(raw)),
                st.sampled_from(ends + [end - 1 for end in ends[1:]]),
            ),
            label="cut",
        )
        os.truncate(path, cut)
        whole = [_id(i) for i, end in enumerate(ends[1:]) if end <= cut]

        assert drive(path, append=[n]) == whole
        assert drive(path) == whole + [_id(n)]
        with open(path, "rb") as fh:
            assert fh.read().endswith(b"\n")
        assert all(line.obj is not None for line in read_lines(path))


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_header_without_newline_is_refused(owner, tmp_path):
    """A header missing only its newline is not a whole line: the file
    is refused instead of fusing the first append onto the header."""
    path = tmp_path / "journal.jsonl"
    OWNERS[owner](str(path))
    os.truncate(path, path.stat().st_size - 1)
    with pytest.raises(ValueError, match="empty"):
        OWNERS[owner](str(path), append=[0])


def test_last_line_its_owner_rejects_is_truncated(tmp_path):
    """A whole last line that parses but is not a JobRecord is dropped
    and cut off before the next append."""
    path = tmp_path / "jobs.jsonl"
    _jobs(str(path), append=[0])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"event": "queued", "job": {"job_id": "job-000009"}}\n')
    assert _jobs(str(path), append=[1]) == [_id(0)]
    assert _jobs(str(path)) == [_id(0), _id(1)]


def test_bad_line_before_the_last_keeps_the_owner_message(tmp_path):
    path = tmp_path / "jobs.jsonl"
    _jobs(str(path), append=[0, 1])
    lines = path.read_text().splitlines()
    lines[1] = '{"event": "queued", "job": {}}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JobJournalError, match=r"jobs.jsonl:2: bad job record \("):
        _jobs(str(path))


def test_reader_numbers_whole_lines_and_skips_the_tail(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a": 1}\n[1]\n\xff\n{"b": 2}\n{"c"')
    lines = read_lines(path)
    assert [(line.number, line.start, line.end) for line in lines] == [
        (1, 0, 9), (2, 9, 13), (3, 13, 15), (4, 15, 24),
    ]
    assert [line.obj for line in lines] == [{"a": 1}, None, None, {"b": 2}]


def test_read_never_writes(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"h": 1}\n{"r": 1}\n{"r"')
    journal = Journal(path, "log", ValueError)
    header, records, keep = journal.read(lambda header: None)
    assert (header, records, keep) == ({"h": 1}, [{"r": 1}], 18)
    assert path.read_bytes().endswith(b'{"r"')


# -- byte identity ------------------------------------------------------------

#: sha256 of the files :func:`_write_fixed_sequences` writes, recorded
#: with the per-owner journal implementations this primitive replaced.
FIXED_SEQUENCE_SHA256 = {
    "ck.jsonl": "25d5086d0f3ff00bc75bab7d456ab2cd8523ce2ca0040ce10125f27a90915cd2",
    "jobs.jsonl": "adbead1c32d80b38208eb08972e9f2e886096a03e86c010668d06bad8372c452",
    "events.jsonl": "593cdd54e81b04afa60939974fdbdfc02e55854be76f934e896a2f2d4b7611b4",
}


def _candidate(label: str, cycles: int) -> dict:
    return {
        "label": label,
        "fingerprint": f"fp-{label}",
        "result": {"total_cycles": cycles},
        "note": "café",
    }


def _write_fixed_sequences(tmp: str) -> None:
    ck = os.path.join(tmp, "ck.jsonl")
    journal = CheckpointJournal(ck, KEY)
    journal.open()
    journal.append(_candidate("sa[0]", 100))
    journal.append(_candidate("sa[1]", 90))
    journal.close()
    journal = CheckpointJournal(ck, KEY)
    journal.open(resume=True)
    journal.append(_candidate("even-split", 120))
    journal.close()

    jobs = os.path.join(tmp, "jobs.jsonl")
    job_journal = JobJournal(jobs)
    job_journal.open(header_extras={"max_attempts": 3})
    lease = dict(runner_id="runner-1", lease_seq=1, attempt=1)
    job_journal.record("queued", _job(1))
    job_journal.record("running", _job(1, state="running", **lease))
    job_journal.record(
        "done",
        _job(1, state="done", total_cycles=12345, search_seconds=1.5, **lease),
    )
    job_journal.close()
    job_journal = JobJournal(jobs)
    job_journal.open()
    job_journal.record("queued", _job(2))
    job_journal.close()

    events = os.path.join(tmp, "events.jsonl")
    log = EventLog(events)
    log.open(header_extras={"pid": 7})
    log.append("submit", "job-000001", trace_id="tr-1", tenant="ténant")
    log.append(
        "lease", "job-000001", trace_id="tr-1", runner="runner-1",
        attempt=1, lease_seq=1,
    )
    log.close()
    log = EventLog(events)
    log.open()
    log.append(
        "complete", "job-000001", trace_id="tr-1", state="done", source="search"
    )
    log.close()


def test_untorn_files_are_byte_identical(tmp_path):
    _write_fixed_sequences(str(tmp_path))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FIXED_SEQUENCE_SHA256
    }
    assert digests == FIXED_SEQUENCE_SHA256


# -- resume through the optimizer -----------------------------------------------


def _decisions(outcome) -> list[tuple]:
    return [
        (t.label, t.fingerprint, t.accepted, t.reason, t.total_cycles)
        for t in outcome.traces
    ]


def test_resume_after_torn_record_matches_uninterrupted(tmp_path):
    """Cut the last candidate record in half and resume three times:
    every resume matches the uninterrupted search, the first restores
    the three whole records, and later ones restore all four."""
    graph = get_model("vgg19_bench")
    ck = tmp_path / "ck.jsonl"
    options = OptimizerOptions(
        restarts=3, seed=0, sa_params=SAParams(max_iterations=30),
        checkpoint=str(ck),
    )
    full = AtomicDataflowOptimizer(graph, DEFAULT_ARCH, options).optimize()
    assert len(full.traces) == 4
    raw = ck.read_bytes()
    last = raw[:-1].rsplit(b"\n", 1)[1]
    os.truncate(ck, len(raw) - 1 - len(last) // 2)

    restored = []
    for _ in range(3):
        resumed = AtomicDataflowOptimizer(
            graph, DEFAULT_ARCH, replace(options, resume=True)
        ).optimize()
        restored.append(sum(t.restored for t in resumed.traces))
        assert resumed.result.total_cycles == full.result.total_cycles
        assert _decisions(resumed) == _decisions(full)
        assert resumed.result.to_dict() == full.result.to_dict()
    assert restored == [3, 4, 4]
    assert all(line.obj is not None for line in read_lines(ck))


def test_checkpoint_key_mismatch_still_refused_after_a_tear(tmp_path):
    path = tmp_path / "ck.jsonl"
    _checkpoint(str(path), append=[0])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"label": "job-0000')
    with pytest.raises(CheckpointError, match="different search"):
        CheckpointJournal(path, {**KEY, "seed": 1}).open(resume=True)
    assert path.read_text().endswith('{"label": "job-0000')  # untouched
