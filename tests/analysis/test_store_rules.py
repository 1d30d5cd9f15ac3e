"""AD801: solution-store integrity, one seeded problem per case."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.service_rules import check_store
from repro.fingerprint import SOLUTION_FORMAT, SOLUTION_VERSION
from repro.service.store import SolutionStore

FP = "ab" * 32

#: The smallest document the store's shape check accepts.
DOC = {
    "format": SOLUTION_FORMAT,
    "version": SOLUTION_VERSION,
    "workload": "tiny",
    "dataflow": "kc",
    "batch": 1,
    "tiling": {},
    "rounds": [],
    "placement": [],
    "metrics": {"total_cycles": 7},
}


@pytest.fixture
def root(tmp_path):
    """A store holding one entry, ``FP``."""
    SolutionStore(tmp_path / "store").put(FP, DOC)
    return tmp_path / "store"


def _edit_index(root, **fields):
    index_path = root / "index.json"
    index = json.loads(index_path.read_text())
    index["entries"][FP].update(fields)
    index_path.write_text(json.dumps(index))


def _replace_object(root, payload: bytes):
    """Swap the object's bytes and re-index their size and digest, so
    only the document checks can object."""
    (root / "objects" / f"{FP}.json").write_bytes(payload)
    _edit_index(
        root, size_bytes=len(payload), sha256=hashlib.sha256(payload).hexdigest()
    )


def _only_finding(root) -> str:
    report = check_store(root)
    assert [d.rule_id for d in report.diagnostics] == ["AD801"]
    return report.diagnostics[0].message


def test_clean_store_emits_nothing(root):
    report = check_store(root)
    assert report.ok and report.diagnostics == []


def test_objects_without_index(root):
    (root / "index.json").unlink()
    assert "index.json is missing" in _only_finding(root)


def test_unreadable_index(root):
    (root / "index.json").write_text("{ torn")
    assert "unreadable index" in _only_finding(root)


def test_indexed_object_missing(root):
    (root / "objects" / f"{FP}.json").unlink()
    assert "indexed object file is missing" in _only_finding(root)


def test_size_mismatch(root):
    _edit_index(root, size_bytes=1)
    assert "index says 1" in _only_finding(root)


def test_digest_mismatch(root):
    obj = root / "objects" / f"{FP}.json"
    payload = bytearray(obj.read_bytes())
    payload[10] ^= 0xFF  # same size, other bytes
    obj.write_bytes(bytes(payload))
    assert "content digest mismatch" in _only_finding(root)


def test_invalid_json_under_matching_digest(root):
    _replace_object(root, b"{ not json")
    assert "not valid JSON" in _only_finding(root)


def test_bad_document_shape_under_matching_digest(root):
    _replace_object(root, json.dumps({**DOC, "format": "other"}).encode())
    assert "stored document invalid" in _only_finding(root)


def test_workload_disagreement(root):
    _edit_index(root, workload="other")
    assert "document workload 'tiny'" in _only_finding(root)


def test_cycle_disagreement(root):
    _edit_index(root, total_cycles=8)
    assert "document reports 7 cycles; index says 8" in _only_finding(root)


@pytest.mark.parametrize(
    "fields",
    [{"last_access": 0}, {"last_access": 99}, {"created_seq": "1"}],
    ids=["accessed-before-created", "accessed-after-clock", "non-int"],
)
def test_inconsistent_lru_sequencing(root, fields):
    _edit_index(root, **fields)
    assert "LRU sequencing inconsistent" in _only_finding(root)


def test_orphan_object(root):
    orphan = root / "objects" / f"{'cd' * 32}.json"
    orphan.write_bytes((root / "objects" / f"{FP}.json").read_bytes())
    assert "not indexed" in _only_finding(root)
