"""SolutionStore: content addressing, integrity, LRU eviction."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.fingerprint import request_fingerprint
from repro.framework import AtomicDataflowOptimizer
from repro.models import get_model
from repro.obs import get_registry
from repro.fingerprint import canonical_solution_bytes
from repro.serialize import solution_to_dict
from repro.service import SolutionStore
from repro.service.store import StoreError, check_solution_document


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One real solved workload shared by every test in this module."""
    from repro.atoms.generation import SAParams
    from repro.config import ArchConfig
    from repro.framework import OptimizerOptions

    arch = ArchConfig(mesh_rows=4, mesh_cols=4)
    options = OptimizerOptions(sa_params=SAParams(max_iterations=8), seed=3)
    graph = get_model("mobilenet_v2_bench")
    outcome = AtomicDataflowOptimizer(graph, arch, options).optimize()
    doc = solution_to_dict(outcome, options.dataflow, include_search=False)
    fp = request_fingerprint(graph, arch, options)
    return graph, arch, doc, fp


def _fake_doc(doc: dict, workload: str, cycles: int) -> dict:
    clone = json.loads(json.dumps(doc))
    clone["workload"] = workload
    clone["metrics"]["total_cycles"] = cycles
    return clone


class TestPutGet:
    def test_round_trip_byte_exact(self, tmp_path, solved):
        graph, arch, doc, fp = solved
        store = SolutionStore(tmp_path / "store")
        written = store.put(fp, doc, graph=graph, arch=arch)
        assert store.get(fp) == written
        assert written == canonical_solution_bytes(doc)

    def test_search_section_stripped(self, tmp_path, solved):
        graph, arch, doc, fp = solved
        store = SolutionStore(tmp_path / "store")
        noisy = dict(doc, search={"seconds": 1.23})
        assert b"search" not in store.put(fp, noisy, graph=graph, arch=arch)

    def test_miss_returns_none(self, tmp_path):
        store = SolutionStore(tmp_path / "store")
        assert store.get("ab" * 32) is None
        assert get_registry().counter("store.misses").value == 1

    def test_rejects_invalid_fingerprint(self, tmp_path, solved):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.put("../escape", doc)
        with pytest.raises(StoreError):
            store.get("NOT-HEX")

    def test_rejects_malformed_document(self, tmp_path):
        store = SolutionStore(tmp_path / "store")
        with pytest.raises(StoreError, match="invalid solution"):
            store.put("ab" * 32, {"format": "wrong"})

    def test_write_validation_rejects_mismatched_graph(self, tmp_path, solved):
        graph, arch, doc, fp = solved
        from repro.analysis import ArtifactValidationError

        store = SolutionStore(tmp_path / "store")
        other = get_model("vgg19_bench")
        with pytest.raises((ArtifactValidationError, KeyError, ValueError)):
            store.put(fp, doc, graph=other, arch=arch)
        assert fp not in store  # failed put leaves no trace

    def test_corrupt_object_dropped_on_read(self, tmp_path, solved):
        graph, arch, doc, fp = solved
        store = SolutionStore(tmp_path / "store")
        store.put(fp, doc, graph=graph, arch=arch)
        obj = tmp_path / "store" / "objects" / f"{fp}.json"
        payload = bytearray(obj.read_bytes())
        payload[10] ^= 0xFF
        obj.write_bytes(bytes(payload))
        assert store.get(fp) is None
        assert fp not in store
        assert get_registry().counter("store.corrupt").value == 1

    def test_hit_counters_and_metadata(self, tmp_path, solved):
        graph, arch, doc, fp = solved
        store = SolutionStore(tmp_path / "store")
        store.put(fp, doc, graph=graph, arch=arch)
        store.get(fp)
        store.get(fp)
        entry = store.info(fp)
        assert entry.hits == 2
        assert entry.workload == doc["workload"]
        assert entry.total_cycles == doc["metrics"]["total_cycles"]
        assert get_registry().counter("store.hits").value == 2


class TestEviction:
    def _fill(self, store, doc, n):
        fps = []
        for i in range(n):
            fp = f"{i:02x}" * 32
            store.put(fp, _fake_doc(doc, f"w{i}", 1000 + i))
            fps.append(fp)
        return fps

    def test_gc_evicts_lru_first(self, tmp_path, solved):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        fps = self._fill(store, doc, 3)
        store.get(fps[0])  # 0 is now most recently used
        size = store.info(fps[0]).size_bytes
        evicted = store.gc(2 * size + 10)
        assert evicted == [fps[1]]  # oldest access went first
        assert fps[0] in store and fps[2] in store

    def test_gc_to_zero_empties(self, tmp_path, solved):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        self._fill(store, doc, 3)
        store.gc(0)
        assert len(store) == 0
        assert store.total_bytes == 0
        assert not list((tmp_path / "store" / "objects").glob("*.json"))

    def test_capacity_enforced_on_put(self, tmp_path, solved):
        *_, doc, _ = solved
        probe = SolutionStore(tmp_path / "probe")
        probe.put("ab" * 32, _fake_doc(doc, "probe", 1))
        size = probe.info("ab" * 32).size_bytes
        store = SolutionStore(tmp_path / "store", capacity_bytes=2 * size + 10)
        self._fill(store, doc, 4)
        assert len(store) <= 2
        assert store.total_bytes <= 2 * size + 10
        assert get_registry().counter("store.evictions").value >= 2


class TestPersistence:
    def test_reopen_preserves_entries_and_lru(self, tmp_path, solved):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        fps = [f"{i:02x}" * 32 for i in range(2)]
        for i, fp in enumerate(fps):
            store.put(fp, _fake_doc(doc, f"w{i}", i))
        store.get(fps[0])
        reopened = SolutionStore(tmp_path / "store")
        assert len(reopened) == 2
        order = [e.fingerprint for e in reopened.ls()]
        assert order[0] == fps[0]  # most recently used first

    def test_corrupt_index_rebuilt_from_objects(self, tmp_path, solved):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        fp = "ab" * 32
        store.put(fp, _fake_doc(doc, "w", 7))
        (tmp_path / "store" / "index.json").write_text("{ not json")
        rebuilt = SolutionStore(tmp_path / "store")
        assert fp in rebuilt
        assert rebuilt.get(fp) is not None

    def test_ls_and_info(self, tmp_path, solved):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        assert store.ls() == []
        assert store.info("ab" * 32) is None
        store.put("ab" * 32, _fake_doc(doc, "w", 7))
        assert [e.fingerprint for e in store.ls()] == ["ab" * 32]


class TestTornWrites:
    """Crash-truncated files: the index rebuilds, objects become misses."""

    def test_torn_index_tail_rebuilds_from_objects(self, tmp_path, solved):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        fps = [f"{i:02x}" * 32 for i in range(3)]
        for i, fp in enumerate(fps):
            store.put(fp, _fake_doc(doc, f"w{i}", 1000 + i))
        index = tmp_path / "store" / "index.json"
        payload = index.read_bytes()
        index.write_bytes(payload[: len(payload) // 2])  # the torn write
        rebuilt = SolutionStore(tmp_path / "store")
        assert len(rebuilt) == 3
        for fp in fps:
            assert rebuilt.get(fp) is not None

    def test_rebuilt_index_eviction_order_is_deterministic(
        self, tmp_path, solved
    ):
        """Two identical rebuilds gc in the same order (re-sequenced by
        sorted fingerprint, never by wall clock)."""
        *_, doc, _ = solved
        orders = []
        for run in ("a", "b"):
            store = SolutionStore(tmp_path / run)
            for i in range(3):
                store.put(f"{i:02x}" * 32, _fake_doc(doc, f"w{i}", 1000 + i))
            (tmp_path / run / "index.json").write_text("{ torn")
            rebuilt = SolutionStore(tmp_path / run)
            size = rebuilt.info("00" * 32).size_bytes
            orders.append(rebuilt.gc(size + 10))
        assert orders[0] == orders[1]
        assert orders[0] == [f"{i:02x}" * 32 for i in range(2)]

    def test_torn_object_tail_is_a_miss(self, tmp_path, solved):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        fp = "ab" * 32
        store.put(fp, _fake_doc(doc, "w", 7))
        obj = tmp_path / "store" / "objects" / f"{fp}.json"
        payload = obj.read_bytes()
        obj.write_bytes(payload[: len(payload) - 5])  # truncated tail
        assert store.get(fp) is None  # digest mismatch, never a wrong answer
        assert fp not in store
        assert get_registry().counter("store.corrupt").value == 1

    def test_stale_staging_files_are_not_indexed(self, tmp_path, solved):
        """A crash can leave `.tmpN` staging files behind; a rebuild
        must not mistake them for objects."""
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        fp = "ab" * 32
        store.put(fp, _fake_doc(doc, "w", 7))
        stale = tmp_path / "store" / "objects" / f"{'cd' * 32}.json.tmp3"
        stale.write_bytes(b"{ half-written")
        (tmp_path / "store" / "index.json").write_text("{ torn")
        rebuilt = SolutionStore(tmp_path / "store")
        assert len(rebuilt) == 1
        assert fp in rebuilt


class TestDocumentCheck:
    def test_accepts_valid(self, solved):
        *_, doc, _ = solved
        assert check_solution_document(doc) is None

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (lambda d: d.update(format="x"), "format"),
            (lambda d: d.update(version=99), "version"),
            (lambda d: d.pop("tiling"), "missing"),
            (lambda d: d["metrics"].update(total_cycles=-1), "total_cycles"),
        ],
    )
    def test_rejects_bad_shapes(self, solved, mutate, expected):
        *_, doc, _ = solved
        clone = json.loads(json.dumps(doc))
        mutate(clone)
        problem = check_solution_document(clone)
        assert problem is not None and expected in problem


class TestCheckedDigests:
    """Reads re-hash every payload; the shape check runs once per digest
    per store instance and is never persisted."""

    @pytest.fixture
    def shape_checks(self, monkeypatch):
        """Every call of the store's shape check, by the document it saw."""
        import repro.service.store as store_module

        calls = []
        check = store_module.check_solution_document

        def counting(doc):
            calls.append(doc)
            return check(doc)

        monkeypatch.setattr(store_module, "check_solution_document", counting)
        return calls

    def test_second_read_skips_the_shape_check_not_the_digest(
        self, tmp_path, solved, shape_checks
    ):
        *_, doc, _ = solved
        fp = "ab" * 32
        written = SolutionStore(tmp_path / "store").put(fp, doc)
        store = SolutionStore(tmp_path / "store")  # knows no verdict yet
        shape_checks.clear()
        assert store.get(fp) == written
        assert len(shape_checks) == 1
        assert store.get(fp) == written
        assert len(shape_checks) == 1
        obj = tmp_path / "store" / "objects" / f"{fp}.json"
        payload = bytearray(obj.read_bytes())
        payload[10] ^= 0xFF
        obj.write_bytes(bytes(payload))
        assert store.get(fp) is None
        assert fp not in store
        assert get_registry().counter("store.corrupt").value == 1

    def test_fresh_instance_checks_a_matching_digest(self, tmp_path, solved):
        """An index edited to the digest of malformed bytes: the digest
        matches, so only the shape check can refuse the object."""
        *_, doc, _ = solved
        fp = "ab" * 32
        SolutionStore(tmp_path / "store").put(fp, doc)
        bad = json.dumps({"format": "not-a-solution"}).encode()
        (tmp_path / "store" / "objects" / f"{fp}.json").write_bytes(bad)
        index_path = tmp_path / "store" / "index.json"
        index = json.loads(index_path.read_text())
        index["entries"][fp].update(
            sha256=hashlib.sha256(bad).hexdigest(), size_bytes=len(bad)
        )
        index_path.write_text(json.dumps(index))
        store = SolutionStore(tmp_path / "store")
        assert fp in store
        assert store.get(fp) is None
        assert fp not in store
        assert get_registry().counter("store.corrupt").value == 1

    def test_put_marks_its_own_digest_checked(
        self, tmp_path, solved, shape_checks
    ):
        *_, doc, _ = solved
        store = SolutionStore(tmp_path / "store")
        written = store.put("ab" * 32, doc)
        assert len(shape_checks) == 1  # put's own check
        assert store.get("ab" * 32) == written
        assert len(shape_checks) == 1
        # The same bytes under another key share the verdict.
        assert store.put("cd" * 32, doc) == written
        assert store.get("cd" * 32) == written
        assert len(shape_checks) == 2
