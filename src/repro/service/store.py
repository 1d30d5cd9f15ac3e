"""Content-addressed on-disk store of validated solution documents.

Layout under the store root::

    index.json           # access metadata (atomic temp+replace writes)
    objects/<fp>.json    # canonical solution bytes, keyed by request
                         # fingerprint

Every entry is written through :func:`repro.fingerprint.canonical_solution_bytes`,
so a cache hit returns the byte-identical document the original search
produced.  Writes are Tier-A validated (the full artifact rule set
against a rebuilt graph); reads are integrity-checked — the cheap half
of AD801, which ``repro check --store`` runs in full.  Every read
re-hashes the object's bytes against the index digest; the document
shape check runs once per digest per store instance, because its
verdict is a function of the bytes alone and a digest match means the
bytes are the ones that passed.

Eviction is LRU by a persisted monotonically increasing access sequence,
never by wall-clock time, so `gc` decisions replay identically.
Counters land in :mod:`repro.obs` metrics as ``store.hits`` /
``.misses`` / ``.evictions`` / ``.writes`` / ``.corrupt``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.fingerprint import (
    SOLUTION_FORMAT,
    SOLUTION_VERSION,
    canonical_solution_bytes,
)
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry

#: Format tag of ``index.json``; bump the version on layout changes.
STORE_FORMAT = "atomic-dataflow-store-index"
STORE_VERSION = 1

_log = get_logger(__name__)


class StoreError(ValueError):
    """A store operation was handed an invalid document or fingerprint."""


def check_solution_document(doc: Any) -> str | None:
    """Cheap shape check of a solution document (the read-path gate).

    Returns a problem description or None.  This is deliberately light —
    no graph rebuild — so cache hits stay orders of magnitude faster
    than searches; the full Tier-A validation runs on every write and in
    ``repro check --store`` (AD801).
    """
    if not isinstance(doc, dict):
        return "document is not a JSON object"
    if doc.get("format") != SOLUTION_FORMAT:
        return f"format {doc.get('format')!r} != {SOLUTION_FORMAT!r}"
    if doc.get("version") != SOLUTION_VERSION:
        return f"unsupported version {doc.get('version')!r}"
    missing = [
        k
        for k in ("workload", "dataflow", "batch", "tiling", "rounds",
                  "placement", "metrics")
        if k not in doc
    ]
    if missing:
        return f"missing section(s): {', '.join(missing)}"
    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or "total_cycles" not in metrics:
        return "metrics section carries no total_cycles"
    if not isinstance(metrics["total_cycles"], int) or metrics["total_cycles"] < 0:
        return f"total_cycles {metrics['total_cycles']!r} is not a non-negative int"
    return None


@dataclass(frozen=True)
class StoreEntry:
    """Index metadata of one stored solution.

    Attributes:
        fingerprint: Request fingerprint (the object key).
        size_bytes: Stored document size.
        sha256: Content digest of the stored bytes.
        workload: Model name, for ``repro cache ls`` display.
        total_cycles: Solution cost, for display.
        created_seq: Access sequence at write time.
        last_access: Access sequence of the most recent read or write
            (the LRU key; monotonic counter, not wall time).
        hits: Reads served from this entry.
    """

    fingerprint: str
    size_bytes: int
    sha256: str
    workload: str
    total_cycles: int
    created_seq: int
    last_access: int
    hits: int = 0

    def to_dict(self) -> dict:
        return {
            "size_bytes": self.size_bytes,
            "sha256": self.sha256,
            "workload": self.workload,
            "total_cycles": self.total_cycles,
            "created_seq": self.created_seq,
            "last_access": self.last_access,
            "hits": self.hits,
        }


class SolutionStore:
    """Content-addressed solution cache with LRU eviction.

    Thread-safe: one lock serializes index mutation (the daemon's
    submit path and runner thread both touch it).

    Args:
        root: Store directory (created on demand).
        capacity_bytes: Soft size cap enforced after every write; None
            disables automatic eviction (``gc`` can still be run
            explicitly).
    """

    def __init__(
        self, root: str | os.PathLike, capacity_bytes: int | None = None
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.index_path = self.root / "index.json"
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self.objects.mkdir(parents=True, exist_ok=True)
        self._access_seq = 0
        self._tmp_seq = 0
        self._entries: dict[str, StoreEntry] = {}
        # Content digests whose bytes passed check_solution_document in
        # this instance; never persisted, so a reopened store re-checks.
        self._checked: set[str] = set()
        self._load_index()

    # -- index persistence --------------------------------------------------

    def _load_index(self) -> None:
        try:
            doc = json.loads(self.index_path.read_text(encoding="utf-8"))
            if doc.get("format") != STORE_FORMAT:
                raise ValueError(f"not a store index: {doc.get('format')!r}")
            if doc.get("version") != STORE_VERSION:
                raise ValueError(f"unsupported index version {doc.get('version')!r}")
            self._access_seq = int(doc["access_seq"])
            self._entries = {
                fp: StoreEntry(
                    fingerprint=fp,
                    size_bytes=int(e["size_bytes"]),
                    sha256=e["sha256"],
                    workload=e["workload"],
                    total_cycles=int(e["total_cycles"]),
                    created_seq=int(e["created_seq"]),
                    last_access=int(e["last_access"]),
                    hits=int(e.get("hits", 0)),
                )
                for fp, e in doc["entries"].items()
            }
        except FileNotFoundError:
            return
        except (ValueError, KeyError, TypeError) as exc:
            _log.warning("store index unreadable (%s); rebuilding", exc)
            self._rebuild_index()

    def _rebuild_index(self) -> None:
        """Reconstruct the index by scanning ``objects/`` (crash recovery).

        Access history is lost; entries are re-sequenced in sorted
        fingerprint order, which is deterministic if arbitrary.
        """
        self._entries = {}
        self._access_seq = 0
        for path in sorted(self.objects.glob("*.json")):
            fp = path.stem
            try:
                payload = path.read_bytes()
                doc = json.loads(payload)
            except (OSError, ValueError):
                continue
            problem = check_solution_document(doc)
            if problem is not None:
                _log.warning("dropping unreadable store object %s: %s", fp, problem)
                continue
            self._access_seq += 1
            self._entries[fp] = StoreEntry(
                fingerprint=fp,
                size_bytes=len(payload),
                sha256=hashlib.sha256(payload).hexdigest(),
                workload=str(doc.get("workload", "")),
                total_cycles=int(doc["metrics"]["total_cycles"]),
                created_seq=self._access_seq,
                last_access=self._access_seq,
                hits=0,
            )
        self._save_index()

    def _save_index(self) -> None:
        doc = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "access_seq": self._access_seq,
            "entries": {
                fp: entry.to_dict() for fp, entry in sorted(self._entries.items())
            },
        }
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.index_path)

    # -- primitives ---------------------------------------------------------

    def _object_path(self, fingerprint: str) -> Path:
        if not fingerprint or not all(
            c in "0123456789abcdef" for c in fingerprint
        ):
            raise StoreError(f"invalid fingerprint {fingerprint!r}")
        return self.objects / f"{fingerprint}.json"

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    @property
    def total_bytes(self) -> int:
        """Stored payload bytes summed over all entries."""
        return sum(e.size_bytes for e in self._entries.values())

    # -- the cache API ------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        doc: dict,
        graph: Any = None,
        arch: Any = None,
    ) -> bytes:
        """Validate and persist one solution document; return its bytes.

        The document is serialized canonically (``search`` section
        dropped, sorted keys, no whitespace), Tier-A validated against
        ``graph``/``arch`` when both are given (always give them on the
        daemon's write path), and written atomically.

        Raises:
            StoreError: On a document failing the shape check.
            repro.analysis.diagnostics.ArtifactValidationError: On a
                document failing full validation.
        """
        payload = canonical_solution_bytes(doc)
        problem = check_solution_document(json.loads(payload))
        if problem is not None:
            raise StoreError(f"refusing to store invalid solution: {problem}")
        path = self._object_path(fingerprint)
        with self._lock:
            # Unique temp name per write: two runners publishing the
            # same fingerprint concurrently must not clobber each
            # other's staging file mid-validation.
            self._tmp_seq += 1
            tmp = path.with_suffix(f".json.tmp{self._tmp_seq}")
        tmp.write_bytes(payload)
        try:
            if graph is not None and arch is not None:
                # Full Tier-A validation: the document must re-bind to a
                # freshly built graph and pass every artifact rule.
                from repro.analysis.diagnostics import assert_valid
                from repro.analysis.outcome import validate_solution_file

                assert_valid(validate_solution_file(tmp, graph, arch))
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, path)
        digest = hashlib.sha256(payload).hexdigest()
        registry = get_registry()
        with self._lock:
            self._checked.add(digest)  # shape-checked above
            self._access_seq += 1
            self._entries[fingerprint] = StoreEntry(
                fingerprint=fingerprint,
                size_bytes=len(payload),
                sha256=digest,
                workload=str(doc.get("workload", "")),
                total_cycles=int(doc["metrics"]["total_cycles"]),
                created_seq=self._access_seq,
                last_access=self._access_seq,
                hits=0,
            )
            registry.counter("store.writes").inc()
            if self.capacity_bytes is not None:
                self._evict_to(self.capacity_bytes)
            self._save_index()
            registry.gauge("store.bytes").set(self.total_bytes)
        return payload

    def get(self, fingerprint: str) -> bytes | None:
        """The byte-exact stored document, or None on miss.

        A stored object whose content digest or document shape no longer
        checks out is dropped (counted as ``store.corrupt``) and
        reported as a miss — corruption can cost a recompute, never a
        wrong answer.  Every read hashes the bytes it returns; the shape
        check runs only for a digest this instance has not checked yet.
        """
        registry = get_registry()
        with self._lock:
            self._object_path(fingerprint)  # reject malformed keys loudly
            entry = self._entries.get(fingerprint)
            if entry is None:
                registry.counter("store.misses").inc()
                return None
            try:
                payload = self._object_path(fingerprint).read_bytes()
            except OSError:
                payload = None
            problem = None
            if payload is None:
                problem = "object file unreadable"
            elif hashlib.sha256(payload).hexdigest() != entry.sha256:
                problem = "content digest mismatch"
            elif entry.sha256 not in self._checked:
                try:
                    problem = check_solution_document(json.loads(payload))
                except ValueError:
                    problem = "object is not valid JSON"
                if problem is None:
                    self._checked.add(entry.sha256)
            if problem is not None:
                _log.warning(
                    "dropping corrupt store entry %s: %s", fingerprint, problem
                )
                self._drop(fingerprint)
                self._save_index()
                registry.counter("store.corrupt").inc()
                registry.counter("store.misses").inc()
                return None
            self._access_seq += 1
            self._entries[fingerprint] = StoreEntry(
                **{
                    **entry.to_dict(),
                    "fingerprint": fingerprint,
                    "last_access": self._access_seq,
                    "hits": entry.hits + 1,
                }
            )
            self._save_index()
            registry.counter("store.hits").inc()
            return payload

    def _drop(self, fingerprint: str) -> None:
        entry = self._entries.pop(fingerprint, None)
        if entry is not None:
            # Bounds the set by what the store holds; another entry with
            # the same bytes is checked again on its next read.
            self._checked.discard(entry.sha256)
        self._object_path(fingerprint).unlink(missing_ok=True)

    def _evict_to(self, max_bytes: int) -> list[str]:
        """Evict least-recently-accessed entries until under the cap."""
        evicted: list[str] = []
        by_lru = sorted(self._entries.values(), key=lambda e: e.last_access)
        total = self.total_bytes
        for entry in by_lru:
            if total <= max_bytes:
                break
            self._drop(entry.fingerprint)
            total -= entry.size_bytes
            evicted.append(entry.fingerprint)
        if evicted:
            get_registry().counter("store.evictions").inc(len(evicted))
            _log.info("evicted %d store entr(ies)", len(evicted))
        return evicted

    def gc(self, max_bytes: int) -> list[str]:
        """Explicitly evict down to ``max_bytes``; returns evicted keys."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        with self._lock:
            evicted = self._evict_to(max_bytes)
            self._save_index()
            get_registry().gauge("store.bytes").set(self.total_bytes)
        return evicted

    def ls(self) -> list[StoreEntry]:
        """Every entry, most recently accessed first."""
        with self._lock:
            return sorted(
                self._entries.values(),
                key=lambda e: e.last_access,
                reverse=True,
            )

    def info(self, fingerprint: str) -> StoreEntry | None:
        """Index metadata of one entry (no access-sequence bump)."""
        with self._lock:
            return self._entries.get(fingerprint)


__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "SolutionStore",
    "StoreEntry",
    "StoreError",
    "check_solution_document",
]
