"""Append-only JSONL checkpoint journal for the staged search.

A journal records every candidate the search *finished* evaluating, so a
crashed or interrupted run resumes by re-evaluating zero completed
candidates.  The file is a :class:`repro.journal.Journal` — header line,
one ``sort_keys`` JSON line per record, ``fsync`` per append, and the
whole-line rule for torn tails — holding:

* a header ``{"format": ..., "version": ..., "key": {...}}`` where
  ``key`` captures everything that determines the candidate set and its
  results (workload, architecture, seed, restarts, search knobs).  A
  resume against a journal whose key differs is refused
  (:class:`CheckpointError`) rather than silently mixing two searches;
* one completed-candidate record per further line, keyed by its
  ``label`` (shape owned by :mod:`repro.pipeline`, which also
  re-verifies each record's tiling fingerprint on restore — a record
  this module accepts is *syntactically* sound, not yet trusted).  A
  last record without a label is dropped like a torn tail; one anywhere
  else refuses the journal.

The journal never rewrites or compacts: resuming appends to the same
file, so one file accumulates the full history of a search across any
number of interruptions.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.journal import Journal

#: Format tag in the journal header; bump :data:`CHECKPOINT_VERSION` on
#: any record-shape change.
CHECKPOINT_FORMAT = "atomic-dataflow-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """The journal cannot be used: wrong format, version, or search key."""


def _labelled(record: dict[str, Any]) -> dict[str, Any]:
    label = record.get("label")
    if not isinstance(label, str) or not label:
        raise ValueError("record has no candidate label")
    return record


class CheckpointJournal:
    """One append-only JSONL journal bound to one search key.

    Usage::

        journal = CheckpointJournal(path, key)
        records = journal.open(resume=True)   # label -> record dict
        ...
        journal.append(record)                # after each completed candidate
        journal.close()

    ``key`` must be a JSON round-trippable dict; equality after a
    ``json`` round trip is the compatibility test between the running
    search and the journal on disk.
    """

    def __init__(self, path: str | os.PathLike, key: dict[str, Any]) -> None:
        self.path = os.fspath(path)
        self.key = json.loads(json.dumps(key))
        self._journal = Journal(self.path, "journal", CheckpointError)

    # -- lifecycle ---------------------------------------------------------

    def open(self, resume: bool = False) -> dict[str, dict[str, Any]]:
        """Open the journal for appending; return already-completed records.

        Args:
            resume: Load existing records (key must match) instead of
                truncating.  With ``resume=False`` an existing file is
                overwritten; with ``resume=True`` a missing file simply
                starts a fresh journal.

        Returns:
            Completed-candidate records keyed by spec label (empty for a
            fresh journal); a later record for a label wins.

        Raises:
            CheckpointError: The existing file is not a journal, has an
                incompatible version, or was written by a search with a
                different key.
        """
        if resume and os.path.exists(self.path):
            _, records = self._journal.resume(self._validate_header, _labelled)
            return {record["label"]: record for record in records}
        self._journal.create(
            {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "key": self.key,
            }
        )
        return {}

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one completed-candidate record."""
        self._journal.append(record)

    def _validate_header(self, header: dict[str, Any]) -> None:
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not an {CHECKPOINT_FORMAT} journal")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                "unsupported checkpoint version "
                f"{header.get('version')!r} (expected {CHECKPOINT_VERSION})"
            )
        if header.get("key") != self.key:
            raise ValueError(
                "checkpoint was written by a different search "
                "(workload/architecture/seed/search options differ); "
                "refusing to resume"
            )
