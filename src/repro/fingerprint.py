"""Canonical request fingerprints for the compile service.

A *compile request* is fully determined by three values: the workload
graph, the target :class:`~repro.config.ArchConfig`, and the search
knobs (:class:`~repro.framework.OptimizerOptions`).  This module defines
the canonical JSON form of each and the SHA-256 digests over them, so
that two requests that would produce bit-identical solutions hash to the
same fingerprint — the key of the content-addressed solution store and
of warm-session reuse in :mod:`repro.service`.

Fingerprint grammar (see DESIGN.md §15):

* every digest is ``sha256(canonical_json(doc))`` over a pure-JSON
  document serialized with sorted keys and no whitespace;
* ``graph_fingerprint`` covers the node list (ids, names, op kind +
  parameters, wiring, output shapes) and the graph name;
* ``arch_fingerprint`` covers every field of ``ArchConfig`` including
  the nested engine/NoC/HBM/energy configs;
* ``request_fingerprint`` covers ``{graph, arch, options}`` where
  options exclude :data:`EXECUTION_KEYS` — knobs that change *how* the
  search executes (worker count, retries, checkpointing) but never
  *what* it decides, per the determinism contract (``jobs=1`` and
  ``jobs=N`` are bit-identical).

The solution document's format tag and its canonical byte form
(:func:`canonical_solution_bytes`, the store's content) live here too,
so the store's read path checks a document without loading the
serializer.  This module imports only the IR and config layers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping

from repro.config import (
    ArchConfig,
    EnergyConfig,
    EngineConfig,
    HbmConfig,
    NocConfig,
)
from repro.ir.graph import Graph

#: Version of the fingerprint grammar; bump on any change to the
#: canonical documents below (a bump invalidates every stored solution).
#: v2: options grew the parallel-tempering knobs (``rungs``,
#: ``exchange_every``, ``portfolio``) and ``sa_params.schedule``.
FINGERPRINT_VERSION = 2

#: Format tag and version of a solution document
#: (:func:`repro.serialize.solution_to_dict`).
SOLUTION_FORMAT = "atomic-dataflow-solution"
SOLUTION_VERSION = 1

#: ``OptimizerOptions`` fields that change how a search *executes* but
#: never what it *decides* — excluded from the request fingerprint.
#: The tempering knobs (``rungs``, ``exchange_every``, ``portfolio``)
#: are deliberately *not* here: they pick the candidate set and the
#: exchange protocol, so two requests differing in them may decide
#: differently and must fingerprint differently.
EXECUTION_KEYS = frozenset(
    {
        "jobs",
        "validate",
        "retries",
        "candidate_timeout_s",
        "checkpoint",
        "resume",
        "faults",
    }
)


def canonical_json(doc: Any) -> str:
    """The one true serialization fingerprints are taken over.

    Sorted keys and no whitespace, so logically equal documents are
    byte-equal.  Rejects NaN/Infinity (they have no canonical JSON
    form and would make equal requests hash unequal).
    """
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_solution_bytes(doc: Mapping[str, Any]) -> bytes:
    """The byte-exact form of a solution document in the service store.

    Drops the non-deterministic ``search`` section and serializes with
    :func:`canonical_json`, so equal solutions are byte-equal — the
    property behind the cache-hit contract ("a hit returns the
    byte-identical document") and the AD801 store-integrity check.
    """
    return canonical_json(
        {k: v for k, v in doc.items() if k != "search"}
    ).encode()


def _digest(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _jsonify(value: Any) -> Any:
    """Normalize to pure JSON types (tuples become lists)."""
    if isinstance(value, Mapping):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def op_to_dict(op: Any) -> dict:
    """An operator as ``{"kind": ClassName, **fields}``.

    All concrete ops are frozen dataclasses; nested dataclasses (e.g.
    the ``Input`` op's :class:`~repro.ir.tensor.TensorShape`) flatten
    to plain mappings and tuples serialize as JSON arrays.
    """
    if not dataclasses.is_dataclass(op):
        raise ValueError(f"cannot fingerprint non-dataclass op {type(op).__name__}")
    doc = _jsonify(dataclasses.asdict(op))
    doc["kind"] = type(op).__name__
    return doc


def graph_to_dict(graph: Graph) -> dict:
    """The canonical structural document of a workload graph."""
    return {
        "name": graph.name,
        "nodes": [
            {
                "id": node.node_id,
                "name": node.name,
                "op": op_to_dict(node.op),
                "inputs": list(node.inputs),
                "output_shape": [
                    node.output_shape.height,
                    node.output_shape.width,
                    node.output_shape.channels,
                ],
            }
            for node in graph.nodes
        ],
    }


def graph_fingerprint(graph: Graph) -> str:
    """SHA-256 digest of :func:`graph_to_dict`."""
    return _digest(graph_to_dict(graph))


def arch_to_dict(arch: ArchConfig) -> dict:
    """The canonical document of an architecture configuration."""
    return _jsonify(dataclasses.asdict(arch))


def _from_dict(cls: type, doc: Mapping[str, Any], what: str) -> Any:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    return cls(**dict(doc))


def arch_from_dict(doc: Mapping[str, Any]) -> ArchConfig:
    """Rebuild an :class:`ArchConfig` from :func:`arch_to_dict` output.

    Raises:
        ValueError: On unknown keys (top-level or nested) or values the
            config classes reject.
    """
    top = dict(doc)
    nested: dict[str, Any] = {}
    for key, cls in (
        ("engine", EngineConfig),
        ("noc", NocConfig),
        ("hbm", HbmConfig),
        ("energy", EnergyConfig),
    ):
        if key in top:
            sub = top.pop(key)
            if not isinstance(sub, Mapping):
                raise ValueError(f"arch {key!r} must be a mapping")
            nested[key] = _from_dict(cls, sub, f"arch.{key}")
    arch = _from_dict(ArchConfig, top, "arch")
    return dataclasses.replace(arch, **nested)


def arch_fingerprint(arch: ArchConfig) -> str:
    """SHA-256 digest of :func:`arch_to_dict`."""
    return _digest(arch_to_dict(arch))


def request_head(arch: ArchConfig, options: Any) -> dict:
    """Every input of a request fingerprint except the graph.

    ``options`` is an :class:`~repro.framework.OptimizerOptions` (or any
    object with a ``to_dict``) or an already-serialized options mapping;
    :data:`EXECUTION_KEYS` are dropped either way.  A caller whose graph
    is a pure function of a name (the service's zoo models) may key a
    memo of fingerprints by this document plus that name.
    """
    if hasattr(options, "to_dict"):
        options = options.to_dict()
    if not isinstance(options, Mapping):
        raise ValueError(
            f"options must be a mapping or provide to_dict(), "
            f"got {type(options).__name__}"
        )
    return {
        "fingerprint_version": FINGERPRINT_VERSION,
        "arch": arch_to_dict(arch),
        "options": {
            k: v for k, v in options.items() if k not in EXECUTION_KEYS
        },
    }


def request_to_dict(
    graph: Graph, arch: ArchConfig, options: Any
) -> dict:
    """The canonical document a request fingerprint is taken over:
    :func:`request_head` plus the graph."""
    doc = request_head(arch, options)
    doc["graph"] = graph_to_dict(graph)
    return doc


def request_fingerprint(
    graph: Graph, arch: ArchConfig, options: Any
) -> str:
    """SHA-256 digest identifying a compile request.

    Equal fingerprints guarantee bit-identical solution documents (the
    service's cache-hit contract); the digest ignores execution-only
    knobs, so ``jobs=1`` and ``jobs=8`` requests share an entry.
    """
    return _digest(request_to_dict(graph, arch, options))


__all__ = [
    "EXECUTION_KEYS",
    "FINGERPRINT_VERSION",
    "SOLUTION_FORMAT",
    "SOLUTION_VERSION",
    "arch_fingerprint",
    "arch_from_dict",
    "arch_to_dict",
    "canonical_json",
    "canonical_solution_bytes",
    "graph_fingerprint",
    "graph_to_dict",
    "op_to_dict",
    "request_fingerprint",
    "request_head",
    "request_to_dict",
]
