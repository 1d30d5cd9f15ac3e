"""Save and load optimization solutions as JSON.

DNN workloads are static, so the paper generates scheduling and mapping
solutions at compile time and loads them onto the accelerator as
configuration streams.  This module provides that deployment path: a
solution (tiling, Round schedule, placement) serializes to a portable JSON
document keyed by stable atom identities, and can be re-validated against a
freshly built graph on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.atoms.atom import TileSize
from repro.atoms.dag import AtomicDAG, build_atomic_dag
from repro.config import ArchConfig
from repro.engine.cost_model import EngineCostModel
from repro.engine.dataflow import get_dataflow

# Canonical request fingerprints live in the leaf module
# :mod:`repro.fingerprint` (the pipeline's context cache needs them
# without importing the framework); re-exported here because this is
# the serialization API surface.
from repro.fingerprint import (  # noqa: F401  (re-exports)
    EXECUTION_KEYS,
    FINGERPRINT_VERSION,
    arch_fingerprint,
    arch_from_dict,
    arch_to_dict,
    canonical_json,
    graph_fingerprint,
    graph_to_dict,
    request_fingerprint,
    request_to_dict,
)
from repro.framework import OptimizationOutcome
from repro.ir.graph import Graph
from repro.ir.transforms import fuse_elementwise
from repro.pipeline import CandidateTrace, bind_identities, identity_sections
from repro.scheduling.rounds import Schedule

#: Format identifier embedded in every solution document.
FORMAT = "atomic-dataflow-solution"
VERSION = 1

#: Format identifier of standalone search-trace documents (``--trace``).
TRACE_FORMAT = "atomic-dataflow-search-trace"


@dataclass(frozen=True)
class SolutionDocument:
    """A deserialized solution, re-bound to an atomic DAG.

    Attributes:
        dag: The rebuilt atomic DAG.
        schedule: The Round schedule.
        placement: Atom index -> engine.
        dataflow: Dataflow name the solution was generated for.
        batch: Batch size of the solution.
        traces: Candidate traces of the producing search, when recorded.
        search_seconds: Wall-clock search cost of the producing run.
    """

    dag: AtomicDAG
    schedule: Schedule
    placement: dict[int, int]
    dataflow: str
    batch: int
    traces: tuple[CandidateTrace, ...] = ()
    search_seconds: float = 0.0


def trace_to_dict(trace: CandidateTrace) -> dict:
    """Convert one candidate trace to a JSON-serializable mapping.

    Thin wrapper over :meth:`~repro.pipeline.CandidateTrace.to_dict`
    (where the schema lives, shared with the checkpoint journal); kept as
    a module function for API compatibility.
    """
    return trace.to_dict()


def trace_from_dict(doc: dict) -> CandidateTrace:
    """Rebuild a candidate trace from :func:`trace_to_dict` output.

    Raises:
        ValueError: On a malformed trace mapping.
    """
    return CandidateTrace.from_dict(doc)


def solution_to_dict(
    outcome: OptimizationOutcome, dataflow: str, include_search: bool = True
) -> dict:
    """Convert an optimizer outcome into a JSON-serializable document.

    Atoms are referenced by their stable ``(sample, layer, index)``
    identity, not by dense position, so the document survives reordering of
    DAG construction internals.

    Args:
        outcome: The optimizer outcome to serialize.
        dataflow: Engine dataflow name recorded in the document.
        include_search: Append the ``search`` section (wall-clock search
            seconds + per-candidate traces) when the outcome carries
            traces.  The section is *non-deterministic* (timings), so
            the service's content-addressed store writes canonical
            documents with ``include_search=False`` — see
            :func:`canonical_solution_bytes`.
    """
    dag = outcome.dag
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "workload": dag.graph.name,
        "dataflow": dataflow,
        "batch": dag.batch,
        **identity_sections(dag, outcome.schedule, outcome.placement),
        "metrics": {
            "total_cycles": outcome.result.total_cycles,
            "pe_utilization": outcome.result.pe_utilization,
            "onchip_reuse_ratio": outcome.result.onchip_reuse_ratio,
        },
    }
    if include_search and outcome.traces:
        doc["search"] = {
            "search_seconds": outcome.search_seconds,
            "traces": [trace_to_dict(t) for t in outcome.traces],
        }
    return doc


def canonical_solution_bytes(doc: dict) -> bytes:
    """The byte-exact form of a solution document in the service store.

    Drops the non-deterministic ``search`` section and serializes with
    :func:`canonical_json`, so equal solutions are byte-equal — the
    property behind the cache-hit contract ("a hit returns the
    byte-identical document") and the AD801 store-integrity check.
    """
    return canonical_json(
        {k: v for k, v in doc.items() if k != "search"}
    ).encode()


def save_solution(
    outcome: OptimizationOutcome, path: str | Path, dataflow: str = "kc"
) -> None:
    """Write a solution document to a JSON file."""
    with open(path, "w") as f:
        json.dump(solution_to_dict(outcome, dataflow), f, indent=2)


def load_solution(
    path: str | Path, graph: Graph, arch: ArchConfig
) -> SolutionDocument:
    """Load a solution and re-bind it to a freshly built graph.

    The graph is fused and re-partitioned with the document's tiling; the
    schedule and placement are resolved through stable atom identities and
    validated against the rebuilt DAG.

    Args:
        path: JSON file written by :func:`save_solution`.
        graph: The workload (pre-fusion), e.g. from :mod:`repro.models`.
        arch: Architecture the solution targets.

    Returns:
        The re-bound solution.

    Raises:
        ValueError: On format mismatches, workload-name mismatches, or a
            schedule that fails validation against the rebuilt DAG.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != FORMAT:
        raise ValueError(f"not a solution document: {path}")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported solution version {doc.get('version')}")

    fused = fuse_elementwise(graph).graph
    if fused.name != doc["workload"]:
        raise ValueError(
            f"solution is for workload {doc['workload']!r}, got {fused.name!r}"
        )
    tiling = {
        int(layer): TileSize(*extents) for layer, extents in doc["tiling"].items()
    }
    cost_model = EngineCostModel(
        arch.engine,
        get_dataflow(doc["dataflow"]),
        bytes_per_element=arch.bytes_per_element,
    )
    dag = build_atomic_dag(fused, tiling, cost_model, batch=doc["batch"])

    schedule, placement, unresolved = bind_identities(dag, doc)
    if unresolved:
        where, atom_id = unresolved[0]
        raise ValueError(f"{where}: unknown atom identity {atom_id!r}")
    schedule.validate(dag, arch.num_engines)
    search = doc.get("search", {})
    return SolutionDocument(
        dag=dag,
        schedule=schedule,
        placement=placement,
        dataflow=doc["dataflow"],
        batch=doc["batch"],
        traces=tuple(trace_from_dict(t) for t in search.get("traces", [])),
        search_seconds=search.get("search_seconds", 0.0),
    )


def save_search_trace(
    outcome: OptimizationOutcome, path: str | Path, workload: str | None = None
) -> None:
    """Write a standalone search-trace document (the CLI ``--trace`` path).

    Unlike the solution document, this records only *how the search went*
    — per-candidate stage timings, cache counters, accept/reject verdicts
    — not the solution artifacts themselves.
    """
    doc = {
        "format": TRACE_FORMAT,
        "version": VERSION,
        "workload": workload or outcome.dag.graph.name,
        "search_seconds": outcome.search_seconds,
        "traces": [trace_to_dict(t) for t in outcome.traces],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)


def load_search_trace(path: str | Path) -> tuple[CandidateTrace, ...]:
    """Load the traces of a :func:`save_search_trace` document.

    Raises:
        ValueError: When the file is not a search-trace document.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a search-trace document: {path}")
    return tuple(trace_from_dict(t) for t in doc["traces"])
