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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.atoms.atom import TileSize
from repro.atoms.dag import AtomicDAG, build_atomic_dag
from repro.config import ArchConfig
from repro.engine.cost_model import EngineCostModel
from repro.engine.dataflow import get_dataflow
from repro.fingerprint import SOLUTION_FORMAT, SOLUTION_VERSION
from repro.ir.graph import Graph
from repro.ir.transforms import fuse_elementwise
from repro.pipeline import CandidateTrace, bind_identities, identity_sections
from repro.scheduling.rounds import Schedule

if TYPE_CHECKING:
    from repro.framework import OptimizationOutcome

#: Format identifier and version of standalone search-trace documents
#: (``--trace``).
TRACE_FORMAT = "atomic-dataflow-search-trace"
TRACE_VERSION = 1


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
            :func:`repro.fingerprint.canonical_solution_bytes`.
    """
    dag = outcome.dag
    doc = {
        "format": SOLUTION_FORMAT,
        "version": SOLUTION_VERSION,
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
            "traces": [t.to_dict() for t in outcome.traces],
        }
    return doc


def save_solution(
    outcome: OptimizationOutcome, path: str | Path, dataflow: str = "kc"
) -> None:
    """Write a solution document to a JSON file."""
    with open(path, "w") as f:
        json.dump(solution_to_dict(outcome, dataflow), f, indent=2)


def read_solution(path: str | Path) -> dict:
    """The solution document at ``path``, parsed.

    Raises:
        ValueError: When the file is not a solution document of a
            supported version.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != SOLUTION_FORMAT:
        raise ValueError(f"not a solution document: {path}")
    if doc.get("version") != SOLUTION_VERSION:
        raise ValueError(f"unsupported solution version {doc.get('version')}")
    return doc


def decode_solution(
    doc: dict,
    graph: Graph,
    arch: ArchConfig,
    problem: Callable[[str, str], object],
) -> SolutionDocument | None:
    """Re-bind a solution document to a freshly built graph.

    The one decoder behind :func:`load_solution` and
    :func:`repro.analysis.outcome.validate_solution_file`: the graph is
    fused and re-partitioned with the document's tiling, and the
    schedule and placement are resolved through stable atom identities.
    Each problem goes to ``problem(where, message)``, which raises it or
    records it; a workload mismatch ends decoding with None.  The
    ``search`` section is left unread.
    """
    fused = fuse_elementwise(graph).graph
    if fused.name != doc.get("workload"):
        problem(
            "document",
            f"solution is for workload {doc.get('workload')!r}, "
            f"got {fused.name!r}",
        )
        return None
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
    for where, atom_id in unresolved:
        problem(where, f"unknown atom identity {atom_id!r}")
    return SolutionDocument(
        dag=dag,
        schedule=schedule,
        placement=placement,
        dataflow=doc["dataflow"],
        batch=doc["batch"],
    )


def _refuse(where: str, message: str) -> None:
    raise ValueError(f"{where}: {message}")


def load_solution(
    path: str | Path, graph: Graph, arch: ArchConfig
) -> SolutionDocument:
    """Load a solution and re-bind it to a freshly built graph.

    :func:`decode_solution` over :func:`read_solution`, raising on the
    first problem; the schedule is then validated against the rebuilt
    DAG.

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
    doc = read_solution(path)
    solution = decode_solution(doc, graph, arch, _refuse)
    assert solution is not None  # _refuse raised on a mismatch
    solution.schedule.validate(solution.dag, arch.num_engines)
    search = doc.get("search", {})
    return replace(
        solution,
        traces=tuple(
            CandidateTrace.from_dict(t) for t in search.get("traces", [])
        ),
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
        "version": TRACE_VERSION,
        "workload": workload or outcome.dag.graph.name,
        "search_seconds": outcome.search_seconds,
        "traces": [t.to_dict() for t in outcome.traces],
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
    return tuple(CandidateTrace.from_dict(t) for t in doc["traces"])
