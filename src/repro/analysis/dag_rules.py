"""Tier-A validators for :class:`~repro.atoms.dag.AtomicDAG` artifacts.

A malformed DAG poisons every later stage (scheduling, mapping, buffering,
simulation), so these rules re-derive each structural invariant from the
CSR edge arrays and per-atom columns those stages read, instead of
trusting the builder:

* ``AD101`` — every per-atom column has one row per atom and every CSR
  side is well-formed;
* ``AD102`` — edge ids in range, and the pred and succ sides hold the
  same edges;
* ``AD103`` — acyclicity (Kahn toposort over the pred side alone);
* ``AD104`` — every edge carries the same positive payload on both sides;
* ``AD105`` — batch sub-DAG isomorphism (every sample replicates sample 0);
* ``AD106`` — each layer's atoms (``atom_bounds``) cover its output
  exactly.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import Report, Severity, register_rule
from repro.atoms.dag import AtomicDAG, csr_rows, row_owners, row_slots

register_rule(
    "AD101",
    Severity.ERROR,
    "artifact",
    "AtomicDAG per-atom columns and costs must have one row per atom, and "
    "each CSR side's ptr must be well-formed",
)
register_rule(
    "AD102",
    Severity.ERROR,
    "artifact",
    "edge ids must be atoms, and the pred and succ sides must hold the "
    "same edges",
)
register_rule(
    "AD103",
    Severity.ERROR,
    "artifact",
    "the atom dependency graph must be acyclic",
)
register_rule(
    "AD104",
    Severity.ERROR,
    "artifact",
    "every edge must carry the same positive payload on both CSR sides",
)
register_rule(
    "AD105",
    Severity.ERROR,
    "artifact",
    "every batch sample's sub-DAG must be isomorphic to sample 0's",
)
register_rule(
    "AD106",
    Severity.ERROR,
    "artifact",
    "each partitioned layer's atoms must cover its output shape exactly",
)

#: Per-atom columns besides ``atom_layer``, which sets the atom count.
_COLUMNS = (
    "atom_sample",
    "atom_tile",
    "atom_bounds",
    "atom_weight_slice",
    "atom_incoming_bytes",
    "atom_dram_bytes",
)


def check_dag(dag: AtomicDAG, report: Report | None = None) -> Report:
    """Run every AD1xx rule over one atomic DAG.

    Args:
        dag: The artifact under test.
        report: Optional report to append to (a fresh one otherwise).

    Returns:
        The report with any findings added.
    """
    report = report if report is not None else Report()
    report.mark_checked(f"AtomicDAG({dag.graph.name}, batch={dag.batch})")
    n = dag.num_atoms

    if not _check_alignment(dag, report, n):
        # Follow-on rules index the arrays against each other; misalignment
        # would turn every one of them into an IndexError storm.
        return report

    pred_owner = row_owners(dag.pred_ptr)
    succ_owner = row_owners(dag.succ_ptr)
    mirrored = False
    if _check_ids(dag, report, n, pred_owner, succ_owner):
        pred_keys, pred_bytes = _by_edge(
            dag.pred_ids * n + pred_owner, dag.pred_bytes
        )
        succ_keys, succ_bytes = _by_edge(
            succ_owner * n + dag.succ_ids, dag.succ_bytes
        )
        mirrored = _check_mirroring(report, n, pred_keys, succ_keys)
    _check_acyclic(report, n, pred_owner, dag.pred_ids)
    if mirrored:
        # Payloads pair up edge by edge only once both sides hold the same
        # edges; a mismatch there is AD102's finding, not AD104's.
        _check_payloads(report, n, pred_keys, pred_bytes, succ_bytes)
    _check_batch_isomorphism(dag, report, n)
    _check_coverage(dag, report)
    return report


def _check_alignment(dag: AtomicDAG, report: Report, n: int) -> bool:
    ok = True
    lengths = {"costs": len(dag.costs)}
    lengths.update((name, len(getattr(dag, name))) for name in _COLUMNS)
    bad = {name: rows for name, rows in lengths.items() if rows != n}
    if bad:
        detail = ", ".join(f"{k}={v}" for k, v in bad.items())
        report.emit(
            "AD101", "dag", f"columns disagree with {n} atoms: {detail}"
        )
        ok = False
    if dag.atom_bounds.shape[1:] != (6,):
        report.emit(
            "AD101",
            "dag",
            f"atom_bounds has shape {dag.atom_bounds.shape}, not ({n}, 6)",
        )
        ok = False
    for side in ("pred", "succ"):
        ptr = getattr(dag, f"{side}_ptr")
        edges = len(getattr(dag, f"{side}_ids"))
        payloads = len(getattr(dag, f"{side}_bytes"))
        problem = None
        if len(ptr) != n + 1:
            problem = f"{side}_ptr has {len(ptr)} entries for {n} atoms"
        elif ptr[0] != 0 or np.any(np.diff(ptr) < 0):
            problem = f"{side}_ptr must start at 0 and never decrease"
        elif not ptr[-1] == edges == payloads:
            problem = (
                f"{side}_ptr ends at {int(ptr[-1])}, {side}_ids has "
                f"{edges} entries and {side}_bytes {payloads}"
            )
        if problem is not None:
            report.emit("AD101", f"{side} side", problem)
            ok = False
    return ok


def _check_ids(
    dag: AtomicDAG,
    report: Report,
    n: int,
    pred_owner: np.ndarray,
    succ_owner: np.ndarray,
) -> bool:
    ok = True
    for side, owner in (("pred", pred_owner), ("succ", succ_owner)):
        ids = getattr(dag, f"{side}_ids")
        bad = np.flatnonzero((ids < 0) | (ids >= n))
        for atom, other in zip(owner[bad].tolist(), ids[bad].tolist()):
            report.emit(
                "AD102", f"atom {atom}", f"{side} {other} out of range [0, {n})"
            )
        ok = ok and not len(bad)
    return ok


def _by_edge(
    keys: np.ndarray, nbytes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One side's edge keys ascending, with their payloads alongside.

    A key is ``producer * num_atoms + consumer``; equal keys order by
    payload, so two sides with the same (edge, payload) pairs come out
    identical.
    """
    order = np.lexsort((nbytes, keys))
    return keys[order], nbytes[order]


def _check_mirroring(
    report: Report, n: int, pred_keys: np.ndarray, succ_keys: np.ndarray
) -> bool:
    """The sides' sorted edge keys agree; offenders named only if not."""
    if np.array_equal(pred_keys, succ_keys):
        return True
    only_pred = np.setdiff1d(pred_keys, succ_keys)
    only_succ = np.setdiff1d(succ_keys, pred_keys)
    for key in only_pred.tolist():
        p, c = divmod(key, n)
        report.emit(
            "AD102",
            f"atom {c}",
            f"edge {p}->{c} is on the pred side but not the succ side",
        )
    for key in only_succ.tolist():
        p, c = divmod(key, n)
        report.emit(
            "AD102",
            f"atom {p}",
            f"edge {p}->{c} is on the succ side but not the pred side",
        )
    if not len(only_pred) and not len(only_succ):
        report.emit(
            "AD102",
            "dag",
            f"the sides repeat edges unequally ({len(pred_keys)} pred "
            f"entries, {len(succ_keys)} succ entries)",
        )
    return False


def _check_acyclic(
    report: Report, n: int, consumers: np.ndarray, producers: np.ndarray
) -> None:
    """Kahn's algorithm over the pred side; leftovers sit on a cycle.

    The successor rows are derived from the pred arrays, so a corrupted
    succ side can neither hide a cycle nor invent one.  Out-of-range ids
    are AD102's finding and are left out here.
    """
    keep = (producers >= 0) & (producers < n)
    consumers, producers = consumers[keep], producers[keep]
    indegree = np.bincount(consumers, minlength=n)
    succ_ptr, succ_ids, _ = csr_rows(producers, consumers, consumers, n)
    frontier = np.flatnonzero(indegree == 0)
    visited = 0
    while len(frontier):
        visited += len(frontier)
        slots, _ = row_slots(succ_ptr, frontier)
        targets, hits = np.unique(succ_ids[slots], return_counts=True)
        indegree[targets] -= hits
        frontier = targets[indegree[targets] == 0]
    if visited != n:
        stuck = np.flatnonzero(indegree > 0)[:5].tolist()
        report.emit(
            "AD103",
            "dag",
            f"dependency cycle: {n - visited} atoms unreachable by "
            f"topological order (e.g. atoms {stuck})",
        )


def _check_payloads(
    report: Report,
    n: int,
    keys: np.ndarray,
    pred_bytes: np.ndarray,
    succ_bytes: np.ndarray,
) -> None:
    """Both sides' payloads, paired by sorted edge key, equal and positive."""
    bad = np.flatnonzero((pred_bytes != succ_bytes) | (pred_bytes <= 0))
    for key, nbytes, mirrored in zip(
        keys[bad].tolist(), pred_bytes[bad].tolist(), succ_bytes[bad].tolist()
    ):
        p, c = divmod(key, n)
        report.emit(
            "AD104",
            f"edge {p}->{c}",
            f"carries {nbytes} B on the pred side and {mirrored} B on the "
            "succ side (payloads must be equal and positive)",
        )


def _check_batch_isomorphism(
    dag: AtomicDAG, report: Report, n: int
) -> None:
    """Sample ``s``'s block repeats sample 0's, every id shifted.

    Atoms are laid out sample-major in equal blocks of ``n / batch``, so
    sample ``s`` must repeat sample 0's columns and costs, and its pred
    rows must repeat sample 0's with ids shifted by ``s * per_sample`` and
    equal bytes — the batch-replication contract of
    :func:`~repro.atoms.dag.build_atomic_dag`.  A cross-sample edge
    breaks the shift.
    """
    batch = dag.batch
    if batch <= 1:
        return
    per, rest = divmod(n, batch)
    if rest:
        report.emit(
            "AD105", "dag", f"{n} atoms do not split into {batch} samples"
        )
        return
    ptr, ids, nbytes = dag.pred_ptr, dag.pred_ids, dag.pred_bytes
    columns = [getattr(dag, name) for name in _COLUMNS if name != "atom_sample"]
    columns += [dag.atom_layer, np.asarray(dag.costs.cycles, dtype=np.int64)]
    edges = int(ptr[per])
    row_lengths = np.diff(ptr[: per + 1])
    for sample in range(batch):
        lo = sample * per
        first, last = int(ptr[lo]), int(ptr[lo + per])
        block_ids = ids[first:last]
        problem = None
        if np.any((block_ids < lo) | (block_ids >= lo + per)):
            problem = "sub-DAG has a cross-sample edge"
        elif np.any(dag.atom_sample[lo : lo + per] != sample):
            problem = f"its atoms are not all of sample {sample}"
        elif sample and not (
            all(
                np.array_equal(col[lo : lo + per], col[:per])
                for col in columns
            )
            and np.array_equal(np.diff(ptr[lo : lo + per + 1]), row_lengths)
            and np.array_equal(block_ids - lo, ids[:edges])
            and np.array_equal(nbytes[first:last], nbytes[:edges])
        ):
            problem = (
                "sub-DAG is not isomorphic to sample 0's "
                f"({last - first} edges vs {edges})"
            )
        if problem is not None:
            report.emit("AD105", f"sample {sample}", problem)


def _check_coverage(dag: AtomicDAG, report: Report) -> None:
    # Sample 0's ``atom_bounds`` (inclusive) volumes, summed per layer.
    sample0 = dag.atom_sample == 0
    bounds = dag.atom_bounds[sample0]
    volumes = np.prod(bounds[:, 1::2] - bounds[:, ::2] + 1, axis=1, dtype=np.int64)
    covered = np.bincount(
        dag.atom_layer[sample0], weights=volumes, minlength=len(dag.graph)
    )
    for layer in dag.grids:
        expected = dag.graph.node(layer).output_shape.num_elements
        if covered[layer] != expected:
            report.emit(
                "AD106",
                f"layer {layer}",
                f"tiles cover {int(covered[layer])} of {expected} "
                "output elements",
            )
