"""One atom's CSR rows of an :class:`~repro.atoms.dag.AtomicDAG`.

For tests that walk a DAG's edges atom by atom; the library reads the
arrays whole.
"""

from __future__ import annotations


def preds(dag, atom: int) -> list[int]:
    """The atom's producers, ascending (its pred CSR row)."""
    lo, hi = dag.pred_ptr[atom], dag.pred_ptr[atom + 1]
    return dag.pred_ids[lo:hi].tolist()


def succs(dag, atom: int) -> list[int]:
    """The atom's consumers, ascending (its succ CSR row)."""
    lo, hi = dag.succ_ptr[atom], dag.succ_ptr[atom + 1]
    return dag.succ_ids[lo:hi].tolist()


def in_bytes(dag, atom: int) -> dict[int, int]:
    """Producer -> bytes the atom reads from it."""
    lo, hi = dag.pred_ptr[atom], dag.pred_ptr[atom + 1]
    return dict(
        zip(dag.pred_ids[lo:hi].tolist(), dag.pred_bytes[lo:hi].tolist())
    )
