"""TransferCost evaluation for atom-engine mappings (Sec. IV-C).

The paper's objective for placing one Round's atoms:

    TransferCost(P) = sum_i sum_j D(i, j) * Size(tensor moved i -> j)

where ``D`` is the mesh hop distance and ``P`` a permutation of the layers
involved in the Round.  Data already resident on the destination engine
costs zero, which is exactly what good placements exploit.
"""

from __future__ import annotations

import numpy as np

from repro.atoms.dag import AtomicDAG, row_slots
from repro.noc.mesh import Mesh2D


#: Hop-equivalent penalty for fetching a byte from DRAM instead of a
#: neighbouring buffer (an HBM access costs far more than one mesh hop).
DRAM_HOP_PENALTY = 8


def _gather_round_traffic(
    dag: AtomicDAG,
    engine_of: np.ndarray,
    round_atoms: tuple[int, ...],
    weight_src: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Flatten one Round's incoming traffic into parallel arrays.

    ``engine_of`` holds the engine of every atom placed in earlier Rounds
    (-1 elsewhere); ``weight_src`` the engine each Round atom pulls its
    weight slice from (-1 for a homeless slice, -2 for a weightless atom),
    or None to leave weights out.

    Returns ``(rows, srcs, nbytes, dram_const)``: one entry per transfer
    whose source engine is known (``rows[k]`` indexes into
    ``round_atoms``), plus the slot-independent DRAM constant (spilled
    predecessors and homeless weight slices, charged
    :data:`DRAM_HOP_PENALTY` per byte).
    """
    edges, counts = row_slots(
        dag.pred_ptr, np.asarray(round_atoms, dtype=np.int64)
    )
    rows = np.repeat(np.arange(len(round_atoms), dtype=np.int64), counts)
    srcs = engine_of[dag.pred_ids[edges]]
    sizes = dag.pred_bytes[edges]
    placed = srcs >= 0
    const = DRAM_HOP_PENALTY * int(sizes[~placed].sum())
    rows, srcs, sizes = rows[placed], srcs[placed], sizes[placed]
    if weight_src is not None:
        weight_bytes = dag.atom_weight_bytes
        weights = np.fromiter(
            (weight_bytes[a] for a in round_atoms),
            dtype=np.int64,
            count=len(round_atoms),
        )
        const += DRAM_HOP_PENALTY * int(weights[weight_src == -1].sum())
        homed = np.flatnonzero(weight_src >= 0)
        rows = np.concatenate((rows, homed))
        srcs = np.concatenate((srcs, weight_src[homed]))
        sizes = np.concatenate((sizes, weights[homed]))
    return rows, srcs, sizes, const


def _engine_array(dag: AtomicDAG, placement: dict[int, int]) -> np.ndarray:
    """``placement`` as an engine-per-atom array (-1 where unplaced)."""
    engine_of = np.full(dag.num_atoms, -1, dtype=np.int64)
    if placement:
        engine_of[list(placement)] = list(placement.values())
    return engine_of


def _weight_sources(
    dag: AtomicDAG,
    round_atoms: tuple[int, ...],
    weight_home: dict[tuple[int, int], int] | None,
) -> np.ndarray | None:
    """Per Round atom: its slice's home engine, -1 homeless, -2 weightless."""
    if weight_home is None:
        return None
    keys = map(dag.weight_key, round_atoms)
    return np.fromiter(
        (-2 if wk is None else weight_home.get(wk, -1) for wk in keys),
        dtype=np.int64,
        count=len(round_atoms),
    )


def cost_matrix(
    dag: AtomicDAG,
    mesh: Mesh2D,
    engine_of: np.ndarray,
    round_atoms: tuple[int, ...],
    slots: tuple[int, ...],
    weight_src: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """:func:`round_cost_matrix` over array state (the mapper's hot path).

    The bytes each Round atom pulls from each engine are summed first (one
    sort and ``reduceat`` over ``(atom, source)`` keys); the matrix is then
    that ``(atom, engine)`` table times the hop distances from every
    engine to each slot, in exact int64 arithmetic.
    """
    rows, srcs, sizes, const = _gather_round_traffic(
        dag, engine_of, round_atoms, weight_src
    )
    if not len(rows):
        return np.zeros((len(round_atoms), len(slots)), dtype=np.int64), const
    dist = mesh.distance_array()
    engines = len(dist)
    key = rows * engines + srcs
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    pulled = np.zeros(len(round_atoms) * engines, dtype=np.int64)
    pulled[key[starts]] = np.add.reduceat(sizes[order], starts)
    hops = dist[:, np.asarray(slots, dtype=np.int64)]
    return pulled.reshape(len(round_atoms), engines) @ hops, const


def round_cost_matrix(
    dag: AtomicDAG,
    mesh: Mesh2D,
    placement: dict[int, int],
    round_atoms: tuple[int, ...],
    slots: tuple[int, ...],
    weight_home: dict[tuple[int, int], int] | None = None,
) -> tuple[np.ndarray, int]:
    """Per-Round TransferCost as a dense ``(atom, slot)`` matrix.

    ``M[i, j]`` is the hop-weighted bytes ``round_atoms[i]`` pulls when it
    runs on ``slots[j]``; the returned constant is the slot-independent
    DRAM charge summed over the whole Round.  Any candidate assignment's
    :func:`round_transfer_cost` is then a diagonal-style gather:
    ``sum(M[row_of[ordered[j]], j]) + const`` — this is what lets the
    mapper price zig-zag, greedy, and all layer permutations off one
    matrix instead of re-walking edges per candidate.
    """
    return cost_matrix(
        dag,
        mesh,
        _engine_array(dag, placement),
        round_atoms,
        slots,
        _weight_sources(dag, round_atoms, weight_home),
    )


def round_transfer_cost(
    dag: AtomicDAG,
    mesh: Mesh2D,
    placement: dict[int, int],
    round_atoms: tuple[int, ...],
    slots: tuple[int, ...],
    weight_home: dict[tuple[int, int], int] | None = None,
) -> int:
    """Hop-weighted bytes moved to feed one Round under a slot assignment.

    Args:
        dag: The atomic DAG (provides edges and payload sizes).
        mesh: The engine mesh (provides ``D(i, j)``).
        placement: Engine of every atom placed in *earlier* Rounds.
        round_atoms: Atoms of this Round, in slot order.
        slots: Engine index per round atom (parallel to ``round_atoms``).
        weight_home: Engine that first loaded each weight slice; when given,
            atoms are drawn toward their slice's home (reuse) and charged a
            DRAM penalty for homeless slices, so the permutation search also
            optimizes weight locality.

    Returns:
        Sum over dependencies of ``hops x bytes``.  Data that must come from
        DRAM (spilled predecessors, first-touch weights) is charged a flat
        position-independent penalty — it costs the same from any engine, so
        it must not bias the slot assignment.
    """
    rows, srcs, sizes, total = _gather_round_traffic(
        dag,
        _engine_array(dag, placement),
        round_atoms,
        _weight_sources(dag, round_atoms, weight_home),
    )
    if len(rows):
        dist = mesh.distance_array()
        dsts = np.asarray(slots, dtype=np.int64)[rows]
        total += int((dist[srcs, dsts] * sizes).sum())
    return total
