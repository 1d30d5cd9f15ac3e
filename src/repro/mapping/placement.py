"""Atom-engine mapping strategies (Sec. IV-C, Fig. 7).

Atoms scheduled in one Round are laid onto the mesh along the zig-zag
logical direction; *which layer's atoms come first* changes how far
dependent data must travel.  The paper searches the ``M!`` permutations of
the Round's involved layers and keeps the one minimizing TransferCost;
we do the same, falling back to a greedy slot assignment when ``M`` is
large enough that enumerating permutations would dominate search time.

Beyond feature-map edges, the optimized mapper tracks each weight slice's
*home* engine (where it was first loaded) and pulls same-slice atoms back
to it, which is what makes the priority-rule-1 reuse of Sec. IV-B pay off
physically.

Every candidate assignment of one Round is priced off a single
``(atom, slot)`` cost matrix (:func:`~repro.mapping.transfer_cost.
round_cost_matrix`) instead of re-walking DAG edges and hop distances per
candidate — the same integer totals, built once per Round.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.atoms.dag import AtomicDAG
from repro.mapping.transfer_cost import cost_matrix, round_transfer_cost
from repro.noc.mesh import Mesh2D
from repro.scheduling.rounds import Schedule

#: Enumerate layer permutations up to this many layers per Round (6! = 720).
MAX_PERMUTATION_LAYERS = 6


def zigzag_placement(
    dag: AtomicDAG, mesh: Mesh2D, schedule: Schedule
) -> dict[int, int]:
    """Baseline mapping: Round atoms fill engines in zig-zag order as-is.

    Returns:
        Map atom index -> engine index.
    """
    order = mesh.zigzag_order()
    placement: dict[int, int] = {}
    for rnd in schedule.rounds:
        for slot, atom in enumerate(rnd.atom_indices):
            placement[atom] = order[slot]
    return placement


def _group_by_layer(
    sample_of: list[int], layer_of: list[int], atoms: tuple[int, ...]
) -> list[list[int]]:
    """Round atoms grouped by (sample, layer), preserving intra-layer order."""
    groups: dict[tuple[int, int], list[int]] = {}
    for a in atoms:
        groups.setdefault((sample_of[a], layer_of[a]), []).append(a)
    return list(groups.values())


def optimized_placement(
    dag: AtomicDAG, mesh: Mesh2D, schedule: Schedule
) -> dict[int, int]:
    """The paper's mapping: per Round, pick the layer permutation with the
    minimum TransferCost (solution B beating solution A in Fig. 7).

    Rounds are placed in order, so each Round sees the final placement of
    all earlier Rounds and the accumulated weight-slice homes.  When a
    Round involves more than :data:`MAX_PERMUTATION_LAYERS` layers, a
    greedy per-atom assignment (heaviest incoming traffic first, cheapest
    free engine each) replaces enumeration.

    Returns:
        Map atom index -> engine index.
    """
    order = mesh.zigzag_order()
    placement: dict[int, int] = {}
    engine_of = np.full(dag.num_atoms, -1, dtype=np.int64)
    slot_of, slot_keys = dag.weight_slots
    weight_home = [-1] * len(slot_keys)
    sample_of = dag.as_list("atom_sample")
    layer_of = dag.as_list("atom_layer")
    incoming = dag.as_list("atom_incoming_bytes")
    for rnd in schedule.rounds:
        atoms = rnd.atom_indices
        groups = _group_by_layer(sample_of, layer_of, atoms)
        slots = order[: len(atoms)]
        weight_src = np.fromiter(
            (-2 if slot_of[a] < 0 else weight_home[slot_of[a]] for a in atoms),
            dtype=np.int64,
            count=len(atoms),
        )
        matrix, const = cost_matrix(
            dag, mesh, engine_of, atoms, slots, weight_src
        )
        row_of = {a: i for i, a in enumerate(atoms)}
        cols = np.arange(len(atoms), dtype=np.int64)

        def cost_of(ordered: list[int]) -> int:
            rows = np.fromiter(
                (row_of[a] for a in ordered),
                dtype=np.int64,
                count=len(ordered),
            )
            return int(matrix[rows, cols].sum()) + const

        candidates = [
            list(atoms),  # zig-zag as-is: optimal for slot-aligned chains
            _greedy_assignment(incoming, atoms, matrix, row_of),
        ]
        if 1 < len(groups) <= MAX_PERMUTATION_LAYERS:
            candidates.append(
                _best_permutation(groups, matrix, row_of, const)
            )
        assignment = min(candidates, key=cost_of)
        for a, e in zip(assignment, slots):
            placement[a] = e
            slot = slot_of[a]
            if slot >= 0 and weight_home[slot] < 0:
                weight_home[slot] = e
        engine_of[assignment] = slots
    return placement


def _best_permutation(
    groups: list[list[int]],
    matrix: np.ndarray,
    row_of: dict[int, int],
    const: int,
) -> list[int]:
    """Cheapest layer ordering, priced off the Round's cost matrix.

    A permutation places each group's atoms in one contiguous slot block,
    so its cost decomposes into per-group diagonal sums of the matrix at
    the block's offset.  Those sums are precomputed for every possible
    offset; each of the ``M!`` permutations then costs ``M`` lookups.
    Iteration order and the strict ``<`` keep the same first-wins winner
    the per-permutation edge walk chose.
    """
    num_slots = matrix.shape[1]
    diag_sums: list[np.ndarray] = []
    for g in groups:
        rows = np.fromiter(
            (row_of[a] for a in g), dtype=np.int64, count=len(g)
        )
        sub = matrix[rows]
        span = num_slots - len(g) + 1
        acc = np.zeros(span, dtype=np.int64)
        for i in range(len(g)):
            acc += sub[i, i : i + span]
        diag_sums.append(acc)
    sizes = [len(g) for g in groups]

    best_cost: int | None = None
    best_perm: tuple[int, ...] = ()
    for perm in permutations(range(len(groups))):
        cost = const
        offset = 0
        for g in perm:
            cost += int(diag_sums[g][offset])
            offset += sizes[g]
        if best_cost is None or cost < best_cost:
            best_cost, best_perm = cost, perm
    return [a for g in best_perm for a in groups[g]]


def _greedy_assignment(
    incoming: list[int],
    atoms: tuple[int, ...],
    matrix: np.ndarray,
    row_of: dict[int, int],
) -> list[int]:
    """Assign heaviest-traffic atoms first to their cheapest free engine.

    ``incoming`` is the DAG's per-atom incoming-bytes column (edge
    payloads plus the weight slice).  Columns of ``matrix`` follow the
    Round's zig-zag slot order, so the free-engine scan is a ``min`` over
    the free columns in that order (first minimum wins).
    """
    remaining = sorted(atoms, key=incoming.__getitem__, reverse=True)
    costs = matrix.tolist()
    free = list(range(len(atoms)))  # column indices, in zig-zag slot order
    atom_at: dict[int, int] = {}
    for a in remaining:
        best_col = min(free, key=costs[row_of[a]].__getitem__)
        atom_at[best_col] = a
        free.remove(best_col)
    # Re-express as an atom ordering over the zig-zag slots.
    return [atom_at[col] for col in range(len(atoms))]


def placement_transfer_cost(
    dag: AtomicDAG, mesh: Mesh2D, schedule: Schedule, placement: dict[int, int]
) -> int:
    """Total hop-weighted bytes of a full placement (for comparisons)."""
    total = 0
    prior: dict[int, int] = {}
    for rnd in schedule.rounds:
        slots = tuple(placement[a] for a in rnd.atom_indices)
        total += round_transfer_cost(dag, mesh, prior, rnd.atom_indices, slots)
        for a in rnd.atom_indices:
            prior[a] = placement[a]
    return total
