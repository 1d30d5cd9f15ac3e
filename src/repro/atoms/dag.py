"""The atomic DAG: batch-replicated, atom-granularity dependency graph.

Construction follows Sec. III of the paper: each (non-input) layer of each
batch sample is partitioned into a tile grid of atoms; fine-grained edges
connect an atom to exactly the producer atoms whose output regions its
receptive field touches (Fig. 6(b)).  All samples of a batch live in one
unified DAG of ``#Batch`` identical sub-DAGs.

Atoms are indexed densely (0..num_atoms-1), sample-major and then layer by
layer, so every structure is a flat array.  The builder is array-first:
each layer's tile lattice is priced in one vectorized
:meth:`~repro.engine.batch.CostKernel.price_regions` call, and dependency
edges are derived per (consumer layer, input) from the separable per-axis
halo spans.  The result stays in arrays end to end:

* edges as CSR (compressed sparse rows) on both sides — ``pred_ptr`` /
  ``pred_ids`` / ``pred_bytes`` and ``succ_ptr`` / ``succ_ids`` /
  ``succ_bytes``;
* per-atom columns — sample, layer, tile index, region bounds, weight
  slice, incoming bytes and DRAM input bytes;
* per-atom costs in the structure-of-arrays
  :class:`~repro.atoms.table.AtomCostTable`.

The scheduler, mapper, buffer policy, simulator and validators read
those arrays, and the CSR sides are the only copy of the edges.  The one
object view, ``atoms``, is derived lazily from the id and bounds columns
for the serializer, report and executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.atoms.atom import Atom, AtomId, TileSize
from repro.atoms.partition import TileGrid, grid_bounds, grid_for
from repro.atoms.table import AtomCostTable
from repro.engine.batch import concat_overlap_mask, input_span_arrays
from repro.engine.cost_model import EngineCostModel
from repro.ir.graph import Graph
from repro.ir.ops import Concat, Input, Region


@dataclass(eq=False)
class AtomicDAG:
    """Atom-level dependency graph over a (possibly batched) workload.

    Build with :func:`build_atomic_dag`.  Every array is int64 and
    index-aligned: position ``i`` of a per-atom column describes atom
    ``i``, and atom ``i``'s edges are ``[ptr[i], ptr[i + 1])`` of a CSR
    side.  The two sides hold the same edges with the same payloads; the
    AD1xx rules of :mod:`repro.analysis.dag_rules` check that and the
    rest of the structure from these arrays alone.

    Attributes:
        graph: The layer graph the DAG was derived from.
        batch: Number of batch samples replicated into the DAG.
        grids: Layer id -> tile grid used to partition it.
        layer_depth: Layer id -> longest-path depth in the layer graph.
        costs: Per-atom engine cost (cycles, traffic) from the cost model.
        pred_ptr / pred_ids / pred_bytes: Predecessors per consumer
            (sorted ascending) and the bytes of producer output each one
            reads — the NoC payload of that edge.
        succ_ptr / succ_ids / succ_bytes: The same edges per producer,
            consumers ascending.
        atom_sample / atom_layer / atom_tile: Each atom's
            :class:`~repro.atoms.atom.AtomId` fields.
        atom_bounds: ``(num_atoms, 6)`` output region per atom, columns
            ``(h0, h1, w0, w1, c0, c1)`` inclusive.
        atom_weight_slice: Output-channel tile of the weight slice an atom
            needs, or -1 for weightless atoms.
        atom_incoming_bytes: Bytes an atom pulls in: its edges' payloads
            plus its weight slice.
        atom_dram_bytes: Bytes that must come from DRAM because the
            producer is the network input (no on-chip producer).
    """

    graph: Graph
    batch: int
    grids: dict[int, TileGrid]
    layer_depth: dict[int, int]
    costs: AtomCostTable
    pred_ptr: np.ndarray
    pred_ids: np.ndarray
    pred_bytes: np.ndarray
    succ_ptr: np.ndarray
    succ_ids: np.ndarray
    succ_bytes: np.ndarray
    atom_sample: np.ndarray
    atom_layer: np.ndarray
    atom_tile: np.ndarray
    atom_bounds: np.ndarray
    atom_weight_slice: np.ndarray
    atom_incoming_bytes: np.ndarray
    atom_dram_bytes: np.ndarray
    _base: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)
    _lists: dict[str, list] = field(
        default_factory=dict, init=False, repr=False
    )

    # -------------------------------------------------------------- views

    @cached_property
    def atoms(self) -> list[Atom]:
        """All atoms as objects (serializer, report, executors)."""
        return [
            Atom(AtomId(s, layer, x), Region((h0, h1), (w0, w1), (c0, c1)))
            for s, layer, x, (h0, h1, w0, w1, c0, c1) in zip(
                self.atom_sample.tolist(),
                self.atom_layer.tolist(),
                self.atom_tile.tolist(),
                self.atom_bounds.tolist(),
            )
        ]

    def as_list(self, name: str) -> list:
        """One array as a memoized Python list, for scalar hot loops.

        Indexing a list is several times cheaper than indexing a NumPy
        array one element at a time; the arrays never change after the
        build, so each is converted once per DAG.
        """
        cached = self._lists.get(name)
        if cached is None:
            cached = self._lists[name] = getattr(self, name).tolist()
        return cached

    # ------------------------------------------------------------ columns

    @property
    def num_atoms(self) -> int:
        return len(self.atom_layer)

    @property
    def atom_cycles(self) -> list[int]:
        """Flat per-atom cycle list (index-aligned with the atoms)."""
        return self.costs.cycles

    @property
    def atom_weight_bytes(self) -> list[int]:
        """Flat per-atom weight-traffic list."""
        return self.costs.weight_bytes

    @property
    def atom_ofmap_bytes(self) -> list[int]:
        """Flat per-atom output-traffic list."""
        return self.costs.ofmap_bytes

    def index_of(self, atom_id: AtomId) -> int:
        """Dense index of an atom by identity.

        Raises:
            KeyError: For unknown (sample, layer) pairs or out-of-range
                tile indices.
        """
        base = self._base[(atom_id.sample, atom_id.layer)]
        grid = self.grids[atom_id.layer]
        if not 0 <= atom_id.index < grid.num_tiles:
            raise KeyError(f"tile index out of range: {atom_id}")
        return base + atom_id.index

    def atoms_of_layer(self, layer: int, sample: int = 0) -> range:
        """Dense index range of one layer's atoms for one sample."""
        base = self._base[(sample, layer)]
        return range(base, base + self.grids[layer].num_tiles)

    def weight_key(self, atom_index: int) -> tuple[int, int] | None:
        """Identity of the weight slice an atom needs, or None if weightless.

        Atoms of the same layer covering the same output-channel tile share
        one weight slice; scheduling them on one engine reuses it.
        """
        channel_tile = self.as_list("atom_weight_slice")[atom_index]
        if channel_tile < 0:
            return None
        return (self.as_list("atom_layer")[atom_index], channel_tile)

    @cached_property
    def weight_slots(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Weight slices numbered densely: ``(slot per atom, key per slot)``.

        An atom's slot is -1 when it is weightless; ``key[slot]`` is the
        slot's :meth:`weight_key`.  Slots follow ascending (layer, channel
        tile), so hot loops index lists instead of hashing key tuples.
        """
        sliced = self.atom_weight_slice
        weighted = sliced >= 0
        stride = max(int(sliced.max()) + 1, 1) if len(sliced) else 1
        codes, inverse = np.unique(
            self.atom_layer[weighted] * stride + sliced[weighted],
            return_inverse=True,
        )
        slot_of = np.full(self.num_atoms, -1, dtype=np.int64)
        slot_of[weighted] = inverse
        keys = [(int(c) // stride, int(c) % stride) for c in codes]
        return slot_of.tolist(), keys

    def total_compute_cycles(self) -> int:
        """Sum of per-atom engine cycles (the serial lower bound's numerator)."""
        return sum(self.atom_cycles)

    def indegrees(self) -> list[int]:
        """Fresh indegree array for scheduler initialization."""
        return np.diff(self.pred_ptr).tolist()


def row_owners(ptr: np.ndarray) -> np.ndarray:
    """The row each CSR slot sits in: ``owner[k]`` is the atom of slot ``k``."""
    return np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))


def csr_rows(
    rows: np.ndarray, ids: np.ndarray, values: np.ndarray, num: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One CSR side ``(ptr, ids, values)`` of edges grouped by ``rows``.

    Edge ``k`` goes to row ``rows[k]``; a row keeps its edges in input
    order (the sort is stable), so edges already sorted by row come back
    unchanged.
    """
    order = np.argsort(rows, kind="stable")
    ptr = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num), out=ptr[1:])
    return ptr, ids[order], values[order]


def row_slots(
    ptr: np.ndarray, atoms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR slots of several atoms' rows, concatenated in ``atoms`` order.

    Returns ``(slots, counts)``: index ``slots`` into a CSR side's id and
    byte arrays; ``counts[i]`` is the length of ``atoms[i]``'s row.
    """
    lo = ptr[atoms]
    counts = ptr[atoms + 1] - lo
    slots = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        lo - (np.cumsum(counts) - counts), counts
    )
    return slots, counts


def _row_sums(ptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of a CSR value array (exact, empty rows give 0)."""
    prefix = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return prefix[ptr[1:]] - prefix[ptr[:-1]]


def _ints(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate int64 parts (an empty list gives an empty array)."""
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def build_atomic_dag(
    graph: Graph,
    tiling: dict[int, TileSize],
    cost_model: EngineCostModel,
    batch: int = 1,
) -> AtomicDAG:
    """Partition a layer graph into its atomic DAG.

    Args:
        graph: Layer graph (typically already elementwise-fused).
        tiling: Tile size per non-input layer id (from the SA generator or a
            baseline policy).  Missing layers default to whole-layer tiles.
        cost_model: Engine cost model used to price each atom.
        batch: Batch size; the DAG contains ``batch`` identical sub-DAGs.

    Returns:
        The constructed :class:`AtomicDAG`.

    Raises:
        ValueError: On non-positive batch size.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")

    layer_nodes = [n for n in graph.nodes if not isinstance(n.op, Input)]
    input_ids = {n.node_id for n in graph.nodes if isinstance(n.op, Input)}

    grids: dict[int, TileGrid] = {}
    for node in layer_nodes:
        shape = node.output_shape
        in_shapes = graph.input_shapes(node.node_id)
        in_channels = in_shapes[0].channels if in_shapes else 1
        tile = tiling.get(
            node.node_id,
            TileSize(shape.height, shape.width, max(in_channels, 1), shape.channels),
        )
        grids[node.node_id] = grid_for(shape, tile, in_channels)

    # Price each layer's whole tile lattice in one vectorized kernel call;
    # batch samples share the same tiles, so one pricing serves them all.
    # Sample 0's atoms are laid out layer by layer from ``base_of``.
    kernel = cost_model.kernel
    bounds_of: dict[int, np.ndarray] = {}
    base_of: dict[int, int] = {}
    columns_of: list[tuple] = []
    weight_parts: list[np.ndarray] = []
    slice_parts: list[np.ndarray] = []
    per_sample = 0
    for node in layer_nodes:
        grid = grids[node.node_id]
        bounds = grid_bounds(grid)
        bounds_of[node.node_id] = bounds
        base_of[node.node_id] = per_sample
        per_sample += len(bounds)
        in_shapes = graph.input_shapes(node.node_id)
        arrays = kernel.price_regions(node.op, in_shapes, bounds)
        columns_of.append(
            (
                arrays.cycles.tolist(),
                arrays.macs.tolist(),
                arrays.pe_utilization.tolist(),
                arrays.uses_pe_array,
                arrays.ifmap_bytes.tolist(),
                arrays.weight_bytes.tolist(),
                arrays.ofmap_bytes.tolist(),
            )
        )
        weights = np.asarray(arrays.weight_bytes, dtype=np.int64)
        weight_parts.append(weights)
        # Atoms covering the same output-channel tile share a weight slice.
        channel_tile = np.arange(len(bounds), dtype=np.int64) % grid.tiles_c
        slice_parts.append(np.where(weights > 0, channel_tile, -1))

    table = AtomCostTable()
    for _ in range(batch):
        for columns in columns_of:
            table.extend_columns(*columns)

    # Edges of sample 0, consumer-major: layers are visited in layout
    # order and each layer's edges sort by (consumer, producer), so the
    # concatenation is already the pred side of the CSR.
    bpe = cost_model.bytes_per_element
    dram0 = np.zeros(per_sample, dtype=np.int64)
    cons_layers: list[np.ndarray] = []
    prod_layers: list[np.ndarray] = []
    byte_layers: list[np.ndarray] = []
    for node in layer_nodes:
        in_shapes = graph.input_shapes(node.node_id)
        statics = kernel.statics(node.op, in_shapes)
        bounds = bounds_of[node.node_id]
        base0 = base_of[node.node_id]
        n_tiles = len(bounds)
        dram = dram0[base0 : base0 + n_tiles]
        cons_parts: list[np.ndarray] = []
        prod_parts: list[np.ndarray] = []
        byte_parts: list[np.ndarray] = []
        for idx, src in enumerate(node.inputs):
            if isinstance(node.op, Concat):
                sel = np.nonzero(concat_overlap_mask(statics, idx, bounds))[0]
                if not len(sel):
                    continue
                b = bounds[sel]
            else:
                sel = np.arange(n_tiles, dtype=np.int64)
                b = bounds
            h_lo, h_hi, w_lo, w_hi, c_lo, c_hi = input_span_arrays(
                statics, idx, b
            )
            if src in input_ids:
                dram[sel] += (
                    (h_hi - h_lo + 1) * (w_hi - w_lo + 1) * (c_hi - c_lo + 1)
                ) * bpe
                continue
            src_grid = grids[src]
            src_shape = src_grid.shape
            th, tw, tc = src_grid.tile.h, src_grid.tile.w, src_grid.tile.co
            # Clip to the producer tensor (tiles_covering's clipped_to).
            h_lo = np.maximum(h_lo, 0)
            h_hi = np.minimum(h_hi, src_shape.height - 1)
            w_lo = np.maximum(w_lo, 0)
            w_hi = np.minimum(w_hi, src_shape.width - 1)
            c_lo = np.maximum(c_lo, 0)
            c_hi = np.minimum(c_hi, src_shape.channels - 1)
            ih_lo, ih_hi = h_lo // th, h_hi // th
            iw_lo, iw_hi = w_lo // tw, w_hi // tw
            ic_lo, ic_hi = c_lo // tc, c_hi // tc
            nh = ih_hi - ih_lo + 1
            nw = iw_hi - iw_lo + 1
            nc = ic_hi - ic_lo + 1
            counts = nh * nw * nc
            total = int(counts.sum())
            if total == 0:
                continue
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            rep = np.repeat(np.arange(len(b), dtype=np.int64), counts)
            local = np.arange(total, dtype=np.int64) - offsets[rep]
            nwc = (nw * nc)[rep]
            nc_rep = nc[rep]
            ih = ih_lo[rep] + local // nwc
            rest = local % nwc
            iw = iw_lo[rep] + rest // nc_rep
            ic = ic_lo[rep] + rest % nc_rep
            p_local = (
                ih * (src_grid.tiles_w * src_grid.tiles_c)
                + iw * src_grid.tiles_c
                + ic
            )
            ov_h = (
                np.minimum(h_hi[rep], np.minimum((ih + 1) * th, src_shape.height) - 1)
                - np.maximum(h_lo[rep], ih * th)
                + 1
            )
            ov_w = (
                np.minimum(w_hi[rep], np.minimum((iw + 1) * tw, src_shape.width) - 1)
                - np.maximum(w_lo[rep], iw * tw)
                + 1
            )
            ov_c = (
                np.minimum(c_hi[rep], np.minimum((ic + 1) * tc, src_shape.channels) - 1)
                - np.maximum(c_lo[rep], ic * tc)
                + 1
            )
            cons_parts.append(sel[rep])
            prod_parts.append(p_local + base_of[src])
            byte_parts.append(ov_h * ov_w * ov_c * bpe)

        if not cons_parts:
            continue
        cons = np.concatenate(cons_parts)
        prod = np.concatenate(prod_parts)
        nbytes_all = np.concatenate(byte_parts)
        # Merge duplicate (consumer, producer) pairs — a consumer may read
        # one producer atom through several inputs — and sort by consumer
        # then producer.
        order = np.lexsort((prod, cons))
        cons, prod, nbytes_all = cons[order], prod[order], nbytes_all[order]
        fresh = np.concatenate(
            ([True], (cons[1:] != cons[:-1]) | (prod[1:] != prod[:-1]))
        )
        starts = np.nonzero(fresh)[0]
        cons_layers.append(cons[starts] + base0)
        prod_layers.append(prod[starts])
        byte_layers.append(np.add.reduceat(nbytes_all, starts))

    # Samples are identical blocks of ``per_sample`` atoms: every index of
    # sample s shifts by s * per_sample.
    cons0 = _ints(cons_layers)
    prod0 = _ints(prod_layers)
    bytes0 = _ints(byte_layers)
    num = per_sample * batch
    shift = np.repeat(
        np.arange(batch, dtype=np.int64) * per_sample, len(cons0)
    )
    consumers = np.tile(cons0, batch) + shift
    producers = np.tile(prod0, batch) + shift
    nbytes = np.tile(bytes0, batch)
    # Already consumer-major, so the pred side keeps the edge order; each
    # succ row keeps its consumers ascending.
    pred_ptr, pred_ids, pred_bytes = csr_rows(consumers, producers, nbytes, num)
    succ_ptr, succ_ids, succ_bytes = csr_rows(producers, consumers, nbytes, num)

    layer_ids = [node.node_id for node in layer_nodes]
    tiles = [len(bounds_of[layer]) for layer in layer_ids]
    weights = np.tile(_ints(weight_parts), batch)

    dag = AtomicDAG(
        graph=graph,
        batch=batch,
        grids=grids,
        layer_depth=graph.depths(),
        costs=table,
        pred_ptr=pred_ptr,
        pred_ids=pred_ids,
        pred_bytes=pred_bytes,
        succ_ptr=succ_ptr,
        succ_ids=succ_ids,
        succ_bytes=succ_bytes,
        atom_sample=np.repeat(np.arange(batch, dtype=np.int64), per_sample),
        atom_layer=np.tile(
            np.repeat(np.asarray(layer_ids, dtype=np.int64), tiles), batch
        ),
        atom_tile=np.tile(
            _ints([np.arange(n, dtype=np.int64) for n in tiles]), batch
        ),
        atom_bounds=np.tile(
            np.concatenate([bounds_of[layer] for layer in layer_ids])
            if layer_ids
            else np.zeros((0, 6), dtype=np.int64),
            (batch, 1),
        ),
        atom_weight_slice=np.tile(_ints(slice_parts), batch),
        atom_incoming_bytes=_row_sums(pred_ptr, pred_bytes) + weights,
        atom_dram_bytes=np.tile(dram0, batch),
    )
    for sample in range(batch):
        for layer in layer_ids:
            dag._base[(sample, layer)] = sample * per_sample + base_of[layer]
    return dag
