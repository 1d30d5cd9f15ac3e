"""Vectorized structure-of-arrays engine-cost kernel.

The scalar :class:`~repro.engine.cost_model.EngineCostModel` answers one
``(op, region)`` query at a time through Python ``math.ceil`` arithmetic;
every search stage (SA ladder sweeps, atomic-DAG pricing) asks it
thousands of times per candidate.  This module is the array back end those
stages batch into: per-layer static dimensions and halo patterns are
captured once in :class:`LayerStatics`, and :class:`CostKernel` prices a
whole batch of output regions — a coefficient ladder, a full tile lattice
— in one NumPy call.

The kernel is a *strict* refactor of the scalar model: every formula is
the same IEEE-754/integer expression evaluated elementwise, so results are
bit-identical to the scalar path (enforced by the scalar≡batch
golden-equivalence property suite).  Two caveats the tests document:

* ``math.ceil(a / b)`` is replicated as ``np.ceil`` over float64, which is
  identical while operands stay below 2**53 (true for every supported
  workload; Python's big-int division is correctly rounded beyond that,
  NumPy's is not).
* Integer terms stay in int64 end to end; intermediate products are
  bounded well inside the int64 range for all supported models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import EngineConfig
from repro.engine.dataflow import Dataflow, conv_dims_for_region
from repro.ir.ops import (
    Add,
    Concat,
    Conv2D,
    FullyConnected,
    GlobalPool,
    Input,
    Op,
    Pool,
    Region,
    Scale,
    _Elementwise,
)
from repro.ir.tensor import TensorShape

#: Region bounds are passed as an ``(N, 6)`` int64 array with columns
#: ``(h0, h1, w0, w1, c0, c1)`` — inclusive, matching :class:`Region`.
BOUND_COLUMNS = ("h0", "h1", "w0", "w1", "c0", "c1")


@dataclass(frozen=True)
class EngineCost:
    """Cost of executing one atom on one engine.

    Attributes:
        cycles: Execution cycles on the engine (compute only; memory and NoC
            delays are modelled by the system simulator).
        macs: MAC (or vector-op) count of the atom.
        pe_utilization: MAC throughput achieved / peak, in [0, 1]; zero for
            vector-unit ops, which do not occupy the PE array.
        uses_pe_array: Whether the atom runs on the PE array (Conv/FC).
        ifmap_bytes: Input-activation traffic the atom must read.
        weight_bytes: Weight traffic the atom must read.
        ofmap_bytes: Output-activation volume the atom produces.
    """

    cycles: int
    macs: int
    pe_utilization: float
    uses_pe_array: bool
    ifmap_bytes: int
    weight_bytes: int
    ofmap_bytes: int


@dataclass(frozen=True)
class LayerStatics:
    """Static per-layer dimensions and halo pattern, precomputed once.

    Everything the vectorized kernel needs about an ``(op, in_shapes)``
    pair that does not depend on the queried region: operator class,
    kernel/stride/padding, channel grouping, input extents, and the
    per-element op count of vector-unit layers.

    Attributes:
        kind: Dispatch tag (``conv``/``fc``/``pool``/``gpool``/``eltwise``/
            ``add``/``scale``/``concat``/``input``/``generic``).
        kh, kw: Kernel extents (conv/pool); 1 otherwise.
        sh, sw: Strides; 1 otherwise.
        ph, pw: Paddings; 0 otherwise.
        in_h, in_w, in_c: First-input extents.
        in_elems: First-input element count.
        cin_per_group, cout_per_group: Conv channel grouping (groups == 1
            collapses to full input channels).
        groups: Conv groups.
        macs_per_elem: Vector-unit ops per output element.
        weight_params: ``op.weight_params(in_shapes)`` (vector ops only).
        arity: Input count.
        concat_offsets: Channel offset of each Concat input.
        concat_channels: Channel extent of each Concat input.
    """

    kind: str
    kh: int = 1
    kw: int = 1
    sh: int = 1
    sw: int = 1
    ph: int = 0
    pw: int = 0
    in_h: int = 1
    in_w: int = 1
    in_c: int = 1
    in_elems: int = 1
    cin_per_group: int = 1
    cout_per_group: int = 1
    groups: int = 1
    macs_per_elem: int = 1
    weight_params: int = 0
    arity: int = 1
    concat_offsets: tuple[int, ...] = ()
    concat_channels: tuple[int, ...] = ()

    @classmethod
    def of(cls, op: Op, in_shapes: tuple[TensorShape, ...]) -> "LayerStatics":
        """Classify an operator and capture its static dimensions."""
        if isinstance(op, Input):
            return cls(kind="input", arity=0)
        x = in_shapes[0]
        common = dict(
            in_h=x.height, in_w=x.width, in_c=x.channels,
            in_elems=x.num_elements, arity=len(in_shapes),
        )
        if isinstance(op, Conv2D):
            return cls(
                kind="conv",
                kh=op.kernel[0], kw=op.kernel[1],
                sh=op.stride[0], sw=op.stride[1],
                ph=op.padding[0], pw=op.padding[1],
                cin_per_group=x.channels // op.groups,
                cout_per_group=op.out_channels // op.groups,
                groups=op.groups,
                **common,
            )
        if isinstance(op, FullyConnected):
            return cls(kind="fc", **common)
        if isinstance(op, Pool):
            return cls(
                kind="pool",
                kh=op.kernel[0], kw=op.kernel[1],
                sh=op.stride[0], sw=op.stride[1],  # type: ignore[index]
                ph=op.padding[0], pw=op.padding[1],
                macs_per_elem=op.kernel[0] * op.kernel[1],
                **common,
            )
        if isinstance(op, GlobalPool):
            return cls(kind="gpool", macs_per_elem=x.height * x.width, **common)
        if isinstance(op, Add):
            return cls(kind="add", macs_per_elem=op.arity - 1, **common)
        if isinstance(op, Scale):
            return cls(kind="scale", **common)
        if isinstance(op, Concat):
            offsets = []
            running = 0
            for shape in in_shapes:
                offsets.append(running)
                running += shape.channels
            return cls(
                kind="concat",
                concat_offsets=tuple(offsets),
                concat_channels=tuple(s.channels for s in in_shapes),
                **common,
            )
        if isinstance(op, _Elementwise):
            return cls(
                kind="eltwise",
                weight_params=op.weight_params(in_shapes),
                **common,
            )
        return cls(kind="generic", **common)


@dataclass(frozen=True)
class CostArrays:
    """Batched engine costs in structure-of-arrays form.

    Index-aligned with the queried bounds array; :meth:`cost_at`
    materializes one row as a plain-scalar :class:`EngineCost` view.
    """

    cycles: np.ndarray
    macs: np.ndarray
    pe_utilization: np.ndarray
    uses_pe_array: bool
    ifmap_bytes: np.ndarray
    weight_bytes: np.ndarray
    ofmap_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.cycles)

    def cost_at(self, i: int) -> EngineCost:
        """Row ``i`` as an :class:`EngineCost` (Python scalars, no np leak)."""
        return EngineCost(
            cycles=int(self.cycles[i]),
            macs=int(self.macs[i]),
            pe_utilization=float(self.pe_utilization[i]),
            uses_pe_array=self.uses_pe_array,
            ifmap_bytes=int(self.ifmap_bytes[i]),
            weight_bytes=int(self.weight_bytes[i]),
            ofmap_bytes=int(self.ofmap_bytes[i]),
        )


def region_bounds(regions: list[Region]) -> np.ndarray:
    """Pack :class:`Region` boxes into the kernel's ``(N, 6)`` bounds form."""
    return np.array(
        [[r.h[0], r.h[1], r.w[0], r.w[1], r.c[0], r.c[1]] for r in regions],
        dtype=np.int64,
    ).reshape(-1, 6)


def input_span_arrays(
    statics: LayerStatics, index: int, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``op.input_region(index, ...)`` over a bounds batch.

    Returns six int64 arrays ``(h_lo, h_hi, w_lo, w_hi, c_lo, c_hi)``
    (inclusive), matching the scalar ``input_region`` for every row — the
    per-axis-separable halo pattern the DAG builder and the traffic terms
    share.  Concat rows whose output slice misses input ``index`` get the
    same degenerate ``(0, 0)`` channel span the scalar path returns.
    """
    h0, h1, w0, w1, c0, c1 = (bounds[:, i] for i in range(6))
    kind = statics.kind
    if kind in ("eltwise", "add"):
        return h0, h1, w0, w1, c0, c1
    if kind == "scale":
        if index == 0:
            return h0, h1, w0, w1, c0, c1
        zero = np.zeros_like(h0)
        return zero, zero, zero, zero, c0, c1
    if kind == "fc":
        zero = np.zeros_like(h0)
        return (
            zero, zero + (statics.in_h - 1),
            zero, zero + (statics.in_w - 1),
            zero, zero + (statics.in_c - 1),
        )
    if kind == "gpool":
        zero = np.zeros_like(h0)
        return (
            zero, zero + (statics.in_h - 1),
            zero, zero + (statics.in_w - 1),
            c0, c1,
        )
    if kind == "concat":
        off = statics.concat_offsets[index]
        ch = statics.concat_channels[index]
        lo = np.maximum(c0 - off, 0)
        hi = np.minimum(c1 - off, ch - 1)
        degenerate = hi < lo
        lo = np.where(degenerate, 0, lo)
        hi = np.where(degenerate, 0, hi)
        return h0, h1, w0, w1, lo, hi
    if kind in ("conv", "pool"):
        h_lo = np.maximum(h0 * statics.sh - statics.ph, 0)
        h_hi = np.minimum(
            h1 * statics.sh - statics.ph + statics.kh - 1, statics.in_h - 1
        )
        h_hi = np.maximum(h_hi, h_lo)
        w_lo = np.maximum(w0 * statics.sw - statics.pw, 0)
        w_hi = np.minimum(
            w1 * statics.sw - statics.pw + statics.kw - 1, statics.in_w - 1
        )
        w_hi = np.maximum(w_hi, w_lo)
        if kind == "pool":
            return h_lo, h_hi, w_lo, w_hi, c0, c1
        if statics.groups == 1:
            zero = np.zeros_like(c0)
            return h_lo, h_hi, w_lo, w_hi, zero, zero + (statics.in_c - 1)
        g_lo = c0 // statics.cout_per_group
        g_hi = c1 // statics.cout_per_group
        return (
            h_lo, h_hi, w_lo, w_hi,
            g_lo * statics.cin_per_group,
            (g_hi + 1) * statics.cin_per_group - 1,
        )
    raise ValueError(f"no vectorized input span for kind {kind!r}")


def concat_overlap_mask(
    statics: LayerStatics, index: int, bounds: np.ndarray
) -> np.ndarray:
    """Vectorized ``Concat.overlaps_input`` over a bounds batch."""
    off = statics.concat_offsets[index]
    ch = statics.concat_channels[index]
    return (bounds[:, 4] <= off + ch - 1) & (bounds[:, 5] >= off)


class CostKernel:
    """Batched engine-cost evaluator over structure-of-arrays regions.

    Owns both cost paths: :meth:`scalar_cost` keeps the original Python
    formulas (the reference semantics the thin
    :class:`~repro.engine.cost_model.EngineCostModel` view delegates to),
    and :meth:`price_regions` evaluates the same formulas elementwise over
    an ``(N, 6)`` bounds batch.  ``batch_calls``/``batch_rows`` count the
    vectorized traffic for the observability layer.

    Args:
        engine: The engine microarchitecture.
        dataflow: Spatial unrolling strategy.
        bytes_per_element: Tensor element width in bytes.
        vector_lanes: SIMD width of the vector unit; defaults to one lane
            per PE column.
    """

    def __init__(
        self,
        engine: EngineConfig,
        dataflow: Dataflow,
        bytes_per_element: int = 1,
        vector_lanes: int | None = None,
    ) -> None:
        self.engine = engine
        self.dataflow = dataflow
        self.bytes_per_element = bytes_per_element
        self.vector_lanes = vector_lanes or engine.pe_cols
        self._statics: dict[tuple, LayerStatics] = {}
        self.batch_calls = 0
        self.batch_rows = 0

    # ------------------------------------------------------------- statics

    def statics(self, op: Op, in_shapes: tuple[TensorShape, ...]) -> LayerStatics:
        """Memoized :class:`LayerStatics` for one ``(op, in_shapes)`` pair."""
        key = (op, in_shapes)
        cached = self._statics.get(key)
        if cached is None:
            cached = self._statics[key] = LayerStatics.of(op, in_shapes)
        return cached

    def batch_counters(self) -> tuple[int, int]:
        """Lifetime ``(batch_calls, batch_rows)`` of the vectorized path."""
        return self.batch_calls, self.batch_rows

    # --------------------------------------------------------- scalar path

    def scalar_cost(
        self, op: Op, in_shapes: tuple[TensorShape, ...], region: Region
    ) -> EngineCost:
        """Reference scalar cost (the original `EngineCostModel` formulas)."""
        if isinstance(op, Input):
            return EngineCost(0, 0, 0.0, False, 0, 0, 0)
        if op.is_compute_heavy:
            dims = conv_dims_for_region(op, in_shapes, region)
            s1, s2 = self.dataflow.spatial_extents(dims)
            temporal = self.dataflow.temporal_iterations(dims)
            passes = math.ceil(s1 / self.engine.pe_rows) * math.ceil(
                s2 / self.engine.pe_cols
            )
            # Double-buffered weight registers overlap the next pass's
            # weight reload (through the buffer port) with the current
            # pass's compute: a pass takes max(compute, reload) cycles.
            # Reload-bound tiles are the task-engine mismatch of
            # Sec. II-B.  Fill/drain is charged once per atom since
            # consecutive passes stream back-to-back.
            port_bytes_per_cycle = self.engine.buffer_port_bits // 8
            reload = math.ceil(
                self.dataflow.weight_elements_per_pass(dims, self.engine)
                * self.bytes_per_element
                / max(1, port_bytes_per_cycle)
            )
            cycles = passes * max(temporal, reload) + self.dataflow.fill_cycles(
                self.engine
            )
            macs = dims.macs
            utilization = min(1.0, macs / (cycles * self.engine.macs_per_cycle))
            in_region = op.input_region(0, in_shapes, region)
            ifmap_bytes = in_region.num_elements * self.bytes_per_element
            if isinstance(op, Conv2D):
                weight_bytes = op.weight_bytes_for_region(
                    in_shapes, region, self.bytes_per_element
                )
            elif isinstance(op, FullyConnected):
                weight_bytes = (
                    in_shapes[0].num_elements
                    * region.channels
                    * self.bytes_per_element
                )
            else:
                weight_bytes = 0
            return EngineCost(
                cycles=cycles,
                macs=macs,
                pe_utilization=utilization,
                uses_pe_array=True,
                ifmap_bytes=ifmap_bytes,
                weight_bytes=weight_bytes,
                ofmap_bytes=region.num_elements * self.bytes_per_element,
            )
        ops = op.macs_for_region(in_shapes, region)
        cycles = max(1, math.ceil(ops / self.vector_lanes))
        ifmap_bytes = sum(
            op.input_region(i, in_shapes, region).num_elements
            * self.bytes_per_element
            for i in range(len(in_shapes))
        )
        weight_bytes = op.weight_params(in_shapes) * self.bytes_per_element
        return EngineCost(
            cycles=cycles,
            macs=ops,
            pe_utilization=0.0,
            uses_pe_array=False,
            ifmap_bytes=ifmap_bytes,
            weight_bytes=weight_bytes,
            ofmap_bytes=region.num_elements * self.bytes_per_element,
        )

    # ---------------------------------------------------------- batch path

    def price_regions(
        self, op: Op, in_shapes: tuple[TensorShape, ...], bounds: np.ndarray
    ) -> CostArrays:
        """Price every region row of ``bounds`` in one vectorized call.

        ``bounds`` is an ``(N, 6)`` int64 array of inclusive
        ``(h0, h1, w0, w1, c0, c1)`` boxes (see :func:`region_bounds`).
        Field-for-field bit-identical to :meth:`scalar_cost` per row.
        """
        bounds = np.asarray(bounds, dtype=np.int64).reshape(-1, 6)
        self.batch_calls += 1
        self.batch_rows += len(bounds)
        st = self.statics(op, in_shapes)
        if st.kind == "input":
            zero = np.zeros(len(bounds), dtype=np.int64)
            return CostArrays(
                zero, zero, zero.astype(float), False, zero, zero, zero
            )
        if st.kind == "generic" or (
            op.is_compute_heavy and not self.dataflow.supports_batch
        ):
            return self._fallback(op, in_shapes, bounds)
        sh = bounds[:, 1] - bounds[:, 0] + 1
        sw = bounds[:, 3] - bounds[:, 2] + 1
        sc = bounds[:, 5] - bounds[:, 4] + 1
        elems = sh * sw * sc
        ofmap = elems * self.bytes_per_element
        if st.kind in ("conv", "fc"):
            return self._pe_array_batch(st, bounds, sh, sw, sc, ofmap)
        return self._vector_batch(st, bounds, sh, sw, sc, elems, ofmap)

    def _pe_array_batch(self, st, bounds, sh, sw, sc, ofmap) -> CostArrays:
        bpe = self.bytes_per_element
        if st.kind == "conv":
            h, w, co = sh, sw, sc
            ci = np.full_like(sc, st.cin_per_group)
            kh, kw = st.kh, st.kw
        else:  # fc: CONV with H_o = W_o = K = 1 (footnote 2 of the paper)
            ones = np.ones_like(sc)
            h = w = ones
            ci = np.full_like(sc, st.in_elems)
            co = sc
            kh = kw = 1
        s1, s2, temporal, wpp = self.dataflow.batch_terms(
            h, w, ci, co, kh, kw, self.engine
        )
        passes = np.ceil(s1 / self.engine.pe_rows).astype(np.int64) * np.ceil(
            s2 / self.engine.pe_cols
        ).astype(np.int64)
        port_bytes_per_cycle = self.engine.buffer_port_bits // 8
        reload = np.ceil(wpp * bpe / max(1, port_bytes_per_cycle)).astype(
            np.int64
        )
        cycles = passes * np.maximum(temporal, reload) + self.dataflow.fill_cycles(
            self.engine
        )
        macs = h * w * ci * co * (kh * kw)
        util = np.minimum(1.0, macs / (cycles * self.engine.macs_per_cycle))
        ih_lo, ih_hi, iw_lo, iw_hi, ic_lo, ic_hi = input_span_arrays(
            st, 0, bounds
        )
        ifmap = (
            (ih_hi - ih_lo + 1) * (iw_hi - iw_lo + 1) * (ic_hi - ic_lo + 1) * bpe
        )
        if st.kind == "conv":
            weight = sc * (st.cin_per_group * st.kh * st.kw * bpe)
        else:
            weight = sc * (st.in_elems * bpe)
        return CostArrays(cycles, macs, util, True, ifmap, weight, ofmap)

    def _vector_batch(self, st, bounds, sh, sw, sc, elems, ofmap) -> CostArrays:
        bpe = self.bytes_per_element
        if st.kind == "gpool":
            # macs_for_region counts channels * in_h * in_w (the output is
            # 1x1xC, so num_elements == channels for every valid region).
            macs = sc * st.macs_per_elem
        else:
            macs = elems * st.macs_per_elem
        cycles = np.maximum(1, np.ceil(macs / self.vector_lanes).astype(np.int64))
        ifmap = np.zeros_like(elems)
        for i in range(st.arity):
            h_lo, h_hi, w_lo, w_hi, c_lo, c_hi = input_span_arrays(st, i, bounds)
            ifmap += (
                (h_hi - h_lo + 1) * (w_hi - w_lo + 1) * (c_hi - c_lo + 1) * bpe
            )
        weight = np.full_like(elems, st.weight_params * bpe)
        return CostArrays(
            cycles, macs, np.zeros(len(bounds)), False, ifmap, weight, ofmap
        )

    def _fallback(self, op, in_shapes, bounds) -> CostArrays:
        costs = [
            self.scalar_cost(
                op,
                in_shapes,
                Region(
                    (int(b[0]), int(b[1])),
                    (int(b[2]), int(b[3])),
                    (int(b[4]), int(b[5])),
                ),
            )
            for b in bounds
        ]
        return CostArrays(
            cycles=np.array([c.cycles for c in costs], dtype=np.int64),
            macs=np.array([c.macs for c in costs], dtype=np.int64),
            pe_utilization=np.array([c.pe_utilization for c in costs]),
            uses_pe_array=bool(costs[0].uses_pe_array) if costs else False,
            ifmap_bytes=np.array([c.ifmap_bytes for c in costs], dtype=np.int64),
            weight_bytes=np.array(
                [c.weight_bytes for c in costs], dtype=np.int64
            ),
            ofmap_bytes=np.array([c.ofmap_bytes for c in costs], dtype=np.int64),
        )
