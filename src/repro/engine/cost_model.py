"""Analytical single-engine cost model (the MAESTRO substitute).

Given an operator, an output region (atom), an engine configuration, and a
spatial dataflow, this module reports execution cycles, PE utilization, and
the data volumes the atom moves — the quantities the paper obtains from the
MAESTRO tool [3] and feeds into every search stage.

Model: the two spatially unrolled extents are folded over the PE array in
passes of ``PE_rows x PE_cols``; each pass iterates the temporal loops once
per cycle per active PE.  Cycles therefore scale with
``ceil(s1/PE_rows) * ceil(s2/PE_cols) * T`` plus a systolic fill overhead
per pass, and utilization is ``MACs / (cycles * num_PEs)`` — reproducing the
decisive mismatch effect of Sec. II-B (a sub-task whose unrolled extents do
not reach the array dimensions strands PEs).

:class:`EngineCostModel` is the memoizing *scalar view*: single-region
queries delegate to :class:`~repro.engine.batch.CostKernel`, which also
prices whole region batches (coefficient ladders, tile lattices) in one
vectorized call for the search hot paths.  It also carries the SA tiling
memo (:class:`TileMemo`), so every annealing chain over one engine
design shares one table of priced tile-lattice points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import EngineConfig
from repro.engine.batch import CostKernel, EngineCost
from repro.engine.dataflow import Dataflow
from repro.ir.ops import Op, Region
from repro.ir.tensor import TensorShape

__all__ = ["EngineCost", "EngineCostModel", "TileMemo"]

Coeffs = tuple[int, int, int, int]


@dataclass
class TileMemo:
    """Memoized SA tiling values of one layer on one engine design.

    Every entry is a pure function of the layer's content (operator,
    input shapes, output shape) and the engine, so entries never go
    stale and every chain — restarts, tempering rungs and segments,
    warm service sessions, repeated layers — can share them.  Values are
    immutable tuples of ints and floats, which the cyclic GC untracks,
    so a long-lived warm context does not slow its collections down.
    Concurrent writers store equal values, so a race can price a point
    twice but never change an answer.

    Attributes:
        bounds: Maximum useful value of each tile coefficient.
        ladders: Geometric candidate values of each coefficient.
        lattice: Coefficients -> ``(cycles, pe_utilization)`` of one
            full-size atom, with the buffer-feasibility adjustment.
        axis: ``(axis, other coefficients)`` -> ``(cycles, utils)``
            tuples over that axis's whole ladder.
        counts: Coefficients -> atoms the layer yields.
    """

    bounds: Coeffs
    ladders: tuple[tuple[int, ...], ...]
    lattice: dict[Coeffs, tuple[int, float]] = field(default_factory=dict)
    axis: dict[tuple, tuple[tuple[int, ...], tuple[float, ...]]] = field(
        default_factory=dict
    )
    counts: dict[Coeffs, int] = field(default_factory=dict)


class EngineCostModel:
    """Cycle/utilization/traffic model of one tensor engine.

    A thin memoizing view over the structure-of-arrays
    :class:`~repro.engine.batch.CostKernel`: scalar queries land in a
    per-``(op, in_shapes, region)`` cache; batch consumers reach the
    vectorized kernel through :attr:`kernel`; the SA tiling search keeps
    its per-layer :class:`TileMemo` in :attr:`tile_memos`, keyed by
    ``(op, in_shapes, output_shape)``.

    Args:
        engine: The engine microarchitecture.
        dataflow: Spatial unrolling strategy (KC- or YX-Partition).
        bytes_per_element: Tensor element width in bytes.
        vector_lanes: SIMD width of the vector unit handling elementwise and
            pooling layers; defaults to one lane per PE column.
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
        self.kernel = CostKernel(
            engine, dataflow, bytes_per_element, self.vector_lanes
        )
        self._cache: dict[tuple, EngineCost] = {}
        self.tile_memos: dict[tuple, TileMemo] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def cache_counters(self) -> tuple[int, int]:
        """Lifetime ``(hits, misses)`` of the memoization cache.

        Snapshot before/after a candidate evaluation to attribute cache
        behaviour to it (the deltas land in
        :class:`~repro.pipeline.CandidateTrace`).  Counters are per
        process: parallel search workers each count their own cache.
        """
        return self.cache_hits, self.cache_misses

    def cost(
        self, op: Op, in_shapes: tuple[TensorShape, ...], region: Region
    ) -> EngineCost:
        """Cost of computing ``region`` of ``op``'s output on this engine.

        Results are memoized on (op, input shapes, region), which the search
        loops hit heavily — the same layer/tile pair is evaluated thousands
        of times during SA and DP.
        """
        key = (op, in_shapes, region)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        result = self.kernel.scalar_cost(op, in_shapes, region)
        self._cache[key] = result
        return result

    def layer_cost(self, op: Op, in_shapes: tuple[TensorShape, ...]) -> EngineCost:
        """Cost of the whole layer as a single tile on one engine."""
        return self.cost(op, in_shapes, Region.full(op.infer_shape(in_shapes)))
