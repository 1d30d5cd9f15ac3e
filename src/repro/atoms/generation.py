"""Atomic tensor generation: the paper's Algorithm 1 (simulated annealing).

Finds, per compute layer, the tile coefficients ``[c0, c1, c2, c3]`` whose
atom execution cycles cluster around one *unified cycle* ``S`` — parallel
atoms with equal runtimes avoid load imbalance (target 2 of Sec. IV-A) —
while the dataflow-aware coefficient scaling keeps the spatially unrolled
extents divisible by the PE array (target 1).

A genetic-algorithm comparator is included because Fig. 5(b) contrasts SA
and GA convergence.  Non-compute (vector-unit) layers do not enter the
search; their tiling is derived grid-aligned from their producers by
:func:`derive_vector_tiling`, yielding one-to-one atom dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.atoms.atom import TileSize
from repro.atoms.partition import grid_for
from repro.config import EngineConfig
from repro.engine.batch import region_bounds
from repro.engine.cost_model import Coeffs, EngineCostModel, TileMemo
from repro.intmath import ceil_div
from repro.ir.graph import Graph, Node
from repro.ir.ops import Input, Region
from repro.ir.tensor import TensorShape
from repro.obs.tracer import get_tracer


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of an atom-generation search.

    Attributes:
        tiling: Layer id -> tile size, for every non-input layer (compute
            layers from the search, vector layers derived).
        unified_cycle: The converged system state ``S``.
        energy: Final energy (variance of atom cycles, normalized by the
            squared mean so the threshold is scale-free).
        history: Energy after each search iteration (convergence curve of
            Fig. 5(b)).
        layer_cycles: Compute-layer id -> representative atom cycles.
        iterations: Iterations actually executed.
    """

    tiling: dict[int, TileSize]
    unified_cycle: float
    energy: float
    history: tuple[float, ...]
    layer_cycles: dict[int, int]
    iterations: int


@dataclass(frozen=True)
class SAParams:
    """Simulated-annealing hyperparameters (Algorithm 1 line 4).

    Attributes:
        max_iterations: ``ite_max``.
        move_length_frac: ``Len`` as a fraction of the initial state ``S``.
        epsilon: Convergence threshold on normalized variance.
        temperature: Initial ``Temp``.
        cooling: Decrease factor ``lambda`` applied each iteration
            (exponential schedule only).
        schedule: Cooling schedule — ``"exponential"`` multiplies the
            temperature by ``cooling`` each iteration; ``"linear"`` ramps
            it from ``temperature`` to zero over ``max_iterations``.
            Exponential cooling can freeze the chain before it has mixed
            (the tensor-PCA exemplar's caveat), so the linear family is a
            first-class member of the tempering proposal portfolio.
    """

    max_iterations: int = 200
    move_length_frac: float = 0.25
    epsilon: float = 0.01
    temperature: float = 1.0
    cooling: float = 0.98
    schedule: str = "exponential"

    def __post_init__(self) -> None:
        if self.schedule not in ("exponential", "linear"):
            raise ValueError(f"unknown cooling schedule {self.schedule!r}")

    def temperature_at(self, iteration: int) -> float:
        """Temperature used by acceptance at 1-based ``iteration``."""
        if self.schedule == "linear":
            return self.temperature * max(
                0.0, 1.0 - iteration / self.max_iterations
            )
        return self.temperature * self.cooling**iteration


@dataclass(frozen=True)
class GAParams:
    """Genetic-algorithm hyperparameters for the Fig. 5(b) comparison."""

    generations: int = 200
    population: int = 24
    mutation_rate: float = 0.3
    tournament: int = 3


#: Retained samples of a chain's energy curve before downsampling kicks in.
HISTORY_CAP = 1024


@dataclass
class EnergyHistory:
    """A bounded energy-convergence curve (Fig. 5(b)) for long chains.

    Appends are O(1) amortized: every ``stride``-th offered value is
    retained, and when the retained set outgrows ``cap`` it is decimated
    2:1 and the stride doubles.  Sample 0 (the initial energy) always
    survives decimation, and retained samples stay evenly spaced — the
    curve keeps its shape while memory stays bounded no matter how many
    tempering segments a rung runs.  Best-energy bookkeeping never reads
    the history; it is tracked exactly in :class:`RungState`.
    """

    cap: int = HISTORY_CAP
    stride: int = 1
    count: int = 0
    samples: list[float] = field(default_factory=list)

    def append(self, value: float) -> None:
        if self.count % self.stride == 0:
            self.samples.append(float(value))
            if len(self.samples) > self.cap:
                self.samples = self.samples[::2]
                self.stride *= 2
        self.count += 1

    def values(self) -> list[float]:
        return list(self.samples)

    def to_dict(self) -> dict:
        return {
            "cap": self.cap,
            "stride": self.stride,
            "count": self.count,
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EnergyHistory":
        return cls(
            cap=int(doc["cap"]),
            stride=int(doc["stride"]),
            count=int(doc["count"]),
            samples=[float(v) for v in doc["samples"]],
        )


@dataclass
class RungState:
    """The complete resumable state of one annealing chain (one rung).

    Everything Algorithm 1's inner loop reads or writes — including the
    chain's RNG — so :meth:`AtomGenerator.step_rung` can advance a chain
    in arbitrary segments (between parallel-tempering exchanges) with
    results bit-identical to one uninterrupted run.  ``to_dict`` is pure
    JSON (the RNG serializes via ``bit_generator.state``; floats survive
    JSON's repr round-trip exactly), which is what the tempering
    coordinator journals at every segment boundary for ``--resume``.

    Attributes:
        assignment: Layer id -> current tile coefficients.
        cycles: Per-compute-layer atom cycles under ``assignment``.
        counts: Per-compute-layer atom counts under ``assignment``.
        state: Current unified-cycle target ``S``.
        energy: Current energy.
        temperature: Acceptance temperature used by the last iteration.
        iteration: Iterations executed so far.
        move_len: Absolute move length (``Len``), fixed at init.
        best_assignment: Best-energy assignment seen so far.
        best_energy: Best energy seen so far.
        best_state: ``S`` at the best-energy iteration.
        history: Bounded energy curve.
        rng: The chain's random stream (all stochasticity flows here).
        parallel_hint: Engine count used for the parallelism deficit term.
        converged: Energy reached ``epsilon``; the stepper is done.
        replica: Identity of the configuration currently in this rung —
            exchanges swap configurations between rungs, and the replica
            ids must remain a permutation (validator AD604).
    """

    assignment: dict[int, Coeffs]
    cycles: list[int]
    counts: list[int]
    state: float
    energy: float
    temperature: float
    iteration: int
    move_len: float
    best_assignment: dict[int, Coeffs]
    best_energy: float
    best_state: float
    history: EnergyHistory
    rng: np.random.Generator
    parallel_hint: int | None
    converged: bool = False
    replica: int = 0

    #: State keys exchanged between rungs on an accepted swap: the
    #: configuration and its identity travel; temperature, RNG stream,
    #: history, and best-so-far bookkeeping stay with the rung.
    SWAP_KEYS = (
        "assignment", "cycles", "counts", "state", "energy", "replica",
    )

    def to_dict(self) -> dict:
        return {
            "assignment": {
                str(k): list(v) for k, v in self.assignment.items()
            },
            "cycles": list(self.cycles),
            "counts": list(self.counts),
            "state": self.state,
            "energy": self.energy,
            "temperature": self.temperature,
            "iteration": self.iteration,
            "move_len": self.move_len,
            "best_assignment": {
                str(k): list(v) for k, v in self.best_assignment.items()
            },
            "best_energy": self.best_energy,
            "best_state": self.best_state,
            "history": self.history.to_dict(),
            "rng": self.rng.bit_generator.state,
            "parallel_hint": self.parallel_hint,
            "converged": self.converged,
            "replica": self.replica,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RungState":
        rng = np.random.default_rng(0)
        rng.bit_generator.state = doc["rng"]
        hint = doc["parallel_hint"]
        return cls(
            assignment=_assignment_from_doc(doc["assignment"]),
            cycles=[int(c) for c in doc["cycles"]],
            counts=[int(c) for c in doc["counts"]],
            state=float(doc["state"]),
            energy=float(doc["energy"]),
            temperature=float(doc["temperature"]),
            iteration=int(doc["iteration"]),
            move_len=float(doc["move_len"]),
            best_assignment=_assignment_from_doc(doc["best_assignment"]),
            best_energy=float(doc["best_energy"]),
            best_state=float(doc["best_state"]),
            history=EnergyHistory.from_dict(doc["history"]),
            rng=rng,
            parallel_hint=None if hint is None else int(hint),
            converged=bool(doc["converged"]),
            replica=int(doc["replica"]),
        )


def _assignment_from_doc(doc: dict) -> dict[int, Coeffs]:
    return {
        int(layer): tuple(int(c) for c in coeffs)  # type: ignore[misc]
        for layer, coeffs in doc.items()
    }


@dataclass
class AtomGenerator:
    """Searches per-layer atom sizes for one workload on one engine design.

    Args:
        graph: Layer graph (elementwise-fused).
        cost_model: Single-engine cost model (fixes the dataflow).
        rng: Seeded random generator; all stochasticity flows through it.
    """

    graph: Graph
    cost_model: EngineCostModel
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        self._compute_nodes: list[Node] = [
            n for n in self.graph.nodes if n.op.is_compute_heavy
        ]
        if not self._compute_nodes:
            raise ValueError("graph has no compute layers to partition")
        # Per-layer memo of pure values (bounds, ladders, the priced cost
        # lattice, axis sweeps, atom counts), shared through the cost
        # model with every other generator over the same engine design.
        self._memos: dict[int, TileMemo] = {
            n.node_id: self._layer_memo(n) for n in self._compute_nodes
        }
        self._hint: int | None = None

    # ----------------------------------------------------------- coefficients

    @property
    def engine(self) -> EngineConfig:
        return self.cost_model.engine

    def _layer_memo(self, node: Node) -> TileMemo:
        """The cost model's memo for ``node``, keyed by layer content."""
        in_shapes = self.graph.input_shapes(node.node_id)
        key = (node.op, in_shapes, node.output_shape)
        memos = self.cost_model.tile_memos
        memo = memos.get(key)
        if memo is None:
            bounds = self._coeff_bounds(node)
            memo = memos.setdefault(
                key, TileMemo(bounds, tuple(_ladder(b) for b in bounds))
            )
        return memo

    def _coeff_bounds(self, node: Node) -> Coeffs:
        """Maximum useful value of each coefficient for one layer."""
        shape = node.output_shape
        in_shapes = self.graph.input_shapes(node.node_id)
        ci = in_shapes[0].channels if in_shapes else 1
        tile_of = self.cost_model.dataflow.atom_tile
        # Find, per coefficient, the smallest value whose tile extent already
        # saturates the corresponding dimension.
        bounds = []
        full = (shape.height, shape.width, ci, shape.channels)
        for k in range(4):
            hi = 1
            while True:
                probe = [1, 1, 1, 1]
                probe[k] = hi
                if tile_of(tuple(probe), self.engine)[k] >= full[k] or hi > 4096:
                    break
                hi += 1
            bounds.append(hi)
        return tuple(bounds)  # type: ignore[return-value]

    def _tile(self, node: Node, coeffs: Coeffs) -> TileSize:
        h, w, ci, co = self.cost_model.dataflow.atom_tile(coeffs, self.engine)
        return TileSize(h=h, w=w, ci=ci, co=co)

    def _representative_region(self, node: Node, tile: TileSize) -> Region:
        shape = node.output_shape
        return Region(
            (0, min(tile.h, shape.height) - 1),
            (0, min(tile.w, shape.width) - 1),
            (0, min(tile.co, shape.channels) - 1),
        )

    def atom_cycles(self, node: Node, coeffs: Coeffs) -> int:
        """Execution cycles of one full-size atom of a layer.

        This is the ``Cycle(Atom_l)`` oracle of Algorithm 1 (the MAESTRO
        call in the paper).  Tiles violating the buffer-capacity constraint
        are priced infinite so the search routes around them.  The resident
        set is the input tile plus a double-buffered output tile plus the
        weight slice — except that weight slices too large to retain
        (> 1/4 of the buffer) stream from DRAM and only occupy a streaming
        window, as on real engines (e.g. VGG's fully-connected layers).
        """
        cycles, _ = self.atom_cost(node, coeffs)
        return cycles

    def atom_cost(self, node: Node, coeffs: Coeffs) -> tuple[int, float]:
        """(cycles, PE utilization) of one full-size atom of a layer."""
        lattice = self._memos[node.node_id].lattice
        cached = lattice.get(coeffs)
        if cached is not None:
            self.cost_model.cache_hits += 1
            return cached
        tile = self._tile(node, coeffs)
        region = self._representative_region(node, tile)
        in_shapes = self.graph.input_shapes(node.node_id)
        cost = self.cost_model.cost(node.op, in_shapes, region)
        resident_weights = min(cost.weight_bytes, self.engine.buffer_bytes // 4)
        footprint = cost.ifmap_bytes + resident_weights + 2 * cost.ofmap_bytes
        if footprint > self.engine.buffer_bytes:
            result = (_INFEASIBLE_CYCLES, 0.0)
        else:
            result = (cost.cycles, cost.pe_utilization)
        lattice[coeffs] = result
        return result

    def _price_coeffs(self, node: Node, coeff_list: list[Coeffs]) -> None:
        """Price a batch of coefficient lattice points in one kernel call.

        Applies the same buffer-feasibility adjustment as :meth:`atom_cost`
        and fills the layer's lattice; each priced point counts as one
        cost-cache miss so the trace accounting stays comparable with the
        scalar path.
        """
        in_shapes = self.graph.input_shapes(node.node_id)
        regions = [
            self._representative_region(node, self._tile(node, c))
            for c in coeff_list
        ]
        arrays = self.cost_model.kernel.price_regions(
            node.op, in_shapes, region_bounds(regions)
        )
        buffer_bytes = self.engine.buffer_bytes
        resident = np.minimum(arrays.weight_bytes, buffer_bytes // 4)
        footprint = arrays.ifmap_bytes + resident + 2 * arrays.ofmap_bytes
        infeasible = footprint > buffer_bytes
        cycles = np.where(infeasible, _INFEASIBLE_CYCLES, arrays.cycles).tolist()
        utils = np.where(infeasible, 0.0, arrays.pe_utilization).tolist()
        lattice = self._memos[node.node_id].lattice
        for coeffs, cyc, util in zip(coeff_list, cycles, utils):
            lattice[coeffs] = (cyc, util)
        self.cost_model.cache_misses += len(coeff_list)

    def _axis_costs(
        self, node: Node, k: int, best: Coeffs
    ) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """(cycles, utils) over axis ``k``'s full candidate ladder.

        Candidates are ``best`` with coordinate ``k`` replaced by each
        ladder value; memoized on (axis, remaining coordinates).
        """
        memo = self._memos[node.node_id]
        key = (k, best[:k] + best[k + 1:])
        cached = memo.axis.get(key)
        if cached is not None:
            self.cost_model.cache_hits += len(cached[0])
            return cached
        cands = [best[:k] + (v,) + best[k + 1:] for v in memo.ladders[k]]
        lattice = memo.lattice
        missing = [c for c in cands if c not in lattice]
        if missing:
            self._price_coeffs(node, list(dict.fromkeys(missing)))
            self.cost_model.cache_hits += len(cands) - len(missing)
        else:
            self.cost_model.cache_hits += len(cands)
        entries = [lattice[c] for c in cands]
        result = (
            tuple(e[0] for e in entries),
            tuple(e[1] for e in entries),
        )
        memo.axis[key] = result
        return result

    def _fit_layer_to_state(self, node: Node, start: Coeffs, target: float) -> Coeffs:
        """Algorithm 1 line 13: argmin_coeffs |Cycle(Atom_l) - S_move|.

        Coordinate descent over a geometric value ladder per coefficient,
        so the search can jump between qualitatively different tile shapes
        (e.g. from a spatial split to a channel split) instead of crawling
        +/-1.  The distance adds a PE-utilization penalty so the search
        never "balances" a layer by picking an equally slow but inefficient
        tile (target 1 of Sec. IV-A: atoms must keep the array busy).
        """
        ladders = self._memos[node.node_id].ladders
        cycles0, util0 = self.atom_cost(node, start)
        best = start
        # One score is |cycles - S| plus the utilization penalty; the
        # (penalty * target) product is grouped exactly as the scalar
        # expression associated, keeping floats bit-identical.
        penalty = _UTIL_PENALTY * target
        best_gap = abs(cycles0 - target) + penalty * (1.0 - util0)
        since = None  # axis scans since the last improvement
        for _ in range(_FIT_SWEEPS):
            improved = False
            for k in range(4):
                cycles, utils = self._axis_costs(node, k, best)
                j, best_gap = _best_on_axis(
                    cycles, utils, target, penalty, best_gap
                )
                if j >= 0:
                    best = best[:k] + (ladders[k][j],) + best[k + 1:]
                    improved = True
                    since = 0
                elif since is not None:
                    since += 1
                    if since == 3:
                        # Every axis sits at its first minimum given the
                        # others, so the remaining scans would repeat
                        # these with the same inputs and change nothing.
                        return best
            if not improved:
                break
        return best

    def _random_coeffs(self, node: Node) -> Coeffs:
        bounds = self._memos[node.node_id].bounds
        return tuple(int(self.rng.integers(1, b + 1)) for b in bounds)  # type: ignore

    def _even_coeffs(self, node: Node, parts: int) -> Coeffs:
        """Coefficients whose tile splits the layer into ~``parts`` atoms.

        The inverse of the dataflow's ``atom_tile`` applied to an even
        spatial/channel split — the parallelism-aware seed the framework
        uses so atoms are fine enough to fill all engines.
        """
        shape = node.output_shape
        in_shapes = self.graph.input_shapes(node.node_id)
        ci = in_shapes[0].channels if in_shapes else 1
        gh, gw, gc = _split_grid(shape, parts)
        target = (
            max(1, ceil_div(shape.height, gh)),
            max(1, ceil_div(shape.width, gw)),
            ci,
            max(1, ceil_div(shape.channels, gc)),
        )
        bounds = self._memos[node.node_id].bounds
        coeffs = []
        for k in range(4):
            # Smallest coefficient whose tile extent reaches the target.
            lo = 1
            while lo < bounds[k]:
                probe = [1, 1, 1, 1]
                probe[k] = lo
                if (
                    self.cost_model.dataflow.atom_tile(tuple(probe), self.engine)[k]
                    >= target[k]
                ):
                    break
                lo += 1
            coeffs.append(lo)
        return tuple(coeffs)  # type: ignore[return-value]

    def _energy(self, cycles: list[int], counts: list[int] | None = None) -> float:
        """SA system energy: normalized cycle variance + parallelism deficit.

        The variance term is Algorithm 1's ``Var`` (normalized by the squared
        mean so the epsilon threshold is scale-free).  When a parallelism
        hint (the engine count) is active, layers yielding fewer atoms than
        engines add a deficit penalty — atoms must be able to "maximally
        fill the physical engines" (Sec. II-B), not merely be balanced.
        """
        arr = np.asarray(cycles, dtype=float)
        mean = arr.mean()
        if mean == 0:
            return 0.0
        energy = float(arr.var() / mean**2)
        if counts is not None and self._hint:
            deficit = float(
                np.mean([max(0.0, 1.0 - n / self._hint) for n in counts])
            )
            energy += _PARALLELISM_PENALTY * deficit
        return energy

    def _cycles_of(self, assignment: dict[int, Coeffs]) -> list[int]:
        return [
            self.atom_cycles(n, assignment[n.node_id]) for n in self._compute_nodes
        ]

    def _count_of(self, node: Node, coeffs: Coeffs) -> int:
        """Atoms the layer yields under ``coeffs`` (memoized grid count)."""
        cache = self._memos[node.node_id].counts
        count = cache.get(coeffs)
        if count is None:
            tile = self._tile(node, coeffs)
            grid = grid_for(node.output_shape, tile, in_channels=1)
            count = cache[coeffs] = grid.num_tiles
        return count

    def _counts_of(self, assignment: dict[int, Coeffs]) -> list[int]:
        """Atoms each layer yields under an assignment (grid tile counts)."""
        return [
            self._count_of(n, assignment[n.node_id]) for n in self._compute_nodes
        ]

    # ------------------------------------------------------------------ SA

    def init_rung(
        self,
        params: SAParams = SAParams(),
        rng: np.random.Generator | None = None,
        parallel_hint: int | None = None,
        replica: int = 0,
    ) -> RungState:
        """Seed one annealing chain (Algorithm 1 lines 1-3) as a RungState.

        Args:
            params: Annealing hyperparameters for this chain.
            rng: The chain's own random stream; defaults to the
                generator's (the single-chain :meth:`generate_sa` path).
            parallel_hint: When given (the framework passes the engine
                count), layers are seeded at an even split into this many
                atoms before annealing, so balance converges around a
                granularity fine enough to occupy every engine; omitted
                (Algorithm 1 verbatim), seeding is random.
            replica: Replica identity for exchange-conservation tracking
                (parallel tempering swaps configurations between rungs).
        """
        self._hint = parallel_hint
        rng = rng if rng is not None else self.rng
        if parallel_hint is not None:
            assignment: dict[int, Coeffs] = {
                n.node_id: self._even_coeffs(n, parallel_hint)
                for n in self._compute_nodes
            }
        else:
            saved = self.rng
            self.rng = rng
            try:
                assignment = {
                    n.node_id: self._random_coeffs(n)
                    for n in self._compute_nodes
                }
            finally:
                self.rng = saved
        # Seed each layer near a feasible operating point before annealing.
        cycles = self._cycles_of(assignment)
        state = float(np.median(cycles))
        for node in self._compute_nodes:
            assignment[node.node_id] = self._fit_layer_to_state(
                node, assignment[node.node_id], state
            )
        cycles = self._cycles_of(assignment)
        counts = self._counts_of(assignment)
        state_val = float(np.mean(cycles))
        energy = self._energy(cycles, counts)
        history = EnergyHistory()
        history.append(energy)
        return RungState(
            assignment=assignment,
            cycles=cycles,
            counts=counts,
            state=state_val,
            energy=energy,
            temperature=params.temperature,
            iteration=0,
            move_len=params.move_length_frac * state_val,
            best_assignment=dict(assignment),
            best_energy=energy,
            best_state=state_val,
            history=history,
            rng=rng,
            parallel_hint=parallel_hint,
            replica=replica,
        )

    def step_rung(
        self,
        state: RungState,
        params: SAParams = SAParams(),
        steps: int | None = None,
    ) -> RungState:
        """Advance one annealing chain by up to ``steps`` iterations.

        The stepper is exactly the Algorithm 1 inner loop, resumable at
        any iteration boundary: all chain state (including the RNG) lives
        in ``state``, and the acceptance temperature is a pure function of
        the iteration index, so running ``max_iterations`` in one call is
        bit-identical to running it in arbitrary segments — the property
        the parallel-tempering coordinator relies on.  Stops early once
        the energy reaches ``params.epsilon`` (``state.converged``).
        """
        self._hint = state.parallel_hint
        rng = state.rng
        budget = (
            params.max_iterations - state.iteration if steps is None else steps
        )
        tracer = get_tracer()
        executed = 0
        while (
            executed < budget
            and state.iteration < params.max_iterations
            and not state.converged
        ):
            with tracer.span(
                "sa.iteration", category="sa", index=state.iteration
            ):
                executed += 1
                state.iteration += 1
                temperature = params.temperature_at(state.iteration)
                state.temperature = temperature
                state_move = max(
                    1.0, state.state + float(rng.uniform(-1, 1)) * state.move_len
                )
                # Delta-cost bookkeeping: refitting to the moved state
                # usually changes only a few layers, so only their
                # cycle/count contributions are recomputed.  The energy
                # itself is always re-evaluated over the full arrays —
                # its variance term is not decomposable into running
                # sums without changing float semantics.
                candidate = dict(state.assignment)
                cycles_move = list(state.cycles)
                counts_move = list(state.counts)
                for i, n in enumerate(self._compute_nodes):
                    fitted = self._fit_layer_to_state(
                        n, state.assignment[n.node_id], state_move
                    )
                    if fitted == state.assignment[n.node_id]:
                        continue
                    candidate[n.node_id] = fitted
                    cycles_move[i] = self.atom_cycles(n, fitted)
                    counts_move[i] = self._count_of(n, fitted)
                energy_move = self._energy(cycles_move, counts_move)
                accept_p = math.exp(
                    min(0.0, (state.energy - energy_move))
                    / max(temperature, 1e-12)
                ) if energy_move > state.energy else 1.0
                if rng.uniform(0, 1) <= accept_p:
                    state.state, state.energy = state_move, energy_move
                    state.assignment, state.cycles = candidate, cycles_move
                    state.counts = counts_move
                if state.energy < state.best_energy:
                    state.best_assignment = dict(state.assignment)
                    state.best_energy = state.energy
                    state.best_state = state.state
                state.history.append(state.energy)
            if state.energy <= params.epsilon:
                state.converged = True
        return state

    def rung_result(self, state: RungState) -> GenerationResult:
        """Assemble a chain's best-so-far configuration into a result."""
        return self._result(
            state.best_assignment,
            state.best_state,
            state.best_energy,
            state.history.values(),
            state.iteration,
        )

    def generate_sa(
        self,
        params: SAParams = SAParams(),
        parallel_hint: int | None = None,
    ) -> GenerationResult:
        """Run Algorithm 1 and return the balanced tiling.

        A thin wrapper over the resumable stepper: one rung, initialized
        from this generator's own RNG stream and stepped to completion.

        Args:
            params: Annealing hyperparameters.
            parallel_hint: When given (the framework passes the engine
                count), layers are seeded at an even split into this many
                atoms before annealing, so balance converges around a
                granularity fine enough to occupy every engine; omitted
                (Algorithm 1 verbatim), seeding is random.
        """
        state = self.init_rung(params, parallel_hint=parallel_hint)
        with get_tracer().span(
            "sa.anneal",
            category="sa",
            layers=len(self._compute_nodes),
            max_iterations=params.max_iterations,
        ):
            self.step_rung(state, params)
        return self.rung_result(state)

    # ------------------------------------------------------------------ GA

    def generate_ga(self, params: GAParams = GAParams()) -> GenerationResult:
        """Genetic-algorithm comparator (Fig. 5(b) orange curve)."""
        self._hint = None
        population = [
            {n.node_id: self._random_coeffs(n) for n in self._compute_nodes}
            for _ in range(params.population)
        ]
        energies = [self._energy(self._cycles_of(ind)) for ind in population]
        history = [min(energies)]
        iterations = 0
        for _ in range(params.generations):
            iterations += 1
            new_pop = []
            for _ in range(params.population):
                a = self._tournament(energies, params.tournament)
                b = self._tournament(energies, params.tournament)
                child = self._crossover(population[a], population[b])
                self._mutate(child, params.mutation_rate)
                new_pop.append(child)
            # Elitism: keep the best individual.
            best = int(np.argmin(energies))
            new_pop[0] = population[best]
            population = new_pop
            energies = [self._energy(self._cycles_of(ind)) for ind in population]
            history.append(min(energies))

        best = int(np.argmin(energies))
        assignment = population[best]
        cycles = self._cycles_of(assignment)
        return self._result(
            assignment, float(np.mean(cycles)), energies[best], history, iterations
        )

    def _tournament(self, energies: list[float], k: int) -> int:
        contenders = self.rng.integers(0, len(energies), size=k)
        return int(min(contenders, key=lambda i: energies[i]))

    def _crossover(
        self, a: dict[int, Coeffs], b: dict[int, Coeffs]
    ) -> dict[int, Coeffs]:
        return {
            layer: (a[layer] if self.rng.uniform() < 0.5 else b[layer])
            for layer in a
        }

    def _mutate(self, individual: dict[int, Coeffs], rate: float) -> None:
        for node in self._compute_nodes:
            if self.rng.uniform() >= rate:
                continue
            coeffs = list(individual[node.node_id])
            k = int(self.rng.integers(0, 4))
            coeffs[k] = int(
                np.clip(
                    coeffs[k] + int(self.rng.integers(-2, 3)),
                    1,
                    self._memos[node.node_id].bounds[k],
                )
            )
            individual[node.node_id] = tuple(coeffs)  # type: ignore[assignment]

    # ------------------------------------------------------------- assembly

    def _result(
        self,
        assignment: dict[int, Coeffs],
        state: float,
        energy: float,
        history: list[float],
        iterations: int,
    ) -> GenerationResult:
        tiling = {
            n.node_id: self._tile(n, assignment[n.node_id])
            for n in self._compute_nodes
        }
        layer_cycles = {
            n.node_id: self.atom_cycles(n, assignment[n.node_id])
            for n in self._compute_nodes
        }
        tiling = derive_vector_tiling(self.graph, tiling)
        return GenerationResult(
            tiling=tiling,
            unified_cycle=state,
            energy=energy,
            history=tuple(history),
            layer_cycles=layer_cycles,
            iterations=iterations,
        )


_FIT_SWEEPS = 3
_INFEASIBLE_CYCLES = 10**12
#: Weight of the engine-filling deficit term in the SA energy.
_PARALLELISM_PENALTY = 1.0
#: Weight of the (1 - utilization) term in the per-layer fit distance,
#: relative to the cycle-balance target.
_UTIL_PENALTY = 0.75


def _best_on_axis(
    cycles: tuple[int, ...],
    utils: tuple[float, ...],
    target: float,
    penalty: float,
    best_gap: float,
) -> tuple[int, float]:
    """First ladder index with the lowest score, if it beats ``best_gap``.

    A candidate's score is ``|cycles - target| + penalty * (1 - util)``.
    Accepting strict improvements in ladder order lands on the first
    index attaining the minimum (``np.argmin``'s rule), and a candidate
    equal to the incumbent's score never passes.  Returns ``(-1,
    best_gap)`` when nothing improves.  Ladders hold about a dozen values
    (13 on ResNet-50, 22 at the 4096 coefficient cap), so this scalar scan
    beats NumPy's per-call overhead.
    """
    j = -1
    for i, c in enumerate(cycles):
        gap = abs(c - target) + penalty * (1.0 - utils[i])
        if gap < best_gap:
            best_gap = gap
            j = i
    return j, best_gap


def _ladder(bound: int) -> tuple[int, ...]:
    """Geometric candidate values 1..bound (ratio ~1.5, bound included)."""
    values = []
    v = 1
    while v < bound:
        values.append(v)
        v = max(v + 1, int(v * 1.5))
    values.append(bound)
    return tuple(dict.fromkeys(values))


def derive_vector_tiling(
    graph: Graph, compute_tiling: dict[int, TileSize]
) -> dict[int, TileSize]:
    """Extend a compute-layer tiling to vector-unit layers, grid-aligned.

    Each vector layer (Pool, Add, Concat, GlobalPool, ...) copies the tile
    *grid resolution* of its first already-tiled producer: its output is cut
    into the same number of row/column/channel tiles, making most atom
    dependencies one-to-one and avoiding synchronization barriers at cheap
    layers.  Layers without a tiled producer (e.g. fed by the input) get a
    single whole-output tile.

    Returns:
        A new mapping covering every non-input layer.
    """
    tiling = dict(compute_tiling)
    for node in graph.nodes:
        if isinstance(node.op, Input) or node.node_id in tiling:
            continue
        shape = node.output_shape
        producer_grid = None
        for src in node.inputs:
            if src in tiling:
                src_shape = graph.node(src).output_shape
                producer_grid = grid_for(
                    src_shape, tiling[src], in_channels=1
                )
                break
        in_shapes = graph.input_shapes(node.node_id)
        ci = in_shapes[0].channels if in_shapes else 1
        if producer_grid is None:
            tiling[node.node_id] = TileSize(shape.height, shape.width, ci, shape.channels)
            continue
        tiling[node.node_id] = TileSize(
            h=max(1, ceil_div(shape.height, producer_grid.tiles_h)),
            w=max(1, ceil_div(shape.width, producer_grid.tiles_w)),
            ci=max(ci, 1),
            co=max(1, ceil_div(shape.channels, producer_grid.tiles_c)),
        )
    return tiling


def uniform_tiling(
    graph: Graph, tile: TileSize
) -> dict[int, TileSize]:
    """A trivial tiling giving every layer the same (clamped) tile.

    Useful as a baseline and in tests; clamping happens at grid build.
    """
    return {
        n.node_id: tile for n in graph.nodes if not isinstance(n.op, Input)
    }


def layer_sequential_tiling(
    graph: Graph, num_engines: int
) -> dict[int, TileSize]:
    """The LS baseline's tiling: split each layer evenly across all engines.

    Mirrors Sec. II-B's strawman — each layer is partitioned along its
    largest dimensions into exactly ``num_engines`` near-equal sub-tasks,
    with no regard for PE-array divisibility (the source of the mismatch
    the paper measures in Fig. 2).
    """
    tiling: dict[int, TileSize] = {}
    for node in graph.nodes:
        if isinstance(node.op, Input):
            continue
        shape = node.output_shape
        in_shapes = graph.input_shapes(node.node_id)
        ci = in_shapes[0].channels if in_shapes else 1
        # Factor num_engines into a (gh, gw, gc) grid biased to spatial dims.
        gh, gw, gc = _split_grid(shape, num_engines)
        tiling[node.node_id] = TileSize(
            h=max(1, ceil_div(shape.height, gh)),
            w=max(1, ceil_div(shape.width, gw)),
            ci=max(ci, 1),
            co=max(1, ceil_div(shape.channels, gc)),
        )
    return tiling


def _split_grid(shape: TensorShape, parts: int) -> tuple[int, int, int]:
    """Split ``parts`` ways across (H, W, C), spatial dimensions first.

    This is the partitioning direction order of the LS strawman (following
    TETRIS-style fmap partitioning): halve H, then W, alternating, and only
    fall back to channels once the spatial extents are exhausted — blind to
    the engine's array dimensions, which is precisely the mismatch source
    the paper measures in Fig. 2.
    """
    gh = gw = gc = 1
    remaining = parts
    h, w, c = shape.height, shape.width, shape.channels
    while remaining > 1:
        if h >= w and h > 1:
            gh *= 2
            h = (h + 1) // 2
        elif w > 1:
            gw *= 2
            w = (w + 1) // 2
        elif c > 1:
            gc *= 2
            c = (c + 1) // 2
        else:
            break
        remaining = (remaining + 1) // 2
    return gh, gw, gc
