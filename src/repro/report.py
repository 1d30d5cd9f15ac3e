"""Human-readable reports of optimization solutions.

Renders Round schedules as per-engine occupancy timelines (a text Gantt
chart), summarizes utilization per layer, and formats strategy-comparison
tables — the inspection tools a compiler developer reaches for when a
mapping underperforms.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.atoms.dag import AtomicDAG
from repro.metrics import RunResult, SearchStats
from repro.pipeline import CandidateTrace
from repro.scheduling.rounds import Schedule


@dataclass(frozen=True)
class ScheduleSummary:
    """Aggregate statistics of one Round schedule.

    Attributes:
        num_rounds: Rounds in the schedule.
        num_atoms: Atoms scheduled.
        mean_occupancy: Average engines busy per Round / engine count.
        full_rounds: Rounds that used every engine.
        layers_per_round: Mean distinct (sample, layer) groups per Round —
            > 1 indicates graph-level mixing beyond layer-sequential order.
        samples_per_round: Mean distinct batch samples per Round.
    """

    num_rounds: int
    num_atoms: int
    mean_occupancy: float
    full_rounds: int
    layers_per_round: float
    samples_per_round: float


def summarize_schedule(
    dag: AtomicDAG, schedule: Schedule, num_engines: int
) -> ScheduleSummary:
    """Compute aggregate schedule statistics."""
    if not schedule.rounds:
        return ScheduleSummary(0, 0, 0.0, 0, 0.0, 0.0)
    total_slots = 0
    full = 0
    layer_groups = 0
    sample_groups = 0
    for rnd in schedule.rounds:
        total_slots += len(rnd)
        if len(rnd) == num_engines:
            full += 1
        layer_groups += len(
            {(dag.atoms[a].sample, dag.atoms[a].layer) for a in rnd.atom_indices}
        )
        sample_groups += len({dag.atoms[a].sample for a in rnd.atom_indices})
    n = schedule.num_rounds
    return ScheduleSummary(
        num_rounds=n,
        num_atoms=total_slots,
        mean_occupancy=total_slots / (n * num_engines),
        full_rounds=full,
        layers_per_round=layer_groups / n,
        samples_per_round=sample_groups / n,
    )


def render_gantt(
    dag: AtomicDAG,
    schedule: Schedule,
    placement: dict[int, int],
    num_engines: int,
    max_rounds: int = 24,
    cell_width: int = 7,
) -> str:
    """Render the schedule as an engines x Rounds occupancy chart.

    Each cell shows the atom id (``layer-index``) an engine runs that
    Round; ``.`` marks an idle engine.

    Args:
        dag: The atomic DAG.
        schedule: The Round schedule.
        placement: Atom -> engine mapping.
        num_engines: Total engines.
        max_rounds: Truncate the chart after this many Rounds.
        cell_width: Characters per cell.

    Returns:
        A multi-line string.
    """
    rounds = schedule.rounds[:max_rounds]
    lines = []
    header = "engine".ljust(8) + "".join(
        f"R{r.index}".ljust(cell_width) for r in rounds
    )
    lines.append(header)
    grid: dict[int, dict[int, str]] = defaultdict(dict)
    for rnd in rounds:
        for a in rnd.atom_indices:
            grid[placement[a]][rnd.index] = str(dag.atoms[a].atom_id)
    for e in range(num_engines):
        row = f"E{e}".ljust(8)
        for rnd in rounds:
            cell = grid[e].get(rnd.index, ".")
            row += cell[: cell_width - 1].ljust(cell_width)
        lines.append(row)
    if schedule.num_rounds > max_rounds:
        lines.append(f"... ({schedule.num_rounds - max_rounds} more rounds)")
    return "\n".join(lines)


def layer_utilization_table(dag: AtomicDAG, max_rows: int = 30) -> str:
    """Per-layer mean atom PE-utilization, worst layers first."""
    per_layer: dict[int, list[float]] = defaultdict(list)
    for i in range(dag.num_atoms):
        cost = dag.costs[i]
        if cost.uses_pe_array:
            per_layer[dag.atoms[i].layer].append(cost.pe_utilization)
    rows = sorted(
        (
            (sum(v) / len(v), layer, len(v))
            for layer, v in per_layer.items()
        ),
    )
    lines = [f"{'layer':<28}{'atoms':>6}  {'mean PE util':>12}"]
    for util, layer, count in rows[:max_rows]:
        name = dag.graph.node(layer).name
        lines.append(f"{name:<28}{count:>6}  {util:>12.1%}")
    if len(rows) > max_rows:
        lines.append(f"... ({len(rows) - max_rows} more layers)")
    return "\n".join(lines)


def round_composition(dag: AtomicDAG, schedule: Schedule, index: int) -> str:
    """Describe one Round: layers, samples, and atom counts."""
    rnd = schedule.rounds[index]
    per = Counter(
        (dag.atoms[a].sample, dag.graph.node(dag.atoms[a].layer).name)
        for a in rnd.atom_indices
    )
    parts = [
        f"s{sample}/{layer} x{count}" for (sample, layer), count in per.items()
    ]
    return f"Round {index} [{len(rnd)} engines]: " + ", ".join(parts)


def comparison_table(results: list[RunResult]) -> str:
    """Format a strategy comparison like the examples and benchmarks print.

    Args:
        results: Results of different strategies on the *same* workload.

    Returns:
        An aligned text table (strategy, latency, fps, util, reuse, energy).

    Raises:
        ValueError: When results mix workloads or the list is empty.
    """
    if not results:
        raise ValueError("no results to compare")
    workloads = {r.workload for r in results}
    if len(workloads) > 1:
        raise ValueError(f"results mix workloads: {sorted(workloads)}")
    header = (
        f"{'strategy':<10}{'latency ms':>12}{'fps':>10}{'PE util':>9}"
        f"{'reuse':>8}{'energy mJ':>11}"
    )
    lines = [f"workload: {results[0].workload}  batch: {results[0].batch}",
             header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.strategy:<10}{r.latency_ms:>12.3f}{r.throughput_fps:>10.1f}"
            f"{r.pe_utilization:>9.1%}{r.onchip_reuse_ratio:>8.1%}"
            f"{r.energy.total_mj:>11.2f}"
        )
    return "\n".join(lines)


def search_trace_table(
    traces: "list[CandidateTrace] | tuple[CandidateTrace, ...]",
    search_seconds: float | None = None,
) -> str:
    """Format per-candidate search traces as an aligned text table.

    One row per candidate — per-stage wall-seconds, cost-model cache hit
    rate, and the accept/reject verdict — plus a totals row aggregated via
    :class:`~repro.metrics.SearchStats`.  This is the per-candidate view
    of the "searching overheads" the paper discusses in Sec. V-B.

    Args:
        traces: Candidate traces, in candidate order.
        search_seconds: End-to-end search wall time for the footer (the
            per-stage sum exceeds it when the search ran with jobs > 1).

    Raises:
        ValueError: When ``traces`` is empty.
    """
    if not traces:
        raise ValueError("no candidate traces to report")
    header = (
        f"{'candidate':<12}{'fingerprint':<18}{'cycles':>12}"
        f"{'gen s':>8}{'dag s':>7}{'sched s':>9}{'map s':>7}{'sim s':>7}"
        f"{'cache':>7}{'try':>5}  verdict"
    )
    lines = [header, "-" * len(header)]
    for t in traces:
        cycles = f"{t.total_cycles}" if t.total_cycles is not None else "-"
        cache_total = t.cost_cache_hits + t.cost_cache_misses
        cache = (
            f"{t.cost_cache_hits / cache_total:.0%}" if cache_total else "-"
        )
        verdict = t.reason or ("accepted" if t.accepted else "rejected")
        if t.restored:
            verdict += " [restored]"
        lines.append(
            f"{t.label:<12}{t.fingerprint:<18}{cycles:>12}"
            f"{t.tiling_seconds:>8.2f}{t.dag_seconds:>7.2f}"
            f"{t.schedule_seconds:>9.2f}{t.mapping_seconds:>7.2f}"
            f"{t.sim_seconds:>7.2f}{cache:>7}{t.attempts:>5}  {verdict}"
        )
    stats = SearchStats.from_traces(
        traces, search_seconds=search_seconds or 0.0
    )
    lines.append("-" * len(header))
    summary = (
        f"{stats.evaluated}/{stats.candidates} evaluated "
        f"({stats.deduplicated} deduplicated), "
        f"cache hit rate {stats.cache_hit_rate:.0%}"
    )
    resilience = []
    if stats.failed:
        resilience.append(f"{stats.failed} failed")
    if stats.interrupted:
        resilience.append(f"{stats.interrupted} interrupted")
    if stats.restored:
        resilience.append(f"{stats.restored} restored from checkpoint")
    if stats.retry_attempts:
        resilience.append(f"{stats.retry_attempts} retries")
    if resilience:
        summary += ", " + ", ".join(resilience)
    if search_seconds is not None:
        summary += (
            f", {search_seconds:.2f} s wall"
            f" ({stats.candidates_per_second:.2f} candidates/s)"
        )
    lines.append(summary)
    return "\n".join(lines)
