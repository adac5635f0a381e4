"""Plain-text reports for every experiment.

The benchmark harnesses print these reports so that ``bench_output.txt``
contains, for every figure and table of the paper, the same rows or series
the paper plots (normalised execution time and off-chip memory accesses per
configuration and policy).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.experiments.breakdown import BreakdownResult
from repro.experiments.isolation import IsolationMeasurement, normalize_isolation
from repro.experiments.overhead import OverheadMeasurement, overhead_table
from repro.experiments.parallel import ParallelMeasurement, normalize_parallel
from repro.experiments.phases import PhaseAnalysisResult
from repro.experiments.reward_dse import RewardDseResult
from repro.experiments.socs import SocComparisonResult
from repro.experiments.summary import HeadlineSummary
from repro.experiments.training import TrainingStudyResult
from repro.soc.coherence import COHERENCE_MODES
from repro.utils.tables import format_table

if TYPE_CHECKING:  # imported lazily to keep repro.models optional here
    from repro.models.transfer import TransferMatrix


def report_isolation(measurements: Sequence[IsolationMeasurement]) -> str:
    """Figure 2 report: per accelerator and size, normalised exec/mem per mode."""
    normalised = normalize_isolation(measurements)
    headers = ["accelerator", "size"]
    for mode in COHERENCE_MODES:
        headers.extend([f"{mode.label} time", f"{mode.label} mem"])
    rows: List[List[object]] = []
    for (accelerator, size), row in sorted(normalised.items()):
        cells: List[object] = [accelerator, size]
        for mode in COHERENCE_MODES:
            entry = row.get(mode.label, {"exec": float("nan"), "mem": float("nan")})
            cells.extend([entry["exec"], entry["mem"]])
        rows.append(cells)
    return format_table(headers, rows, title="Figure 2 — accelerators in isolation (normalised to non-coh-dma)")


def report_parallel(measurements: Sequence[ParallelMeasurement]) -> str:
    """Figure 3 report: normalised exec/mem per mode and concurrency level."""
    table = normalize_parallel(measurements)
    headers = ["active accelerators"]
    for mode in COHERENCE_MODES:
        headers.extend([f"{mode.label} time", f"{mode.label} mem"])
    rows: List[List[object]] = []
    for count in sorted(table):
        cells: List[object] = [count]
        for mode in COHERENCE_MODES:
            entry = table[count].get(mode.label, {"exec": float("nan"), "mem": float("nan")})
            cells.extend([entry["exec"], entry["mem"]])
        rows.append(cells)
    return format_table(
        headers, rows, title="Figure 3 — parallel accelerators (normalised to 1x non-coh-dma)"
    )


def report_phases(result: PhaseAnalysisResult) -> str:
    """Figure 5 report: per phase, normalised exec/mem per policy."""
    headers = ["phase", "policy", "norm exec time", "norm off-chip accesses"]
    rows: List[List[object]] = []
    for phase_name in result.phase_names:
        for policy_name, entry in result.table[phase_name].items():
            rows.append([phase_name, policy_name, entry["exec"], entry["mem"]])
    return format_table(
        headers, rows, title=f"Figure 5 — phase analysis on {result.setup_name}"
    )


def report_reward_dse(result: RewardDseResult) -> str:
    """Figure 6 report: the scatter points of the reward-function DSE."""
    headers = ["policy / reward weights", "norm exec time", "norm off-chip accesses"]
    rows = [
        [point.label, point.norm_exec, point.norm_mem]
        for point in sorted(result.points, key=lambda p: (not p.is_cohmeleon, p.label))
    ]
    return format_table(
        headers, rows, title=f"Figure 6 — reward-function DSE on {result.setup_name}"
    )


def report_breakdown(result: BreakdownResult) -> str:
    """Figure 7 report: selection frequency of each mode per policy and size."""
    headers = ["policy", "workload size"] + [mode.label for mode in COHERENCE_MODES]
    rows: List[List[object]] = []
    for policy_name, breakdown in result.breakdowns.items():
        for category, frequencies in breakdown.frequencies.items():
            rows.append(
                [policy_name, category]
                + [100.0 * frequencies.get(mode.label, 0.0) for mode in COHERENCE_MODES]
            )
    return format_table(
        headers,
        rows,
        title="Figure 7 — coherence-mode selection frequency (%)",
    )


def report_training(result: TrainingStudyResult) -> str:
    """Figure 8 report: per-iteration normalised performance per budget."""
    headers = ["total iterations", "iteration", "norm exec time", "norm off-chip accesses"]
    rows: List[List[object]] = []
    for budget, curve in sorted(result.curves.items()):
        for point in curve.points:
            rows.append([budget, point.iteration, point.norm_exec, point.norm_mem])
    return format_table(
        headers, rows, title=f"Figure 8 — performance over training iterations ({result.setup_name})"
    )


def report_socs(result: SocComparisonResult) -> str:
    """Figure 9 report: per SoC, normalised exec/mem per policy."""
    headers = ["SoC", "policy", "norm exec time", "norm off-chip accesses"]
    rows = [
        [point.soc_label, point.policy_name, point.norm_exec, point.norm_mem]
        for point in result.points
    ]
    return format_table(headers, rows, title="Figure 9 — additional SoC configurations")


def report_headline(summary: HeadlineSummary) -> str:
    """Section 6 headline report (paper: 38% speedup, 66% fewer accesses)."""
    rows = [
        ["average speedup vs fixed policies (%)", summary.speedup_vs_fixed * 100.0],
        ["average off-chip access reduction vs fixed policies (%)", summary.mem_reduction_vs_fixed * 100.0],
        ["execution time vs manual heuristic (ratio)", summary.exec_vs_manual],
        ["off-chip accesses vs manual heuristic (ratio)", summary.mem_vs_manual],
    ]
    per_soc = [
        [f"speedup on {soc} (%)", value * 100.0]
        for soc, value in sorted(summary.per_soc_speedup.items())
    ]
    return format_table(
        ["metric", "value"], rows + per_soc, title="Section 6 — headline summary"
    )


def report_overhead(measurements: Sequence[OverheadMeasurement]) -> str:
    """Overhead report: Cohmeleon runtime overhead per workload footprint."""
    table = overhead_table(measurements)
    rows = [[label, value] for label, value in table.items()]
    return format_table(
        ["workload footprint", "overhead (% of execution time)"],
        rows,
        title="Section 6 — Cohmeleon runtime overhead",
    )


def report_transfer_matrix(matrix: "TransferMatrix") -> str:
    """Robustness/transfer report: models x scenarios, normalised per column.

    One row per (model, scenario) cell with execution time and off-chip
    accesses normalised to the reference policy run on the same scenario;
    the last column marks transfer cells (model evaluated off its
    training scenario) versus native ones.
    """
    rows: List[List[object]] = []
    for cell in matrix.cells:
        rows.append(
            [
                cell.model,
                cell.scenario,
                f"{cell.norm_exec:.3f}",
                f"{cell.norm_mem:.3f}",
                cell.digest[:12],
                "transfer" if cell.transfer else "native",
            ]
        )
    return format_table(
        ["model", "scenario", "norm exec", "norm mem", "cell digest", "kind"],
        rows,
        title=(
            f"Transfer matrix — {len(matrix.models)} models x "
            f"{len(matrix.scenarios)} scenarios "
            f"(normalised to {matrix.reference_policy})"
        ),
    )
