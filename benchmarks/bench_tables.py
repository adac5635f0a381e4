"""Tables 1-4 of the paper.

These tables are descriptive rather than measured: Table 1 classifies prior
systems by the coherence modes they support, Table 2 maps the accelerators
to benchmark suites, Table 3 defines the RL state space, and Table 4 lists
the parameters of the evaluation SoCs.  The benchmark prints the library's
reproduction of each to ``benchmarks/results/tables_1_to_4.txt``.
"""

from __future__ import annotations

from repro.accelerators.catalog import BENCHMARK_SUITE_COVERAGE, mode_support_matrix
from repro.accelerators.library import accelerator_names
from repro.core.state import LEVELS_PER_ATTRIBUTE, NUM_ATTRIBUTES, NUM_STATES
from repro.soc.coherence import COHERENCE_MODES
from repro.soc.config import soc_preset
from repro.utils.tables import format_table


def _table1() -> str:
    matrix = mode_support_matrix()
    headers = ["system"] + [mode.label for mode in COHERENCE_MODES]
    rows = [
        [system] + ["x" if support[mode.label] else "" for mode in COHERENCE_MODES]
        for system, support in sorted(matrix.items())
    ]
    return format_table(headers, rows, title="Table 1 - coherence modes in prior systems")


def _table2() -> str:
    headers = ["suite"] + accelerator_names()
    rows = []
    for suite, covered in sorted(BENCHMARK_SUITE_COVERAGE.items()):
        rows.append([suite] + ["x" if name in covered else "" for name in accelerator_names()])
    return format_table(headers, rows, title="Table 2 - benchmark-suite coverage")


def _table3() -> str:
    rows = [
        ["Fully coh acc", "active fully-coherent accelerators", "0 / 1 / 2+"],
        ["Non coh acc per tile", "non-coherent accelerators per target partition", "0 / 1 / 2+"],
        ["To LLC per tile", "accelerators accessing each target LLC partition", "0 / 1 / 2+"],
        ["Tile footprint", "utilisation of the target cache partitions", "<=L2 / <=LLC slice / >LLC slice"],
        ["Acc footprint", "footprint of the target invocation", "<=L2 / <=LLC slice / >LLC slice"],
        ["(total states)", f"{LEVELS_PER_ATTRIBUTE}^{NUM_ATTRIBUTES}", str(NUM_STATES)],
    ]
    return format_table(["attribute", "description", "values"], rows, title="Table 3 - RL state space")


def _table4() -> str:
    headers = ["parameter"] + [f"SoC{i}" for i in range(7)]
    configs = [soc_preset(f"SoC{i}").describe() for i in range(7)]
    fields = [
        ("Accelerators", "accelerators"),
        ("NoC size", "noc"),
        ("CPUs", "cpus"),
        ("DDRs", "ddrs"),
        ("LLC part. (KB)", "llc_partition_kb"),
        ("Total LLC (KB)", "total_llc_kb"),
        ("L2 cache (KB)", "l2_kb"),
    ]
    rows = [[label] + [config[key] for config in configs] for label, key in fields]
    return format_table(headers, rows, title="Table 4 - parameters of the evaluation SoCs")


def test_tables(emit):
    text = "\n\n".join([_table1(), _table2(), _table3(), _table4()])
    emit("tables_1_to_4", text)
    assert "Table 1" in text and "Table 4" in text
