"""Literature and benchmark-suite catalogues (paper Tables 1 and 2).

These tables are descriptive rather than executable: Table 1 classifies
prior work by the coherence modes it supports, and Table 2 records which
benchmark suites contain workloads similar to the accelerators used in the
evaluation.  They are reproduced here as data so that the documentation and
tests can reference them, and so that the library exposes the same
classification the paper contributes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Tuple

from repro.soc.coherence import CoherenceMode

#: Table 1 — coherence modes supported by prior systems.
LITERATURE_COHERENCE_MODES: Mapping[str, FrozenSet[CoherenceMode]] = {
    "Chen et al.": frozenset({CoherenceMode.NON_COH_DMA}),
    "Cota et al.": frozenset({CoherenceMode.NON_COH_DMA, CoherenceMode.LLC_COH_DMA}),
    "Fusion": frozenset({CoherenceMode.COH_DMA, CoherenceMode.FULL_COH}),
    "gem5-aladdin": frozenset(
        {CoherenceMode.NON_COH_DMA, CoherenceMode.COH_DMA, CoherenceMode.FULL_COH}
    ),
    "Spandex": frozenset({CoherenceMode.FULL_COH}),
    "ESP": frozenset(
        {CoherenceMode.NON_COH_DMA, CoherenceMode.LLC_COH_DMA, CoherenceMode.FULL_COH}
    ),
    "NVDLA": frozenset({CoherenceMode.NON_COH_DMA}),
    "Buffets": frozenset({CoherenceMode.NON_COH_DMA}),
    "Kurth et al.": frozenset({CoherenceMode.NON_COH_DMA}),
    "Cavalcante et al.": frozenset({CoherenceMode.COH_DMA}),
    "BiC": frozenset({CoherenceMode.LLC_COH_DMA}),
    "Cohesion": frozenset({CoherenceMode.FULL_COH}),
    "ARM ACE/ACE-Lite": frozenset(
        {CoherenceMode.NON_COH_DMA, CoherenceMode.COH_DMA, CoherenceMode.FULL_COH}
    ),
    "Xilinx Zynq": frozenset({CoherenceMode.NON_COH_DMA, CoherenceMode.COH_DMA}),
    "Power7+": frozenset({CoherenceMode.COH_DMA}),
    "Wirespeed": frozenset({CoherenceMode.COH_DMA}),
    "Arteris Ncore": frozenset({CoherenceMode.COH_DMA, CoherenceMode.FULL_COH}),
    "CAPI": frozenset({CoherenceMode.FULL_COH}),
    "OpenCAPI": frozenset({CoherenceMode.COH_DMA}),
    "CCIX": frozenset({CoherenceMode.COH_DMA, CoherenceMode.FULL_COH}),
    "Gen-Z": frozenset({CoherenceMode.NON_COH_DMA}),
    "CXL": frozenset({CoherenceMode.COH_DMA, CoherenceMode.FULL_COH}),
}

#: Table 2 — benchmark suites containing workloads similar to each accelerator.
BENCHMARK_SUITE_COVERAGE: Mapping[str, Tuple[str, ...]] = {
    "CortexSuite": ("Autoencoder", "MLP"),
    "ESP": (
        "Autoencoder",
        "Cholesky",
        "Conv-2D",
        "FFT",
        "GEMM",
        "MLP",
        "MRI-Q",
        "NVDLA",
        "Night-vision",
        "Sort",
        "SPMV",
        "Viterbi",
    ),
    "MachSuite": ("Cholesky", "FFT", "GEMM", "Sort", "SPMV"),
    "Parboil": ("FFT", "GEMM", "MRI-Q", "SPMV"),
    "PERFECT": ("Conv-2D", "FFT", "Night-vision", "Sort"),
    "S2CBench": ("Conv-2D", "FFT", "Sort", "Viterbi"),
}


def mode_support_matrix() -> Dict[str, Dict[str, bool]]:
    """Return Table 1 as a nested boolean matrix keyed by system and mode label."""
    matrix: Dict[str, Dict[str, bool]] = {}
    for system, modes in LITERATURE_COHERENCE_MODES.items():
        matrix[system] = {mode.label: (mode in modes) for mode in CoherenceMode}
    return matrix
