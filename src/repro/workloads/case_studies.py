"""Case-study SoCs and their domain-specific applications (paper Section 5).

* **SoC4** integrates one instance of each of the accelerators of Table 2
  and runs a mixed multi-application workload.
* **SoC5** targets collaborative autonomous vehicles: two FFT and two
  Viterbi accelerators for V2V encoding/decoding plus two Conv-2D and two
  GEMM accelerators for CNN inference.
* **SoC6** targets computer vision: three instances of an image
  classification pipeline composed of night-vision, autoencoder and MLP.

Each case study provides the accelerator set to bind to the SoC preset and
an application whose threads invoke accelerator pipelines appropriate for
the domain (e.g. night-vision → autoencoder → MLP to undarken, denoise and
classify images).
"""

from __future__ import annotations

from typing import List

from repro.accelerators.descriptor import AcceleratorDescriptor
from repro.accelerators.library import accelerator_by_name
from repro.errors import ConfigurationError
from repro.soc.config import SoCConfig, soc_preset
from repro.utils.rng import SeededRNG
from repro.workloads.sizes import WorkloadSizeClass, footprint_for_class
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec


def soc4_accelerators() -> List[AcceleratorDescriptor]:
    """One instance of each of the 11 ESP accelerators (mixed case study)."""
    names = [
        "Autoencoder",
        "Cholesky",
        "Conv-2D",
        "FFT",
        "GEMM",
        "MLP",
        "MRI-Q",
        "Night-vision",
        "Sort",
        "SPMV",
        "Viterbi",
    ]
    return [accelerator_by_name(name) for name in names]


def soc5_accelerators() -> List[AcceleratorDescriptor]:
    """2x FFT, 2x Viterbi, 2x Conv-2D, 2x GEMM (autonomous-vehicles case study)."""
    names = ["FFT", "FFT", "Viterbi", "Viterbi", "Conv-2D", "Conv-2D", "GEMM", "GEMM"]
    return [accelerator_by_name(name) for name in names]


def soc6_accelerators() -> List[AcceleratorDescriptor]:
    """3x (night-vision, autoencoder, MLP) — the image-classification pipelines."""
    names = ["Night-vision", "Autoencoder", "MLP"] * 3
    return [accelerator_by_name(name) for name in names]


def case_study_accelerators(soc_name: str) -> List[AcceleratorDescriptor]:
    """Accelerator set for a case-study SoC preset name."""
    mapping = {
        "SoC4": soc4_accelerators,
        "SoC5": soc5_accelerators,
        "SoC6": soc6_accelerators,
    }
    try:
        return mapping[soc_name]()
    except KeyError:
        raise ConfigurationError(
            f"{soc_name!r} is not a case-study SoC (expected SoC4, SoC5, or SoC6)"
        ) from None


# ----------------------------------------------------------------------
# Applications
# ----------------------------------------------------------------------

def _sized_footprints(
    config: SoCConfig, classes: List[WorkloadSizeClass], seed: int
) -> List[int]:
    rng = SeededRNG(seed).spawn("case-study-footprints", config.name)
    return [footprint_for_class(size_class, config, rng=rng) for size_class in classes]


def soc4_application(instance: int = 0) -> ApplicationSpec:
    """Mixed multi-application workload for SoC4."""
    config = soc_preset("SoC4")
    sizes = [
        WorkloadSizeClass.SMALL,
        WorkloadSizeClass.MEDIUM,
        WorkloadSizeClass.LARGE,
        WorkloadSizeClass.MEDIUM,
        WorkloadSizeClass.EXTRA_LARGE,
        WorkloadSizeClass.SMALL,
    ]
    footprints = _sized_footprints(config, sizes, seed=instance)
    chains = [
        ("Conv-2D", "GEMM", "MLP"),
        ("FFT", "Viterbi"),
        ("Sort", "SPMV"),
        ("Night-vision", "Autoencoder", "MLP"),
        ("Cholesky", "GEMM"),
        ("MRI-Q",),
    ]
    phase_a = PhaseSpec(
        name="mixed-light",
        threads=tuple(
            ThreadSpec(
                thread_id=f"a{i}",
                accelerator_chain=chains[i],
                footprint_bytes=footprints[i],
                loop_count=2,
                cpu_index=i % config.num_cpus,
            )
            for i in range(3)
        ),
    )
    phase_b = PhaseSpec(
        name="mixed-heavy",
        threads=tuple(
            ThreadSpec(
                thread_id=f"b{i}",
                accelerator_chain=chains[i],
                footprint_bytes=footprints[i],
                loop_count=2,
                cpu_index=i % config.num_cpus,
            )
            for i in range(len(chains))
        ),
    )
    return ApplicationSpec(
        name=f"soc4-mixed-{instance}", phases=(phase_a, phase_b), metadata={"soc": "SoC4"}
    )


def soc5_application(instance: int = 0) -> ApplicationSpec:
    """Collaborative-autonomous-vehicles workload for SoC5.

    V2V communication threads run FFT → Viterbi pipelines (decode) while
    perception threads run Conv-2D → GEMM pipelines (CNN inference); the
    workload is parallelised over the duplicated accelerators.
    """
    config = soc_preset("SoC5")
    sizes = [
        WorkloadSizeClass.MEDIUM,
        WorkloadSizeClass.MEDIUM,
        WorkloadSizeClass.LARGE,
        WorkloadSizeClass.LARGE,
        WorkloadSizeClass.SMALL,
        WorkloadSizeClass.EXTRA_LARGE,
    ]
    footprints = _sized_footprints(config, sizes, seed=instance)
    v2v_phase = PhaseSpec(
        name="v2v-communication",
        threads=tuple(
            ThreadSpec(
                thread_id=f"v2v{i}",
                accelerator_chain=("FFT", "Viterbi"),
                footprint_bytes=footprints[i],
                loop_count=3,
                cpu_index=0,
            )
            for i in range(2)
        ),
    )
    perception_phase = PhaseSpec(
        name="cnn-inference",
        threads=tuple(
            ThreadSpec(
                thread_id=f"cnn{i}",
                accelerator_chain=("Conv-2D", "GEMM"),
                footprint_bytes=footprints[2 + i],
                loop_count=3,
                cpu_index=0,
            )
            for i in range(2)
        ),
    )
    fused_phase = PhaseSpec(
        name="map-fusion",
        threads=(
            ThreadSpec(
                thread_id="fusion0",
                accelerator_chain=("FFT", "Viterbi", "Conv-2D", "GEMM"),
                footprint_bytes=footprints[4],
                loop_count=2,
                cpu_index=0,
            ),
            ThreadSpec(
                thread_id="fusion1",
                accelerator_chain=("Conv-2D", "GEMM"),
                footprint_bytes=footprints[5],
                loop_count=2,
                cpu_index=0,
            ),
        ),
    )
    return ApplicationSpec(
        name=f"soc5-autonomous-{instance}",
        phases=(v2v_phase, perception_phase, fused_phase),
        metadata={"soc": "SoC5"},
    )


def soc6_application(instance: int = 0) -> ApplicationSpec:
    """Computer-vision workload for SoC6: three parallel classification pipelines."""
    config = soc_preset("SoC6")
    sizes = [
        WorkloadSizeClass.SMALL,
        WorkloadSizeClass.MEDIUM,
        WorkloadSizeClass.LARGE,
        WorkloadSizeClass.MEDIUM,
        WorkloadSizeClass.MEDIUM,
        WorkloadSizeClass.SMALL,
    ]
    footprints = _sized_footprints(config, sizes, seed=instance)
    pipeline = ("Night-vision", "Autoencoder", "MLP")
    batch_phase = PhaseSpec(
        name="image-batch",
        threads=tuple(
            ThreadSpec(
                thread_id=f"img{i}",
                accelerator_chain=pipeline,
                footprint_bytes=footprints[i],
                loop_count=3,
                cpu_index=0,
            )
            for i in range(3)
        ),
    )
    stream_phase = PhaseSpec(
        name="video-stream",
        threads=tuple(
            ThreadSpec(
                thread_id=f"vid{i}",
                accelerator_chain=pipeline,
                footprint_bytes=footprints[3 + i],
                loop_count=2,
                cpu_index=0,
            )
            for i in range(3)
        ),
    )
    return ApplicationSpec(
        name=f"soc6-vision-{instance}",
        phases=(batch_phase, stream_phase),
        metadata={"soc": "SoC6"},
    )


def case_study_application(soc_name: str, instance: int = 0) -> ApplicationSpec:
    """Application for a case-study SoC preset name."""
    mapping = {
        "SoC4": soc4_application,
        "SoC5": soc5_application,
        "SoC6": soc6_application,
    }
    try:
        return mapping[soc_name](instance)
    except KeyError:
        raise ConfigurationError(
            f"{soc_name!r} is not a case-study SoC (expected SoC4, SoC5, or SoC6)"
        ) from None

