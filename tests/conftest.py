"""Shared fixtures for the test suite.

The fixtures build deliberately small SoCs and workloads so that the unit
and integration tests run quickly while still exercising the same code
paths as the full experiment harnesses.
"""

from __future__ import annotations

import pytest

from repro.accelerators.library import ACCELERATOR_LIBRARY, accelerator_by_name
from repro.core.policies import FixedPolicy
from repro.runtime.api import EspRuntime
from repro.soc.coherence import CoherenceMode
from repro.soc.config import SoCConfig, TimingConfig
from repro.soc.soc import Soc
from repro.units import KB, MB


@pytest.fixture(params=["reference"])
def reference_core(request):
    """Tag the requesting test ``[reference]``.

    The event engine and the Q-table each keep one implementation: the
    form that the retired ``reference`` core backend selected.  Their
    suites (``tests/test_engine.py``, ``tests/test_qlearning.py``) keep the
    test IDs that backend gave them through this one-value parameter.
    """
    return request.param


@pytest.fixture
def tiny_config() -> SoCConfig:
    """A small SoC used by most unit tests: 3 accelerators, 2 memory tiles."""
    return SoCConfig(
        name="TestSoC",
        num_accelerator_tiles=3,
        noc_rows=3,
        noc_cols=3,
        num_cpus=2,
        num_mem_tiles=2,
        llc_partition_bytes=128 * KB,
        l2_bytes=16 * KB,
        dram_partition_bytes=64 * MB,
    )


@pytest.fixture
def tiny_soc(tiny_config: SoCConfig) -> Soc:
    """A freshly built small SoC."""
    return Soc(tiny_config)


@pytest.fixture
def tiny_runtime(tiny_soc: Soc) -> EspRuntime:
    """Runtime bound to three library accelerators, fixed coherent-DMA policy."""
    runtime = EspRuntime(tiny_soc, FixedPolicy(CoherenceMode.COH_DMA))
    runtime.bind_library(
        [accelerator_by_name("FFT"), accelerator_by_name("GEMM"), accelerator_by_name("SPMV")]
    )
    return runtime


@pytest.fixture
def library_accelerators():
    """The full accelerator library."""
    return list(ACCELERATOR_LIBRARY)


@pytest.fixture
def default_timing() -> TimingConfig:
    """The default timing model."""
    return TimingConfig()
