"""Golden values for the invocation transfer path.

Every byte an invocation moves goes through the coherence-mode datapath.
These cases run one warm invocation on the ``tiny_config`` SoC for each
coherence mode, access pattern (streaming FFT, strided GEMM, irregular
SPMV), footprint and ``in_place`` setting, and pin what it costs and moves:
the accelerator and communication cycles, the transfer counters, and one
digest over the statistics of every bandwidth resource, DRAM controller and
cache.  The values are exact, so a faster transfer path must reproduce the
arithmetic, not approximate it.  The 1.5 MB buffer spans two big pages on
both memory tiles, so its windows also cross segment boundaries.  Resource
counters are opt-in, so the cases attach them to every resource, and one
test per mode checks that attaching them changes nothing else.  A last
test checks that the NoC link and route latency a plan resolves for each
memory tile charge exactly what :meth:`MeshNoC.transfer` charges.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.accelerators.library import accelerator_by_name
from repro.core.policies import FixedPolicy
from repro.runtime.api import EspRuntime
from repro.sim.resources import ResourceStats
from repro.soc.coherence import COHERENCE_MODES
from repro.soc.config import soc_preset
from repro.soc.soc import Soc
from repro.store.io import canonical_digest
from repro.units import KB

#: Streaming, strided and irregular access patterns.
ACCELERATORS = ("FFT", "GEMM", "SPMV")
FOOTPRINTS = (4 * KB, 96 * KB, 1536 * KB)

CASES = [
    (name, in_place, footprint, mode)
    for name in ACCELERATORS
    for in_place in (False, True)
    for footprint in FOOTPRINTS
    for mode in COHERENCE_MODES
]


def case_id(name, in_place, footprint, mode) -> str:
    layout = "in-place" if in_place else "split"
    return f"{name}/{layout}/{footprint // KB}K/{mode.label}"


def bandwidth_resources(soc: Soc) -> list:
    """Every NoC memory link, LLC port, DRAM channel and accelerator link."""
    resources = [soc.noc.memory_link(tile) for tile in range(soc.config.num_mem_tiles)]
    resources += [partition.port for partition in soc.llc_partitions]
    resources += [controller.channel for controller in soc.dram_controllers]
    return resources + list(soc.accelerator_links.values())


def memory_counters(soc: Soc) -> dict:
    """Every DRAM controller's and cache's statistics."""
    caches = [partition.cache for partition in soc.llc_partitions]
    caches += soc.cpu_l2_caches + list(soc.accelerator_private_caches.values())
    return {
        "dram": [controller.counters.as_dict() for controller in soc.dram_controllers],
        "caches": {cache.name: cache.stats.as_dict() for cache in caches},
    }


def state_digest(soc: Soc) -> str:
    """Digest of every resource's, DRAM controller's and cache's statistics."""
    resources = bandwidth_resources(soc)
    return canonical_digest(
        {
            "resources": {resource.name: resource.stats.as_dict() for resource in resources},
            **memory_counters(soc),
        }
    )[:16]


def run_case(config, name, in_place, footprint, mode, counters=True):
    """One warm invocation; returns (result, descriptor, SoC).

    With ``counters``, every bandwidth resource carries usage counters from
    the start, for :func:`state_digest`.
    """
    soc = Soc(config)
    if counters:
        for resource in bandwidth_resources(soc):
            resource.stats = ResourceStats()
    runtime = EspRuntime(soc, FixedPolicy(mode))
    descriptor = dataclasses.replace(accelerator_by_name(name), in_place=in_place)
    runtime.bind_accelerator(descriptor)
    buffer = soc.allocate_buffer(footprint)
    soc.warm_buffer(buffer)
    holder = {}

    def proc():
        holder["result"] = yield from runtime.invoke_by_name(name, buffer, footprint)

    soc.engine.spawn("case", proc())
    soc.engine.run()
    return holder["result"], descriptor, soc


#: The transfer counters of :meth:`TransferStats.as_dict`, in pinned order.
STATS_KEYS = (
    "bytes_moved",
    "dram_read_lines",
    "dram_write_lines",
    "llc_hits",
    "llc_misses",
    "private_hits",
    "private_misses",
    "recalls",
    "flush_writebacks",
    "flush_invalidations",
)

#: ``case_id -> (accelerator_cycles, comm_cycles, counters, state digest)``.
GOLDEN = {
    "FFT/split/4K/non-coh-dma": (
        2048.0,
        1040.0,
        (4096, 32, 32, 0, 0, 0, 0, 0, 128, 128),
        "311645bb9b1d1768",
    ),
    "FFT/split/4K/llc-coh-dma": (
        2048.0000000000005,
        1040.0,
        (4096, 0, 0, 64, 0, 0, 0, 0, 64, 64),
        "3490b3d43dd1ac6c",
    ),
    "FFT/split/4K/coh-dma": (
        2048.0,
        1552.0,
        (4096, 0, 0, 64, 0, 0, 0, 64, 0, 0),
        "c0bd2c9d47875e25",
    ),
    "FFT/split/4K/full-coh": (
        2048.0,
        1280.0,
        (4096, 0, 0, 64, 0, 0, 64, 0, 0, 0),
        "18863ddf5fa4b0ad",
    ),
    "FFT/split/96K/non-coh-dma": (
        49152.0,
        24960.0,
        (98304, 768, 768, 0, 0, 0, 0, 0, 1792, 1792),
        "fe54a3f6b7ca9c3a",
    ),
    "FFT/split/96K/llc-coh-dma": (
        49151.99999999999,
        24960.0,
        (98304, 0, 0, 1536, 0, 0, 0, 0, 256, 256),
        "11b9693dd1f60a43",
    ),
    "FFT/split/96K/coh-dma": (
        49152.0,
        27008.0,
        (98304, 0, 0, 1536, 0, 0, 0, 256, 0, 0),
        "d8d4afd96ffa86a3",
    ),
    "FFT/split/96K/full-coh": (
        49152.0,
        40960.0,
        (98304, 0, 0, 1536, 0, 0, 1536, 0, 0, 0),
        "b1f003d4dfca7a7e",
    ),
    "FFT/split/1536K/non-coh-dma": (
        792568.0,
        792568.0,
        (3145728, 36864, 12288, 0, 0, 0, 0, 0, 4352, 4352),
        "5e77df58e19ed89d",
    ),
    "FFT/split/1536K/llc-coh-dma": (
        1222648.0,
        1222648.0,
        (3145728, 36864, 14080, 256, 48896, 0, 0, 0, 256, 256),
        "893db3204fd5bc98",
    ),
    "FFT/split/1536K/coh-dma": (
        1224696.0,
        1224696.0,
        (3145728, 36864, 14336, 0, 49152, 0, 0, 256, 0, 0),
        "ff079cf4f5618986",
    ),
    "FFT/split/1536K/full-coh": (
        1555466.6666666667,
        1555466.6666666667,
        (3145728, 49152, 15744, 0, 49152, 0, 49152, 0, 0, 0),
        "0bbc81c7579c9fe8",
    ),
    "FFT/in-place/4K/non-coh-dma": (
        2080.0,
        2080.0,
        (8192, 64, 64, 0, 0, 0, 0, 0, 128, 128),
        "909ca8d605d65f43",
    ),
    "FFT/in-place/4K/llc-coh-dma": (
        2080.0000000000005,
        2080.0000000000005,
        (8192, 0, 0, 128, 0, 0, 0, 0, 64, 64),
        "2dc1697bb45a6b6d",
    ),
    "FFT/in-place/4K/coh-dma": (
        2592.0,
        2592.0,
        (8192, 0, 0, 128, 0, 0, 0, 64, 0, 0),
        "24604b22bbcaf612",
    ),
    "FFT/in-place/4K/full-coh": (
        2048.0,
        1544.0,
        (8192, 0, 0, 64, 0, 64, 64, 0, 0, 0),
        "22317cff88862330",
    ),
    "FFT/in-place/96K/non-coh-dma": (
        99840.0,
        99840.0,
        (393216, 4608, 1536, 0, 0, 0, 0, 0, 1792, 1792),
        "805de050d29e36fe",
    ),
    "FFT/in-place/96K/llc-coh-dma": (
        99840.0,
        99840.0,
        (393216, 0, 0, 6144, 0, 0, 0, 0, 256, 256),
        "84b81ac43b6cc839",
    ),
    "FFT/in-place/96K/coh-dma": (
        101888.0,
        101888.0,
        (393216, 0, 0, 6144, 0, 0, 0, 256, 0, 0),
        "62362e246587de85",
    ),
    "FFT/in-place/96K/full-coh": (
        139236.0,
        139048.0,
        (393216, 0, 0, 5744, 0, 400, 5744, 0, 0, 0),
        "587d4dd1b3462803",
    ),
    "FFT/in-place/1536K/non-coh-dma": (
        1585048.0,
        1585048.0,
        (6291456, 73728, 24576, 0, 0, 0, 0, 0, 4352, 4352),
        "56f8d6e12877e8ec",
    ),
    "FFT/in-place/1536K/llc-coh-dma": (
        2406335.9999999995,
        2406335.9999999995,
        (6291456, 71936, 27712, 3456, 94848, 0, 0, 0, 256, 256),
        "938a01f27e689652",
    ),
    "FFT/in-place/1536K/coh-dma": (
        2403903.9999999995,
        2403903.9999999995,
        (6291456, 71936, 27968, 3456, 94848, 0, 0, 256, 0, 0),
        "0dbc79b689bc60fa",
    ),
    "FFT/in-place/1536K/full-coh": (
        3061529.333333333,
        3061529.333333333,
        (6291456, 94848, 26944, 3072, 94848, 384, 97920, 0, 0, 0),
        "55175a9616eda100",
    ),
    "GEMM/split/4K/non-coh-dma": (
        10240.0,
        1834.6666666666674,
        (4096, 48, 16, 0, 0, 0, 0, 0, 128, 128),
        "f05af46c1a7de446",
    ),
    "GEMM/split/4K/llc-coh-dma": (
        10240.0,
        1088.0,
        (4096, 0, 0, 64, 0, 0, 0, 0, 64, 64),
        "ba1e27277e0dcfb9",
    ),
    "GEMM/split/4K/coh-dma": (
        10240.0,
        1600.0,
        (4096, 0, 0, 64, 0, 0, 0, 64, 0, 0),
        "5ff661dd0665a491",
    ),
    "GEMM/split/4K/full-coh": (
        10240.0,
        1280.0,
        (4096, 0, 0, 64, 0, 0, 64, 0, 0, 0),
        "ef14535ae4a41da2",
    ),
    "GEMM/split/96K/non-coh-dma": (
        245760.0,
        44032.0,
        (98304, 1152, 384, 0, 0, 0, 0, 0, 1792, 1792),
        "41b13ecc6cabbea6",
    ),
    "GEMM/split/96K/llc-coh-dma": (
        245759.99999999997,
        26112.0,
        (98304, 0, 0, 1536, 0, 0, 0, 0, 256, 256),
        "3c2ff8011bd1dacc",
    ),
    "GEMM/split/96K/coh-dma": (
        245760.0,
        28160.0,
        (98304, 0, 0, 1536, 0, 0, 0, 256, 0, 0),
        "042d9a57ab76b0de",
    ),
    "GEMM/split/96K/full-coh": (
        245760.0,
        35840.0,
        (98304, 0, 0, 1536, 0, 0, 1536, 0, 0, 0),
        "2284918f64d38c37",
    ),
    "GEMM/split/1536K/non-coh-dma": (
        3932160.0,
        1317376.0,
        (5111808, 73728, 6144, 0, 0, 0, 0, 0, 4352, 4352),
        "d31f89b7f6e1d5fa",
    ),
    "GEMM/split/1536K/llc-coh-dma": (
        3932160.0,
        2150656.0,
        (5111808, 73472, 10048, 256, 79616, 0, 0, 0, 256, 256),
        "1dcbf5c6e55943fb",
    ),
    "GEMM/split/1536K/coh-dma": (
        3932160.0,
        2152704.0,
        (5111808, 73728, 10048, 0, 79872, 0, 0, 256, 0, 0),
        "2cca3e468acf5a5b",
    ),
    "GEMM/split/1536K/full-coh": (
        3932160.0,
        2501376.0,
        (5111808, 79872, 9856, 0, 79872, 0, 79872, 0, 0, 0),
        "e588565943fd030e",
    ),
    "GEMM/in-place/4K/non-coh-dma": (
        10240.0,
        3669.3333333333285,
        (8192, 64, 64, 0, 0, 0, 0, 0, 128, 128),
        "78329ca0f3bd97d2",
    ),
    "GEMM/in-place/4K/llc-coh-dma": (
        10240.0,
        2176.0,
        (8192, 0, 0, 128, 0, 0, 0, 0, 64, 64),
        "98047187f98aa624",
    ),
    "GEMM/in-place/4K/coh-dma": (
        10240.0,
        2688.0,
        (8192, 0, 0, 128, 0, 0, 0, 64, 0, 0),
        "7ff3ee16ec251efb",
    ),
    "GEMM/in-place/4K/full-coh": (
        10240.0,
        1568.0,
        (8192, 0, 0, 64, 0, 64, 64, 0, 0, 0),
        "9bda60849d0305bb",
    ),
    "GEMM/in-place/96K/non-coh-dma": (
        245760.0,
        61440.0,
        (196608, 1536, 1536, 0, 0, 0, 0, 0, 1792, 1792),
        "fc27f172919e63e8",
    ),
    "GEMM/in-place/96K/llc-coh-dma": (
        245759.99999999997,
        51200.0,
        (196608, 0, 0, 3072, 0, 0, 0, 0, 256, 256),
        "921bde7a769644ba",
    ),
    "GEMM/in-place/96K/coh-dma": (
        245760.0,
        53248.0,
        (196608, 0, 0, 3072, 0, 0, 0, 256, 0, 0),
        "357b6a0bb238fc89",
    ),
    "GEMM/in-place/96K/full-coh": (
        245760.0,
        57600.0,
        (196608, 0, 0, 1536, 0, 1536, 1536, 0, 0, 0),
        "470da297f11ba0b6",
    ),
    "GEMM/in-place/1536K/non-coh-dma": (
        3932160.0,
        2026976.0,
        (7864320, 98304, 24576, 0, 0, 0, 0, 0, 4352, 4352),
        "6bc834a520de588f",
    ),
    "GEMM/in-place/1536K/llc-coh-dma": (
        3932160.0,
        3111456.0000000005,
        (7864320, 96448, 28032, 3584, 119296, 0, 0, 0, 256, 256),
        "c65226e843800784",
    ),
    "GEMM/in-place/1536K/coh-dma": (
        3932160.0,
        3108298.666666667,
        (7864320, 96448, 28288, 3584, 119296, 0, 0, 256, 0, 0),
        "52303dc59632f401",
    ),
    "GEMM/in-place/1536K/full-coh": (
        3932160.0,
        3812247.3333333335,
        (7864320, 119040, 27136, 3456, 119040, 384, 122496, 0, 0, 0),
        "618c63b1ff9a42e9",
    ),
    "SPMV/split/4K/non-coh-dma": (
        8214.375,
        8214.375,
        (2457, 39, 39, 0, 0, 0, 0, 0, 128, 128),
        "12ec7ab35942c820",
    ),
    "SPMV/split/4K/llc-coh-dma": (
        1764.7500000000005,
        1764.7500000000005,
        (2457, 0, 0, 115, 0, 0, 0, 0, 64, 64),
        "65a50d86a645fabf",
    ),
    "SPMV/split/4K/coh-dma": (
        2179.125,
        2179.125,
        (2457, 0, 0, 115, 0, 0, 0, 39, 0, 0),
        "a009196f89d7d0e7",
    ),
    "SPMV/split/4K/full-coh": (
        1350.7384615384562,
        1253.1999999999953,
        (2457, 0, 0, 39, 0, 76, 39, 0, 0, 0),
        "a3fdc2741053a4fd",
    ),
    "SPMV/split/96K/non-coh-dma": (
        190999.62500000038,
        190999.62500000038,
        (106167, 1538, 256, 0, 0, 0, 0, 0, 1792, 1792),
        "e3f4071cf4d970ac",
    ),
    "SPMV/split/96K/llc-coh-dma": (
        33831.416666666686,
        33831.416666666686,
        (106167, 0, 0, 1910, 0, 0, 0, 0, 256, 256),
        "7e142848b329eedf",
    ),
    "SPMV/split/96K/coh-dma": (
        35395.0,
        35395.0,
        (106167, 0, 0, 1910, 0, 0, 0, 134, 0, 0),
        "a5fbe6c68d5995e0",
    ),
    "SPMV/split/96K/full-coh": (
        36155.733333333366,
        36155.733333333366,
        (106167, 0, 0, 1663, 0, 247, 1663, 0, 0, 0),
        "c3d7d0b71fae7ddd",
    ),
    "SPMV/split/1536K/non-coh-dma": (
        2853090.8333333326,
        2853090.8333333326,
        (1698692, 23681, 3072, 0, 0, 0, 0, 0, 4352, 4352),
        "5eb3f1556e3d3318",
    ),
    "SPMV/split/1536K/llc-coh-dma": (
        810217.7499999994,
        810217.7499999995,
        (1698692, 23595, 4998, 246, 26545, 0, 0, 0, 256, 256),
        "d99e475e6bc21bc5",
    ),
    "SPMV/split/1536K/coh-dma": (
        810217.7499999995,
        810217.7499999995,
        (1698692, 23595, 4998, 246, 26545, 0, 0, 0, 0, 0),
        "7ef2d55669204932",
    ),
    "SPMV/split/1536K/full-coh": (
        846866.6666666673,
        846866.6666666673,
        (1698692, 26545, 6746, 0, 26545, 246, 26545, 0, 0, 0),
        "77052c86c8d5c61e",
    ),
    "SPMV/in-place/4K/non-coh-dma": (
        16220.750000000004,
        16220.750000000004,
        (4914, 77, 77, 0, 0, 0, 0, 0, 128, 128),
        "81df2e1decf01438",
    ),
    "SPMV/in-place/4K/llc-coh-dma": (
        3489.5000000000095,
        3489.5000000000095,
        (4914, 0, 0, 226, 0, 0, 0, 0, 64, 64),
        "4843ed8bc08c3fa1",
    ),
    "SPMV/in-place/4K/coh-dma": (
        4006.25,
        4006.25,
        (4914, 0, 0, 226, 0, 0, 0, 39, 0, 0),
        "8f59f6706f2e6179",
    ),
    "SPMV/in-place/4K/full-coh": (
        2003.620779220766,
        1853.1999999999953,
        (4914, 0, 0, 39, 0, 187, 39, 0, 0, 0),
        "ff7bcf526495a6bb",
    ),
    "SPMV/in-place/96K/non-coh-dma": (
        313548.75,
        313548.75,
        (176946, 1920, 1024, 0, 0, 0, 0, 0, 1792, 1792),
        "dcac3a4205c619d9",
    ),
    "SPMV/in-place/96K/llc-coh-dma": (
        56012.49999999999,
        56012.5,
        (176946, 0, 0, 2970, 0, 0, 0, 0, 256, 256),
        "cbfb1cad04149fb6",
    ),
    "SPMV/in-place/96K/coh-dma": (
        56012.5,
        56012.5,
        (176946, 0, 0, 2970, 0, 0, 0, 0, 0, 0),
        "c9f548f11074dc01",
    ),
    "SPMV/in-place/96K/full-coh": (
        61203.60000000002,
        60862.0,
        (176946, 0, 0, 2382, 0, 588, 2382, 0, 0, 0),
        "fa688382a19ce423",
    ),
    "SPMV/in-place/1536K/non-coh-dma": (
        4737228.749999999,
        4737228.749999999,
        (2831154, 29568, 14848, 0, 0, 0, 0, 0, 4352, 4352),
        "be42507607c0fd7d",
    ),
    "SPMV/in-place/1536K/llc-coh-dma": (
        1215539.583333334,
        1215539.5833333337,
        (2831154, 28108, 15295, 2972, 41470, 0, 0, 0, 256, 256),
        "e4940a5e473d5772",
    ),
    "SPMV/in-place/1536K/coh-dma": (
        1215539.583333334,
        1215539.583333334,
        (2831154, 28108, 15295, 2972, 41470, 0, 0, 0, 0, 0),
        "fbbdaab1edc78d1b",
    ),
    "SPMV/in-place/1536K/full-coh": (
        1376553.3333333337,
        1376553.3333333337,
        (2831154, 41293, 15090, 2559, 41293, 590, 43852, 0, 0, 0),
        "d3b24e9e9afc0b1a",
    ),
}


@pytest.mark.parametrize(
    "name, in_place, footprint, mode", CASES, ids=[case_id(*case) for case in CASES]
)
def test_transfer_path_matches_golden(tiny_config, name, in_place, footprint, mode):
    result, descriptor, soc = run_case(tiny_config, name, in_place, footprint, mode)
    details = result.details
    # Every byte of the stream is moved exactly once: none skipped, none twice.
    assert details["bytes_moved"] == (
        descriptor.read_bytes(footprint) + descriptor.write_bytes(footprint)
    )
    observed = (
        result.accelerator_cycles,
        result.comm_cycles,
        tuple(details[key] for key in STATS_KEYS),
        state_digest(soc),
    )
    assert observed == GOLDEN[case_id(name, in_place, footprint, mode)]


@pytest.mark.parametrize("mode", COHERENCE_MODES, ids=lambda mode: mode.label)
def test_resource_counters_are_passive(tiny_config, mode):
    """Attached resource counters change no cycle, transfer, DRAM or cache counter."""
    observed = []
    for counters in (True, False):
        result, _descriptor, soc = run_case(
            tiny_config, "GEMM", False, 1536 * KB, mode, counters
        )
        stats = [resource.stats for resource in bandwidth_resources(soc)]
        if counters:
            # Requests queue in this case, so counters that moved a queue would show.
            assert sum(resource_stats.queue_cycles for resource_stats in stats) > 0
        else:
            assert stats == [None] * len(stats)
        observed.append(
            (result.accelerator_cycles, result.comm_cycles, result.details, memory_counters(soc))
        )
    assert observed[0] == observed[1]


@pytest.mark.parametrize("preset", ["SoC1", "SoC3"])
def test_planned_noc_routes_charge_what_noc_transfer_charges(preset):
    """The (link, latency) a plan resolves per memory tile charges like MeshNoC.transfer."""
    planned, routed = Soc(soc_preset(preset)), Soc(soc_preset(preset))
    links = {}
    for soc in (planned, routed):
        links[soc] = [soc.noc.memory_link(tile) for tile in range(soc.config.num_mem_tiles)]
        for link in links[soc]:
            link.stats = ResourceStats()
    for tile in planned.accelerator_tiles():
        paths = planned.datapath._memory_paths(tile.name)
        assert len(paths) == planned.config.num_mem_tiles
        for mem_tile, (_dram, _llc, _port, link, route) in enumerate(paths):
            name = routed.memory_tile_name(mem_tile)
            # Repeated start times queue on the shared link.
            for now, size in ((0.0, 64), (0.0, 1000), (37.5, 4096), (37.5, 96)):
                assert link.serve(now, size, route) == routed.noc.transfer(
                    now, tile.name, mem_tile, name, size
                )
    assert [link.stats.as_dict() for link in links[planned]] == [
        link.stats.as_dict() for link in links[routed]
    ]
