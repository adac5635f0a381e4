"""Unit tests for the runtime layer: status tracking, attribution, executor,
and the ESP-like invocation API."""

from __future__ import annotations

import pytest

from repro.accelerators.invocation import InvocationRequest
from repro.accelerators.library import accelerator_by_name
from repro.core.policies import FixedPolicy, ManualPolicy
from repro.errors import ConfigurationError
from repro.runtime.api import EspRuntime
from repro.runtime.attribution import attribute_ddr_accesses, combine_footprints
from repro.runtime.status import ActiveInvocation, SystemStatus
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.units import KB


class TestSystemStatus:
    def make_status(self):
        return SystemStatus(l2_bytes=32 * KB, llc_partition_bytes=256 * KB, num_mem_tiles=2)

    def make_invocation(self, tile="acc0", mode=CoherenceMode.COH_DMA, footprint=64 * KB):
        return ActiveInvocation(
            tile_name=tile,
            accelerator_name="FFT",
            mode=mode,
            footprint_bytes=footprint,
            footprint_per_tile={0: footprint},
            start_time=0.0,
        )

    def test_register_and_unregister(self):
        status = self.make_status()
        status.register(self.make_invocation())
        assert status.active_count() == 1
        status.unregister("acc0")
        assert status.active_count() == 0

    def test_unregister_unknown_returns_none(self):
        assert self.make_status().unregister("ghost") is None

    def test_snapshot_counts_modes(self):
        status = self.make_status()
        status.register(self.make_invocation("acc0", CoherenceMode.NON_COH_DMA))
        status.register(self.make_invocation("acc1", CoherenceMode.FULL_COH))
        snapshot = status.snapshot(32 * KB, {0: 32 * KB})
        assert snapshot.active_count(CoherenceMode.NON_COH_DMA) == 1
        assert snapshot.active_count(CoherenceMode.FULL_COH) == 1
        assert snapshot.active_accelerators == 2
        assert snapshot.non_coh_per_target_tile == 1.0
        assert snapshot.llc_users_per_target_tile == 1.0

    def test_snapshot_tile_footprint_includes_target(self):
        status = self.make_status()
        status.register(self.make_invocation("acc0", footprint=128 * KB))
        snapshot = status.snapshot(64 * KB, {0: 64 * KB})
        assert snapshot.tile_footprint_bytes == pytest.approx(192 * KB)

    def test_snapshot_ignores_other_tiles(self):
        status = self.make_status()
        invocation = self.make_invocation("acc0")
        invocation.footprint_per_tile = {1: 64 * KB}
        status.register(invocation)
        snapshot = status.snapshot(32 * KB, {0: 32 * KB})
        assert snapshot.llc_users_per_target_tile == 0.0

    def test_snapshot_platform_capacities(self):
        snapshot = self.make_status().snapshot(1, {0: 1})
        assert snapshot.l2_bytes == 32 * KB
        assert snapshot.llc_total_bytes == 512 * KB

    def test_footprint_per_tile_totals(self):
        status = self.make_status()
        status.register(self.make_invocation("acc0"))
        status.register(self.make_invocation("acc1"))
        totals = status.footprint_per_tile()
        assert totals[0] == 128 * KB

    def test_reset(self):
        status = self.make_status()
        status.register(self.make_invocation())
        status.reset()
        assert status.active_count() == 0


class TestAttribution:
    def test_sole_accelerator_gets_everything(self):
        attributed = attribute_ddr_accesses({0: 100}, {0: 64}, {0: 64})
        assert attributed == pytest.approx(100.0)

    def test_share_proportional_to_footprint(self):
        attributed = attribute_ddr_accesses({0: 100}, {0: 25}, {0: 100})
        assert attributed == pytest.approx(25.0)

    def test_multiple_controllers_sum(self):
        attributed = attribute_ddr_accesses(
            {0: 100, 1: 50}, {0: 50, 1: 50}, {0: 100, 1: 50}
        )
        assert attributed == pytest.approx(100.0)

    def test_zero_delta_and_foreign_tiles_ignored(self):
        assert attribute_ddr_accesses({0: 0, 1: 40}, {0: 64}, {0: 64}) == 0.0

    def test_combine_footprints(self):
        combined = combine_footprints({0: 10, 1: 5}, {0: 3})
        assert combined == {0: 13, 1: 5}


class TestBindings:
    def test_bind_and_lookup(self, tiny_runtime):
        bindings = tiny_runtime.bindings_for("FFT")
        assert bindings[0].tile_name == "acc0"
        assert "GEMM" in tiny_runtime.bound_accelerator_names()

    def test_bind_too_many_raises(self, tiny_runtime):
        with pytest.raises(ConfigurationError):
            tiny_runtime.bind_accelerator(accelerator_by_name("MLP"))

    def test_bind_same_tile_twice_raises(self, tiny_soc):
        runtime = EspRuntime(tiny_soc, FixedPolicy(CoherenceMode.COH_DMA))
        runtime.bind_accelerator(accelerator_by_name("FFT"), tile_index=0)
        with pytest.raises(ConfigurationError):
            runtime.bind_accelerator(accelerator_by_name("GEMM"), tile_index=0)

    def test_unknown_accelerator_raises(self, tiny_runtime):
        with pytest.raises(ConfigurationError):
            tiny_runtime.bindings_for("Quantum")

    def test_supported_modes_depend_on_private_cache(self, tiny_runtime):
        binding = tiny_runtime.bindings_for("FFT")[0]
        assert CoherenceMode.FULL_COH in binding.supported_modes
        binding.has_private_cache = False
        assert CoherenceMode.FULL_COH not in binding.supported_modes
        assert len(binding.supported_modes) == 3


class TestInvocation:
    def run_one(self, runtime, accelerator="FFT", footprint=8 * KB):
        soc = runtime.soc
        buffer = soc.allocate_buffer(footprint)
        soc.warm_buffer(buffer)
        holder = {}

        def proc():
            holder["result"] = yield from runtime.invoke_by_name(
                accelerator, buffer, footprint
            )

        soc.engine.spawn("test", proc())
        soc.engine.run()
        return holder["result"]

    def test_invocation_produces_result(self, tiny_runtime):
        result = self.run_one(tiny_runtime)
        assert result.total_cycles > 0
        assert result.accelerator_cycles > 0
        assert result.mode is CoherenceMode.COH_DMA
        assert result.accelerator_name == "FFT"

    def test_invocation_records_policy_overhead(self, tiny_runtime):
        result = self.run_one(tiny_runtime)
        assert result.policy_overhead_cycles == FixedPolicy.overhead_cycles

    def test_total_includes_driver_overhead(self, tiny_runtime):
        result = self.run_one(tiny_runtime)
        assert result.total_cycles >= tiny_runtime.soc.config.timing.driver_base_cycles

    def test_status_cleared_after_completion(self, tiny_runtime):
        self.run_one(tiny_runtime)
        assert tiny_runtime.status.active_count() == 0

    def test_two_threads_share_one_tile_serially(self, tiny_soc):
        runtime = EspRuntime(tiny_soc, FixedPolicy(CoherenceMode.NON_COH_DMA))
        runtime.bind_library([accelerator_by_name("FFT")])
        buffer = tiny_soc.allocate_buffer(8 * KB)
        results = []

        def proc(tag):
            result = yield from runtime.invoke_by_name("FFT", buffer, 8 * KB, thread_id=tag)
            results.append(result)

        tiny_soc.engine.spawn("t0", proc("t0"))
        tiny_soc.engine.spawn("t1", proc("t1"))
        tiny_soc.engine.run()
        assert len(results) == 2
        first, second = sorted(results, key=lambda r: r.start_time)
        # The second invocation cannot start before the first finishes since
        # both need the only FFT tile.
        assert second.start_time >= first.finish_time - 1e-6

    def test_invoke_unbound_tile_raises(self, tiny_soc):
        runtime = EspRuntime(tiny_soc, FixedPolicy(CoherenceMode.COH_DMA))
        buffer = tiny_soc.allocate_buffer(4 * KB)
        request = InvocationRequest(
            accelerator=accelerator_by_name("FFT"),
            tile_name="acc0",
            buffer=buffer,
            footprint_bytes=4 * KB,
        )
        with pytest.raises(ConfigurationError):
            list(runtime.invoke(request))

    def test_manual_policy_end_to_end(self, tiny_soc):
        runtime = EspRuntime(tiny_soc, ManualPolicy())
        runtime.bind_library([accelerator_by_name("FFT")])
        result = TestInvocation().run_one(runtime, footprint=4 * KB)
        assert result.mode in COHERENCE_MODES

    def test_ddr_attribution_zero_for_warm_cached_invocation(self, tiny_runtime):
        result = self.run_one(tiny_runtime, footprint=4 * KB)
        # Warm small data under coherent DMA should cause (almost) no
        # off-chip accesses.
        assert result.ddr_accesses == pytest.approx(0.0, abs=1.0)
