"""Unit tests for the shared-resource contention model."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.resources import BandwidthResource


class TestServiceTime:
    def test_uncontended_service_time(self):
        resource = BandwidthResource("r", bytes_per_cycle=4.0, latency=10.0)
        assert resource.serve(now=5.0, nbytes=40) == pytest.approx(25.0)

    def test_zero_bytes_only_latency(self):
        resource = BandwidthResource("r", bytes_per_cycle=4.0, latency=7.0)
        assert resource.serve(now=0.0, nbytes=0) == pytest.approx(7.0)


class TestServe:
    def test_first_request_starts_immediately(self):
        resource = BandwidthResource("r", bytes_per_cycle=4.0, latency=0.0)
        finish = resource.serve(now=100.0, nbytes=400)
        assert finish == pytest.approx(200.0)

    def test_back_to_back_requests_queue(self):
        resource = BandwidthResource("r", bytes_per_cycle=4.0)
        first = resource.serve(0.0, 400)
        second = resource.serve(0.0, 400)
        assert second == pytest.approx(first + 100.0)

    def test_request_after_idle_does_not_queue(self):
        resource = BandwidthResource("r", bytes_per_cycle=4.0)
        resource.serve(0.0, 40)
        finish = resource.serve(1000.0, 40)
        assert finish == pytest.approx(1010.0)

    def test_extra_latency_delays_completion_not_pipeline(self):
        resource = BandwidthResource("r", bytes_per_cycle=4.0)
        first = resource.serve(0.0, 40, extra_latency=500.0)
        assert first == pytest.approx(510.0)
        # The pipeline frees at 10 cycles, so a second request is not pushed
        # behind the extra latency.
        second = resource.serve(0.0, 40)
        assert second == pytest.approx(20.0)

    def test_negative_bytes_rejected(self):
        resource = BandwidthResource("r", bytes_per_cycle=1.0)
        with pytest.raises(SimulationError):
            resource.serve(0.0, -1)

    def test_stats_accumulate(self):
        resource = BandwidthResource("r", bytes_per_cycle=2.0, latency=1.0)
        resource.serve(0.0, 10)
        resource.serve(0.0, 10)
        assert resource.stats.requests == 2
        assert resource.stats.bytes_served == 20
        assert resource.stats.queue_cycles > 0

    def test_reset_clears_state(self):
        resource = BandwidthResource("r", bytes_per_cycle=1.0)
        resource.serve(0.0, 100)
        resource.reset()
        assert resource.next_free == 0.0
        assert resource.stats.requests == 0


class TestValidation:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(SimulationError):
            BandwidthResource("bad", bytes_per_cycle=0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(SimulationError):
            BandwidthResource("bad", bytes_per_cycle=1.0, latency=-1.0)
