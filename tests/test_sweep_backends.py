"""Tests of the execution backends and their shared contract.

Both registered backends — the serial reference and the process pool —
must execute each pending job exactly once, report completions
incrementally through the callback (on the calling thread), and produce
payloads bit-identical to the serial reference — determinism lives in
the jobs, not in the executor.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.errors import SweepError
from repro.experiments.sweep import (
    BACKEND_NAMES,
    Job,
    ResultCache,
    RunConfig,
    SweepRunner,
    SweepSpec,
    create_backend,
)
from repro.experiments.sweep.backends import BatchBackend, SerialBackend, batch


def _mul_job(params, rng):
    """Cheap deterministic job used throughout these tests."""
    return {"product": params["a"] * params["b"], "draw": rng.randint(0, 10**9)}


def _fail_on_three(params, rng):
    """Job that blows up for a == 3 (checkpointing tests)."""
    if params["a"] == 3:
        raise RuntimeError("job 3 exploded")
    return {"product": params["a"] * params["b"]}


def _fail_slowly_on_three(params, rng):
    """Like :func:`_fail_on_three`, but job 3 first gives the pool time to drain."""
    if params["a"] == 3:
        time.sleep(0.5)
    return _fail_on_three(params, rng)


def _grid(fn=_mul_job, n=8) -> SweepSpec:
    return SweepSpec(
        name="grid",
        jobs=[
            Job(key=f"j{i}", fn=fn, params={"a": i, "b": i + 1}, seed=3)
            for i in range(n)
        ],
    )


class TestRegistry:
    def test_registry_names(self):
        assert BACKEND_NAMES == ("batch", "serial")

    def test_create_by_name(self):
        assert isinstance(create_backend("serial", workers=4), SerialBackend)
        assert isinstance(create_backend("batch", workers=1), BatchBackend)

    def test_batch_backend_receives_jobs_per_lease(self):
        backend = create_backend("batch", workers=2, jobs_per_lease=7)
        assert backend.jobs_per_lease == 7
        # The default policy hands the lease size to the pool as well.
        assert create_backend(None, workers=2, jobs_per_lease=7).jobs_per_lease == 7
        # Serial execution silently ignores the lease granularity.
        assert isinstance(
            create_backend("serial", workers=2, jobs_per_lease=7), SerialBackend
        )

    def test_default_policy_follows_workers(self):
        assert isinstance(create_backend(None, workers=1), SerialBackend)
        assert isinstance(create_backend(None, workers=2), BatchBackend)

    def test_instance_passes_through(self):
        backend = BatchBackend(jobs_per_lease=3)
        assert create_backend(backend, workers=8) is backend

    def test_unknown_name_rejected(self):
        for name in ("gpu", "process", "thread"):
            with pytest.raises(SweepError, match="unknown execution backend"):
                create_backend(name, workers=1)


class TestContract:
    @pytest.mark.parametrize("name", ["serial", "batch"])
    def test_every_job_reported_exactly_once(self, name):
        spec = _grid()
        seen = []
        backend = create_backend(name, workers=4)
        backend.run(spec.jobs, 4, lambda job, payload: seen.append(job.key))
        assert sorted(seen) == sorted(spec.keys())

    def test_serial_reports_in_grid_order_and_returns_one(self):
        spec = _grid()
        seen = []
        used = SerialBackend().run(spec.jobs, 4, lambda job, _: seen.append(job.key))
        assert used == 1
        assert seen == spec.keys()

    @pytest.mark.parametrize("name", ["serial", "batch"])
    def test_backends_match_serial_reference(self, name):
        spec = _grid()
        reference = SweepRunner(config=RunConfig(workers=1, backend="serial")).run(spec)
        other = SweepRunner(config=RunConfig(workers=4, backend=name)).run(spec)
        assert dict(other.payloads) == dict(reference.payloads)
        assert list(other.payloads) == spec.keys()  # grid order restored

    def test_pool_with_more_workers_than_jobs(self):
        spec = _grid(n=2)
        result = SweepRunner(config=RunConfig(workers=16)).run(spec)
        assert len(result) == 2
        # The runner clamps the request to the number of pending jobs.
        assert result.workers_used == 2

    def test_process_backend_serial_when_one_worker(self):
        spec = _grid(n=3)
        result = SweepRunner(config=RunConfig(workers=1, backend="batch")).run(spec)
        assert result.workers_used == 1
        assert len(result) == 3

    def test_pool_dispatches_leases_in_grid_order(self, monkeypatch):
        dispatched = []

        class InlinePool:
            """Runs leases in-process, recording the order they are handed over."""

            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def join(self):
                pass

            def imap_unordered(self, fn, leases):
                dispatched[:] = [[job.key for job in lease] for lease in leases]
                return map(fn, leases)

        monkeypatch.setattr(
            batch.multiprocessing, "get_context", lambda: SimpleNamespace(Pool=InlinePool)
        )
        spec = _grid()
        BatchBackend(jobs_per_lease=1).run(spec.jobs, 2, lambda job, payload: None)
        assert dispatched == [[key] for key in spec.keys()]
        BatchBackend(jobs_per_lease=3).run(spec.jobs, 2, lambda job, payload: None)
        firsts = [min(spec.keys().index(key) for key in lease) for lease in dispatched]
        assert len(firsts) == 3 and firsts == sorted(firsts)

    def test_pool_failure_propagates_and_keeps_checkpoints(self, tmp_path):
        # One job per lease: while job 3 sleeps on one worker, the other
        # worker drains the rest of the grid, so every other job is
        # reported — and checkpointed — before job 3's exception arrives.
        cache = ResultCache(tmp_path / "cache")
        spec = _grid(fn=_fail_slowly_on_three, n=6)
        runner = SweepRunner(config=RunConfig(workers=2, cache=cache, jobs_per_lease=1))
        with pytest.raises(RuntimeError, match="job 3 exploded"):
            runner.run(spec)
        survivors = {job.fingerprint() for job in spec.jobs if job.key != "j3"}
        assert set(cache.fingerprints()) == survivors


class TestIncrementalCheckpointing:
    def test_completed_jobs_cached_even_when_a_later_job_fails(self, tmp_path):
        """The crash contract: a dying sweep loses at most in-flight leases."""
        cache = ResultCache(tmp_path / "cache")
        spec = _grid(fn=_fail_on_three)
        runner = SweepRunner(config=RunConfig(workers=1, backend="serial", cache=cache))
        with pytest.raises(RuntimeError, match="job 3 exploded"):
            runner.run(spec)
        # Jobs 0..2 completed before the failure and must already be on disk.
        assert len(cache) == 3

    def test_rerun_after_failure_reuses_checkpointed_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        broken = _grid(fn=_fail_on_three)
        with pytest.raises(RuntimeError):
            SweepRunner(config=RunConfig(workers=1, cache=cache)).run(broken)
        stored = {
            fp: cache.path_for(fp).read_bytes() for fp in cache.fingerprints()
        }
        # The rerun serves 0..2 from the cache (no rewrites) and fails at 3.
        with pytest.raises(RuntimeError):
            SweepRunner(config=RunConfig(workers=1, cache=cache)).run(broken)
        assert {
            fp: cache.path_for(fp).read_bytes() for fp in cache.fingerprints()
        } == stored
        # A different job function never reuses these fingerprints.
        result = SweepRunner(config=RunConfig(workers=1, cache=cache)).run(_grid(fn=_mul_job))
        assert result.cache_hits == 0 and result.executed == 8
