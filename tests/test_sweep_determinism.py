"""Determinism and caching tests for the sweep orchestration subsystem.

The sweep contract: the same :class:`SweepSpec` run serially, with multiple
workers, or with its jobs shuffled produces identical results dict-for-dict,
and a warm cache returns byte-identical payloads without re-simulating any
job.  The figure-level tests assert the same property through the public
``run_*`` entry points (the acceptance path is the Figure 9 ``socs`` sweep).
"""

from __future__ import annotations

import json

import pytest

from repro.accelerators.library import accelerator_by_name
from repro.errors import SweepError
from repro.experiments.common import motivation_setup
from repro.experiments.isolation import _isolation_job, run_isolation_experiment
from repro.experiments.socs import run_soc_comparison
from repro.experiments.sweep import Job, ResultCache, RunConfig, SweepRunner, SweepSpec
from repro.soc.coherence import COHERENCE_MODES, CoherenceMode
from repro.units import KB
from repro.utils.rng import SeededRNG

#: Reduced Figure 9 grid used by the acceptance tests: two SoC families,
#: four policies, one training iteration.
SOCS_LABELS = ("SoC1", "SoC6")
SOCS_KINDS = ("fixed-non-coh-dma", "fixed-coh-dma", "manual", "cohmeleon")


def _mul_job(params, rng):
    """Cheap deterministic job used by the unit-level tests."""
    return {"product": params["a"] * params["b"], "draw": rng.randint(0, 10**9)}


def small_isolation_spec() -> SweepSpec:
    """A small but real simulation grid (one accelerator, two modes)."""
    setup = motivation_setup(
        accelerators=[accelerator_by_name("FFT")], line_bytes=256
    )
    jobs = [
        Job(
            key=f"FFT/{mode.label}",
            fn=_isolation_job,
            params={
                "setup": setup,
                "accelerator": setup.accelerators[0],
                "footprint_bytes": 16 * KB,
                "mode": mode,
                "repeats": 1,
            },
            seed=setup.seed,
        )
        for mode in (CoherenceMode.NON_COH_DMA, CoherenceMode.COH_DMA)
    ]
    return SweepSpec(name="iso-small", jobs=jobs)


class RecordingRunner(SweepRunner):
    """A runner that keeps every SweepResult for later inspection."""

    def __init__(self, workers=1, cache=None):
        super().__init__(config=RunConfig(workers=workers, cache=cache))
        self.results = []

    def run(self, spec):
        result = super().run(spec)
        self.results.append(result)
        return result

    @property
    def total_executed(self):
        return sum(result.executed for result in self.results)

    @property
    def total_cache_hits(self):
        return sum(result.cache_hits for result in self.results)


class TestJobIdentity:
    def test_fingerprint_is_stable_and_parameter_sensitive(self):
        job = Job(key="a", fn=_mul_job, params={"a": 3, "b": 4}, seed=7)
        same = Job(key="renamed", fn=_mul_job, params={"b": 4, "a": 3}, seed=7)
        assert job.fingerprint() == same.fingerprint()  # key order irrelevant
        assert job.fingerprint() != Job(key="a", fn=_mul_job, params={"a": 3, "b": 5}, seed=7).fingerprint()
        assert job.fingerprint() != Job(key="a", fn=_mul_job, params={"a": 3, "b": 4}, seed=8).fingerprint()

    def test_rng_stream_depends_only_on_fingerprint(self):
        job = Job(key="a", fn=_mul_job, params={"a": 1, "b": 2}, seed=5)
        twin = Job(key="b", fn=_mul_job, params={"a": 1, "b": 2}, seed=5)
        assert job.derive_rng().random() == twin.derive_rng().random()
        other = Job(key="a", fn=_mul_job, params={"a": 1, "b": 3}, seed=5)
        assert job.derive_rng().random() != other.derive_rng().random()

    def test_underscore_params_are_transport_only(self):
        """Underscore-prefixed params reach the fn but not the fingerprint.

        They carry delivery details (e.g. the path a digest-pinned
        artifact is re-loaded from); relocating such a file must not
        invalidate the cache, while content-bearing params still must.
        """
        plain = Job(key="a", fn=_mul_job, params={"a": 3, "b": 4}, seed=7)
        with_transport = Job(
            key="a", fn=_mul_job, params={"a": 3, "b": 4, "_path": "/tmp/x"}, seed=7
        )
        moved = Job(
            key="a", fn=_mul_job, params={"a": 3, "b": 4, "_path": "/mnt/y"}, seed=7
        )
        assert plain.fingerprint() == with_transport.fingerprint() == moved.fingerprint()
        assert (
            plain.fingerprint()
            != Job(key="a", fn=_mul_job, params={"a": 3, "b": 4, "c": 0}, seed=7).fingerprint()
        )

    def test_duplicate_keys_rejected(self):
        job = Job(key="a", fn=_mul_job, params={"a": 1, "b": 2})
        with pytest.raises(SweepError):
            SweepSpec(name="dup", jobs=[job, job])

    def test_local_functions_rejected(self):
        def local(params, rng):  # pragma: no cover - never executed
            return {}

        with pytest.raises(SweepError):
            Job(key="a", fn=local)


class TestSpecDeterminism:
    def test_serial_two_workers_and_shuffled_agree(self):
        spec = small_isolation_spec()
        serial = SweepRunner(config=RunConfig(workers=1)).run(spec)
        parallel = SweepRunner(config=RunConfig(workers=2)).run(spec)
        shuffled = SweepRunner(config=RunConfig(workers=1)).run(spec.shuffled(SeededRNG(99)))
        assert dict(serial.payloads) == dict(parallel.payloads)
        assert dict(serial.payloads) == dict(shuffled.payloads)
        # Grid order is restored regardless of execution order.
        assert list(serial.payloads) == spec.keys()
        assert list(parallel.payloads) == spec.keys()

    def test_mutating_job_fn_cannot_leak_between_runs(self):
        # Job.execute() hands the fn a deep copy of the params, so a fn that
        # mutates its inputs (training the policy held in params, as
        # _policy_evaluation_job does) returns identical payloads when the
        # same spec object is run repeatedly in-process.
        from repro.core.policies import CohmeleonPolicy
        from repro.experiments.common import _policy_evaluation_job, traffic_setup
        from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec

        setup = traffic_setup("SoC1", seed=5)
        name = setup.accelerators[0].name
        app = ApplicationSpec(
            name="tiny",
            phases=(
                PhaseSpec(
                    name="p",
                    threads=(
                        ThreadSpec(
                            thread_id="t0",
                            accelerator_chain=(name,),
                            footprint_bytes=32 * KB,
                        ),
                    ),
                ),
            ),
        )
        spec = SweepSpec(
            name="mutating",
            jobs=[
                Job(
                    key="cohmeleon",
                    fn=_policy_evaluation_job,
                    params={
                        "setup": setup,
                        "policy": CohmeleonPolicy(),
                        "policy_name": "cohmeleon",
                        "test_app": app,
                        "training_app": app,
                        "training_iterations": 2,
                    },
                    seed=setup.seed,
                )
            ],
        )
        runner = SweepRunner(config=RunConfig(workers=1))
        assert dict(runner.run(spec).payloads) == dict(runner.run(spec).payloads)

    def test_cheap_grid_parallel_matches_serial(self):
        spec = SweepSpec(
            name="mul",
            jobs=[
                Job(key=f"j{i}", fn=_mul_job, params={"a": i, "b": i + 1}, seed=3)
                for i in range(8)
            ],
        )
        serial = SweepRunner(config=RunConfig(workers=1)).run(spec)
        parallel = SweepRunner(config=RunConfig(workers=4)).run(spec)
        assert dict(serial.payloads) == dict(parallel.payloads)


class TestResultCache:
    def test_warm_cache_returns_byte_identical_payloads(self, tmp_path):
        cache = ResultCache(tmp_path / "sweep-cache")
        spec = small_isolation_spec()
        runner = SweepRunner(config=RunConfig(workers=1, cache=cache))

        cold = runner.run(spec)
        assert cold.executed == len(spec) and cold.cache_hits == 0
        stored = {fp: cache.path_for(fp).read_bytes() for fp in cache.fingerprints()}
        assert len(stored) == len(spec)

        warm = runner.run(spec)
        assert warm.executed == 0 and warm.cache_hits == len(spec)
        assert {fp: cache.path_for(fp).read_bytes() for fp in cache.fingerprints()} == stored
        assert json.dumps(dict(cold.payloads), sort_keys=True) == json.dumps(
            dict(warm.payloads), sort_keys=True
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = Job(key="a", fn=_mul_job, params={"a": 2, "b": 3}, seed=1)
        fingerprint = job.fingerprint()
        cache.put(fingerprint, job.key, {"product": 6})
        cache.path_for(fingerprint).write_text("{not json")
        assert cache.get(fingerprint) is None
        result = SweepRunner(config=RunConfig(workers=1, cache=cache)).run(SweepSpec("c", [job]))
        assert result.executed == 1
        assert cache.get(fingerprint) == {"product": 6, "draw": result["a"]["draw"]}

    def test_unserializable_payload_raises(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(SweepError):
            cache.put("ab" * 32, "bad", {"oops": object()})

    def test_killed_writer_tmp_files_are_ignored_and_swept(self, tmp_path):
        """Regression: a worker killed mid-put leaves `<fp>.tmp.<pid>` behind.

        Orphaned temp files must be invisible to fingerprints()/len(),
        must not block a rerun from committing the real entry, and must be
        swept by clear() instead of accumulating forever.
        """
        cache = ResultCache(tmp_path)
        job = Job(key="a", fn=_mul_job, params={"a": 2, "b": 3}, seed=1)
        fingerprint = job.fingerprint()
        # Simulate the kill: the temp file exists, os.replace never ran.
        orphan = cache.path_for(fingerprint).with_suffix(".tmp.99999")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text('{"fingerprint": "truncated mid-wri')
        stale = cache.path_for(fingerprint).parent / "0123.tmp.4"
        stale.write_text("")

        assert len(cache) == 0
        assert list(cache.fingerprints()) == []
        assert fingerprint not in cache
        assert cache.get(fingerprint) is None
        assert set(cache.stale_tmp_files()) == {stale, orphan}

        # The rerun commits the entry; the orphans are still not entries.
        result = SweepRunner(config=RunConfig(workers=1, cache=cache)).run(SweepSpec("c", [job]))
        assert result.executed == 1
        assert list(cache.fingerprints()) == [fingerprint]
        assert len(cache) == 1

        # clear() counts the one entry and sweeps every orphan.
        assert cache.clear() == 1
        assert not orphan.exists() and not stale.exists()
        assert len(cache) == 0 and cache.stale_tmp_files() == []


@pytest.mark.slow
class TestFigureSweepDeterminism:
    """Acceptance: the socs figure sweep is worker-count invariant and cached."""

    @pytest.fixture(scope="class")
    def serial_comparison(self):
        return run_soc_comparison(
            labels=SOCS_LABELS,
            policy_kinds=SOCS_KINDS,
            training_iterations=1,
            seed=2,
            runner=SweepRunner(config=RunConfig(workers=1)),
        )

    def test_socs_two_workers_match_serial(self, serial_comparison):
        parallel = run_soc_comparison(
            labels=SOCS_LABELS,
            policy_kinds=SOCS_KINDS,
            training_iterations=1,
            seed=2,
            runner=SweepRunner(config=RunConfig(workers=2)),
        )
        assert parallel.points == serial_comparison.points
        assert {
            soc: {name: ev.to_dict() for name, ev in evaluations.items()}
            for soc, evaluations in parallel.evaluations.items()
        } == {
            soc: {name: ev.to_dict() for name, ev in evaluations.items()}
            for soc, evaluations in serial_comparison.evaluations.items()
        }

    def test_socs_warm_cache_skips_every_job(self, serial_comparison, tmp_path):
        cache = ResultCache(tmp_path / "socs-cache")
        cold_runner = RecordingRunner(workers=2, cache=cache)
        cold = run_soc_comparison(
            labels=SOCS_LABELS,
            policy_kinds=SOCS_KINDS,
            training_iterations=1,
            seed=2,
            runner=cold_runner,
        )
        assert cold_runner.total_executed == len(SOCS_LABELS)

        warm_runner = RecordingRunner(workers=2, cache=cache)
        warm = run_soc_comparison(
            labels=SOCS_LABELS,
            policy_kinds=SOCS_KINDS,
            training_iterations=1,
            seed=2,
            runner=warm_runner,
        )
        assert warm_runner.total_executed == 0
        assert warm_runner.total_cache_hits == len(SOCS_LABELS)
        assert warm.points == cold.points == serial_comparison.points

    def test_isolation_experiment_worker_invariance(self):
        setup = motivation_setup(
            accelerators=[accelerator_by_name("Sort")], line_bytes=256
        )
        kwargs = dict(
            accelerators=setup.accelerators,
            sizes={"Small": 16 * KB},
            modes=tuple(COHERENCE_MODES),
        )
        serial = run_isolation_experiment(
            setup, runner=SweepRunner(config=RunConfig(workers=1)), **kwargs
        )
        parallel = run_isolation_experiment(
            setup, runner=SweepRunner(config=RunConfig(workers=2)), **kwargs
        )
        assert serial == parallel
