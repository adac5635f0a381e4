"""Tests of the distributed sweep layer and the unified RunConfig API.

Covers the four pieces PR 9 added, bottom-up:

* :class:`RunConfig` — construction-time validation, the shared CLI
  flag set, and the deprecated-kwargs adapter on ``SweepRunner``;
* lease partitioning and the batch backend (digest-identical to serial
  for every lease granularity);
* the :class:`LeaseBoard` lifecycle (acquire, expiry + reissue,
  idempotent completion, digest-mismatch refusal) and the wire
  protocol's fingerprint/digest verification;
* the coordinator/worker loop end to end: in-process workers, and a
  subprocess test that SIGKILLs a worker mid-lease and asserts the
  lease is reissued and the merged results stay bit-identical.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from io import StringIO
from pathlib import Path

import pytest

import repro
from repro.errors import SweepError
from repro.experiments.sweep import (
    DistributedBackend,
    Job,
    RunConfig,
    SweepRunner,
    SweepSpec,
    add_runner_arguments,
    lease_partition,
    payload_digest,
    run_worker,
)
from repro.experiments.sweep.cache import ResultCache
from repro.experiments.sweep.distributed.lease import LeaseBoard
from repro.experiments.sweep.distributed.protocol import (
    DIST_PROTOCOL_VERSION,
    ERROR_STATUS,
    WireError,
    decode_job,
    encode_job,
    encode_result,
    error_envelope,
)
from repro.experiments.sweep.shard import ShardSpec

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _mul_job(params, rng):
    """Cheap deterministic job used throughout these tests."""
    return {"product": params["a"] * params["b"], "draw": rng.randint(0, 10**9)}


def _grid(n=9, name="grid") -> SweepSpec:
    return SweepSpec(
        name=name,
        jobs=[
            Job(key=f"j{i}", fn=_mul_job, params={"a": i, "b": i + 1}, seed=3)
            for i in range(n)
        ],
    )


def _serial_payloads(spec: SweepSpec) -> dict:
    return dict(SweepRunner(config=RunConfig(workers=1, backend="serial")).run(spec).payloads)


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


# ----------------------------------------------------------------------
# RunConfig: validation and CLI flags; SweepRunner takes only config=
# ----------------------------------------------------------------------
class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.workers == 1
        assert config.cache is None
        assert config.backend is None
        assert config.manifest_dir is None
        assert config.resume is False
        assert config.shard is None
        assert config.jobs_per_lease is None

    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().workers = 4  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"workers": 0}, "workers must be >= 1, got 0"),
            ({"resume": True}, "resume requires a manifest_dir"),
            ({"jobs_per_lease": 0}, "jobs_per_lease must be >= 1"),
        ],
    )
    def test_validation_messages(self, kwargs, match):
        with pytest.raises(SweepError, match=match):
            RunConfig(**kwargs)

    def test_resume_requires_cache(self, tmp_path):
        with pytest.raises(SweepError, match="resume requires a cache"):
            RunConfig(resume=True, manifest_dir=tmp_path)

    def test_with_backend(self):
        config = RunConfig(workers=4)
        pinned = config.with_backend("batch")
        assert pinned.backend == "batch" and pinned.workers == 4
        assert config.backend is None  # original untouched

    def _parse(self, argv):
        parser = argparse.ArgumentParser()
        add_runner_arguments(parser)
        return parser.parse_args(argv)

    def test_from_args_defaults(self, tmp_path):
        config = RunConfig.from_args(self._parse(["--cache-dir", str(tmp_path / "c")]))
        assert config.workers >= 1  # autodetected
        assert isinstance(config.cache, ResultCache)
        # Manifests default to living beside the cache.
        assert config.manifest_dir == tmp_path / "c" / "manifests"
        assert config.backend is None  # the worker count picks the backend

    def test_from_args_no_cache(self):
        config = RunConfig.from_args(self._parse(["--no-cache", "--workers", "3"]))
        assert config.cache is None and config.manifest_dir is None
        assert config.workers == 3

    def test_from_args_full_surface(self, tmp_path):
        config = RunConfig.from_args(
            self._parse(
                [
                    "--cache-dir", str(tmp_path / "c"),
                    "--manifest-dir", str(tmp_path / "m"),
                    "--shard", "1/3",
                    "--jobs-per-lease", "8",
                    "--workers", "2",
                ]
            )
        )
        assert config.workers == 2
        assert config.manifest_dir == tmp_path / "m"
        assert config.shard == ShardSpec(index=1, count=3)
        assert config.jobs_per_lease == 8

    def test_from_args_rejects_no_cache_with_resume_or_shard(self):
        for extra in (["--resume"], ["--shard", "1/2"]):
            with pytest.raises(SweepError, match="drop --no-cache"):
                RunConfig.from_args(self._parse(["--no-cache"] + extra))

    def test_from_args_tolerates_missing_flags(self):
        # Front ends that drop flag groups (the diskless worker) still
        # share this constructor: absent attributes mean their defaults.
        parser = argparse.ArgumentParser()
        add_runner_arguments(parser, cache=False, manifest=False, shard=False, lease=False)
        config = RunConfig.from_args(parser.parse_args(["--workers", "2"]))
        assert config.workers == 2 and config.cache is None

    def test_cli_rejects_bad_flag_values(self):
        parser = argparse.ArgumentParser()
        add_runner_arguments(parser)
        for argv in (["--workers", "0"], ["--jobs-per-lease", "0"], ["--shard", "3/2"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


class TestDeprecatedKwargs:
    """The pre-``RunConfig`` keyword form is gone: only ``config=`` remains."""

    def test_config_form_does_not_warn(self, recwarn):
        runner = SweepRunner(config=RunConfig(workers=2))
        assert runner.config.workers == 2
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]

    def test_mixing_config_and_legacy_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            SweepRunner(config=RunConfig(), workers=2)  # type: ignore[call-arg]
        with pytest.raises(TypeError, match="workers"):
            SweepRunner(workers=2)  # type: ignore[call-arg]

    def test_config_must_be_a_runconfig(self):
        with pytest.raises(SweepError, match="must be a RunConfig"):
            SweepRunner(config={"workers": 2})  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Lease partitioning and the batch backend
# ----------------------------------------------------------------------
class TestLeasePartition:
    def test_every_job_exactly_once(self):
        jobs = _grid(n=17).jobs
        groups = lease_partition(jobs, 4)
        flat = [job.fingerprint() for group in groups for job in group]
        assert sorted(flat) == sorted(job.fingerprint() for job in jobs)
        assert all(groups)  # no empty leases

    def test_group_count_follows_ceiling(self):
        # Exactly ceil(n / k) leases, each of k jobs except the last.
        for n in (8, 13):
            jobs = _grid(n=n).jobs
            for per_lease in (1, 2, 3, n, n + 1):
                sizes = [len(group) for group in lease_partition(jobs, per_lease)]
                count = -(-n // per_lease)
                assert sizes == [per_lease] * (count - 1) + [n - per_lease * (count - 1)]
        assert lease_partition([], 5) == []

    def test_deterministic_and_order_insensitive(self):
        jobs = list(_grid(n=12).jobs)
        first = lease_partition(jobs, 4)
        again = lease_partition(jobs, 4)
        shuffled = lease_partition(list(reversed(jobs)), 4)
        as_sets = lambda groups: [  # noqa: E731 - local helper
            {job.fingerprint() for job in group} for group in groups
        ]
        assert as_sets(first) == as_sets(again)
        # Leases are cut from the fingerprint-sorted jobs, so input order
        # is irrelevant.
        assert sorted(map(sorted, as_sets(first))) == sorted(map(sorted, as_sets(shuffled)))

    def test_rejects_bad_granularity(self):
        with pytest.raises(SweepError, match="jobs_per_lease"):
            lease_partition(_grid(n=2).jobs, 0)


class TestBatchBackend:
    @pytest.mark.parametrize("per_lease", [1, 3, 100, None])
    def test_matches_serial_for_every_granularity(self, per_lease):
        spec = _grid(n=13)
        reference = _serial_payloads(spec)
        result = SweepRunner(
            config=RunConfig(workers=2, backend="batch", jobs_per_lease=per_lease)
        ).run(spec)
        assert dict(result.payloads) == reference
        assert list(result.payloads) == spec.keys()  # grid order restored

    def test_single_worker_falls_back_to_serial(self):
        spec = _grid(n=4)
        result = SweepRunner(config=RunConfig(workers=1, backend="batch")).run(spec)
        assert result.workers_used == 1
        assert dict(result.payloads) == _serial_payloads(spec)


# ----------------------------------------------------------------------
# LeaseBoard lifecycle
# ----------------------------------------------------------------------
def _triple(job, payload):
    return (job.fingerprint(), payload_digest(payload), payload)


class TestLeaseBoard:
    def _payload(self, job):
        return {"product": job.params["a"] * job.params["b"]}

    def test_default_lease_holds_one_job(self):
        jobs = _grid(n=5).jobs
        board = LeaseBoard(jobs, jobs_per_lease=1)
        assert board.snapshot()["pending_leases"] == 5
        leases = [board.acquire("w", now=0.0) for _ in jobs]
        assert [len(lease.jobs) for lease in leases] == [1] * 5
        assert board.acquire("w", now=0.0) is None

    def test_acquire_and_complete(self):
        jobs = _grid(n=4).jobs
        board = LeaseBoard(jobs, jobs_per_lease=2, lease_timeout=60.0)
        assert board.total_jobs == 4 and not board.done
        lease = board.acquire("w1", now=0.0)
        assert lease is not None and lease.attempts == 1
        receipt = board.complete(
            lease.lease_id,
            "w1",
            [_triple(job, self._payload(job)) for job in lease.jobs],
            now=1.0,
        )
        assert len(receipt.accepted) == len(lease.jobs)
        assert receipt.duplicates == 0 and receipt.lease_known
        assert board.completed_jobs == len(lease.jobs)
        assert "w1" in board.workers_completed

    def test_drain_to_done(self):
        jobs = _grid(n=5).jobs
        board = LeaseBoard(jobs, jobs_per_lease=2, lease_timeout=60.0)
        while not board.done:
            lease = board.acquire("w", now=0.0)
            assert lease is not None
            board.complete(
                lease.lease_id,
                "w",
                [_triple(job, self._payload(job)) for job in lease.jobs],
                now=0.0,
            )
        assert board.acquire("w", now=0.0) is None
        assert board.snapshot()["completed"] == 5

    def test_expired_lease_is_reissued(self):
        jobs = _grid(n=2).jobs
        board = LeaseBoard(jobs, jobs_per_lease=2, lease_timeout=10.0)
        first = board.acquire("victim", now=0.0)
        assert first is not None
        # Before the deadline nothing is reclaimable.
        assert board.acquire("survivor", now=5.0) is None
        reissued = board.acquire("survivor", now=10.0)  # deadline passed
        assert reissued is not None
        assert reissued.lease_id == first.lease_id
        assert reissued.attempts == 2 and reissued.worker == "survivor"
        assert board.reissues == 1
        assert board.snapshot()["reissues"] == 1

    def test_reissue_filters_already_completed_jobs(self):
        jobs = _grid(n=4).jobs
        board = LeaseBoard(jobs, jobs_per_lease=4, lease_timeout=10.0)
        lease = board.acquire("w1", now=0.0)
        done, left = lease.jobs[:2], lease.jobs[2:]
        board.complete(
            lease.lease_id, "w1", [_triple(j, self._payload(j)) for j in done], now=1.0
        )
        reissued = board.acquire("w2", now=20.0)
        assert reissued is not None
        assert {j.fingerprint() for j in reissued.jobs} == {
            j.fingerprint() for j in left
        }

    def test_duplicate_completion_is_idempotent(self):
        jobs = _grid(n=2).jobs
        board = LeaseBoard(jobs, jobs_per_lease=2, lease_timeout=10.0)
        lease = board.acquire("w1", now=0.0)
        results = [_triple(j, self._payload(j)) for j in lease.jobs]
        board.complete(lease.lease_id, "w1", results, now=1.0)
        # The same results again — e.g. a worker that lost the race
        # against its own expiry — dedupe instead of erroring.
        receipt = board.complete(lease.lease_id, "w1", results, now=2.0)
        assert receipt.duplicates == len(results) and not receipt.accepted

    def test_stale_lease_id_is_not_an_error(self):
        jobs = _grid(n=1).jobs
        board = LeaseBoard(jobs, jobs_per_lease=1, lease_timeout=10.0)
        lease = board.acquire("w1", now=0.0)
        receipt = board.complete(
            "lease-9999",  # unknown/stale id; results still digest-checked
            "w1",
            [_triple(j, self._payload(j)) for j in lease.jobs],
            now=1.0,
        )
        assert not receipt.lease_known and len(receipt.accepted) == 1
        assert board.done

    def test_conflicting_duplicate_digest_rejected(self):
        jobs = _grid(n=1).jobs
        board = LeaseBoard(jobs, jobs_per_lease=1, lease_timeout=10.0)
        lease = board.acquire("w1", now=0.0)
        job = lease.jobs[0]
        board.complete(lease.lease_id, "w1", [_triple(job, {"v": 1})], now=1.0)
        with pytest.raises(WireError, match="determinism contract") as excinfo:
            board.complete(lease.lease_id, "w2", [_triple(job, {"v": 2})], now=2.0)
        assert excinfo.value.error_type == "digest-mismatch"

    def test_mis_stamped_digest_rejected(self):
        jobs = _grid(n=1).jobs
        board = LeaseBoard(jobs, jobs_per_lease=1, lease_timeout=10.0)
        lease = board.acquire("w1", now=0.0)
        job = lease.jobs[0]
        with pytest.raises(WireError, match="does not match the stamped digest"):
            board.complete(
                lease.lease_id,
                "w1",
                [(job.fingerprint(), "0" * 64, {"v": 1})],
                now=1.0,
            )

    def test_unknown_fingerprint_rejected(self):
        board = LeaseBoard(_grid(n=1).jobs, jobs_per_lease=1, lease_timeout=10.0)
        with pytest.raises(WireError, match="unknown job") as excinfo:
            board.complete("lease-0000", "w1", [("f" * 64, "d" * 64, {})], now=0.0)
        assert excinfo.value.error_type == "unknown-job"


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_job_roundtrip(self):
        job = _grid(n=1).jobs[0]
        decoded = decode_job(encode_job(job))
        assert decoded.fingerprint() == job.fingerprint()
        assert decoded.key == job.key and decoded.params == job.params

    def test_tampered_fingerprint_rejected(self):
        document = encode_job(_grid(n=1).jobs[0])
        document["fingerprint"] = "0" * 64
        with pytest.raises(WireError) as excinfo:
            decode_job(document)
        assert excinfo.value.error_type == "fingerprint-mismatch"

    def test_corrupt_blob_rejected(self):
        document = encode_job(_grid(n=1).jobs[0])
        document["blob"] = "not base64!!"
        with pytest.raises(WireError) as excinfo:
            decode_job(document)
        assert excinfo.value.error_type == "invalid-request"

    def test_non_job_pickle_rejected(self):
        import base64
        import pickle

        document = {
            "fingerprint": "0" * 64,
            "blob": base64.b64encode(pickle.dumps({"not": "a job"})).decode("ascii"),
        }
        with pytest.raises(WireError, match="expected a Job"):
            decode_job(document)

    def test_result_stamped_with_payload_digest(self):
        job = _grid(n=1).jobs[0]
        payload = {"product": 0, "draw": 17}
        document = encode_result(job, payload)
        assert document["digest"] == payload_digest(payload)
        assert document["fingerprint"] == job.fingerprint()

    def test_error_envelope_vocabulary_is_closed(self):
        envelope = error_envelope("digest-mismatch", "boom")
        assert envelope["error"]["status"] == ERROR_STATUS["digest-mismatch"] == 409
        with pytest.raises(SweepError, match="unknown error-envelope"):
            error_envelope("made-up", "boom")
        with pytest.raises(SweepError, match="unknown error-envelope"):
            WireError("made-up", "boom")


# ----------------------------------------------------------------------
# Coordinator + workers, end to end
# ----------------------------------------------------------------------
class TestDistributedIntegration:
    def _run_with_workers(self, spec, backend, worker_count):
        exits = []

        def pull():
            exits.append(run_worker(backend.url, poll=0.05, grace=10.0, out=StringIO()))

        threads = [
            threading.Thread(target=pull, daemon=True) for _ in range(worker_count)
        ]
        with backend:
            runner = SweepRunner(config=RunConfig(workers=1, backend=backend))
            for thread in threads:
                thread.start()
            result = runner.run(spec)
        for thread in threads:
            thread.join(timeout=30)
        assert exits == [0] * worker_count  # clean exit when coordinator closes
        return result

    def test_single_worker_matches_serial(self):
        spec = _grid(n=9)
        backend = DistributedBackend(jobs_per_lease=2, lease_timeout=30.0)
        result = self._run_with_workers(spec, backend, worker_count=1)
        assert dict(result.payloads) == _serial_payloads(spec)
        assert list(result.payloads) == spec.keys()
        assert result.workers_used == 1
        snapshot = backend.last_snapshot
        assert snapshot["completed"] == 9 and snapshot["reissues"] == 0

    def test_two_workers_match_serial(self):
        spec = _grid(n=12)
        backend = DistributedBackend(jobs_per_lease=1, lease_timeout=30.0)
        result = self._run_with_workers(spec, backend, worker_count=2)
        assert dict(result.payloads) == _serial_payloads(spec)
        assert 1 <= result.workers_used <= 2

    def test_health_and_status_routes(self):
        with DistributedBackend() as backend:
            health = _get_json(backend.url + "/healthz")
            assert health["status"] == "ok"
            assert health["protocol"] == DIST_PROTOCOL_VERSION
            assert health["serving"] is False  # no sweep attached yet
            status = _get_json(backend.url + "/v1/status")
            assert status["lease_timeout"] == backend.lease_timeout
            # Unknown routes come back as typed envelopes, not tracebacks.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(backend.url + "/nope")
            assert excinfo.value.code == 404
            with excinfo.value:  # an HTTPError holds its response open
                envelope = json.loads(excinfo.value.read().decode("utf-8"))
            assert envelope["error"]["type"] == "not-found"
            # Wrong method on a POST route.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(backend.url + "/v1/lease")
            excinfo.value.close()
            assert excinfo.value.code == 400

    def test_writes_happen_on_calling_thread(self, tmp_path):
        # The backend contract: on_result — and therefore every cache
        # write — fires on the runner's thread, keeping workers diskless.
        spec = _grid(n=4)
        cache = ResultCache(tmp_path / "cache")
        backend = DistributedBackend(jobs_per_lease=2, lease_timeout=30.0)
        exits = []

        def pull():
            exits.append(run_worker(backend.url, poll=0.05, grace=10.0, out=StringIO()))

        thread = threading.Thread(target=pull, daemon=True)
        with backend:
            runner = SweepRunner(
                config=RunConfig(
                    workers=1,
                    backend=backend,
                    cache=cache,
                    manifest_dir=tmp_path / "manifests",
                )
            )
            thread.start()
            result = runner.run(spec)
        thread.join(timeout=30)
        assert len(cache) == 4 and result.executed == 4
        # A rerun is pure cache hits — no worker needed at all.
        rerun = SweepRunner(config=RunConfig(workers=1, cache=cache)).run(spec)
        assert rerun.cache_hits == 4
        assert dict(rerun.payloads) == dict(result.payloads)

    def test_async_entry_points_are_refused_before_anything_starts(self):
        # The coordinator serves on its own thread; `async with` used to
        # start that thread and then fail with a TypeError.
        def coordinator_threads():
            return {
                thread
                for thread in threading.enumerate()
                if thread.name == "repro-coordinator" and thread.is_alive()
            }

        before = coordinator_threads()
        backend = DistributedBackend()

        async def enter():
            async with backend:
                pass

        for attempt in (
            enter,
            backend.serve_forever,
            lambda: backend.__aexit__(None, None, None),
        ):
            with pytest.raises(SweepError, match="use `with DistributedBackend"):
                asyncio.run(attempt())
        assert not backend.started
        assert coordinator_threads() == before

    def test_constructor_validation(self):
        with pytest.raises(SweepError, match="jobs_per_lease"):
            DistributedBackend(jobs_per_lease=0)
        with pytest.raises(SweepError, match="lease_timeout"):
            DistributedBackend(lease_timeout=0)


_KILL_JOB_MODULE = '''
"""Sleepy deterministic jobs importable by the worker subprocesses."""
import time


def slow_job(params, rng):
    time.sleep(params["sleep"])
    return {"value": params["x"] * 7}
'''


class TestWorkerKilledMidLease:
    """SIGKILL a worker holding a lease; the sweep must still merge clean."""

    def _spawn_worker(self, url, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, str(tmp_path)])
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.sweep",
                "worker",
                "--coordinator",
                url,
                "--poll",
                "0.05",
                "--grace",
                "30",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_lease_reissued_and_results_identical(self, tmp_path):
        (tmp_path / "distkill_jobs.py").write_text(_KILL_JOB_MODULE)
        sys.path.insert(0, str(tmp_path))
        try:
            module = importlib.import_module("distkill_jobs")
            spec = SweepSpec(
                name="distkill",
                jobs=[
                    Job(
                        key=f"j{i}",
                        fn=module.slow_job,
                        params={"x": i, "sleep": 0.5},
                        seed=11,
                    )
                    for i in range(6)
                ],
            )
            expected = {f"j{i}": {"value": i * 7} for i in range(6)}
            backend = DistributedBackend(jobs_per_lease=2, lease_timeout=1.25)
            outcome = {}

            def drive():
                runner = SweepRunner(config=RunConfig(workers=1, backend=backend))
                outcome["result"] = runner.run(spec)

            victim = survivor = None
            clean = False
            with backend:
                driver = threading.Thread(target=drive, daemon=True)
                driver.start()
                victim = self._spawn_worker(backend.url, tmp_path)
                try:
                    # Wait until the victim actually holds a lease...
                    deadline = time.monotonic() + 20
                    while time.monotonic() < deadline:
                        status = _get_json(backend.url + "/v1/status")
                        if status.get("jobs", {}).get("active_leases", 0) >= 1:
                            break
                        time.sleep(0.05)
                    else:
                        pytest.fail("victim worker never acquired a lease")
                    # ...then kill it mid-lease, hard.
                    victim.kill()
                    victim.communicate(timeout=10)  # reaps it, closes its pipes
                    survivor = self._spawn_worker(backend.url, tmp_path)
                    driver.join(timeout=60)
                    assert not driver.is_alive(), "sweep never completed"
                    clean = True
                finally:
                    if not clean:  # failure path: reap stray workers
                        for proc in (victim, survivor):
                            if proc is not None and proc.poll() is None:
                                proc.kill()
            if survivor is not None:
                # Once the coordinator socket closes the survivor exits 0.
                survivor.communicate(timeout=30)
                assert survivor.returncode == 0
            assert victim.returncode == -signal.SIGKILL

            result = outcome["result"]
            assert dict(result.payloads) == expected
            assert list(result.payloads) == spec.keys()
            # Digest-identical to an in-process serial execution.
            assert {
                key: payload_digest(payload) for key, payload in result.payloads.items()
            } == {key: payload_digest(payload) for key, payload in expected.items()}
            snapshot = backend.last_snapshot
            assert snapshot["reissues"] >= 1, "the victim's lease was never reissued"
            assert snapshot["completed"] == 6
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("distkill_jobs", None)


# ----------------------------------------------------------------------
# CLI surface of the new subcommands (no network needed)
# ----------------------------------------------------------------------
class TestCli:
    def test_worker_rejects_invalid_url(self, capsys):
        from repro.experiments.sweep.cli import main

        assert main(["worker", "--coordinator", "ftp://nope"]) == 2
        assert "invalid coordinator URL" in capsys.readouterr().out

    def test_coordinate_reports_a_figure_error(self, tmp_path):
        from repro.experiments.sweep.cli import main

        blocker = tmp_path / "file"
        blocker.write_text("")
        stream = io.StringIO()
        argv = ["coordinate", "overhead", "--no-cache", "--manifest-dir"]
        assert main([*argv, str(blocker / "m")], stream=stream) == 2
        last = stream.getvalue().splitlines()[-1]
        assert last.startswith("error: cannot create the manifest directory")

    def test_module_alias_dispatches(self):
        # python -m repro.experiments.sweep shares the experiments CLI.
        from repro.experiments.sweep import __main__ as alias
        from repro.experiments.sweep.cli import main

        assert alias.main is main
