"""Manifest and resume tests, including the kill-and-resume crash contract.

The acceptance property: an interrupted sweep resumed with ``--resume``
produces results bit-identical to an uninterrupted run, re-executing only
the jobs the manifest does not record as complete.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import SweepError
from repro.experiments.sweep import (
    Job,
    ResultCache,
    RunConfig,
    SweepManifest,
    SweepRunner,
    SweepSpec,
    grid_digest,
    payload_digest,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _mul_job(params, rng):
    """Cheap deterministic job used by the unit-level tests."""
    return {"product": params["a"] * params["b"], "draw": rng.randint(0, 10**9)}


def _grid(n=6, name="grid", seed=3) -> SweepSpec:
    return SweepSpec(
        name=name,
        jobs=[
            Job(key=f"j{i}", fn=_mul_job, params={"a": i, "b": i + 1}, seed=seed)
            for i in range(n)
        ],
    )


class TestManifestFile:
    def test_open_writes_header_and_mark_done_appends(self, tmp_path):
        spec = _grid(n=3)
        manifest = SweepManifest.open(tmp_path, spec)
        lines = manifest.path.read_text().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["spec"] == "grid"
        assert [entry["key"] for entry in header["jobs"]] == spec.keys()

        payload = spec.jobs[0].execute()
        digest = manifest.mark_done(spec.jobs[0], payload)
        assert digest == payload_digest(payload)
        record = json.loads(manifest.path.read_text().splitlines()[1])
        assert record == {
            "kind": "result",
            "key": "j0",
            "fingerprint": spec.jobs[0].fingerprint(),
            "digest": digest,
        }

    def test_load_round_trips(self, tmp_path):
        spec = _grid(n=4)
        manifest = SweepManifest.open(tmp_path, spec)
        for job in spec.jobs[:2]:
            manifest.mark_done(job, job.execute())
        loaded = SweepManifest.load(manifest.path)
        assert loaded.spec_name == "grid"
        assert loaded.grid == manifest.grid
        assert loaded.grid_digest == manifest.grid_digest
        assert loaded.completed == manifest.completed
        assert [key for key, _ in loaded.pending()] == ["j2", "j3"]

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        spec = _grid(n=3)
        manifest = SweepManifest.open(tmp_path, spec)
        for job in spec.jobs[:2]:
            manifest.mark_done(job, job.execute())
        # Simulate a crash mid-write: chop the last record in half.
        text = manifest.path.read_text()
        manifest.path.write_text(text[: len(text) - 40])
        loaded = SweepManifest.load(manifest.path)
        assert set(loaded.completed) == {spec.jobs[0].fingerprint()}

    def test_grid_digest_is_order_insensitive(self):
        spec = _grid(n=5)
        grid = [(job.key, job.fingerprint()) for job in spec.jobs]
        assert grid_digest(grid) == grid_digest(list(reversed(grid)))
        other = _grid(n=5, seed=4)
        assert grid_digest(grid) != grid_digest(
            [(job.key, job.fingerprint()) for job in other.jobs]
        )

    def test_open_without_resume_truncates(self, tmp_path):
        spec = _grid(n=3)
        manifest = SweepManifest.open(tmp_path, spec)
        manifest.mark_done(spec.jobs[0], spec.jobs[0].execute())
        fresh = SweepManifest.open(tmp_path, spec, resume=False)
        assert fresh.completed == {}
        assert len(fresh.path.read_text().splitlines()) == 1

    def test_resume_against_a_different_grid_is_refused(self, tmp_path):
        spec = _grid(n=3)
        SweepManifest.open(tmp_path, spec)
        changed = _grid(n=3, seed=8)
        # Different seeds -> different fingerprints but the same file name
        # would only collide if the digest prefix matched; force the clash
        # by renaming the old manifest onto the new spec's path.
        old_path = SweepManifest.path_for(tmp_path, spec)
        new_path = SweepManifest.path_for(tmp_path, changed)
        os.replace(old_path, new_path)
        with pytest.raises(SweepError, match="different grid"):
            SweepManifest.open(tmp_path, changed, resume=True)


class TestRunnerResume:
    def test_resume_requires_cache_and_manifest_dir(self, tmp_path):
        with pytest.raises(SweepError, match="manifest_dir"):
            SweepRunner(config=RunConfig(resume=True, cache=ResultCache(tmp_path / "c")))
        with pytest.raises(SweepError, match="cache"):
            SweepRunner(config=RunConfig(resume=True, manifest_dir=tmp_path))

    def test_resume_skips_recorded_jobs_bit_identically(self, tmp_path):
        spec = _grid()
        cache = ResultCache(tmp_path / "cache")
        manifest_dir = tmp_path / "manifests"
        reference = SweepRunner(config=RunConfig(workers=1)).run(spec)

        # Interrupted run: only the first three jobs completed.
        partial = SweepManifest.open(manifest_dir, spec)
        for job in spec.jobs[:3]:
            payload = job.execute()
            cache.put(job.fingerprint(), job.key, payload)
            partial.mark_done(job, payload)

        resumed = SweepRunner(
            config=RunConfig(workers=1, cache=cache, manifest_dir=manifest_dir, resume=True)
        ).run(spec)
        assert resumed.resumed == 3
        assert resumed.executed == 3
        assert resumed.cache_hits == 0
        assert dict(resumed.payloads) == dict(reference.payloads)
        # The manifest now records the whole grid as complete.
        final = SweepManifest.load(SweepManifest.path_for(manifest_dir, spec))
        assert not final.pending()

    def test_resume_reexecutes_when_cached_payload_is_stale(self, tmp_path):
        spec = _grid(n=2)
        cache = ResultCache(tmp_path / "cache")
        manifest_dir = tmp_path / "manifests"
        manifest = SweepManifest.open(manifest_dir, spec)
        good = spec.jobs[0].execute()
        cache.put(spec.jobs[0].fingerprint(), "j0", good)
        manifest.mark_done(spec.jobs[0], good)
        # Corrupt the cached payload after the digest was recorded.
        cache.put(spec.jobs[0].fingerprint(), "j0", {"tampered": True})

        with pytest.warns(RuntimeWarning, match="missing or stale"):
            result = SweepRunner(
                config=RunConfig(workers=1, cache=cache, manifest_dir=manifest_dir, resume=True)
            ).run(spec)
        assert result.resumed == 0
        assert result.executed == 2
        assert result["j0"] == good  # re-executed, deterministically identical

    def test_manifest_written_without_resume_too(self, tmp_path):
        spec = _grid(n=3)
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(config=RunConfig(workers=1, cache=cache, manifest_dir=tmp_path / "m")).run(spec)
        manifest = SweepManifest.load(SweepManifest.path_for(tmp_path / "m", spec))
        assert not manifest.pending()

    def test_cache_hits_are_recorded_into_the_manifest(self, tmp_path):
        spec = _grid(n=3)
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(config=RunConfig(workers=1, cache=cache)).run(spec)  # warm the cache only
        result = SweepRunner(
            config=RunConfig(workers=1, cache=cache, manifest_dir=tmp_path / "m")
        ).run(spec)
        assert result.cache_hits == 3 and result.executed == 0
        manifest = SweepManifest.load(SweepManifest.path_for(tmp_path / "m", spec))
        assert not manifest.pending()


_JOB_MODULE = '''
"""Sleepy sweep jobs importable by the crash-resume subprocesses."""
import time


def slow_job(params, rng):
    """Sleep, then return a deterministic payload."""
    time.sleep(params["sleep"])
    return {"i": params["i"], "draw": rng.randint(0, 10**9)}
'''

_DRIVER = '''
"""Run (or resume) the crash-resume sweep and print its outcome as JSON."""
import json
import sys

import crashjobs

from repro.experiments.sweep import Job, ResultCache, RunConfig, SweepRunner, SweepSpec

cache_dir, manifest_dir, mode = sys.argv[1], sys.argv[2], sys.argv[3]
spec = SweepSpec(
    "crashy",
    [
        Job(key=f"j{i}", fn=crashjobs.slow_job,
            params={"i": i, "sleep": 0.15}, seed=9)
        for i in range(12)
    ],
)
runner = SweepRunner(config=RunConfig(
    workers=1,
    cache=ResultCache(cache_dir),
    manifest_dir=manifest_dir,
    resume=(mode == "resume"),
))
result = runner.run(spec)
print(json.dumps({
    "executed": result.executed,
    "resumed": result.resumed,
    "cache_hits": result.cache_hits,
    "payloads": dict(result.payloads),
}))
'''


class TestCrashResume:
    """Kill a sweep mid-run, ``--resume`` it, compare to an unbroken run."""

    def _run_driver(self, tmp_path, cache, manifests, mode):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, str(tmp_path)])
        return subprocess.Popen(
            [sys.executable, str(tmp_path / "driver.py"), cache, manifests, mode],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_killed_sweep_resumes_bit_identically(self, tmp_path):
        (tmp_path / "crashjobs.py").write_text(_JOB_MODULE)
        (tmp_path / "driver.py").write_text(_DRIVER)
        cache = str(tmp_path / "cache")
        manifests = str(tmp_path / "manifests")

        # 1. Start the sweep and kill it once >= 3 jobs are checkpointed.
        victim = self._run_driver(tmp_path, cache, manifests, "fresh")
        manifest_path = None
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if manifest_path is None:
                    candidates = list(Path(manifests).glob("*.manifest.jsonl"))
                    manifest_path = candidates[0] if candidates else None
                if manifest_path is not None and manifest_path.exists():
                    done = len(SweepManifest.load(manifest_path).completed)
                    if done >= 3:
                        break
                if victim.poll() is not None:  # pragma: no cover - too fast
                    pytest.skip("sweep finished before it could be killed")
                time.sleep(0.02)
            else:  # pragma: no cover - CI hang guard
                pytest.fail("sweep never checkpointed three jobs")
            victim.kill()
        finally:
            victim.wait(timeout=30)

        interrupted = SweepManifest.load(manifest_path)
        completed_before = len(interrupted.completed)
        assert 3 <= completed_before < 12

        # 2. Resume: only the unfinished jobs may execute.
        resume = self._run_driver(tmp_path, cache, manifests, "resume")
        out, err = resume.communicate(timeout=120)
        assert resume.returncode == 0, err
        resumed = json.loads(out)
        assert resumed["resumed"] == completed_before
        # A job killed between its cache write and its manifest record shows
        # up as a cache hit rather than a resume; either way it is not rerun.
        assert resumed["executed"] == 12 - completed_before - resumed["cache_hits"]

        # 3. An uninterrupted run in fresh directories is bit-identical.
        clean = self._run_driver(
            tmp_path, str(tmp_path / "cache2"), str(tmp_path / "manifests2"), "fresh"
        )
        out, err = clean.communicate(timeout=120)
        assert clean.returncode == 0, err
        reference = json.loads(out)
        assert resumed["payloads"] == reference["payloads"]
        assert json.dumps(resumed["payloads"], sort_keys=True) == json.dumps(
            reference["payloads"], sort_keys=True
        )
