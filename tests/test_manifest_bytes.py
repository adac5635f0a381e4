"""Byte pins of the sweep-manifest writer.

``--resume``, ``merge-shards`` and the tracking API all read the JSONL
manifests, and the tracking API serves each file's raw SHA-256.  These
pins hold the exact bytes (and file names) the writer produces for one
small grid, so a refactor of the manifest code cannot move them:

* a fresh ``SweepManifest.open`` followed by two ``mark_done`` calls;
* a resumed ``open`` of that file after a crash left a truncated line;
* the fused manifest ``merge_shards`` writes for a complete two-shard
  family of the same grid.

The jobs are never executed: ``mark_done`` is given fixed payloads, so
the pins depend only on the manifest format, the job fingerprints and
the payload digest.
"""

from __future__ import annotations

import hashlib

from repro.experiments.isolation import _isolation_job
from repro.experiments.sweep import (
    Job,
    ShardSpec,
    SweepManifest,
    SweepSpec,
    discover_shard_manifests,
    merge_shards,
)


#: The whole-grid manifest's file name: the spec name made filesystem-safe
#: and the first 12 hex digits of the grid digest.
NAME = "bytes_pin_v1-b3a4114f9b13.manifest.jsonl"


def _spec() -> SweepSpec:
    return SweepSpec(
        name="bytes pin/v1",
        jobs=[
            Job(key=f"j{i}", fn=_isolation_job, params={"i": i}, seed=7)
            for i in range(6)
        ],
    )


def _payload(job: Job) -> dict:
    return {"key": job.key, "value": len(job.key) * 1.5}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestManifestBytes:
    def test_open_and_mark_done(self, tmp_path):
        spec = _spec()
        manifest = SweepManifest.open(tmp_path, spec)
        for job in (spec.jobs[4], spec.jobs[1]):
            manifest.mark_done(job, _payload(job))
        assert manifest.path.name == NAME
        assert _sha256(manifest.path) == (
            "2063c205fdc767069595f5a16bfe94ae0c94fc8a1744fcb7bad3516e29eb6a7e"
        )

    def test_resumed_open(self, tmp_path):
        spec = _spec()
        manifest = SweepManifest.open(tmp_path, spec)
        for job in (spec.jobs[4], spec.jobs[1]):
            manifest.mark_done(job, _payload(job))
        with manifest.path.open("a") as handle:
            handle.write('{"kind": "result", "fingerprint": "')
        resumed = SweepManifest.open(tmp_path, spec, resume=True)
        assert resumed.path == manifest.path
        assert _sha256(resumed.path) == (
            "edb819cb1e1d0e0da3c1b2594c3fabae836935a48762bd0785222428bdf40839"
        )

    def test_fused_manifest_of_two_shards(self, tmp_path):
        spec = _spec()
        for index in (1, 2):
            shard = ShardSpec(index, 2)
            manifest = SweepManifest.open(tmp_path, spec, shard=shard)
            for job in spec.jobs:
                if shard.owns(job.fingerprint()):
                    manifest.mark_done(job, _payload(job))
        report = merge_shards(discover_shard_manifests(tmp_path))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            NAME,
            NAME.replace(".manifest", ".shard1of2.manifest"),
            NAME.replace(".manifest", ".shard2of2.manifest"),
        ]
        assert report.merged_manifest == SweepManifest.path_for(tmp_path, spec)
        assert _sha256(report.merged_manifest) == (
            "80ee578d9e161122263e0cec514a9ea10294a0184822e194e7e7ae4983c653db"
        )
