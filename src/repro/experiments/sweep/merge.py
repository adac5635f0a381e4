"""Fusing shard manifests back into one complete, verified result set.

``merge-shards`` is the second half of the sharding contract: N CI jobs
each run ``--shard i/N`` against their own cache, upload the cache and
manifest directories, and a final job calls :func:`merge_shards` over the
downloaded pile.  The merge refuses to produce a result set unless the
shards provably cover the grid:

* every manifest describes the **same grid** (same spec name and grid
  digest) and the **same shard count**;
* the shard indices form the **complete set** ``1..N`` with no duplicates;
* every shard has a completion record for **every job it owns** under the
  fingerprint-hash partition (disjointness is inherent in the partition;
  a job two shards both executed — via warm caches — must have **agreeing
  digests**, a free cross-shard determinism check);
* every payload is **present in the cache and byte-identical** to the
  digest its shard recorded.

On success the merge writes a fused (shard-free) manifest, so a subsequent
``--resume`` run over the merged cache skips every job, and returns a
:class:`MergeReport` whose ``checksum`` digests the per-job payload
digests in grid order — the value the CI determinism gate compares against
the committed expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SweepError
from repro.experiments.sweep.cache import ResultCache
from repro.experiments.sweep.manifest import (
    MANIFEST_SUFFIX,
    SweepManifest,
    payload_digest,
)
from repro.experiments.sweep.shard import ShardSpec
from repro.store.io import canonical_digest


@dataclass
class MergeReport:
    """Outcome of one successful :func:`merge_shards` call."""

    spec_name: str
    grid_digest: str
    shard_count: int
    #: ``(key, digest)`` pairs in grid order — the merged result identity.
    per_job: List[Tuple[str, str]] = field(default_factory=list)
    #: Path of the fused manifest written next to the shard manifests.
    merged_manifest: Optional[Path] = None

    @property
    def jobs(self) -> int:
        """Number of jobs in the merged grid."""
        return len(self.per_job)

    @property
    def checksum(self) -> str:
        """SHA-256 over the per-job digests in grid order."""
        return canonical_digest([[key, digest] for key, digest in self.per_job])

    def check_document(self) -> Dict[str, object]:
        """The JSON document the CI determinism gate commits and compares."""
        return {
            "spec": self.spec_name,
            "grid_digest": self.grid_digest,
            "jobs": self.jobs,
            "checksum": self.checksum,
            "per_job": {key: digest for key, digest in self.per_job},
        }

    def compare(self, expected: Dict[str, object]) -> List[str]:
        """Differences between this merge and a committed check document."""
        actual = self.check_document()
        problems: List[str] = []
        for field_name in ("spec", "grid_digest", "jobs", "checksum"):
            if actual[field_name] != expected.get(field_name):
                problems.append(
                    f"{field_name}: expected {expected.get(field_name)!r}, "
                    f"got {actual[field_name]!r}"
                )
        expected_jobs = expected.get("per_job")
        if isinstance(expected_jobs, dict):
            for key, digest in actual["per_job"].items():  # type: ignore[union-attr]
                want = expected_jobs.get(key)
                if want != digest:
                    problems.append(
                        f"job {key!r}: expected digest {want!r}, got {digest!r}"
                    )
            for key in expected_jobs:
                if key not in actual["per_job"]:  # type: ignore[operator]
                    problems.append(f"job {key!r}: missing from merged results")
        return problems


def discover_shard_manifests(
    directory: Union[str, Path], spec_name: Optional[str] = None
) -> List[SweepManifest]:
    """Load every shard manifest under ``directory`` (optionally one spec's).

    Merged (shard-free) manifests are ignored, so a merge can be re-run
    over a directory that already contains its own output.
    """
    manifests = []
    for path in sorted(Path(directory).glob(f"*{MANIFEST_SUFFIX}")):
        manifest = SweepManifest.load(path)
        if manifest.shard is None:
            continue
        if spec_name is not None and manifest.spec_name != spec_name:
            continue
        manifests.append(manifest)
    return manifests


def _validate_shard_set(manifests: Sequence[SweepManifest]) -> int:
    """Check the manifests form one complete shard family; return its count."""
    if not manifests:
        raise SweepError("no shard manifests found")
    names = {manifest.spec_name for manifest in manifests}
    if len(names) > 1:
        raise SweepError(
            f"manifests span multiple sweeps {sorted(names)}; "
            "pass --spec to select one"
        )
    digests = {manifest.grid_digest for manifest in manifests}
    if len(digests) > 1:
        raise SweepError(
            "manifests describe different grids "
            f"({len(digests)} distinct grid digests); shards must come from "
            "identical sweep invocations"
        )
    counts = {manifest.shard.count for manifest in manifests}  # type: ignore[union-attr]
    if len(counts) > 1:
        raise SweepError(
            f"inconsistent shard counts {sorted(counts)}"
        )
    count = counts.pop()
    indices = sorted(manifest.shard.index for manifest in manifests)  # type: ignore[union-attr]
    if len(indices) != len(set(indices)):
        raise SweepError(f"duplicate shard indices {indices}")
    missing = sorted(set(range(1, count + 1)) - set(indices))
    if missing:
        raise SweepError(
            f"missing shard(s) {missing} of {count}; "
            f"found indices {indices}"
        )
    return count


def merge_shards(
    manifests: Sequence[SweepManifest],
    cache: Optional[ResultCache] = None,
    out_dir: Optional[Union[str, Path]] = None,
) -> MergeReport:
    """Validate a complete shard family and fuse it into one result set.

    ``cache`` (when given) is the merged payload store the fused results
    are verified against, byte for byte.  ``out_dir`` (default: the
    directory of the first manifest) receives the fused manifest.
    """
    count = _validate_shard_set(manifests)
    ordered = sorted(manifests, key=lambda manifest: manifest.shard.index)  # type: ignore[union-attr]
    first = ordered[0]
    grid = first.grid
    keys = first.keys_by_fingerprint

    merged: Dict[str, str] = {}
    problems: List[str] = []
    for manifest in ordered:
        owner = ShardSpec(index=manifest.shard.index, count=count)  # type: ignore[union-attr]
        owned = [fp for _, fp in grid if owner.owns(fp)]
        missing = [fp for fp in owned if fp not in manifest.completed]
        if missing:
            problems.append(
                f"shard {owner.label} is incomplete: missing "
                f"{len(missing)}/{len(owned)} owned job(s) "
                f"({', '.join(sorted(keys[fp] for fp in missing))})"
            )
        for fingerprint, digest in manifest.completed.items():
            previous = merged.get(fingerprint)
            if previous is not None and previous != digest:
                problems.append(
                    f"job {keys.get(fingerprint, fingerprint)!r}: shards disagree "
                    f"on the payload digest ({previous[:12]}… vs {digest[:12]}…)"
                )
            merged[fingerprint] = digest
    uncovered = [keys[fp] for _, fp in grid if fp not in merged]
    if uncovered:
        problems.append(
            f"{len(uncovered)} job(s) completed by no shard: {sorted(uncovered)}"
        )
    if cache is not None and not problems:
        for key, fingerprint in grid:
            payload = cache.get(fingerprint)
            if payload is None:
                problems.append(f"job {key!r}: payload missing from the cache")
            elif payload_digest(payload) != merged[fingerprint]:
                problems.append(
                    f"job {key!r}: cached payload does not match the digest "
                    "its shard recorded"
                )
    if problems:
        raise SweepError(
            "shards failed validation:\n  - " + "\n  - ".join(problems)
        )

    report = MergeReport(
        spec_name=first.spec_name,
        grid_digest=first.grid_digest,
        shard_count=count,
        per_job=[(key, merged[fingerprint]) for key, fingerprint in grid],
    )
    directory = Path(out_dir) if out_dir is not None else first.path.parent
    # The whole grid's canonical location: the manifest a subsequent
    # --resume run of the same grid finds.
    fused = SweepManifest(
        path=SweepManifest.grid_path(directory, first.spec_name, report.grid_digest),
        spec_name=first.spec_name,
        grid=list(grid),
        completed=merged,
    )
    fused._rewrite()
    report.merged_manifest = fused.path
    return report


def fused_results(
    report: MergeReport, manifests: Sequence[SweepManifest], cache: ResultCache
) -> Dict[str, object]:
    """Full merged results document (payloads included), in grid order."""
    ordered = sorted(manifests, key=lambda manifest: manifest.shard.index)  # type: ignore[union-attr]
    results: Dict[str, Dict[str, object]] = {}
    for key, fingerprint in ordered[0].grid:
        payload = cache.get(fingerprint)
        if payload is None:
            raise SweepError(f"job {key!r}: payload missing from the cache")
        results[key] = payload
    return {
        "spec": report.spec_name,
        "grid_digest": report.grid_digest,
        "checksum": report.checksum,
        "results": results,
    }
