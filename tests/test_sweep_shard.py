"""Sharding and merge tests: partition properties, validation, fusion, CLI.

The hypothesis suite pins the three properties the CI matrix relies on:
for arbitrary grids and shard counts the fingerprint-hash partition is
disjoint, complete, and insensitive to grid order.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.experiments.sweep import (
    Job,
    MergeReport,
    ResultCache,
    ShardIncompleteError,
    RunConfig,
    ShardSpec,
    SweepManifest,
    SweepRunner,
    SweepSpec,
    discover_shard_manifests,
    merge_shards,
    payload_digest,
)
from repro.experiments.sweep.cli import main as cli_main
from repro.experiments.sweep.merge import fused_results
from repro.utils.rng import SeededRNG


def _mul_job(params, rng):
    """Cheap deterministic job used throughout these tests."""
    return {"product": params["a"] * params["b"], "draw": rng.randint(0, 10**9)}


def _grid(n=10, seed=3, name="grid") -> SweepSpec:
    return SweepSpec(
        name=name,
        jobs=[
            Job(key=f"j{i}", fn=_mul_job, params={"a": i, "b": i + 1}, seed=seed)
            for i in range(n)
        ],
    )


class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("2/3") == ShardSpec(index=2, count=3)
        assert ShardSpec.parse("1/1") == ShardSpec(index=1, count=1)

    @pytest.mark.parametrize("text", ["", "3", "0/3", "4/3", "a/b", "1/", "/3", "1/3/5"])
    def test_parse_rejects(self, text):
        with pytest.raises(SweepError):
            ShardSpec.parse(text)

    def test_label_round_trips(self):
        assert ShardSpec.parse(ShardSpec(2, 5).label) == ShardSpec(2, 5)

    def test_single_shard_owns_everything(self):
        spec = _grid()
        shard = ShardSpec(1, 1)
        assert all(shard.owns(job.fingerprint()) for job in spec.jobs)


#: Strategy for small but arbitrary grids: each element becomes one job
#: whose params (and therefore fingerprint) derive from the drawn values.
_grids = st.lists(
    st.tuples(st.integers(-(10**6), 10**6), st.text(max_size=8)),
    min_size=1,
    max_size=30,
    unique=True,
)


class TestPartitionProperties:
    @settings(max_examples=60, deadline=None)
    @given(values=_grids, count=st.integers(min_value=1, max_value=7))
    def test_partition_is_disjoint_and_complete(self, values, count):
        jobs = [
            Job(key=f"k{i}", fn=_mul_job, params={"a": a, "b": 2, "tag": tag}, seed=1)
            for i, (a, tag) in enumerate(values)
        ]
        shards = [ShardSpec(index, count) for index in range(1, count + 1)]
        by_shard = [
            [job.key for job in jobs if shard.owns(job.fingerprint())]
            for shard in shards
        ]
        # Disjoint: no job is in two shards; complete: every job is in one.
        assert sum(len(keys) for keys in by_shard) == len(jobs)
        assert {key for keys in by_shard for key in keys} == {job.key for job in jobs}

    @settings(max_examples=30, deadline=None)
    @given(
        values=_grids,
        count=st.integers(min_value=1, max_value=7),
        shuffle_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_partition_is_order_insensitive(self, values, count, shuffle_seed):
        jobs = [
            Job(key=f"k{i}", fn=_mul_job, params={"a": a, "b": 2, "tag": tag}, seed=1)
            for i, (a, tag) in enumerate(values)
        ]
        shuffled = list(jobs)
        SeededRNG(shuffle_seed).shuffle(shuffled)
        shards = [ShardSpec(index, count) for index in range(1, count + 1)]

        def owners(grid):
            # Fresh jobs, fingerprinted in one rendering pass over the grid.
            fresh = SweepSpec(name="grid", jobs=[replace(job) for job in grid])
            return {
                job.key: [shard.index for shard in shards if shard.owns(fingerprint)]
                for job, fingerprint in zip(grid, fresh.fingerprints())
            }

        assert owners(jobs) == owners(shuffled)


class TestShardedRunner:
    def test_sharded_run_executes_only_owned_jobs(self, tmp_path):
        spec = _grid()
        executed_keys = set()
        for index in (1, 2, 3):
            result = SweepRunner(
                config=RunConfig(
                    workers=1,
                    cache=ResultCache(tmp_path / f"cache-{index}"),
                    manifest_dir=tmp_path / f"manifests-{index}",
                    shard=ShardSpec(index, 3),
                )
            ).run(spec)
            keys = set(result.payloads)
            assert keys.isdisjoint(executed_keys)  # disjoint across shards
            executed_keys |= keys
            assert set(result.missing) == set(spec.keys()) - keys
        assert executed_keys == set(spec.keys())  # complete across shards

    def test_missing_key_raises_shard_incomplete(self, tmp_path):
        spec = _grid()
        result = SweepRunner(
            config=RunConfig(
                workers=1, cache=ResultCache(tmp_path / "cache"), shard=ShardSpec(1, 3)
            )
        ).run(spec)
        assert not result.complete
        with pytest.raises(ShardIncompleteError, match="merge-shards"):
            result[result.missing[0]]
        with pytest.raises(KeyError):
            result["never-a-key"]

    def test_warm_cache_fills_foreign_jobs(self, tmp_path):
        spec = _grid()
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(config=RunConfig(workers=1, cache=cache)).run(spec)  # warm everything
        result = SweepRunner(
            config=RunConfig(workers=1, cache=cache, shard=ShardSpec(2, 3))
        ).run(spec)
        assert result.complete
        assert result.executed == 0


def _run_shards(tmp_path, spec, count=3, cache_name="cache", manifests="manifests"):
    """Run every shard of ``spec`` against one shared cache/manifest dir."""
    cache = ResultCache(tmp_path / cache_name)
    for index in range(1, count + 1):
        SweepRunner(
            config=RunConfig(
                workers=1,
                cache=ResultCache(tmp_path / f"{cache_name}-{index}"),
                manifest_dir=tmp_path / manifests,
                shard=ShardSpec(index, count),
            )
        ).run(spec)
        # Fuse the per-shard caches the way CI's artifact download does.
        for fp in ResultCache(tmp_path / f"{cache_name}-{index}").fingerprints():
            source = ResultCache(tmp_path / f"{cache_name}-{index}")
            cache.put(fp, "merged", source.get(fp))
    return cache


class TestMergeShards:
    def test_merge_validates_and_fuses(self, tmp_path):
        spec = _grid()
        cache = _run_shards(tmp_path, spec)
        manifests = discover_shard_manifests(tmp_path / "manifests")
        assert len(manifests) == 3
        report = merge_shards(manifests, cache=cache)
        assert report.jobs == len(spec)
        assert [key for key, _ in report.per_job] == spec.keys()
        reference = SweepRunner(config=RunConfig(workers=1)).run(spec)
        assert dict(report.per_job) == {
            key: payload_digest(payload) for key, payload in reference.items()
        }
        # The fused manifest lets a resume run skip the whole grid.
        resumed = SweepRunner(
            config=RunConfig(
                workers=1, cache=cache, manifest_dir=tmp_path / "manifests", resume=True
            )
        ).run(spec)
        assert resumed.executed == 0 and resumed.resumed == len(spec)

    def test_merge_refuses_missing_shard(self, tmp_path):
        spec = _grid()
        _run_shards(tmp_path, spec)
        manifests = discover_shard_manifests(tmp_path / "manifests")
        incomplete = [m for m in manifests if m.shard.index != 2]
        with pytest.raises(SweepError, match=r"missing shard\(s\) \[2\]"):
            merge_shards(incomplete)

    def test_merge_refuses_incomplete_shard(self, tmp_path):
        spec = _grid()
        _run_shards(tmp_path, spec)
        manifests = discover_shard_manifests(tmp_path / "manifests")
        victim = next(m for m in manifests if len(m.completed) > 0)
        fingerprint = next(iter(victim.completed))
        del victim.completed[fingerprint]
        with pytest.raises(SweepError, match="incomplete"):
            merge_shards(manifests)

    def test_merge_refuses_mixed_grids(self, tmp_path):
        _run_shards(tmp_path, _grid(seed=3))
        _run_shards(tmp_path, _grid(seed=4), manifests="manifests")
        manifests = discover_shard_manifests(tmp_path / "manifests")
        with pytest.raises(SweepError, match="different grids"):
            merge_shards(manifests)

    def test_merge_refuses_digest_disagreement(self, tmp_path):
        spec = _grid()
        cache = _run_shards(tmp_path, spec)
        manifests = discover_shard_manifests(tmp_path / "manifests")
        # Shard 1 claims a different digest for a job shard 2 also recorded.
        donor = next(m for m in manifests if m.shard.index == 2 and m.completed)
        fingerprint = next(iter(donor.completed))
        receiver = next(m for m in manifests if m.shard.index == 1)
        receiver.completed[fingerprint] = "0" * 64
        with pytest.raises(SweepError, match="disagree"):
            merge_shards(manifests, cache=cache)

    def test_merge_detects_cache_tampering(self, tmp_path):
        spec = _grid()
        cache = _run_shards(tmp_path, spec)
        manifests = discover_shard_manifests(tmp_path / "manifests")
        fingerprint = next(iter(manifests[0].completed), None) or next(
            iter(manifests[1].completed)
        )
        cache.put(fingerprint, "tampered", {"tampered": True})
        with pytest.raises(SweepError, match="does not match"):
            merge_shards(manifests, cache=cache)

    def test_check_document_and_compare(self, tmp_path):
        spec = _grid()
        cache = _run_shards(tmp_path, spec)
        manifests = discover_shard_manifests(tmp_path / "manifests")
        report = merge_shards(manifests, cache=cache)
        document = report.check_document()
        assert document["jobs"] == len(spec)
        assert report.compare(document) == []
        tampered = json.loads(json.dumps(document))
        tampered["per_job"]["j0"] = "0" * 64
        tampered["checksum"] = "bogus"
        problems = report.compare(tampered)
        assert any("j0" in problem for problem in problems)
        assert any("checksum" in problem for problem in problems)

    def test_fused_results_contains_every_payload(self, tmp_path):
        spec = _grid()
        cache = _run_shards(tmp_path, spec)
        manifests = discover_shard_manifests(tmp_path / "manifests")
        report = merge_shards(manifests, cache=cache)
        document = fused_results(report, manifests, cache)
        reference = SweepRunner(config=RunConfig(workers=1)).run(spec)
        assert document["results"] == dict(reference.payloads)
        assert document["checksum"] == report.checksum


class TestMergeCli:
    def _shard_and_merge_args(self, tmp_path, spec):
        _run_shards(tmp_path, spec)
        return [
            "merge-shards",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--manifest-dir",
            str(tmp_path / "manifests"),
        ]

    def test_cli_merge_check_and_out(self, tmp_path):
        spec = _grid()
        args = self._shard_and_merge_args(tmp_path, spec)
        check_path = tmp_path / "check.json"
        out_path = tmp_path / "fused.json"
        stream = io.StringIO()
        assert (
            cli_main(
                args
                + ["--write-check", str(check_path), "--out", str(out_path)],
                stream=stream,
            )
            == 0
        )
        assert "[merge-shards]" in stream.getvalue()

        # The written check document gates a second merge run.
        stream = io.StringIO()
        assert cli_main(args + ["--check", str(check_path)], stream=stream) == 0
        assert "determinism check passed" in stream.getvalue()

        # Tampering with the expectation makes the gate fail.
        document = json.loads(check_path.read_text())
        document["checksum"] = "0" * 64
        check_path.write_text(json.dumps(document))
        stream = io.StringIO()
        assert cli_main(args + ["--check", str(check_path)], stream=stream) == 1
        assert "FAILED" in stream.getvalue()

        fused = json.loads(out_path.read_text())
        assert list(fused["results"]) == spec.keys()

    def test_cli_merge_reports_validation_failure(self, tmp_path, capsys):
        spec = _grid()
        args = self._shard_and_merge_args(tmp_path, spec)
        shard_files = sorted((tmp_path / "manifests").glob("*.shard2of3.*"))
        for path in shard_files:
            path.unlink()
        stream = io.StringIO()
        assert cli_main(args, stream=stream) == 2
        assert "missing shard" in capsys.readouterr().err

    def test_cli_merge_without_manifests_names_the_command_once(self, tmp_path, capsys):
        stream = io.StringIO()
        args = ["merge-shards", "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(args, stream=stream) == 2
        assert stream.getvalue() == ""
        assert capsys.readouterr().err == "error: no shard manifests found\n"

    @pytest.mark.parametrize(
        "option, target, expected",
        [
            ("--check", "absent.json", "does not exist"),
            ("--check", "list.json", "must be a JSON object"),
            ("--out", "directory", "Is a directory"),
            ("--write-check", "directory", "Is a directory"),
        ],
        ids=["check-missing", "check-not-an-object", "out-directory",
             "write-check-directory"],
    )
    def test_cli_merge_bad_file_is_a_one_line_error(
        self, tmp_path, capsys, option, target, expected
    ):
        args = self._shard_and_merge_args(tmp_path, _grid())
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "directory").mkdir()
        stream = io.StringIO()
        assert cli_main(args + [option, str(tmp_path / target)], stream=stream) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and expected in line
        assert "Traceback" not in stream.getvalue()

    def test_cli_shard_without_cache_is_an_error(self, capsys):
        stream = io.StringIO()
        assert cli_main(["socs", "--no-cache", "--shard", "1/3"], stream=stream) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_cli_resume_without_cache_is_an_error(self):
        stream = io.StringIO()
        assert cli_main(["socs", "--no-cache", "--resume"], stream=stream) == 2


class TestFigureCliErrors:
    """A directory the CLI cannot use is ``error: ...`` on stderr and exit 2."""

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--cache-dir"], "cannot create the result cache directory"),
            (["--no-cache", "--manifest-dir"], "cannot create the manifest directory"),
        ],
        ids=["cache-dir", "manifest-dir"],
    )
    def test_directory_under_a_file(self, tmp_path, capsys, flags, expected):
        blocker = tmp_path / "file"
        blocker.write_text("")
        stream = io.StringIO()
        argv = ["overhead", "--workers", "1", *flags, str(blocker / "sub")]
        assert cli_main(argv, stream=stream) == 2
        assert stream.getvalue() == ""
        error = capsys.readouterr().err
        assert error == f"error: {expected} {blocker / 'sub'}: Not a directory\n"

    def test_resume_over_a_manifest_without_header(self, tmp_path, capsys):
        argv = ["overhead", "--workers", "1", "--cache-dir", str(tmp_path)]
        assert cli_main(argv, stream=io.StringIO()) == 0
        (manifest,) = (tmp_path / "manifests").iterdir()
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("{}\n" + "".join(lines[1:]))
        stream = io.StringIO()
        assert cli_main(argv + ["--resume"], stream=stream) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "does not start with a header line" in error
        assert "[sweep]" not in stream.getvalue()


@pytest.mark.slow
class TestFigureShardAcceptance:
    """The CI sharded-lane pipeline, end to end, against the committed file.

    Mirrors ``.github/workflows/ci.yml``'s figure-shard/figure-merge jobs:
    run the quick-profile Figure 9 sweep split ``--shard i/3`` with isolated
    caches, fuse the artifacts, check the merged digests against
    ``benchmarks/results/SHARDS_fig9_quick.json``, and verify a ``--resume``
    over the merged cache executes nothing while printing the full report.
    """

    def test_sharded_fig9_matches_committed_checksums(self, tmp_path):
        from pathlib import Path

        committed = (
            Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "results"
            / "SHARDS_fig9_quick.json"
        )
        merged_cache = tmp_path / "merged"
        for index in (1, 2, 3):
            stream = io.StringIO()
            assert (
                cli_main(
                    [
                        "socs",
                        "--shard",
                        f"{index}/3",
                        "--workers",
                        "2",
                        "--cache-dir",
                        str(tmp_path / f"shard-{index}"),
                    ],
                    stream=stream,
                )
                == 0
            )
            # CI's artifact download fuses the shard directories; -n keeps
            # the first manifest when names collide (they never do).
            source = tmp_path / f"shard-{index}"
            for path in source.rglob("*"):
                if path.is_file():
                    target = merged_cache / path.relative_to(source)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    if not target.exists():
                        target.write_bytes(path.read_bytes())

        stream = io.StringIO()
        assert (
            cli_main(
                [
                    "merge-shards",
                    "--cache-dir",
                    str(merged_cache),
                    "--check",
                    str(committed),
                ],
                stream=stream,
            )
            == 0
        ), stream.getvalue()
        assert "determinism check passed" in stream.getvalue()

        stream = io.StringIO()
        assert (
            cli_main(
                [
                    "socs",
                    "--resume",
                    "--workers",
                    "1",
                    "--cache-dir",
                    str(merged_cache),
                ],
                stream=stream,
            )
            == 0
        )
        text = stream.getvalue()
        assert "executed=0" in text and "resumed=5" in text
        assert "Scenario" in text or "SoC" in text  # the real figure report
