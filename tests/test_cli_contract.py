"""One failure contract for every ``python -m repro.*`` entry point.

Each entry point fails through :func:`repro.cli.run_command`: an error is
exactly one ``error: `` line on stderr, no error text on stdout, no
traceback, and exit code 2 (see :func:`cli_harness.assert_clean_error`).
The cases run as subprocesses, as a user or a CI script meets them; the
per-command error cases live beside their command's other tests, in
tests/test_{models,scenario,tracking}_cli_errors.py.  A check that ran and
failed exits 1 instead: ``merge-shards --check`` in tests/test_sweep_shard.py
and ``perf compare`` in tests/test_perf_harness.py.
"""

from __future__ import annotations

import pytest

from cli_harness import assert_clean_error, run_cli
from serving_harness import make_artifact

from repro.models.registry import ModelRegistry

#: Per case: the entry point, its arguments and a fragment of the error
#: line.  ``{tmp}`` is an empty directory, ``{file}`` a regular file in it
#: and ``{models}`` a registry holding one model, ``toy``.
CASES = [
    pytest.param(
        "repro.experiments",
        ["coordinate", "socs", "--lease-timeout", "0"],
        "--lease-timeout",
        id="experiments-coordinate-lease-timeout",
    ),
    pytest.param(
        "repro.experiments",
        ["overhead", "--workers", "1", "--cache-dir", "{file}/x"],
        "cannot create the result cache directory",
        id="experiments-cache-dir-under-a-file",
    ),
    pytest.param(
        "repro.experiments",
        ["merge-shards", "--cache-dir", "{tmp}/cache"],
        "no shard manifests found",
        id="experiments-merge-shards-without-manifests",
    ),
    pytest.param(
        "repro.experiments.sweep",
        ["worker", "--coordinator", "http://127.0.0.1:1", "--poll", "-1"],
        "--poll",
        id="sweep-worker-negative-poll",
    ),
    pytest.param(
        "repro.experiments.sweep",
        ["worker", "--coordinator", "http://127.0.0.1:1", "--grace", "-5"],
        "--grace",
        id="sweep-worker-negative-grace",
    ),
    pytest.param(
        "repro.experiments.sweep",
        ["worker", "--coordinator", "ftp://nope"],
        "invalid coordinator URL",
        id="sweep-worker-invalid-url",
    ),
    pytest.param(
        "repro.perf",
        ["run", "--quick", "--only", "engine_events", "--out", "{file}/x.json"],
        "{file}",
        id="perf-run-out-under-a-file",
    ),
    pytest.param(
        "repro.perf",
        ["compare", "{tmp}/a.json", "{tmp}/b.json"],
        "does not exist",
        id="perf-compare-missing-reports",
    ),
    pytest.param(
        "repro.models",
        ["export", "toy", "--models-dir", "{models}", "--out", "{file}/x.json"],
        "{file}",
        id="models-export-out-under-a-file",
    ),
    pytest.param(
        "repro.scenarios",
        ["run", "quickstart", "--workers", "0"],
        "--workers",
        id="scenarios-run-zero-workers",
    ),
    pytest.param(
        "repro.serving",
        ["serve", "ghost", "--models-dir", "{models}"],
        "ghost",
        id="serving-serve-unknown-model",
    ),
    pytest.param(
        "repro.tracking",
        ["bench", "--bench-dir", "{tmp}/none"],
        "does not exist",
        id="tracking-bench-missing-dir",
    ),
]


@pytest.mark.parametrize("entry, args, fragment", CASES)
def test_an_error_is_one_line_and_exit_code_2(tmp_path, entry, args, fragment):
    blocker = tmp_path / "file"
    blocker.write_text("")
    models = ModelRegistry(tmp_path / "models")
    models.root.mkdir()
    models.save(make_artifact(name="toy"))
    paths = {"tmp": tmp_path, "file": blocker, "models": models.root}
    completed = run_cli(entry, *(arg.format(**paths) for arg in args))
    assert_clean_error(completed, fragment.format(**paths))
