"""Error-path contract of the ``python -m repro.tracking`` CLI.

The contract of ``tests/test_cli_contract.py``, checked by the same
helpers: every failure a user actually hits — an unconfigured or missing
document directory, an unknown run id, a corrupt manifest — must exit with
code 2 and a single ``error: ...`` line on stderr, never a traceback.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from cli_harness import assert_clean_error, run_cli

run_tracking_cli = partial(run_cli, "repro.tracking")


@pytest.mark.slow
class TestTrackingCliErrors:
    """The read verbs validate their inputs before printing anything."""

    def test_runs_without_a_manifest_dir(self):
        completed = run_tracking_cli("runs")
        assert_clean_error(completed, "no manifest directory", "--manifest-dir")

    def test_runs_with_a_missing_manifest_dir(self, tmp_path):
        completed = run_tracking_cli(
            "runs", "--manifest-dir", str(tmp_path / "never-created")
        )
        assert_clean_error(completed, "manifest directory", "does not exist")

    def test_run_with_an_unknown_id(self, tmp_path):
        completed = run_tracking_cli("run", "ghost", "--manifest-dir", str(tmp_path))
        assert_clean_error(completed, "no run", "ghost")

    def test_run_with_a_corrupt_manifest(self, tmp_path):
        (tmp_path / "broken.manifest.jsonl").write_text(
            json.dumps({"kind": "header", "version": 99, "spec": "s"}) + "\n"
        )
        completed = run_tracking_cli(
            "run", "broken", "--manifest-dir", str(tmp_path)
        )
        assert_clean_error(completed, "version 99")

    def test_models_with_a_missing_registry(self, tmp_path):
        completed = run_tracking_cli(
            "models", "--models-dir", str(tmp_path / "never-created")
        )
        assert_clean_error(completed, "models directory", "does not exist")

    def test_bench_without_a_bench_dir(self):
        completed = run_tracking_cli("bench")
        assert_clean_error(completed, "no bench directory", "--bench-dir")
