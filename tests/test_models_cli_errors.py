"""Error-path contract of the ``python -m repro.models`` CLI.

The ``eval`` and ``train`` failure modes a user actually hits — an
empty or missing registry, an unknown ``--scenario`` target, a tampered
artifact failing its digest gate, a directory that cannot be created —
and those of ``python -m repro.serving serve`` must exit with code 2 and a single
``error: ...`` line on stderr, never a traceback.  Same subprocess
pattern as ``tests/test_scenario_cli_errors.py``; the artifacts are
built directly (seeded Q-table updates, no training sweep) so the whole
module stays fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from serving_harness import make_artifact

from repro.models.registry import ModelRegistry

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_models_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro.models <args>`` as a user would."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "repro.models", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_clean_error(completed: subprocess.CompletedProcess, *fragments: str):
    """One ``error:`` line on stderr, no traceback, exit code 2."""
    assert completed.returncode == 2, (
        f"expected exit code 2, got {completed.returncode}\n"
        f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
    )
    assert "Traceback" not in completed.stderr
    assert "Traceback" not in completed.stdout
    error_lines = [
        line for line in completed.stderr.splitlines() if line.startswith("error: ")
    ]
    assert len(error_lines) == 1, f"stderr:\n{completed.stderr}"
    for fragment in fragments:
        assert fragment in error_lines[0], f"{fragment!r} not in {error_lines[0]!r}"


@pytest.fixture
def toy_registry(tmp_path) -> ModelRegistry:
    """A registry holding one deterministic toy artifact named ``toy``."""
    registry = ModelRegistry(tmp_path / "models")
    registry.root.mkdir(parents=True)
    registry.save(make_artifact(name="toy"))
    return registry


@pytest.mark.slow
class TestEvalErrors:
    """``eval`` validates its inputs before any simulation starts."""

    def test_eval_with_missing_registry_dir(self, tmp_path):
        completed = run_models_cli(
            "eval",
            "ghost",
            "--no-cache",
            "--models-dir",
            str(tmp_path / "never-created"),
        )
        assert_clean_error(completed, "no model named", "ghost")

    def test_eval_unknown_model_in_existing_registry(self, toy_registry):
        completed = run_models_cli(
            "eval", "ghost", "--no-cache", "--models-dir", str(toy_registry.root)
        )
        assert_clean_error(completed, "ghost", "toy")

    def test_eval_unknown_scenario_override(self, toy_registry):
        completed = run_models_cli(
            "eval",
            "toy",
            "--scenario",
            "no-such-scenario",
            "--no-cache",
            "--models-dir",
            str(toy_registry.root),
        )
        assert_clean_error(completed, "no-such-scenario")

    def test_eval_digest_mismatch_after_tampering(self, toy_registry):
        path = toy_registry.path_for("toy")
        document = json.loads(path.read_text())
        document["payload"]["provenance"]["seed"] = 424242
        path.write_text(json.dumps(document))
        completed = run_models_cli(
            "eval", "toy", "--no-cache", "--models-dir", str(toy_registry.root)
        )
        assert_clean_error(completed, "digest")

    def test_eval_truncated_artifact_is_a_clean_error(self, toy_registry):
        path = toy_registry.path_for("toy")
        path.write_text(path.read_text()[: 100])
        completed = run_models_cli(
            "eval", "toy", "--no-cache", "--models-dir", str(toy_registry.root)
        )
        assert_clean_error(completed, "not valid JSON")


@pytest.mark.slow
class TestTrainErrors:
    """A directory ``train`` cannot use fails cleanly, before or after training."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        return path

    def test_cache_dir_under_a_file(self, blocker):
        completed = run_models_cli(
            "train", "quickstart", "--cache-dir", str(blocker / "x")
        )
        assert_clean_error(completed, "cannot create the result cache directory")

    def test_models_dir_under_a_file(self, blocker):
        completed = run_models_cli(
            "train", "quickstart", "--models-dir", str(blocker / "m"),
            "--training-iterations", "1", "--no-cache", "--workers", "1",
        )
        assert_clean_error(completed, "cannot write model 'quickstart'")


class TestDescribeAndServeErrors:
    """The read-only verbs share the same clean-error contract."""

    def test_describe_unknown_model(self, tmp_path):
        completed = run_models_cli(
            "describe", "ghost", "--models-dir", str(tmp_path)
        )
        assert_clean_error(completed, "ghost")

    def test_serving_cli_serve_unknown_model(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.serving",
                "serve",
                "ghost",
                "--models-dir",
                str(tmp_path),
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert_clean_error(completed, "no model named", "ghost")

    def test_serving_cli_loadtest_unreachable_server(self):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.serving",
                "loadtest",
                "--port",
                "1",
                "--clients",
                "1",
                "--requests",
                "1",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        # No server listens on port 1: a clean error, not a traceback.
        assert_clean_error(completed, "cannot reach the server")
