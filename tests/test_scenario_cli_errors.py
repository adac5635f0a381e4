"""Error-path contract of the ``python -m repro.scenarios`` CLI.

Every user mistake — an unknown scenario name, a malformed ``--pretrained``
artifact, an invalid generation spec, a matrix with no models — must exit
non-zero with a single clear ``error: ...`` line on stderr and **no
traceback**.  These run as real subprocesses (the same way a user hits the
errors), so they also pin down the exit codes shell scripts and CI lanes
branch on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m repro.scenarios <args>`` as a user would."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "repro.scenarios", *args],
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_clean_error(completed: subprocess.CompletedProcess, *fragments: str):
    """One ``error:`` line on stderr, no traceback, non-zero exit."""
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
        assert fragment in error_lines[0], (
            f"{fragment!r} not in {error_lines[0]!r}"
        )


@pytest.mark.slow
class TestUnknownScenario:
    """Misspelled scenario names fail cleanly in every subcommand."""

    def test_describe_unknown_scenario(self):
        assert_clean_error(
            run_cli("describe", "no-such-scenario"), "no-such-scenario"
        )

    def test_run_unknown_scenario(self):
        assert_clean_error(
            run_cli("run", "no-such-scenario", "--no-cache"), "no-such-scenario"
        )

    def test_run_missing_scenario_file(self, tmp_path):
        assert_clean_error(
            run_cli("run", str(tmp_path / "missing.toml"), "--no-cache"),
            "missing.toml",
        )


class TestUnusableDirectory:
    def test_run_cache_dir_under_a_file(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert_clean_error(
            run_cli("run", "quickstart", "--cache-dir", str(blocker / "x")),
            "cannot create the result cache directory",
            str(blocker / "x"),
        )


@pytest.mark.slow
class TestMalformedPretrained:
    """Broken --pretrained artifacts fail before any simulation starts."""

    def test_pretrained_name_not_in_registry(self, tmp_path):
        completed = run_cli(
            "run",
            "quickstart",
            "--no-cache",
            "--pretrained",
            "no-such-model",
            "--models-dir",
            str(tmp_path),
        )
        assert_clean_error(completed, "no-such-model")

    def test_pretrained_file_is_not_an_artifact(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "not-an-artifact"}))
        completed = run_cli(
            "run", "quickstart", "--no-cache", "--pretrained", str(bogus)
        )
        assert_clean_error(completed)

    def test_pretrained_digest_tamper_is_detected(self, tmp_path):
        # Train a real artifact, then corrupt its digest-covered payload.
        env = {
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "REPRO_MODELS_DIR": str(tmp_path),
        }
        trained = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.models",
                "train",
                "quickstart",
                "--name",
                "tampered",
                "--training-iterations",
                "1",
                "--no-cache",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert trained.returncode == 0, trained.stderr
        artifact_path = tmp_path / "tampered.json"
        document = json.loads(artifact_path.read_text())
        document["payload"]["provenance"]["seed"] = 424242
        artifact_path.write_text(json.dumps(document))
        completed = run_cli(
            "run",
            "quickstart",
            "--no-cache",
            "--pretrained",
            "tampered",
            "--models-dir",
            str(tmp_path),
        )
        assert_clean_error(completed, "digest")


@pytest.mark.slow
class TestInvalidGenerationSpec:
    """Broken generation specs name the offending key, without tracebacks."""

    def test_generate_unknown_spec_key(self, tmp_path):
        spec = tmp_path / "spec.toml"
        spec.write_text("[topology]\ntilez = 3\n")
        assert_clean_error(run_cli("generate", "--spec", str(spec)), "tilez")

    def test_generate_empty_range(self, tmp_path):
        spec = tmp_path / "spec.toml"
        spec.write_text("[workload]\nphases = [4, 1]\n")
        assert_clean_error(
            run_cli("generate", "--spec", str(spec)), "[workload].phases"
        )

    def test_generate_invalid_toml(self, tmp_path):
        spec = tmp_path / "spec.toml"
        spec.write_text("[generation\n")
        assert_clean_error(run_cli("generate", "--spec", str(spec)), "invalid TOML")

    def test_generate_missing_spec_file(self, tmp_path):
        assert_clean_error(
            run_cli("generate", "--spec", str(tmp_path / "nope.toml")), "cannot read"
        )

    def test_generate_unknown_accelerator(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"workload": {"accelerators": ["Warp9"]}}))
        assert_clean_error(run_cli("generate", "--spec", str(spec)), "Warp9")


@pytest.mark.slow
class TestMatrixErrors:
    """The matrix subcommand validates its inputs before sweeping."""

    def test_matrix_without_models(self):
        assert_clean_error(
            run_cli("matrix", "--scenario", "quickstart", "--no-cache"),
            "--models",
        )

    def test_matrix_with_empty_registry(self, tmp_path):
        completed = run_cli(
            "matrix", "--all-models", "--models-dir", str(tmp_path), "--no-cache"
        )
        assert_clean_error(completed, "no models registered")

    def test_matrix_resume_without_cache(self, tmp_path):
        completed = run_cli(
            "matrix",
            "--all-models",
            "--models-dir",
            str(tmp_path),
            "--scenario",
            "quickstart",
            "--no-cache",
            "--resume",
        )
        assert_clean_error(completed, "--resume")
