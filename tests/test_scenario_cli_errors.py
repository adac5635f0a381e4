"""Error-path contract of the ``python -m repro.scenarios`` CLI.

Every user mistake — an unknown scenario name, a malformed ``--pretrained``
artifact, an invalid generation spec, a matrix with no models — must exit
with code 2 and a single clear ``error: ...`` line on stderr and **no
traceback** (the contract of ``tests/test_cli_contract.py``, checked by the
same helpers).  These run as real subprocesses (the same way a user hits
the errors), so they also pin down the exit codes shell scripts and CI
lanes branch on.  Only ``TestOutputsFailFast`` runs in process, because it
patches the command's work to raise.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from cli_harness import assert_clean_error, run_cli as run_entry_point
from serving_harness import make_artifact

from repro.models.registry import ModelRegistry
from repro.scenarios.cli import main as scenarios_main

run_cli = partial(run_entry_point, "repro.scenarios")


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


class TestOutputsFailFast:
    """An output under a regular file fails before any scenario is generated
    or evaluated; the work is patched to raise, so reaching it fails."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        return path

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the command worked before it checked its output")

    @pytest.mark.parametrize("flag", ["--out", "--digests"])
    def test_generate_output_under_a_file(self, blocker, flag, monkeypatch, capsys):
        monkeypatch.setattr("repro.scenarios.generate.generate_scenarios", self.refuse)
        code = scenarios_main(["generate", "--count", "2", flag, str(blocker / "x")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and str(blocker) in captured.err

    def test_matrix_out_under_a_file(self, blocker, tmp_path, monkeypatch, capsys):
        registry = ModelRegistry(tmp_path / "models")
        registry.root.mkdir()
        registry.save(make_artifact(name="toy"))
        monkeypatch.setattr("repro.models.transfer_matrix", self.refuse)
        code = scenarios_main(
            [
                "matrix", "--models", "toy", "--models-dir", str(registry.root),
                "--scenario", "quickstart", "--no-cache", "--out", str(blocker / "x.json"),
            ]
        )
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and str(blocker) in captured.err


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
        trained = run_entry_point(
            "repro.models",
            "train",
            "quickstart",
            "--name",
            "tampered",
            "--training-iterations",
            "1",
            "--no-cache",
            env={"REPRO_MODELS_DIR": str(tmp_path)},
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
