"""Error-path contract of the ``python -m repro.models`` CLI.

The ``eval`` and ``train`` failure modes a user actually hits — an
empty or missing registry, an unknown ``--scenario`` target, a tampered
artifact failing its digest gate, a directory that cannot be created —
and those of ``python -m repro.serving serve|loadtest`` must exit with code 2 and a single
``error: ...`` line on stderr, never a traceback (the contract of
``tests/test_cli_contract.py``, checked by the same subprocess helpers); the
artifacts are built directly (seeded Q-table updates, no training sweep) so
the whole module stays fast.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from cli_harness import assert_clean_error, run_cli
from serving_harness import make_artifact

from repro.models.cli import main as models_main
from repro.models.registry import ModelRegistry
from repro.serving.cli import main as serving_main

run_models_cli = partial(run_cli, "repro.models")


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


class TestTrainFailsFast:
    """``train`` checks its registry directory before it trains."""

    def test_models_dir_under_a_file_trains_nothing(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")

        def train_artifact(*args, **kwargs):
            raise AssertionError("training ran before the registry directory was checked")

        monkeypatch.setattr("repro.models.train.train_artifact", train_artifact)
        code = models_main(
            ["train", "quickstart", "--models-dir", str(blocker / "m"), "--no-cache"]
        )
        assert code == 2
        assert "error: cannot write model 'quickstart'" in capsys.readouterr().err


class TestLoadtestFailsFast:
    """``serving loadtest`` checks its report destination and SLO before the load."""

    def test_out_under_a_file_drives_no_load(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")

        def run_load(*args, **kwargs):
            raise AssertionError("the load ran before the report destination was checked")

        monkeypatch.setattr("repro.serving.cli.run_load", run_load)
        code = serving_main(["loadtest", "--port", "1", "--out", str(blocker / "x.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and str(blocker) in captured.err

    @pytest.mark.parametrize(
        "baseline, expected",
        [
            (None, "cannot read SLO baseline"),
            ({"slo": {"default": {"p99_ms_max": 5.0}}}, "no SLO block for scale 'quick'"),
            ({"slo": {"quick": {"p99_typo": 5.0}}}, "unknown SLO keys: ['p99_typo']"),
        ],
        ids=["missing-file", "no-scale-block", "unknown-key"],
    )
    def test_unusable_slo_drives_no_load(
        self, tmp_path, monkeypatch, capsys, baseline, expected
    ):
        def run_load(*args, **kwargs):
            raise AssertionError("the load ran before the SLO baseline was checked")

        monkeypatch.setattr("repro.serving.cli.run_load", run_load)
        path = tmp_path / "BENCH_serving.json"
        if baseline is not None:
            path.write_text(json.dumps(baseline))
        code = serving_main(["loadtest", "--port", "1", "--slo", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and expected in line


@pytest.mark.slow
class TestTrainErrors:
    """A directory ``train`` cannot use fails cleanly, before training."""

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
        completed = run_cli("repro.serving", "serve", "ghost", "--models-dir", str(tmp_path))
        assert_clean_error(completed, "no model named", "ghost")

    def test_serving_cli_loadtest_unreachable_server(self):
        completed = run_cli(
            "repro.serving", "loadtest", "--port", "1", "--clients", "1", "--requests", "1"
        )
        # No server listens on port 1: a clean error, not a traceback.
        assert_clean_error(completed, "cannot reach the server")
