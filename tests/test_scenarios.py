"""Tests for the scenario registry, materialization, run path, and CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.sweep import ResultCache, RunConfig, SweepRunner
from repro.scenarios import (
    Scenario,
    all_scenarios,
    get_scenario,
    register,
    run_scenario,
    scenario_names,
    unregister,
)
from repro.scenarios.cli import main as cli_main
from repro.soc.config import soc_preset
from repro.units import KB
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec

#: Builtin scenarios the acceptance criteria call out.
REQUIRED_SCENARIOS = (
    # case studies
    "soc4-mixed",
    "soc5-autonomous",
    "soc6-vision",
    # ported examples
    "quickstart",
    "mode-exploration",
    "example-autonomous-driving",
    "example-computer-vision",
    "example-custom-traffic",
    # paper grid
    "soc0-streaming",
    "soc0-irregular",
    "soc1-mixed-traffic",
    "soc2-mixed-traffic",
    "soc3-mixed-traffic",
    # new frontier workloads
    "multi-tenant-inference",
    "streaming-dsp-chain",
    "v2v-burst-best-effort",
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_has_the_required_scenarios():
    """Discovery registers >= 11 scenarios including every required name."""
    names = scenario_names()
    assert len(names) >= 11
    for name in REQUIRED_SCENARIOS:
        assert name in names, f"missing builtin scenario {name}"


def test_unknown_scenario_raises_with_available_names():
    """A bad lookup lists what is available."""
    with pytest.raises(ConfigurationError, match="quickstart"):
        get_scenario("no-such-scenario")


def _dummy_scenario(name: str) -> Scenario:
    def config_factory():
        """Tiny SoC for registry tests."""
        return soc_preset("SoC1")

    def accelerator_factory(config, rng):
        """One FFT."""
        from repro.accelerators.library import accelerator_by_name

        return [accelerator_by_name("FFT")]

    def application_factory(setup, instance, rng):
        """One single-thread phase."""
        return ApplicationSpec(
            name=f"{name}-{instance}",
            phases=(
                PhaseSpec(
                    name="p0",
                    threads=(ThreadSpec("t0", ("FFT",), 32 * KB),),
                ),
            ),
        )

    return Scenario(
        name=name,
        title="dummy",
        description="dummy",
        config_factory=config_factory,
        accelerator_factory=accelerator_factory,
        application_factory=application_factory,
        policy_kinds=("fixed-non-coh-dma",),
        training_iterations=0,
    )


def test_register_duplicate_and_replace():
    """Duplicate names are rejected unless replace=True; unregister cleans up."""
    scenario = _dummy_scenario("test-dummy-scenario")
    try:
        register(scenario)
        with pytest.raises(ConfigurationError, match="already registered"):
            register(scenario)
        register(scenario, replace=True)
        assert get_scenario("test-dummy-scenario") is scenario
    finally:
        unregister("test-dummy-scenario")
    assert "test-dummy-scenario" not in scenario_names()


def test_scenario_validation():
    """Bad scenario definitions are rejected eagerly."""
    good = _dummy_scenario("validation-subject")
    import dataclasses

    with pytest.raises(ConfigurationError, match="whitespace"):
        dataclasses.replace(good, name="has space")
    with pytest.raises(ConfigurationError, match="unknown policy kinds"):
        dataclasses.replace(good, policy_kinds=("warp-speed",))
    with pytest.raises(ConfigurationError, match="training_iterations"):
        dataclasses.replace(good, training_iterations=-1)
    with pytest.raises(ConfigurationError, match="no policy kinds"):
        dataclasses.replace(good, policy_kinds=())


# ----------------------------------------------------------------------
# Materialization
# ----------------------------------------------------------------------

def test_every_builtin_scenario_materializes():
    """describe() (setup + test app, no simulation) works for all builtins."""
    for scenario in all_scenarios():
        description = scenario.describe()
        assert description["name"] == scenario.name
        assert description["application"]["total_invocations"] > 0
        assert description["soc"]["accelerators"] >= 1


def test_build_setup_is_deterministic():
    """Same seed => identical binding; the traffic scenarios vary by seed."""
    scenario = get_scenario("soc0-streaming")
    setup_a = scenario.build_setup(seed=3)
    setup_b = scenario.build_setup(seed=3)
    assert [d for d in setup_a.accelerators] == [d for d in setup_b.accelerators]
    setup_c = scenario.build_setup(seed=4)
    assert setup_a.accelerators != setup_c.accelerators


def test_training_and_testing_instances_differ():
    """Instance 0 (training) and 1 (testing) are distinct but deterministic."""
    for name in ("quickstart", "multi-tenant-inference", "soc1-mixed-traffic"):
        scenario = get_scenario(name)
        setup = scenario.build_setup()
        train_a, test_a = scenario.applications(setup)
        train_b, test_b = scenario.applications(setup)
        assert train_a == train_b and test_a == test_b
        assert train_a != test_a


def test_frontier_socs_are_off_the_paper_grid():
    """The new scenarios really use platforms Table 4 does not contain."""
    inference = get_scenario("multi-tenant-inference").build_config()
    assert inference.llc_partition_bytes == 1024 * KB  # paper max is 512 KB
    dsp = get_scenario("streaming-dsp-chain").build_config()
    assert dsp.num_mem_tiles == 1  # paper min is 2
    v2v = get_scenario("v2v-burst-best-effort").build_config()
    assert v2v.num_mem_tiles == 3  # paper uses 2 or 4
    assert v2v.accelerators_without_cache == (8, 9)


# ----------------------------------------------------------------------
# Run path (through the sweep runner)
# ----------------------------------------------------------------------

def test_run_scenario_caches_and_reruns_identically(tmp_path):
    """First run executes, rerun is all cache hits with identical payloads."""
    scenario = get_scenario("quickstart")
    runner = SweepRunner(config=RunConfig(workers=1, cache=ResultCache(tmp_path / "cache")))
    kinds = ("fixed-non-coh-dma", "manual")
    first = run_scenario(scenario, policy_kinds=kinds, training_iterations=0, runner=runner)
    assert first.executed == 2 and first.cache_hits == 0
    second = run_scenario(scenario, policy_kinds=kinds, training_iterations=0, runner=runner)
    assert second.executed == 0 and second.cache_hits == 2
    for kind in kinds:
        assert (
            first.evaluations[kind].to_dict() == second.evaluations[kind].to_dict()
        )


def test_run_scenario_seed_changes_fingerprint(tmp_path):
    """A different seed misses the cache and changes sampled workloads.

    streaming-dsp-chain draws its footprints from the seed-derived RNG, so
    unlike the hand-sized quickstart app its results are seed-sensitive.
    """
    scenario = get_scenario("streaming-dsp-chain")
    runner = SweepRunner(config=RunConfig(workers=1, cache=ResultCache(tmp_path / "cache")))
    kinds = ("fixed-non-coh-dma",)
    base = run_scenario(scenario, policy_kinds=kinds, training_iterations=0, runner=runner)
    other = run_scenario(
        scenario, policy_kinds=kinds, seed=99, training_iterations=0, runner=runner
    )
    assert other.cache_hits == 0 and other.executed == 1
    assert (
        base.evaluations[kinds[0]].result.total_execution_cycles
        != other.evaluations[kinds[0]].result.total_execution_cycles
    )


def test_run_scenario_report_and_normalized():
    """The run result renders a table and normalizes to the reference."""
    scenario = get_scenario("mode-exploration")
    result = run_scenario(
        scenario, policy_kinds=("fixed-non-coh-dma", "fixed-coh-dma"), training_iterations=0
    )
    table = result.normalized()
    assert table["fixed-non-coh-dma"]["exec"] == pytest.approx(1.0)
    report = result.report()
    assert "mode-exploration" in report and "fixed-coh-dma" in report


def test_run_file_scenario_resolves_source(tmp_path):
    """A file-based scenario runs through jobs that reload its source."""
    document = {
        "scenario": {
            "name": "file-run-demo",
            "policies": ["fixed-non-coh-dma"],
            "training_iterations": 0,
        },
        "soc": {"preset": "SoC1"},
        "accelerators": [{"name": "FFT"}],
        "application": {
            "phases": [
                {"name": "p0", "threads": [{"chain": ["FFT"], "footprint": 64 * KB}]}
            ]
        },
    }
    path = tmp_path / "file-run-demo.json"
    path.write_text(json.dumps(document))
    from repro.scenarios import load_scenario_file

    scenario = load_scenario_file(path)
    result = run_scenario(scenario)
    assert result.evaluations["fixed-non-coh-dma"].result.total_execution_cycles > 0


def test_editing_a_scenario_file_misses_the_cache(tmp_path):
    """An edited scenario definition can never be served a stale payload."""
    document = {
        "scenario": {
            "name": "edit-me",
            "policies": ["fixed-non-coh-dma"],
            "training_iterations": 0,
        },
        "soc": {"preset": "SoC1"},
        "accelerators": [{"name": "FFT"}],
        "application": {
            "phases": [
                {"name": "p0", "threads": [{"chain": ["FFT"], "footprint": 16 * KB}]}
            ]
        },
    }
    path = tmp_path / "edit-me.json"
    path.write_text(json.dumps(document))
    from repro.scenarios import load_scenario_file

    runner = SweepRunner(config=RunConfig(workers=1, cache=ResultCache(tmp_path / "cache")))
    first = run_scenario(load_scenario_file(path), runner=runner)
    assert first.executed == 1

    document["application"]["phases"][0]["threads"][0]["footprint"] = 2048 * KB
    path.write_text(json.dumps(document))
    second = run_scenario(load_scenario_file(path), runner=runner)
    assert second.cache_hits == 0 and second.executed == 1
    assert (
        second.evaluations["fixed-non-coh-dma"].result.total_execution_cycles
        != first.evaluations["fixed-non-coh-dma"].result.total_execution_cycles
    )


def test_cli_gallery_bad_root_exits_cleanly(tmp_path):
    """`gallery` with a root lacking README.md errors without a traceback."""
    assert cli_main(["gallery", "--check", "--root", str(tmp_path)], stream=io.StringIO()) == 2


@pytest.mark.slow
def test_run_scenario_parallel_matches_serial(tmp_path):
    """Worker count is a pure throughput knob for scenario runs too."""
    scenario = get_scenario("example-custom-traffic")
    serial = run_scenario(
        scenario, training_iterations=1, runner=SweepRunner(config=RunConfig(workers=1))
    )
    parallel = run_scenario(
        scenario, training_iterations=1, runner=SweepRunner(config=RunConfig(workers=4))
    )
    assert {k: v.to_dict() for k, v in serial.evaluations.items()} == {
        k: v.to_dict() for k, v in parallel.evaluations.items()
    }


@pytest.mark.slow
def test_run_frontier_scenario_end_to_end():
    """A frontier scenario completes across its full default policy set."""
    scenario = get_scenario("streaming-dsp-chain")
    result = run_scenario(scenario, training_iterations=1)
    assert set(result.evaluations) == set(scenario.policy_kinds)
    reference = result.evaluations["fixed-non-coh-dma"]
    assert reference.result.total_ddr_accesses > 0  # memory-bound by design


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_list_plain_and_markdown():
    """`list` renders every scenario; `--markdown` renders the table."""
    stream = io.StringIO()
    assert cli_main(["list"], stream=stream) == 0
    text = stream.getvalue()
    for name in REQUIRED_SCENARIOS:
        assert name in text
    stream = io.StringIO()
    assert cli_main(["list", "--markdown", "--category", "frontier"], stream=stream) == 0
    markdown = stream.getvalue()
    assert "| [`multi-tenant-inference`](#multi-tenant-inference) |" in markdown
    assert "quickstart" not in markdown


def test_cli_describe_text_and_json():
    """`describe` renders the materialized scenario, optionally as JSON."""
    stream = io.StringIO()
    assert cli_main(["describe", "v2v-burst-best-effort"], stream=stream) == 0
    assert "V2VSoC" in stream.getvalue()
    stream = io.StringIO()
    assert cli_main(["describe", "quickstart", "--json"], stream=stream) == 0
    description = json.loads(stream.getvalue())
    assert description["soc"]["name"] == "SoC1"


def test_cli_run_with_cache(tmp_path):
    """`run` completes through the runner and reports cache statistics."""
    cache_dir = str(tmp_path / "cli-cache")
    argv = [
        "run",
        "quickstart",
        "--workers",
        "1",
        "--cache-dir",
        cache_dir,
        "--training-iterations",
        "0",
        "--policies",
        "fixed-non-coh-dma,manual",
    ]
    stream = io.StringIO()
    assert cli_main(argv, stream=stream) == 0
    assert "executed=2 cache_hits=0" in stream.getvalue()
    stream = io.StringIO()
    assert cli_main(argv, stream=stream) == 0
    assert "executed=0 cache_hits=2" in stream.getvalue()


def test_cli_unknown_scenario_exits_nonzero():
    """Errors surface as exit code 2, not tracebacks."""
    assert cli_main(["describe", "no-such"], stream=io.StringIO()) == 2
