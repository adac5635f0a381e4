"""Property tests for procedural scenario generation.

The contract under test (see ``repro/scenarios/generate/__init__.py``):

* **validity** — for *arbitrary* valid :class:`GenerationSpec` values,
  every generated scenario passes the scenario-file loader's validation
  and assembles into a runnable SoC with a training/testing application
  pair;
* **determinism** — the same (spec, seed) yields byte-identical TOML and
  JSON exports and equal content digests; different seeds yield distinct
  digests; the generated fleet is invariant under the requested count;
* **integration** — generated scenarios run through the sweep runner
  bit-identically on the serial backend and the process pool at any
  worker count, with identical job fingerprints (the cache-correctness
  backbone), and three seeds' payloads are pinned to golden digests.

Hypothesis draws the specs; the ranges are kept deliberately small so
each sampled scenario simulates in milliseconds.
"""

from __future__ import annotations

import dataclasses
import json
import tomllib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators.library import accelerator_names
from repro.errors import ConfigurationError
from repro.experiments.sweep import Job, ResultCache, RunConfig, SweepRunner
from repro.scenarios.generate import (
    GenerationSpec,
    NonStationarySpec,
    TopologySpec,
    WorkloadSpec,
    document_json,
    document_toml,
    generate_scenario,
    generate_scenarios,
    generation_spec_from_mapping,
    load_generation_spec,
    scenario_from_generated,
    spec_digest,
    spec_to_mapping,
)
from repro.scenarios.run import (
    _scenario_policy_job,
    resolve_scenario,
    run_scenario,
    scenario_definition_digest,
    scenario_job_params,
)
from repro.store.io import canonical_digest
from repro.units import KB


# ----------------------------------------------------------------------
# Spec strategy
# ----------------------------------------------------------------------

def _range(lo: int, hi: int):
    """An inclusive [a, b] sub-range of [lo, hi], as hypothesis draws it."""
    return (
        st.tuples(st.integers(lo, hi), st.integers(lo, hi))
        .map(sorted)
        .map(tuple)
    )


@st.composite
def gen_specs(draw) -> GenerationSpec:
    """Arbitrary *valid* generation specs over a quick-to-simulate space."""
    names = accelerator_names()
    pool = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
    )
    classes = draw(
        st.lists(st.sampled_from(["S", "M", "L", "XL"]), min_size=1, max_size=3, unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(0.1, 2.0, allow_nan=False),
            min_size=len(classes),
            max_size=len(classes),
        )
    )
    return GenerationSpec(
        name_prefix=draw(st.sampled_from(["gen", "fleet", "x1"])),
        count=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**20)),
        topology=TopologySpec(
            tiles=draw(_range(1, 4)),
            cpus=draw(_range(1, 2)),
            mem_tiles=draw(_range(1, 2)),
            llc_partition_bytes=draw(_range(32 * KB, 128 * KB)),
            l2_bytes=draw(_range(4 * KB, 16 * KB)),
            cacheless_probability=draw(st.sampled_from([0.0, 0.3, 1.0])),
        ),
        workload=WorkloadSpec(
            accelerators=tuple(pool),
            phases=draw(_range(1, 2)),
            threads=draw(_range(1, 2)),
            chain=draw(_range(1, 2)),
            loops=draw(_range(1, 1)),
            size_classes=tuple(classes),
            size_weights=tuple(weights),
        ),
        nonstationary=NonStationarySpec(
            phase_shift_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
            burst_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
            burst_threads=draw(_range(2, 4)),
        ),
        training_iterations=1,
    )


# ----------------------------------------------------------------------
# Validity: every generated scenario is a first-class registry citizen
# ----------------------------------------------------------------------

class TestValidity:
    """Arbitrary specs generate loader-valid, runnable scenarios."""

    @given(gen_specs())
    @settings(max_examples=25, deadline=None)
    def test_generated_scenarios_pass_loader_validation_and_assemble(self, spec):
        for item in generate_scenarios(spec):
            # .scenario() routes the document through load_scenario_mapping,
            # i.e. the same validation path as on-disk scenario files.
            scenario = item.scenario()
            assert scenario.name == item.name
            setup = scenario.build_setup()
            assert 1 <= len(setup.accelerators) <= setup.soc_config.num_accelerator_tiles
            training_app, test_app = scenario.applications(setup)
            assert training_app.name != test_app.name
            assert training_app.phases and test_app.phases
            for app in (training_app, test_app):
                for phase in app.phases:
                    assert phase.threads

    @given(gen_specs())
    @settings(max_examples=10, deadline=None)
    def test_generated_metadata_regenerates_the_same_scenario(self, spec):
        item = generate_scenario(spec, index=0)
        scenario = item.scenario()
        regenerated = scenario_from_generated(scenario.metadata["generated"])
        assert regenerated.name == scenario.name
        assert scenario_definition_digest(regenerated) == scenario_definition_digest(
            scenario
        )


# ----------------------------------------------------------------------
# Determinism and digests
# ----------------------------------------------------------------------

class TestDeterminism:
    """Generation is a pure function of (spec, seed)."""

    @given(gen_specs())
    @settings(max_examples=25, deadline=None)
    def test_same_spec_and_seed_is_byte_identical(self, spec):
        first = generate_scenario(spec, index=0)
        # Round-trip the spec through its file format to rule out any
        # in-memory state: a re-parsed spec must generate identical bytes.
        reparsed = generation_spec_from_mapping(spec_to_mapping(spec))
        assert reparsed == spec
        second = generate_scenario(reparsed, index=0)
        assert first.document == second.document
        assert first.digest == second.digest
        assert document_toml(first.document) == document_toml(second.document)
        assert document_json(first.document) == document_json(second.document)

    @given(gen_specs())
    @settings(max_examples=25, deadline=None)
    def test_different_seeds_give_distinct_digests(self, spec):
        other = dataclasses.replace(spec, seed=spec.seed + 1)
        assert generate_scenario(spec).digest != generate_scenario(other).digest
        assert spec_digest(spec) != spec_digest(other)

    @given(gen_specs())
    @settings(max_examples=15, deadline=None)
    def test_fleet_is_count_invariant(self, spec):
        # Asking for more scenarios must not change the earlier ones:
        # the count is a harvest size, not part of any scenario's identity.
        small = generate_scenarios(spec, count=1)
        large = generate_scenarios(spec, count=3)
        assert [g.digest for g in large][: len(small)] == [g.digest for g in small]
        assert [g.name for g in large][: len(small)] == [g.name for g in small]
        assert len({g.digest for g in large}) == len(large)

    @given(gen_specs())
    @settings(max_examples=25, deadline=None)
    def test_exports_round_trip(self, spec):
        document = generate_scenario(spec).document
        assert tomllib.loads(document_toml(document)) == document
        assert json.loads(document_json(document)) == document

    def test_name_carries_the_digest_prefix(self):
        item = generate_scenario(GenerationSpec(name_prefix="abc", seed=3))
        assert item.name == f"abc-{item.digest[:12]}"


# ----------------------------------------------------------------------
# Non-stationary variants
# ----------------------------------------------------------------------

class TestNonStationary:
    """Phase shifts and bursts materialize as advertised."""

    def test_burst_phases_are_many_short_threads(self):
        spec = GenerationSpec(
            seed=5,
            workload=WorkloadSpec(phases=(2, 2), threads=(1, 1)),
            nonstationary=NonStationarySpec(
                burst_probability=1.0, burst_threads=(4, 6)
            ),
        )
        document = generate_scenario(spec).document
        assert "non-stationary" in document["scenario"]["tags"]
        for phase in document["application"]["phases"]:
            assert phase["name"].endswith("-burst")
            assert 4 <= len(phase["threads"]) <= 6
            for thread in phase["threads"]:
                assert len(thread["chain"]) == 1
                assert thread["loops"] == 1

    def test_certain_phase_shifts_are_tagged(self):
        spec = GenerationSpec(
            seed=5,
            workload=WorkloadSpec(phases=(3, 3)),
            nonstationary=NonStationarySpec(phase_shift_probability=1.0),
        )
        document = generate_scenario(spec).document
        assert "non-stationary" in document["scenario"]["tags"]
        names = [phase["name"] for phase in document["application"]["phases"]]
        assert any(name.endswith("-shift") for name in names[1:])

    def test_stationary_specs_are_not_tagged(self):
        document = generate_scenario(GenerationSpec(seed=5)).document
        assert "non-stationary" not in document["scenario"]["tags"]


# ----------------------------------------------------------------------
# Spec validation errors
# ----------------------------------------------------------------------

class TestSpecValidation:
    """Bad specs fail eagerly, naming the offending key."""

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"count": 0}, "[generation].count"),
            ({"name_prefix": ""}, "[generation].name_prefix"),
            ({"name_prefix": "a b"}, "[generation].name_prefix"),
            ({"training_iterations": -1}, "[run].training_iterations"),
            ({"line_bytes": 3}, "[run].line_bytes"),
            ({"policies": ()}, "[run].policies"),
            ({"policies": ("nope",)}, "[run].policies"),
        ],
    )
    def test_generation_spec_errors(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=".*") as excinfo:
            GenerationSpec(**kwargs)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"tiles": (3, 1)}, "[topology].tiles"),
            ({"tiles": (0, 2)}, "[topology].tiles"),
            ({"cacheless_probability": 1.5}, "[topology].cacheless_probability"),
            ({"l2_bytes": (64, 128)}, "[topology].l2"),
        ],
    )
    def test_topology_spec_errors(self, kwargs, fragment):
        with pytest.raises(ConfigurationError) as excinfo:
            TopologySpec(**kwargs)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"accelerators": ("NotAnAccelerator",)}, "NotAnAccelerator"),
            ({"size_classes": ("HUGE",)}, "size_class"),
            ({"size_classes": ()}, "[workload].size_classes"),
            ({"size_weights": (1.0,)}, "size_classes and size_weights"),
            (
                {"size_classes": ("S",), "size_weights": (0.0,)},
                "[workload].size_weights",
            ),
        ],
    )
    def test_workload_spec_errors(self, kwargs, fragment):
        with pytest.raises((ConfigurationError, Exception)) as excinfo:
            WorkloadSpec(**kwargs)
        assert fragment in str(excinfo.value)

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            generation_spec_from_mapping({"typo": {}})
        with pytest.raises(ConfigurationError, match="unknown key"):
            generation_spec_from_mapping({"topology": {"tilez": 3}})

    def test_malformed_ranges_are_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\[workload\].phases"):
            generation_spec_from_mapping({"workload": {"phases": [1, 2, 3]}})
        with pytest.raises(ConfigurationError, match=r"\[generation\].count"):
            generation_spec_from_mapping({"generation": {"count": "many"}})

    def test_spec_file_errors(self, tmp_path):
        bad_ext = tmp_path / "spec.yaml"
        bad_ext.write_text("{}")
        with pytest.raises(ConfigurationError, match="unsupported extension"):
            load_generation_spec(bad_ext)
        bad_toml = tmp_path / "spec.toml"
        bad_toml.write_text("[generation\n")
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            load_generation_spec(bad_toml)
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_generation_spec(tmp_path / "missing.toml")

    def test_resolve_scenario_rejects_mismatched_generated_params(self):
        item = generate_scenario(GenerationSpec(seed=9))
        scenario = item.scenario()
        with pytest.raises(ConfigurationError, match="expected"):
            resolve_scenario("some-other-name", None, scenario.metadata["generated"])


# ----------------------------------------------------------------------
# Sweep integration: backends, worker counts, fingerprints
# ----------------------------------------------------------------------

def _tiny_generated_scenario(seed=42):
    """One deterministic, milliseconds-fast generated scenario."""
    spec = GenerationSpec(
        name_prefix="itest",
        seed=seed,
        topology=TopologySpec(tiles=(2, 2), cpus=(1, 1), mem_tiles=(1, 1)),
        workload=WorkloadSpec(
            phases=(1, 1), threads=(1, 2), chain=(1, 1), loops=(1, 1)
        ),
        training_iterations=1,
    )
    return generate_scenario(spec).scenario()


def _payloads(result):
    return {kind: evaluation.to_dict() for kind, evaluation in result.evaluations.items()}


#: Payload digests of :func:`_tiny_generated_scenario` at three seeds,
#: recorded when two independent implementations of the engine, the cache
#: and the Q-table agreed on every one of them.
GOLDEN_PAYLOAD_DIGESTS = {
    3: "9f31d5faa72444e461029d9e745dbb506e33c8492b9c959b56f901487864e7c1",
    17: "930cd20f4e49996ffd9d389a98e2b10d50dbc7d578923656ca2f88305a8ec4f1",
    2026: "bce3b1a90aa76dd23de145b6315ca0e0531f4788e3b3976786f6a18a97ee8345",
}


class TestSweepIntegration:
    """Generated scenarios obey the sweep determinism contract."""

    POLICIES = ["fixed-non-coh-dma", "cohmeleon"]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_PAYLOAD_DIGESTS))
    def test_payload_digest_matches_golden(self, seed):
        result = run_scenario(_tiny_generated_scenario(seed), policy_kinds=self.POLICIES)
        assert canonical_digest(_payloads(result)) == GOLDEN_PAYLOAD_DIGESTS[seed]

    @pytest.mark.slow
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_random_scenarios_pool_matches_serial(self, seed, tmp_path_factory):
        self._assert_pool_matches_serial(
            _tiny_generated_scenario(seed), tmp_path_factory.mktemp("cache")
        )

    def test_fingerprints_are_stable_across_regeneration(self):
        first = _tiny_generated_scenario()
        second = _tiny_generated_scenario()
        for kind in self.POLICIES:
            jobs = [
                Job(
                    key=kind,
                    fn=_scenario_policy_job,
                    params=scenario_job_params(
                        scenario, kind, seed=7, training_iterations=1
                    ),
                    seed=7,
                )
                for scenario in (first, second)
            ]
            assert jobs[0].fingerprint() == jobs[1].fingerprint()

    def _assert_pool_matches_serial(self, scenario, cache_dir):
        serial = run_scenario(scenario, policy_kinds=self.POLICIES)
        runner = SweepRunner(config=RunConfig(workers=2, cache=ResultCache(cache_dir)))
        pooled = run_scenario(scenario, policy_kinds=self.POLICIES, runner=runner)
        assert _payloads(pooled) == _payloads(serial)

    def test_serial_and_pool_are_bit_identical(self, tmp_path):
        self._assert_pool_matches_serial(_tiny_generated_scenario(), tmp_path / "cache")

    @pytest.mark.slow
    def test_process_backend_and_worker_counts_are_bit_identical(self, tmp_path):
        scenario = _tiny_generated_scenario()
        payloads = _payloads(run_scenario(scenario, policy_kinds=self.POLICIES))
        for workers in (1, 2):
            runner = SweepRunner(
                config=RunConfig(
                    workers=workers, cache=ResultCache(tmp_path / f"cache-{workers}")
                )
            )
            result = run_scenario(scenario, policy_kinds=self.POLICIES, runner=runner)
            assert _payloads(result) == payloads, f"{workers} worker(s) diverged"
