"""Job fingerprints: byte-identity of the one-pass rendering, and its safety.

A sweep fingerprints a spec's jobs in one pass that renders each shared
parameter object once (:class:`CanonicalRenderer`).  These tests pin that
the composed text is byte-identical to the plain rendering
``json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))``,
that fingerprints recorded before the pass existed still come out, and
that nothing the pass or a job's defensive copy shares can let a changed
job through.
"""

from __future__ import annotations

import base64
import copy
import hashlib
import importlib
import inspect
import json
import pickle
import pkgutil
import typing
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.accelerators.descriptor import AcceleratorDescriptor
from repro.accelerators.library import ACCELERATOR_LIBRARY, accelerator_by_name
from repro.experiments.common import STANDARD_POLICY_KINDS, motivation_setup
from repro.experiments.isolation import _isolation_job
from repro.experiments.socs import _soc_label_job
from repro.experiments.sweep import Job, SweepSpec, canonicalize
from repro.experiments.sweep.distributed.protocol import WireError, decode_job, encode_job
from repro.experiments.sweep.sweep import CanonicalRenderer
from repro.scenarios import get_scenario
from repro.scenarios.run import _scenario_policy_job, scenario_job_params
from repro.soc.coherence import CoherenceMode
from repro.soc.config import available_presets, soc_preset
from repro.utils.rng import SeededRNG


def _reference_text(value: object) -> str:
    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))


def _reference_fingerprint(job: Job) -> str:
    """The fingerprint as one ``json.dumps`` of the whole document."""
    document = {
        "fn": f"{job.fn.__module__}.{job.fn.__qualname__}",
        "params": canonicalize(
            {key: value for key, value in job.params.items() if not key.startswith("_")}
        ),
        "seed": job.seed,
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Byte-identity of the rendering (hypothesis)
# ----------------------------------------------------------------------

class Color(Enum):
    RED = 1
    BLUE = "blue"


class Shade(Enum):
    RED = 2


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


class Bag:
    """A plain object: canonicalized through its ``vars()``."""

    def __init__(self, content: object) -> None:
        self.content = content


def _rng(seed: int, draws: int) -> SeededRNG:
    rng = SeededRNG(seed)
    for _ in range(draws):
        rng.random()
    return rng


# Keys mix types, and strings made of JSON punctuation, so the pair sort
# meets every way two keys' texts can compare.
_keys = st.one_of(
    st.text(alphabet=' ,:"[]{}\\a1é', max_size=4),
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, width=32),
    st.sampled_from([1, 1.0, True, 0, 0.0, False]),
    st.sampled_from(list(Color) + list(Shade)),
    st.tuples(st.integers(-2, 2), st.text(alphabet=",a ", max_size=2)),
    st.frozensets(st.integers(0, 3), max_size=3),
    # Hashed by identity: distinct keys whose texts tie.
    st.builds(Bag, st.integers(0, 1)),
)
_leaves = st.one_of(
    _keys,
    st.floats(),
    st.text(max_size=6),
    st.binary(max_size=3),
    st.lists(st.floats(allow_nan=False), max_size=4).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(
        lambda rows: np.array(rows, dtype=np.int64)
    ),
    st.integers(-5, 5).map(np.int64),
    st.builds(_rng, st.integers(0, 2**32), st.integers(0, 3)),
)


def _containers(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_keys, children, max_size=3),
        st.sets(_keys, max_size=3),
        st.frozensets(_keys, max_size=3),
        st.builds(Pair, children, children),
        st.builds(Bag, children),
    )


_values = st.recursive(_leaves, _containers, max_leaves=12)


@st.composite
def _jobs_params(draw: st.DrawFn):
    """Several jobs' params that share sub-objects by identity."""
    pool = draw(st.lists(_values, min_size=1, max_size=4))
    shared = st.sampled_from(pool)
    param = st.one_of(
        shared,
        _values,
        st.lists(shared, max_size=3),
        st.builds(Pair, shared, _values),
        st.dictionaries(_keys, shared, max_size=2),
    )
    return draw(
        st.lists(st.dictionaries(_keys, param, min_size=0, max_size=5), min_size=1, max_size=5)
    )


class TestCanonicalRendering:
    @settings(max_examples=300, deadline=None)
    @given(_jobs_params())
    def test_pass_rendering_equals_one_dumps(self, jobs_params):
        render = CanonicalRenderer()
        for params in jobs_params:
            assert render.mapping(params) == _reference_text(params)
            for key, value in params.items():
                assert render(key) == _reference_text(key)
                assert render(value) == _reference_text(value)

    def test_keys_whose_texts_tie_keep_insertion_order(self):
        render = CanonicalRenderer()
        for first, second in (("b", "a"), ("a", "b")):
            mapping = {Bag(1): first, Bag(1): second}
            assert render.mapping(mapping) == _reference_text(mapping)

    @settings(max_examples=100, deadline=None)
    @given(
        _jobs_params().map(
            lambda jobs: [
                {str(key): value for key, value in params.items()} for params in jobs
            ]
        ),
        st.integers(0, 2**31),
    )
    def test_job_fingerprints_equal_one_dumps_of_the_document(self, jobs_params, seed):
        def jobs():
            return [
                Job(key=str(index), fn=_mutating_job, params=params, seed=seed)
                for index, params in enumerate(jobs_params)
            ]

        expected = [_reference_fingerprint(job) for job in jobs()]
        assert SweepSpec(name="pass", jobs=jobs()).fingerprints() == expected
        assert [job.fingerprint() for job in jobs()] == expected


# ----------------------------------------------------------------------
# Golden fingerprints
# ----------------------------------------------------------------------

class TestGoldenFingerprints:
    """Fingerprints of real jobs, recorded before the one-pass rendering."""

    def test_isolation_job(self):
        setup = motivation_setup(line_bytes=256)
        job = Job(
            key="0-FFT/4096B/llc-coh-dma",
            fn=_isolation_job,
            params={
                "setup": setup,
                "accelerator": accelerator_by_name("FFT"),
                "footprint_bytes": 4096,
                "mode": CoherenceMode.LLC_COH_DMA,
                "repeats": 1,
            },
            seed=setup.seed,
        )
        golden = "215e3ba2d5df8c22563551fb9ca4c1f5abd1f1222467b67d9462aaa5dfaf2ffa"
        assert job.fingerprint() == golden
        assert SweepSpec(name="golden", jobs=[replace(job)]).fingerprints() == [golden]

    def test_soc_label_job(self):
        job = Job(
            key="SoC1",
            fn=_soc_label_job,
            params={
                "label": "SoC1",
                "seed": 29,
                "policy_kinds": STANDARD_POLICY_KINDS,
                "training_iterations": 1,
            },
            seed=29,
        )
        assert job.fingerprint() == (
            "514f03009e118e36018aab5bf27aa569183c32a7f4a90b3299bfbbcce0089f13"
        )

    def test_scenario_policy_job(self):
        # Covers scenario_definition_digest, which renders the scenario's
        # content with the same canonical JSON.
        scenario = get_scenario("streaming-dsp-chain")
        job = Job(
            key="cohmeleon",
            fn=_scenario_policy_job,
            params=scenario_job_params(
                scenario,
                policy_kind="cohmeleon",
                seed=scenario.default_seed,
                training_iterations=scenario.training_iterations,
            ),
            seed=scenario.default_seed,
        )
        assert job.fingerprint() == (
            "837c112749a8e587cdea1bfd9518799b893ef0746674a031626498002e186373"
        )


# ----------------------------------------------------------------------
# Safety of the pass memo and of shared configs
# ----------------------------------------------------------------------

class TestTamperedWireJob:
    def test_descriptor_changed_after_fingerprinting_is_rejected(self):
        descriptor = AcceleratorDescriptor(name="probe", burst_bytes=512)
        setup = replace(motivation_setup(line_bytes=256), accelerators=[descriptor])
        jobs = [
            Job(
                key=f"probe/{mode.label}",
                fn=_isolation_job,
                params={
                    "setup": setup,
                    "accelerator": descriptor,
                    "footprint_bytes": 4096,
                    "mode": mode,
                    "repeats": 1,
                },
                seed=setup.seed,
            )
            for mode in (CoherenceMode.NON_COH_DMA, CoherenceMode.COH_DMA)
        ]
        SweepSpec(name="coordinator", jobs=jobs).fingerprints()
        wire = encode_job(jobs[0])
        assert decode_job(wire).fingerprint() == wire["fingerprint"]

        # The frozen descriptor changes after the coordinator fingerprinted
        # the job; the stamp and the job's own memo still hold the old digest.
        object.__setattr__(descriptor, "burst_bytes", 4096)
        tampered = dict(wire, blob=base64.b64encode(pickle.dumps(jobs[0])).decode("ascii"))
        with pytest.raises(WireError) as excinfo:
            decode_job(tampered)
        assert excinfo.value.error_type == "fingerprint-mismatch"


def _immutable_type(hint: object) -> bool:
    """Whether every value of type ``hint`` is deeply immutable."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, tuple, frozenset):
        return all(arg is Ellipsis or _immutable_type(arg) for arg in args)
    if not isinstance(hint, type):
        return False
    if hint in (str, int, float, bool, bytes, type(None)) or issubclass(hint, Enum):
        return True
    return _frozen_with_immutable_fields(hint)


def _frozen_with_immutable_fields(cls: type) -> bool:
    if not (is_dataclass(cls) and cls.__dataclass_params__.frozen):
        return False
    hints = typing.get_type_hints(cls)
    return all(_immutable_type(hints[field.name]) for field in fields(cls))


def _classes_with_deepcopy():
    """Every class of the package that defines ``__deepcopy__``."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__.startswith("repro.")
                and hasattr(cls, "__deepcopy__")
                and not issubclass(cls, Enum)  # members are singletons by design
            ):
                found.add(cls)
    return found


class TestSharedImmutableConfigs:
    def test_every_deepcopy_override_has_only_immutable_fields(self):
        from repro.core.qtable import QTable
        from repro.soc.config import SoCConfig, TimingConfig

        classes = _classes_with_deepcopy()
        assert {SoCConfig, TimingConfig, AcceleratorDescriptor} <= classes
        # QTable's override copies its rows instead of sharing the table;
        # tests/test_qlearning.py checks that the copy shares no row.
        for cls in classes - {QTable}:
            assert _frozen_with_immutable_fields(cls), cls.__qualname__

    def test_shipped_instances_are_shared_and_hashable(self):
        # Hashing walks every field value, so a list smuggled into a
        # tuple-typed field would fail here.
        instances = [soc_preset(name) for name in available_presets()]
        instances += [config.timing for config in instances]
        instances += list(ACCELERATOR_LIBRARY)
        for instance in instances:
            hash(instance)
            assert copy.deepcopy(instance) is instance

    def test_mutating_job_gives_equal_payloads_on_repeated_execute(self):
        job = Job(
            key="mutates",
            fn=_mutating_job,
            params={"items": [1, 2], "config": soc_preset("SoC1")},
            seed=3,
        )
        first, second = job.execute(), job.execute()
        assert first == second
        assert first["items"][:2] == [1, 2] and len(first["items"]) == 3
        assert job.params["items"] == [1, 2]


def _mutating_job(params: Dict[str, object], rng: SeededRNG) -> Dict[str, object]:
    """Sweep job that mutates a list parameter in place."""
    items = params.get("items", [])
    items.append(rng.random())  # type: ignore[union-attr]
    return {"items": list(items)}  # type: ignore[arg-type]
