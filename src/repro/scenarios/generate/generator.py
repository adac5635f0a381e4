"""Sample :class:`GenerationSpec` distributions into scenario documents.

:func:`generate_document` is the heart of the subpackage: a pure function
``(spec, index) -> scenario document`` where the document is the exact
TOML/JSON mapping schema :mod:`repro.scenarios.loader` validates.  Every
random draw flows through :class:`~repro.utils.rng.SeededRNG` streams
derived from ``(spec.seed, index)``, so regenerating with the same spec is
byte-identical — see the package docstring for the full contract.

The sampled dimensions:

* **topology** — accelerator/CPU/memory tile counts, power-of-two cache
  sizes, and a mesh NoC shape derived to fit the sampled tiles (with
  occasional slack rows/columns, so memory-tile placement and average hop
  distance vary across scenarios);
* **binding** — a per-scenario subset of the accelerator library, with
  instance counts distributed over the available tiles;
* **workload** — explicit phase plans whose threads carry symbolic size
  classes (resolved per training/testing instance by the loader, so the
  two instances differ exactly like builtin scenarios);
* **non-stationarity** — regime shifts that resample the accelerator pool
  and size-class weights between phases, and bursty-arrival phases of
  many short small-footprint threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scenarios.generate.spec import (
    GenerationSpec,
    generation_spec_from_mapping,
    spec_to_mapping,
)
from repro.scenarios.loader import load_scenario_mapping
from repro.scenarios.scenario import Scenario
from repro.store.io import canonical_digest
from repro.units import KB
from repro.utils.rng import SeededRNG, derive_seed

#: Size-class labels in ascending footprint order (burst phases bias small).
_CLASS_ORDER = ("S", "M", "L", "XL")


def _identity_mapping(spec: GenerationSpec) -> Dict[str, object]:
    """The spec mapping with ``count`` stripped: scenario *identity*.

    ``count`` selects how many scenarios to emit, not what any one of them
    contains — generating 10 or 1000 scenarios from the same spec must
    yield the same first 10, the same digests, and therefore the same
    sweep-job fingerprints.
    """
    mapping = spec_to_mapping(spec)
    generation = dict(mapping["generation"])  # type: ignore[arg-type]
    generation.pop("count", None)
    mapping["generation"] = generation
    return mapping


def scenario_digest(spec: GenerationSpec, seed: int) -> str:
    """Content digest of the scenario ``(spec, seed)`` generates.

    The digest covers the count-stripped spec mapping plus the derived
    per-scenario seed, so it identifies the generated content without
    having to materialize it; it prefixes the scenario name, flows into
    every sweep-job fingerprint, and is what ``generate --digests`` and
    the CI fuzz lane assert stability of.
    """
    return canonical_digest({"spec": _identity_mapping(spec), "seed": seed})


def _scenario_seed(spec: GenerationSpec, index: int) -> int:
    """The per-scenario root seed (stable in ``spec.seed`` and ``index``)."""
    return derive_seed(spec.seed, "generated-scenario", index)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------

def _power_of_two_between(lo: int, hi: int, rng: SeededRNG) -> int:
    """Choose a power of two in ``[lo, hi]`` (or ``lo`` if none exists)."""
    candidates = [
        1 << exponent
        for exponent in range(max(lo, 1).bit_length() - 1, hi.bit_length() + 1)
        if lo <= (1 << exponent) <= hi
    ]
    if not candidates:
        return lo
    return rng.choice(candidates)


def _sample_topology(spec: GenerationSpec, rng: SeededRNG) -> Dict[str, object]:
    """Sample one ``[soc]`` table from the topology distribution."""
    topology = spec.topology
    tiles = rng.randint(*topology.tiles)
    cpus = rng.randint(*topology.cpus)
    mem_tiles = rng.randint(*topology.mem_tiles)
    total = tiles + cpus + mem_tiles
    # The smallest near-square mesh that fits, occasionally stretched a
    # row or padded a column: tile placement and hop distances vary while
    # SoCConfig validation holds by construction.
    rows = isqrt(total - 1) + 1
    if total > 2 and rng.maybe(0.35):
        rows += 1
    cols = -(-total // rows)
    if rng.maybe(0.25):
        cols += 1
    llc_partition = _power_of_two_between(*topology.llc_partition_bytes, rng=rng)
    l2 = _power_of_two_between(*topology.l2_bytes, rng=rng)
    # Keep the hierarchy an actual hierarchy: a private cache at least as
    # large as its LLC slice would invert the size-class ladder.
    l2 = max(min(l2, llc_partition // 2), 1 * KB)
    table: Dict[str, object] = {
        "accelerator_tiles": tiles,
        "noc_rows": rows,
        "noc_cols": cols,
        "cpus": cpus,
        "mem_tiles": mem_tiles,
        "llc_partition": llc_partition,
        "l2": l2,
    }
    cacheless = [
        tile for tile in range(tiles) if rng.maybe(topology.cacheless_probability)
    ]
    if cacheless:
        table["tiles_without_cache"] = cacheless
    return table


def _sample_binding(
    spec: GenerationSpec, tiles: int, rng: SeededRNG
) -> Tuple[List[Dict[str, object]], List[str]]:
    """Sample the ``[[accelerators]]`` array: a subset of the pool + counts."""
    pool = list(spec.workload.accelerators)
    distinct = rng.randint(1, min(len(pool), tiles))
    names = rng.sample(pool, distinct)
    instances = rng.randint(distinct, tiles)
    counts = {name: 1 for name in names}
    for _ in range(instances - distinct):
        counts[rng.choice(names)] += 1
    entries = [{"name": name, "count": counts[name]} for name in names]
    return entries, names


@dataclass
class _Regime:
    """The traffic regime a (run of) phase(s) draws from."""

    pool: List[str]
    weights: List[float]


def _resample_regime(
    spec: GenerationSpec, bound: List[str], rng: SeededRNG
) -> _Regime:
    """Sample a fresh regime: an accelerator sub-pool and size weights."""
    pool = rng.sample(bound, rng.randint(1, len(bound)))
    weights = [
        weight * rng.uniform(0.5, 1.5) for weight in spec.workload.size_weights
    ]
    return _Regime(pool=pool, weights=weights)


def _burst_class(spec: GenerationSpec) -> str:
    """The smallest size class the spec allows (bursts are short and small)."""
    for label in _CLASS_ORDER:
        if label in spec.workload.size_classes:
            return label
    return spec.workload.size_classes[0]  # pragma: no cover - guarded by spec


def _sample_phases(
    spec: GenerationSpec, bound: List[str], rng: SeededRNG
) -> Tuple[List[Dict[str, object]], bool]:
    """Sample the ``[[application.phases]]`` plan; returns (phases, shifted)."""
    workload = spec.workload
    nonstationary = spec.nonstationary
    num_phases = rng.randint(*workload.phases)
    regime = _Regime(pool=list(bound), weights=list(workload.size_weights))
    phases: List[Dict[str, object]] = []
    shifted = False
    for phase_index in range(num_phases):
        suffix = ""
        if phase_index > 0 and rng.maybe(nonstationary.phase_shift_probability):
            regime = _resample_regime(spec, bound, rng)
            shifted = True
            suffix = "-shift"
        if rng.maybe(nonstationary.burst_probability):
            num_threads = rng.randint(*nonstationary.burst_threads)
            shifted = True
            threads = [
                {
                    "chain": [rng.choice(regime.pool)],
                    "size_class": _burst_class(spec),
                    "loops": 1,
                }
                for _ in range(num_threads)
            ]
            phases.append({"name": f"p{phase_index}-burst", "threads": threads})
            continue
        threads = []
        for _ in range(rng.randint(*workload.threads)):
            chain_length = rng.randint(*workload.chain)
            threads.append(
                {
                    "chain": [rng.choice(regime.pool) for _ in range(chain_length)],
                    "size_class": rng.weighted_choice(
                        list(workload.size_classes), regime.weights
                    ),
                    "loops": rng.randint(*workload.loops),
                }
            )
        phases.append({"name": f"p{phase_index}{suffix}", "threads": threads})
    return phases, shifted


# ----------------------------------------------------------------------
# Documents and scenarios
# ----------------------------------------------------------------------

def generate_document(spec: GenerationSpec, index: int) -> Dict[str, object]:
    """Generate scenario ``index`` of ``spec`` as a loader-schema document.

    Pure in ``(spec, index)``: calling this twice yields an equal mapping,
    and :func:`repro.scenarios.generate.export.document_json` /
    ``document_toml`` of it are byte-identical.  The returned document
    passes :func:`repro.scenarios.loader.load_scenario_mapping` unchanged.
    """
    if index < 0:
        raise ConfigurationError(f"scenario index must be >= 0, got {index}")
    seed = _scenario_seed(spec, index)
    digest = scenario_digest(spec, seed)
    name = f"{spec.name_prefix}-{digest[:12]}"
    rng = SeededRNG(seed)
    soc = _sample_topology(spec, rng.spawn("topology"))
    accelerators, bound = _sample_binding(
        spec, int(soc["accelerator_tiles"]), rng.spawn("binding")
    )
    phases, shifted = _sample_phases(spec, bound, rng.spawn("workload"))
    tags = ["generated", f"digest:{digest[:12]}"]
    if shifted:
        tags.append("non-stationary")
    scenario_table: Dict[str, object] = {
        "name": name,
        "title": (
            f"Generated platform {digest[:8]}: {soc['accelerator_tiles']} tiles, "
            f"{soc['noc_rows']}x{soc['noc_cols']} NoC, {soc['mem_tiles']} DDRs"
        ),
        "description": (
            f"Procedurally generated scenario #{index} (seed {seed}) of a "
            f"{spec.name_prefix!r} generation spec; content digest {digest[:12]}. "
            "See docs/generation.md for the determinism contract."
        ),
        "category": "generated",
        "tags": tags,
        "policies": list(spec.policies),
        "seed": seed,
        "training_iterations": spec.training_iterations,
        "line_bytes": spec.line_bytes,
    }
    return {
        "scenario": scenario_table,
        "soc": soc,
        "accelerators": accelerators,
        "application": {"phases": phases},
    }


@dataclass
class GeneratedScenario:
    """One generated scenario: its identity plus the emitted document."""

    #: Position in the generated fleet (0-based).
    index: int
    #: The per-scenario root seed derived from ``(spec.seed, index)``.
    seed: int
    #: Content digest derived from ``(spec, seed)`` (see :func:`scenario_digest`).
    digest: str
    #: Registry name (``<prefix>-<digest12>``).
    name: str
    #: The loader-schema scenario document.
    document: Dict[str, object] = field(repr=False)
    #: The count-stripped spec mapping this scenario regenerates from.
    spec_identity: Dict[str, object] = field(repr=False, default_factory=dict)

    def scenario(self) -> Scenario:
        """Materialize the document through the standard loader.

        The returned scenario carries ``metadata['generated']`` — the
        count-stripped spec mapping plus the index — which is how sweep
        workers regenerate it without shared registry state or a file on
        disk (see :func:`scenario_from_generated`).
        """
        scenario = load_scenario_mapping(self.document)
        scenario.metadata["generated"] = {
            "spec": self.spec_identity,
            "index": self.index,
        }
        scenario.metadata["digest"] = self.digest
        return scenario


def generate_scenario(spec: GenerationSpec, index: int = 0) -> GeneratedScenario:
    """Generate scenario ``index`` of ``spec`` (document + identity).

    Call :meth:`GeneratedScenario.scenario` on the result to materialize
    it through the standard loader.
    """
    seed = _scenario_seed(spec, index)
    document = generate_document(spec, index)
    return GeneratedScenario(
        index=index,
        seed=seed,
        digest=scenario_digest(spec, seed),
        name=str(document["scenario"]["name"]),  # type: ignore[index]
        document=document,
        spec_identity=_identity_mapping(spec),
    )


def generate_scenarios(
    spec: GenerationSpec, count: Optional[int] = None
) -> List[GeneratedScenario]:
    """Generate the first ``count`` scenarios of ``spec`` (default: spec.count)."""
    total = spec.count if count is None else count
    if total < 1:
        raise ConfigurationError(f"count must be >= 1, got {total}")
    return [generate_scenario(spec, index) for index in range(total)]


def scenario_from_generated(generated: Mapping[str, object]) -> Scenario:
    """Rebuild a generated scenario from its job-parameter mapping.

    ``generated`` is the ``{'spec': <identity mapping>, 'index': int}``
    structure :meth:`GeneratedScenario.scenario` stamps into scenario
    metadata and :func:`repro.scenarios.run.run_scenario` forwards as a
    job parameter — the generated-scenario analogue of re-loading a file
    scenario from its ``source`` path inside a worker process.
    """
    if not isinstance(generated, Mapping) or "spec" not in generated:
        raise ConfigurationError(
            "generated-scenario parameters must be a mapping with a 'spec' key"
        )
    spec_mapping = generated["spec"]
    if not isinstance(spec_mapping, Mapping):
        raise ConfigurationError("generated-scenario 'spec' must be a mapping")
    spec = generation_spec_from_mapping(spec_mapping)
    index = generated.get("index", 0)
    if isinstance(index, bool) or not isinstance(index, int):
        raise ConfigurationError(
            f"generated-scenario 'index' must be an integer, got {index!r}"
        )
    return generate_scenario(spec, index).scenario()
