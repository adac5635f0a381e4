"""The declarative :class:`GenerationSpec` and its TOML/JSON file format.

A generation-spec file describes a *distribution* over scenarios rather
than one scenario.  All keys are optional; the defaults generate small,
quick-to-simulate platforms spanning the paper's Table 4 design space::

    [generation]
    name_prefix = "gen"
    count = 16
    seed = 0

    [topology]
    tiles = [2, 12]            # accelerator tiles, inclusive range
    cpus = [1, 4]
    mem_tiles = [1, 4]
    llc_partition = ["128 KB", "512 KB"]   # power-of-two sizes inside
    l2 = ["16 KB", "64 KB"]
    cacheless_probability = 0.0            # per-tile chance of no L2

    [workload]
    accelerators = ["FFT", "GEMM", "SPMV"] # pool (default: full library)
    phases = [2, 4]
    threads = [1, 4]
    chain = [1, 3]
    loops = [1, 2]
    size_classes = ["S", "M", "L", "XL"]
    size_weights = [0.3, 0.35, 0.2, 0.15]

    [nonstationary]
    phase_shift_probability = 0.35  # regime change between phases
    burst_probability = 0.25        # bursty-arrival phases
    burst_threads = [6, 10]

    [run]
    policies = ["fixed-non-coh-dma", "cohmeleon"]
    training_iterations = 2
    line_bytes = "256 B"

Ranges are two-element arrays ``[lo, hi]`` (inclusive) or a single value
for a fixed choice.  Every validation failure raises
:class:`~repro.errors.ConfigurationError` naming the offending key, the
same contract as the scenario-file loader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.accelerators.library import accelerator_by_name, accelerator_names
from repro.errors import ConfigurationError
from repro.experiments.common import EXPERIMENT_LINE_BYTES, STANDARD_POLICY_KINDS
from repro.scenarios.loader import (
    _as_int,
    _as_str_list,
    _as_table,
    _check_unknown_keys,
    parse_bytes,
)
from repro.scenarios.scenario import DEFAULT_SCENARIO_POLICIES
from repro.store.io import canonical_digest
from repro.units import KB

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on Python <= 3.10
    tomllib = None  # type: ignore[assignment]

#: Size-class labels the workload section accepts (loader-compatible).
SIZE_CLASS_LABELS = ("S", "M", "L", "XL")


def _check_range(value: Tuple[int, int], where: str, minimum: int = 1) -> None:
    lo, hi = value
    if lo > hi:
        raise ConfigurationError(f"{where}: empty range [{lo}, {hi}]")
    if lo < minimum:
        raise ConfigurationError(f"{where}: lower bound must be >= {minimum}, got {lo}")


def _check_probability(value: float, where: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{where}: probability must be in [0, 1], got {value}")


@dataclass(frozen=True)
class TopologySpec:
    """Distribution over SoC platforms: tile counts, caches, NoC shape.

    The NoC shape is not sampled directly: the generator derives the
    smallest (optionally widened) mesh that fits the sampled tile counts,
    so every sampled topology passes :class:`~repro.soc.config.SoCConfig`
    validation by construction.
    """

    #: Inclusive range of accelerator-tile counts.
    tiles: Tuple[int, int] = (2, 12)
    #: Inclusive range of processor-tile counts.
    cpus: Tuple[int, int] = (1, 4)
    #: Inclusive range of memory-tile counts (DRAM controller + LLC slice).
    mem_tiles: Tuple[int, int] = (1, 4)
    #: LLC-partition size bounds; sampled at powers of two within.
    llc_partition_bytes: Tuple[int, int] = (128 * KB, 512 * KB)
    #: Private (L2) cache size bounds; sampled at powers of two within.
    l2_bytes: Tuple[int, int] = (16 * KB, 64 * KB)
    #: Per-tile probability of lacking a private cache (cf. SoC3).
    cacheless_probability: float = 0.0

    def __post_init__(self) -> None:
        _check_range(self.tiles, "[topology].tiles")
        _check_range(self.cpus, "[topology].cpus")
        _check_range(self.mem_tiles, "[topology].mem_tiles")
        _check_range(self.llc_partition_bytes, "[topology].llc_partition", minimum=4 * KB)
        _check_range(self.l2_bytes, "[topology].l2", minimum=1 * KB)
        _check_probability(self.cacheless_probability, "[topology].cacheless_probability")


@dataclass(frozen=True)
class WorkloadSpec:
    """Distribution over application mixes: phases, threads, chains, sizes."""

    #: Accelerator pool scenarios draw from (canonical library names).
    accelerators: Tuple[str, ...] = ()
    #: Inclusive range of phases per application.
    phases: Tuple[int, int] = (2, 4)
    #: Inclusive range of concurrent threads per (steady) phase.
    threads: Tuple[int, int] = (1, 4)
    #: Inclusive range of accelerator-chain lengths per thread.
    chain: Tuple[int, int] = (1, 3)
    #: Inclusive range of per-thread loop counts.
    loops: Tuple[int, int] = (1, 2)
    #: Workload size classes threads draw from (resolved per instance).
    size_classes: Tuple[str, ...] = SIZE_CLASS_LABELS
    #: Relative probability of each size class (aligned with the above).
    size_weights: Tuple[float, ...] = (0.3, 0.35, 0.2, 0.15)

    def __post_init__(self) -> None:
        _check_range(self.phases, "[workload].phases")
        _check_range(self.threads, "[workload].threads")
        _check_range(self.chain, "[workload].chain")
        _check_range(self.loops, "[workload].loops")
        if not self.size_classes:
            raise ConfigurationError("[workload].size_classes: must not be empty")
        for label in self.size_classes:
            if label not in SIZE_CLASS_LABELS:
                raise ConfigurationError(
                    f"[workload].size_classes: unknown size class {label!r} "
                    f"(expected one of {list(SIZE_CLASS_LABELS)})"
                )
        if len(self.size_classes) != len(self.size_weights):
            raise ConfigurationError(
                "[workload]: size_classes and size_weights must align"
            )
        if any(weight < 0 for weight in self.size_weights) or not any(
            weight > 0 for weight in self.size_weights
        ):
            raise ConfigurationError(
                "[workload].size_weights: need non-negative weights, at least one > 0"
            )
        # Canonicalize accelerator names eagerly so a typo fails at spec
        # parse time, not in the middle of generating scenario #937.
        object.__setattr__(
            self,
            "accelerators",
            tuple(
                accelerator_by_name(name).name
                for name in (self.accelerators or accelerator_names())
            ),
        )


@dataclass(frozen=True)
class NonStationarySpec:
    """Knobs for traffic that shifts under a policy's feet.

    Phase shifts resample the *regime* (the accelerator subset and the
    size-class weights threads draw from) between phases — the workload a
    frozen policy was tuned for simply stops arriving.  Burst phases model
    bursty arrivals: many short, small-footprint threads at once.
    """

    #: Probability that a phase boundary resamples the traffic regime.
    phase_shift_probability: float = 0.0
    #: Probability that a phase is a bursty-arrival phase.
    burst_probability: float = 0.0
    #: Inclusive range of concurrent threads in a burst phase.
    burst_threads: Tuple[int, int] = (6, 10)

    def __post_init__(self) -> None:
        _check_probability(self.phase_shift_probability, "[nonstationary].phase_shift_probability")
        _check_probability(self.burst_probability, "[nonstationary].burst_probability")
        _check_range(self.burst_threads, "[nonstationary].burst_threads")


@dataclass(frozen=True)
class GenerationSpec:
    """Everything that determines a fleet of generated scenarios.

    Generation is a pure function of ``(spec, seed)``: the spec carries
    the distributions, the seed (plus a scenario index) selects one sample
    from them.  :func:`spec_digest` hashes the canonical rendering, so two
    specs compare equal exactly when they generate identical fleets.
    """

    #: Scenario names are ``<name_prefix>-<digest12>``.
    name_prefix: str = "gen"
    #: Number of scenarios ``generate_scenarios`` emits by default.
    count: int = 16
    #: Base seed every per-scenario stream derives from.
    seed: int = 0
    #: Platform distribution.
    topology: TopologySpec = field(default_factory=TopologySpec)
    #: Application-mix distribution.
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: Non-stationary traffic knobs.
    nonstationary: NonStationarySpec = field(default_factory=NonStationarySpec)
    #: Policy comparison stamped on every generated scenario.
    policies: Tuple[str, ...] = DEFAULT_SCENARIO_POLICIES
    #: Online-training budget stamped on every generated scenario.
    training_iterations: int = 2
    #: Cache-model granularity stamped on every generated scenario.
    line_bytes: int = EXPERIMENT_LINE_BYTES

    def __post_init__(self) -> None:
        if not self.name_prefix or any(ch.isspace() for ch in self.name_prefix):
            raise ConfigurationError(
                f"[generation].name_prefix: must be non-empty without whitespace, "
                f"got {self.name_prefix!r}"
            )
        if self.count < 1:
            raise ConfigurationError(
                f"[generation].count: must be >= 1, got {self.count}"
            )
        if self.training_iterations < 0:
            raise ConfigurationError(
                "[run].training_iterations: must be >= 0, "
                f"got {self.training_iterations}"
            )
        if self.line_bytes < 2 or self.line_bytes % 2:
            raise ConfigurationError(
                f"[run].line_bytes: must be a positive even value, got {self.line_bytes}"
            )
        if not self.policies:
            raise ConfigurationError("[run].policies: must not be empty")
        unknown = [k for k in self.policies if k not in STANDARD_POLICY_KINDS]
        if unknown:
            raise ConfigurationError(
                f"[run].policies: unknown policy kinds {unknown}; "
                f"expected a subset of {list(STANDARD_POLICY_KINDS)}"
            )


# ----------------------------------------------------------------------
# Mapping <-> spec round trip
# ----------------------------------------------------------------------

def spec_to_mapping(spec: GenerationSpec) -> Dict[str, object]:
    """Render ``spec`` as the plain JSON-able mapping the file format uses.

    The exact inverse of :func:`generation_spec_from_mapping`; sweep jobs
    embed this mapping in their parameters so worker processes can rebuild
    the spec (and regenerate the scenario) without any shared state.
    """
    return {
        "generation": {
            "name_prefix": spec.name_prefix,
            "count": spec.count,
            "seed": spec.seed,
        },
        "topology": {
            "tiles": list(spec.topology.tiles),
            "cpus": list(spec.topology.cpus),
            "mem_tiles": list(spec.topology.mem_tiles),
            "llc_partition": list(spec.topology.llc_partition_bytes),
            "l2": list(spec.topology.l2_bytes),
            "cacheless_probability": spec.topology.cacheless_probability,
        },
        "workload": {
            "accelerators": list(spec.workload.accelerators),
            "phases": list(spec.workload.phases),
            "threads": list(spec.workload.threads),
            "chain": list(spec.workload.chain),
            "loops": list(spec.workload.loops),
            "size_classes": list(spec.workload.size_classes),
            "size_weights": list(spec.workload.size_weights),
        },
        "nonstationary": {
            "phase_shift_probability": spec.nonstationary.phase_shift_probability,
            "burst_probability": spec.nonstationary.burst_probability,
            "burst_threads": list(spec.nonstationary.burst_threads),
        },
        "run": {
            "policies": list(spec.policies),
            "training_iterations": spec.training_iterations,
            "line_bytes": spec.line_bytes,
        },
    }


def spec_digest(spec: GenerationSpec) -> str:
    """SHA-256 digest of the spec's canonical mapping rendering."""
    return canonical_digest(spec_to_mapping(spec))


def _as_number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_range(value: object, where: str) -> Tuple[int, int]:
    """Parse an inclusive ``[lo, hi]`` range (or a single fixed value)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        fixed = _as_int(value, where)
        return (fixed, fixed)
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        if len(value) != 2:
            raise ConfigurationError(
                f"{where}: expected [lo, hi] (two elements), got {len(value)}"
            )
        return (_as_int(value[0], f"{where}[0]"), _as_int(value[1], f"{where}[1]"))
    raise ConfigurationError(
        f"{where}: expected an integer or a [lo, hi] array, got {value!r}"
    )


def _as_bytes_range(value: object, where: str) -> Tuple[int, int]:
    """Parse a range whose endpoints are byte counts (``"256 KB"`` etc.)."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        fixed = parse_bytes(value, where)
        return (fixed, fixed)
    if isinstance(value, Sequence) and not isinstance(value, bytes):
        if len(value) != 2:
            raise ConfigurationError(
                f"{where}: expected [lo, hi] (two elements), got {len(value)}"
            )
        return (
            parse_bytes(value[0], f"{where}[0]"),
            parse_bytes(value[1], f"{where}[1]"),
        )
    raise ConfigurationError(
        f"{where}: expected a byte count or a [lo, hi] array, got {value!r}"
    )


def _as_float_list(value: object, where: str) -> List[float]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ConfigurationError(f"{where}: expected a list of numbers, got {value!r}")
    return [_as_number(item, f"{where}[{index}]") for index, item in enumerate(value)]


def generation_spec_from_mapping(document: Mapping[str, object]) -> GenerationSpec:
    """Build a :class:`GenerationSpec` from a parsed TOML/JSON document."""
    _check_unknown_keys(
        document,
        ("generation", "topology", "workload", "nonstationary", "run"),
        "generation spec",
    )
    gen = _as_table(document.get("generation", {}), "[generation]")
    _check_unknown_keys(gen, ("name_prefix", "count", "seed"), "[generation]")
    topo = _as_table(document.get("topology", {}), "[topology]")
    _check_unknown_keys(
        topo,
        ("tiles", "cpus", "mem_tiles", "llc_partition", "l2", "cacheless_probability"),
        "[topology]",
    )
    work = _as_table(document.get("workload", {}), "[workload]")
    _check_unknown_keys(
        work,
        ("accelerators", "phases", "threads", "chain", "loops", "size_classes", "size_weights"),
        "[workload]",
    )
    nonstat = _as_table(document.get("nonstationary", {}), "[nonstationary]")
    _check_unknown_keys(
        nonstat,
        ("phase_shift_probability", "burst_probability", "burst_threads"),
        "[nonstationary]",
    )
    run = _as_table(document.get("run", {}), "[run]")
    _check_unknown_keys(
        run, ("policies", "training_iterations", "line_bytes"), "[run]"
    )

    topology_defaults = TopologySpec()
    workload_defaults = WorkloadSpec()
    nonstationary_defaults = NonStationarySpec()
    generation_defaults = GenerationSpec()

    name_prefix = gen.get("name_prefix", generation_defaults.name_prefix)
    if not isinstance(name_prefix, str):
        raise ConfigurationError(
            f"[generation].name_prefix: expected a string, got {name_prefix!r}"
        )
    topology = TopologySpec(
        tiles=(
            _as_range(topo["tiles"], "[topology].tiles")
            if "tiles" in topo
            else topology_defaults.tiles
        ),
        cpus=(
            _as_range(topo["cpus"], "[topology].cpus")
            if "cpus" in topo
            else topology_defaults.cpus
        ),
        mem_tiles=(
            _as_range(topo["mem_tiles"], "[topology].mem_tiles")
            if "mem_tiles" in topo
            else topology_defaults.mem_tiles
        ),
        llc_partition_bytes=(
            _as_bytes_range(topo["llc_partition"], "[topology].llc_partition")
            if "llc_partition" in topo
            else topology_defaults.llc_partition_bytes
        ),
        l2_bytes=(
            _as_bytes_range(topo["l2"], "[topology].l2")
            if "l2" in topo
            else topology_defaults.l2_bytes
        ),
        cacheless_probability=_as_number(
            topo.get("cacheless_probability", topology_defaults.cacheless_probability),
            "[topology].cacheless_probability",
        ),
    )
    workload = WorkloadSpec(
        accelerators=tuple(
            _as_str_list(work["accelerators"], "[workload].accelerators")
            if "accelerators" in work
            else ()
        ),
        phases=(
            _as_range(work["phases"], "[workload].phases")
            if "phases" in work
            else workload_defaults.phases
        ),
        threads=(
            _as_range(work["threads"], "[workload].threads")
            if "threads" in work
            else workload_defaults.threads
        ),
        chain=(
            _as_range(work["chain"], "[workload].chain")
            if "chain" in work
            else workload_defaults.chain
        ),
        loops=(
            _as_range(work["loops"], "[workload].loops")
            if "loops" in work
            else workload_defaults.loops
        ),
        size_classes=tuple(
            _as_str_list(work["size_classes"], "[workload].size_classes")
            if "size_classes" in work
            else workload_defaults.size_classes
        ),
        size_weights=tuple(
            _as_float_list(work["size_weights"], "[workload].size_weights")
            if "size_weights" in work
            else workload_defaults.size_weights
        ),
    )
    nonstationary = NonStationarySpec(
        phase_shift_probability=_as_number(
            nonstat.get(
                "phase_shift_probability",
                nonstationary_defaults.phase_shift_probability,
            ),
            "[nonstationary].phase_shift_probability",
        ),
        burst_probability=_as_number(
            nonstat.get(
                "burst_probability", nonstationary_defaults.burst_probability
            ),
            "[nonstationary].burst_probability",
        ),
        burst_threads=(
            _as_range(nonstat["burst_threads"], "[nonstationary].burst_threads")
            if "burst_threads" in nonstat
            else nonstationary_defaults.burst_threads
        ),
    )
    return GenerationSpec(
        name_prefix=name_prefix,
        count=_as_int(gen.get("count", generation_defaults.count), "[generation].count"),
        seed=_as_int(gen.get("seed", generation_defaults.seed), "[generation].seed"),
        topology=topology,
        workload=workload,
        nonstationary=nonstationary,
        policies=tuple(
            _as_str_list(run["policies"], "[run].policies")
            if "policies" in run
            else generation_defaults.policies
        ),
        training_iterations=_as_int(
            run.get("training_iterations", generation_defaults.training_iterations),
            "[run].training_iterations",
        ),
        line_bytes=(
            parse_bytes(run["line_bytes"], "[run].line_bytes")
            if "line_bytes" in run
            else generation_defaults.line_bytes
        ),
    )


def load_generation_spec(path: Union[str, Path]) -> GenerationSpec:
    """Load a :class:`GenerationSpec` from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read generation spec {path}: {exc}") from exc
    if path.suffix == ".toml":
        if tomllib is None:
            raise ConfigurationError(
                f"generation spec {path}: TOML support requires Python >= 3.11; "
                "use a .json spec file instead"
            )
        try:
            document = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise ConfigurationError(
                f"generation spec {path}: invalid TOML: {exc}"
            ) from exc
    elif path.suffix == ".json":
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ConfigurationError(
                f"generation spec {path}: invalid JSON: {exc}"
            ) from exc
    else:
        raise ConfigurationError(
            f"generation spec {path}: unsupported extension {path.suffix!r} "
            "(expected .toml or .json)"
        )
    if not isinstance(document, Mapping):
        raise ConfigurationError(
            f"generation spec {path}: top level must be a table/object"
        )
    try:
        return generation_spec_from_mapping(document)
    except ConfigurationError as exc:
        raise ConfigurationError(f"generation spec {path}: {exc}") from None
