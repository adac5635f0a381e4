"""Materialize scenarios from declarative TOML/JSON files.

A scenario file describes a workload with no code at all::

    [scenario]
    name = "my-scenario"
    title = "Two FFTs against a GEMM"
    description = "..."
    policies = ["fixed-non-coh-dma", "cohmeleon"]
    seed = 7
    training_iterations = 2

    [soc]
    preset = "SoC1"            # or an inline definition, see below

    [[accelerators]]
    name = "FFT"
    count = 2

    [[accelerators]]
    name = "GEMM"

    [[application.phases]]
    name = "main"
    [[application.phases.threads]]
    id = "t0"
    chain = ["FFT", "GEMM"]
    footprint = "256 KB"       # bytes, or "<n> KB"/"<n> MB", or size_class
    loops = 2

Instead of a ``preset``, ``[soc]`` may define a platform inline
(``accelerator_tiles``, ``noc_rows``, ``noc_cols``, ``cpus``,
``mem_tiles``, ``llc_partition``, ``l2``; optionally ``acc_l2``,
``tiles_without_cache``), and a preset may be tweaked with a
``[soc.overrides]`` table whose keys are :class:`SoCConfig` field names.
Accelerator entries are either library names or inline traffic-generator
definitions (``[accelerators.traffic]``).  The application is either a
list of explicit phases or a ``[application.generator]`` table driving the
random :class:`~repro.workloads.generator.ApplicationGenerator`.  Threads
may give a concrete ``footprint`` or a ``size_class`` (``"S"``/``"M"``/
``"L"``/``"XL"``) that is resolved against the SoC's cache hierarchy per
instance, which is how file scenarios get distinct training and testing
variants.

Every validation failure raises
:class:`~repro.errors.ConfigurationError` naming the offending key.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.accelerators.descriptor import AccessPattern, AcceleratorDescriptor
from repro.accelerators.library import accelerator_by_name
from repro.accelerators.traffic import TrafficGeneratorConfig
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSetup
from repro.scenarios.scenario import Scenario
from repro.soc.config import SoCConfig, soc_preset
from repro.units import KB, MB
from repro.utils.rng import SeededRNG
from repro.workloads.generator import ApplicationGenerator, GeneratorConfig
from repro.workloads.sizes import WorkloadSizeClass, footprint_for_class
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on Python <= 3.10
    tomllib = None  # type: ignore[assignment]

_BYTES_PATTERN = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(B|KB|MB|GB)?\s*$", re.IGNORECASE)
_BYTES_UNITS = {"B": 1, "KB": KB, "MB": MB, "GB": 1024 * MB, None: 1}


def parse_bytes(value: object, where: str) -> int:
    """Parse a byte count: an integer, or a string like ``"256 KB"``.

    ``where`` names the key being parsed, for error messages.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"{where}: expected a byte count, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        match = _BYTES_PATTERN.match(value)
        if match:
            amount = float(match.group(1))
            unit = match.group(2)
            return int(amount * _BYTES_UNITS[unit.upper() if unit else None])
    raise ConfigurationError(
        f"{where}: expected a byte count (int or '<n> KB'/'<n> MB'), got {value!r}"
    )


def _require(mapping: Mapping[str, object], key: str, where: str) -> object:
    if key not in mapping:
        raise ConfigurationError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _as_table(value: object, where: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{where}: expected a table/object, got {type(value).__name__}")
    return value


def _as_str(value: object, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _as_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_str_list(value: object, where: str) -> List[str]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ConfigurationError(f"{where}: expected a list of strings, got {value!r}")
    return [_as_str(item, f"{where}[{index}]") for index, item in enumerate(value)]


def _check_unknown_keys(
    mapping: Mapping[str, object], allowed: Sequence[str], where: str
) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key {unknown[0]!r} (allowed: {sorted(allowed)})"
        )


# ----------------------------------------------------------------------
# [soc]
# ----------------------------------------------------------------------

_SOC_INLINE_KEYS = (
    "name",
    "accelerator_tiles",
    "noc_rows",
    "noc_cols",
    "cpus",
    "mem_tiles",
    "llc_partition",
    "l2",
    "acc_l2",
    "tiles_without_cache",
)


def _parse_soc(table: Mapping[str, object], scenario_name: str) -> SoCConfig:
    """Build the SoC configuration from a ``[soc]`` table."""
    where = "[soc]"
    if "preset" in table:
        _check_unknown_keys(table, ("preset", "overrides"), where)
        preset_name = _as_str(table["preset"], f"{where}.preset")
        try:
            config = soc_preset(preset_name)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}.preset: {exc}") from None
        overrides = table.get("overrides")
        if overrides is not None:
            config = _apply_overrides(config, _as_table(overrides, f"{where}.overrides"))
        return config

    _check_unknown_keys(table, _SOC_INLINE_KEYS, where)
    try:
        return SoCConfig(
            name=_as_str(table.get("name", scenario_name), f"{where}.name"),
            num_accelerator_tiles=_as_int(
                _require(table, "accelerator_tiles", where), f"{where}.accelerator_tiles"
            ),
            noc_rows=_as_int(_require(table, "noc_rows", where), f"{where}.noc_rows"),
            noc_cols=_as_int(_require(table, "noc_cols", where), f"{where}.noc_cols"),
            num_cpus=_as_int(_require(table, "cpus", where), f"{where}.cpus"),
            num_mem_tiles=_as_int(_require(table, "mem_tiles", where), f"{where}.mem_tiles"),
            llc_partition_bytes=parse_bytes(
                _require(table, "llc_partition", where), f"{where}.llc_partition"
            ),
            l2_bytes=parse_bytes(_require(table, "l2", where), f"{where}.l2"),
            acc_l2_bytes=(
                parse_bytes(table["acc_l2"], f"{where}.acc_l2")
                if "acc_l2" in table
                else None
            ),
            accelerators_without_cache=tuple(
                _as_int(item, f"{where}.tiles_without_cache[{index}]")
                for index, item in enumerate(table.get("tiles_without_cache", ()))
            ),
        )
    except ConfigurationError as exc:
        if str(exc).startswith(where):
            raise
        raise ConfigurationError(f"{where}: {exc}") from exc


_OVERRIDABLE_FIELDS = {
    f.name for f in dataclasses.fields(SoCConfig) if f.name not in ("timing",)
}
_BYTE_FIELDS = {
    "llc_partition_bytes",
    "l2_bytes",
    "acc_l2_bytes",
    "dram_partition_bytes",
}


def _apply_overrides(config: SoCConfig, overrides: Mapping[str, object]) -> SoCConfig:
    """Apply ``[soc.overrides]`` entries to a preset with field validation."""
    where = "[soc].overrides"
    values: Dict[str, object] = {}
    for key, value in overrides.items():
        if key not in _OVERRIDABLE_FIELDS:
            raise ConfigurationError(
                f"{where}.{key}: not an overridable SoCConfig field "
                f"(allowed: {sorted(_OVERRIDABLE_FIELDS)})"
            )
        if key in _BYTE_FIELDS:
            values[key] = parse_bytes(value, f"{where}.{key}")
        elif key == "accelerators_without_cache":
            values[key] = tuple(
                _as_int(item, f"{where}.{key}[{index}]")
                for index, item in enumerate(
                    value if isinstance(value, Sequence) else [value]
                )
            )
        else:
            values[key] = value
    try:
        return dataclasses.replace(config, **values)  # type: ignore[arg-type]
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


# ----------------------------------------------------------------------
# [[accelerators]]
# ----------------------------------------------------------------------

_TRAFFIC_KEYS = {
    "access_pattern",
    "burst_bytes",
    "compute_cycles_per_byte",
    "reuse_factor",
    "read_write_ratio",
    "stride_bytes",
    "access_fraction",
    "in_place",
    "local_mem_bytes",
}


def _parse_accelerators(
    entries: object, scenario_name: str
) -> List[AcceleratorDescriptor]:
    """Build the accelerator list from the ``[[accelerators]]`` array."""
    where = "[[accelerators]]"
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ConfigurationError(f"{where}: expected an array of tables")
    if not entries:
        raise ConfigurationError(f"{where}: at least one accelerator is required")
    descriptors: List[AcceleratorDescriptor] = []
    for index, entry in enumerate(entries):
        entry_where = f"{where}[{index}]"
        table = _as_table(entry, entry_where)
        _check_unknown_keys(table, ("name", "count", "traffic"), entry_where)
        count = _as_int(table.get("count", 1), f"{entry_where}.count")
        if count < 1:
            raise ConfigurationError(f"{entry_where}.count: must be >= 1, got {count}")
        if "traffic" in table:
            name = _as_str(_require(table, "name", entry_where), f"{entry_where}.name")
            descriptor = _parse_traffic(
                _as_table(table["traffic"], f"{entry_where}.traffic"),
                name,
                f"{entry_where}.traffic",
            )
        else:
            name = _as_str(_require(table, "name", entry_where), f"{entry_where}.name")
            try:
                descriptor = accelerator_by_name(name)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{entry_where}.name: {exc}") from None
        descriptors.extend([descriptor] * count)
    return descriptors


def _parse_traffic(
    table: Mapping[str, object], name: str, where: str
) -> AcceleratorDescriptor:
    """Build a traffic-generator descriptor from an ``accelerators.traffic`` table."""
    _check_unknown_keys(table, sorted(_TRAFFIC_KEYS), where)
    values: Dict[str, object] = dict(table)
    if "access_pattern" in values:
        label = _as_str(values["access_pattern"], f"{where}.access_pattern")
        try:
            values["access_pattern"] = AccessPattern(label)
        except ValueError:
            raise ConfigurationError(
                f"{where}.access_pattern: unknown pattern {label!r} "
                f"(expected one of {[p.value for p in AccessPattern]})"
            ) from None
    for key in ("burst_bytes", "local_mem_bytes"):
        if key in values:
            values[key] = parse_bytes(values[key], f"{where}.{key}")
    try:
        config = TrafficGeneratorConfig(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
    return config.to_descriptor(name=name)


# ----------------------------------------------------------------------
# [application]
# ----------------------------------------------------------------------

_GENERATOR_KEYS = {f.name for f in dataclasses.fields(GeneratorConfig)}
_SIZE_CLASSES = {cls.value: cls for cls in WorkloadSizeClass}


def _parse_generator(table: Mapping[str, object]) -> GeneratorConfig:
    """Build a :class:`GeneratorConfig` from ``[application.generator]``."""
    where = "[application].generator"
    _check_unknown_keys(table, sorted(_GENERATOR_KEYS), where)
    values: Dict[str, object] = dict(table)
    if "size_classes" in values:
        labels = _as_str_list(values["size_classes"], f"{where}.size_classes")
        classes = []
        for label in labels:
            if label not in _SIZE_CLASSES:
                raise ConfigurationError(
                    f"{where}.size_classes: unknown size class {label!r} "
                    f"(expected one of {sorted(_SIZE_CLASSES)})"
                )
            classes.append(_SIZE_CLASSES[label])
        values["size_classes"] = tuple(classes)
    if "size_weights" in values:
        values["size_weights"] = tuple(values["size_weights"])  # type: ignore[arg-type]
    try:
        return GeneratorConfig(**values)  # type: ignore[arg-type]
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


_THREAD_KEYS = ("id", "chain", "footprint", "size_class", "loops", "cpu")


def _parse_phases(
    entries: object,
) -> List[Tuple[str, List[Dict[str, object]]]]:
    """Parse ``[[application.phases]]`` into a declarative phase plan.

    Footprints stay symbolic (bytes or a size class) until build time, when
    they are resolved against the scenario's SoC configuration.
    """
    where = "[application].phases"
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ConfigurationError(f"{where}: expected an array of tables")
    if not entries:
        raise ConfigurationError(f"{where}: at least one phase is required")
    phases: List[Tuple[str, List[Dict[str, object]]]] = []
    for phase_index, entry in enumerate(entries):
        phase_where = f"{where}[{phase_index}]"
        table = _as_table(entry, phase_where)
        _check_unknown_keys(table, ("name", "threads"), phase_where)
        phase_name = _as_str(_require(table, "name", phase_where), f"{phase_where}.name")
        raw_threads = _require(table, "threads", phase_where)
        if not isinstance(raw_threads, Sequence) or not raw_threads:
            raise ConfigurationError(
                f"{phase_where}.threads: expected a non-empty array of tables"
            )
        threads: List[Dict[str, object]] = []
        for thread_index, raw in enumerate(raw_threads):
            thread_where = f"{phase_where}.threads[{thread_index}]"
            thread = _as_table(raw, thread_where)
            _check_unknown_keys(thread, _THREAD_KEYS, thread_where)
            parsed: Dict[str, object] = {
                "id": _as_str(
                    thread.get("id", f"{phase_name}-t{thread_index}"),
                    f"{thread_where}.id",
                ),
                "chain": tuple(
                    _as_str_list(_require(thread, "chain", thread_where), f"{thread_where}.chain")
                ),
                "loops": _as_int(thread.get("loops", 1), f"{thread_where}.loops"),
                "cpu": _as_int(thread.get("cpu", thread_index), f"{thread_where}.cpu"),
            }
            if "footprint" in thread and "size_class" in thread:
                raise ConfigurationError(
                    f"{thread_where}: give either 'footprint' or 'size_class', not both"
                )
            if "footprint" in thread:
                parsed["footprint"] = parse_bytes(
                    thread["footprint"], f"{thread_where}.footprint"
                )
            elif "size_class" in thread:
                label = _as_str(thread["size_class"], f"{thread_where}.size_class")
                if label not in _SIZE_CLASSES:
                    raise ConfigurationError(
                        f"{thread_where}.size_class: unknown size class {label!r} "
                        f"(expected one of {sorted(_SIZE_CLASSES)})"
                    )
                parsed["size_class"] = label
            else:
                raise ConfigurationError(
                    f"{thread_where}: missing required key 'footprint' or 'size_class'"
                )
            threads.append(parsed)
        phases.append((phase_name, threads))
    return phases


# ----------------------------------------------------------------------
# Factories built from the parsed document
# ----------------------------------------------------------------------

class _FilePhasesFactory:
    """Application factory for explicit ``[[application.phases]]`` plans."""

    def __init__(self, app_name: str, phases: List[Tuple[str, List[Dict[str, object]]]]):
        self.app_name = app_name
        self.phases = phases

    def __call__(
        self, setup: ExperimentSetup, instance: int, rng: SeededRNG
    ) -> ApplicationSpec:
        """Materialize the phase plan against ``setup``'s SoC configuration."""
        config = setup.soc_config
        built: List[PhaseSpec] = []
        for phase_name, threads in self.phases:
            specs = []
            for thread in threads:
                if "footprint" in thread:
                    footprint = int(thread["footprint"])  # type: ignore[arg-type]
                else:
                    size_class = _SIZE_CLASSES[str(thread["size_class"])]
                    footprint = footprint_for_class(size_class, config, rng=rng)
                specs.append(
                    ThreadSpec(
                        thread_id=str(thread["id"]),
                        accelerator_chain=tuple(thread["chain"]),  # type: ignore[arg-type]
                        footprint_bytes=footprint,
                        loop_count=int(thread["loops"]),  # type: ignore[arg-type]
                        cpu_index=int(thread["cpu"]) % max(config.num_cpus, 1),  # type: ignore[arg-type]
                    )
                )
            built.append(PhaseSpec(name=phase_name, threads=tuple(specs)))
        return ApplicationSpec(
            name=f"{self.app_name}-{instance}",
            phases=tuple(built),
            metadata={"instance": instance},
        )


class _FileGeneratorFactory:
    """Application factory for ``[application.generator]`` plans."""

    def __init__(self, app_name: str, generator_config: GeneratorConfig):
        self.app_name = app_name
        self.generator_config = generator_config

    def __call__(
        self, setup: ExperimentSetup, instance: int, rng: SeededRNG
    ) -> ApplicationSpec:
        """Generate instance ``instance`` of the random application."""
        generator = ApplicationGenerator(
            soc_config=setup.soc_config,
            accelerator_names=[d.name for d in setup.accelerators],
            generator_config=self.generator_config,
            seed=setup.seed,
        )
        return generator.generate(instance=instance, name=f"{self.app_name}-{instance}")


class _ConstFactory:
    """Factory returning a copy of a pre-built value, ignoring arguments.

    Serves as both the config factory (called with no arguments) and the
    accelerator factory (called with ``(config, rng)``) of file scenarios.
    """

    def __init__(self, value):
        self.value = value

    def __call__(self, *args, **kwargs):
        """Return the stored value (copied when it is a list)."""
        return list(self.value) if isinstance(self.value, list) else self.value


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------

_SCENARIO_KEYS = (
    "name",
    "title",
    "description",
    "category",
    "tags",
    "policies",
    "seed",
    "training_iterations",
    "line_bytes",
)


def load_scenario_mapping(
    document: Mapping[str, object], source: Optional[str] = None
) -> Scenario:
    """Build a :class:`Scenario` from a parsed TOML/JSON document.

    ``source`` is recorded on the scenario so sweep jobs running in worker
    processes can re-load it without relying on registry state.
    """
    where = "scenario file" if source is None else f"scenario file {source}"
    _check_unknown_keys(document, ("scenario", "soc", "accelerators", "application"), where)
    meta = _as_table(_require(document, "scenario", where), "[scenario]")
    _check_unknown_keys(meta, _SCENARIO_KEYS, "[scenario]")
    name = _as_str(_require(meta, "name", "[scenario]"), "[scenario].name")

    config = _parse_soc(
        _as_table(_require(document, "soc", where), "[soc]"), scenario_name=name
    )
    descriptors = _parse_accelerators(_require(document, "accelerators", where), name)

    app_table = _as_table(_require(document, "application", where), "[application]")
    _check_unknown_keys(app_table, ("generator", "phases"), "[application]")
    if ("generator" in app_table) == ("phases" in app_table):
        raise ConfigurationError(
            "[application]: give exactly one of 'generator' or 'phases'"
        )
    if "generator" in app_table:
        application_factory = _FileGeneratorFactory(
            name, _parse_generator(_as_table(app_table["generator"], "[application].generator"))
        )
    else:
        application_factory = _FilePhasesFactory(name, _parse_phases(app_table["phases"]))

    policies = meta.get("policies")
    line_bytes = meta.get("line_bytes")
    return Scenario(
        name=name,
        title=_as_str(meta.get("title", name), "[scenario].title"),
        description=_as_str(meta.get("description", name), "[scenario].description"),
        category=_as_str(meta.get("category", "file"), "[scenario].category"),
        tags=tuple(_as_str_list(meta.get("tags", []), "[scenario].tags")),
        config_factory=_ConstFactory(config),
        accelerator_factory=_ConstFactory(descriptors),
        application_factory=application_factory,
        policy_kinds=(
            tuple(_as_str_list(policies, "[scenario].policies"))
            if policies is not None
            else Scenario.__dataclass_fields__["policy_kinds"].default
        ),
        default_seed=_as_int(meta.get("seed", 0), "[scenario].seed"),
        training_iterations=_as_int(
            meta.get("training_iterations", 3), "[scenario].training_iterations"
        ),
        line_bytes=(
            parse_bytes(line_bytes, "[scenario].line_bytes")
            if line_bytes is not None
            else None
        ),
        source=source,
    )


def read_table_file(path: Path, what: str, json_alternative: str) -> Mapping:
    """Parse a ``.toml`` or ``.json`` file whose top level is a table.

    Every failure raises :class:`~repro.errors.ConfigurationError` naming
    the document as ``what`` (``"scenario file"``, ``"generation spec"``);
    ``json_alternative`` is what an interpreter without ``tomllib`` is
    told to use instead.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc
    if path.suffix == ".toml":
        if tomllib is None:
            raise ConfigurationError(
                f"{what} {path}: TOML support requires Python >= 3.11; "
                f"use a .json {json_alternative} instead"
            )
        try:
            document = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
            raise ConfigurationError(f"{what} {path}: invalid TOML: {exc}") from exc
    elif path.suffix == ".json":
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ConfigurationError(f"{what} {path}: invalid JSON: {exc}") from exc
    else:
        raise ConfigurationError(
            f"{what} {path}: unsupported extension {path.suffix!r} "
            "(expected .toml or .json)"
        )
    if not isinstance(document, Mapping):
        raise ConfigurationError(f"{what} {path}: top level must be a table/object")
    return document


def load_scenario_file(path: Union[str, Path]) -> Scenario:
    """Load one scenario from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    document = read_table_file(path, "scenario file", "scenario file")
    try:
        return load_scenario_mapping(document, source=str(path))
    except ConfigurationError as exc:
        message = str(exc)
        if str(path) in message:
            raise
        raise ConfigurationError(f"scenario file {path}: {message}") from None
