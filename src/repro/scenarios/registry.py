"""The scenario registry: registration, lookup, and discovery.

Scenarios register either eagerly (``register(scenario)``) or through the
:func:`register_scenario` decorator on a zero-argument factory function::

    @register_scenario
    def my_scenario() -> Scenario:
        return Scenario(name="my-scenario", ...)

The decorator calls the factory once at import time and stores the
resulting :class:`~repro.scenarios.scenario.Scenario` under its name, so
importing a module is all it takes to publish its scenarios — the same
entry-point-style discipline ``setuptools`` entry points use, without
requiring package metadata.

:func:`discover` makes the registry self-populating: it imports the
builtin scenario modules (:mod:`repro.scenarios.builtin`) and then loads
every ``*.toml`` / ``*.json`` scenario file found in the directories named
by the ``REPRO_SCENARIO_PATH`` environment variable (``os.pathsep``
separated), so new workloads need no code at all.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.scenarios.scenario import Scenario

#: Environment variable naming extra scenario-file directories.
SCENARIO_PATH_ENV = "REPRO_SCENARIO_PATH"

_REGISTRY: Dict[str, Scenario] = {}
_DISCOVERED = False


def register(scenario: Scenario, replace: bool = False) -> Scenario:
    """Register ``scenario`` under its name; return it for chaining.

    Raises :class:`ConfigurationError` when the name is already taken,
    unless ``replace`` is set (used by tests and by re-loading scenario
    files).
    """
    if not replace and scenario.name in _REGISTRY:
        raise ConfigurationError(
            f"scenario {scenario.name!r} is already registered; "
            "pass replace=True to overwrite"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def register_scenario(factory: Callable[[], Scenario]) -> Callable[[], Scenario]:
    """Decorator: call ``factory`` once and register the scenario it returns.

    The decorated function is returned unchanged, so it can still be called
    directly (e.g. by tests that want a fresh instance).
    """
    register(factory())
    return factory


def unregister(name: str) -> None:
    """Remove one scenario from the registry (primarily for tests)."""
    _REGISTRY.pop(name, None)


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------

def discover(extra_dirs: Optional[Sequence[str]] = None, force: bool = False) -> None:
    """Populate the registry: builtin modules plus scenario-file directories.

    Importing :mod:`repro.scenarios.builtin` registers every builtin
    scenario via the decorator; afterwards every ``*.toml`` / ``*.json``
    file in ``extra_dirs`` and in the ``REPRO_SCENARIO_PATH`` directories
    is loaded.  Discovery runs once per process unless ``force`` is set;
    file scenarios replace same-named earlier registrations so a re-run
    picks up edits.
    """
    global _DISCOVERED
    if _DISCOVERED and not force and not extra_dirs:
        return
    import repro.scenarios.builtin  # noqa: F401  (import side effect registers)

    directories: List[str] = list(extra_dirs or [])
    env_path = os.environ.get(SCENARIO_PATH_ENV, "")
    directories.extend(entry for entry in env_path.split(os.pathsep) if entry)
    for directory in directories:
        _load_directory(directory)
    _DISCOVERED = True


def _load_directory(directory: str) -> None:
    """Load every scenario file in ``directory`` (sorted, for determinism)."""
    from repro.scenarios.loader import load_scenario_file

    if not os.path.isdir(directory):
        raise ConfigurationError(
            f"scenario path entry {directory!r} is not a directory"
        )
    names = sorted(
        entry
        for entry in os.listdir(directory)
        if entry.endswith((".toml", ".json"))
    )
    for entry in names:
        register(load_scenario_file(os.path.join(directory, entry)), replace=True)


# ----------------------------------------------------------------------
# Lookup
# ----------------------------------------------------------------------

def scenario_names() -> List[str]:
    """Sorted names of every registered scenario (after discovery)."""
    discover()
    return sorted(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    """Every registered scenario, sorted by (category, name)."""
    discover()
    return sorted(_REGISTRY.values(), key=lambda s: (s.category, s.name))


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by name.

    Raises :class:`ConfigurationError` with the available names on a miss.
    """
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def load_scenario_target(target: str) -> Scenario:
    """Resolve a command-line target: a scenario-file path or a registered name.

    A target ending in ``.toml`` or ``.json`` is loaded as a scenario file
    (see :func:`repro.scenarios.loader.load_scenario_file`); any other
    target is looked up with :func:`get_scenario`.
    """
    if target.endswith((".toml", ".json")):
        from repro.scenarios.loader import load_scenario_file

        return load_scenario_file(target)
    return get_scenario(target)
