"""The program runs on the Python standard library alone, and each process
imports only the layers it runs.

numpy, pytest and hypothesis are test dependencies: importing the package
or any of its command-line entry points must not load numpy, which would
cost every process about 14 MB and a tenth of a second at start-up.

Package ``__init__`` files re-export lazily or not at all, so the policy
server and the tracking API do not load the simulator or the sweep runner,
and a sweep that runs on one host does not load the HTTP stack of the
distributed coordinator.  The documented names still resolve, to the same
objects as before.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The package and every module a ``python -m`` entry point runs.
ENTRY_MODULES = (
    "repro",
    "repro.serving.cli",
    "repro.scenarios.cli",
    "repro.models.cli",
    "repro.tracking.cli",
    "repro.perf.cli",
    "repro.experiments.sweep.cli",
    "repro.experiments.sweep.distributed.worker",
)

#: Every module and subpackage directly under ``repro``.
REPRO_CHILDREN = tuple(
    "repro." + info.name for info in pkgutil.iter_modules([str(SRC / "repro")])
)

#: What serving a model or browsing documents never runs.
SIMULATOR_AND_SWEEPS = (
    "repro.experiments",
    "repro.scenarios",
    "repro.sim",
    "repro.soc.soc",
    "repro.runtime",
    "repro.workloads",
    "repro.models.train",
    "repro.models.transfer",
    "multiprocessing",
    "http.client",
    "email",
)

#: What a sweep on one host never runs: the distributed coordinator's stack.
HTTP_STACK = (
    "repro.experiments.sweep.distributed",
    "repro.net",
    "asyncio",
    "ssl",
    "http.client",
    "email",
)

#: Per module: the modules importing it must not load (each with its
#: submodules).
IMPORT_LIMITS = {
    "repro": REPRO_CHILDREN,
    "repro.serving.cli": SIMULATOR_AND_SWEEPS,
    "repro.tracking.cli": SIMULATOR_AND_SWEEPS,
    "repro.perf.cli": SIMULATOR_AND_SWEEPS,
    "repro.experiments.socs": HTTP_STACK,
    "repro.scenarios.run": HTTP_STACK,
    "repro.experiments.isolation": HTTP_STACK,
}

#: Packages whose ``__all__`` is documented import surface.
DOCUMENTED_PACKAGES = (
    "repro",
    "repro.core",
    "repro.models",
    "repro.scenarios",
    "repro.experiments.sweep",
)

#: Star-imports one package and prints, as JSON, the names of its
#: ``__all__`` left unbound or bound to another object than the module
#: defining them holds, and whether an unknown name reads as an attribute.
#: A class or function is defined in its ``__module__``; any other value in
#: each module of the package that binds its name, or in the package itself.
SURFACE_SCRIPT = """
import inspect, json, sys

name = sys.argv[1]
namespace = {}
exec(f"from {name} import *", namespace)
package = sys.modules[name]
unbound, mismatched = [], []
for export in package.__all__:
    if export not in namespace:
        unbound.append(export)
        continue
    value = getattr(package, export)
    if inspect.isclass(value) or inspect.isfunction(value):
        owners = [sys.modules[value.__module__]]
    else:
        owners = [
            module
            for key, module in list(sys.modules.items())
            if key.startswith(name + ".") and export in vars(module)
        ]
    if value is not namespace[export] or any(
        vars(owner).get(export) is not value for owner in owners
    ):
        mismatched.append(export)
print(json.dumps([unbound, mismatched, hasattr(package, "no_such_name")]))
"""


def _run_python(*args: str) -> str:
    """Run a fresh interpreter on ``src`` and return its standard output."""
    result = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_no_entry_point_imports_numpy():
    script = (
        "import importlib, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert _run_python("-c", script).strip() == "[]"


@pytest.mark.parametrize("entry", sorted(IMPORT_LIMITS))
def test_an_entry_point_loads_only_the_layers_it_runs(entry):
    script = f"import json, sys, {entry}; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(_run_python("-c", script))
    leaked = [
        module
        for module in loaded
        for layer in IMPORT_LIMITS[entry]
        if module == layer or module.startswith(layer + ".")
    ]
    assert leaked == []


@pytest.mark.parametrize("package", DOCUMENTED_PACKAGES)
def test_the_documented_import_surface_resolves(package):
    unbound, mismatched, unknown_is_attribute = json.loads(
        _run_python("-c", SURFACE_SCRIPT, package)
    )
    assert unbound == []
    assert mismatched == []
    assert unknown_is_attribute is False
