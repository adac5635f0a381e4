"""perfbench's traced mode still finds every name it wraps, and unwraps cleanly.

``perfbench/tracer.py`` wraps the public functions of each layer by name,
from outside the program: ``BandwidthResource.serve``, eleven cache
methods, the datapath, NoC and DRAM entry points, the runtime, the
policies, serving and the sweep machinery.  Installing a tracer here fails
in tier-1 when a change renames or deletes one of those names, not only in
CI's traced smoke runs, and uninstalling it must put every original back,
because a traced and an untraced pass share one process.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.sim.resources import BandwidthResource

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Attributes the traced run patches: 2 sim, 11 cache, 3 datapath, 1 NoC,
#: 3 DRAM, 3 runtime, 9 policy, 1 Q-table, 5 serving and 6 sweep.
PATCHES = 44


def load_tracer_module():
    """Import ``perfbench/tracer.py`` by path; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        names = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in patches]
        assert len(set(names)) == len(names) == PATCHES, names
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, f"{owner}.{attr} is not wrapped"
        BandwidthResource("r", bytes_per_cycle=1.0).serve(0.0, 8)
        assert tracer.counters["sim.resources.serves"] == 1
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} was not restored"
