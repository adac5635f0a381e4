"""A simulation's memory dies with the call that ran it.

No simulator component refers back to its :class:`repro.soc.soc.Soc`, and
the simulator keeps no process-wide memo, so reference counting frees the
whole model (caches, engine, resources) as soon as an entry point returns.
A run cut by its event budget closes its suspended thread processes, so it
too leaves nothing behind when its error has been handled.
Each case runs its entry point once to load what it imports lazily, then
again with the cyclic garbage collector disabled: every ``Soc`` the call
built must be dead on return, and a full collection must find no ``repro``
object left unreachable.  The collection filters on ``repro`` types so that
garbage another thread makes meanwhile cannot fail the test.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.accelerators.library import accelerator_by_name
from repro.core.policies import CohmeleonPolicy, FixedPolicy
from repro.errors import SimulationError
from repro.experiments.common import evaluate_one_policy, evaluate_policy, motivation_setup
from repro.experiments.isolation import measure_isolated
from repro.experiments.socs import figure9_setup
from repro.scenarios.registry import get_scenario
from repro.scenarios.run import run_scenario
from repro.soc.coherence import CoherenceMode
from repro.soc.soc import Soc
from repro.units import KB
from repro.utils.rng import SeededRNG
from repro.workloads.case_studies import soc6_application
from repro.workloads.spec import ApplicationSpec, PhaseSpec, ThreadSpec


@pytest.fixture
def built_socs(monkeypatch):
    """Weak references to every ``Soc`` built while the test runs."""
    refs = []
    init = Soc.__init__

    def tracked_init(self, config):
        init(self, config)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Soc, "__init__", tracked_init)
    return refs


def unreachable_repro_objects():
    """Type names of the ``repro`` objects a full collection finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(
            {
                type(obj).__qualname__
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro.")
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def assert_freed_on_return(call, built_socs):
    call()
    built_socs.clear()
    gc.collect()
    gc.disable()
    try:
        call()
        alive = sum(1 for ref in built_socs if ref() is not None)
        leftovers = unreachable_repro_objects()
    finally:
        gc.enable()
    assert built_socs, "the call built no Soc"
    assert alive == 0
    assert leftovers == []


def _setup():
    return motivation_setup(
        accelerators=[accelerator_by_name("FFT"), accelerator_by_name("SPMV")], line_bytes=256
    )


def _app(name):
    threads = tuple(
        ThreadSpec(thread_id=thread, accelerator_chain=(accelerator,), footprint_bytes=32 * KB)
        for thread, accelerator in (("t0", "FFT"), ("t1", "SPMV"))
    )
    return ApplicationSpec(name=name, phases=(PhaseSpec(name="p", threads=threads),))


def test_evaluate_one_policy_with_a_training_cohmeleon(built_socs):
    def call():
        policy = CohmeleonPolicy(rng=SeededRNG(3))
        evaluate_one_policy(
            _setup(), policy, _app("test"), training_app=_app("train"), training_iterations=2
        )

    assert_freed_on_return(call, built_socs)


def test_evaluate_one_policy_with_a_fixed_policy(built_socs):
    def call():
        evaluate_one_policy(_setup(), FixedPolicy(CoherenceMode.COH_DMA), _app("test"))

    assert_freed_on_return(call, built_socs)


def test_measure_isolated(built_socs):
    def call():
        measure_isolated(_setup(), accelerator_by_name("FFT"), 64 * KB, CoherenceMode.LLC_COH_DMA)

    assert_freed_on_return(call, built_socs)


def test_run_scenario(built_socs):
    def call():
        run_scenario(get_scenario("quickstart"), training_iterations=1)

    assert_freed_on_return(call, built_socs)


#: The message of a run that exhausts a 200-event budget.
CUT = "event budget of 200 exhausted"


def test_run_scenario_cut_by_its_event_budget(built_socs):
    def call():
        with pytest.raises(SimulationError, match=CUT):
            run_scenario(
                get_scenario("quickstart"), policy_kinds=["fixed-non-coh-dma"], max_events=200
            )

    assert_freed_on_return(call, built_socs)


def test_evaluate_policy_cut_by_its_event_budget(built_socs):
    def call():
        with pytest.raises(SimulationError, match=CUT):
            evaluate_policy(
                figure9_setup("SoC6"),
                FixedPolicy(CoherenceMode.NON_COH_DMA),
                soc6_application(),
                max_events=200,
            )

    assert_freed_on_return(call, built_socs)
