"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine, ResumeAt

pytestmark = pytest.mark.usefixtures("reference_core")


def delay_process(log, tag, delays):
    for delay in delays:
        now = yield delay
        log.append((tag, now))


class TestEngineBasics:
    def test_single_process_advances_time(self):
        engine = Engine()
        log = []
        engine.spawn("p", delay_process(log, "p", [5, 10]))
        engine.run()
        assert log == [("p", 5.0), ("p", 15.0)]
        assert engine.now == 15.0

    def test_processes_interleave_in_time_order(self):
        engine = Engine()
        log = []
        engine.spawn("slow", delay_process(log, "slow", [10]))
        engine.spawn("fast", delay_process(log, "fast", [3]))
        engine.run()
        assert [tag for tag, _ in log] == ["fast", "slow"]

    def test_start_delay_offsets_process(self):
        engine = Engine()
        log = []
        engine.spawn("late", delay_process(log, "late", [1]), start_delay=100)
        engine.run()
        assert log == [("late", 101.0)]

    def test_resume_at_absolute_time(self):
        engine = Engine()
        log = []

        def proc():
            now = yield ResumeAt(42.0)
            log.append(now)

        engine.spawn("abs", proc())
        engine.run()
        assert log == [42.0]

    def test_resume_at_in_past_is_clamped_or_rejected(self):
        engine = Engine()

        def proc():
            yield 10
            yield ResumeAt(5.0)

        engine.spawn("bad", proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_on_complete_callback_fires(self):
        engine = Engine()
        completed = []

        def proc():
            yield 1

        engine.spawn("p", proc(), on_complete=lambda process: completed.append(process.name))
        engine.run()
        assert completed == ["p"]

    def test_all_finished(self):
        engine = Engine()
        engine.spawn("p", delay_process([], "p", [1]))
        assert not engine.all_finished()
        engine.run()
        assert engine.all_finished()

    def test_same_time_events_run_in_queue_order(self):
        # Zero-delay re-arms stay at the current timestamp and run after
        # every event already queued for it, so two bouncing processes
        # alternate in spawn order; at t=7, b re-armed first and runs first.
        engine = Engine()
        log = []

        def bouncer(tag, bounces):
            for bounce in range(bounces):
                log.append((tag, bounce, engine.now))
                yield 0
            yield 7
            log.append((tag, "done", engine.now))

        engine.spawn("a", bouncer("a", 3))
        engine.spawn("b", bouncer("b", 2))
        engine.run()
        assert log == [
            ("a", 0, 0.0),
            ("b", 0, 0.0),
            ("a", 1, 0.0),
            ("b", 1, 0.0),
            ("a", 2, 0.0),
            ("b", "done", 7.0),
            ("a", "done", 7.0),
        ]
        assert engine.events_processed == 9
        assert engine.now == 7.0


class TestEngineErrors:
    def test_negative_delay_rejected(self):
        engine = Engine()

        def proc():
            yield -1

        engine.spawn("neg", proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_unsupported_yield_value_rejected(self):
        engine = Engine()

        def proc():
            yield "not a delay"

        engine.spawn("bad", proc())
        with pytest.raises(SimulationError):
            engine.run()

    def test_negative_start_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.spawn("p", delay_process([], "p", [1]), start_delay=-1)

    def test_event_budget_guards_against_livelock(self):
        engine = Engine()

        def forever():
            while True:
                yield 1

        engine.spawn("loop", forever())
        with pytest.raises(SimulationError):
            engine.run(max_events=100)


# ----------------------------------------------------------------------
# Property-based tests: event ordering under delay/ResumeAt mixes, and
# run(until=...) resume semantics.
# ----------------------------------------------------------------------

#: One process step: ("delay", d) yields a relative delay, ("at", d) yields
#: an absolute ResumeAt d cycles past the process's current time.  Both
#: resume the process exactly d cycles later, so its timeline is computable
#: independently of how the engine interleaves it with other processes.
step_strategy = st.tuples(
    st.sampled_from(["delay", "at"]),
    st.integers(min_value=0, max_value=50),
)

plans_strategy = st.lists(
    st.lists(step_strategy, min_size=1, max_size=6), min_size=1, max_size=6
)


def _scripted_process(log, tag, steps):
    now = 0.0
    for kind, value in steps:
        if kind == "delay":
            now = yield value
        else:
            now = yield ResumeAt(now + value)
        log.append((tag, now))


def _expected_times(steps):
    times, now = [], 0.0
    for _kind, value in steps:
        now += value
        times.append(now)
    return times


def _run_scripted(engine, plans):
    log = []
    for index, steps in enumerate(plans):
        engine.spawn(f"p{index}", _scripted_process(log, f"p{index}", steps))
    return log


class TestEngineOrderingProperties:
    @given(plans=plans_strategy)
    @settings(max_examples=80, deadline=None)
    def test_resumes_are_globally_time_ordered(self, plans):
        engine = Engine()
        log = _run_scripted(engine, plans)
        engine.run()
        times = [now for _tag, now in log]
        assert times == sorted(times)
        assert engine.all_finished()
        if times:
            assert engine.now == max(times)

    @given(plans=plans_strategy)
    @settings(max_examples=80, deadline=None)
    def test_each_process_follows_its_own_timeline(self, plans):
        # Delays and ResumeAt are interchangeable ways to move d cycles
        # forward, and interleaving with other processes never shifts a
        # process's resume times.
        engine = Engine()
        log = _run_scripted(engine, plans)
        engine.run()
        for index, steps in enumerate(plans):
            observed = [now for tag, now in log if tag == f"p{index}"]
            assert observed == _expected_times(steps)

    @given(
        plans=plans_strategy,
        cuts=st.lists(st.integers(min_value=0, max_value=320), max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_chunked_run_until_matches_single_run(self, plans, cuts):
        # Pausing at arbitrary times with run(until=...) and resuming must
        # produce exactly the interleaving of an uninterrupted run().
        straight_engine = Engine()
        straight_log = _run_scripted(straight_engine, plans)
        straight_engine.run()

        chunked_engine = Engine()
        chunked_log = _run_scripted(chunked_engine, plans)
        for cut in sorted(cuts):
            chunked_engine.run(until=cut)
            assert chunked_engine.now <= max(cut, straight_engine.now)
        chunked_engine.run()

        assert chunked_log == straight_log
        assert chunked_engine.all_finished()
        assert chunked_engine.pending_events == 0


class TestEngineRunUntil:
    def test_run_until_pauses_and_resumes(self):
        engine = Engine()
        log = []
        engine.spawn("p", delay_process(log, "p", [10, 10]))
        engine.run(until=5)
        assert log == []
        assert engine.now == 5.0
        engine.run()
        assert [now for _, now in log] == [10.0, 20.0]

    def test_pending_events_counter(self):
        engine = Engine()
        engine.spawn("a", delay_process([], "a", [1]))
        engine.spawn("b", delay_process([], "b", [1]))
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0

    def test_yield_from_subgenerator_returns_value(self):
        engine = Engine()
        results = []

        def inner():
            yield 5
            return "done"

        def outer():
            value = yield from inner()
            results.append(value)

        engine.spawn("outer", outer())
        engine.run()
        assert results == ["done"]
