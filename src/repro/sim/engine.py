"""Generator-based discrete-event engine.

A *process* is a Python generator.  Each time it yields, it hands control
back to the engine together with either:

* a non-negative number — "resume me after this many cycles", or
* a :class:`ResumeAt` object — "resume me at this absolute time".

The engine keeps a priority queue of ``(time, sequence, process)`` entries
and always advances the process with the earliest resume time.  When a
generator returns (raises ``StopIteration``) its process is marked finished
and an optional completion callback fires.  Events that share a timestamp
run in the order they were queued, so a process that re-arms with
``yield 0`` runs after every event already queued for that time.

This is intentionally much smaller than simpy: the SoC model only needs
time-ordered interleaving of invocation processes, because contention on
shared hardware is resolved analytically by the FCFS resources in
:mod:`repro.sim.resources`.

The :meth:`Engine.run` loop dispatches every simulated event, so it is the
single hottest call site of the whole library (see ``repro.perf``): the
loop keeps the heap primitives and queue in locals, and
:class:`Process` uses ``__slots__`` to keep per-event attribute access
cheap.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generator, List, Optional

from repro.errors import SimulationError

#: Type alias for the generator objects the engine runs.
ProcessGenerator = Generator[object, float, None]


class ResumeAt:
    """Yield value meaning "resume this process at absolute time ``time``"."""

    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResumeAt(time={self.time})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResumeAt) and other.time == self.time

    def __hash__(self) -> int:
        return hash((ResumeAt, self.time))


class Process:
    """Bookkeeping for one running generator."""

    __slots__ = ("name", "generator", "finished", "start_time", "finish_time", "on_complete")

    def __init__(
        self,
        name: str,
        generator: ProcessGenerator,
        finished: bool = False,
        start_time: float = 0.0,
        finish_time: Optional[float] = None,
        on_complete: Optional[Callable[["Process"], None]] = None,
    ) -> None:
        self.name = name
        self.generator = generator
        self.finished = finished
        self.start_time = start_time
        self.finish_time = finish_time
        self.on_complete = on_complete

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Process(name={self.name!r}, finished={self.finished}, "
            f"start_time={self.start_time}, finish_time={self.finish_time})"
        )


class Engine:
    """Discrete-event engine with a cycle-based clock.

    Example
    -------
    >>> engine = Engine()
    >>> log = []
    >>> def worker(tag, delay):
    ...     yield delay
    ...     log.append((tag, engine.now))
    >>> _ = engine.spawn("a", worker("a", 10))
    >>> _ = engine.spawn("b", worker("b", 5))
    >>> engine.run()
    >>> log
    [('b', 5.0), ('a', 10.0)]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[tuple] = []
        self._sequence = itertools.count()
        self._processes: List[Process] = []
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        generator: ProcessGenerator,
        start_delay: float = 0.0,
        on_complete: Optional[Callable[[Process], None]] = None,
    ) -> Process:
        """Register ``generator`` as a process starting after ``start_delay``."""
        if start_delay < 0:
            raise SimulationError(f"negative start delay {start_delay} for {name}")
        process = Process(
            name=name,
            generator=generator,
            start_time=self.now + start_delay,
            on_complete=on_complete,
        )
        self._processes.append(process)
        self._push(self.now + start_delay, process, first=True)
        return process

    def _push(self, time: float, process: Process, first: bool = False) -> None:
        heapq.heappush(self._queue, (time, next(self._sequence), process, first))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until no events remain (or ``until`` / ``max_events`` is hit).

        Returns the simulation time at which execution stopped.  Exhausting
        the ``max_events`` budget while events are still pending raises a
        :class:`~repro.errors.SimulationError` naming the number of pending
        events — a silent partial run would be indistinguishable from a
        completed one (see ``docs/architecture.md``).
        """
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        step = self._step
        events_this_run = 0
        # The per-event counter lives in a local for speed; the finally
        # block folds it into the persistent count on every exit path
        # (completion, pause at `until`, budget exhaustion, process error).
        try:
            while queue:
                entry = heappop(queue)
                time = entry[0]
                if until is not None and time > until:
                    # Put the event back — with its original sequence number,
                    # so same-time events keep their order across a
                    # pause/resume.
                    heappush(queue, entry)
                    self.now = until
                    return self.now
                if time > self.now:
                    self.now = time
                elif time < self.now - 1e-9:
                    raise SimulationError(
                        f"event time {time} precedes current time {self.now}"
                    )
                if events_this_run >= max_events:
                    heappush(queue, entry)
                    raise SimulationError(
                        f"event budget of {max_events} exhausted at t={self.now} "
                        f"with {len(queue)} events still pending; likely a livelock"
                    )
                events_this_run += 1
                step(entry[2], entry[3])
        finally:
            self._events_processed += events_this_run
        return self.now

    def _step(self, process: Process, first: bool) -> None:
        try:
            if first:
                yielded = next(process.generator)
            else:
                yielded = process.generator.send(self.now)
        except StopIteration:
            process.finished = True
            process.finish_time = self.now
            if process.on_complete is not None:
                process.on_complete(process)
            return
        # Inline fast path for the overwhelmingly common yield of a plain
        # delay; ResumeAt and error cases take the slow path below.
        cls = type(yielded)
        if cls is float or cls is int:
            if yielded < 0:
                raise SimulationError(f"process yielded a negative delay {yielded}")
            resume_time = self.now + yielded
        else:
            resume_time = self._resolve_yield(yielded)
        heapq.heappush(
            self._queue, (resume_time, next(self._sequence), process, False)
        )

    def _resolve_yield(self, yielded: object) -> float:
        if isinstance(yielded, ResumeAt):
            target = float(yielded.time)
            if target < self.now - 1e-9:
                raise SimulationError(
                    f"process asked to resume in the past ({target} < {self.now})"
                )
            return target if target > self.now else self.now
        if isinstance(yielded, (int, float)):
            delay = float(yielded)
            if delay < 0:
                raise SimulationError(f"process yielded a negative delay {delay}")
            return self.now + delay
        raise SimulationError(
            f"process yielded unsupported value {yielded!r}; "
            "yield a delay in cycles or a ResumeAt"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def processes(self) -> List[Process]:
        """All processes ever spawned on this engine."""
        return list(self._processes)

    @property
    def pending_events(self) -> int:
        """Number of events currently queued."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Number of events processed since construction."""
        return self._events_processed

    def all_finished(self) -> bool:
        """Return ``True`` when every spawned process has completed."""
        return all(process.finished for process in self._processes)
