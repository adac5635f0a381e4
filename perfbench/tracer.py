"""In-memory span tracer installed around the public functions of each layer.

The traced run wraps, from outside the program, the public functions listed
in :data:`LAYER_TABLE`.  Every call becomes one span: its duration, the part
covered by child spans, and the span that caused it.  Generators and
coroutines are traced per resume, so a simulator process or an asyncio
handler is charged only for the time it actually runs, never for the time
it sits suspended.  A layer's self time is the sum of its spans' durations
minus the time of their child spans.  Counters are kept at the same
boundaries.  Everything stays in memory until :meth:`Tracer.report`.

Wrappers are installed on classes and modules and removed again by
:meth:`Tracer.uninstall`, so a traced pass and an untraced pass can run in
one process.  A forked child (a sweep pool worker) removes them at once:
its spans could never be collected, and the wrappers would only slow it.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = [_Frame("<root>")]
        self.self_s: Dict[str, float] = defaultdict(float)
        # (parent span, span) -> [calls, total seconds]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object]] = []
        self._fork_hook = False

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str) -> _Frame:
        frame = _Frame(name)
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame, elapsed: float) -> None:
        self.stack.pop()
        self.self_s[frame.name] += elapsed - frame.child_s
        parent = self.stack[-1]
        parent.child_s += elapsed
        edge = self.edges.get((parent.name, frame.name))
        if edge is None:
            self.edges[(parent.name, frame.name)] = [1, elapsed]
        else:
            edge[0] += 1
            edge[1] += elapsed

    # -- wrappers ----------------------------------------------------------
    def wrap_call(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> Callable:
        """A plain call as one span; ``after`` updates counters from the result."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, _clock() - start)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_resumable(
        self,
        fn: Callable,
        name: str,
        counter: Optional[str] = None,
        awaitable: bool = False,
        on_return: Optional[Callable[["Tracer", object], None]] = None,
    ) -> Callable:
        """A generator or coroutine function, traced once per resume.

        ``counter`` counts calls; ``on_return`` sees the value it returns.
        """
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                tracer.counters[counter] += 1
            inner = fn(*args, **kwargs)
            if awaitable:
                return _TracedAwaitable(tracer, name, inner, on_return)
            return _TracedIterator(tracer, name, inner, on_return)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation ------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr``, remembering the original for uninstall."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every function of :data:`LAYER_TABLE`."""
        if self._patches:
            return self
        for installer in LAYER_TABLE:
            installer(self)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hook = True
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Self time per span, counters, and the parent -> child span edges."""
        return {
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "edges": [
                {"parent": parent, "span": span, "calls": int(calls), "total_s": total}
                for (parent, span), (calls, total) in sorted(self.edges.items())
            ],
        }


class _TracedIterator:
    """Forwards the generator protocol, one span per resume."""

    __slots__ = ("_tracer", "_name", "_inner", "_on_return")

    def __init__(self, tracer: Tracer, name: str, inner, on_return=None) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._on_return = on_return

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._inner.send, None)

    def send(self, value):
        return self._step(self._inner.send, value)

    def throw(self, *exc_info):
        return self._step(self._inner.throw, *exc_info)

    def close(self) -> None:
        self._inner.close()

    def _step(self, resume, *args):
        tracer = self._tracer
        frame = tracer._open(self._name)
        start = _clock()
        try:
            return resume(*args)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(tracer, stop.value)
            raise
        finally:
            tracer._close(frame, _clock() - start)


class _TracedAwaitable:
    """A coroutine wrapper whose ``await`` is traced once per resume."""

    __slots__ = ("_tracer", "_name", "_coro", "_on_return")

    def __init__(self, tracer: Tracer, name: str, coro, on_return=None) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro
        self._on_return = on_return

    def __await__(self):
        return _TracedIterator(
            self._tracer, self._name, self._coro.__await__(), self._on_return
        )


# ----------------------------------------------------------------------
# Counter hooks
# ----------------------------------------------------------------------
def _count(name: str, amount: Callable[[tuple, object], float] = lambda a, r: 1):
    def after(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.counters[name] += amount(args, result)

    return after


def _cache_shape(tracer: Tracer, hits: int, misses: int, dirty: int) -> None:
    counters = tracer.counters
    lines = hits + misses
    counters["soc.cache.lines"] += lines
    counters["soc.cache.hits"] += hits
    counters["soc.cache.dirty_evictions"] += dirty
    if not misses:
        counters["soc.cache.lines_all_hit"] += lines
    elif not hits:
        counters["soc.cache.lines_all_miss"] += lines
    else:
        counters["soc.cache.lines_mixed"] += lines


def _after_access_line(tracer, args, result) -> None:
    hit, _evicted, dirty = result
    _cache_shape(tracer, int(hit), int(not hit), int(dirty))


def _after_access_range(tracer, args, result) -> None:
    _cache_shape(tracer, result.hits, result.misses, len(result.evicted_dirty))


def _after_access_line_run(tracer, args, result) -> None:
    hits, misses, _miss_lines, evicted_dirty = result
    _cache_shape(tracer, hits, misses, len(evicted_dirty))


def _after_access_lines(tracer, args, result) -> None:
    hits, misses, dirty = result
    _cache_shape(tracer, hits, misses, dirty)


# ----------------------------------------------------------------------
# The layer table: which public functions each layer's spans wrap
# ----------------------------------------------------------------------
def _install_sim(tracer: Tracer) -> None:
    from repro.sim.engine import Engine
    from repro.sim.resources import BandwidthResource

    run = Engine.run

    def counted_run(engine, *args, **kwargs):
        before = engine.events_processed
        try:
            return run(engine, *args, **kwargs)
        finally:
            tracer.counters["sim.engine.events"] += engine.events_processed - before

    tracer.patch(Engine, "run", tracer.wrap_call(counted_run, "sim.engine"))
    tracer.patch(
        BandwidthResource,
        "serve",
        tracer.wrap_call(BandwidthResource.serve, "sim.resources", _count("sim.resources.serves")),
    )


_CACHE_METHODS = {
    "access_line": _after_access_line,
    "access_range": _after_access_range,
    "access_line_run": _after_access_line_run,
    "access_lines": _after_access_lines,
    "install_range": None,
    "flush_all": None,
    "flush_range": None,
    "invalidate_line": None,
    "recall_line": None,
    "resident_lines_in_range": None,
    "resident_lines_within": None,
}


def _install_soc(tracer: Tracer) -> None:
    from repro.soc.cache import SetAssociativeCache
    from repro.soc.datapath import Datapath
    from repro.soc.dram import DramController
    from repro.soc.noc import MeshNoC

    for method, shape in _CACHE_METHODS.items():

        def after(tracer, args, result, shape=shape) -> None:
            tracer.counters["soc.cache.calls"] += 1
            if shape is not None:
                shape(tracer, args, result)

        tracer.patch(
            SetAssociativeCache,
            method,
            tracer.wrap_call(getattr(SetAssociativeCache, method), "soc.cache", after),
        )
    tracer.patch(
        Datapath,
        "flush_for_invocation",
        tracer.wrap_call(
            Datapath.flush_for_invocation, "soc.datapath", _count("soc.datapath.flushes")
        ),
    )
    for method in ("dma_read", "dma_write"):
        tracer.patch(
            Datapath,
            method,
            tracer.wrap_call(
                getattr(Datapath, method), "soc.datapath", _count("soc.datapath.dma_calls")
            ),
        )
    tracer.patch(
        MeshNoC,
        "transfer",
        tracer.wrap_call(MeshNoC.transfer, "soc.noc", _count("soc.noc.transfers")),
    )
    for method in ("read", "write", "write_back"):
        tracer.patch(
            DramController,
            method,
            tracer.wrap_call(
                getattr(DramController, method), "soc.dram", _count("soc.dram.accesses")
            ),
        )


def _install_runtime(tracer: Tracer) -> None:
    from repro.runtime.api import EspRuntime
    from repro.runtime.executor import InvocationExecutor
    from repro.runtime.status import SystemStatus

    tracer.patch(
        EspRuntime,
        "invoke",
        tracer.wrap_resumable(EspRuntime.invoke, "runtime", counter="runtime.invocations"),
    )
    tracer.patch(
        InvocationExecutor,
        "execute",
        tracer.wrap_resumable(InvocationExecutor.execute, "runtime"),
    )
    tracer.patch(SystemStatus, "snapshot", tracer.wrap_call(SystemStatus.snapshot, "runtime"))


def _install_core(tracer: Tracer) -> None:
    from repro.core import policies
    from repro.core.qtable import QTable

    for value in vars(policies).values():
        if not (isinstance(value, type) and issubclass(value, policies.CoherencePolicy)):
            continue
        for method, counter in (
            ("select_mode", "core.decisions"),
            ("observe_result", "core.updates"),
        ):
            if method in value.__dict__:
                tracer.patch(
                    value,
                    method,
                    tracer.wrap_call(value.__dict__[method], "core", _count(counter)),
                )
    tracer.patch(
        QTable,
        "best_modes",
        tracer.wrap_call(
            QTable.best_modes,
            "core.qtable.best_modes",
            _count("core.qtable.decisions", lambda args, result: len(result)),
        ),
    )


def _install_serving(tracer: Tracer) -> None:
    from repro.net.http import JsonHttpServer
    from repro.serving import service
    from repro.serving.service import PolicyService

    def count_request(tracer: Tracer, request: object) -> None:
        if request is not None:
            tracer.counters["net.requests"] += 1

    tracer.patch(
        JsonHttpServer,
        "read_request",
        tracer.wrap_resumable(
            JsonHttpServer.read_request, "net.parse", awaitable=True, on_return=count_request
        ),
    )
    tracer.patch(
        JsonHttpServer,
        "parse_json_body",
        tracer.wrap_call(JsonHttpServer.parse_json_body, "net.parse"),
    )
    tracer.patch(
        JsonHttpServer,
        "write_response",
        tracer.wrap_resumable(JsonHttpServer.write_response, "net.encode", awaitable=True),
    )
    tracer.patch(
        service,
        "parse_decide_request",
        tracer.wrap_call(service.parse_decide_request, "serving.protocol.parse"),
    )
    tracer.patch(
        PolicyService, "decide", tracer.wrap_call(PolicyService.decide, "serving.decide")
    )


def _install_sweep(tracer: Tracer) -> None:
    from repro.experiments.sweep import backends
    from repro.experiments.sweep.cache import ResultCache
    from repro.experiments.sweep.manifest import SweepManifest
    from repro.experiments.sweep.pool import SweepRunner
    from repro.experiments.sweep.sweep import Job

    tracer.patch(
        Job, "fingerprint", tracer.wrap_call(Job.fingerprint, "experiments.sweep.fingerprint")
    )
    tracer.patch(
        ResultCache, "put", tracer.wrap_call(ResultCache.put, "experiments.sweep.cache.put")
    )
    tracer.patch(
        ResultCache,
        "get",
        tracer.wrap_call(
            ResultCache.get,
            "experiments.sweep.cache.get",
            _count("experiments.sweep.cache_hits", lambda args, result: result is not None),
        ),
    )
    tracer.patch(
        SweepManifest,
        "mark_done",
        tracer.wrap_call(SweepManifest.mark_done, "experiments.sweep.manifest.mark_done"),
    )
    for backend in set(backends.BACKENDS.values()):
        if "run" in backend.__dict__:
            tracer.patch(
                backend,
                "run",
                tracer.wrap_call(backend.__dict__["run"], "experiments.sweep.backend.run"),
            )
    tracer.patch(
        SweepRunner,
        "run",
        tracer.wrap_call(
            SweepRunner.run,
            "experiments.sweep.runner",
            _count("experiments.sweep.jobs_executed", lambda args, result: result.executed),
        ),
    )


#: Installers in wrapping order; each patches one group of layers.
LAYER_TABLE = (
    _install_sim,
    _install_soc,
    _install_runtime,
    _install_core,
    _install_serving,
    _install_sweep,
)
