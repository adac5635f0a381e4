"""The distributed coordinator: an HTTP lease server behind the backend API.

:class:`DistributedBackend` implements the ordinary
:class:`~repro.experiments.sweep.backends.ExecutionBackend` protocol, so
``SweepRunner`` needs no distributed-specific code path — cache writes,
manifest checkpointing, resume, and sharding all behave exactly as they
do for the in-process backends.  What changes is *who executes*: instead
of forking a pool, ``run()`` publishes the pending jobs as leases on an
embedded asyncio HTTP server (the shared keep-alive HTTP/1.1 transport
of :mod:`repro.net.http`, the same one :mod:`repro.serving.http` runs
on) and blocks until remote workers have pulled and completed every
lease.

Routes::

    GET  /healthz      liveness + board counters
    POST /v1/lease     acquire the next lease ({"worker": id})
    POST /v1/complete  push digest-stamped results for a lease
    GET  /v1/status    detailed board snapshot

Threading model: the event loop runs on one background thread owned by
the backend, started lazily on the first ``run()`` (or eagerly via
:meth:`DistributedBackend.start`, which the ``coordinate`` CLI does so it
can print the bound port) and kept alive across ``run()`` calls so one
coordinator can serve a figure harness that dispatches several sweeps.
All board mutation happens on the loop thread; completed ``(job,
payload)`` pairs cross back to the runner's thread through a queue, so
``on_result`` — and therefore every cache/manifest write — runs on the
calling thread, as the backend contract requires.

Resumability is the manifest's: kill the coordinator mid-sweep and the
completed prefix is already checkpointed, so rerunning with ``--resume``
re-serves only the remainder.  Kill a *worker* mid-lease and the lease
simply expires and is reissued (see
:mod:`~repro.experiments.sweep.distributed.lease`).
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import SweepError
from repro.experiments.sweep.backends.base import ExecutionBackend, ResultCallback
from repro.experiments.sweep.distributed.lease import LeaseBoard
from repro.experiments.sweep.distributed import protocol
from repro.experiments.sweep.distributed.protocol import (
    DIST_PROTOCOL_VERSION,
    WireError,
    encode_job,
)
from repro.experiments.sweep.sweep import Job
from repro.net.http import JsonHttpServer

#: Largest accepted request body (bytes); larger bodies get a 413 envelope.
MAX_BODY_BYTES = 64 * 1024 * 1024


class DistributedBackend(ExecutionBackend, JsonHttpServer):
    """Serves sweep jobs as HTTP leases to remote pull workers.

    Parameters
    ----------
    host / port:
        Bind address of the embedded coordinator server; port ``0``
        picks an ephemeral port (resolved after :meth:`start`).
    jobs_per_lease:
        Jobs per worker round-trip (default 1: maximal balancing; raise
        it to amortize round-trips on grids of many short jobs).
    lease_timeout:
        Seconds a worker may hold a lease before it is reissued.
    """

    name = "distributed"

    envelope_for_exception = staticmethod(protocol.envelope_for_exception)

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs_per_lease: Optional[int] = None,
        lease_timeout: float = 60.0,
    ) -> None:
        if jobs_per_lease is not None and jobs_per_lease < 1:
            raise SweepError(f"jobs_per_lease must be >= 1, got {jobs_per_lease}")
        if lease_timeout <= 0:
            raise SweepError(f"lease_timeout must be > 0, got {lease_timeout}")
        super().__init__(MAX_BODY_BYTES, WireError, host=host, port=port)
        self.jobs_per_lease = jobs_per_lease
        self.lease_timeout = float(lease_timeout)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        # Current assignment, owned by the loop thread.
        self._board: Optional[LeaseBoard] = None
        self._results: Optional["queue.Queue"] = None
        #: Board counters of the most recently completed ``run()`` —
        #: reissues, workers, lease totals (see ``LeaseBoard.snapshot``).
        self.last_snapshot: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Lifecycle: a synchronous thread around the shared server coroutines
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the coordinator server thread is running."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the coordinator server on its background thread."""
        if self.started:
            return
        self._ready.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._serve_thread, name="repro-coordinator", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            raise SweepError(f"coordinator failed to start on {self.url}: {error}")

    def close(self) -> None:
        """Stop the server thread and release the listening socket."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            loop, stop = self._loop, self._stop
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join()
        self._thread = None
        self._loop = None
        self._stop = None

    def __enter__(self) -> "DistributedBackend":
        """Start the coordinator on context entry."""
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the coordinator on context exit."""
        self.close()

    # The coordinator serves on its own thread, so the server's async
    # entry points, which await start() and close(), do not apply.
    async def __aenter__(self) -> "DistributedBackend":
        """Refused: use ``with DistributedBackend()``."""
        raise _async_use_error()

    async def __aexit__(self, *exc_info: object) -> None:
        """Refused: use ``with DistributedBackend()``."""
        raise _async_use_error()

    async def serve_forever(self) -> None:
        """Refused: use ``with DistributedBackend()``."""
        raise _async_use_error()

    def _serve_thread(self) -> None:
        """Thread target: run the asyncio server until :meth:`close`."""
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()/run()
            self._startup_error = exc
            self._ready.set()

    async def _serve(self) -> None:
        """Bind the socket, publish readiness, serve until stopped."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await JsonHttpServer.start(self)
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await JsonHttpServer.close(self)

    # ------------------------------------------------------------------
    # ExecutionBackend
    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Job],
        workers: int,
        on_result: ResultCallback,
    ) -> int:
        """Publish ``jobs`` as leases and block until workers complete them.

        The ``workers`` argument (the runner's local worker request) does
        not bound remote parallelism — any number of workers may pull
        leases; it is accepted for protocol compatibility.  Returns the
        number of distinct workers that completed at least one job.
        """
        self.start()
        assert self._loop is not None
        per_lease = self.jobs_per_lease if self.jobs_per_lease is not None else 1
        board = LeaseBoard(
            jobs, jobs_per_lease=per_lease, lease_timeout=self.lease_timeout
        )
        results: "queue.Queue" = queue.Queue()
        self._call_on_loop(self._attach, board, results)
        try:
            completed = 0
            while completed < len(jobs):
                try:
                    job, payload = results.get(timeout=0.25)
                except queue.Empty:
                    if not self.started:
                        raise SweepError(
                            "coordinator server stopped with "
                            f"{len(jobs) - completed} job(s) outstanding"
                        ) from None
                    continue
                on_result(job, payload)
                completed += 1
            return max(1, len(board.workers_completed))
        finally:
            self.last_snapshot = board.snapshot()
            self._call_on_loop(self._attach, None, None)

    def _call_on_loop(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the loop thread and wait for it."""
        assert self._loop is not None
        done = threading.Event()

        def call() -> None:
            try:
                fn(*args)
            finally:
                done.set()

        self._loop.call_soon_threadsafe(call)
        done.wait()

    def _attach(self, board: Optional[LeaseBoard], results) -> None:
        """Install (or clear) the current assignment; loop thread only."""
        self._board = board
        self._results = results

    # ------------------------------------------------------------------
    # Routing (the server itself lives in repro.net.http)
    # ------------------------------------------------------------------
    async def route(self, method: str, path: str, body: bytes) -> Tuple[int, Dict]:
        """The route table proper (the boundary lives in ``dispatch``)."""
        if path == "/v1/status":
            self.require_method(method, "GET", path)
            return 200, self._status_document()
        if path == "/v1/lease":
            self.require_method(method, "POST", path)
            return 200, self._lease(self.parse_json_body(body))
        if path == "/v1/complete":
            self.require_method(method, "POST", path)
            return 200, self._complete(self.parse_json_body(body))
        raise WireError("not-found", f"no route for {path!r}")

    # ------------------------------------------------------------------
    # Route handlers (loop thread only)
    # ------------------------------------------------------------------
    def healthz_document(self) -> Dict[str, object]:
        """Liveness + board counters for ``/healthz``."""
        document: Dict[str, object] = {
            "status": "ok",
            "protocol": DIST_PROTOCOL_VERSION,
            "serving": self._board is not None,
        }
        if self._board is not None:
            document["jobs"] = self._board.snapshot()
        return document

    def _status_document(self) -> Dict[str, object]:
        """Detailed board snapshot for ``/v1/status``."""
        document: Dict[str, object] = {
            "protocol": DIST_PROTOCOL_VERSION,
            "serving": self._board is not None,
            "lease_timeout": self.lease_timeout,
        }
        if self._board is not None:
            self._board.expire(time.monotonic())
            document["jobs"] = self._board.snapshot()
        return document

    def _lease(self, request: object) -> Dict[str, object]:
        """Handle ``/v1/lease``: issue the next lease or report idle."""
        worker = _worker_of(request)
        base: Dict[str, object] = {"protocol": DIST_PROTOCOL_VERSION}
        if self._board is None:
            return {**base, "idle": True, "done": False}
        lease = self._board.acquire(worker, time.monotonic())
        if lease is None:
            return {**base, "idle": True, "done": self._board.done}
        return {
            **base,
            "lease": {
                "id": lease.lease_id,
                "timeout": self._board.lease_timeout,
                "jobs": [encode_job(job) for job in lease.jobs],
            },
        }

    def _complete(self, request: object) -> Dict[str, object]:
        """Handle ``/v1/complete``: digest-check and record results."""
        worker = _worker_of(request)
        if not isinstance(request, dict) or not isinstance(
            request.get("results"), list
        ):
            raise WireError(
                "invalid-request", "completion requires a 'results' list"
            )
        lease_id = str(request.get("lease", ""))
        if self._board is None or self._results is None:
            raise WireError(
                "invalid-request", "no sweep is currently being coordinated"
            )
        triples = []
        for entry in request["results"]:
            if not isinstance(entry, dict):
                raise WireError("invalid-request", "malformed result entry")
            try:
                triples.append(
                    (
                        str(entry["fingerprint"]),
                        str(entry["digest"]),
                        dict(entry["payload"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise WireError(
                    "invalid-request", f"malformed result entry: {exc}"
                ) from exc
        receipt = self._board.complete(lease_id, worker, triples, time.monotonic())
        for job, payload in receipt.accepted:
            self._results.put((job, payload))
        return {
            "protocol": DIST_PROTOCOL_VERSION,
            "accepted": len(receipt.accepted),
            "duplicates": receipt.duplicates,
            "lease_known": receipt.lease_known,
            "done": self._board.done,
        }


def _async_use_error() -> SweepError:
    """The error of an ``async`` entry point the coordinator refuses."""
    return SweepError(
        "the coordinator runs on its own thread: use `with DistributedBackend()` "
        "(or start() and close()), not `async with` or serve_forever()"
    )


def _worker_of(request: object) -> str:
    """Extract the mandatory worker identity from a request document."""
    if not isinstance(request, dict) or not str(request.get("worker", "")).strip():
        raise WireError("invalid-request", "request requires a 'worker' identity")
    return str(request["worker"])


__all__ = ["DistributedBackend", "MAX_BODY_BYTES"]
