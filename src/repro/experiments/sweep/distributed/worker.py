"""The pull worker: lease, execute locally, push digest-stamped results.

``python -m repro.experiments.sweep worker --coordinator URL`` runs this
loop.  The worker is deliberately stateless and diskless — it holds no
cache, writes no manifest, and keeps nothing between leases — so any
number of workers can be pointed at a coordinator, killed, and restarted
without coordination.  All persistence is the coordinator's job (the
backend contract: ``on_result`` fires in the runner's process).

Lifecycle:

* **before first contact** the worker retries quietly for a startup
  grace period, so workers can be launched before the coordinator
  binds its socket (the natural order in CI scripts);
* **while connected** it pulls one lease at a time over a keep-alive
  connection, executes the lease's jobs locally (``--workers``: serial
  by default, the process pool for more than one), and pushes the
  results stamped with their payload digests;
* **when the coordinator goes away** after first contact, the worker
  treats it as the normal end of the sweep and exits 0 — kill-anywhere
  semantics need no shutdown handshake.

A typed error envelope from the coordinator (for example
``digest-mismatch``, meaning this worker computed a different payload
than an already-recorded completion of the same job) is fatal: the
worker raises it, and the command line prints it as one ``error:`` line
and exits 2, rather than keep feeding a broken sweep.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import sys
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO, Tuple
from urllib.parse import urlsplit

from repro.errors import SweepError
from repro.experiments.sweep.backends import create_backend
from repro.experiments.sweep.distributed.protocol import (
    DIST_PROTOCOL_VERSION,
    WireError,
    decode_job,
    encode_result,
)
from repro.experiments.sweep.sweep import Job


@dataclass
class WorkerStats:
    """What one worker process accomplished before the coordinator closed."""

    worker_id: str
    leases: int = 0
    jobs: int = 0
    duplicates: int = 0

    def summary(self) -> str:
        """One-line report for the worker's stdout."""
        return (
            f"[worker] id={self.worker_id} leases={self.leases} "
            f"jobs={self.jobs} duplicates={self.duplicates}"
        )


class _Transport:
    """A keep-alive JSON/HTTP client for one coordinator."""

    def __init__(self, coordinator: str, timeout: float = 30.0) -> None:
        parts = urlsplit(coordinator)
        if parts.scheme != "http" or not parts.hostname:
            raise SweepError(
                f"invalid coordinator URL {coordinator!r}: expected http://host:port"
            )
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, document: Dict[str, object]) -> Dict[str, object]:
        """POST one JSON document; raises ``ConnectionError`` when unreachable."""
        body = json.dumps(document).encode("utf-8")
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            self._conn.request(
                "POST",
                path,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise ConnectionError(str(exc)) from exc
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireError(
                "invalid-request", f"undecodable coordinator response: {exc}"
            ) from exc

    def close(self) -> None:
        """Drop the keep-alive connection (reopened on the next request)."""
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


def _check_envelope(document: Dict[str, object]) -> Dict[str, object]:
    """Raise :class:`WireError` if ``document`` is a typed error envelope."""
    error = document.get("error")
    if isinstance(error, dict):
        raise WireError(
            str(error.get("type", "internal-error")),
            str(error.get("message", "coordinator error")),
        )
    protocol = document.get("protocol")
    if protocol is not None and protocol != DIST_PROTOCOL_VERSION:
        raise WireError(
            "invalid-request",
            f"coordinator speaks protocol {protocol}, this worker speaks "
            f"{DIST_PROTOCOL_VERSION}",
        )
    return document


def _execute_lease(jobs: List[Job], workers: int) -> List[Dict[str, object]]:
    """Run one lease through a local backend; return wire-encoded results."""
    effective = max(1, min(workers, len(jobs)))
    backend = create_backend(None, effective)
    collected: List[Tuple[Job, Dict[str, object]]] = []

    def on_result(job: Job, payload: Dict[str, object]) -> None:
        collected.append((job, payload))

    backend.run(jobs, effective, on_result)
    return [encode_result(job, payload) for job, payload in collected]


def run_worker(
    coordinator: str,
    workers: int = 1,
    poll: float = 0.5,
    grace: float = 30.0,
    out: Optional[TextIO] = None,
) -> int:
    """Pull and execute leases from ``coordinator`` until it goes away.

    Returns exit code ``0`` when the coordinator closed after at least one
    successful contact (the normal end of a sweep).  Raises
    :class:`~repro.errors.SweepError` for an invalid URL, a coordinator
    that cannot be reached within ``grace`` seconds, or a wire error that
    makes continuing unsafe (a :class:`WireError`, such as a
    ``digest-mismatch`` envelope).
    """
    stream = out if out is not None else sys.stdout
    worker_id = f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    stats = WorkerStats(worker_id=worker_id)
    transport = _Transport(coordinator)
    connected = False
    deadline = time.monotonic() + grace
    while True:
        try:
            document = _check_envelope(
                transport.post("/v1/lease", {"worker": worker_id})
            )
        except ConnectionError as exc:
            if connected:
                break  # the sweep is over; coordinator released its socket
            if time.monotonic() >= deadline:
                raise SweepError(
                    f"coordinator {coordinator} unreachable for {grace:.0f}s ({exc})"
                ) from exc
            time.sleep(poll)
            continue
        connected = True
        lease = document.get("lease")
        if not isinstance(lease, dict):
            time.sleep(poll)
            continue
        try:
            jobs = [decode_job(doc) for doc in lease.get("jobs", [])]
            results = _execute_lease(jobs, workers)
            receipt = _check_envelope(
                transport.post(
                    "/v1/complete",
                    {
                        "worker": worker_id,
                        "lease": str(lease.get("id", "")),
                        "results": results,
                    },
                )
            )
        except ConnectionError:
            break  # coordinator died while we held a lease; nothing to save
        stats.leases += 1
        stats.jobs += int(receipt.get("accepted", 0))
        stats.duplicates += int(receipt.get("duplicates", 0))
    transport.close()
    print(stats.summary() + " (coordinator closed)", file=stream)
    return 0


__all__ = ["WorkerStats", "run_worker"]
