"""The policy-serving core: model lifecycle, decisions, what-ifs, stats.

:class:`PolicyService` is transport-agnostic — the asyncio HTTP layer
(:mod:`repro.serving.http`) is a thin adapter over it, and tests drive it
directly.  Three design points carry the serving contract:

* **Atomic model swaps.**  The currently served model lives in one
  :class:`ServedModel` value bound to a single attribute.  Handlers read
  that attribute exactly once per request, so every response is computed
  against one consistent ``(artifact, policy, decision table, digest,
  generation)`` tuple even while a hot reload replaces the attribute
  concurrently — a torn response (decisions from one table, digest from
  another) is impossible by construction.

* **Digest-gated hot reload.**  :meth:`PolicyService.check_reload` watches
  the registry file's ``(mtime_ns, size)`` signature; on change it
  re-loads through :meth:`~repro.models.ModelRegistry.load_retry` (which
  absorbs the write-commit race) and swaps only when the digest actually
  changed, bumping the model ``generation``.  A failed reload keeps the
  previous model serving and is retried on the next tick.

* **Bounded what-ifs.**  Scenario evaluations run through the standard
  sweep runner with an explicit per-phase event budget
  (``max_events``), so one simulation request can never hold the service
  hostage; budget exhaustion surfaces as a typed ``simulation-error``
  envelope.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.core.policies import CohmeleonPolicy
from repro.core.qtable import QTable
from repro.models.artifact import PolicyArtifact
from repro.models.registry import ModelRegistry
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    RequestError,
    parse_decide_request,
)

#: Default per-request event budget of a what-if evaluation.
DEFAULT_WHATIF_MAX_EVENTS = 250_000

#: Default maximum number of states in one decision batch.
DEFAULT_MAX_BATCH = 4096

#: Upper bucket bounds (milliseconds) of the latency histogram.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    float("inf"),
)


@dataclass(frozen=True)
class ServedModel:
    """One immutable snapshot of everything a request handler needs.

    Handlers grab the service's current snapshot once and use only it, so
    the ``digest``/``generation`` they stamp into the response always
    describe the exact Q-table that produced the decisions.  The snapshot
    carries the table's greedy decision for every state, computed once
    when it is loaded; a frozen served table never changes, so answering
    a request is an index into that tuple.
    """

    #: Registry name the snapshot was loaded under.
    name: str
    #: The digest-verified artifact document.
    artifact: PolicyArtifact
    #: The frozen policy rebuilt from the artifact.
    policy: CohmeleonPolicy
    #: The policy's Q-table (the source of :attr:`decisions`).
    qtable: QTable
    #: SHA-256 payload digest (provenance stamp of every response).
    digest: str
    #: Monotonic reload counter: 0 at startup, +1 per digest change.
    generation: int
    #: Greedy mode label of every state, in state-index order: one
    #: :meth:`~repro.core.qtable.QTable.best_modes` over the whole table
    #: (the decision hot path).
    decisions: Tuple[str, ...]


class LatencyHistogram:
    """Fixed-bucket latency histogram with nearest-upper-bound percentiles."""

    def __init__(self, buckets_ms: Tuple[float, ...] = LATENCY_BUCKETS_MS) -> None:
        self.buckets_ms = buckets_ms
        self.counts = [0] * len(buckets_ms)
        self.total = 0
        self.sum_ms = 0.0

    def observe(self, latency_ms: float) -> None:
        """Record one request latency (milliseconds)."""
        for index, upper in enumerate(self.buckets_ms):
            if latency_ms <= upper:
                self.counts[index] += 1
                break
        self.total += 1
        self.sum_ms += latency_ms

    def percentile(self, fraction: float) -> Optional[float]:
        """Upper bound of the bucket holding the ``fraction`` percentile.

        Returns ``None`` with no observations.  The estimate is
        conservative (a bucket upper bound, never an interpolation), which
        is the right direction for an SLO readout.
        """
        if self.total == 0:
            return None
        rank = max(1, int(fraction * self.total + 0.5))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.buckets_ms[index]
        return self.buckets_ms[-1]  # pragma: no cover - rank <= total

    def snapshot(self) -> Dict[str, object]:
        """JSON form for the ``/stats`` endpoint."""
        return {
            "count": self.total,
            "mean_ms": (self.sum_ms / self.total) if self.total else None,
            "p50_ms": self.percentile(0.50),
            "p99_ms": self.percentile(0.99),
            "buckets": [
                {"le_ms": upper, "count": count}
                for upper, count in zip(self.buckets_ms, self.counts)
                if count
            ],
        }


class ServingStats:
    """Thread-safe counters and histograms behind ``/stats``.

    What-if evaluations run on executor threads while decisions run on the
    event loop, so every mutation takes the internal lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.decisions_served = 0
        self.reloads = 0
        self.reload_errors = 0
        self.latency = LatencyHistogram()
        self.batch_sizes = LatencyHistogram(
            buckets_ms=(1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, float("inf"))
        )

    def record_request(self, endpoint: str, latency_ms: float) -> None:
        """Count one handled request and its latency."""
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
            self.latency.observe(latency_ms)

    def record_error(self, error_type: str) -> None:
        """Count one error envelope by type."""
        with self._lock:
            self.errors[error_type] = self.errors.get(error_type, 0) + 1

    def record_decisions(self, batch_size: int) -> None:
        """Count served decisions and the batch size that carried them."""
        with self._lock:
            self.decisions_served += batch_size
            self.batch_sizes.observe(float(batch_size))

    def record_reload(self) -> None:
        """Count one successful hot reload (digest change observed)."""
        with self._lock:
            self.reloads += 1

    def record_reload_error(self) -> None:
        """Count one failed reload attempt (previous model kept serving)."""
        with self._lock:
            self.reload_errors += 1

    def snapshot(self) -> Dict[str, object]:
        """JSON form for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "uptime_s": time.monotonic() - self.started,
                "requests": dict(self.requests),
                "errors": dict(self.errors),
                "decisions_served": self.decisions_served,
                "reloads": self.reloads,
                "reload_errors": self.reload_errors,
                "latency": self.latency.snapshot(),
                "batch_sizes": self.batch_sizes.snapshot(),
            }


class PolicyService:
    """Serves decisions and what-ifs from one hot-reloadable model."""

    def __init__(
        self,
        registry: ModelRegistry,
        model_name: str,
        whatif_max_events: int = DEFAULT_WHATIF_MAX_EVENTS,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self.registry = registry
        self.model_name = model_name
        self.whatif_max_events = int(whatif_max_events)
        self.max_batch = int(max_batch)
        self.stats = ServingStats()
        self._reload_lock = threading.Lock()
        # Stat before load: if the file changes in between, the stale
        # signature makes the next check_reload() re-read (and find the
        # same digest, a no-op) instead of missing the change.
        self._signature = self._stat_signature()
        self._model = self._load_model(generation=0)

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    @property
    def model(self) -> ServedModel:
        """The current model snapshot (one atomic attribute read)."""
        return self._model

    def _stat_signature(self) -> Optional[Tuple[int, int]]:
        """Change signature of the registry file (``None`` when absent)."""
        try:
            stat = self.registry.path_for(self.model_name).stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _load_model(self, generation: int) -> ServedModel:
        """Load, digest-verify, and freeze one model snapshot."""
        artifact = self.registry.load_retry(self.model_name)
        policy = artifact.build_policy()
        qtable = policy.agent.qtable
        return ServedModel(
            name=self.model_name,
            artifact=artifact,
            policy=policy,
            qtable=qtable,
            digest=artifact.digest,
            generation=generation,
            decisions=tuple(
                mode.label for mode in qtable.best_modes(range(qtable.num_states))
            ),
        )

    def check_reload(self) -> bool:
        """Reload the model if the registry file changed; return whether.

        The swap is a single attribute assignment of a fully constructed
        :class:`ServedModel`, so concurrent requests see either the old
        snapshot or the new one, never an intermediate.  A failed load
        counts a reload error, keeps the previous model serving, leaves
        the stored signature untouched (so the next tick retries), and
        re-raises.
        """
        with self._reload_lock:
            signature = self._stat_signature()
            if signature == self._signature:
                return False
            try:
                # Same stat-before-load ordering as __init__.
                current = self._model
                candidate = self._load_model(generation=current.generation + 1)
            except Exception:
                self.stats.record_reload_error()
                raise
            self._signature = signature
            if candidate.digest == current.digest:
                return False
            self._model = candidate
            self.stats.record_reload()
            return True

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _provenance(self, model: ServedModel) -> Dict[str, object]:
        """The provenance fields every response envelope carries."""
        return {
            "model": model.name,
            "digest": model.digest,
            "generation": model.generation,
            "repro_version": __version__,
            "protocol": PROTOCOL_VERSION,
        }

    def healthz(self) -> Dict[str, object]:
        """The ``/healthz`` document: liveness plus model identity."""
        model = self._model
        document = self._provenance(model)
        document.update(
            {
                "status": "ok",
                "scenario": model.artifact.scenario,
                "uptime_s": time.monotonic() - self.stats.started,
            }
        )
        return document

    def stats_snapshot(self) -> Dict[str, object]:
        """The ``/stats`` document: counters, histograms, model identity."""
        model = self._model
        document = self._provenance(model)
        document.update(self.stats.snapshot())
        return document

    def decide(self, document: object) -> Dict[str, object]:
        """Answer a single or batched decision request.

        Every state of the batch is looked up in the decision table of
        one model snapshot (:attr:`ServedModel.decisions`, built by
        :meth:`~repro.core.qtable.QTable.best_modes` when the snapshot was
        loaded), so the response's decisions and digest are consistent by
        construction and bit-identical to an offline evaluation of the
        same table.  A state index the served table does not cover is an
        ``invalid-request``.
        """
        model = self._model
        indices, single = parse_decide_request(document, self.max_batch)
        table = model.decisions
        try:
            labels = [table[index] for index in indices]
        except IndexError:
            # Only an artifact with a table smaller than the state space
            # gets here; name its first uncovered state, as best_modes does.
            index = next(index for index in indices if index >= len(table))
            raise RequestError(
                "invalid-request", f"state index {index} out of range"
            ) from None
        response = self._provenance(model)
        response.update({"decisions": labels, "count": len(labels)})
        if single:
            response["decision"] = labels[0]
        self.stats.record_decisions(len(labels))
        return response

    def whatif(self, document: object) -> Dict[str, object]:
        """Run one bounded what-if scenario evaluation.

        The request names a **registered** scenario (never a file path —
        the server does not read caller-chosen files) and optionally the
        policy kinds to compare, a seed, a training budget, and an event
        budget; the effective event budget is capped at the server's
        ``whatif_max_events``.  When ``cohmeleon`` is among the policies
        it evaluates the captured model snapshot's frozen table, so the
        what-if answers "how would *this served model* do".
        """
        from repro.experiments.common import STANDARD_POLICY_KINDS
        from repro.scenarios.registry import discover, get_scenario, scenario_names
        from repro.scenarios.run import run_scenario

        model = self._model
        if not isinstance(document, dict):
            raise RequestError("invalid-request", "request body must be a JSON object")
        unknown = set(document) - {
            "scenario",
            "policies",
            "seed",
            "training_iterations",
            "max_events",
        }
        if unknown:
            raise RequestError(
                "invalid-request", f"unknown what-if fields: {sorted(unknown)}"
            )
        name = document.get("scenario")
        if not isinstance(name, str) or not name:
            raise RequestError("invalid-request", "'scenario' must be a scenario name")
        discover()
        if name not in scenario_names():
            raise RequestError(
                "not-found",
                f"no registered scenario named {name!r} "
                f"(available: {', '.join(scenario_names()) or 'none'})",
            )
        scenario = get_scenario(name)

        kinds = document.get("policies", ["cohmeleon"])
        if (
            not isinstance(kinds, list)
            or not kinds
            or not all(isinstance(kind, str) for kind in kinds)
        ):
            raise RequestError(
                "invalid-request", "'policies' must be a non-empty array of kinds"
            )
        bad = [kind for kind in kinds if kind not in STANDARD_POLICY_KINDS]
        if bad:
            raise RequestError(
                "invalid-request",
                f"unknown policy kinds {bad} "
                f"(available: {', '.join(STANDARD_POLICY_KINDS)})",
            )

        seed = _optional_int(document, "seed", minimum=0)
        iterations = _optional_int(document, "training_iterations", minimum=0)
        requested = _optional_int(document, "max_events", minimum=1)
        budget = self.whatif_max_events
        if requested is not None:
            budget = min(requested, budget)

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory(prefix="repro-whatif-") as scratch:
            pretrained: Optional[PolicyArtifact] = None
            if "cohmeleon" in kinds:
                # Snapshot the captured artifact to a private path: sweep
                # jobs re-load the pretrained artifact from disk and
                # digest-verify it, so pointing them at the live registry
                # file would tear the moment a hot reload swaps it
                # mid-simulation.  The scratch copy pins the evaluation to
                # the model this request captured.
                pretrained = PolicyArtifact(
                    name=model.artifact.name,
                    payload=model.artifact.payload,
                    digest=model.digest,
                )
                pretrained.save(Path(scratch) / "pretrained.json")
            result = run_scenario(
                scenario,
                policy_kinds=kinds,
                seed=seed,
                training_iterations=iterations,
                pretrained=pretrained,
                max_events=budget,
            )
        normalized = result.normalized()
        policies: Dict[str, object] = {}
        for kind, evaluation in result.evaluations.items():
            policies[kind] = {
                "execution_cycles": evaluation.result.total_execution_cycles,
                "ddr_accesses": evaluation.result.total_ddr_accesses,
                "norm_exec": normalized[kind]["exec"],
                "norm_mem": normalized[kind]["mem"],
            }
        response = self._provenance(model)
        response.update(
            {
                "scenario": name,
                "seed": result.seed,
                "reference_policy": result.reference_policy,
                "max_events": budget,
                "pretrained_digest": result.pretrained_digest,
                "policies": policies,
            }
        )
        return response


def _optional_int(
    document: Dict[str, object], key: str, minimum: int
) -> Optional[int]:
    """Read an optional non-negative integer field of a request body."""
    value = document.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise RequestError(
            "invalid-request", f"{key!r} must be an integer >= {minimum}, got {value!r}"
        )
    return value
