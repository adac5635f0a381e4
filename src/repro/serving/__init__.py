"""Online policy serving: decisions-as-a-service over JSON/HTTP.

The serving stack turns a registered trained-policy artifact
(:mod:`repro.models`) into a long-running decision service:

* :mod:`repro.serving.service` — the transport-agnostic core:
  atomic hot-reloadable model snapshots, each with a decision table built
  once by :meth:`~repro.core.qtable.QTable.best_modes` and indexed by
  every single or batched decision, bounded what-if scenario evaluations,
  and the stats/histogram machinery;
* :mod:`repro.serving.http` — the route table, what-if executor and
  reload loop over the shared :mod:`repro.net` server (stdlib only, no
  framework);
* :mod:`repro.serving.protocol` — wire formats, state parsing, and the
  typed error-envelope vocabulary;
* :mod:`repro.serving.client` — the minimal asyncio client the load
  generator, benchmarks, and tests use;
* :mod:`repro.serving.loadtest` — deterministic load generation and SLO
  checking;
* :mod:`repro.serving.cli` — ``python -m repro.serving serve|loadtest``.

Every response carries the served model's payload digest, generation, and
the library version, so a decision is always attributable to one exact
Q-table.  See ``docs/serving.md`` for the protocol and the serving
contract.
"""

from repro.serving.client import ServingClient
from repro.serving.http import ServingServer
from repro.serving.loadtest import LoadReport, check_slo, run_load, slo_for_scale
from repro.serving.protocol import (
    ERROR_STATUS,
    PROTOCOL_VERSION,
    RequestError,
    error_envelope,
)
from repro.serving.service import PolicyService, ServedModel, ServingStats

__all__ = [
    "ERROR_STATUS",
    "PROTOCOL_VERSION",
    "LoadReport",
    "PolicyService",
    "RequestError",
    "ServedModel",
    "ServingClient",
    "ServingServer",
    "ServingStats",
    "check_slo",
    "error_envelope",
    "run_load",
    "slo_for_scale",
]
