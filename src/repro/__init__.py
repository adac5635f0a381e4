"""Reproduction of *Cohmeleon: Learning-Based Orchestration of Accelerator
Coherence in Heterogeneous SoCs* (MICRO 2021).

The library is organised as follows:

* :mod:`repro.sim` — a small discrete-event simulation kernel;
* :mod:`repro.soc` — the SoC substrate (NoC, caches, LLC partitions, DRAM
  controllers, coherence-mode datapaths, hardware monitors);
* :mod:`repro.accelerators` — behavioural accelerator models and the
  configurable traffic generator;
* :mod:`repro.runtime` — the ESP-like accelerator invocation API with the
  sense/decide/actuate/evaluate loop;
* :mod:`repro.core` — Cohmeleon itself (state space, reward, Q-learning
  agent) and the baseline coherence policies;
* :mod:`repro.workloads` — multithreaded evaluation applications;
* :mod:`repro.experiments` — harnesses that regenerate every figure and
  table of the paper's evaluation, plus the parallel sweep runner and its
  on-disk result cache;
* :mod:`repro.scenarios` — the declarative scenario registry: named,
  parameterizable workloads (case studies, example ports, the Figure 9
  grid, and new frontier workloads) runnable through the sweep runner via
  ``python -m repro.scenarios``;
* :mod:`repro.models` — trained-policy persistence: digest-gated
  artifacts wrapping a trained Q-table with full provenance, a model
  registry, and the ``--pretrained`` warm-start path
  (``python -m repro.models``);
* :mod:`repro.serving` — the JSON/HTTP policy server: batched decision
  requests, bounded what-if evaluations, atomic hot reload on registry
  digest changes, and the SLO-gated deterministic load generator
  (``python -m repro.serving``);
* :mod:`repro.net` — the one asyncio keep-alive HTTP/1.1 server (listener
  lifecycle, framing, request boundary) and the typed error-envelope
  machinery every in-repo server is built on;
* :mod:`repro.store` — the read side of the on-disk documents programs
  read back (sweep manifests, BENCH reports), one typed reader per
  format;
* :mod:`repro.tracking` — the read-only experiment-tracking API over
  :mod:`repro.net` and :mod:`repro.store`: sweep runs with live progress,
  the model registry with provenance, and the BENCH trajectory with
  regression flagging (``python -m repro.tracking``).

The docs site under ``docs/`` (``mkdocs build``) covers every layer; see
``docs/architecture.md`` for the layer map.

Quickstart
----------
>>> from repro import build_system
>>> from repro.core import CohmeleonPolicy
>>> soc, runtime = build_system("SoC1", policy=CohmeleonPolicy())
>>> sorted(runtime.bound_accelerator_names())[:3]
['Autoencoder', 'Cholesky', 'Conv-2D']
"""

from __future__ import annotations

import importlib
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.accelerators.descriptor import AcceleratorDescriptor
    from repro.core.policies import CoherencePolicy
    from repro.runtime.api import EspRuntime
    from repro.soc.config import SoCConfig
    from repro.soc.soc import Soc

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CoherenceMode",
    "COHERENCE_MODES",
    "SoCConfig",
    "soc_preset",
    "Soc",
    "EspRuntime",
    "AcceleratorDescriptor",
    "ACCELERATOR_LIBRARY",
    "accelerator_by_name",
    "CoherencePolicy",
    "CohmeleonPolicy",
    "FixedPolicy",
    "build_system",
]


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, str]
) -> Callable[[str], Any]:
    """Build a package's module ``__getattr__`` that imports re-exports on first use.

    ``exports`` maps each re-exported name to the module that defines it.  A
    package binds the result to ``__getattr__`` (PEP 562), so importing the
    package imports none of those modules: reading a name imports its module
    and binds the name in ``namespace``, the package's ``globals()``.  Any
    other name raises :class:`AttributeError`, so ``hasattr`` and
    ``from package import *`` behave as with eager imports.
    """

    def __getattr__(name: str) -> Any:
        if name not in exports:
            package = namespace["__name__"]
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(exports[name]), name)
        return value

    return __getattr__


# Every process imports this package first, and most (the servers, the CLIs'
# document readers) never build a SoC: the simulator loads on first use.
__getattr__ = lazy_exports(
    globals(),
    {
        "CoherenceMode": "repro.soc.coherence",
        "COHERENCE_MODES": "repro.soc.coherence",
        "SoCConfig": "repro.soc.config",
        "soc_preset": "repro.soc.config",
        "Soc": "repro.soc.soc",
        "EspRuntime": "repro.runtime.api",
        "AcceleratorDescriptor": "repro.accelerators.descriptor",
        "ACCELERATOR_LIBRARY": "repro.accelerators.library",
        "accelerator_by_name": "repro.accelerators.library",
        "CoherencePolicy": "repro.core.policies",
        "CohmeleonPolicy": "repro.core.policies",
        "FixedPolicy": "repro.core.policies",
    },
)


def build_system(
    config: "SoCConfig | str",
    policy: Optional[CoherencePolicy] = None,
    accelerators: Optional[Sequence[AcceleratorDescriptor]] = None,
) -> Tuple[Soc, EspRuntime]:
    """Build a SoC and its invocation runtime in one call.

    Parameters
    ----------
    config:
        A :class:`SoCConfig` or the name of a Table 4 preset (e.g. ``"SoC0"``).
    policy:
        The coherence-selection policy; defaults to Cohmeleon.
    accelerators:
        Descriptors to bind to the accelerator tiles, in order.  Defaults to
        the ESP accelerator library, truncated or cycled to fill the SoC's
        accelerator tiles.
    """
    from repro.accelerators.library import ACCELERATOR_LIBRARY
    from repro.core.policies import CohmeleonPolicy
    from repro.runtime.api import EspRuntime
    from repro.soc.config import soc_preset
    from repro.soc.soc import Soc

    if isinstance(config, str):
        config = soc_preset(config)
    soc = Soc(config)
    runtime = EspRuntime(soc, policy if policy is not None else CohmeleonPolicy())

    if accelerators is None:
        library: List[AcceleratorDescriptor] = list(ACCELERATOR_LIBRARY)
        accelerators = [
            library[index % len(library)]
            for index in range(config.num_accelerator_tiles)
        ]
    runtime.bind_library(list(accelerators)[: config.num_accelerator_tiles])
    return soc, runtime
