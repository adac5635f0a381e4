"""The four accelerator cache-coherence modes (paper Section 2).

The modes are defined from the *system's* point of view and are independent
of the specific protocol implemented by the cache hierarchy:

* ``NON_COH_DMA`` — the accelerator bypasses the cache hierarchy and reads
  and writes DRAM directly.  Software must flush the private caches *and*
  the LLC before the invocation so that main memory holds the latest data.
* ``LLC_COH_DMA`` — requests go to the LLC partition owning the address;
  the accelerator is coherent with the LLC but not with the processors'
  private caches, which therefore must be flushed by software.
* ``COH_DMA`` — requests go to the LLC and the hardware keeps full
  coherence by recalling or invalidating lines held in private caches; no
  software flush is required.
* ``FULL_COH`` — the accelerator owns a private cache that participates in
  the regular coherence protocol, exactly like a processor core.
"""

from __future__ import annotations

from enum import Enum
from typing import Tuple

from repro.errors import CoherenceError


class CoherenceMode(Enum):
    """Accelerator cache-coherence modes."""

    NON_COH_DMA = "non-coh-dma"
    LLC_COH_DMA = "llc-coh-dma"
    COH_DMA = "coh-dma"
    FULL_COH = "full-coh"

    @property
    def label(self) -> str:
        """Short label used in tables and figures (matches the paper)."""
        return self.value

    @property
    def requires_private_flush(self) -> bool:
        """Whether software must flush the processors' private caches."""
        return self in (CoherenceMode.NON_COH_DMA, CoherenceMode.LLC_COH_DMA)

    @property
    def requires_llc_flush(self) -> bool:
        """Whether software must also flush the LLC."""
        return self is CoherenceMode.NON_COH_DMA

    @property
    def uses_llc(self) -> bool:
        """Whether accelerator requests are routed through the LLC."""
        return self in (
            CoherenceMode.LLC_COH_DMA,
            CoherenceMode.COH_DMA,
            CoherenceMode.FULL_COH,
        )

    def __str__(self) -> str:
        return self.value


#: Canonical ordering of the modes, used as the RL action set.
COHERENCE_MODES: Tuple[CoherenceMode, ...] = (
    CoherenceMode.NON_COH_DMA,
    CoherenceMode.LLC_COH_DMA,
    CoherenceMode.COH_DMA,
    CoherenceMode.FULL_COH,
)


#: Memoized label -> mode and mode -> canonical-index tables.  The lookups
#: run once per simulated coherence decision, so they are dictionary reads
#: rather than linear scans over the enum.
_MODE_BY_LABEL: dict = {mode.value: mode for mode in COHERENCE_MODES}
_MODE_INDEX: dict = {mode: index for index, mode in enumerate(COHERENCE_MODES)}


def mode_from_label(label: str) -> CoherenceMode:
    """Parse a coherence mode from its short label (e.g. ``'coh-dma'``)."""
    try:
        return _MODE_BY_LABEL[label]
    except KeyError:
        raise CoherenceError(f"unknown coherence mode label {label!r}") from None


def mode_index(mode: CoherenceMode) -> int:
    """Return the canonical index of ``mode`` in :data:`COHERENCE_MODES`."""
    return _MODE_INDEX[mode]
