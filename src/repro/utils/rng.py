"""Deterministic random-number utilities.

Every stochastic component in the library (the epsilon-greedy agent, the
random policy, the workload generator, the traffic generator) receives an
explicit random source so that experiments are reproducible.  The helpers
here make it easy to derive independent, stable streams from a single
experiment seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a stable 63-bit child seed from ``base_seed`` and labels.

    The derivation hashes the textual representation of the labels, so the
    same ``(base_seed, labels)`` pair always yields the same child seed on
    every platform and Python version.
    """
    text = f"{base_seed}::" + "::".join(str(label) for label in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


class SeededRNG:
    """A thin wrapper around :class:`random.Random` with stream derivation.

    The wrapper exposes only the operations the library needs, which keeps
    call sites explicit and makes it easy to audit where randomness enters
    an experiment.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)

    def spawn(self, *labels: object) -> "SeededRNG":
        """Return an independent child stream identified by ``labels``."""
        return SeededRNG(derive_seed(self.seed, *labels))

    def random(self) -> float:
        """Return a float uniformly distributed in ``[0, 1)``."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Return a float uniformly distributed in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in ``[low, high]``."""
        return self._random.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        """Return one element of ``options`` chosen uniformly."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(options)

    def weighted_choice(self, options: Sequence[T], weights: Sequence[float]) -> T:
        """Return one element of ``options`` with the given relative weights."""
        if len(options) != len(weights):
            raise ValueError("options and weights must have the same length")
        return self._random.choices(list(options), weights=list(weights), k=1)[0]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def sample(self, options: Sequence[T], count: int) -> list:
        """Return ``count`` distinct elements sampled from ``options``."""
        return self._random.sample(list(options), count)

    def gauss(self, mu: float, sigma: float) -> float:
        """Return a normally-distributed float."""
        return self._random.gauss(mu, sigma)

    def maybe(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        return self._random.random() < probability

    def state(self) -> object:
        """Return the underlying generator state (for tests)."""
        return self._random.getstate()

    def export_state(self) -> list:
        """Return the generator state as a JSON-able structure.

        The counterpart of :meth:`restore_state`; used by the trained-policy
        artifacts (:mod:`repro.models`) to persist the exact point a
        stream had reached, so a reloaded policy consumes the same draws an
        in-process one would.
        """
        version, internal, gauss_next = self._random.getstate()
        return [int(version), [int(word) for word in internal], gauss_next]

    def restore_state(self, state: object) -> None:
        """Restore a state captured by :meth:`export_state`.

        Accepts the JSON round-tripped form (lists instead of tuples) and
        raises ``ValueError`` on anything that does not look like one.
        """
        try:
            version, internal, gauss_next = state  # type: ignore[misc]
            self._random.setstate(
                (int(version), tuple(int(word) for word in internal), gauss_next)
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid serialised RNG state: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRNG(seed={self.seed})"
