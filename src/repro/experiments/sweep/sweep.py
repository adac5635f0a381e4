"""Declarative sweep grids: jobs, fingerprints, and the seeding contract.

A :class:`Job` is one independently executable cell of an experiment grid —
for example one ``(accelerator, size, mode)`` point of the Figure 2 sweep or
one ``(SoC, policy)`` evaluation of Figure 9.  Jobs carry a module-level
callable plus a picklable parameter mapping, so they can cross process
boundaries, and every job has a stable *fingerprint*: a SHA-256 digest of
the callable's dotted path, a canonical rendering of the parameters, and
the job seed.

The fingerprint is the backbone of two guarantees:

* **Determinism** — a job's RNG stream is derived as
  ``SeededRNG(seed).spawn("sweep-job", fingerprint)``, so the randomness a
  job sees depends only on *what* the job is, never on which worker runs it
  or in which order.  Running a :class:`SweepSpec` serially, with N
  workers, or with its jobs shuffled produces bit-identical results.
* **Caching** — the on-disk result cache (:mod:`repro.experiments.sweep.cache`)
  is keyed by the fingerprint, so a payload is reused only when the
  function, every parameter, and the seed all match.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import SweepError
from repro.store.io import canonical_text
from repro.utils.rng import SeededRNG

#: Signature every job function follows: ``fn(params, rng) -> payload`` where
#: the payload is a JSON-serializable dictionary.
JobFunction = Callable[[Dict[str, object], SeededRNG], Dict[str, object]]


# ----------------------------------------------------------------------
# Canonical parameter rendering
# ----------------------------------------------------------------------

def canonicalize(value: object) -> object:
    """Render ``value`` as a JSON-able structure stable across runs.

    Handles the types that appear in experiment parameters: primitives,
    enums, sequences, mappings, dataclasses (recursed field by field, so
    their reprs never leak memory addresses), :class:`SeededRNG` (identified
    by its seed), numpy arrays and scalars (once numpy is loaded), callables
    (by dotted path), and plain objects (by class name plus canonicalized
    ``vars()``).  Anything else
    raises :class:`SweepError` rather than silently producing an unstable
    fingerprint.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() round-trips floats exactly and is stable across platforms.
        return {"__float__": repr(value)}
    if isinstance(value, Enum):
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if isinstance(value, SeededRNG):
        # The construction seed alone is not enough: an RNG that has already
        # been drawn from must not fingerprint like a fresh one, or a cached
        # payload could be reused for a job that would execute differently.
        state_digest = hashlib.sha256(repr(value.state()).encode("utf-8")).hexdigest()
        return {"__rng__": value.seed, "state": state_digest}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__qualname__,
            "fields": {
                f.name: canonicalize(getattr(value, f.name)) for f in fields(value)
            },
        }
    if isinstance(value, Mapping):
        items = [
            [canonicalize(key), canonicalize(item)] for key, item in value.items()
        ]
        items.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"__mapping__": items}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        rendered = [canonicalize(item) for item in value]
        rendered.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__set__": rendered}
    # A numpy value can exist only once something has imported numpy, so
    # rendering one never imports numpy itself.
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        if isinstance(value, numpy.ndarray):
            return {"__ndarray__": canonicalize(value.tolist())}
        if isinstance(value, numpy.generic):
            return canonicalize(value.item())
    if callable(value) and hasattr(value, "__qualname__"):
        return {"__callable__": f"{value.__module__}.{value.__qualname__}"}
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__object__": type(value).__qualname__,
            "state": canonicalize(dict(state)),
        }
    raise SweepError(
        f"cannot canonicalize {type(value).__qualname__!r} for a job fingerprint; "
        "use primitives, dataclasses, enums, or objects with a __dict__"
    )


def canonical_json(value: object) -> str:
    """``value`` as canonical JSON text: compact, key-sorted :func:`canonicalize`.

    The one rendering behind every job fingerprint and every scenario
    definition digest.
    """
    return canonical_text(canonicalize(value))


class CanonicalRenderer:
    """:func:`canonical_json` for one fingerprinting pass, memoized by identity.

    The jobs of a grid share parameter objects (every job of a figure sweep
    carries the same ``setup``), so a pass over a spec renders each shared
    object once and composes every job's text around the memoized pieces.
    The memo maps ``id(value)`` to ``(value, text)``; holding the value keeps
    its id from being reused by another object while the pass lasts.  The
    pass must not mutate what it renders, and the memo dies with the
    renderer: nothing is stored on the values themselves.
    """

    def __init__(self) -> None:
        self._memo: Dict[int, Tuple[object, str]] = {}

    def __call__(self, value: object) -> str:
        """``canonical_json(value)``, rendered once per distinct object."""
        entry = self._memo.get(id(value))
        if entry is None:
            entry = self._memo[id(value)] = (value, canonical_json(value))
        return entry[1]

    def mapping(self, value: Mapping[object, object]) -> str:
        """``canonical_json(mapping)`` for a plain (non-dataclass) mapping.

        Composes what :func:`canonicalize` builds for a mapping,
        ``{"__mapping__": [[key, value], ...]}``, from the memoized text of
        each key and value.  Pairs are stably sorted by the key's compact
        text, which orders them as :func:`canonicalize`'s spaced sort key
        does: the two texts differ only by a space after each separator.
        """
        pairs = sorted(
            ((self(key), self(item)) for key, item in value.items()),
            key=lambda pair: pair[0],
        )
        return '{"__mapping__":[' + ",".join(f"[{k},{v}]" for k, v in pairs) + "]}"


# ----------------------------------------------------------------------
# Jobs and sweep specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One independently executable cell of a sweep grid."""

    key: str
    fn: JobFunction
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.key:
            raise SweepError("job key must be non-empty")
        if not callable(self.fn):
            raise SweepError(f"job {self.key}: fn must be callable")
        module = getattr(self.fn, "__module__", None)
        qualname = getattr(self.fn, "__qualname__", "")
        if module is None or "<locals>" in qualname or "<lambda>" in qualname:
            raise SweepError(
                f"job {self.key}: fn must be a module-level function so it can "
                "be pickled into worker processes"
            )

    def fingerprint(self, render: Optional[CanonicalRenderer] = None) -> str:
        """Stable identity of this job: function, parameters, and seed.

        The SHA-256 of ``{"fn": dotted path, "params":
        canonicalize(params), "seed": seed}`` as canonical JSON text.
        Parameters whose names start with an underscore are *transport-only*:
        they are delivered to the job function but excluded from the
        fingerprint.  They exist for delivery details that do not define
        the computation — e.g. the filesystem path a digest-pinned
        artifact is re-loaded from — so relocating such a file never
        invalidates the cache.  A transport-only parameter must never
        change the result; anything content-bearing belongs in a normal
        (fingerprinted) parameter, like the artifact digest that
        accompanies such a path.

        ``render`` is the renderer of a pass over many jobs (see
        :meth:`SweepSpec.fingerprints`), which renders each parameter
        object the jobs share only once; without one the parameters are
        rendered from scratch.  Either way the text is the same, and the
        work happens inside this call.  The result is memoized on the job
        (it is needed for the cache lookup, the cache write, and the RNG
        derivation), never on a parameter object.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            render = render if render is not None else CanonicalRenderer()
            identity = {
                key: value
                for key, value in dict(self.params).items()
                if not key.startswith("_")
            }
            fn_path = f"{self.fn.__module__}.{self.fn.__qualname__}"
            # The document's keys are already in sorted order.
            text = (
                '{"fn":' + canonical_text(fn_path)
                + ',"params":' + render.mapping(identity)
                + ',"seed":' + canonical_text(self.seed) + "}"
            )
            cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def derive_rng(self) -> SeededRNG:
        """The job's private RNG stream (the sweep seeding contract)."""
        return SeededRNG(self.seed).spawn("sweep-job", self.fingerprint())

    def execute(self) -> Dict[str, object]:
        """Run the job in the current process and return its payload.

        The fn receives a deep copy of the params, so a fn that mutates its
        inputs (training a policy, say) behaves identically whether the job
        runs in-process or was pickled into a worker, and a spec can be run
        repeatedly with identical results.  Frozen, deeply immutable
        configs (``SoCConfig``, ``TimingConfig``, ``AcceleratorDescriptor``)
        return themselves from ``__deepcopy__``, so the copy duplicates
        only what a job can mutate.
        """
        return self.fn(copy.deepcopy(dict(self.params)), self.derive_rng())


@dataclass
class SweepSpec:
    """An ordered collection of jobs forming one experiment grid."""

    name: str
    jobs: List[Job] = field(default_factory=list)

    def __post_init__(self) -> None:
        keys = [job.key for job in self.jobs]
        if len(keys) != len(set(keys)):
            duplicates = sorted({key for key in keys if keys.count(key) > 1})
            raise SweepError(f"sweep {self.name}: duplicate job keys {duplicates}")

    def __len__(self) -> int:
        return len(self.jobs)

    def keys(self) -> List[str]:
        """Job keys in grid order."""
        return [job.key for job in self.jobs]

    def shuffled(self, rng: Optional[SeededRNG] = None) -> "SweepSpec":
        """A copy of this spec with its jobs reordered (results must not change)."""
        jobs = list(self.jobs)
        (rng if rng is not None else SeededRNG(0)).shuffle(jobs)
        return SweepSpec(name=self.name, jobs=jobs)

    def fingerprints(self) -> List[str]:
        """Every job's fingerprint, in grid order, from one rendering pass.

        One :class:`CanonicalRenderer` serves the whole pass, so a parameter
        object shared by many jobs is rendered once per spec instead of
        once per job.
        """
        render = CanonicalRenderer()
        return [job.fingerprint(render) for job in self.jobs]
