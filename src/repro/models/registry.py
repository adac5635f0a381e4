"""The model registry: a directory of named trained-policy artifacts.

The layout is deliberately boring — one ``<name>.json`` artifact document
per model, directly under the registry root — so artifacts can be copied,
diffed, uploaded as CI build artifacts, and inspected with nothing but a
JSON pretty-printer.  The default root is ``.repro-models`` in the current
directory, overridable with the ``REPRO_MODELS_DIR`` environment variable
or the ``--models-dir`` CLI flag.

Names are restricted to lower-case letters, digits, dots, dashes, and
underscores (no path separators), so a registry name can never escape the
registry directory.
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ModelError
from repro.models.artifact import PolicyArtifact, load_artifact

#: Environment variable overriding the default registry directory.
MODELS_DIR_ENV = "REPRO_MODELS_DIR"

#: Registry directory used when neither the env var nor a flag names one.
DEFAULT_MODELS_DIR = ".repro-models"

_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9._-]*$")


def default_models_dir() -> Path:
    """The registry root: ``$REPRO_MODELS_DIR`` or ``.repro-models``."""
    return Path(os.environ.get(MODELS_DIR_ENV) or DEFAULT_MODELS_DIR)


def validate_model_name(name: str) -> str:
    """Return ``name`` if it is a legal registry name, else raise."""
    if not _NAME_PATTERN.match(name):
        raise ModelError(
            f"invalid model name {name!r}: use lower-case letters, digits, "
            "dots, dashes, and underscores (must start alphanumeric)"
        )
    return name


class ModelRegistry:
    """Saves, loads, and enumerates artifacts under one directory."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_models_dir()

    # ------------------------------------------------------------------
    def path_for(self, name: str) -> Path:
        """Filesystem location of the artifact registered as ``name``."""
        return self.root / f"{validate_model_name(name)}.json"

    def __contains__(self, name: str) -> bool:
        return self.path_for(name).is_file()

    def names(self) -> List[str]:
        """Sorted names of every artifact in the registry."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.root.glob("*.json")
            if _NAME_PATTERN.match(path.stem)
        )

    # ------------------------------------------------------------------
    def save(self, artifact: PolicyArtifact, replace: bool = False) -> Path:
        """Register ``artifact`` under its name; return the written path.

        Refuses to overwrite an existing model unless ``replace`` is set,
        so retraining under a reused name is always an explicit decision.
        """
        path = self.path_for(artifact.name)
        if path.exists() and not replace:
            raise ModelError(
                f"model {artifact.name!r} already exists at {path}; "
                "pass replace/--force to overwrite"
            )
        try:
            return artifact.save(path)
        except OSError as exc:
            raise ModelError(
                f"cannot write model {artifact.name!r} to {path}: {exc.strerror or exc}"
            ) from exc

    def load(self, name: str, expected_digest: Optional[str] = None) -> PolicyArtifact:
        """Load and digest-verify the artifact registered as ``name``."""
        path = self.path_for(name)
        if not path.is_file():
            available = ", ".join(self.names()) or "none"
            raise ModelError(
                f"no model named {name!r} in {self.root} (available: {available})"
            )
        artifact = load_artifact(path, expected_digest=expected_digest)
        if artifact.name != name:
            raise ModelError(
                f"{path}: artifact is named {artifact.name!r}, expected {name!r}"
            )
        return artifact

    def load_retry(
        self,
        name: str,
        expected_digest: Optional[str] = None,
        attempts: int = 2,
        delay_s: float = 0.01,
    ) -> PolicyArtifact:
        """Load ``name`` with a short retry on :class:`ModelError`.

        Artifacts are committed with ``atomic_write_text`` (an
        ``os.replace`` of a complete temp file), so a reader racing a
        writer sees the old document or the new one — but never half of
        each — on POSIX filesystems.  Readers can still lose directory-level
        races (a name observed by ``names()`` just before its file is
        being replaced, or briefly absent on filesystems without atomic
        rename semantics).  This helper turns those transient races into a
        successful read of whichever version won: it retries the load once
        (``attempts`` times in total) after ``delay_s``.  A genuinely
        missing, corrupt, or digest-mismatched artifact still raises the
        last :class:`ModelError` after the final attempt.

        Long-lived readers — the serving hot-reload path in
        :mod:`repro.serving` most of all — should prefer this over
        :meth:`load`.
        """
        attempts = max(1, attempts)
        last_error: Optional[ModelError] = None
        for attempt in range(attempts):
            try:
                return self.load(name, expected_digest=expected_digest)
            except ModelError as exc:
                last_error = exc
                if attempt + 1 < attempts:
                    time.sleep(delay_s)
        assert last_error is not None  # attempts >= 1, loop always runs
        raise last_error

    def load_all(self) -> List[PolicyArtifact]:
        """Load every artifact in the registry, in name order."""
        return [self.load(name) for name in self.names()]

    def delete(self, name: str) -> bool:
        """Remove one model; return whether it existed."""
        path = self.path_for(name)
        if not path.is_file():
            return False
        path.unlink()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry({str(self.root)!r})"


def resolve_pretrained(
    name_or_path: str, models_dir: Optional[Union[str, Path]] = None
) -> PolicyArtifact:
    """Resolve a ``--pretrained`` CLI target: a registry name or a file path.

    Anything ending in ``.json`` that exists on disk outside the registry
    is treated as a direct artifact path; everything else is looked up in
    the registry.
    """
    registry = ModelRegistry(models_dir)
    candidate = Path(name_or_path)
    if name_or_path.endswith(".json") and candidate.is_file():
        return load_artifact(candidate)
    return registry.load(name_or_path)
