"""On-disk JSON result cache keyed by job fingerprints.

Layout: ``<cache_dir>/<fp[:2]>/<fingerprint>.json`` where each file holds

.. code-block:: json

    {"fingerprint": "...", "key": "...", "payload": {...}}

Payloads are serialized with sorted keys and fixed separators, so a cache
hit returns a payload byte-identical to the one originally stored.  Writes
are atomic (temp file + ``os.replace``), which makes the cache safe to share
between a parent process and the sweep workers, and between repeated CLI
invocations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import SweepError
from repro.store.io import canonical_text
from repro.utils.fileio import atomic_write_text


class ResultCache:
    """Persistent store of job payloads, addressed by fingerprint."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SweepError(
                f"cannot create the result cache directory {self.cache_dir}: "
                f"{exc.strerror or exc}"
            ) from exc

    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        """Filesystem location of the entry for ``fingerprint``."""
        if not fingerprint:
            raise SweepError("empty fingerprint")
        return self.cache_dir / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """Return the cached payload, or ``None`` on a miss.

        A corrupt or unreadable entry is treated as a miss: the job simply
        re-executes and overwrites it.
        """
        path = self.path_for(fingerprint)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        return payload if isinstance(payload, dict) else None

    def put(self, fingerprint: str, key: str, payload: Dict[str, object]) -> None:
        """Persist ``payload`` for ``fingerprint`` atomically."""
        try:
            text = canonical_text(
                {"fingerprint": fingerprint, "key": key, "payload": payload}
            )
        except (TypeError, ValueError) as exc:
            raise SweepError(
                f"job {key}: payload is not JSON-serializable: {exc}"
            ) from exc
        # A failed write cleans its own temp file; orphans from *killed*
        # processes are swept by clear().
        atomic_write_text(self.path_for(fingerprint), text)

    # ------------------------------------------------------------------
    @staticmethod
    def _is_entry(path: Path) -> bool:
        """Whether ``path`` is a committed entry (not an in-flight temp file).

        A worker killed mid-:meth:`put` leaves a ``….tmp.<pid>`` file
        behind; such orphans are never entries and every read path skips
        them defensively.
        """
        return path.suffix == ".json" and ".tmp" not in path.name

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).is_file()

    def fingerprints(self) -> Iterator[str]:
        """Iterate over the fingerprints currently stored."""
        for path in sorted(self.cache_dir.glob("*/*.json")):
            if self._is_entry(path):
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())

    def stale_tmp_files(self) -> List[Path]:
        """In-flight temp files orphaned by killed writers, oldest path first."""
        return sorted(
            path
            for path in self.cache_dir.glob("*/*.tmp.*")
            if not self._is_entry(path)
        )

    def clear(self) -> int:
        """Delete every entry (and sweep orphaned temp files).

        Returns how many *entries* were removed; swept temp files — left
        behind when a writer was killed between ``write_text`` and
        ``os.replace`` — do not count, since they never became entries.
        """
        removed = 0
        for path in list(self.cache_dir.glob("*/*.json")):
            if not self._is_entry(path):
                continue
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.stale_tmp_files():
            path.unlink(missing_ok=True)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.cache_dir)!r})"
