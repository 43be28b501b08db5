"""Content-addressed on-disk cache of sweep results.

Every physics-relevant field of a :class:`ScenarioConfig` (plus a
schema version) is hashed into a stable digest
(:meth:`ScenarioConfig.config_digest`); the digest keys one JSON file
holding the flat :class:`ScenarioMetrics` of that run.  Because the
simulator is seed-deterministic, a digest hit *is* the result: an
interrupted sweep re-run against the same cache directory resumes with
instant hits for every finished cell, and regenerating a figure twice
costs one sweep, not two.

The observation knobs are not in the digest (watching a run does not
change it), but what they record is in the entry.  So an entry answers a
config only if it also carries what that config asks to observe: a
``forensics=True`` lookup that finds a record written without forensics
is a miss, and the re-run's ``put`` replaces the record with the fuller
one.  The other way round stays a hit -- a plain config is satisfied by
an entry with forensic columns filled in.

The cache is safe against concurrent writers (atomic ``os.replace`` of
a same-directory temp file) and against corruption (an unreadable or
malformed entry is treated as a miss and overwritten on the next put).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Iterator, Optional

from repro.experiments.config import CONFIG_SCHEMA_VERSION, ScenarioConfig
from repro.experiments.results import ScenarioMetrics

#: Cache file format version, independent of the config schema version.
CACHE_FORMAT_VERSION = 1


class ResultCache:
    """A directory of ``<config_digest>.json`` metric records."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, config: ScenarioConfig, digest: Optional[str] = None) -> str:
        """The entry path a configuration maps to.  ``digest`` is its
        ``config_digest()`` when the caller already holds it (hashing
        the config costs more than the rest of a hit's bookkeeping)."""
        return os.path.join(
            self.directory, (digest or config.config_digest()) + ".json"
        )

    def get(
        self, config: ScenarioConfig, digest: Optional[str] = None
    ) -> Optional[ScenarioMetrics]:
        """The cached metrics for ``config``, or None on a miss.

        Error placeholders are never returned (a failed cell should be
        re-attempted on the next run, not resumed), corrupt or
        incompatible entries read as misses, and so does an entry
        without the forensic columns when ``config`` asks for forensics
        (a finite ``forensic_burst_rate`` marks a record that has them).
        """
        path = self.path_for(config, digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if (
                not isinstance(payload, dict)
                or payload.get("schema_version") != CONFIG_SCHEMA_VERSION
            ):
                return None
            metrics = ScenarioMetrics.from_dict(payload["metrics"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if metrics.failed:
            return None
        if config.forensics and not math.isfinite(metrics.forensic_burst_rate):
            return None
        return metrics

    def put(
        self,
        config: ScenarioConfig,
        metrics: ScenarioMetrics,
        digest: Optional[str] = None,
    ) -> str:
        """Store ``metrics`` under ``config``'s digest; returns the path.

        The write is atomic: concurrent writers of the same cell leave
        one complete entry, never a torn file.
        """
        digest = digest or config.config_digest()
        path = self.path_for(config, digest)
        payload = {
            "cache_format": CACHE_FORMAT_VERSION,
            "schema_version": CONFIG_SCHEMA_VERSION,
            "digest": digest,
            "config": config.digest_payload(),
            "metrics": metrics.as_dict(),
        }
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=self.directory,
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                # dumps, not dump: one C-encoder pass instead of the
                # pure-Python chunk iterator; the bytes are the same.
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def _entry_paths(self) -> Iterator[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in sorted(names):
            if name.endswith(".json"):
                yield os.path.join(self.directory, name)

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def __contains__(self, config: ScenarioConfig) -> bool:
        return self.get(config) is not None

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed
