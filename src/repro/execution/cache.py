"""Content-addressed cache for experiment run records.

Every training cell is identified by a *fingerprint*: a SHA-256 hash of the
canonical JSON encoding of its **resolved** configuration fields.  Resolution
matters — a :class:`~repro.experiments.runner.RunConfig` with
``learning_rate=None`` and one with the setting's default learning rate spelled
out explicitly describe the same training run, so they hash identically.

Records are persisted one-file-per-cell (``<fingerprint>.json``) under a cache
directory, which makes the cache safe to share between processes: writers use
an atomic rename, readers only ever see complete files, and concurrent writers
of the same cell write identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.utils.records import RunRecord

__all__ = [
    "CacheStats",
    "InMemoryRunCache",
    "RunCache",
    "config_fingerprint",
    "entry_payload",
    "record_digest",
    "verify_entry",
]

#: bump when the fingerprint payload layout changes — invalidates old caches
#: (v2: resolved ``dtype`` joined the payload, so float32 and float64 runs of
#: the same cell cache separately; v3: the dtype axis grew the emulated
#: ``bfloat16``/``float16`` values and those runs follow different training
#: numerics — master weights, loss scaling — so every pre-v3 entry must be
#: recomputed rather than risk a stale float32-era hit; v4: BatchNorm and
#: LayerNorm train through one fused node with a closed-form backward, whose
#: gradients round differently from the composed ops', so a cached record
#: must not mix old-numerics bits with new ones)
FINGERPRINT_VERSION = 4


def _canonical(value: Any) -> Any:
    """Recursively normalise a value for stable JSON encoding."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        # repr round-trips exactly; avoids 0.1 + 0.2 style surprises from
        # locale- or precision-dependent formatting.
        return float(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    return repr(value)


def fingerprint_payload(config: Any) -> dict[str, Any]:
    """The resolved, canonical dict that a config is hashed over.

    ``RunConfig``-like objects (anything with ``resolve_lr``/``resolve_setting``)
    are resolved first so that equivalent cells — default vs. explicit learning
    rate, lower- vs. upper-case setting names — share a fingerprint.  Other
    frozen dataclass configs (e.g. the GLUE cells) hash over their fields as-is.
    """
    if hasattr(config, "resolve_lr") and hasattr(config, "resolve_setting"):
        return {
            "version": FINGERPRINT_VERSION,
            "kind": "run",
            "setting": config.resolve_setting().name,
            "schedule": config.schedule.lower(),
            "optimizer": config.optimizer.lower(),
            "budget_fraction": float(config.budget_fraction),
            "seed": int(config.seed),
            "learning_rate": float(config.resolve_lr()),
            "size_scale": float(config.size_scale),
            "epoch_scale": float(config.epoch_scale),
            "schedule_kwargs": _canonical(config.schedule_kwargs),
            # resolved, not raw: dtype=None and an explicit spelling of the
            # setting's default are the same training run
            "dtype": config.resolve_dtype() if hasattr(config, "resolve_dtype") else "float64",
        }
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = _canonical(dataclasses.asdict(config))
        payload["version"] = FINGERPRINT_VERSION
        payload["kind"] = type(config).__name__
        return payload
    raise TypeError(f"cannot fingerprint configuration of type {type(config).__name__}")


def _payload_hash(payload: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON encoding of an already-resolved payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_fingerprint(config: Any) -> str:
    """Stable SHA-256 content hash of a run configuration."""
    return _payload_hash(fingerprint_payload(config))


def record_digest(record_dict: dict[str, Any]) -> str:
    """SHA-256 integrity digest over a record's canonical JSON encoding.

    Stored alongside every cache entry (the payload's ``integrity`` field) so
    readers can detect silent corruption — a flipped byte inside a metric
    value keeps the JSON perfectly parseable, which is exactly the failure
    the fingerprint-only checks cannot see.
    """
    return _payload_hash(_canonical(record_dict))


def entry_payload(config: Any, record: Any) -> dict[str, Any]:
    """The canonical cache-entry payload every backend stores for one record.

    One constructor shared by the local and HTTP caches keeps their bytes
    identical entry for entry — the property the content-addressed transport
    (and every ``cmp``-based equivalence test) relies on.
    """
    record_dict = record.to_dict()
    return {
        "fingerprint": config_fingerprint(config),
        "config": fingerprint_payload(config),
        "integrity": record_digest(record_dict),
        "record": record_dict,
    }


def verify_entry(fingerprint: str, payload: dict[str, Any]) -> RunRecord:
    """Validate one parsed cache entry against its content address.

    Three checks, in order of increasing depth: the payload's declared
    fingerprint must match the address it was fetched under, the stored
    config must actually hash to that fingerprint, and (when the entry
    carries an ``integrity`` digest) the record must hash to it.  Raises
    :class:`ValueError` on any mismatch; callers treat that as *corruption*
    — quarantine plus a :attr:`CacheStats.corrupt` count — never as a plain
    miss.
    """
    declared = payload.get("fingerprint")
    if declared != fingerprint:
        raise ValueError(f"entry declares fingerprint {declared!r}, expected {fingerprint!r}")
    config_payload = payload.get("config")
    if not isinstance(config_payload, dict) or _payload_hash(config_payload) != fingerprint:
        raise ValueError("stored config does not hash to the entry's fingerprint")
    record_dict = payload.get("record")
    if not isinstance(record_dict, dict):
        raise ValueError("entry has no record object")
    integrity = payload.get("integrity")
    if integrity is not None and record_digest(record_dict) != integrity:
        raise ValueError("record bytes do not match the stored integrity digest")
    return RunRecord.from_dict(record_dict)


@dataclass
class CacheStats:
    """Counters for one :class:`RunCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: ``put`` calls skipped because an identical entry already existed
    skips: int = 0
    #: lookups that failed for a reason other than absence (e.g. an HTTP 5xx
    #: from a remote store) — a broken backend, not a cold cache
    errors: int = 0
    #: entries whose bytes failed integrity verification on read — quarantined
    #: (file-backed) or dropped, and reported separately from plain misses so
    #: silent corruption is visible in ``EngineReport.cache_tiers``
    corrupt: int = 0
    #: transient-failure retries the backend's :class:`RetryPolicy` absorbed
    #: (HTTP transport errors / 5xx that a later attempt recovered from)
    retries: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for logging / JSON serialisation)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "skips": self.skips,
            "errors": self.errors,
            "corrupt": self.corrupt,
            "retries": self.retries,
        }


class RunCache:
    """Content-addressed, file-backed store of completed :class:`RunRecord`\\ s.

    Parameters
    ----------
    cache_dir:
        Directory holding one ``<fingerprint>.json`` file per completed cell.
        Created on first use.
    """

    #: tier label reported by :class:`~repro.execution.engine.EngineReport`
    tier_name = "local"

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.stats = CacheStats()

    # -- addressing ----------------------------------------------------------
    def fingerprint(self, config: Any) -> str:
        """Content hash addressing ``config`` (see :func:`config_fingerprint`)."""
        return config_fingerprint(config)

    def path_for(self, config: Any) -> Path:
        """Filesystem path the record for ``config`` is (or would be) stored at."""
        return self.cache_dir / f"{config_fingerprint(config)}.json"

    # -- integrity -----------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        """Where failed-verification entries are moved for post-mortem."""
        return self.cache_dir / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the addressable namespace, keeping its bytes.

        Quarantining rather than deleting preserves the evidence (what *did*
        the torn write leave behind?) while freeing the address: the entry is
        a miss from now on and the next :meth:`put` writes a fresh, valid
        file.  Concurrent readers may race to quarantine the same entry —
        whoever loses the rename finds the file gone, which is fine.
        """
        self.stats.corrupt += 1
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / f"{path.name}.corrupt")
        except OSError:
            # someone else quarantined it first (or the directory is
            # read-only); either way the address must stop resolving
            path.unlink(missing_ok=True)

    def _load_verified(self, path: Path) -> RunRecord | None:
        """Parse and verify one entry file; quarantine and return ``None`` if bad."""
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            return verify_entry(path.stem, json.loads(blob))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None

    # -- lookup / store ------------------------------------------------------
    def get(self, config: Any) -> RunRecord | None:
        """Return the cached record for ``config``, or ``None`` on a miss.

        Every read is verified against the content address (see
        :func:`verify_entry`): a torn or bit-flipped entry counts as a miss,
        is moved to :attr:`quarantine_dir` and is tallied in
        :attr:`CacheStats.corrupt`, so the next :meth:`put` repairs it
        instead of skipping the existing file.
        """
        record = self._load_verified(self.path_for(config))
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record

    def put(self, config: Any, record: RunRecord) -> Path:
        """Persist ``record`` under ``config``'s fingerprint (atomic write)."""
        path = self.path_for(config)
        if path.exists():
            self.stats.skips += 1
            return path
        blob = json.dumps(entry_payload(config, record), indent=2, sort_keys=True)
        self.write_blob(path.stem, blob.encode("utf-8"))
        return path

    # -- content-addressed transport -----------------------------------------
    # The remote store (repro.execution.remote_cache) moves entries between
    # machines as opaque bytes keyed by fingerprint; exposing the byte level
    # here keeps a served directory and a locally mounted one file-identical.
    def read_blob(self, fingerprint: str) -> bytes | None:
        """The exact stored bytes for ``fingerprint``, or ``None`` if absent.

        Verified like :meth:`get`: the transport layer must never ship a
        corrupt entry to another machine, so a failed verification
        quarantines the file and reports absence.
        """
        path = self.cache_dir / f"{fingerprint}.json"
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            verify_entry(fingerprint, json.loads(blob))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None
        return blob

    def write_blob(self, fingerprint: str, blob: bytes) -> Path:
        """Atomically store ``blob`` under ``fingerprint`` (first write wins)."""
        path = self.cache_dir / f"{fingerprint}.json"
        if path.exists():
            self.stats.skips += 1
            return path
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
        self.stats.stores += 1
        return path

    # -- maintenance ---------------------------------------------------------
    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def __contains__(self, config: Any) -> bool:
        return self.path_for(config).exists()

    def clear(self) -> int:
        """Delete every cached entry; return how many were removed.

        The directory is shared between processes, so an entry listed by the
        glob may already have been pruned by someone else before we unlink it —
        ``missing_ok=True`` gives ``clear`` the same concurrent-delete
        tolerance :meth:`get` has (either way the entry is gone, which is what
        the caller asked for).
        """
        removed = 0
        if self.cache_dir.is_dir():
            for entry in self.cache_dir.glob("*.json"):
                entry.unlink(missing_ok=True)
                removed += 1
        return removed


class InMemoryRunCache:
    """Process-local twin of :class:`RunCache` backed by a dict.

    Same ``get``/``put``/``clear`` surface and the same content-addressed keys,
    but nothing touches the filesystem and nothing survives the process.  Used
    where cross-artifact cell reuse matters but persistence was not asked for —
    e.g. one benchmark session sharing training runs between Table 4 and the
    Table 1 aggregate without a ``--cache-dir``.
    """

    #: tier label reported by :class:`~repro.execution.engine.EngineReport`
    tier_name = "memory"

    def __init__(self) -> None:
        """Create an empty cache."""
        # Entries are stored as plain dicts and rebuilt on get, mirroring the
        # file-backed cache's serialise/deserialise round-trip: a caller that
        # mutates a returned record (or one it just put) can never corrupt the
        # cached copy other consumers will receive.
        self._entries: dict[str, dict[str, Any]] = {}
        self.stats = CacheStats()

    def fingerprint(self, config: Any) -> str:
        """Content hash addressing ``config`` (see :func:`config_fingerprint`)."""
        return config_fingerprint(config)

    def get(self, config: Any) -> RunRecord | None:
        """Return a fresh copy of the cached record for ``config``, or ``None``."""
        payload = self._entries.get(config_fingerprint(config))
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return RunRecord.from_dict(json.loads(json.dumps(payload)))

    def put(self, config: Any, record: RunRecord) -> None:
        """Store a snapshot of ``record`` under ``config``'s fingerprint (first write wins)."""
        key = config_fingerprint(config)
        if key in self._entries:
            self.stats.skips += 1
            return
        self._entries[key] = record.to_dict()
        self.stats.stores += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, config: Any) -> bool:
        return config_fingerprint(config) in self._entries

    def clear(self) -> int:
        """Forget every cached entry; return how many were removed."""
        removed = len(self._entries)
        self._entries.clear()
        return removed
