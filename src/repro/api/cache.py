"""Content-addressed result cache for the campaign layer.

A :class:`ResultCache` never runs anything: it maps the *content* of a
:class:`~repro.api.spec.SimulationSpec` to a persisted
:class:`~repro.api.results.SimulationResult` payload, so a campaign
that has already computed a grid point skips it on resume and a warm
replay of a whole campaign performs zero engine runs.

The key (:func:`spec_key`) is the SHA-256 hex digest of the canonical
JSON form of ``spec.to_dict()`` — ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` — so any two specs with equal content share a
key regardless of construction order, and any change to any field
(including the seed) produces a different key.  Entries live at
``<directory>/<key[:2]>/<key>.json``; the two-character fan-out keeps
directory listings manageable for large campaigns.

Specs with ``seed=None`` are not reproducible (every run draws fresh OS
entropy) and are refused, as are traced specs (``record_trace=True`` —
the JSON payload drops traces by design, so serving one from the cache
would silently lose data).  :func:`repro.api.campaign.run_campaign`
enforces both before it ever consults the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..core.exceptions import ConfigurationError, ExperimentError
from .results import SimulationResult
from .spec import SimulationSpec

__all__ = ["spec_key", "ResultCache"]

#: Payload format version; bump when the entry layout changes so stale
#: entries read as misses instead of mis-parsing.
CACHE_FORMAT = 1


def spec_key(spec: Union[SimulationSpec, Dict[str, Any]]) -> str:
    """Canonical content hash of a spec (SHA-256 hex digest).

    Accepts either a :class:`SimulationSpec` or its ``to_dict`` form;
    both hash identically, so keys can be computed without constructing
    spec objects (e.g. by out-of-process workers).
    """
    payload = spec.to_dict() if isinstance(spec, SimulationSpec) else dict(spec)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cacheable(spec: SimulationSpec) -> None:
    """Raise unless *spec* is deterministic and loss-free under caching."""
    if spec.seed is None:
        raise ConfigurationError(
            "cannot cache a spec with seed=None: the result is not a function of the spec"
        )
    if spec.record_trace:
        raise ConfigurationError(
            "cannot cache a traced spec: result payloads drop traces by design"
        )


class ResultCache:
    """Directory-backed, content-addressed store of simulation results.

    Writes are atomic (temp file + ``os.replace``), so concurrent
    campaign processes sharing one cache directory can race on the same
    key and the loser simply overwrites the winner with identical bytes.

    ``memo_size > 0`` adds an in-process LRU memo over hot keys: a
    repeated warm hit skips re-reading and re-parsing the JSON file
    entirely (the ``repro serve`` hot path).  Memoization is sound
    because the store is content-addressed — a key's value never
    changes, so a memo entry can only ever disagree with the file by
    outliving a deleted one, which is indistinguishable from the read
    having happened earlier.  Only entries that already passed the
    spec-mismatch check (or arrived through :meth:`put`, which verifies
    the payload against the spec) enter the memo, so corruption
    detection on first contact with a key is unchanged.  Memoized
    payloads are shared between callers: treat them as read-only.
    """

    def __init__(self, directory: Union[str, os.PathLike] = ".repro-cache", memo_size: int = 0):
        self.directory = Path(directory)
        if memo_size < 0:
            raise ConfigurationError(f"memo_size must be >= 0, got {memo_size}")
        self.memo_size = int(memo_size)
        self._memo: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()  # guarded-by: _memo_lock
        self._memo_lock = threading.Lock()

    # -- in-process memo ----------------------------------------------
    def _memo_get(self, key: str) -> Optional[Dict[str, Any]]:
        if not self.memo_size:
            return None
        with self._memo_lock:
            payload = self._memo.get(key)
            if payload is not None:
                self._memo.move_to_end(key)
            return payload

    def _memo_put(self, key: str, payload: Dict[str, Any]) -> None:
        if not self.memo_size:
            return
        with self._memo_lock:
            self._memo[key] = payload
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)

    @property
    def memo_len(self) -> int:
        """Number of keys currently memoized (observability/tests)."""
        with self._memo_lock:
            return len(self._memo)

    # -- key/path layout ----------------------------------------------
    def path_for(self, key: str) -> Path:
        """``<directory>/<key[:2]>/<key>.json``."""
        return self.directory / key[:2] / f"{key}.json"

    # -- lookup --------------------------------------------------------
    def get_payload(self, spec: SimulationSpec, key: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The cached ``SimulationResult.to_dict()`` payload for *spec*.

        ``None`` on a miss.  This is the zero-parse hot path the serve
        layer answers warm hits from: a memo hit returns the already
        validated payload dict without touching the filesystem.  The
        returned dict is shared — treat it as read-only.

        An unreadable or format-mismatched entry reads as a miss (it
        will be overwritten by the next :meth:`put`); an entry whose
        stored spec differs from *spec* raises — that is corruption or
        a hash collision, never something to silently serve.

        *key* is ``spec_key(spec)`` for callers that already computed
        it (the serve layer keys its flights by it); omitted, it is
        computed here.
        """
        _cacheable(spec)
        if key is None:
            key = spec_key(spec)
        memoized = self._memo_get(key)
        if memoized is not None:
            return memoized
        payload = self._read(self.path_for(key))
        if payload is None:
            return None
        if payload["result"]["spec"] != spec.to_dict():
            raise ExperimentError(
                f"cache entry {key} holds a different spec; "
                f"the cache directory {self.directory} is corrupt"
            )
        self._memo_put(key, payload["result"])
        return payload["result"]

    def get(self, spec: SimulationSpec) -> Optional[SimulationResult]:
        """The cached result for *spec*, or ``None`` on a miss.

        Semantics of :meth:`get_payload`, parsed into a
        :class:`SimulationResult`.
        """
        payload = self.get_payload(spec)
        if payload is None:
            return None
        return SimulationResult.from_dict(payload)

    def read_key(self, key: str) -> Optional[Dict[str, Any]]:
        """The result payload stored under a bare content *key*.

        For callers that hold only the key (``GET /v1/results/<key>``);
        no spec is available to cross-check, but the entry's recorded
        key must match its filename.  ``None`` on a miss or unreadable
        entry.  The returned dict is shared — treat it as read-only.
        """
        memoized = self._memo_get(key)
        if memoized is not None:
            return memoized
        payload = self._read(self.path_for(key))
        if payload is None or payload.get("key") != key:
            return None
        self._memo_put(key, payload["result"])
        return payload["result"]

    def put(
        self,
        spec: SimulationSpec,
        result: Union[SimulationResult, Dict[str, Any]],
        key: Optional[str] = None,
    ) -> Path:
        """Persist *result* (object or ``to_dict`` payload) under *spec*'s
        key (*key*, when the caller already computed ``spec_key(spec)``)."""
        _cacheable(spec)
        result_payload = result.to_dict() if isinstance(result, SimulationResult) else result
        if result_payload["spec"] != spec.to_dict():
            raise ExperimentError("result payload was produced by a different spec")
        if key is None:
            key = spec_key(spec)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"format": CACHE_FORMAT, "key": key, "result": result_payload}
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=path.parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self._memo_put(key, result_payload)
        return path

    def __contains__(self, spec: SimulationSpec) -> bool:
        _cacheable(spec)
        key = spec_key(spec)
        if self._memo_get(key) is not None:
            return True
        return self._read(self.path_for(key)) is not None

    # -- maintenance ---------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Keys of every readable entry currently on disk."""
        if not self.directory.exists():
            return
        for path in sorted(self.directory.glob("??/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def _read(self, path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
            return None
        result = payload.get("result")
        if not isinstance(result, dict) or "spec" not in result:
            return None
        return payload
