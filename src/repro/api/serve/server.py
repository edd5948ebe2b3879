"""``repro serve`` — the persistent simulation-as-a-service front door.

PRs 3/4/7 reduced every experiment to a serializable, content-addressed
value: a :class:`~repro.api.spec.SimulationSpec` or
:class:`~repro.api.campaign.CampaignSpec` payload whose result is a
pure function of its content, deduplicated by the
:class:`~repro.api.cache.ResultCache`.  That is exactly the shape of an
RPC request, and this module is the long-running server over it — one
stable HTTP surface (stdlib ``http.server`` only) with the executor
registry, ``fastest_engine`` dispatch, and the cache hidden behind it.

HTTP surface
------------
==================================  ========================================
``POST /v1/simulate``               ``SimulationSpec`` JSON → result payload
``POST /v1/campaign``               ``CampaignSpec`` JSON → deterministic
                                    campaign payload (no ``execution`` block)
``GET /v1/jobs`` / ``/v1/jobs/<id>``  job lifecycle + point-level progress
``GET /v1/results/<key>``           cached result payload by content key
``GET /v1/registry``                the ``repro list`` registries as JSON
``GET /healthz``                    liveness + serve counters
==================================  ========================================

Request path for a ``POST``:

1. **Warm hit** — the spec's content key is already in the cache: the
   handler thread answers synchronously from
   :meth:`ResultCache.get_payload` (memo-backed, zero parse on hot
   keys) without touching the queue.  Microseconds.
2. **Coalesced** — the key is cold but already *in flight*: the request
   joins the existing :class:`~repro.api.serve.flight.Flight` and waits
   for the one shared computation.  N identical concurrent cold
   requests produce exactly one engine run.
3. **Cold** — the request becomes the flight leader: a
   :class:`~repro.api.serve.jobs.Job` is created and queued onto the
   bounded worker pool, which executes it through the ``map_payloads``
   executor contract (``serial`` in the worker thread by default;
   ``process`` or ``distributed:HOST:PORT`` via ``--executor``).  The
   result is cached, the flight resolves, every waiter gets the same
   bytes.

``wait=0`` (query) makes 2/3 return ``202`` with the job id instead of
blocking; a blocking request that outlives its ``timeout`` degrades to
the same ``202`` so the client can poll ``GET /v1/jobs/<id>`` — whose
progress for campaigns streams point by point as results land in the
cache (the PR-7 ``progress_hook`` path, surfaced through
:class:`_ProgressCache`).

Response bodies for results are exactly the ``to_dict()`` payloads the
in-process front doors produce (``simulate()``; ``run_campaign()``
minus the volatile ``execution`` block), serialized with sorted keys —
so equal requests get byte-identical bodies and the server is
value-identical to calling the library.  Non-finite statistics are
emitted as JSON ``NaN``/``Infinity`` literals, matching the on-disk
cache-entry format.

Drain semantics
---------------
``SIGTERM`` (or ``SIGINT``) starts a graceful drain: the listener stops
accepting, new work is refused with ``503``, every already-queued and
in-flight job runs to completion (each campaign point persists to the
cache the moment it lands, so nothing computed is ever lost), blocked
waiters receive their responses, and the process exits 0.
"""

from __future__ import annotations

import json
import queue
import signal
import sys
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, TextIO, Tuple
from urllib.parse import parse_qs, urlparse

from ...core.exceptions import ConfigurationError, ExperimentError
from ..cache import ResultCache, spec_key
from ..campaign import CampaignSpec, run_campaign
from ..executors import resolve_executor
from ..registry import DELAYS, INITIALS, PROTOCOLS, STOPS, TOPOLOGIES
from ..spec import SimulationSpec
from .flight import SingleFlight
from .jobs import JobTable

__all__ = [
    "ServeRequestError",
    "SimulationService",
    "ReproServer",
    "run_server",
    "DEFAULT_WAIT_TIMEOUT",
]

#: Seconds a blocking request waits on a flight before degrading to a
#: ``202`` + job id (override per request with the ``timeout`` query
#: parameter).
DEFAULT_WAIT_TIMEOUT = 300.0

#: Upper bound on an accepted request body; a campaign spec is a few KB,
#: so this is orders of magnitude of slack.
MAX_BODY_BYTES = 16 * 1024 * 1024

_SHUTDOWN = object()


class ServeRequestError(ExperimentError):
    """A request the server refuses, carrying its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServeStats:
    """Monotonic serve counters (``/healthz`` and the load benchmark)."""

    FIELDS = (
        "requests",
        "simulate_requests",
        "campaign_requests",
        "cache_hits",
        "coalesced",
        "engine_runs",
        "campaign_point_hits",
        "errors",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self.FIELDS}  # guarded-by: _lock

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + by

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


class _ProgressCache(ResultCache):
    """A view of the serve cache that reports landed points to a job.

    ``run_campaign`` persists every completed point through its cache —
    in completion order via the executor ``progress_hook`` and again in
    expansion order by the in-order consumer — so delegating ``put``
    (and hit-serving ``get``) to the shared cache while marking the
    point's key on the job is all it takes to stream campaign progress:
    ``GET /v1/jobs/<id>`` sees ``completed`` climb as points land.
    Progress counts unique keys, so the double-put is harmless.
    """

    def __init__(self, inner: ResultCache, job):
        super().__init__(inner.directory, memo_size=0)
        self._inner = inner
        self._job = job

    def get_payload(self, spec, key=None):
        key = key or spec_key(spec)
        payload = self._inner.get_payload(spec, key)
        if payload is not None:
            self._job.mark_point(key)
        return payload

    def put(self, spec, result, key=None):
        key = key or spec_key(spec)
        path = self._inner.put(spec, result, key)
        self._job.mark_point(key)
        return path

    def __contains__(self, spec):
        return self._inner.__contains__(spec)


class SimulationService:
    """The HTTP-independent serve core: cache + jobs + flights + pool.

    Parameters
    ----------
    cache_dir:
        Directory of the content-addressed result cache (shared freely
        with ``repro sweep --cache-dir`` — the serve layer is just
        another client of the same store).
    workers:
        Worker-pool threads draining the cold-run queue.
    executor:
        ``map_payloads`` backend each job runs through: ``"serial"``
        (in the worker thread, the default), ``"process"``, or
        ``"distributed:HOST:PORT"``.  A distributed executor binds its
        coordinator socket once at service start and is shared by all
        jobs (serialized — one coordinator session at a time).
    queue_limit:
        Bound on queued cold jobs; admission beyond it is refused with
        ``503`` instead of letting memory grow without limit.
    memo_size:
        LRU memo entries the cache keeps in-process for the warm-hit
        fast path.
    """

    def __init__(
        self,
        cache_dir: str = ".repro-cache",
        workers: int = 2,
        executor: str = "serial",
        queue_limit: int = 256,
        memo_size: int = 1024,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ConfigurationError(f"queue_limit must be >= 1, got {queue_limit}")
        self.cache = ResultCache(cache_dir, memo_size=memo_size)
        self.jobs = JobTable()
        self.flights = SingleFlight()
        self.stats = ServeStats()
        self.workers = int(workers)
        self.queue_limit = int(queue_limit)
        self.queue: "queue.Queue" = queue.Queue(maxsize=queue_limit + workers)
        self.draining = threading.Event()
        self.started_at = time.monotonic()  # uptime baseline, never rendered as a date
        self.executor_spec = str(executor)
        # Validate the executor string eagerly (unknown names should
        # fail at startup, not on the first cold request); a distributed
        # executor also binds its coordinator socket here, shared across
        # jobs and serialized by the lock below.
        self._executor_lock = threading.Lock()
        self._shared_executor = None
        if self.executor_spec.partition(":")[0] == "distributed":
            self._shared_executor = resolve_executor(self.executor_spec)
        else:
            resolve_executor(self.executor_spec)
        self._threads = []
        self._idle = threading.Condition()
        self._active_requests = 0  # guarded-by: _idle
        # Finished campaign aggregates, keyed by campaign content hash.
        # Points live in the ResultCache; the aggregate is a pure
        # function of the campaign spec, so memoizing it gives repeated
        # campaign POSTs (and async GET /v1/results/<key> retrieval) a
        # warm path without re-walking every point.
        self._campaign_memo: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()  # guarded-by: _campaign_memo_lock
        self._campaign_memo_lock = threading.Lock()
        self.campaign_memo_size = 64
        self.start()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def drain(self, grace: float = 10.0) -> None:
        """Finish every queued/in-flight job, then stop the pool.

        Sentinels are FIFO-queued behind the pending jobs, so each
        worker finishes the real work first; *grace* bounds the final
        wait for handler threads still writing responses.
        """
        self.draining.set()
        for _ in self._threads:
            self.queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join()
        if self._shared_executor is not None:
            self._shared_executor.close()
        deadline = time.monotonic() + grace
        with self._idle:
            while self._active_requests > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)

    # -- request accounting (drain waits for responses in progress) ---
    def request_started(self) -> None:
        with self._idle:
            self._active_requests += 1

    def request_finished(self) -> None:
        with self._idle:
            self._active_requests -= 1
            if self._active_requests <= 0:
                self._idle.notify_all()

    # -- admission -----------------------------------------------------
    def submit_simulate(
        self, payload: Any, wait: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Handle one ``POST /v1/simulate`` body; see :meth:`_respond`."""
        self.stats.bump("simulate_requests")
        spec = self._parse_spec(payload)
        key = spec_key(spec)
        hit = self.cache.get_payload(spec, key)
        if hit is not None:
            self.stats.bump("cache_hits")
            return {"kind": "result", "served": "cache", "key": key, "payload": hit}
        flight, leader = self._admit("simulate", key, spec.to_dict(), total=1)
        return self._respond(flight, leader, wait, timeout)

    def submit_campaign(
        self, payload: Any, wait: bool = True, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Handle one ``POST /v1/campaign`` body; see :meth:`_respond`."""
        self.stats.bump("campaign_requests")
        campaign = self._parse_campaign(payload)
        canonical = campaign.to_dict()
        key = spec_key(canonical)  # same canonical-JSON content hash
        hit = self._campaign_memo_get(key)
        if hit is not None:
            self.stats.bump("cache_hits")
            return {"kind": "result", "served": "cache", "key": key, "payload": hit}
        flight, leader = self._admit("campaign", key, canonical, total=campaign.size)
        return self._respond(flight, leader, wait, timeout)

    def _campaign_memo_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._campaign_memo_lock:
            payload = self._campaign_memo.get(key)
            if payload is not None:
                self._campaign_memo.move_to_end(key)
            return payload

    def _campaign_memo_put(self, key: str, payload: Dict[str, Any]) -> None:
        with self._campaign_memo_lock:
            self._campaign_memo[key] = payload
            self._campaign_memo.move_to_end(key)
            while len(self._campaign_memo) > self.campaign_memo_size:
                self._campaign_memo.popitem(last=False)

    def _admit(self, kind: str, key: str, work: Dict[str, Any], total: int):
        if self.draining.is_set():
            raise ServeRequestError(503, "server is draining; no new work accepted")

        def on_lead(flight) -> None:
            job = self.jobs.create(kind, key, total)
            flight.job_id = job.id
            try:
                self.queue.put_nowait((job, kind, key, work))
            except queue.Full:
                job.mark_error("refused: job queue full")
                raise ServeRequestError(
                    503, f"job queue full ({self.queue_limit} pending); retry later"
                ) from None

        flight, leader = self.flights.join(key, on_lead)
        if not leader:
            self.stats.bump("coalesced")
        return flight, leader

    def _respond(self, flight, leader: bool, wait: bool, timeout: Optional[float]) -> Dict[str, Any]:
        job_payload = {
            "kind": "job",
            "served": "queued" if leader else "coalesced",
            "key": flight.key,
            "job_id": flight.job_id,
        }
        if not wait:
            return job_payload
        window = DEFAULT_WAIT_TIMEOUT if timeout is None else timeout
        if not flight.wait(window):
            job_payload["served"] = "timeout"
            return job_payload
        if flight.error is not None:
            raise ServeRequestError(500, flight.error)
        return {
            "kind": "result",
            "served": "engine" if leader else "coalesced",
            "key": flight.key,
            "job_id": flight.job_id,
            "payload": flight.payload,
        }

    # -- request validation -------------------------------------------
    def _parse_spec(self, payload: Any) -> SimulationSpec:
        if not isinstance(payload, dict):
            raise ServeRequestError(400, "request body must be a SimulationSpec JSON object")
        try:
            spec = SimulationSpec.from_dict(payload)
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise ServeRequestError(400, f"bad SimulationSpec: {exc}") from exc
        if spec.seed is None:
            raise ServeRequestError(
                400,
                "serve requires a seeded spec: with seed=None the result is not a "
                "function of the request, so it can be neither cached nor coalesced",
            )
        if spec.record_trace:
            raise ServeRequestError(
                400, "serve refuses traced specs: traces do not survive the payload round trip"
            )
        self._check_names(spec)
        return spec

    @staticmethod
    def _check_names(spec: SimulationSpec) -> None:
        """Reject unknown registry names at admission time (400, not 500).

        Cheap lookups only — parameters and builds are still validated
        by the engine on the worker side; this just keeps typos from
        occupying a queue slot and surfacing as an opaque job error.
        """
        try:
            PROTOCOLS.get(spec.protocol)
            TOPOLOGIES.get(spec.topology)
            INITIALS.get(spec.initial)
            STOPS.get(spec.stop)
            if spec.delay is not None:
                DELAYS.get(spec.delay)
        except ConfigurationError as exc:
            raise ServeRequestError(400, str(exc)) from exc

    def _parse_campaign(self, payload: Any) -> CampaignSpec:
        if not isinstance(payload, dict):
            raise ServeRequestError(400, "request body must be a CampaignSpec JSON object")
        try:
            campaign = CampaignSpec.from_dict(payload)
        except (ConfigurationError, TypeError, ValueError, KeyError) as exc:
            raise ServeRequestError(400, f"bad CampaignSpec: {exc}") from exc
        if campaign.base.record_trace:
            raise ServeRequestError(
                400, "serve refuses traced campaigns: traces do not survive the payload round trip"
            )
        self._check_names(campaign.base)
        return campaign

    # -- the worker pool ----------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self.queue.get()
            try:
                if item is _SHUTDOWN:
                    return
                job, kind, key, work = item
                job.mark_running()
                try:
                    if kind == "simulate":
                        self._run_simulate(job, key, work)
                    else:
                        self._run_campaign(job, key, work)
                except Exception as exc:  # noqa: BLE001 - job isolation
                    message = f"{type(exc).__name__}: {exc}"
                    job.mark_error(message)
                    self.stats.bump("errors")
                    self.flights.resolve(key, error=message)
            finally:
                self.queue.task_done()

    def _run_simulate(self, job, key: str, payload: Dict[str, Any]) -> None:
        spec = SimulationSpec.from_dict(payload)
        # Re-check the cache at execution time: a request that raced the
        # tail of an earlier flight may have been admitted after that
        # flight resolved — serve the cached value instead of re-running.
        hit = self.cache.get_payload(spec, key)
        if hit is not None:
            self.stats.bump("cache_hits")
            job.mark_point(key)
            job.mark_done(engine_runs=0, cache_hits=1)
            self.flights.resolve(key, payload=hit)
            return
        result = self._map_payloads([payload])[0]
        self.cache.put(spec, result, key)
        self.stats.bump("engine_runs")
        job.mark_point(key)
        job.mark_done(engine_runs=1)
        self.flights.resolve(key, payload=result)

    def _run_campaign(self, job, key: str, payload: Dict[str, Any]) -> None:
        campaign = CampaignSpec.from_dict(payload)
        progress = _ProgressCache(self.cache, job)
        if self._shared_executor is not None:
            with self._executor_lock:
                # The shared distributed coordinator is single-campaign by
                # design: _executor_lock exists to serialize whole runs, so
                # holding it across the run is the point, not a hazard.
                result = run_campaign(campaign, executor=self._shared_executor, cache=progress)  # repro: lint-ignore[REPRO-L002] serializing runs is this lock's purpose
        else:
            result = run_campaign(campaign, executor=self.executor_spec, cache=progress)
        out = result.to_dict()
        execution = out.pop("execution")
        self.stats.bump("engine_runs", execution["engine_runs"])
        self.stats.bump("campaign_point_hits", execution["cache_hits"])
        job.mark_done(
            engine_runs=execution["engine_runs"], cache_hits=execution["cache_hits"]
        )
        self._campaign_memo_put(key, out)
        self.flights.resolve(key, payload=out)

    def _map_payloads(self, payloads):
        """One batch through the configured ``map_payloads`` backend."""
        if self._shared_executor is not None:
            with self._executor_lock:
                # Same contract as _run_campaign: the shared coordinator
                # socket handles one batch at a time, serialized here.
                results = list(self._shared_executor.map_payloads(payloads))  # repro: lint-ignore[REPRO-L002] serializing batches is this lock's purpose
        else:
            executor = resolve_executor(self.executor_spec)
            try:
                results = list(executor.map_payloads(payloads))
            finally:
                closer = getattr(executor, "close", None)
                if callable(closer):
                    closer()
        if len(results) != len(payloads):
            raise ExperimentError(
                f"executor {self.executor_spec!r} returned {len(results)} payload(s) "
                f"for {len(payloads)} spec(s)"
            )
        return results

    # -- read-side payloads -------------------------------------------
    def read_result(self, key: str) -> Optional[Dict[str, Any]]:
        """``GET /v1/results/<key>``: campaign aggregate or cached point."""
        payload = self._campaign_memo_get(key)
        if payload is not None:
            return payload
        return self.cache.read_key(key)

    def health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining.is_set() else "ok",
            "uptime_seconds": time.monotonic() - self.started_at,
            "workers": self.workers,
            "executor": self.executor_spec,
            "queue_depth": self.queue.qsize(),
            "inflight": self.flights.pending(),
            "jobs": self.jobs.counts(),
            "stats": self.stats.snapshot(),
            "cache_memo_entries": self.cache.memo_len,
        }

    def registry_payload(self) -> Dict[str, Any]:
        """The ``repro list`` registries as JSON."""
        from ...bench import experiment_ids
        from ..executors import EXECUTORS

        def params(entry):
            return [
                {
                    "name": p.name,
                    "kind": p.kind,
                    "required": p.required,
                    "default": p.default,
                    "doc": p.doc,
                }
                for p in entry.params
            ]

        protocols = {}
        for name in PROTOCOLS.names():
            entry = PROTOCOLS.get(name)
            protocols[name] = {
                "models": list(entry.models()),
                "params": params(entry),
                "description": entry.description,
            }
        sections: Dict[str, Any] = {"protocols": protocols}
        for section, registry in (
            ("topologies", TOPOLOGIES),
            ("initials", INITIALS),
            ("delays", DELAYS),
            ("stops", STOPS),
        ):
            sections[section] = {
                name: {
                    "params": params(registry.get(name)),
                    "description": registry.get(name).description,
                }
                for name in registry.names()
            }
        sections["executors"] = {
            name: ((EXECUTORS[name].__doc__ or "").strip().splitlines() or ["-"])[0]
            for name in sorted(EXECUTORS)
        }
        sections["experiments"] = list(experiment_ids())
        return sections


# ---------------------------------------------------------------------------
# the HTTP layer
# ---------------------------------------------------------------------------
def _make_handler(service: SimulationService, quiet: bool = True):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"
        timeout = 120
        # The warm path answers in microseconds; without TCP_NODELAY the
        # Nagle / delayed-ACK interaction stalls the small header+body
        # writes ~40 ms, burying the cache win.
        disable_nagle_algorithm = True

        # -- plumbing --------------------------------------------------
        def log_message(self, fmt, *args):  # noqa: A003 - stdlib name
            if not quiet:
                super().log_message(fmt, *args)

        def _send_json(self, status: int, obj: Any, extra: Optional[Dict[str, str]] = None):
            body = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if service.draining.is_set():
                self.send_header("Connection", "close")
                self.close_connection = True
            for name, value in (extra or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_error_json(self, status: int, message: str):
            self._send_json(status, {"error": message})

        def _read_body(self) -> Any:
            length = self.headers.get("Content-Length")
            if length is None:
                raise ServeRequestError(411, "Content-Length required")
            try:
                length = int(length)
            except ValueError:
                raise ServeRequestError(400, "bad Content-Length") from None
            if length > MAX_BODY_BYTES:
                raise ServeRequestError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
            raw = self.rfile.read(length)
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServeRequestError(400, f"body is not valid JSON: {exc}") from exc

        def _query(self) -> Dict[str, str]:
            parsed = parse_qs(urlparse(self.path).query)
            return {name: values[-1] for name, values in parsed.items()}

        # -- routing ---------------------------------------------------
        def do_GET(self):  # noqa: N802 - stdlib casing
            self._dispatch(self._route_get)

        def do_POST(self):  # noqa: N802 - stdlib casing
            self._dispatch(self._route_post)

        def _dispatch(self, route) -> None:
            service.request_started()
            service.stats.bump("requests")
            try:
                route(urlparse(self.path).path.rstrip("/") or "/")
            except ServeRequestError as exc:
                self._send_error_json(exc.status, str(exc))
            except BrokenPipeError:
                self.close_connection = True
            except Exception as exc:  # noqa: BLE001 - a request never kills the server
                service.stats.bump("errors")
                self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            finally:
                service.request_finished()

        def _route_get(self, path: str) -> None:
            if path == "/healthz":
                self._send_json(200, service.health_payload())
            elif path == "/v1/registry":
                self._send_json(200, service.registry_payload())
            elif path == "/v1/jobs":
                self._send_json(
                    200,
                    {"jobs": service.jobs.summaries(), "counts": service.jobs.counts()},
                )
            elif path.startswith("/v1/jobs/"):
                job = service.jobs.get(path[len("/v1/jobs/"):])
                if job is None:
                    raise ServeRequestError(404, "no such job")
                self._send_json(200, job.to_payload())
            elif path.startswith("/v1/results/"):
                payload = service.read_result(path[len("/v1/results/"):])
                if payload is None:
                    raise ServeRequestError(404, "no result under that key")
                self._send_json(200, payload)
            else:
                raise ServeRequestError(404, f"unknown path {path!r}")

        def _route_post(self, path: str) -> None:
            body = self._read_body()
            query = self._query()
            wait = query.get("wait", "1").lower() not in ("0", "false", "no")
            timeout = None
            if "timeout" in query:
                try:
                    timeout = float(query["timeout"])
                except ValueError:
                    raise ServeRequestError(400, "bad timeout parameter") from None
            if path == "/v1/simulate":
                outcome = service.submit_simulate(body, wait=wait, timeout=timeout)
            elif path == "/v1/campaign":
                outcome = service.submit_campaign(body, wait=wait, timeout=timeout)
            else:
                raise ServeRequestError(404, f"unknown path {path!r}")
            extra = {"X-Repro-Key": outcome["key"], "X-Repro-Served": outcome["served"]}
            if outcome.get("job_id"):
                extra["X-Repro-Job"] = outcome["job_id"]
            if outcome["kind"] == "result":
                self._send_json(200, outcome["payload"], extra)
            else:
                self._send_json(
                    202,
                    {"job": outcome["job_id"], "key": outcome["key"], "status": outcome["served"]},
                    extra,
                )

    return Handler


class ReproServer:
    """A bound HTTP server plus its :class:`SimulationService`.

    Construction binds the socket (``port=0`` picks an ephemeral port —
    read it back from :attr:`address`) and starts nothing; call
    :meth:`start` for a background accept loop (tests, benchmarks) or
    :meth:`serve_forever` to run in the calling thread (the CLI).
    Either way, :meth:`shutdown` performs the graceful drain.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str = ".repro-cache",
        workers: int = 2,
        executor: str = "serial",
        queue_limit: int = 256,
        memo_size: int = 1024,
        quiet: bool = True,
    ):
        self.service = SimulationService(
            cache_dir=cache_dir,
            workers=workers,
            executor=executor,
            queue_limit=queue_limit,
            memo_size=memo_size,
        )
        self.httpd = ThreadingHTTPServer((host, port), _make_handler(self.service, quiet))
        # Handler threads must not pin the process: drain resolves every
        # flight before exit, and idle keep-alive connections would
        # otherwise block a blocking join forever.
        self.httpd.daemon_threads = True
        self.httpd.block_on_close = False
        self.address: Tuple[str, int] = self.httpd.server_address[:2]
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    def start(self) -> "ReproServer":
        self.service.start()
        self._accept_thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        self.service.start()
        self.httpd.serve_forever()

    def shutdown(self, grace: float = 10.0) -> None:
        """Graceful drain: stop accepting, finish all work, release."""
        self.service.draining.set()
        self.httpd.shutdown()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=grace)
        self.service.drain(grace=grace)
        self.httpd.server_close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def run_server(
    host: str = "127.0.0.1",
    port: int = 7680,
    cache_dir: str = ".repro-cache",
    workers: int = 2,
    executor: str = "serial",
    queue_limit: int = 256,
    verbose: bool = False,
    stream: Optional[TextIO] = None,
) -> int:
    """``python -m repro serve`` entry point.

    Runs until ``SIGTERM``/``SIGINT``, then drains gracefully (stop
    accepting → finish or persist in-flight points → exit 0).
    """
    stream = sys.stderr if stream is None else stream
    server = ReproServer(
        host=host,
        port=port,
        cache_dir=cache_dir,
        workers=workers,
        executor=executor,
        queue_limit=queue_limit,
        quiet=not verbose,
    )
    bound_host, bound_port = server.address
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(workers={workers}, executor={executor}, cache={cache_dir})",
        file=stream,
        flush=True,
    )

    drain_started = threading.Event()

    def _begin_drain(signum, frame):  # noqa: ARG001 - signal signature
        if drain_started.is_set():
            return
        drain_started.set()
        server.service.draining.set()
        # shutdown() blocks until the accept loop exits, so it must run
        # off the main thread (which is inside serve_forever right now).
        threading.Thread(target=server.httpd.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _begin_drain)
    try:
        server.serve_forever()  # returns once _begin_drain fires
        server.service.drain()
        server.httpd.server_close()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("repro serve: drained cleanly; exiting", file=stream, flush=True)
    return 0
