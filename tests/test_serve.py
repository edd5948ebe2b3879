"""Tests for ``repro serve``: the persistent simulation-as-a-service layer.

The acceptance bar (ISSUE 8): warm-cache hits answer synchronously from
the in-process memo; N identical concurrent cold requests coalesce onto
exactly one engine run; response bodies are byte-identical across
cache/engine/coalesced serves and value-identical to ``simulate()`` /
``run_campaign()``; jobs expose point-level campaign progress; and a
SIGTERM drains the server cleanly with exit code 0.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    CampaignSpec,
    ResultCache,
    SimulationSpec,
    SweepSpec,
    run_campaign,
    simulate,
    spec_key,
)
from repro.api.serve import (
    Flight,
    Job,
    JobTable,
    ReproServer,
    ServeClient,
    ServeError,
    ServeRequestError,
    SimulationService,
    SingleFlight,
)
from repro.core.exceptions import ConfigurationError, ExperimentError

JOIN_TIMEOUT = 60.0


def _canon(payload):
    """Canonical JSON text — the serve wire format (NaN-tolerant equality)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _spec(n=200, reps=1, seed=7, **overrides):
    kwargs = dict(
        protocol="two-choices",
        n=n,
        initial="two-colors",
        initial_params={"gap": n // 5},
        reps=reps,
        seed=seed,
        max_steps=40 * n,
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


def _campaign(ns=(120, 140), seed=5, reps=1):
    return CampaignSpec(
        base=_spec(n=ns[0], reps=reps, seed=None),
        sweep=SweepSpec(axes={"n": list(ns)}),
        seed=seed,
        name="serve-test",
    )


# ---------------------------------------------------------------------------
# single-flight coalescing (pure unit tests, no HTTP)
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_leader_then_followers(self):
        flights = SingleFlight()
        first, lead1 = flights.join("k")
        second, lead2 = flights.join("k")
        assert lead1 and not lead2
        assert first is second
        assert second.followers == 1
        assert flights.pending() == 1

    def test_resolve_wakes_waiters_with_payload(self):
        flights = SingleFlight()
        flight, _ = flights.join("k")
        seen = []
        thread = threading.Thread(target=lambda: seen.append(flight.wait(JOIN_TIMEOUT)))
        thread.start()
        flights.resolve("k", payload={"answer": 42})
        thread.join(JOIN_TIMEOUT)
        assert seen == [True]
        assert flight.payload == {"answer": 42}
        assert flight.error is None
        assert flights.pending() == 0

    def test_resolve_with_error(self):
        flights = SingleFlight()
        flight, _ = flights.join("k")
        flights.resolve("k", error="boom")
        assert flight.wait(JOIN_TIMEOUT)
        assert flight.error == "boom"

    def test_resolve_unknown_key_is_noop(self):
        assert SingleFlight().resolve("ghost", payload={}) is None

    def test_new_flight_after_resolve(self):
        flights = SingleFlight()
        first, _ = flights.join("k")
        flights.resolve("k", payload={})
        second, lead = flights.join("k")
        assert lead
        assert second is not first

    def test_on_lead_runs_once_under_the_lock(self):
        flights = SingleFlight()
        calls = []
        flights.join("k", on_lead=lambda f: calls.append(f.key))
        flights.join("k", on_lead=lambda f: calls.append("follower should not run this"))
        assert calls == ["k"]

    def test_on_lead_failure_does_not_poison_the_key(self):
        flights = SingleFlight()
        with pytest.raises(RuntimeError):
            flights.join("k", on_lead=lambda f: (_ for _ in ()).throw(RuntimeError("no")))
        assert flights.pending() == 0
        flight, lead = flights.join("k")
        assert lead and isinstance(flight, Flight)


class TestJobTable:
    def test_lifecycle_payload(self):
        table = JobTable()
        job = table.create("simulate", "abc", total=1)
        assert job.status == "queued"
        payload = job.to_payload()
        assert payload["progress"] == {"completed": 0, "total": 1}
        job.mark_running()
        assert job.status == "running"
        job.mark_point("abc")
        job.mark_done(engine_runs=1, cache_hits=0)
        payload = job.to_payload()
        assert payload["status"] == "done"
        assert payload["progress"]["completed"] == 1
        assert payload["engine_runs"] == 1

    def test_mark_point_is_idempotent_per_key(self):
        job = Job("job-000001", "campaign", "k", total=3)
        job.mark_point("p1")
        job.mark_point("p1")  # progress_hook + in-order consumer double-put
        job.mark_point("p2")
        assert job.completed == 2

    def test_error_state(self):
        job = Job("job-000001", "simulate", "k", total=1)
        job.mark_running()
        job.mark_error("ValueError: nope")
        payload = job.to_payload()
        assert payload["status"] == "error"
        assert payload["error"] == "ValueError: nope"

    def test_counts_and_summaries(self):
        table = JobTable()
        first = table.create("simulate", "a", total=1)
        table.create("campaign", "b", total=4)
        first.mark_running()
        counts = table.counts()
        assert counts["queued"] == 1 and counts["running"] == 1
        summaries = table.summaries()
        assert summaries[0]["id"] == "job-000002"  # newest first
        assert table.get("job-000001") is first
        assert table.get("nope") is None


# ---------------------------------------------------------------------------
# the ResultCache LRU memo (satellite: hot keys skip the filesystem)
# ---------------------------------------------------------------------------
class TestCacheMemo:
    def test_memo_disabled_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(n=60)
        cache.put(spec, simulate(spec))
        assert cache.memo_len == 0

    def test_put_seeds_memo_and_get_skips_the_file(self, tmp_path):
        cache = ResultCache(tmp_path, memo_size=4)
        spec = _spec(n=60)
        cache.put(spec, simulate(spec))
        assert cache.memo_len == 1
        # Deleting the file proves the memo serves the hit.
        cache.path_for(spec_key(spec)).unlink()
        assert cache.get(spec) is not None
        assert cache.get_payload(spec)["spec"] == spec.to_dict()

    def test_read_key_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, memo_size=4)
        spec = _spec(n=60)
        result = simulate(spec)
        cache.put(spec, result)
        key = spec_key(spec)
        payload = cache.read_key(key)
        assert payload["engine"] == result.engine
        assert cache.read_key("0" * 64) is None

    def test_lru_evicts_oldest(self, tmp_path):
        cache = ResultCache(tmp_path, memo_size=2)
        specs = [_spec(n=60, seed=seed) for seed in (1, 2, 3)]
        for spec in specs:
            cache.put(spec, simulate(spec))
        assert cache.memo_len == 2
        # seed=1 was evicted: with its file gone, the miss is real.
        cache.path_for(spec_key(specs[0])).unlink()
        assert cache.get(specs[0]) is None
        # seed=3 still memoized even with its file gone.
        cache.path_for(spec_key(specs[2])).unlink()
        assert cache.get(specs[2]) is not None

    def test_get_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path, memo_size=2)
        specs = [_spec(n=60, seed=seed) for seed in (1, 2, 3)]
        cache.put(specs[0], simulate(specs[0]))
        cache.put(specs[1], simulate(specs[1]))
        assert cache.get_payload(specs[0]) is not None  # touch seed=1
        cache.put(specs[2], simulate(specs[2]))         # evicts seed=2, not 1
        cache.path_for(spec_key(specs[0])).unlink()
        assert cache.get(specs[0]) is not None

    def test_corruption_detection_survives_memo(self, tmp_path):
        cache = ResultCache(tmp_path, memo_size=0)
        spec = _spec(n=60)
        cache.put(spec, simulate(spec))
        path = cache.path_for(spec_key(spec))
        payload = json.loads(path.read_text())
        payload["result"]["spec"]["n"] = 61
        path.write_text(json.dumps(payload))
        with pytest.raises(ExperimentError):
            cache.get_payload(spec)

    def test_negative_memo_size_refused(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, memo_size=-1)


# ---------------------------------------------------------------------------
# the HTTP surface (one shared server per test class)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    with ReproServer(port=0, cache_dir=cache_dir, workers=2) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(server.address) as c:
        yield c


class TestServeHTTP:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert set(health["stats"]) >= {"requests", "cache_hits", "engine_runs", "coalesced"}

    def test_registry(self, client):
        registry = client.registry()
        assert "two-choices" in registry["protocols"]
        assert "complete" in registry["topologies"]
        assert set(registry["executors"]) >= {"serial", "process", "distributed"}
        assert registry["experiments"]  # T1..T12

    def test_simulate_value_identical_to_local(self, client):
        spec = _spec(n=160, seed=101)
        served = client.simulate(spec)
        local = simulate(spec).to_dict()
        served.pop("elapsed_seconds")
        local.pop("elapsed_seconds")
        # Canonical JSON text: NaN summary statistics (zero-variance or
        # unconverged points) compare unequal as floats but identically
        # as serialized text.
        assert _canon(served) == _canon(local)

    def test_warm_hit_is_byte_identical_and_counted(self, client, server):
        spec = _spec(n=150, seed=102)
        status1, headers1, body1 = client.request_raw("POST", "/v1/simulate", spec.to_dict())
        assert status1 == 200
        before = client.health()["stats"]
        status2, headers2, body2 = client.request_raw("POST", "/v1/simulate", spec.to_dict())
        after = client.health()["stats"]
        assert status2 == 200
        assert headers2["X-Repro-Served"] == "cache"
        assert body2 == body1
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["engine_runs"] == before["engine_runs"]

    def test_response_key_header_matches_spec_key(self, client):
        spec = _spec(n=150, seed=102)
        _, headers, _ = client.request_raw("POST", "/v1/simulate", spec.to_dict())
        assert headers["X-Repro-Key"] == spec_key(spec)

    def test_concurrent_identical_cold_requests_run_once(self, server, client):
        spec = _spec(n=170, seed=103)
        before = client.health()["stats"]
        outcomes = [None] * 6

        def post(i):
            with ServeClient(server.address) as c:
                outcomes[i] = c.request_raw("POST", "/v1/simulate", spec.to_dict())

        threads = [threading.Thread(target=post, args=(i,)) for i in range(len(outcomes))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_TIMEOUT)
        after = client.health()["stats"]
        assert after["engine_runs"] - before["engine_runs"] == 1
        statuses = {status for status, _, _ in outcomes}
        assert statuses == {200}
        bodies = {body for _, _, body in outcomes}
        assert len(bodies) == 1  # byte-identical across engine/coalesced serves
        served = sorted(headers["X-Repro-Served"] for _, headers, _ in outcomes)
        assert served.count("engine") == 1
        assert set(served) <= {"engine", "coalesced", "cache"}

    def test_campaign_value_identical_to_local(self, client, tmp_path):
        campaign = _campaign(ns=(110, 130), seed=51)
        served = client.campaign(campaign)
        local = run_campaign(campaign).to_dict()
        local.pop("execution")
        assert _canon(served) == _canon(local)

    def test_campaign_warm_replay_served_from_memo(self, client):
        campaign = _campaign(ns=(110, 130), seed=51)  # same as above: warm
        status, headers, _ = client.request_raw("POST", "/v1/campaign", campaign.to_dict())
        assert status == 200
        assert headers["X-Repro-Served"] == "cache"

    def test_async_submit_polls_to_done(self, client):
        spec = _spec(n=140, seed=104)
        reply = client.simulate(spec, wait=False)
        assert set(reply) == {"job", "key", "status"}
        assert reply["status"] in {"queued", "running", "done"}
        final = client.wait_job(reply["job"], timeout=JOIN_TIMEOUT)
        assert final["spec"] == spec.to_dict()
        job = client.job(reply["job"])
        assert job["status"] == "done"
        assert job["progress"] == {"completed": 1, "total": 1}

    def test_campaign_job_streams_point_progress(self, client):
        campaign = _campaign(ns=(100, 115, 125), seed=52)
        reply = client.campaign(campaign, wait=False)
        job_id = reply["job"]
        out = client.wait_job(job_id, timeout=JOIN_TIMEOUT)
        assert len(out["points"]) == 3
        job = client.job(job_id)
        assert job["kind"] == "campaign"
        assert job["progress"] == {"completed": 3, "total": 3}
        assert job["engine_runs"] + job["cache_hits"] == 3

    def test_results_endpoint_serves_cached_payload(self, client):
        spec = _spec(n=150, seed=102)  # cached by the warm-hit test
        client.simulate(spec)
        payload = client.result(spec_key(spec))
        assert payload["spec"] == spec.to_dict()

    def test_jobs_listing(self, client):
        listing = client.jobs()
        assert listing["counts"]["done"] >= 1
        assert listing["jobs"][0]["id"].startswith("job-")

    def test_unseeded_spec_refused(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate(_spec(seed=None))
        assert err.value.status == 400
        assert "seed" in str(err.value)

    def test_traced_spec_refused(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate(_spec(record_trace=True))
        assert err.value.status == 400

    def test_unknown_protocol_is_400_not_500(self, client):
        with pytest.raises(ServeError) as err:
            client.simulate({"protocol": "not-a-protocol", "n": 50, "seed": 1})
        assert err.value.status == 400
        assert "unknown protocol" in str(err.value)

    def test_missing_content_length_411(self, client):
        conn = client._connection()
        conn.putrequest("POST", "/v1/simulate", skip_accept_encoding=True)
        conn.endheaders()  # no Content-Length header at all
        response = conn.getresponse()
        response.read()
        assert response.status == 411
        client.close()  # the 411 reply closes the connection server-side

    def test_non_object_body_refused(self, client):
        status, _, body = client.request_raw("POST", "/v1/simulate", None)
        # http.client stamps Content-Length: 0 -> empty body -> bad JSON
        assert status == 400
        conn = client._connection()
        conn.request("POST", "/v1/simulate", body=b"[1, 2]",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        assert response.status == 400
        assert b"JSON object" in data

    def test_invalid_json_body_refused(self, client):
        conn = client._connection()
        conn.request("POST", "/v1/simulate", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        assert response.status == 400

    def test_unknown_paths_404(self, client):
        for method, path in (("GET", "/nope"), ("POST", "/v1/nope"), ("GET", "/v1/jobs/ghost")):
            status, _, _ = client.request_raw(method, path, {} if method == "POST" else None)
            assert status == 404
        status, _, _ = client.request_raw("GET", "/v1/results/" + "0" * 64)
        assert status == 404

    def test_wait_zero_returns_job_for_cold_key(self, client):
        spec = _spec(n=135, seed=105)
        status, headers, body = client.request_raw(
            "POST", "/v1/simulate?wait=0", spec.to_dict()
        )
        assert status == 202
        reply = json.loads(body)
        final = client.wait_job(reply["job"], timeout=JOIN_TIMEOUT)
        assert final["spec"] == spec.to_dict()


class TestServiceDirect:
    """SimulationService without HTTP: admission control and drain."""

    def test_draining_service_refuses_new_work(self, tmp_path):
        service = SimulationService(cache_dir=tmp_path, workers=1)
        try:
            service.draining.set()
            with pytest.raises(ServeRequestError) as err:
                service.submit_simulate(_spec(n=60).to_dict())
            assert err.value.status == 503
        finally:
            service.draining.clear()
            service.drain()

    def test_drain_finishes_queued_jobs_first(self, tmp_path):
        service = SimulationService(cache_dir=tmp_path, workers=1)
        spec = _spec(n=90, seed=61)
        reply = service.submit_simulate(spec.to_dict(), wait=False)
        service.drain()
        job = service.jobs.get(reply["job_id"])
        assert job.status == "done"
        assert service.cache.get_payload(spec) is not None

    def test_invalid_configuration_refused(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SimulationService(cache_dir=tmp_path, workers=0)
        with pytest.raises(ConfigurationError):
            SimulationService(cache_dir=tmp_path, workers=1, queue_limit=0)
        with pytest.raises(ConfigurationError):
            SimulationService(cache_dir=tmp_path, workers=1, executor="not-an-executor")

    def test_warm_hit_without_http(self, tmp_path):
        service = SimulationService(cache_dir=tmp_path, workers=1)
        try:
            spec = _spec(n=80, seed=62)
            cold = service.submit_simulate(spec.to_dict())
            assert cold["served"] == "engine"
            warm = service.submit_simulate(spec.to_dict())
            assert warm["served"] == "cache"
            assert warm["payload"] == cold["payload"]
        finally:
            service.drain()

    def test_warm_hit_hashes_the_spec_once(self, tmp_path, monkeypatch):
        import repro.api.cache as cache_module
        import repro.api.serve.server as server_module

        service = SimulationService(cache_dir=tmp_path, workers=1)
        try:
            spec = _spec(n=80, seed=63)
            cold = service.submit_simulate(spec.to_dict())
            calls = []

            def counting_key(value):
                calls.append(value)
                return spec_key(value)

            monkeypatch.setattr(cache_module, "spec_key", counting_key)
            monkeypatch.setattr(server_module, "spec_key", counting_key)
            warm = service.submit_simulate(spec.to_dict())
            assert warm["served"] == "cache"
            assert warm["key"] == cold["key"] == spec_key(spec)
            assert warm["payload"] == cold["payload"]
            assert len(calls) == 1
        finally:
            service.drain()


class TestServeClientAddresses:
    def test_string_address_needs_port(self):
        with pytest.raises((ConfigurationError, ExperimentError)):
            ServeClient("localhost")

    def test_tuple_address(self):
        client = ServeClient(("127.0.0.1", 7680))
        assert (client.host, client.port) == ("127.0.0.1", 7680)


class TestServeCLI:
    def test_serve_in_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0", "--workers", "3"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.workers == 3
        assert args.cache_dir == ".repro-cache"
        assert args.executor == "serial"
        assert args.queue_limit == 256

    def test_subprocess_serve_sigterm_drains_clean(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache"), "--workers", "1"],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            announce = proc.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", announce)
            assert match, f"no listen announcement in {announce!r}"
            with ServeClient(("127.0.0.1", int(match.group(1)))) as client:
                spec = _spec(n=80, seed=63)
                result = client.simulate(spec)
                assert len(result["runs"]) == 1
                assert client.health()["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=JOIN_TIMEOUT)
            assert code == 0
            tail = proc.stderr.read()
            assert "drained cleanly" in tail
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
