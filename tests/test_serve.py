"""Tests for the simulation service (``repro.serve``).

The contract under test is the one ``docs/serving.md`` promises:

* request validation rejects malformed specs with clear errors (HTTP
  400) before anything is queued;
* tenant quotas and the global queue bound reject overload atomically
  (HTTP 429 + Retry-After) — an over-quota request admits *nothing*;
* identical in-flight points **coalesce**: two concurrent requests for
  the same digest cost one simulation and resolve to the same payload;
* the JSONL framing round-trips bytes -> events -> bytes;
* graceful drain finishes every admitted point and refuses new ones;
* and above all, **served == direct**: the ``result_digest`` of a point
  fetched through the server equals the digest of the same config run
  straight through ``run_many`` — serial, pooled, cached or coalesced.

Engine-level tests drive :class:`repro.serve.ServeEngine` directly on
an event loop (no sockets); HTTP-level tests boot a real
:class:`repro.serve.ReproServer` on an ephemeral localhost port.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading

import pytest

from repro.cache import RunCache
from repro.core.system import SystemConfig
from repro.experiments.parallel import run_many
from repro.obs.provenance import result_digest
from repro.serve import (
    CampaignManager,
    QuotaError,
    QuotaExceeded,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeEngine,
    ServerDraining,
    ServerError,
    SpecError,
    SweepRequest,
    decode_line,
    encode_line,
    fetch_status,
    sweep_request_doc,
)
from repro.serve.protocol import CampaignRequest
from repro.sim.trace import Trace

from tests.conftest import small_sweep_base

SMALL = small_sweep_base()


def run_async(coro):
    """Run one coroutine on a fresh event loop (py3.8-friendly helper)."""
    return asyncio.run(coro)


def sweep_doc(seeds, tenant="t", **base):
    merged = dict(SMALL)
    merged.update(base)
    return sweep_request_doc(
        [{"seed": s} for s in seeds], tenant=tenant, base=merged
    )


# ----------------------------------------------------------------------
# Protocol validation
# ----------------------------------------------------------------------
class TestSweepRequestValidation:
    def test_resolves_layered_points(self):
        req = SweepRequest.parse(
            {
                "tenant": "alice",
                "base": {"width": 2, "height": 2},
                "points": [{"seed": 1}, {"seed": 2, "tdp_w": 40.0}],
            }
        )
        assert [p.config.seed for p in req.points] == [1, 2]
        assert all(p.config.width == 2 for p in req.points)
        assert req.points[1].config.tdp_w == 40.0
        assert len({p.digest for p in req.points}) == 2

    def test_seed_cross_product(self):
        req = SweepRequest.parse(
            {"points": [{"width": 2, "height": 2}], "seeds": [5, 6, 7]}
        )
        assert [p.config.seed for p in req.points] == [5, 6, 7]

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"points": []}, "non-empty"),
            ({"points": "nope"}, "non-empty"),
            ({}, "points"),
            ({"points": [{}], "bogus": 1}, "unknown request keys"),
            ({"points": [{"no_such_field": 1}]}, "no_such_field"),
            ({"points": [{}], "seeds": []}, "seeds"),
            ({"points": [{}], "seeds": [1, True]}, "seeds"),
            ({"points": [{}], "tenant": ""}, "tenant"),
            ({"points": [{}], "tenant": "a b"}, "tenant"),
            ({"points": [{}], "tenant": 7}, "tenant"),
            ({"points": [3]}, r"points\[0\]"),
            ({"points": [{"seed": "x"}]}, r"points\[0\]"),
        ],
    )
    def test_rejects_bad_documents(self, doc, fragment):
        with pytest.raises(SpecError, match=fragment):
            SweepRequest.parse(doc)

    def test_rejects_oversize_requests(self):
        with pytest.raises(SpecError, match="ceiling"):
            SweepRequest.parse(
                {"points": [{}], "seeds": list(range(10))}, max_points=9
            )

    def test_campaign_request_round_trips_spec(self):
        req = CampaignRequest.parse(
            {
                "tenant": "bob",
                "spec": {
                    "name": "c1",
                    "base": SMALL,
                    "grid": {"tdp_w": [40.0]},
                    "seeds": {"count": 2},
                },
                "jobs": 0,
            }
        )
        assert req.spec.name == "c1"
        assert req.jobs == 0

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"spec": None}, "spec"),
            ({"spec": {"name": "x", "grid": {"bogus": [1]}}}, "spec"),
            ({"spec": {"name": "x", "grid": {}}, "jobs": -1}, "jobs"),
            ({"spec": {"name": "x", "grid": {}}, "batch": 0}, "batch"),
        ],
    )
    def test_campaign_request_rejections(self, doc, fragment):
        with pytest.raises(SpecError, match=fragment):
            CampaignRequest.parse(doc)


# ----------------------------------------------------------------------
# JSONL framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_encode_decode_round_trip(self):
        event = {"event": "result", "index": 3, "summary": {"x": 1.5}}
        line = encode_line(event)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_line(line) == event
        assert decode_line(line.rstrip(b"\n")) == event

    def test_encoding_is_deterministic(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b  # sorted keys -> byte-identical frames

    def test_decode_rejects_garbage(self):
        with pytest.raises(SpecError):
            decode_line(b"not json\n")
        with pytest.raises(SpecError):
            decode_line(b"[1, 2]\n")

    def test_stream_of_frames_splits_cleanly(self):
        events = [{"i": i} for i in range(5)]
        blob = b"".join(encode_line(e) for e in events)
        parsed = [decode_line(l) for l in blob.splitlines()]
        assert parsed == events


# ----------------------------------------------------------------------
# Engine: coalescing, quotas, draining
# ----------------------------------------------------------------------
async def _with_engine(body, jobs=0, **kwargs):
    engine = ServeEngine(jobs=jobs, **kwargs)
    await engine.start()
    try:
        return await body(engine)
    finally:
        await engine.drain(30.0)
        await engine.stop()


class TestEngine:
    def test_intra_request_coalescing(self):
        async def body(engine):
            req = SweepRequest.parse(
                {"points": [{"seed": 1}, {"seed": 1}], "base": SMALL}
            )
            tickets = engine.submit(req)
            assert [t.source for t in tickets] == ["queued", "coalesced"]
            assert tickets[0].future is tickets[1].future
            payloads = await asyncio.gather(*[t.future for t in tickets])
            assert payloads[0].result_digest == payloads[1].result_digest
            return engine.stats()

        stats = run_async(_with_engine(body))
        assert stats["counters"]["serve.computed"] == 1
        assert stats["counters"]["serve.coalesced"] == 1

    def test_cross_request_coalescing_costs_one_simulation(self):
        async def body(engine):
            doc = {"points": [{"seed": 3}], "base": SMALL}
            # Two submissions with no await between them: the second is
            # guaranteed to see the first still in flight.
            t1 = engine.submit(SweepRequest.parse(dict(doc, tenant="a")))
            t2 = engine.submit(SweepRequest.parse(dict(doc, tenant="b")))
            assert t1[0].source == "queued"
            assert t2[0].source == "coalesced"
            p1, p2 = await asyncio.gather(t1[0].future, t2[0].future)
            assert p1.result_digest == p2.result_digest
            return engine.stats()

        stats = run_async(_with_engine(body))
        assert stats["counters"]["serve.computed"] == 1

    def test_engine_counts_each_computed_point_once(self, tmp_path, closes):
        """A repeated point coalesces and a cached one is served; only
        the points the engine computes add ``sim.*`` counts."""
        cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
        doc = {"points": [{"seed": s} for s in (1, 2, 1)], "base": SMALL}

        async def body(engine):
            for _ in range(2):  # cold, then every point a cache hit
                tickets = engine.submit(SweepRequest.parse(doc))
                await asyncio.gather(*[t.future for t in tickets])
            return engine.registry.snapshot()["counters"]

        counters = run_async(_with_engine(body, cache=cache))
        assert counters["serve.computed"] == 2
        assert counters["serve.coalesced"] == 1
        assert counters["serve.cache_hits"] == 3
        assert counters["sim.runs"] == counters["serve.computed"]

    def test_a_served_point_integrates_its_power_traces_once(
        self, tmp_path, closes, monkeypatch
    ):
        """A run's summary row is computed once, in the run, and travels
        with the result: serving the point integrates its three power
        traces once in all, and serving it from the cache not at all."""
        calls = []
        integral = Trace.integral
        monkeypatch.setattr(
            Trace,
            "integral",
            lambda trace, *args: calls.append(args) or integral(trace, *args),
        )
        cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
        doc = {"points": [{"seed": 1}], "base": SMALL}

        async def body(engine):
            counts = []
            for source in ("queued", "cached"):
                calls.clear()
                [ticket] = engine.submit(SweepRequest.parse(doc))
                assert ticket.source == source
                await ticket.future
                counts.append(len(calls))
            return counts

        assert run_async(_with_engine(body, cache=cache)) == [3, 0]

    def test_a_computed_point_is_cached_as_its_worker_sent_it(
        self, tmp_path, closes, monkeypatch
    ):
        """The engine puts a pooled worker's result before it reads the
        result, so the cache stores the worker's bytes unchanged rather
        than decoding and re-encoding them."""
        import pickle

        from repro.experiments.pool import Outcome, execute
        from repro.serve import engine as engine_module

        sent = []

        def pooled_execute(config, timeout_s=None):
            # What a pool worker's reply holds: the pickled result.
            blob = pickle.dumps(execute(config, timeout_s).result, protocol=4)
            sent.append(blob)
            return Outcome(result=pickle.loads(blob))

        monkeypatch.setattr(engine_module, "execute", pooled_execute)
        cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
        put_result = cache.put_result
        puts = []

        def spy(digest, result, telemetry=None):
            puts.append("_detail" in vars(result))  # still undecoded?
            key = put_result(digest, result, telemetry)
            puts.append(cache.store.get(key)[1])
            return key

        monkeypatch.setattr(cache, "put_result", spy)
        doc = {"points": [{"seed": 1}], "base": SMALL}

        async def body(engine):
            [ticket] = engine.submit(SweepRequest.parse(doc))
            await ticket.future
            return engine.registry.snapshot()

        snapshot = run_async(_with_engine(body, cache=cache))
        assert puts == [True, sent[0]]
        assert snapshot["counters"]["sim.runs"] == 1
        assert snapshot["histograms"]["serve.point_seconds"]["count"] == 1

    def test_tenant_quota_rejects_whole_request(self):
        async def body(engine):
            big = SweepRequest.parse(
                {"points": [{"seed": s} for s in range(1, 4)], "base": SMALL}
            )
            with pytest.raises(QuotaExceeded) as err:
                engine.submit(big)
            assert err.value.retry_after_s > 0
            # Nothing was admitted: a small request still fits.
            small = SweepRequest.parse(
                {"points": [{"seed": 9}, {"seed": 10}], "base": SMALL}
            )
            tickets = engine.submit(small)
            await asyncio.gather(*[t.future for t in tickets])
            return engine.stats()

        stats = run_async(_with_engine(body, tenant_quota=2))
        assert stats["counters"]["serve.rejected"] == 1
        assert stats["counters"]["serve.computed"] == 2

    def test_global_queue_bound(self):
        async def body(engine):
            with pytest.raises(QuotaExceeded, match="queue full"):
                engine.submit(
                    SweepRequest.parse(
                        {
                            "points": [{"seed": s} for s in range(1, 6)],
                            "base": SMALL,
                        }
                    )
                )

        run_async(_with_engine(body, max_queue=4, tenant_quota=100))

    def test_coalesced_and_cached_points_are_quota_free(self):
        async def body(engine):
            first = engine.submit(
                SweepRequest.parse(
                    {"points": [{"seed": 1}], "base": SMALL, "tenant": "a"}
                )
            )
            # Tenant b's quota is 1, and this request holds 1 fresh +
            # 1 coalesced point: it must still be admitted.
            second = engine.submit(
                SweepRequest.parse(
                    {
                        "points": [{"seed": 1}, {"seed": 2}],
                        "base": SMALL,
                        "tenant": "b",
                    }
                )
            )
            assert [t.source for t in second] == ["coalesced", "queued"]
            await asyncio.gather(
                *[t.future for t in first + second]
            )

        run_async(_with_engine(body, tenant_quota=1))

    def test_draining_rejects_submissions(self):
        async def body(engine):
            await engine.drain(10.0)
            with pytest.raises(ServerDraining):
                engine.submit(
                    SweepRequest.parse({"points": [{}], "base": SMALL})
                )

        run_async(_with_engine(body))

    def test_drain_completes_admitted_work(self):
        async def body(engine):
            tickets = engine.submit(
                SweepRequest.parse(
                    {"points": [{"seed": s} for s in (1, 2, 3)],
                     "base": SMALL}
                )
            )
            assert await engine.drain(60.0) is True
            # Every admitted future resolved even though drain started
            # before the work finished.
            for ticket in tickets:
                assert ticket.future.done()
                assert ticket.future.result().result_digest

        run_async(_with_engine(body))

    def test_a_point_the_fleet_refuses_still_resolves(self):
        async def body(engine):
            # A fleet that refuses the hand-over (here: already shut
            # down) fails the point instead of leaving it pending.
            engine._pool.shutdown()
            tickets = engine.submit(
                SweepRequest.parse({"points": [{"seed": 1}], "base": SMALL})
            )
            with pytest.raises(RuntimeError, match="after shutdown"):
                await asyncio.wait_for(tickets[0].future, 30.0)
            assert await engine.drain(30.0) is True
            return engine.stats()

        stats = run_async(_with_engine(body))
        assert stats["counters"]["serve.errors"] == 1
        assert stats["tenants"]["default"]["in_use"] == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            ServeEngine(jobs=-1)
        with pytest.raises(ValueError):
            ServeEngine(jobs=True)
        with pytest.raises(ValueError):
            ServeEngine(max_queue=0)
        with pytest.raises(ValueError):
            ServeEngine(tenant_quota=0)


# ----------------------------------------------------------------------
# Determinism: served == direct
# ----------------------------------------------------------------------
class TestServedEqualsDirect:
    SEEDS = (1, 2, 3)

    def _direct_digests(self):
        configs = [
            SystemConfig(**SMALL, seed=seed) for seed in self.SEEDS
        ]
        return [result_digest(r) for r in run_many(configs)]

    def _served_digests(self, **engine_kwargs):
        async def body(engine):
            tickets = engine.submit(
                SweepRequest.parse(
                    {
                        "points": [{"seed": s} for s in self.SEEDS],
                        "base": SMALL,
                    }
                )
            )
            payloads = await asyncio.gather(*[t.future for t in tickets])
            return [p.result_digest for p in payloads]

        return run_async(_with_engine(body, **engine_kwargs))

    def test_threaded_engine_matches_run_many(self):
        assert self._served_digests() == self._direct_digests()

    def test_process_engine_matches_run_many(self):
        assert self._served_digests(jobs=1) == self._direct_digests()

    def test_cached_engine_matches_run_many(self, tmp_path, closes):
        cache = closes(RunCache(cache_dir=str(tmp_path / "cache")))
        digests = self._served_digests(cache=cache)
        assert digests == self._direct_digests()
        # Second pass is served entirely from cache — same digests.
        assert self._served_digests(cache=cache) == digests


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------
async def _with_server(body, **config_kwargs):
    config = ServeConfig(**config_kwargs)
    server = ReproServer(config)
    await server.start()
    client = ServeClient("127.0.0.1", server.port)
    try:
        return await body(server, client)
    finally:
        server.request_shutdown()
        await server.shutdown()


class TestHttpServer:
    def test_healthz_status_metrics(self, tmp_path):
        async def body(server, client):
            health = await client.healthz()
            assert health["ok"] is True and health["state"] == "serving"
            status = await client.status()
            assert status["schema"] == "repro.serve.status/1"
            assert "engine" in status and "tenants" in status
            await client.sweep(sweep_doc((1,), tenant="probe"))
            metrics = await client.metrics_text()
            assert "serve" in metrics

        run_async(_with_server(body, state_dir=str(tmp_path)))

    def test_sweep_stream_and_digest_identity(self, tmp_path):
        async def body(server, client):
            events = await client.sweep(sweep_doc((1, 2), tenant="alice"))
            kinds = [e["event"] for e in events]
            assert kinds[0] == "accepted" and kinds[-1] == "done"
            results = ServeClient.results_by_index(events)
            assert sorted(results) == [0, 1]
            direct = run_many(
                [SystemConfig(**SMALL, seed=s) for s in (1, 2)]
            )
            for index, result in enumerate(direct):
                assert (
                    results[index]["result_digest"]
                    == result_digest(result)
                )
            done = events[-1]
            assert done["ok"] == 2 and done["errors"] == 0

        run_async(_with_server(body, state_dir=str(tmp_path)))

    def test_http_validation_errors(self, tmp_path):
        async def body(server, client):
            with pytest.raises(ServerError) as err:
                await client.sweep({"tenant": "x", "points": []})
            assert err.value.status == 400
            with pytest.raises(ServerError) as err:
                await client.get_json("/no/such/path")
            assert err.value.status == 404

        run_async(_with_server(body, state_dir=str(tmp_path)))

    def test_http_quota_rejection_carries_retry_after(self, tmp_path):
        async def body(server, client):
            with pytest.raises(QuotaError) as err:
                await client.sweep(sweep_doc(range(1, 9), tenant="greedy"))
            assert err.value.status == 429
            assert err.value.retry_after_s > 0

        run_async(
            _with_server(body, state_dir=str(tmp_path), tenant_quota=2)
        )

    def test_concurrent_identical_sweeps_coalesce(self, tmp_path):
        async def body(server, client):
            doc_a = sweep_doc((7,), tenant="a", horizon_us=4000.0)
            doc_b = sweep_doc((7,), tenant="b", horizon_us=4000.0)
            ev_a, ev_b = await asyncio.gather(
                client.sweep(doc_a), client.sweep(doc_b)
            )
            ra = ServeClient.results_by_index(ev_a)[0]
            rb = ServeClient.results_by_index(ev_b)[0]
            assert ra["result_digest"] == rb["result_digest"]
            status = await client.status()
            counters = status["engine"]["counters"]
            # The two streams asked for the same digest; at most one
            # simulation ran (the other side coalesced or, if already
            # finished, was... still exactly one computation).
            assert counters["serve.computed"] == 1

        run_async(_with_server(body, state_dir=str(tmp_path)))

    def test_graceful_drain_completes_inflight(self, tmp_path):
        async def body(server, client):
            stream = client.sweep_events(
                sweep_doc((1, 2, 3), tenant="drainer")
            )
            first = await stream.__anext__()
            assert first["event"] == "accepted"
            # Shut down while the sweep is mid-flight: the stream must
            # still deliver every result and the terminal event.
            shutdown = asyncio.ensure_future(server.shutdown())
            events = [event async for event in stream]
            assert events[-1]["event"] == "done"
            assert events[-1]["ok"] == 3
            assert await shutdown is True

        run_async(_with_server(body, state_dir=str(tmp_path)))

    def test_draining_server_returns_503(self, tmp_path):
        async def body(server, client):
            # Flip admissions off (drain with nothing in flight returns
            # immediately) while the listener is still open.
            server.state = "draining"
            assert await server.engine.drain(5.0) is True
            with pytest.raises(ServerError) as err:
                await client.sweep(sweep_doc((9,), tenant="late"))
            assert err.value.status == 503
            with pytest.raises(ServerError) as err:
                await client.campaign(
                    {"tenant": "late", "spec": {"name": "n", "grid": {}}}
                )
            assert err.value.status == 503
            # Health endpoint still answers during a drain.
            health = await client.healthz()
            assert health["state"] == "draining"

        run_async(_with_server(body, state_dir=str(tmp_path)))

    def test_campaign_round_trip_matches_direct(self, tmp_path):
        from repro.campaign import CampaignSpec, run_campaign

        spec_doc = {
            "name": "served",
            "base": SMALL,
            "grid": {"tdp_w": [40.0]},
            "seeds": {"count": 2},
        }

        async def body(server, client):
            done = await client.campaign(
                {"tenant": "alice", "spec": spec_doc}
            )
            assert done["state"] == "complete"
            return done

        done = run_async(_with_server(body, state_dir=str(tmp_path)))
        direct = run_campaign(
            str(tmp_path / "direct"), spec=CampaignSpec.from_dict(spec_doc)
        )
        assert done["aggregate_digest"] == direct.aggregate
        assert done["n_completed"] == direct.n_completed

    def test_port_file_holds_the_whole_port_and_is_never_fsynced(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.serve import server as server_module

        port_file = tmp_path / "run" / "port"
        synced = []
        fsync = os.fsync

        def counting_fsync(fd):
            synced.append(os.readlink(f"/proc/self/fd/{fd}"))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        started = []
        start = server_module.ReproServer.start

        async def recording_start(server):
            started.append(server)
            await start(server)

        monkeypatch.setattr(server_module.ReproServer, "start", recording_start)

        async def main():
            ready = asyncio.Event()
            serving = asyncio.create_task(
                server_module.serve_main(
                    ServeConfig(state_dir=str(tmp_path / "state")),
                    port_file=str(port_file),
                    install_signals=False,
                    ready=ready,
                )
            )
            await ready.wait()
            text = port_file.read_text(encoding="utf-8")
            port = started[0].port
            started[0].request_shutdown()
            return text, port, await serving

        text, port, code = run_async(main())
        assert code == 0
        assert text == f"{port}\n"
        # The port file's directory holds only it, and nothing there was
        # fsynced (the server's state directory may be).
        run_dir = os.path.realpath(port_file.parent)
        assert os.listdir(run_dir) == ["port"]
        assert [path for path in synced if path.startswith(run_dir)] == []
        assert synced, "the fsync counter saw none of the state writes"


# ----------------------------------------------------------------------
# Campaign manager: resume identity without HTTP
# ----------------------------------------------------------------------
class TestCampaignManager:
    def _spec(self):
        from repro.campaign import CampaignSpec

        return CampaignSpec.from_dict(
            {
                "name": "mgr",
                "base": SMALL,
                "grid": {"tdp_w": [40.0]},
                "seeds": {"count": 2},
            }
        )

    def test_submit_and_coalesce(self, tmp_path):
        manager = CampaignManager(str(tmp_path))
        job = manager.submit(self._spec())
        again = manager.submit(self._spec())
        assert again is job  # identical spec coalesces onto running job
        assert job.done.wait(120.0)
        assert job.state == "complete"
        assert job.aggregate_digest

    def test_resubmit_after_completion_is_identical(self, tmp_path):
        manager = CampaignManager(str(tmp_path))
        job = manager.submit(self._spec())
        assert job.done.wait(120.0)
        second = manager.submit(self._spec())
        assert second.done.wait(120.0)
        assert second.resumed is True
        assert second.aggregate_digest == job.aggregate_digest

    def test_resume_incomplete_picks_up_orphan_dirs(self, tmp_path):
        spec = self._spec()
        manager = CampaignManager(str(tmp_path))
        job_id = manager._job_id(spec)
        # Simulate a server killed before running anything: the spec
        # was persisted but no results/manifest exist.
        import os

        directory = os.path.join(manager.root, job_id)
        os.makedirs(directory)
        spec.save(os.path.join(directory, "spec.json"))
        fresh = CampaignManager(str(tmp_path))
        resumed = fresh.resume_incomplete()
        assert [j.job_id for j in resumed] == [job_id]
        assert resumed[0].done.wait(120.0)
        assert resumed[0].state == "complete"


# ----------------------------------------------------------------------
# top --url plumbing
# ----------------------------------------------------------------------
class TestTopUrl:
    def test_fetch_status_and_cli_render(self, tmp_path, capsys):
        from repro.cli import main

        holder = {}
        ready = threading.Event()
        stop = threading.Event()

        def serve():
            async def run():
                server = ReproServer(
                    ServeConfig(state_dir=str(tmp_path))
                )
                await server.start()
                holder["port"] = server.port
                ready.set()
                while not stop.is_set():
                    await asyncio.sleep(0.02)
                server.request_shutdown()
                await server.shutdown()

            asyncio.run(run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(30.0)
        try:
            url = f"127.0.0.1:{holder['port']}"
            doc = fetch_status(url)
            assert doc["schema"] == "repro.serve.status/1"
            rc = main(["top", "--url", url])
            assert rc == 0
            out = capsys.readouterr().out
            assert "repro-serve" in out
            assert "serving" in out
        finally:
            stop.set()
            thread.join(timeout=30.0)

    def test_top_requires_some_target(self, capsys):
        from repro.cli import main

        assert main(["top"]) == 2
        assert "campaign directories" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Final status exports on shutdown
# ----------------------------------------------------------------------
class TestStateFlush:
    def test_shutdown_writes_status_and_metrics(self, tmp_path):
        async def body(server, client):
            await client.sweep(sweep_doc((1,), tenant="flush"))
            return server

        server = run_async(_with_server(body, state_dir=str(tmp_path)))
        assert sorted(os.listdir(tmp_path)) == ["campaigns", "status.json"]
        status = json.loads((tmp_path / "status.json").read_text())
        assert status["state"] == "stopped"
        assert status["points_done"] >= 1
        assert status["metrics"] == server.registry.snapshot()
        assert status["metrics"]["counters"]["serve.computed"] == 1
