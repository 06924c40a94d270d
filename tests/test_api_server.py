"""Remote serving of the analysis API over HTTP (ISSUE 4).

The wire is the versioned request/result JSON schema — nothing bespoke —
so these tests double as schema-compatibility armor: a fig9 ``--quick``
request round-tripped through ``repro serve``'s endpoints must come back
byte-identical to the in-process path.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.api import (AnalysisRequest, AnalysisServer, ModelRef,
                       RemoteError, RemoteHandle, RemoteService,
                       ResilienceService)
from repro.experiments import fig9
from repro.experiments.common import ExperimentScale

QUICK = ExperimentScale.quick()


@pytest.fixture()
def server(tmp_path):
    service = ResilienceService(cache_dir=str(tmp_path))
    instance = AnalysisServer(service).start()
    yield instance
    instance.shutdown()
    service.close()


@pytest.fixture()
def remote(server):
    return RemoteService(server.address)


def _quick_request() -> AnalysisRequest:
    return fig9.request_for("DeepCaps/CIFAR-10", QUICK)


class TestCloseLatency:
    """A close waits out one serving poll, not ``socketserver``'s 0.5 s."""

    @staticmethod
    def _servers(kind: str, *, start: bool = True):
        from repro.api.cluster import (ClusterCoordinator, CoordinatorServer,
                                       WorkerAgent)
        if kind == "analysis":
            service = ResilienceService(use_store=False)
            server, release = AnalysisServer(service), service.close
        elif kind == "coordinator":
            coordinator = ClusterCoordinator(["http://127.0.0.1:9"])
            server, release = CoordinatorServer(coordinator), lambda: None
        else:
            server, release = WorkerAgent(), lambda: None
        return (server.start() if start else server), release

    @pytest.mark.parametrize("kind", ["analysis", "coordinator", "worker"])
    def test_three_consecutive_closes_are_quick(self, kind):
        for _ in range(3):
            server, release = self._servers(kind)
            started = time.perf_counter()
            if kind == "worker":
                server.close()
            else:
                server.shutdown()
            elapsed = time.perf_counter() - started
            release()
            assert elapsed < 0.25, f"{kind} close took {elapsed:.2f}s"
            server.shutdown()                  # idempotent

    @pytest.mark.parametrize("kind", ["analysis", "coordinator", "worker"])
    def test_close_of_a_never_started_server_returns(self, kind):
        """``socketserver``'s ``shutdown`` waits for a serve loop; a
        server that never served must still close (and free its port)."""
        server, release = self._servers(kind, start=False)
        close = server.close if kind == "worker" else server.shutdown
        closer = threading.Thread(target=close, daemon=True)
        closer.start()
        closer.join(timeout=1.0)
        release()
        assert not closer.is_alive(), f"{kind} close blocked"
        assert server._server.socket.fileno() == -1   # socket closed


class TestEndpoints:
    def test_health_reports_schema_and_backend(self, remote):
        health = remote.health()
        assert health["ok"] and health["schema"] == 1
        assert health["backend"] == "inline"

    def test_unknown_job_is_404(self, remote):
        with pytest.raises(RemoteError, match="404"):
            remote._get_json("/v1/status/deadbeef")

    def test_unknown_endpoint_is_404(self, remote):
        with pytest.raises(RemoteError, match="404"):
            remote._get_json("/v1/nope")

    def test_malformed_submission_is_400(self, server):
        body = json.dumps({"schema": 99}).encode()
        request = urllib.request.Request(
            server.address + "/v1/submit", data=body,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "schema" in json.loads(excinfo.value.read())["error"]

    def test_session_refs_rejected_with_400(self, remote):
        request = AnalysisRequest(model=ModelRef(session="local-only"),
                                  targets=(("softmax", None),),
                                  nm_values=(0.5,))
        with pytest.raises(RemoteError, match="session ref"):
            remote.submit(request)

    def test_register_errors_loudly(self, remote):
        with pytest.raises(RemoteError, match="cannot register"):
            remote.register("x", object(), object())

    def test_entry_errors_loudly(self, remote):
        with pytest.raises(RemoteError, match="in-process"):
            remote.entry(ModelRef(benchmark="DeepCaps/CIFAR-10"))


class TestRoundTrip:
    def test_fig9_quick_round_trips_byte_identical(self, tmp_path, remote,
                                                   server):
        """The ISSUE 4 acceptance: a fig9 --quick request served over
        HTTP returns output identical to the in-process path."""
        local_service = ResilienceService(cache_dir=str(tmp_path / "local"))
        local = fig9.run(scale=QUICK, service=local_service)
        via_http = fig9.run(scale=QUICK, service=remote)
        assert via_http.format_text() == local.format_text()
        # The measurement ran server-side, against the server's store.
        assert server.service.stats.executed == 1
        assert local_service.stats.executed == 1

    def test_resubmission_is_idempotent_and_cached(self, remote, server):
        first = remote.submit(_quick_request())
        first.result()
        second = remote.submit(_quick_request())
        assert second.key == first.key  # job ids are store keys
        assert second.status() == "cached"
        assert second.result().from_cache
        assert server.service.stats.store_hits >= 1

    def test_status_and_progress_endpoints(self, remote):
        handle = remote.submit(_quick_request())
        result = handle.result()
        assert handle.done() and handle.status() in ("done", "cached")
        progress = handle.progress
        assert progress["shards_done"] == progress["shards_total"]
        assert result.curves  # full AnalysisResult round-trip

    def test_inspect_lists_served_results(self, remote):
        remote.run(_quick_request())
        inspect = remote.inspect()
        assert inspect["root"]
        assert any(entry["model"] == "benchmark:DeepCaps/CIFAR-10"
                   for entry in inspect["entries"])

    def test_finished_jobs_survive_server_restart(self, tmp_path):
        """Job ids are content-addressed store keys, so a new server over
        the same store can answer result queries for old jobs — straight
        from the stored document, without resubmitting (which would
        force model resolution just to answer a status poll)."""
        service = ResilienceService(cache_dir=str(tmp_path))
        first = AnalysisServer(service).start()
        try:
            handle = RemoteService(first.address).submit(_quick_request())
            job = handle.key
            handle.result()
        finally:
            first.shutdown()
        reborn_service = ResilienceService(cache_dir=str(tmp_path))
        reborn = AnalysisServer(reborn_service).start()
        try:
            client = RemoteService(reborn.address)
            payload = client._get_json(f"/v1/status/{job}")
            assert payload["status"] == "cached"
            assert client._get_json(f"/v1/status/{job}")["shards_total"] == 1
            result = RemoteHandle(client, _quick_request(), job).result(
                timeout=30)
            assert result.from_cache
            # Served from the store document alone: nothing resubmitted,
            # no model resolved.
            assert reborn_service.stats.submitted == 0
            assert reborn_service._resolved == {}
        finally:
            reborn.shutdown()

    def test_finite_result_timeout_raises_timeout_error(self, tmp_path,
                                                        monkeypatch):
        """Review regression: a finite client timeout shorter than the
        server's long-poll slice must surface as TimeoutError (the
        in-process handle contract), not as a bogus 'cannot reach
        analysis server' RemoteError."""
        import time as time_module
        service = ResilienceService(cache_dir=str(tmp_path),
                                    backend="threads", max_parallel=1)
        measure = service._measure

        def slow_measure(request, cancel=None, preempt=None):
            time_module.sleep(4.0)
            return measure(request, cancel=cancel, preempt=preempt)

        monkeypatch.setattr(service, "_measure", slow_measure)
        server = AnalysisServer(service).start()
        try:
            handle = RemoteService(server.address).submit(_quick_request())
            with pytest.raises(TimeoutError, match="still"):
                handle.result(timeout=1.0)
            assert handle.result(timeout=60) is not None  # then completes
        finally:
            server.shutdown()
            service.close()
