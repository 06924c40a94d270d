"""Fleet tier (ISSUE 10): TCP worker agents, the remote-pool backend,
and the multi-node coordinator.

Byte-identity is the contract everywhere: the same request measured
inline, through a loopback remote pool, through a 2-node coordinator,
after a chaos kill, or served from a peer node's shared-layout warm hit
must produce the same curves, byte for byte.  Failure modes must be
*classified*, never hangs: a dead agent is a retryable ``WorkerCrashed``,
a hung agent a ``WorkerTimeout``, a dead fleet node a ``node_lost``
splice + reroute (or a loud 502 when nothing is left).
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.api import (AnalysisRequest, AnalysisServer, ExecutionOptions,
                       Fault, FaultPlan, ModelRef, RemoteError,
                       RemoteService, ResilienceService, ResultStore,
                       RetryPolicy, make_backend)
from repro.api.cluster import (ClusterCoordinator, CoordinatorServer,
                               NodeUnreachable, RemotePoolBackend,
                               WorkerAgent, parse_worker_address)
from repro.api.resilience import ShardPoisoned

pytestmark = pytest.mark.fleet

#: Retry spacing tight enough for tests; semantics identical to default.
FAST = RetryPolicy(base_delay=0.05, multiplier=2.0, max_delay=0.2)

#: A loopback port with nothing listening (discard/TCPMUX; never bound
#: in the test environment).
DEAD_ADDRESS = "127.0.0.1:1"


def _zoo_request(**overrides) -> AnalysisRequest:
    base = dict(model=ModelRef(benchmark="CapsNet/MNIST"),
                targets=(("softmax", None), ("mac_outputs", None)),
                nm_values=(0.5, 0.0), eval_samples=32,
                options=ExecutionOptions(batch_size=32))
    base.update(overrides)
    return AnalysisRequest(**base)


def _accuracies(result) -> dict:
    return {key: [point.accuracy for point in curve.points]
            for key, curve in result.curves.items()}


@pytest.fixture()
def agents():
    """Two live in-process worker agents, closed at teardown."""
    started = [WorkerAgent().start(), WorkerAgent().start()]
    yield started
    for agent in started:
        agent.close()


@pytest.fixture()
def service(tmp_path):
    built = []

    def build(**kwargs):
        kwargs.setdefault("cache_dir", str(tmp_path / "store"))
        instance = ResilienceService(**kwargs)
        built.append(instance)
        return instance

    yield build
    for instance in built:
        instance.close()


# ========================================================= worker protocol
#: The two transports of the one worker loop (``serve_frames``): a
#: ``--pool-worker`` child's stdin/stdout, and a TCP agent connection.
TRANSPORTS = ("pipe", "tcp")


@contextlib.contextmanager
def _worker_stream(transport, agents):
    """``(readline, write_line)`` on a fresh connection to a worker over
    ``transport``, before its greeting is read."""
    if transport == "pipe":
        from repro.api.backends import _PipeTransport
        channel = _PipeTransport.open()
        try:
            yield channel.reader.readline, \
                lambda text: _write_line(channel.writer, text)
        finally:
            channel.close()
        return
    with socket.create_connection(
            parse_worker_address(agents[0].address), timeout=5) as sock:
        stream = sock.makefile("rw", encoding="utf-8")
        yield stream.readline, lambda text: _write_line(stream, text)


def _write_line(stream, text: str) -> None:
    stream.write(text + "\n")
    stream.flush()


def _answer(readline) -> dict:
    """The next non-heartbeat frame."""
    for _ in range(100):
        envelope = json.loads(readline())
        if "hb" not in envelope:
            return envelope
    raise AssertionError("only heartbeats, no answer")


class TestWorkerProtocol:
    """The framed worker protocol, on both transports (each test runs
    the pipe worker and a TCP agent in turn)."""

    def test_parse_worker_address(self):
        assert parse_worker_address("127.0.0.1:9035") == ("127.0.0.1", 9035)
        assert parse_worker_address(("h", "7")) == ("h", 7)
        for bad in ("nocolon", ":9", "host:", "host:nan"):
            with pytest.raises(ValueError, match="not HOST:PORT"):
                parse_worker_address(bad)

    def test_connection_opens_with_hello_greeting(self, agents):
        from repro.api import SCHEMA_VERSION
        for transport in TRANSPORTS:
            with _worker_stream(transport, agents) as (readline, _):
                hello = json.loads(readline())["hello"]
                assert hello["schema"] == SCHEMA_VERSION, transport
                assert hello["pid"] > 0, transport

    def test_undecodable_frame_answers_error_envelope(self, agents):
        for transport in TRANSPORTS:
            with _worker_stream(transport, agents) as (readline, write):
                readline()                          # the hello frame
                write("{torn garbage")
                envelope = json.loads(readline())
                assert "undecodable frame" in envelope["error"], transport
                # The channel survives a bad frame — a second one
                # answers too (the worker never wedges or dies on
                # garbage input).
                write("[1, 2]")
                assert "non-object" in json.loads(readline())["error"], \
                    transport

    def test_non_object_chaos_rider_answers_error_envelope(self, agents):
        """A chaos rider that is not an object is a malformed frame, not
        a worker crash (which the client would retry)."""
        rider = json.dumps({"request": _zoo_request().to_payload(),
                            "chaos": 5})
        for transport in TRANSPORTS:
            with _worker_stream(transport, agents) as (readline, write):
                readline()
                write(rider)
                envelope = json.loads(readline())
                assert "non-object" in envelope["error"], transport
                write("[]")                         # still serving
                assert "error" in json.loads(readline()), transport

    def test_bad_request_payload_is_error_envelope_not_death(self, agents):
        for transport in TRANSPORTS:
            with _worker_stream(transport, agents) as (readline, write):
                readline()
                write(json.dumps({"schema": -1}))
                assert "error" in _answer(readline), transport


# ========================================================== remote pool
class TestRemotePool:
    def test_backend_registry_validation(self, agents):
        with pytest.raises(ValueError, match="at least one worker"):
            make_backend("remote-pool")
        with pytest.raises(ValueError, match="only applies to the "
                                             "remote-pool"):
            make_backend("threads", workers=[agents[0].address])
        with pytest.raises(ValueError, match="not HOST:PORT"):
            RemotePoolBackend(["nonsense"])
        backend = make_backend("remote-pool", workers=[agents[0].address])
        try:
            assert backend.name == "remote-pool"
        finally:
            backend.close()

    def test_cold_run_matches_inline_and_warms_from_store(self, service,
                                                          agents):
        golden = service(cache_dir=None, use_store=False).run(
            _zoo_request(seed=21))
        svc = service(backend="remote-pool",
                      workers=[agent.address for agent in agents])
        cold = svc.run(_zoo_request(seed=21))
        warm = svc.run(_zoo_request(seed=21))
        assert not cold.from_cache
        assert warm.from_cache
        assert _accuracies(cold) == _accuracies(golden)
        assert _accuracies(warm) == _accuracies(golden)

    def test_unreachable_worker_fails_over_to_live_peer(self, service,
                                                        agents):
        """A dead address in the worker set costs one failed dial, not
        the run: the borrow walks round-robin to the live agent and the
        dead peer shows up flagged in the pool snapshot."""
        svc = service(cache_dir=None, use_store=False,
                      backend="remote-pool", retry_policy=FAST,
                      workers=[DEAD_ADDRESS, agents[0].address])
        result = svc.run(_zoo_request(seed=22))
        assert result.baseline_accuracy > 0
        flags = {worker["address"]: worker["dead"]
                 for worker in svc.backend.pool_snapshot()["workers"]}
        assert flags[DEAD_ADDRESS] is True
        assert flags[agents[0].address] is False

    def test_fully_unreachable_fleet_poisons_not_hangs(self, service):
        """Nothing listening anywhere: every attempt fails fast with the
        retryable WorkerCrashed until the shard poisons — a classified
        error in bounded time, never a hang."""
        svc = service(cache_dir=None, use_store=False,
                      backend="remote-pool", retry_policy=FAST,
                      workers=[DEAD_ADDRESS])
        started = time.monotonic()
        with pytest.raises(ShardPoisoned, match="WorkerCrashed"):
            svc.run(_zoo_request(
                seed=23, targets=(("softmax", None),),
                options=ExecutionOptions(batch_size=32, max_retries=1)))
        assert time.monotonic() - started < 60

    def test_non_worker_peer_is_classified(self, service):
        """Dialing a live TCP endpoint that is not a worker agent (here:
        an HTTP server, which stays silent until it gets a request)
        fails the greeting loudly instead of wedging on a half-open
        protocol.  Each attempt waits out the connect timeout on the
        greeting, so a short one keeps the classification prompt."""
        node_service = ResilienceService(use_store=False)
        server = AnalysisServer(node_service).start()
        try:
            host_port = server.address[len("http://"):]
            svc = service(cache_dir=None, use_store=False,
                          backend=RemotePoolBackend([host_port],
                                                    connect_timeout=0.5),
                          retry_policy=FAST)
            started = time.monotonic()
            with pytest.raises(ShardPoisoned, match="WorkerCrashed"):
                svc.run(_zoo_request(
                    seed=24, targets=(("softmax", None),),
                    options=ExecutionOptions(batch_size=32,
                                             max_retries=1)))
            assert time.monotonic() - started < 5
        finally:
            server.shutdown()
            node_service.close()

    def test_socket_severed_mid_request_is_retryable(self, agents):
        """Satellite: the wire dying mid-frame surfaces as the retryable
        WorkerCrashed (the dispatch path's taxonomy), not a hang or a
        torn result."""
        from repro.api import WorkerCrashed
        from repro.api.backends import _TcpTransport
        victim = WorkerAgent().start()
        channel = _TcpTransport((parse_worker_address(victim.address),),
                                connect_timeout=5.0,
                                dead_cooldown=5.0).open()
        try:
            killer = threading.Timer(0.3, victim.die)
            killer.start()
            with pytest.raises(WorkerCrashed):
                # The hang rider pins the agent mid-request (no answer,
                # no heartbeat) until the kill severs the socket under
                # the blocked reader.
                channel.measure(_zoo_request(seed=25),
                                chaos={"kind": "hang"})
            killer.join()
        finally:
            channel.close()
            victim.close()


# ==================================================== remote-pool chaos
@pytest.mark.chaos
class TestRemotePoolChaos:
    def test_agent_killed_mid_shard_recovers_byte_identical(
            self, service, agents, tmp_path, caplog):
        """ISSUE 10 acceptance: a scripted crash-after kills one TCP
        agent mid-shard; the shard retries on the surviving agent and
        the merged result (and the store) are byte-identical to a
        fault-free inline run — with no orphaned store scratch."""
        import logging
        import os
        golden = service(cache_dir=None, use_store=False).run(
            _zoo_request(seed=26))
        svc = service(cache_dir=str(tmp_path / "chaos-store"),
                      backend="chaos:remote-pool", retry_policy=FAST,
                      workers=[agent.address for agent in agents],
                      fault_plan=FaultPlan(faults=(
                          Fault(kind="crash-after", shard=0, attempt=0),)))
        with caplog.at_level(logging.WARNING, logger="repro.api.cluster"):
            result = svc.run(_zoo_request(seed=26))
        assert _accuracies(result) == _accuracies(golden)
        assert svc.backend.injected == 1
        assert svc.backend.worker_restarts >= 1
        lost = [record.getMessage() for record in caplog.records
                if "remote worker lost" in record.getMessage()]
        assert lost and "worker_restarts=" in lost[-1]
        # No torn store write: every entry is complete, no orphans.
        assert not [name for name in os.listdir(svc.store.root)
                    if name.endswith(".tmp")]
        for key in svc.store.keys():
            assert svc.store.get(key) is not None
        # And the store-warm replay still matches.
        assert _accuracies(svc.run(_zoo_request(seed=26))) \
            == _accuracies(golden)

    def test_hung_agent_tripped_by_shard_timeout(self, service, agents):
        """A hang fault stops heartbeats without closing the socket; the
        supervision watchdog severs the channel at the deadline and the
        shard recovers elsewhere as a WorkerTimeout retry."""
        svc = service(cache_dir=None, use_store=False,
                      backend="chaos:remote-pool", retry_policy=FAST,
                      workers=[agent.address for agent in agents],
                      fault_plan=FaultPlan.hang_every_shard(times=1))
        handle = svc.submit(_zoo_request(
            seed=27, targets=(("softmax", None),),
            options=ExecutionOptions(batch_size=32, shard_timeout=2.0)))
        result = handle.result(timeout=180)
        assert result.baseline_accuracy > 0
        retries = [event for event in handle.events()
                   if event.kind == "shard_retry"]
        assert len(retries) == 1
        assert "WorkerTimeout" in retries[0].payload["error"]


# =========================================================== coordinator
@pytest.fixture()
def cluster(tmp_path):
    """Two serve nodes over one shared-layout store root, fronted by a
    coordinator: (client, coordinator, node servers, shared root)."""
    root = str(tmp_path / "fleet-store")
    services, servers = [], []
    for _ in range(2):
        svc = ResilienceService(
            store=ResultStore(root, layout="shared"),
            backend="threads", max_parallel=2)
        services.append(svc)
        servers.append(AnalysisServer(svc).start())
    coordinator = ClusterCoordinator(
        [server.address for server in servers], probe_timeout=2.0)
    front = CoordinatorServer(coordinator).start()
    client = RemoteService(front.address, busy_retries=0)
    yield client, coordinator, servers, root
    front.shutdown()
    for server in servers:
        server.shutdown()
    for svc in services:
        svc.close()


class TestCoordinator:
    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterCoordinator([])

    def test_cold_and_warm_runs_byte_identical_through_fleet(
            self, cluster, tmp_path):
        client, coordinator, _, _ = cluster
        reference = ResilienceService(use_store=False)
        try:
            golden = reference.run(_zoo_request(seed=31))
        finally:
            reference.close()
        handle = client.submit(_zoo_request(seed=31))
        cold = handle.result(timeout=120)
        assert not cold.from_cache
        assert _accuracies(cold) == _accuracies(golden)
        kinds = [event.kind for event in handle.events()]
        assert kinds[-1] == "done"
        assert "shard_done" in kinds
        # Warm replay through the same fleet is a cross-wire store hit.
        warm = client.run(_zoo_request(seed=31))
        assert warm.from_cache
        assert _accuracies(warm) == _accuracies(golden)
        # The coordinator recorded an owner for the job.
        assert coordinator.locate(handle.key).node in coordinator.nodes

    def test_health_aggregates_per_node(self, cluster):
        client, _, servers, _ = cluster
        health = client.health()
        assert health["ok"] is True
        assert health["coordinator"] is True
        assert health["live"] == 2
        assert set(health["nodes"]) == {server.address
                                        for server in servers}
        for node_health in health["nodes"].values():
            assert node_health["draining"] is False
        servers[0].shutdown()
        degraded = client.health()
        assert degraded["ok"] is True               # one node still lives
        assert degraded["live"] == 1
        assert degraded["nodes"][servers[0].address]["ok"] is False

    def test_any_node_answers_a_job_it_never_routed(self, cluster):
        """Job ids are content-addressed store keys: a coordinator that
        never saw the submission locates it by probing nodes, and a
        store hit produced via node A serves through node B."""
        client, _, servers, root = cluster
        handle = client.submit(_zoo_request(seed=32))
        result = handle.result(timeout=120)
        # A *fresh* coordinator (empty routing table) over the same
        # nodes answers the existing job id by store lookup.
        fresh = ClusterCoordinator([server.address for server in servers],
                                   probe_timeout=2.0)
        record = fresh.locate(handle.key)
        assert record.node in fresh.nodes
        status, _, body = fresh.proxy_job(handle.key,
                                          f"/v1/result/{handle.key}")
        assert status == 200
        from repro.api import AnalysisResult
        served = AnalysisResult.from_payload(json.loads(body))
        assert _accuracies(served) == _accuracies(result)
        # Both nodes — the owner *and* its peer — serve the same bytes
        # straight from the shared layout, no recompute.
        for server in servers:
            peer = RemoteService(server.address)
            warm = peer.run(_zoo_request(seed=32))
            assert warm.from_cache
            assert _accuracies(warm) == _accuracies(result)

    def test_node_lost_mid_job_reroutes_and_stays_byte_identical(
            self, cluster):
        """ISSUE 10 acceptance: the owner dies mid-job; the event stream
        splices a ``node_lost`` event, the coordinator resubmits to the
        surviving node under the same job id, and the final curves are
        byte-identical to an undisturbed run."""
        client, coordinator, servers, _ = cluster
        reference = ResilienceService(use_store=False)
        try:
            golden = reference.run(_zoo_request(seed=33))
        finally:
            reference.close()
        handle = client.submit(_zoo_request(seed=33))
        owner = coordinator.locate(handle.key).node
        [dead] = [server for server in servers
                  if server.address == owner]
        [survivor] = [server for server in servers
                      if server.address != owner]
        dead.shutdown()                 # the node dies mid-job
        kinds = [event.kind for event in handle.events()]
        assert "node_lost" in kinds
        assert kinds[-1] == "done"
        assert coordinator.locate(handle.key).node == survivor.address
        result = handle.result(timeout=120)
        assert _accuracies(result) == _accuracies(golden)

    def test_node_lost_event_payload_names_the_node(self, cluster):
        client, coordinator, servers, _ = cluster
        handle = client.submit(_zoo_request(seed=34))
        owner = coordinator.locate(handle.key).node
        [dead] = [server for server in servers
                  if server.address == owner]
        dead.shutdown()
        lost = [event for event in handle.events()
                if event.kind == "node_lost"]
        assert len(lost) == 1
        assert lost[0].payload["node"] == owner
        assert lost[0].payload["resubmitted"] is True
        handle.result(timeout=120)

    def test_drain_aware_routing(self, cluster):
        """A draining node is walked past; a fully-draining fleet is a
        loud 502, not a hang or a silent local fallback."""
        client, coordinator, servers, _ = cluster
        servers[0].begin_drain()
        handle = client.submit(_zoo_request(seed=35))
        assert coordinator.locate(handle.key).node == servers[1].address
        handle.result(timeout=120)
        servers[1].begin_drain()
        with pytest.raises(RemoteError, match="502"):
            client.submit(_zoo_request(seed=36))

    def test_unknown_job_is_404_and_unknown_endpoint_is_404(self, cluster):
        import urllib.error
        import urllib.request
        client, _, _, _ = cluster
        for path in ("/v1/status/no-such-job", "/v1/nonsense"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(client.url + path, timeout=10)
            assert excinfo.value.code == 404

    def test_session_refs_rejected_with_400(self, cluster):
        client, _, _, _ = cluster
        with pytest.raises(RemoteError, match="400"):
            client.submit(_zoo_request(
                seed=37, model=ModelRef(session="in-memory")))

    def test_cancel_proxies_to_owner(self, cluster):
        client, _, _, _ = cluster
        handle = client.submit(_zoo_request(seed=38))
        handle.cancel()
        # Cancellation is cooperative (the sweep parks at the next
        # checkpoint) — what the proxy guarantees is that the verb
        # reaches the owner and the job reaches *a* terminal state.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = handle.status()
            if status in ("cancelled", "done", "cached", "error"):
                break
            time.sleep(0.1)
        assert status in ("cancelled", "done", "cached")


# ========================================================== slim events
class TestSlimEventStream:
    """Satellite: ``embed_partial=False`` replaces each shard_done's
    embedded merged-so-far payload with a ``partial_superseded_by``
    pointer — locally, over a node's HTTP stream, and through the
    coordinator."""

    def _assert_slim(self, events):
        shard_done = [event for event in events
                      if event.kind == "shard_done"]
        assert shard_done, "expected a sharded run"
        for event in shard_done:
            assert "partial" not in event.payload
            assert event.payload["partial_superseded_by"] >= 1
        return shard_done

    def test_local_handle_slim_stream(self, service):
        svc = service(cache_dir=None, use_store=False, backend="threads",
                      max_parallel=2)
        handle = svc.submit(_zoo_request(seed=41))
        handle.result(timeout=120)
        self._assert_slim(handle.events(embed_partial=False))
        # The default stream still embeds (compaction aside: the newest
        # shard_done carries the full merged payload).
        embedded = [event for event in handle.events()
                    if event.kind == "shard_done"]
        assert "partial" in embedded[-1].payload

    def test_http_slim_stream(self, service):
        svc = service(cache_dir=None, use_store=False, backend="threads",
                      max_parallel=2)
        server = AnalysisServer(svc).start()
        try:
            client = RemoteService(server.address)
            handle = client.submit(_zoo_request(seed=42))
            handle.result(timeout=120)
            self._assert_slim(handle.events(embed_partial=False))
            embedded = [event for event in handle.events()
                        if event.kind == "shard_done"]
            assert "partial" in embedded[-1].payload
        finally:
            server.shutdown()

    def test_coordinator_slim_stream(self, cluster):
        client, _, _, _ = cluster
        handle = client.submit(_zoo_request(seed=43))
        handle.result(timeout=120)
        self._assert_slim(handle.events(embed_partial=False))


# ====================================================== fig9 golden armor
class TestFig9GoldenArmor:
    """ISSUE 10 acceptance: the fig9 ``--quick`` artifact is
    byte-identical through every fleet path — the remote pool (cold,
    warm, and with an agent chaos-killed mid-shard) and the 2-node
    coordinator (cold and warm)."""

    @pytest.fixture()
    def golden_text(self, tmp_path):
        from repro.experiments import fig9
        from repro.experiments.common import ExperimentScale
        local = ResilienceService(cache_dir=str(tmp_path / "golden"))
        try:
            return fig9.run(scale=ExperimentScale.quick(),
                            service=local).format_text()
        finally:
            local.close()

    def test_fig9_quick_through_remote_pool_cold_warm_and_chaos(
            self, service, agents, golden_text):
        from repro.experiments import fig9
        from repro.experiments.common import ExperimentScale
        quick = ExperimentScale.quick()
        workers = [agent.address for agent in agents]
        pool = service(backend="remote-pool", workers=workers)
        cold = fig9.run(scale=quick, service=pool)
        warm = fig9.run(scale=quick, service=pool)
        assert cold.format_text() == golden_text
        assert warm.format_text() == golden_text
        assert pool.stats.store_hits == 1
        # Chaos: one agent dies mid-shard; the retried shard lands on
        # the survivor and the artifact still renders byte-identically.
        chaos = service(cache_dir=None, use_store=False,
                        backend="chaos:remote-pool", retry_policy=FAST,
                        workers=workers,
                        fault_plan=FaultPlan(faults=(
                            Fault(kind="crash-after", shard=0,
                                  attempt=0),)))
        killed = fig9.run(scale=quick, service=chaos)
        assert killed.format_text() == golden_text
        assert chaos.backend.injected == 1
        assert chaos.backend.worker_restarts >= 1

    def test_fig9_quick_through_coordinator_cold_and_warm(self, cluster,
                                                          golden_text):
        from repro.experiments import fig9
        from repro.experiments.common import ExperimentScale
        client, _, _, _ = cluster
        quick = ExperimentScale.quick()
        cold = fig9.run(scale=quick, service=client)
        warm = fig9.run(scale=quick, service=client)
        assert cold.format_text() == golden_text
        assert warm.format_text() == golden_text


# ================================================================== CLI
class TestFleetCli:
    def test_worker_flag_requires_remote_pool_backend(self, capsys):
        from repro.cli import main
        assert main(["run", "fig9", "--quick",
                     "--worker", "127.0.0.1:9"]) == 2
        assert "remote-pool" in capsys.readouterr().err

    def test_remote_pool_backend_requires_worker_flag(self, capsys):
        from repro.cli import main
        assert main(["run", "fig9", "--quick",
                     "--backend", "remote-pool"]) == 2
        assert "--worker" in capsys.readouterr().err
        assert main(["serve", "--backend", "remote-pool"]) == 2
        assert "--worker" in capsys.readouterr().err

    def test_fleet_flags_conflict_with_remote(self, capsys):
        from repro.cli import main
        assert main(["run", "fig9", "--quick",
                     "--remote", "http://127.0.0.1:1",
                     "--store-layout", "shared"]) == 2
        assert "--store-layout" in capsys.readouterr().err

    def test_worker_flag_is_a_sweep_flag(self, capsys):
        from repro.cli import main
        assert main(["run", "table1", "--backend", "remote-pool",
                     "--worker", "127.0.0.1:9"]) == 2
        assert "no resilience sweeps" in capsys.readouterr().err

    def test_bad_listen_spec_is_a_loud_error(self, capsys):
        from repro.cli import main
        assert main(["worker", "--listen", "nonsense"]) == 2
        assert "not HOST:PORT" in capsys.readouterr().err

    def test_coordinate_requires_nodes(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["coordinate"])
        assert "--node" in capsys.readouterr().err

    def test_worker_cli_serves_and_chaos_crash_hard_exits(self, tmp_path):
        """The real CLI agent: spawn ``repro worker --listen`` as a
        subprocess, complete the hello handshake, then fire a scripted
        crash-before fault and observe the whole process die (the
        ``hard_exit`` path that in-process test agents only simulate)."""
        import os
        import subprocess
        import sys
        src_root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src_root,
                   REPRO_RESULT_DIR=str(tmp_path))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            banner = process.stdout.readline()
            assert "worker listening on " in banner
            address = banner.split("worker listening on ")[1].split()[0]
            with socket.create_connection(parse_worker_address(address),
                                          timeout=10) as sock:
                stream = sock.makefile("rw", encoding="utf-8")
                assert "hello" in json.loads(stream.readline())
                stream.write(json.dumps(
                    {"request": {}, "chaos": {"kind": "crash-before"}})
                    + "\n")
                stream.flush()
            assert process.wait(timeout=30) == 17
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)
