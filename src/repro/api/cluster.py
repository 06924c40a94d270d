"""Fleet tier: TCP worker agents, a remote shard pool, and a multi-node
coordinator.

Three layers, each riding a seam the stack already has:

**Worker agents** (``repro worker --listen HOST:PORT``).
    :class:`WorkerAgent` runs the procpool's worker loop,
    :func:`repro.api.backends.serve_frames`, on every TCP connection —
    hello, heartbeats, envelopes and the scripted-chaos rider, so the
    fault-injection harness drives remote workers exactly like local
    ones.  One store-less :class:`~repro.api.service.ResilienceService`
    lives for the agent's whole life, so shards of the same model reuse
    its warm engine cache across connections.

**The remote pool** (``make_backend("remote-pool", workers=[...])``).
    :class:`~repro.api.backends.RemotePoolBackend` (re-exported here) is
    the procpool's pool over a TCP transport: pooled channels, dialed
    round-robin, supervised, and a lost agent sits out a cooldown while
    the retry reconnects elsewhere.

**The coordinator** (``repro coordinate --node URL ...``).
    :class:`ClusterCoordinator` + :class:`CoordinatorServer` federate
    several ``repro serve`` nodes behind the node API itself — a
    :class:`~repro.api.server.RemoteService` cannot tell a coordinator
    from a node.  Submissions route by consistent-hashing the request
    fingerprint over the node ring (drain-aware: 503ing or unreachable
    nodes are walked past); job ids are content-addressed store keys, so
    any node can answer any job id (by store lookup) and losing a node
    mid-job is survivable — the coordinator resubmits the recorded
    request to the next ring node, which recomputes the missing shards
    (or serves them straight from a shared store layout) under the *same*
    job id, and the proxied event stream carries a ``node_lost`` event at
    the splice point.

Byte-identity is the contract throughout: a curve measured through a
remote pool, through a coordinator, after a chaos kill, or served from a
peer node's shared-layout warm hit is the same curve, byte for byte.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import logging
import os
import socketserver
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from http.server import ThreadingHTTPServer

from .backends import (RemotePoolBackend, _shutdown, parse_worker_address,
                       serve_frames)
from .events import TERMINAL_EVENTS, AnalysisEvent
from .request import SCHEMA_VERSION, AnalysisRequest
from .server import WAIT_SLICE_SECONDS, RemoteError, _JsonHandler, _Serving
from .service import ResilienceService

__all__ = ["WorkerAgent", "RemotePoolBackend", "ClusterCoordinator",
           "CoordinatorServer", "NodeUnreachable", "parse_worker_address"]

logger = logging.getLogger("repro.api.cluster")


# ------------------------------------------------------------- worker agent
class _AgentServer(socketserver.ThreadingTCPServer):
    """One thread per worker connection; never joined on close.

    ``block_on_close = False`` because a scripted ``hang`` chaos fault
    leaves its (daemon) handler thread asleep for an hour — exactly the
    wedged-worker condition the client watchdog exists for — and
    ``server_close`` must not wait for it.
    """

    daemon_threads = True
    allow_reuse_address = True
    block_on_close = False

    def __init__(self, address: tuple[str, int], agent: "WorkerAgent"):
        self.agent = agent
        super().__init__(address, _AgentHandler)


class WorkerAgent(_Serving):
    """A TCP measurement worker (``repro worker --listen HOST:PORT``).

    Serves the framed procpool worker protocol to any number of
    concurrent connections (see module docstring).  ``port=0`` binds a
    free port — read :attr:`address` after construction.

    ``hard_exit`` selects how a scripted chaos crash dies: the real CLI
    agent uses ``os._exit`` (the whole process is the worker), while
    in-process test agents instead sever every connection and stop
    accepting — indistinguishable from process death on the wire.
    """

    _scheme = ""
    _thread_name = "repro-worker-agent"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 hard_exit: bool = False):
        self.hard_exit = hard_exit
        self.service = ResilienceService(use_store=False)
        self._conn_lock = threading.Lock()
        self._conns: set = set()
        self._serve(_AgentServer((host, port), self))

    # ------------------------------------------------------------- lifecycle
    def _track(self, connection) -> None:
        with self._conn_lock:
            self._conns.add(connection)

    def _untrack(self, connection) -> None:
        with self._conn_lock:
            self._conns.discard(connection)

    def die(self) -> None:
        """Simulate process death in-process: sever every live
        connection mid-frame and stop accepting (reconnects are refused).
        The wire picture is identical to a SIGKILLed agent."""
        with self._conn_lock:
            conns = list(self._conns)
        for connection in conns:
            _shutdown(connection)
        self._server.shutdown()
        self._server.server_close()

    def _crash(self) -> None:
        """A scripted chaos crash fault fired on this agent."""
        if self.hard_exit:
            os._exit(17)
        self.die()

    def close(self) -> None:
        """Stop serving and release the agent's service (idempotent)."""
        if not self._closed:
            self.shutdown()
            self.service.close()


class _AgentHandler(socketserver.StreamRequestHandler):
    """One worker connection: :func:`~repro.api.backends.serve_frames`
    over the socket, dying by the agent's :meth:`WorkerAgent._crash`."""

    def handle(self) -> None:  # noqa: D102 — socketserver API
        agent = self.server.agent
        agent._track(self.connection)
        try:
            serve_frames((raw.decode(errors="replace") for raw in self.rfile),
                         lambda text: self.wfile.write(text.encode()),
                         agent.service, crash=agent._crash)
        finally:
            agent._untrack(self.connection)


# ------------------------------------------------------------- coordinator
class NodeUnreachable(RemoteError):
    """A fleet node did not answer (refused, reset, or timed out)."""


@dataclass
class _JobRecord:
    """What the coordinator remembers about one routed job."""

    node: str
    payload: bytes | None = None
    priority: int = 0
    client_id: str | None = None


class ClusterCoordinator:
    """Federate several ``repro serve`` nodes behind one node-shaped API.

    Routing: each node contributes ``ring_points`` virtual points on a
    consistent-hash ring; a submission walks the ring from its request
    fingerprint, skipping draining (503) and unreachable nodes, and the
    first node to accept owns the job.  Because job ids are
    content-addressed store keys, ownership is a *routing hint*, not a
    correctness requirement — any node answers any job id by store
    lookup, and :meth:`_reroute` resubmits a lost node's recorded
    request elsewhere under the very same job id.

    **Lock ordering**: ``_lock`` is a leaf guarding ``_jobs``/``_down``;
    no node I/O ever happens while holding it.
    """

    def __init__(self, nodes, *, probe_timeout: float = 5.0,
                 request_timeout: float = 600.0,
                 down_cooldown: float = 10.0, ring_points: int = 64):
        self.nodes = tuple(str(node).rstrip("/") for node in nodes)
        if not self.nodes:
            raise ValueError("the coordinator needs at least one node "
                             "URL (repro coordinate --node http://...)")
        self.probe_timeout = float(probe_timeout)
        self.request_timeout = float(request_timeout)
        self.down_cooldown = float(down_cooldown)
        self._ring = sorted(
            (self._point(f"{url}#{index}"), url)
            for url in self.nodes for index in range(ring_points))
        self._jobs: dict[str, _JobRecord] = {}
        self._down: dict[str, float] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------ transport
    def _node_request(self, url: str, path: str, *,
                      data: bytes | None = None,
                      headers: dict | None = None,
                      timeout: float | None = None):
        """One proxied round trip → ``(status, headers, body)``.

        HTTP error statuses pass through (the node's 4xx/5xx answer *is*
        the answer); only transport failure raises
        :class:`NodeUnreachable`.
        """
        request = urllib.request.Request(url + path, data=data,
                                         headers=headers or {})
        try:
            with urllib.request.urlopen(
                    request, timeout=timeout or self.probe_timeout) \
                    as response:
                return response.status, response.headers, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.headers, exc.read()
        except (urllib.error.URLError, OSError) as exc:
            reason = getattr(exc, "reason", exc)
            raise NodeUnreachable(
                f"fleet node {url} is unreachable: {reason}") from None

    # -------------------------------------------------------------- routing
    @staticmethod
    def _point(label: str) -> int:
        return int(hashlib.sha256(label.encode()).hexdigest()[:16], 16)

    def _ring_order(self, key: str) -> list[str]:
        """Node URLs in ring preference order for ``key``."""
        index = bisect.bisect(self._ring, (self._point(key), ""))
        seen: set[str] = set()
        order: list[str] = []
        for offset in range(len(self._ring)):
            _, url = self._ring[(index + offset) % len(self._ring)]
            if url not in seen:
                seen.add(url)
                order.append(url)
        return order

    def _route(self, key: str) -> list[str]:
        """Ring order, with recently-lost nodes demoted to the end."""
        order = self._ring_order(key)
        now = time.monotonic()
        with self._lock:
            down = {url for url, lost in self._down.items()
                    if now - lost < self.down_cooldown}
        return ([url for url in order if url not in down]
                + [url for url in order if url in down])

    def _note_down(self, url: str) -> None:
        with self._lock:
            self._down[url] = time.monotonic()

    def _note_up(self, url: str) -> None:
        with self._lock:
            self._down.pop(url, None)

    # --------------------------------------------------------------- verbs
    def submit(self, body: bytes, *, priority: int = 0,
               client_id: str | None = None):
        """Route one submission; returns ``(status, headers, body)``."""
        payload = json.loads(body.decode() or "{}")
        request = AnalysisRequest.from_payload(payload)
        if request.model.session is not None:
            raise ValueError(
                f"session ref {request.model.key!r} cannot be served "
                f"remotely: in-memory models do not cross the wire (use "
                f"benchmark=/preset= refs)")
        query = f"?priority={int(priority)}" if priority else ""
        headers = {"Content-Type": "application/json"}
        if client_id is not None:
            headers["X-Repro-Client"] = client_id
        failures = []
        for url in self._route(request.fingerprint()):
            try:
                status, node_headers, node_body = self._node_request(
                    url, "/v1/submit" + query, data=body, headers=headers,
                    timeout=self.request_timeout)
            except NodeUnreachable as exc:
                failures.append(str(exc))
                self._note_down(url)
                continue
            if status == 503:
                failures.append(f"fleet node {url} is draining")
                continue
            if status != 200:
                # The node's own verdict (400 bad request, 429 full
                # queue) — deterministic, not routing's to hide.
                return status, node_headers, node_body
            self._note_up(url)
            answer = json.loads(node_body)
            with self._lock:
                self._jobs[answer["job"]] = _JobRecord(
                    node=url, payload=body, priority=int(priority),
                    client_id=client_id)
            answer["node"] = url
            return (200, node_headers,
                    json.dumps(answer, sort_keys=True).encode())
        raise NodeUnreachable(
            "no live fleet node accepted the submission: "
            + "; ".join(failures))

    def locate(self, job: str) -> _JobRecord:
        """The job's owner record; probes every node for jobs this
        coordinator never routed (any node answers any id by store
        lookup).  Raises ``KeyError`` when nowhere knows it."""
        with self._lock:
            record = self._jobs.get(job)
        if record is not None:
            return record
        for url in self._route(job):
            try:
                status, _, _ = self._node_request(
                    url, f"/v1/status/{job}", timeout=self.probe_timeout)
            except NodeUnreachable:
                self._note_down(url)
                continue
            if status == 200:
                with self._lock:
                    return self._jobs.setdefault(job, _JobRecord(node=url))
        raise KeyError(job)

    def _reroute(self, job: str, dead: str) -> str | None:
        """Resubmit a lost node's job elsewhere (same content-addressed
        id); returns the new owner URL or ``None``."""
        self._note_down(dead)
        with self._lock:
            record = self._jobs.get(job)
        if record is None or record.payload is None:
            return None
        query = (f"?priority={record.priority}" if record.priority else "")
        headers = {"Content-Type": "application/json"}
        if record.client_id is not None:
            headers["X-Repro-Client"] = record.client_id
        for url in self._route(job):
            if url == dead:
                continue
            try:
                status, _, body = self._node_request(
                    url, "/v1/submit" + query, data=record.payload,
                    headers=headers, timeout=self.request_timeout)
            except NodeUnreachable:
                self._note_down(url)
                continue
            if status != 200:
                continue
            resubmitted = json.loads(body)["job"]
            with self._lock:
                record.node = url
            logger.warning(
                "fleet node %s lost job %s; resubmitted to %s (same "
                "content-addressed id: %s)", dead, job, url, resubmitted)
            return url
        return None

    def proxy_job(self, job: str, path: str, *, data: bytes | None = None,
                  timeout: float | None = None):
        """Proxy a per-job endpoint to its owner, rerouting around a
        dead node; returns ``(status, headers, body)``."""
        record = self.locate(job)
        for _ in range(len(self.nodes)):
            node = record.node
            try:
                return self._node_request(node, path, data=data,
                                          timeout=timeout
                                          or self.request_timeout)
            except NodeUnreachable:
                if self._reroute(job, node) is None:
                    raise
        raise NodeUnreachable(
            f"no live fleet node can answer job {job!r}")

    def health_payload(self) -> dict:
        """Per-node health aggregation (the coordinator's own
        ``/v1/health`` answer)."""
        nodes: dict[str, dict] = {}
        live = 0
        for url in self.nodes:
            try:
                status, _, body = self._node_request(
                    url, "/v1/health", timeout=self.probe_timeout)
            except NodeUnreachable as exc:
                self._note_down(url)
                nodes[url] = {"ok": False, "error": str(exc)}
                continue
            try:
                payload = json.loads(body)
            except ValueError:
                nodes[url] = {"ok": False,
                              "error": f"malformed health body "
                                       f"(HTTP {status})"}
                continue
            if status == 200:
                live += 1
                self._note_up(url)
            nodes[url] = payload
        return {"ok": live > 0, "coordinator": True,
                "schema": SCHEMA_VERSION, "live": live, "nodes": nodes}

    def inspect(self) -> dict:
        """The first reachable node's store inspection."""
        for url in self._route("inspect"):
            try:
                status, _, body = self._node_request(
                    url, "/v1/inspect", timeout=self.probe_timeout)
            except NodeUnreachable:
                self._note_down(url)
                continue
            if status == 200:
                return json.loads(body)
        raise NodeUnreachable("no live fleet node answered /v1/inspect")

    def stream_events(self, job: str, after: int = 0,
                      embed_partial: bool = True):
        """Yield one ndjson line per event, splicing across node loss.

        Serves at most one upstream silence slice per silent stretch —
        the consumer's own reconnect logic (``after=<last seq>``)
        resumes, exactly as against a single node.  Losing the owner
        mid-stream synthesizes a ``node_lost`` event at the splice
        point, reroutes, and continues from the new owner with
        ``after=0`` (sequence numbers restart; duplicated ``shard_done``
        frames are harmless by the monotonic-merge guarantee).
        """
        record = self.locate(job)
        last_seq = after
        suffix = "" if embed_partial else "&embed_partial=0"
        while True:
            node = record.node
            try:
                request = urllib.request.Request(
                    f"{node}/v1/events/{job}?after={last_seq}{suffix}")
                with urllib.request.urlopen(
                        request,
                        timeout=WAIT_SLICE_SECONDS + 15.0) as response:
                    for raw in response:
                        line = raw.strip()
                        if not line:
                            continue
                        document = json.loads(line)
                        last_seq = int(document.get("seq", last_seq))
                        yield line.decode() + "\n"
                        if document.get("kind") in TERMINAL_EVENTS:
                            return
                return  # silent slice: the consumer reconnects
            except (urllib.error.URLError, OSError,
                    http.client.HTTPException, ValueError) as exc:
                reason = str(getattr(exc, "reason", exc))
                fresh = self._reroute(job, node)
                lost = AnalysisEvent(
                    kind="node_lost", job=job, seq=last_seq + 1,
                    created=time.time(),
                    payload={"node": node, "error": reason,
                             "resubmitted": fresh is not None})
                yield lost.to_json() + "\n"
                if fresh is None:
                    terminal = AnalysisEvent(
                        kind="error", job=job, seq=last_seq + 2,
                        created=time.time(),
                        payload={"error": f"fleet node {node} was lost "
                                          f"and the job could not be "
                                          f"resubmitted: {reason}"})
                    yield terminal.to_json() + "\n"
                    return
                last_seq = 0


class CoordinatorServer(_Serving):
    """Serve one :class:`ClusterCoordinator` over HTTP.

    The surface is the node API itself (same endpoints, same status
    codes, same headers), so :class:`~repro.api.server.RemoteService`
    pointed at a coordinator behaves exactly as against a single node.
    """

    _thread_name = "repro-coordinate"

    def __init__(self, coordinator: ClusterCoordinator, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.coordinator = coordinator
        self._serve(ThreadingHTTPServer(
            (host, port), _make_coordinator_handler(coordinator)))


def _make_coordinator_handler(coordinator: ClusterCoordinator):
    class Handler(_JsonHandler):
        def _forward(self, status: int, headers, body: bytes) -> None:
            """Re-send a node's answer under coordinator framing."""
            content_type = "application/json"
            if headers is not None and headers.get("Content-Type"):
                content_type = headers.get("Content-Type")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name in ("X-Repro-From-Cache", "Retry-After"):
                value = (headers.get(name) if headers is not None
                         else None)
                if value is not None:
                    self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        # ----------------------------------------------------------- routes
        def do_GET(self) -> None:  # noqa: N802 — http.server API
            try:
                path, _, query = self.path.partition("?")
                if path == "/v1/health":
                    self._reply(200, coordinator.health_payload())
                    return
                if path == "/v1/inspect":
                    self._reply(200, coordinator.inspect())
                    return
                if path.startswith("/v1/events/"):
                    self._events_route(path[len("/v1/events/"):], query)
                    return
                for prefix in ("/v1/status/", "/v1/result/",
                               "/v1/partial/"):
                    if path.startswith(prefix):
                        job = path[len(prefix):]
                        suffix = f"?{query}" if query else ""
                        status, headers, body = coordinator.proxy_job(
                            job, path + suffix,
                            timeout=WAIT_SLICE_SECONDS
                            + coordinator.probe_timeout + 15.0)
                        self._forward(status, headers, body)
                        return
                self._error(404, f"unknown endpoint {path!r}")
            except KeyError as exc:
                job = exc.args[0] if exc.args else "?"
                self._error(404, f"unknown job {job!r}")
            except NodeUnreachable as exc:
                self._error(502, str(exc))
            except Exception as exc:  # noqa: BLE001 — must answer the socket
                self._error(500, str(exc))

        def _events_route(self, job: str, query: str) -> None:
            after, embed = self._stream_params(query)
            # Resolve the owner *before* committing to a 200 chunked
            # reply — an unknown job must still answer 404.
            coordinator.locate(job)
            self._stream(coordinator.stream_events(
                job, after=after, embed_partial=embed))

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            try:
                path, _, query = self.path.partition("?")
                if path.startswith("/v1/cancel/"):
                    job = path[len("/v1/cancel/"):]
                    status, headers, body = coordinator.proxy_job(
                        job, "/v1/cancel/" + job, data=b"",
                        timeout=coordinator.probe_timeout + 15.0)
                    self._forward(status, headers, body)
                    return
                if path != "/v1/submit":
                    self._error(404, f"unknown endpoint {self.path!r}")
                    return
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                try:
                    values = urllib.parse.parse_qs(query).get("priority")
                    priority = int(values[-1]) if values else 0
                    client = self.headers.get("X-Repro-Client") or None
                    status, headers, answer = coordinator.submit(
                        body, priority=priority, client_id=client)
                except (ValueError, KeyError, TypeError) as exc:
                    self._error(400, str(exc))
                    return
                self._forward(status, headers, answer)
            except KeyError as exc:
                job = exc.args[0] if exc.args else "?"
                self._error(404, f"unknown job {job!r}")
            except NodeUnreachable as exc:
                self._error(502, str(exc))
            except Exception as exc:  # noqa: BLE001 — must answer the socket
                self._error(500, str(exc))

    return Handler
