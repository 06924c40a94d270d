"""Remote serving: the analysis API over HTTP, schema v1 as the wire.

``repro serve`` starts :class:`AnalysisServer` — a local daemon wrapping
one :class:`~repro.api.service.ResilienceService` — and ``repro run
--remote URL`` (or any program holding a :class:`RemoteService`) submits
:class:`~repro.api.request.AnalysisRequest` documents to it.  The wire
format is exactly the versioned JSON schema of :mod:`repro.api.request`;
nothing bespoke crosses the socket, so any HTTP client can drive the
service.

Endpoints (all JSON)::

    GET  /v1/health           {"ok", "schema", "backend", "stats", "queue"}
    POST /v1/submit[?priority=N]
                              body: AnalysisRequest  ->  {"job", "status"};
                              429 + Retry-After when the queue is full;
                              an X-Repro-Client header names the tenant
                              (stamped into options.client_id when the
                              body does not already carry one)
    GET  /v1/status/<job>     {"job", "status", "shards_*", ...}
    GET  /v1/result/<job>     AnalysisResult (202 + status while pending;
                              ?wait=SECONDS long-polls up to
                              min(SECONDS, WAIT_SLICE_SECONDS);
                              409 when the job was cancelled)
    GET  /v1/partial/<job>    PartialResult — the merged-so-far curves
    GET  /v1/events/<job>[?after=SEQ]
                              chunked ndjson stream of AnalysisEvent
                              documents; ends at the terminal event or
                              after WAIT_SLICE_SECONDS of silence
                              (resume with after=<last seq>)
    POST /v1/cancel/<job>     {"job", "cancelled", "status"}
    GET  /v1/inspect          {"root", "entries": [...]}

Job ids are the service's content-addressed store keys, so re-submitting
an identical request returns the same id (idempotent) and a finished
job's result stays retrievable across server restarts via the store.
Session refs are rejected with 400: in-memory models cannot cross the
wire — register them on an in-process service instead.

The server is a :class:`ThreadingHTTPServer`: each request runs on its
own thread, which composes with the service's thread-safe submission and
(optionally) a parallel execution backend for genuine cross-request
concurrency.  Event streams hold their handler thread for at most one
silence slice, like long-polls.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .events import AnalysisCancelled, AnalysisEvent
from .request import (SCHEMA_VERSION, AnalysisRequest, AnalysisResult,
                      PartialResult)
from .scheduler import QueueFull
from .service import AnalysisHandle, ResilienceService, _cached_handle

__all__ = ["AnalysisServer", "RemoteService", "RemoteHandle", "RemoteError",
           "RemoteBusy", "ServerDraining"]

#: Seconds one ?wait=1 long-poll (or one silent event-stream slice)
#: blocks before yielding the handler thread back (clients re-poll or
#: reconnect; bounded so a dead client cannot pin a thread).
WAIT_SLICE_SECONDS = 30.0

#: Seconds between a serving loop's shutdown checks, so closing a server
#: waits at most this long (``socketserver``'s 0.5 s default cost every
#: close ~0.45 s).
POLL_INTERVAL = 0.05


class ServerDraining(RuntimeError):
    """The server is draining (SIGTERM) and admits no new submissions.

    Served as HTTP 503 + ``Retry-After``: running shards finish, event
    logs flush, but new work must go elsewhere (or come back after the
    restart).
    """


class RemoteError(RuntimeError):
    """The server rejected a request or returned a malformed response."""


class RemoteBusy(RemoteError):
    """The server refused a submission with 429 (queue full).

    ``retry_after`` carries the server's backoff hint in seconds (from
    the ``Retry-After`` header); :meth:`RemoteService.submit` honours it
    automatically for ``busy_retries`` attempts before surfacing this.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class _Serving:
    """Background-thread lifecycle around one ``socketserver`` server.

    Shared by :class:`AnalysisServer`, the fleet's ``CoordinatorServer``
    and ``WorkerAgent``: :attr:`address`, :meth:`start`,
    :meth:`serve_forever` and an idempotent :meth:`shutdown`, all
    polling at :data:`POLL_INTERVAL`.
    """

    _scheme = "http://"
    _thread_name = "repro-serve"

    def _serve(self, server) -> None:
        server.daemon_threads = True       # close never joins handlers
        self._server = server
        self._thread: threading.Thread | None = None
        self._serving = False    # a serve loop was started
        self._closed = False

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{self._scheme}{host}:{port}"

    def start(self):
        """Serve on a background thread; returns self (for tests/embedding)."""
        self._serving = True
        self._thread = threading.Thread(target=self.serve_forever,
                                        name=self._thread_name, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._serving = True
        self._server.serve_forever(poll_interval=POLL_INTERVAL)

    def shutdown(self) -> None:
        """Stop serving (idempotent — drain threads and ``finally``
        blocks may both call it).  ``socketserver``'s ``shutdown`` waits
        for a serve loop to acknowledge, so it is called only on a server
        that was started; the socket is closed either way."""
        if self._closed:
            return
        self._closed = True
        if self._serving:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class AnalysisServer(_Serving):
    """Serve one :class:`ResilienceService` over HTTP (see module doc).

    Parameters
    ----------
    service:
        The service to expose; its backend decides execution parallelism.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    """

    def __init__(self, service: ResilienceService, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._jobs: dict[str, AnalysisHandle] = {}
        self._jobs_lock = threading.Lock()
        self._draining = False
        self._serve(ThreadingHTTPServer((host, port), _make_handler(self)))

    # ------------------------------------------------------- graceful drain
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new submissions (``repro serve``'s SIGTERM).

        Read endpoints keep answering — clients holding job ids can
        still collect results and event streams while running shards
        finish; new ``/v1/submit`` requests get 503 + ``Retry-After``.
        """
        self._draining = True

    def drain(self, timeout: float | None = None) -> bool:
        """Block until in-flight work settles (or ``timeout`` runs out).

        "Settled" means the dispatch queue is empty with nothing
        running and every tracked handle has resolved — at which point
        every event log carries its terminal event (flushed: logs live
        in memory and streams replay from history, so a resolved job's
        history is durable for as long as the process lives).  Returns
        whether the server fully drained.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            queue = self.service.queue_snapshot()
            with self._jobs_lock:
                handles = list(self._jobs.values())
            settled = (queue["queued"] == 0 and queue["running"] == 0
                       and all(handle.done() for handle in handles))
            if settled:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.1)

    # ---------------------------------------------------------------- actions
    def submit_payload(self, payload: dict, priority: int = 0,
                       client_id: str | None = None) -> dict:
        if self._draining:
            raise ServerDraining(
                "server is draining (shutdown requested): no new "
                "submissions are admitted; running jobs will finish")
        if client_id is not None:
            # The X-Repro-Client header names the tenant; an explicit
            # options.client_id in the body wins over it.
            options = dict(payload.get("options") or {})
            if options.get("client_id") is None:
                options["client_id"] = client_id
                payload = {**payload, "options": options}
        request = AnalysisRequest.from_payload(payload)
        if request.model.session is not None:
            raise ValueError(
                f"session ref {request.model.key!r} cannot be served "
                f"remotely: in-memory models do not cross the wire (use "
                f"benchmark=/preset= refs)")
        handle = self.service.submit(request, priority=priority)
        with self._jobs_lock:
            self._jobs[handle.key] = handle
        return {"job": handle.key, "status": handle.status()}

    def handle_for(self, job: str) -> AnalysisHandle | None:
        with self._jobs_lock:
            handle = self._jobs.get(job)
        if handle is not None:
            return handle
        # A finished job from a previous server life: the store still
        # holds it (job ids ARE store keys), so answer straight from the
        # stored document — resubmitting would force model resolution
        # (weights load, or a full training run on a cold zoo cache)
        # just to rebuild a handle for a result we already have.
        if self.service.store is not None:
            cached = self.service.store.get(job)
            if cached is not None:
                handle = _cached_handle(cached.request, job, cached)
                with self._jobs_lock:
                    self._jobs.setdefault(job, handle)
                return self._jobs[job]
        return None

    def status_payload(self, handle: AnalysisHandle) -> dict:
        status = handle.status()
        payload = {"job": handle.key, "status": status}
        payload.update(handle.progress)
        if status in ("error", "cancelled"):
            payload["error"] = str(handle.exception())
        return payload

    def cancel_payload(self, handle: AnalysisHandle) -> dict:
        cancelled = handle.cancel()
        return {"job": handle.key, "cancelled": cancelled,
                "status": handle.status()}

    def inspect_payload(self) -> dict:
        store = self.service.store
        if store is None:
            return {"root": None, "entries": []}
        return {"root": store.root,
                "entries": [asdict(entry) for entry in store.entries()]}

    def health_payload(self) -> dict:
        health = getattr(self.service, "health", None)
        return {"ok": True, "schema": SCHEMA_VERSION,
                "backend": self.service.backend.name,
                "stats": asdict(self.service.stats),
                "queue": self.service.queue_snapshot(),
                "draining": self._draining,
                "degraded": bool(getattr(self.service, "degraded", False)),
                "health": health.snapshot() if health is not None else {}}


class _JsonHandler(BaseHTTPRequestHandler):
    """JSON replies and chunked ndjson streams: the framing shared by
    the node and the fleet coordinator handlers."""

    # Chunked transfer (the /v1/events stream) is an HTTP/1.1
    # construct — a 1.0 response advertising it mis-frames for
    # conformant clients.  Plain replies always carry
    # Content-Length, so 1.1 keep-alive framing is satisfied too.
    protocol_version = "HTTP/1.1"

    # Silence per-request stderr logging (the CLI prints the address).
    def log_message(self, *args) -> None:  # noqa: D102
        pass

    def _reply(self, code: int, payload: dict | str,
               headers: dict | None = None) -> None:
        body = (payload if isinstance(payload, str)
                else json.dumps(payload, sort_keys=True))
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _error(self, code: int, message: str) -> None:
        self._reply(code, {"error": message})

    @staticmethod
    def _stream_params(query: str) -> tuple[int, bool]:
        """An events query's ``after=`` (0 when absent or malformed)
        and ``embed_partial=`` (on unless ``0``/``false``: slim
        ``shard_done`` pointers keep wide requests from amplifying
        O(shards×curves) bytes through every proxy hop)."""
        params = urllib.parse.parse_qs(query)
        try:
            values = params.get("after")
            after = int(values[-1]) if values else 0
        except ValueError:
            after = 0
        embed = (params.get("embed_partial", ["1"])[-1]
                 not in ("0", "false"))
        return after, embed

    def _stream(self, lines) -> None:
        """Answer 200 with ``lines`` as a chunked ndjson body."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for text in lines:
                data = text.encode()
                self.wfile.write(f"{len(data):x}\r\n".encode() + data
                                 + b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-stream (e.g. right after the
            # terminal event) — nothing left to answer.
            self.close_connection = True


def _event_lines(handle: AnalysisHandle, after: int, embed: bool):
    """One ndjson line per event of ``handle`` past ``after``."""
    yielded = 0
    for event in handle.events(after=after, timeout=WAIT_SLICE_SECONDS,
                               embed_partial=embed):
        yielded += 1
        yield event.to_json() + "\n"
    if yielded == 0 and after > 0 and handle.done():
        # A consumer resuming (after=N) against a job resurrected from
        # the store would spin forever: the rebuilt log is a single
        # terminal event whose seq is below what the client already
        # saw, so the normal replay yields nothing.  Re-send just the
        # terminal event — shard_done history was already delivered in
        # the previous server life, so nothing duplicates — and the
        # client's stream closes.
        for event in handle.events(after=0, timeout=0.5):
            if event.terminal and event.seq <= after:
                yield event.to_json() + "\n"


def _make_handler(server: AnalysisServer):
    class Handler(_JsonHandler):
        # ------------------------------------------------------------- routes
        def do_GET(self) -> None:  # noqa: N802 — http.server API
            try:
                path, _, query = self.path.partition("?")
                if path == "/v1/health":
                    self._reply(200, server.health_payload())
                elif path == "/v1/inspect":
                    self._reply(200, server.inspect_payload())
                elif path.startswith("/v1/status/"):
                    self._job_route(path[len("/v1/status/"):], query,
                                    want_result=False)
                elif path.startswith("/v1/result/"):
                    self._job_route(path[len("/v1/result/"):], query,
                                    want_result=True)
                elif path.startswith("/v1/partial/"):
                    self._partial_route(path[len("/v1/partial/"):])
                elif path.startswith("/v1/events/"):
                    self._events_route(path[len("/v1/events/"):], query)
                else:
                    self._error(404, f"unknown endpoint {path!r}")
            except Exception as exc:  # noqa: BLE001 — must answer the socket
                self._error(500, str(exc))

        @staticmethod
        def _wait_budget(query: str) -> float:
            """Seconds the ``wait=`` query grants, capped per slice."""
            try:
                values = urllib.parse.parse_qs(query).get("wait")
                wait = float(values[-1]) if values else 0.0
            except ValueError:
                wait = 0.0
            return max(0.0, min(wait, WAIT_SLICE_SECONDS))

        def _job_route(self, job: str, query: str, *,
                       want_result: bool) -> None:
            handle = server.handle_for(job)
            if handle is None:
                self._error(404, f"unknown job {job!r}")
                return
            wait = self._wait_budget(query) if want_result else 0.0
            if wait > 0 and not handle.done():
                try:
                    handle.result(timeout=wait)
                except TimeoutError:
                    pass  # report current status; the client re-polls
                # lint: allow(exc-swallowed): the failure is already recorded on the handle and reported below as status=error
                except Exception:  # noqa: BLE001 — surfaced as status=error
                    pass
            if not want_result or not handle.done():
                code = 200 if not want_result else 202
                self._reply(code, server.status_payload(handle))
                return
            status = handle.status()
            if status == "cancelled":
                payload = server.status_payload(handle)
                payload["error"] = (f"job {job} was cancelled; "
                                    f"resubmit to measure it")
                self._reply(409, payload)
                return
            if status == "error":
                self._reply(500, server.status_payload(handle))
                return
            result = handle.result()
            # from_cache is a runtime flag outside the schema; carry it
            # out-of-band so remote handles report cache hits faithfully.
            self._reply(200, result.to_json(),
                        headers={"X-Repro-From-Cache":
                                 "1" if result.from_cache else "0"})

        def _partial_route(self, job: str) -> None:
            handle = server.handle_for(job)
            if handle is None:
                self._error(404, f"unknown job {job!r}")
                return
            self._reply(200, handle.partial().to_json())

        def _events_route(self, job: str, query: str) -> None:
            """Chunked ndjson event stream (see module docstring)."""
            handle = server.handle_for(job)
            if handle is None:
                self._error(404, f"unknown job {job!r}")
                return
            after, embed = self._stream_params(query)
            self._stream(_event_lines(handle, after, embed))

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            try:
                path, _, query = self.path.partition("?")
                if path.startswith("/v1/cancel/"):
                    handle = server.handle_for(path[len("/v1/cancel/"):])
                    if handle is None:
                        self._error(404, "unknown job")
                        return
                    self._reply(200, server.cancel_payload(handle))
                    return
                if path != "/v1/submit":
                    self._error(404, f"unknown endpoint {self.path!r}")
                    return
                length = int(self.headers.get("Content-Length", 0))
                try:
                    values = urllib.parse.parse_qs(query).get("priority")
                    priority = int(values[-1]) if values else 0
                    client = self.headers.get("X-Repro-Client") or None
                    payload = json.loads(self.rfile.read(length) or b"{}")
                    response = server.submit_payload(payload,
                                                     priority=priority,
                                                     client_id=client)
                except ServerDraining as exc:
                    # Graceful shutdown: refuse new work but tell the
                    # client this is temporary unavailability.
                    self._reply(503, {"error": str(exc)},
                                headers={"Retry-After": "5"})
                    return
                except QueueFull as exc:
                    # Explicit backpressure: tell the client when to
                    # come back instead of queuing unboundedly.
                    self._reply(429, {"error": str(exc),
                                      "retry_after": exc.retry_after},
                                headers={"Retry-After":
                                         f"{max(1, int(exc.retry_after))}"})
                    return
                except (ValueError, KeyError, TypeError) as exc:
                    self._error(400, str(exc))
                    return
                self._reply(200, response)
            except Exception as exc:  # noqa: BLE001 — must answer the socket
                self._error(500, str(exc))

    return Handler


# --------------------------------------------------------------------- client
class RemoteHandle:
    """Client-side :class:`~repro.api.service.AnalysisHandle` twin.

    Mirrors the handle API (``result``/``done``/``status``/``progress``/
    ``events``/``partial``/``cancel``) by polling the server's status
    endpoint, consuming the chunked event stream and long-polling the
    result endpoint, so code written against in-process handles works
    over the wire unchanged.
    """

    def __init__(self, remote: "RemoteService", request: AnalysisRequest,
                 job: str):
        self.remote = remote
        self.request = request
        self.key = job
        self._result: AnalysisResult | None = None

    def _status_payload(self) -> dict:
        return self.remote._get_json(f"/v1/status/{self.key}")

    def status(self) -> str:
        if self._result is not None:
            return "cached" if self._result.from_cache else "done"
        return self._status_payload()["status"]

    def done(self) -> bool:
        return (self._result is not None
                or self.status() in ("done", "cached", "error", "cancelled"))

    @property
    def progress(self) -> dict:
        payload = self._status_payload()
        return {name: payload[name] for name in
                ("shards_total", "shards_started", "shards_done")
                if name in payload}

    def result(self, timeout: float | None = None) -> AnalysisResult:
        if self._result is None:
            self._result = self.remote._fetch_result(self.key,
                                                     timeout=timeout)
        return self._result

    def events(self, after: int = 0, timeout: float | None = None, *,
               embed_partial: bool = True):
        """Stream the job's :class:`~repro.api.events.AnalysisEvent`
        records over the chunked ``/v1/events`` endpoint.

        Transparently reconnects when the server ends a stream slice
        without a terminal event (its silence bound); ``timeout`` caps
        the *total* wall-clock spent waiting, after which the generator
        returns (resume later with ``after=<last seen seq>``).
        ``embed_partial=False`` asks the server for slim ``shard_done``
        events (pointer instead of the merged-so-far payload; fetch
        :meth:`partial` for the snapshot).
        """
        yield from self.remote._stream_events(self.key, after=after,
                                              timeout=timeout,
                                              embed_partial=embed_partial)

    def partial(self) -> PartialResult:
        """The server's merged-so-far :class:`~repro.api.request.
        PartialResult` snapshot for this job."""
        with self.remote._request(f"/v1/partial/{self.key}") as response:
            return PartialResult.from_json(response.read().decode())

    def cancel(self) -> bool:
        """Request server-side cooperative cancellation of this job."""
        with self.remote._request(f"/v1/cancel/{self.key}",
                                  data=b"") as response:
            return bool(json.loads(response.read())["cancelled"])


class RemoteService:
    """Thin client for a running :class:`AnalysisServer`.

    Exposes the service verbs the experiment runners use —
    ``submit``/``submit_many``/``run``/``run_many`` and a read-only
    ``entry``-free surface — so ``fig9.run(service=RemoteService(url))``
    measures on the server and returns byte-identical results.  Verbs
    that require in-process state (:meth:`register`) error loudly.

    Backpressure: a 429 response carries the server's ``Retry-After``
    hint; :meth:`submit` honours it for up to ``busy_retries`` attempts
    (sleeping the hinted seconds, capped at ``busy_wait_cap``) before
    surfacing :class:`RemoteBusy` to the caller.

    ``client_id`` names this client's tenant for the server's fair
    scheduler; it rides every request as the ``X-Repro-Client`` header
    (an explicit ``options.client_id`` in a submitted request wins).
    """

    #: Socket-timeout headroom over the requested server-side hold; a
    #: socket timeout past it means the server is really gone.
    poll_grace = 15.0

    def __init__(self, url: str, *, timeout: float = 600.0,
                 busy_retries: int = 3, busy_wait_cap: float = 30.0,
                 client_id: str | None = None):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.busy_retries = int(busy_retries)
        self.busy_wait_cap = float(busy_wait_cap)
        self.client_id = client_id

    # ------------------------------------------------------------ transport
    def _request(self, path: str, data: bytes | None = None,
                 timeout: float | None = None):
        headers = ({"Content-Type": "application/json"}
                   if data is not None else {})
        if self.client_id is not None:
            headers["X-Repro-Client"] = self.client_id
        request = urllib.request.Request(self.url + path, data=data,
                                         headers=headers)
        try:
            return urllib.request.urlopen(
                request, timeout=timeout or self.timeout)
        except urllib.error.HTTPError as exc:
            headers = exc.headers
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:  # noqa: BLE001 — error body is best-effort
                detail = ""
            if exc.code == 429:
                try:
                    retry_after = float(headers.get("Retry-After", 1.0))
                except (TypeError, ValueError):
                    retry_after = 1.0
                raise RemoteBusy(
                    f"{path}: HTTP 429" + (f" — {detail}" if detail else ""),
                    retry_after=retry_after) from None
            if exc.code == 409:
                raise AnalysisCancelled(
                    detail or f"{path}: job was cancelled") from None
            raise RemoteError(
                f"{path}: HTTP {exc.code}" + (f" — {detail}" if detail
                                              else "")) from None
        except urllib.error.URLError as exc:
            raise RemoteError(f"cannot reach analysis server at "
                              f"{self.url}: {exc.reason}") from None

    def _get_json(self, path: str) -> dict:
        with self._request(path) as response:
            return json.loads(response.read())

    @staticmethod
    def _sleep(seconds: float) -> None:
        """Backoff sleep (a method so tests can observe/neutralise it)."""
        time.sleep(seconds)

    # -------------------------------------------------------------- service
    def health(self) -> dict:
        return self._get_json("/v1/health")

    def inspect(self) -> dict:
        return self._get_json("/v1/inspect")

    def submit(self, request: AnalysisRequest, *,
               priority: int = 0) -> RemoteHandle:
        payload = request.to_json().encode()
        path = "/v1/submit" + (f"?priority={int(priority)}" if priority
                               else "")
        attempts = 0
        while True:
            try:
                with self._request(path, data=payload) as response:
                    job = json.loads(response.read())["job"]
                return RemoteHandle(self, request, job)
            except RemoteBusy as busy:
                attempts += 1
                if attempts > self.busy_retries:
                    raise
                self._sleep(min(busy.retry_after, self.busy_wait_cap))

    def submit_many(self, requests, *, priority: int = 0
                    ) -> list[RemoteHandle]:
        return [self.submit(request, priority=priority)
                for request in requests]

    def run(self, request: AnalysisRequest, *,
            priority: int = 0) -> AnalysisResult:
        return self.submit(request, priority=priority).result()

    def run_many(self, requests, *, priority: int = 0
                 ) -> list[AnalysisResult]:
        return [handle.result()
                for handle in self.submit_many(requests, priority=priority)]

    def _stream_events(self, job: str, *, after: int = 0,
                       timeout: float | None = None,
                       embed_partial: bool = True):
        """Consume ``/v1/events/<job>`` slices until the terminal event."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        suffix = "" if embed_partial else "&embed_partial=0"
        while True:
            slice_timeout = WAIT_SLICE_SECONDS + self.poll_grace
            saw_any = False
            with self._request(f"/v1/events/{job}?after={after}{suffix}",
                               timeout=slice_timeout) as response:
                for raw in response:
                    line = raw.strip()
                    if not line:
                        continue
                    event = AnalysisEvent.from_json(line.decode())
                    after = event.seq
                    saw_any = True
                    yield event
                    if event.terminal:
                        return
            if deadline is not None and time.monotonic() >= deadline \
                    and not saw_any:
                return

    def register(self, name: str, model, dataset) -> None:
        raise RemoteError(
            "RemoteService cannot register in-memory sessions: the model "
            "lives in this process and does not cross the wire; run a "
            "local ResilienceService for session-based analyses")

    def entry(self, ref) -> None:
        raise RemoteError(
            f"RemoteService cannot resolve {ref.key!r} to an in-process "
            f"model: analyses that touch the model object directly (e.g. "
            f"the X2 routing ablation) need a local ResilienceService")

    def _fetch_result(self, job: str,
                      timeout: float | None = None) -> AnalysisResult:
        """Long-poll the result endpoint until done/error/deadline.

        Each poll asks the server to hold the request for the *remaining*
        wait budget (capped server-side at :data:`WAIT_SLICE_SECONDS`),
        and the socket timeout always exceeds the requested hold — a
        socket-level timeout therefore means the server is genuinely
        unreachable (:class:`RemoteError`), while an exhausted caller
        deadline raises :class:`TimeoutError`, matching the in-process
        :class:`~repro.api.service.AnalysisHandle` contract.
        """
        import time as _time
        deadline = None if timeout is None else _time.monotonic() + timeout
        while True:
            if deadline is None:
                wait = WAIT_SLICE_SECONDS
            else:
                wait = max(0.0, min(WAIT_SLICE_SECONDS,
                                    deadline - _time.monotonic()))
            with self._request(f"/v1/result/{job}?wait={wait:.3f}",
                               timeout=wait + self.poll_grace) as response:
                body = response.read()
                if response.status == 200:
                    result = AnalysisResult.from_json(body.decode())
                    result.from_cache = (response.headers.get(
                        "X-Repro-From-Cache") == "1")
                    return result
            payload = json.loads(body)
            if payload.get("status") == "error":
                raise RemoteError(f"job {job} failed remotely: "
                                  f"{payload.get('error', 'unknown error')}")
            if deadline is not None and _time.monotonic() >= deadline:
                raise TimeoutError(f"job {job} still "
                                   f"{payload.get('status')} after "
                                   f"{timeout}s")
