"""Pluggable execution backends for the analysis service.

The :class:`~repro.api.service.ResilienceService` accepts jobs and plans
shards; a backend decides *where the measurement runs*.  Every backend
exposes the same contract — :meth:`ExecutionBackend.submit` takes an
:class:`~repro.api.request.AnalysisRequest` plus the service's in-process
runner and returns a :class:`concurrent.futures.Future` resolving to an
:class:`~repro.api.request.AnalysisResult` — so the scheduler and the
handle layer are backend-agnostic.

Four implementations:

``inline``
    Runs the measurement synchronously on the submitting thread.  This is
    the equivalence reference and the default: ``service.submit(...)``
    behaves exactly like the pre-redesign blocking service.
``threads``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor`.  Requests
    for *distinct* engines (independent models, eval subsets or options)
    sweep concurrently — the engines serialise themselves (per-engine
    locks in :class:`~repro.core.sweep.SweepEngine`), and the hook stack
    and autograd mode are thread-local, so worker threads cannot
    contaminate each other.  Results are bit-identical to ``inline``
    because every noise stream is derived statelessly per
    (seed, site, batch).
``procpool`` and ``remote-pool``
    One warm worker pool (:class:`PoolBackend`) over two transports:
    pipes to persistent ``python -m repro.api.backends --pool-worker``
    children, or TCP to ``repro worker`` agents
    (:mod:`repro.api.cluster`).  Both run one worker loop,
    :func:`serve_frames`, around a store-less service that stays warm
    between shards.  Workers resolve benchmark/zoo refs themselves
    (session refs cannot cross a process boundary and error loudly);
    the parent owns persistence.

Progress contract: every ``submit`` accepts an optional ``on_start``
callback invoked when the measurement *actually begins* (on the worker
thread, after any pool queuing) — this is what feeds honest ``started``
events upstream, rather than "was handed to a pool".

Fault tolerance (see :mod:`repro.api.resilience`): worker loss raises
the retryable :class:`~repro.api.resilience.WorkerCrashed` (or
:class:`~repro.api.resilience.WorkerTimeout` when the supervision
watchdog killed a worker past its ``ExecutionOptions.shard_timeout``
deadline or with stale heartbeats), while deterministic refusals stay
bare :class:`~repro.api.resilience.BackendError`.  Pool workers
heartbeat through every measurement so hung (not just dead) workers are
detected and replaced; cumulative replacements surface as
``worker_restarts``.  ``chaos:<inner>`` (built via ``make_backend``
with a :class:`~repro.api.resilience.FaultPlan`) wraps any backend in
the deterministic fault-injection harness — see :class:`ChaosBackend`.

``make_backend`` is the one validation/construction choke point — the
CLI's ``--backend``/``--max-parallel`` flags and the service constructor
both go through it, so invalid combinations fail loudly and identically
everywhere.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import select
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from .request import SCHEMA_VERSION, AnalysisRequest, AnalysisResult
from .resilience import (BackendError, FaultPlan, WorkerCrashed,
                         WorkerPreempted, WorkerSupervisor, WorkerTimeout)

__all__ = ["BACKEND_NAMES", "BackendError", "WorkerCrashed", "WorkerTimeout",
           "WorkerPreempted", "ExecutionBackend", "InlineBackend",
           "ThreadBackend", "Channel", "PoolBackend", "ProcPoolBackend",
           "RemotePoolBackend", "ChaosBackend", "make_backend",
           "parse_worker_address", "serve_frames"]

logger = logging.getLogger("repro.api.backends")

#: Valid values of the service/CLI ``backend`` knob (each may also be
#: wrapped as ``chaos:<name>`` together with a ``fault_plan``).
#: ``remote-pool`` additionally needs a ``workers=`` list of
#: ``HOST:PORT`` agent addresses.
BACKEND_NAMES: tuple[str, ...] = ("inline", "threads", "procpool",
                                  "remote-pool")

#: Default shard concurrency for the parallel backends when the caller
#: does not pass ``max_parallel`` (bounded: sweeps are memory-hungry).
DEFAULT_MAX_PARALLEL = max(2, min(4, os.cpu_count() or 1))

#: Seconds between heartbeat frames a pool worker emits while a
#: measurement is in flight (well under any sane supervision grace).
HEARTBEAT_INTERVAL = 0.5

Runner = Callable[[AnalysisRequest], AnalysisResult]


class ExecutionBackend:
    """Protocol base: where one measurement executes.

    ``parallel`` is the backend's shard-concurrency capacity; the
    scheduler only splits a request into shards when it exceeds 1.
    """

    name: str = "abstract"
    parallel: int = 1
    #: Cumulative crashed/killed-worker replacements (pools count them).
    worker_restarts: int = 0

    def pool_snapshot(self) -> dict:
        """Live worker-pool shape for health/queue surfaces (``{}``
        when the backend owns no pool)."""
        return {}

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               preempt=None) -> Future:
        """Execute ``runner(request)`` (or an equivalent out-of-process
        measurement of ``request``) and return a Future of the result.
        ``on_start`` fires when the measurement actually begins.  A set
        ``preempt`` token kills a pool worker; in-process backends ignore
        it (their runner polls it at the engine's checkpoints)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker pools; the backend is unusable afterwards."""


def _with_start(runner: Runner,
                on_start: Callable[[], None] | None) -> Runner:
    """Wrap ``runner`` so ``on_start`` fires on the executing thread."""
    if on_start is None:
        return runner

    def wrapped(request: AnalysisRequest) -> AnalysisResult:
        on_start()
        return runner(request)

    return wrapped


class InlineBackend(ExecutionBackend):
    """Current (pre-redesign) semantics: measure on the submitting thread.

    ``submit`` only returns once the measurement finished, so handles
    from an inline service are always already resolved — the blocking
    wrappers behave exactly like the old blocking ``submit``.
    """

    name = "inline"
    parallel = 1

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               preempt=None) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(_with_start(runner, on_start)(request))
        except BaseException as exc:  # noqa: BLE001 — delivered via the future
            future.set_exception(exc)
        return future


class ThreadBackend(ExecutionBackend):
    """Cross-request parallelism on a shared thread pool.

    **Lock ordering**: ``_lock`` is a leaf guarding only lazy pool
    creation and teardown; :meth:`close` swaps the pool reference out
    under it and shuts the pool down *after* releasing (a worker
    completion callback re-entering backend code must never find the
    lock held).
    """

    name = "threads"

    def __init__(self, max_parallel: int = 0):
        self.parallel = int(max_parallel) or DEFAULT_MAX_PARALLEL
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.parallel,
                    thread_name_prefix="repro-sweep")
            return self._pool

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               preempt=None) -> Future:
        return self._ensure_pool().submit(_with_start(runner, on_start),
                                          request)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def parse_worker_address(spec) -> tuple[str, int]:
    """``"HOST:PORT"`` (or a ``(host, port)`` pair) → ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host or not port:
        raise ValueError(f"worker address {spec!r} is not HOST:PORT")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"worker address {spec!r} is not HOST:PORT "
                         f"(port {port!r} is not an integer)") from None


class Channel:
    """One framed connection to a warm worker, on either transport.

    ``reader``/``writer`` are text streams to a :func:`serve_frames`
    loop.  The transport that opened the channel supplies ``sever``
    (SIGKILL the child, or shut the socket down — either unblocks a
    reader mid-``readline``), ``release`` (its cleanup once the streams
    are closed) and ``tail`` (a diagnostic suffix for loss messages);
    the hello check, framing, heartbeat bookkeeping (:attr:`last_beat`,
    the watchdog's staleness signal) and loss classification live here.

    The first :meth:`measure` reads the greeting, so like every other
    read it happens under the pool's supervisor watch: a worker wedged
    at start-up ends as a :class:`~repro.api.resilience.WorkerTimeout`,
    never a hang.  ``greet_timeout`` (the TCP connect timeout) makes a
    silent non-worker peer a prompt
    :class:`~repro.api.resilience.WorkerCrashed`.
    """

    def __init__(self, reader, writer, *, label: str,
                 sever: Callable[[], None], release: Callable[[], None],
                 tail: Callable[[], str] = lambda: "",
                 greet_timeout: float | None = None, origin=None):
        self.reader = reader
        self.writer = writer
        self.label = label
        #: Where the channel leads (an agent address; ``None`` for a pipe).
        self.origin = origin
        self.greet_timeout = greet_timeout
        self._sever = sever
        self._release = release
        self._tail = tail
        self.greeted = False
        self.last_beat = time.monotonic()
        self.killed_reason: str | None = None
        self.killed_preempted = False
        self._closed = False

    def alive(self) -> bool:
        """Fit for reuse: not closed or killed, and silent.  An idle
        worker never speaks, so a readable channel is at EOF (the worker
        died) or out of step."""
        if self._closed or self.killed_reason is not None:
            return False
        try:
            readable, _, _ = select.select([self.reader], [], [], 0)
        except (OSError, ValueError):
            return False
        return not readable

    def kill(self, reason: str, *, preempted: bool = False) -> None:
        """Watchdog/scheduler teardown: record the verdict, then sever.
        ``preempted`` marks a fair-scheduler kill of a healthy worker,
        which the read loop reports as a preemption, not a timeout."""
        self.killed_reason = reason
        self.killed_preempted = preempted
        try:
            self._sever()
        except OSError:
            pass

    def _lost(self, detail: str) -> BackendError:
        """The channel broke: classify watchdog kill vs worker death."""
        if self.killed_reason is not None:
            if self.killed_preempted:
                return WorkerPreempted(self.killed_reason)
            return WorkerTimeout(self.killed_reason)
        return WorkerCrashed(detail + self._tail())

    def _greet(self) -> None:
        """Read and check the worker's hello frame."""
        if self.greet_timeout is not None:
            ready, _, _ = select.select([self.reader], [], [],
                                        self.greet_timeout)
            if not ready:
                raise WorkerCrashed(
                    f"{self.label} sent no greeting within "
                    f"{self.greet_timeout:g}s; is a 'repro worker' agent "
                    f"listening there?")
        line = self.reader.readline()
        if not line:
            raise self._lost(f"{self.label} closed the channel during the "
                             f"greeting")
        try:
            hello = json.loads(line)["hello"]
            schema = hello["schema"]
        except (ValueError, KeyError, TypeError):
            raise WorkerCrashed(
                f"{self.label} sent a non-protocol greeting "
                f"({line.strip()[:120]!r}); is a 'repro worker' agent "
                f"listening there?") from None
        if schema != SCHEMA_VERSION:
            raise BackendError(f"{self.label} speaks schema {schema!r}; "
                               f"this client requires {SCHEMA_VERSION!r}")
        self.greeted = True

    def measure(self, request: AnalysisRequest,
                chaos: dict | None = None) -> AnalysisResult:
        """One framed request/response round trip (raises on loss).

        ``chaos`` is an optional scripted-fault rider (a
        :class:`~repro.api.resilience.Fault` payload) executed *inside*
        the worker — the chaos harness's real-injection path.
        """
        self.last_beat = time.monotonic()
        if chaos is None:
            frame = request.to_json()
        else:
            frame = json.dumps({"request": request.to_payload(),
                                "chaos": chaos}, sort_keys=True)
        try:
            if not self.greeted:
                self._greet()
            self.writer.write(frame + "\n")
            self.writer.flush()
            while True:
                line = self.reader.readline()
                if not line:
                    raise self._lost(f"{self.label} closed the channel "
                                     f"mid-request")
                try:
                    envelope = json.loads(line)
                    if not isinstance(envelope, dict):
                        raise ValueError(line)
                except ValueError:
                    raise WorkerCrashed(
                        f"{self.label} emitted a corrupted frame "
                        f"({line.strip()[:120]!r})" + self._tail()) from None
                if "hb" in envelope:
                    self.last_beat = time.monotonic()
                    continue
                if "error" in envelope:
                    raise BackendError(
                        f"{self.label} failed: {envelope['error']}")
                return AnalysisResult.from_payload(envelope["ok"])
        except (OSError, ValueError) as exc:
            raise self._lost(f"{self.label} channel failed ({exc})") from None

    def close(self) -> None:
        """Close the streams — the writer first, whose EOF ends the
        worker's loop — then let the transport release the rest."""
        self._closed = True
        for stream in (self.writer, self.reader):
            try:
                stream.close()
            except OSError:
                pass  # flushing into a severed channel; already lost
        self._release()


class _PipeTransport:
    """``--pool-worker`` child processes: a channel is the child's
    stdin/stdout, severed by SIGKILL; the child's stderr goes to a temp
    log whose tail is attached to loss messages."""

    noun = "procpool worker"

    @staticmethod
    def open() -> Channel:
        handle, log_path = tempfile.mkstemp(prefix="repro-poolworker-",
                                            suffix=".log")
        log = os.fdopen(handle, "w")
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.api.backends", "--pool-worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log, text=True, env=_worker_env())
        except BaseException:
            # A failed spawn must not strand the log fd or its file.
            log.close()
            os.remove(log_path)
            raise

        def tail() -> str:
            try:
                with open(log_path) as stream:
                    text = stream.read().strip()[-2000:]
            except OSError:
                text = ""
            status = process.poll()
            return ("" if status is None else f" (exit status {status})") \
                + (f"; worker log tail:\n{text}" if text else "")

        def release() -> None:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            finally:
                log.close()
                if os.path.exists(log_path):
                    os.remove(log_path)

        return Channel(process.stdout, process.stdin,
                       label=f"procpool worker pid {process.pid}",
                       sever=process.kill, release=release, tail=tail)

    @staticmethod
    def lost(origin) -> None:
        """Nothing to remember: the next open spawns afresh."""

    @staticmethod
    def snapshot() -> dict:
        return {}


def _shutdown(sock: socket.socket) -> None:
    """Sever a socket, unblocking any reader mid-``readline``."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class _TcpTransport:
    """``repro worker`` agents, dialed round-robin; a channel is a socket,
    severed by shutting it down.  An agent whose dial or channel failed
    sits out ``dead_cooldown`` seconds while the others are tried
    first."""

    noun = "remote worker"

    def __init__(self, addresses: tuple[tuple[str, int], ...],
                 connect_timeout: float, dead_cooldown: float):
        self.addresses = addresses
        self.connect_timeout = float(connect_timeout)
        self.dead_cooldown = float(dead_cooldown)
        self._dead: dict[tuple[str, int], float] = {}
        self._next = 0
        self._lock = threading.Lock()

    def open(self) -> Channel:
        now = time.monotonic()
        with self._lock:
            start = self._next
            self._next += 1
            dead = dict(self._dead)
        order = [self.addresses[(start + offset) % len(self.addresses)]
                 for offset in range(len(self.addresses))]
        fresh = [address for address in order
                 if now - dead.get(address, -1e9) >= self.dead_cooldown]
        # With the whole fleet in cooldown there is nothing to prefer —
        # probe everyone rather than guaranteeing failure.
        errors = []
        for address in fresh or order:
            try:
                sock = socket.create_connection(
                    address, timeout=self.connect_timeout)
            except OSError as exc:
                errors.append(f"{address[0]}:{address[1]} ({exc})")
                self.lost(address)
                continue
            with self._lock:
                self._dead.pop(address, None)
            # The connect timeout bounds the dial and the greeting; past
            # that the supervision watchdog owns liveness.
            sock.settimeout(None)
            return Channel(sock.makefile("r", encoding="utf-8"),
                           sock.makefile("w", encoding="utf-8"),
                           label=f"remote worker {address[0]}:{address[1]}",
                           sever=functools.partial(_shutdown, sock),
                           release=sock.close,
                           greet_timeout=self.connect_timeout,
                           origin=address)
        raise WorkerCrashed(
            "no reachable remote worker: " + "; ".join(errors))

    def lost(self, address: tuple[str, int]) -> None:
        """Put an agent in cooldown."""
        with self._lock:
            self._dead[address] = time.monotonic()

    def snapshot(self) -> dict:
        now = time.monotonic()
        with self._lock:
            return {"workers": [
                {"address": f"{host}:{port}",
                 "dead": (now - self._dead.get((host, port), -1e9)
                          < self.dead_cooldown)}
                for host, port in self.addresses]}


class PoolBackend(ExecutionBackend):
    """The warm worker pool behind ``procpool`` and ``remote-pool``.

    Channels open lazily — the pool grows on demand toward
    ``max_parallel`` — and are reused newest-first, so interpreter
    start-up, zoo weights and the engine prefix-cache are paid once per
    worker, not per shard.  Channels idle past ``idle_ttl`` seconds are
    closed on the next borrow (or :meth:`reap_idle`).  A broken channel
    fails its shard with the retryable
    :class:`~repro.api.resilience.WorkerCrashed` and is never reused;
    replacements count in :attr:`worker_restarts`.

    Every measurement, a fresh channel's greeting included, runs under
    a :class:`~repro.api.resilience.WorkerSupervisor` watch (deadline
    ``options.shard_timeout``; heartbeat staleness ``heartbeat_grace``).
    A tripped watchdog severs the channel and the read loop raises
    :class:`~repro.api.resilience.WorkerTimeout`.  A fair-scheduler
    preempt (``submit(..., preempt=token)``) severs it the same way but
    raises :class:`~repro.api.resilience.WorkerPreempted`, which the
    service intercepts before the retry layer: no retry, no restart.

    **Lock ordering** (checked by ``repro lint`` and the runtime lock
    witness): ``_lock`` is a leaf guarding the idle list and counters,
    taken in short bursts and **dropped before any call into a channel
    or the transport** — stale channels are collected under it and
    closed after.  The supervisor and the TCP transport have leaf locks
    of their own, never held together with it.
    """

    def __init__(self, transport, max_parallel: int, *,
                 heartbeat_grace: float | None = 10.0,
                 poll_interval: float = 0.1,
                 idle_ttl: float | None = 300.0):
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError(f"idle_ttl must be positive or None, "
                             f"got {idle_ttl}")
        self.parallel = max_parallel
        self.heartbeat_grace = heartbeat_grace
        self.idle_ttl = idle_ttl
        self._transport = transport
        self._dispatch = ThreadBackend(self.parallel)
        self._supervisor = WorkerSupervisor(poll_interval=poll_interval)
        #: (channel, idled_at) pairs, oldest first at index 0.
        self._idle: list[tuple[Channel, float]] = []
        self._lock = threading.Lock()
        self._closed = False
        self._restarts = 0
        self._spawned = 0
        self._reaped = 0
        self._busy = 0

    @property
    def worker_restarts(self) -> int:
        """Cumulative lost-channel replacements (crashes + timeouts)."""
        with self._lock:
            return self._restarts

    def pool_snapshot(self) -> dict:
        """Live pool shape for health/queue surfaces."""
        with self._lock:
            idle = len(self._idle)
            busy = self._busy
            snapshot = {"size": idle + busy, "busy": busy, "idle": idle,
                        "max": self.parallel, "spawned": self._spawned,
                        "reaped": self._reaped, "idle_ttl": self.idle_ttl}
        snapshot.update(self._transport.snapshot())
        return snapshot

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               preempt=None, chaos: dict | None = None) -> Future:
        if request.model.session is not None:
            raise BackendError(
                f"the {self.name} backend cannot serve session ref "
                f"{request.model.key!r}: in-memory models do not cross a "
                f"process boundary (use benchmark=/preset= refs, or the "
                f"inline/threads backends)")

        return self._dispatch.submit(
            request, functools.partial(self._run, chaos=chaos,
                                       preempt=preempt),
            on_start=on_start)

    def reap_idle(self, now: float | None = None) -> int:
        """Close idle channels past :attr:`idle_ttl`; returns the count."""
        if self.idle_ttl is None:
            return 0
        now = time.monotonic() if now is None else now
        expired: list[Channel] = []
        with self._lock:
            while self._idle and now - self._idle[0][1] >= self.idle_ttl:
                expired.append(self._idle.pop(0)[0])
            self._reaped += len(expired)
        for channel in expired:
            channel.close()
        if expired:
            logger.info("%s reaped %d idle worker(s) past the %.0fs TTL",
                        self.name, len(expired), self.idle_ttl)
        return len(expired)

    def _borrow(self) -> Channel:
        self.reap_idle()
        with self._lock:
            if self._closed:
                raise BackendError(f"{self.name} backend is closed")
            self._busy += 1
        stale: list[Channel] = []
        try:
            while True:
                with self._lock:
                    if not self._idle:
                        self._spawned += 1
                        break
                    channel, _ = self._idle.pop()  # newest first: warmest
                if channel.alive():
                    return channel
                stale.append(channel)
            return self._transport.open()
        except BaseException:
            with self._lock:
                self._busy -= 1
            raise
        finally:
            for dead in stale:
                dead.close()

    def _run(self, request: AnalysisRequest, chaos: dict | None = None,
             preempt=None) -> AnalysisResult:
        if preempt is not None and preempt.is_set():
            raise WorkerPreempted(preempt.reason or
                                  "shard preempted before dispatch")
        channel = self._borrow()
        describe = f"shard {request.fingerprint()[:12]} on {channel.label}"
        timeout = request.options.shard_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        token = self._supervisor.watch(
            kill=channel.kill, describe=describe, deadline=deadline,
            beat=lambda: channel.last_beat, grace=self.heartbeat_grace)
        hook = None
        if preempt is not None:
            def hook(reason, _channel=channel):
                _channel.kill(reason or "shard preempted", preempted=True)
            preempt.add_hook(hook)
        try:
            result = channel.measure(request, chaos=chaos)
        except BaseException as error:
            channel.close()              # never reuse a suspect channel
            lost = (isinstance(error, WorkerCrashed)
                    and not isinstance(error, WorkerPreempted))
            with self._lock:
                self._busy -= 1
                if lost:
                    self._restarts += 1
                restarts = self._restarts
            if lost:
                self._transport.lost(channel.origin)
                logger.warning(
                    "%s lost on %s (%s: %s); the next borrow opens a "
                    "replacement (worker_restarts=%d)",
                    self._transport.noun, describe, type(error).__name__,
                    error, restarts)
            raise
        finally:
            if hook is not None:
                preempt.remove_hook(hook)
            self._supervisor.unwatch(token)
        with self._lock:
            self._busy -= 1
            if not self._closed:
                self._idle.append((channel, time.monotonic()))
                channel = None
        if channel is not None:
            channel.close()
        return result

    def close(self) -> None:
        self._dispatch.close()           # waits for in-flight borrows
        self._supervisor.close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for channel, _ in idle:
            channel.close()


class ProcPoolBackend(PoolBackend):
    """``procpool``: the pool over ``python -m repro.api.backends
    --pool-worker`` child processes (framed JSON on stdin/stdout)."""

    name = "procpool"

    def __init__(self, max_parallel: int = 0, *,
                 heartbeat_grace: float | None = 10.0,
                 poll_interval: float = 0.1,
                 idle_ttl: float | None = 300.0):
        super().__init__(_PipeTransport(),
                         int(max_parallel) or DEFAULT_MAX_PARALLEL,
                         heartbeat_grace=heartbeat_grace,
                         poll_interval=poll_interval, idle_ttl=idle_ttl)


class RemotePoolBackend(PoolBackend):
    """``remote-pool``: the pool over TCP ``repro worker`` agents at
    ``workers`` (``HOST:PORT`` strings or pairs).

    By default two shards per agent are in flight — one measuring, one
    queued behind it on the agent's accept loop.  A fully unreachable
    fleet raises the retryable
    :class:`~repro.api.resilience.WorkerCrashed`; the retry backoff
    doubles as the reconnect probe interval.
    """

    name = "remote-pool"

    def __init__(self, workers, max_parallel: int = 0, *,
                 heartbeat_grace: float | None = 10.0,
                 poll_interval: float = 0.1,
                 connect_timeout: float = 5.0,
                 dead_cooldown: float = 5.0):
        addresses = tuple(parse_worker_address(worker)
                          for worker in (workers or ()))
        if not addresses:
            raise ValueError(
                "the remote-pool backend needs at least one worker "
                "address (workers=['HOST:PORT', ...]); start agents "
                "with 'repro worker --listen HOST:PORT'")
        super().__init__(
            _TcpTransport(addresses, connect_timeout, dead_cooldown),
            int(max_parallel) or max(DEFAULT_MAX_PARALLEL,
                                     2 * len(addresses)),
            heartbeat_grace=heartbeat_grace, poll_interval=poll_interval)


def _worker_env() -> dict:
    """The worker's environment: inherit, but guarantee ``repro`` imports.

    The parent may run from a source checkout that is only importable via
    ``PYTHONPATH=src``; prepend the package root we were imported from so
    the child resolves the same code.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not previous
                         else os.pathsep.join([package_root, previous]))
    return env


def serve_frames(lines, send: Callable[[str], None], service,
                 crash: Callable[[], None]) -> None:
    """The worker loop behind both transports: ``--pool-worker`` over
    stdin/stdout (:func:`worker_main`) and each TCP connection of a
    :class:`~repro.api.cluster.WorkerAgent`.

    Greets with ``{"hello": {"schema": .., "pid": ..}}``, then answers
    each line — an :class:`AnalysisRequest` document, or ``{"request":
    .., "chaos": <Fault payload>}`` — with ``{"hb": t}`` frames while
    measuring (so the client's watchdog can tell *hung* from *slow*)
    and one ``{"ok": <result payload>}``/``{"error": <message>}``
    envelope; a line or chaos rider that is not a JSON object gets an
    error envelope.  Chaos crashes call ``crash``, the caller's way of
    dying.  Once ``send`` fails, the client has hung up: the loop ends.
    """
    write_lock = threading.Lock()

    def emit(document) -> None:
        text = (document if isinstance(document, str)
                else json.dumps(document, sort_keys=True))
        # Whole frames only: the heartbeat thread shares the channel.
        with write_lock:
            send(text + "\n")

    def heartbeat(stop: threading.Event) -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            try:
                emit({"hb": time.time()})
            except (OSError, ValueError):
                return                   # client hung up; we exit soon

    try:
        emit({"hello": {"schema": SCHEMA_VERSION, "pid": os.getpid()}})
        for line in lines:
            if not line.strip():
                continue
            try:
                document = json.loads(line)
            except ValueError:
                emit({"error": f"undecodable frame: {line.strip()[:120]!r}"})
                continue
            chaos = (document.get("chaos") if isinstance(document, dict)
                     and "request" in document else None)
            if not isinstance(document, dict) \
                    or not isinstance(chaos, (dict, type(None))):
                emit({"error": f"non-object frame or chaos rider: "
                               f"{line.strip()[:120]!r}"})
                continue
            kind = None if chaos is None else chaos.get("kind")
            if kind == "crash-before":
                crash()
                return
            if kind == "hang":
                # No heartbeats, no progress: indistinguishable from a
                # genuinely wedged worker.  The client's watchdog severs.
                time.sleep(3600)
            stop_beat = threading.Event()
            beat_thread = threading.Thread(target=heartbeat,
                                           args=(stop_beat,), daemon=True)
            beat_thread.start()
            try:
                result = service.run(AnalysisRequest.from_payload(
                    document.get("request", document)))
                envelope = {"ok": result.to_payload()}
            except Exception as exc:  # noqa: BLE001 — reported to the client
                envelope = {"error": f"{type(exc).__name__}: {exc}"}
            finally:
                # Joined before the envelope is emitted, so no stale
                # heartbeat frame ever follows a result on the channel.
                stop_beat.set()
                beat_thread.join(timeout=5)
            if kind == "crash-after":
                crash()
                return
            if kind == "corrupt":
                emit("{corrupt frame" + "x" * 16)
                continue
            emit(envelope)
    except (OSError, ValueError):
        return


def worker_main(argv: list[str] | None = None) -> int:
    """``python -m repro.api.backends --pool-worker``: :func:`serve_frames`
    over stdin/stdout until stdin closes, crashing by ``os._exit``.

    The real stdout fd is kept for the protocol and ``sys.stdout``/fd 1
    are re-pointed at stderr first, so incidental prints (zoo training
    on a cold cache) land in the worker log instead of the channel.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--pool-worker"]:
        print("usage: python -m repro.api.backends --pool-worker (the "
              "framed procpool worker loop on stdin/stdout)",
              file=sys.stderr)
        return 2
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    from .service import ResilienceService

    def send(text: str) -> None:
        channel.write(text)
        channel.flush()

    serve_frames(sys.stdin, send, ResilienceService(use_store=False),
                 crash=lambda: os._exit(17))
    return 0


class ChaosBackend(ExecutionBackend):
    """Deterministic fault-injection wrapper around a real backend.

    Built via ``make_backend("chaos:<inner>", fault_plan=...)``.  Every
    submission is keyed by its request fingerprint: the first time a
    fingerprint is seen it gets the next shard index (first-seen order),
    and each resubmission of the same fingerprint bumps its attempt
    counter — so a :class:`~repro.api.resilience.FaultPlan` matches on
    *(shard, attempt)* coordinates that are stable under any dispatch
    interleaving, making chaos runs reproducible.

    Injection has two paths:

    * **pool inners** (``procpool``/``remote-pool``) — the fault rides
      the wire to the worker and executes there (real crashes, a
      genuinely corrupted protocol frame, a genuinely hung worker for
      the watchdog);
    * **other inners** — the fault is simulated at the dispatch
      boundary (a :class:`~repro.api.resilience.WorkerCrashed` future;
      ``crash-after`` runs the real measurement first, then loses the
      result), exercising the same retry machinery without process
      machinery.  ``hang`` faults *require* a pool inner — there is no
      worker to kill anywhere else, so they are rejected at
      construction.

    ``injected`` counts faults actually fired (a chaos test asserting
    recovery should also assert its faults happened).
    """

    def __init__(self, inner: ExecutionBackend, fault_plan: FaultPlan):
        if not isinstance(fault_plan, FaultPlan):
            raise TypeError(f"fault_plan must be a FaultPlan, "
                            f"got {type(fault_plan).__name__}")
        if any(fault.kind == "hang" for fault in fault_plan.faults) \
                and not isinstance(inner, PoolBackend):
            raise ValueError(
                f"hang faults hold a worker hostage and need a "
                f"worker-owning backend's watchdog to recover "
                f"(procpool or remote-pool); the {inner.name!r} backend "
                f"cannot inject them")
        self.inner = inner
        self.plan = fault_plan
        self.name = f"chaos:{inner.name}"
        self.parallel = inner.parallel
        self.injected = 0
        self._order: dict[str, int] = {}
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def worker_restarts(self) -> int:
        return self.inner.worker_restarts

    def pool_snapshot(self) -> dict:
        return self.inner.pool_snapshot()

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               preempt=None) -> Future:
        fingerprint = request.fingerprint()
        with self._lock:
            shard = self._order.setdefault(fingerprint, len(self._order))
            attempt = self._attempts.get(fingerprint, 0)
            self._attempts[fingerprint] = attempt + 1
            fault = self.plan.fault_for(shard, attempt)
            if fault is not None:
                self.injected += 1
        if fault is None:
            return self.inner.submit(request, runner, on_start=on_start,
                                     preempt=preempt)
        logger.info("chaos: injecting %s on shard %d attempt %d",
                    fault.kind, shard, attempt)
        if isinstance(self.inner, PoolBackend):
            return self.inner.submit(request, runner, on_start=on_start,
                                     preempt=preempt,
                                     chaos=fault.to_payload())
        return self._simulate(fault, request, runner, on_start,
                              shard, attempt)

    def _simulate(self, fault, request: AnalysisRequest, runner: Runner,
                  on_start, shard: int, attempt: int) -> Future:
        """Dispatch-boundary fault simulation for in-process inners."""
        if fault.kind in ("crash-before", "corrupt"):
            noun = ("corrupted result frame" if fault.kind == "corrupt"
                    else "worker crash before measurement")
            failed: Future = Future()
            failed.set_exception(WorkerCrashed(
                f"chaos: injected {noun} on shard {shard} "
                f"attempt {attempt}"))
            return failed
        # crash-after: the measurement really runs, then its result is
        # lost — the replay must still be byte-identical.
        inner = self.inner.submit(request, runner, on_start=on_start)
        outer: Future = Future()

        def lose_result(done: Future) -> None:
            error = done.exception()
            outer.set_exception(error if error is not None else WorkerCrashed(
                f"chaos: injected worker crash after measurement on "
                f"shard {shard} attempt {attempt} (result frame lost)"))

        inner.add_done_callback(lose_result)
        return outer

    def close(self) -> None:
        self.inner.close()


def make_backend(backend: str | ExecutionBackend | None,
                 max_parallel: int | None = None,
                 fault_plan: FaultPlan | None = None,
                 workers=None) -> ExecutionBackend:
    """Build (and validate) an execution backend.

    Loud-error contract (mirrors the CLI's inapplicable-flag rule):
    an unknown name, a non-positive ``max_parallel``, and
    ``max_parallel`` combined with the single-threaded ``inline``
    backend are all rejected here rather than silently ignored.  The
    ``chaos:<inner>`` prefix wraps the named inner backend in
    :class:`ChaosBackend` and **requires** ``fault_plan``; conversely a
    ``fault_plan`` without the chaos prefix (or a prebuilt backend) is
    rejected rather than silently dropped.  ``workers`` (a list of
    ``HOST:PORT`` agent addresses) belongs to the ``remote-pool``
    backend exclusively — required there, rejected everywhere else.
    """
    if max_parallel is not None and max_parallel < 1:
        raise ValueError(f"max_parallel must be >= 1, got {max_parallel}")
    if isinstance(backend, ExecutionBackend):
        if max_parallel is not None and max_parallel != backend.parallel:
            raise ValueError(
                f"max_parallel={max_parallel} conflicts with the prebuilt "
                f"{backend.name!r} backend (parallel={backend.parallel})")
        if workers is not None:
            raise ValueError(
                f"workers= does not apply to the prebuilt "
                f"{backend.name!r} backend (pass the worker set to its "
                f"own constructor)")
        if fault_plan is not None:
            return ChaosBackend(backend, fault_plan)
        return backend
    name = backend or "inline"
    chaos = name.startswith("chaos:")
    if chaos:
        name = name[len("chaos:"):]
        if fault_plan is None:
            raise ValueError(
                f"the chaos:{name} backend wrapper needs a fault_plan= "
                f"(a repro.api.resilience.FaultPlan): chaos without a "
                f"script injects nothing")
    elif fault_plan is not None:
        raise ValueError(
            f"fault_plan only applies to the chaos wrapper; use "
            f"backend='chaos:{name}' to inject faults into the "
            f"{name!r} backend")
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; "
                         f"valid: {list(BACKEND_NAMES)}")
    if workers is not None and name != "remote-pool":
        raise ValueError(
            f"workers= only applies to the remote-pool backend; the "
            f"{name!r} backend owns its own workers (use "
            f"backend='remote-pool' to dispatch to TCP agents)")
    if name == "inline":
        if max_parallel is not None and max_parallel != 1:
            raise ValueError(
                "the inline backend executes on the submitting thread; "
                "max_parallel does not apply (use --backend threads or "
                "procpool for parallel execution)")
        inner: ExecutionBackend = InlineBackend()
    elif name == "threads":
        inner = ThreadBackend(max_parallel or 0)
    elif name == "procpool":
        inner = ProcPoolBackend(max_parallel or 0)
    else:
        inner = RemotePoolBackend(workers or (), max_parallel or 0)
    if chaos:
        return ChaosBackend(inner, fault_plan)
    return inner


if __name__ == "__main__":
    sys.exit(worker_main())
