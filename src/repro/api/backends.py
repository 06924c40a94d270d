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
``subprocess``
    Each measurement runs in a fresh worker process
    (``python -m repro.api.backends <result-path>``) that receives the
    serialised :class:`AnalysisRequest` JSON on stdin and writes
    :class:`AnalysisResult` JSON — the versioned schema exercised as a
    real wire format.  Workers resolve benchmark/zoo refs themselves
    (session refs cannot cross a process boundary and error loudly) and
    run store-less; the parent owns persistence.
``procpool``
    Process isolation without the per-shard spin-up: a pool of
    *persistent* worker processes (``python -m repro.api.backends
    --pool-worker``) speaking the same request/result JSON, one framed
    document per line over stdin/stdout.  Each worker keeps a store-less
    in-process service alive between shards, so the ~1s interpreter
    start-up, the zoo weight load *and* the engine's prefix-activation
    cache are all paid once per worker instead of once per shard.  The
    worker immediately re-points its ``stdout`` at ``stderr`` so
    incidental prints (e.g. a zoo training run on a cold cache) can
    never corrupt the protocol channel.  Crashed workers fail their
    current shard loudly and are replaced on the next borrow.

Progress contract: every ``submit`` accepts an optional ``on_start``
callback invoked when the measurement *actually begins* (on the worker
thread, after any pool queuing) — this is what feeds honest ``started``
events upstream, rather than "was handed to a pool".

Fault tolerance (see :mod:`repro.api.resilience`): worker loss raises
the retryable :class:`~repro.api.resilience.WorkerCrashed` (or
:class:`~repro.api.resilience.WorkerTimeout` when the supervision
watchdog killed a worker past its ``ExecutionOptions.shard_timeout``
deadline or with stale heartbeats), while deterministic refusals stay
bare :class:`~repro.api.resilience.BackendError`.  Procpool workers
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

import json
import logging
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from .request import AnalysisRequest, AnalysisResult
from .resilience import (BackendError, FaultPlan, WorkerCrashed,
                         WorkerPreempted, WorkerSupervisor, WorkerTimeout)

__all__ = ["BACKEND_NAMES", "BackendError", "WorkerCrashed", "WorkerTimeout",
           "WorkerPreempted", "ExecutionBackend", "InlineBackend",
           "ThreadBackend", "SubprocessBackend", "ProcPoolBackend",
           "ChaosBackend", "make_backend"]

logger = logging.getLogger("repro.api.backends")

#: Valid values of the service/CLI ``backend`` knob (each may also be
#: wrapped as ``chaos:<name>`` together with a ``fault_plan``).
#: ``remote-pool`` (see :mod:`repro.api.cluster`) additionally needs a
#: ``workers=`` list of ``HOST:PORT`` agent addresses.
BACKEND_NAMES: tuple[str, ...] = ("inline", "threads", "subprocess",
                                  "procpool", "remote-pool")

#: Default shard concurrency for the parallel backends when the caller
#: does not pass ``max_parallel`` (bounded: sweeps are memory-hungry).
DEFAULT_MAX_PARALLEL = max(2, min(4, os.cpu_count() or 1))

#: Seconds between heartbeat frames a procpool worker emits while a
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
    #: Whether this backend can terminate a running out-of-process
    #: measurement on a :class:`~repro.api.events.PreemptToken` set
    #: (the procpool's supervisor kill path).  In-process backends leave
    #: this False — their measurements observe the token cooperatively
    #: through the sweep engine's checkpoints instead.
    supports_preempt: bool = False

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None) -> Future:
        """Execute ``runner(request)`` (or an equivalent out-of-process
        measurement of ``request``) and return a Future of the result.
        ``on_start`` fires when the measurement actually begins."""
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
               on_start: Callable[[], None] | None = None) -> Future:
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
               on_start: Callable[[], None] | None = None) -> Future:
        return self._ensure_pool().submit(_with_start(runner, on_start),
                                          request)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def _reject_session_ref(backend_name: str, request: AnalysisRequest) -> None:
    if request.model.session is not None:
        raise BackendError(
            f"the {backend_name} backend cannot serve session ref "
            f"{request.model.key!r}: in-memory models do not cross a "
            f"process boundary (use benchmark=/preset= refs, or the "
            f"inline/threads backends)")


class SubprocessBackend(ExecutionBackend):
    """One worker process per measurement, speaking schema-v1 JSON.

    The dispatch threads only block on ``subprocess.run`` (no GIL
    contention), so ``parallel`` workers genuinely overlap.  Workers are
    hermetic: store-less, resolving the model from the shared zoo weight
    cache (``REPRO_ZOO_DIR`` propagates through the environment).
    """

    name = "subprocess"

    def __init__(self, max_parallel: int = 0):
        self.parallel = int(max_parallel) or DEFAULT_MAX_PARALLEL
        self._dispatch = ThreadBackend(self.parallel)

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None) -> Future:
        _reject_session_ref(self.name, request)
        return self._dispatch.submit(request, _run_in_worker,
                                     on_start=on_start)

    def close(self) -> None:
        self._dispatch.close()


class _PoolWorker:
    """One persistent ``--pool-worker`` process of the procpool backend.

    The worker heartbeats while a measurement is in flight (``{"hb": t}``
    frames interleaved with the result envelope); :meth:`measure` skips
    them, refreshing :attr:`last_beat` — the supervision watchdog's
    staleness signal.  :meth:`kill` is the watchdog's teardown: it notes
    *why* before SIGKILLing, so the read loop (which then observes EOF)
    can raise :class:`~repro.api.resilience.WorkerTimeout` instead of a
    plain crash.
    """

    def __init__(self):
        handle, self.stderr_path = tempfile.mkstemp(
            prefix="repro-poolworker-", suffix=".log")
        self._stderr = os.fdopen(handle, "w")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.api.backends", "--pool-worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=self._stderr, text=True, env=_worker_env())
        except BaseException:
            # A failed spawn must not strand the log fd or its file.
            self._stderr.close()
            os.remove(self.stderr_path)
            raise
        self.last_beat = time.monotonic()
        self.killed_reason: str | None = None
        self.killed_preempted = False

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self, reason: str, *, preempted: bool = False) -> None:
        """Watchdog/scheduler teardown: record the verdict, then SIGKILL.

        ``preempted`` marks a fair-scheduler kill (a healthy worker shot
        to free its slot) so the read loop classifies the loss as
        :class:`~repro.api.resilience.WorkerPreempted` rather than a
        timeout.
        """
        self.killed_reason = reason
        self.killed_preempted = preempted
        try:
            self.process.kill()
        except OSError:
            pass

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        try:
            with open(self.stderr_path) as stream:
                return stream.read().strip()[-2000:]
        except OSError:
            return ""

    def _lost(self, detail: str) -> BackendError:
        """The channel broke: classify watchdog kill vs spontaneous death."""
        if self.killed_reason is not None:
            if self.killed_preempted:
                return WorkerPreempted(self.killed_reason)
            return WorkerTimeout(self.killed_reason)
        return WorkerCrashed(detail)

    def measure(self, request: AnalysisRequest,
                chaos: dict | None = None) -> AnalysisResult:
        """One framed request/response round trip (raises on crash).

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
            self.process.stdin.write(frame + "\n")
            self.process.stdin.flush()
            while True:
                line = self.process.stdout.readline()
                if not line:
                    code = self.process.poll()
                    raise self._lost(
                        f"procpool worker exited (status {code}) mid-request"
                        + (f":\n{self._stderr_tail()}" if self._stderr_tail()
                           else ""))
                try:
                    envelope = json.loads(line)
                except ValueError:
                    raise WorkerCrashed(
                        f"procpool worker emitted a corrupted frame "
                        f"({line.strip()[:120]!r}); worker log tail:\n"
                        f"{self._stderr_tail()}") from None
                if "hb" in envelope:
                    self.last_beat = time.monotonic()
                    continue
                if "error" in envelope:
                    raise BackendError(
                        f"procpool worker failed: {envelope['error']}")
                return AnalysisResult.from_payload(envelope["ok"])
        except (OSError, ValueError) as exc:
            raise self._lost(
                f"procpool worker pipe failed ({exc}); "
                f"worker log tail:\n{self._stderr_tail()}") from None

    def close(self) -> None:
        try:
            if self.alive():
                self.process.stdin.close()   # EOF -> worker loop exits
                self.process.wait(timeout=5)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.process.kill()
        finally:
            self._stderr.close()
            if os.path.exists(self.stderr_path):
                os.remove(self.stderr_path)


class ProcPoolBackend(ExecutionBackend):
    """Warm process pool: persistent workers speaking request/result JSON.

    Workers are spawned lazily (first borrow) and reused across shards,
    amortising the interpreter spin-up, zoo weight load and engine
    prefix-cache that :class:`SubprocessBackend` pays per shard.  A
    worker that crashes fails its current shard with the retryable
    :class:`~repro.api.resilience.WorkerCrashed` and is simply not
    returned to the idle pool — the next borrow spawns a replacement
    (counted in :attr:`worker_restarts`, surfaced via
    ``queue_snapshot()`` and ``/v1/health``).

    Supervision: every in-flight measurement is watched by a
    :class:`~repro.api.resilience.WorkerSupervisor` — a wall-clock
    deadline when the request carries ``options.shard_timeout``, and
    heartbeat staleness (``heartbeat_grace`` seconds without a worker
    heartbeat frame) always.  A tripped watchdog SIGKILLs the worker,
    whose read loop then raises
    :class:`~repro.api.resilience.WorkerTimeout` — retryable, so the
    shard requeues on a fresh worker.

    Elasticity: the pool grows on demand toward ``max_parallel`` (a
    borrow with no idle worker spawns one) and shrinks when quiet —
    workers idle longer than ``idle_ttl`` seconds are reaped on the next
    borrow/return (or an explicit :meth:`reap_idle`), releasing their
    memory-hungry model weights.  :meth:`pool_snapshot` surfaces the
    live size/busy/idle counts plus cumulative spawn/reap counters into
    ``queue_snapshot()`` and ``/v1/health``.

    Preemption: ``supports_preempt`` is True — ``submit`` accepts a
    :class:`~repro.api.events.PreemptToken` and registers a kill hook so
    a fair-scheduler preempt SIGKILLs the borrowed worker immediately;
    the read loop then raises
    :class:`~repro.api.resilience.WorkerPreempted` (a
    :class:`~repro.api.resilience.WorkerTimeout` subclass the service
    intercepts *before* the retry layer — preemption is not a fault and
    burns no retry budget).

    **Lock ordering** (checked by ``repro lint`` and the runtime lock
    witness): ``_lock`` is a leaf guarding the idle list and the
    spawn/reap/busy counters.  Borrow/return take it in short bursts
    and **drop it before any blocking call** — spawning a worker,
    writing a frame, killing a process, or joining the supervisor
    (:class:`~repro.api.resilience.WorkerSupervisor` has its own leaf
    lock; the two are never held together).  ``reap_idle`` collects
    victims under ``_lock`` and closes them after releasing it.  Never
    call into a worker or another component while holding ``_lock``.
    """

    name = "procpool"
    supports_preempt = True
    #: Scripted chaos faults ride the wire and execute inside the worker
    #: (the :class:`ChaosBackend` real-injection path); the TCP
    #: remote-pool backend advertises the same flag.
    chaos_rider = True

    def __init__(self, max_parallel: int = 0, *,
                 heartbeat_grace: float | None = 10.0,
                 poll_interval: float = 0.1,
                 idle_ttl: float | None = 300.0):
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError(f"idle_ttl must be positive or None, "
                             f"got {idle_ttl}")
        self.parallel = int(max_parallel) or DEFAULT_MAX_PARALLEL
        self.heartbeat_grace = heartbeat_grace
        self.idle_ttl = idle_ttl
        self._dispatch = ThreadBackend(self.parallel)
        self._supervisor = WorkerSupervisor(poll_interval=poll_interval)
        #: (worker, idled_at) pairs, oldest first at index 0.
        self._idle: list[tuple[_PoolWorker, float]] = []
        self._lock = threading.Lock()
        self._closed = False
        self._restarts = 0
        self._spawned = 0
        self._reaped = 0
        self._busy = 0

    @property
    def worker_restarts(self) -> int:
        """Cumulative crashed/killed-worker replacements."""
        with self._lock:
            return self._restarts

    def pool_snapshot(self) -> dict:
        """Live pool shape for health/queue surfaces."""
        with self._lock:
            idle = len(self._idle)
            busy = self._busy
            return {"size": idle + busy, "busy": busy, "idle": idle,
                    "max": self.parallel, "spawned": self._spawned,
                    "reaped": self._reaped, "idle_ttl": self.idle_ttl}

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               chaos: dict | None = None, preempt=None) -> Future:
        _reject_session_ref(self.name, request)

        def run(req: AnalysisRequest, _chaos=chaos,
                _preempt=preempt) -> AnalysisResult:
            return self._run_on_worker(req, chaos=_chaos, preempt=_preempt)

        return self._dispatch.submit(request, run, on_start=on_start)

    def reap_idle(self, now: float | None = None) -> int:
        """Close idle workers past :attr:`idle_ttl`; returns the count."""
        if self.idle_ttl is None:
            return 0
        now = time.monotonic() if now is None else now
        expired: list[_PoolWorker] = []
        with self._lock:
            while self._idle and now - self._idle[0][1] >= self.idle_ttl:
                expired.append(self._idle.pop(0)[0])
            self._reaped += len(expired)
        for worker in expired:
            worker.close()
        if expired:
            logger.info("procpool reaped %d idle worker(s) past the %.0fs "
                        "TTL", len(expired), self.idle_ttl)
        return len(expired)

    def _borrow(self) -> _PoolWorker:
        self.reap_idle()
        with self._lock:
            if self._closed:
                raise BackendError("procpool backend is closed")
            self._busy += 1
            while self._idle:
                worker, _ = self._idle.pop()      # newest first: warmest
                if worker.alive():
                    return worker
                worker.close()
            self._spawned += 1
        try:
            return _PoolWorker()
        except BaseException:
            with self._lock:
                self._busy -= 1
            raise

    def _run_on_worker(self, request: AnalysisRequest,
                       chaos: dict | None = None,
                       preempt=None) -> AnalysisResult:
        if preempt is not None and preempt.is_set():
            raise WorkerPreempted(preempt.reason or
                                  "shard preempted before dispatch")
        worker = self._borrow()
        describe = f"shard {request.fingerprint()[:12]}"
        timeout = request.options.shard_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        token = self._supervisor.watch(
            kill=worker.kill, describe=describe, deadline=deadline,
            beat=lambda: worker.last_beat, grace=self.heartbeat_grace)
        hook = None
        if preempt is not None:
            def hook(reason, _worker=worker):
                _worker.kill(reason or "shard preempted", preempted=True)
            preempt.add_hook(hook)
        try:
            result = worker.measure(request, chaos=chaos)
        except BaseException as error:
            worker.close()               # never reuse a suspect worker
            with self._lock:
                self._busy -= 1
            if isinstance(error, WorkerCrashed) \
                    and not isinstance(error, WorkerPreempted):
                with self._lock:
                    self._restarts += 1
                    restarts = self._restarts
                logger.warning(
                    "procpool worker lost on %s (%s: %s); replacement "
                    "spawns on next borrow (worker_restarts=%d)",
                    describe, type(error).__name__, error, restarts)
            raise
        finally:
            if hook is not None:
                preempt.remove_hook(hook)
            self._supervisor.unwatch(token)
        with self._lock:
            self._busy -= 1
            if not self._closed:
                self._idle.append((worker, time.monotonic()))
                worker = None
        if worker is not None:
            worker.close()
        return result

    def close(self) -> None:
        self._dispatch.close()           # waits for in-flight borrows
        self._supervisor.close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker, _ in idle:
            worker.close()


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


def _run_in_worker(request: AnalysisRequest) -> AnalysisResult:
    """Measure ``request`` in a fresh worker process (wire-format round trip).

    The result travels through a temp file rather than stdout so that
    incidental prints inside the worker (e.g. a zoo training run on a
    cold weight cache) cannot corrupt the payload.
    """
    handle, result_path = tempfile.mkstemp(prefix="repro-worker-",
                                           suffix=".json")
    os.close(handle)
    timeout = request.options.shard_timeout
    try:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.api.backends", result_path],
                input=request.to_json(), capture_output=True, text=True,
                env=_worker_env(), timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerTimeout(
                f"analysis worker exceeded the {timeout}s shard deadline "
                f"and was killed") from None
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            # A negative status means the process died on a signal
            # (OOM-kill, segfault) — infrastructure, hence retryable; a
            # positive one is the worker reporting a deterministic
            # measurement error.
            error_cls = WorkerCrashed if proc.returncode < 0 else BackendError
            raise error_cls(
                f"analysis worker exited with status {proc.returncode}"
                + (f":\n{detail[-2000:]}" if detail else ""))
        with open(result_path) as stream:
            return AnalysisResult.from_json(stream.read())
    finally:
        if os.path.exists(result_path):
            os.remove(result_path)


def _heartbeat_loop(emit: Callable[[dict], None],
                    stop: threading.Event) -> None:
    """Worker-side heartbeat thread body: one ``{"hb": t}`` frame per
    :data:`HEARTBEAT_INTERVAL` while a measurement is in flight."""
    while not stop.wait(HEARTBEAT_INTERVAL):
        try:
            emit({"hb": time.time()})
        except (OSError, ValueError):
            return                       # parent hung up; we exit soon


def _pool_worker_main() -> int:
    """``python -m repro.api.backends --pool-worker`` — persistent loop.

    Serves framed measurements until stdin closes: one request JSON per
    line in, one ``{"ok": <result payload>}`` or ``{"error": <message>}``
    envelope per line out — plus ``{"hb": t}`` heartbeat frames while a
    measurement runs, so the parent's watchdog can tell *hung* from
    *slow*.  A frame may also be an envelope ``{"request": ..,
    "chaos": ..}`` carrying a scripted fault to execute in-process (the
    chaos harness's real-injection path): crash before/after the
    measurement (``os._exit``), emit a corrupted result frame, or hang
    without heartbeats until the watchdog kills us.  The real stdout fd
    is captured for the protocol and ``sys.stdout``/fd 1 are re-pointed
    at stderr first, so incidental prints inside measurement code (zoo
    training on a cold cache, progress chatter) land in the log instead
    of the channel.

    One store-less service lives for the whole loop: shards of the same
    model reuse its engine cache — the warmth the backend exists for.
    """
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    from .service import ResilienceService
    service = ResilienceService(use_store=False)
    write_lock = threading.Lock()

    def emit(document) -> None:
        text = (document if isinstance(document, str)
                else json.dumps(document, sort_keys=True))
        with write_lock:
            # lint: allow(lock-blocking-call): serializing this write IS the lock's job — the heartbeat thread shares the channel
            channel.write(text + "\n")
            # lint: allow(lock-blocking-call): the flush completes the frame the lock serializes
            channel.flush()

    for line in sys.stdin:
        if not line.strip():
            continue
        document = json.loads(line)
        chaos = document.get("chaos") if "request" in document else None
        payload = document.get("request", document)
        kind = chaos["kind"] if chaos is not None else None
        if kind == "crash-before":
            os._exit(17)
        if kind == "hang":
            # No heartbeats, no progress: indistinguishable from a
            # genuinely wedged worker.  The parent watchdog kills us.
            time.sleep(3600)
        stop_beat = threading.Event()
        beat_thread = threading.Thread(target=_heartbeat_loop,
                                       args=(emit, stop_beat), daemon=True)
        beat_thread.start()
        try:
            result = service.run(AnalysisRequest.from_payload(payload))
            envelope = {"ok": result.to_payload()}
        except Exception as exc:  # noqa: BLE001 — reported to the parent
            envelope = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            # Joined before the envelope is emitted, so no stale
            # heartbeat frame ever follows a result on the channel.
            stop_beat.set()
            beat_thread.join(timeout=5)
        if kind == "crash-after":
            os._exit(17)
        if kind == "corrupt":
            emit("{corrupt frame" + "x" * 16)
            continue
        emit(envelope)
    return 0


def worker_main(argv: list[str] | None = None) -> int:
    """``python -m repro.api.backends <result-path>`` — the worker body.

    Reads one :class:`AnalysisRequest` JSON document on stdin, measures
    it with a store-less inline service, writes the
    :class:`AnalysisResult` JSON to ``<result-path>``.  With
    ``--pool-worker`` instead, serves the procpool's persistent framed
    loop (see :func:`_pool_worker_main`).
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--pool-worker"]:
        return _pool_worker_main()
    if len(argv) != 1:
        print("usage: python -m repro.api.backends <result-path> "
              "(request JSON on stdin), or --pool-worker for the "
              "persistent procpool loop", file=sys.stderr)
        return 2
    from .service import ResilienceService
    request = AnalysisRequest.from_json(sys.stdin.read())
    service = ResilienceService(use_store=False)
    result = service.run(request)
    with open(argv[0], "w") as stream:
        stream.write(result.to_json())
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

    * **procpool inner** — the fault rides the wire to the worker and
      executes there (real ``os._exit`` crashes, a genuinely corrupted
      protocol frame, a genuinely hung process for the watchdog);
    * **other inners** — the fault is simulated at the dispatch
      boundary (a :class:`~repro.api.resilience.WorkerCrashed` future;
      ``crash-after`` runs the real measurement first, then loses the
      result), exercising the same retry machinery without process
      machinery.  ``hang`` faults *require* the procpool inner — there
      is no process to kill anywhere else, so they are rejected at
      construction.

    ``injected`` counts faults actually fired (a chaos test asserting
    recovery should also assert its faults happened).
    """

    def __init__(self, inner: ExecutionBackend, fault_plan: FaultPlan):
        if not isinstance(fault_plan, FaultPlan):
            raise TypeError(f"fault_plan must be a FaultPlan, "
                            f"got {type(fault_plan).__name__}")
        if any(fault.kind == "hang" for fault in fault_plan.faults) \
                and not getattr(inner, "chaos_rider", False):
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
        return int(getattr(self.inner, "worker_restarts", 0) or 0)

    @property
    def supports_preempt(self) -> bool:
        return bool(getattr(self.inner, "supports_preempt", False))

    def pool_snapshot(self) -> dict:
        snapshot = getattr(self.inner, "pool_snapshot", None)
        return snapshot() if callable(snapshot) else {}

    def submit(self, request: AnalysisRequest, runner: Runner, *,
               on_start: Callable[[], None] | None = None,
               preempt=None) -> Future:
        fingerprint = request.fingerprint()
        kwargs = {"on_start": on_start}
        if preempt is not None and self.supports_preempt:
            kwargs["preempt"] = preempt
        with self._lock:
            shard = self._order.setdefault(fingerprint, len(self._order))
            attempt = self._attempts.get(fingerprint, 0)
            self._attempts[fingerprint] = attempt + 1
            fault = self.plan.fault_for(shard, attempt)
            if fault is not None:
                self.injected += 1
        if fault is None:
            return self.inner.submit(request, runner, **kwargs)
        logger.info("chaos: injecting %s on shard %d attempt %d",
                    fault.kind, shard, attempt)
        if getattr(self.inner, "chaos_rider", False):
            return self.inner.submit(request, runner,
                                     chaos=fault.to_payload(), **kwargs)
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
    if name == "remote-pool":
        from .cluster import RemotePoolBackend
        inner: ExecutionBackend = RemotePoolBackend(workers or (),
                                                    max_parallel or 0)
        if chaos:
            return ChaosBackend(inner, fault_plan)
        return inner
    if name == "inline":
        if max_parallel is not None and max_parallel != 1:
            raise ValueError(
                "the inline backend executes on the submitting thread; "
                "max_parallel does not apply (use --backend threads or "
                "subprocess for parallel execution)")
        inner: ExecutionBackend = InlineBackend()
    elif name == "threads":
        inner = ThreadBackend(max_parallel or 0)
    elif name == "procpool":
        inner = ProcPoolBackend(max_parallel or 0)
    else:
        inner = SubprocessBackend(max_parallel or 0)
    if chaos:
        return ChaosBackend(inner, fault_plan)
    return inner


if __name__ == "__main__":
    sys.exit(worker_main())
