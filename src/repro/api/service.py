"""The job-oriented analysis service fronting the sweep machinery.

:class:`ResilienceService` turns declarative
:class:`~repro.api.request.AnalysisRequest` jobs into
:class:`~repro.api.request.AnalysisResult` responses while owning every
piece of lifecycle the one-shot scripts used to hand-thread:

* **Model/zoo resolution** — benchmark and zoo refs resolve through
  :mod:`repro.zoo` once and stay resident; in-memory models register as
  named *sessions* (:meth:`register`).
* **Engine reuse** — one :class:`~repro.core.sweep.SweepEngine` per
  (model ref, eval subset, execution options), so the prefix-activation
  cache built by one request (e.g. the Fig. 9 group sweep) is reused by
  the next (the Fig. 10 layer refinement) exactly as the methodology's
  Steps 2+4 always shared an engine.
* **Result persistence** — results land in a content-addressed
  :class:`~repro.api.store.ResultStore` keyed by request fingerprint ×
  model CRC × dataset CRC, so repeated artifact runs are cache hits and
  mutated models auto-invalidate.
* **In-flight deduplication** — identical concurrent submissions share
  one execution (the winner computes, the rest share its future).
* **Futures-first execution** — :meth:`submit`/:meth:`submit_many`
  return :class:`AnalysisHandle` objects immediately; *where* the
  measurement runs is a pluggable :mod:`~repro.api.backends` backend
  (``inline`` — the blocking equivalence reference, ``threads`` —
  cross-request parallelism, ``procpool``/``remote-pool`` — one warm
  worker pool over child processes or TCP agents).
  :meth:`run`/:meth:`run_many` are the thin blocking wrappers with the
  pre-redesign call semantics.
* **Sharding** — the scheduler (:mod:`~repro.api.scheduler`) splits
  multi-target requests into per-target (optionally NM-chunked) shards
  on parallel backends and merges them byte-identically, with the store
  deduplicating shards shared between overlapping requests.
* **Progressive results** — every accepted submission owns a typed
  :class:`~repro.api.events.EventLog` (``queued``/``started``/
  ``shard_done``/``progress``/``done``/``error``/``cancelled``);
  :meth:`AnalysisHandle.events` streams it, and
  :meth:`AnalysisHandle.partial` snapshots the **merged-so-far**
  :class:`~repro.api.request.PartialResult` the moment any shard lands.
  The final merge is the same code path as ever, so streamed curves end
  byte-identical to the blocking result.
* **Cancellation** — :meth:`AnalysisHandle.cancel` sets the shard
  group's cooperative :class:`~repro.api.events.CancelToken`: queued
  shards drop without starting, running in-process shards stop at the
  next :class:`~repro.core.sweep.SweepEngine` stage boundary, and the
  handle resolves with :class:`~repro.api.events.AnalysisCancelled`.
  Nothing incomplete is ever persisted, so a cancelled-then-resubmitted
  request reproduces the uncancelled curves exactly.
* **Backpressure** — dispatch flows through a bounded priority
  :class:`~repro.api.scheduler.ShardQueue`; with ``queue_limit`` set, a
  saturated service refuses new submissions with
  :class:`~repro.api.scheduler.QueueFull` (HTTP 429 + ``Retry-After``
  upstream) instead of queuing unboundedly, and ``priority=`` lets
  urgent triage requests overtake queued batch work.
* **Multi-tenancy** — requests carrying ``options.client_id`` dispatch
  through per-tenant sub-queues drained by deficit round-robin
  (``tenant_weights`` sets the shares), so one tenant's 36-shard batch
  cannot head-of-line-block another tenant's single-target request.
  With ``starvation_threshold`` set, a tenant starved past it preempts
  a running lower-priority shard at the sweep engine's next checkpoint:
  the measured-so-far points are parked, a remainder request covering
  only the unmeasured points requeues, and the assembled result is
  byte-identical to an unpreempted run (stateless noise streams).
  Preemption is not a fault — it burns no retry budget and never feeds
  the degradation tracker.

Concurrency model: submission is thread-safe; engines serialise
themselves (per-engine locks in :class:`~repro.core.sweep.SweepEngine`),
so independent models sweep concurrently while a warm store hit never
touches any engine lock at all.  The hook stack and autograd mode are
thread-local, so worker threads cannot contaminate each other.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import threading
import time
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..core.noise import site_matcher
from ..core.resilience import ResilienceCurve, ResiliencePoint
from ..core.sweep import (SweepCancelled, SweepEngine, SweepPreempted,
                          SweepTarget, model_fingerprint)
from ..data import Dataset
from ..nn import hooks
from ..nn.hooks import HookRegistry, use_registry
from ..train import evaluate_accuracy
from .backends import ExecutionBackend, ThreadBackend, make_backend
from .events import AnalysisCancelled, CancelToken, EventLog, PreemptToken
from .request import AnalysisRequest, AnalysisResult, ModelRef, PartialResult
from .resilience import (AttemptRecord, BackendError, FaultPlan, RetryPolicy,
                         ServiceHealth, ShardPoisoned, WorkerPreempted,
                         retry_call)
from .scheduler import ShardQueue, merge_partial, merge_shards, plan_shards
from .store import ResultStore, store_key

__all__ = ["ResolvedModel", "ServiceStats", "ShardProgress",
           "AnalysisHandle", "ResilienceService", "default_service",
           "dataset_fingerprint"]

logger = logging.getLogger("repro.api.service")


def dataset_fingerprint(dataset: Dataset) -> int:
    """CRC over the evaluated images and labels."""
    crc = zlib.crc32(np.ascontiguousarray(dataset.images))
    return zlib.crc32(np.ascontiguousarray(dataset.labels), crc)


@dataclass
class ResolvedModel:
    """A lazily-loaded (model, full test set) pair behind a :class:`ModelRef`.

    Laziness is what makes warm store hits fast: serving a cached zoo
    request needs the model weights (for the CRC half of the store key)
    but *not* the synthetic test split, whose regeneration costs more
    than the sweep bookkeeping itself.  Zoo splits therefore carry a
    ``dataset_descriptor`` (a stable identity string) so the key can be
    computed without materialising pixels; session datasets are already
    in memory and fingerprint by content (descriptor ``None``).
    """

    ref: ModelRef
    load_model: object            # () -> model
    load_test_set: object         # () -> Dataset
    dataset_descriptor: str | None = None
    _model: object = None
    _test_set: Dataset | None = None

    @property
    def model(self):
        if self._model is None:
            self._model = self.load_model()
        return self._model

    @property
    def test_set(self) -> Dataset:
        if self._test_set is None:
            self._test_set = self.load_test_set()
        return self._test_set

    def eval_set(self, eval_samples: int | None) -> Dataset:
        if eval_samples is None:
            return self.test_set
        return self.test_set.subset(eval_samples)


@dataclass
class ServiceStats:
    """Observable counters (used by tests and ``--json`` consumers)."""

    submitted: int = 0
    store_hits: int = 0        # whole requests served from the store
    deduplicated: int = 0      # requests that joined an in-flight future
    executed: int = 0          # requests actually measured
    sweeps: int = 0            # in-process engine.sweep calls issued
    shards: int = 0            # shard executions dispatched to the backend
    shard_store_hits: int = 0  # shards served from the store (dedup layer)
    cancelled: int = 0         # requests resolved via cancellation
    rejected: int = 0          # submissions refused by queue backpressure
    preempted: int = 0         # shard parks taken for starved tenants


class ShardProgress:
    """Shard counters shared by every handle of one execution."""

    def __init__(self, total: int = 1):
        self._lock = threading.Lock()
        self.total = total
        self.started = 0
        self.done = 0

    def set_total(self, total: int) -> None:
        with self._lock:
            self.total = total

    def mark_started(self, n: int = 1) -> None:
        with self._lock:
            self.started += n

    def mark_done(self, n: int = 1) -> None:
        with self._lock:
            self.done += n

    def snapshot(self) -> dict:
        with self._lock:
            return {"shards_total": self.total,
                    "shards_started": self.started,
                    "shards_done": self.done}


class AnalysisHandle:
    """One submitted request on its way to (or already holding) a result.

    The futures-first face of the service: ``submit`` returns
    immediately with one of these; :meth:`result` blocks, :meth:`done`
    and :meth:`status` poll, :attr:`progress` exposes shard counters,
    :meth:`events` streams the typed lifecycle log, :meth:`partial`
    snapshots the merged-so-far curves, and :meth:`cancel` requests
    cooperative cancellation of the whole shard group.  Handles of
    deduplicated submissions share the winner's future, progress and
    event log.
    """

    #: Status vocabulary, also used verbatim by the HTTP server.
    STATUSES = ("pending", "running", "done", "cached", "error", "cancelled")

    def __init__(self, request: AnalysisRequest, key: str, future: Future,
                 progress: ShardProgress, *, events: EventLog | None = None,
                 partial_fn=None, cancel_fn=None):
        self.request = request
        self.key = key
        self._future = future
        self._progress = progress
        self._events = events
        self._partial_fn = partial_fn
        self._cancel_fn = cancel_fn

    def done(self) -> bool:
        """Whether a result (or an error) is available without blocking."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> AnalysisResult:
        """Block until the result is available (re-raising any error;
        a cancelled submission raises :class:`~repro.api.events.
        AnalysisCancelled`)."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None):
        """The execution's exception, or ``None`` (blocks like
        :meth:`result`)."""
        return self._future.exception(timeout)

    def status(self) -> str:
        """One of :data:`STATUSES`; ``cached`` means a store hit."""
        if self._future.done():
            error = self._future.exception()
            if error is not None:
                return ("cancelled" if isinstance(error, AnalysisCancelled)
                        else "error")
            return "cached" if self._future.result().from_cache else "done"
        if self._progress.snapshot()["shards_started"] > 0:
            return "running"
        return "pending"

    @property
    def progress(self) -> dict:
        """Shard counters: ``shards_total``/``started``/``done``."""
        return self._progress.snapshot()

    # --------------------------------------------------------- progressive
    def events(self, after: int = 0, timeout: float | None = None, *,
               embed_partial: bool = True):
        """Stream this submission's :class:`~repro.api.events.
        AnalysisEvent` records (``seq > after``) until the terminal
        event (or ``timeout`` seconds of silence — resume with
        ``after=<last seen seq>``).  Replays losslessly: a consumer that
        attaches after completion still sees the full history.
        ``embed_partial=False`` slims each ``shard_done`` to a
        ``partial_superseded_by`` pointer instead of the embedded
        merged-so-far payload (fetch :meth:`partial` for the snapshot).
        """
        if self._events is not None:
            yield from self._events.stream(after=after, timeout=timeout,
                                           embed_partial=embed_partial)
            return
        # Handles without a log (joined onto a bare in-flight shard
        # future): degrade to one synthesised terminal event.
        if after >= 1:
            return
        try:
            error = self._future.exception(timeout)
        except TimeoutError:
            return
        log = EventLog(self.key)
        if error is None:
            kind, payload = "done", {"from_cache":
                                     self._future.result().from_cache}
        elif isinstance(error, AnalysisCancelled):
            kind, payload = "cancelled", {"message": str(error)}
        else:
            kind, payload = "error", {"message": str(error)}
        yield log.emit(kind, payload)

    def partial(self) -> PartialResult:
        """The merged-so-far :class:`~repro.api.request.PartialResult`.

        Monotonic: successive snapshots only ever gain (target, NM)
        points, and the complete snapshot's curves are byte-identical to
        :meth:`result`'s.
        """
        if self._partial_fn is not None:
            return self._partial_fn()
        if self._future.done() and self._future.exception() is None:
            return PartialResult.from_result(
                self._future.result(),
                shards_total=max(1, self._progress.snapshot()["shards_total"]))
        return PartialResult(
            request=self.request, curves={},
            shards_total=max(1, self._progress.snapshot()["shards_total"]),
            shards_done=0)

    def cancel(self) -> bool:
        """Request cooperative cancellation of this submission.

        Returns ``True`` when cancellation was initiated, ``False`` when
        the request already resolved (done/cached/error — a no-op) or the
        handle has no execution to cancel.  Queued shards drop without
        starting; running in-process shards stop at the engine's next
        stage boundary; the handle then resolves with
        :class:`~repro.api.events.AnalysisCancelled`.  Note that
        cancellation propagates to every handle sharing this execution
        (deduplicated submissions, batched group members).
        """
        if self._future.done() or self._cancel_fn is None:
            return False
        return self._cancel_fn()


def _resolved_future(result: AnalysisResult) -> Future:
    future: Future = Future()
    future.set_result(result)
    return future


def _cached_handle(request: AnalysisRequest, key: str,
                   result: AnalysisResult) -> AnalysisHandle:
    """A pre-resolved handle for a store hit (closed event log)."""
    log = EventLog.resolved(key, "done", {"from_cache": True})
    return AnalysisHandle(
        request, key, _resolved_future(result), ShardProgress(),
        events=log, partial_fn=lambda: PartialResult.from_result(result))


@dataclass
class _GroupRun:
    """Shared execution state of one batched shard group.

    ``shards``/``results`` are parallel lists in plan order (``None``
    until a shard completes); ``token`` is the group's cooperative
    cancellation flag.  Every job of the group points here, which is
    what makes partial snapshots and cancellation group-wide.
    """

    token: CancelToken = field(default_factory=CancelToken)
    shards: list = field(default_factory=list)
    results: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)
    degraded_announced: bool = False

    def record(self, index: int, result: AnalysisResult) -> None:
        with self.lock:
            self.results[index] = result

    def completed(self) -> list:
        with self.lock:
            return list(self.results)

    def announce_degraded_once(self) -> bool:
        """True exactly once per group (gates the ``degraded`` event)."""
        with self.lock:
            if self.degraded_announced:
                return False
            self.degraded_announced = True
            return True


@dataclass
class _Job:
    """One accepted (store-missed, non-duplicate) request."""

    index: int
    request: AnalysisRequest
    resolved: ResolvedModel
    model_crc: int
    dataset_crc: int
    key: str
    priority: int = 0
    future: Future = field(default_factory=Future)
    progress: ShardProgress = field(default_factory=ShardProgress)
    events: EventLog | None = None
    run: _GroupRun | None = None

    @property
    def batch_key(self) -> tuple:
        """Requests sharing this key merge into one execution group."""
        r = self.request
        return (self.resolved.ref.key, self.dataset_crc, r.eval_samples,
                r.noise, r.nm_values, r.na, r.seed, r.baseline_accuracy,
                r.options, self.priority)


@dataclass
class _InflightEntry:
    """What the in-flight map shares with duplicate submissions."""

    future: Future
    progress: ShardProgress
    job: _Job | None = None


class _ShardRun:
    """One shard's fault-tolerant execution, resolved through one future.

    Owns everything a shard needs between dispatch and result: its
    attempt records, the points parked by preemption, the started flag
    and :attr:`future`.  A shard is *queued or running* (one attempt in
    the shard queue, or on the degraded fallback), *backing off* (a
    timer waits out the retry delay) or *resolved*.  Each transition is
    one method:

    * :meth:`start` begins an attempt.  A set cancel token resolves
      :class:`~repro.api.events.AnalysisCancelled`.  A degraded service
      measures the whole shard on the in-process fallback.  Otherwise
      :meth:`_launch` queues it with a fresh
      :class:`~repro.api.events.PreemptToken`.
    * :meth:`_done` takes one segment's outcome.  Success merges the
      parked points into the full-shard result.  A preemption parks the
      measured points and requeues only the unmeasured remainder inside
      the same attempt, so it never spends retry budget or feeds
      :class:`~repro.api.resilience.ServiceHealth`.  Anything else is an
      attempt failure.
    * :meth:`_failed` records the :class:`~repro.api.resilience.
      AttemptRecord`.  A retryable failure within ``max_retries``
      announces ``shard_retry`` and relaunches the **full** shard with
      an empty park after the :class:`~repro.api.resilience.RetryPolicy`
      backoff (so chaos (shard, attempt) coordinates never move).
      Otherwise the error resolves the run, as
      :class:`~repro.api.resilience.ShardPoisoned` once the budget is
      spent.
    * :meth:`_resolve` feeds the health tracker once.  For a sharded
      sub-request that owns an in-flight ``key``, it then checks
      provenance, persists the result and releases the key.  Last, it
      sets :attr:`future`.

    :meth:`_done` and :meth:`start` run as future and timer callbacks,
    so every failure they meet is delivered through :attr:`future`.
    """

    def __init__(self, service: ResilienceService, shard: AnalysisRequest,
                 group: list[_Job], index: int, key: str | None = None):
        self.service = service
        self.shard = shard
        self.group = group
        self.index = index
        self.key = key
        self.run = group[0].run
        self.token = self.run.token if self.run is not None else None
        self.describe = f"{shard.fingerprint()[:12]}#{index}"
        self.future: Future = Future()
        self.progress = ShardProgress()       # what in-flight joiners see
        self.attempts: list[AttemptRecord] = []
        self.parked: dict = {}            # (target.key, nm) -> ResiliencePoint
        self.started = False
        self._began = 0.0

    # ----------------------------------------------------------- transitions
    def start(self) -> None:
        """Begin one attempt (the backoff timer's target too)."""
        if self.token is not None and self.token.is_set():
            self._resolve(AnalysisCancelled(
                f"shard {self.describe} cancelled between retry attempts"))
            return
        self._began = time.monotonic()
        self.parked = {}
        degraded = self.service.health.degraded
        if degraded:
            self._announce_degraded()
        self._launch(self.shard, degraded=degraded)

    def _launch(self, request: AnalysisRequest, *,
                degraded: bool = False) -> None:
        """Queue one segment with a fresh preempt token, or run it on the
        in-process fallback (byte-identical: noise streams are stateless)."""
        service = self.service
        on_start = None if self.started else self._mark_started
        preempt = None if degraded else PreemptToken()
        runner = functools.partial(service._measure, cancel=self.token,
                                   preempt=preempt)
        try:
            if degraded:
                inner = service._degraded_backend.submit(
                    request, runner, on_start=on_start)
            else:
                inner = service.queue.submit(
                    request, runner, priority=self.group[0].priority,
                    cancel=self.token, on_start=on_start, preempt=preempt)
        except BaseException as error:  # noqa: BLE001 — an attempt failure
            self._failed(error)
            return
        inner.add_done_callback(functools.partial(self._done, preempt))

    def _done(self, preempt: PreemptToken | None, inner: Future) -> None:
        """One segment finished: resolve, park and requeue, or fail."""
        error = inner.exception()
        if error is None:
            try:
                result = self._assemble(inner.result())
            except BaseException as failure:  # noqa: BLE001 — an attempt failure
                self._failed(failure)
                return
            self._resolve(None, result)
            return
        if isinstance(error, SweepPreempted):
            fresh = self._park(error.partial)
        elif isinstance(error, WorkerPreempted):
            fresh = 0            # the killed worker's points are gone
        else:
            self._failed(error)
            return
        remainder = self._remainder() or self.shard
        reason = preempt.reason or str(error)
        with self.service._state_lock:
            self.service.stats.preempted += 1
        for job in self.group:
            job.events.emit("preempted", {"shard": self.index,
                                          "points_parked": fresh,
                                          "reason": reason})
        logger.info("shard %s preempted (%s); parked %d fresh point(s), "
                    "requeueing %d target(s) × %d NM", self.describe,
                    reason, fresh, len(remainder.targets),
                    len(remainder.nm_values))
        self._launch(remainder)

    def _failed(self, error: BaseException) -> None:
        """Record a failed attempt; back off and retry, or resolve."""
        self.attempts.append(AttemptRecord(
            attempt=len(self.attempts), error_type=type(error).__name__,
            message=str(error),
            elapsed_seconds=time.monotonic() - self._began))
        policy = self.service.retry_policy
        max_retries = self.shard.options.max_retries
        if not policy.retryable(error):
            self._resolve(error)
            return
        attempt = len(self.attempts)
        if attempt > max_retries:
            poisoned = ShardPoisoned(self.describe, self.attempts)
            poisoned.__cause__ = error
            self._resolve(poisoned)
            return
        delay = policy.delay(attempt - 1, key=self.describe)
        logger.warning(
            "shard %s attempt %d/%d failed (%s: %s); retrying in %.2fs",
            self.describe, attempt, max_retries + 1, type(error).__name__,
            error, delay)
        self._record_health(error)
        for job in self.group:
            job.events.emit("shard_retry", {
                "shard": self.index, "attempt": attempt,
                "max_retries": max_retries,
                "error": f"{type(error).__name__}: {error}",
                "delay_seconds": delay})
        timer = threading.Timer(delay, self.start)
        timer.daemon = True
        timer.start()

    def _resolve(self, error: BaseException | None,
                 result: AnalysisResult | None = None) -> None:
        """Feed the health tracker, persist a sharded result, and set
        :attr:`future`."""
        # The terminal failure never passed through _failed's retry
        # branch; unwrap poisoning so it still counts as the
        # infrastructure loss it was.
        self._record_health(error.__cause__
                            if isinstance(error, ShardPoisoned) else error)
        service = self.service
        if self.key is not None:
            self.progress.mark_done()
            if error is None:
                try:
                    service._check_provenance(result, self.group[0])
                    if service.store is not None:
                        # Only ever a *complete* shard result:
                        # cancellations and failures arrive as errors
                        # and never reach the store.
                        service._store_put(self.key, result,
                                           self.shard.options)
                except BaseException as failure:  # noqa: BLE001 — via the future
                    error = failure
            with service._state_lock:
                service._inflight.pop(self.key, None)
        if error is None:
            self.future.set_result(result)
        else:
            self.future.set_exception(error)

    # --------------------------------------------------------------- helpers
    def _mark_started(self) -> None:
        # Exactly one started/progress tick per shard, no matter how
        # many attempts or segments it takes to begin measuring.
        if not self.started:
            self.started = True
            self.service._mark_group_started(self.group)

    def _record_health(self, error: BaseException | None) -> None:
        health = self.service.health
        if health.record(error):
            logger.warning(
                "service degraded: %d consecutive infrastructure "
                "failures (last: %s: %s); remaining shards fall back to "
                "in-process execution", health.degrade_threshold,
                type(error).__name__, error)
            self._announce_degraded()

    def _announce_degraded(self) -> None:
        """Emit the loud ``degraded`` event, once per shard group."""
        if self.run is None or not self.run.announce_degraded_once():
            return
        snapshot = self.service.health.snapshot()
        for job in self.group:
            job.events.emit("degraded", snapshot)

    def _park(self, partial: dict) -> int:
        """Fold a preempted segment's measured points into the park;
        returns how many were new."""
        fresh = 0
        for key, curve in (partial or {}).items():
            for point in curve.points:
                slot = (key, float(point.nm))
                if slot not in self.parked:
                    self.parked[slot] = point
                    fresh += 1
        return fresh

    def _remainder(self) -> AnalysisRequest | None:
        """The sub-request covering exactly the unmeasured points.

        Targets with every NM parked drop out; the NM axis keeps the
        original order restricted to values some remaining target still
        needs (a target whose parked coverage overlaps the union simply
        re-measures a few points — identical values, no harm).  Returns
        ``None`` when nothing is missing.
        """
        shard = self.shard
        missing_targets = []
        needed = set()
        for target in shard.targets:
            missing = [nm for nm in shard.nm_values
                       if (target.key, float(nm)) not in self.parked]
            if missing:
                missing_targets.append(target)
                needed.update(missing)
        if not missing_targets:
            return None
        return dataclasses.replace(
            shard, targets=tuple(missing_targets),
            nm_values=tuple(nm for nm in shard.nm_values if nm in needed))

    def _assemble(self, result: AnalysisResult) -> AnalysisResult:
        """Merge parked points with the final segment's result into the
        full-shard result (byte-identical to an unpreempted run)."""
        if not self.parked:
            return result
        shard = self.shard
        curves = {}
        for target in shard.targets:
            segment = result.curves.get(target.key)
            measured = {float(point.nm): point
                        for point in (segment.points if segment is not None
                                      else [])}
            curve = ResilienceCurve(group=target.group, layer=target.layer,
                                    baseline_accuracy=result.baseline_accuracy)
            for nm in shard.nm_values:
                point = self.parked.get((target.key, float(nm)),
                                        measured.get(float(nm)))
                if point is None:
                    raise BackendError(
                        f"preempted shard reassembly lost NM={nm} for "
                        f"target {target.key!r}: neither parked nor in "
                        f"the remainder result")
                curve.points.append(point)
            curves[target.key] = curve
        return dataclasses.replace(result, request=shard, curves=curves)


class ResilienceService:
    """Submit :class:`AnalysisRequest` jobs; receive cached-or-measured
    :class:`AnalysisResult` responses (see module docstring).

    Parameters
    ----------
    store:
        A prebuilt :class:`ResultStore`, or ``None`` to build one from
        ``cache_dir`` (default root when that is also ``None``).
    cache_dir:
        Store root directory; ignored when ``store`` is given.
    use_store:
        ``False`` disables persistence entirely (in-memory service).
    store_layout:
        Filesystem geometry of a store built here (ignored when
        ``store`` is given): ``"local"`` (default, single-node flat
        directory) or ``"shared"`` (a fleet-mounted root; see
        :class:`~repro.api.store.SharedFSLayout`).
    backend:
        Execution backend name (``inline``/``threads``/``procpool``/
        ``remote-pool``) or a prebuilt
        :class:`~repro.api.backends.ExecutionBackend`.  Validated through
        :func:`~repro.api.backends.make_backend` — invalid combinations
        with ``max_parallel`` error loudly.
    max_parallel:
        Shard/request concurrency for the parallel backends; rejected
        for ``inline``.
    workers:
        ``HOST:PORT`` agent addresses for the ``remote-pool`` backend
        (required there, rejected for every other backend).
    nm_chunk:
        Optionally also shard the NM axis into chunks of this many
        values (parallel backends only; merged byte-identically).
    queue_limit:
        Saturation bound on the dispatch backlog.  ``None`` (default)
        queues unboundedly; with a limit, a service whose queue already
        holds that many waiting shards refuses new submissions with
        :class:`~repro.api.scheduler.QueueFull` carrying a
        ``retry_after`` backoff hint (HTTP 429 + ``Retry-After`` when
        served remotely).  Admission is accept-bounded: an admitted
        submission's own shard fan-out may transiently exceed the limit
        (large requests stay servable); store hits and deduplicated
        joins are never refused — only work that would actually queue.
    retry_policy:
        How failed shards requeue (:class:`~repro.api.resilience.
        RetryPolicy`: backoff spacing + retryable-error classification).
        ``None`` uses the defaults.  The retry *budget* is per-request:
        ``ExecutionOptions.max_retries``.
    degrade_threshold:
        Consecutive infrastructure failures (worker crashes/timeouts,
        transient ``OSError``) after which the service latches
        *degraded* and measures remaining shards on the in-process
        fallback path (byte-identical; loud ``degraded`` event +
        ``/v1/health`` flag) instead of erroring jobs against a
        collapsed pool.  ``None`` (default) disables degradation.
    fault_plan:
        A :class:`~repro.api.resilience.FaultPlan` for the chaos
        harness; requires a ``chaos:<inner>`` backend name (or wraps a
        prebuilt backend).  Test/benchmark machinery, never production.
    tenant_weights:
        Per-tenant deficit-round-robin shares (``{"name": weight}``, a
        tenant being ``options.client_id``; unlisted tenants weigh 1.0).
        A weight-2 tenant drains two shards per round for every one of a
        weight-1 tenant.  Single-tenant traffic is unaffected — the DRR
        degenerates to the plain priority heap.
    starvation_threshold:
        Seconds a tenant (with queued work and nothing running) may wait
        on a saturated queue before the fair scheduler preempts a
        running lower-priority shard of another tenant (park at the
        engine's next checkpoint; remainder requeues).  ``None``
        (default) disables preemption.
    """

    def __init__(self, *, store: ResultStore | None = None,
                 cache_dir: str | None = None, use_store: bool = True,
                 store_layout: str = "local",
                 backend: str | ExecutionBackend = "inline",
                 max_parallel: int | None = None,
                 workers=None,
                 nm_chunk: int | None = None,
                 queue_limit: int | None = None,
                 retry_policy: RetryPolicy | None = None,
                 degrade_threshold: int | None = None,
                 fault_plan: FaultPlan | None = None,
                 tenant_weights: dict | None = None,
                 starvation_threshold: float | None = None):
        if store is None and use_store:
            store = ResultStore(cache_dir, layout=store_layout)
        self.store = store
        self.backend = make_backend(backend, max_parallel,
                                    fault_plan=fault_plan, workers=workers)
        self.nm_chunk = nm_chunk
        self.queue = ShardQueue(self.backend, limit=queue_limit,
                                weights=tenant_weights,
                                starvation_threshold=starvation_threshold)
        self.stats = ServiceStats()
        self.retry_policy = retry_policy or RetryPolicy()
        self.health = ServiceHealth(degrade_threshold)
        # The in-process fallback once the backend collapses (see
        # ``degrade_threshold``); its pool starts on first use.
        self._degraded_backend = ThreadBackend(self.backend.parallel)
        self._sessions: dict[str, tuple[object, Dataset]] = {}
        self._resolved: dict[str, ResolvedModel] = {}
        self._engines: dict[tuple, SweepEngine] = {}
        self._inflight: dict[str, _InflightEntry] = {}
        self._state_lock = threading.Lock()   # maps + stats above

    def queue_snapshot(self) -> dict:
        """Observable dispatch-queue state (queued/running/capacity/
        limit/saturated/worker_restarts) — what ``/v1/health`` reports."""
        return self.queue.snapshot()

    @property
    def degraded(self) -> bool:
        """Whether the pool-collapse fallback has latched (see
        ``degrade_threshold``)."""
        return self.health.degraded

    def close(self) -> None:
        """Shut down the fair-scheduler monitor and the backend's
        worker pools (if any)."""
        self.queue.close()
        self.backend.close()
        self._degraded_backend.close()

    # ------------------------------------------------------------ resolution
    def register(self, name: str, model, dataset: Dataset) -> ModelRef:
        """Register an in-memory (model, test set) pair as a session ref.

        Re-registering a name replaces the pair and drops any engines
        built for it; results remain safe either way because the store
        key carries the model and dataset CRCs, not the name.
        """
        ref = ModelRef(session=name)
        with self._state_lock:
            previous = self._sessions.get(name)
            if previous is not None and (previous[0] is not model
                                         or previous[1] is not dataset):
                self._resolved.pop(ref.key, None)
                self._engines = {key: engine
                                 for key, engine in self._engines.items()
                                 if key[0] != ref.key}
            self._sessions[name] = (model, dataset)
        return ref

    def unregister(self, ref: ModelRef) -> None:
        """Drop a session and every engine built for it (frees the
        engine's cached activation traces).  Stored results survive —
        they are keyed by content, not by the session name."""
        if ref.session is None:
            raise ValueError("only session refs can be unregistered")
        with self._state_lock:
            self._sessions.pop(ref.session, None)
            self._resolved.pop(ref.key, None)
            self._engines = {key: engine
                             for key, engine in self._engines.items()
                             if key[0] != ref.key}

    def entry(self, ref: ModelRef) -> ResolvedModel:
        """Resolve (and cache) the lazy model bundle behind a reference."""
        with self._state_lock:
            resolved = self._resolved.get(ref.key)
        if resolved is not None:
            return resolved
        if ref.session is not None:
            with self._state_lock:
                pair = self._sessions.get(ref.session)
            if pair is None:
                raise KeyError(f"unknown session {ref.session!r}; "
                               f"register it with ResilienceService.register")
            model, dataset = pair
            resolved = ResolvedModel(ref, lambda: model, lambda: dataset)
        else:
            from ..zoo import benchmark_coords, default_test_descriptor
            if ref.benchmark is not None:
                preset, dataset_name = benchmark_coords(ref.benchmark)
            else:
                preset, dataset_name = ref.preset, ref.dataset
            resolved = ResolvedModel(
                ref,
                load_model=lambda: self._zoo_model(preset, dataset_name),
                load_test_set=lambda: self._zoo_test_set(preset,
                                                         dataset_name),
                dataset_descriptor=default_test_descriptor(dataset_name))
        with self._state_lock:
            self._resolved.setdefault(ref.key, resolved)
            return self._resolved[ref.key]

    @staticmethod
    def _zoo_model(preset: str, dataset_name: str):
        """Weights-only when cached; full training run otherwise."""
        from ..zoo import get_trained, load_trained_model
        model = load_trained_model(preset, dataset_name)
        if model is None:
            model = get_trained(preset, dataset_name).model
        return model

    @staticmethod
    def _zoo_test_set(preset: str, dataset_name: str) -> Dataset:
        from ..zoo import default_test_split
        return default_test_split(dataset_name)

    def _dataset_crc(self, resolved: ResolvedModel,
                     eval_samples: int | None) -> int:
        if resolved.dataset_descriptor is not None:
            # Zoo splits are pure functions of their descriptor — no
            # need to materialise pixels just to key the store.
            return zlib.crc32(resolved.dataset_descriptor.encode())
        return dataset_fingerprint(resolved.eval_set(eval_samples))

    def _engine_for(self, resolved: ResolvedModel, dataset_crc: int,
                    request: AnalysisRequest, dataset: Dataset) -> SweepEngine:
        options = request.options
        # client_id never changes what an engine computes — keying it
        # would give every tenant a duplicate engine (and a cold
        # prefix-activation cache) for identical work.
        if options.client_id is not None:
            options = dataclasses.replace(options, client_id=None)
        key = (resolved.ref.key, dataset_crc, request.eval_samples, options)
        with self._state_lock:
            engine = self._engines.get(key)
            if engine is None or engine.model is not resolved.model:
                engine = options.make_engine(resolved.model, dataset)
                self._engines[key] = engine
            return engine

    # ------------------------------------------------------------ submission
    def submit(self, request: AnalysisRequest, *,
               priority: int = 0) -> AnalysisHandle:
        """Accept one request; return its handle immediately.

        With the default ``inline`` backend the measurement completes
        before this returns (the handle is already resolved) — exactly
        the pre-redesign blocking semantics.  On the parallel backends
        the handle resolves asynchronously; ``priority`` (higher wins)
        orders its shards ahead of lower-priority queued work.
        """
        return self.submit_many([request], priority=priority)[0]

    def submit_many(self, requests, *,
                    priority: int = 0) -> list[AnalysisHandle]:
        """Accept several requests, batching compatible executions.

        Requests that share model, dataset, grid, seed, baseline and
        execution options execute as one group over the union of their
        targets (sharded across the backend when it is parallel);
        identical in-flight requests collapse onto one future.  Handles
        come back in submission order.

        Backpressure: when the service was built with ``queue_limit``
        and the dispatch backlog is already saturated, the whole batch
        is refused with :class:`~repro.api.scheduler.QueueFull` *before*
        anything launches — store hits and duplicate joins alone never
        trip it, and an admitted batch's own fan-out never does either
        (accept-bounded admission).  The verdict and the capacity
        reservation are one atomic step
        (:meth:`~repro.api.scheduler.ShardQueue.admit`), so concurrent
        submitters racing an almost-full queue cannot all observe the
        same free slot and collectively overshoot the limit.
        """
        if hooks.active_registries():
            # An ambient use_registry(...) scope would compose the
            # caller's transforms into inline measurements — and the
            # store would file them under a clean fingerprint, poisoning
            # every later lookup of the same key.  Worker threads are
            # isolated (the hook stack is thread-local), but the guard
            # holds for every backend so behaviour never depends on
            # where the measurement happens to run.
            # lint: allow(exc-unclassified): boundary guard raised to the caller before any dispatch; it never reaches the retry loop's classification
            raise RuntimeError(
                "ResilienceService cannot accept submissions inside an "
                "active hook-registry scope: ambient transforms would "
                "contaminate stored results; exit the use_registry(...) "
                "block or evaluate directly")
        requests = list(requests)
        handles: list[AnalysisHandle | None] = [None] * len(requests)
        jobs: list[_Job] = []
        for index, request in enumerate(requests):
            with self._state_lock:
                self.stats.submitted += 1
            resolved = self.entry(request.model)
            model_crc = model_fingerprint(resolved.model)
            dataset_crc = self._dataset_crc(resolved, request.eval_samples)
            key = store_key(request.fingerprint(), model_crc, dataset_crc)
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                with self._state_lock:
                    self.stats.store_hits += 1
                handles[index] = _cached_handle(request, key, cached)
                continue
            with self._state_lock:
                inflight = self._inflight.get(key)
                if inflight is not None:
                    self.stats.deduplicated += 1
                    handles[index] = self._joined_handle(request, key,
                                                         inflight)
                    continue
                job = _Job(index, request, resolved, model_crc,
                           dataset_crc, key, priority=priority,
                           events=EventLog(key))
                self._inflight[key] = _InflightEntry(job.future,
                                                     job.progress, job)
            jobs.append(job)
            handles[index] = self._job_handle(job)
        admission = None
        if jobs:
            try:
                # All-or-nothing admission for the measured subset: a
                # refused batch leaves no dangling accepted jobs behind.
                # The verdict reserves its slots atomically, so parallel
                # submitters cannot all pass on the same free capacity;
                # the reservation is released once the batch's own
                # shards are really in the queue.
                admission = self.queue.admit(len(jobs))
            except BaseException as refusal:
                with self._state_lock:
                    self.stats.rejected += len(jobs)
                    for job in jobs:
                        self._inflight.pop(job.key, None)
                for job in jobs:
                    # A concurrent identical submission may have already
                    # dedup-joined one of these jobs in the window since
                    # it entered the in-flight map; resolving the future
                    # (instead of abandoning it) propagates the refusal
                    # to any such joiner rather than hanging it forever.
                    job.future.set_exception(refusal)
                    job.events.emit("error", {"message": str(refusal)})
                raise
        groups: dict[tuple, list[_Job]] = {}
        for job in jobs:
            job.events.emit("queued", {"targets": len(job.request.targets),
                                       "priority": job.priority})
            groups.setdefault(job.batch_key, []).append(job)
        try:
            for group in groups.values():
                self._launch_group(group)
        finally:
            if admission is not None:
                admission.release()
        return handles

    def _job_handle(self, job: _Job) -> AnalysisHandle:
        return AnalysisHandle(
            job.request, job.key, job.future, job.progress,
            events=job.events,
            partial_fn=lambda: self._job_partial(job),
            cancel_fn=lambda: self._cancel_job(job))

    def _joined_handle(self, request: AnalysisRequest, key: str,
                       inflight: _InflightEntry) -> AnalysisHandle:
        """A duplicate submission's handle: shares the winner's state."""
        job = inflight.job
        if job is not None:
            return AnalysisHandle(
                request, key, inflight.future, inflight.progress,
                events=job.events,
                partial_fn=lambda: self._job_partial(job),
                cancel_fn=lambda: self._cancel_job(job))
        # Joined onto a bare shard proxy: no log of its own; the handle
        # degrades to synthesised terminal events and result-level
        # partials.
        return AnalysisHandle(request, key, inflight.future,
                              inflight.progress)

    # --------------------------------------------------- blocking wrappers
    def run(self, request: AnalysisRequest, *,
            priority: int = 0) -> AnalysisResult:
        """Blocking wrapper: submit one request and wait for its result."""
        return self.submit(request, priority=priority).result()

    def run_many(self, requests, *, priority: int = 0) -> list[AnalysisResult]:
        """Blocking wrapper around :meth:`submit_many` (submission order)."""
        return [handle.result()
                for handle in self.submit_many(requests, priority=priority)]

    # ------------------------------------------------- progressive results
    def _job_partial(self, job: _Job) -> PartialResult:
        """The merged-so-far snapshot of one job (see module docstring)."""
        if job.future.done() and job.future.exception() is None:
            # Completed: serve the final object itself so the snapshot is
            # trivially byte-identical to the blocking result.
            return PartialResult.from_result(
                job.future.result(),
                shards_total=max(1, job.progress.snapshot()["shards_total"]))
        run = job.run
        if run is None or not run.shards:
            return PartialResult(
                request=job.request, curves={},
                shards_total=max(1, job.progress.snapshot()["shards_total"]),
                shards_done=0)
        curves, done = merge_partial(job.request, run.shards,
                                     run.completed())
        baseline = (next(iter(curves.values())).baseline_accuracy
                    if curves else None)
        return PartialResult(request=job.request, curves=curves,
                             shards_total=len(run.shards), shards_done=done,
                             baseline_accuracy=baseline,
                             complete=done == len(run.shards))

    def _cancel_job(self, job: _Job) -> bool:
        """Set the job's group cancellation flag (handle ``cancel``)."""
        if job.future.done():
            return False
        run = job.run
        if run is None:
            return False
        run.token.set()
        self.queue.drop_cancelled()
        return True

    # ------------------------------------------------------------- execution
    def _launch_group(self, group: list[_Job]) -> None:
        """Dispatch one batched group through the shard queue.

        Never blocks on the measurement itself: completion flows through
        future callbacks, so a parallel-backend submission returns while
        the sweep is still running.  Every shard completion lands in the
        group's :class:`_GroupRun` and is announced as a ``shard_done``
        event carrying each job's merged-so-far partial.
        """
        head = group[0].request
        targets: list[SweepTarget] = []
        seen = set()
        for job in group:
            for target in job.request.targets:
                if target.key not in seen:
                    seen.add(target.key)
                    targets.append(target)
        targets = tuple(targets)
        union = (head if head.targets == targets
                 else dataclasses.replace(head, targets=targets))
        shards = plan_shards(union, targets, parallel=self.backend.parallel,
                             nm_chunk=self.nm_chunk) or [union]
        run = _GroupRun()
        run.shards = list(shards)
        run.results = [None] * len(shards)
        for job in group:
            job.run = run
            job.progress.set_total(len(shards))
        try:
            futures = [self._submit_shard(shard, group, index,
                                          sharded=len(shards) > 1)
                       for index, shard in enumerate(shards)]
        except BaseException as exc:  # noqa: BLE001 — delivered via futures
            self._fail_group(group, exc)
            return
        pending = [len(futures)]
        pending_lock = threading.Lock()

        def _make_on_done(index: int):
            def _on_shard_done(future: Future) -> None:
                if future.exception() is None:
                    # Record BEFORE announcing, so the shard_done
                    # event's partial always includes its own shard.
                    run.record(index, future.result())
                for job in group:
                    job.progress.mark_done()
                if future.exception() is None:
                    shard = shards[index]
                    for job in group:
                        job.events.emit("shard_done", {
                            "shard": index,
                            "targets": [[t.group, t.layer]
                                        for t in shard.targets],
                            "nm_values": list(shard.nm_values),
                            **job.progress.snapshot(),
                            "partial": self._job_partial(job).to_payload()})
                with pending_lock:
                    pending[0] -= 1
                    last = pending[0] == 0
                if last:
                    self._finish_group(group, union, targets, shards,
                                       futures)
            return _on_shard_done

        for index, future in enumerate(futures):
            future.add_done_callback(_make_on_done(index))

    def _mark_group_started(self, group: list[_Job]) -> None:
        """Progress counters + honest started/progress events."""
        for job in group:
            job.progress.mark_started()
            counters = job.progress.snapshot()
            kind = ("started" if counters["shards_started"] == 1
                    else "progress")
            job.events.emit(kind, counters)

    def _submit_shard(self, shard: AnalysisRequest, group: list[_Job],
                      index: int, *, sharded: bool) -> Future:
        """One shard: store-dedup, in-flight-dedup, or a :class:`_ShardRun`.

        A sharded sub-request registers its run's future in the
        in-flight map before dispatching, so an identical top-level
        request (or a shard of an overlapping one) joins the live
        execution, and the shard's result is persisted under its own
        content-addressed key before any joiner observes completion.
        """
        key = None
        if sharded:
            job = group[0]
            key = store_key(shard.fingerprint(), job.model_crc,
                            job.dataset_crc)
            if any(key == member.key for member in group):
                # The shard is field-identical to one of this group's
                # own requests (e.g. a single-target request batched
                # with a sibling widened the union).  Its key is already
                # in-flight as that *job's* future — which only resolves
                # after every shard completes, so joining it here would
                # deadlock the group on itself.  Dispatch directly; the
                # job-level store put covers this key at finish time.
                key = None
        cached = (self.store.get(key)
                  if key is not None and self.store is not None else None)
        if cached is not None:
            with self._state_lock:
                self.stats.shard_store_hits += 1
            self._mark_group_started(group)
            return _resolved_future(cached)
        run = _ShardRun(self, shard, group, index, key=key)
        if key is not None:
            with self._state_lock:
                inflight = self._inflight.get(key)
                if inflight is None:
                    self._inflight[key] = _InflightEntry(run.future,
                                                         run.progress)
            if inflight is not None:
                self._mark_group_started(group)
                return inflight.future
            run.progress.mark_started()
        with self._state_lock:
            self.stats.shards += 1
        run.start()
        return run.future

    def _store_put(self, key: str, result: AnalysisResult,
                   options) -> None:
        """Persist with the retry policy: a transient store-write
        ``OSError`` (full disk, flaky network mount) is retried with
        backoff instead of failing a fully-measured request; a
        persistent one re-raises *itself* after the budget (never
        wrapped — the caller sees the real error)."""
        retry_call(lambda: self.store.put(key, result),
                   policy=self.retry_policy,
                   max_retries=options.max_retries,
                   describe=f"store put {key[:16]}")

    @staticmethod
    def _check_provenance(result: AnalysisResult, job: _Job) -> None:
        """Reject measurements of a model/dataset other than the keyed one.

        In-process backends measure the very objects the key was
        computed from, so this never fires there.  A pool worker
        re-resolves the ref in its own process — if the parent's
        in-process model has been mutated (e.g. the X2 ablation's
        ``routing_iterations`` edits), the worker measures the pristine
        zoo state and its curves must NOT be filed under the mutated
        fingerprint: that would silently report unmutated results for
        every mutation.
        """
        expected_model = f"{job.model_crc & 0xffffffff:08x}"
        expected_dataset = f"{job.dataset_crc & 0xffffffff:08x}"
        if result.model_fingerprint != expected_model:
            raise BackendError(
                f"backend measured model fingerprint "
                f"{result.model_fingerprint}, but the request was keyed on "
                f"{expected_model}: the in-process model differs from what "
                f"the worker resolved (mutated after loading?); use the "
                f"inline or threads backend for in-process model mutations")
        if result.dataset_fingerprint != expected_dataset:
            raise BackendError(
                f"backend measured dataset fingerprint "
                f"{result.dataset_fingerprint}, expected {expected_dataset}: "
                f"the worker resolved a different evaluation split")

    def _fail_group(self, group: list[_Job], exc: BaseException) -> None:
        cancelled = isinstance(exc, (AnalysisCancelled, SweepCancelled))
        if cancelled and not isinstance(exc, AnalysisCancelled):
            exc = AnalysisCancelled(str(exc))
        for job in group:
            if not job.future.done():
                job.future.set_exception(exc)
                with self._state_lock:
                    if cancelled:
                        self.stats.cancelled += 1
            job.events.emit("cancelled" if cancelled else "error",
                            {"message": str(exc)})
        with self._state_lock:
            for job in group:
                self._inflight.pop(job.key, None)

    def _finish_group(self, group: list[_Job], union: AnalysisRequest,
                      targets: tuple[SweepTarget, ...],
                      shards: list[AnalysisRequest],
                      futures: list[Future]) -> None:
        """Merge completed shards and resolve every job in the group.

        Runs on whichever thread completed the last shard; never raises —
        failures propagate through the job futures.
        """
        try:
            error = next((future.exception() for future in futures
                          if future.exception() is not None), None)
            if error is not None:
                raise error
            results = [future.result() for future in futures]
            for result in results:
                self._check_provenance(result, group[0])
            if len(results) == 1:
                curves = results[0].curves
                elapsed = results[0].elapsed_seconds
            else:
                curves = merge_shards(union, targets, shards, results)
                elapsed = sum(result.elapsed_seconds for result in results)
            baseline = next(iter(curves.values())).baseline_accuracy
            created = time.time()
            for job in group:
                with self._state_lock:
                    self.stats.executed += 1
                result = AnalysisResult(
                    request=job.request,
                    curves={target.key: curves[target.key]
                            for target in job.request.targets},
                    baseline_accuracy=baseline,
                    model_fingerprint=f"{job.model_crc & 0xffffffff:08x}",
                    dataset_fingerprint=f"{job.dataset_crc & 0xffffffff:08x}",
                    created=created,
                    elapsed_seconds=elapsed / len(group))
                if self.store is not None:
                    self._store_put(job.key, result, job.request.options)
                job.future.set_result(result)
                job.events.emit("done",
                                {"from_cache": False,
                                 "elapsed_seconds": result.elapsed_seconds})
            with self._state_lock:
                for job in group:
                    self._inflight.pop(job.key, None)
        except BaseException as exc:  # noqa: BLE001 — re-raised via futures
            self._fail_group(group, exc)

    # ----------------------------------------------------------- measurement
    def _measure(self, request: AnalysisRequest,
                 cancel: CancelToken | None = None,
                 preempt: PreemptToken | None = None) -> AnalysisResult:
        """Measure exactly ``request`` in this process.

        This is the runner handed to the backend: it may execute on the
        submitting thread (``inline``) or on a pool thread
        (``threads``); the ``procpool``/``remote-pool`` backends run the
        same logic in workers via :func:`repro.api.backends.serve_frames`.
        Engine access serialises on the engine's own lock, so concurrent
        measurements of *different* engines overlap.  ``cancel`` is the
        group's cooperative flag, polled by the sweep engine at stage
        boundaries; ``preempt`` is the fair scheduler's per-attempt
        park flag, polled at the engine's preemption checkpoints
        (out-of-process workers observe neither and rely on the
        supervisor kill path instead).
        """
        resolved = self.entry(request.model)
        model_crc = model_fingerprint(resolved.model)
        dataset_crc = self._dataset_crc(resolved, request.eval_samples)
        dataset = resolved.eval_set(request.eval_samples)
        targets = list(request.targets)
        should_cancel = None if cancel is None else cancel.is_set
        should_preempt = None if preempt is None else preempt.is_set
        start = time.perf_counter()
        if request.noise == "quantization":
            curves = self._run_quantization(request, resolved, dataset,
                                            targets,
                                            should_cancel=should_cancel)
        else:
            engine = self._engine_for(resolved, dataset_crc, request, dataset)
            with self._state_lock:
                self.stats.sweeps += 1
            curves = engine.sweep(
                targets, request.nm_values, na=request.na, seed=request.seed,
                baseline_accuracy=request.baseline_accuracy,
                should_cancel=should_cancel, should_preempt=should_preempt)
        elapsed = time.perf_counter() - start
        baseline = next(iter(curves.values())).baseline_accuracy
        return AnalysisResult(
            request=request,
            curves={target.key: curves[target.key] for target in targets},
            baseline_accuracy=baseline,
            model_fingerprint=f"{model_crc & 0xffffffff:08x}",
            dataset_fingerprint=f"{dataset_crc & 0xffffffff:08x}",
            created=time.time(),
            elapsed_seconds=elapsed)

    def _run_quantization(self, request: AnalysisRequest,
                          resolved: ResolvedModel, dataset: Dataset,
                          targets, should_cancel=None) -> dict:
        """Eq. 1 round-trip error swept over word lengths.

        ``nm_values`` holds the bit widths; the error is deterministic
        per value (no RNG), injected through the same hook sites as the
        Gaussian model.  Curve points reuse the ``nm`` axis for the word
        length.  ``should_cancel`` is polled per (target, word length)
        point, mirroring the sweep engine's checkpoints.
        """
        from ..approx import quantization_noise
        model = resolved.model
        batch_size = request.options.batch_size
        baseline = request.baseline_accuracy
        if baseline is None:
            baseline = evaluate_accuracy(model, dataset,
                                         batch_size=batch_size)
        curves = {}
        for target in targets:
            matcher = site_matcher(
                groups=[target.group],
                layers=None if target.layer is None else [target.layer])
            curve = ResilienceCurve(group=target.group, layer=target.layer,
                                    baseline_accuracy=baseline)
            for bits in request.nm_values:
                if should_cancel is not None and should_cancel():
                    raise SweepCancelled(
                        "quantization sweep cancelled at a word-length "
                        "boundary")
                registry = HookRegistry()

                def transform(site, value, _bits=int(bits)):
                    return value + quantization_noise(value, _bits)

                registry.add_transform(matcher, transform)
                with use_registry(registry):
                    accuracy = evaluate_accuracy(model, dataset,
                                                 batch_size=batch_size)
                curve.points.append(ResiliencePoint(
                    float(bits), 0.0, accuracy, accuracy - baseline))
            curves[target.key] = curve
        return curves


_default: ResilienceService | None = None
_default_lock = threading.Lock()


def default_service() -> ResilienceService:
    """The process-wide shared service (persistent store, default root).

    The experiment ``run()`` functions and :class:`~repro.core.
    methodology.ReDCaNe` fall back to this instance so a CLI invocation
    that regenerates several artifacts shares one zoo resolution, one
    engine cache and one result store.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = ResilienceService()
        return _default
