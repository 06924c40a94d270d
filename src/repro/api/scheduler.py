"""Shard planning and deterministic merging for large analysis requests.

A request with many targets (a Fig. 9 group sweep, a Fig. 10 layer
refinement) decomposes naturally: every noise stream the sweep engine
draws is derived statelessly per (seed, site, batch), and the clean
baseline is a deterministic function of (model, dataset, batch size) —
so measuring each target in its own sub-request produces *byte-identical*
curves to one union sweep.  The NM axis factors the same way: the
stacked injector's base draw derives statelessly per (site, batch) and
is reused across chunk boundaries, and the exact tier derives one stream
per (seed, site) point independently, so splitting ``nm_values`` into
chunks never changes the noise any point receives.

:func:`plan_shards` turns one request into per-target (and optionally
NM-chunked) shard requests; :func:`merge_shards` reassembles their
results in the parent's target and NM order.  Shards are full
:class:`~repro.api.request.AnalysisRequest` objects, so they flow through
the service's normal pipeline — content-addressed store lookups and
in-flight deduplication work per shard, making the store the shared
dedup layer between overlapping requests.

:func:`merge_partial` is the progressive-results face of the same
determinism argument: because every shard is independently exact, the
subset of shards that has completed *so far* already carries final curve
points — merging them early (in plan order, gaps skipped) yields a
monotonically-growing snapshot whose final state is byte-identical to
:func:`merge_shards` over the full set.

:class:`ShardQueue` is where dispatch meets backpressure and fairness:
a bounded, multi-tenant dispatch queue between the service and its
execution backend.  At most ``backend.parallel`` shards are in flight;
the rest wait in per-tenant sub-heaps (keyed by the request's
``client_id``) drained by deficit-round-robin with configurable
per-tenant weights, are dropped on cancellation before they ever start,
and — when a ``limit`` is configured — new work is refused with
:class:`QueueFull` (HTTP 429 upstream) instead of queuing unboundedly.
When a ``starvation_threshold`` is configured the queue also *preempts*:
a tenant whose oldest queued shard has waited past the threshold while
the tenant runs nothing gets a slot freed by parking another tenant's
running shard at its next engine checkpoint (see
:class:`~repro.api.events.PreemptToken`).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future

from ..core.resilience import ResilienceCurve
from ..core.sweep import SweepTarget
from .events import AnalysisCancelled, CancelToken
from .request import AnalysisRequest

__all__ = ["plan_shards", "merge_shards", "merge_curves", "merge_partial",
           "ShardMismatch", "ShardQueue", "QueueFull", "DEFAULT_TENANT"]


class ShardMismatch(RuntimeError):
    """Shard results disagree where determinism guarantees they cannot.

    Raised when merged shards report different baselines or an
    unexpected point count — a symptom of a non-deterministic engine or
    a poisoned store entry, never of a valid execution.
    """


def plan_shards(request: AnalysisRequest, targets: tuple[SweepTarget, ...],
                *, parallel: int, nm_chunk: int | None = None
                ) -> list[AnalysisRequest] | None:
    """Split ``request`` (already widened to ``targets``) into shards.

    Returns ``None`` when sharding buys nothing: a serial backend
    (``parallel <= 1``) with no NM chunking requested, or a request that
    would produce a single shard anyway.  Otherwise returns one
    sub-request per (target, NM chunk), in deterministic
    target-major/NM-minor order.
    """
    shard_targets: list[tuple[SweepTarget, ...]]
    if parallel > 1 and len(targets) > 1:
        shard_targets = [(target,) for target in targets]
    else:
        shard_targets = [tuple(targets)]
    nm_chunks: list[tuple[float, ...]]
    if nm_chunk is not None and nm_chunk >= 1 \
            and len(request.nm_values) > nm_chunk:
        nm_chunks = [request.nm_values[start:start + nm_chunk]
                     for start in range(0, len(request.nm_values), nm_chunk)]
    else:
        nm_chunks = [request.nm_values]
    if len(shard_targets) * len(nm_chunks) <= 1:
        return None
    return [dataclasses.replace(request, targets=shard, nm_values=chunk)
            for shard in shard_targets for chunk in nm_chunks]


def merge_curves(target: SweepTarget, chunks: list[ResilienceCurve]
                 ) -> ResilienceCurve:
    """Concatenate one target's NM-chunk curves in chunk order."""
    baselines = {curve.baseline_accuracy for curve in chunks}
    if len(baselines) != 1:
        raise ShardMismatch(
            f"shards of target {target} report different baselines "
            f"{sorted(baselines)}; the clean evaluation is deterministic, "
            f"so this indicates a stale store entry or mutated model")
    merged = ResilienceCurve(group=target.group, layer=target.layer,
                             baseline_accuracy=chunks[0].baseline_accuracy)
    for curve in chunks:
        merged.points.extend(curve.points)
    return merged


def merge_shards(request: AnalysisRequest,
                 targets: tuple[SweepTarget, ...],
                 shards: list[AnalysisRequest],
                 results: list) -> dict:
    """Reassemble shard results into the union request's curve dict.

    ``shards``/``results`` are parallel lists in :func:`plan_shards`
    order.  Returns curves keyed exactly like
    :meth:`~repro.core.sweep.SweepEngine.sweep` output (group name or
    ``(group, layer)``), with each curve's points in ``request.
    nm_values`` order — byte-identical to the unsharded execution.
    """
    per_target: dict = {target.key: [] for target in targets}
    for shard, result in zip(shards, results):
        for target in shard.targets:
            per_target[target.key].append(result.curves[target.key])
    expected_chunks = max(1, len(shards) // max(1, len(
        {t.key for shard in shards for t in shard.targets})))
    curves = {}
    for target in targets:
        chunks = per_target[target.key]
        merged = merge_curves(target, chunks)
        if len(merged.points) != len(request.nm_values):
            raise ShardMismatch(
                f"target {target} merged to {len(merged.points)} points, "
                f"expected {len(request.nm_values)} "
                f"({len(chunks)}/{expected_chunks} chunks present)")
        curves[target.key] = merged
    return curves


def merge_partial(request: AnalysisRequest,
                  shards: list[AnalysisRequest],
                  results: list) -> tuple[dict, int]:
    """Merged-so-far curves from the completed subset of ``shards``.

    ``results`` is parallel to ``shards`` (plan order) with ``None`` in
    the slots of shards that have not completed.  Only ``request``'s own
    targets are assembled (a batched group's union may be wider).
    Returns ``(curves, shards_done)``; curves concatenate completed
    chunks in plan order with missing chunks simply absent, so the point
    *set* grows monotonically as results land and — once every slot is
    filled — equals the :func:`merge_shards` output exactly (same chunk
    concatenation, same order).
    """
    wanted = {target.key: target for target in request.targets}
    per_target: dict = {key: [] for key in wanted}
    done = 0
    for shard, result in zip(shards, results):
        if result is None:
            continue
        done += 1
        for target in shard.targets:
            if target.key in per_target:
                per_target[target.key].append(result.curves[target.key])
    curves = {}
    for key, chunks in per_target.items():
        if chunks:
            curves[key] = merge_curves(wanted[key], chunks)
    return curves, done


class QueueFull(RuntimeError):
    """The service's dispatch queue is saturated; retry later.

    Raised by :meth:`ShardQueue.admit` (and therefore by
    ``ResilienceService.submit`` when a ``queue_limit`` is configured).
    ``retry_after`` is the server's backoff hint in seconds — the HTTP
    layer forwards it as a ``Retry-After`` header on the 429 response.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


#: Shards whose request carries no ``client_id`` are accounted under
#: this tenant name.
DEFAULT_TENANT = "default"


@dataclasses.dataclass(order=True)
class _QueueEntry:
    """One shard waiting for dispatch capacity (heap-ordered within its
    tenant's sub-queue)."""

    sort_key: tuple
    request: AnalysisRequest = dataclasses.field(compare=False)
    runner: object = dataclasses.field(compare=False)
    proxy: Future = dataclasses.field(compare=False)
    cancel: CancelToken | None = dataclasses.field(compare=False)
    on_start: object = dataclasses.field(compare=False)
    tenant: str = dataclasses.field(compare=False, default=DEFAULT_TENANT)
    preempt: object | None = dataclasses.field(compare=False, default=None)
    enqueued_at: float = dataclasses.field(compare=False, default=0.0)
    started_at: float = dataclasses.field(compare=False, default=0.0)

    @property
    def priority(self) -> int:
        return -self.sort_key[0]


class _TenantState:
    """One tenant's sub-queue book-keeping (guarded by the queue lock)."""

    __slots__ = ("name", "weight", "deficit", "heap", "completed",
                 "preempted")

    def __init__(self, name: str, weight: float):
        self.name = name
        self.weight = float(weight)
        self.deficit = 0.0
        self.heap: list[_QueueEntry] = []
        self.completed = 0
        self.preempted = 0


class _Admission:
    """One atomic admission reservation (see :meth:`ShardQueue.admit`).

    Holds ``amount`` virtual queue slots against the limit until
    :meth:`release` (idempotent) returns them — which the service does
    once the submission's shards are actually enqueued (or the
    submission failed), closing the check-then-enqueue race window.
    """

    def __init__(self, queue: "ShardQueue", amount: int):
        self._queue = queue
        self._amount = amount

    def release(self) -> None:
        amount, self._amount = self._amount, 0
        if amount:
            with self._queue._lock:
                self._queue._reserved -= amount

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class ShardQueue:
    """Bounded, multi-tenant dispatch queue in front of one backend.

    Every shard the service dispatches flows through :meth:`submit`: at
    most ``backend.parallel`` are handed to the backend at a time, the
    remainder wait in per-tenant sub-heaps (max-priority /
    FIFO-within-priority *inside* a tenant) drained by
    **deficit-round-robin**: tenants with queued work rotate, each visit
    refills the tenant's deficit by its weight (default 1.0) and each
    dispatched shard costs one unit, so sustained throughput divides
    proportionally to weights while a weight below 1 still accrues
    service across rounds.  A single tenant degenerates to one heap
    drained in pure heap order — byte-identical to the pre-tenant queue.
    This buys four things the bare backends cannot give:

    * **fairness** — one tenant's fig10-scale fan-out no longer starves
      everyone else's single-target requests;
    * **priority** — a high-priority submission overtakes its tenant's
      queued (never running) work, regardless of arrival order;
    * **cancellation before start** — a queued shard whose
      :class:`~repro.api.events.CancelToken` is set resolves
      :class:`~repro.api.events.AnalysisCancelled` without ever touching
      the backend (and :meth:`drop_cancelled` sweeps them out eagerly);
    * **backpressure** — with a ``limit``, :meth:`admit` refuses new
      work loudly (:class:`QueueFull` with a backoff hint) instead of
      queuing unboundedly, and its reservation makes the verdict atomic
      per submission group.

    With a ``starvation_threshold`` (seconds) the queue additionally
    runs a monitor thread that parks one running shard — via its
    :class:`~repro.api.events.PreemptToken` — whenever some tenant's
    oldest queued shard outwaits the threshold with nothing of its own
    running (see :meth:`preempt_starved`).

    The queue adds no concurrency of its own: an ``inline`` backend
    drains it synchronously (capacity 1, dispatch blocks), the parallel
    backends drain it from their completion callbacks.

    **Lock ordering** (checked by ``repro lint`` and the runtime lock
    witness — see ``docs/devtools.md``): ``_lock`` is a *leaf* lock.
    Every method takes it for short critical sections over the
    tenant/heap/running bookkeeping and **releases it before calling
    out** — into the backend, a proxy future's callbacks, a
    :class:`~repro.api.events.PreemptToken` (its own leaf lock), or
    :meth:`_pump` re-entry.  In particular :meth:`preempt_starved`
    computes its victim under ``_lock`` but fires ``preempt.set()``
    after dropping it, and :meth:`_dispatch`'s completion callback
    resolves the proxy outside its bookkeeping section.  Nothing in
    this module may acquire another lock while holding ``_lock``; new
    code that needs to must take the other lock first (and will be
    flagged as a ``lock-order-cycle`` if two call paths disagree).
    """

    def __init__(self, backend, limit: int | None = None, *,
                 weights: dict | None = None,
                 starvation_threshold: float | None = None):
        if limit is not None and limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {limit}")
        if starvation_threshold is not None and starvation_threshold <= 0:
            raise ValueError(f"starvation_threshold must be positive "
                             f"(seconds) or None, got {starvation_threshold}")
        self.backend = backend
        self.limit = limit
        self.starvation_threshold = starvation_threshold
        self._weights: dict[str, float] = {}
        for name, weight in (weights or {}).items():
            self._check_weight(name, weight)
            self._weights[name] = float(weight)
        self._tenants: dict[str, _TenantState] = {}
        self._rotation: deque[str] = deque()
        self._ticket = itertools.count()
        self._running = 0
        self._running_entries: list[_QueueEntry] = []
        self._reserved = 0
        self._avg_seconds = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        if starvation_threshold is not None:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-fair-scheduler",
                daemon=True)
            self._monitor.start()

    @property
    def capacity(self) -> int:
        return max(1, int(self.backend.parallel))

    @staticmethod
    def _check_weight(name, weight) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError(f"tenant name must be a non-empty string, "
                             f"got {name!r}")
        if not isinstance(weight, (int, float)) or not weight > 0:
            raise ValueError(f"tenant weight must be a positive number, "
                             f"got {weight!r} for tenant {name!r}")

    def close(self) -> None:
        """Stop the starvation monitor thread (idempotent)."""
        self._stop.set()

    def snapshot(self) -> dict:
        """Observable queue state (the ``/v1/health`` payload).

        ``worker_restarts`` is the backend's cumulative crashed/killed
        worker replacement count (0 for backends without a pool);
        ``tenants`` breaks queued/running/completed/preempted counts
        down per tenant; ``pool`` is the worker pool's shape when the
        backend owns one.
        """
        restarts = self.backend.worker_restarts
        pool = self.backend.pool_snapshot()
        with self._lock:
            queued = self._queued_locked()
            running_by: dict[str, int] = {}
            for entry in self._running_entries:
                running_by[entry.tenant] = running_by.get(entry.tenant, 0) + 1
            tenants = {
                name: {"queued": len(state.heap),
                       "running": running_by.get(name, 0),
                       "completed": state.completed,
                       "preempted": state.preempted,
                       "weight": state.weight}
                for name, state in sorted(self._tenants.items())}
            result = {"queued": queued, "running": self._running,
                      "capacity": self.capacity, "limit": self.limit,
                      "saturated": (self.limit is not None
                                    and queued >= self.limit),
                      "worker_restarts": restarts,
                      "tenants": tenants}
        if pool:
            result["pool"] = pool
        return result

    def admit(self, incoming: int = 1) -> _Admission:
        """Atomically decide admission and reserve the group's slots.

        Admission is **accept-bounded**: a submission is refused exactly
        when the queue already holds ``limit`` or more waiting shards
        (counting other submissions' still-held reservations).  An
        *admitted* submission may transiently push the backlog past the
        limit with its own fan-out (a 36-shard fig10 request against
        ``limit=4`` must remain runnable — refusing it would make large
        requests permanently unservable), and an idle queue admits any
        batch size; what the limit guarantees is that a saturated
        service stops taking on new submissions until the backlog
        drains.  The verdict and the ``incoming``-sized reservation are
        one atomic step, so N concurrent submitters at ``queued ==
        limit - 1`` cannot all slip through the gap between check and
        enqueue; the caller releases the returned :class:`_Admission`
        once its shards are actually queued.

        The backoff hint scales with how much work sits ahead: queued
        depth × the EMA of recent *successful* shard durations (floor),
        so a saturated queue of slow sweeps tells clients to come back
        later than one of fast ones.
        """
        amount = max(1, int(incoming))
        if self.limit is None:
            return _Admission(self, 0)
        with self._lock:
            queued = self._queued_locked() + self._reserved
            if queued < self.limit:
                self._reserved += amount
                return _Admission(self, amount)
            retry_after = max(1.0, queued * max(self._avg_seconds, 0.1)
                              / self.capacity)
        raise QueueFull(
            f"dispatch queue is full ({queued} queued, limit "
            f"{self.limit}); retry in ~{retry_after:.0f}s",
            retry_after=retry_after)

    def submit(self, request: AnalysisRequest, runner, *,
               priority: int = 0, cancel: CancelToken | None = None,
               on_start=None, preempt=None) -> Future:
        """Enqueue one shard; returns a future of its result.

        ``runner`` and ``on_start`` are forwarded to the backend when the
        shard reaches the front; a set ``cancel`` token resolves the
        future with :class:`~repro.api.events.AnalysisCancelled` instead.
        That is checked when the shard leaves this queue and, on
        in-process backends, again when the wrapped runner starts (the
        shard may have waited in a thread pool's own queue meanwhile).
        ``PoolBackend.submit`` never calls the runner, so a pool shard
        cancelled after it left this queue runs to completion.
        ``preempt`` is the shard segment's
        :class:`~repro.api.events.PreemptToken`: it registers the shard
        as a preemption victim candidate and is forwarded to the
        backend, whose worker pool kills the worker when it is set.
        The tenant is the request's ``options.client_id``
        (:data:`DEFAULT_TENANT` when absent).
        """
        proxy: Future = Future()
        tenant = (getattr(getattr(request, "options", None),
                          "client_id", None) or DEFAULT_TENANT)
        entry = _QueueEntry(sort_key=(-int(priority), next(self._ticket)),
                            request=request, runner=runner, proxy=proxy,
                            cancel=cancel, on_start=on_start, tenant=tenant,
                            preempt=preempt, enqueued_at=time.monotonic())
        with self._lock:
            state = self._tenant_state(tenant)
            heapq.heappush(state.heap, entry)
            if tenant not in self._rotation:
                self._rotation.append(tenant)
        self._pump()
        return proxy

    def drop_cancelled(self) -> int:
        """Eagerly resolve queued entries whose cancel token is set.

        The pump would drop them anyway when capacity frees; this makes
        ``handle.cancel()`` observable immediately.  Returns the count.
        """
        dropped: list[_QueueEntry] = []
        with self._lock:
            for name, state in self._tenants.items():
                doomed = [entry for entry in state.heap
                          if entry.cancel is not None
                          and entry.cancel.is_set()]
                if not doomed:
                    continue
                state.heap = [entry for entry in state.heap
                              if entry not in doomed]
                heapq.heapify(state.heap)
                dropped.extend(doomed)
                if not state.heap and name in self._rotation:
                    self._rotation.remove(name)
                    state.deficit = 0.0
        for entry in dropped:
            self._resolve_cancelled(entry)
        return len(dropped)

    # ---------------------------------------------------------- preemption
    def preempt_starved(self, now: float | None = None) -> dict | None:
        """Park one running shard for the longest-starved tenant.

        A tenant is *starved* when it has queued work, nothing running,
        and its oldest queued shard has waited longer than
        ``starvation_threshold`` — which can only persist while other
        tenants hold every capacity slot.  The victim is another
        tenant's running shard carrying an unset
        :class:`~repro.api.events.PreemptToken` with priority no higher
        than the starved shard's: lowest priority first, most recently
        started breaking ties (it has the least progress to park).
        Setting the token asks the measurement to park at its next
        checkpoint; the service persists the measured-so-far points and
        requeues a remainder shard, so nothing is re-measured and the
        final merge stays byte-identical.

        One victim per call (the monitor re-fires if starvation
        persists).  Returns an info dict describing the preemption, or
        ``None`` when nothing is starved or no victim qualifies.
        Public so tests can drive it deterministically.
        """
        threshold = self.starvation_threshold
        if threshold is None:
            return None
        if now is None:
            now = time.monotonic()
        with self._lock:
            if self._running < self.capacity:
                return None  # free capacity: the pump serves everyone
            running_by: dict[str, int] = {}
            for entry in self._running_entries:
                running_by[entry.tenant] = running_by.get(entry.tenant, 0) + 1
            starved_name = starved_head = None
            waited = 0.0
            for name, state in self._tenants.items():
                if not state.heap or running_by.get(name, 0):
                    continue
                head = min(state.heap, key=lambda e: e.enqueued_at)
                wait = now - head.enqueued_at
                if wait > threshold and wait > waited:
                    starved_name, starved_head, waited = name, head, wait
            if starved_head is None:
                return None
            victims = [entry for entry in self._running_entries
                       if entry.tenant != starved_name
                       and entry.preempt is not None
                       and not entry.preempt.is_set()
                       and entry.priority <= starved_head.priority]
            if not victims:
                return None
            victim = min(victims,
                         key=lambda entry: (entry.priority,
                                            -entry.started_at))
            state = self._tenants.get(victim.tenant)
            if state is not None:
                state.preempted += 1
            job = victim.request.fingerprint()
            reason = (f"tenant {starved_name!r} starved for {waited:.1f}s "
                      f"(threshold {threshold:.1f}s); parking tenant "
                      f"{victim.tenant!r}'s shard {job} at its next "
                      f"checkpoint")
        victim.preempt.set(reason)
        return {"starved": starved_name, "victim": victim.tenant,
                "job": job, "waited": waited, "reason": reason}

    def _monitor_loop(self) -> None:
        interval = max(0.05, (self.starvation_threshold or 1.0) / 4.0)
        while not self._stop.wait(interval):
            try:
                self.preempt_starved()
            # lint: allow(exc-swallowed): the monitor thread must outlive arbitrary callback failures; a real starvation recurs next tick
            except Exception:  # noqa: BLE001 — the monitor must survive
                pass

    # ----------------------------------------------------------- internals
    def _tenant_state(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(name, self._weights.get(name, 1.0))
            self._tenants[name] = state
        return state

    def _queued_locked(self) -> int:
        return sum(len(state.heap) for state in self._tenants.values())

    def _pop_entry_locked(self) -> _QueueEntry | None:
        """Deficit-round-robin pop across tenant sub-heaps.

        The head tenant of the rotation refills its deficit by its
        weight once per visit (only when below one unit, so unserved
        credit never hoards unboundedly) and pays one unit per
        dispatched shard; a tenant whose deficit still falls short
        rotates to the tail and accrues across rounds, which is what
        makes fractional weights mean "one shard every 1/weight
        rounds".  Drained tenants leave the rotation with their deficit
        reset — re-arrival starts fresh, so idle time never banks
        credit.  With one tenant this reduces to a plain heap pop.
        """
        while self._rotation:
            name = self._rotation[0]
            state = self._tenants[name]
            if not state.heap:
                self._rotation.popleft()
                state.deficit = 0.0
                continue
            if state.deficit < 1.0:
                state.deficit += state.weight
            if state.deficit < 1.0:
                self._rotation.rotate(-1)
                continue
            state.deficit -= 1.0
            entry = heapq.heappop(state.heap)
            if not state.heap:
                self._rotation.popleft()
                state.deficit = 0.0
            elif state.deficit < 1.0:
                self._rotation.rotate(-1)
            return entry
        return None

    @staticmethod
    def _resolve_cancelled(entry: _QueueEntry) -> None:
        if not entry.proxy.done():
            entry.proxy.set_exception(AnalysisCancelled(
                f"request {entry.request.fingerprint()} cancelled before "
                f"its shard started"))

    def _pump(self) -> None:
        """Dispatch queued entries while capacity allows (thread-safe)."""
        while True:
            with self._lock:
                if self._running >= self.capacity:
                    return
                entry = self._pop_entry_locked()
                if entry is None:
                    return
                cancelled = (entry.cancel is not None
                             and entry.cancel.is_set())
                if not cancelled:
                    self._running += 1
                    entry.started_at = time.monotonic()
                    self._running_entries.append(entry)
            if cancelled:
                self._resolve_cancelled(entry)
                continue
            self._dispatch(entry)

    def _dispatch(self, entry: _QueueEntry) -> None:
        started = time.monotonic()

        def guarded(request):
            # Late cancellation check: the shard may have sat in a
            # backend pool queue after leaving this heap.
            if entry.cancel is not None and entry.cancel.is_set():
                raise AnalysisCancelled(
                    f"request {request.fingerprint()} cancelled before "
                    f"measurement started")
            return entry.runner(request)

        def release(inner: Future) -> None:
            elapsed = time.monotonic() - started
            error = inner.exception()
            with self._lock:
                self._running -= 1
                if entry in self._running_entries:
                    self._running_entries.remove(entry)
                if error is None:
                    # Only successful completions feed the backpressure
                    # EMA: a burst of fast failures (chaos crashes,
                    # preemption kills) says nothing about how long a
                    # measurement takes, and folding them in collapses
                    # the Retry-After hint.
                    self._avg_seconds = (elapsed if self._avg_seconds == 0.0
                                         else 0.7 * self._avg_seconds
                                         + 0.3 * elapsed)
                    state = self._tenants.get(entry.tenant)
                    if state is not None:
                        state.completed += 1
            if error is not None:
                entry.proxy.set_exception(error)
            else:
                entry.proxy.set_result(inner.result())
            self._pump()

        try:
            inner = self.backend.submit(entry.request, guarded,
                                        on_start=entry.on_start,
                                        preempt=entry.preempt)
        except BaseException as exc:  # noqa: BLE001 — delivered via the proxy
            with self._lock:
                self._running -= 1
                if entry in self._running_entries:
                    self._running_entries.remove(entry)
            entry.proxy.set_exception(exc)
            self._pump()
            return
        inner.add_done_callback(release)
