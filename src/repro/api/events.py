"""Typed lifecycle events for progressive analysis results.

The futures-first service (ISSUE 4) told a client *that* a request was
running; this module is the vocabulary for telling it *what has landed so
far*.  Every submission owns an append-only :class:`EventLog` into which
the service and scheduler emit :class:`AnalysisEvent` records:

``queued``
    The request was accepted (store-missed, not a duplicate) and is
    waiting for dispatch capacity.
``started``
    The first shard of the request began measuring.
``shard_done``
    One shard completed; the payload carries the shard's coordinates and
    the request's **merged-so-far** :class:`~repro.api.request.
    PartialResult` payload, so a consumer holds usable partial curves the
    moment the first shard lands (the paper's Step 3 grouping decisions
    only need early curve shape).
``progress``
    Shard counters moved without a curve landing (another shard started).
``done`` / ``error`` / ``cancelled``
    Terminal: the job resolved.  Exactly one terminal event closes every
    log, which is what lets :meth:`EventLog.stream` (and the HTTP event
    stream built on it) terminate deterministically.

Events are schema-versioned JSON documents (the same
``{"schema": SCHEMA_VERSION}`` convention as requests and results), so
the chunked ``GET /v1/events/<job>`` wire format is nothing bespoke —
each line of the stream is one ``AnalysisEvent.to_json()`` document.

Ordering guarantees: ``seq`` is 1-based and strictly increasing per log;
a ``shard_done`` event's partial payload always includes the shard the
event announces (the result is recorded before the event is emitted);
consumers that disconnect resume losslessly with ``after=<last seq>``.

Cancellation rides the same lifecycle: :class:`CancelToken` is the
cooperative flag a handle's ``cancel()`` sets, checked by the shard
queue before dispatch (unstarted shards drop) and by
:class:`~repro.core.sweep.SweepEngine` at stage boundaries (running
shards stop at the next checkpoint); :class:`AnalysisCancelled` is the
exception cancelled futures resolve with.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass, field

from .request import SCHEMA_VERSION, SchemaError

__all__ = ["EVENT_KINDS", "TERMINAL_EVENTS", "AnalysisCancelled",
           "AnalysisEvent", "CancelToken", "PreemptToken", "EventLog"]

#: Every event kind a log may carry, in rough lifecycle order.
#: ``shard_retry`` announces one shard's failed attempt being requeued
#: (payload: shard coordinates, attempt counter, classified error,
#: backoff delay); ``degraded`` announces the service latching its
#: pool-collapse fallback — remaining shards measure on the in-process
#: inline path (see :mod:`repro.api.resilience`); ``preempted``
#: (non-terminal) announces one shard parking at a checkpoint for a
#: starved tenant — its measured-so-far points are kept and a remainder
#: shard requeues (payload: shard coordinates, points parked, reason);
#: ``node_lost`` (non-terminal, coordinator-synthesized) announces a
#: fleet node dying mid-job — the stream splices to the job's new owner
#: (payload: the lost node URL, the error, whether the job was
#: resubmitted; see :mod:`repro.api.cluster`).
EVENT_KINDS: tuple[str, ...] = ("queued", "started", "shard_done",
                                "shard_retry", "progress", "degraded",
                                "preempted", "node_lost", "done", "error",
                                "cancelled")

#: Kinds that close a log; exactly one terminates every submission.
TERMINAL_EVENTS: frozenset[str] = frozenset({"done", "error", "cancelled"})


class AnalysisCancelled(RuntimeError):
    """The request was cancelled before a result could be produced.

    Raised by :meth:`~repro.api.service.AnalysisHandle.result` on a
    cancelled submission; also what dropped (never-started) shard
    futures resolve with.
    """


class CancelToken:
    """A cooperative, one-way cancellation flag shared by a shard group.

    Set once via :meth:`set`; the queue checks it before dispatching a
    shard, and in-process measurements poll :meth:`is_set` at the sweep
    engine's stage boundaries.  Never un-sets.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def set(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()


class PreemptToken:
    """A cooperative park-at-next-checkpoint flag for one shard attempt.

    The fair scheduler sets it (with a human-readable ``reason``) when a
    starved tenant needs the capacity slot.  In-process measurements
    poll :meth:`is_set` at the sweep engine's preemption checkpoints;
    out-of-process backends register a kill hook via :meth:`add_hook`
    so the set reaches the worker process immediately (hooks fire at
    most once, and fire immediately if the token was already set when
    registered).  Unlike :class:`CancelToken` a preempt token is
    per-attempt: the requeued remainder shard gets a fresh one.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._hooks: list = []
        self.reason: str = ""

    def set(self, reason: str = "") -> None:
        with self._lock:
            if self._event.is_set():
                return
            self.reason = reason
            self._event.set()
            hooks, self._hooks = self._hooks, []
        for hook in hooks:
            hook(reason)

    def is_set(self) -> bool:
        return self._event.is_set()

    def add_hook(self, hook) -> None:
        """Call ``hook(reason)`` when (or if already) set."""
        with self._lock:
            if not self._event.is_set():
                self._hooks.append(hook)
                return
            reason = self.reason
        hook(reason)

    def remove_hook(self, hook) -> None:
        with self._lock:
            if hook in self._hooks:
                self._hooks.remove(hook)


@dataclass(frozen=True)
class AnalysisEvent:
    """One lifecycle event of one submission (see module docstring).

    ``payload`` is kind-specific: shard coordinates and the merged-so-far
    partial for ``shard_done``, counters for ``progress``, an error
    message for ``error``.  Everything in it must be JSON-serialisable —
    events are wire objects.
    """

    kind: str
    job: str
    seq: int
    created: float = 0.0
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; "
                             f"valid: {list(EVENT_KINDS)}")

    @property
    def terminal(self) -> bool:
        """Whether this event closes its log."""
        return self.kind in TERMINAL_EVENTS

    # -------------------------------------------------------- serialisation
    def to_payload(self) -> dict:
        return {"schema": SCHEMA_VERSION, "kind": self.kind, "job": self.job,
                "seq": self.seq, "created": self.created,
                "payload": self.payload}

    @classmethod
    def from_payload(cls, payload: dict) -> "AnalysisEvent":
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise SchemaError(f"unsupported event schema {schema!r} "
                              f"(supported: {SCHEMA_VERSION})")
        return cls(kind=payload["kind"], job=payload["job"],
                   seq=payload["seq"], created=payload["created"],
                   payload=payload.get("payload", {}))

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisEvent":
        return cls.from_payload(json.loads(text))

    def slim(self) -> "AnalysisEvent":
        """This event without an embedded merged-so-far partial.

        ``shard_done`` payloads carry the request's cumulative
        :class:`~repro.api.request.PartialResult` — O(curves) bytes per
        shard, which a wide request multiplies into O(shards×curves) on
        the wire.  The slim form (``embed_partial=False`` consumers)
        replaces it with a ``partial_superseded_by`` pointer at this
        event's own seq — the same pointer compaction leaves behind —
        telling the consumer "fetch ``/v1/partial`` (or
        ``handle.partial()``) for the snapshot".  Other kinds pass
        through unchanged.
        """
        if self.kind != "shard_done" or "partial" not in self.payload:
            return self
        payload = {name: value for name, value in self.payload.items()
                   if name != "partial"}
        payload.setdefault("partial_superseded_by", self.seq)
        return dataclasses.replace(self, payload=payload)


class EventLog:
    """Append-only, condition-notified event history of one submission.

    Emitters (the service) call :meth:`emit`; consumers call
    :meth:`stream` — possibly long after the events landed, possibly from
    several threads at once, possibly resuming mid-history.  The log
    keeps every *event* (a submission emits ``2 + 2×shards`` of them),
    but **compacts superseded partial payloads**: when a new
    ``shard_done`` lands, earlier ``shard_done`` events drop their
    embedded merged-so-far partial in favour of a
    ``partial_superseded_by`` pointer at the newest one.  Live consumers
    received each cumulative partial as it happened; late replayers get
    every shard's coordinates plus the newest partial — which, by the
    monotonic-merge guarantee, contains everything the dropped ones did.
    This bounds a log's retained payload to O(shards) instead of
    O(shards²) (server-side, logs live as long as their job entry).
    """

    def __init__(self, job: str):
        self.job = job
        self._events: list[AnalysisEvent] = []
        self._condition = threading.Condition()

    def emit(self, kind: str, payload: dict | None = None) -> AnalysisEvent:
        """Append one event (thread-safe); returns it.

        Emitting after a terminal event is a silent no-op returning the
        terminal event: completion races (a shard finishing while the
        group is being failed) must not reopen a closed log.
        """
        with self._condition:
            if self._events and self._events[-1].terminal:
                return self._events[-1]
            event = AnalysisEvent(kind=kind, job=self.job,
                                  seq=len(self._events) + 1,
                                  created=time.time(),
                                  payload=payload or {})
            if kind == "shard_done" and "partial" in event.payload:
                self._compact_partials(event.seq)
            self._events.append(event)
            self._condition.notify_all()
            return event

    def _compact_partials(self, superseded_by: int) -> None:
        """Drop older shard_done events' partial payloads (caller holds
        the lock; see class docstring)."""
        for index, stale in enumerate(self._events):
            if stale.kind != "shard_done" or "partial" not in stale.payload:
                continue
            compacted = {name: value for name, value
                         in stale.payload.items() if name != "partial"}
            compacted["partial_superseded_by"] = superseded_by
            self._events[index] = dataclasses.replace(stale,
                                                      payload=compacted)

    def snapshot(self, after: int = 0, *,
                 embed_partial: bool = True) -> list[AnalysisEvent]:
        """Events with ``seq > after``, without blocking.

        ``embed_partial=False`` returns each ``shard_done`` in its slim
        form (:meth:`AnalysisEvent.slim`) — pointer instead of payload.
        """
        with self._condition:
            events = self._events[after:]
        if not embed_partial:
            events = [event.slim() for event in events]
        return events

    def closed(self) -> bool:
        with self._condition:
            return bool(self._events) and self._events[-1].terminal

    def stream(self, after: int = 0, timeout: float | None = None, *,
               embed_partial: bool = True):
        """Yield events with ``seq > after`` until the terminal event.

        ``timeout`` bounds the total silent wait: if no *new* event
        arrives within it the generator returns (the consumer may resume
        with ``after=<last seen seq>``).  With ``timeout=None`` the
        stream blocks until the log closes.  A log that is already
        closed never blocks: with nothing past ``after`` the generator
        returns at once.  ``embed_partial=False``
        yields ``shard_done`` events in their slim form
        (:meth:`AnalysisEvent.slim`).
        """
        index = after
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            with self._condition:
                while len(self._events) <= index:
                    if self._events and self._events[-1].terminal:
                        return
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        return
                    self._condition.wait(remaining)
                fresh = self._events[index:]
            for event in fresh:
                index = event.seq
                yield event if embed_partial else event.slim()
                if event.terminal:
                    return
            if deadline is not None:
                deadline = time.monotonic() + timeout

    @classmethod
    def resolved(cls, job: str, kind: str = "done",
                 payload: dict | None = None) -> "EventLog":
        """A pre-closed log (store hits, resurrected server jobs)."""
        log = cls(job)
        log.emit(kind, payload)
        return log
