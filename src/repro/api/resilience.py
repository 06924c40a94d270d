"""Fault tolerance for the execution tier: retries, supervision, chaos.

ReD-CaNe's premise is systematic resilience analysis under injected
errors — this module gives the *service that runs those analyses* the
same treatment.  Failures are first-class, testable events, not
exceptions that kill a multi-shard job:

* **Exception taxonomy** — :class:`BackendError` (a backend could not
  execute a request at all; non-retryable validation/protocol errors)
  vs :class:`WorkerCrashed` (a worker died mid-shard; infrastructure,
  retryable) vs :class:`WorkerTimeout` (the shard-deadline watchdog
  killed a hung worker; also retryable).  :class:`ShardPoisoned` is the
  terminal classification: the *same* shard failing on every attempt is
  deterministic, not transient, and fails fast carrying the full
  per-attempt provenance (:class:`AttemptRecord`).
* **Retry with backoff + jitter** — :class:`RetryPolicy` classifies
  retryability and spaces attempts (exponential backoff, deterministic
  hash-derived jitter so replays are reproducible).  The service's
  per-shard run object (``_ShardRun`` in :mod:`repro.api.service`)
  applies it to shard executions: up to ``max_retries`` relaunches,
  timer-scheduled so no thread blocks between attempts, recorded as
  :class:`AttemptRecord` provenance.  :func:`retry_call` applies it
  synchronously to store writes.
* **Worker supervision** — :class:`WorkerSupervisor` is a poll-loop
  watchdog enforcing per-shard wall-clock deadlines
  (``ExecutionOptions.shard_timeout``) and heartbeat freshness on the
  worker pool's persistent workers, killing hung (not just dead)
  workers so their shard requeues.
* **Graceful degradation** — :class:`ServiceHealth` latches a
  ``degraded`` flag after a threshold of consecutive infrastructure
  failures; the service then measures remaining shards on the inline
  (in-process) path, which is byte-identical by the stateless
  noise-stream guarantee.
* **Deterministic fault injection** — :class:`FaultPlan`/:class:`Fault`
  script seeded failures (worker crash before/after a shard, hang,
  corrupted frame) keyed by per-shard-fingerprint attempt counters, so
  a chaos run is reproducible regardless of dispatch interleaving;
  :class:`FaultyStore` injects store-write ``OSError`` the same way.
  The ``chaos:<inner>`` backend wrapper lives in
  :mod:`repro.api.backends` (it *is* a backend); the plan vocabulary
  lives here so tests and benchmarks can build plans without touching
  process machinery.

Everything here is idempotency-powered: shards are content-addressed
and every noise stream derives statelessly per (seed, site, batch), so
replaying a failed shard — on a fresh worker, after a timeout kill, or
inline after degradation — produces byte-identical curves.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .events import AnalysisCancelled

__all__ = ["BackendError", "WorkerCrashed", "WorkerTimeout",
           "WorkerPreempted", "ShardPoisoned",
           "AttemptRecord", "RetryPolicy", "retry_call", "WorkerSupervisor", "ServiceHealth",
           "Fault", "FaultPlan", "FaultyStore", "FAULT_KINDS"]

logger = logging.getLogger("repro.api.resilience")


class BackendError(RuntimeError):
    """A backend could not execute a request (bad combo or worker failure).

    Bare :class:`BackendError` is **not retryable**: it covers
    deterministic refusals (session refs on a process backend, protocol
    misuse, in-worker measurement errors) that would fail identically
    on every attempt.  Transient infrastructure failures raise the
    :class:`WorkerCrashed`/:class:`WorkerTimeout` subclasses instead.
    """


class WorkerCrashed(BackendError):
    """A worker process died (or its channel broke) mid-shard.

    Infrastructure, not measurement: the shard itself is intact and a
    replay on a fresh worker is byte-identical, so this is retryable.
    """


class WorkerTimeout(WorkerCrashed):
    """The supervision watchdog killed a worker past its shard deadline
    (or with stale heartbeats — hung, not just dead).  Retryable like
    any other worker loss; the attempt provenance records the reason."""


class WorkerPreempted(WorkerTimeout):
    """The fair scheduler killed a worker mid-shard to free its slot
    for a starved tenant.

    A :class:`WorkerTimeout` subclass so every existing classification
    (retryable infrastructure loss, byte-identical replay) applies —
    but the service's shard run intercepts it *before* counting an
    attempt failure: a preempted shard requeues immediately without
    burning retry budget, feeding the degradation streak, or counting
    as a worker restart (the worker was healthy; we shot it on
    purpose)."""


@dataclass(frozen=True)
class AttemptRecord:
    """Provenance of one failed execution attempt of one shard."""

    attempt: int                 # 0-based attempt index
    error_type: str
    message: str
    elapsed_seconds: float

    def to_payload(self) -> dict:
        return {"attempt": self.attempt, "error_type": self.error_type,
                "message": self.message,
                "elapsed_seconds": self.elapsed_seconds}

    def __str__(self) -> str:
        return (f"attempt {self.attempt}: {self.error_type} after "
                f"{self.elapsed_seconds:.2f}s — {self.message}")


class ShardPoisoned(RuntimeError):
    """One shard failed every allowed attempt: deterministic, not transient.

    Carries the full attempt provenance so the operator can tell a
    flaky worker fleet (varied errors, long gaps) from a poisoned shard
    (the same error, attempt after attempt).  Raised instead of the
    last error once ``max_retries`` is exhausted — loudly, promptly,
    never a hang.
    """

    def __init__(self, describe: str, attempts: list[AttemptRecord]):
        lines = "; ".join(str(record) for record in attempts)
        super().__init__(
            f"shard {describe} failed {len(attempts)} time"
            f"{'' if len(attempts) == 1 else 's'} and is classified as "
            f"deterministically poisoned ({lines})")
        self.describe = describe
        self.attempts = list(attempts)

    def to_payload(self) -> dict:
        return {"shard": self.describe,
                "attempts": [record.to_payload()
                             for record in self.attempts]}


@dataclass(frozen=True)
class RetryPolicy:
    """How failed shards are requeued: spacing and retryability.

    ``delay(attempt, key)`` grows exponentially from ``base_delay`` by
    ``multiplier``, capped at ``max_delay``, plus a deterministic
    jitter fraction (up to ``jitter`` of the delay) derived by hashing
    ``(key, attempt)`` — no global RNG is consulted, so a replayed
    chaos run backs off identically.  ``retryable`` classifies
    infrastructure failures (:class:`WorkerCrashed` incl. timeouts,
    transient :class:`OSError` such as broken pipes or a full disk)
    as requeueable; everything else — measurement errors, validation
    refusals, cancellation — propagates immediately.
    """

    base_delay: float = 0.25
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"retry multiplier must be >= 1.0, "
                             f"got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def retryable(self, error: BaseException) -> bool:
        if isinstance(error, AnalysisCancelled):
            return False
        if isinstance(error, WorkerCrashed):
            return True
        if isinstance(error, BackendError):
            return False          # deterministic refusal
        return isinstance(error, OSError)

    def delay(self, attempt: int, key: str = "") -> float:
        base = min(self.max_delay,
                   self.base_delay * (self.multiplier ** attempt))
        if self.jitter == 0.0 or base == 0.0:
            return base
        digest = hashlib.sha256(f"{key}#{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
        return base * (1.0 + self.jitter * fraction)


def retry_call(fn: Callable[[], object], *, policy: RetryPolicy,
               max_retries: int, describe: str,
               sleep: Callable[[float], None] = time.sleep):
    """Synchronously call ``fn`` with the policy's retry/backoff.

    The blocking sibling of the service's shard retries, for store
    writes and other short side effects.  Exhaustion re-raises the
    *last* error unchanged (a persistent ``OSError`` should surface as
    itself, not be re-wrapped — only shard executions classify as
    poisoned).
    """
    attempt = 0
    while True:
        try:
            return fn()
        except BaseException as error:  # noqa: BLE001 — classified below
            if not policy.retryable(error) or attempt >= max_retries:
                raise
            pause = policy.delay(attempt, key=describe)
            logger.warning("retrying %s after %s: %s (attempt %d/%d, "
                           "backoff %.2fs)", describe,
                           type(error).__name__, error, attempt + 1,
                           max_retries, pause)
            sleep(pause)
            attempt += 1


# --------------------------------------------------------------- supervision
@dataclass
class _Watch:
    """One supervised execution (see :class:`WorkerSupervisor`)."""

    deadline: float | None
    beat: Callable[[], float] | None
    grace: float | None
    kill: Callable[[str], None]
    describe: str


class WorkerSupervisor:
    """Poll-loop watchdog over in-flight worker executions.

    Two tripwires per watched execution:

    * **deadline** — an absolute monotonic instant (the shard's
      wall-clock budget, ``ExecutionOptions.shard_timeout`` from its
      start); past it the worker is killed within one poll interval.
    * **heartbeat staleness** — ``beat()`` reports the monotonic time
      of the worker's last heartbeat frame; silence longer than
      ``grace`` means the worker is hung (not merely slow — a healthy
      worker's heartbeat thread beats through any computation), and it
      is killed even without an explicit deadline.

    ``kill(reason)`` is the caller's teardown (mark the worker, SIGKILL
    the process); the killed worker's read loop then observes EOF and
    raises :class:`WorkerTimeout`, which the retry layer requeues.
    The poll thread starts lazily and is shared by every watch.
    """

    def __init__(self, poll_interval: float = 0.1):
        self.poll_interval = float(poll_interval)
        self._watches: dict[int, _Watch] = {}
        self._ticket = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def watch(self, *, kill: Callable[[str], None], describe: str,
              deadline: float | None = None,
              beat: Callable[[], float] | None = None,
              grace: float | None = None) -> int:
        """Begin supervising one execution; returns an unwatch token."""
        with self._lock:
            self._ticket += 1
            token = self._ticket
            self._watches[token] = _Watch(deadline=deadline, beat=beat,
                                          grace=grace, kill=kill,
                                          describe=describe)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-supervisor", daemon=True)
                self._thread.start()
        return token

    def unwatch(self, token: int) -> None:
        with self._lock:
            self._watches.pop(token, None)

    def close(self) -> None:
        self._stop.set()

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            now = time.monotonic()
            with self._lock:
                snapshot = list(self._watches.items())
            for token, entry in snapshot:
                reason = None
                if entry.deadline is not None and now > entry.deadline:
                    reason = (f"{entry.describe}: shard deadline exceeded "
                              f"(watchdog killed the worker)")
                elif (entry.grace is not None and entry.beat is not None
                      and now - entry.beat() > entry.grace):
                    reason = (f"{entry.describe}: worker heartbeats stale "
                              f"for over {entry.grace:.1f}s (hung worker "
                              f"killed by watchdog)")
                if reason is None:
                    continue
                self.unwatch(token)
                try:
                    entry.kill(reason)
                except Exception:  # noqa: BLE001 — watchdog must survive
                    logger.exception("supervisor kill failed for %s",
                                     entry.describe)


# -------------------------------------------------------------- degradation
class ServiceHealth:
    """Latching pool-collapse detector behind graceful degradation.

    Counts *consecutive* infrastructure failures (worker crashes,
    timeouts, transient ``OSError``) across shard executions; a success
    resets the streak.  Once the streak reaches ``degrade_threshold``
    the ``degraded`` flag latches (it never unlatches — a collapsing
    pool should not flap) and the service measures remaining shards on
    the in-process inline path instead of erroring jobs.
    ``degrade_threshold=None`` disables degradation entirely.
    """

    def __init__(self, degrade_threshold: int | None = None):
        if degrade_threshold is not None and degrade_threshold < 1:
            raise ValueError(f"degrade_threshold must be >= 1, "
                             f"got {degrade_threshold}")
        self.degrade_threshold = degrade_threshold
        self._consecutive = 0
        self._failures = 0
        self._degraded = False
        self._lock = threading.Lock()

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    def record(self, error: BaseException | None) -> bool:
        """Feed one shard outcome; returns ``True`` when this failure
        newly latched the degraded flag."""
        infrastructure = isinstance(error, (WorkerCrashed, OSError))
        with self._lock:
            if error is None:
                self._consecutive = 0
                return False
            if not infrastructure:
                return False
            self._consecutive += 1
            self._failures += 1
            if (self.degrade_threshold is not None and not self._degraded
                    and self._consecutive >= self.degrade_threshold):
                self._degraded = True
                return True
            return False

    def snapshot(self) -> dict:
        with self._lock:
            return {"degraded": self._degraded,
                    "consecutive_failures": self._consecutive,
                    "infrastructure_failures": self._failures,
                    "degrade_threshold": self.degrade_threshold}


# ------------------------------------------------------------ fault injection
#: Fault kinds a :class:`FaultPlan` may script (``store-error`` is the
#: :class:`FaultyStore` wrapper's domain, not the backend's).
FAULT_KINDS: tuple[str, ...] = ("crash-before", "crash-after", "corrupt",
                                "hang")


@dataclass(frozen=True)
class Fault:
    """One scripted failure.

    ``shard`` selects which shard (by first-seen fingerprint order on
    the chaos backend; ``None`` = every shard) and ``attempt`` selects
    which execution attempt of that shard (``None`` = every attempt —
    the recipe for a deterministic :class:`ShardPoisoned`).  Matching
    on the per-fingerprint attempt counter, not on wall-clock dispatch
    order, is what makes a chaos run reproducible under any
    parallelism.
    """

    kind: str
    shard: int | None = None
    attempt: int | None = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"valid: {list(FAULT_KINDS)}")

    def matches(self, shard: int, attempt: int) -> bool:
        return ((self.shard is None or self.shard == shard)
                and (self.attempt is None or self.attempt == attempt))

    def to_payload(self) -> dict:
        return {"kind": self.kind, "shard": self.shard,
                "attempt": self.attempt}


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of injected failures (see :class:`Fault`)."""

    faults: tuple[Fault, ...] = ()

    def fault_for(self, shard: int, attempt: int) -> Fault | None:
        """The first scripted fault matching this (shard, attempt)."""
        for fault in self.faults:
            if fault.matches(shard, attempt):
                return fault
        return None

    @classmethod
    def crash_every_shard(cls, times: int = 1,
                          where: str = "crash-before") -> "FaultPlan":
        """Crash the worker on every shard's first ``times`` attempts.

        The acceptance plan: with ``times <= max_retries`` every shard
        recovers via retry and the merged result must be byte-identical
        to a fault-free run.
        """
        return cls(faults=tuple(Fault(kind=where, shard=None, attempt=n)
                                for n in range(times)))

    @classmethod
    def hang_every_shard(cls, times: int = 1) -> "FaultPlan":
        """Hang (stop heartbeats, sleep) on every shard's first attempts."""
        return cls(faults=tuple(Fault(kind="hang", shard=None, attempt=n)
                                for n in range(times)))


class FaultyStore:
    """A :class:`~repro.api.store.ResultStore` wrapper whose first
    ``put_failures`` writes raise ``OSError`` (scripted, deterministic).

    Everything else delegates, so the wrapped store behaves identically
    once the scripted failures are spent — the regression surface for
    "a transient store-write failure must requeue, not kill the job".
    """

    def __init__(self, store, put_failures: int = 1):
        self._store = store
        self._remaining = int(put_failures)
        self.failed_puts = 0
        self._lock = threading.Lock()

    def put(self, key: str, result) -> str:
        with self._lock:
            if self._remaining > 0:
                self._remaining -= 1
                self.failed_puts += 1
                raise OSError(
                    f"chaos: injected store-write failure for {key!r} "
                    f"({self._remaining} more scripted)")
        return self._store.put(key, result)

    def __getattr__(self, name):
        return getattr(self._store, name)
