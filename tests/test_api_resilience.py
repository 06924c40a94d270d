"""Fault-tolerant execution: retries, supervision, degradation, chaos
(ISSUE 6).

Five kinds of armor:

* **Retry machinery** — `RetryPolicy` backs off exponentially with a
  deterministic jitter and classifies infrastructure failures;
  the service's per-shard run drives attempts to first success, first
  non-retryable error, cancellation, or `ShardPoisoned` with full
  attempt provenance; `retry_call` re-raises the last underlying error.
* **Service resilience** — a chaos-wrapped service recovers scripted
  crashes byte-identically to a fault-free run, emits typed
  `shard_retry` events, poisons a persistently-failing shard instead
  of hanging, and latches graceful degradation when the pool collapses.
* **Worker supervision** — the procpool watchdog kills a deadline- or
  heartbeat-violating worker within one poll interval; the killed
  shard requeues on a fresh worker and `worker_restarts` counts the
  replacement.
* **Store atomicity** — a writer SIGKILLed mid-`put` leaves no torn
  entry, only a `.tmp` orphan that `gc()` collects (satellite 1).
* **Server lifecycle** — SIGTERM drains gracefully (503 + Retry-After
  for new work, running shards finish); an events consumer resuming
  across a server restart sees the terminal event without duplicated
  `shard_done` history (satellite 3).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import (AnalysisCancelled, AnalysisRequest, AnalysisServer,
                       AttemptRecord, ChaosBackend, ExecutionOptions, Fault,
                       FaultPlan, FaultyStore, ModelRef, RemoteError,
                       RemoteService, ResilienceService, ResultStore,
                       RetryPolicy, ShardPoisoned, WorkerCrashed,
                       WorkerSupervisor, WorkerTimeout, make_backend)
from repro.api.resilience import retry_call

#: Retry spacing tight enough for tests; semantics identical to default.
FAST = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05)

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


@pytest.fixture()
def service(tmp_path):
    built = []

    def build(**kwargs):
        kwargs.setdefault("cache_dir", str(tmp_path))
        instance = ResilienceService(**kwargs)
        built.append(instance)
        return instance

    yield build
    for instance in built:
        instance.close()


def _zoo_request(**overrides) -> AnalysisRequest:
    base = dict(model=ModelRef(benchmark="CapsNet/MNIST"),
                targets=(("softmax", None), ("mac_outputs", None)),
                nm_values=(0.5, 0.0), eval_samples=32,
                options=ExecutionOptions(batch_size=32))
    base.update(overrides)
    return AnalysisRequest(**base)


def _accuracies(curves) -> dict:
    return {key: [point.accuracy for point in curve.points]
            for key, curve in curves.items()}


# =========================================================== retry machinery
class TestRetryPolicy:
    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=2.0, max_delay=3.0,
                             jitter=0.0)
        assert policy.delay(0) == 0.5
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 3.0      # capped
        assert policy.delay(9) == 3.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                             jitter=0.25)
        first = policy.delay(0, key="shard-a")
        assert first == policy.delay(0, key="shard-a")  # replayable
        assert 1.0 <= first <= 1.25
        assert first != policy.delay(0, key="shard-b")  # keyed, not global

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(WorkerCrashed("worker died"))
        assert policy.retryable(WorkerTimeout("watchdog"))
        assert policy.retryable(OSError("broken pipe"))
        # Deterministic refusals and cancellation never retry.
        from repro.api import BackendError
        assert not policy.retryable(BackendError("session ref"))
        assert not policy.retryable(AnalysisCancelled("stop"))
        assert not policy.retryable(ValueError("bad request"))

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)


def _single(**overrides) -> AnalysisRequest:
    """One target, one NM: a single cheap shard."""
    overrides.setdefault("targets", (("softmax", None),))
    overrides.setdefault("nm_values", (0.5,))
    return _zoo_request(**overrides)


def _retries(max_retries: int) -> ExecutionOptions:
    return ExecutionOptions(batch_size=32, max_retries=max_retries)


class TestDispatchWithRetries:
    """The service's shard lifecycle (``_ShardRun``) on ``chaos:inline``:
    scripted (shard, attempt) worker crashes stand in for real worker
    losses, and the events and health counters show each transition."""

    def test_first_attempt_success(self, service):
        # A fault scripted for attempt 1 fires only if a retry happens.
        svc = service(use_store=False, backend="chaos:inline",
                      retry_policy=FAST, fault_plan=FaultPlan(faults=(
                          Fault(kind="crash-before", shard=0, attempt=1),)))
        handle = svc.submit(_single())
        assert handle.result(timeout=120).curves
        kinds = [event.kind for event in handle.events()]
        assert kinds.count("started") == 1 and "shard_retry" not in kinds
        assert svc.backend.injected == 0
        assert svc.stats.shards == 1

    def test_retry_then_success(self, service):
        svc = service(use_store=False, backend="chaos:inline",
                      retry_policy=FAST,
                      fault_plan=FaultPlan.crash_every_shard(times=2))
        handle = svc.submit(_single(options=_retries(2)))
        assert handle.result(timeout=120).curves
        assert svc.backend.injected == 2
        retries = [event.payload for event in handle.events()
                   if event.kind == "shard_retry"]
        assert [payload["attempt"] for payload in retries] == [1, 2]
        assert all(payload["max_retries"] == 2
                   and payload["delay_seconds"] >= 0
                   and "WorkerCrashed" in payload["error"]
                   for payload in retries)
        kinds = [event.kind for event in handle.events()]
        assert kinds.count("started") == 1 and kinds[-1] == "done"
        # Health is fed once per retried failure, then the success
        # outcome resets the streak.
        health = svc.health.snapshot()
        assert health["infrastructure_failures"] == 2
        assert health["consecutive_failures"] == 0

    def test_exhaustion_poisons_with_provenance(self, service):
        svc = service(use_store=False, backend="chaos:inline",
                      retry_policy=FAST, fault_plan=FaultPlan(faults=(
                          Fault(kind="crash-before", shard=0,
                                attempt=None),)))
        request = _single(options=_retries(2))
        handle = svc.submit(request)
        with pytest.raises(ShardPoisoned,
                           match=request.fingerprint()[:12]) as excinfo:
            handle.result(timeout=120)
        poisoned = excinfo.value
        assert svc.backend.injected == 3       # max_retries + 1 attempts
        assert len(poisoned.attempts) == 3
        assert all(isinstance(record, AttemptRecord)
                   for record in poisoned.attempts)
        assert [record.attempt for record in poisoned.attempts] == [0, 1, 2]
        assert poisoned.attempts[-1].error_type == "WorkerCrashed"
        assert isinstance(poisoned.__cause__, WorkerCrashed)
        assert len(poisoned.to_payload()["attempts"]) == 3
        # Two retried failures plus the terminal one, unwrapped from
        # ShardPoisoned: all three count as infrastructure losses.
        assert svc.health.snapshot()["infrastructure_failures"] == 3
        assert handle.status() == "error"

    def test_non_retryable_propagates_immediately(self, service):
        svc = service(use_store=False, retry_policy=FAST)
        calls = []

        def broken(request, cancel=None, preempt=None):
            calls.append(request)
            raise ValueError("scripted failure 1")

        svc._measure = broken
        handle = svc.submit(_single(options=_retries(5)))
        with pytest.raises(ValueError, match="scripted failure 1"):
            handle.result(timeout=10)
        assert len(calls) == 1                 # no retry burned on it
        assert "shard_retry" not in [e.kind for e in handle.events()]
        assert svc.health.snapshot()["infrastructure_failures"] == 0

    def test_abort_between_attempts_cancels(self, service):
        svc = service(use_store=False, retry_policy=FAST)
        calls = []

        def crash_and_cancel(request, cancel=None, preempt=None):
            calls.append(request)
            cancel.set()                       # cancelled before the retry
            raise WorkerCrashed("die")

        svc._measure = crash_and_cancel
        handle = svc.submit(_single(options=_retries(5)))
        with pytest.raises(AnalysisCancelled, match="between retry"):
            handle.result(timeout=10)
        assert len(calls) == 1
        kinds = [event.kind for event in handle.events()]
        assert kinds.count("shard_retry") == 1
        assert kinds[-1] == "cancelled"

    def test_retry_call_reraises_last_error_unwrapped(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            retry_call(always_fails, policy=FAST, max_retries=2,
                       describe="store put", sleep=lambda _: None)
        assert len(calls) == 3             # budget spent, error untouched

    def test_retry_call_recovers(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "stored"

        assert retry_call(flaky, policy=FAST, max_retries=3,
                          describe="store put",
                          sleep=lambda _: None) == "stored"


class TestExecutionOptionsResilience:
    def test_round_trip_carries_fault_knobs(self):
        options = ExecutionOptions(max_retries=4, shard_timeout=2.5)
        payload = options.to_payload()
        assert payload["max_retries"] == 4
        assert payload["shard_timeout"] == 2.5
        assert ExecutionOptions.from_payload(payload) == options

    def test_cache_key_excludes_fault_knobs(self):
        """Retry budget and deadlines change *how* a shard executes,
        never *what* it measures — store keys (and every pre-existing
        golden entry) must not churn."""
        base = ExecutionOptions()
        tweaked = dataclasses.replace(base, max_retries=7,
                                      shard_timeout=1.0)
        assert tweaked.cache_key() == base.cache_key()

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ExecutionOptions(max_retries=-1)
        with pytest.raises(ValueError, match="shard_timeout"):
            ExecutionOptions(shard_timeout=0.0)


# ============================================================ chaos plumbing
class TestChaosValidation:
    def test_chaos_prefix_requires_fault_plan(self):
        with pytest.raises(ValueError, match="fault_plan"):
            make_backend("chaos:threads")

    def test_fault_plan_without_chaos_rejected(self):
        with pytest.raises(ValueError, match="chaos"):
            make_backend("threads", fault_plan=FaultPlan())

    def test_fault_plan_type_checked(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            make_backend("chaos:threads", fault_plan={"kind": "hang"})

    def test_hang_needs_procpool(self):
        with pytest.raises(ValueError, match="procpool"):
            make_backend("chaos:threads",
                         fault_plan=FaultPlan.hang_every_shard())

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="meteor-strike")

    def test_fault_matching_coordinates(self):
        every = Fault(kind="corrupt", shard=None, attempt=None)
        assert every.matches(0, 0) and every.matches(7, 3)
        pinned = Fault(kind="corrupt", shard=2, attempt=1)
        assert pinned.matches(2, 1)
        assert not pinned.matches(2, 0) and not pinned.matches(1, 1)
        plan = FaultPlan.crash_every_shard(times=2)
        assert plan.fault_for(5, 0) is not None
        assert plan.fault_for(5, 1) is not None
        assert plan.fault_for(5, 2) is None

    def test_chaos_wraps_and_delegates(self):
        backend = make_backend("chaos:threads", 2,
                               fault_plan=FaultPlan.crash_every_shard())
        try:
            assert isinstance(backend, ChaosBackend)
            assert backend.name == "chaos:threads"
            assert backend.parallel == 2
            assert backend.worker_restarts == 0
        finally:
            backend.close()


# ========================================================= service resilience
class TestServiceRetries:
    def test_crash_then_retry_is_byte_identical(self, service, tmp_path):
        """The core recovery guarantee: every shard's first attempt
        crashes, every shard recovers via retry, and the merged result
        is byte-identical to a fault-free run."""
        reference = service(cache_dir=str(tmp_path / "ref"))
        golden = reference.run(_zoo_request())

        chaotic = service(cache_dir=None, use_store=False,
                          backend="chaos:threads", max_parallel=2,
                          fault_plan=FaultPlan.crash_every_shard(times=1),
                          retry_policy=FAST)
        handle = chaotic.submit(_zoo_request())
        result = handle.result(timeout=120)
        assert _accuracies(result.curves) == _accuracies(golden.curves)
        assert chaotic.backend.injected == 2          # one per shard
        kinds = [event.kind for event in handle.events()]
        assert kinds.count("shard_retry") == 2
        assert kinds[-1] == "done"
        retry = next(event for event in handle.events()
                     if event.kind == "shard_retry")
        assert retry.payload["attempt"] == 1
        assert retry.payload["max_retries"] == 2
        assert "WorkerCrashed" in retry.payload["error"]
        assert retry.payload["delay_seconds"] >= 0

    def test_persistent_failure_poisons_not_hangs(self, service):
        """max_retries + 1 scripted failures -> ShardPoisoned with the
        full attempt history, surfaced as the job's error."""
        svc = service(
            cache_dir=None, use_store=False, backend="chaos:threads",
            max_parallel=2, retry_policy=FAST,
            fault_plan=FaultPlan(faults=(
                Fault(kind="crash-before", shard=0, attempt=None),)))
        request = _zoo_request(
            options=ExecutionOptions(batch_size=32, max_retries=1))
        handle = svc.submit(request)
        with pytest.raises(ShardPoisoned) as excinfo:
            handle.result(timeout=120)
        assert len(excinfo.value.attempts) == 2       # 1 + max_retries
        assert handle.status() == "error"
        assert [e.kind for e in handle.events()][-1] == "error"

    def test_crash_after_lost_result_replays_identically(self, service,
                                                         tmp_path):
        """crash-after runs the real measurement then loses the frame;
        the replay must still merge byte-identically."""
        reference = service(cache_dir=str(tmp_path / "ref2"))
        golden = reference.run(_zoo_request(seed=5))
        chaotic = service(
            cache_dir=None, use_store=False, backend="chaos:threads",
            max_parallel=2, retry_policy=FAST,
            fault_plan=FaultPlan.crash_every_shard(times=1,
                                                   where="crash-after"))
        result = chaotic.run(_zoo_request(seed=5))
        assert _accuracies(result.curves) == _accuracies(golden.curves)
        assert chaotic.backend.injected == 2

    def test_pool_collapse_degrades_and_completes(self, service, tmp_path):
        """Every backend attempt crashes -> the health tracker latches
        past the threshold and remaining shards complete on the
        in-process fallback, loudly."""
        reference = service(cache_dir=str(tmp_path / "ref3"))
        golden = reference.run(_zoo_request(seed=6))
        svc = service(
            cache_dir=None, use_store=False, backend="chaos:threads",
            max_parallel=2, retry_policy=FAST, degrade_threshold=2,
            fault_plan=FaultPlan(faults=(
                Fault(kind="crash-before", shard=None, attempt=None),)))
        handle = svc.submit(_zoo_request(seed=6))
        result = handle.result(timeout=120)
        assert _accuracies(result.curves) == _accuracies(golden.curves)
        assert svc.degraded
        snapshot = svc.health.snapshot()
        assert snapshot["degraded"]
        assert snapshot["infrastructure_failures"] >= 2
        kinds = [event.kind for event in handle.events()]
        assert kinds.count("degraded") == 1           # loud, not chatty
        assert kinds[-1] == "done"

    def test_transient_store_write_failure_recovers(self, service,
                                                    tmp_path):
        """Satellite regression surface: one scripted put OSError must
        retry and persist, not fail a fully-measured request."""
        store = FaultyStore(ResultStore(str(tmp_path / "flaky")),
                            put_failures=1)
        svc = service(store=store, backend="threads", max_parallel=2,
                      retry_policy=FAST)
        result = svc.run(_zoo_request(seed=7))
        assert result.baseline_accuracy > 0
        assert store.failed_puts == 1
        keys = store.keys()                    # merged + per-shard entries
        assert keys and all(store.get(key) is not None for key in keys)
        warm = svc.run(_zoo_request(seed=7))   # really persisted: store hit
        assert warm.from_cache

    def test_persistent_store_write_failure_surfaces_itself(self, service,
                                                            tmp_path):
        store = FaultyStore(ResultStore(str(tmp_path / "dead")),
                            put_failures=99)
        svc = service(store=store, backend="threads", max_parallel=2,
                      retry_policy=FAST)
        request = _zoo_request(
            seed=8, options=ExecutionOptions(batch_size=32, max_retries=1))
        handle = svc.submit(request)
        with pytest.raises(OSError, match="injected store-write"):
            handle.result(timeout=120)
        # >= because both shards' puts may burn their budgets in
        # parallel before the first exhaustion surfaces.
        assert store.failed_puts >= 2                 # 1 + max_retries

    def test_sharded_store_put_failure_releases_inflight_key(self, service,
                                                           tmp_path):
        """A sharded shard's store put fails after a complete
        measurement: the error reaches the caller through the shard's
        future, and neither its in-flight key nor the job's leaks."""
        store = FaultyStore(ResultStore(str(tmp_path / "dead")),
                            put_failures=99)
        svc = service(store=store, backend="threads", max_parallel=2,
                      retry_policy=FAST)
        request = _zoo_request(seed=9, options=_retries(0))
        handle = svc.submit(request)
        with pytest.raises(OSError, match="injected store-write"):
            handle.result(timeout=120)
        assert svc._inflight == {}
        # A lone resubmission of one shard measures afresh instead of
        # joining a dead future.
        shard = _zoo_request(seed=9, targets=(("softmax", None),),
                             options=_retries(0))
        with pytest.raises(OSError, match="injected store-write"):
            svc.submit(shard).result(timeout=120)
        assert svc.stats.deduplicated == 0

    def test_worker_restarts_in_queue_snapshot(self, service):
        svc = service(cache_dir=None, use_store=False, backend="threads")
        assert svc.queue_snapshot()["worker_restarts"] == 0


# ========================================================== worker supervision
class TestWorkerSupervisor:
    def test_deadline_kill_within_one_poll_interval(self):
        supervisor = WorkerSupervisor(poll_interval=0.05)
        killed = threading.Event()
        reasons = []

        def kill(reason: str) -> None:
            reasons.append(reason)
            killed.set()

        deadline = 0.3
        start = time.monotonic()
        supervisor.watch(kill=kill, describe="shard-t",
                         deadline=start + deadline)
        try:
            assert killed.wait(timeout=5)
            elapsed = time.monotonic() - start
            assert elapsed >= deadline
            assert elapsed <= deadline + 0.05 + 0.3   # + poll + margin
            assert "deadline exceeded" in reasons[0]
        finally:
            supervisor.close()

    def test_heartbeat_staleness_kill(self):
        supervisor = WorkerSupervisor(poll_interval=0.05)
        killed = threading.Event()
        reasons = []
        last_beat = time.monotonic()
        supervisor.watch(kill=lambda r: (reasons.append(r), killed.set()),
                         describe="shard-h", beat=lambda: last_beat,
                         grace=0.2)
        try:
            assert killed.wait(timeout=5)
            assert "heartbeats stale" in reasons[0]
        finally:
            supervisor.close()

    def test_fresh_heartbeats_keep_worker_alive(self):
        supervisor = WorkerSupervisor(poll_interval=0.05)
        killed = threading.Event()
        token = supervisor.watch(kill=lambda r: killed.set(),
                                 describe="shard-ok",
                                 beat=time.monotonic, grace=0.2)
        try:
            assert not killed.wait(timeout=0.6)       # beating -> no kill
            supervisor.unwatch(token)
        finally:
            supervisor.close()

    def test_unwatch_prevents_kill(self):
        supervisor = WorkerSupervisor(poll_interval=0.05)
        killed = threading.Event()
        token = supervisor.watch(kill=lambda r: killed.set(),
                                 describe="shard-done",
                                 deadline=time.monotonic() + 0.1)
        supervisor.unwatch(token)
        try:
            assert not killed.wait(timeout=0.4)
        finally:
            supervisor.close()


# =========================================================== procpool chaos
@pytest.mark.chaos
class TestProcPoolChaos:
    def test_crash_every_worker_byte_identical_to_inline(self, service,
                                                         tmp_path,
                                                         caplog):
        """ISSUE 6 acceptance: a chaos plan crashing each procpool
        worker mid-shard completes via retries with curves
        byte-identical to a fault-free inline run, and the restarts are
        observable (snapshot counter + structured warning)."""
        import logging
        reference = service(cache_dir=str(tmp_path / "ref"))
        golden = reference.run(_zoo_request(seed=9))
        chaotic = service(
            cache_dir=None, use_store=False, backend="chaos:procpool",
            max_parallel=2, retry_policy=FAST,
            fault_plan=FaultPlan.crash_every_shard(times=1))
        with caplog.at_level(logging.WARNING, logger="repro.api.backends"):
            result = chaotic.run(_zoo_request(seed=9))
        assert _accuracies(result.curves) == _accuracies(golden.curves)
        assert chaotic.backend.injected == 2
        assert chaotic.backend.worker_restarts == 2
        assert chaotic.queue_snapshot()["worker_restarts"] == 2
        # Satellite: the replacement is a structured warning naming the
        # shard and the cumulative restart count.
        lost = [record.getMessage() for record in caplog.records
                if "procpool worker lost" in record.getMessage()]
        assert lost and "worker_restarts=" in lost[-1]
        assert "shard " in lost[0]

    def test_hung_worker_tripped_by_shard_timeout(self, service):
        """A hung worker (no heartbeats, no exit) is killed by the
        deadline watchdog and the shard recovers on a fresh worker."""
        svc = service(
            cache_dir=None, use_store=False, backend="chaos:procpool",
            max_parallel=1, retry_policy=FAST,
            fault_plan=FaultPlan.hang_every_shard(times=1))
        request = _zoo_request(
            seed=10, targets=(("softmax", None),),
            options=ExecutionOptions(batch_size=32, shard_timeout=2.0))
        handle = svc.submit(request)
        result = handle.result(timeout=180)
        assert result.baseline_accuracy > 0
        assert svc.backend.worker_restarts == 1
        retries = [event for event in handle.events()
                   if event.kind == "shard_retry"]
        assert len(retries) == 1
        # The watchdog (not a crash) reclaimed the worker, and the
        # deadline tripwire (not heartbeat staleness) fired.
        assert "WorkerTimeout" in retries[0].payload["error"]
        assert "deadline exceeded" in retries[0].payload["error"]

    def test_corrupted_frame_recovers(self, service, tmp_path):
        reference = service(cache_dir=str(tmp_path / "ref"))
        golden = reference.run(_zoo_request(seed=11))
        chaotic = service(
            cache_dir=None, use_store=False, backend="chaos:procpool",
            max_parallel=2, retry_policy=FAST,
            fault_plan=FaultPlan.crash_every_shard(times=1,
                                                   where="corrupt"))
        result = chaotic.run(_zoo_request(seed=11))
        assert _accuracies(result.curves) == _accuracies(golden.curves)
        assert chaotic.backend.injected == 2


@pytest.mark.slow
@pytest.mark.chaos
class TestExhaustiveCrashMatrix:
    """Every fault kind at every (shard, attempt) coordinate of a
    sharded run recovers byte-identically — the exhaustive tier."""

    @pytest.mark.parametrize("kind", ["crash-before", "crash-after",
                                      "corrupt"])
    @pytest.mark.parametrize("shard", [0, 1])
    def test_single_fault_matrix(self, service, tmp_path, kind, shard):
        reference = service(cache_dir=str(tmp_path / "ref"))
        golden = reference.run(_zoo_request(seed=12))
        chaotic = service(
            cache_dir=None, use_store=False, backend="chaos:procpool",
            max_parallel=2, retry_policy=FAST,
            fault_plan=FaultPlan(faults=(
                Fault(kind=kind, shard=shard, attempt=0),)))
        result = chaotic.run(_zoo_request(seed=12))
        assert _accuracies(result.curves) == _accuracies(golden.curves)
        assert chaotic.backend.injected == 1


# ====================================================== store write atomicity
_TORN_WRITER = """
import json, os, sys, time
sys.path.insert(0, sys.argv[1])
from repro.api.request import AnalysisResult
from repro.api.store import ResultStore

root, key, document = sys.argv[2], sys.argv[3], sys.argv[4]
with open(document) as stream:
    result = AnalysisResult.from_payload(json.load(stream))

real_replace = os.replace

def stalling_replace(src, dst):
    print("READY", flush=True)      # temp file written; promote pending
    time.sleep(60)                  # parent SIGKILLs us here
    real_replace(src, dst)

os.replace = stalling_replace
ResultStore(root).put(key, result)
"""


class TestAtomicPut:
    def test_writer_killed_mid_put_leaves_no_torn_entry(self, service,
                                                        tmp_path):
        """Satellite 1: SIGKILL between temp-write and rename must leave
        the store consistent — no half-written ``.json``, only a
        ``.tmp`` orphan that ``gc()`` reclaims; a later put of the same
        key succeeds cleanly."""
        svc = service(cache_dir=str(tmp_path / "seed"))
        result = svc.run(_zoo_request(seed=13,
                                      targets=(("softmax", None),)))
        [seed_key] = svc.store.keys()
        document = svc.store.path_for(seed_key)

        root = str(tmp_path / "torn")
        writer = subprocess.Popen(
            [sys.executable, "-c", _TORN_WRITER, SRC_ROOT, root,
             "torn-entry", document],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert writer.stdout.readline().strip() == "READY", \
                writer.stderr.read()
            writer.kill()
        finally:
            writer.wait(timeout=10)

        store = ResultStore(root)
        assert store.get("torn-entry") is None        # never promoted
        orphans = [name for name in os.listdir(root)
                   if name.endswith(".tmp")]
        assert len(orphans) == 1                      # the torn scratch
        report = store.gc()
        assert report.by_reason == {"orphaned": 1}
        assert not any(name.endswith(".tmp") for name in os.listdir(root))
        # The key is not poisoned: a healthy writer lands it atomically.
        path = store.put("torn-entry", result)
        assert store.get("torn-entry") is not None
        with open(path) as stream:
            json.load(stream)                         # fully-formed JSON


# =========================================================== server lifecycle
class TestGracefulDrain:
    @pytest.fixture()
    def server(self, tmp_path):
        service = ResilienceService(cache_dir=str(tmp_path / "srv"),
                                    backend="threads", max_parallel=2)
        instance = AnalysisServer(service).start()
        yield instance
        instance.shutdown()
        service.close()

    def test_drain_refuses_new_work_and_finishes_running(self, server):
        client = RemoteService(server.address, busy_retries=0)
        running = client.submit(_zoo_request(seed=14))
        assert not server.draining
        server.begin_drain()
        assert server.draining
        with pytest.raises(RemoteError, match="503") as excinfo:
            client.submit(_zoo_request(seed=15))
        assert "draining" in str(excinfo.value)
        # The admitted job still finishes, and drain() observes it.
        assert server.drain(timeout=120)
        assert running.result(timeout=10).baseline_accuracy > 0
        assert client.health()["draining"]

    def test_health_carries_resilience_flags(self, server):
        health = RemoteService(server.address).health()
        assert health["draining"] is False
        assert health["degraded"] is False
        assert health["health"]["degraded"] is False
        assert "worker_restarts" in health["queue"]

    def test_shutdown_is_idempotent(self, server):
        server.shutdown()
        server.shutdown()                 # drain thread + finally both call


class TestEventsResumeAcrossRestart:
    def test_resume_after_restart_sends_terminal_without_duplicates(
            self, tmp_path):
        """Satellite 3: a consumer who saw the full stream in server
        life A reconnects to life B with ``after=<last seq>`` — it must
        receive the terminal event (so its stream closes) and no
        re-delivered ``shard_done`` history."""
        service = ResilienceService(cache_dir=str(tmp_path / "srv"),
                                    backend="threads", max_parallel=2)
        first_life = AnalysisServer(service).start()
        try:
            client = RemoteService(first_life.address)
            handle = client.submit(_zoo_request(seed=16))
            seen = list(handle.events())
            assert [e.kind for e in seen][-1] == "done"
            assert sum(e.kind == "shard_done" for e in seen) == 2
            last_seq = seen[-1].seq
        finally:
            first_life.shutdown()

        second_life = AnalysisServer(service).start()
        try:
            client = RemoteService(second_life.address)
            resumed = client.submit(_zoo_request(seed=16))  # same job key
            assert resumed.status() == "cached"
            started = time.monotonic()
            replay = list(resumed.events(after=last_seq))
            assert [e.kind for e in replay] == ["done"]     # terminal only
            # A closed log never blocks a resuming reader: the terminal
            # re-send fires at once, not after a long-poll slice.
            assert time.monotonic() - started < 5.0
        finally:
            second_life.shutdown()
            service.close()


class TestCliSigterm:
    def test_serve_drains_on_sigterm(self, tmp_path):
        """`repro serve` answers SIGTERM with a drain, then exits 0."""
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path), "--drain-timeout", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC_ROOT})
        try:
            banner = process.stdout.readline()
            assert "serving analysis API on" in banner
            assert "SIGTERM drains" in banner
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        except BaseException:
            process.kill()
            raise
        assert process.returncode == 0, err
        assert "draining" in err
