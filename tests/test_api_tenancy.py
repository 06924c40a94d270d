"""Multi-tenant fair scheduling, checkpoint preemption and the elastic
procpool (ISSUE 7).

Six kinds of armor:

* **Client identity** — ``client_id`` validates as a header-safe token,
  rides ``to_payload`` and the ``X-Repro-Client`` header, and stays out
  of ``cache_key``/fingerprints (two tenants share one store entry).
* **Deficit round-robin** — equal-weight tenants drain interleaved
  within one shard of proportional share at every prefix; weights set
  the ratio; a single tenant reduces to the pre-tenant priority/FIFO
  heap order, byte-identical.
* **Preemption** — a starved tenant parks a running victim at its next
  engine checkpoint; a preempted-then-resumed sweep reproduces the
  frozen golden curves byte-identically; the procpool kill path
  surfaces as ``WorkerPreempted`` without counting a worker restart;
  preemption under the chaos backend never double-counts a shard.
* **Bugfix sweep** — the ``ENGINE_REV`` store-key salt makes a rev bump
  miss poisoned entries (and ``repro gc`` collects them); the
  backpressure EMA only folds *successful* shard durations; admission
  verdict + reservation are atomic under a barrier of submitters.
* **Elastic pool** — idle procpool workers are reaped past the TTL and
  the pool shape is observable via ``queue_snapshot()``/``/v1/health``.
* **CLI/HTTP plumbing** — ``--tenant-weight NAME=W`` parsing and the
  per-tenant health accounting over the wire.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import threading
import time
from concurrent.futures import Future

import pytest

from repro.api import (AnalysisRequest, AnalysisResult, AnalysisServer,
                       ExecutionBackend, ExecutionOptions, Fault, FaultPlan,
                       ModelRef, ProcPoolBackend, QueueFull, RemoteService,
                       ResilienceService, ResultStore, RetryPolicy)
from repro.api.events import PreemptToken
from repro.api.scheduler import DEFAULT_TENANT, ShardQueue
from repro.api.store import store_key
from repro.cli import _parse_tenant_weights
from repro.cli import main as cli_main
from repro.core.resilience import ResilienceCurve, ResiliencePoint
from repro.core.sweep import ENGINE_REV
from repro.nn.hooks import INJECTABLE_GROUPS

from golden_common import (GOLDEN_BATCH, GOLDEN_NM_VALUES, GOLDEN_SEED,
                           SWEEP_GOLDEN, golden_capsnet, golden_targets)

#: Retry spacing tight enough for tests; semantics identical to default.
FAST = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05)


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


def _request(client: str | None = None, seed: int = 0,
             **overrides) -> AnalysisRequest:
    base = dict(model=ModelRef(benchmark="CapsNet/MNIST"),
                targets=(("softmax", None),), nm_values=(0.5, 0.0),
                seed=seed, eval_samples=32,
                options=ExecutionOptions(batch_size=32, client_id=client))
    base.update(overrides)
    return AnalysisRequest(**base)


def _accuracies(curves) -> dict:
    return {key: [point.accuracy for point in curve.points]
            for key, curve in curves.items()}


def _force_park_at_checkpoint(svc, checkpoint: int) -> dict:
    """Arm the next preemptible measurement to park itself.

    Wraps ``svc._measure`` so the first segment that carries a
    :class:`PreemptToken` sets it on its ``checkpoint``-th engine poll —
    a deterministic mid-sweep park with no timing dependence.  Returns
    the arming state so tests can see whether it fired.
    """
    original = svc._measure
    state = {"armed": True, "fired": False}

    def measure(request, cancel=None, preempt=None):
        if preempt is not None and state["armed"]:
            state["armed"] = False
            polls = {"count": 0}
            real_is_set = preempt.is_set

            def trip() -> bool:
                polls["count"] += 1
                if polls["count"] == checkpoint:
                    state["fired"] = True
                    preempt.set(f"forced park at checkpoint {checkpoint} "
                                f"(test)")
                return real_is_set()

            preempt.is_set = trip
        return original(request, cancel=cancel, preempt=preempt)

    svc._measure = measure
    return state


# ========================================================== client identity
class TestClientIdentity:
    def test_client_id_rides_payload_not_cache_key(self):
        tagged = ExecutionOptions(batch_size=32, client_id="alice")
        anonymous = ExecutionOptions(batch_size=32)
        assert tagged.to_payload()["client_id"] == "alice"
        assert tagged.cache_key() == anonymous.cache_key()
        assert ExecutionOptions.from_payload(
            tagged.to_payload()).client_id == "alice"

    def test_request_fingerprint_is_tenant_blind(self):
        assert _request("alice").fingerprint() == _request().fingerprint()

    def test_request_exposes_client_id(self):
        assert _request("alice").client_id == "alice"
        assert _request().client_id is None

    @pytest.mark.parametrize("bad", ["", "two words", "tab\tsep",
                                     "x" * 65, 42])
    def test_invalid_client_id_rejected(self, bad):
        with pytest.raises(ValueError, match="client_id"):
            ExecutionOptions(client_id=bad)


# ====================================================== deficit round-robin
class _ManualBackend(ExecutionBackend):
    """Backend double: records dispatch order, completes on demand."""

    parallel = 1

    def __init__(self):
        self.pending: list[tuple] = []

    def submit(self, request, runner, *, on_start=None, preempt=None):
        future: Future = Future()
        self.pending.append((request, runner, future))
        return future

    def complete(self) -> None:
        request, runner, future = self.pending.pop(0)
        try:
            future.set_result(runner(request))
        except BaseException as exc:  # noqa: BLE001 — delivered via future
            future.set_exception(exc)

    def close(self) -> None:
        pass


def _drain(backend: _ManualBackend) -> list[AnalysisRequest]:
    """Complete pending work one dispatch at a time, in arrival order."""
    order = []
    while backend.pending:
        order.append(backend.pending[0][0])
        backend.complete()
    return order


class TestDeficitRoundRobin:
    def _occupied_queue(self, **kwargs) -> tuple[ShardQueue, _ManualBackend]:
        """A capacity-1 queue whose only slot is held by a blocker, so
        later submissions stack up and drain in scheduler order."""
        backend = _ManualBackend()
        queue = ShardQueue(backend, **kwargs)
        queue.submit(_request("blocker", seed=99), lambda request: "done")
        return queue, backend

    def test_equal_weights_interleave_within_one_shard(self):
        queue, backend = self._occupied_queue()
        for seed in range(4):
            queue.submit(_request("a", seed=seed), lambda request: "a")
        for seed in range(4):
            queue.submit(_request("b", seed=10 + seed), lambda request: "b")
        backend.complete()                       # release the blocker
        order = [req.client_id for req in _drain(backend)]
        assert order == ["a", "b", "a", "b", "a", "b", "a", "b"]
        # The fairness property, not just this schedule: at every prefix
        # each tenant is within one shard of its proportional share.
        counts = {"a": 0, "b": 0}
        for tenant in order:
            counts[tenant] += 1
            assert abs(counts["a"] - counts["b"]) <= 1

    def test_weights_set_the_drain_ratio(self):
        queue, backend = self._occupied_queue(weights={"a": 2.0})
        for seed in range(4):
            queue.submit(_request("a", seed=seed), lambda request: "a")
        for seed in range(4):
            queue.submit(_request("b", seed=10 + seed), lambda request: "b")
        backend.complete()
        order = [req.client_id for req in _drain(backend)]
        # Weight 2 drains two shards per round for every one of weight 1,
        # then the exhausted tenant leaves the rotation.
        assert order == ["a", "a", "b", "a", "a", "b", "b", "b"]

    def test_single_tenant_keeps_priority_fifo_order(self):
        """No client_id -> one default tenant -> the pre-tenant heap
        order (priority desc, FIFO within priority), byte-identical."""
        queue, backend = self._occupied_queue()
        for seed, priority in [(1, 0), (2, 5), (3, 0), (4, 5)]:
            queue.submit(_request(seed=seed), lambda request: "x",
                         priority=priority)
        backend.complete()
        assert [req.seed for req in _drain(backend)] == [2, 4, 1, 3]

    def test_priority_stays_tenant_local(self):
        """A high-priority shard overtakes its *own* tenant's queue, but
        cannot steal another tenant's round-robin turns."""
        queue, backend = self._occupied_queue()
        queue.submit(_request("a", seed=1), lambda request: "a")
        queue.submit(_request("a", seed=2), lambda request: "a", priority=9)
        queue.submit(_request("b", seed=3), lambda request: "b")
        backend.complete()
        assert [(req.client_id, req.seed) for req in _drain(backend)] == \
            [("a", 2), ("b", 3), ("a", 1)]

    def test_snapshot_reports_per_tenant_counts(self):
        queue, backend = self._occupied_queue()
        queue.submit(_request("a", seed=1), lambda request: "a")
        queue.submit(_request("a", seed=2), lambda request: "a")
        queue.submit(_request("b", seed=3), lambda request: "b")
        snapshot = queue.snapshot()
        assert snapshot["tenants"]["blocker"]["running"] == 1
        assert snapshot["tenants"]["a"]["queued"] == 2
        assert snapshot["tenants"]["b"]["queued"] == 1
        backend.complete()
        _drain(backend)
        tenants = queue.snapshot()["tenants"]
        assert tenants["a"]["completed"] == 2
        assert tenants["b"]["completed"] == 1
        assert tenants["blocker"]["completed"] == 1
        assert all(state["queued"] == 0 and state["running"] == 0
                   for state in tenants.values())


# ======================================================= starved preemption
class TestStarvedPreemption:
    def test_starved_tenant_parks_a_running_victim(self):
        backend = _ManualBackend()
        queue = ShardQueue(backend, starvation_threshold=1000.0)
        try:
            token = PreemptToken()
            queue.submit(_request("heavy", seed=1), lambda request: "h",
                         preempt=token)
            queue.submit(_request("light", seed=2), lambda request: "l")
            forged = time.monotonic() + 5000.0
            info = queue.preempt_starved(now=forged)
            assert info is not None
            assert info["starved"] == "light" and info["victim"] == "heavy"
            assert token.is_set() and "starved" in token.reason
            assert queue.snapshot()["tenants"]["heavy"]["preempted"] == 1
            # The only victim already carries a set token: no re-park.
            assert queue.preempt_starved(now=forged) is None
        finally:
            queue.close()
            backend.complete()
            _drain(backend)

    def test_victim_must_not_outrank_the_starved_shard(self):
        backend = _ManualBackend()
        queue = ShardQueue(backend, starvation_threshold=1000.0)
        try:
            token = PreemptToken()
            queue.submit(_request("heavy", seed=1), lambda request: "h",
                         priority=5, preempt=token)
            queue.submit(_request("light", seed=2), lambda request: "l")
            assert queue.preempt_starved(
                now=time.monotonic() + 5000.0) is None
            assert not token.is_set()
        finally:
            queue.close()
            backend.complete()
            _drain(backend)

    def test_no_preemption_without_threshold(self):
        backend = _ManualBackend()
        queue = ShardQueue(backend)
        queue.submit(_request("heavy", seed=1), lambda request: "h",
                     preempt=PreemptToken())
        queue.submit(_request("light", seed=2), lambda request: "l")
        assert queue.preempt_starved(now=time.monotonic() + 5000.0) is None
        backend.complete()
        _drain(backend)


# ===================================================== backpressure EMA fix
class _InlineBackend(ExecutionBackend):
    """Backend double that runs the shard on the submitting thread."""

    parallel = 1

    def submit(self, request, runner, *, on_start=None, preempt=None):
        future: Future = Future()
        try:
            future.set_result(runner(request))
        except BaseException as exc:  # noqa: BLE001 — delivered via future
            future.set_exception(exc)
        return future

    def close(self) -> None:
        pass


class TestBackpressureEma:
    def test_fail_fast_shards_do_not_collapse_the_hint(self):
        """ISSUE 7 satellite: only *successful* completions feed the
        Retry-After EMA — a burst of instant failures must not talk the
        backoff hint down."""
        queue = ShardQueue(_InlineBackend())

        def boom(request):
            raise RuntimeError("instant failure")

        for seed in range(5):
            future = queue.submit(_request(seed=seed), boom)
            with pytest.raises(RuntimeError, match="instant"):
                future.result(timeout=5)
        assert queue._avg_seconds == 0.0

        def slow(request):
            time.sleep(0.05)
            return "ok"

        queue.submit(_request(seed=50), slow).result(timeout=5)
        folded = queue._avg_seconds
        assert folded >= 0.04
        for seed in range(60, 65):
            with pytest.raises(RuntimeError, match="instant"):
                queue.submit(_request(seed=seed), boom).result(timeout=5)
        assert queue._avg_seconds == folded   # failures left it untouched


# ======================================================== atomic admission
class TestAtomicAdmission:
    def test_barrier_of_submitters_cannot_overshoot(self):
        """ISSUE 7 satellite: verdict + reservation are one atomic step,
        so N racing submitters at an almost-full queue admit exactly up
        to the limit — never all of them."""
        queue = ShardQueue(_ManualBackend(), limit=2)
        barrier = threading.Barrier(8)
        outcomes: list = [None] * 8

        def contender(slot: int) -> None:
            barrier.wait()
            try:
                outcomes[slot] = queue.admit(1)
            except QueueFull:
                outcomes[slot] = None

        threads = [threading.Thread(target=contender, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        admitted = [handle for handle in outcomes if handle is not None]
        assert len(admitted) == 2             # exactly the limit, atomically
        with pytest.raises(QueueFull):
            queue.admit(1)                    # reservations still held
        for handle in admitted:
            handle.release()
        queue.admit(1).release()              # released slots admit again

    def test_release_is_idempotent(self):
        queue = ShardQueue(_ManualBackend(), limit=1)
        handle = queue.admit(1)
        handle.release()
        handle.release()
        assert queue._reserved == 0


# ======================================================== engine-rev salt
class TestEngineRevSalt:
    def test_store_key_carries_engine_rev(self):
        key = store_key("f" * 20, 1, 2)
        assert key.endswith(f"-e{ENGINE_REV}")

    def test_rev_bump_misses_and_gc_collects(self, tmp_path, monkeypatch,
                                             trained_capsnet, mnist_splits):
        """ISSUE 7 satellite (cache poisoning): entries keyed under a
        previous engine revision are never looked up again, and
        ``repro gc`` reclaims them."""
        svc = ResilienceService(cache_dir=str(tmp_path))
        try:
            ref = svc.register("rev-test", trained_capsnet, mnist_splits[1])
            request = AnalysisRequest(
                model=ref, targets=(("softmax", None),),
                nm_values=(0.5, 0.0), seed=3, eval_samples=48,
                options=ExecutionOptions(batch_size=48))
            cold = svc.run(request)
            assert not cold.from_cache
            assert svc.run(request).from_cache     # same rev: warm hit
            old_keys = svc.store.keys()
            assert all(key.endswith(f"-e{ENGINE_REV}") for key in old_keys)

            import repro.api.store as store_module
            bumped = ENGINE_REV + 1
            monkeypatch.setattr(store_module, "ENGINE_REV", bumped)
            fresh = svc.run(request)
            assert not fresh.from_cache            # the bump missed it
            assert _accuracies(fresh.curves) == _accuracies(cold.curves)

            report = svc.store.gc()
            assert report.by_reason == {"engine-rev": len(old_keys)}
            remaining = svc.store.keys()
            assert remaining
            assert all(key.endswith(f"-e{bumped}") for key in remaining)

            # The CLI path collects a re-poisoned entry the same way.
            survivor = remaining[0]
            stale_key = survivor[:survivor.rfind("-e")] + f"-e{ENGINE_REV}"
            shutil.copy(svc.store.path_for(survivor),
                        svc.store.path_for(stale_key))
            assert cli_main(["gc", "--cache-dir", str(tmp_path)]) == 0
            assert svc.store.keys() == [survivor]
        finally:
            svc.close()


# ========================================================== elastic procpool
class _FakeWorker:
    def __init__(self):
        self.closed = False

    def close(self) -> None:
        self.closed = True

    def alive(self) -> bool:
        return not self.closed


class TestElasticPool:
    def test_idle_workers_reaped_past_ttl(self):
        backend = ProcPoolBackend(2, idle_ttl=10.0)
        try:
            now = time.monotonic()
            stale, warm = _FakeWorker(), _FakeWorker()
            backend._idle[:] = [(stale, now - 60.0), (warm, now - 1.0)]
            assert backend.reap_idle(now=now) == 1
            assert stale.closed and not warm.closed
            snapshot = backend.pool_snapshot()
            assert snapshot["idle"] == 1 and snapshot["reaped"] == 1
            assert snapshot["size"] == 1 and snapshot["max"] == 2
        finally:
            backend.close()

    def test_ttl_none_disables_reaping(self):
        backend = ProcPoolBackend(1, idle_ttl=None)
        try:
            backend._idle[:] = [(_FakeWorker(), time.monotonic() - 1e6)]
            assert backend.reap_idle() == 0
            assert len(backend._idle) == 1
        finally:
            backend.close()

    def test_ttl_validated(self):
        with pytest.raises(ValueError, match="idle_ttl"):
            ProcPoolBackend(1, idle_ttl=0)


# ================================================= fair service end-to-end
class TestFairService:
    def test_light_tenant_overtakes_heavy_batch(self, service,
                                                trained_capsnet,
                                                mnist_splits):
        """ISSUE 7 acceptance: a light tenant's single-target request
        submitted behind a 36-shard heavy batch completes without
        waiting for the whole batch."""
        svc = service(use_store=False, backend="threads", max_parallel=2,
                      nm_chunk=1)
        ref = svc.register("fairness", trained_capsnet, mnist_splits[1])
        original = svc._measure
        from repro.core.sweep import model_fingerprint
        resolved = svc.entry(ref)
        model_crc = f"{model_fingerprint(resolved.model) & 0xffffffff:08x}"

        def stub_measure(request, cancel=None, preempt=None):
            time.sleep(0.05)
            dataset_crc = svc._dataset_crc(resolved, request.eval_samples)
            curves = {}
            for target in request.targets:
                curve = ResilienceCurve(group=target.group,
                                        layer=target.layer,
                                        baseline_accuracy=0.75)
                for nm in request.nm_values:
                    curve.points.append(ResiliencePoint(
                        nm=float(nm), na=0.0, accuracy=0.5,
                        accuracy_drop=0.25))
                curves[target.key] = curve
            return AnalysisResult(
                request=request, curves=curves, baseline_accuracy=0.75,
                model_fingerprint=model_crc,
                dataset_fingerprint=f"{dataset_crc & 0xffffffff:08x}")

        svc._measure = stub_measure
        layers = trained_capsnet.layer_names
        heavy_targets = tuple((group, None) for group in INJECTABLE_GROUPS)
        heavy_targets += (("mac_outputs", layers[0]),
                          ("mac_outputs", layers[-1]))
        heavy = svc.submit(AnalysisRequest(
            model=ref, targets=heavy_targets,
            nm_values=(0.6, 0.5, 0.4, 0.3, 0.2, 0.1), seed=1,
            options=ExecutionOptions(batch_size=32, client_id="heavy")))
        assert heavy.progress["shards_total"] == 36
        light = svc.submit(AnalysisRequest(
            model=ref, targets=(("softmax", None),), nm_values=(0.9,),
            seed=2, options=ExecutionOptions(batch_size=32,
                                             client_id="light")))
        light.result(timeout=30)
        heavy_done = svc.queue_snapshot()["tenants"]["heavy"]["completed"]
        assert not heavy.done()
        assert heavy_done < 36                # light never waited it out
        heavy.result(timeout=60)
        tenants = svc.queue_snapshot()["tenants"]
        assert tenants["heavy"]["completed"] == 36
        assert tenants["light"]["completed"] == 1
        svc._measure = original


# ================================================== preemption end-to-end
class TestPreemption:
    def test_preempted_then_resumed_matches_frozen_golden(self, service):
        """ISSUE 7 acceptance: park a sweep mid-run at an engine
        checkpoint, requeue the remainder, and the final merged result
        is byte-identical to the unpreempted frozen golden curves."""
        model, test_set = golden_capsnet()
        svc = service(use_store=False, backend="threads", max_parallel=1)
        ref = svc.register("golden-preempt", model, test_set)
        targets = golden_targets(model)
        state = _force_park_at_checkpoint(svc, checkpoint=3)
        handle = svc.submit(AnalysisRequest(
            model=ref, targets=tuple(targets), nm_values=GOLDEN_NM_VALUES,
            seed=GOLDEN_SEED,
            options=ExecutionOptions(batch_size=GOLDEN_BATCH,
                                     strategy="vectorized",
                                     client_id="heavy")))
        result = handle.result(timeout=300)
        assert state["fired"]
        assert svc.stats.preempted == 1
        events = [event for event in handle.events()
                  if event.kind == "preempted"]
        assert len(events) == 1
        assert events[0].payload["points_parked"] > 0   # mid-sweep, not idle
        with open(SWEEP_GOLDEN) as stream:
            golden = json.load(stream)["capsnet-micro"]["vectorized"]
        from repro.core import SweepTarget
        measured = {
            str(SweepTarget(*target)): [
                point.accuracy
                for point in result.curves[SweepTarget(*target).key].points]
            for target in targets}
        assert measured == golden

    def test_procpool_preemption_kills_without_counting_a_restart(
            self, service):
        """The out-of-process park: the supervisor SIGKILLs the worker,
        the loss classifies as WorkerPreempted (not a crash — zero
        worker restarts), and the requeued shard reproduces the
        unpreempted result."""
        reference = service(use_store=False)
        golden = reference.run(_request(seed=41))
        svc = service(use_store=False, backend="procpool", max_parallel=1,
                      starvation_threshold=3600.0)
        heavy = svc.submit(_request("heavy", seed=41))
        light = svc.submit(_request(
            "light", seed=42, targets=(("mac_outputs", None),),
            nm_values=(0.5,)))
        forged = time.monotonic() + 7200.0
        info = None
        while not heavy.done():
            info = svc.queue.preempt_starved(now=forged)
            if info is not None:
                break
            time.sleep(0.005)
        assert info is not None and info["victim"] == "heavy"
        result = heavy.result(timeout=300)
        light.result(timeout=300)
        assert _accuracies(result.curves) == _accuracies(golden.curves)
        snapshot = svc.queue_snapshot()
        assert snapshot["worker_restarts"] == 0      # a park is not a crash
        assert snapshot["tenants"]["heavy"]["preempted"] == 1
        pool = snapshot["pool"]
        assert pool["max"] == 1 and pool["spawned"] >= 2

    @pytest.mark.chaos
    def test_preemption_under_chaos_never_double_counts(self, service):
        """A shard that crashes, retries, parks at a checkpoint and
        resumes must merge every (target, NM) point exactly once."""
        reference = service(use_store=False)
        request = _request("heavy", seed=43,
                           targets=(("softmax", None),
                                    ("mac_outputs", None)))
        golden = reference.run(request)
        chaotic = service(
            use_store=False, backend="chaos:threads", max_parallel=1,
            retry_policy=FAST,
            fault_plan=FaultPlan(faults=(
                Fault(kind="crash-before", shard=0, attempt=0),)))
        state = _force_park_at_checkpoint(chaotic, checkpoint=2)
        handle = chaotic.submit(request)
        result = handle.result(timeout=300)
        assert state["fired"]
        assert chaotic.backend.injected == 1
        assert chaotic.stats.preempted == 1
        kinds = [event.kind for event in handle.events()]
        assert "shard_retry" in kinds and "preempted" in kinds
        assert _accuracies(result.curves) == _accuracies(golden.curves)
        for curve in result.curves.values():
            assert len(curve.points) == len(request.nm_values)

    @staticmethod
    def _record_measured(svc) -> list:
        """Wrap ``svc._measure`` to record every request it measures."""
        original = svc._measure
        measured = []

        def measure(request, cancel=None, preempt=None):
            measured.append(request)
            return original(request, cancel=cancel, preempt=preempt)

        svc._measure = measure
        return measured

    def test_crash_after_preempted_segment_relaunches_full_shard(
            self, service):
        """The remainder segment of a parked shard crashes: the retry
        relaunches the *full* shard with an empty park, so its chaos
        (shard, attempt) coordinates are the first attempt's plus one."""
        request = _request("heavy", seed=44,
                           targets=(("softmax", None),
                                    ("mac_outputs", None)))
        golden = service(use_store=False).run(request)
        # Chaos shard 1 is the first remainder fingerprint it sees.
        chaotic = service(
            use_store=False, backend="chaos:threads", max_parallel=1,
            retry_policy=FAST, fault_plan=FaultPlan(faults=(
                Fault(kind="crash-before", shard=1, attempt=0),)))
        state = _force_park_at_checkpoint(chaotic, checkpoint=2)
        measured = self._record_measured(chaotic)
        handle = chaotic.submit(request)
        result = handle.result(timeout=300)
        assert state["fired"] and chaotic.backend.injected == 1
        # The parked first attempt, then the retry: both the full shard
        # (the crashed remainder never reached a measurement).
        assert [r.fingerprint() for r in measured] == \
            [request.fingerprint()] * 2
        kinds = [event.kind for event in handle.events()]
        assert kinds.count("preempted") == 1
        assert kinds.count("shard_retry") == 1
        assert kinds.count("started") == 1 and "progress" not in kinds
        assert _accuracies(result.curves) == _accuracies(golden.curves)

    def test_preemption_leaves_retry_budget_unspent(self, service):
        """With ``max_retries=0`` a parked shard still completes: a
        preemption is not an attempt failure, and never feeds health."""
        options = ExecutionOptions(batch_size=32, client_id="heavy",
                                   max_retries=0)
        request = _request(seed=45, options=options,
                           targets=(("softmax", None),
                                    ("mac_outputs", None)))
        golden = service(use_store=False).run(request)
        svc = service(use_store=False, backend="threads", max_parallel=1,
                      retry_policy=FAST)
        state = _force_park_at_checkpoint(svc, checkpoint=2)
        handle = svc.submit(request)
        result = handle.result(timeout=300)
        assert state["fired"] and svc.stats.preempted == 1
        assert "shard_retry" not in [event.kind for event in handle.events()]
        assert svc.health.snapshot()["infrastructure_failures"] == 0
        assert _accuracies(result.curves) == _accuracies(golden.curves)


# ========================================================== CLI & HTTP wiring
class TestCliWeights:
    def test_pairs_parse_to_weights(self):
        assert _parse_tenant_weights(["batch=1", "triage=4",
                                      "slow=0.5"]) == \
            {"batch": 1.0, "triage": 4.0, "slow": 0.5}

    def test_empty_input_means_no_weights(self):
        assert _parse_tenant_weights(None) is None
        assert _parse_tenant_weights([]) is None

    @pytest.mark.parametrize("bad", ["nosep", "=2", "a=", "a=zero",
                                     "a=0", "a=-1"])
    def test_malformed_pairs_rejected(self, bad):
        with pytest.raises(ValueError, match="tenant-weight"):
            _parse_tenant_weights([bad])


class TestHttpTenancy:
    def test_header_and_body_identity_reach_accounting(self, tmp_path):
        service = ResilienceService(cache_dir=str(tmp_path))
        server = AnalysisServer(service).start()
        try:
            remote = RemoteService(server.address, client_id="alice")
            remote.submit(_request(seed=51)).result(timeout=120)
            tenants = remote.health()["queue"]["tenants"]
            assert tenants["alice"]["completed"] >= 1

            # An explicit body client_id wins over the header.
            remote.submit(_request("bob", seed=52)).result(timeout=120)
            tenants = remote.health()["queue"]["tenants"]
            assert tenants["bob"]["completed"] >= 1

            # No identity anywhere -> the anonymous default tenant.
            anonymous = RemoteService(server.address)
            anonymous.submit(_request(seed=53)).result(timeout=120)
            tenants = anonymous.health()["queue"]["tenants"]
            assert tenants[DEFAULT_TENANT]["completed"] >= 1
        finally:
            server.shutdown()
            service.close()
