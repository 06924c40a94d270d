"""Futures-first execution backends, scheduler and handles (ISSUE 4).

Four kinds of armor:

* **Backend construction** — ``make_backend`` rejects invalid
  name/``max_parallel`` combos loudly (the CLI routes through it).
* **Scheduler** — shard planning and the deterministic merge, including
  the :class:`~repro.api.ShardMismatch` guards.
* **Handle lifecycle** — ``submit`` returns immediately-resolved handles
  on ``inline``, asynchronous ones on ``threads``; warm hits report
  ``cached``; duplicates share one execution.
* **Lock granularity** (the ISSUE 4 bugfix) — a warm store hit never
  touches any engine lock, and a slow sweep on model A does not block a
  pure store lookup for model B.
"""

from __future__ import annotations

import dataclasses
import os
import select
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (AnalysisRequest, ExecutionOptions, InlineBackend,
                       ModelRef, ResilienceService, ShardMismatch,
                       make_backend, merge_shards, plan_shards)
from repro.core import ResilienceCurve, ResiliencePoint
from repro.core.sweep import SweepEngine, SweepTarget


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


@pytest.fixture()
def session_request(trained_capsnet, mnist_splits):
    def bind(svc, **overrides) -> AnalysisRequest:
        ref = svc.register("backends-test", trained_capsnet, mnist_splits[1])
        base = dict(
            model=ref,
            targets=(("mac_outputs", None), ("softmax", None)),
            nm_values=(0.5, 0.05, 0.0), seed=3, eval_samples=48,
            options=ExecutionOptions(batch_size=48))
        base.update(overrides)
        return AnalysisRequest(**base)
    return bind


def _accuracies(result) -> dict:
    return {key: [point.accuracy for point in curve.points]
            for key, curve in result.curves.items()}


class TestMakeBackend:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_inline_rejects_max_parallel(self):
        with pytest.raises(ValueError, match="inline backend"):
            make_backend("inline", 4)

    def test_nonpositive_parallel_rejected(self):
        with pytest.raises(ValueError, match="max_parallel"):
            make_backend("threads", 0)

    def test_prebuilt_passthrough_and_conflict(self):
        backend = InlineBackend()
        assert make_backend(backend) is backend
        with pytest.raises(ValueError, match="conflicts"):
            make_backend(backend, 4)

    def test_service_ctor_routes_through_validation(self, service):
        with pytest.raises(ValueError, match="inline backend"):
            service(backend="inline", max_parallel=8)


class TestScheduler:
    REQUEST = AnalysisRequest(
        model=ModelRef(benchmark="DeepCaps/CIFAR-10"),
        targets=(("mac_outputs", None), ("softmax", None)),
        nm_values=(0.5, 0.05, 0.005, 0.0))

    def test_serial_backend_never_shards(self):
        assert plan_shards(self.REQUEST, self.REQUEST.targets,
                           parallel=1) is None

    def test_single_target_never_shards(self):
        request = dataclasses.replace(self.REQUEST,
                                      targets=(("softmax", None),))
        assert plan_shards(request, request.targets, parallel=8) is None

    def test_per_target_shards(self):
        shards = plan_shards(self.REQUEST, self.REQUEST.targets, parallel=4)
        assert [shard.targets for shard in shards] == \
            [(SweepTarget("mac_outputs"),), (SweepTarget("softmax"),)]
        assert all(shard.nm_values == self.REQUEST.nm_values
                   for shard in shards)

    def test_nm_chunk_shards(self):
        shards = plan_shards(self.REQUEST, self.REQUEST.targets, parallel=4,
                             nm_chunk=3)
        assert [shard.nm_values for shard in shards] == \
            [(0.5, 0.05, 0.005), (0.0,)] * 2  # target-major, NM-minor

    @staticmethod
    def _shard_result(shard, baseline: float = 0.9):
        """A synthetic AnalysisResult measuring exactly ``shard``."""
        from repro.api import AnalysisResult
        curves = {}
        for target in shard.targets:
            curve = ResilienceCurve(group=target.group, layer=target.layer,
                                    baseline_accuracy=baseline)
            curve.points = [ResiliencePoint(nm, 0.0, 0.5 + nm, nm)
                            for nm in shard.nm_values]
            curves[target.key] = curve
        return AnalysisResult(request=shard, curves=curves,
                              baseline_accuracy=baseline,
                              model_fingerprint="0", dataset_fingerprint="0")

    def test_merge_restores_target_and_nm_order(self):
        shards = plan_shards(self.REQUEST, self.REQUEST.targets, parallel=4,
                             nm_chunk=3)
        merged = merge_shards(self.REQUEST, self.REQUEST.targets, shards,
                              [self._shard_result(shard) for shard in shards])
        for target in self.REQUEST.targets:
            assert [point.nm for point in merged[target.key].points] == \
                list(self.REQUEST.nm_values)

    def test_merge_rejects_baseline_disagreement(self):
        request = dataclasses.replace(self.REQUEST,
                                      targets=(("softmax", None),))
        shards = plan_shards(request, request.targets, parallel=1,
                             nm_chunk=2)
        results = [self._shard_result(shard, baseline=0.9 + index * 0.01)
                   for index, shard in enumerate(shards)]
        with pytest.raises(ShardMismatch, match="different baselines"):
            merge_shards(request, (SweepTarget("softmax"),), shards, results)


class TestHandleLifecycle:
    def test_inline_handle_resolves_during_submit(self, service,
                                                  session_request):
        svc = service()
        handle = svc.submit(session_request(svc))
        assert handle.done() and handle.status() == "done"
        assert handle.progress == {"shards_total": 1, "shards_started": 1,
                                   "shards_done": 1}
        assert handle.result().baseline_accuracy > 0

    def test_warm_handle_reports_cached(self, service, session_request):
        svc = service()
        request = session_request(svc)
        svc.run(request)
        warm = svc.submit(request)
        assert warm.status() == "cached"
        assert warm.result().from_cache

    def test_threads_handle_async_and_identical(self, service,
                                                session_request):
        inline_svc = service()
        request = session_request(inline_svc)
        reference = inline_svc.run(request)

        threaded = service(cache_dir=None, use_store=False,
                           backend="threads", max_parallel=2)
        handle = threaded.submit(session_request(threaded))
        result = handle.result(timeout=120)
        assert handle.status() == "done"
        # Per-target shards, merged byte-identically to the inline path.
        assert threaded.stats.shards == 2
        assert _accuracies(result) == _accuracies(reference)
        assert handle.progress["shards_done"] == 2

    def test_duplicate_inflight_requests_share_one_execution(
            self, service, session_request):
        svc = service(cache_dir=None, use_store=False, backend="threads",
                      max_parallel=2)
        request = session_request(svc)
        first, second = svc.submit_many([request, request])
        assert svc.stats.deduplicated == 1
        assert _accuracies(first.result(timeout=120)) == \
            _accuracies(second.result(timeout=120))
        assert svc.stats.executed == 1

    def test_error_propagates_through_handle(self, service):
        svc = service(use_store=False)
        request = AnalysisRequest(model=ModelRef(session="never-registered"),
                                  targets=(("softmax", None),),
                                  nm_values=(0.5,))
        with pytest.raises(KeyError, match="never-registered"):
            svc.submit(request)

    def test_batched_single_target_requests_do_not_self_deadlock(
            self, service, session_request):
        """Review regression: a shard field-identical to one of its own
        group's requests must not join that job's in-flight future — the
        job only resolves after every shard, so the group would wait on
        itself forever."""
        svc = service(cache_dir=None, use_store=False, backend="threads",
                      max_parallel=2)
        request = session_request(svc)
        per_target = [dataclasses.replace(request, targets=(target,))
                      for target in request.targets]
        handles = svc.submit_many(per_target)  # one group, per-target shards
        results = [handle.result(timeout=120) for handle in handles]
        reference = service(cache_dir=None, use_store=False)
        merged = reference.run(session_request(reference))
        for result, target in zip(results, request.targets):
            assert _accuracies(result)[target.key] == \
                _accuracies(merged)[target.key]

    def test_nm_chunk_sharding_is_byte_identical(self, service,
                                                 session_request):
        svc = service()
        reference = svc.run(session_request(svc))
        chunked = service(cache_dir=None, use_store=False,
                          backend="threads", max_parallel=2, nm_chunk=2)
        result = chunked.run(session_request(chunked))
        assert chunked.stats.shards == 4  # 2 targets x 2 NM chunks
        assert _accuracies(result) == _accuracies(reference)


class TestLockGranularity:
    """The ISSUE 4 bugfix: store lookups are lock-free w.r.t. engines."""

    def test_warm_hit_acquires_no_engine_lock(self, service, session_request,
                                              monkeypatch):
        """A warm cache hit must be served without touching any engine —
        not even building one.  Regression: the pre-redesign service
        serialised everything behind one global run lock."""
        svc = service()
        request = session_request(svc)
        svc.run(request)  # warm the store
        monkeypatch.setattr(
            SweepEngine, "sweep",
            lambda *args, **kwargs: pytest.fail(
                "warm hit reached an engine sweep"))
        svc._engines.clear()
        warm = svc.submit(request)
        assert warm.status() == "cached"
        assert svc._engines == {}  # not even constructed

    def test_slow_sweep_does_not_block_other_models_store_hit(
            self, service, session_request, trained_deepcaps):
        """While model A's engine lock is held by a (simulated) slow
        sweep, a cold submission for A queues behind it — but a warm
        store lookup for model B completes immediately."""
        svc = service(backend="threads", max_parallel=2)
        request_a = session_request(svc)
        svc.run(request_a)  # builds A's engine (and warms A's key)
        [engine_a] = svc._engines.values()

        deepcaps, deepcaps_test = trained_deepcaps
        ref_b = svc.register("backends-test-b", deepcaps, deepcaps_test)
        request_b = dataclasses.replace(request_a, model=ref_b)
        svc.run(request_b)  # warm B's key
        assert engine_a._sweep_lock.acquire(timeout=5)
        try:
            cold_a = svc.submit(dataclasses.replace(request_a, seed=99))
            assert not cold_a.done()  # parked behind A's engine lock
            warm_b = svc.submit(request_b)
            assert warm_b.done()      # store hit: no engine lock involved
            assert warm_b.status() == "cached"
            assert not cold_a.done()
        finally:
            engine_a._sweep_lock.release()
        assert cold_a.result(timeout=120).baseline_accuracy > 0


class TestConcurrencyStress:
    def test_mixed_models_and_duplicates(self, service, session_request,
                                         trained_deepcaps):
        """ISSUE 4 stress: mixed-model requests with duplicate in-flight
        submissions across real threads — every response is consistent,
        duplicates collapse, and both models' executions succeed."""
        svc = service(cache_dir=None, use_store=False, backend="threads",
                      max_parallel=3)
        request_a = session_request(svc)
        deepcaps, deepcaps_test = trained_deepcaps
        ref_b = svc.register("stress-b", deepcaps, deepcaps_test)
        request_b = AnalysisRequest(
            model=ref_b, targets=(("softmax", None),),
            nm_values=(0.5, 0.0), seed=3, eval_samples=48,
            options=ExecutionOptions(batch_size=48))
        batch = [request_a, request_b, request_a, request_b, request_a]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(svc.run_many, batch) for _ in range(2)]
            rounds = [future.result() for future in futures]
        flat_a = [_accuracies(results[index])
                  for results in rounds for index in (0, 2, 4)]
        flat_b = [_accuracies(results[index])
                  for results in rounds for index in (1, 3)]
        assert all(entry == flat_a[0] for entry in flat_a)
        assert all(entry == flat_b[0] for entry in flat_b)
        stats = svc.stats
        assert stats.submitted == 10
        assert stats.deduplicated >= 6  # at least in-batch duplicates
        assert stats.executed + stats.deduplicated == 10


class TestProcPoolProvenance:
    def test_mutated_zoo_model_rejected_not_silently_mismeasured(
            self, service):
        """Review regression: a pool worker re-resolves the zoo ref and
        measures the *pristine* model; if the parent mutated its
        in-process copy (the X2 ablation pattern), filing the worker's
        curves under the mutated fingerprint would silently report
        unmutated results for every mutation.  The provenance check must
        fail the job loudly instead."""
        svc = service(use_store=False, backend="procpool", max_parallel=1)
        ref = ModelRef(benchmark="CapsNet/MNIST")
        model = svc.entry(ref).model
        routed = [module for module in model.modules()
                  if hasattr(module, "routing_iterations")]
        saved = [(module, module.routing_iterations) for module in routed]
        try:
            for module in routed:
                module.routing_iterations += 2
            handle = svc.submit(_zoo_request())
            with pytest.raises(RuntimeError,
                               match="model fingerprint"):
                handle.result(timeout=120)
        finally:
            for module, value in saved:
                module.routing_iterations = value


def _zoo_request(seed: int = 0) -> AnalysisRequest:
    return AnalysisRequest(
        model=ModelRef(benchmark="CapsNet/MNIST"),
        targets=(("softmax", None),), nm_values=(0.5, 0.0), seed=seed,
        eval_samples=32, options=ExecutionOptions(batch_size=32))


@pytest.fixture()
def worker_logs(monkeypatch, tmp_path):
    """Every pipe worker's log path, created under ``tmp_path``."""
    from repro.api import backends
    paths = []
    real_mkstemp = backends.tempfile.mkstemp

    def recording_mkstemp(**kwargs):
        handle, path = real_mkstemp(dir=str(tmp_path), **kwargs)
        paths.append(path)
        return handle, path

    monkeypatch.setattr(backends.tempfile, "mkstemp", recording_mkstemp)
    return paths


class TestPoolWorkerSpawn:
    def test_failed_spawn_releases_the_log_file(self, monkeypatch,
                                                tmp_path, worker_logs):
        """A ``Popen`` that raises must not strand the worker's log fd
        or leave its temp file behind."""
        from repro.api import backends
        streams = []
        real_fdopen = os.fdopen

        def recording_fdopen(*args, **kwargs):
            stream = real_fdopen(*args, **kwargs)
            streams.append(stream)
            return stream

        def failing_popen(*args, **kwargs):
            raise OSError("spawn refused")

        monkeypatch.setattr(backends.os, "fdopen", recording_fdopen)
        monkeypatch.setattr(backends.subprocess, "Popen", failing_popen)
        with pytest.raises(OSError, match="spawn refused"):
            backends._PipeTransport.open()
        [path], [stream] = worker_logs, streams
        assert stream.closed
        assert not os.path.exists(path)
        assert not os.listdir(tmp_path)

    def test_dead_idle_worker_is_skipped_and_closed_outside_the_lock(
            self, service, worker_logs):
        """An idle pipe worker that died is skipped by the next borrow,
        which spawns a replacement; the dead one is closed (its log
        removed) only after the pool lock is released — closing does
        file I/O and reaps a process."""
        svc = service(use_store=False, backend="procpool", max_parallel=1)
        svc.run(_zoo_request(seed=1))
        backend = svc.backend
        [(dead, _)] = backend._idle
        dead._sever()                               # SIGKILL, no verdict
        assert select.select([dead.reader], [], [], 30)[0]  # EOF: gone
        lock_held_at_close = []
        real_close = dead.close

        def watched_close():
            lock_held_at_close.append(backend._lock.locked())
            real_close()

        dead.close = watched_close
        assert svc.run(_zoo_request(seed=2)).baseline_accuracy > 0
        assert lock_held_at_close == [False]
        [(fresh, _)] = backend._idle
        assert fresh is not dead and fresh.alive()
        assert not os.path.exists(worker_logs[0])
        assert os.path.exists(worker_logs[1])
        assert backend.pool_snapshot()["spawned"] == 2
        assert backend.worker_restarts == 0   # a skip is not a lost shard

    def test_worker_wedged_before_its_greeting_is_a_timeout(self):
        """The greeting is read under the supervisor's watch: a worker
        that never greets ends as a WorkerTimeout, never a hang."""
        import subprocess
        import sys
        from repro.api import WorkerTimeout
        from repro.api.backends import Channel, PoolBackend

        class WedgedTransport:
            noun = "wedged worker"

            @staticmethod
            def open() -> Channel:
                process = subprocess.Popen(
                    [sys.executable, "-c", "import time; time.sleep(60)"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                return Channel(process.stdout, process.stdin,
                               label=f"wedged worker pid {process.pid}",
                               sever=process.kill, release=process.wait)

            @staticmethod
            def lost(origin) -> None:
                pass

            @staticmethod
            def snapshot() -> dict:
                return {}

        backend = PoolBackend(WedgedTransport(), 1, heartbeat_grace=0.5,
                              poll_interval=0.05)
        try:
            future = backend.submit(_zoo_request(), runner=None)
            with pytest.raises(WorkerTimeout, match="heartbeats stale"):
                future.result(timeout=60)
            assert backend.worker_restarts == 1
        finally:
            backend.close()
