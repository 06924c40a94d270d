"""Service-path behaviour of the analysis API (ISSUEs 3+4).

Three kinds of armor:

* **Golden compatibility** — the artifact ``run()`` functions submit
  through :class:`~repro.api.ResilienceService`; their ``--quick``
  ``format_text()`` output must be byte-identical to the pre-redesign
  direct path (``benchmark_entry`` + ``group_wise_analysis``/
  ``layer_wise_analysis``), both on the cold (measured) run and on the
  warm (store-served) run.
* **Backend golden compatibility** (ISSUE 4) — the same byte-identity
  must hold through every execution backend (``inline``, ``threads``,
  ``procpool``) and through the scheduler's shard-merge (per-target
  and NM-chunk), proving the futures-first redesign changed *where*
  measurements run, never *what* they measure.
* **Concurrency/batching smoke** — concurrent submissions are safe and
  collapse onto one execution-or-hit; compatible requests batch into a
  single engine sweep.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (AnalysisRequest, ExecutionOptions, ModelRef,
                       ResilienceService)
from repro.core import group_wise_analysis, layer_wise_analysis
from repro.experiments import fig9, fig10, fig12
from repro.experiments.common import ExperimentScale, benchmark_entry
from repro.nn.hooks import INJECTABLE_GROUPS

QUICK = ExperimentScale.quick()


@pytest.fixture()
def service(tmp_path):
    """An isolated service so golden runs never see pre-seeded entries."""
    return ResilienceService(cache_dir=str(tmp_path))


def _direct_fig9(benchmark: str, scale: ExperimentScale,
                 seed: int = 0) -> fig9.Fig9Result:
    """The pre-redesign Fig. 9 path, verbatim."""
    entry = benchmark_entry(benchmark)
    test_set = entry.test_set.subset(scale.eval_samples)
    curves = group_wise_analysis(
        entry.model, test_set, groups=list(INJECTABLE_GROUPS),
        nm_values=scale.nm_values, na=0.0, seed=seed,
        batch_size=scale.execution.batch_size,
        strategy=scale.execution.strategy)
    baseline = next(iter(curves.values())).baseline_accuracy
    return fig9.Fig9Result(benchmark, baseline, curves)


def _direct_fig10(benchmark: str, scale: ExperimentScale,
                  seed: int = 0) -> fig10.Fig10Result:
    """The pre-redesign Fig. 10 path, verbatim."""
    entry = benchmark_entry(benchmark)
    test_set = entry.test_set.subset(scale.eval_samples)
    layers = entry.model.layer_names
    curves = layer_wise_analysis(
        entry.model, test_set, groups=list(fig10.NON_RESILIENT_GROUPS),
        layers=layers, nm_values=scale.nm_values, na=0.0, seed=seed,
        batch_size=scale.execution.batch_size,
        strategy=scale.execution.strategy)
    baseline = next(iter(curves.values())).baseline_accuracy
    return fig10.Fig10Result(benchmark, baseline, curves, layers)


class TestGoldenCompat:
    """Service path ≡ direct path, byte for byte, cold and warm."""

    def test_fig9_quick_byte_identical(self, service):
        direct = _direct_fig9("DeepCaps/CIFAR-10", QUICK)
        cold = fig9.run(scale=QUICK, service=service)
        assert cold.format_text() == direct.format_text()
        warm = fig9.run(scale=QUICK, service=service)
        assert warm.format_text() == direct.format_text()
        assert service.stats.store_hits == 1

    def test_fig10_quick_byte_identical(self, service):
        direct = _direct_fig10("DeepCaps/CIFAR-10", QUICK)
        cold = fig10.run(scale=QUICK, service=service)
        assert cold.format_text() == direct.format_text()
        warm = fig10.run(scale=QUICK, service=service)
        assert warm.format_text() == direct.format_text()

    def test_fig12_quick_byte_identical(self, service):
        benchmarks = ("DeepCaps/MNIST", "CapsNet/MNIST")
        direct = fig12.Fig12Result(
            {name: _direct_fig9(name, QUICK) for name in benchmarks})
        cold = fig12.run(benchmarks=benchmarks, scale=QUICK, service=service)
        assert cold.format_text() == direct.format_text()
        warm = fig12.run(benchmarks=benchmarks, scale=QUICK, service=service)
        assert warm.format_text() == direct.format_text()
        assert warm.panels.keys() == direct.panels.keys()

    def test_fig9_fig10_share_one_engine(self, service):
        """The Fig. 10 refinement must reuse the Fig. 9 engine (same ref,
        same eval subset, same options), exactly like the methodology's
        Steps 2+4 shared one engine before the redesign."""
        fig9.run(scale=QUICK, service=service)
        engines = dict(service._engines)
        fig10.run(scale=QUICK, service=service)
        assert dict(service._engines) == engines  # no new engine built


#: Backend configurations the ISSUE 4/5 acceptance demands byte-identity
#: for: every backend (incl. the warm ``procpool`` workers), plus
#: shard-merge along both axes.
BACKEND_CONFIGS = {
    "inline": {"backend": "inline"},
    "threads-sharded": {"backend": "threads", "max_parallel": 2},
    "threads-nm-chunks": {"backend": "threads", "max_parallel": 2,
                          "nm_chunk": 2},
    "procpool-whole": {"backend": "procpool", "max_parallel": 1},
    "procpool-sharded": {"backend": "procpool", "max_parallel": 2},
    "procpool-nm-chunks": {"backend": "procpool", "max_parallel": 2,
                           "nm_chunk": 2},
}


class TestBackendGoldenCompat:
    """fig9/fig10 --quick byte-identical through every backend and
    through sharded vs unsharded execution (ISSUE 4)."""

    @pytest.fixture(scope="class")
    def fig9_direct(self) -> str:
        return _direct_fig9("DeepCaps/CIFAR-10", QUICK).format_text()

    @pytest.fixture(scope="class")
    def fig10_direct(self) -> str:
        return _direct_fig10("DeepCaps/CIFAR-10", QUICK).format_text()

    @staticmethod
    def _run_with(tmp_path, config, runner) -> str:
        service = ResilienceService(cache_dir=str(tmp_path), **config)
        try:
            return runner(service).format_text()
        finally:
            service.close()

    @pytest.mark.parametrize("config", list(BACKEND_CONFIGS),
                             ids=list(BACKEND_CONFIGS))
    def test_fig9_quick_byte_identical_on_every_backend(
            self, tmp_path, fig9_direct, config):
        text = self._run_with(tmp_path, BACKEND_CONFIGS[config],
                              lambda svc: fig9.run(scale=QUICK, service=svc))
        assert text == fig9_direct, config

    @pytest.mark.parametrize("config", ["threads-sharded",
                                        "procpool-whole",
                                        "procpool-sharded"])
    def test_fig10_quick_byte_identical_on_parallel_backends(
            self, tmp_path, fig10_direct, config):
        text = self._run_with(tmp_path, BACKEND_CONFIGS[config],
                              lambda svc: fig10.run(scale=QUICK,
                                                    service=svc))
        assert text == fig10_direct, config

    def test_fig9_quick_streaming_consumer_is_byte_identical(
            self, tmp_path, fig9_direct):
        """ISSUE 5 acceptance: consuming the live event stream (the
        --progress path) changes nothing about the measured output."""
        events = []
        text = self._run_with(
            tmp_path, BACKEND_CONFIGS["threads-nm-chunks"],
            lambda svc: fig9.run(scale=QUICK, service=svc,
                                 progress=events.append))
        assert text == fig9_direct
        kinds = [event.kind for event in events]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        assert kinds.count("shard_done") == 8  # 4 targets x 2 NM chunks

    def test_sharded_execution_hits_shard_store_entries(self, tmp_path):
        """Shard results persist under their own keys: a later
        single-target request is a (shard-level) store hit, making the
        store the dedup layer between overlapping requests."""
        service = ResilienceService(cache_dir=str(tmp_path),
                                    backend="threads", max_parallel=2)
        try:
            fig9.run(scale=QUICK, service=service)
            assert service.stats.shards == 4  # one per INJECTABLE_GROUP
            single = AnalysisRequest(
                model=ModelRef(benchmark="DeepCaps/CIFAR-10"),
                targets=(("softmax", None),),
                nm_values=QUICK.nm_values,
                eval_samples=QUICK.eval_samples,
                options=QUICK.execution)
            result = service.run(single)
            assert result.from_cache
        finally:
            service.close()


class TestConcurrencyAndBatching:
    @pytest.fixture()
    def session_request(self, service, trained_capsnet, mnist_splits):
        service.register("svc-test", trained_capsnet, mnist_splits[1])
        return AnalysisRequest(
            model=ModelRef(session="svc-test"),
            targets=(("mac_outputs", None), ("softmax", None)),
            nm_values=(0.5, 0.05, 0.0), seed=3, eval_samples=48,
            options=ExecutionOptions(batch_size=48))

    def test_concurrent_submissions_smoke(self, service, session_request):
        """Two identical requests submitted concurrently: both succeed,
        agree exactly, and collapse onto at most one measurement-or-hit
        (tier-1 smoke required by ISSUE 3)."""
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(service.run, session_request)
                       for _ in range(2)]
            first, second = [future.result() for future in futures]
        points = [p.accuracy for p in first.curves["softmax"].points]
        assert points == [p.accuracy for p in second.curves["softmax"].points]
        stats = service.stats
        assert stats.submitted == 2
        assert stats.executed + stats.store_hits + stats.deduplicated == 2
        assert stats.executed >= 1

    def test_concurrent_distinct_requests(self, service, session_request):
        """Distinct concurrent requests serialise safely (engines and the
        hook registry are not thread-safe; the service owns the lock)."""
        other = dataclasses.replace(session_request, seed=7)
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(service.run,
                                    [session_request, other]))
        assert results[0].request.seed == 3
        assert results[1].request.seed == 7
        assert service.stats.executed == 2

    def test_submit_many_batches_one_sweep(self, service, session_request):
        """Per-group requests sharing grid/seed/options merge into one
        ``engine.sweep`` call covering the union of targets."""
        per_group = [dataclasses.replace(session_request,
                                         targets=((group, None),))
                     for group in ("mac_outputs", "softmax", "logits_update")]
        results = service.run_many(per_group)
        assert service.stats.sweeps == 1
        assert service.stats.executed == 3
        assert [list(result.curves) for result in results] == \
            [["mac_outputs"], ["softmax"], ["logits_update"]]
        # The batched curves equal the union request's curves exactly.
        union = service.run(dataclasses.replace(
            session_request,
            targets=(("mac_outputs", None), ("softmax", None),
                     ("logits_update", None))))
        for result in results:
            for key, curve in result.curves.items():
                assert curve.points == union.curves[key].points

    def test_batched_results_are_individually_cached(self, service,
                                                     session_request):
        per_group = [dataclasses.replace(session_request,
                                         targets=((group, None),))
                     for group in ("mac_outputs", "softmax")]
        service.run_many(per_group)
        replay = service.run(per_group[1])
        assert replay.from_cache
