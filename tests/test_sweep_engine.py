"""Equivalence suite for the vectorised resilience-sweep engine.

The engine's contract (ISSUE 1 / repro.core.sweep):

* ``cached`` — prefix-activation replay with the naive RNG streams —
  reproduces the naive per-point accuracies **bit-identically**;
* ``vectorized`` — NM stacking + common-random-number draws — reproduces
  them statistically (same Eq. 3-4 noise model, different draws);
* results are independent of chunking and worker partitioning;
* ``evaluate_accuracy`` under an empty registry is unchanged;
* observe stores no stage output; a replay fills the non-affine state it
  resumes from, clean and once, and every filled or recomputed state is
  bit-equal to the clean forward's; noise draws live one batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (SweepEngine, SweepTarget, group_wise_analysis,
                        layer_wise_analysis)
from repro.core.noise import StackedNoiseInjector
from repro.nn import hooks
from repro.nn.hooks import (GROUP_ACTIVATIONS, GROUP_LOGITS, GROUP_MAC,
                            GROUP_SOFTMAX, HookRegistry, INJECTABLE_GROUPS,
                            use_registry)
from repro.tensor import Tensor, no_grad
from repro.train import evaluate_accuracy

NM_VALUES = (0.5, 0.05, 0.005, 0.0)


def _targets_for(model):
    """Group-wise targets plus a layer-wise refinement (Steps 2+4 shape)."""
    layers = model.layer_names[:3] + model.layer_names[-1:]
    return ([(group, None) for group in INJECTABLE_GROUPS]
            + [(GROUP_MAC, layer) for layer in dict.fromkeys(layers)]
            + [(GROUP_ACTIVATIONS, model.layer_names[0])])


def _accuracies(curves):
    return {key: [point.accuracy for point in curve.points]
            for key, curve in curves.items()}


def _sweep(model, dataset, strategy, targets, *, batch_size=40, seed=3):
    engine = SweepEngine(model, dataset, batch_size=batch_size,
                         strategy=strategy)
    return engine.sweep(targets, NM_VALUES, seed=seed)


@pytest.fixture(scope="module")
def capsnet_setup(trained_capsnet, mnist_splits):
    _, test_set = mnist_splits
    return trained_capsnet, test_set.subset(96)


@pytest.fixture(scope="module")
def deepcaps_setup(trained_deepcaps):
    model, test_set = trained_deepcaps
    return model, test_set.subset(64)


class TestCachedBitIdentical:
    """The cached-prefix strategy must be indistinguishable from naive."""

    def test_capsnet(self, capsnet_setup):
        model, test_set = capsnet_setup
        targets = _targets_for(model)
        naive = _accuracies(_sweep(model, test_set, "naive", targets))
        cached = _accuracies(_sweep(model, test_set, "cached", targets))
        assert naive == cached  # exact float equality, not approx

    def test_deepcaps(self, deepcaps_setup):
        model, test_set = deepcaps_setup
        targets = _targets_for(model)
        naive = _accuracies(_sweep(model, test_set, "naive", targets))
        cached = _accuracies(_sweep(model, test_set, "cached", targets))
        assert naive == cached

    def test_uneven_final_batch(self, capsnet_setup):
        model, test_set = capsnet_setup
        targets = [(GROUP_MAC, None), (GROUP_SOFTMAX, None)]
        naive = _accuracies(_sweep(model, test_set, "naive", targets,
                                   batch_size=36))  # 96 = 36 + 36 + 24
        cached = _accuracies(_sweep(model, test_set, "cached", targets,
                                    batch_size=36))
        assert naive == cached


class TestVectorizedEquivalence:
    """NM stacking draws different (equally-distributed) noise, so the
    accuracies must agree within noise-sampling resolution."""

    @staticmethod
    def _tolerance(nm: float) -> float:
        """Sampling-noise bound for CRN-vs-naive draws (deterministic for
        fixed seeds).  Large NM sits in the accuracy-collapse regime where
        a different noise realisation legitimately moves the measurement;
        small NM must agree tightly."""
        if nm >= 0.1:
            return 0.35
        if nm >= 0.005:
            return 0.15
        return 0.08

    @pytest.mark.parametrize("setup", ["capsnet_setup", "deepcaps_setup"])
    def test_accuracies_close(self, setup, request):
        model, test_set = request.getfixturevalue(setup)
        targets = _targets_for(model)
        naive = _accuracies(_sweep(model, test_set, "naive", targets))
        vect = _accuracies(_sweep(model, test_set, "vectorized", targets))
        assert naive.keys() == vect.keys()
        for key in naive:
            for nm, reference, measured in zip(NM_VALUES, naive[key],
                                               vect[key]):
                assert measured == pytest.approx(
                    reference, abs=self._tolerance(nm)), (key, nm)

    def test_zero_nm_point_is_exactly_baseline(self, capsnet_setup):
        model, test_set = capsnet_setup
        baseline = evaluate_accuracy(model, test_set, batch_size=40)
        curves = _sweep(model, test_set, "vectorized",
                        [(GROUP_MAC, None)])
        assert curves[GROUP_MAC].points[-1].nm == 0.0
        assert curves[GROUP_MAC].points[-1].accuracy == baseline

    def test_chunking_invariant(self, capsnet_setup, monkeypatch):
        """Stacked-chunk size must not change the measured curve."""
        model, test_set = capsnet_setup
        targets = [(GROUP_MAC, None)]
        monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", "1")
        per_point = _accuracies(_sweep(model, test_set, "vectorized",
                                       targets))
        monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", str(1 << 30))
        stacked = _accuracies(_sweep(model, test_set, "vectorized", targets))
        for key in per_point:
            for lone, wide in zip(per_point[key], stacked[key]):
                assert lone == pytest.approx(wide, abs=1e-9)


class TestReplayPlans:
    def test_golden_targets_select_every_plan(self, monkeypatch):
        """The golden targets, plus CapsNet's activations@PrimaryCaps,
        run every stacked replay plan: otherwise a byte-equal vectorized
        golden could pass with one plan never run."""
        from golden_common import (GOLDEN_BATCH, golden_capsnet,
                                   golden_deepcaps, golden_targets)

        selected = {}
        select = SweepEngine._select_plan

        def recording(engine, *args):
            plan = select(engine, *args)
            selected.setdefault(plan.kind, set()).add(
                type(engine.model).__name__)
            return plan

        monkeypatch.setattr(SweepEngine, "_select_plan", recording)
        for build, extra in ((golden_capsnet,
                              [(GROUP_ACTIVATIONS, "PrimaryCaps")]),
                             (golden_deepcaps, [])):
            model, test_set = build()
            _sweep(model, test_set, "vectorized",
                   golden_targets(model) + extra, batch_size=GOLDEN_BATCH)
        assert set(selected) == {"tiled", "routing", "push",
                                 "push+routing"}, selected


class TestEngineBehaviour:
    def test_analysis_entry_points_route_through_engine(self, capsnet_setup):
        model, test_set = capsnet_setup
        naive = group_wise_analysis(model, test_set, groups=[GROUP_MAC],
                                    nm_values=NM_VALUES, strategy="naive",
                                    batch_size=40, seed=3)
        cached = group_wise_analysis(model, test_set, groups=[GROUP_MAC],
                                     nm_values=NM_VALUES, strategy="cached",
                                     batch_size=40, seed=3)
        assert _accuracies(naive) == _accuracies(cached)
        layered = layer_wise_analysis(model, test_set, groups=[GROUP_MAC],
                                      layers=["Conv1"], nm_values=NM_VALUES,
                                      strategy="cached", batch_size=40,
                                      seed=3)
        assert set(layered) == {(GROUP_MAC, "Conv1")}

    def test_ambient_registry_falls_back_to_naive(self, capsnet_setup):
        """Active external registries would invalidate the prefix cache."""
        model, test_set = capsnet_setup
        targets = [(GROUP_SOFTMAX, None)]
        naive = _accuracies(_sweep(model, test_set, "naive", targets))
        with use_registry(HookRegistry()):
            ambient = _accuracies(_sweep(model, test_set, "vectorized",
                                         targets))
        assert naive == ambient

    def test_unstaged_model_uses_single_stage(self, capsnet_setup):
        """Models without forward_stages still sweep (whole-forward stage)."""
        from repro.nn import Module

        class Opaque(Module):
            """Hook-emitting model with no staged decomposition."""

            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(x)

        model, test_set = capsnet_setup
        opaque = Opaque(model)
        assert opaque.forward_stages() is None
        naive = _accuracies(_sweep(opaque, test_set, "naive",
                                   [(GROUP_MAC, None)]))
        cached = _accuracies(_sweep(opaque, test_set, "cached",
                                    [(GROUP_MAC, None)]))
        assert naive == cached

    def test_invalid_strategy_rejected(self, capsnet_setup):
        model, test_set = capsnet_setup
        with pytest.raises(ValueError, match="strategy"):
            SweepEngine(model, test_set, strategy="warp")

    def test_target_keys(self):
        assert SweepTarget("mac_outputs").key == "mac_outputs"
        assert SweepTarget("mac_outputs", "Conv1").key == \
            ("mac_outputs", "Conv1")


class TestStaleCacheProtection:
    """The cached clean trace must track the model's parameters.

    Regression for the classic stale-cache bug: mutating the model's
    weights between sweeps without calling ``invalidate()`` used to keep
    replaying activations of the *old* model.  The engine now fingerprints
    parameters/buffers and rebuilds the trace transparently.
    """

    def test_parameter_mutation_rebuilds_trace(self, capsnet_setup):
        model, test_set = capsnet_setup
        targets = [(GROUP_MAC, None)]
        engine = SweepEngine(model, test_set, batch_size=40,
                             strategy="cached")
        before = _accuracies(engine.sweep(targets, NM_VALUES, seed=3))
        param = model.conv1.weight
        original = param.data.copy()
        try:
            param.data[:] = 0.0  # in-place: invisible without fingerprinting
            naive = _accuracies(_sweep(model, test_set, "naive", targets))
            replayed = _accuracies(engine.sweep(targets, NM_VALUES, seed=3))
            # Still bit-identical to naive on the *mutated* model — a stale
            # trace would have reproduced `before` instead.
            assert replayed == naive
            assert replayed != before
        finally:
            param.data = original
        assert _accuracies(engine.sweep(targets, NM_VALUES, seed=3)) == before

    def test_unchanged_model_reuses_trace(self, capsnet_setup):
        model, test_set = capsnet_setup
        engine = SweepEngine(model, test_set, batch_size=40,
                             strategy="vectorized")
        engine.sweep([(GROUP_MAC, None)], NM_VALUES, seed=3)
        trace = engine._trace
        engine.sweep([(GROUP_SOFTMAX, None)], NM_VALUES, seed=3)
        assert engine._trace is trace  # fingerprint match -> no rebuild

    def test_manual_invalidate_still_drops_trace(self, capsnet_setup):
        model, test_set = capsnet_setup
        engine = SweepEngine(model, test_set, batch_size=40,
                             strategy="vectorized")
        engine.sweep([(GROUP_MAC, None)], NM_VALUES, seed=3)
        assert engine._trace is not None
        engine.invalidate()
        assert engine._trace is None


def _clean_forward(engine, trace):
    """Every stage's clean output for every traced batch, recomputed from
    scratch outside any registry."""
    outputs = []
    with no_grad():
        for batch in trace.batches:
            state = Tensor(batch.inputs)
            per_stage = []
            for _, stage, _meta in engine._stages():
                state = stage(state)
                per_stage.append(state)
            outputs.append(per_stage)
    return outputs


def _bitwise_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_bitwise_equal, a, b))
    return (a.data.dtype == b.data.dtype and a.data.shape == b.data.shape
            and a.data.tobytes() == b.data.tobytes())


def _stored_nbytes(trace) -> int:
    """Bytes of the trace's stored stage outputs, each array counted once
    (DeepCaps states share their skip input)."""
    arrays = {id(part.data): part.data.nbytes
              for batch in trace.batches for state in batch.states
              if state is not None
              for part in (state if isinstance(state, tuple) else (state,))}
    return sum(arrays.values())


def _observed_nbytes(engine, trace) -> int:
    """Bytes a trace storing every non-affine stage output would hold."""
    arrays = {}
    for outputs in _clean_forward(engine, trace):
        for (_, _, meta), state in zip(engine._stages(), outputs):
            if not meta.get("affine"):
                parts = state if isinstance(state, tuple) else (state,)
                arrays.update((id(part.data), part) for part in parts)
    return sum(part.data.nbytes for part in arrays.values())


def _watch_fills(engine, monkeypatch):
    """Record each :meth:`SweepEngine._fill` call as a list of the stage
    calls it made, each ``(stage name, registries active at the call)``."""
    fills, filling = [], []
    stages, fill = engine._stages, engine._fill

    def counted(name, fn):
        def run(state):
            if filling:
                fills[-1].append((name, hooks.active_registries()))
            return fn(state)
        return run

    def watched_fill(trace, index):
        fills.append([])
        filling.append(index)
        try:
            return fill(trace, index)
        finally:
            filling.pop()

    monkeypatch.setattr(engine, "_stages", lambda: [
        (name, counted(name, fn), meta) for name, fn, meta in stages()])
    monkeypatch.setattr(engine, "_fill", watched_fill)
    return fills


class TestTraceMemory:
    """Observe stores no stage output; each replay fills the non-affine
    state it resumes from, bit-exactly and once, and the rest are
    recomputed bit-exactly; each injector holds one batch of draws."""

    @pytest.mark.parametrize("setup", ["capsnet_setup", "deepcaps_setup"])
    def test_observe_stores_no_stage_output(self, setup, request):
        model, test_set = request.getfixturevalue(setup)
        engine = SweepEngine(model, test_set, batch_size=40)
        trace = engine._clean_trace()
        assert len(trace.batches) >= 2
        assert all(state is None for batch in trace.batches
                   for state in batch.states)
        # Chunk sizing still sees every stage's bytes.
        assert all(size > 0 for size in trace.stage_bytes)

    def test_routing_sweep_stores_only_primary_caps(self, capsnet_setup):
        model, test_set = capsnet_setup
        engine = SweepEngine(model, test_set, batch_size=40)
        engine.sweep([(GROUP_SOFTMAX, None), (GROUP_LOGITS, None),
                      (GROUP_MAC, "ClassCaps"),
                      (GROUP_ACTIVATIONS, "ClassCaps")], NM_VALUES, seed=3)
        trace = engine._trace
        for batch in trace.batches:
            stored = [name for name, state in zip(trace.stage_names,
                                                   batch.states)
                      if state is not None]
            assert stored == ["PrimaryCaps.post"]

    @pytest.mark.parametrize("setup", ["capsnet_setup", "deepcaps_setup"])
    def test_filled_states_match_clean_forward(self, setup, request):
        """Filled top-down first (each fill from the inputs, so shared
        skip inputs are computed twice), every stored state is the clean
        forward's, only non-affine stages are stored, and shared parts
        are stored once: never more bytes than storing every non-affine
        output at observe."""
        model, test_set = request.getfixturevalue(setup)
        engine = SweepEngine(model, test_set, batch_size=40)
        targets = [(GROUP_MAC, layer) for layer in model.layer_names]
        engine.sweep(targets[::-1] + _targets_for(model), NM_VALUES, seed=3)
        trace = engine._trace
        stages = engine._stages()
        filled = set()
        for batch, outputs in zip(trace.batches,
                                  _clean_forward(engine, trace)):
            for (name, _, meta), kept, output in zip(stages, batch.states,
                                                     outputs):
                if kept is not None:
                    assert not meta.get("affine"), name
                    assert _bitwise_equal(kept, output), name
                    filled.add(name)
        # Targets resuming everywhere fill every non-affine state a replay
        # can read: all but the final stage's.
        assert filled == {name for name, _, meta in stages[:-1]
                          if not meta.get("affine")}
        assert _stored_nbytes(trace) <= _observed_nbytes(engine, trace)

    @pytest.mark.parametrize("strategy", ["vectorized", "cached"])
    def test_fills_run_with_no_active_registry(self, capsnet_setup,
                                               monkeypatch, strategy):
        model, test_set = capsnet_setup
        engine = SweepEngine(model, test_set, batch_size=40,
                             strategy=strategy)
        fills = _watch_fills(engine, monkeypatch)
        targets = _targets_for(model)
        engine.sweep(targets, NM_VALUES, seed=3)
        calls = [call for fill in fills for call in fill]
        assert calls
        assert all(active == () for _, active in calls)
        # At most one fill per target, also when ``cached`` replays per
        # point.
        assert len(fills) <= len(targets)

    def test_repeated_sweep_runs_no_fill_stage_calls(self, capsnet_setup,
                                                     monkeypatch):
        model, test_set = capsnet_setup
        engine = SweepEngine(model, test_set, batch_size=40)
        fills = _watch_fills(engine, monkeypatch)
        first = _accuracies(engine.sweep(_targets_for(model), NM_VALUES,
                                         seed=3))
        assert any(fills)
        fills.clear()
        again = _accuracies(engine.sweep(_targets_for(model), NM_VALUES,
                                         seed=3))
        assert fills and not any(fills)
        assert again == first

    @pytest.mark.parametrize("strategy", ["vectorized", "cached"])
    def test_curves_do_not_depend_on_fill_history(self, capsnet_setup,
                                                  strategy):
        """A trace filled by other targets first (top-down) gives the
        same curves as a never-filled engine, and ``cached`` on it still
        matches the naive reference."""
        model, test_set = capsnet_setup
        targets = _targets_for(model)
        warm = SweepEngine(model, test_set, batch_size=40, strategy=strategy)
        warm.sweep(targets[::-1], NM_VALUES, seed=5)
        curves = _accuracies(warm.sweep(targets, NM_VALUES, seed=3))
        assert curves == _accuracies(_sweep(model, test_set, strategy,
                                            targets))
        if strategy == "cached":
            assert curves == _accuracies(_sweep(model, test_set, "naive",
                                                targets))

    @pytest.mark.parametrize("setup", ["capsnet_setup", "deepcaps_setup"])
    def test_recomputed_states_match_clean_forward(self, setup, request,
                                                   monkeypatch):
        model, test_set = request.getfixturevalue(setup)
        engine = SweepEngine(model, test_set, batch_size=40)
        trace = engine._clean_trace()
        reference = dict(zip(map(id, trace.batches),
                             _clean_forward(engine, trace)))
        recomputed = set()
        original = SweepEngine._clean_state

        def checked(self, trace, batch, index, stages, matcher):
            state = original(self, trace, batch, index, stages, matcher)
            if index >= 0 and batch.states[index] is None:
                assert hooks.active_registries()  # inside a noisy replay
                assert _bitwise_equal(state, reference[id(batch)][index])
                recomputed.add(trace.stage_names[index])
            return state

        monkeypatch.setattr(SweepEngine, "_clean_state", checked)
        for strategy in ("vectorized", "cached"):
            engine.strategy = strategy
            engine.sweep(_targets_for(model), NM_VALUES, seed=3)
        # Resume recomputes (Conv1.conv for Conv1 MAC outputs, the vote
        # stage for routing targets) and the affine push's next stage.
        assert len(recomputed) >= 3, recomputed

    def test_draw_cache_holds_one_batch(self, capsnet_setup, monkeypatch):
        model, test_set = capsnet_setup
        drawn = {}  # id -> (draw, batch); holding the draw keeps ids unique
        original = StackedNoiseInjector._base_draw

        def tracked(self, site, shape):
            z = original(self, site, shape)
            drawn.setdefault(id(z), (z, self._batch_index))
            assert {drawn[id(cached)][1] for cached in self._base.values()} \
                == {self._batch_index}
            return z

        monkeypatch.setattr(StackedNoiseInjector, "_base_draw", tracked)
        mac = (GROUP_MAC, None)
        mac_classcaps = (GROUP_MAC, "ClassCaps")
        together = _accuracies(_sweep(model, test_set, "vectorized",
                                      [mac, mac_classcaps]))
        assert len({batch for _, batch in drawn.values()}) >= 2
        for target in (mac, mac_classcaps):
            alone = _accuracies(_sweep(model, test_set, "vectorized",
                                       [target]))
            assert alone == {SweepTarget(*target).key:
                             together[SweepTarget(*target).key]}


def test_evaluate_accuracy_empty_registry_regression(capsnet_setup):
    """An active-but-empty registry must not change the measurement."""
    model, test_set = capsnet_setup
    plain = evaluate_accuracy(model, test_set, batch_size=40)
    with use_registry(HookRegistry()):
        hooked = evaluate_accuracy(model, test_set, batch_size=40)
    assert plain == hooked


def test_curves_structure(capsnet_setup):
    model, test_set = capsnet_setup
    curves = _sweep(model, test_set, "vectorized", [(GROUP_MAC, "Conv1")])
    curve = curves[(GROUP_MAC, "Conv1")]
    assert [point.nm for point in curve.points] == list(NM_VALUES)
    assert curve.target == f"{GROUP_MAC}@Conv1"
    for point in curve.points:
        assert point.accuracy_drop == pytest.approx(
            point.accuracy - curve.baseline_accuracy)
