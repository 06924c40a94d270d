"""Equivalence armor for the shared-votes routing fast path.

Contract (ISSUE 2 / ``repro.nn.routing``):

* :func:`dynamic_routing_shared` over a :class:`SharedVotes` stack is
  **bit-identical** to running the reference :func:`dynamic_routing` on the
  equivalent tiled vote tensor — with or without an active
  :class:`StackedNoiseInjector`, for every injectable routing group, for
  CapsNet-shaped (``P = 1``) and DeepCaps-shaped (``P > 1``) vote tensors,
  including the ``points = 1`` and empty-delta edge cases;
* vote-tensor noise expressed as common-random-number affine deltas
  reproduces the per-point injection bit-identically while the
  materialisation budget holds, and up to float reordering beyond it;
* lazy stacking (the ``stack_when`` hint) never changes results;
* the engine's shared-votes plans reproduce the generic (tiled or
  materialised-push) replay exactly on routing-resumed targets;
* capsule-major votes (:meth:`ClassCaps.votes_to_u_hat`) route to the
  same bits as C-order votes at the production ClassCaps shapes, and
  every routing contraction returns a C-contiguous array;
* the factored first iteration contracts ``N`` rows, and
  :func:`stack_affine` builds in place, both without changing bits.

The function-level checks are property-style: shapes, iteration counts and
noise settings are drawn from a seeded RNG so each CI run exercises the
same broad slice of the input space.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import SweepEngine, StackedNoiseInjector, NoiseSpec, \
    site_matcher
from repro.nn import (ClassCaps, ConvCaps3D, SharedVotes, dynamic_routing,
                      dynamic_routing_shared, routing)
from repro.nn.routing import stack_affine, stack_budget
from repro.nn.hooks import (GROUP_ACTIVATIONS, GROUP_LOGITS, GROUP_MAC,
                            GROUP_SOFTMAX, HookRegistry, INJECTABLE_GROUPS,
                            use_registry)
from repro.tensor import Tensor, no_grad

LAYER = "RoutedLayer"


def _random_votes(rng, *, p_one: bool):
    """A random vote tensor in CapsNet (P=1) or DeepCaps (P>1) shape."""
    n = int(rng.integers(1, 5))
    c_in = int(rng.integers(2, 14))
    c_out = int(rng.integers(2, 6))
    d = int(rng.integers(2, 9))
    p = 1 if p_one else int(rng.integers(2, 7))
    return rng.normal(0.0, 1.0, (n, c_in, c_out, d, p)).astype(np.float32)


def _tile(u: np.ndarray, points: int) -> np.ndarray:
    return np.concatenate([u] * points, axis=0)


def _routed_tiled(u, points, iterations, registry=None):
    """Reference: per-point routing via the tiled vote tensor."""
    with no_grad():
        if registry is None:
            return dynamic_routing(Tensor(_tile(u, points)),
                                   iterations=iterations,
                                   layer_name=LAYER).data
        with use_registry(registry):
            return dynamic_routing(Tensor(_tile(u, points)),
                                   iterations=iterations,
                                   layer_name=LAYER).data


def _routed_shared(votes, iterations, registry=None, stack_when=None):
    with no_grad():
        if registry is None:
            return dynamic_routing_shared(votes, iterations=iterations,
                                          layer_name=LAYER,
                                          stack_when=stack_when).data
        with use_registry(registry):
            return dynamic_routing_shared(votes, iterations=iterations,
                                          layer_name=LAYER,
                                          stack_when=stack_when).data


def _injector_registry(specs, matcher):
    injector = StackedNoiseInjector(specs, seed=specs[0].seed)
    registry = HookRegistry()
    registry.add_transform(matcher, injector)
    return registry


class TestCleanStackBitIdentity:
    """Empty-delta stacks must reproduce per-point routing exactly."""

    @pytest.mark.parametrize("p_one", [True, False],
                             ids=["capsnet-P1", "deepcaps-P"])
    def test_property_random_shapes(self, p_one):
        rng = np.random.default_rng(101 if p_one else 202)
        for trial in range(8):
            u = _random_votes(rng, p_one=p_one)
            points = int(rng.integers(1, 6))
            iterations = int(rng.integers(1, 5))
            with no_grad():
                single = dynamic_routing(Tensor(u), iterations=iterations,
                                         layer_name=LAYER).data
            shared = _routed_shared(SharedVotes(u, points=points),
                                    iterations=iterations)
            stacked = shared.reshape((points,) + single.shape)
            for j in range(points):
                assert np.array_equal(stacked[j], single), (trial, j)

    def test_single_point_edge_case(self):
        rng = np.random.default_rng(3)
        u = _random_votes(rng, p_one=False)
        with no_grad():
            single = dynamic_routing(Tensor(u), iterations=3,
                                     layer_name=LAYER).data
        shared = _routed_shared(SharedVotes(u, points=1), iterations=3)
        assert np.array_equal(shared, single)


class TestInjectedStackBitIdentity:
    """With CRN noise on the routing loop, stacked == tiled, bitwise."""

    @pytest.mark.parametrize("group", list(INJECTABLE_GROUPS))
    @pytest.mark.parametrize("p_one", [True, False],
                             ids=["capsnet-P1", "deepcaps-P"])
    def test_property_random_noise(self, group, p_one):
        rng = np.random.default_rng(
            1000 + 2 * INJECTABLE_GROUPS.index(group) + int(p_one))
        matcher = site_matcher(groups=[group])
        for trial in range(4):
            u = _random_votes(rng, p_one=p_one)
            iterations = int(rng.integers(2, 5))
            nms = [float(nm) for nm in rng.uniform(0.0, 1.0, 3)]
            specs = [NoiseSpec(nm=nm, na=0.0, seed=5) for nm in nms]
            tiled = _routed_tiled(u, len(specs), iterations,
                                  _injector_registry(specs, matcher))
            shared = _routed_shared(SharedVotes(u, points=len(specs)),
                                    iterations, _injector_registry(specs,
                                                                   matcher),
                                    stack_when=matcher)
            assert np.array_equal(shared, tiled), (trial, group)

    def test_nm_one_edge_case(self):
        """NM = 1 (noise std equal to the full value range)."""
        rng = np.random.default_rng(11)
        u = _random_votes(rng, p_one=True)
        matcher = site_matcher(groups=[GROUP_SOFTMAX])
        specs = [NoiseSpec(nm=1.0, seed=2), NoiseSpec(nm=0.0, seed=2)]
        tiled = _routed_tiled(u, 2, 3, _injector_registry(specs, matcher))
        shared = _routed_shared(SharedVotes(u, points=2), 3,
                                _injector_registry(specs, matcher),
                                stack_when=matcher)
        assert np.array_equal(shared, tiled)

    def test_lazy_stacking_hint_is_pure_optimisation(self):
        """Results must not depend on the ``stack_when`` hint."""
        rng = np.random.default_rng(12)
        u = _random_votes(rng, p_one=False)
        matcher = site_matcher(groups=[GROUP_LOGITS])
        specs = [NoiseSpec(nm=0.3, seed=4), NoiseSpec(nm=0.01, seed=4)]
        lazy = _routed_shared(SharedVotes(u, points=2), 4,
                              _injector_registry(specs, matcher),
                              stack_when=matcher)
        eager = _routed_shared(SharedVotes(u, points=2), 4,
                               _injector_registry(specs, matcher),
                               stack_when=None)
        assert np.array_equal(lazy, eager)


class TestVoteDeltas:
    """Vote-tensor noise as affine deltas vs per-point noisy votes."""

    @staticmethod
    def _delta_setup(rng, p_one, points=3):
        u = _random_votes(rng, p_one=p_one)
        z = rng.standard_normal(u.shape).astype(np.float32)
        coeffs = rng.uniform(0.0, 0.5, points).astype(np.float32)
        shared = SharedVotes(u, points=points, deltas=[(coeffs, z)])
        noisy = np.concatenate(
            [u + c * z for c in coeffs], axis=0)
        return shared, noisy

    @pytest.mark.parametrize("p_one", [True, False],
                             ids=["capsnet-P1", "deepcaps-P"])
    def test_materialized_bit_identical(self, p_one):
        """Under the budget the delta stack is materialised: bitwise equal
        to routing the per-point noisy votes."""
        rng = np.random.default_rng(31 if p_one else 32)
        shared, noisy = self._delta_setup(rng, p_one)
        with no_grad():
            reference = dynamic_routing(Tensor(noisy), iterations=3,
                                        layer_name=LAYER).data
        routed = _routed_shared(shared, 3)
        assert np.array_equal(routed, reference)

    def test_factored_matches_within_rounding(self, monkeypatch):
        """Past the budget the factored contraction reorders float
        accumulation — equal within tight tolerance, not bitwise."""
        monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", "0")
        rng = np.random.default_rng(33)
        shared, noisy = self._delta_setup(rng, False)
        with no_grad():
            reference = dynamic_routing(Tensor(noisy), iterations=3,
                                        layer_name=LAYER).data
        routed = _routed_shared(shared, 3)
        np.testing.assert_allclose(routed, reference, rtol=2e-5, atol=2e-6)

    def test_empty_delta_list_is_clean(self):
        """Explicit empty-delta edge case: equals the clean stack."""
        rng = np.random.default_rng(34)
        u = _random_votes(rng, p_one=True)
        plain = _routed_shared(SharedVotes(u, points=2), 2)
        explicit = _routed_shared(SharedVotes(u, points=2, deltas=[]), 2)
        assert np.array_equal(plain, explicit)


class TestLayerEntryPoints:
    """The layers' votes_to_u_hat / routing_spec glue used by the engine."""

    def test_classcaps_round_trip(self):
        rng = np.random.default_rng(41)
        layer = ClassCaps(6, 4, 3, 8, name=LAYER, rng=rng)
        votes = rng.normal(size=(2, 6, 3, 8)).astype(np.float32)
        with no_grad():
            reference = layer.route(Tensor(votes)).data
        spec = layer.routing_spec()
        shared = SharedVotes(layer.votes_to_u_hat(votes), points=1)
        with no_grad():
            routed = dynamic_routing_shared(
                shared, iterations=layer.routing_iterations,
                layer_name=layer.name)
            out = spec.finish(Tensor(votes), routed, 1)
        assert np.array_equal(out.data, reference)

    def test_convcaps3d_round_trip(self):
        rng = np.random.default_rng(42)
        layer = ConvCaps3D(3, 4, 2, 4, name=LAYER, rng=rng)
        raw = rng.normal(size=(2 * 3, 2 * 4, 5, 5)).astype(np.float32)
        with no_grad():
            reference = layer.route(Tensor(raw)).data
        spec = layer.routing_spec()
        shared = SharedVotes(layer.votes_to_u_hat(raw), points=1)
        with no_grad():
            routed = dynamic_routing_shared(
                shared, iterations=layer.routing_iterations,
                layer_name=layer.name)
            out = spec.finish(Tensor(raw), routed, 1)
        assert np.array_equal(out.data, reference)

    def test_models_expose_routing_stages(self):
        from repro.models import build_model

        for preset, expected in (("capsnet-micro", 1), ("deepcaps-micro", 2)):
            model = build_model(preset, in_channels=1, image_size=28)
            routed = [name for name, *entry in model.forward_stages()
                      if len(entry) > 1 and entry[1].get("routing")]
            assert len(routed) == expected, preset
            assert all(name.endswith(".route") for name in routed)


NM_VALUES = (0.5, 0.05, 0.005, 0.0)


def _routing_targets(model):
    """Every sweep target that resumes at a dynamic-routing stage."""
    targets = [(GROUP_SOFTMAX, None), (GROUP_LOGITS, None)]
    for layer in model.routing_layers:
        targets += [(GROUP_MAC, layer), (GROUP_ACTIVATIONS, layer)]
    return targets


def _engine_accuracies(model, test_set, targets):
    engine = SweepEngine(model, test_set, batch_size=40,
                         strategy="vectorized")
    curves = engine.sweep(targets, NM_VALUES, seed=3)
    return {key: [point.accuracy for point in curve.points]
            for key, curve in curves.items()}


def _record_plans(monkeypatch) -> list:
    """Log the kind of every replay plan the engine selects."""
    kinds = []
    select = SweepEngine._select_plan

    def recording(engine, *args):
        plan = select(engine, *args)
        kinds.append(plan.kind)
        return plan

    monkeypatch.setattr(SweepEngine, "_select_plan", recording)
    return kinds


def _force_generic(monkeypatch) -> None:
    """No stage is a shared-votes routing entry: routing-resumed targets
    take the tiled plan and the affine push materialises its stack."""
    monkeypatch.setattr(SweepEngine, "_routing_spec",
                        lambda *args, **kwargs: None)


class TestEngineFastPath:
    """End-to-end: the engine's shared-votes plans vs the generic replay."""

    @pytest.mark.parametrize("setup", ["capsnet", "deepcaps"])
    def test_bit_identical_to_generic_vectorized(self, setup,
                                                 trained_capsnet,
                                                 trained_deepcaps,
                                                 mnist_splits, monkeypatch):
        if setup == "capsnet":
            model, test_set = trained_capsnet, mnist_splits[1].subset(80)
        else:
            model, test_set = trained_deepcaps
            test_set = test_set.subset(64)
        targets = _routing_targets(model)
        kinds = _record_plans(monkeypatch)
        fast = _engine_accuracies(model, test_set, targets)
        assert set(kinds) == {"routing"}
        kinds.clear()
        _force_generic(monkeypatch)
        generic = _engine_accuracies(model, test_set, targets)
        assert set(kinds) == {"tiled"}
        assert fast == generic

    def test_pushed_handoff_matches_generic(self, trained_capsnet,
                                            mnist_splits, monkeypatch):
        """CapsNet activations@PrimaryCaps rides affine-push + shared
        routing; the handoff must reproduce the materialised push."""
        model, test_set = trained_capsnet, mnist_splits[1].subset(80)
        target = [(GROUP_ACTIVATIONS, "PrimaryCaps")]
        kinds = _record_plans(monkeypatch)
        fast = _engine_accuracies(model, test_set, target)
        _force_generic(monkeypatch)
        generic = _engine_accuracies(model, test_set, target)
        assert kinds == ["push+routing", "push"]
        assert fast == generic


# --------------------------------------------------- capsule-major votes
#: (N, Cin, points): CapsNet ClassCaps at routing-capsnet's batch sizes
#: (16-sample tail, 24-sample batches, 96) and DeepCaps ClassCaps.
PRODUCTION_SHAPES = [(16, 144, 9), (24, 144, 9), (96, 144, 3), (96, 16, 4)]

#: Budgets selecting each shared path when vote deltas are present.
VOTE_PATHS = {"materialized": str(1 << 30), "factored": "0"}

CONTRACTIONS = ("weighted_vote_sum", "vote_agreement",
                "weighted_vote_sum_shared", "vote_agreement_shared")


def _c_order_u_hat(votes: np.ndarray) -> np.ndarray:
    """The plain-view ``votes_to_u_hat`` (C-order storage)."""
    return votes[..., None]


def _record_contiguity(monkeypatch) -> list:
    """Wrap the routing contractions; log (name, C-contiguous) per call."""
    seen = []
    for name in CONTRACTIONS:
        def wrapped(*args, _fn=getattr(routing, name), _name=name):
            out = _fn(*args)
            data = out.data if isinstance(out, Tensor) else out
            seen.append((_name, data.flags.c_contiguous))
            return out
        monkeypatch.setattr(routing, name, wrapped)
    return seen


class TestCapsuleMajorLayout:
    """Capsule-major votes keep every bit at the shapes einsum is fast on.

    The property tests above use Cin <= 13 and D <= 8, below where
    einsum picks its fast loops; these run the production ClassCaps
    shapes.  einsum lays its output out in its operands' order, so a
    contraction that leaked the capsule-major order would make the
    downstream softmax reduce differently — hence the contiguity check.
    """

    @staticmethod
    def _route(u_hat, raw, coeffs, deltas, group):
        matcher = site_matcher(groups=[group])
        specs = [NoiseSpec(nm=float(c), na=0.0, seed=9) for c in coeffs]
        votes = SharedVotes(u_hat(raw), points=len(specs),
                            deltas=[(coeffs * scale, u_hat(delta))
                                    for scale, delta in deltas])
        return _routed_shared(votes, 3, _injector_registry(specs, matcher),
                              stack_when=matcher)

    @pytest.mark.parametrize("path", ["empty", *VOTE_PATHS])
    @pytest.mark.parametrize("shape", PRODUCTION_SHAPES,
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_bitwise_equal_to_c_order(self, shape, path, monkeypatch):
        n, c_in, points = shape
        rng = np.random.default_rng(n * c_in)
        layer = ClassCaps(c_in, 8, 10, 16, name=LAYER, rng=rng)
        raw = rng.normal(0.0, 0.3, (n, c_in, 10, 16)).astype(np.float32)
        coeffs = rng.uniform(0.0, 0.2, points).astype(np.float32)
        deltas = []
        if path != "empty":
            monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", VOTE_PATHS[path])
            z = rng.standard_normal(raw.shape, dtype=np.float32)
            deltas = [(np.float32(1.0), z),
                      (np.float32(0.5), np.ones_like(raw))]
        seen = _record_contiguity(monkeypatch)
        for group in INJECTABLE_GROUPS:
            major = self._route(layer.votes_to_u_hat, raw, coeffs, deltas,
                                group)
            plain = self._route(_c_order_u_hat, raw, coeffs, deltas, group)
            assert np.array_equal(major, plain), (shape, path, group)
        assert seen and all(contiguous for _, contiguous in seen), \
            sorted({name for name, contiguous in seen if not contiguous})

    def test_votes_to_u_hat_is_capsule_major(self):
        layer = ClassCaps(6, 4, 3, 8, name=LAYER)
        votes = np.arange(2 * 6 * 3 * 8, dtype=np.float32).reshape(2, 6, 3, 8)
        u_hat = layer.votes_to_u_hat(votes)
        assert u_hat.shape == (2, 6, 3, 8, 1)
        assert np.array_equal(u_hat[..., 0], votes)
        assert u_hat[..., 0].transpose(0, 2, 1, 3).flags.c_contiguous

    @pytest.mark.parametrize("setup", ["capsnet", "capsnet-factored",
                                       "deepcaps"])
    def test_engine_replays_hash_equal(self, setup, trained_capsnet,
                                       trained_deepcaps, mnist_splits,
                                       monkeypatch):
        """Every replayed output the engine scores is byte-identical with
        capsule-major and plain-view ClassCaps votes."""
        if setup == "deepcaps":
            model, test_set = trained_deepcaps
            test_set = test_set.subset(64)
        else:
            model, test_set = trained_capsnet, mnist_splits[1].subset(80)
        if setup == "capsnet-factored":
            # Chunks hold every point but the vote stack no longer fits.
            monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", str(4 << 20))
        targets = _routing_targets(model)
        if setup != "deepcaps":
            targets.append((GROUP_ACTIVATIONS, "PrimaryCaps"))
        count_correct = SweepEngine._count_correct

        def replay_hashes():
            digest = hashlib.sha256()

            def hashed(output, labels, points):
                digest.update(output.data.tobytes())
                return count_correct(output, labels, points)

            monkeypatch.setattr(SweepEngine, "_count_correct",
                                staticmethod(hashed))
            engine = SweepEngine(model, test_set, batch_size=40,
                                 strategy="vectorized")
            engine.sweep(targets, NM_VALUES, seed=3)
            return digest.hexdigest()

        major = replay_hashes()
        monkeypatch.setattr(ClassCaps, "votes_to_u_hat",
                            lambda self, votes: _c_order_u_hat(votes))
        assert replay_hashes() == major


class TestFactoredFirstIteration:
    """Un-injected iteration-1 couplings contract once, on N rows."""

    @staticmethod
    def _rows_and_output(monkeypatch, registry, votes, matcher):
        rows = []
        shared_sum = routing.weighted_vote_sum_shared

        def recorded(coupling, shared, points):
            rows.append(coupling.shape[0])
            return shared_sum(coupling, shared, points)

        monkeypatch.setattr(routing, "weighted_vote_sum_shared", recorded)
        out = _routed_shared(votes, 3, registry, stack_when=matcher)
        return rows, out

    def test_rows_and_bits(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", "0")
        rng = np.random.default_rng(51)
        n, points = 24, 3
        layer = ClassCaps(144, 8, 10, 16, name=LAYER, rng=rng)
        raw = rng.normal(0.0, 0.3, (n, 144, 10, 16)).astype(np.float32)
        z = rng.standard_normal(raw.shape, dtype=np.float32)
        coeffs = rng.uniform(0.0, 0.2, points).astype(np.float32)
        votes = SharedVotes(layer.votes_to_u_hat(raw), points=points,
                            deltas=[(coeffs, layer.votes_to_u_hat(z))])
        specs = [NoiseSpec(nm=float(c), seed=9) for c in coeffs]
        matcher = site_matcher(groups=[GROUP_MAC])

        rows, once = self._rows_and_output(
            monkeypatch, _injector_registry(specs, matcher), votes, matcher)
        assert rows == [n, n] + [points * n] * 4

        # Matching the softmax site (here with an exact copy) stacks
        # iteration 1: the tiled reference.
        softmax_iter1 = HookRegistry.match(group=GROUP_SOFTMAX, tag="iter1")
        registry = _injector_registry(specs, matcher)
        registry.add_transform(softmax_iter1, lambda site, value: value.copy())

        def either(site):
            return matcher(site) or softmax_iter1(site)

        rows, tiled = self._rows_and_output(monkeypatch, registry, votes,
                                            either)
        assert rows == [points * n] * 6
        assert np.array_equal(once, tiled)


class TestStackAffine:
    """The affine stack builds in place with the bits of ``base + term``."""

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("layout", ["c-order", "capsule-major"])
    def test_bits_layout_and_peak(self, count, layout):
        rng = np.random.default_rng(60 + count)
        layer = ClassCaps(144, 8, 10, 16, name=LAYER, rng=rng)
        to_u_hat = (layer.votes_to_u_hat if layout == "capsule-major"
                    else _c_order_u_hat)
        raw = [rng.normal(size=(16, 144, 10, 16)).astype(np.float32)
               for _ in range(1 + count)]
        base, *deltas = [to_u_hat(part) for part in raw]
        points = 9
        pairs = [(rng.uniform(0.0, 0.2, points).astype(np.float32), delta)
                 for delta in deltas]

        reference = base[None]
        for coeffs, delta in pairs:
            reference = reference + coeffs[:, None, None, None, None,
                                           None] * delta[None]
        reference = reference.reshape((points * 16,) + base.shape[1:])

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stacked = stack_affine(base, pairs, points)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.array_equal(stacked, reference)
        # One delta: only the output; two: the output plus one term.
        assert peak <= count * stacked.nbytes + (64 << 10), peak
        if layout == "capsule-major":
            assert stacked[..., 0].transpose(0, 2, 1, 3).flags.c_contiguous


class TestStackBudget:
    """``REPRO_SWEEP_STACK_BYTES`` has one reader for both consumers."""

    def test_default_and_malformed(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_STACK_BYTES", raising=False)
        assert stack_budget() == 16 << 20
        for bad in ("16MiB", "", "-1"):
            monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", bad)
            with pytest.raises(ValueError, match="REPRO_SWEEP_STACK_BYTES"):
                stack_budget()

    def test_one_override_reaches_both_consumers(self, monkeypatch):
        rng = np.random.default_rng(71)
        u = rng.normal(size=(4, 8, 3, 4, 1)).astype(np.float32)
        votes = SharedVotes(u, points=3, deltas=[
            (np.float32([0.1, 0.2, 0.3]), np.ones_like(u))])
        # _stack_chunk reads only the trace's per-stage bytes.
        engine = object.__new__(SweepEngine)
        trace = SimpleNamespace(stage_bytes=[u.nbytes])
        materialized = []
        monkeypatch.setattr(routing, "stack_affine",
                            lambda *args: materialized.append(1)
                            or stack_affine(*args))
        for budget, chunk, stacks in ((3 * u.nbytes, 3, 1), (u.nbytes, 1, 0)):
            monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", str(budget))
            materialized.clear()
            assert engine._stack_chunk(trace, 1, 3, expansion=1) == chunk
            _routed_shared(votes, 2)
            assert len(materialized) == stacks, budget
        monkeypatch.setenv("REPRO_SWEEP_STACK_BYTES", "lots")
        with pytest.raises(ValueError, match="REPRO_SWEEP_STACK_BYTES"):
            engine._stack_chunk(trace, 1, 3)
        with pytest.raises(ValueError, match="REPRO_SWEEP_STACK_BYTES"):
            _routed_shared(votes, 2)
