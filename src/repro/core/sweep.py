"""Vectorised resilience-sweep engine — Steps 2+4 as one batched pipeline.

The naive execution of the methodology's resilience analysis runs one full
``evaluate_accuracy`` per (target, NM) point: the paper's 10-value NM sweep
over 4 groups plus the per-layer refinement re-runs the *identical clean
prefix* of the network dozens of times per design.  The paper orders Steps
2→4 "to skip a considerable amount of useless testing"; this engine
finishes that thought at the execution layer with an observe/replay model:

1. **Prefix-activation caching** — one clean forward per test batch runs
   the model through its :meth:`~repro.nn.Module.forward_stages`
   decomposition with a :class:`~repro.nn.hooks.SiteRecorder` observing
   every emitted site, attributing each injection site to the stage that
   emits it and keeping the clean predictions, but no stage output.  A
   sweep target then *replays* from the clean state just before its
   first injected site instead of recomputing the clean prefix.  Before
   its first replay, the engine fills that state in: the output of the
   last non-affine stage at or below it, computed clean once per batch
   from the nearest stored state and kept with the trace, so the trace
   holds only the states some target resumes from.  An affine stage's
   output (a conv pre-activation or a vote tensor) is never kept: it is
   recomputed by one clean application of the stage to its stored
   input, once per (target, batch) — per (point, batch) on ``cached``.
2. **Sweep-axis vectorisation** — the models are batch-agnostic, so all
   noisy NM values of a target are stacked along the batch axis and one
   replayed forward covers the entire NM curve.  The
   :class:`~repro.core.noise.StackedNoiseInjector` draws per-slice noise
   scales from per-slice value ranges (common random numbers across the
   NM axis) and keeps its standard-normal draws for the current batch
   only.  NM = 0 points are read off the cached clean predictions for
   free.
3. **Replay plans** — one NM-stacked loop
   (:meth:`SweepEngine._replay_curve`) replays every target; a per-target
   plan says what a batch prepares and how one chunk of points runs.
   ``tiled`` replays the clean resume state tiled per chunk.
   ``routing`` serves a target that resumes at a dynamic-routing stage
   (its first injected site is the vote tensor or a routing-loop site)
   through :func:`~repro.nn.dynamic_routing_shared`: the routing *state*
   is NM-stacked but the vote tensor — the dominant operand of every
   routing contraction — stays un-tiled and shared across points, and
   vote-tensor noise rides along as common-random-number affine deltas
   (:meth:`StackedNoiseInjector.affine_deltas`), so a whole NM curve
   costs one batched routing pass.  Models advertise the entry points
   via ``{"routing": RoutingSpec}`` stage metadata.  ``push`` factors
   the curve through the affine stage after the first injected site,
   and hands the factored bases to the shared-votes routing when that
   stage feeds a routing stage directly (``push+routing``).

The engine runs its targets sequentially.  Independent targets run in
parallel one level up: the analysis service shards a request per target
across its ``threads``/``procpool``/``remote-pool`` backends and merges
the shards byte-identically (per-target noise streams are stateless).

Strategy knobs (``ExecutionOptions.strategy`` / analysis ``strategy=``):

``naive``
    The original per-point loop — one full evaluation per (target, NM).
    Kept as the equivalence-testing reference.
``cached``
    Prefix-replay with per-point execution and the *same*
    :class:`~repro.core.noise.GaussianNoiseInjector` streams as the naive
    path: bit-identical accuracies, just without the redundant prefix.
``vectorized``
    Prefix-replay plus NM stacking and the vectorised injector:
    statistically identical (same noise model, different draws), fastest.
``auto``
    The same as ``vectorized``.

Every strategy but ``naive`` falls back to ``naive`` when ambient hook
registries are active (their transforms would invalidate the cache).

Stale-cache protection: the cached clean trace is fingerprinted against
the model's parameters and buffers, so mutating the model between sweeps
(retraining, ``load_state_dict``, in-place weight edits) transparently
rebuilds the cache on the next :meth:`SweepEngine.sweep` call.
:meth:`SweepEngine.invalidate` remains for mutations the fingerprint
cannot see (e.g. monkey-patched stage functions).  The engine still
assumes no other hook registry is active while it replays.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..nn import hooks
from ..nn.hooks import HookRegistry, InjectionSite, SiteRecorder, use_registry
from ..nn.routing import (SharedVotes, dynamic_routing_shared, stack_affine,
                          stack_budget)
from ..tensor import Tensor, capsule_lengths, no_grad
from ..train import evaluate_accuracy
from .noise import (GaussianNoiseInjector, NoiseSpec, StackedNoiseInjector,
                    site_matcher)
from .resilience import ResilienceCurve, ResiliencePoint

__all__ = ["ENGINE_REV", "STRATEGIES", "ExecutionOptions", "SweepTarget",
           "SweepEngine", "SweepCancelled", "SweepPreempted",
           "model_fingerprint"]

#: Code-revision salt for the result store.  The store key hashes the
#: *inputs* of a measurement (request, model CRC, dataset CRC) — it
#: cannot see the measurement *code*.  Bump this constant on any change
#: that alters measured numerics (noise streams, accumulation order,
#: evaluation semantics): old entries then simply stop being looked up,
#: and ``repro gc`` collects the files keyed under previous revisions.
ENGINE_REV = 1


class SweepCancelled(RuntimeError):
    """A sweep observed its cooperative cancellation flag and stopped.

    Raised from the engine's stage-boundary checkpoints when the
    ``should_cancel`` callable passed to :meth:`SweepEngine.sweep`
    returns true; no curve is returned and no partial state leaks — the
    engine's cached clean trace stays valid for the next sweep.
    """


class SweepPreempted(RuntimeError):
    """A sweep observed its preemption flag and parked at a checkpoint.

    Unlike :class:`SweepCancelled`, the measured-so-far state is not
    discarded: ``partial`` carries every completed (and, on per-point
    strategies, point-partial) :class:`ResilienceCurve` keyed like the
    sweep result.  Because every noise stream derives statelessly per
    (seed, site, batch), re-running only the missing points later and
    concatenating yields curves byte-identical to the uninterrupted
    sweep — which is what lets the scheduler park a shard for a starved
    tenant and requeue just its remainder.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial: dict = dict(partial or {})


class _TargetPreempted(Exception):
    """Internal: a per-point strategy parked mid-target (carries the
    point-partial curve of the interrupted target)."""

    def __init__(self, curve: ResilienceCurve):
        super().__init__("target preempted")
        self.curve = curve

#: Valid values of the ``strategy`` knob, in "how much machinery" order.
STRATEGIES: tuple[str, ...] = ("auto", "naive", "cached", "vectorized")


@dataclass(frozen=True)
class ExecutionOptions:
    """*How* a resilience sweep executes — the one shared knob set.

    Every sweep consumer (the experiment ``run()`` functions via
    :class:`~repro.experiments.common.ExperimentScale`, the methodology
    via :class:`~repro.core.methodology.ReDCaNeConfig`, the CLI flags and
    :class:`~repro.api.AnalysisRequest`) carries one instance of this
    dataclass instead of re-declaring the knobs.

    ``batch_size`` and ``strategy`` affect the measured accuracies (they
    change the noise draws).  :meth:`cache_key` encodes exactly the
    result-affecting subset, so the result store hits across equivalent
    configurations.

    ``max_retries`` and ``shard_timeout`` are the fault-tolerance knobs
    (how many times a failed shard requeues; the per-shard wall-clock
    deadline enforced by the worker-supervision watchdog on the
    ``procpool``/``remote-pool`` backends).  They are
    result-invariant — a retried or timed-out-and-replayed shard is
    byte-identical because every noise stream derives statelessly — so
    they serialise on the wire but stay out of :meth:`cache_key`.

    ``client_id`` names the submitting tenant for the analysis service's
    fair scheduler (``None`` = the anonymous default tenant).  Identity
    never changes what is measured, only *when*, so like the
    fault-tolerance knobs it rides in :meth:`to_payload` but stays out
    of :meth:`cache_key` — two tenants measuring the same thing share
    one store entry.
    """

    batch_size: int = 64
    strategy: str = "auto"
    max_retries: int = 2
    shard_timeout: float | None = None
    client_id: str | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"valid: {list(STRATEGIES)}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, "
                             f"got {self.max_retries}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be positive (seconds) "
                             f"or None, got {self.shard_timeout}")
        if self.client_id is not None:
            # Travels as the X-Repro-Client header, so it must be a
            # sane header token: non-empty, bounded, no whitespace or
            # control characters.
            if (not isinstance(self.client_id, str) or not self.client_id
                    or len(self.client_id) > 64
                    or any(ch.isspace() or not ch.isprintable()
                           for ch in self.client_id)):
                raise ValueError(
                    f"client_id must be a non-empty printable token of at "
                    f"most 64 characters without whitespace, got "
                    f"{self.client_id!r}")

    @property
    def noise_tier(self) -> str:
        """Which noise-stream family the strategy draws from.

        ``naive`` and ``cached`` share bit-identical per-point streams
        (``exact``); ``vectorized`` and ``auto`` share the NM-stacked
        common-random-number streams (``stacked``).
        """
        return "exact" if self.strategy in ("naive", "cached") else "stacked"

    def cache_key(self) -> dict:
        """The result-affecting subset, canonicalised for request hashing.

        ``max_retries``, ``shard_timeout`` and ``client_id`` are
        excluded (requeueing, deadlines and tenant identity never change
        results); strategies collapse to their :attr:`noise_tier`.
        ``shared_votes`` stays a constant ``True``, so every fingerprint
        stored while it was a knob still matches.
        """
        return {"batch_size": self.batch_size,
                "noise_tier": self.noise_tier, "shared_votes": True}

    def to_payload(self) -> dict:
        return {"batch_size": self.batch_size, "strategy": self.strategy,
                "max_retries": self.max_retries,
                "shard_timeout": self.shard_timeout,
                "client_id": self.client_id}

    @classmethod
    def from_payload(cls, payload: dict) -> "ExecutionOptions":
        # Payloads stored before the ``workers`` and ``shared_votes``
        # knobs were removed may carry them.  Neither changed results
        # beyond float reordering, so both decode to the defaults.
        payload = dict(payload)
        payload.pop("workers", None)
        payload.pop("shared_votes", None)
        return cls(**payload)

    def make_engine(self, model, dataset) -> "SweepEngine":
        """A :class:`SweepEngine` configured with these knobs."""
        return SweepEngine(model, dataset, batch_size=self.batch_size,
                           strategy=self.strategy)


def model_fingerprint(model) -> int:
    """CRC over everything a sweep result depends on in the model.

    Covers parameters, buffers, and the inference-time routing depth
    (``routing_iterations`` is a plain attribute the parameter CRC cannot
    see, yet it changes every routing stage's output).  Cheap relative to
    a single forward pass; used both for the engine's stale-trace
    protection and as the model half of the result-store key.
    """
    crc = 0
    named_parameters = getattr(model, "named_parameters", None)
    if named_parameters is not None:
        for _, param in named_parameters():
            crc = zlib.crc32(np.ascontiguousarray(param.data), crc)
    named_buffers = getattr(model, "named_buffers", None)
    if named_buffers is not None:
        for _, buffer in named_buffers():
            crc = zlib.crc32(np.ascontiguousarray(buffer), crc)
    modules = getattr(model, "modules", None)
    if modules is not None:
        for module in modules():
            iterations = getattr(module, "routing_iterations", None)
            if iterations is not None:
                crc = zlib.crc32(repr(int(iterations)).encode(), crc)
    return crc


@dataclass(frozen=True)
class SweepTarget:
    """One resilience-curve target: a group, or a group × layer."""

    group: str
    layer: str | None = None

    @property
    def key(self):
        """Result-dict key matching the analysis functions' conventions."""
        return self.group if self.layer is None else (self.group, self.layer)

    def __str__(self) -> str:
        return self.group if self.layer is None else f"{self.group}@{self.layer}"


@dataclass
class _BatchTrace:
    """Clean-pass record for one test batch."""

    inputs: np.ndarray
    labels: np.ndarray
    #: Per-stage clean output state (Tensor or tuple of Tensors).  All
    #: ``None`` after observe; a replay fills the non-affine state it
    #: resumes from (:meth:`SweepEngine._fill`).  An affine stage's entry
    #: stays ``None``: its output is recomputed on demand.
    states: list
    predictions: np.ndarray


@dataclass
class _CleanTrace:
    """Clean-pass record for the whole dataset.

    Observe stores no stage output; filled states accumulate here for as
    long as the engine keeps the trace, and go with it on a fingerprint
    change or :meth:`SweepEngine.invalidate`.
    """

    stage_names: list[str]
    site_stage: dict[InjectionSite, int]
    site_order: list[InjectionSite]
    site_terminal: dict[InjectionSite, bool]
    batches: list[_BatchTrace]
    clean_accuracy: float
    #: Output bytes of each stage on the first batch, stored or not.
    stage_bytes: list[int]
    fingerprint: int = 0  # parameter/buffer CRC at observe time


def _state_nbytes(state) -> int:
    """Bytes of a stage state (each tuple part counted on its own)."""
    parts = state if isinstance(state, tuple) else (state,)
    return sum(part.data.nbytes for part in parts)


def _share_parts(state, stored):
    """``state`` with every part bit-equal to a part of a ``stored`` state
    replaced by that stored Tensor.

    Stage states share parts: a DeepCaps cell threads its skip input
    through several tuple states, and observe stores that one array once.
    Filled states computed along different paths hold equal copies
    instead, so they are folded back onto one array here.
    """
    parts = state if isinstance(state, tuple) else (state,)
    candidates = [part for other in stored if other is not None
                  for part in (other if isinstance(other, tuple)
                               else (other,))]
    shared = tuple(next((other for other in candidates
                         if other is part
                         or _same_bits(other.data, part.data)), part)
                   for part in parts)
    return shared if isinstance(state, tuple) else shared[0]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise array equality (``-0.0`` and ``0.0`` differ)."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return bool(np.array_equal(a.view(bits), b.view(bits)))


def _tile_state(state, k: int):
    """Stack ``k`` copies of a stage state along the leading (batch) axis."""
    if k == 1:
        return state
    if isinstance(state, tuple):
        return tuple(_tile_state(part, k) for part in state)
    return Tensor(np.concatenate([state.data] * k, axis=0))


def _state_delta(noisy, clean):
    """Componentwise difference of two stage states."""
    if isinstance(noisy, tuple):
        return tuple(_state_delta(a, b) for a, b in zip(noisy, clean))
    return noisy.data - clean.data


def _state_stack_affine(base, bases):
    """Stack ``base + Σ_b scale_b[j] * delta_b`` over points j (batch axis).

    ``base`` is a clean stage state; ``bases`` is a list of
    ``(scales, delta_state)`` pairs where ``scales`` holds one coefficient
    per stacked point.  Used by the affine push: the noisy stage outputs
    of a whole NM chunk are linear combinations of clean stage outputs
    and one (or two) basis responses.  The scalar leaves evaluate through
    :func:`~repro.nn.routing.stack_affine` — the single, order-pinned
    implementation of the affine factorisation.
    """
    if isinstance(base, tuple):
        return tuple(
            _state_stack_affine(part, [(scales, delta[index])
                                       for scales, delta in bases])
            for index, part in enumerate(base))
    return Tensor(stack_affine(base.data, bases, len(bases[0][0])))


@dataclass(frozen=True)
class _ReplayPlan:
    """What one target's stacked replay prepares and runs; the loop
    around them is :meth:`SweepEngine._replay_curve`.

    ``prepare(batch, stages, injector)`` returns a batch's context;
    ``chunk(context)`` sizes the NM chunks on the first (largest) batch;
    ``run(context, stages, injector, start, stop)`` replays points
    ``start:stop``, whose specs the injector already holds, and returns
    the output to score.
    """

    kind: str  # "tiled", "routing", "push" or "push+routing"
    fill: int  # the stage :meth:`SweepEngine._fill` stores first
    uniform_sites: frozenset
    prepare: object
    chunk: object
    run: object


class SweepEngine:
    """Plan and execute a batch of resilience-curve measurements.

    Parameters
    ----------
    model:
        A trained hook-emitting model.  Models exposing
        :meth:`~repro.nn.Module.forward_stages` get prefix-activation
        caching; others fall back to a single whole-forward stage (NM
        stacking still applies).
    dataset:
        Test dataset whose accuracy is monitored.
    batch_size:
        Test samples per clean-trace batch; a stacked replay stacks its
        NM points on top of one batch.
    strategy:
        One of :data:`STRATEGIES` (see module docstring).
    """

    def __init__(self, model, dataset: Dataset, *, batch_size: int = 64,
                 strategy: str = "auto"):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"valid: {list(STRATEGIES)}")
        self.model = model
        self.dataset = dataset
        self.batch_size = batch_size
        self.strategy = strategy
        self._trace: _CleanTrace | None = None
        self._should_cancel = None   # per-sweep cooperative flag (locked)
        self._should_preempt = None  # per-sweep cooperative flag (locked)
        # Sweeps mutate engine state (the cached trace, the sweep flags)
        # and install the engine's hook registry on the calling
        # thread, so one engine can only run one sweep at a time.  The
        # lock makes that invariant self-enforcing: concurrent sweep()
        # calls — e.g. shards of one request fanned across the analysis
        # service's ``threads`` backend — serialise here, while *distinct*
        # engines (independent models) proceed in parallel.  This is the
        # per-engine granularity that replaced the service's global run
        # lock; never hold it while waiting on another engine.
        self._sweep_lock = threading.Lock()

    # ----------------------------------------------------------------- public
    def sweep(self, targets, nm_values, *, na: float = 0.0, seed: int = 0,
              baseline_accuracy: float | None = None, should_cancel=None,
              should_preempt=None):
        """Measure one :class:`ResilienceCurve` per target.

        Returns a dict keyed like the Step 2/4 analysis results: by group
        name for group-wise targets, by ``(group, layer)`` otherwise.
        Thread-safe: concurrent calls on one engine serialise (see
        ``_sweep_lock``); results are independent of the interleaving
        because every noise stream is derived statelessly per
        (seed, site, batch).

        ``should_cancel`` is an optional zero-argument callable polled at
        stage boundaries (per target, per replayed batch, per naive
        point): when it returns true the sweep raises
        :class:`SweepCancelled` at the next checkpoint instead of
        finishing.  Cancellation is cooperative and loses nothing — the
        cached clean trace survives, so a resubmitted sweep resumes from
        the observe half for free.

        ``should_preempt`` is the parking twin: polled at target
        boundaries (and per point on the ``naive``/``cached``
        strategies, whose points are independent evaluations); when it
        returns true the sweep raises :class:`SweepPreempted` carrying
        the measured-so-far curves instead of discarding them.  The
        vectorized strategies park only between targets — a stacked
        replay is one fused evaluation, so mid-target its per-batch
        partial sums are not yet accuracies.
        """
        with self._sweep_lock:
            self._should_cancel = should_cancel
            self._should_preempt = should_preempt
            try:
                return self._sweep_locked(targets, nm_values, na, seed,
                                          baseline_accuracy)
            finally:
                self._should_cancel = None
                self._should_preempt = None

    def _checkpoint(self) -> None:
        """Stage-boundary cancellation check (see :meth:`sweep`)."""
        if self._should_cancel is not None and self._should_cancel():
            raise SweepCancelled(
                "sweep cancelled at a stage boundary (cooperative "
                "cancellation flag set)")

    def _preempt_pending(self) -> bool:
        """Whether the cooperative preemption flag is raised."""
        return (self._should_preempt is not None
                and bool(self._should_preempt()))

    def _sweep_locked(self, targets, nm_values, na, seed, baseline_accuracy):
        targets = [target if isinstance(target, SweepTarget)
                   else SweepTarget(*target) for target in targets]
        strategy = self._resolve_strategy()
        if strategy == "naive":
            return self._sweep_naive(targets, nm_values, na, seed,
                                     baseline_accuracy)
        trace = self._clean_trace()
        if baseline_accuracy is None:
            baseline_accuracy = trace.clean_accuracy
        curves = {}
        for target in targets:
            self._checkpoint()
            if self._preempt_pending():
                raise SweepPreempted(
                    f"sweep preempted at a target boundary "
                    f"({len(curves)}/{len(targets)} targets measured)",
                    partial=curves)
            try:
                curves[target.key] = self._sweep_target(
                    trace, target, nm_values, na, seed, baseline_accuracy,
                    strategy)
            except _TargetPreempted as parked:
                partial = dict(curves)
                if parked.curve.points:
                    partial[target.key] = parked.curve
                raise SweepPreempted(
                    f"sweep preempted mid-target on {target} "
                    f"({len(parked.curve.points)} points measured)",
                    partial=partial) from None
        return curves

    def invalidate(self) -> None:
        """Drop the cached clean trace.

        Parameter and buffer mutations are detected automatically (the
        trace carries a fingerprint checked on every sweep); call this
        only for changes the fingerprint cannot see, such as
        monkey-patched stage functions or a mutated dataset object.
        """
        self._trace = None

    # ------------------------------------------------------------------ plans
    def _resolve_strategy(self) -> str:
        strategy = "vectorized" if self.strategy == "auto" else self.strategy
        if strategy != "naive" and hooks.active_registries():
            # Ambient transforms would be baked into (or missing from) the
            # cached prefix; only the naive path composes correctly.
            strategy = "naive"
        return strategy

    def _stages(self):
        """Model stages normalised to ``(name, fn, meta)`` triples."""
        stages = None
        forward_stages = getattr(self.model, "forward_stages", None)
        if callable(forward_stages):
            stages = forward_stages()
        stages = stages or [("forward", self.model)]
        return [(entry[0], entry[1], entry[2] if len(entry) > 2 else {})
                for entry in stages]

    def _clean_trace(self) -> _CleanTrace:
        """One clean forward over the dataset, caching the inputs, labels,
        clean predictions and the site → stage attribution (observe half
        of observe/replay).  No stage output is stored: a replay fills the
        state it resumes from (see :meth:`_fill`).

        The trace is fingerprinted against the model's parameters and
        buffers and rebuilt automatically when they changed since the
        last sweep (the classic stale-cache bug of mutating a model
        between sweeps without calling :meth:`invalidate`)."""
        fingerprint = model_fingerprint(self.model)
        if self._trace is not None and self._trace.fingerprint == fingerprint:
            return self._trace
        self._trace = None
        stages = self._stages()
        recorder = SiteRecorder(record_values=True)
        site_terminal: dict[InjectionSite, bool] = {}
        self.model.eval()
        batches = []
        stage_bytes = []
        correct = 0
        with no_grad(), use_registry(recorder.install()):
            for images, labels in self.dataset.batches(self.batch_size):
                self._checkpoint()
                state = Tensor(images)
                for index, (_, stage, _meta) in enumerate(stages):
                    recorder.marker = index
                    state = stage(state)
                    if not batches:  # terminal detection on the first batch
                        stage_bytes.append(_state_nbytes(state))
                        for site, marker in recorder.site_markers.items():
                            if marker == index and site not in site_terminal:
                                # A site is "terminal" when the stage output
                                # *is* the emitted tensor — the affine push
                                # may then inject directly on the cached
                                # stage output.
                                site_terminal[site] = (
                                    isinstance(state, Tensor)
                                    and recorder.values[site] is state.data)
                predictions = np.argmax(capsule_lengths(state).data, axis=1)
                correct += int(np.sum(predictions == labels))
                batches.append(_BatchTrace(images, labels,
                                           [None] * len(stages), predictions))
                # Values serve terminal detection only: drop the first
                # batch's and record none for the rest.
                recorder.record_values = False
                recorder.values.clear()
        self._trace = _CleanTrace(
            stage_names=[name for name, _, _ in stages],
            site_stage={site: marker
                        for site, marker in recorder.site_markers.items()},
            site_order=list(recorder.sites),
            site_terminal=site_terminal,
            batches=batches,
            clean_accuracy=correct / len(self.dataset),
            stage_bytes=stage_bytes,
            fingerprint=fingerprint)
        return self._trace

    def _fill(self, trace: _CleanTrace, index: int) -> None:
        """Store, in every batch, the clean output of the last non-affine
        stage at or below ``index`` — the state a replay that reads stage
        ``index`` resumes from.

        Runs before the replay installs its noise registry: the state is
        computed clean, under ``no_grad`` with no registry active, from
        the nearest stored lower state (or the inputs), with the same ops
        on the same inputs as observe, so it is bit-identical to the
        observed output.  Only the requested state is kept, and parts it
        shares with stored states are stored once (:func:`_share_parts`).
        A stored state is never recomputed.
        """
        stages = self._stages()
        while index >= 0 and stages[index][2].get("affine"):
            index -= 1
        if index < 0:
            return
        self.model.eval()
        with no_grad():
            for batch in trace.batches:
                self._checkpoint()
                if batch.states[index] is not None:
                    continue
                start = max((lower for lower in range(index)
                             if batch.states[lower] is not None), default=-1)
                state = (Tensor(batch.inputs) if start < 0
                         else batch.states[start])
                state = self._replay(stages[:index + 1], start + 1, state)
                batch.states[index] = _share_parts(state, batch.states)

    # ---------------------------------------------------------------- replays
    def _clean_state(self, trace: _CleanTrace, batch: _BatchTrace,
                     index: int, stages, matcher):
        """The clean output of stage ``index`` (``-1``: the batch inputs).

        A non-affine stage's output is read from the trace, where
        :meth:`_fill` stored it before the replay began.  An affine
        stage's output is not stored; it is recomputed by one
        clean application of the stage to its input.  The recompute runs
        under the replay's noise registry, which is sound only because no
        site the target matches fires in that stage: a dropped stage
        always lies before the target's resume stage, or is the affine
        stage an affine push factors and so holds no matched site.
        """
        if index < 0:
            return Tensor(batch.inputs)
        state = batch.states[index]
        if state is None:
            assert not any(matcher(site) for site, stage
                           in trace.site_stage.items() if stage == index), (
                f"stage {trace.stage_names[index]} is recomputed but emits "
                f"an injected site")
            state = stages[index][1](self._clean_state(
                trace, batch, index - 1, stages, matcher))
        return state

    @staticmethod
    def _replay(stages, start: int, state):
        """Run stages ``start..end`` from ``state``; return the output."""
        for _, stage, _meta in stages[start:]:
            state = stage(state)
        return state

    def _sweep_target(self, trace: _CleanTrace, target: SweepTarget,
                      nm_values, na, seed, baseline, strategy
                      ) -> ResilienceCurve:
        matcher = site_matcher(
            groups=[target.group],
            layers=None if target.layer is None else [target.layer])
        matching = [site for site in trace.site_stage if matcher(site)]
        specs = [NoiseSpec(nm=nm, na=na, seed=seed) for nm in nm_values]
        # Zero-noise points (and targets with no sites at all) are exactly
        # the clean evaluation — read them off the cached predictions.
        accuracies = [trace.clean_accuracy] * len(specs)
        live = [(index, spec) for index, spec in enumerate(specs)
                if not spec.is_zero]
        if matching and live:
            resume = min(trace.site_stage[site] for site in matching)
            live_specs = [spec for _, spec in live]
            if strategy == "vectorized":
                measured = self._replay_curve(
                    trace, live_specs, matcher, self._select_plan(
                        trace, live_specs, matcher, matching, resume))
            else:
                # Per-point execution: points are independent evaluations,
                # so preemption can park between them with the measured
                # prefix intact (the vectorized branch above is one fused
                # replay and parks only at target boundaries).
                self._fill(trace, resume - 1)
                measured = []
                for _, spec in live:
                    if self._preempt_pending():
                        raise _TargetPreempted(self._partial_curve(
                            target, specs, accuracies, live, measured,
                            baseline))
                    measured.append(
                        self._run_cached(trace, spec, matcher, resume))
            for (index, _), accuracy in zip(live, measured):
                accuracies[index] = accuracy
        curve = ResilienceCurve(group=target.group, layer=target.layer,
                                baseline_accuracy=baseline)
        for spec, accuracy in zip(specs, accuracies):
            curve.points.append(ResiliencePoint(
                spec.nm, spec.na, accuracy, accuracy - baseline))
        return curve

    @staticmethod
    def _partial_curve(target: SweepTarget, specs, accuracies, live,
                       measured, baseline) -> ResilienceCurve:
        """The point-partial curve of a mid-target preemption: every
        zero-noise point (free off the clean trace) plus the measured
        prefix of live points, in request NM order with the unmeasured
        points simply absent."""
        known = {index for index, spec in enumerate(specs) if spec.is_zero}
        for (index, _), accuracy in zip(live, measured):
            accuracies[index] = accuracy
            known.add(index)
        curve = ResilienceCurve(group=target.group, layer=target.layer,
                                baseline_accuracy=baseline)
        for index, spec in enumerate(specs):
            if index in known:
                curve.points.append(ResiliencePoint(
                    spec.nm, spec.na, accuracies[index],
                    accuracies[index] - baseline))
        return curve

    def _run_cached(self, trace: _CleanTrace, spec: NoiseSpec, matcher,
                    resume: int) -> float:
        """One (target, NM) point via prefix replay, with the same
        per-(seed, site) noise streams as the naive path: bit-identical."""
        registry = HookRegistry()
        registry.add_transform(matcher, GaussianNoiseInjector(spec))
        stages = self._stages()
        self.model.eval()
        correct = 0
        with no_grad(), use_registry(registry):
            for batch in trace.batches:
                self._checkpoint()
                output = self._replay(stages, resume, self._clean_state(
                    trace, batch, resume - 1, stages, matcher))
                predictions = np.argmax(capsule_lengths(output).data, axis=1)
                correct += int(np.sum(predictions == batch.labels))
        return correct / len(self.dataset)

    def _stack_chunk(self, trace: _CleanTrace, resume: int, points: int, *,
                     expansion: int = 4, floor_bytes: int = 0) -> int:
        """How many NM points to stack per replay.

        Stacking trades Python/BLAS call overhead against working-set size;
        past the cache-friendly region the big stacked stage/routing
        temporaries become bandwidth-bound and *lose* to smaller replays,
        so the chunk is bounded by the memory the replayed suffix touches
        (:func:`~repro.nn.routing.stack_budget`).  ``expansion``
        covers the stage-sized arrays a replayed stage holds at once (tiled
        input, output, noise draws, activation temporaries; not conv2d's
        patch matrix, whose per-call block buffers stay near 1 MiB): at 1,
        steps24-deepcaps peak RSS rose from 108 to 139-157 MB with no
        latency gain.  Shared-votes routing passes 1 because its suffix is
        contraction-dominated, plus a ``floor_bytes`` covering the stacked
        routing-state transients its stage outputs cannot see.  The
        per-stage bytes come from the observe pass, so stages whose output
        the trace does not store count too.  Because the injector's base
        draw per (site, batch) is reused by every chunk, chunking never
        changes the noise a given point receives.
        """
        budget = stack_budget()
        per_slice = max(trace.stage_bytes[max(resume - 1, 0):], default=0)
        per_slice = max(per_slice * expansion, floor_bytes)
        if per_slice <= 0:
            return points
        return max(1, min(points, budget // per_slice))

    def _replay_curve(self, trace: _CleanTrace, specs, matcher,
                      plan: _ReplayPlan) -> list[float]:
        """A whole NM curve via NM-stacked replays with shared base draws.

        Points are stacked along the batch axis in cache-bounded chunks;
        the injector reuses one standard-normal draw per (site, batch)
        across every chunk (common random numbers), so the curve costs a
        single evaluation's worth of RNG work regardless of chunking.  No
        salt: targets sharing a site draw the same base noise there
        (cross-target CRN, which pairs the curves Steps 3/5 compare).
        """
        self._fill(trace, plan.fill)
        k = len(specs)
        injector = StackedNoiseInjector(specs, seed=specs[0].seed,
                                        uniform_sites=plan.uniform_sites)
        registry = HookRegistry()
        registry.add_transform(matcher, injector)
        stages = self._stages()
        chunk = None
        self.model.eval()
        correct = np.zeros(k, dtype=np.int64)
        with no_grad(), use_registry(registry):
            for batch_index, batch in enumerate(trace.batches):
                self._checkpoint()
                injector.begin_batch(batch_index)
                context = plan.prepare(batch, stages, injector)
                if chunk is None:  # sized on the first (largest) batch
                    chunk = plan.chunk(context)
                for start in range(0, k, chunk):
                    stop = min(start + chunk, k)
                    injector.set_specs(specs[start:stop])
                    output = plan.run(context, stages, injector, start, stop)
                    correct[start:stop] += self._count_correct(
                        output, batch.labels, stop - start)
        return (correct / len(self.dataset)).tolist()

    @staticmethod
    def _count_correct(output, labels, points: int) -> np.ndarray:
        lengths = capsule_lengths(output).data
        predictions = np.argmax(lengths, axis=1).reshape(points, len(labels))
        return (predictions == labels[None, :]).sum(axis=1)

    def _select_plan(self, trace: _CleanTrace, specs, matcher, matching,
                     resume: int) -> _ReplayPlan:
        """The replay plan of a target whose first injected stage is
        ``resume`` (see the module docstring)."""
        order = {site: index for index, site in enumerate(trace.site_order)}
        first_site = min(matching, key=order.get)
        route = self._routing_spec(trace, matcher, resume, consume_votes=True)
        if route is not None:
            return self._shared_routing_plan(trace, specs, matcher, resume,
                                             first_site, route)
        if self._can_push(trace, matching, resume, first_site):
            return self._push_plan(trace, specs, matcher, resume, first_site)
        return self._tiled_plan(trace, specs, matcher, resume, first_site)

    def _tiled_plan(self, trace: _CleanTrace, specs, matcher, resume: int,
                    first_site: InjectionSite) -> _ReplayPlan:
        """The generic replay: the clean resume state, fetched (or
        recomputed) once per batch and tiled per chunk.  ``first_site``
        sees the tiled clean prefix, so its per-slice ranges coincide."""
        def prepare(batch, stages, injector):
            return self._clean_state(trace, batch, resume - 1, stages,
                                     matcher)

        def run(clean, stages, injector, start, stop):
            return self._replay(stages, resume,
                                _tile_state(clean, stop - start))

        return _ReplayPlan(
            "tiled", resume - 1, frozenset({first_site}), prepare,
            lambda _: self._stack_chunk(trace, resume, len(specs)), run)

    # ------------------------------------------------- shared-votes routing
    def _routing_spec(self, trace: _CleanTrace, matcher, stage_index: int,
                      *, consume_votes: bool):
        """The stage's :class:`~repro.nn.RoutingSpec` if the shared-votes
        fast path applies there, else ``None``.

        Applies when the stage advertises ``{"routing": spec}`` metadata
        and every matching site attributed to it is handled inside the
        shared routing call: sites emitted by the routing loop itself
        (stacked emits compose unchanged), plus — only when
        ``consume_votes`` — the layer's vote-tensor site, which the
        engine converts into affine deltas instead of emitting.  The
        affine-push handoff passes ``consume_votes=False`` because its
        stacked votes already differ per point, so their per-slice noise
        ranges no longer factor.
        """
        stages = self._stages()
        if not 0 <= stage_index < len(stages):
            return None
        spec = stages[stage_index][2].get("routing")
        if spec is None:
            return None
        if not consume_votes and matcher(spec.votes_site):
            return None
        for site, stage in trace.site_stage.items():
            if stage != stage_index or not matcher(site):
                continue
            if site != spec.votes_site and site.layer != spec.layer.name:
                return None
        return spec

    def _route_chunk(self, stages, index: int, route, state, votes, deltas,
                     points: int, matcher):
        """Route ``points`` stacked NM points through routing stage
        ``index`` over the shared ``votes`` plus their affine ``deltas``,
        then replay the stages after it."""
        layer = route.layer
        routed = dynamic_routing_shared(
            SharedVotes(votes, points=points, deltas=deltas),
            iterations=layer.routing_iterations, layer_name=layer.name,
            stack_when=matcher)
        return self._replay(stages, index + 1,
                            route.finish(state, routed, points))

    def _shared_routing_plan(self, trace: _CleanTrace, specs, matcher,
                             resume: int, first_site: InjectionSite,
                             route) -> _ReplayPlan:
        """A whole NM curve through one shared-votes routing pass per chunk.

        The clean input of the routing stage is read *un-tiled*:
        its vote tensor becomes the :class:`~repro.nn.SharedVotes` base,
        and noise on the vote tensor itself (when the target matches the
        votes site) becomes common-random-number affine deltas —
        bit-identical to the tiled plan for pure routing-group targets,
        and equivalent up to float reordering when vote deltas are
        present.
        """
        layer = route.layer
        consume = (matcher(route.votes_site)
                   and route.votes_site in trace.site_stage)

        def prepare(batch, stages, injector):
            state = self._clean_state(trace, batch, resume - 1, stages,
                                      matcher)
            raw = (state if route.votes_index is None
                   else state[route.votes_index])
            return state, raw, layer.votes_to_u_hat(raw.data)

        def chunk(context):
            n, c_in, c_out, d, p = context[2].shape
            # Per-point routing-state transients: couplings + logits
            # (N, Cin, Cout, 1, P) and weighted sums + capsules
            # (N, Cout, D, P).
            routing_bytes = 8 * n * p * c_out * (c_in + d)
            return self._stack_chunk(trace, resume + 1, len(specs),
                                     expansion=1, floor_bytes=routing_bytes)

        def run(context, stages, injector, start, stop):
            state, raw, votes = context
            deltas = []
            if consume:
                deltas = [(coeffs, layer.votes_to_u_hat(delta))
                          for coeffs, delta in injector.affine_deltas(
                              route.votes_site, raw.data)]
            return self._route_chunk(stages, resume, route, state, votes,
                                     deltas, stop - start, matcher)

        return _ReplayPlan("routing", resume - 1, frozenset({first_site}),
                           prepare, chunk, run)

    # ------------------------------------------------------------ affine push
    def _can_push(self, trace: _CleanTrace, matching, resume: int,
                  first_site: InjectionSite) -> bool:
        """Whether the NM curve can be factored through the next stage.

        Requires the first injected site to be the terminal output of its
        stage (injection then equals perturbing the clean stage output),
        the *next* stage to be affine, and no other injection to land
        before that next stage completes.
        """
        stages = self._stages()
        if not trace.site_terminal.get(first_site, False):
            return False
        if resume + 1 >= len(stages) or not stages[resume + 1][2].get("affine"):
            return False
        in_resume = sum(1 for site in matching
                        if trace.site_stage[site] == resume)
        in_next = sum(1 for site in matching
                      if trace.site_stage[site] == resume + 1)
        return in_resume == 1 and in_next == 0

    def _push_plan(self, trace: _CleanTrace, specs, matcher, resume: int,
                   first_site: InjectionSite) -> _ReplayPlan:
        """NM curve through the affine-factored next stage.

        The injected tensor is the clean output of stage ``resume``, so
        the next (affine) stage's noisy output for point ``j`` is
        ``clean + nm_j*R * (stage(z) - stage(0)) + na_j*R * (stage(1) -
        stage(0))`` — two basis applications replace one application per
        point, and the per-point replay restarts only after the affine
        stage (for a CapsNet activations target this skips the dominant
        convolution entirely).

        When the affine stage feeds a dynamic-routing stage directly
        (CapsNet's ``ClassCaps.votes`` → ``ClassCaps.route``), the bases
        become :class:`~repro.nn.SharedVotes` deltas instead of being
        materialised: the routing pass then also reads the vote tensor
        once for the whole curve.
        """
        route = self._routing_spec(trace, matcher, resume + 2,
                                   consume_votes=False)
        if route is not None and route.votes_index is not None:
            route = None  # factored state must be the bare vote tensor
        nms = np.array([spec.nm for spec in specs], np.float32)
        nas = np.array([spec.na for spec in specs], np.float32)

        def prepare(batch, stages, injector):
            stage_fn = stages[resume + 1][1]
            emitted = self._clean_state(trace, batch, resume, stages,
                                        matcher)
            value_range = np.float32(
                emitted.data.max() - emitted.data.min()
                if emitted.data.size else 0.0)
            z = injector._base_draw(first_site, emitted.shape)
            zero_response = stage_fn(Tensor(np.zeros_like(emitted.data)))
            bases = [(nms * value_range,
                      _state_delta(stage_fn(Tensor(z)), zero_response))]
            if nas.any():
                ones = np.ones_like(emitted.data)
                bases.append((nas * value_range,
                              _state_delta(stage_fn(Tensor(ones)),
                                           zero_response)))
            clean = self._clean_state(trace, batch, resume + 1, stages,
                                      matcher)
            if route is None:
                return clean, None, bases
            to_u_hat = route.layer.votes_to_u_hat
            return clean, to_u_hat(clean.data), [
                (scales, to_u_hat(delta)) for scales, delta in bases]

        def run(context, stages, injector, start, stop):
            clean, votes, bases = context
            scaled = [(scales[start:stop], delta) for scales, delta in bases]
            if route is None:
                return self._replay(stages, resume + 2,
                                    _state_stack_affine(clean, scaled))
            return self._route_chunk(stages, resume + 2, route, clean, votes,
                                     scaled, stop - start, matcher)

        return _ReplayPlan(
            "push" if route is None else "push+routing", resume, frozenset(),
            prepare, lambda _: self._stack_chunk(trace, resume + 1,
                                                 len(specs)), run)

    # ------------------------------------------------------------------ naive
    def _sweep_naive(self, targets, nm_values, na, seed, baseline_accuracy):
        """The original per-point loop (reference for equivalence tests)."""
        from .resilience import noisy_accuracy
        if baseline_accuracy is None:
            baseline_accuracy = evaluate_accuracy(
                self.model, self.dataset, batch_size=self.batch_size)
        curves = {}
        for target in targets:
            curve = ResilienceCurve(group=target.group, layer=target.layer,
                                    baseline_accuracy=baseline_accuracy)
            layers = None if target.layer is None else [target.layer]
            for nm in nm_values:
                self._checkpoint()
                if self._preempt_pending():
                    partial = dict(curves)
                    if curve.points:
                        partial[target.key] = curve
                    raise SweepPreempted(
                        f"naive sweep preempted mid-target on {target} "
                        f"({len(curve.points)} points measured)",
                        partial=partial)
                spec = NoiseSpec(nm=nm, na=na, seed=seed)
                accuracy = noisy_accuracy(
                    self.model, self.dataset, spec, groups=[target.group],
                    layers=layers, batch_size=self.batch_size)
                curve.points.append(ResiliencePoint(
                    nm, na, accuracy, accuracy - baseline_accuracy))
            curves[target.key] = curve
        return curves
