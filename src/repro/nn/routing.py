"""Dynamic routing-by-agreement (paper Fig. 3) with injection sites.

One routing step computes, per iteration ``r``::

    k = softmax(b)              -> group "softmax"
    S = sum_i k_ij * u_hat_ij   -> group "mac_outputs"  (weighted sum)
    V = squash(S)               -> group "activations"
    b = b + <u_hat, V>          -> group "logits_update"

The coupling coefficients ``k`` and logits ``b`` are exactly the quantities
the paper's groups #3 and #4 perturb; their per-iteration recomputation is
what the paper credits for the high resilience of routing layers.

Two execution forms are provided:

:func:`dynamic_routing`
    The reference per-tensor form used by the models' forward pass.
:func:`dynamic_routing_shared`
    The sweep engine's shared-votes fast path: all NM points of a
    resilience curve are stacked along the leading axis of the *routing
    state* (logits/couplings/capsules) while the vote tensor — the
    dominant operand of every routing contraction — stays un-tiled and is
    shared across points (see :class:`SharedVotes`).  With an empty delta
    list this is bit-identical to routing the ``points``-times-tiled vote
    tensor through :func:`dynamic_routing`.

The sweep engine hands CapsNet's ClassCaps votes to the shared form in
capsule-major memory order (``(N, Cout, Cin, D)`` storage under the
logical ``(N, Cin, Cout, D, P)`` shape): the agreement contraction reads
that order faster with the same bits, and the contractions return
C-contiguous arrays so no reduction downstream sees the layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..tensor import (Tensor, squash, vote_agreement, vote_agreement_shared,
                      weighted_vote_sum, weighted_vote_sum_shared)
from . import hooks

__all__ = ["dynamic_routing", "dynamic_routing_shared", "SharedVotes",
           "RoutingSpec", "stack_affine", "stack_budget"]


def stack_budget() -> int:
    """The sweep stacking budget in bytes: ``REPRO_SWEEP_STACK_BYTES``,
    else 16 MiB.

    Bounds both the sweep engine's NM chunk size and the vote stack
    :func:`dynamic_routing_shared` materialises.  A value that is not a
    non-negative integer raises a :class:`ValueError` naming the
    variable.
    """
    raw = os.environ.get("REPRO_SWEEP_STACK_BYTES", str(16 << 20)).strip()
    if not raw.isdecimal():
        raise ValueError("REPRO_SWEEP_STACK_BYTES must be a non-negative "
                         f"integer byte count, got {raw!r}")
    return int(raw)


def dynamic_routing(u_hat: Tensor, *, iterations: int, layer_name: str) -> Tensor:
    """Route votes ``u_hat`` of shape ``(N, Cin, Cout, D, P)``.

    Parameters
    ----------
    u_hat:
        Prediction ("vote") tensor: for each of ``P`` spatial positions,
        ``Cin`` input capsules vote a ``D``-dimensional pose for each of
        ``Cout`` output capsules.
    iterations:
        Number of routing iterations (the paper and [25] use 3).
    layer_name:
        Canonical layer name used in the emitted injection sites.

    Returns
    -------
    Output capsules of shape ``(N, Cout, D, P)``.
    """
    if u_hat.ndim != 5:
        raise ValueError(f"u_hat must be 5-D (N, Cin, Cout, D, P), got {u_hat.shape}")
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    n, c_in, c_out, _, p = u_hat.shape
    logits = None  # None ⇔ exactly zero (the iteration-1 initial state)
    v = None
    for r in range(1, iterations + 1):
        if logits is None:
            # softmax of the all-zero initial logits, emitted as the exact
            # constant it evaluates to (1/Cout everywhere); the constant
            # carries no gradient either way, since the initial logits are
            # input-independent.
            k = Tensor(np.full((n, c_in, c_out, 1, p),
                               np.float32(1.0) / np.float32(c_out),
                               dtype=np.float32))
        else:
            k = logits.softmax(axis=2)
        k = hooks.emit(hooks.InjectionSite(
            layer_name, hooks.GROUP_SOFTMAX, f"iter{r}"), k)
        s = weighted_vote_sum(k, u_hat)  # (N, Cout, D, P)
        s = hooks.emit(hooks.InjectionSite(
            layer_name, hooks.GROUP_MAC, f"weighted_sum_iter{r}"), s)
        v = squash(s, axis=2)
        v = hooks.emit(hooks.InjectionSite(
            layer_name, hooks.GROUP_ACTIVATIONS, f"squash_iter{r}"), v)
        if r < iterations:
            update = vote_agreement(u_hat, v)
            logits = update if logits is None else logits + update
            logits = hooks.emit(hooks.InjectionSite(
                layer_name, hooks.GROUP_LOGITS, f"iter{r}"), logits)
    return v


@dataclass
class SharedVotes:
    """An NM-stacked vote tensor factored as ``base + Σ_b coeffs_b ⊗ delta_b``.

    ``base`` is the clean (un-tiled) vote tensor ``(N, Cin, Cout, D, P)``;
    each entry of ``deltas`` is a ``(coeffs, delta)`` pair where ``coeffs``
    holds one scalar per stacked point and ``delta`` is shaped like
    ``base`` — point ``j``'s effective votes are
    ``base + Σ_b coeffs_b[j] * delta_b``.  An empty ``deltas`` list means
    every point shares the clean votes exactly (a pure routing-group
    injection target); one or two entries express the engine's
    common-random-number vote noise (``NM·R·z`` and optionally ``NA·R·1``)
    without ever materialising the per-point noisy vote stack.
    """

    base: np.ndarray
    points: int
    deltas: list = field(default_factory=list)


@dataclass(frozen=True)
class RoutingSpec:
    """Stage metadata advertising a shared-votes routing entry point.

    Attached by a model's :meth:`~repro.nn.Module.forward_stages` to each
    ``*.route`` stage under the ``"routing"`` meta key so the sweep
    engine's planner can run the stage through
    :func:`dynamic_routing_shared`.

    Attributes
    ----------
    layer:
        The routing layer (``ClassCaps`` / ``ConvCaps3D``): provides
        ``name``, ``routing_iterations`` and ``votes_to_u_hat``.
    finish:
        ``finish(stage_input_state, routed, points) -> stage_output`` —
        rebuilds the stage's (stacked) output from the routed capsules
        ``(points*N, Cout, D, P)``, e.g. reshaping for ClassCaps or
        adding the broadcast skip branch for a DeepCaps cell.
    votes_index:
        Element of a tuple stage-input state holding the raw vote tensor,
        or ``None`` when the stage input *is* the votes.
    """

    layer: object
    finish: Callable
    votes_index: int | None = None

    @property
    def votes_site(self) -> hooks.InjectionSite:
        """The layer's vote-tensor emit (consumed as affine deltas)."""
        return hooks.InjectionSite(self.layer.name, hooks.GROUP_MAC, "votes")


def _affine_combine(shared_fn, state, votes: SharedVotes) -> np.ndarray:
    """``shared_fn`` against every component of the vote factorisation.

    ``state`` holds either every point's rows (``points*N``) or ``N``
    rows that all points share; the latter contracts once and tiles the
    base term, which gives the same bits because einsum computes each
    output row independently of the leading axis.
    """
    n = votes.base.shape[0]
    rows = state.shape[0] // n
    out = shared_fn(state, votes.base, rows)
    if rows != votes.points:
        out = np.concatenate([out] * votes.points, axis=0)
    for coeffs, delta in votes.deltas:
        term = shared_fn(state, delta, rows)
        term = term.reshape((rows, n) + term.shape[1:])
        scale = np.asarray(coeffs, np.float32).reshape(
            (votes.points,) + (1,) * (term.ndim - 1))
        out += (scale * term).reshape(out.shape)
    return out


def stack_affine(base: np.ndarray, deltas, points: int) -> np.ndarray:
    """Stack ``base + Σ_b coeffs_b[j] * delta_b`` over points ``j``.

    ``deltas`` holds ``(coeffs, delta)`` pairs — one coefficient per
    stacked point against a delta shaped like ``base``; the result folds
    the point axis into the leading (batch) axis.  This is the single
    evaluation of the engine's affine noise factorisation (used both to
    materialise :class:`SharedVotes` stacks and to apply the sweep
    engine's affine push), and its elementwise order deliberately
    mirrors the per-point injection (``base + coeff_nm·z + coeff_na·1``)
    so the stacked result is bit-identical to what a per-point injector
    would produce.  The stack builds in place: ``base`` is added into the
    first fresh ``coeffs * delta`` term (float addition commutes, so the
    bits match ``base + term``), and the result keeps the operands'
    memory order, so merging the point and batch axes stays a view.
    """
    expand = (slice(None),) + (None,) * base.ndim
    stacked = None
    for coeffs, delta in deltas:
        term = np.asarray(coeffs, np.float32)[expand] * delta[None]
        if stacked is None:
            term += base
            stacked = term
        else:
            stacked += term
    if stacked is None:
        stacked = np.broadcast_to(base, (points,) + base.shape)
    return stacked.reshape((points * base.shape[0],) + base.shape[1:])


def dynamic_routing_shared(votes: SharedVotes, *, iterations: int,
                           layer_name: str, stack_when=None) -> Tensor:
    """Route a whole NM-stacked curve against one shared vote tensor.

    The per-iteration routing state (logits, couplings, weighted sums,
    squashed capsules) carries the stacked leading axis ``points*N`` and
    emits exactly the same injection sites, with the same tags, order and
    array shapes, as running :func:`dynamic_routing` on a
    ``points``-times-tiled vote tensor — so the sweep engine's
    :class:`~repro.core.noise.StackedNoiseInjector` composes unchanged,
    and the results are bit-identical to the tiled replay (einsum
    accumulates each output element independently of the leading-axis
    size, and the iteration-1 couplings ``softmax(0) = 1/Cout`` are
    emitted as the exact constant).  Four execution refinements cut the
    cost below the tiled form:

    * **Shared contractions** — with no deltas, the vote contractions run
      against the single un-tiled ``votes.base``
      (:func:`~repro.tensor.weighted_vote_sum_shared`), reading the
      dominant routing operand once per batch element instead of once per
      point.
    * **Lazy stacking** — until the first site for which ``stack_when``
      is true has been emitted, every point's routing state is provably
      identical, so the state stays un-stacked (one ``N``-row iteration
      instead of ``points*N``) and is tiled right before that emit.  The
      engine passes its injection matcher here; ``None`` conservatively
      stacks from the start.
    * **Materialisation fallback** — when deltas are present, the
      factored contraction costs one extra vote read per delta; for
      small vote tensors (stack fits :func:`stack_budget`, default
      16 MiB) it is cheaper to materialise the noisy stack once per curve
      and contract it tiled, which also keeps bit-identity with the
      per-point injection.  Past the budget the factored form wins on
      memory traffic and is equivalent up to float reordering.
    * **Layout and the first iteration** — ``votes.base`` and the deltas
      may be stored capsule-major (see
      :meth:`~repro.nn.ClassCaps.votes_to_u_hat`); every contraction
      keeps the bits of C-order votes, and the materialised stack keeps
      the operands' order.  In the factored form the iteration-1
      couplings, unless the softmax site injects them, are one constant
      for every point, so the first weighted sum contracts ``N`` rows
      per vote component and tiles the result instead of contracting
      ``points*N`` rows.

    Returns the stacked output capsules ``(points*N, Cout, D, P)``.
    """
    if iterations < 1:
        raise ValueError("routing needs at least one iteration")
    base = votes.base
    if base.ndim != 5:
        raise ValueError(
            f"shared votes must be 5-D (N, Cin, Cout, D, P), got {base.shape}")
    n, c_in, c_out, _, p = base.shape
    points = votes.points
    kn = points * n

    u_stacked = None
    if votes.deltas and points * base.nbytes <= stack_budget():
        u_stacked = Tensor(stack_affine(base, votes.deltas, points))
    u_base = Tensor(base)
    # The routing state of every point is identical until the first
    # injected emit; ``stacked`` flips when divergence becomes possible.
    stacked = bool(votes.deltas) or points == 1 or stack_when is None

    def tile(tensor: Tensor) -> Tensor:
        return Tensor(np.concatenate([tensor.data] * points, axis=0))

    logits = None  # None ⇔ exactly zero (the iteration-1 initial state)
    v = None
    for r in range(1, iterations + 1):
        if logits is None:
            # softmax of an all-zero logits tensor, emitted as the exact
            # constant it evaluates to.
            k = uniform = Tensor(np.full(
                (kn if stacked else n, c_in, c_out, 1, p),
                np.float32(1.0) / np.float32(c_out), dtype=np.float32))
        else:
            k = logits.softmax(axis=2)
        site = hooks.InjectionSite(layer_name, hooks.GROUP_SOFTMAX, f"iter{r}")
        if not stacked and stack_when(site):
            k, stacked = tile(k), True
        k = hooks.emit(site, k)
        if not stacked:
            s = weighted_vote_sum(k, u_base)
        elif u_stacked is not None:
            s = weighted_vote_sum(k, u_stacked)
        else:
            # Un-injected constant couplings are the same for every
            # point: contract them once, on N rows.
            rows = k.data[:n] if k is uniform else k.data
            s = Tensor(_affine_combine(weighted_vote_sum_shared, rows,
                                       votes), op="weighted_vote_sum_shared")
        site = hooks.InjectionSite(layer_name, hooks.GROUP_MAC,
                                   f"weighted_sum_iter{r}")
        if not stacked and stack_when(site):
            s, stacked = tile(s), True
        s = hooks.emit(site, s)
        v = squash(s, axis=2)
        site = hooks.InjectionSite(layer_name, hooks.GROUP_ACTIVATIONS,
                                   f"squash_iter{r}")
        if not stacked and stack_when(site):
            v, stacked = tile(v), True
        v = hooks.emit(site, v)
        if r < iterations:
            if not stacked:
                update = vote_agreement(u_base, v)
            elif u_stacked is not None:
                update = vote_agreement(u_stacked, v)
            else:
                update = Tensor(_affine_combine(
                    lambda state, shared, points: vote_agreement_shared(
                        shared, state, points), v.data, votes))
            logits = update if logits is None else logits + update
            site = hooks.InjectionSite(layer_name, hooks.GROUP_LOGITS,
                                       f"iter{r}")
            if not stacked and stack_when(site):
                logits, stacked = tile(logits), True
            logits = hooks.emit(site, logits)
    return v if stacked else tile(v)
