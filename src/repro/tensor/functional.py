"""Composite differentiable functions used across the CapsNet stack.

These are the vectorised nonlinearities the paper singles out (Sec. II-A):
the *squash* capsule activation, the routing softmax, and the classification
helpers built on capsule lengths.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = ["squash", "softmax", "relu", "capsule_lengths", "one_hot",
           "log_softmax", "weighted_vote_sum", "vote_agreement",
           "weighted_vote_sum_shared", "vote_agreement_shared",
           "vote_transform"]


def squash(s: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """Capsule squashing nonlinearity from Sabour et al. [25].

    ``v = (|s|^2 / (1 + |s|^2)) * s / |s|`` — bounds the capsule length to
    ``[0, 1)`` so it can act as an existence probability while preserving
    orientation.
    """
    s = as_tensor(s)
    if not s.requires_grad:
        # Inference fast path: one fused sum-of-squares contraction instead
        # of materialising the capsule-map-sized ``s*s`` temporary (squash
        # runs on every capsule layer of every sweep replay).
        data = s.data
        labels = "abcdefghijk"[:data.ndim]
        out_labels = labels.replace(labels[axis % data.ndim], "")
        squared = np.einsum(f"{labels},{labels}->{out_labels}", data, data)
        squared = np.expand_dims(squared, axis)
        scale = squared / ((squared + 1.0) * np.sqrt(squared + eps))
        return Tensor(data * scale.astype(np.float32, copy=False), op="squash")
    squared = (s * s).sum(axis=axis, keepdims=True)
    norm = (squared + eps).sqrt()
    scale = squared / ((squared + 1.0) * norm)
    return s * scale


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    return as_tensor(x).softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` (stable form)."""
    x = as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def capsule_lengths(caps: Tensor, axis: int = -1) -> Tensor:
    """Euclidean length of each capsule vector (class probability proxy)."""
    return as_tensor(caps).norm(axis=axis)


def weighted_vote_sum(coupling: Tensor, votes: Tensor) -> Tensor:
    """Fused ``(coupling * votes).sum(axis=1)`` for dynamic routing.

    ``coupling`` has shape ``(N, Cin, Cout, 1, P)`` and ``votes``
    ``(N, Cin, Cout, D, P)``; the result is ``(N, Cout, D, P)``.  A single
    einsum contraction avoids materialising the vote-sized product
    temporary — the memory-bandwidth hot spot of the routing loop.
    """
    coupling = as_tensor(coupling)
    votes = as_tensor(votes)
    # Singleton axes make c_einsum ~30% slower — contract squeezed views.
    if votes.shape[-1] == 1:
        out_data = np.einsum("nio,niod->nod", coupling.data[:, :, :, 0, 0],
                             votes.data[..., 0])[..., None]
    else:
        out_data = np.einsum("niop,niodp->nodp", coupling.data[:, :, :, 0, :],
                             votes.data)
    out = Tensor._result(out_data, (coupling, votes), "weighted_vote_sum")
    if not out.requires_grad:
        return out

    def _backward():
        grad = out.grad
        if coupling.requires_grad:
            dk = np.einsum("nodp,niodp->niop", grad, votes.data)
            coupling._accumulate(dk[:, :, :, None, :])
        if votes.requires_grad:
            votes._accumulate(np.einsum(
                "niop,nodp->niodp", coupling.data[:, :, :, 0, :], grad))

    out._backward = _backward
    return out


def vote_agreement(votes: Tensor, v: Tensor) -> Tensor:
    """Fused ``(votes * v.expand_dims(1)).sum(axis=3, keepdims=True)``.

    ``votes`` has shape ``(N, Cin, Cout, D, P)`` and ``v``
    ``(N, Cout, D, P)``; the result — the routing logits update — has
    shape ``(N, Cin, Cout, 1, P)``.  Like :func:`weighted_vote_sum`, the
    contraction skips the vote-sized temporary.

    The result is always C-contiguous.  einsum lays its output out in
    its operands' memory order, so capsule-major votes (stored
    ``(N, Cout, Cin, D)``, see :meth:`repro.nn.ClassCaps.votes_to_u_hat`)
    would yield a ``Cout``-outer update, and the routing softmax over
    ``Cout`` downstream would then reduce in another order and change
    bits.
    """
    votes = as_tensor(votes)
    v = as_tensor(v)
    if votes.shape[-1] == 1:
        out_data = np.einsum("niod,nod->nio", votes.data[..., 0],
                             v.data[..., 0])[:, :, :, None, None]
    else:
        out_data = np.einsum("niodp,nodp->niop", votes.data,
                             v.data)[:, :, :, None, :]
    out_data = np.ascontiguousarray(out_data)
    out = Tensor._result(out_data, (votes, v), "vote_agreement")
    if not out.requires_grad:
        return out

    def _backward():
        grad = out.grad[:, :, :, 0, :]
        if votes.requires_grad:
            votes._accumulate(np.einsum("niop,nodp->niodp", grad, v.data))
        if v.requires_grad:
            v._accumulate(np.einsum("niop,niodp->nodp", grad, votes.data))

    out._backward = _backward
    return out


def vote_transform(x: Tensor, weight: Tensor) -> Tensor:
    """Fully-connected capsule vote GEMM for :class:`~repro.nn.ClassCaps`.

    ``x`` holds input capsules ``(N, Cin, Din)`` and ``weight`` the
    per-input-capsule transformation matrices ``(Cin, F, Din)`` (``F =
    Cout*Dout``); the result is the vote tensor ``(N, Cin, F)``.  The
    contraction batches over the *capsule* axis — ``Cin`` GEMMs of shape
    ``(N, Din) @ (Din, F)`` — instead of ``N*Cin`` one-row products, the
    BLAS-friendly orientation for the NM-stacked sweeps where ``N``
    carries the whole curve.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    x_t = x.data.transpose(1, 0, 2)               # (Cin, N, Din)
    w_t = weight.data.transpose(0, 2, 1)          # (Cin, Din, F)
    out_data = np.ascontiguousarray(np.matmul(x_t, w_t).transpose(1, 0, 2))
    out = Tensor._result(out_data, (x, weight), "vote_transform")
    if not out.requires_grad:
        return out

    def _backward():
        grad_t = out.grad.transpose(1, 0, 2)      # (Cin, N, F)
        if x.requires_grad:
            x._accumulate(
                np.matmul(grad_t, weight.data).transpose(1, 0, 2))
        if weight.requires_grad:
            weight._accumulate(
                np.matmul(grad_t.transpose(0, 2, 1), x_t))

    out._backward = _backward
    return out


def weighted_vote_sum_shared(coupling: np.ndarray, votes: np.ndarray,
                             points: int) -> np.ndarray:
    """Shared-votes form of :func:`weighted_vote_sum` (inference only).

    ``coupling`` has shape ``(points*N, Cin, Cout, 1, P)`` — one slice per
    stacked sweep point — while ``votes`` is a *single* un-tiled vote
    tensor ``(N, Cin, Cout, D, P)`` shared by every slice.  Contracting
    against the shared operand reads the vote tensor once per batch
    element instead of once per (point, batch element): bit-identical to
    tiling ``votes`` ``points`` times and calling
    :func:`weighted_vote_sum` (einsum accumulates each output element
    over ``Cin`` in the same order either way), without materialising or
    streaming the tiled copies.
    """
    n, c_in, c_out, d, p = votes.shape
    stacked = coupling.reshape(points, n, c_in, c_out, p)
    if p == 1:
        out = np.einsum("jnio,niod->jnod", stacked[..., 0],
                        votes[..., 0])[..., None]
    else:
        out = np.einsum("jniop,niodp->jnodp", stacked, votes)
    return out.reshape(points * n, c_out, d, p)


def vote_agreement_shared(votes: np.ndarray, v: np.ndarray,
                          points: int) -> np.ndarray:
    """Shared-votes form of :func:`vote_agreement` (inference only).

    ``votes`` is the shared un-tiled vote tensor ``(N, Cin, Cout, D, P)``
    and ``v`` the stacked squashed capsules ``(points*N, Cout, D, P)``;
    the result is the stacked logits update ``(points*N, Cin, Cout, 1,
    P)``, bit-identical to the tiled contraction (see
    :func:`weighted_vote_sum_shared`) and, like :func:`vote_agreement`'s,
    C-contiguous whatever the memory order of ``votes``.
    """
    n, c_in, c_out, d, p = votes.shape
    stacked = v.reshape(points, n, c_out, d, p)
    if p == 1:
        out = np.einsum("niod,jnod->jnio", votes[..., 0],
                        stacked[..., 0])[..., None, None]
    else:
        out = np.einsum("niodp,jnodp->jniop", votes, stacked)[:, :, :, :,
                                                              None, :]
    return np.ascontiguousarray(out).reshape(points * n, c_in, c_out, 1, p)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Dense one-hot encoding of integer labels as ``float32``."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes), dtype=np.float32)
    out[np.arange(labels.size), labels.reshape(-1)] = 1.0
    return out.reshape(*labels.shape, num_classes)
