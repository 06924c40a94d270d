"""A minimal reverse-mode automatic-differentiation engine on NumPy arrays.

This module is the substrate replacing TensorFlow in the original ReD-CaNe
experimental setup (paper Sec. V-B).  It provides a :class:`Tensor` wrapping a
``float32`` NumPy array, recording a dynamic computation graph so that
gradients can be obtained with :meth:`Tensor.backward`.

The engine deliberately supports only the operations the Capsule-Network
workloads need (element-wise arithmetic, broadcasting, matmul, reductions,
indexing, concatenation and a handful of nonlinearities); convolution lives in
:mod:`repro.tensor.ops` as a fused primitive for speed.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]


class _GradMode(threading.local):
    """Per-thread autograd switch.

    Grad mode is thread-local (like the hook-activation stack in
    :mod:`repro.nn.hooks`): a ``no_grad()`` scope on one thread never
    turns graph recording back on — or off — under another thread's
    feet, which is what makes concurrent inference sweeps on the
    analysis service's ``threads`` backend safe.  New threads start with
    gradients enabled (the class attribute is the per-thread default).
    """

    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def is_grad_enabled() -> bool:
    """Whether operations record the autograd graph (on this thread)."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing NumPy broadcasting.

    Broadcasting can (a) prepend dimensions and (b) stretch size-1 axes; the
    adjoint of both is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32``.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` for this
        tensor when :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "op")

    def __init__(self, data, requires_grad: bool = False, *,
                 _prev: Sequence["Tensor"] = (), op: str = "leaf"):
        if isinstance(data, Tensor):  # defensive: unwrap accidental nesting
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[], None] | None = None
        self._prev: tuple[Tensor, ...] = tuple(_prev) if self.requires_grad else ()
        self.op = op

    # ------------------------------------------------------------------ meta
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared memory, not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, got "
                f"shape {self.shape} ({self.data.size} elements)")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, op="detach")

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------- graph API
    @staticmethod
    def _result(data: np.ndarray, parents: Iterable["Tensor"], op: str) -> "Tensor":
        parents = tuple(parents)
        needs = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs, _prev=parents if needs else (), op=op)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (a scalar loss is the common case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        if grad is None:
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=np.float32))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # -------------------------------------------------------------- elementwise
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor._result(self.data + other.data, (self, other), "add")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))
            out._backward = _backward
        return out

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor._result(self.data * other.data, (self, other), "mul")
        if out.requires_grad:
            def _backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))
            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (as_tensor(other) * -1.0)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (self * -1.0)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) * self.reciprocal()

    __radd__ = __add__
    __rmul__ = __mul__

    def reciprocal(self) -> "Tensor":
        out = Tensor._result(1.0 / self.data, (self,), "reciprocal")
        if out.requires_grad:
            def _backward():
                self._accumulate(-out.grad * out.data * out.data)
            out._backward = _backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor._result(self.data ** exponent, (self,), f"pow{exponent}")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))
            out._backward = _backward
        return out

    def exp(self) -> "Tensor":
        out = Tensor._result(np.exp(self.data), (self,), "exp")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * out.data)
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = Tensor._result(np.log(self.data), (self,), "log")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad / self.data)
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        out = Tensor._result(np.sqrt(self.data), (self,), "sqrt")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * 0.5 / np.maximum(out.data, 1e-12))
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = Tensor._result(np.maximum(self.data, 0.0), (self,), "relu")
        if out.requires_grad:
            mask = (self.data > 0).astype(np.float32)

            def _backward():
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        out = Tensor._result(1.0 / (1.0 + np.exp(-self.data)), (self,), "sigmoid")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * out.data * (1.0 - out.data))
            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        out = Tensor._result(np.tanh(self.data), (self,), "tanh")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad * (1.0 - out.data * out.data))
            out._backward = _backward
        return out

    def maximum(self, scalar: float) -> "Tensor":
        """Element-wise ``max(self, scalar)`` for a Python scalar."""
        out = Tensor._result(np.maximum(self.data, scalar), (self,), "maximum")
        if out.requires_grad:
            mask = (self.data >= scalar).astype(np.float32)

            def _backward():
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            def _backward():
                grad = out.grad
                if not keepdims and axis is not None:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(np.broadcast_to(grad, self.shape).astype(np.float32))
            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor._result(out_data, (self,), "max")
        if out.requires_grad:
            def _backward():
                grad = out.grad
                val = out.data
                if not keepdims and axis is not None:
                    grad = np.expand_dims(grad, axis)
                    val = np.expand_dims(val, axis)
                mask = (self.data == val).astype(np.float32)
                mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
                self._accumulate(mask * grad)
            out._backward = _backward
        return out

    # ----------------------------------------------------------- shape juggling
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor._result(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            def _backward():
                self._accumulate(out.grad.reshape(self.shape))
            out._backward = _backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out = Tensor._result(self.data.transpose(axes), (self,), "transpose")
        if out.requires_grad:
            inverse = np.argsort(axes)

            def _backward():
                self._accumulate(out.grad.transpose(inverse))
            out._backward = _backward
        return out

    def expand_dims(self, axis: int) -> "Tensor":
        out = Tensor._result(np.expand_dims(self.data, axis), (self,), "expand_dims")
        if out.requires_grad:
            def _backward():
                self._accumulate(np.squeeze(out.grad, axis=axis))
            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = Tensor._result(self.data[index], (self,), "getitem")
        if out.requires_grad:
            def _backward():
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)
            out._backward = _backward
        return out

    # --------------------------------------------------------------- contractions
    def matmul(self, other) -> "Tensor":
        """Batched matrix multiplication following ``np.matmul`` semantics."""
        other = as_tensor(other)
        out = Tensor._result(np.matmul(self.data, other.data), (self, other), "matmul")
        if out.requires_grad:
            def _backward():
                grad = out.grad
                if self.requires_grad:
                    ga = np.matmul(grad, np.swapaxes(other.data, -1, -2))
                    self._accumulate(_unbroadcast(ga, self.shape))
                if other.requires_grad:
                    gb = np.matmul(np.swapaxes(self.data, -1, -2), grad)
                    other._accumulate(_unbroadcast(gb, other.shape))
            out._backward = _backward
        return out

    __matmul__ = matmul

    # ------------------------------------------------------------------ helpers
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically-stable softmax along ``axis`` built from primitives."""
        if not self.requires_grad:
            # Inference fast path: the same max/sub/exp/sum/div sequence
            # (bit-identical) without the intermediate Tensor graph —
            # softmax runs once per routing iteration of every replay.
            data = self.data
            exps = np.exp(data - _max_keepdims(data, axis))
            return Tensor(exps / exps.sum(axis=axis, keepdims=True),
                          op="softmax")
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        exps = shifted.exp()
        return exps / exps.sum(axis=axis, keepdims=True)

    def norm(self, axis: int = -1, keepdims: bool = False, eps: float = 1e-8) -> "Tensor":
        """Euclidean norm along ``axis`` with an epsilon for differentiability."""
        return ((self * self).sum(axis=axis, keepdims=keepdims) + eps).sqrt()


#: Longest axis :func:`_max_keepdims` chains over; longer axes reduce.
_MAX_CHAIN_AXIS = 64


def _max_keepdims(data: np.ndarray, axis: int) -> np.ndarray:
    """``data.max(axis, keepdims=True)``, as a chain of slice-wise
    ``np.maximum`` calls when the axis is short.

    Bit-identical (a max does not depend on the order it is taken in,
    NaN propagates either way) and several times faster on the routing
    softmax, whose short softmax axis makes the per-row reduce
    call-bound.
    """
    rows = np.moveaxis(data, axis, 0)
    if not 0 < len(rows) <= _MAX_CHAIN_AXIS:
        return data.max(axis=axis, keepdims=True)
    out = np.array(rows[0])
    for row in rows[1:]:
        np.maximum(out, row, out=out)
    return np.expand_dims(out, axis)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` (Tensor, ndarray or scalar) into a :class:`Tensor`."""
    return value if isinstance(value, Tensor) else Tensor(value)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor._result(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, "cat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward():
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    index = [slice(None)] * out.ndim
                    index[axis] = slice(int(start), int(stop))
                    tensor._accumulate(out.grad[tuple(index)])
        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    expanded = [as_tensor(t).expand_dims(axis) for t in tensors]
    return cat(expanded, axis=axis)
