"""Fused tensor primitives that need hand-written adjoints.

The only heavyweight primitive required by CapsNet/DeepCaps inference is 2-D
convolution; it is implemented once here as a patch-matrix (``im2col``) GEMM
with an exact ``col2im`` backward, and reused by every convolutional (capsule)
layer.  ``conv2d`` lowers its batch in blocks through buffers it allocates
once per call: a block costs one copy into a zero-bordered padded buffer, one
strided copy of that buffer's window view into the patch matrix, and the GEMM.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["conv2d", "conv_output_size", "im2col", "col2im"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    for name, value, least in (("stride", stride, 1), ("padding", padding, 0)):
        if value < least:
            raise ValueError(
                f"convolution {name} must be >= {least}, got {value}")
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution collapses spatial size {size} with kernel={kernel}, "
            f"stride={stride}, padding={padding}")
    return out


def _workspace(shape: tuple[int, int, int, int], kernel: tuple[int, int],
               stride: int, padding: int, channels_last: bool, f: int):
    """One float32 allocation that lowers ``shape = (N, C, H, W)`` images.

    Returns ``(interior, windows, cols, mat)``: the ``(N, C, H, W)``
    interior of a zeroed padded buffer (NHWC when ``channels_last``) that
    input blocks are written to; its read-only patch view, ``(N, OH, OW,
    KH, KW, C)`` when ``channels_last``, else ``(N, OH, OW, C, KH, KW)``,
    that one copy turns into the patch matrix ``cols``; and an ``f``-column
    GEMM output.  One allocation, not three: with three, glibc's heap
    layout raised steps24-deepcaps peak RSS by 11-29 MB.
    """
    (n, c, h, w), (kh, kw) = shape, kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    hp, wp, rows = h + 2 * padding, w + 2 * padding, n * oh * ow
    cut = [n * c * hp * wp, n * c * hp * wp + rows * c * kh * kw]
    padded, cols, mat = np.split(np.empty(cut[1] + rows * f, np.float32), cut)
    padded[:] = 0
    padded = (padded.reshape(n, hp, wp, c).transpose(0, 3, 1, 2)
              if channels_last else padded.reshape(n, c, hp, wp))
    sn, sc, sh, sw = padded.strides
    taps = (((kh, kw, c), (sh, sw, sc)) if channels_last
            else ((c, kh, kw), (sc, sh, sw)))
    windows = np.lib.stride_tricks.as_strided(
        padded, (n, oh, ow) + taps[0], (sn, sh * stride, sw * stride)
        + taps[1], writeable=False)
    return (padded[:, :, padding:padding + h, padding:padding + w], windows,
            cols.reshape(rows, c * kh * kw), mat.reshape(rows, f))


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int,
           padding: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower the padded patches of ``x`` ``(N, C, H, W)`` to a GEMM-ready
    float32 matrix ``(N * OH * OW, C * KH * KW)``, for ``kernel = (KH, KW)``;
    returns it and the output spatial dimensions ``(OH, OW)``."""
    interior, windows, cols, _ = _workspace(x.shape, kernel, stride, padding,
                                            False, 0)
    interior[...] = x
    np.copyto(cols.reshape(windows.shape), windows)
    return cols, windows.shape[1:3]


#: Channel count at which conv2d switches to channels-last patch lowering.
_NHWC_MIN_CHANNELS = 8

#: Byte cap on one no-grad conv2d patch matrix (half a 2 MiB L2).
_COLS_BLOCK_BYTES = 1 << 20

#: Multiply-adds up to which OpenBLAS may run a GEMM on a small-matrix kernel
#: that sums in another order than its blocked kernel (measured on AVX-512).
_BLAS_SMALL_MACS = 100 ** 3


def _conv_blocks(n: int, image_macs: int, f: int, grad: bool) -> list[int]:
    """Image bounds of the blocks conv2d lowers a batch of ``n`` in.

    Without ``grad``: near-equal blocks of whole images, as few as keep each
    patch matrix within _COLS_BLOCK_BYTES but none with a GEMM of at most
    _BLAS_SMALL_MACS, so each output is the same K-length dot product as in
    one GEMM, bit for bit.  Backward needs the whole patch matrix: 1 block.
    """
    blocks = 1
    if not grad:
        per_block = max(1, _COLS_BLOCK_BYTES // (4 * image_macs // f))
        blocks = max(1, min(-(-n // per_block),
                            n // (_BLAS_SMALL_MACS // image_macs + 1)))
    return [n * i // blocks for i in range(blocks + 1)]


#: Kernel taps at or above which the separable col2im path wins (measured:
#: 9x9 kernels are ~1.5-2x faster separable, 3x3 kernels faster direct).
_SEPARABLE_MIN_TAPS = 25


def col2im(dcols: np.ndarray, output_hw: tuple[int, int], stride: int,
           padding: int, *, method: str = "auto") -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-accumulate patch gradients.

    Parameters
    ----------
    dcols:
        Patch gradients of shape ``(N, C, OH, OW, KH, KW)``.
    output_hw:
        ``(H, W)`` of the *unpadded* input the gradient is w.r.t.
    method:
        ``"direct"`` runs one strided accumulate per kernel tap
        (``KH*KW`` NumPy calls); ``"separable"`` splits the 2-D scatter
        into a row pass then a column pass (``KH+KW`` calls on larger
        contiguous blocks).  ``"auto"`` picks by kernel size.

    Returns
    -------
    Gradient array of shape ``(N, C, H, W)``.
    """
    n, c, oh, ow, kh, kw = dcols.shape
    h, w = output_hw
    hp, wp = h + 2 * padding, w + 2 * padding
    if method == "auto":
        method = "separable" if kh * kw >= _SEPARABLE_MIN_TAPS else "direct"
    if method == "separable":
        rows = np.zeros((n, c, hp, ow, kw), dtype=np.float32)
        for i in range(kh):
            rows[:, :, i:i + stride * oh:stride] += dcols[:, :, :, :, i, :]
        dx = np.zeros((n, c, hp, wp), dtype=np.float32)
        for j in range(kw):
            dx[:, :, :, j:j + stride * ow:stride] += rows[:, :, :, :, j]
    elif method == "direct":
        dx = np.zeros((n, c, hp, wp), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i:i + stride * oh:stride,
                   j:j + stride * ow:stride] += dcols[:, :, :, :, i, j]
    else:
        raise ValueError(f"unknown col2im method {method!r}")
    if padding:
        dx = dx[:, :, padding:hp - padding, padding:wp - padding]
    return dx


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) with autograd support.

    Parameters
    ----------
    x:
        Input tensor ``(N, C, H, W)``.
    weight:
        Filter tensor ``(F, C, KH, KW)``.
    bias:
        Optional per-filter bias ``(F,)``.

    Returns
    -------
    Tensor of shape ``(N, F, OH, OW)``.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c, h, w = x.shape
    f, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"input channels {c} != filter channels {c_w}")

    # Patch lowering in channels-last order copies the input in contiguous
    # runs of C floats instead of KW floats — measured 2-3x faster for
    # multi-channel 3x3 kernels; for few-channel inputs the extra NHWC
    # transpose outweighs the granularity win, so those keep NCHW order.
    channels_last = c >= _NHWC_MIN_CHANNELS
    if channels_last:
        w_mat = np.ascontiguousarray(
            weight.data.transpose(0, 2, 3, 1)).reshape(f, kh * kw * c)
    else:
        w_mat = weight.data.reshape(f, c * kh * kw)
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    parents = (x, weight) if bias is None else (x, weight, bias)
    bounds = _conv_blocks(n, oh * ow * c * kh * kw * f, f, is_grad_enabled()
                          and any(p.requires_grad for p in parents))
    # One workspace for the largest block, reused by every block.
    most = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    interior, windows, cols, mat = _workspace(
        (most, c, h, w), (kh, kw), stride, padding, channels_last, f)
    # Contiguous NCHW, which every consumer would otherwise re-copy.
    out_data = np.empty((n, f, oh, ow), dtype=np.float32)
    for lo, hi in zip(bounds, bounds[1:]):
        rows = (hi - lo) * oh * ow
        interior[:hi - lo] = x.data[lo:hi]
        np.copyto(cols[:rows].reshape(windows[:hi - lo].shape),
                  windows[:hi - lo])
        np.matmul(cols[:rows], w_mat.T, out=mat[:rows])
        if bias is not None:
            # In place, then the NCHW copy: an add fused into that copy
            # runs a strided ufunc loop, slower on every steps24 shape tried.
            mat[:rows] += bias.data
        out_data[lo:hi] = mat[:rows].reshape(-1, oh, ow, f).transpose(
            0, 3, 1, 2)

    out = Tensor._result(out_data, parents, "conv2d")
    if not out.requires_grad:
        return out

    def _backward():
        grad_mat = out.grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if weight.requires_grad:
            dw_mat = grad_mat.T @ cols
            if channels_last:
                dw_mat = dw_mat.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
            weight._accumulate(dw_mat.reshape(weight.shape))
        if x.requires_grad:
            dcols = grad_mat @ w_mat
            if channels_last:
                dcols = dcols.reshape(n, oh, ow, kh, kw, c)
                dcols = dcols.transpose(0, 5, 1, 2, 3, 4)
            else:
                dcols = dcols.reshape(n, oh, ow, c, kh, kw)
                dcols = dcols.transpose(0, 3, 1, 2, 4, 5)
            # either way: (N, C, OH, OW, KH, KW)
            x._accumulate(col2im(dcols, (h, w), stride, padding))

    out._backward = _backward
    return out
