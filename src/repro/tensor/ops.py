"""Fused tensor primitives that need hand-written adjoints.

The only heavyweight primitive required by CapsNet/DeepCaps inference is 2-D
convolution; it is implemented once here via ``im2col`` + GEMM with an exact
``col2im`` backward, and reused by every convolutional (capsule) layer.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["conv2d", "conv_output_size", "im2col", "col2im"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution collapses spatial size {size} with kernel={kernel}, "
            f"stride={stride}, padding={padding}")
    return out


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int,
           padding: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower padded input patches to a GEMM-ready matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(KH, KW)`` patch size.

    Returns
    -------
    cols:
        Array of shape ``(N * OH * OW, C * KH * KW)``.
    (OH, OW):
        Output spatial dimensions.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding:
        # Hand-rolled zero padding: np.pad's generic path costs ~2-3x more
        # and this runs on every convolution of every sweep replay.
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                          dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, OH, OW, KH, KW)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols, dtype=np.float32), (oh, ow)


#: Channel count at which conv2d switches to channels-last patch lowering.
_NHWC_MIN_CHANNELS = 8

#: Byte cap on one no-grad conv2d patch matrix (half a 2 MiB L2).
_COLS_BLOCK_BYTES = 1 << 20

#: Multiply-adds up to which OpenBLAS may run a GEMM on a small-matrix kernel
#: that sums in another order than its blocked kernel (measured on AVX-512).
_BLAS_SMALL_MACS = 100 ** 3


def _im2col_nhwc(x: np.ndarray, kernel: tuple[int, int], stride: int,
                 padding: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Channels-last variant of :func:`im2col`.

    Returns ``(N * OH * OW, KH * KW * C)`` patches (note the axis order —
    the matching filter matrix must be reshaped channels-last too).  The
    innermost C axis is memory-contiguous, so the patch copy runs in
    C-float runs instead of KW-float runs.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding:
        # The NCHW -> NHWC transpose is written straight into the zeroed
        # padded buffer: one copy instead of two.
        nhwc = np.zeros((n, h + 2 * padding, w + 2 * padding, c),
                        dtype=x.dtype)
        nhwc[:, padding:padding + h, padding:padding + w] = x.transpose(
            0, 2, 3, 1)
    else:
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    windows = np.lib.stride_tricks.sliding_window_view(
        nhwc, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    # (N, OH, OW, C, KH, KW) -> (N*OH*OW, KH*KW*C)
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(
        n * oh * ow, kh * kw * c)
    return np.ascontiguousarray(cols, dtype=np.float32), (oh, ow)


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
        lower = _im2col_nhwc
        w_mat = np.ascontiguousarray(
            weight.data.transpose(0, 2, 3, 1)).reshape(f, kh * kw * c)
    else:
        lower = im2col
        w_mat = weight.data.reshape(f, c * kh * kw)
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    parents = (x, weight) if bias is None else (x, weight, bias)
    # Without a gradient: near-equal blocks of whole images, as few as keep
    # each patch matrix within _COLS_BLOCK_BYTES but none with a GEMM of at
    # most _BLAS_SMALL_MACS, so each output is the same K-length dot product
    # as in one GEMM, bit for bit.  Backward needs the whole patch matrix.
    blocks = 1
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        image_macs = oh * ow * c * kh * kw * f
        per_block = max(1, _COLS_BLOCK_BYTES // (4 * image_macs // f))
        blocks = max(1, min(-(-n // per_block),
                            n // (_BLAS_SMALL_MACS // image_macs + 1)))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    # Contiguous NCHW, which every consumer would otherwise re-copy.
    out_data = np.empty((n, f, oh, ow), dtype=np.float32)
    for lo, hi in zip(bounds, bounds[1:]):
        cols, _ = lower(x.data[lo:hi], (kh, kw), stride, padding)
        out_mat = cols @ w_mat.T
        if bias is not None:
            out_mat += bias.data
        out_data[lo:hi] = out_mat.reshape(-1, oh, ow, f).transpose(0, 3, 1, 2)

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
