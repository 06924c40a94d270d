"""Convolution primitive: reference correctness, gradients, shape rules."""

import tracemalloc

import numpy as np
import pytest
from scipy import signal

from repro.tensor import Tensor, conv2d, conv_output_size, im2col, ops
from tests.conftest import numeric_gradient


def reference_conv(x, w, b, stride, padding):
    """Direct cross-correlation via scipy, for verification."""
    n, c, h, w_in = x.shape
    f = w.shape[0]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)))
    oh = (x.shape[2] - w.shape[2]) // stride + 1
    ow = (x.shape[3] - w.shape[3]) // stride + 1
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    for i in range(n):
        for j in range(f):
            acc = np.zeros((x.shape[2] - w.shape[2] + 1,
                            x.shape[3] - w.shape[3] + 1))
            for k in range(c):
                acc += signal.correlate2d(x[i, k], w[j, k], mode="valid")
            out[i, j] = acc[::stride, ::stride] + b[j]
    return out


@pytest.mark.parametrize("stride,padding,kernel", [
    (1, 0, 3), (2, 0, 3), (1, 1, 3), (2, 1, 3), (1, 0, 1), (2, 2, 5),
])
def test_conv2d_matches_reference(stride, padding, kernel):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    w = rng.normal(size=(4, 3, kernel, kernel)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                 padding=padding)
    expected = reference_conv(x, w, b, stride, padding)
    np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)


def test_conv2d_channel_mismatch():
    x = Tensor(np.zeros((1, 3, 6, 6)))
    w = Tensor(np.zeros((2, 4, 3, 3)))
    with pytest.raises(ValueError, match="channels"):
        conv2d(x, w)


def test_conv_output_size():
    assert conv_output_size(28, 9, 1, 0) == 20
    assert conv_output_size(20, 9, 2, 0) == 6
    assert conv_output_size(32, 3, 2, 1) == 16
    with pytest.raises(ValueError):
        conv_output_size(2, 5, 1, 0)


def test_im2col_shape_and_content():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    cols, (oh, ow) = im2col(x, (2, 2), 1, 0)
    assert (oh, ow) == (3, 3)
    assert cols.shape == (9, 4)
    np.testing.assert_allclose(cols[0], [0, 1, 4, 5])  # first patch


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_conv2d_input_gradient(stride, padding):
    rng = np.random.default_rng(1)
    x_data = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
    w_data = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    b_data = rng.normal(size=3).astype(np.float32)
    x = Tensor(x_data, requires_grad=True)
    conv2d(x, Tensor(w_data), Tensor(b_data), stride=stride,
           padding=padding).sum().backward()

    def loss():
        return float(reference_conv(x_data, w_data, b_data, stride,
                                    padding).sum())

    numeric = numeric_gradient(loss, x_data)
    np.testing.assert_allclose(x.grad, numeric, atol=1e-2, rtol=1e-2)


def test_conv2d_weight_and_bias_gradient():
    rng = np.random.default_rng(2)
    x_data = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
    w_data = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    b_data = rng.normal(size=3).astype(np.float32)
    w = Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    conv2d(Tensor(x_data), w, b, stride=1, padding=1).sum().backward()

    def loss_w():
        return float(reference_conv(x_data, w_data, b_data, 1, 1).sum())

    numeric_w = numeric_gradient(loss_w, w_data)
    np.testing.assert_allclose(w.grad, numeric_w, atol=1e-2, rtol=1e-2)
    # bias grad = number of output positions per filter
    oh = ow = 5
    np.testing.assert_allclose(b.grad, np.full(3, 2 * oh * ow), rtol=1e-5)


def test_conv2d_no_grad_fast_path():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    w = Tensor(np.zeros((1, 1, 3, 3)))
    out = conv2d(x, w)
    assert not out.requires_grad
    assert out._backward is None


class TestCol2im:
    """The strided scatter (conv2d input adjoint) has two implementations;
    they must agree, and ``auto`` must accept every geometry."""

    @pytest.mark.parametrize("kernel,stride,padding", [
        (3, 1, 1), (3, 2, 0), (9, 2, 0), (5, 1, 2),
    ])
    def test_methods_agree(self, kernel, stride, padding):
        from repro.tensor import col2im, conv_output_size
        rng = np.random.default_rng(0)
        n, c, h = 2, 3, 14
        oh = conv_output_size(h, kernel, stride, padding)
        dcols = rng.random((n, c, oh, oh, kernel, kernel),
                           dtype=np.float32)
        direct = col2im(dcols, (h, h), stride, padding, method="direct")
        separable = col2im(dcols, (h, h), stride, padding,
                           method="separable")
        auto = col2im(dcols, (h, h), stride, padding)
        np.testing.assert_allclose(direct, separable, atol=1e-4)
        np.testing.assert_allclose(auto, direct, atol=1e-4)

    def test_unknown_method_rejected(self):
        from repro.tensor import col2im
        with pytest.raises(ValueError, match="col2im"):
            col2im(np.zeros((1, 1, 2, 2, 3, 3), np.float32), (4, 4), 1, 0,
                   method="magic")


def _unfused_conv(x, w, b, stride, padding):
    """conv2d's inference numerics with separate copies: the NHWC
    transpose, then the pad, then the bias added to the GEMM output in
    place, then the NHWC -> NCHW copy."""
    n, c, h, w_in = x.shape
    f, _, kh, kw = w.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w_in, kw, stride, padding)
    if c >= 8:
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        if padding:
            padded = np.zeros((n, h + 2 * padding, w_in + 2 * padding, c),
                              dtype=nhwc.dtype)
            padded[:, padding:padding + h, padding:padding + w_in] = nhwc
            nhwc = padded
        windows = np.lib.stride_tricks.sliding_window_view(
            nhwc, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        cols = np.ascontiguousarray(
            windows.transpose(0, 1, 2, 4, 5, 3).reshape(
                n * oh * ow, kh * kw * c), dtype=np.float32)
        w_mat = np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(f, -1)
    else:
        cols, _ = im2col(x, (kh, kw), stride, padding)
        w_mat = w.reshape(f, -1)
    out = cols @ w_mat.T
    if b is not None:
        out += b
    return np.ascontiguousarray(
        out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2))


@pytest.mark.parametrize("channels", [3, 8, 16])
@pytest.mark.parametrize("stride,padding,kernel", [
    (1, 0, 3), (2, 0, 3), (1, 1, 3), (2, 1, 3), (1, 2, 5), (2, 0, 1),
])
@pytest.mark.parametrize("with_bias", [True, False])
def test_conv2d_bitwise_matches_unfused_copies(channels, stride, padding,
                                               kernel, with_bias):
    rng = np.random.default_rng(channels * 100 + stride * 10 + padding)
    x = rng.normal(size=(3, channels, 9, 9)).astype(np.float32)
    w = rng.normal(size=(12, channels, kernel, kernel)).astype(np.float32)
    b = rng.normal(size=12).astype(np.float32) if with_bias else None
    out = conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                 stride=stride, padding=padding).data
    expected = _unfused_conv(x, w, b, stride, padding)
    assert out.flags.c_contiguous
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def _image_macs(channels, size, kernel, stride, padding, filters):
    """Multiply-adds of one image's conv GEMM."""
    side = conv_output_size(size, kernel, stride, padding)
    return side * side * channels * kernel * kernel * filters


@pytest.fixture
def lowered_blocks(monkeypatch):
    """Image counts of the blocks conv2d lowers, in call order."""
    sizes = []
    for name in ("im2col", "_im2col_nhwc"):
        lower = getattr(ops, name)
        monkeypatch.setattr(ops, name, lambda x, *a, _lower=lower: (
            sizes.append(len(x)), _lower(x, *a))[1])
    return sizes


@pytest.mark.parametrize("channels", [3, 8])
@pytest.mark.parametrize("kernel", [1, 3, 9])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("with_bias", [True, False])
def test_conv2d_batch_blocks_are_bitwise_invisible(
        monkeypatch, lowered_blocks, channels, kernel, stride, padding,
        with_bias):
    """No-grad conv2d lowers the batch in blocks of whole images; the blocks
    must never change a bit of the output.  Byte caps of 1 (1-image
    blocks), 2, 3 and 2.5 images (uneven blocks at batch 7) against one
    block, on images too small to cut and on images whose own GEMM is
    past the small-GEMM floor."""
    filters = 64
    rng = np.random.default_rng(channels * 1000 + kernel * 100
                                + stride * 10 + padding)
    w = Tensor(rng.normal(size=(filters, channels, kernel, kernel))
               .astype(np.float32))
    b = (Tensor(rng.normal(size=filters).astype(np.float32))
         if with_bias else None)
    big = kernel
    while _image_macs(channels, big, kernel, stride, padding,
                      filters) <= ops._BLAS_SMALL_MACS:
        big += 1
    for size in (kernel + 2, big):
        macs = _image_macs(channels, size, kernel, stride, padding, filters)
        image = macs // filters * 4
        for batch in (1, 7):
            x = Tensor(rng.normal(size=(batch, channels, size, size))
                       .astype(np.float32))
            monkeypatch.setattr(ops, "_COLS_BLOCK_BYTES", batch * image)
            whole = conv2d(x, w, b, stride=stride, padding=padding).data
            for cap in (1, 2 * image, 3 * image, 5 * image // 2):
                monkeypatch.setattr(ops, "_COLS_BLOCK_BYTES", cap)
                lowered_blocks.clear()
                out = conv2d(x, w, b, stride=stride, padding=padding).data
                assert out.flags.c_contiguous and out.dtype == np.float32
                assert out.shape == whole.shape
                assert out.tobytes() == whole.tobytes(), (size, batch, cap)
                assert sum(lowered_blocks) == batch
                if size == big:
                    assert max(lowered_blocks) == min(batch,
                                                      max(1, cap // image))
                elif len(lowered_blocks) > 1:
                    assert min(lowered_blocks) * macs > ops._BLAS_SMALL_MACS


def test_conv2d_grad_path_is_one_block(monkeypatch, lowered_blocks):
    """Backward needs the whole patch matrix, so a graph-building call
    ignores the block cap: same bits, and the input still gets a
    gradient."""
    rng = np.random.default_rng(3)
    x_data = rng.normal(size=(3, 8, 40, 40)).astype(np.float32)
    w = Tensor(rng.normal(size=(64, 8, 3, 3)).astype(np.float32))
    monkeypatch.setattr(ops, "_COLS_BLOCK_BYTES", 1)
    blocked = conv2d(Tensor(x_data), w, padding=1).data
    assert lowered_blocks == [1, 1, 1]
    x = Tensor(x_data, requires_grad=True)
    out = conv2d(x, w, padding=1)
    assert lowered_blocks[3:] == [3]
    assert out.requires_grad and out._backward is not None
    assert out.data.tobytes() == blocked.tobytes()
    out.sum().backward()
    assert x.grad is not None and x.grad.shape == x_data.shape


def test_no_grad_conv2d_peak_memory_is_bounded_by_the_block():
    """CapsNet PrimaryCaps at 96 samples: the unblocked patch matrix alone
    is 34 MiB; blocked, the call stays within its output, its input and a
    few blocks."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(96, 32, 20, 20)).astype(np.float32))
    w = Tensor(rng.normal(size=(32, 32, 9, 9)).astype(np.float32))
    patches = 96 * _image_macs(32, 20, 9, 2, 0, 32) // 32 * 4
    assert patches > 32 * ops._COLS_BLOCK_BYTES
    tracemalloc.start()
    try:
        out = conv2d(x, w, stride=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + x.data.nbytes + 4 * ops._COLS_BLOCK_BYTES
