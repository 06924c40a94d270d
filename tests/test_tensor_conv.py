"""Convolution primitive: reference correctness, gradients, shape rules."""

import tracemalloc

import numpy as np
import pytest
from scipy import signal

from repro.tensor import (Tensor, col2im, conv2d, conv_output_size, im2col,
                          ops)
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


def _oracle_lowering(x, w, stride, padding):
    """The patch and filter matrices of conv2d from whole-batch copies: a
    fresh zeroed padded array (NHWC from 8 channels on, else NCHW), its
    ``sliding_window_view`` windows, then their transpose-``reshape`` copy."""
    n, c, h, w_in = x.shape
    f, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w_in + 2 * padding - kw) // stride + 1
    inner = (slice(padding, padding + h), slice(padding, padding + w_in))
    if c >= 8:
        padded = np.zeros((n, h + 2 * padding, w_in + 2 * padding, c),
                          dtype=np.float32)
        padded[(slice(None),) + inner] = x.transpose(0, 2, 3, 1)
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        cols = windows.transpose(0, 1, 2, 4, 5, 3)
        w_mat = np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(f, -1)
    else:
        padded = np.zeros((n, c, h + 2 * padding, w_in + 2 * padding),
                          dtype=np.float32)
        padded[(slice(None), slice(None)) + inner] = x
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        cols = windows.transpose(0, 2, 3, 1, 4, 5)
        w_mat = w.reshape(f, -1)
    cols = np.ascontiguousarray(cols.reshape(n * oh * ow, c * kh * kw))
    return cols, w_mat, (oh, ow)


def _oracle_conv(x, w, b, stride, padding):
    """conv2d's numerics as separate whole-batch steps: the oracle lowering,
    ``cols @ w_mat.T``, the bias added to the GEMM output in place, then the
    NHWC -> NCHW copy."""
    cols, w_mat, (oh, ow) = _oracle_lowering(x, w, stride, padding)
    out = cols @ w_mat.T
    if b is not None:
        out += b
    return np.ascontiguousarray(
        out.reshape(len(x), oh, ow, len(w)).transpose(0, 3, 1, 2))


def _oracle_grads(x, w, grad, stride, padding):
    """Input, weight and bias gradients of the oracle convolution for the
    upstream gradient ``grad``, by the same products as conv2d's backward."""
    n, c, h, w_in = x.shape
    f, _, kh, kw = w.shape
    cols, w_mat, (oh, ow) = _oracle_lowering(x, w, stride, padding)
    grad_mat = grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
    dw = grad_mat.T @ cols
    dcols = grad_mat @ w_mat
    if c >= 8:
        dw = dw.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
        dcols = dcols.reshape(n, oh, ow, kh, kw, c).transpose(0, 5, 1, 2, 3, 4)
    else:
        dcols = dcols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dx = col2im(dcols, (h, w_in), stride, padding)
    return dx, dw.reshape(w.shape), grad_mat.sum(axis=0)


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
    expected = _oracle_conv(x, w, b, stride, padding)
    assert out.flags.c_contiguous
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


#: Geometries ``(C, H, F, K, stride, padding)`` of every DeepCaps conv a
#: Steps 2+4 sweep runs (3x3, padding 1, square inputs), each with the
#: stacked batch sizes its replays reach besides 96.
DEEPCAPS_CONVS = [
    ((1, 28, 16, 3, 1, 1), ()),
    ((16, 14, 16, 3, 1, 1), ()),
    ((16, 14, 32, 3, 2, 1), ()),
    ((16, 28, 16, 3, 2, 1), ()),
    ((32, 2, 32, 3, 1, 1), (192, 288, 384)),
    ((32, 4, 32, 3, 1, 1), (192, 288, 384)),
    ((32, 4, 32, 3, 2, 1), (192, 288, 384)),
    ((32, 7, 32, 3, 1, 1), (288,)),
    ((32, 7, 32, 3, 2, 1), (288,)),
    ((8, 2, 32, 3, 1, 1), (384, 768, 1152, 1536)),
]
#: CapsNet Conv1 and PrimaryCaps: 9x9 kernels without padding, one on each
#: lowering order.
CAPSNET_CONVS = [((1, 28, 32, 9, 1, 0), ()), ((32, 20, 32, 9, 2, 0), ())]
ORACLE_CASES = [(batch,) + geometry
                for geometry, stacked in DEEPCAPS_CONVS + CAPSNET_CONVS
                for batch in (1, 7, 96, 97) + stacked]


@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("batch,channels,size,filters,kernel,stride,padding",
                         ORACLE_CASES)
def test_conv2d_bitwise_matches_oracle_on_model_shapes(
        batch, channels, size, filters, kernel, stride, padding, with_bias):
    """Every conv shape of the Steps 2+4 DeepCaps sweep and of CapsNet, at
    batch sizes that cut into one block, several and uneven ones, equals
    the whole-batch oracle byte for byte."""
    rng = np.random.default_rng(batch * 1000 + channels * 10 + size)
    x = rng.normal(size=(batch, channels, size, size)).astype(np.float32)
    w = rng.normal(size=(filters, channels, kernel, kernel)).astype(
        np.float32)
    b = rng.normal(size=filters).astype(np.float32) if with_bias else None
    out = conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                 stride=stride, padding=padding).data
    expected = _oracle_conv(x, w, b, stride, padding)
    assert out.flags.c_contiguous and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("channels,stride,padding", [
    (3, 1, 1), (3, 2, 0), (16, 1, 1), (16, 2, 0),
])
def test_conv2d_grad_path_matches_oracle(channels, stride, padding):
    """A graph-building call: output and the input, weight and bias
    gradients equal the oracle's byte for byte."""
    rng = np.random.default_rng(channels + stride * 10 + padding)
    x_data = rng.normal(size=(7, channels, 9, 9)).astype(np.float32)
    w_data = rng.normal(size=(12, channels, 3, 3)).astype(np.float32)
    b_data = rng.normal(size=12).astype(np.float32)
    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    out = conv2d(x, w, b, stride=stride, padding=padding)
    grad = rng.normal(size=out.shape).astype(np.float32)
    (out * Tensor(grad)).sum().backward()
    expected = _oracle_conv(x_data, w_data, b_data, stride, padding)
    assert out.data.tobytes() == expected.tobytes()
    dx, dw, db = _oracle_grads(x_data, w_data, grad, stride, padding)
    assert x.grad.tobytes() == dx.astype(np.float32).tobytes()
    assert w.grad.tobytes() == dw.astype(np.float32).tobytes()
    assert b.grad.tobytes() == db.astype(np.float32).tobytes()


@pytest.mark.parametrize("name,kwargs", [
    ("stride", {"stride": 0}), ("stride", {"stride": -1}),
    ("padding", {"padding": -1}),
])
def test_conv2d_rejects_bad_stride_and_padding(name, kwargs):
    """A stride below 1 or a negative padding is a ValueError naming the
    argument, from conv2d, conv_output_size and im2col alike."""
    x = np.zeros((1, 3, 6, 6), dtype=np.float32)
    stride, padding = kwargs.get("stride", 1), kwargs.get("padding", 0)
    with pytest.raises(ValueError, match=f"{name} must be"):
        conv2d(Tensor(x), Tensor(np.zeros((2, 3, 3, 3))), **kwargs)
    with pytest.raises(ValueError, match=f"{name} must be"):
        conv_output_size(6, 3, stride, padding)
    with pytest.raises(ValueError, match=f"{name} must be"):
        im2col(x, (3, 3), stride, padding)


@pytest.mark.parametrize("channels", [3, 16])
@pytest.mark.parametrize("requires_grad", [False, True])
def test_conv2d_empty_batch(channels, requires_grad):
    x = Tensor(np.zeros((0, channels, 6, 6)), requires_grad=requires_grad)
    w = Tensor(np.ones((4, channels, 3, 3)))
    out = conv2d(x, w, Tensor(np.ones(4)), padding=1)
    assert out.shape == (0, 4, 6, 6) and out.data.dtype == np.float32
    if requires_grad:
        out.sum().backward()
        assert x.grad.shape == x.data.shape


def _image_macs(channels, size, kernel, stride, padding, filters):
    """Multiply-adds of one image's conv GEMM."""
    side = conv_output_size(size, kernel, stride, padding)
    return side * side * channels * kernel * kernel * filters


@pytest.fixture
def lowered_blocks(monkeypatch):
    """Image counts of the blocks conv2d plans its batch in, in call order."""
    sizes = []
    plan = ops._conv_blocks

    def spy(*args):
        bounds = plan(*args)
        sizes.extend(hi - lo for lo, hi in zip(bounds, bounds[1:]))
        return bounds

    monkeypatch.setattr(ops, "_conv_blocks", spy)
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
