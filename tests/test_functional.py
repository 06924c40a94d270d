"""Composite functions: squash, softmax, lengths, one-hot."""

import numpy as np
import pytest

from repro.tensor import (Tensor, capsule_lengths, log_softmax, one_hot,
                          relu, softmax, squash)


class TestSquash:
    def test_bounds_length_below_one(self, rng):
        s = Tensor(rng.normal(0, 5, size=(10, 8)).astype(np.float32))
        v = squash(s, axis=1)
        norms = np.linalg.norm(v.data, axis=1)
        assert (norms < 1.0).all()

    def test_preserves_direction(self, rng):
        s_data = rng.normal(size=(4, 6)).astype(np.float32)
        v = squash(Tensor(s_data), axis=1)
        cosine = np.sum(v.data * s_data, axis=1) / (
            np.linalg.norm(v.data, axis=1) * np.linalg.norm(s_data, axis=1))
        np.testing.assert_allclose(cosine, np.ones(4), rtol=1e-4)

    def test_known_value(self):
        # |s| = 2 -> |v| = 4/5
        s = Tensor([[2.0, 0.0]])
        v = squash(s, axis=1)
        np.testing.assert_allclose(v.data, [[0.8, 0.0]], atol=1e-5)

    def test_small_input_quadratic(self):
        s = Tensor([[1e-3, 0.0]])
        v = squash(s, axis=1)
        np.testing.assert_allclose(np.linalg.norm(v.data), 1e-6, atol=1e-7)

    def test_zero_input_stable(self):
        v = squash(Tensor(np.zeros((2, 4))), axis=1)
        assert np.isfinite(v.data).all()
        np.testing.assert_allclose(v.data, 0.0)

    def test_monotone_in_norm(self):
        lengths = [0.5, 1.0, 2.0, 5.0]
        outs = [float(np.linalg.norm(
            squash(Tensor([[l, 0.0]]), axis=1).data)) for l in lengths]
        assert outs == sorted(outs)

    def test_axis_selection(self, rng):
        s = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
        v = squash(s, axis=2)
        assert (np.linalg.norm(v.data, axis=2) < 1).all()

    def test_differentiable(self):
        s = Tensor(np.ones((1, 3), dtype=np.float32), requires_grad=True)
        squash(s, axis=1).sum().backward()
        assert s.grad is not None and np.isfinite(s.grad).all()


class TestSoftmaxAndFriends:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(6, 9)).astype(np.float32))
        np.testing.assert_allclose(softmax(x, axis=1).data.sum(axis=1),
                                   np.ones(6), rtol=1e-5)

    def test_softmax_stability_large_values(self):
        x = Tensor([[1000.0, 1001.0]])
        s = softmax(x, axis=1).data
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s.sum(), 1.0, rtol=1e-5)

    @pytest.mark.parametrize("shape,axis", [
        ((216, 144, 10, 1, 1), 2), ((6, 9), -1), ((5, 4, 3), 0),
        ((3, 80), 1), ((7, 1), 1), ((9,), 0),
    ])
    def test_inference_softmax_max_is_bitwise_reduce(self, shape, axis):
        """The fast path's slice-wise max equals ``data.max`` bit for bit,
        rows with -inf, +-0 and NaN included, and so does the softmax."""
        from repro.tensor.tensor import _max_keepdims
        rng = np.random.default_rng(len(shape) * 10 + axis)
        length = shape[axis]
        rest = shape[:axis % len(shape)] + shape[axis % len(shape) + 1:]
        rows = rng.normal(size=(length, int(np.prod(rest)))).astype(
            np.float32)  # one softmax row per column
        for value, share in ((0.0, 5), (-0.0, 5), (-np.inf, 30),
                             (np.nan, 60)):
            rows.flat[rng.integers(0, rows.size, max(1, rows.size // share))] \
                = value
        rows[:, 0] = 0.0       # a row of both zero signs
        rows[::2, 0] = -0.0
        rows[:, -1] = -np.inf  # an all -inf row
        data = np.ascontiguousarray(
            np.moveaxis(rows.reshape((length,) + rest), 0, axis))
        expected = data.max(axis=axis, keepdims=True)
        assert _max_keepdims(data, axis).tobytes() == expected.tobytes()
        with np.errstate(invalid="ignore"):
            exps = np.exp(data - expected)
            reference = exps / exps.sum(axis=axis, keepdims=True)
            fast = Tensor(data).softmax(axis=axis).data
        assert fast.tobytes() == reference.tobytes()

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 5)).astype(np.float32))
        np.testing.assert_allclose(log_softmax(x, axis=1).data,
                                   np.log(softmax(x, axis=1).data),
                                   atol=1e-5)

    def test_relu(self):
        np.testing.assert_allclose(relu(Tensor([-1.0, 2.0])).data, [0, 2])

    def test_capsule_lengths(self):
        caps = Tensor([[[3.0, 4.0], [0.0, 1.0]]])
        np.testing.assert_allclose(capsule_lengths(caps).data, [[5.0, 1.0]],
                                   rtol=1e-5)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_dtype_and_shape(self):
        out = one_hot(np.array([[1], [0]]), 2)
        assert out.dtype == np.float32
        assert out.shape == (2, 1, 2)
