"""Forward values, backward rules and shape errors of the autodiff core."""

import numpy as np
import pytest

from akmnet import tensor as T
from akmnet.gradcheck import grad_check
from akmnet.rng import RngStream, dropout_mask
from akmnet.tensor import ShapeMismatch, Tensor


def leaf(values, dtype=np.float64):
    return Tensor(np.asarray(values, dtype=dtype), requires_grad=True, dtype=dtype)


def conv_reference(x, w, b, stride, pad):
    """Direct quadruple-loop convolution used as the oracle."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for yi in range(ho):
                for xi in range(wo):
                    patch = xp[ni, :, yi * stride:yi * stride + kh, xi * stride:xi * stride + kw]
                    out[ni, co, yi, xi] = np.sum(patch * w[co])
                    if b is not None:
                        out[ni, co, yi, xi] += b[co]
    return out


class TestForward:
    def test_add_elementwise(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == pytest.approx(0.5)

    def test_softmax_uniform_logits(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25])

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=(5, 4)) * 10.0
            out = T.softmax(Tensor(x, dtype=np.float64), axis=-1).data
            assert np.all(out >= 0.0)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(out.data, a @ b)

    def test_affine_matches_numpy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        out = T.affine(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                       Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(out.data, x @ w + b)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_conv2d_matches_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                       Tensor(b, dtype=np.float64), stride=stride, padding=pad)
        np.testing.assert_allclose(out.data, conv_reference(x, w, b, stride, pad), atol=1e-12)

    def test_frame_norm_standardizes_each_plane(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2, 4, 4)) * 5.0 + 2.0
        ones = Tensor(np.ones(2), dtype=np.float64)
        zeros = Tensor(np.zeros(2), dtype=np.float64)
        out = T.frame_norm(Tensor(x, dtype=np.float64), ones, zeros).data
        np.testing.assert_allclose(out.mean(axis=(2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=(2, 3)), 1.0, atol=1e-4)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 4, 5))
        out = T.global_avg_pool(Tensor(x, dtype=np.float64))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))

    def test_gather_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), dtype=np.float64)
        out = T.gather(x, [2, 0, 2])
        np.testing.assert_allclose(out.data, x.data[[2, 0, 2]])

    def test_cat_and_split_shapes(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((2, 2)))
        out = T.cat([a, b], axis=1)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out.data[:, :3], 1.0)
        np.testing.assert_allclose(out.data[:, 3:], 0.0)

    def test_cosine_similarity_endpoints(self):
        v = Tensor(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
        rows = Tensor(np.stack([v.data, -v.data, np.zeros(3)]), dtype=np.float64)
        np.testing.assert_allclose(T.cosine_rows(rows, v).data, [1.0, -1.0, 0.0],
                                   atol=1e-7)
        assert T.cosine_rows(rows, Tensor(np.zeros(3), dtype=np.float64)).data.tolist() \
            == [0.0, 0.0, 0.0]

    def test_exact_weighted_sum_is_permutation_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = int(rng.integers(2, 12))
            mat = rng.normal(size=(t, 4)).astype(np.float32)
            w = rng.normal(size=t).astype(np.float32)
            base = T.exact_weighted_sum(Tensor(mat), Tensor(w)).data
            perm = rng.permutation(t)
            shuf = T.exact_weighted_sum(Tensor(mat[perm]), Tensor(w[perm])).data
            assert np.array_equal(base, shuf)

    def test_float32_is_the_default_and_sticks(self):
        out = T.mul(Tensor([1.0, 2.0]), 3.0)
        assert out.data.dtype == np.float32
        np.testing.assert_allclose(out.data, [3.0, 6.0])


class TestBackward:
    def test_square_gradient(self):
        x = leaf(3.0)
        y = T.mul(x, x)
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_sigmoid_slope_at_zero(self):
        x = leaf(np.zeros(4))
        loss = T.sum_(T.sigmoid(x))
        loss.backward()
        np.testing.assert_allclose(x.grad, 0.25)

    def test_constant_leaf_gets_zero(self):
        x = leaf(2.0)
        unused = leaf(np.ones(3))
        loss = T.mul(x, x)
        grads = T.gradients(loss, [x, unused])
        assert grads[0] == pytest.approx(4.0)
        np.testing.assert_allclose(grads[1], 0.0)

    def test_broadcast_gradient_shapes(self):
        a = leaf(np.ones((3, 4)))
        b = leaf(np.ones(4))
        loss = T.sum_(T.mul(a, b))
        loss.backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0)

    def test_repeated_backward_accumulates(self):
        x = leaf(2.0)
        for _ in range(2):
            y = T.mul(x, x)
            y.backward()
        assert x.grad == pytest.approx(8.0)

    def test_gather_scatter_adds_duplicates(self):
        x = leaf(np.zeros((3, 2)))
        out = T.gather(x, [1, 1, 0])
        T.sum_(out).backward()
        np.testing.assert_allclose(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_nonscalar_loss_rejected(self):
        x = leaf(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            T.add(x, x).backward()


class TestShapeErrors:
    def test_add_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"add.*\(2,\).*\(3,\)"):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeMismatch, match="matmul"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeMismatch, match="conv2d"):
            T.conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 4, 3, 3))))

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather(Tensor(np.ones((2, 2))), [0, 5])


class TestGradCheckApi:
    def test_quadratic_is_near_exact(self):
        x = leaf(1.5)
        report = grad_check(lambda: T.mul(x, x), [x], epsilon=1e-4)
        assert report.max_rel_error < 1e-6

    def test_two_class_linear_cross_entropy(self):
        rng = np.random.default_rng(11)
        w = leaf(rng.normal(size=(3, 2)))
        b = leaf(rng.normal(size=2))
        x = Tensor(rng.normal(size=3), dtype=np.float64)

        def loss():
            logits = T.affine(x, w, b)
            probs = T.softmax(logits.reshape(1, 2), axis=-1)
            return T.neg(T.log(T.gather(probs.reshape(2), [1]).sum()))

        report = grad_check(loss, [w, b], epsilon=1e-5)
        assert report.max_rel_error < 1e-5

    def test_epsilon_bounds_enforced(self):
        x = leaf(1.0)
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(lambda: T.mul(x, x), [x], epsilon=1e-2)

    def test_float32_params_rejected(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True, dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda: T.sum_(x), [x])


PRIMITIVE_CASES = {
    "add": lambda p: T.sum_(T.mul(T.add(p[0], p[1]), T.add(p[0], p[1]))),
    "sub": lambda p: T.sum_(T.mul(T.sub(p[0], p[1]), p[0])),
    "mul": lambda p: T.sum_(T.mul(p[0], p[1])),
    "div": lambda p: T.sum_(T.div(p[0], T.add(T.mul(p[1], p[1]), 1.0))),
    "relu": lambda p: T.sum_(T.mul(T.relu(p[0]), p[1])),
    "sigmoid": lambda p: T.sum_(T.sigmoid(T.mul(p[0], p[1]))),
    "tanh": lambda p: T.sum_(T.tanh(T.mul(p[0], p[1]))),
    "softmax": lambda p: T.sum_(T.mul(T.softmax(p[0], axis=-1), p[1])),
    "log": lambda p: T.sum_(T.log(T.add(T.mul(p[0], p[0]), 0.5))),
    "sqrt": lambda p: T.sum_(T.sqrt(T.add(T.mul(p[0], p[0]), 0.5))),
    "mean": lambda p: T.mean_(T.mul(p[0], p[1])),
    "cat": lambda p: T.sum_(T.mul(T.cat([p[0], p[1]], axis=0),
                                  T.cat([p[1], p[0]], axis=0))),
    "reshape_transpose": lambda p: T.sum_(T.mul(T.transpose(p[0].reshape(4, 5), (1, 0)),
                                                T.transpose(p[1].reshape(4, 5), (1, 0)))),
    "exact_weighted_sum": lambda p: T.sum_(T.exact_weighted_sum(
        p[0].reshape(5, 4), T.sum_(p[1].reshape(5, 4), axis=1))),
    "cosine": lambda p: T.sum_(T.mul(T.cosine_rows(p[0], T.sum_(p[1], axis=0)),
                                     T.sum_(p[1], axis=1))),
}


class TestGradCheckPrimitives:
    """Every primitive's backward agrees with central differences (f64, extents <= 5)."""

    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
    def test_elementwise_and_reductions(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        a = leaf(rng.normal(size=(4, 5)))
        b = leaf(rng.normal(size=(4, 5)))
        build = PRIMITIVE_CASES[name]
        report = grad_check(lambda: build([a, b]), [a, b], epsilon=1e-5)
        assert report.ok(1e-5), f"{name}: {report.max_rel_error}, failures={report.failures}"

    def test_matmul(self):
        rng = np.random.default_rng(21)
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(4, 2)))
        report = grad_check(lambda: T.sum_(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b])
        assert report.ok(1e-5)

    def test_affine(self):
        rng = np.random.default_rng(22)
        x = leaf(rng.normal(size=(3, 4)))
        w = leaf(rng.normal(size=(4, 2)))
        b = leaf(rng.normal(size=2))
        report = grad_check(lambda: T.sum_(T.sigmoid(T.affine(x, w, b))), [x, w, b])
        assert report.ok(1e-5)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d(self, stride, pad):
        rng = np.random.default_rng(23)
        x = leaf(rng.normal(size=(2, 2, 5, 4)))
        w = leaf(rng.normal(size=(3, 2, 3, 3)))
        b = leaf(rng.normal(size=3))
        report = grad_check(
            lambda: T.sum_(T.tanh(T.conv2d(x, w, b, stride=stride, padding=pad))),
            [x, w, b])
        assert report.ok(1e-5)

    def test_frame_norm(self):
        rng = np.random.default_rng(24)
        x = leaf(rng.normal(size=(2, 3, 4, 4)))
        gain = leaf(rng.normal(size=3) + 1.0)
        bias = leaf(rng.normal(size=3))
        report = grad_check(lambda: T.sum_(T.tanh(T.frame_norm(x, gain, bias))),
                            [x, gain, bias])
        assert report.ok(1e-5)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(25)
        x = leaf(rng.normal(size=(2, 3, 4, 4)))
        report = grad_check(lambda: T.sum_(T.mul(T.global_avg_pool(x),
                                                 T.global_avg_pool(x))), [x])
        assert report.ok(1e-5)

    def test_gather(self):
        rng = np.random.default_rng(26)
        x = leaf(rng.normal(size=(5, 3)))
        report = grad_check(lambda: T.sum_(T.mul(T.gather(x, [4, 0, 0, 2]),
                                                 T.gather(x, [1, 1, 3, 2]))), [x])
        assert report.ok(1e-5)


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(1234)
        b = RngStream(1234)
        np.testing.assert_array_equal(a.normal((3, 3)), b.normal((3, 3)))
        np.testing.assert_array_equal(a.integers(0, 100, size=10), b.integers(0, 100, size=10))

    def test_children_are_independent_and_stable(self):
        s = RngStream(5)
        a1 = s.child("init").normal((3,))
        a2 = RngStream(5).child("init").normal((3,))
        other = s.child("data").normal((3,))
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, other)


class TestDropoutMask:
    def test_p_zero_is_identity(self):
        m = dropout_mask((3, 3), 0.0, RngStream(0))
        np.testing.assert_array_equal(m.data, 1.0)

    def test_eval_mode_is_identity(self):
        m = dropout_mask((3, 3), 0.9, RngStream(0), training=False)
        np.testing.assert_array_equal(m.data, 1.0)

    def test_survivors_scaled_to_two_at_half(self):
        m = dropout_mask((100,), 0.5, RngStream(1)).data
        assert set(np.unique(m)) <= {0.0, 2.0}
        assert 0.0 in m and 2.0 in m

    def test_seed_reset_reproduces_mask(self):
        first = dropout_mask((50,), 0.5, RngStream(7)).data
        np.testing.assert_array_equal(dropout_mask((50,), 0.5, RngStream(7)).data, first)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_mask((2,), 1.0, RngStream(0))
