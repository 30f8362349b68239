"""Property tests: broadcasting gradients, adjoints of the structural ops and
the invariants of the shared selection tail, over generated shapes."""

import math

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from akmnet import tensor as T
from akmnet.rng import RngStream
from akmnet.selection import init_akm_params
from akmnet.tensor import Tensor
from akmnet.variants import make_variant

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


def reduce_to(full, shape):
    """Sum ``full`` onto ``shape`` by the broadcast index map, element by
    element: an independent reference for ``_unbroadcast``."""
    source = np.broadcast_to(np.arange(int(np.prod(shape))).reshape(shape),
                             full.shape)
    sums = np.bincount(source.ravel(), weights=full.ravel(),
                       minlength=int(np.prod(shape)))
    return sums.reshape(shape)


# local partials (d out / d a, d out / d b) on the broadcast grid
PARTIALS = {
    "add": lambda a, b: (np.ones_like(a), np.ones_like(b)),
    "sub": lambda a, b: (np.ones_like(a), -np.ones_like(b)),
    "mul": lambda a, b: (b, a),
    "div": lambda a, b: (1.0 / b, -a / (b * b)),
}


@PROPERTY
@given(op=st.sampled_from(sorted(PARTIALS)),
       shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                max_side=4),
       seed=st.integers(0, 2 ** 16))
def test_broadcast_gradient_sums_over_broadcast_axes(op, shapes, seed):
    (shape_a, shape_b), full = shapes.input_shapes, shapes.result_shape
    rng = np.random.default_rng(seed)
    a = leaf(rng.normal(size=shape_a))
    b = leaf(0.5 + np.abs(rng.normal(size=shape_b)))
    upstream = rng.normal(size=full)
    out = getattr(T, op)(a, b)
    assert out.shape == full
    T.sum_(T.mul(out, T.constant(upstream, dtype=np.float64))).backward()
    a_full = np.broadcast_to(a.data, full)
    b_full = np.broadcast_to(b.data, full)
    da, db = PARTIALS[op](a_full, b_full)
    np.testing.assert_allclose(a.grad, reduce_to(upstream * da, shape_a),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.grad, reduce_to(upstream * db, shape_b),
                               rtol=1e-12, atol=1e-12)


def assert_adjoint(inputs, output, upstream):
    """<f(x), u> == sum_i <x_i, f_i^T(u)> for a linear op f."""
    lhs = math.fsum((output.data * upstream).ravel().tolist())
    rhs = math.fsum(float(np.vdot(x.data, x.grad)) for x in inputs)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12), (lhs, rhs)


def backward_with(output, upstream):
    T.sum_(T.mul(output, T.constant(upstream, dtype=np.float64))).backward()


@PROPERTY
@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
       extents=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       axis_pick=st.integers(0, 2), seed=st.integers(0, 2 ** 16))
def test_cat_adjoint(shape, extents, axis_pick, seed):
    rng = np.random.default_rng(seed)
    axis = axis_pick % len(shape)
    parts = []
    for extent in extents:
        part_shape = list(shape)
        part_shape[axis] = extent
        parts.append(leaf(rng.normal(size=part_shape)))
    out = T.cat(parts, axis=axis)
    upstream = rng.normal(size=out.shape)
    backward_with(out, upstream)
    assert_adjoint(parts, out, upstream)


@PROPERTY
@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
       data=st.data(), seed=st.integers(0, 2 ** 16))
def test_gather_adjoint_with_repeated_indices(shape, data, seed):
    rng = np.random.default_rng(seed)
    indices = data.draw(st.lists(st.integers(0, shape[0] - 1), min_size=1,
                                 max_size=2 * shape[0] + 2))
    x = leaf(rng.normal(size=shape))
    out = T.gather(x, indices)
    upstream = rng.normal(size=out.shape)
    backward_with(out, upstream)
    assert_adjoint([x], out, upstream)


@PROPERTY
@given(shape=hnp.array_shapes(min_dims=1, max_dims=4, max_side=4),
       data=st.data(), seed=st.integers(0, 2 ** 16))
def test_transpose_adjoint(shape, data, seed):
    rng = np.random.default_rng(seed)
    axes = data.draw(st.permutations(range(len(shape))))
    x = leaf(rng.normal(size=shape))
    out = T.transpose(x, axes)
    upstream = rng.normal(size=out.shape)
    backward_with(out, upstream)
    assert_adjoint([x], out, upstream)


@PROPERTY
@given(variant=st.sampled_from(["s123", "s13", "s23"]),
       t_len=st.integers(1, 24), channels=st.integers(1, 8),
       side=st.integers(1, 2), layout=st.sampled_from(["random", "constant",
                                                        "zero-rows"]),
       gate_grad=st.sampled_from(["surrogate", "local"]),
       seed=st.integers(0, 2 ** 16))
def test_shared_tail_invariants(variant, t_len, channels, side, layout,
                                gate_grad, seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t_len, channels, side, side))
    if layout == "constant":
        feats[:] = feats[0]
    elif layout == "zero-rows":
        feats[rng.random(t_len) < 0.5] = 0.0
    akm = init_akm_params(channels, RngStream(seed), dtype=np.float64)
    _, sel, _ = make_variant(variant).select(Tensor(feats, dtype=np.float64),
                                             akm, gate_grad=gate_grad)

    beta = sel.beta.data.astype(np.float64)
    mean = math.fsum(beta.tolist()) / t_len
    above = [t + 1 for t in range(t_len) if beta[t] > mean]
    if above:
        assert sel.indices == tuple(above) and not sel.fallback
    else:
        assert sel.indices == (int(np.argmax(beta)) + 1,) and sel.fallback
    assert all(1 <= i <= t_len for i in sel.indices)
    assert all(a < b for a, b in zip(sel.indices, sel.indices[1:]))

    kept = np.zeros(t_len, dtype=bool)
    kept[np.asarray(sel.indices) - 1] = True
    relaxed = sel.relaxed.data
    assert np.array_equal(relaxed[kept], sel.beta.data[kept])
    assert not relaxed[~kept].any()
