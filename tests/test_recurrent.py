"""GRU step semantics, pixel-wise encoding properties and the classifier."""

import math

import numpy as np
import pytest

from akmnet import tensor as T
from akmnet.gradcheck import grad_check
from akmnet.recurrent import (ClassifierHead, GruCell, GruParams,
                              _gru_step_batch, classify, cross_entropy,
                              gru_step, pixelwise_encode, total_loss)
from akmnet.rng import RngStream
from akmnet.tensor import Tensor


def zero_cell(hidden, inp, dtype=np.float64):
    shape = (hidden, hidden + inp + 1)
    return GruCell(wz=Tensor(np.zeros(shape), dtype=dtype),
                   wr=Tensor(np.zeros(shape), dtype=dtype),
                   wh=Tensor(np.zeros(shape), dtype=dtype))


def random_gru(input_size, hidden, layers, seed, dtype=np.float64):
    return GruParams(input_size, hidden_size=hidden, n_layers=layers,
                     rng=RngStream(seed), dtype=dtype)


class TestGruStep:
    def test_zero_weights_zero_state(self):
        cell = zero_cell(3, 2)
        h = gru_step(Tensor(np.zeros(3), dtype=np.float64),
                     Tensor(np.ones(2), dtype=np.float64), cell)
        np.testing.assert_allclose(h.data, 0.0)

    def test_zero_weights_halve_state(self):
        cell = zero_cell(3, 2)
        v = np.array([1.0, -2.0, 4.0])
        h = gru_step(Tensor(v, dtype=np.float64),
                     Tensor(np.ones(2), dtype=np.float64), cell)
        np.testing.assert_allclose(h.data, 0.5 * v)

    def test_step_matches_manual_formula(self):
        rng = np.random.default_rng(0)
        hidden, inp = 3, 2
        cell = GruCell(*[Tensor(rng.normal(size=(hidden, hidden + inp + 1)),
                                requires_grad=True, dtype=np.float64)
                         for _ in range(3)])
        h_prev = rng.normal(size=hidden)
        x = rng.normal(size=inp)
        out = gru_step(Tensor(h_prev, dtype=np.float64),
                       Tensor(x, dtype=np.float64), cell).data

        stacked = np.concatenate([h_prev, x, [1.0]])
        z = 1.0 / (1.0 + np.exp(-(cell.wz.data @ stacked)))
        r = 1.0 / (1.0 + np.exp(-(cell.wr.data @ stacked)))
        cand = np.tanh(cell.wh.data @ np.concatenate([r * h_prev, x, [1.0]]))
        np.testing.assert_allclose(out, (1.0 - z) * h_prev + z * cand, atol=1e-12)

    def test_three_chained_steps_pass_grad_check(self):
        rng = np.random.default_rng(1)
        hidden, inp = 3, 2
        cell = GruCell(*[Tensor(rng.normal(size=(hidden, hidden + inp + 1)),
                                requires_grad=True, dtype=np.float64)
                         for _ in range(3)])
        xs = [Tensor(rng.normal(size=inp), dtype=np.float64) for _ in range(3)]
        readout = Tensor(rng.normal(size=hidden), dtype=np.float64)

        def loss():
            h = Tensor(np.zeros(hidden), dtype=np.float64)
            for x in xs:
                h = gru_step(h, x, cell)
            return T.sum_(T.mul(h, readout))

        report = grad_check(loss, [cell.wz, cell.wr, cell.wh], epsilon=1e-5,
                            names=["wz", "wr", "wh"])
        assert report.ok(1e-5), (report.max_rel_error, report.failures)


class TestPixelwiseEncode:
    def test_output_shape_and_default_width(self):
        gp = random_gru(64, 32, 2, seed=2, dtype=np.float32)
        feats = Tensor(np.random.default_rng(3).normal(size=(5, 64, 2, 2))
                       .astype(np.float32))
        g = pixelwise_encode(feats, gp)
        assert g.values.shape == (64, 2, 2)
        assert g.channels == 64

    def test_single_frame_sequence(self):
        gp = random_gru(4, 3, 2, seed=4)
        feats = Tensor(np.random.default_rng(5).normal(size=(1, 4, 2, 2)),
                       dtype=np.float64)
        g = pixelwise_encode(feats, gp)
        assert g.values.shape == (6, 2, 2)
        assert np.all(np.isfinite(g.values.data))

    def test_spatially_constant_input_gives_identical_columns(self):
        gp = random_gru(4, 3, 2, seed=6)
        rng = np.random.default_rng(7)
        per_frame = rng.normal(size=(5, 4))
        feats = np.broadcast_to(per_frame[:, :, None, None], (5, 4, 3, 3)).copy()
        g = pixelwise_encode(Tensor(feats, dtype=np.float64), gp).values.data
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(g[:, i, j], g[:, 0, 0])

    def test_positions_are_independent(self):
        # changing one position's pixels must not move any other position
        gp = random_gru(4, 3, 1, seed=8)
        rng = np.random.default_rng(9)
        base = rng.normal(size=(4, 4, 2, 2))
        bumped = base.copy()
        bumped[:, :, 1, 1] += 1.0
        g_base = pixelwise_encode(Tensor(base, dtype=np.float64), gp).values.data
        g_bump = pixelwise_encode(Tensor(bumped, dtype=np.float64), gp).values.data
        np.testing.assert_array_equal(g_base[:, 0, 0], g_bump[:, 0, 0])
        np.testing.assert_array_equal(g_base[:, 0, 1], g_bump[:, 0, 1])
        np.testing.assert_array_equal(g_base[:, 1, 0], g_bump[:, 1, 0])
        assert not np.array_equal(g_base[:, 1, 1], g_bump[:, 1, 1])

    def test_averaging_commutes_with_direction_concat(self):
        gp = random_gru(4, 3, 2, seed=10)
        feats = Tensor(np.random.default_rng(11).normal(size=(5, 4, 2, 2)),
                       dtype=np.float64)
        g = pixelwise_encode(feats, gp)
        steps = per_op_steps(feats, gp)
        n = len(steps)
        flat = g.values.data.reshape(6, 4)
        # recompute each half's average with the same exactly rounded scheme
        for half, sl in (("fwd", slice(0, 3)), ("rev", slice(3, 6))):
            stacked = np.stack([s.data[:, sl] for s in steps])  # (N, P, Hd)
            for pos in range(4):
                for cch in range(3):
                    expect = math.fsum((stacked[:, pos, cch] * (1.0 / n)).tolist())
                    got = flat[sl, pos][cch]
                    assert got == expect, (half, pos, cch)

    def test_temporal_reversal_swaps_direction_halves_exactly(self):
        # single layer: reversing frames and exchanging the direction cells
        # must reproduce G with its two halves swapped, bit for bit
        gp = random_gru(4, 3, 1, seed=12)
        swapped = random_gru(4, 3, 1, seed=12)
        swapped.layers = [(gp.layers[0][1], gp.layers[0][0])]
        feats = np.random.default_rng(13).normal(size=(6, 4, 2, 2))
        g = pixelwise_encode(Tensor(feats, dtype=np.float64), gp).values.data
        g_rev = pixelwise_encode(Tensor(feats[::-1].copy(), dtype=np.float64),
                                 swapped).values.data
        np.testing.assert_array_equal(g[:3], g_rev[3:])
        np.testing.assert_array_equal(g[3:], g_rev[:3])

    def test_temporal_reversal_two_layers_with_column_permutation(self):
        # two layers: the deeper layer's input halves swap as well, so its
        # matrices need the matching column permutation; equality is then up
        # to summation rounding only
        hidden, inp = 3, 4
        gp = random_gru(inp, hidden, 2, seed=14)

        def permute_cols(cell):
            # input block of layer-2 matrices is [hidden | 2*hidden inputs | 1]
            def pc(m):
                d = m.data.copy()
                x0 = hidden
                d[:, x0:x0 + hidden], d[:, x0 + hidden:x0 + 2 * hidden] = \
                    d[:, x0 + hidden:x0 + 2 * hidden].copy(), d[:, x0:x0 + hidden].copy()
                return Tensor(d, dtype=np.float64)
            return GruCell(wz=pc(cell.wz), wr=pc(cell.wr), wh=pc(cell.wh))

        swapped = random_gru(inp, hidden, 2, seed=14)
        swapped.layers = [
            (gp.layers[0][1], gp.layers[0][0]),
            (permute_cols(gp.layers[1][1]), permute_cols(gp.layers[1][0])),
        ]
        feats = np.random.default_rng(15).normal(size=(5, inp, 2, 2))
        g = pixelwise_encode(Tensor(feats, dtype=np.float64), gp).values.data
        g_rev = pixelwise_encode(Tensor(feats[::-1].copy(), dtype=np.float64),
                                 swapped).values.data
        np.testing.assert_allclose(g[:hidden], g_rev[hidden:], atol=1e-12)
        np.testing.assert_allclose(g[hidden:], g_rev[:hidden], atol=1e-12)

    def test_encoding_passes_grad_check(self):
        gp = random_gru(3, 2, 2, seed=16)
        rng = np.random.default_rng(17)
        feats = Tensor(rng.normal(size=(3, 3, 2, 2)), requires_grad=True,
                       dtype=np.float64)
        readout = Tensor(rng.normal(size=(4, 2, 2)), dtype=np.float64)

        def loss():
            g = pixelwise_encode(feats, gp)
            return T.sum_(T.mul(g.values, readout))

        params = [feats] + [p for _, p in gp.parameters()]
        names = ["feats"] + [n for n, _ in gp.parameters()]
        report = grad_check(loss, params, epsilon=1e-5, names=names)
        assert report.ok(1e-5), (report.max_rel_error, report.failures)


def per_op_steps(feats, gru_params):
    """The unfused graph of the bi-GRU, one node per operation, up to the
    last layer's per-step outputs, (H*W, 2*hidden) each."""
    n, c, gh, gw = feats.shape
    p = gh * gw
    dtype = feats.data.dtype
    seq = T.transpose(feats.reshape(n, c, p), (0, 2, 1))
    inputs = [T.gather(seq, [i]).reshape(p, c) for i in range(n)]
    ones_col = T.constant(np.ones((p, 1)), dtype=dtype)

    def run(cell, reverse):
        w_t = [T.transpose(w, (1, 0)) for w in (cell.wz, cell.wr, cell.wh)]
        h = T.constant(np.zeros((p, cell.hidden_size)), dtype=dtype)
        outputs = [None] * n
        for i in (range(n - 1, -1, -1) if reverse else range(n)):
            h = _gru_step_batch(h, inputs[i], ones_col, *w_t)
            outputs[i] = h
        return outputs

    for fwd_cell, rev_cell in gru_params.layers:
        fwd, rev = run(fwd_cell, False), run(rev_cell, True)
        inputs = [T.cat([f, r], axis=1) for f, r in zip(fwd, rev)]
    return inputs


def per_op_encode(feats, gru_params):
    """The unfused graph of the bi-GRU encoding, one node per operation:
    the reference ``tensor.gru_encode`` must match bit for bit."""
    n, c, gh, gw = feats.shape
    p = gh * gw
    dtype = feats.data.dtype
    inputs = per_op_steps(feats, gru_params)
    c_out = gru_params.output_size
    rows = T.cat([s.reshape(1, p * c_out) for s in inputs], axis=0)
    weights = T.constant(np.full(n, 1.0 / n), dtype=dtype)
    averaged = T.exact_weighted_sum(rows, weights).reshape(p, c_out)
    return T.transpose(averaged, (1, 0)).reshape(c_out, gh, gw)


class TestFusedEncodeBitIdentity:
    # dtype, layers, steps, grid, channels, hidden, zeroed frame, feature
    # grad, gradients already present, scale of the upstream gradient (0
    # makes every gradient a signed zero)
    CASES = [
        (np.float32, 2, 7, (2, 2), 3, 8, None, True, False, 1.0),
        (np.float64, 2, 7, (2, 2), 3, 8, None, True, False, 1.0),
        (np.float32, 1, 5, (1, 3), 3, 4, None, True, False, 1.0),
        (np.float64, 3, 6, (2, 1), 3, 3, None, True, False, 1.0),
        (np.float32, 3, 9, (3, 3), 3, 5, None, True, False, 1.0),
        (np.float32, 2, 1, (2, 2), 3, 6, None, True, False, 1.0),
        (np.float64, 1, 1, (1, 1), 3, 1, None, True, False, 1.0),
        (np.float64, 2, 9, (1, 2), 3, 1, None, True, False, 1.0),
        (np.float32, 2, 8, (2, 2), 3, 8, 3, True, False, 1.0),
        (np.float64, 2, 6, (2, 2), 3, 4, 0, True, False, 1.0),
        (np.float32, 2, 6, (2, 2), 3, 8, None, False, False, 1.0),
        (np.float64, 1, 4, (1, 2), 3, 3, None, False, False, 1.0),
        (np.float32, 2, 6, (2, 2), 3, 8, None, True, True, 1.0),
        (np.float64, 3, 5, (1, 2), 3, 2, 4, True, True, 1.0),
        (np.float32, 2, 5, (2, 2), 3, 4, None, True, False, 0.0),
        (np.float32, 2, 2, (2, 2), 1, 3, None, True, False, 1.0),
        # the recovery, desk and paper presets' GRU shapes
        (np.float32, 2, 14, (2, 2), 16, 8, None, True, False, 1.0),
        (np.float32, 2, 32, (2, 2), 64, 32, None, True, False, 1.0),
        (np.float32, 2, 3, (4, 4), 512, 32, None, True, False, 1.0),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_fused_matches_per_op_graph(self, case):
        (dtype, layers, steps, (gh, gw), channels, hidden, zeroed, feat_grad,
         preset, scale) = self.CASES[case]
        rng = np.random.default_rng(100 + case)
        gp = random_gru(channels, hidden, layers, seed=200 + case, dtype=dtype)
        x = rng.normal(size=(steps, channels, gh, gw))
        if zeroed is not None:
            x[zeroed] = 0.0
        readout = T.constant(scale * rng.normal(size=(2 * hidden, gh, gw)), dtype=dtype)
        results = []
        for encode in (per_op_encode, lambda f, g: pixelwise_encode(f, g).values):
            feats = Tensor(x, requires_grad=feat_grad, dtype=dtype)
            leaves = [feats] + [p for _, p in gp.parameters()]
            for leaf in leaves:
                leaf.grad = np.full(leaf.shape, 0.25, dtype=dtype) if preset else None
            out = encode(feats, gp)
            T.sum_(T.mul(out, readout)).backward()
            results.append([out.data.tobytes()] +
                           [None if leaf.grad is None else leaf.grad.tobytes()
                            for leaf in leaves])
        names = ["output", "feats"] + [n for n, _ in gp.parameters()]
        for name, ref, fused in zip(names, *results):
            assert ref == fused, name
        if not feat_grad:
            assert results[1][1] is None

    def test_one_node_per_encoding(self):
        gp = random_gru(3, 4, 2, seed=30)
        feats = Tensor(np.random.default_rng(31).normal(size=(6, 3, 2, 2)),
                       requires_grad=True, dtype=np.float64)
        out = pixelwise_encode(feats, gp).values
        assert out.op == "gru_encode"
        assert out.parents == (feats,) + tuple(p for _, p in gp.parameters())


class TestClassifier:
    def test_zero_weights_uniform(self):
        head = ClassifierHead(8, 4, RngStream(18), dtype=np.float64)
        head.weight.data[...] = 0.0
        g = Tensor(np.random.default_rng(19).normal(size=(2, 2, 2)), dtype=np.float64)
        probs = classify(g, head)
        np.testing.assert_allclose(probs.data, 0.25)

    def test_eval_mode_is_deterministic(self):
        head = ClassifierHead(8, 3, RngStream(20), dtype=np.float64)
        g = Tensor(np.random.default_rng(21).normal(size=(2, 2, 2)), dtype=np.float64)
        a = classify(g, head).data
        b = classify(g, head).data
        np.testing.assert_array_equal(a, b)

    def test_training_dropout_needs_rng_and_differs(self):
        head = ClassifierHead(8, 3, RngStream(22), dtype=np.float64)
        g = Tensor(np.random.default_rng(23).normal(size=(2, 2, 2)), dtype=np.float64)
        with pytest.raises(ValueError, match="rng"):
            classify(g, head, training=True)
        stream = RngStream(24)
        a = classify(g, head, training=True, rng=stream).data
        b = classify(g, head, training=True, rng=stream).data
        assert not np.array_equal(a, b)

    def test_probabilities_normalized(self):
        head = ClassifierHead(8, 5, RngStream(25), dtype=np.float64)
        g = Tensor(np.random.default_rng(26).normal(size=(2, 2, 2)), dtype=np.float64)
        probs = classify(g, head).data
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestLosses:
    def test_uniform_cross_entropy(self):
        probs = Tensor(np.full(4, 0.25), dtype=np.float64)
        assert cross_entropy(probs, 2).item() == pytest.approx(math.log(4.0))

    def test_confident_correct_goes_to_zero(self):
        probs = Tensor(np.array([1e-9, 1.0 - 2e-9, 1e-9]), dtype=np.float64)
        assert cross_entropy(probs, 1).item() == pytest.approx(0.0, abs=1e-8)

    def test_label_out_of_range(self):
        probs = Tensor(np.full(3, 1 / 3), dtype=np.float64)
        with pytest.raises(ValueError, match="label"):
            cross_entropy(probs, 3)

    def test_total_loss_sums_terms(self):
        probs = Tensor(np.full(4, 0.25), dtype=np.float64)
        extra = Tensor(np.array(1.48), dtype=np.float64)
        omega = total_loss(probs, 0, extra)
        assert omega.item() == pytest.approx(math.log(4.0) + 1.48)
        assert total_loss(probs, 0, None).item() == pytest.approx(math.log(4.0))
