import math

import numpy as np
import pytest

from akmnet import RngStream, Tensor, build_model
from akmnet.data import SynthSpec, synth_generate
from akmnet.train import (
    DivergenceError,
    TrainConfig,
    cosine_lr,
    sgd_momentum_step,
    train,
)

from test_model import tiny_model_config


def tiny_synth(n_clips=6, n_classes=2, seed=0):
    spec = SynthSpec(n_classes=n_classes, t_min=4, t_max=6, signal_len=2,
                     noise_scale=0.05, amplitude=0.4, side=8, seed=seed)
    return synth_generate(spec, n_clips=n_clips, n_subjects=2)


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0, 40, 1e-3, 1e-8) == pytest.approx(1e-3, rel=1e-12)
        assert cosine_lr(40, 40, 1e-3, 1e-8) == pytest.approx(1e-8, rel=1e-12)

    def test_midpoint(self):
        mid = cosine_lr(20, 40, 1e-3, 1e-8)
        assert mid == pytest.approx((1e-3 + 1e-8) / 2, rel=1e-12)

    def test_monotone_decreasing(self):
        values = [cosine_lr(e, 40) for e in range(41)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bad_epoch_count(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0)


def one_param(value, name="p"):
    p = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True,
               dtype=np.float64)
    return [(name, p)], p


class TestSgdStep:
    def test_zero_everything_is_identity(self):
        params, p = one_param([1.0, -2.0])
        sgd_momentum_step(params, [np.zeros(2)], {}, lr=0.1,
                          momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_matches_formula(self):
        params, p = one_param([0.0])
        state = {}
        sgd_momentum_step(params, [np.ones(1)], state, lr=0.1,
                          momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(p.data, [-0.1], rtol=1e-12)
        np.testing.assert_allclose(state["p"], [1.0], rtol=1e-12)

    def test_momentum_accumulates(self):
        params, p = one_param([0.0])
        state = {}
        for _ in range(2):
            sgd_momentum_step(params, [np.ones(1)], state, lr=0.1,
                              momentum=0.9, weight_decay=0.0)
        # v2 = 0.9 * 1 + 1 = 1.9; theta = -0.1 - 0.19
        np.testing.assert_allclose(p.data, [-0.29], rtol=1e-12)

    def test_weight_decay_joins_gradient(self):
        params, p = one_param([2.0])
        sgd_momentum_step(params, [np.zeros(1)], {}, lr=0.5,
                          momentum=0.9, weight_decay=0.1)
        # v = 0.1 * 2 = 0.2; theta = 2 - 0.5 * 0.2
        np.testing.assert_allclose(p.data, [1.9], rtol=1e-12)

    def test_nan_gradient_names_parameter(self):
        params, _ = one_param([0.0], name="head.w")
        with pytest.raises(DivergenceError, match="head.w"):
            sgd_momentum_step(params, [np.array([np.nan])], {}, lr=0.1)

    def test_inf_gradient_names_parameter(self):
        params, p = one_param([0.0], name="gru.layer1.fwd.wz")
        with pytest.raises(DivergenceError, match="gru.layer1.fwd.wz"):
            sgd_momentum_step(params, [np.array([-np.inf])], {}, lr=0.1)
        assert p.data[0] == 0.0


class TestTrainLoop:
    def config(self, **kw):
        base = dict(epochs=2, batch_size=4, seed=0, shuffle=True)
        base.update(kw)
        return TrainConfig(**base)

    def test_history_schema(self):
        ds = tiny_synth()
        model = build_model(tiny_model_config(n_classes=2), seed=0)
        history = train(model, ds.clips, self.config())
        assert len(history.epochs) == 2
        for i, stats in enumerate(history.epochs):
            assert stats.epoch == i
            assert stats.lr == cosine_lr(i, 2)
            assert math.isfinite(stats.mean_objective)
            assert math.isfinite(stats.mean_classification)
            assert 0 < stats.mean_selected_fraction <= 1

    def test_rerun_is_bit_identical(self):
        ds = tiny_synth()
        outs = []
        for _ in range(2):
            model = build_model(tiny_model_config(n_classes=2), seed=1)
            history = train(model, ds.clips, self.config(seed=3))
            outs.append((history.to_dicts(),
                         [p.data.copy() for _, p in model.parameters()]))
        assert outs[0][0] == outs[1][0]
        for a, b in zip(outs[0][1], outs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_accumulated_step_equals_mean_gradient_step(self):
        ds = tiny_synth(n_clips=4)
        config = self.config(epochs=1, batch_size=4, shuffle=False)

        trained = build_model(tiny_model_config(n_classes=2), seed=2)
        train(trained, ds.clips, config)

        # reference: same rng schedule, explicit per-clip gradients summed in
        # clip order, divided once, one manual step
        ref = build_model(tiny_model_config(n_classes=2), seed=2)
        params = ref.parameters()
        pass_rng = RngStream(config.seed).child("pass")
        totals = [np.zeros_like(p.data) for _, p in params]
        for clip in ds.clips:
            for _, p in params:
                p.grad = None
            out = ref.forward(clip.frames, label=clip.label, training=True,
                              rng=pass_rng)
            out.omega.backward()
            for tot, (_, p) in zip(totals, params):
                tot += p.grad_or_zeros()
        grads = [t / len(ds.clips) for t in totals]
        for _, p in params:
            p.grad = None
        sgd_momentum_step(params, grads, {}, lr=cosine_lr(0, 1),
                          momentum=config.momentum,
                          weight_decay=config.weight_decay)

        for (_, a), (_, b) in zip(trained.parameters(), params):
            np.testing.assert_array_equal(a.data, b.data)

    def test_partial_final_batch_allowed(self):
        ds = tiny_synth(n_clips=5)
        model = build_model(tiny_model_config(n_classes=2), seed=0)
        history = train(model, ds.clips, self.config(epochs=1, batch_size=2))
        assert len(history.epochs) == 1

    def test_nan_objective_reports_epoch_and_step(self):
        ds = tiny_synth(n_clips=3)
        model = build_model(tiny_model_config(n_classes=2), seed=0)
        model.head.weight.data[:] = np.nan
        with pytest.raises(DivergenceError, match="epoch 0, step 0"):
            train(model, ds.clips, self.config(epochs=1))

    def test_inf_objective_reports_epoch_step_and_clip(self):
        ds = tiny_synth(n_clips=4)
        clips = [c for c in ds.clips if c.label == 1]
        model = build_model(tiny_model_config(n_classes=2), seed=0)
        # class 1's probability underflows to exactly 0, so -log gives inf
        model.head.bias.data[:] = [0.0, -1e4]
        with np.errstate(divide="ignore"), \
                pytest.raises(DivergenceError,
                              match=f"inf at epoch 0, step 0 \\(clip {clips[0].clip_id}\\)"):
            train(model, clips, self.config(epochs=1, shuffle=False))

    def test_empty_clip_list_rejected(self):
        model = build_model(tiny_model_config(n_classes=2), seed=0)
        with pytest.raises(ValueError, match="no clips"):
            train(model, [], self.config())

    def test_objective_decreases_on_tiny_overfit(self):
        ds = tiny_synth(n_clips=4)
        model = build_model(tiny_model_config(n_classes=2), seed=4)
        history = train(model, ds.clips,
                        self.config(epochs=12, batch_size=4, init_lr=5e-3))
        assert history.epochs[-1].mean_objective < history.epochs[0].mean_objective
