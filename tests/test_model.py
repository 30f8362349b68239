import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from akmnet import RngStream, build_model, evaluate, make_variant
from akmnet.backbone import BackboneConfig
from akmnet.model import ModelConfig
from akmnet.weights import load_weights, save_weights


def tiny_model_config(n_classes=3, gru_hidden=2):
    backbone = BackboneConfig(input_side=8, input_channels=1,
                              stage_widths=(2, 3), blocks_per_stage=1,
                              output_grid=(2, 2))
    return ModelConfig(backbone=backbone, n_classes=n_classes,
                       gru_hidden=gru_hidden, gru_layers=2)


def random_clip(rng, t, side=8):
    return rng.normal((t, side, side), dtype=np.float64)


class TestAssembly:
    def test_forward_returns_distribution(self):
        model = build_model(tiny_model_config(), seed=0)
        clip = random_clip(RngStream(1), t=5)
        out = model.forward(clip, label=2)
        assert out.probs.shape == (3,)
        np.testing.assert_allclose(out.probs.data.sum(), 1.0, atol=1e-6)
        assert 0 <= out.prediction < 3

    def test_objective_is_sum_of_parts(self):
        model = build_model(tiny_model_config(), seed=0)
        out = model.forward(random_clip(RngStream(2), t=6), label=1)
        expected = float(out.classification_loss.data) + float(out.losses.combined.data)
        np.testing.assert_allclose(float(out.omega.data), expected, rtol=1e-6)

    def test_no_label_no_objective(self):
        model = build_model(tiny_model_config(), seed=0)
        out = model.forward(random_clip(RngStream(3), t=4))
        assert out.omega is None and out.classification_loss is None

    def test_handles_wide_length_range(self):
        # same instance, no reconfiguration between lengths
        model = build_model(tiny_model_config(), seed=0)
        for t in (1, 9, 141):
            out = model.forward(random_clip(RngStream(t), t=t))
            assert out.probs.shape == (3,)
            assert np.isfinite(out.probs.data).all()
            assert 1 <= out.selection.n_selected <= t

    def test_selection_record_consistent(self):
        model = build_model(tiny_model_config(), seed=0)
        out = model.forward(random_clip(RngStream(4), t=7))
        sel = out.selection
        assert sel.frame_count == 7
        assert sel.n_selected == len(sel.indices)
        assert all(1 <= i <= 7 for i in sel.indices)

    def test_same_seed_same_model(self):
        a = build_model(tiny_model_config(), seed=11)
        b = build_model(tiny_model_config(), seed=11)
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_eval_forward_deterministic(self):
        model = build_model(tiny_model_config(), seed=5)
        clip = random_clip(RngStream(6), t=5)
        p1 = model.forward(clip).probs.data
        p2 = model.forward(clip).probs.data
        np.testing.assert_array_equal(p1, p2)

    def test_parameter_names_cover_all_groups(self):
        model = build_model(tiny_model_config(), seed=0)
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))
        for prefix in ("backbone.", "akm.", "gru.", "head."):
            assert any(n.startswith(prefix) for n in names)

    def test_training_forward_needs_rng(self):
        model = build_model(tiny_model_config(), seed=0)
        with pytest.raises(ValueError):
            model.forward(random_clip(RngStream(7), t=3), label=0, training=True)


POLICIES = ("s123", "s12", "s13", "s23", "va-all", "va-norm4", "va-random3", "va-last10")


class TestInferenceGraph:
    """record_clip infers without a graph and keeps every bit of a forward
    that builds one; a direct forward still builds it, training or not."""

    @staticmethod
    def clip(t=9):
        return SimpleNamespace(frames=random_clip(RngStream(21), t=t), clip_id="c",
                               subject_id="s", label=1, apex=3, framerate=200.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_records_match_graph_forward(self, dtype, monkeypatch):
        clip = self.clip()
        for name in POLICIES:
            model = build_model(tiny_model_config(), policy=make_variant(name),
                                seed=4, dtype=dtype)
            # both sides draw a stochastic policy's frames from the same stream
            without = evaluate.record_clip(model, clip, rng=RngStream(5).child("eval"))
            with monkeypatch.context() as m:
                m.setattr(evaluate, "no_grad", contextlib.nullcontext)
                graph = evaluate.record_clip(model, clip, rng=RngStream(5).child("eval"))
            # repr of a float round-trips its bits and tells -0.0 from 0.0
            assert repr(without.to_dict()) == repr(graph.to_dict()), name

    def test_record_forward_has_no_parents(self, monkeypatch):
        model = build_model(tiny_model_config(), seed=4)
        results = []
        forward = model.forward

        def spy(*args, **kwargs):
            results.append(forward(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(model, "forward", spy)
        evaluate.record_clip(model, self.clip())
        result, = results
        for out in (result.probs, result.selection.beta, result.losses.combined):
            assert out.parents == () and out._rule is None and not out.requires_grad
        assert model.forward(self.clip().frames).probs.parents

    def test_eval_mode_forward_still_backpropagates(self):
        model = build_model(tiny_model_config(), seed=4, dtype=np.float64)
        out = model.forward(self.clip().frames, label=1, training=False)
        out.omega.backward()
        for name, p in model.parameters():
            if name.startswith(("backbone.", "gru.", "head.")):
                assert p.grad is not None and np.abs(p.grad).max() > 0, name


class TestWeightRoundTrip:
    def test_save_load_reproduces_forward(self, tmp_path):
        src = build_model(tiny_model_config(), seed=3)
        clip = random_clip(RngStream(8), t=6)
        want = src.forward(clip).probs.data.copy()
        path = tmp_path / "model.akmw"
        save_weights(path, src.parameters())

        dst = build_model(tiny_model_config(), seed=99)
        assert not np.array_equal(dst.forward(clip).probs.data, want)
        load_weights(path, dst.parameters())
        np.testing.assert_array_equal(dst.forward(clip).probs.data, want)


class TestFullModelGradCheck:
    def test_objective_gradient_all_parameter_groups(self):
        from akmnet import grad_check
        model = build_model(tiny_model_config(), seed=2, dtype=np.float64)
        clip = random_clip(RngStream(9), t=3)
        names = [n for n, _ in model.parameters()]
        params = [p for _, p in model.parameters()]

        def objective():
            # local gate gradient: finite differences see the true local slope
            return model.forward(clip, label=1, gate_grad="local").omega

        report = grad_check(objective, params, epsilon=1e-5, names=names,
                            max_coords=4, rng=RngStream(10))
        assert report.ok(1e-4), report.failures
        assert report.skip_fraction <= 0.5
