import numpy as np
import pytest

from akmnet import RngStream, build_model, make_variant
from akmnet.variants import VARIANT_NAMES

from test_model import random_clip, tiny_model_config


def run_variant(name, t=7, seed=0, clip_seed=1, rng=None, **params):
    model = build_model(tiny_model_config(), policy=make_variant(name, **params),
                        seed=seed)
    clip = random_clip(RngStream(clip_seed), t=t)
    return model.forward(clip, label=0, rng=rng)


class TestFactory:
    def test_all_names_construct(self):
        for name in VARIANT_NAMES:
            params = {}
            if name == "va-norm":
                params["length"] = 4
            elif name == "va-random":
                params["count"] = 2
            assert make_variant(name, **params).name == name

    def test_colon_parameter_form(self):
        assert make_variant("va-norm:16").length == 16
        assert make_variant("va-random:5").count == 5

    def test_fused_parameter_form(self):
        assert make_variant("va-norm32").length == 32
        assert make_variant("va-norm128").length == 128
        assert make_variant("va-random7").count == 7

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            make_variant("s1234")
        with pytest.raises(ValueError, match="unknown variant"):
            make_variant("va-normX")

    def test_norm_length_required_random_count_defaulted(self):
        with pytest.raises(ValueError, match="needs a length"):
            make_variant("va-norm")
        assert make_variant("va-random").count == 10

    @pytest.mark.parametrize("spelling", ["va-norm:16", "va-norm16"])
    def test_conflicting_keyword_names_both_values(self, spelling):
        with pytest.raises(ValueError, match="length=16.*length=8"):
            make_variant(spelling, length=8)
        assert make_variant(spelling, length=16).length == 16

    @pytest.mark.parametrize("spelling", ["va-random:5", "va-random5"])
    def test_conflicting_count_rejected(self, spelling):
        with pytest.raises(ValueError, match="count=5.*count=10"):
            make_variant(spelling, count=10)

    def test_parameter_on_plain_variant_rejected(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            make_variant("s123:4")

    def test_bad_parameter_values(self):
        with pytest.raises(ValueError):
            make_variant("va-norm", length=1)
        with pytest.raises(ValueError):
            make_variant("va-random", count=0)


class TestScoreVariants:
    def test_soft_scaling_keeps_every_frame(self):
        out = run_variant("s12", t=7)
        sel = out.selection
        assert sel.indices == tuple(range(1, 8))
        assert sel.n_selected == 7 and not sel.fallback
        assert float(out.losses.combined.data) == 0.0

    def test_attention_gate_binarizes_attention(self):
        out = run_variant("s13", t=9)
        sel = out.selection
        # the reported score vector is the attention itself, inside (0, 1)
        assert np.all(sel.beta.data > 0) and np.all(sel.beta.data < 1)
        np.testing.assert_array_equal(sel.alpha.data, sel.beta.data)
        assert sel.binary.sum() == sel.n_selected
        assert float(out.losses.combined.data) != 0.0

    def test_uniform_weights_replace_attention(self):
        out = run_variant("s23", t=8)
        np.testing.assert_allclose(out.selection.alpha.data, np.full(8, 1 / 8),
                                   rtol=1e-6)

    def test_uniform_weights_ignore_attention_parameter(self):
        policy = make_variant("s23")
        config = tiny_model_config()
        clip = random_clip(RngStream(3), t=6)
        a = build_model(config, policy=policy, seed=0)
        probs_before = a.forward(clip).probs.data.copy()
        a.akm.attention.data[:] = 7.0
        np.testing.assert_array_equal(a.forward(clip).probs.data, probs_before)


class TestSubsetVariants:
    def test_all_frames_identity(self):
        out = run_variant("va-all", t=6)
        sel = out.selection
        assert sel.indices == tuple(range(1, 7))
        assert sel.frame_count == 6 and not sel.fallback
        np.testing.assert_array_equal(sel.beta.data, np.zeros(6))

    def test_norm_resamples_clip_length(self):
        out = run_variant("va-norm", t=7, length=4)
        sel = out.selection
        assert sel.frame_count == 4
        assert sel.indices == (1, 2, 3, 4)

    def test_random_subset_order_preserved(self):
        out = run_variant("va-random", t=9, count=3, rng=RngStream(5))
        sel = out.selection
        assert sel.n_selected == 3 and sel.frame_count == 9
        assert list(sel.indices) == sorted(sel.indices)
        assert all(1 <= i <= 9 for i in sel.indices)

    def test_random_subset_needs_rng(self):
        with pytest.raises(ValueError, match="needs an rng"):
            run_variant("va-random", t=5, count=2)

    def test_random_count_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="keeping all 5"):
            out = run_variant("va-random", t=5, count=20, rng=RngStream(6))
        assert out.selection.indices == (1, 2, 3, 4, 5)

    def test_random_is_seed_deterministic(self):
        a = run_variant("va-random", t=12, count=4, rng=RngStream(7))
        b = run_variant("va-random", t=12, count=4, rng=RngStream(7))
        assert a.selection.indices == b.selection.indices
        np.testing.assert_array_equal(a.probs.data, b.probs.data)

    def test_last10_takes_suffix(self):
        out = run_variant("va-last10", t=13)
        assert out.selection.indices == tuple(range(4, 14))

    def test_last10_short_clip_keeps_all(self):
        out = run_variant("va-last10", t=6)
        assert out.selection.indices == tuple(range(1, 7))

    def test_stochastic_flag(self):
        assert make_variant("va-random:2").stochastic
        assert not make_variant("s123").stochastic
        assert not make_variant("va-last10").stochastic


class TestVariantTraining:
    # one gradient step through each wiring must not blow up
    @pytest.mark.parametrize("name,params", [
        ("s123", {}), ("s12", {}), ("s13", {}), ("s23", {}),
        ("va-all", {}), ("va-norm", {"length": 4}),
        ("va-random", {"count": 3}), ("va-last10", {}),
    ])
    def test_single_step_runs(self, name, params):
        model = build_model(tiny_model_config(), policy=make_variant(name, **params),
                            seed=0)
        clip = random_clip(RngStream(11), t=6)
        out = model.forward(clip, label=1, training=True, rng=RngStream(12))
        out.omega.backward()
        grads = [p.grad for _, p in model.parameters() if p.grad is not None]
        assert grads, name
        assert all(np.isfinite(g).all() for g in grads)
