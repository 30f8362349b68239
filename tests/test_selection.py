"""Selection pipeline against a straight-line oracle, plus routing contracts."""

import logging
import math

import numpy as np
import pytest

from akmnet import tensor as T
from akmnet.gradcheck import SelectionMarginTracker, grad_check
from akmnet.rng import RngStream
from akmnet.selection import (AkmParams, binarize, correlate, gather_key_frames,
                              global_aggregate, gsmmm_loss, init_akm_params,
                              local_attention, margin_loss, mine, pool_spatial,
                              selection_backward, sparsity_loss)
from akmnet.tensor import Tensor


def oracle_mine(features, w, sparsity_weight=0.1, margin_weight=1.0, margin_constant=2.0):
    """Independent recomputation of the whole selection pipeline in float64.

    Deliberately shares no code with the package: plain numpy, one step per
    line, following the published definitions directly.
    """
    t_count = features.shape[0]
    pooled = features.reshape(t_count, features.shape[1], -1).mean(axis=2)
    alpha = 1.0 / (1.0 + np.exp(-(pooled @ w)))
    aggregate = (alpha[:, None] * pooled).sum(axis=0)
    beta = np.zeros(t_count)
    agg_norm = np.linalg.norm(aggregate)
    for i in range(t_count):
        row_norm = np.linalg.norm(pooled[i])
        beta[i] = pooled[i] @ aggregate / (row_norm * agg_norm + 1e-8)
    mean = beta.mean()
    gate = (beta > mean).astype(np.int8)
    fallback = gate.sum() == 0
    if fallback:
        gate[int(np.argmax(beta))] = 1
    kept = np.flatnonzero(gate)
    relaxed = np.where(gate == 1, beta, 0.0)
    l_gs = max(0.0, relaxed.sum() - 1.0)
    dropped = beta[gate == 0]
    dropped_mean = dropped.mean() if dropped.size else 0.0
    l_mmm = margin_constant - (beta[gate == 1].mean() - dropped_mean)
    combined = sparsity_weight * l_gs + margin_weight * l_mmm
    return {
        "alpha": alpha, "aggregate": aggregate, "beta": beta, "gate": gate,
        "indices": tuple(int(i) + 1 for i in kept), "fallback": bool(fallback),
        "key": features[kept], "l_gs": l_gs, "l_mmm": l_mmm, "combined": combined,
    }


def random_params(c, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=c).astype(dtype), requires_grad=True, dtype=dtype)
    return AkmParams(attention=w)


class TestStepExamples:
    def test_pool_spatial_mean(self):
        feats = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), dtype=np.float64)
        np.testing.assert_allclose(pool_spatial(feats).data, [[2.5]])

    def test_pool_constant_plane(self):
        feats = Tensor(np.full((3, 2, 4, 4), 7.0), dtype=np.float64)
        np.testing.assert_allclose(pool_spatial(feats).data, 7.0)

    def test_zero_attention_gives_half(self):
        pooled = Tensor(np.random.default_rng(0).normal(size=(5, 4)), dtype=np.float64)
        params = AkmParams(attention=Tensor(np.zeros(4), dtype=np.float64))
        np.testing.assert_allclose(local_attention(pooled, params).data, 0.5)

    def test_attention_log_three(self):
        pooled = Tensor(np.array([[math.log(3.0)]]), dtype=np.float64)
        params = AkmParams(attention=Tensor(np.ones(1), dtype=np.float64))
        assert local_attention(pooled, params).data[0] == pytest.approx(0.75)

    def test_aggregate_example(self):
        pooled = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), dtype=np.float64)
        alpha = Tensor(np.array([0.5, 0.5]), dtype=np.float64)
        np.testing.assert_allclose(global_aggregate(pooled, alpha).data, [0.5, 0.5])

    def test_aggregate_single_frame(self):
        pooled = Tensor(np.array([[2.0, 4.0]]), dtype=np.float64)
        alpha = Tensor(np.array([0.25]), dtype=np.float64)
        np.testing.assert_allclose(global_aggregate(pooled, alpha).data, [0.5, 1.0])

    def test_correlate_examples(self):
        pooled = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]), dtype=np.float64)
        aggregate = Tensor(np.array([0.5, 0.5]), dtype=np.float64)
        beta = correlate(pooled, aggregate).data
        assert beta[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-7)
        assert beta[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-7)
        assert beta[2] == pytest.approx(1.0, abs=1e-7)

    def test_correlate_orthogonal_is_zero(self):
        pooled = Tensor(np.array([[1.0, 0.0]]), dtype=np.float64)
        aggregate = Tensor(np.array([0.0, 1.0]), dtype=np.float64)
        assert correlate(pooled, aggregate).data[0] == pytest.approx(0.0, abs=1e-9)

    def test_binarize_threshold(self):
        gate, kept, fallback = binarize(np.array([0.1, 0.9, 0.5, 0.9]))
        np.testing.assert_array_equal(gate, [0, 1, 0, 1])
        np.testing.assert_array_equal(kept, [1, 3])
        assert not fallback

    def test_binarize_constant_falls_back_to_first(self):
        gate, kept, fallback = binarize(np.array([0.4, 0.4, 0.4]))
        np.testing.assert_array_equal(gate, [1, 0, 0])
        assert fallback

    def test_binarize_single_frame(self):
        gate, kept, fallback = binarize(np.array([0.3]))
        np.testing.assert_array_equal(gate, [1])
        assert fallback

    def test_sparsity_loss_values(self):
        assert sparsity_loss(Tensor(np.array([0.9, 0.9, 0.0]), dtype=np.float64)).item() \
            == pytest.approx(0.8)
        assert sparsity_loss(Tensor(np.array([0.7, 0.0]), dtype=np.float64)).item() == 0.0
        assert sparsity_loss(Tensor(np.array([1.0]), dtype=np.float64)).item() == 0.0

    def test_margin_loss_values(self):
        beta = Tensor(np.array([0.9, 0.9, 0.1, 0.5]), dtype=np.float64)
        out = margin_loss(beta, np.array([1, 1, 0, 0]))
        assert out.item() == pytest.approx(1.4)
        beta2 = Tensor(np.array([0.2, 0.8]), dtype=np.float64)
        assert margin_loss(beta2, np.array([0, 1])).item() == pytest.approx(1.4)
        single = Tensor(np.array([0.6]), dtype=np.float64)
        assert margin_loss(single, np.array([1])).item() == pytest.approx(1.4)

    def test_combined_loss_weights(self):
        l_gs = Tensor(np.array(0.8), dtype=np.float64)
        l_mmm = Tensor(np.array(1.4), dtype=np.float64)
        assert gsmmm_loss(l_gs, l_mmm).item() == pytest.approx(1.48)
        assert gsmmm_loss(l_gs, l_mmm, 0.0, 0.0).item() == 0.0

    def test_gather_preserves_bits_and_order(self):
        rng = np.random.default_rng(1)
        feats = Tensor(rng.normal(size=(4, 3, 2, 2)).astype(np.float32))
        key = gather_key_frames(feats, np.array([0, 1, 0, 1]))
        assert key.source_indices == (2, 4)
        assert np.array_equal(key.features.data[0], feats.data[1])
        assert np.array_equal(key.features.data[1], feats.data[3])

    def test_gather_all_ones_is_identity(self):
        feats = Tensor(np.random.default_rng(2).normal(size=(3, 2, 2, 2)).astype(np.float32))
        key = gather_key_frames(feats, np.ones(3, dtype=np.int8))
        assert np.array_equal(key.features.data, feats.data)

    def test_gather_rejects_empty_gate(self):
        feats = Tensor(np.zeros((2, 1, 2, 2)))
        with pytest.raises(ValueError, match="no frames"):
            gather_key_frames(feats, np.zeros(2, dtype=np.int8))


class TestOracleAgreement:
    def test_mine_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        fallback_seen = 0
        for i in range(300):
            t_count = int(rng.integers(1, 17))
            c = int(rng.integers(2, 9))
            feats32 = rng.normal(size=(t_count, c, 2, 2)).astype(np.float32)
            w32 = rng.normal(size=c).astype(np.float32)
            params = AkmParams(attention=Tensor(w32, requires_grad=True))
            key, sel, losses = mine(Tensor(feats32), params)
            ref = oracle_mine(feats32.astype(np.float64), w32.astype(np.float64))

            np.testing.assert_allclose(sel.alpha.data, ref["alpha"], atol=1e-6)
            np.testing.assert_allclose(sel.global_feature.data, ref["aggregate"], atol=1e-6)
            np.testing.assert_allclose(sel.beta.data, ref["beta"], atol=1e-6)
            np.testing.assert_array_equal(sel.binary, ref["gate"])
            assert sel.indices == ref["indices"]
            assert sel.fallback == ref["fallback"]
            assert np.array_equal(key.features.data, feats32[np.flatnonzero(ref["gate"])])
            np.testing.assert_allclose(losses.sparsity.item(), ref["l_gs"], atol=1e-6)
            np.testing.assert_allclose(losses.margin.item(), ref["l_mmm"], atol=1e-6)
            np.testing.assert_allclose(losses.combined.item(), ref["combined"], atol=1e-6)
            fallback_seen += sel.fallback
        assert fallback_seen >= 1  # T=1 instances must occur over 300 draws


class TestInvariants:
    def test_selection_invariants_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t_count = int(rng.integers(1, 17))
            c = int(rng.integers(2, 9))
            feats = Tensor(rng.normal(size=(t_count, c, 2, 2)).astype(np.float32))
            params = random_params(c, int(rng.integers(1 << 30)))
            key, sel, losses = mine(feats, params)
            beta = sel.beta.data
            assert np.all(beta >= -1.0) and np.all(beta <= 1.0)
            assert 1 <= sel.n_selected <= t_count
            assert list(sel.indices) == sorted(sel.indices)
            assert all(1 <= k <= t_count for k in sel.indices)
            if not sel.fallback:
                assert sel.n_selected < t_count
                kept = beta[sel.binary == 1]
                dropped = beta[sel.binary == 0]
                assert kept.mean() > beta.mean() > dropped.mean()
                assert 0.0 <= losses.margin.item() < 2.0
            else:
                assert losses.margin.item() <= 2.0 + 1e-6
            assert losses.sparsity.item() >= 0.0
            relaxed = sel.relaxed.data
            np.testing.assert_array_equal(relaxed[sel.binary == 0], 0.0)
            np.testing.assert_array_equal(relaxed[sel.binary == 1], beta[sel.binary == 1])

    def test_permutation_equivariance_bit_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t_count = int(rng.integers(2, 17))
            c = int(rng.integers(2, 9))
            feats = rng.normal(size=(t_count, c, 2, 2)).astype(np.float32)
            params = random_params(c, int(rng.integers(1 << 30)))
            perm = rng.permutation(t_count)
            _, base, _ = mine(Tensor(feats), params)
            _, shuf, _ = mine(Tensor(feats[perm]), params)
            assert np.array_equal(base.alpha.data[perm], shuf.alpha.data)
            assert np.array_equal(base.beta.data[perm], shuf.beta.data)
            assert np.array_equal(base.global_feature.data, shuf.global_feature.data)
            if not base.fallback:
                base_set = {int(i) for i in np.flatnonzero(base.binary)}
                mapped = {int(np.flatnonzero(perm == i)[0]) for i in base_set}
                shuf_set = {int(i) for i in np.flatnonzero(shuf.binary)}
                assert mapped == shuf_set

    def test_duplicate_frames_get_identical_scores(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(6, 4, 2, 2)).astype(np.float32)
        feats[4] = feats[1]
        params = random_params(4, 10)
        _, sel, _ = mine(Tensor(feats), params)
        assert sel.alpha.data[1] == sel.alpha.data[4]
        assert sel.beta.data[1] == sel.beta.data[4]

    def test_constant_clip_falls_back_to_first_frame(self):
        feats = Tensor(np.ones((5, 3, 2, 2), dtype=np.float32))
        _, sel, _ = mine(feats, random_params(3, 11))
        assert sel.fallback
        assert sel.indices == (1,)

    def test_zero_clip_logs_once(self, caplog):
        feats = Tensor(np.zeros((4, 3, 2, 2), dtype=np.float32))
        with caplog.at_level(logging.WARNING, logger="akmnet.selection"):
            _, sel, _ = mine(feats, random_params(3, 12))
        assert sel.fallback
        assert sum("zero-norm" in r.message for r in caplog.records) == 1

    def test_silenced_frame_logs_debug_not_warning(self, caplog):
        # one all-zero frame under a non-zero aggregate is the trained gate
        # at work, not a fault
        feats = np.random.default_rng(14).normal(size=(5, 3, 2, 2)).astype(np.float32)
        feats[2] = 0.0
        with caplog.at_level(logging.DEBUG, logger="akmnet.selection"):
            _, sel, _ = mine(Tensor(feats), random_params(3, 15))
        assert sel.beta.data[2] == 0.0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert sum("zero-norm" in r.message for r in caplog.records) == 1


class TestStraightThrough:
    def build(self, seed, t_count=6, c=4):
        rng = np.random.default_rng(seed)
        feats = Tensor(rng.normal(size=(t_count, c, 2, 2)).astype(np.float32),
                       requires_grad=True)
        params = random_params(c, seed + 1)
        return feats, params, rng

    def test_gather_branch_routes_exact_zero_to_dropped(self):
        # local mode cuts the score path, leaving only the gather's own
        # routing; in surrogate mode dropped frames still receive gradient
        # through pooling/attention/cosine, which is intended
        feats, params, rng = self.build(13)
        key, sel, _ = mine(feats, params, gate_grad="local")
        assert not sel.fallback
        readout = Tensor(rng.normal(size=key.features.shape).astype(np.float32))
        T.sum_(T.mul(key.features, readout)).backward()
        dropped = np.flatnonzero(sel.binary == 0)
        assert np.all(feats.grad[dropped] == 0.0)
        kept = np.flatnonzero(sel.binary == 1)
        np.testing.assert_array_equal(feats.grad[kept], readout.data)

    def test_routing_audit_counts_backward_passes(self):
        from akmnet.selection import RoutingAudit
        before_passes, before_violations = RoutingAudit.snapshot()
        feats, params, rng = self.build(20)
        key, _, _ = mine(feats, params)
        T.sum_(key.features).backward()
        after_passes, after_violations = RoutingAudit.snapshot()
        assert after_passes == before_passes + 1
        assert after_violations == before_violations

    def test_surrogate_score_gradient_matches_inner_product(self):
        feats, params, rng = self.build(14)
        key, sel, _ = mine(feats, params)
        assert not sel.fallback
        readout = Tensor(rng.normal(size=key.features.shape).astype(np.float32))
        sel.beta.requires_grad = True
        T.sum_(T.mul(key.features, readout)).backward()
        dbeta = sel.beta.grad
        kept = np.flatnonzero(sel.binary == 1)
        dropped = np.flatnonzero(sel.binary == 0)
        assert np.all(dbeta[dropped] == 0.0)
        for n, t in enumerate(kept):
            expect = np.float32((readout.data[n] * feats.data[t]).sum())
            assert dbeta[t] == pytest.approx(float(expect), rel=1e-5)

    def test_local_mode_routes_nothing_to_scores(self):
        feats, params, rng = self.build(15)
        key, sel, _ = mine(feats, params, gate_grad="local")
        readout = Tensor(rng.normal(size=key.features.shape).astype(np.float32))
        sel.beta.requires_grad = True
        T.sum_(T.mul(key.features, readout)).backward()
        assert sel.beta.grad is None or np.all(sel.beta.grad == 0.0)

    def test_fallback_scores_get_no_surrogate(self):
        feats = Tensor(np.ones((3, 2, 2, 2), dtype=np.float32), requires_grad=True)
        params = AkmParams(attention=Tensor(np.zeros(2, dtype=np.float32),
                                            requires_grad=True))
        key, sel, _ = mine(feats, params)
        assert sel.fallback
        sel.beta.requires_grad = True
        T.sum_(key.features).backward()
        assert sel.beta.grad is None or np.all(sel.beta.grad == 0.0)

    def test_selection_backward_reference(self):
        rng = np.random.default_rng(16)
        frames = rng.normal(size=(5, 2, 2, 2))
        kept = np.array([1, 3])
        g_key = rng.normal(size=(2, 2, 2, 2))
        d_frames, d_scores = selection_backward(g_key, frames, kept, kept)
        np.testing.assert_array_equal(d_frames[[0, 2, 4]], 0.0)
        np.testing.assert_array_equal(d_frames[1], g_key[0])
        np.testing.assert_array_equal(d_frames[3], g_key[1])
        assert d_scores[1] == pytest.approx((g_key[0] * frames[1]).sum())
        assert d_scores[3] == pytest.approx((g_key[1] * frames[3]).sum())
        np.testing.assert_array_equal(d_scores[[0, 2, 4]], 0.0)

    def test_invalid_gate_grad_rejected(self):
        feats, params, _ = self.build(17)
        with pytest.raises(ValueError, match="gate_grad"):
            mine(feats, params, gate_grad="nonsense")


class TestSelectionGradCheck:
    def run_check(self, seed, check_params):
        rng = np.random.default_rng(seed)
        t_count, c = 5, 4
        feats = Tensor(rng.normal(size=(t_count, c, 2, 2)), requires_grad=True,
                       dtype=np.float64)
        w = Tensor(rng.normal(size=c), requires_grad=True, dtype=np.float64)
        params = AkmParams(attention=w)
        readout = Tensor(rng.normal(size=(t_count, c, 2, 2)), dtype=np.float64)

        def objective():
            key, sel, losses = mine(feats, params, gate_grad="local")
            picked = readout.data[np.flatnonzero(sel.binary)]
            fit = T.sum_(T.mul(key.features, Tensor(picked, dtype=np.float64)))
            return T.add(fit, losses.combined)

        targets = {"w": [w], "feats": [feats]}[check_params]
        return grad_check(objective, targets, epsilon=1e-5, names=[check_params])

    def test_objective_gradient_wrt_attention(self):
        report = self.run_check(18, "w")
        assert report.n_checked > 0
        assert report.ok(1e-4), (report.max_rel_error, report.failures)

    def test_objective_gradient_wrt_features(self):
        report = self.run_check(19, "feats")
        assert report.n_checked > 0
        assert report.skip_fraction < 0.5
        assert report.ok(1e-4), (report.max_rel_error, report.failures)

    def test_margin_tracker_records_binarize(self):
        with SelectionMarginTracker() as tracker:
            binarize(np.array([0.1, 0.9, 0.5, 0.9]))
        assert tracker.min_margin == pytest.approx(0.1, abs=1e-12)
