"""Shape contracts, purity and gradients of the per-frame extractor."""

import struct

import numpy as np
import pytest

from akmnet import tensor as T
from akmnet.backbone import (Backbone, BackboneConfig, _stage_strides, desk_backbone,
                             extract_spatial_features, paper_backbone)
from akmnet.gradcheck import grad_check
from akmnet.rng import RngStream
from akmnet.tensor import Tensor
from akmnet.weights import (WeightFileError, load_weights, manifest_bytes, manifest_entries,
                            save_weights)


def tiny_config():
    return BackboneConfig(input_side=8, input_channels=1, stage_widths=(2, 3),
                          blocks_per_stage=1, output_grid=(2, 2))


class TestConfig:
    def test_paper_preset_strides_all_downsample(self):
        assert _stage_strides(paper_backbone()) == (2, 2, 2, 2)

    def test_desk_preset_last_stage_keeps_grid(self):
        assert _stage_strides(desk_backbone()) == (2, 2, 2, 1)

    def test_zero_stages_rejected(self):
        cfg = BackboneConfig(32, 1, (), 2, (2, 2))
        with pytest.raises(ValueError, match="stage"):
            _stage_strides(cfg)

    def test_unreachable_grid_rejected(self):
        too_deep = BackboneConfig(64, 1, (4, 8), 1, (2, 2))
        with pytest.raises(ValueError, match="stage"):
            _stage_strides(too_deep)
        not_power = BackboneConfig(48, 1, (4, 8), 1, (5, 5))
        with pytest.raises(ValueError, match="unreachable"):
            _stage_strides(not_power)


class TestShapes:
    def test_desk_preset_output_shape(self):
        bb = Backbone(desk_backbone(), RngStream(0))
        clip = np.zeros((9, 32, 32), dtype=np.float32)
        fs = extract_spatial_features(clip, bb)
        assert fs.features.shape == (9, 64, 2, 2)
        assert fs.frame_count == 9

    def test_paper_preset_output_shape(self):
        bb = Backbone(paper_backbone(), RngStream(0))
        clip = np.zeros((1, 128, 128), dtype=np.float32)
        fs = extract_spatial_features(clip, bb)
        assert fs.features.shape == (1, 512, 4, 4)

    @pytest.mark.parametrize("t", [1, 5, 17])
    def test_length_preserved(self, t):
        bb = Backbone(tiny_config(), RngStream(1))
        fs = extract_spatial_features(np.zeros((t, 8, 8), dtype=np.float32), bb)
        assert fs.frame_count == t

    def test_frame_size_mismatch_names_frame(self):
        bb = Backbone(tiny_config(), RngStream(1))
        frames = [np.zeros((8, 8), dtype=np.float32), np.zeros((9, 8), dtype=np.float32)]
        with pytest.raises(ValueError, match="frame 1"):
            extract_spatial_features(frames, bb)

    def test_empty_clip_rejected(self):
        bb = Backbone(tiny_config(), RngStream(1))
        with pytest.raises(ValueError, match="no frames"):
            extract_spatial_features([], bb)


class TestPurity:
    def test_duplicated_frame_gives_identical_features(self):
        bb = Backbone(desk_backbone(), RngStream(2))
        rng = np.random.default_rng(3)
        clip = rng.normal(size=(5, 32, 32)).astype(np.float32)
        clip[3] = clip[2]
        out = extract_spatial_features(clip, bb).features.data
        assert np.array_equal(out[2], out[3])

    def test_frame_permutation_equivariance_exact(self):
        bb = Backbone(desk_backbone(), RngStream(4))
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = int(rng.integers(2, 9))
            clip = rng.normal(size=(t, 32, 32)).astype(np.float32)
            perm = rng.permutation(t)
            base = extract_spatial_features(clip, bb).features.data
            shuffled = extract_spatial_features(clip[perm], bb).features.data
            assert np.array_equal(base[perm], shuffled)

    def test_same_seed_same_parameters(self):
        a = Backbone(desk_backbone(), RngStream(6))
        b = Backbone(desk_backbone(), RngStream(6))
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)


class TestGradients:
    def test_backbone_passes_grad_check(self):
        bb = Backbone(tiny_config(), RngStream(7), dtype=np.float64)
        rng = np.random.default_rng(8)
        clip = rng.normal(size=(2, 1, 8, 8))
        readout = Tensor(rng.normal(size=(2, 3, 2, 2)), dtype=np.float64)

        def loss():
            feats = bb.frame_features(Tensor(clip, dtype=np.float64))
            return T.sum_(T.tanh(T.mul(feats, readout)))

        names = [n for n, _ in bb.parameters()]
        params = [p for _, p in bb.parameters()]
        report = grad_check(loss, params, epsilon=1e-5, names=names)
        assert report.ok(1e-5), (report.max_rel_error, report.failures[:3])


class TestWeightFile:
    def test_round_trip_is_bit_identical(self, tmp_path):
        bb = Backbone(desk_backbone(), RngStream(9))
        clip = np.random.default_rng(10).normal(size=(3, 32, 32)).astype(np.float32)
        before = extract_spatial_features(clip, bb).features.data.copy()
        path = tmp_path / "bb.akmw"
        save_weights(path, bb.parameters())

        other = Backbone(desk_backbone(), RngStream(999))
        load_weights(path, other.parameters())
        after = extract_spatial_features(clip, other).features.data
        assert np.array_equal(before, after)

    def test_truncated_file_rejected(self, tmp_path):
        bb = Backbone(tiny_config(), RngStream(11))
        path = tmp_path / "bb.akmw"
        save_weights(path, bb.parameters())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 12])
        with pytest.raises(WeightFileError, match="truncated"):
            load_weights(path, bb.parameters())

    def test_wrong_config_names_parameter(self, tmp_path):
        small = Backbone(tiny_config(), RngStream(12))
        path = tmp_path / "bb.akmw"
        save_weights(path, small.parameters())
        big = Backbone(desk_backbone(), RngStream(13))
        with pytest.raises(WeightFileError, match="manifest mismatch"):
            load_weights(path, big.parameters())

    def test_f64_model_round_trips_bit_for_bit(self, tmp_path):
        bb = Backbone(tiny_config(), RngStream(15), dtype=np.float64)
        for _, p in bb.parameters():
            p.data[...] += np.random.default_rng(16).normal(size=p.shape) * 1e-9
        path = tmp_path / "bb.akmw"
        save_weights(path, bb.parameters())
        assert path.read_bytes()[4:11] == struct.pack("<I", 2) + b"<f8"

        other = Backbone(tiny_config(), RngStream(17), dtype=np.float64)
        load_weights(path, other.parameters())
        for (_, a), (_, b) in zip(bb.parameters(), other.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        narrow = Backbone(tiny_config(), RngStream(18))
        with pytest.raises(WeightFileError, match="round"):
            load_weights(path, narrow.parameters())

    def test_f32_model_writes_and_reads_version_1(self, tmp_path):
        bb = Backbone(tiny_config(), RngStream(19))
        v1 = [b"AKMW", struct.pack("<I", 1), manifest_bytes(manifest_entries(bb.parameters()))]
        v1 += [p.data.astype("<f4").tobytes() for _, p in bb.parameters()]
        path = tmp_path / "bb.akmw"
        save_weights(path, bb.parameters())
        assert path.read_bytes() == b"".join(v1)

        for dtype in (np.float32, np.float64):
            other = Backbone(tiny_config(), RngStream(20), dtype=dtype)
            load_weights(path, other.parameters())
            for (_, a), (_, b) in zip(bb.parameters(), other.parameters()):
                assert np.array_equal(a.data, b.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.akmw"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        bb = Backbone(tiny_config(), RngStream(14))
        with pytest.raises(WeightFileError, match="magic"):
            load_weights(path, bb.parameters())
