import numpy as np
import pytest

from akmnet import RngStream
from akmnet.data import (
    DataError,
    ManifestRow,
    SynthSpec,
    bilinear_resize,
    crop_frames,
    load_manifest,
    load_packed,
    load_truth,
    read_clip,
    read_pgm,
    save_packed,
    save_synth_dataset,
    synth_generate,
    temporal_resample,
    write_pgm,
)

HEADER = "clip_id,subject_id,label,frames_path,onset,apex,offset,framerate\n"


def write_manifest(path, body):
    path.write_text(HEADER + body)
    return path


class TestManifest:
    def test_parses_rows(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv",
                           "c1,s1,positive,clips/c1,2,5,9,200\n"
                           "c2,s2,others,clips/c2,,,,\n")
        m = load_manifest(p)
        assert len(m) == 2
        assert m.rows[0].apex == 5 and m.rows[0].framerate == 200.0
        assert m.rows[1].onset is None and m.rows[1].framerate is None
        assert m.base_dir == tmp_path

    def test_empty_body(self, tmp_path):
        m = load_manifest(write_manifest(tmp_path / "m.csv", ""))
        assert len(m) == 0

    def test_duplicate_id_names_line(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv",
                           "c1,s1,positive,a,,,,\n"
                           "c1,s2,negative,b,,,,\n")
        with pytest.raises(DataError, match="line 3.*duplicate"):
            load_manifest(p)

    def test_apex_before_onset_rejected(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv", "c1,s1,positive,a,5,2,9,60\n")
        with pytest.raises(DataError, match="onset <= apex"):
            load_manifest(p)

    def test_unknown_label_rejected(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv", "c1,s1,joyful,a,,,,\n")
        with pytest.raises(DataError, match="unknown label"):
            load_manifest(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("id,subject\nc1,s1\n")
        with pytest.raises(DataError, match="bad header"):
            load_manifest(p)

    def test_malformed_index_names_line(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv", "c1,s1,positive,a,x,,,\n")
        with pytest.raises(DataError, match="line 2.*onset"):
            load_manifest(p)

    @pytest.mark.parametrize("rate", ["abc", "-5", "0", "nan", "inf"])
    def test_bad_framerate_names_line(self, tmp_path, rate):
        p = write_manifest(tmp_path / "m.csv",
                           "c1,s1,positive,a,,,,60\n"
                           f"c2,s1,positive,b,,,,{rate}\n")
        with pytest.raises(DataError, match="line 3: framerate"):
            load_manifest(p)

    def test_custom_label_map(self, tmp_path):
        p = write_manifest(tmp_path / "m.csv", "c1,s1,blue,a,,,,\n")
        m = load_manifest(p, label_map={"blue": 0, "red": 1})
        assert m.rows[0].label_name == "blue"


class TestFrameFormats:
    def test_pgm_round_trip_exact(self, tmp_path):
        rng = RngStream(0)
        img = rng.integers(0, 256, (7, 5)).astype(np.uint8)
        write_pgm(tmp_path / "f.pgm", img)
        np.testing.assert_array_equal(read_pgm(tmp_path / "f.pgm"), img)

    def test_pgm_scaling_hits_unit(self, tmp_path):
        write_pgm(tmp_path / "f.pgm", np.full((2, 2), 255, dtype=np.uint8))
        row = ManifestRow("c", "s", "positive", ".", None, None, None, None)
        frames_dir = tmp_path / "clip"
        frames_dir.mkdir()
        write_pgm(frames_dir / "frame_0001.pgm", np.full((2, 2), 255, np.uint8))
        clip = read_clip(ManifestRow("c", "s", "positive", "clip",
                                     None, None, None, None),
                         base_dir=tmp_path)
        assert clip.frames.max() == 1.0

    def test_real_values_quantize_within_one_step(self, tmp_path):
        rng = RngStream(1)
        frames = rng.uniform((3, 4), dtype=np.float64)
        write_pgm(tmp_path / "f.pgm", frames)
        back = read_pgm(tmp_path / "f.pgm").astype(np.float64) / 255.0
        assert np.max(np.abs(back - frames)) <= 1.0 / 255.0

    def test_pgm_comment_header(self, tmp_path):
        raw = b"P5\n# a comment\n3 2\n255\n" + bytes(range(6))
        (tmp_path / "f.pgm").write_bytes(raw)
        img = read_pgm(tmp_path / "f.pgm")
        assert img.shape == (2, 3)

    def test_packed_round_trip_bits(self, tmp_path):
        rng = RngStream(2)
        arr = rng.normal((4, 3, 3), dtype=np.float64).astype(np.float32)
        save_packed(tmp_path / "t.akmt", arr)
        np.testing.assert_array_equal(load_packed(tmp_path / "t.akmt"), arr)

    def test_packed_truncation_detected(self, tmp_path):
        save_packed(tmp_path / "t.akmt", np.zeros((2, 2), np.float32))
        blob = (tmp_path / "t.akmt").read_bytes()
        (tmp_path / "cut.akmt").write_bytes(blob[:-3])
        with pytest.raises(DataError, match="truncated"):
            load_packed(tmp_path / "cut.akmt")

    def test_packed_bad_magic(self, tmp_path):
        (tmp_path / "t.akmt").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="not a packed tensor"):
            load_packed(tmp_path / "t.akmt")

    def test_packed_trailing_bytes(self, tmp_path):
        save_packed(tmp_path / "t.akmt", np.zeros(3, np.float32))
        with open(tmp_path / "t.akmt", "ab") as fh:
            fh.write(b"x")
        with pytest.raises(DataError, match="trailing"):
            load_packed(tmp_path / "t.akmt")


class TestReadClip:
    def make_frames(self, tmp_path, count):
        d = tmp_path / "clip"
        d.mkdir()
        for i in range(1, count + 1):
            write_pgm(d / f"frame_{i:04d}.pgm",
                      np.full((4, 4), i * 10, dtype=np.uint8))
        return ManifestRow("c1", "s1", "positive", "clip", None, None, None, None)

    def test_reads_ordered_frames(self, tmp_path):
        row = self.make_frames(tmp_path, 9)
        clip = read_clip(row, base_dir=tmp_path)
        assert clip.frame_count == 9
        np.testing.assert_allclose(clip.frames[2], 30 / 255.0, rtol=1e-6)

    def test_gap_names_missing_index(self, tmp_path):
        row = self.make_frames(tmp_path, 5)
        (tmp_path / "clip" / "frame_0003.pgm").unlink()
        with pytest.raises(DataError, match="missing frame index 3"):
            read_clip(row, base_dir=tmp_path)

    def test_packed_clip_route(self, tmp_path):
        frames = RngStream(3).normal((5, 4, 4), dtype=np.float64).astype(np.float32)
        save_packed(tmp_path / "c.akmt", frames)
        row = ManifestRow("c1", "s1", "positive", "c.akmt", 1, 3, 5, 60.0)
        clip = read_clip(row, base_dir=tmp_path)
        np.testing.assert_array_equal(clip.frames, frames)
        assert clip.apex == 3 and clip.framerate == 60.0

    def test_mark_ordering_enforced(self, tmp_path):
        frames = np.zeros((4, 2, 2), np.float32)
        save_packed(tmp_path / "c.akmt", frames)
        row = ManifestRow("c1", "s1", "positive", "c.akmt", 1, 9, 9, None)
        with pytest.raises(DataError, match="onset <= apex"):
            read_clip(row, base_dir=tmp_path)


class TestGeometry:
    def test_resize_identity_is_bitwise(self):
        frames = RngStream(4).normal((3, 6, 6), dtype=np.float64)
        np.testing.assert_array_equal(bilinear_resize(frames, 6, 6), frames)

    def test_resize_constant_stays_constant(self):
        frames = np.full((2, 5, 5), 0.3, dtype=np.float64)
        out = bilinear_resize(frames, 9, 9)
        np.testing.assert_allclose(out, 0.3, rtol=1e-12)

    def test_resize_stays_in_range(self):
        frames = RngStream(5).uniform((2, 8, 8), dtype=np.float64)
        out = bilinear_resize(frames, 13, 13)
        assert out.min() >= frames.min() - 1e-12
        assert out.max() <= frames.max() + 1e-12

    def test_eval_crop_is_plain_resize(self):
        frames = RngStream(6).uniform((4, 36, 36), dtype=np.float64)
        out = crop_frames(frames, 32, training=False)
        np.testing.assert_array_equal(out, bilinear_resize(frames, 32, 32))

    def test_train_crop_window_shared_and_seeded(self):
        frames = RngStream(7).uniform((3, 40, 40), dtype=np.float64)
        a = crop_frames(frames, 32, rng=RngStream(8), training=True)
        b = crop_frames(frames, 32, rng=RngStream(8), training=True)
        assert a.shape == (3, 32, 32)
        np.testing.assert_array_equal(a, b)

    def test_train_crop_offsets_within_slack(self):
        # a 36-wide input skips the resize, so the first cropped pixel
        # directly encodes the window offset; desk slack is 36 - 32 = 4
        coords = np.arange(36, dtype=np.float64)
        frames = (coords[:, None] * 100 + coords[None, :])[None]
        seen = set()
        for seed in range(30):
            out = crop_frames(frames, 32, rng=RngStream(seed), training=True)
            top_left = out[0, 0, 0]
            dy, dx = int(top_left // 100), int(top_left % 100)
            assert 0 <= dy <= 4 and 0 <= dx <= 4
            seen.add((dy, dx))
        assert len(seen) > 1

    def test_train_crop_needs_rng(self):
        with pytest.raises(ValueError, match="needs an rng"):
            crop_frames(np.zeros((1, 36, 36)), 32, training=True)


class TestTemporalResample:
    def test_identity_at_equal_length(self):
        frames = RngStream(9).normal((5, 3, 3), dtype=np.float64)
        np.testing.assert_array_equal(temporal_resample(frames, 5), frames)

    def test_midpoint_is_mean(self):
        frames = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        out = temporal_resample(frames, 3)
        np.testing.assert_array_equal(out[0], frames[0])
        np.testing.assert_array_equal(out[2], frames[1])
        np.testing.assert_allclose(out[1], 0.5)

    def test_single_frame_replicates(self):
        frames = RngStream(10).normal((1, 2, 2), dtype=np.float64)
        out = temporal_resample(frames, 4)
        for t in range(4):
            np.testing.assert_array_equal(out[t], frames[0])

    def test_envelope_invariant(self):
        rng = RngStream(11)
        for _ in range(20):
            t = int(rng.integers(2, 9))
            target = int(rng.integers(2, 17))
            frames = rng.normal((t, 3, 3), dtype=np.float64)
            out = temporal_resample(frames, target)
            pos = np.arange(target) * ((t - 1) / (target - 1))
            lo = np.minimum(np.floor(pos).astype(int), t - 2)
            for j in range(target):
                a, b = frames[lo[j]], frames[lo[j] + 1]
                assert np.all(out[j] >= np.minimum(a, b))
                assert np.all(out[j] <= np.maximum(a, b))

    def test_short_target_rejected(self):
        with pytest.raises(ValueError, match="target_len"):
            temporal_resample(np.zeros((3, 2, 2)), 1)


class TestSynth:
    def spec(self, **kw):
        base = dict(n_classes=3, t_min=5, t_max=9, signal_len=2,
                    noise_scale=0.05, amplitude=0.3, side=8, seed=7)
        base.update(kw)
        return SynthSpec(**base)

    def test_deterministic_bit_for_bit(self):
        a = synth_generate(self.spec(), n_clips=12, n_subjects=3)
        b = synth_generate(self.spec(), n_clips=12, n_subjects=3)
        assert a.truth == b.truth
        for ca, cb in zip(a.clips, b.clips):
            np.testing.assert_array_equal(ca.frames, cb.frames)

    def test_windows_inside_clip(self):
        ds = synth_generate(self.spec(), n_clips=20, n_subjects=4)
        for clip in ds.clips:
            start, length = ds.truth[clip.clip_id]
            assert length == 2
            assert 1 <= start and start + length - 1 <= clip.frame_count
            assert clip.onset == start and clip.offset == start + length - 1
            assert clip.onset <= clip.apex <= clip.offset

    def test_labels_and_subjects_cycle(self):
        ds = synth_generate(self.spec(), n_clips=18, n_subjects=3)
        labels = [c.label for c in ds.clips]
        assert labels[:6] == [0, 1, 2, 0, 1, 2]
        subjects = {c.subject_id for c in ds.clips}
        assert len(subjects) == 3

    def test_noiseless_signal_separable(self):
        ds = synth_generate(self.spec(noise_scale=0.0, amplitude=1.0),
                            n_clips=3, n_subjects=1)
        for clip in ds.clips:
            start, length = ds.truth[clip.clip_id]
            flat = np.abs(clip.frames - 0.5).reshape(clip.frame_count, -1).max(axis=1)
            signal = set(range(start - 1, start - 1 + length))
            for t in range(clip.frame_count):
                assert (flat[t] > 1e-6) == (t in signal)

    def test_zero_amplitude_removes_signal(self):
        ds = synth_generate(self.spec(amplitude=0.0, noise_scale=0.0),
                            n_clips=4, n_subjects=2)
        for clip in ds.clips:
            np.testing.assert_array_equal(clip.frames, np.full_like(clip.frames, 0.5))

    def test_signal_window_too_long_rejected(self):
        with pytest.raises(ValueError, match="signal_len"):
            self.spec(signal_len=5, t_min=5)

    def test_save_and_reload_packed(self, tmp_path):
        ds = synth_generate(self.spec(), n_clips=6, n_subjects=2)
        save_synth_dataset(ds, tmp_path, frame_format="packed")
        m = load_manifest(tmp_path / "manifest.csv",
                          label_map=ds.label_map)
        assert len(m) == 6
        clip = read_clip(m.rows[0], m.label_map, m.base_dir)
        np.testing.assert_array_equal(clip.frames, ds.clips[0].frames)
        truth = load_truth(tmp_path / "truth.csv")
        assert truth == ds.truth

    def test_save_and_reload_pgm_quantized(self, tmp_path):
        ds = synth_generate(self.spec(), n_clips=3, n_subjects=1)
        save_synth_dataset(ds, tmp_path, frame_format="pgm")
        m = load_manifest(tmp_path / "manifest.csv", label_map=ds.label_map)
        clip = read_clip(m.rows[1], m.label_map, m.base_dir)
        assert clip.frames.shape == ds.clips[1].frames.shape
        assert np.max(np.abs(clip.frames - np.clip(ds.clips[1].frames, 0, 1))) \
            <= 1.0 / 255.0
