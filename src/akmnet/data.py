"""Clip ingestion and dataset plumbing.

Covers the manifest format, the on-disk frame formats (binary PGM series and
a packed float tensor), random-crop augmentation, linear temporal
resampling, and a synthetic generator that plants a recoverable signal
window inside noise clips.
"""

import csv
import io
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import RngStream

# 4-way emotion grouping used by the default manifests; callers may override.
DEFAULT_LABEL_MAP = {"positive": 0, "negative": 1, "surprise": 2, "others": 3}

MANIFEST_HEADER = ["clip_id", "subject_id", "label", "frames_path",
                   "onset", "apex", "offset", "framerate"]

PACKED_MAGIC = b"AKMT"
PACKED_VERSION = 1


class DataError(ValueError):
    pass


@dataclass
class Clip:
    """One video clip, frames scaled to [0, 1]."""

    clip_id: str
    subject_id: str
    label: int
    frames: np.ndarray              # (T, S, S)
    onset: int = None               # 1-based, onset <= apex <= offset
    apex: int = None
    offset: int = None
    framerate: float = None

    def __post_init__(self):
        if self.frames.ndim != 3 or self.frames.shape[0] < 1:
            raise DataError(f"clip {self.clip_id}: frames must be (T, H, W) "
                            f"with T >= 1, got {self.frames.shape}")
        marks = (self.onset, self.apex, self.offset)
        if all(m is not None for m in marks):
            if not (1 <= self.onset <= self.apex <= self.offset <= self.frame_count):
                raise DataError(f"clip {self.clip_id}: need 1 <= onset <= apex "
                                f"<= offset <= {self.frame_count}, got {marks}")

    @property
    def frame_count(self):
        return int(self.frames.shape[0])


@dataclass
class ManifestRow:
    clip_id: str
    subject_id: str
    label_name: str
    frames_path: str
    onset: int = None
    apex: int = None
    offset: int = None
    framerate: float = None


@dataclass
class Manifest:
    rows: list
    label_map: dict = field(default_factory=lambda: dict(DEFAULT_LABEL_MAP))
    base_dir: Path = Path(".")

    def __len__(self):
        return len(self.rows)


def _parse_optional_int(text, what, line_no):
    text = text.strip()
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        raise DataError(f"manifest line {line_no}: {what} must be an integer, "
                        f"got {text!r}")


def _parse_optional_framerate(text, line_no):
    text = text.strip()
    if text == "":
        return None
    try:
        rate = float(text)
    except ValueError:
        rate = math.nan
    if not (math.isfinite(rate) and rate > 0):
        raise DataError(f"manifest line {line_no}: framerate must be a finite "
                        f"positive number, got {text!r}")
    return rate


def load_manifest(path, label_map=None):
    """Parse and validate a manifest CSV.

    Rejects a wrong header, unknown labels, duplicate clip ids (at the second
    occurrence) and malformed rows, each with the offending line number.
    """
    path = Path(path)
    label_map = dict(DEFAULT_LABEL_MAP) if label_map is None else dict(label_map)
    rows = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty manifest file, expected header "
                            f"{','.join(MANIFEST_HEADER)}")
        if [h.strip() for h in header] != MANIFEST_HEADER:
            raise DataError(f"{path}: bad header {header!r}, expected "
                            f"{MANIFEST_HEADER}")
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(MANIFEST_HEADER):
                raise DataError(f"manifest line {line_no}: expected "
                                f"{len(MANIFEST_HEADER)} fields, got {len(raw)}")
            clip_id, subject_id, label_name, frames_path = (x.strip() for x in raw[:4])
            if clip_id in seen:
                raise DataError(f"manifest line {line_no}: duplicate clip id "
                                f"{clip_id!r}")
            seen.add(clip_id)
            if label_name not in label_map:
                raise DataError(f"manifest line {line_no}: unknown label "
                                f"{label_name!r}, expected one of "
                                f"{sorted(label_map)}")
            onset = _parse_optional_int(raw[4], "onset", line_no)
            apex = _parse_optional_int(raw[5], "apex", line_no)
            offset = _parse_optional_int(raw[6], "offset", line_no)
            framerate = _parse_optional_framerate(raw[7], line_no)
            marks = (onset, apex, offset)
            if all(m is not None for m in marks) and not (onset <= apex <= offset):
                raise DataError(f"manifest line {line_no}: need onset <= apex "
                                f"<= offset, got {marks}")
            rows.append(ManifestRow(clip_id, subject_id, label_name, frames_path,
                                    onset, apex, offset, framerate))
    return Manifest(rows=rows, label_map=label_map, base_dir=path.parent)


def save_manifest(manifest, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for r in manifest.rows:
            writer.writerow([
                r.clip_id, r.subject_id, r.label_name, r.frames_path,
                "" if r.onset is None else r.onset,
                "" if r.apex is None else r.apex,
                "" if r.offset is None else r.offset,
                "" if r.framerate is None else _format_rate(r.framerate),
            ])


def _format_rate(rate):
    """Shortest text that reads back as the same float: 60 stays ``60``."""
    rate = float(rate)
    short = f"{rate:g}"
    return short if float(short) == rate else repr(rate)


# frame formats ------------------------------------------------------------

def write_pgm(path, image):
    """Write one frame as binary 8-bit PGM. Values in [0,1] are quantized."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(img.tobytes())


def _pgm_token(fh):
    # whitespace-separated token, '#' starts a comment running to end of line
    tok = b""
    while True:
        c = fh.read(1)
        if not c:
            raise DataError("truncated PGM header")
        if c == b"#":
            while c not in (b"\n", b""):
                c = fh.read(1)
            continue
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def read_pgm(path):
    """Read a binary 8-bit PGM frame as uint8 (H, W)."""
    with open(path, "rb") as fh:
        if fh.read(2) != b"P5":
            raise DataError(f"{path}: not a binary PGM file")
        w = int(_pgm_token(fh))
        h = int(_pgm_token(fh))
        maxval = int(_pgm_token(fh))
        if maxval != 255:
            raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
        raster = fh.read(w * h)
        if len(raster) != w * h:
            raise DataError(f"{path}: truncated raster, expected {w * h} bytes, "
                            f"got {len(raster)}")
        return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def save_packed(path, array):
    """Write a float tensor in the packed binary format."""
    arr = np.ascontiguousarray(np.asarray(array), dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(PACKED_MAGIC)
        fh.write(struct.pack("<II", PACKED_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def load_packed(path):
    """Read a packed float tensor back as float32."""
    with open(path, "rb") as fh:
        blob = fh.read()
    view = io.BytesIO(blob)

    def take(n, what):
        chunk = view.read(n)
        if len(chunk) != n:
            raise DataError(f"{path}: truncated while reading {what}")
        return chunk

    if take(4, "magic") != PACKED_MAGIC:
        raise DataError(f"{path}: not a packed tensor file")
    version, ndim = struct.unpack("<II", take(8, "header"))
    if version != PACKED_VERSION:
        raise DataError(f"{path}: unsupported packed version {version}")
    shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "extents"))
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    payload = take(4 * count, "payload")
    if view.read(1):
        raise DataError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)


def read_clip(row, label_map=None, base_dir="."):
    """Materialize one manifest row: a PGM frame directory or a packed file.

    PGM directories must contain frame_0001.pgm .. frame_NNNN.pgm with no
    gaps; pixel values come back scaled to [0, 1].
    """
    label_map = DEFAULT_LABEL_MAP if label_map is None else label_map
    path = Path(base_dir) / row.frames_path
    if path.is_dir():
        names = sorted(p.name for p in path.glob("frame_*.pgm"))
        if not names:
            raise DataError(f"clip {row.clip_id}: no frames under {path}")
        count = len(names)
        frames = []
        for i in range(1, count + 1):
            fp = path / f"frame_{i:04d}.pgm"
            if fp.name not in names:
                raise DataError(f"clip {row.clip_id}: missing frame index {i} "
                                f"({fp.name})")
            frames.append(read_pgm(fp).astype(np.float32) / 255.0)
        stack = np.stack(frames)
    elif path.is_file():
        stack = load_packed(path)
        if stack.ndim != 3:
            raise DataError(f"clip {row.clip_id}: packed frames must be 3-d, "
                            f"got shape {stack.shape}")
    else:
        raise DataError(f"clip {row.clip_id}: frames path {path} not found")
    return Clip(clip_id=row.clip_id, subject_id=row.subject_id,
                label=label_map[row.label_name], frames=stack,
                onset=row.onset, apex=row.apex, offset=row.offset,
                framerate=row.framerate)


# geometry -----------------------------------------------------------------

def bilinear_resize(frames, out_h, out_w):
    """Resize (T, H, W) or (H, W) frames bilinearly, half-pixel centers.

    Equal input and output sizes return a bit-identical copy.
    """
    arr = np.asarray(frames)
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    t, h, w = arr.shape
    if (h, w) == (out_h, out_w):
        out = arr.copy()
        return out[0] if single else out

    def axis_weights(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.intp)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = (src - lo).astype(arr.dtype if arr.dtype.kind == "f" else np.float32)
        return lo, hi, frac

    ylo, yhi, yf = axis_weights(h, out_h)
    xlo, xhi, xf = axis_weights(w, out_w)
    rows_lo = arr[:, ylo]
    rows_hi = arr[:, yhi]
    rows = rows_lo + yf[None, :, None] * (rows_hi - rows_lo)
    cols_lo = rows[:, :, xlo]
    cols_hi = rows[:, :, xhi]
    out = cols_lo + xf[None, None, :] * (cols_hi - cols_lo)
    return out[0] if single else out


def crop_frames(frames, crop_side, rng=None, training=False):
    """Spatially normalize a clip to ``crop_side``.

    Training: resize to 9/8 of the target then cut one random window shared
    by every frame of the clip. Evaluation: deterministic resize only.
    """
    frames = np.asarray(frames)
    if not training:
        return bilinear_resize(frames, crop_side, crop_side)
    if rng is None:
        raise ValueError("crop_frames: training mode needs an rng")
    resize_side = (crop_side * 9) // 8
    big = bilinear_resize(frames, resize_side, resize_side)
    slack = resize_side - crop_side
    dy = int(rng.integers(0, slack + 1))
    dx = int(rng.integers(0, slack + 1))
    return big[:, dy:dy + crop_side, dx:dx + crop_side].copy()


def temporal_resample(frames, target_len):
    """Linear resample along time to ``target_len`` frames.

    Sample positions are evenly spaced over [1, T] including both endpoints;
    integer positions copy their source frame bit-for-bit, fractional ones
    blend the two neighbors (clamped to their pixel-wise envelope). A
    single-frame clip replicates. Stand-in for fancier interpolation.
    """
    target_len = int(target_len)
    if target_len < 2:
        raise ValueError(f"temporal_resample: target_len must be >= 2, "
                         f"got {target_len}")
    arr = np.asarray(frames)
    t = arr.shape[0]
    if t == 1:
        return np.repeat(arr, target_len, axis=0)
    pos = np.arange(target_len) * ((t - 1) / (target_len - 1))
    lo = np.floor(pos).astype(np.intp)
    lo = np.minimum(lo, t - 2)
    frac = pos - lo
    out = np.empty((target_len,) + arr.shape[1:], dtype=arr.dtype)
    for j in range(target_len):
        f = frac[j]
        if f == 0.0:
            out[j] = arr[lo[j]]
        elif f == 1.0:
            out[j] = arr[lo[j] + 1]
        else:
            a, b = arr[lo[j]], arr[lo[j] + 1]
            blend = a + arr.dtype.type(f) * (b - a) if arr.dtype.kind == "f" \
                else a + f * (b - a)
            out[j] = np.clip(blend, np.minimum(a, b), np.maximum(a, b))
    return out


# synthetic data -----------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Planted-signal dataset: noise clips with one short class-coded window."""

    n_classes: int = 4
    t_min: int = 6
    t_max: int = 12
    signal_len: int = 3
    noise_scale: float = 0.05
    amplitude: float = 0.25
    side: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.signal_len >= self.t_min:
            raise ValueError(f"SynthSpec: signal_len ({self.signal_len}) must "
                             f"be < t_min ({self.t_min})")
        if self.n_classes < 1 or self.t_min < 1 or self.side < 1:
            raise ValueError("SynthSpec: counts and sizes must be positive")


@dataclass
class SynthDataset:
    spec: SynthSpec
    clips: list                     # Clip objects
    truth: dict                     # clip_id -> (signal_start, signal_len), 1-based
    label_map: dict

    def __len__(self):
        return len(self.clips)


def class_patterns(spec):
    """One fixed smooth spatial blob per class, unit peak magnitude."""
    rng = RngStream(spec.seed).child("patterns")
    coarse_side = max(2, spec.side // 8)
    blobs = []
    for k in range(spec.n_classes):
        coarse = rng.child(f"class-{k}").normal((coarse_side, coarse_side),
                                                dtype=np.float64)
        blob = bilinear_resize(coarse, spec.side, spec.side)
        blob = blob / np.max(np.abs(blob))
        blobs.append(blob.astype(np.float32))
    return blobs


def synth_generate(spec, n_clips, n_subjects=4):
    """Deterministically generate clips with a planted class signature.

    Clip ``i`` gets label ``i % M`` and a block-round-robin subject, so every
    subject sees every class once the clip count is a multiple of both. Each
    clip is Gaussian noise around mid-gray with ``signal_len`` consecutive
    frames carrying the class blob; the window (1-based) is the ground truth
    and its center is recorded as the apex.
    """
    if n_clips < 1:
        raise ValueError("synth_generate: need at least one clip")
    patterns = class_patterns(spec)
    root = RngStream(spec.seed)
    clips, truth = [], {}
    label_map = {f"class{k}": k for k in range(spec.n_classes)}
    for i in range(n_clips):
        label = i % spec.n_classes
        subject = (i // spec.n_classes) % n_subjects
        rng = root.child(f"clip-{i}")
        t = int(rng.integers(spec.t_min, spec.t_max + 1))
        frames = 0.5 + spec.noise_scale * rng.normal((t, spec.side, spec.side),
                                                     dtype=np.float64)
        start0 = int(rng.integers(0, t - spec.signal_len + 1))
        frames[start0:start0 + spec.signal_len] += spec.amplitude * patterns[label]
        clip_id = f"synth{i:04d}"
        start1 = start0 + 1
        end1 = start0 + spec.signal_len
        clips.append(Clip(clip_id=clip_id, subject_id=f"subj{subject:02d}",
                          label=label, frames=frames.astype(np.float32),
                          onset=start1, apex=(start1 + end1) // 2, offset=end1,
                          framerate=60.0))
        truth[clip_id] = (start1, spec.signal_len)
    return SynthDataset(spec=spec, clips=clips, truth=truth,
                        label_map=label_map)


def save_synth_dataset(dataset, out_dir, frame_format="packed"):
    """Write a generated dataset as manifest + frames + ground-truth CSV."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inverse = {v: k for k, v in dataset.label_map.items()}
    rows = []
    for clip in dataset.clips:
        if frame_format == "packed":
            rel = f"{clip.clip_id}.akmt"
            save_packed(out_dir / rel, clip.frames)
        elif frame_format == "pgm":
            rel = clip.clip_id
            frame_dir = out_dir / rel
            frame_dir.mkdir(exist_ok=True)
            for t in range(clip.frame_count):
                write_pgm(frame_dir / f"frame_{t + 1:04d}.pgm", clip.frames[t])
        else:
            raise ValueError(f"unknown frame format {frame_format!r}")
        rows.append(ManifestRow(clip.clip_id, clip.subject_id,
                                inverse[clip.label], rel, clip.onset,
                                clip.apex, clip.offset, clip.framerate))
    manifest = Manifest(rows=rows, label_map=dict(dataset.label_map),
                        base_dir=out_dir)
    save_manifest(manifest, out_dir / "manifest.csv")
    with open(out_dir / "truth.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "signal_start", "signal_len"])
        for clip in dataset.clips:
            start, length = dataset.truth[clip.clip_id]
            writer.writerow([clip.clip_id, start, length])
    return manifest


def load_truth(path):
    truth = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["clip_id", "signal_start", "signal_len"]:
            raise DataError(f"{path}: bad ground-truth header {header!r}")
        for row in reader:
            truth[row[0]] = (int(row[1]), int(row[2]))
    return truth


def load_clips(manifest):
    return [read_clip(row, manifest.label_map, manifest.base_dir)
            for row in manifest.rows]
