"""Per-frame spatial feature extractor.

A compact residual CNN applied to every frame of a clip with one shared
parameter set: a strided 5x5 stem, then stages of basic residual blocks.
Frames ride the batch axis, and all normalization is per frame and per
channel, so frame t's features never depend on any other frame and clips of
any length run through identical weights.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import DEFAULT_DTYPE, Tensor


@dataclass(frozen=True)
class BackboneConfig:
    """Static shape description of the extractor.

    ``stage_widths`` are the channel counts of the residual stages; the stem
    uses the first stage's width. ``output_grid`` is the spatial side pair
    the final feature map must land on.
    """

    input_side: int
    input_channels: int
    stage_widths: tuple
    blocks_per_stage: int
    output_grid: tuple

    @property
    def output_channels(self):
        return self.stage_widths[-1]


def paper_backbone():
    """Full-scale preset: 128x128 grayscale in, 512x4x4 feature map out."""
    return BackboneConfig(input_side=128, input_channels=1,
                          stage_widths=(64, 128, 256, 512),
                          blocks_per_stage=2, output_grid=(4, 4))


def desk_backbone():
    """Small preset for tests and demos: 32x32 in, 64x2x2 out."""
    return BackboneConfig(input_side=32, input_channels=1,
                          stage_widths=(8, 16, 32, 64),
                          blocks_per_stage=2, output_grid=(2, 2))


def _stage_strides(config):
    """Derive per-stage strides so the output grid is reached exactly.

    The stem always halves the side. After it, the first k stages stride 2
    and the rest stride 1, with k fixed by the target grid.
    """
    n_stages = len(config.stage_widths)
    if n_stages == 0:
        raise ValueError("backbone config: needs at least one stage")
    if config.blocks_per_stage < 1:
        raise ValueError("backbone config: needs at least one block per stage")
    gw, gh = config.output_grid
    if gw != gh:
        raise ValueError(f"backbone config: output grid must be square, got {gw}x{gh}")
    side = config.input_side
    if side % 2:
        raise ValueError(f"backbone config: input side must be even, got {side}")
    after_stem = side // 2
    ratio = after_stem / gw
    k = math.log2(ratio) if ratio >= 1 else -1
    if k < 0 or k != int(k):
        raise ValueError(
            f"backbone config: grid {gw}x{gh} unreachable from input {side} "
            f"(side is {after_stem} after the stem; stages halve or preserve it)")
    k = int(k)
    if k > n_stages:
        raise ValueError(
            f"backbone config: grid {gw}x{gh} needs {k} downsampling stages but "
            f"stage {n_stages} is the last one")
    return tuple(2 if i < k else 1 for i in range(n_stages))


class ConvUnit:
    """Convolution followed by per-frame channel normalization."""

    def __init__(self, cin, cout, kernel, stride, pad, rng, dtype):
        fan_in = cin * kernel * kernel
        self.w = Tensor(rng.normal((cout, cin, kernel, kernel),
                                   scale=math.sqrt(2.0 / fan_in), dtype=dtype),
                        requires_grad=True, dtype=dtype)
        self.gain = Tensor(np.ones(cout, dtype=dtype), requires_grad=True, dtype=dtype)
        self.shift = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True, dtype=dtype)
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        h = T.conv2d(x, self.w, stride=self.stride, padding=self.pad)
        return T.frame_norm(h, self.gain, self.shift)

    def parameters(self):
        return [("conv.w", self.w), ("norm.gain", self.gain), ("norm.shift", self.shift)]


class ResidualBlock:
    """Basic two-conv residual block with an optional projection shortcut."""

    def __init__(self, cin, cout, stride, rng, dtype):
        self.unit1 = ConvUnit(cin, cout, 3, stride, 1, rng, dtype)
        self.unit2 = ConvUnit(cout, cout, 3, 1, 1, rng, dtype)
        if stride != 1 or cin != cout:
            self.proj = ConvUnit(cin, cout, 1, stride, 0, rng, dtype)
        else:
            self.proj = None

    def __call__(self, x):
        h = self.unit1(x).relu()
        h = self.unit2(h)
        shortcut = self.proj(x) if self.proj is not None else x
        return T.add(h, shortcut).relu()

    def parameters(self):
        out = [("unit1." + n, p) for n, p in self.unit1.parameters()]
        out += [("unit2." + n, p) for n, p in self.unit2.parameters()]
        if self.proj is not None:
            out += [("proj." + n, p) for n, p in self.proj.parameters()]
        return out


@dataclass
class FeatureSequence:
    """Per-frame feature maps of one clip, shape (T, C, H, W)."""

    features: Tensor

    @property
    def frame_count(self):
        return self.features.shape[0]


class Backbone:
    """The shared per-frame extractor: stem plus residual stages."""

    def __init__(self, config, rng, dtype=DEFAULT_DTYPE):
        strides = _stage_strides(config)
        self.config = config
        self.dtype = dtype
        self.stem = ConvUnit(config.input_channels, config.stage_widths[0], 5, 2, 2,
                             rng, dtype)
        self.stages = []
        cin = config.stage_widths[0]
        for width, stride in zip(config.stage_widths, strides):
            blocks = []
            for b in range(config.blocks_per_stage):
                blocks.append(ResidualBlock(cin, width, stride if b == 0 else 1,
                                            rng, dtype))
                cin = width
            self.stages.append(blocks)

    def parameters(self):
        out = [("stem." + n, p) for n, p in self.stem.parameters()]
        for si, blocks in enumerate(self.stages, start=1):
            for bi, block in enumerate(blocks, start=1):
                prefix = f"stage{si}.block{bi}."
                out += [(prefix + n, p) for n, p in block.parameters()]
        return out

    def frame_features(self, frames):
        """Run the CNN with frames on the batch axis: (T,Cin,S,S) -> (T,C,H,W)."""
        h = self.stem(frames).relu()
        for blocks in self.stages:
            for block in blocks:
                h = block(h)
        return h


def extract_spatial_features(clip_frames, backbone):
    """Apply the shared extractor to every frame of one clip.

    ``clip_frames`` is an array (or Tensor) of shape (T, S, S) for grayscale
    input, or (T, Cin, S, S); a list of per-frame arrays also works. The
    result keeps one feature map per input frame, in order.
    """
    cfg = backbone.config
    expect = (cfg.input_channels, cfg.input_side, cfg.input_side)
    if isinstance(clip_frames, (list, tuple)):
        stacked = []
        for i, f in enumerate(clip_frames):
            fa = np.asarray(f)
            shape = fa.shape if fa.ndim == 3 else (1,) + fa.shape
            if shape != expect:
                raise ValueError(f"extract_spatial_features: frame {i} has shape "
                                 f"{fa.shape}, expected {expect}")
            stacked.append(fa.reshape(expect))
        if not stacked:
            raise ValueError("extract_spatial_features: clip has no frames")
        x = Tensor(np.stack(stacked).astype(backbone.dtype, copy=False),
                   dtype=backbone.dtype)
    elif isinstance(clip_frames, Tensor):
        x = clip_frames
        if x.ndim == 3:
            x = x.reshape(x.shape[0], 1, x.shape[1], x.shape[2])
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ValueError(f"extract_spatial_features: frame 0 has shape "
                             f"{tuple(x.shape[1:])}, expected {expect}")
    else:
        arr = np.asarray(clip_frames)
        if arr.ndim == 3:
            arr = arr[:, None, :, :]
        if arr.ndim != 4 or arr.shape[1:] != expect:
            raise ValueError(f"extract_spatial_features: frame 0 has shape "
                             f"{arr.shape[1:]}, expected {expect}")
        x = Tensor(arr.astype(backbone.dtype, copy=False), dtype=backbone.dtype)
    if x.shape[0] < 1:
        raise ValueError("extract_spatial_features: clip has no frames")
    return FeatureSequence(features=backbone.frame_features(x))
