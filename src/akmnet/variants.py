"""Selection-policy variants: the full mining pipeline, its partial wirings,
and fixed frame-subset baselines.

A policy owns two hooks. ``prepare`` runs on the raw frame stack before the
backbone and may subsample or resample it; ``select`` runs on the per-frame
features and decides which of them feed the temporal head. The base
``select`` keeps every prepared frame, so the ``va-*`` baselines override
only ``prepare``. Exactly one policy is active per model instance.

Naming: ``s123`` is the full pipeline (attention, aggregation+correlation,
binarization). ``s12`` stops before the hard gate and soft-scales every frame
by its correlation score. ``s13`` binarizes the attention weights directly,
skipping the aggregate. ``s23`` replaces the learned attention with uniform
weights. The ``va-*`` policies bypass scoring entirely: all frames, a linear
temporal resample, a uniform random subset, or the last ten frames.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import temporal_resample
from .selection import (
    KeyFrameFeatures,
    MiningLosses,
    SelectionResult,
    _as_feature_tensor,
    correlate,
    gate_scores,
    gather_key_frames,
    global_aggregate,
    local_attention,
    mine,
    pool_spatial,
)


@dataclass(frozen=True)
class SubsetMeta:
    """Which original frames survived ``prepare``: 1-based, increasing."""

    original_total: int
    kept: tuple


def _zero_loss(dtype):
    z = T.constant(np.zeros((), dtype=dtype))
    return MiningLosses(sparsity=z, margin=z,
                        combined=T.constant(np.zeros((), dtype=dtype)))


def _identity_select(feats, original_indices):
    """Keep every prepared frame; report selection against the source clip."""
    n = feats.shape[0]
    gate_here = np.ones(n, dtype=np.int8)
    key = gather_key_frames(feats, gate_here)
    if original_indices is None:
        total, kept = n, tuple(range(1, n + 1))
    else:
        total, kept = original_indices.original_total, original_indices.kept
    binary = np.zeros(total, dtype=np.int8)
    binary[np.asarray(kept) - 1] = 1
    zeros = T.constant(np.zeros(total, dtype=feats.data.dtype))
    sel = SelectionResult(alpha=zeros, global_feature=None, beta=zeros,
                          binary=binary, indices=kept, relaxed=zeros,
                          fallback=False)
    key = KeyFrameFeatures(features=key.features, source_indices=kept)
    return key, sel, _zero_loss(feats.data.dtype)


class SelectionPolicy:
    """Base: pass the frames through untouched and keep every one of them."""

    name = "base"
    stochastic = False

    def prepare(self, frames, rng=None):
        return frames, None

    def select(self, features, akm, original_indices=None,
               gate_grad="surrogate", rng=None):
        return _identity_select(_as_feature_tensor(features), original_indices)

    def __repr__(self):
        return f"<policy {self.name}>"


class FullMining(SelectionPolicy):
    """Attention, exact aggregation, correlation, hard gate: the default."""

    name = "s123"

    def select(self, features, akm, original_indices=None,
               gate_grad="surrogate", rng=None):
        return mine(features, akm, gate_grad=gate_grad)


class SoftScores(SelectionPolicy):
    """Scores without the gate: every frame passes, scaled by its score."""

    name = "s12"

    def select(self, features, akm, original_indices=None,
               gate_grad="surrogate", rng=None):
        feats = _as_feature_tensor(features)
        n = feats.shape[0]
        pooled = pool_spatial(feats)
        alpha = local_attention(pooled, akm)
        aggregate = global_aggregate(pooled, alpha)
        beta = correlate(pooled, aggregate)
        scaled = T.mul(feats, T.reshape(beta, (n, 1, 1, 1)))
        kept = tuple(range(1, n + 1))
        key = KeyFrameFeatures(features=scaled, source_indices=kept)
        sel = SelectionResult(alpha=alpha, global_feature=aggregate, beta=beta,
                              binary=np.ones(n, dtype=np.int8), indices=kept,
                              relaxed=beta, fallback=False)
        return key, sel, _zero_loss(feats.data.dtype)


class AttentionGate(SelectionPolicy):
    """Binarize the attention weights themselves; no aggregate, no cosine."""

    name = "s13"

    def select(self, features, akm, original_indices=None,
               gate_grad="surrogate", rng=None):
        feats = _as_feature_tensor(features)
        alpha = local_attention(pool_spatial(feats), akm)
        return gate_scores(feats, alpha, akm, gate_grad=gate_grad)


class UniformAggregate(SelectionPolicy):
    """Drop the learned attention: aggregate with uniform 1/T weights."""

    name = "s23"

    def select(self, features, akm, original_indices=None,
               gate_grad="surrogate", rng=None):
        feats = _as_feature_tensor(features)
        n = feats.shape[0]
        pooled = pool_spatial(feats)
        alpha = T.constant(np.full(n, 1.0 / n, dtype=pooled.data.dtype))
        aggregate = global_aggregate(pooled, alpha)
        beta = correlate(pooled, aggregate)
        return gate_scores(feats, beta, akm, gate_grad=gate_grad, alpha=alpha,
                           aggregate=aggregate)


class AllFrames(SelectionPolicy):
    """No selection at all: the temporal head sees the whole clip."""

    name = "va-all"


class NormalizedLength(SelectionPolicy):
    """Linearly resample every clip to a fixed length before the backbone."""

    name = "va-norm"

    def __init__(self, length):
        if int(length) < 2:
            raise ValueError(f"va-norm: length must be >= 2, got {length}")
        self.length = int(length)

    def prepare(self, frames, rng=None):
        return temporal_resample(frames, self.length), None


class RandomSubset(SelectionPolicy):
    """Uniform random subset of the frames, order preserved.

    A count exceeding the clip length is clamped with a warning. Evaluation
    of this policy is resampled several times and averaged (see evaluate).
    """

    name = "va-random"
    stochastic = True

    def __init__(self, count):
        if int(count) < 1:
            raise ValueError(f"va-random: count must be >= 1, got {count}")
        self.count = int(count)

    def prepare(self, frames, rng=None):
        if rng is None:
            raise ValueError("va-random: prepare needs an rng")
        total = frames.shape[0]
        count = self.count
        if count > total:
            warnings.warn(f"va-random: requested {count} frames from a clip "
                          f"of {total}, keeping all {total}")
            count = total
        idx0 = np.sort(rng.permutation(total)[:count])
        meta = SubsetMeta(original_total=total,
                          kept=tuple(int(i) + 1 for i in idx0))
        return frames[idx0], meta


class LastTen(SelectionPolicy):
    """Keep the final min(10, T) frames of the clip."""

    name = "va-last10"
    window = 10

    def prepare(self, frames, rng=None):
        total = frames.shape[0]
        start = max(0, total - self.window)
        meta = SubsetMeta(original_total=total,
                          kept=tuple(range(start + 1, total + 1)))
        return frames[start:], meta


DEFAULT_RANDOM_COUNT = 10

# name -> (policy class, its one parameter or None, that parameter's default)
_VARIANTS = {
    "s123": (FullMining, None, None),
    "s12": (SoftScores, None, None),
    "s13": (AttentionGate, None, None),
    "s23": (UniformAggregate, None, None),
    "va-all": (AllFrames, None, None),
    "va-norm": (NormalizedLength, "length", None),
    "va-random": (RandomSubset, "count", DEFAULT_RANDOM_COUNT),
    "va-last10": (LastTen, None, None),
}
VARIANT_NAMES = tuple(_VARIANTS)


def make_variant(name, **params):
    """Build a policy from its name, e.g. ``"s123"``, ``"va-norm:16"`` or the
    compact ``"va-norm16"`` form.

    Parameterized policies take their argument after a colon, fused onto the
    name, or as a keyword (``length`` for va-norm, ``count`` for va-random;
    the count defaults to 10 when omitted). A keyword wins over the name.
    """
    name = str(name)
    if ":" in name:
        name, _, arg = name.partition(":")
        try:
            arg = int(arg)
        except ValueError:
            raise ValueError(f"variant parameter must be an integer, got {arg!r}")
        key = _VARIANTS[name][1] if name in _VARIANTS else None
        if key is None:
            raise ValueError(f"variant {name!r} takes no parameter")
        params.setdefault(key, arg)
    elif name not in _VARIANTS:
        for stem, (_, key, _) in _VARIANTS.items():
            if key and name.startswith(stem) and name[len(stem):].isdigit():
                params.setdefault(key, int(name[len(stem):]))
                name = stem
                break
    if name not in _VARIANTS:
        raise ValueError(f"unknown variant {name!r}, expected one of {VARIANT_NAMES}")
    cls, key, default = _VARIANTS[name]
    if key is None:
        return cls()
    if default is not None:
        params.setdefault(key, default)
    if key not in params:
        raise ValueError(f"{name} needs a {key}, e.g. '{name}:16'")
    return cls(params[key])
