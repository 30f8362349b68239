"""Adaptive key-frame selection.

Three steps over the pooled per-frame features: a local attention weight per
frame, a global aggregate feature, and a cosine score of every frame against
that aggregate. Frames scoring strictly above the mean score are kept; the
kept frames pass through a hard gather whose backward is a straight-through
rule (frame gradients route to their sources unscaled, and each kept frame's
score receives the inner product of its frame gradient with its features).
Two auxiliary losses shape the scores: a hinge on the kept scores' sum and a
margin between kept and dropped score means.

The hard threshold is piecewise constant, so ``gate_grad`` picks what the
score vector receives from the gather: "surrogate" (training default) uses
the straight-through rule; "local" routes nothing, which is the true local
derivative and is what finite differences measure.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import FeatureSequence
from .gradcheck import note_selection_margin
from .tensor import DEFAULT_DTYPE, Tensor

log = logging.getLogger(__name__)

GATE_GRAD_MODES = ("surrogate", "local")


@dataclass
class AkmParams:
    """Learnable attention vector plus the loss constants."""

    attention: Tensor
    margin_constant: float = 2.0
    sparsity_weight: float = 0.1
    margin_weight: float = 1.0

    def parameters(self):
        return [("attention.w", self.attention)]


def init_akm_params(channels, rng, dtype=DEFAULT_DTYPE, **constants):
    w = rng.normal((channels,), scale=math.sqrt(1.0 / channels), dtype=dtype)
    return AkmParams(attention=Tensor(w, requires_grad=True, dtype=dtype), **constants)


@dataclass
class SelectionResult:
    """Everything the selection step decided for one clip."""

    alpha: Tensor            # (T,) local attention weights, each in (0,1)
    global_feature: Tensor   # (C,) aggregate
    beta: Tensor             # (T,) cosine scores in [-1,1]
    binary: np.ndarray       # (T,) 0/1 forward gate
    indices: tuple           # kept frames, 1-based, strictly increasing
    relaxed: Tensor          # (T,) beta where kept, exactly 0 elsewhere
    fallback: bool           # no frame scored above the mean

    @property
    def frame_count(self):
        return int(self.binary.shape[0])

    @property
    def n_selected(self):
        return len(self.indices)


@dataclass
class KeyFrameFeatures:
    """Gathered features of the kept frames, source order preserved."""

    features: Tensor         # (N, C, H, W)
    source_indices: tuple    # 1-based

    @property
    def n_frames(self):
        return self.features.shape[0]


@dataclass
class MiningLosses:
    """Selection-shaping losses of one clip."""

    sparsity: Tensor
    margin: Tensor
    combined: Tensor


def _as_feature_tensor(features):
    if isinstance(features, FeatureSequence):
        return features.features
    if isinstance(features, Tensor):
        return features
    return Tensor(np.asarray(features))


def pool_spatial(features):
    """Average each frame's feature map over its spatial grid: (T,C,H,W) -> (T,C)."""
    feats = _as_feature_tensor(features)
    return T.global_avg_pool(feats)


def local_attention(pooled, params):
    """Per-frame attention weight: sigmoid of the attention vector dotted
    with each pooled frame. No cross-frame terms."""
    w = params.attention if isinstance(params, AkmParams) else params
    scores = T.sum_(T.mul(pooled, w), axis=1)
    return T.sigmoid(scores)


def global_aggregate(pooled, alpha):
    """Attention-weighted sum of the pooled frames (unnormalized).

    Uses exactly rounded summation so any frame permutation yields a
    bit-identical aggregate.
    """
    return T.exact_weighted_sum(pooled, alpha)


def correlate(pooled, global_feature, eps=1e-8):
    """Cosine score of every pooled frame against the aggregate.

    A zero-norm operand makes the affected scores exactly 0 (stabilized
    denominator). A zero aggregate zeroes every score, so the clip falls
    back: that is logged as a warning. Zero rows under a non-zero aggregate
    are frames a trained backbone has silenced, which the gate then drops:
    that is logged at debug level. Either is logged once per clip.
    """
    row_norms = np.sqrt((pooled.data.astype(np.float64) ** 2).sum(axis=1))
    vec_norm = math.sqrt(float((global_feature.data.astype(np.float64) ** 2).sum()))
    if vec_norm == 0.0:
        log.warning("correlate: zero-norm aggregate, every score set to 0")
    elif np.any(row_norms == 0.0):
        log.debug("correlate: zero-norm frame feature, its score set to 0")
    return T.cosine_rows(pooled, global_feature, eps=eps)


def binarize(beta):
    """Gate each frame by its score being strictly above the mean score.

    Returns the 0/1 gate, the kept positions (0-based, increasing) and a
    fallback flag. When no score clears the threshold (constant scores, or a
    single frame) the earliest maximum is kept so at least one frame always
    survives. The mean uses exactly rounded summation, making the threshold
    decision permutation-invariant bit for bit.
    """
    values = beta.data if isinstance(beta, Tensor) else np.asarray(beta)
    vals = values.astype(np.float64, copy=False)
    t = vals.shape[0]
    if t < 1:
        raise ValueError("binarize: empty score vector")
    mean = math.fsum(vals) / t
    note_selection_margin(float(np.abs(vals - mean).min()))
    gate = vals > mean
    fallback = not gate.any()
    if fallback:
        gate = np.zeros(t, dtype=bool)
        gate[int(np.argmax(vals))] = True
    return gate.astype(np.int8), np.flatnonzero(gate), fallback


class RoutingAudit:
    """Process-wide tally of the straight-through zero-routing assertion.

    Every backward pass through the key-frame gather verifies, bit for bit,
    that dropped frames received zero frame-gradient and non-surrogate
    positions received zero score-gradient, then bumps these counters. Tests
    read them to prove the assertion actually ran.
    """

    passes = 0
    violations = 0

    @classmethod
    def snapshot(cls):
        return cls.passes, cls.violations


def _audit_routing(d_frames, d_scores, kept_idx0, surrogate_idx0):
    t_count = d_frames.shape[0]
    dropped = np.ones(t_count, dtype=bool)
    dropped[kept_idx0] = False
    no_surrogate = np.ones(t_count, dtype=bool)
    if surrogate_idx0 is not None and len(surrogate_idx0):
        no_surrogate[np.asarray(surrogate_idx0)] = False
    ok = not d_frames[dropped].any() and not d_scores[no_surrogate].any()
    RoutingAudit.passes += 1
    if not ok:
        RoutingAudit.violations += 1
        raise AssertionError("straight-through routing leaked gradient into "
                             "unselected frames or scores")


def selection_backward(g_key, frame_values, kept_idx0, surrogate_idx0=None):
    """Adjoint of the straight-through gather, on raw arrays.

    Frame gradients scatter to their source frames, zero elsewhere. Each
    position in ``surrogate_idx0`` (a subset of the kept positions) receives
    the inner product of its frame gradient with its frame's features as the
    score gradient; every other score coordinate is exactly 0.
    """
    d_frames = np.zeros_like(frame_values)
    d_frames[kept_idx0] = g_key
    d_scores = np.zeros(frame_values.shape[0], dtype=frame_values.dtype)
    if surrogate_idx0 is not None and len(surrogate_idx0):
        surrogate_mask = np.isin(kept_idx0, surrogate_idx0)
        rows = np.flatnonzero(surrogate_mask)
        per_frame = (g_key[rows] * frame_values[kept_idx0[rows]]).reshape(len(rows), -1).sum(axis=1)
        d_scores[kept_idx0[rows]] = per_frame.astype(frame_values.dtype)
    return d_frames, d_scores


def gather_key_frames(features, binary, beta=None, surrogate_idx0=()):
    """Copy the gated frames out of the sequence, order preserved, unscaled.

    With ``beta`` given, the backward pass additionally routes the
    straight-through score gradients of ``surrogate_idx0`` into it.
    """
    feats = _as_feature_tensor(features)
    gate = np.asarray(binary)
    if gate.shape[0] != feats.shape[0]:
        raise T.ShapeMismatch("gather_key_frames", gate.shape, feats.shape)
    kept_idx0 = np.flatnonzero(gate)
    if kept_idx0.size == 0:
        raise ValueError("gather_key_frames: gate keeps no frames")
    surrogate = np.asarray(surrogate_idx0, dtype=np.intp)
    data = feats.data[kept_idx0].copy()
    parents = (feats,) if beta is None else (feats, beta)

    def rule(g):
        d_frames, d_scores = selection_backward(g, feats.data, kept_idx0,
                                                surrogate if surrogate.size else None)
        _audit_routing(d_frames, d_scores, kept_idx0,
                       surrogate if surrogate.size else None)
        if feats.requires_grad:
            feats.accumulate(d_frames)
        if beta is not None and beta.requires_grad:
            beta.accumulate(d_scores)

    node = T.custom_node(data, "key_frame_gather", parents, rule)
    return KeyFrameFeatures(features=node,
                            source_indices=tuple(int(i) + 1 for i in kept_idx0))


def sparsity_loss(relaxed):
    """Hinge on the kept scores' sum: max(0, sum - 1).

    Operates on the relaxed gate values (score where kept, 0 elsewhere), so
    it is differentiable in the scores.
    """
    return T.relu(T.sub(T.sum_(relaxed), 1.0))


def margin_loss(beta, binary, margin_constant=2.0):
    """Margin between kept and dropped score means, subtracted from a constant.

    Counts come from the binary gate; with nothing dropped (single frame)
    the dropped mean is 0 by convention.
    """
    gate = np.asarray(binary)
    kept_idx0 = np.flatnonzero(gate)
    dropped_idx0 = np.flatnonzero(gate == 0)
    if kept_idx0.size == 0:
        raise ValueError("margin_loss: gate keeps no frames")
    kept_mean = T.div(T.sum_(T.gather(beta, kept_idx0)), float(kept_idx0.size))
    if dropped_idx0.size:
        dropped_mean = T.div(T.sum_(T.gather(beta, dropped_idx0)), float(dropped_idx0.size))
        margin = T.sub(kept_mean, dropped_mean)
    else:
        margin = kept_mean
    return T.sub(T.constant(margin_constant, dtype=beta.data.dtype), margin)


def gsmmm_loss(l_sparsity, l_margin, sparsity_weight=0.1, margin_weight=1.0):
    """Weighted sum of the two selection losses."""
    return T.add(T.mul(l_sparsity, float(sparsity_weight)),
                 T.mul(l_margin, float(margin_weight)))


def gate_scores(features, scores, params, gate_grad="surrogate", alpha=None,
                aggregate=None):
    """Gate one clip's frames by their scores: the tail every score-based
    policy shares.

    Binarizes ``scores``, gathers the kept frames through the
    straight-through gather and builds the relaxed gate and the selection
    losses. ``alpha`` (default: the scores) and ``aggregate`` are only
    reported in the selection record. ``gate_grad`` chooses the score
    gradient of the hard gate as described in the module docstring.
    """
    if gate_grad not in GATE_GRAD_MODES:
        raise ValueError(f"selection: gate_grad must be one of {GATE_GRAD_MODES}, got {gate_grad!r}")
    gate, kept_idx0, fallback = binarize(scores)
    surrogate_idx0 = kept_idx0 if (gate_grad == "surrogate" and not fallback) else ()
    key = gather_key_frames(features, gate, beta=scores, surrogate_idx0=surrogate_idx0)

    dtype = scores.data.dtype
    relaxed = T.mul(scores, Tensor(gate.astype(dtype), dtype=dtype))
    l_gs = sparsity_loss(relaxed)
    l_mmm = margin_loss(scores, gate, margin_constant=params.margin_constant)
    combined = gsmmm_loss(l_gs, l_mmm,
                          sparsity_weight=params.sparsity_weight,
                          margin_weight=params.margin_weight)

    result = SelectionResult(alpha=scores if alpha is None else alpha,
                             global_feature=aggregate, beta=scores,
                             binary=gate, indices=key.source_indices,
                             relaxed=relaxed, fallback=fallback)
    return key, result, MiningLosses(sparsity=l_gs, margin=l_mmm, combined=combined)


def mine(features, params, gate_grad="surrogate"):
    """Run the full selection pipeline on one clip's feature sequence.

    Returns the gathered key-frame features, the selection record and the
    selection losses; ``gate_grad`` is passed to ``gate_scores``.
    """
    feats = _as_feature_tensor(features)
    pooled = pool_spatial(feats)
    alpha = local_attention(pooled, params)
    aggregate = global_aggregate(pooled, alpha)
    beta = correlate(pooled, aggregate)
    return gate_scores(feats, beta, params, gate_grad=gate_grad, alpha=alpha,
                       aggregate=aggregate)
