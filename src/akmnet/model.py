"""Full model assembly: backbone, selection policy, recurrent head, classifier.

One model instance owns one selection policy (the full mining pipeline by
default). Every forward pass runs a single clip end to end; clips of any
length share the same parameters.
"""

from dataclasses import dataclass, field

import numpy as np

from .backbone import Backbone, desk_backbone, extract_spatial_features
from .recurrent import (ClassifierHead, GruParams, classify, cross_entropy,
                        pixelwise_encode, total_loss)
from .rng import RngStream
from .selection import init_akm_params
from .tensor import DEFAULT_DTYPE, Tensor
from .variants import make_variant


@dataclass
class ModelConfig:
    """Everything needed to build a model, minus the seed."""

    backbone: "BackboneConfig" = field(default_factory=desk_backbone)
    n_classes: int = 4
    gru_hidden: int = 32
    gru_layers: int = 2
    dropout_p: float = 0.5
    margin_constant: float = 2.0
    sparsity_weight: float = 0.1
    margin_weight: float = 1.0


@dataclass
class ForwardResult:
    """One clip's forward pass: prediction, selection record and losses."""

    probs: Tensor
    selection: "SelectionResult"
    losses: "MiningLosses"
    classification_loss: Tensor = None
    omega: Tensor = None

    @property
    def prediction(self):
        return int(np.argmax(self.probs.data))


class AkmNet:
    """Key-frame mining classifier for variable-length clips."""

    def __init__(self, config, policy=None, rng=None, dtype=DEFAULT_DTYPE):
        if rng is None:
            rng = RngStream(0)
        self.config = config
        self.dtype = dtype
        self.policy = policy if policy is not None else make_variant("s123")
        self.backbone = Backbone(config.backbone, rng.child("backbone"), dtype=dtype)
        c = config.backbone.output_channels
        self.akm = init_akm_params(c, rng.child("akm"), dtype=dtype,
                                   margin_constant=config.margin_constant,
                                   sparsity_weight=config.sparsity_weight,
                                   margin_weight=config.margin_weight)
        self.gru = GruParams(c, hidden_size=config.gru_hidden,
                             n_layers=config.gru_layers,
                             rng=rng.child("gru"), dtype=dtype)
        gw, gh = config.backbone.output_grid
        head_in = self.gru.output_size * gw * gh
        self.head = ClassifierHead(head_in, config.n_classes, rng.child("head"),
                                   dtype=dtype, dropout_p=config.dropout_p)

    def parameters(self):
        out = [("backbone." + n, p) for n, p in self.backbone.parameters()]
        out += [("akm." + n, p) for n, p in self.akm.parameters()]
        out += [("gru." + n, p) for n, p in self.gru.parameters()]
        out += [("head." + n, p) for n, p in self.head.parameters()]
        return out

    def forward(self, frames, label=None, training=False, rng=None,
                gate_grad="surrogate"):
        """Classify one clip; with a label, also build the training objective.

        ``frames`` is (T, S, S) grayscale input. ``rng`` drives anything
        stochastic in this pass (dropout, sampling policies) and is required
        when one of those is active.
        """
        frames = np.asarray(frames)
        prepared, original_indices = self.policy.prepare(frames, rng=rng)
        feature_seq = extract_spatial_features(
            prepared.astype(self.dtype, copy=False), self.backbone)
        key, sel, losses = self.policy.select(
            feature_seq, self.akm, original_indices=original_indices,
            gate_grad=gate_grad, rng=rng)
        temporal = pixelwise_encode(key, self.gru)
        probs = classify(temporal, self.head, training=training, rng=rng)
        result = ForwardResult(probs=probs, selection=sel, losses=losses)
        if label is not None:
            result.classification_loss = cross_entropy(probs, label)
            result.omega = total_loss(probs, label, losses.combined)
        return result


def build_model(config=None, policy=None, seed=0, dtype=DEFAULT_DTYPE):
    """Construct a model with all parameter groups seeded from one stream."""
    if config is None:
        config = ModelConfig()
    return AkmNet(config, policy=policy, rng=RngStream(seed), dtype=dtype)


@dataclass
class ModelBuilder:
    """Picklable factory building the same model family from any seed.

    Plain-callable factories cannot cross process boundaries; this one can,
    so parallel cross-validation folds construct identical models.
    """

    config: ModelConfig
    variant: str = "s123"
    precision: str = "f32"

    def __call__(self, seed):
        dtype = np.float64 if self.precision == "f64" else np.float32
        return AkmNet(self.config, policy=make_variant(self.variant),
                      rng=RngStream(seed), dtype=dtype)
