"""Training loop: SGD with momentum and weight decay, cosine-annealed
learning rate, per-clip gradient accumulation into fixed-size batches.

Clips keep their native lengths; a batch is just a set of clips whose
gradients are averaged before one optimizer step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import crop_frames
from .rng import RngStream


class DivergenceError(RuntimeError):
    """Training produced NaN or inf; carries where it happened."""


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 8
    init_lr: float = 1e-3
    lr_floor: float = 1e-8
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    shuffle: bool = True
    gate_grad: str = "surrogate"
    augment_crop: bool = False
    cycles: int = 1            # cosine cycles; > 1 warm-restarts the schedule


@dataclass
class EpochStats:
    epoch: int
    lr: float
    mean_objective: float
    mean_classification: float
    mean_sparsity: float
    mean_margin: float
    mean_selected_fraction: float

    def to_dict(self):
        return dict(self.__dict__)


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)

    @property
    def final(self):
        return self.epochs[-1] if self.epochs else None

    def to_dicts(self):
        return [e.to_dict() for e in self.epochs]


def cosine_lr(epoch, total_epochs, init_lr=1e-3, lr_floor=1e-8):
    """Half-cosine decay from ``init_lr`` (epoch 0) to ``lr_floor``."""
    if total_epochs < 1:
        raise ValueError("cosine_lr: total_epochs must be >= 1")
    frac = epoch / total_epochs
    return lr_floor + (init_lr - lr_floor) * (1.0 + math.cos(math.pi * frac)) / 2.0


def sgd_momentum_step(named_params, grads, state, lr,
                      momentum=0.9, weight_decay=5e-4):
    """One heavy-ball step with decoupled-from-nothing L2: the decay term
    joins the gradient inside the velocity update.

    ``state`` maps parameter name to velocity and is created lazily. A NaN
    or infinite gradient aborts, naming the parameter.
    """
    for (name, p), g in zip(named_params, grads):
        g = np.asarray(g, dtype=p.data.dtype)
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient in parameter {name}")
        v = state.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = momentum * v + g + p.data.dtype.type(weight_decay) * p.data
        state[name] = v
        p.data -= p.data.dtype.type(lr) * v


def _zero_grads(named_params):
    for _, p in named_params:
        p.grad = None


def train(model, clips, config=None, on_epoch=None):
    """Fit the model on a clip list and return the per-epoch history.

    Every clip in a batch runs forward and backward on its own; gradients
    accumulate and are divided by the batch size before the step, so the
    update equals the one computed from the mean of the per-clip gradients.
    A NaN or infinite objective aborts with the epoch, step and clip where it
    appeared.
    ``on_epoch`` sees each epoch's stats; returning a truthy value stops
    training after that epoch. With ``cycles`` > 1 the cosine schedule
    restarts from ``init_lr`` every ``epochs`` epochs (momentum state and
    the data order stream carry across restarts); ``epoch`` in the history
    counts globally.
    """
    if config is None:
        config = TrainConfig()
    clips = list(clips)
    if not clips:
        raise ValueError("train: no clips")
    if config.cycles < 1:
        raise ValueError("train: cycles must be >= 1")
    root = RngStream(config.seed)
    shuffle_rng = root.child("shuffle")
    pass_rng = root.child("pass")
    augment_rng = root.child("augment")
    params = model.parameters()
    state = {}
    history = TrainHistory()
    crop_side = model.config.backbone.input_side

    for epoch in range(config.epochs * config.cycles):
        lr = cosine_lr(epoch % config.epochs, config.epochs,
                       config.init_lr, config.lr_floor)
        order = (shuffle_rng.permutation(len(clips)) if config.shuffle
                 else np.arange(len(clips)))
        sums = dict(objective=0.0, classification=0.0, sparsity=0.0,
                    margin=0.0, selected=0.0)
        for step, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = order[lo:lo + config.batch_size]
            _zero_grads(params)
            for j in batch:
                clip = clips[int(j)]
                frames = clip.frames
                if config.augment_crop:
                    frames = crop_frames(frames, crop_side, rng=augment_rng,
                                         training=True)
                result = model.forward(frames, label=clip.label, training=True,
                                       rng=pass_rng, gate_grad=config.gate_grad)
                objective = float(result.omega.data)
                if not math.isfinite(objective):
                    raise DivergenceError(
                        f"objective is {objective} at epoch {epoch}, step {step} "
                        f"(clip {clip.clip_id})")
                result.omega.backward()
                sel = result.selection
                sums["objective"] += objective
                sums["classification"] += float(result.classification_loss.data)
                sums["sparsity"] += float(result.losses.sparsity.data)
                sums["margin"] += float(result.losses.margin.data)
                sums["selected"] += sel.n_selected / sel.frame_count
            k = len(batch)
            grads = [p.grad_or_zeros() / k for _, p in params]
            sgd_momentum_step(params, grads, state, lr,
                              momentum=config.momentum,
                              weight_decay=config.weight_decay)
        _zero_grads(params)
        n = len(order)
        stats = EpochStats(epoch=epoch, lr=lr,
                           mean_objective=sums["objective"] / n,
                           mean_classification=sums["classification"] / n,
                           mean_sparsity=sums["sparsity"] / n,
                           mean_margin=sums["margin"] / n,
                           mean_selected_fraction=sums["selected"] / n)
        history.epochs.append(stats)
        if on_epoch is not None and on_epoch(stats):
            break
    return history
