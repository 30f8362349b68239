"""Pixel-wise bidirectional GRU head and the classification objective.

One shared two-layer bi-GRU runs independently over the temporal sequence at
every spatial position of the key-frame feature grid. Per step, the two
directions' hidden states concatenate; after the second layer the per-step
outputs are averaged over time into one feature column per position. A
dropout + affine + softmax classifier sits on the flattened result.

Gate biases are folded into the gate matrices via an appended constant-1
input coordinate, so each gate is exactly one matrix acting on the stacked
[hidden, input] vector.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import dropout_mask
from .tensor import DEFAULT_DTYPE, Tensor


@dataclass
class GruCell:
    """Gate matrices of one direction of one layer, each (hidden, hidden+input+1)."""

    wz: Tensor
    wr: Tensor
    wh: Tensor

    @property
    def hidden_size(self):
        return self.wz.shape[0]

    @property
    def input_size(self):
        return self.wz.shape[1] - self.wz.shape[0] - 1

    def parameters(self):
        return [("wz", self.wz), ("wr", self.wr), ("wh", self.wh)]


class GruParams:
    """Stacked bidirectional GRU parameters, shared across spatial positions."""

    def __init__(self, input_size, hidden_size=32, n_layers=2, rng=None,
                 dtype=DEFAULT_DTYPE):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.layers = []
        size_in = input_size
        for _ in range(n_layers):
            fwd = _init_cell(size_in, hidden_size, rng, dtype)
            rev = _init_cell(size_in, hidden_size, rng, dtype)
            self.layers.append((fwd, rev))
            size_in = 2 * hidden_size

    @property
    def output_size(self):
        return 2 * self.hidden_size

    def parameters(self):
        out = []
        for li, (fwd, rev) in enumerate(self.layers, start=1):
            for tag, cell in (("fwd", fwd), ("rev", rev)):
                out += [(f"layer{li}.{tag}.{n}", p) for n, p in cell.parameters()]
        return out


def _init_cell(input_size, hidden_size, rng, dtype):
    cols = hidden_size + input_size + 1
    scale = math.sqrt(1.0 / cols)

    def mat():
        return Tensor(rng.normal((hidden_size, cols), scale=scale, dtype=dtype),
                      requires_grad=True, dtype=dtype)

    return GruCell(wz=mat(), wr=mat(), wh=mat())


@dataclass
class SpatioTemporalFeature:
    """Time-averaged recurrent features, one column per position: (C', H, W)."""

    values: Tensor

    @property
    def channels(self):
        return self.values.shape[0]


def _gru_step_batch(h_prev, x, ones_col, wz_t, wr_t, wh_t):
    """One GRU step for a batch of positions: (P,Hd) x (P,D) -> (P,Hd).

    z and r gate the stacked [hidden, input, 1] vector; the candidate sees
    the reset-scaled hidden. New state blends previous and candidate by z.
    This per-op chain and ``gru_step`` are the reference that the fused
    ``tensor.gru_encode`` must match bit for bit; the tests build the
    unfused encoding from them.
    """
    stacked = T.cat([h_prev, x, ones_col], axis=1)
    z = T.sigmoid(T.matmul(stacked, wz_t))
    r = T.sigmoid(T.matmul(stacked, wr_t))
    candidate_in = T.cat([T.mul(r, h_prev), x, ones_col], axis=1)
    h_tilde = T.tanh(T.matmul(candidate_in, wh_t))
    return T.add(T.mul(T.sub(1.0, z), h_prev), T.mul(z, h_tilde))


def gru_step(h_prev, x, cell):
    """Single-vector GRU step (the batched path with one position)."""
    h = h_prev if isinstance(h_prev, Tensor) else Tensor(np.asarray(h_prev))
    xv = x if isinstance(x, Tensor) else Tensor(np.asarray(x), dtype=h.data.dtype)
    ones_col = T.constant(np.ones((1, 1)), dtype=h.data.dtype)
    out = _gru_step_batch(h.reshape(1, h.shape[0]), xv.reshape(1, xv.shape[0]),
                          ones_col,
                          T.transpose(cell.wz, (1, 0)),
                          T.transpose(cell.wr, (1, 0)),
                          T.transpose(cell.wh, (1, 0)))
    return out.reshape(h.shape[0])


def pixelwise_encode(key_features, gru_params):
    """Encode the key-frame sequence at every spatial position at once.

    Positions ride the batch axis of each step, which is equivalent to
    running one independent GRU per position with shared weights. Initial
    hidden states are zero. The per-step outputs of the last layer are
    averaged over time with exactly rounded summation, so reversing the
    step order yields bit-identical results; this is what makes the head
    agree exactly under temporal reversal with swapped directions. Returns
    the (C', H, W) time-averaged feature.
    """
    feats = key_features.features if hasattr(key_features, "features") else key_features
    layers = [((f.wz, f.wr, f.wh), (r.wz, r.wr, r.wh)) for f, r in gru_params.layers]
    return SpatioTemporalFeature(values=T.gru_encode(feats, layers))


class ClassifierHead:
    """Dropout + affine + softmax over the flattened temporal feature."""

    def __init__(self, input_size, n_classes, rng, dtype=DEFAULT_DTYPE,
                 dropout_p=0.5):
        self.n_classes = n_classes
        self.dropout_p = dropout_p
        scale = math.sqrt(1.0 / input_size)
        self.weight = Tensor(rng.normal((input_size, n_classes), scale=scale,
                                        dtype=dtype), requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(n_classes, dtype=dtype), requires_grad=True,
                           dtype=dtype)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


def classify(feature, head, training=False, rng=None):
    """Class probabilities for one clip's temporal feature.

    Dropout applies only in training mode (and then needs an rng); repeated
    evaluation-mode calls on the same input are identical.
    """
    g = feature.values if isinstance(feature, SpatioTemporalFeature) else feature
    flat = g.reshape(g.size)
    if training and head.dropout_p > 0.0:
        if rng is None:
            raise ValueError("classify: training-mode dropout needs an rng")
        mask = dropout_mask(flat.shape, head.dropout_p, rng, training=True,
                            dtype=g.data.dtype)
        flat = T.mul(flat, mask)
    logits = T.affine(flat.reshape(1, flat.shape[0]), head.weight, head.bias)
    return T.softmax(logits, axis=-1).reshape(head.n_classes)


def cross_entropy(probs, label):
    """Negative log probability of the true class."""
    m = probs.shape[0]
    if not 0 <= int(label) < m:
        raise ValueError(f"cross_entropy: label {label} outside [0, {m})")
    picked = T.sum_(T.gather(probs, [int(label)]))
    return T.neg(T.log(picked))


def total_loss(probs, label, selection_loss):
    """Classification loss plus the selection-shaping loss."""
    l_c = cross_entropy(probs, label)
    if selection_loss is None:
        return l_c
    return T.add(l_c, selection_loss)
