"""Float64 numpy reference model of AKMNet, written from the method.

It shares no code with ``akmnet``: it reads the program's parameter values by
name and recomputes one clip's inference with plain numpy in float64 --
direct strided convolution, per-frame channel norm, residual blocks, spatial
pooling, sigmoid attention, an exactly rounded (fsum) aggregate, cosine
scores, the strict mean-threshold gate with earliest-maximum fallback, a
step-by-step GRU at every grid position, the fsum time mean and the softmax
head. ``directional_grad_check`` sits next to it: it compares the program's
analytic gradient with central differences along one random direction per
parameter group.
"""

import math

import numpy as np

COSINE_EPS = 1e-8
NORM_EPS = 1e-5
GATED = ("s123", "s13", "s23")


# -- backbone ---------------------------------------------------------------

def conv2d(x, w, stride, pad):
    """Direct strided cross-correlation: one shifted multiply-add per kernel tap."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho * wo))
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + stride * (ho - 1) + 1:stride,
                        j:j + stride * (wo - 1) + 1:stride]
            out += np.matmul(w[:, :, i, j], window.reshape(n, cin, ho * wo))
    return out.reshape(n, cout, ho, wo)


def frame_norm(x, gain, shift):
    mu = x.mean(axis=(2, 3), keepdims=True)
    var = ((x - mu) ** 2).mean(axis=(2, 3), keepdims=True)
    xhat = (x - mu) / np.sqrt(var + NORM_EPS)
    return gain[None, :, None, None] * xhat + shift[None, :, None, None]


def relu(x):
    return np.maximum(x, 0.0)


def conv_unit(p, prefix, x, stride, pad):
    return frame_norm(conv2d(x, p[prefix + "conv.w"], stride, pad),
                      p[prefix + "norm.gain"], p[prefix + "norm.shift"])


def block_strides(cfg):
    """Stride of every residual block: the stem halves the side, then the
    first stages halve it again until the output grid is reached."""
    side = cfg.input_side // 2
    strides = []
    for _ in cfg.stage_widths:
        s = 2 if side > cfg.output_grid[0] else 1
        side //= s
        strides.append([s] + [1] * (cfg.blocks_per_stage - 1))
    if side != cfg.output_grid[0]:
        raise ValueError(f"reference: grid {cfg.output_grid} unreachable")
    return strides


def backbone(p, cfg, frames):
    """(T, S, S) frames -> (T, C, g, g) feature maps."""
    x = np.asarray(frames, dtype=np.float64)[:, None, :, :]
    h = relu(conv_unit(p, "backbone.stem.", x, 2, 2))
    cin = cfg.stage_widths[0]
    for si, (width, strides) in enumerate(zip(cfg.stage_widths, block_strides(cfg)), 1):
        for bi, s in enumerate(strides, 1):
            pre = f"backbone.stage{si}.block{bi}."
            y = relu(conv_unit(p, pre + "unit1.", h, s, 1))
            y = conv_unit(p, pre + "unit2.", y, 1, 1)
            if s != 1 or cin != width:
                shortcut = conv_unit(p, pre + "proj.", h, s, 0)
            else:
                shortcut = h
            h = relu(y + shortcut)
            cin = width
    return h


def conv_macs(cfg, frames):
    """Multiply-adds of every convolution for ``frames`` input frames."""
    side = cfg.input_side // 2
    macs = 25 * cfg.input_channels * cfg.stage_widths[0] * side * side
    cin = cfg.stage_widths[0]
    for width, strides in zip(cfg.stage_widths, block_strides(cfg)):
        for s in strides:
            side //= s
            macs += 9 * cin * width * side * side + 9 * width * width * side * side
            if s != 1 or cin != width:
                macs += cin * width * side * side
            cin = width
    return macs * frames


# -- selection ----------------------------------------------------------------

def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def fsum_rows(mat):
    return np.array([math.fsum(mat[:, c]) for c in range(mat.shape[1])])


def cosine(rows, vec):
    dots = rows @ vec
    denom = np.sqrt((rows * rows).sum(axis=1)) * math.sqrt(vec @ vec) + COSINE_EPS
    return np.clip(dots / denom, -1.0, 1.0)


def gate(scores):
    """Strictly-above-mean gate; the earliest maximum alone if none clears it.

    Returns kept 0-based positions and the smallest distance of any score to
    the threshold.
    """
    mean = math.fsum(scores) / len(scores)
    kept = np.flatnonzero(scores > mean)
    if kept.size == 0:
        kept = np.array([int(np.argmax(scores))])
    return kept, float(np.abs(scores - mean).min())


def select(policy, p, feats, kept_given=None):
    """Key features and kept 1-based indices under one selection policy.

    ``kept_given`` carries the program's own draw for ``va-random``; its
    frames were already subset before the backbone.
    """
    t = feats.shape[0]
    pooled = feats.mean(axis=(2, 3))
    out = dict(pooled=pooled, margin=math.inf, scores=None)
    if policy in ("s123", "s12"):
        alpha = sigmoid(pooled @ p["akm.attention.w"])
        out["scores"] = cosine(pooled, fsum_rows(pooled * alpha[:, None]))
    elif policy == "s13":
        out["scores"] = sigmoid(pooled @ p["akm.attention.w"])
    elif policy == "s23":
        out["scores"] = cosine(pooled, fsum_rows(pooled) / t)
    if policy == "s12":
        out.update(key=feats * out["scores"][:, None, None, None],
                   indices=tuple(range(1, t + 1)))
    elif policy in GATED:
        kept, margin = gate(out["scores"])
        out.update(key=feats[kept], indices=tuple(int(i) + 1 for i in kept), margin=margin)
    elif policy == "va-last10" or policy == "va-random10":
        out.update(key=feats, indices=tuple(kept_given))
    else:  # va-all, va-norm32: every fed frame, on the fed timeline
        out.update(key=feats, indices=tuple(range(1, t + 1)))
    return out


def resample(frames, length):
    """Linear resample over evenly spaced positions on [1, T], both ends kept."""
    frames = np.asarray(frames, dtype=np.float64)
    t = frames.shape[0]
    out = np.empty((length,) + frames.shape[1:])
    for j in range(length):
        pos = j * (t - 1) / (length - 1)
        lo = min(int(math.floor(pos)), t - 2)
        frac = pos - lo
        out[j] = (1.0 - frac) * frames[lo] + frac * frames[lo + 1]
    return out


def fed_frames(policy, frames, kept_given=None):
    """Frames a policy sends to the backbone, by the policy's definition."""
    t = frames.shape[0]
    if policy == "va-last10":
        return frames[max(0, t - 10):], tuple(range(max(0, t - 10) + 1, t + 1))
    if policy == "va-norm32":
        return resample(frames, 32), None
    if policy == "va-random10":
        return frames[np.asarray(kept_given) - 1], tuple(kept_given)
    return frames, None


# -- recurrent head --------------------------------------------------------------

def gru_direction(p, prefix, xs, reverse):
    """One GRU direction over a list of input vectors, outputs in input order."""
    wz, wr, wh = (p[prefix + k] for k in ("wz", "wr", "wh"))
    h = np.zeros(wz.shape[0])
    out = [None] * len(xs)
    steps = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for n in steps:
        stacked = np.concatenate([h, xs[n], [1.0]])
        z = sigmoid(wz @ stacked)
        r = sigmoid(wr @ stacked)
        cand = np.tanh(wh @ np.concatenate([r * h, xs[n], [1.0]]))
        h = (1.0 - z) * h + z * cand
        out[n] = h
    return out


def encode(p, n_layers, key):
    """Bi-GRU at every grid position, then the fsum mean over time: (2H, g, g)."""
    n, _, gh, gw = key.shape
    columns = []
    for y in range(gh):
        for x in range(gw):
            seq = [key[t, :, y, x] for t in range(n)]
            for layer in range(1, n_layers + 1):
                fwd = gru_direction(p, f"gru.layer{layer}.fwd.", seq, False)
                rev = gru_direction(p, f"gru.layer{layer}.rev.", seq, True)
                seq = [np.concatenate([f, r]) for f, r in zip(fwd, rev)]
            columns.append(fsum_rows(np.stack(seq)) / n)
    return np.stack(columns, axis=1).reshape(-1, gh, gw)


def softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def forward(params, cfg, n_layers, policy, frames, kept_given=None):
    """One clip's inference. ``params`` maps the program's parameter names to
    float64 arrays; ``cfg`` is its BackboneConfig."""
    fed, kept_fed = fed_frames(policy, frames, kept_given)
    feats = backbone(params, cfg, fed)
    sel = select(policy, params, feats, kept_fed)
    temporal = encode(params, n_layers, sel["key"])
    probs = softmax(temporal.reshape(-1) @ params["head.weight"] + params["head.bias"])
    return dict(probs=probs, indices=sel["indices"], margin=sel["margin"],
                scores=sel["scores"], pooled=sel["pooled"])


def params_of(model):
    return {name: p.data.astype(np.float64) for name, p in model.parameters()}


# -- directional gradient check -------------------------------------------------

def directional_grad_check(objective, named_params, seed, tracker_cls, tol, eps=1e-7,
                           refinements=2):
    """Central differences of ``objective`` along one random unit direction
    per parameter group (the name's first component), against the analytic
    directional derivative.

    ``objective()`` rebuilds the program's float64 graph and returns its
    scalar. A direction is skipped when any of its three forward passes comes
    within 10 steps of a selection threshold, and left unresolved when its
    derivative is too small for ``tol`` to be told apart from the rounding
    of the objective (64 ulps of it over the step). When the two one-sided
    differences disagree by more than twice ``tol``, a kink of the objective
    (a ReLU or a max changing sides) lies inside the step and can move the
    central difference by half that gap; the direction is measured again at
    a tenth of the step, up to ``refinements`` times, and skipped if the kink
    is still inside. A wrong backward rule moves the analytic derivative, not
    the one-sided differences, so it fails at every step. Returns the worst
    relative error and the numbers of directions checked, skipped (``kinked``
    of them for a kink) and unresolved.
    """
    from akmnet.tensor import backward

    params = [p for _, p in named_params]
    for p in params:
        p.zero_grad()
    with tracker_cls() as base:
        loss = objective()
    backward(loss)
    center = float(loss.data)
    grads = [p.grad_or_zeros().copy() for p in params]
    groups = {}
    for i, (name, _) in enumerate(named_params):
        groups.setdefault(name.split(".")[0], []).append(i)
    rng = np.random.default_rng(seed)
    out = dict(worst=0.0, checked=0, skipped=0, kinked=0, unresolved=0)
    for members in groups.values():
        dirs = {i: rng.standard_normal(params[i].shape) for i in members}
        norm = math.sqrt(sum(float((d * d).sum()) for d in dirs.values()))
        analytic = sum(float((grads[i] * dirs[i]).sum()) for i in members) / norm
        saved = {i: params[i].data.copy() for i in members}
        for refinement in range(refinements + 1):
            step = eps / 10.0 ** refinement
            values, margins = [], [base.min_margin]
            for sign in (1.0, -1.0):
                for i in members:
                    params[i].data[...] = saved[i] + sign * step / norm * dirs[i]
                with tracker_cls() as tr:
                    values.append(float(objective().data))
                margins.append(tr.min_margin)
            for i in members:
                params[i].data[...] = saved[i]
            numeric = (values[0] - values[1]) / (2.0 * step)
            one_sided_gap = abs((values[0] - center) - (center - values[1])) / step
            scale = max(abs(analytic), abs(numeric))
            rounding = 64 * np.finfo(np.float64).eps * max(1.0, abs(center)) / (2 * step)
            if min(margins) < 10.0 * step:
                out["skipped"] += 1
            elif scale * tol < rounding:
                out["unresolved"] += 1
            elif one_sided_gap > 2.0 * tol * scale:
                if refinement < refinements:
                    continue
                out["skipped"] += 1
                out["kinked"] += 1
            else:
                out["worst"] = max(out["worst"], abs(analytic - numeric) / scale)
                out["checked"] += 1
            break
    return out
