"""Finite-difference verification of analytic gradients.

Central differences (f(θ+ε) − f(θ−ε)) / 2ε are the ground truth each
backward rule is compared against. The frame-selection threshold is
piecewise constant, so coordinates whose perturbation lands near that
boundary are flagged and skipped instead of failed; the selection layer
reports its margins into the active tracker during every forward pass.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .rng import RngStream
from .tensor import Tensor, backward


class SelectionMarginTracker:
    """Context that records the smallest |score − threshold| margin seen.

    The selection layer calls ``note_selection_margin`` on every forward
    pass; outside an active tracker those calls are no-ops.
    """

    _active = None

    def __init__(self):
        self.min_margin = math.inf

    def note(self, margin):
        if margin < self.min_margin:
            self.min_margin = float(margin)

    def __enter__(self):
        SelectionMarginTracker._active = self
        self.min_margin = math.inf
        return self

    def __exit__(self, *exc):
        SelectionMarginTracker._active = None
        return False


def note_selection_margin(margin):
    tracker = SelectionMarginTracker._active
    if tracker is not None:
        tracker.note(margin)


@dataclass
class GradCheckReport:
    """Outcome of one grad_check call."""

    max_rel_error: float
    per_param: list
    n_checked: int
    n_skipped: int
    skipped: list = field(default_factory=list)   # (param name, flat index)
    failures: list = field(default_factory=list)  # NaN reports

    def ok(self, tol):
        return not self.failures and self.max_rel_error < tol

    @property
    def skip_fraction(self):
        total = self.n_checked + self.n_skipped
        return self.n_skipped / total if total else 0.0


def grad_check(f, params, epsilon=1e-5, names=None, max_coords=None, rng=None):
    """Compare analytic gradients of a scalar graph against central differences.

    ``f`` rebuilds the loss graph from the current parameter values on every
    call; ``params`` are the 64-bit leaves to perturb. Relative error uses
    the denominator max(|analytic|, |numeric|, 1e-8). A coordinate is
    skipped when any forward pass involved (base or either perturbation)
    reports a selection margin below 10ε. ``max_coords`` caps the coordinates
    checked per parameter (subsampled with ``rng`` when given).
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"grad_check: epsilon must be in [1e-6, 1e-3], got {epsilon}")
    names = list(names) if names is not None else [f"param[{i}]" for i in range(len(params))]
    for name, p in zip(names, params):
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check: {name} must be float64, got {p.data.dtype}")
        if not p.requires_grad:
            raise ValueError(f"grad_check: {name} does not require gradients")

    for p in params:
        p.zero_grad()
    with SelectionMarginTracker() as base_tracker:
        loss = f()
    backward(loss)
    base_margin = base_tracker.min_margin
    analytic = [p.grad_or_zeros().copy() for p in params]

    per_param = []
    skipped = []
    failures = []
    n_checked = 0
    for name, p, a in zip(names, params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            if rng is None:
                raise ValueError("grad_check: max_coords needs an rng to subsample")
            coords = np.sort(rng.permutation(flat.size)[:max_coords])
        worst = 0.0
        for ci in coords:
            ci = int(ci)
            orig = flat[ci]
            flat[ci] = orig + epsilon
            with SelectionMarginTracker() as plus_tracker:
                f_plus = float(f().data)
            flat[ci] = orig - epsilon
            with SelectionMarginTracker() as minus_tracker:
                f_minus = float(f().data)
            flat[ci] = orig
            margin = min(base_margin, plus_tracker.min_margin, minus_tracker.min_margin)
            if margin < 10.0 * epsilon:
                skipped.append((name, ci))
                continue
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            analytic_val = float(a_flat[ci])
            if math.isnan(analytic_val) or math.isnan(numeric):
                failures.append(f"{name}[{ci}]: NaN gradient (analytic={analytic_val}, numeric={numeric})")
                continue
            rel = abs(analytic_val - numeric) / max(abs(analytic_val), abs(numeric), 1e-8)
            worst = max(worst, rel)
            n_checked += 1
        per_param.append(worst)

    max_rel = max(per_param) if per_param else 0.0
    return GradCheckReport(
        max_rel_error=max_rel,
        per_param=per_param,
        n_checked=n_checked,
        n_skipped=len(skipped),
        skipped=skipped,
        failures=failures,
    )


def standard_primitive_cases():
    """Self-contained micro-instances covering every differentiable primitive.

    Returns an ordered mapping of case name to a zero-argument builder; each
    builder yields (objective, params, names) ready for grad_check. Inputs
    are kept away from kinks (relu zeros) so central differences are
    trustworthy.
    """
    def leaf(rng, shape, low=None):
        x = rng.normal(shape, dtype=np.float64)
        if low is not None:
            x = low + np.abs(x)
        return Tensor(x, requires_grad=True, dtype=np.float64)

    def weights(rng, shape):
        return T.constant(rng.normal(shape, dtype=np.float64), dtype=np.float64)

    def case(name, build):
        def wrapped():
            rng = RngStream(sum(map(ord, name)))
            return build(rng)
        return name, wrapped

    def unary(op, low=None):
        def build(rng):
            x = leaf(rng, (3, 4), low=low)
            c = weights(rng, (3, 4))
            return (lambda: T.sum_(T.mul(op(x), c))), [x], ["x"]
        return build

    def binary(op):
        def build(rng):
            a, b = leaf(rng, (3, 4)), leaf(rng, (3, 4), low=0.5)
            c = weights(rng, (3, 4))
            return (lambda: T.sum_(T.mul(op(a, b), c))), [a, b], ["a", "b"]
        return build

    def build_matmul(rng):
        a, b = leaf(rng, (3, 4)), leaf(rng, (4, 2))
        c = weights(rng, (3, 2))
        return (lambda: T.sum_(T.mul(T.matmul(a, b), c))), [a, b], ["a", "b"]

    def build_affine(rng):
        x, w, b = leaf(rng, (3, 4)), leaf(rng, (4, 2)), leaf(rng, (2,))
        c = weights(rng, (3, 2))
        return (lambda: T.sum_(T.mul(T.affine(x, w, b), c))), [x, w, b], ["x", "w", "b"]

    def conv(x_shape, stride, out_shape):
        # conv2d lowers planes up to T.NARROW_PLANE wide one way, wider ones
        # another; each case's output width picks one
        def build(rng):
            x, w, b = leaf(rng, x_shape), leaf(rng, (3, 2, 3, 3)), leaf(rng, (3,))
            c = weights(rng, out_shape)
            f = lambda: T.sum_(T.mul(T.conv2d(x, w, b, stride=stride, padding=1), c))
            return f, [x, w, b], ["x", "w", "b"]
        return build

    side = T.NARROW_PLANE + 1

    def build_relu(rng):
        x = Tensor(np.sign(rng.normal((3, 4), dtype=np.float64))
                   * (0.2 + rng.uniform((3, 4), dtype=np.float64)),
                   requires_grad=True, dtype=np.float64)
        c = weights(rng, (3, 4))
        return (lambda: T.sum_(T.mul(T.relu(x), c))), [x], ["x"]

    def build_softmax(rng):
        x = leaf(rng, (3, 4))
        c = weights(rng, (3, 4))
        return (lambda: T.sum_(T.mul(T.softmax(x, axis=-1), c))), [x], ["x"]

    def build_frame_norm(rng):
        x, g, b = leaf(rng, (2, 3, 4, 4)), leaf(rng, (3,)), leaf(rng, (3,))
        c = weights(rng, (2, 3, 4, 4))
        f = lambda: T.sum_(T.mul(T.frame_norm(x, g, b), c))
        return f, [x, g, b], ["x", "gain", "bias"]

    def build_pool(rng):
        x = leaf(rng, (2, 3, 4, 4))
        c = weights(rng, (2, 3))
        return (lambda: T.sum_(T.mul(T.global_avg_pool(x), c))), [x], ["x"]

    def build_exact_sum(rng):
        mat, w = leaf(rng, (4, 3)), leaf(rng, (4,))
        c = weights(rng, (3,))
        f = lambda: T.sum_(T.mul(T.exact_weighted_sum(mat, w), c))
        return f, [mat, w], ["mat", "weights"]

    def build_cosine(rng):
        mat, vec = leaf(rng, (4, 3)), leaf(rng, (3,))
        c = weights(rng, (4,))
        f = lambda: T.sum_(T.mul(T.cosine_rows(mat, vec), c))
        return f, [mat, vec], ["mat", "vec"]

    def build_gather(rng):
        x = leaf(rng, (5, 3))
        c = weights(rng, (3, 3))
        idx = np.array([0, 2, 2])
        return (lambda: T.sum_(T.mul(T.gather(x, idx), c))), [x], ["x"]

    def build_gru_encode(rng):
        # 2 layers of hidden size 2 over T = 3 steps of a 2-channel 1x2 grid
        x = leaf(rng, (3, 2, 1, 2))
        layers, params, names = [], [x], ["x"]
        size_in = 2
        for li in (1, 2):
            pair = []
            for tag in ("fwd", "rev"):
                cell = tuple(leaf(rng, (2, 2 + size_in + 1)) for _ in range(3))
                pair.append(cell)
                params += cell
                names += [f"layer{li}.{tag}.{n}" for n in ("wz", "wr", "wh")]
            layers.append(pair)
            size_in = 4
        c = weights(rng, (4, 1, 2))
        return (lambda: T.sum_(T.mul(T.gru_encode(x, layers), c))), params, names

    def build_structural(rng):
        a, b = leaf(rng, (2, 3)), leaf(rng, (2, 3))
        c = weights(rng, (3, 4))
        f = lambda: T.sum_(T.mul(
            T.transpose(T.reshape(T.cat([a, b], axis=0), (3, 4)), (0, 1)), c))
        return f, [a, b], ["a", "b"]

    return dict([
        case("add", binary(T.add)),
        case("sub", binary(T.sub)),
        case("mul", binary(T.mul)),
        case("div", binary(T.div)),
        case("matmul", build_matmul),
        case("affine", build_affine),
        case("conv2d", conv((2, 2, 5, 5), 2, (2, 3, 3, 3))),
        case("conv2d_wide", conv((1, 2, side, side), 1, (1, 3, side, side))),
        case("relu", build_relu),
        case("sigmoid", unary(T.sigmoid)),
        case("tanh", unary(T.tanh)),
        case("log", unary(T.log, low=0.5)),
        case("sqrt", unary(T.sqrt, low=0.5)),
        case("softmax", build_softmax),
        case("frame_norm", build_frame_norm),
        case("global_avg_pool", build_pool),
        case("exact_weighted_sum", build_exact_sum),
        case("cosine_rows", build_cosine),
        case("gather", build_gather),
        case("gru_encode", build_gru_encode),
        case("structural", build_structural),
    ])
