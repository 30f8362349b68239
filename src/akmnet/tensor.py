"""Minimal reverse-mode automatic differentiation over numpy arrays.

Eager evaluation: every operation computes its forward value immediately and
records the inputs plus a backward rule, so each Tensor doubles as a node of
the compute graph (operation id, parent references, cached output). Backward
traverses the graph once in reverse topological order and accumulates
gradients into every reachable leaf that requires them.

Float32 is the working precision; float64 is available for gradient checking,
where central differences need the extra headroom. Ops never change dtype.
"""

import math

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeMismatch(ValueError):
    """Raised when an operation's inputs have incompatible shapes.

    Carries the primitive name and both offending shapes so failures can be
    traced without a debugger.
    """

    def __init__(self, op, shape_a, shape_b, detail=""):
        self.op = op
        self.shape_a = tuple(shape_a)
        self.shape_b = tuple(shape_b)
        msg = f"{op}: incompatible shapes {self.shape_a} vs {self.shape_b}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class Tensor:
    """A numpy array with an optional gradient and a backward rule.

    Leaves are created directly; interior nodes are created by the ops in
    this module. ``grad`` is lazily allocated and always matches ``data`` in
    shape and dtype. Repeated backward passes accumulate (callers zero
    between optimizer steps).
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_rule")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents = ()
        self._rule = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate(self, g):
        """Add a gradient contribution of exactly this tensor's shape."""
        if not self.requires_grad:
            return
        if g.shape != self.data.shape:
            raise ShapeMismatch("accumulate", g.shape, self.data.shape)
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def grad_or_zeros(self):
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, dtype={self.data.dtype})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    def tanh(self):
        return tanh(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None):
        return max_(self, axis=axis)

    def reshape(self, *shape):
        if len(shape) == 1 and not isinstance(shape[0], int):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def backward(self):
        backward(self)


def _node(data, op, parents, rule):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out.op = op
    if out.requires_grad:
        out.parents = tuple(parents)
        out._rule = rule
    else:
        out.parents = ()
        out._rule = None
    return out


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


def constant(x, dtype=DEFAULT_DTYPE):
    """Wrap a value as a non-differentiable leaf."""
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


# -- backward driver -------------------------------------------------------


def _topo_order(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, emit = stack.pop()
        if emit:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in reversed(node.parents):
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Backpropagate from a scalar loss, accumulating into leaf gradients.

    Gradients add onto whatever is already stored, which is what per-clip
    gradient accumulation over a mini-batch relies on.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._rule is not None and node.grad is not None:
            node._rule(node.grad)


def gradients(loss, params):
    """Run backward and return one gradient array per parameter.

    Parameters the loss never touches come back as zeros.
    """
    for p in params:
        p.zero_grad()
    backward(loss)
    return [p.grad_or_zeros() for p in params]


# -- elementwise arithmetic ------------------------------------------------


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch(op, a.shape, b.shape) from None


def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_broadcast("add", a, b)
    data = a.data + b.data

    def rule(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(g, b.shape))

    return _node(data, "add", (a, b), rule)


def sub(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_broadcast("sub", a, b)
    data = a.data - b.data

    def rule(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(-g, b.shape))

    return _node(data, "sub", (a, b), rule)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_broadcast("mul", a, b)
    data = a.data * b.data

    def rule(g):
        a.accumulate(_unbroadcast(g * b.data, a.shape))
        b.accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(data, "mul", (a, b), rule)


def div(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_broadcast("div", a, b)
    data = a.data / b.data

    def rule(g):
        a.accumulate(_unbroadcast(g / b.data, a.shape))
        b.accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(data, "div", (a, b), rule)


def neg(a):
    a = _as_tensor(a)
    data = -a.data

    def rule(g):
        a.accumulate(-g)

    return _node(data, "neg", (a,), rule)


# -- activations and pointwise functions -----------------------------------


def relu(a):
    a = _as_tensor(a)
    data = np.maximum(a.data, 0)

    def rule(g):
        a.accumulate(g * (a.data > 0))

    return _node(data, "relu", (a,), rule)


def _sigmoid_data(x):
    # split by sign to avoid exp overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)


def sigmoid(a):
    a = _as_tensor(a)
    data = _sigmoid_data(a.data)

    def rule(g):
        a.accumulate(g * data * (1.0 - data))

    return _node(data, "sigmoid", (a,), rule)


def tanh(a):
    a = _as_tensor(a)
    data = np.tanh(a.data)

    def rule(g):
        a.accumulate(g * (1.0 - data * data))

    return _node(data, "tanh", (a,), rule)


def log(a):
    a = _as_tensor(a)
    data = np.log(a.data)

    def rule(g):
        a.accumulate(g / a.data)

    return _node(data, "log", (a,), rule)


def sqrt(a):
    a = _as_tensor(a)
    data = np.sqrt(a.data)

    def rule(g):
        a.accumulate(g / (2.0 * data))

    return _node(data, "sqrt", (a,), rule)


def softmax(a, axis=-1):
    """Numerically stable softmax along one axis."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        a.accumulate(data * (g - inner))

    return _node(data, "softmax", (a,), rule)


# -- linear algebra --------------------------------------------------------


def matmul(a, b):
    """Matrix product; supports (m,k)@(k,n) and (m,k)@(k,)."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim not in (1, 2):
        raise ShapeMismatch("matmul", a.shape, b.shape, "expects 2-d lhs, 1/2-d rhs")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul", a.shape, b.shape, "inner dimensions differ")
    data = a.data @ b.data

    if b.ndim == 2:
        def rule(g):
            a.accumulate(g @ b.data.T)
            b.accumulate(a.data.T @ g)
    else:
        def rule(g):
            a.accumulate(np.outer(g, b.data).astype(a.data.dtype))
            b.accumulate(a.data.T @ g)

    return _node(data, "matmul", (a, b), rule)


def affine(x, w, b):
    """Fully-connected map ``x @ w + b`` for a single vector or a batch."""
    x = _as_tensor(x)
    w = _as_tensor(w, like=x)
    b = _as_tensor(b, like=x)
    if x.ndim not in (1, 2) or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatch("affine", x.shape, w.shape, "expects (..,d) by (d,m)")
    if b.shape != (w.shape[1],):
        raise ShapeMismatch("affine", b.shape, (w.shape[1],), "bias per output unit")
    data = x.data @ w.data + b.data

    def rule(g):
        if x.ndim == 1:
            if x.requires_grad:
                x.accumulate(w.data @ g)
            if w.requires_grad:
                w.accumulate(np.outer(x.data, g).astype(w.data.dtype))
            if b.requires_grad:
                b.accumulate(g.copy())
        else:
            if x.requires_grad:
                x.accumulate(g @ w.data.T)
            if w.requires_grad:
                w.accumulate(x.data.T @ g)
            if b.requires_grad:
                b.accumulate(g.sum(axis=0))

    return _node(data, "affine", (x, w, b), rule)


def global_avg_pool(x):
    """Mean over the spatial grid: (N, C, H, W) -> (N, C)."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeMismatch("global_avg_pool", x.shape, (-1, -1, -1, -1), "expects NCHW")
    m = x.shape[2] * x.shape[3]
    data = x.data.mean(axis=(2, 3), dtype=x.data.dtype)

    def rule(g):
        scaled = g / np.asarray(m, dtype=g.dtype)
        x.accumulate(np.broadcast_to(scaled[:, :, None, None], x.shape).astype(g.dtype, copy=True))

    return _node(data, "global_avg_pool", (x,), rule)


def conv2d(x, w, b=None, stride=1, padding=0):
    """2-d convolution (cross-correlation) over NCHW input.

    ``w`` is (out_channels, in_channels, kh, kw). Lowered to a batched matrix
    product over unrolled patches; the backward pass scatters patch gradients
    back with the transposed unrolling.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch("conv2d", x.shape, w.shape, "expects NCHW input and OIHW kernel")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeMismatch("conv2d", x.shape, w.shape, "channel count differs")
    s, p = int(stride), int(padding)
    ho = (h + 2 * p - kh) // s + 1
    wo = (wd + 2 * p - kw) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch("conv2d", x.shape, w.shape, "kernel larger than padded input")

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    cols = np.empty((n, cin, kh, kw, ho, wo), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + s * ho:s, j:j + s * wo:s]
    cols_mat = cols.reshape(n, cin * kh * kw, ho * wo)
    w_mat = w.data.reshape(cout, cin * kh * kw)
    out = np.matmul(w_mat, cols_mat).reshape(n, cout, ho, wo)
    if b is not None:
        b = _as_tensor(b, like=x)
        if b.shape != (cout,):
            raise ShapeMismatch("conv2d", b.shape, (cout,), "bias per output channel")
        out = out + b.data.reshape(1, cout, 1, 1)

    parents = (x, w) if b is None else (x, w, b)

    def rule(g):
        g_mat = g.reshape(n, cout, ho * wo)
        if w.requires_grad:
            dw = np.matmul(g_mat, cols_mat.transpose(0, 2, 1)).sum(axis=0)
            w.accumulate(dw.reshape(w.shape))
        if b is not None and b.requires_grad:
            b.accumulate(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = np.matmul(w_mat.T, g_mat).reshape(n, cin, kh, kw, ho, wo)
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[:, :, i, j]
            x.accumulate(dxp[:, :, p:p + h, p:p + wd] if p else dxp)

    return _node(out, "conv2d", parents, rule)


def gru_encode(x, layers, steps=None):
    """Pixel-wise bidirectional GRU over a frame sequence, averaged over time.

    ``x`` is (N, C, H, W): N steps of a C-channel grid. ``layers`` holds one
    (forward, reverse) pair per layer, each a (wz, wr, wh) triple of gate
    matrices, (hidden, hidden + input + 1), acting on the stacked
    [hidden, input, 1] vector. Every grid position runs the same recurrence
    from a zero state; a layer's per-step output concatenates the two
    directions and is the next layer's input. Returns the last layer's
    per-step outputs averaged over time with exactly rounded summation, as
    (2 * hidden, H, W). When ``steps`` is a list, those per-step outputs,
    each (H * W, 2 * hidden), are appended to it.

    The whole recurrence is one graph node. Its forward runs the numpy
    operations of the per-step op chain (``cat``, ``matmul``, ``sigmoid``,
    ``tanh``, ``sub``, ``mul`` and ``add`` per step, then
    ``exact_weighted_sum``) in their order. Its backward through time
    repeats each of their backward rules and sums every gradient in the
    order that chain's graph does, so outputs and gradients are
    bit-identical to it.
    """
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeMismatch("gru_encode", x.shape, (-1, -1, -1, -1), "expects NCHW")
    n, c, gh, gw = x.shape
    p = gh * gw
    dtype = x.data.dtype
    layers = [(tuple(map(_as_tensor, fwd)), tuple(map(_as_tensor, rev)))
              for fwd, rev in layers]
    size_in = c
    for fwd, rev in layers:
        hidden = fwd[0].shape[0]
        for w in fwd + rev:
            if w.shape != (hidden, hidden + size_in + 1):
                raise ShapeMismatch("gru_encode", w.shape,
                                    (hidden, hidden + size_in + 1),
                                    "gate matrix is (hidden, hidden + input + 1)")
        size_in = 2 * hidden

    seq = x.data.reshape(n, c, p).transpose(0, 2, 1)
    # C-ordered copies, as gather makes: concatenating the transposed views
    # can give an F-ordered operand, and BLAS then rounds its products
    # differently
    inputs = [np.ascontiguousarray(seq[t]) for t in range(n)]
    ones = np.ones((p, 1), dtype=dtype)
    tapes = []
    for fwd, rev in layers:
        f_states, f_tape = _gru_direction(inputs, fwd, ones, reverse=False)
        r_states, r_tape = _gru_direction(inputs, rev, ones, reverse=True)
        inputs = [np.concatenate([f, r], axis=1) for f, r in zip(f_states, r_states)]
        tapes.append((f_tape, r_tape))
    if steps is not None:
        steps.extend(inputs)
    weights = np.full(n, 1.0 / n).astype(dtype)
    rows = np.concatenate([s.reshape(1, p * size_in) for s in inputs], axis=0)
    out = _exact_weighted_sum_data(rows, weights).reshape(p, size_in).T.reshape(size_in, gh, gw)

    def rule(g):
        g_mean = np.ascontiguousarray(g.reshape(size_in, p).T).reshape(p * size_in)
        g_rows = np.outer(weights, g_mean).astype(dtype)
        outs = [g_rows[t].reshape(p, size_in) for t in range(n)]
        for li in range(len(layers) - 1, -1, -1):
            (fwd, rev), (f_tape, r_tape) = layers[li], tapes[li]
            hidden = fwd[0].shape[0]
            lower = li < len(layers) - 1
            f_parts = _gru_direction_backward(f_tape, fwd, [o[:, :hidden] for o in outs],
                                              out_first=lower)
            r_parts = _gru_direction_backward(r_tape, rev, [o[:, hidden:] for o in outs],
                                              out_first=True)
            if li == 0 and not x.requires_grad:
                return
            # the graph sums a layer input's four terms in this order
            outs = [((cf + sf) + cr) + sr if t else ((cr + sr) + cf) + sf
                    for t, ((cf, sf), (cr, sr)) in enumerate(zip(f_parts, r_parts))]
        # + 0.0 as the graph's gather scatter-adds into zeros: -0.0 becomes +0.0
        d_seq = np.stack(outs) + 0.0
        x.accumulate(np.ascontiguousarray(d_seq.transpose(0, 2, 1)).reshape(x.shape))

    parents = (x,) + tuple(w for fwd, rev in layers for w in fwd + rev)
    return _node(out, "gru_encode", parents, rule)


def _gru_direction(inputs, gates, ones, reverse):
    """One direction of one ``gru_encode`` layer.

    Returns the states aligned to input order and the tape of each step's
    operands, in processing order.
    """
    wz, wr, wh = (w.data.T for w in gates)
    h = np.zeros((ones.shape[0], wz.shape[1]), dtype=ones.dtype)
    order = range(len(inputs) - 1, -1, -1) if reverse else range(len(inputs))
    states = [None] * len(inputs)
    tape = []
    for t in order:
        stacked = np.concatenate([h, inputs[t], ones], axis=1)
        z = _sigmoid_data(stacked @ wz)
        r = _sigmoid_data(stacked @ wr)
        cand_in = np.concatenate([r * h, inputs[t], ones], axis=1)
        cand = np.tanh(cand_in @ wh)
        keep = 1.0 - z
        tape.append((t, h, stacked, z, r, cand_in, cand, keep))
        h = keep * h + z * cand
        states[t] = h
    return states, tape


def _gru_direction_backward(tape, gates, outs, out_first):
    """Backpropagate one direction through time; ``outs[t]`` is the
    gradient reaching step t's state from above.

    Accumulates the gate gradients and returns, aligned to input order, the
    (candidate cat, stacked cat) terms of each step's input gradient. A
    state's own gradient sums its terms from the next processed step
    (reset product, keep product, stacked cat) and ``outs[t]``; the graph
    adds ``outs[t]`` first when ``out_first`` holds and t >= 1, last
    otherwise.
    """
    wz, wr, wh = (w.data for w in gates)
    hidden = wz.shape[0]
    width = tape[0][2].shape[1] - 1
    gate_sums = [None, None, None]
    parts = [None] * len(outs)
    later = None
    for t, h, stacked, z, r, cand_in, cand, keep in reversed(tape):
        g = outs[t]
        if later is not None:
            rh, m1, st = later
            g = ((g + rh) + m1) + st if out_first and t >= 1 else ((rh + m1) + st) + g
        d_cand = g * z
        d_z = g * cand - g * h
        d_mh = d_cand * (1.0 - cand * cand)
        d_cand_in = d_mh @ wh
        d_rh = d_cand_in[:, :hidden]
        d_mr = d_rh * h * r * (1.0 - r)
        d_mz = d_z * z * (1.0 - z)
        d_stacked = d_mz @ wz + d_mr @ wr
        for i, (a, d) in enumerate(((stacked, d_mz), (stacked, d_mr), (cand_in, d_mh))):
            term = a.T @ d
            if gate_sums[i] is None:
                gate_sums[i] = term
            else:
                gate_sums[i] += term
        parts[t] = (d_cand_in[:, hidden:width], d_stacked[:, hidden:width])
        later = (d_rh * r, g * keep, d_stacked[:, :hidden])
    for w, total in zip(gates, gate_sums):
        w.accumulate(np.ascontiguousarray(total.T))
    return parts


def frame_norm(x, gain, bias, eps=1e-5):
    """Per-sample, per-channel normalization over the spatial grid.

    Each (sample, channel) plane is standardized by its own mean and
    variance, then rescaled by learnable per-channel gain and shift. Batch
    composition therefore never leaks across frames.
    """
    x = _as_tensor(x)
    gain = _as_tensor(gain, like=x)
    bias = _as_tensor(bias, like=x)
    if x.ndim != 4:
        raise ShapeMismatch("frame_norm", x.shape, (-1, -1, -1, -1), "expects NCHW")
    c = x.shape[1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeMismatch("frame_norm", gain.shape, (c,), "per-channel gain/shift")

    mu = x.data.mean(axis=(2, 3), keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = xc * inv
    out = gain.data.reshape(1, c, 1, 1) * xhat + bias.data.reshape(1, c, 1, 1)

    def rule(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).sum(axis=(0, 2, 3)))
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gx = g * gain.data.reshape(1, c, 1, 1)
            gx_mean = gx.mean(axis=(2, 3), keepdims=True)
            gxxhat_mean = (gx * xhat).mean(axis=(2, 3), keepdims=True)
            x.accumulate(inv * (gx - gx_mean - xhat * gxxhat_mean))

    return _node(out, "frame_norm", (x, gain, bias), rule)


def _exact_weighted_sum_data(mat, weights):
    cols = (mat * weights[:, None]).astype(np.float64, copy=False)
    return np.array([math.fsum(cols[:, c]) for c in range(mat.shape[1])],
                    dtype=mat.dtype)


def exact_weighted_sum(mat, weights):
    """Weighted sum of matrix rows with order-independent accumulation.

    Computes ``sum_t weights[t] * mat[t]`` using exactly rounded summation
    (math.fsum), so permuting the rows together with their weights yields a
    bit-identical result. Plain float addition would not commute at the last
    bit, which matters for the frame-permutation equivariance contract.
    """
    mat = _as_tensor(mat)
    weights = _as_tensor(weights, like=mat)
    if mat.ndim != 2 or weights.ndim != 1 or mat.shape[0] != weights.shape[0]:
        raise ShapeMismatch("exact_weighted_sum", mat.shape, weights.shape)
    out = _exact_weighted_sum_data(mat.data, weights.data)

    def rule(g):
        if mat.requires_grad:
            mat.accumulate(np.outer(weights.data, g).astype(mat.data.dtype))
        if weights.requires_grad:
            weights.accumulate(mat.data @ g)

    return _node(out, "exact_weighted_sum", (mat, weights), rule)


# -- shape manipulation ----------------------------------------------------


def reshape(a, shape):
    a = _as_tensor(a)
    if isinstance(shape, int):
        shape = (shape,)
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def rule(g):
        a.accumulate(g.reshape(a.shape))

    return _node(data, "reshape", (a,), rule)


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes) if axes else tuple(reversed(range(a.ndim)))
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def rule(g):
        a.accumulate(np.ascontiguousarray(g.transpose(inv)))

    return _node(data, "transpose", (a,), rule)


def cat(tensors, axis=0):
    """Concatenate along one axis; backward splits the gradient."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("cat: need at least one tensor")
    for t in tensors[1:]:
        sa, sb = list(tensors[0].shape), list(t.shape)
        sa[axis] = sb[axis] = 0
        if sa != sb:
            raise ShapeMismatch("cat", tensors[0].shape, t.shape)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            t.accumulate(np.ascontiguousarray(g[tuple(sl)]))

    return _node(data, "cat", tuple(tensors), rule)


def gather(a, indices):
    """Select rows along the leading axis; backward scatter-adds."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeMismatch("gather", idx.shape, (-1,), "index list must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"gather: index out of range for leading extent {a.shape[0]}")
    data = a.data[idx].copy()

    def rule(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        a.accumulate(buf)

    return _node(data, "gather", (a,), rule)


# -- reductions ------------------------------------------------------------


def _spread(g, axis, keepdims, shape):
    """Broadcast a reduced gradient back over the reduced axes."""
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % len(shape) for ax in axes)
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape).astype(g.dtype, copy=True)


def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        a.accumulate(_spread(g, axis, keepdims, a.shape))

    return _node(np.asarray(data), "sum", (a,), rule)


def mean_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims, dtype=a.data.dtype)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.shape[ax % a.ndim] for ax in axes]))

    def rule(g):
        a.accumulate(_spread(g / np.asarray(count, dtype=g.dtype), axis, keepdims, a.shape))

    return _node(np.asarray(data), "mean", (a,), rule)


def max_(a, axis=None):
    """Max reduction; gradient routes to the first occurrence of the max."""
    a = _as_tensor(a)
    if axis is None:
        data = a.data.max()
        flat_idx = int(np.argmax(a.data))

        def rule(g):
            buf = np.zeros_like(a.data)
            buf.flat[flat_idx] = g
            a.accumulate(buf)
    else:
        data = a.data.max(axis=axis)
        arg = np.argmax(a.data, axis=axis)

        def rule(g):
            buf = np.zeros_like(a.data)
            np.put_along_axis(buf, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis)
            a.accumulate(buf)

    return _node(np.asarray(data), "max", (a,), rule)


# -- composites the model uses directly ------------------------------------


def l2_norm(a):
    """Euclidean norm of a flattened tensor, as a differentiable scalar."""
    a = _as_tensor(a)
    flat = reshape(a, (a.size,))
    return sqrt(sum_(mul(flat, flat)))


def cosine_similarity(a, b, eps=1e-8):
    """Cosine of the angle between two vectors.

    The denominator is stabilized with ``eps``, so a zero-norm operand gives
    exactly 0 rather than NaN.
    """
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeMismatch("cosine_similarity", a.shape, b.shape)
    dot = sum_(mul(a, b))
    denom = add(mul(l2_norm(a), l2_norm(b)), constant(eps, dtype=a.data.dtype))
    return div(dot, denom)


def apply_mask(a, mask):
    """Multiply by a constant mask (dropout application)."""
    a = _as_tensor(a)
    return mul(a, Tensor(np.asarray(mask, dtype=a.data.dtype), dtype=a.data.dtype))


def cosine_rows(mat, vec, eps=1e-8):
    """Cosine similarity of every matrix row against one vector.

    Denominators are stabilized with ``eps``, so a zero-norm row (or vector)
    yields exactly 0. Row reductions use a fixed per-row summation order, so
    each output coordinate depends only on its own row's bits, never on row
    position. Outputs are clipped to [-1, 1] to absorb last-bit rounding
    above the exact bound; the gradient passes through the clip.
    """
    mat = _as_tensor(mat)
    vec = _as_tensor(vec, like=mat)
    if mat.ndim != 2 or vec.ndim != 1 or mat.shape[1] != vec.shape[0]:
        raise ShapeMismatch("cosine_rows", mat.shape, vec.shape)
    dtype = mat.data.dtype
    dots = (mat.data * vec.data[None, :]).sum(axis=1)
    row_sq = (mat.data * mat.data).sum(axis=1)
    row_norms = np.sqrt(row_sq)
    vec_norm = np.sqrt((vec.data * vec.data).sum())
    denom = row_norms * vec_norm + np.asarray(eps, dtype=dtype)
    out = np.clip(dots / denom, -1.0, 1.0).astype(dtype, copy=False)

    def rule(g):
        g_dot = g / denom
        g_denom = -g * dots / (denom * denom)
        if mat.requires_grad:
            g_row_norms = g_denom * vec_norm
            safe_rows = np.where(row_norms > 0, row_norms, 1.0).astype(dtype)
            unit_rows = np.where(row_norms[:, None] > 0,
                                 mat.data / safe_rows[:, None], 0.0).astype(dtype)
            mat.accumulate(g_dot[:, None] * vec.data[None, :]
                           + g_row_norms[:, None] * unit_rows)
        if vec.requires_grad:
            g_vec_norm = float((g_denom * row_norms).sum())
            if vec_norm > 0:
                norm_term = (g_vec_norm / vec_norm) * vec.data
            else:
                norm_term = np.zeros_like(vec.data)
            vec.accumulate(mat.data.T @ g_dot + norm_term)

    return _node(out, "cosine_rows", (mat, vec), rule)


def custom_node(data, op, parents, rule):
    """Build a graph node for a primitive owned by another module.

    ``rule`` receives the node's output gradient and must accumulate into
    each parent itself. The selection layer uses this for its
    straight-through gather, whose backward is not the adjoint of its
    forward.
    """
    return _node(np.asarray(data), op, tuple(parents), rule)
