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
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_op(op, ufunc, a, b):
    """Apply a binary ufunc; a broadcast failure names the primitive."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeMismatch(op, a.shape, b.shape) from None


def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    data = _broadcast_op("add", np.add, a, b)

    def rule(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(g, b.shape))

    return _node(data, "add", (a, b), rule)


def sub(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    data = _broadcast_op("sub", np.subtract, a, b)

    def rule(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(-g, b.shape))

    return _node(data, "sub", (a, b), rule)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    data = _broadcast_op("mul", np.multiply, a, b)

    def rule(g):
        a.accumulate(_unbroadcast(g * b.data, a.shape))
        b.accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(data, "mul", (a, b), rule)


def div(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    data = _broadcast_op("div", np.divide, a, b)

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
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d).astype(x.dtype, copy=False)


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
    data = np.add.reduce(x.data, axis=(2, 3)) / m

    def rule(g):
        spread = np.empty(x.shape, dtype=g.dtype)
        spread[...] = (g / np.asarray(m, dtype=g.dtype))[:, :, None, None]
        x.accumulate(spread)

    return _node(data, "global_avg_pool", (x,), rule)


# conv2d output planes at most this wide gather their patches with one
# np.take and scatter patch gradients with frames x channels innermost;
# wider planes copy one strided patch view and add one kernel-offset slice
# at a time. Measured on numpy 2.4, the backward's crossover lies between
# widths 12 and 14 and the forward's near 8; no preset has widths 9 to 15.
NARROW_PLANE = 12
_PATCH_INDEX = {}


def _patch_index(cin, hp, wp, kh, kw, s, ho, wo):
    """Flat offsets into one padded (cin, hp, wp) frame, one per im2col
    entry in (channel, i, j, y, x) order.

    The offsets do not depend on the frame count, so each layer shape builds
    its array once; the arrays are read-only and shared by every call.
    """
    key = (cin, hp, wp, kh, kw, s, ho, wo)
    idx = _PATCH_INDEX.get(key)
    if idx is None:
        axes = np.ix_(np.arange(cin) * (hp * wp), np.arange(kh) * wp, np.arange(kw),
                      np.arange(ho) * (s * wp), np.arange(wo) * s)
        idx = sum(axes).ravel()
        idx.flags.writeable = False
        _PATCH_INDEX[key] = idx
    return idx


def conv2d(x, w, b=None, stride=1, padding=0):
    """2-d convolution (cross-correlation) over NCHW input.

    ``w`` is (out_channels, in_channels, kh, kw). Lowered to a batched matrix
    product over unrolled patches; the backward pass scatters patch gradients
    back with the transposed unrolling. Narrow and wide output planes move
    their patches in different orders (see ``NARROW_PLANE``); outputs and
    gradients keep the same bits either way.
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

    hp, wp = h + 2 * p, wd + 2 * p
    if p:
        # np.pad's Python-level set-up costs more than the copy itself
        xp = np.zeros((n, cin, hp, wp), dtype=x.data.dtype)
        xp[:, :, p:p + h, p:p + wd] = x.data
    else:
        xp = x.data
    # im2col, (frames, cin*kh*kw, ho*wo). A strided copy's innermost loop
    # runs along an output row, so on narrow planes numpy's per-loop set-up
    # outweighs the copying; one gather over each frame runs one long loop.
    narrow = wo <= NARROW_PLANE
    if narrow:
        idx = _patch_index(cin, hp, wp, kh, kw, s, ho, wo)
        cols_mat = np.take(xp.reshape(n, cin * hp * wp), idx, axis=1)
    else:
        sn, sc, sh, sw = xp.strides
        patches = np.lib.stride_tricks.as_strided(
            xp, (n, cin, kh, kw, ho, wo), (sn, sc, sh, sw, sh * s, sw * s),
            writeable=False)
        cols_mat = patches.copy()
    cols_mat = cols_mat.reshape(n, cin * kh * kw, ho * wo)
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
            dw = np.add.reduce(np.matmul(g_mat, cols_mat.transpose(0, 2, 1)), axis=0)
            w.accumulate(dw.reshape(w.shape))
        if b is not None and b.requires_grad:
            b.accumulate(np.add.reduce(g, axis=(0, 2, 3)))
        if x.requires_grad:
            # col2im: every padded pixel sums its patch terms from zero in
            # kernel-offset order, whichever axis the adds run innermost
            dcols = np.matmul(w_mat.T, g_mat)
            if narrow:
                dxt = np.zeros((hp, wp, n * cin), dtype=xp.dtype)
                dct = dcols.reshape(n * cin, kh, kw, ho, wo).transpose(1, 2, 3, 4, 0)
                for i in range(kh):
                    for j in range(kw):
                        t = dxt[i:i + s * ho:s, j:j + s * wo:s]
                        np.add(t, dct[i, j], out=t, order="C")
                dx = np.ascontiguousarray(dxt[p:p + h, p:p + wd].transpose(2, 0, 1))
                x.accumulate(dx.reshape(n, cin, h, wd))
            else:
                dcols = dcols.reshape(n, cin, kh, kw, ho, wo)
                dxp = np.zeros(xp.shape, dtype=xp.dtype)
                for i in range(kh):
                    for j in range(kw):
                        dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[:, :, i, j]
                x.accumulate(dxp[:, :, p:p + h, p:p + wd])

    return _node(out, "conv2d", parents, rule)


def gru_encode(x, layers):
    """Pixel-wise bidirectional GRU over a frame sequence, averaged over time.

    ``x`` is (N, C, H, W): N steps of a C-channel grid. ``layers`` holds one
    (forward, reverse) pair per layer, each a (wz, wr, wh) triple of gate
    matrices, (hidden, hidden + input + 1), acting on the stacked
    [hidden, input, 1] vector. Every grid position runs the same recurrence
    from a zero state; a layer's per-step output concatenates the two
    directions and is the next layer's input. Returns the last layer's
    per-step outputs averaged over time with exactly rounded summation, as
    (2 * hidden, H, W).

    The whole recurrence is one graph node. Its forward runs the numpy
    operations of the per-step op chain (``cat``, ``matmul``, ``sigmoid``,
    ``tanh``, ``sub``, ``mul`` and ``add`` per step, then
    ``exact_weighted_sum``) with the same operands. Its backward through
    time repeats each of their backward rules and sums every gradient in the
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

    # (steps, positions, channels), C-ordered as gather makes it: a
    # transposed view can reach BLAS as an F-ordered operand, and BLAS then
    # rounds its products differently
    inputs = np.ascontiguousarray(x.data.reshape(n, c, p).transpose(0, 2, 1))
    tapes = []
    for gates in layers:
        states, tape = _gru_layer(inputs, gates)
        inputs = np.concatenate([states[0], states[1, ::-1]], axis=2)
        tapes.append(tape)
    weights = np.full(n, 1.0 / n).astype(dtype)
    rows = inputs.reshape(n, p * size_in)
    out = _exact_weighted_sum_data(rows, weights).reshape(p, size_in).T.reshape(size_in, gh, gw)

    def rule(g):
        g_mean = np.ascontiguousarray(g.reshape(size_in, p).T).reshape(p * size_in)
        outs = np.outer(weights, g_mean).astype(dtype).reshape(n, p, size_in)
        for li in range(len(layers) - 1, -1, -1):
            hidden = layers[li][0][0].shape[0]
            # per direction, in processing order
            outs = np.array([outs[:, :, :hidden], outs[::-1, :, hidden:]])
            # the graph adds a state's gradient from above first, except in
            # the last layer's forward direction and at t = 0
            d_cand, d_stacked = _gru_layer_backward(tapes[li], layers[li], outs,
                                                    out_first=(li < len(layers) - 1, True))
            if li == 0 and not x.requires_grad:
                return
            # the graph sums a layer input's four terms in this order
            cf, sf, cr, sr = d_cand[:, 0], d_stacked[:, 0], d_cand[::-1, 1], d_stacked[::-1, 1]
            outs = ((cf + sf) + cr) + sr
            outs[0] = ((cr[0] + sr[0]) + cf[0]) + sf[0]
        # + 0.0 as the graph's gather scatter-adds into zeros: -0.0 becomes +0.0
        d_seq = outs + 0.0
        x.accumulate(np.ascontiguousarray(d_seq.transpose(0, 2, 1)).reshape(x.shape))

    parents = (x,) + tuple(w for fwd, rev in layers for w in fwd + rev)
    return _node(out, "gru_encode", parents, rule)


def _gru_layer(inputs, gates):
    """Both directions of one ``gru_encode`` layer in lockstep.

    Step s runs the forward direction at t = s and the reverse direction at
    t = n-1-s on a leading direction axis; the z and r gates share one more
    leading axis. Each batched matmul is one GEMM per (direction, gate) with
    the operand layout of the per-step chain, so every product rounds as
    there. Returns the states, (2, steps, positions, hidden), and the tape,
    both in processing order.
    """
    n, p, width = inputs.shape
    dtype = inputs.dtype
    w = np.array([[g.data for g in direction] for direction in gates])
    w_zr, w_h = w[:, :2].swapaxes(2, 3), w[:, 2].swapaxes(1, 2)
    hidden = w.shape[2]
    # each step's [hidden, input, 1] operands, (steps, 2, positions, k):
    # the input and constant columns are filled here, the hidden ones per step
    stacked = np.empty((n, 2, p, hidden + width + 1), dtype=dtype)
    stacked[:, 0, :, hidden:-1] = inputs
    stacked[:, 1, :, hidden:-1] = inputs[::-1]
    stacked[..., -1] = 1.0
    stacked[0, :, :, :hidden] = 0.0
    cand_in = stacked.copy()
    states = np.empty((2, n, p, hidden), dtype=dtype)
    steps = []
    for s in range(n):
        h = stacked[s, :, :, :hidden]
        zr = _sigmoid_data(stacked[s][:, None] @ w_zr)
        z, r = zr[:, 0], zr[:, 1]
        np.multiply(r, h, out=cand_in[s, :, :, :hidden])
        cand = np.tanh(cand_in[s] @ w_h)
        keep = 1.0 - z
        steps.append((zr, cand, keep))
        states[:, s] = keep * h + z * cand
        if s + 1 < n:
            stacked[s + 1, :, :, :hidden] = states[:, s]
    return states, (w, stacked, cand_in, steps)


def _gru_layer_backward(tape, gates, outs, out_first):
    """Backpropagate one lockstep layer through time.

    ``outs[d, s]`` is the gradient reaching direction d's state at
    processing step s from above. Accumulates the gate gradients and
    returns the (candidate cat, stacked cat) terms of each step's input
    gradient, (steps, 2, positions, input) each, in processing order. A
    state's own gradient sums its terms from the next processed step
    (reset product, keep product, stacked cat) and ``outs``; the graph adds
    ``outs`` first when ``out_first[d]`` holds and t >= 1, last otherwise.
    """
    w, stacked, cand_in, steps = tape
    n = len(steps)
    hidden = w.shape[2]
    w_zr, w_h = w[:, :2], w[:, 2]
    d_cand_in = np.empty_like(cand_in)
    d_stacked = np.empty_like(stacked)
    sum_zr = sum_h = None
    later = None
    for s in range(n - 1, -1, -1):
        zr, cand, keep = steps[s]
        z, r = zr[:, 0], zr[:, 1]
        h = stacked[s, :, :, :hidden]
        g = outs[:, s]
        if later is not None:
            g = _state_grad(g, later, (out_first[0] and s >= 1,
                                       out_first[1] and n - 1 - s >= 1))
        d_cand = g * z
        d_mh = d_cand * (1.0 - cand * cand)
        np.matmul(d_mh, w_h, out=d_cand_in[s])
        d_rh = d_cand_in[s, :, :, :hidden]
        # d_z * z * (1 - z) and d_rh * h * r * (1 - r) side by side
        d_zr = np.empty_like(zr)
        np.subtract(g * cand, g * h, out=d_zr[:, 0])
        np.multiply(d_rh, h, out=d_zr[:, 1])
        d_zr *= zr
        d_zr *= 1.0 - zr
        d_stacked_zr = d_zr @ w_zr
        np.add(d_stacked_zr[:, 0], d_stacked_zr[:, 1], out=d_stacked[s])
        term_zr = stacked[s].swapaxes(1, 2)[:, None] @ d_zr
        term_h = cand_in[s].swapaxes(1, 2) @ d_mh
        if sum_zr is None:
            sum_zr, sum_h = term_zr, term_h
        else:
            sum_zr += term_zr
            sum_h += term_h
        later = (d_rh * r, g * keep, d_stacked[s, :, :, :hidden])
    for d, (wz, wr, wh) in enumerate(gates):
        for param, total in ((wz, sum_zr[d, 0]), (wr, sum_zr[d, 1]), (wh, sum_h[d])):
            param.accumulate(np.ascontiguousarray(total.T))
    return d_cand_in[..., hidden:-1], d_stacked[..., hidden:-1]


def _state_grad(o, later, first):
    """Sum a state's gradient terms in the graph's order: ``o`` first where
    ``first[d]`` holds, last otherwise; directions that differ sum apart."""
    rh, m1, st = later
    if first[0] == first[1]:
        return ((o + rh) + m1) + st if first[0] else ((rh + m1) + st) + o
    g = np.empty_like(o)
    for d in range(2):
        g[d] = _state_grad(o[d], (rh[d], m1[d], st[d]), (first[d],) * 2)
    return g


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

    # np.add.reduce / count is what ndarray.mean computes, without its
    # Python-level wrapper
    count = x.shape[2] * x.shape[3]
    mu = np.add.reduce(x.data, axis=(2, 3), keepdims=True) / count
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=(2, 3), keepdims=True) / count
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = xc * inv
    out = gain.data.reshape(1, c, 1, 1) * xhat + bias.data.reshape(1, c, 1, 1)

    def rule(g):
        if gain.requires_grad:
            gain.accumulate(np.add.reduce(g * xhat, axis=(0, 2, 3)))
        if bias.requires_grad:
            bias.accumulate(np.add.reduce(g, axis=(0, 2, 3)))
        if x.requires_grad:
            gx = g * gain.data.reshape(1, c, 1, 1)
            gx_mean = np.add.reduce(gx, axis=(2, 3), keepdims=True) / count
            gxxhat_mean = np.add.reduce(gx * xhat, axis=(2, 3), keepdims=True) / count
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
        axes = {ax % len(shape) for ax in axes}
        g = g.reshape(tuple(1 if i in axes else n for i, n in enumerate(shape)))
    out = np.empty(shape, dtype=g.dtype)
    out[...] = g
    return out


def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = np.add.reduce(a.data, axis=axis, keepdims=keepdims)

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


# -- composites the model uses directly ------------------------------------


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
