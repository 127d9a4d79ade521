"""Dense tensor math with reverse-mode gradients, Adam, and gradient clipping.

Everything downstream (the recurrent cells, attention, projections) is built
from the ops in this module.  The graph is a plain tape: each op returns a
Tensor that remembers its parents and a closure that scatters the incoming
gradient back to them.

The GRU and LSTM recurrences are fused ops with hand-written backward passes.
Both take the projected input ``xp = x @ W_i + b`` and the recurrent weight
``W_h``.  ``gru_step``/``lstm_step`` advance one position (one tape node);
``gru_sequence``/``lstm_sequence`` run a whole padded batch in one tape node,
keep the previous state at pad positions, and do backprop through time in
plain numpy.  Step and sequence ops share one pair of step kernels per cell.

Inside ``with no_grad():`` ops record nothing: their outputs have no parents
and no backward closure, whatever the inputs' ``requires_grad``.
"""

from contextlib import contextmanager

import numpy as np

_DEFAULT_DTYPE = np.float32
_RECORDING = True


def set_default_dtype(dtype):
    """Set the dtype used for newly created tensors (float64 in gradient-check mode)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError("only float32/float64 supported, got %s" % dtype)
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def no_grad():
    """Record no tape inside the block; the previous state returns on exit.

    Parameters keep their ``requires_grad`` (and so ``frozen``); only the
    recording of parents and backward closures stops.
    """
    global _RECORDING
    previous = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = previous


class Tensor:
    """A numpy array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self):
        """Populate grads of every tensor reachable from this scalar node."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss node")
        if self._backward is None and not self._parents and not self.requires_grad:
            raise RuntimeError("backward() called on a node with no recorded forward pass")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)


class Parameter(Tensor):
    """A trainable tensor with freeze and prune bookkeeping.

    ``frozen`` is ``not requires_grad``: a frozen parameter is not recorded
    on the tape, so backward never reaches it, its ``grad`` stays None, and
    the optimizer and clipping skip it.  ``pruned`` holds flat indices into
    ``data`` whose values are pinned at exactly 0 (used for neuron-knowledge
    pruning of incoming weights).
    """

    __slots__ = ("name", "pruned")

    def __init__(self, data, name=""):
        super().__init__(np.asarray(data), requires_grad=True)
        self.name = name
        self.pruned = None  # flat int64 indices, or None

    @property
    def frozen(self):
        return not self.requires_grad

    @frozen.setter
    def frozen(self, value):
        self.requires_grad = not value

    def add_pruned(self, flat_indices):
        flat_indices = np.asarray(flat_indices, dtype=np.int64).reshape(-1)
        if flat_indices.size and (flat_indices.min() < 0 or flat_indices.max() >= self.data.size):
            raise IndexError("prune index out of range for %s" % self.name)
        if self.pruned is None:
            self.pruned = np.unique(flat_indices)
        else:
            self.pruned = np.unique(np.concatenate([self.pruned, flat_indices]))
        self.data.reshape(-1)[self.pruned] = 0.0


def _to_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(data, parents, backward):
    out = Tensor(data)
    if _RECORDING and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- elementwise / structural ops -------------------------------------------

def add(a, b):
    a, b = _to_tensor(a), _to_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b):
    a, b = _to_tensor(a), _to_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b):
    a, b = _to_tensor(a), _to_tensor(b)
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward)


def concat(tensors, axis=-1):
    tensors = [_to_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return _make(data, tensors, backward)


def stack(tensors, axis=1):
    tensors = [_to_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece.reshape(t.data.shape))

    return _make(data, tensors, backward)


def narrow(a, start, size, axis=-1):
    """Contiguous slice [start, start+size) along one axis."""
    a = _to_tensor(a)
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + size)
    index = tuple(index)
    data = a.data[index]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[index] = g
            a._accumulate(full)

    return _make(data, (a,), backward)


def reshape(a, shape):
    a = _to_tensor(a)
    old = a.data.shape
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return _make(data, (a,), backward)


def tsum(a, axis=None, keepdims=False):
    a = _to_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _make(data, (a,), backward)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def sigmoid(a):
    a = _to_tensor(a)
    data = _sigmoid(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), backward)


def tanh(a):
    a = _to_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return _make(data, (a,), backward)


def embedding(table, ids):
    """Row lookup.  `ids` is an integer ndarray; output shape ids.shape + (E,)."""
    table = _to_tensor(table)
    ids = np.asarray(ids)
    data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))

    return _make(data, (table,), backward)


def dropout(a, rate, rng):
    """Inverted dropout with a mask drawn from `rng`; identity when rng is None."""
    a = _to_tensor(a)
    if rng is None or rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep).astype(a.data.dtype) / keep
    data = a.data * mask

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _make(data, (a,), backward)


# -- fused recurrent cells ---------------------------------------------------
#
# Gate columns of W_i, W_h and b: GRU [r, z, n], LSTM [i, f, g, o].  The bias
# sits in xp only, so GRU's reset gate scales the whole of h @ W_h's n part.
# A kernel maps (xp, state arrays, W_h) to (new state arrays, cache); its
# backward maps (state grads, cache, W_h) to (d xp, d(h @ W_h), d state).
# state[0] is h in both cells, so W_h's gradient is h.T @ d(h @ W_h).

def _gru_forward(xp, state, W_h):
    (h,) = state
    H = h.shape[-1]
    hh = h @ W_h
    rz = _sigmoid(xp[:, :2 * H] + hh[:, :2 * H])
    r, z = rz[:, :H], rz[:, H:]
    hn = hh[:, 2 * H:]
    n = np.tanh(xp[:, 2 * H:] + r * hn)
    return ((1.0 - z) * n + z * h,), (h, hn, r, z, n)


def _gru_backward(d_state, cache, W_h):
    (dh,) = d_state
    h, hn, r, z, n = cache
    dan = dh * (1.0 - z) * (1.0 - n * n)
    dar = dan * hn * r * (1.0 - r)
    daz = dh * (h - n) * z * (1.0 - z)
    dxp = np.concatenate([dar, daz, dan], axis=1)
    dhh = np.concatenate([dar, daz, dan * r], axis=1)
    return dxp, dhh, (dh * z + dhh @ W_h.T,)


def _lstm_forward(xp, state, W_h):
    h, c = state
    H = h.shape[-1]
    a = xp + h @ W_h
    s = _sigmoid(a)
    i, f, o = s[:, :H], s[:, H:2 * H], s[:, 3 * H:]
    g = np.tanh(a[:, 2 * H:3 * H])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return (o * tc, c_new), (c, i, f, g, o, tc)


def _lstm_backward(d_state, cache, W_h):
    dh, dc = d_state
    c, i, f, g, o, tc = cache
    dc = dc + dh * o * (1.0 - tc * tc)
    da = np.concatenate([dc * g * i * (1.0 - i), dc * c * f * (1.0 - f),
                         dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
    return da, da, (da @ W_h.T, dc * f)


_GRU = (_gru_forward, _gru_backward)
_LSTM = (_lstm_forward, _lstm_backward)


def _split_state(packed, parts):
    H = packed.shape[-1] // parts
    return [packed[..., k * H:(k + 1) * H] for k in range(parts)]


def _cell_step(kernel, xp, state, W_h):
    forward, backward_kernel = kernel
    xp, W_h = _to_tensor(xp), _to_tensor(W_h)
    state = [_to_tensor(s) for s in state]
    new, cache = forward(xp.data, [s.data for s in state], W_h.data)

    def backward(g):
        dxp, dhh, d_state = backward_kernel(_split_state(g, len(state)), cache, W_h.data)
        if xp.requires_grad:
            xp._accumulate(dxp)
        for s, ds in zip(state, d_state):
            if s.requires_grad:
                s._accumulate(ds)
        if W_h.requires_grad:
            W_h._accumulate(state[0].data.T @ dhh)

    return _make(np.concatenate(new, axis=-1), (xp, *state, W_h), backward)


def _cell_sequence(kernel, xp, state, W_h, mask, reverse):
    forward, backward_kernel = kernel
    xp, W_h = _to_tensor(xp), _to_tensor(W_h)
    state = [_to_tensor(s) for s in state]
    B, T, _ = xp.data.shape
    H = W_h.data.shape[0]
    live = np.asarray(mask).astype(bool)[:, :, None]      # [B, T, 1]
    if live.shape[:2] != (B, T):
        raise ValueError("mask shape %s does not match xp %s" % (live.shape[:2], (B, T)))
    order = range(T - 1, -1, -1) if reverse else range(T)
    out = np.empty((B, T, len(state) * H), dtype=xp.data.dtype)
    h_in = np.empty((B, T, H), dtype=xp.data.dtype)        # h entering each step
    caches = [None] * T
    cur = [s.data for s in state]
    for t in order:
        h_in[:, t] = cur[0]
        new, caches[t] = forward(xp.data[:, t], cur, W_h.data)
        cur = [np.where(live[:, t], n, prev) for n, prev in zip(new, cur)]
        for k, s in enumerate(cur):
            out[:, t, k * H:(k + 1) * H] = s

    def backward(g):
        g_state = _split_state(g, len(state))
        dxp = np.empty_like(xp.data)
        dhh = np.empty_like(xp.data)
        d = [np.zeros_like(gk[:, 0]) for gk in g_state]
        for t in reversed(order):
            m = live[:, t]
            d = [dk + gk[:, t] for dk, gk in zip(d, g_state)]
            dxp[:, t], dhh[:, t], d_step = backward_kernel([dk * m for dk in d],
                                                           caches[t], W_h.data)
            # a pad position passed its state through unchanged
            d = [np.where(m, ds, dk) for ds, dk in zip(d_step, d)]
        if xp.requires_grad:
            xp._accumulate(dxp)
        for s, ds in zip(state, d):
            if s.requires_grad:
                s._accumulate(ds)
        if W_h.requires_grad:
            W_h._accumulate(h_in.reshape(B * T, H).T @ dhh.reshape(B * T, -1))

    return _make(out, (xp, *state, W_h), backward)


def gru_step(xp, h, W_h):
    """One GRU step.  xp [B, 3H] is x @ W_i + b; returns h' [B, H]."""
    return _cell_step(_GRU, xp, (h,), W_h)


def lstm_step(xp, h, c, W_h):
    """One LSTM step.  xp [B, 4H] is x @ W_i + b; returns [h'; c'] as [B, 2H]."""
    return _cell_step(_LSTM, xp, (h, c), W_h)


def gru_sequence(xp, h0, W_h, mask, reverse=False):
    """GRU over every position of xp [B, T, 3H], starting from h0 [B, H].

    Positions where the {0,1} `mask` [B, T] is 0 keep the previous state, so
    the state at the last position visited (T-1, or 0 when `reverse`) is the
    state after each row's last real token.  Returns the state after every
    position, [B, T, H], in input order.
    """
    return _cell_sequence(_GRU, xp, (h0,), W_h, mask, reverse)


def lstm_sequence(xp, h0, c0, W_h, mask, reverse=False):
    """LSTM counterpart of `gru_sequence`; xp is [B, T, 4H] and the result
    packs [h; c] after every position as [B, T, 2H]."""
    return _cell_sequence(_LSTM, xp, (h0, c0), W_h, mask, reverse)


# -- softmax / loss ----------------------------------------------------------

def masked_softmax(a, mask):
    """Softmax over the last axis with positions where mask==0 forced to 0.

    `mask` is a {0,1} ndarray broadcastable to a's shape; every row must keep
    at least one live position.
    """
    a = _to_tensor(a)
    mask = np.asarray(mask).astype(bool)
    mask = np.broadcast_to(mask, a.data.shape)
    if not mask.any(axis=-1).all():
        raise ValueError("masked_softmax: a row has every position masked")
    neg = np.where(mask, a.data, -np.inf)
    shifted = neg - neg.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=-1, keepdims=True)
            a._accumulate(data * (g - dot))

    return _make(data, (a,), backward)


def cross_entropy_masked(logits, targets, ignore_index=0):
    """Mean of -log softmax(logits)[target] over non-ignored positions.

    `logits` is a Tensor of shape [..., V]; `targets` an int array of the
    leading shape.  Positions whose target equals `ignore_index` contribute
    nothing to the loss or the gradient.  All positions ignored -> 0 loss.
    """
    logits = _to_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    V = logits.data.shape[-1]
    flat = logits.data.reshape(-1, V)
    tgt = targets.reshape(-1)
    if tgt.size != flat.shape[0]:
        raise ValueError("targets shape does not match logits")
    if tgt.min(initial=0) < 0 or tgt.max(initial=0) >= V:
        raise ValueError("target id out of range")
    live = tgt != ignore_index
    count = int(live.sum())

    shifted = flat - flat.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    nll = logsumexp - shifted[np.arange(tgt.size), tgt]
    loss = nll[live].sum() / count if count else 0.0

    def backward(g):
        if not logits.requires_grad or count == 0:
            return
        probs = np.exp(shifted - logsumexp[:, None])
        probs[np.arange(tgt.size), tgt] -= 1.0
        probs[~live] = 0.0
        probs *= float(g) / count
        logits._accumulate(probs.reshape(logits.data.shape))

    out = _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)
    return out


# -- optimizer ---------------------------------------------------------------

def clip_grad_norm(params, max_norm):
    """Scale gradients so the global L2 norm over live params is <= max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    live = [p for p in params if not p.frozen and p.grad is not None]
    if not live:
        return 1.0
    total = 0.0
    for p in live:
        total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = np.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for p in live:
        p.grad *= p.grad.dtype.type(scale)
    return scale


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction; classic L2 added to the gradient.

    Each parameter keeps its own moments and step count.  Frozen parameters
    are skipped entirely (values and moments untouched).  Pruned entries are
    re-pinned to exactly 0 after the update.
    """

    def __init__(self, params, lr=1e-3, l2=0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.l2 = l2
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = [0] * len(self.params)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        b1, b2 = ADAM_BETAS
        for i, p in enumerate(self.params):
            if p.frozen:
                continue
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.l2:
                g = g + self.l2 * p.data
            if p.pruned is not None and p.pruned.size:
                g = g.copy()
                g.reshape(-1)[p.pruned] = 0.0
            self.t[i] += 1
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            mhat = self.m[i] / (1.0 - b1 ** self.t[i])
            vhat = self.v[i] / (1.0 - b2 ** self.t[i])
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.data.dtype)
            if p.pruned is not None and p.pruned.size:
                p.data.reshape(-1)[p.pruned] = 0.0
                self.m[i].reshape(-1)[p.pruned] = 0.0
                self.v[i].reshape(-1)[p.pruned] = 0.0


def init_uniform(shape, rng, scale=0.08, dtype=None):
    """Seeded uniform init in [-scale, scale] used for all weight matrices."""
    dtype = dtype or _DEFAULT_DTYPE
    return rng.uniform(-scale, scale, size=shape).astype(dtype)
