"""Dense tensor math with reverse-mode gradients, Adam, and gradient clipping.

Everything downstream (the recurrent cells, attention, projections) is built
from the ops in this module.  The graph is a plain tape: each op returns a
Tensor that remembers its parents and a closure that scatters the incoming
gradient back to them.

The GRU and LSTM recurrences are fused ops with hand-written backward passes.
Both take the projected input ``xp = x @ W_i + b`` and the recurrent weight
``W_h``.  ``CELLS`` maps each cell kind to its gate count, its state arrays
and its pair of step kernels; ``cell_sequence`` runs a whole padded batch in
one tape node, keeps the previous state at pad positions, and does backprop
through time in plain numpy on those kernels.

Recurrence steps run on live rows only.  Both fused recurrences order a
right-padded batch's rows longest first once per call, so step t's cell,
attention and backward kernels run on a slice of the first n_t rows, the
rows still live at t; the caller's row order returns once on the way out.  A
batch with no padding, or already longest first, is not reordered.

One decoder step (the attention context, the cell kernel and the head
features) is one array function, ``_decoder_step``, on the same cell kernels
plus an additive-attention kernel pair.  ``decoder_sequence`` loops over it
for every step of a teacher-forced pass in one tape node: the inputs of the
steps that read gold tokens go through one GEMM, and a step that reads the
model's own token forms the previous step's logits for the argmax inside the
loop.  It returns the head features of every step, exactly 0 at the
positions its mask says are not read, so the caller computes all logits with
one GEMM.  ``decoder_step`` runs it once for greedy decoding and records no
tape.

Inside ``with no_grad():`` ops record nothing: their outputs have no parents
and no backward closure, whatever the inputs' ``requires_grad``.
"""

from collections import namedtuple
from itertools import accumulate
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
        """Add `g` to grad.  A first gradient is kept, not copied: the caller
        hands over an array that nothing else holds or will write."""
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
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
        for t in (a, b):
            if t.requires_grad:
                part = _unbroadcast(g, t.data.shape)
                # g itself is this node's grad and may go to both operands
                t._accumulate(part.copy() if part is g else part)

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
                t._accumulate(piece.copy())                 # a view of g

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
            a._accumulate(g.reshape(old).copy())            # a view of g

    return _make(data, (a,), backward)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


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
            _scatter_rows(table, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))

    return _make(data, (table,), backward)


def _scatter_rows(table, ids, rows):
    """table.grad[ids[k]] += rows[k] for every k; ids may repeat.

    One `np.add.at` on the flat gradient: numpy's 1-D path adds in the same
    order as the row form, several times faster.
    """
    if table.grad is None:
        table.grad = np.zeros_like(table.data)
    table.grad = np.ascontiguousarray(table.grad)     # so the flat view below writes it
    E = rows.shape[1]
    flat = (np.asarray(ids, dtype=np.int64)[:, None] * E + np.arange(E)).reshape(-1)
    np.add.at(table.grad.reshape(-1), flat, rows.reshape(-1))


def dropout_mask(shape, rate, rng, dtype):
    """Inverted-dropout multipliers (0 or 1/keep) drawn from `rng`; None when
    rng is None or the rate is 0, meaning no dropout."""
    if rng is None or rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(dtype) / keep


def dropout(a, rate, rng):
    """Inverted dropout with a mask drawn from `rng`; identity when rng is None."""
    a = _to_tensor(a)
    mask = dropout_mask(a.data.shape, rate, rng, a.data.dtype)
    if mask is None:
        return a
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


# kind -> (gate count, state arrays, forward kernel, backward kernel)
CellKind = namedtuple("CellKind", "gates states forward backward")
CELLS = {"gru": CellKind(3, 1, _gru_forward, _gru_backward),
         "lstm": CellKind(4, 2, _lstm_forward, _lstm_backward)}


def _split_state(packed, parts):
    H = packed.shape[-1] // parts
    return [packed[..., k * H:(k + 1) * H] for k in range(parts)]


# -- live rows ----------------------------------------------------------------
#
# Per-step arrays kept for backward are packed by step: step t's live rows sit
# at rows offsets[t]:offsets[t] + n_t of one [sum n_t, ...] array, so the
# weight-gradient GEMMs see live rows only.

def _live_rows(mask, shape):
    """(n_t of every step, row order longest first or None when the rows
    already are, packed offsets) for a right-padded {0,1} `mask` [B, T]."""
    live = np.asarray(mask) != 0
    if live.shape != shape:
        raise ValueError("mask shape %s does not match %s" % (live.shape, shape))
    B, T = shape
    if live.all():                                  # no padding, the common inference case
        return [B] * T, None, list(range(0, B * T + 1, B))
    if (live[:, 1:] > live[:, :-1]).any():
        raise ValueError("mask is not right-padded: a row is live after a pad position")
    lengths = live.sum(axis=1)
    order = np.argsort(-lengths, kind="stable") if (lengths[:-1] < lengths[1:]).any() else None
    steps = live.sum(axis=0).tolist()
    return steps, order, list(accumulate(steps, initial=0))


def _take(a, order):
    """Rows of `a` longest first; `a` itself when `order` is None."""
    return a if order is None else a[order]


def _restore(a, order):
    """Inverse of `_take`: rows back in the caller's order."""
    if order is None:
        return a
    out = np.empty_like(a)
    out[order] = a
    return out


def cell_sequence(kind, xp, state, W_h, mask, reverse=False):
    """A `kind` cell over every position of xp [B, T, gates*H], starting from
    `state`, the cell's (h0,) or (h0, c0) [B, H].

    Positions where the right-padded {0,1} `mask` [B, T] is 0 keep the
    previous state, so the state at the last position visited (T-1, or 0
    when `reverse`) is the state after each row's last real token; the cell
    runs on live rows only.  Returns the state after every position in input
    order, its arrays packed as [B, T, len(state)*H].
    """
    forward, backward_kernel = CELLS[kind].forward, CELLS[kind].backward
    xp, W_h = _to_tensor(xp), _to_tensor(W_h)
    state = [_to_tensor(s) for s in state]
    B, T, G = xp.data.shape
    H, S = W_h.data.shape[0], len(state)
    steps, order, offsets = _live_rows(mask, (B, T))
    visit = range(T - 1, -1, -1) if reverse else range(T)
    dtype = xp.data.dtype
    xs = _take(xp.data, order)
    out = np.empty((B, T, S * H), dtype=dtype)
    st_in = np.empty((offsets[-1], S * H), dtype=dtype)     # state entering each live step
    caches = [None] * T
    prev = _take(np.concatenate([s.data for s in state], axis=-1), order)
    for t in visit:
        n, lo = steps[t], offsets[t]
        entering = st_in[lo:lo + n]
        entering[...] = prev[:n]
        new, caches[t] = forward(xs[:n, t], _split_state(entering, S), W_h.data)
        for k, s in enumerate(new):
            out[:n, t, k * H:(k + 1) * H] = s
        if n < B:
            out[n:, t] = prev[n:]                       # pad: the state carries
        prev = out[:, t]
    out = _restore(out, order)

    def backward(g):
        g = _take(g, order)
        dxp = np.zeros((B, T, G), dtype=dtype)
        dhh = np.empty((offsets[-1], G), dtype=dtype)
        d = np.zeros((B, S * H), dtype=dtype)
        for t in reversed(visit):
            n, lo = steps[t], offsets[t]
            d += g[:, t]
            dxp[:n, t], dhh[lo:lo + n], d_step = backward_kernel(_split_state(d[:n], S),
                                                                 caches[t], W_h.data)
            for k, ds in enumerate(d_step):
                d[:n, k * H:(k + 1) * H] = ds
        if xp.requires_grad:
            xp._accumulate(_restore(dxp, order))
        d = _restore(d, order)
        for s, ds in zip(state, _split_state(d, S)):
            if s.requires_grad:
                s._accumulate(ds)
        if W_h.requires_grad:
            W_h._accumulate(st_in[:, :H].T @ dhh)

    return _make(out, (xp, *state, W_h), backward)


# -- fused decoder ---------------------------------------------------------------
#
# Decoder step t reads [x_t; c_t]: x_t embeds its input token (after dropout),
# and the context c_t is absent (LSTM), the encoder's z at every step (GRU),
# or the additive-attention read-out over the encoder states (A-BGRU).  The
# cell's W_i stacks the rows acting on x (W_x) over those acting on c (W_c).
# Attention scores source position j as v . tanh(s_{t-1} @ W_s + proj_j),
# where W_s is the first H rows of the energy weight and proj, the
# encoder-side part, is an input computed once per pass.

def _attend_forward(s, W_s, proj, states, live, v):
    energy = np.tanh(proj + (s @ W_s)[:, None, :])                 # [B, Ts, A]
    scores = np.where(live, energy @ v[:, 0], -np.inf)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)                           # [B, Ts]
    return (a[:, None, :] @ states)[:, 0], (energy, a)


def _attend_backward(dctx, cache, states, v):
    """(d energy pre-activation [B, Ts, A], d v [A]) for one step."""
    energy, a = cache
    da = (states @ dctx[:, :, None])[:, :, 0]
    dscores = a * (da - (da * a).sum(axis=1, keepdims=True))
    denergy = dscores[:, :, None] * v[:, 0] * (1.0 - energy * energy)
    return denergy, np.tensordot(energy, dscores, ((0, 1), (0, 1)))


def _attention_arrays(attention, H):
    """The attention kernel's arrays (W_s, proj, states, live, v) from
    attention = (W_e, proj, states, mask, v)."""
    W_e, proj, states, mask, v = attention
    live = np.asarray(mask).astype(bool)
    if not live.any(axis=1).all():
        raise ValueError("attention over fully padded sequence")
    W_e, proj, states, v = (_to_tensor(t).data for t in (W_e, proj, states, v))
    return W_e[:H], proj, states, live, v


def _decoder_step(forward, x, xp, state, W_h, W_c, layout, context, attention):
    """One decoder step on arrays: (new state, head features [B, F], cache).

    x [B, E] is the input embedding and xp its projection x @ W_x + b, which
    already holds a fixed context's c @ W_c.  With `attention` (the
    `_attention_arrays` tuple) the context is the read-out under the
    entering state, and its c @ W_c is added here.  The cache is (context,
    attention cache or None, cell cache).
    """
    attn = None
    if attention is not None:
        context, attn = _attend_forward(state[0], *attention)
        xp = xp + context @ W_c
    new, cache = forward(xp, state, W_h)
    parts = {"x": x, "c": context, "s": new[0]}
    return new, np.concatenate([parts[k] for k in layout], axis=-1), (context, attn, cache)


def decoder_step(cell, emb, ids, W_i, b, W_h, state, head, layout, context=None,
                 attention=None):
    """One greedy-decoding step: the step `decoder_sequence` loops over,
    without dropout, recording no tape.

    The arguments are `decoder_sequence`'s, with `ids` [B] the input token
    of each row and `state` the state entering the step.  Returns (new
    state arrays, logits [B, V], attention weights [B, Ts] or None).
    """
    emb, W_i, b, W_h, head_W, head_b = (_to_tensor(t).data for t in (emb, W_i, b, W_h, *head))
    state = [_to_tensor(s).data for s in state]
    W_x, W_c = W_i[:emb.shape[1]], W_i[emb.shape[1]:]
    if context is not None:
        context = _to_tensor(context).data
        b = context @ W_c + b
    if attention is not None:
        attention = _attention_arrays(attention, W_h.shape[0])
    x = emb[np.asarray(ids)]
    new, feats, (_, attn, _) = _decoder_step(CELLS[cell].forward, x, x @ W_x + b, state, W_h,
                                             W_c, layout, context, attention)
    return new, feats @ head_W + head_b, None if attn is None else attn[1]


def decoder_sequence(cell, emb, tokens, gold, mask, W_i, b, W_h, state, head, layout,
                     keep=(None, None), context=None, attention=None):
    """Every decoder step of a teacher-forced pass in one tape node.

    `cell` is a kind in `CELLS`; W_i [E + C, G], b and W_h are its weights and
    `state` its initial (h,) or (h, c).  `emb` [V, E] embeds the input ids:
    step 0 reads tokens[:, 0]; step t > 0 reads tokens[:, t] where gold[t]
    is true, else the argmax of step t-1's logits under head = (W [F, V],
    b [V]).  The right-padded {0,1} `mask` [B, S] marks the positions whose
    features are read, and a step runs on the rows it reads.  Those logits are formed only at such steps and carry no
    gradient.  `keep` holds the embedding [B, S, E] and head-feature
    [B, S, F] dropout multipliers, each None for no dropout.  The context is
    `context` (GRU's z [B, C], fed at every step), or the attention
    read-out when `attention` = (W_e, proj, states, mask, v), or absent.
    `layout` orders the head features: "x" (input embedding), "c" (context)
    and "s" (new state).  Returns the head features [B, S, F], dropout
    applied and exactly 0 where unread; backprop through time runs in plain
    numpy.
    """
    forward, backward_kernel = CELLS[cell].forward, CELLS[cell].backward
    emb, W_i, b, W_h = (_to_tensor(t) for t in (emb, W_i, b, W_h))
    state = [_to_tensor(s) for s in state]
    emb_keep, feat_keep = keep
    head_W, head_b = (_to_tensor(t).data for t in head)
    tokens = np.asarray(tokens, dtype=np.int64)
    B, S = tokens.shape
    steps, order, offsets = _live_rows(mask, (B, S))
    N = offsets[-1]
    # step-packed position -> (step, row longest first), and the caller's row
    pcol, srow = np.nonzero(np.arange(B) < np.array(steps)[:, None])
    prow = _take(np.arange(B), order)[srow]
    tokens = tokens.copy() if order is None else tokens[order]    # own-token steps overwrite
    fed = np.array(gold, dtype=bool)
    fed[0] = True
    E, (H, G) = emb.data.shape[1], W_h.data.shape
    dtype = W_h.data.dtype
    W_x, W_c = W_i.data[:E], W_i.data[E:]
    parents = [emb, W_i, b, W_h, *state]
    bias = b.data
    ctx = None
    if context is not None:
        context = _to_tensor(context)
        parents.append(context)
        ctx = _take(context.data, order)
        bias = ctx @ W_c + bias
    bias = bias.reshape(-1, 1, G)
    arrays = None
    if attention is not None:
        W_e, proj, states, src_mask, v = attention
        W_e, proj, states, v = (_to_tensor(t) for t in (W_e, proj, states, v))
        parents += [W_e, proj, states, v]
        W_s, *per_row, v_data = _attention_arrays((W_e, proj, states, src_mask, v), H)
        per_row = [_take(a, order) for a in per_row]               # proj, states, live
        A = W_e.data.shape[1]
        C = np.empty((N, W_c.shape[0]), dtype=dtype)
    widths = {"x": E, "c": W_c.shape[0], "s": H}
    emb_keep_s, feat_keep_s = (None if k is None else _take(k, order) for k in keep)
    X = emb.data[tokens]
    if emb_keep is not None:
        X *= emb_keep_s
    # the input GEMM of every step whose token is known before the loop
    XP = np.empty((B, S, G), dtype=dtype)
    XP[:, fed] = (X[:, fed].reshape(-1, E) @ W_x).reshape(B, -1, G) + bias
    h_in = np.empty((N, H), dtype=dtype)            # state entering each live step
    feats = np.zeros((B, S, sum(widths[k] for k in layout)), dtype=dtype)
    caches, attn = [None] * S, [None] * S
    cur = [_take(s.data, order) for s in state]
    for t, (n, lo) in enumerate(zip(steps, offsets)):
        if not fed[t]:
            prev = feats[:n, t - 1]
            if feat_keep is not None:
                prev = prev * feat_keep_s[:n, t - 1]
            ids = (prev @ head_W + head_b).argmax(axis=1)
            tokens[:n, t] = ids
            X[:n, t] = emb.data[ids] if emb_keep is None else emb.data[ids] * emb_keep_s[:n, t]
            XP[:n, t] = X[:n, t] @ W_x + bias[:n, 0]
        h_in[lo:lo + n] = cur[0][:n]
        if attention is not None:
            arrays = (W_s, *(a[:n] for a in per_row), v_data)
        cur, feats[:n, t], (c_t, attn[t], caches[t]) = _decoder_step(
            forward, X[:n, t], XP[:n, t], [c[:n] for c in cur], W_h.data, W_c, layout,
            None if ctx is None else ctx[:n], arrays)
        if attention is not None:
            C[lo:lo + n] = c_t
    if feat_keep is not None:
        feats *= feat_keep_s
    feats = _restore(feats, order)

    def backward(g):
        if feat_keep is not None:
            g = g * feat_keep
        bounds = np.cumsum([widths[k] for k in layout])[:-1]
        d_part = dict(zip(layout, np.split(g[prow, pcol], bounds, axis=-1)))    # packed
        dXP = np.empty((N, G), dtype=dtype)
        dHH = np.empty((N, G), dtype=dtype)
        d = [np.zeros((B, H), dtype=dtype) for _ in state]
        if attention is not None:
            states_s = _take(states.data, order)
            dSP = np.empty((N, A), dtype=dtype)
            dC = np.zeros((B, S, C.shape[1]), dtype=dtype)
            weights = np.zeros((B, S, states_s.shape[1]), dtype=dtype)
            dproj = np.zeros((B,) + proj.data.shape[1:], dtype=dtype)
            dv = np.zeros(A, dtype=dtype)
        for t in reversed(range(S)):
            n, lo = steps[t], offsets[t]
            hi = lo + n
            d[0][:n] += d_part["s"][lo:hi]
            dXP[lo:hi], dHH[lo:hi], d_step = backward_kernel([dk[:n] for dk in d],
                                                             caches[t], W_h.data)
            if attention is not None:
                dC[:n, t] = dXP[lo:hi] @ W_c.T + d_part["c"][lo:hi]
                denergy, dv_t = _attend_backward(dC[:n, t], attn[t], states_s[:n], v.data)
                dproj[:n] += denergy
                dv += dv_t
                dSP[lo:hi] = denergy.sum(axis=1)
                weights[:n, t] = attn[t][1]
                d_step = (d_step[0] + dSP[lo:hi] @ W_s.T, *d_step[1:])
            for dk, ds in zip(d, d_step):
                dk[:n] = ds
        if context is not None:
            dsum = _restore(_row_sums(dXP, steps, offsets, B), order)
        if W_h.requires_grad:
            W_h._accumulate(h_in.T @ dHH)
        if b.requires_grad:
            b._accumulate(dXP.sum(axis=0))
        if W_i.requires_grad:
            dW = [X[srow, pcol].T @ dXP]
            if context is not None:
                dW.append(context.data.T @ dsum)
            elif attention is not None:
                dW.append(C.T @ dXP)
            W_i._accumulate(np.concatenate(dW, axis=0))
        if emb.requires_grad:
            dX = dXP @ W_x.T
            if "x" in d_part:
                dX += d_part["x"]
            if emb_keep is not None:
                dX *= emb_keep[prow, pcol]
            _scatter_rows(emb, tokens[srow, pcol], dX)
        if context is not None and context.requires_grad:
            context._accumulate(dsum @ W_c.T + _restore(
                _row_sums(d_part["c"], steps, offsets, B), order))
        for s, ds in zip(state, d):
            if s.requires_grad:
                s._accumulate(_restore(ds, order))
        if attention is not None:
            if W_e.requires_grad:
                full = np.zeros_like(W_e.data)
                full[:H] = h_in.T @ dSP
                W_e._accumulate(full)
            if proj.requires_grad:
                proj._accumulate(_restore(dproj, order))
            if states.requires_grad:
                states._accumulate(_restore(weights.transpose(0, 2, 1) @ dC, order))
            if v.requires_grad:
                v._accumulate(dv[:, None])

    return _make(feats, parents, backward)


def _row_sums(packed, steps, offsets, rows):
    """Each row's sum over its steps [rows, ...] of a step-packed array."""
    out = np.zeros((rows,) + packed.shape[1:], dtype=packed.dtype)
    for n, lo in zip(steps, offsets):
        out[:n] += packed[lo:lo + n]
    return out


# -- softmax / loss ----------------------------------------------------------

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
    re-pinned to exactly 0 after the update.  The update runs in place: the
    moments are updated where they live, and the temporaries go into two
    work arrays per dtype, as large as the largest parameter.
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
        sizes = {}
        for p in self.params:
            sizes[p.data.dtype] = max(sizes.get(p.data.dtype, 0), p.data.size)
        self._work = {dtype: np.empty((2, n), dtype=dtype) for dtype, n in sizes.items()}

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        b1, b2 = ADAM_BETAS
        for i, p in enumerate(self.params):
            if p.frozen:
                continue
            m, v = self.m[i], self.v[i]
            # same operations in the same order as g = grad + l2 * data;
            # m = b1 * m + (1 - b1) * g; v = b2 * v + (1 - b2) * g * g;
            # data -= lr * m_hat / (sqrt(v_hat) + eps), so the bits match
            a, u = (w[:p.data.size].reshape(p.data.shape) for w in self._work[p.data.dtype])
            pruned = p.pruned is not None and p.pruned.size
            if p.grad is None:
                g = a
                g.fill(0.0)
            elif self.l2 or pruned:
                g = a
                np.copyto(g, p.grad)
            else:
                g = p.grad
            if self.l2:
                g += np.multiply(p.data, self.l2, out=u)
            if pruned:
                g.reshape(-1)[p.pruned] = 0.0
            self.t[i] += 1
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=u)
            v *= b2
            np.multiply(g, 1.0 - b2, out=u)
            v += np.multiply(u, g, out=u)
            step = np.divide(m, 1.0 - b1 ** self.t[i], out=a)
            step *= self.lr
            denom = np.sqrt(np.divide(v, 1.0 - b2 ** self.t[i], out=u), out=u)
            denom += ADAM_EPS
            p.data -= np.divide(step, denom, out=step)
            if pruned:
                p.data.reshape(-1)[p.pruned] = 0.0
                m.reshape(-1)[p.pruned] = 0.0
                v.reshape(-1)[p.pruned] = 0.0


def init_uniform(shape, rng, scale=0.08, dtype=None):
    """Seeded uniform init in [-scale, scale] used for all weight matrices."""
    dtype = dtype or _DEFAULT_DTYPE
    return rng.uniform(-scale, scale, size=shape).astype(dtype)
