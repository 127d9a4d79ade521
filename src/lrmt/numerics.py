"""Dense tensor math with reverse-mode gradients, Adam, and gradient clipping.

A training batch's tape is three ops from this module, ``encoder_sequence``,
``decoder_sequence`` and ``cross_entropy_masked``, with hand-written backward
passes on numpy arrays.  Each op returns a Tensor that remembers its parents
and a closure that scatters the incoming gradient back to them; the closure
saves only the arrays its backward reads, and ``backward()`` walks a tape
once, releasing each node as it passes it.  A recorded step's cache holds
arrays of its own, not views that pin a larger array, and the decoder's
backward drops the head's input once the head's weight gradient is formed.

The GRU and LSTM kernels take the projected input ``xp = x @ W_i + b`` and
the recurrent weight ``W_h``; ``CELLS`` maps each cell kind to its gate
count, its state arrays, its pair of step kernels and the cache a recorded
step keeps.  Both backprop-through-time loops keep d(h @ W_h) only in the
columns where it differs from d xp, and form W_h's gradient in
``_w_h_grad``.
``encoder_sequence`` embeds a padded batch, projects it with one GEMM per
direction, runs each direction from a zero state, keeping the state at pad
positions, and forms the decoder's initial state.  It reads the encoder's
weights only, so a frozen encoder records no tape node.

Recurrence steps run on live rows only.  Both fused recurrences order a
right-padded batch's rows longest first once per call, so step t's cell,
attention and backward kernels run on a slice of the first n_t rows, the
rows still live at t; the caller's row order returns once on the way out.  A
batch with no padding, or already longest first, is not reordered.

One decoder step (the context, the cell kernel and the head features) is
one array function, ``_decoder_step``, on the same cell kernels plus an
additive-attention kernel pair; a context, GRU's fixed z or the attention
read-out, adds c @ W_c to the step's input projection.  ``decoder_sequence``
loops over it in one tape node, its input ids, embeddings, projections and
features step-packed over the read positions only: one GEMM projects the
gold-token inputs, and an own-token step takes the argmax of the previous
step's logits under ``emit_bias``, as greedy decoding does.  It ends in the
head GEMM and returns one logit row per read position, in its mask's
row-major order, for ``cross_entropy_masked``.
The attention energy is the decoder op's alone, its encoder-side part
included; that part, ``attention_arrays``, depends on the encoding and the
energy's weights alone, so a caller forms it once per encoding.
``decoder_step`` runs one step for greedy decoding on plain arrays, records
no tape and checks nothing, so a greedy loop gathers its arrays once and
steps them.

Inside ``with no_grad():`` ops record nothing: their outputs have no parents
and no backward closure, whatever the inputs' ``requires_grad``; the encoder
and decoder ops then keep nothing for backprop either, no step cache, no
entering state, no context, and copy nothing to keep.
"""

from collections import namedtuple
from itertools import accumulate
from contextlib import contextmanager

import numpy as np

from .text import PAD, SOS, UNK

_DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
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


def _released(_):
    """The closure of a node that backward() has walked: it runs no more."""
    raise RuntimeError("this tape was already walked")


class Tensor:
    """A numpy array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
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
        """Populate grads of every tensor reachable from this scalar node.

        The tape is walked once: each recorded node drops its closure and its
        parents as the walk passes it, so the arrays they hold go step by
        step, and a later ``backward()`` that reaches one raises
        RuntimeError before it adds any gradient.
        """
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
            if node._backward is _released:
                raise RuntimeError("backward() reached a tape that was already walked; "
                                   "run the forward pass again")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            run = node._backward
            if node._parents:           # released whether or not a gradient reached it
                node._backward, node._parents = _released, ()
            if run is not None and node.grad is not None:
                run(node.grad)

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


def _make(data, parents, backward):
    out = Tensor(data)
    if _RECORDING and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


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


# -- fused recurrent cells ---------------------------------------------------
#
# Gate columns of W_i, W_h and b: GRU [r, z, n], LSTM [i, f, g, o].  The bias
# sits in xp only, so GRU's reset gate scales the whole of h @ W_h's n part.
# A kernel maps (xp, state arrays, W_h) to (new state arrays, cache); its
# backward maps (state grads, cache, W_h) to (d xp, dhn, d state), dhn being
# d(h @ W_h) past its leading columns, which equal d xp's: GRU's n third (its
# r and z columns are d xp's), nothing for LSTM (all of it is d xp).  state[0]
# is h in both cells, so W_h's gradient is h.T @ d(h @ W_h), `_w_h_grad`.  A
# cache that outlives its step, one a recorded pass keeps for backprop, goes
# through the kind's `keep` first, so it holds no view that pins a larger
# array; a step that keeps nothing copies nothing.

def _gru_forward(xp, state, W_h):
    (h,) = state
    H = h.shape[-1]
    hh = h @ W_h
    rz = _sigmoid(xp[:, :2 * H] + hh[:, :2 * H])
    r, z = rz[:, :H], rz[:, H:]
    hn = hh[:, 2 * H:]
    n = np.tanh(xp[:, 2 * H:] + r * hn)
    return ((1.0 - z) * n + z * h,), (h, hn, r, z, n)


def _gru_keep(cache):
    """hn copied out of h @ W_h [n, 3H], all of which its view would pin."""
    h, hn, r, z, n = cache
    return h, hn.copy(), r, z, n


def _gru_backward(d_state, cache, W_h):
    (dh,) = d_state
    h, hn, r, z, n = cache
    dan = dh * (1.0 - z) * (1.0 - n * n)
    dar = dan * hn * r * (1.0 - r)
    daz = dh * (h - n) * z * (1.0 - z)
    dxp = np.concatenate([dar, daz, dan], axis=1)
    dhh = np.concatenate([dar, daz, dan * r], axis=1)
    return dxp, dhh[:, 2 * dh.shape[1]:], (dh * z + dhh @ W_h.T,)


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
    return da, da[:, da.shape[1]:], (da @ W_h.T, dc * f)


def _lstm_keep(cache):
    """As is: i, f and o are three quarters of the one array they view."""
    return cache


# kind -> (gate count, state arrays, forward kernel, backward kernel, the
# cache a recorded step keeps)
CellKind = namedtuple("CellKind", "gates states forward backward keep")
CELLS = {"gru": CellKind(3, 1, _gru_forward, _gru_backward, _gru_keep),
         "lstm": CellKind(4, 2, _lstm_forward, _lstm_backward, _lstm_keep)}


def _w_h_grad(h_in, dxp, dhn):
    """W_h's gradient h_in.T @ d(h @ W_h) from the step-packed d xp [N, G]
    and dhn, d(h @ W_h)'s columns past those it shares with d xp."""
    own = dxp.shape[1] - dhn.shape[1]
    dW = np.empty((h_in.shape[1], dxp.shape[1]), dtype=dxp.dtype)
    dW[:, :own], dW[:, own:] = h_in.T @ dxp[:, :own], h_in.T @ dhn
    return dW


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


def _packed_index(steps, order, B):
    """(the caller's row, the step) of every step-packed position."""
    pcol, srow = np.nonzero(np.arange(B) < np.array(steps)[:, None])
    return _take(np.arange(B), order)[srow], pcol


def _restore(a, order):
    """Inverse of `_take`: rows back in the caller's order."""
    if order is None:
        return a
    out = np.empty_like(a)
    out[order] = a
    return out


def _recurrence(cell, xs, W_h, steps, offsets, visit, record):
    """A `CELLS` kind from a zero state over xs [B, T, G], the projected input
    with rows longest first, at the positions in `visit`; a pad keeps the
    state.  Returns (the state after every position [B, T, states*H], the
    state entering each live step, step-packed, each step's cache); without
    `record` the entering states and the caches, which only backprop reads,
    are None."""
    B, T, _ = xs.shape
    H, S, dtype = W_h.shape[0], cell.states, W_h.dtype
    out = np.empty((B, T, S * H), dtype=dtype)
    st_in = np.empty((offsets[-1], S * H), dtype=dtype) if record else None
    caches = [None] * T
    prev = np.zeros((B, S * H), dtype=dtype)
    for t in visit:
        n = steps[t]
        entering = prev[:n]
        if record:
            entering = st_in[offsets[t]:offsets[t] + n]
            entering[...] = prev[:n]
        new, cache = cell.forward(xs[:n, t], (entering,) if S == 1
                                  else _split_state(entering, S), W_h)
        if record:
            caches[t] = cell.keep(cache)
        if S == 1:
            out[:n, t] = new[0]
        else:
            out[:n, t, :H], out[:n, t, H:] = new
        if n < B:
            out[n:, t] = prev[n:]                       # pad: the state carries
        prev = out[:, t]
    return out, st_in, caches


def _recurrence_backward(cell, g, W_h, steps, offsets, visit, caches):
    """Backprop through time for `_recurrence` from g, the gradient of its
    states: (d xp, dhn), both step-packed, dhn being the part of d(h @ W_h)
    the backward kernel returns.  Each step's cache is dropped from `caches`
    once its kernel has run."""
    B, T, _ = g.shape
    (H, G), S, dtype = W_h.shape, cell.states, W_h.dtype
    dxp, dhn = np.empty((offsets[-1], G), dtype=dtype), None
    d = np.zeros((B, S * H), dtype=dtype)
    for t in reversed(visit):
        n, lo = steps[t], offsets[t]
        d += g[:, t]
        dxp[lo:lo + n], dhn_t, d_step = cell.backward(_split_state(d[:n], S), caches[t], W_h)
        caches[t] = None
        if dhn is None:
            dhn = np.empty((offsets[-1], dhn_t.shape[1]), dtype=dtype)
        dhn[lo:lo + n] = dhn_t
        for k, ds in enumerate(d_step):
            d[:n, k * H:(k + 1) * H] = ds
    return dxp, dhn


def encoder_sequence(cell, ids, mask, emb, directions, keep=None, init=None):
    """The whole encoder pass as one tape op: (states, state).

    `emb` [V, E] embeds the right-padded ids [B, T], times the dropout
    multipliers `keep` [B, T, E] (None: no dropout).  directions[k] holds the
    weights (W_i, b, W_h) of one `cell` run over that from a zero state, the
    first forwards and any further one backwards; a row keeps its state where
    the {0,1} `mask` is 0.  states [B, T, D] is every direction's h after each
    position, side by side.  The decoder's initial state is (tanh(F @ W + b),)
    with `init` = (W [D, H], b), F being every direction's last h side by
    side, else the first direction's last state arrays.  The outputs hang off
    one hidden node, whose closure reads each output's gradient (None: nothing
    read it) and runs backprop through time only for a direction whose
    weights, or the embedding, require grad; only such a direction's
    recurrence keeps its entering states.  When nothing is recorded
    (``no_grad``, or no input requires grad, as under a frozen encoder) the
    outputs are plain Tensors.
    """
    kind = CELLS[cell]
    emb = _to_tensor(emb)
    directions = [[_to_tensor(w) for w in weights] for weights in directions]
    init = [_to_tensor(w) for w in init or ()]
    ids = np.asarray(ids)
    B, T = ids.shape
    H, G = directions[0][2].data.shape
    encoder = [emb, *(w for weights in directions for w in weights)]
    record = _RECORDING and any(p.requires_grad for p in encoder + init)
    recurrent = [record and (emb.requires_grad or any(w.requires_grad for w in ws))
                 for ws in directions]
    steps, order, offsets = _live_rows(mask, (B, T))
    flat = (emb.data[ids] if keep is None else emb.data[ids] * keep).reshape(B * T, -1)
    # the embedded rows longest first, E wide, so each direction's projection
    # [B, T, G] comes out in recurrence order; W_i's gradient reads `flat`
    rows = _take(flat.reshape(B, T, -1), order).reshape(B * T, -1)
    runs, hs, finals = [], [], []
    for k, (W_i, b, W_h) in enumerate(directions):
        visit = range(T - 1, -1, -1) if k else range(T)
        xs = (rows @ W_i.data + b.data).reshape(B, T, G)
        out, st_in, caches = _recurrence(kind, xs, W_h.data, steps, offsets, visit,
                                         recurrent[k])
        out = _restore(out, order)
        runs.append((visit, st_in, caches))
        hs.append(out[..., :H])
        finals.append(out[:, visit[-1]])
    states = hs[0] if len(hs) == 1 else np.concatenate(hs, axis=-1)
    if init:
        F = np.concatenate([f[:, :H] for f in finals], axis=-1)
        state = (np.tanh(F @ init[0].data + init[1].data),)
    else:
        state = tuple(_split_state(finals[0], kind.states))
    if not record:
        return Tensor(states), tuple(Tensor(s) for s in state)

    grads = {}                      # output index -> its gradient, as the output hands it on

    def backward(_):
        d_states, *d_state = (grads.get(i) for i in range(1 + len(state)))
        dF = dX = None
        if init and d_state[0] is not None:
            W, b = init
            dpre = d_state[0] * (1.0 - state[0] * state[0])
            if W.requires_grad:
                W._accumulate(F.T @ dpre)
            if b.requires_grad:
                b._accumulate(dpre.sum(axis=0))
            if any(recurrent):
                dF = dpre @ W.data.T
        packed = _packed_index(steps, order, B)
        for k, ((W_i, b, W_h), (visit, st_in, caches)) in enumerate(zip(directions, runs)):
            if not recurrent[k]:
                continue
            g = np.zeros((B, T, kind.states * H), dtype=W_h.data.dtype)
            # its last state's gradient: through init, else the decoder's own state's
            d_last = [dF[:, k * H:(k + 1) * H]] if dF is not None else () if init or k else d_state
            for part, ds in zip(_split_state(g[:, visit[-1]], kind.states), d_last):
                if ds is not None:
                    part[...] = ds
            if d_states is not None:
                g[..., :H] += d_states[..., k * H:(k + 1) * H]
            dXP, dHn = _recurrence_backward(kind, _take(g, order), W_h.data, steps, offsets,
                                            visit, caches)
            if W_h.requires_grad:
                W_h._accumulate(_w_h_grad(st_in[:, :H], dXP, dHn))
            dxp = np.zeros((B, T, G), dtype=dXP.dtype)      # zero at pads, in the caller's order
            dxp[packed] = dXP
            dXP = dHn = None
            dxp = dxp.reshape(B * T, G)
            if emb.requires_grad:
                dX = dxp @ W_i.data.T if dX is None else dX + dxp @ W_i.data.T
            if W_i.requires_grad:
                W_i._accumulate(flat.T @ dxp)
            if b.requires_grad:
                b._accumulate(dxp.sum(axis=0))
        if dX is not None:
            if keep is not None:
                dX *= keep.reshape(dX.shape)
            _scatter_rows(emb, ids.reshape(-1), dX)

    hub = _make(np.zeros(()), encoder + init, backward)

    def hand_on(i):                 # an output's closure; holding no output, it makes no cycle
        def closure(g):
            grads[i] = g
            hub.grad = hub.data
        return closure

    outs = []
    for i, (data, own) in enumerate(((states, encoder), *((s, encoder + init) for s in state))):
        out = Tensor(data)
        if any(p.requires_grad for p in own):
            out.requires_grad, out._parents, out._backward = True, (hub,), hand_on(i)
        outs.append(out)
    return outs[0], tuple(outs[1:])


# -- fused decoder ---------------------------------------------------------------
#
# Decoder step t reads [x_t; c_t]: x_t embeds its input token (after dropout),
# and the context c_t is absent (LSTM), the encoder's z at every step (GRU),
# or the additive-attention read-out over the encoder states (A-BGRU).  The
# cell's W_i stacks the rows acting on x (W_x) over those acting on c (W_c).
# Attention scores source position j as v . tanh(s_{t-1} @ W_s + proj_j),
# where W_s is the first H rows of the energy weight W_e and proj_j =
# states_j @ W_e[H:] + b_e, the encoder-side part, is formed once per pass.

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


def attention_arrays(W_e, b_e, states, mask):
    """The encoding's arrays the attention kernel reads at every step:
    (proj, states, live), proj [B, T, A] = states @ W_e[H:] + b_e, the
    energy's encoder-side part, formed with one GEMM over B·T rows, and
    `live` the {0,1} source `mask` as bool.  A row with no live position is
    a ValueError."""
    live = np.asarray(mask, dtype=bool)
    if not live.any(axis=1).all():
        raise ValueError("attention over fully padded sequence")
    W_e, b_e, states = (_to_tensor(t).data for t in (W_e, b_e, states))
    B, T, D = states.shape
    proj = states.reshape(B * T, D) @ W_e[-D:] + b_e
    return proj.reshape(B, T, -1), states, live


def _decoder_step(forward, x, xp, state, W_h, W_c, layout, context, attention):
    """One decoder step on arrays: (new state, head features [B, F], cache).

    x [B, E] is the input embedding and xp its projection x @ W_x + b.  The
    context is `context` [B, C], or with `attention` = (W_s, proj, states,
    live, v) the read-out under the entering state, or None; a context adds
    its c @ W_c to xp.  The cache is (context, attention cache or None, cell
    cache).
    """
    attn = None
    if attention is not None:
        context, attn = _attend_forward(state[0], *attention)
    if context is not None:
        xp = xp + context @ W_c
    new, cache = forward(xp, state, W_h)
    parts = {"x": x, "c": context, "s": new[0]}
    return new, np.concatenate([parts[k] for k in layout], axis=-1), (context, attn, cache)


def emit_bias(b):
    """A copy of the head bias `b` that is -inf at pad, sos and unk, ids that
    no training target holds: the bias of every argmax that picks a token
    for the decoder to read next, greedy or own-token."""
    b = b.copy()
    b[[PAD, SOS, UNK]] = -np.inf
    return b


def decoder_step(ids, state, cell, emb, W_i, b, W_h, head, layout, context=None,
                 attention=None):
    """One greedy-decoding step on arrays: the step `decoder_sequence` loops
    over, without dropout or a tape, and without a check of its inputs.

    `ids` [B] holds the input token of each row and `state` the state arrays
    entering the step; the other arguments are `decoder_sequence`'s as numpy
    arrays, with `attention` = (W_s, proj, states, live, v): the energy
    weight's first H rows, an encoding's `attention_arrays` and the score
    vector.  So a greedy loop gathers them once and passes them on.  Returns
    (new state arrays, logits [B, V], attention weights [B, Ts] or None).
    """
    E = emb.shape[1]
    x = emb[ids]
    new, feats, (_, attn, _) = _decoder_step(CELLS[cell].forward, x, x @ W_i[:E] + b, state, W_h,
                                             W_i[E:], layout, context, attention)
    return new, feats @ head[0] + head[1], None if attn is None else attn[1]


def decoder_sequence(cell, emb, tokens, gold, mask, W_i, b, W_h, state, head, layout,
                     keep=(None, None), context=None, attention=None):
    """Every decoder step of a teacher-forced pass in one tape node.

    `cell` is a kind in `CELLS`; W_i [E + C, G], b and W_h are its weights and
    `state` its initial (h,) or (h, c).  `emb` [V, E] embeds the input ids:
    step 0 reads tokens[:, 0]; step t > 0 reads tokens[:, t] where gold[t]
    is true, else the argmax of step t-1's logits under head = (W [F, V],
    b [V]), with `emit_bias(b)` for b, so it never reads pad, sos or unk.
    Those logits are formed only at such steps and carry no
    gradient.  The right-padded {0,1} `mask` [B, S] marks the positions whose
    features are read, and a step runs on the rows it reads.  `keep` holds
    the embedding [B, S, E] and head-feature [B, S, F] dropout multipliers,
    each None for no dropout.  The context is `context` (GRU's z [B, C], fed
    at every step), or the attention read-out when `attention` = (W_e, b_e,
    states, mask, v), or absent; the op forms the energy's encoder-side part
    with `attention_arrays` and gives W_e and b_e their whole gradients.
    `layout` orders the head features: "x" (input embedding), "c" (context)
    and "s" (new state).  Returns the logits [N, V] of the read positions
    only, from their features with dropout applied, in the row-major order of
    `mask`; backprop runs in plain numpy.  A pass that records no tape keeps
    none of the per-step arrays backprop reads.
    """
    kind = CELLS[cell]
    emb, W_i, b, W_h, head_W, head_b = (_to_tensor(t) for t in (emb, W_i, b, W_h, *head))
    state = [_to_tensor(s) for s in state]
    tokens = np.asarray(tokens, dtype=np.int64)
    B, S = tokens.shape
    steps, order, offsets = _live_rows(mask, (B, S))
    N = offsets[-1]
    prow, pcol = _packed_index(steps, order, B)
    at = np.lexsort((pcol, prow))           # the packed position of each read one, row-major
    ids = tokens[prow, pcol]                # packed; own-token steps overwrite theirs
    fed = np.array(gold, dtype=bool)
    fed[0] = True
    E, (H, G) = emb.data.shape[1], W_h.data.shape
    dtype = W_h.data.dtype
    W_x, W_c = W_i.data[:E], W_i.data[E:]
    parents = [emb, W_i, b, W_h, head_W, head_b, *state]
    ctx = arrays = C = None
    if context is not None:
        context = _to_tensor(context)
        parents.append(context)
        ctx = _take(context.data, order)
    if attention is not None:
        W_e, b_e, states, src_mask, v = attention
        W_e, b_e, states, v = (_to_tensor(t) for t in (W_e, b_e, states, v))
        parents += [W_e, b_e, states, v]
        W_s, v_data = W_e.data[:H], v.data
        per_row = [_take(a, order) for a in attention_arrays(W_e, b_e, states, src_mask)]
        A = W_e.data.shape[1]
    record = _RECORDING and any(p.requires_grad for p in parents)
    if record and (context is not None or attention is not None):
        C = np.empty((N, W_c.shape[0]), dtype=dtype)                # the context of each step
    widths = {"x": E, "c": W_c.shape[0], "s": H}
    F = sum(widths[k] for k in layout)
    emb_keep, feat_keep = (None if k is None else k[prow, pcol] for k in keep)     # packed
    X = emb.data[ids]
    if emb_keep is not None:
        X *= emb_keep
    # the input GEMM of every step whose token is known before the loop
    XP = np.empty((N, G), dtype=dtype)
    known = fed[pcol]
    XP[known] = X[known] @ W_x + b.data
    h_in = np.empty((N, H), dtype=dtype) if record else None   # state entering each live step
    feats = np.empty((N, F), dtype=dtype)
    own_b = None if fed.all() else emit_bias(head_b.data)
    caches, attn = [None] * S, [None] * S
    cur = [_take(s.data, order) for s in state]
    for t, (n, lo) in enumerate(zip(steps, offsets)):
        hi = lo + n
        if not fed[t]:
            prev = feats[offsets[t - 1]:offsets[t - 1] + n]             # dropout applied
            ids[lo:hi] = (prev @ head_W.data + own_b).argmax(axis=1)
            X[lo:hi] = emb.data[ids[lo:hi]]
            if emb_keep is not None:
                X[lo:hi] *= emb_keep[lo:hi]
            XP[lo:hi] = X[lo:hi] @ W_x + b.data
        if record:
            h_in[lo:hi] = cur[0][:n]
        if attention is not None:
            arrays = (W_s, *(a[:n] for a in per_row), v_data)
        cur, feats[lo:hi], (c_t, a_t, cache) = _decoder_step(
            kind.forward, X[lo:hi], XP[lo:hi], [c[:n] for c in cur], W_h.data, W_c, layout,
            None if ctx is None else ctx[:n], arrays)
        if feat_keep is not None:
            feats[lo:hi] *= feat_keep[lo:hi]
        if record:
            attn[t], caches[t] = a_t, kind.keep(cache)
            if C is not None:
                C[lo:hi] = c_t
    read = feats[at]
    logits = read @ head_W.data + head_b.data
    if not record:
        return Tensor(logits)

    def backward(g):
        nonlocal read
        if head_W.requires_grad:
            head_W._accumulate(read.T @ g)
        read = None                 # nothing reads the head's input again
        if head_b.requires_grad:
            head_b._accumulate(g.sum(axis=0))
        packed = np.empty((N, F), dtype=dtype)
        packed[at] = g @ head_W.data.T
        if feat_keep is not None:
            packed *= feat_keep
        bounds = np.cumsum([widths[k] for k in layout])[:-1]
        d_part = dict(zip(layout, np.split(packed, bounds, axis=-1)))
        dXP = np.empty((N, G), dtype=dtype)
        dHn = None                  # the part of d(h @ W_h) that is not d xp's
        d = [np.zeros((B, H), dtype=dtype) for _ in state]
        if C is not None:
            dC = np.zeros((B, S, C.shape[1]), dtype=dtype)
        if attention is not None:
            states_s = _take(states.data, order)
            dSP = np.empty((N, A), dtype=dtype)
            weights = np.zeros((B, S, states_s.shape[1]), dtype=dtype)
            dproj = np.zeros((B, states_s.shape[1], A), dtype=dtype)
            dv = np.zeros(A, dtype=dtype)
        for t in reversed(range(S)):
            n, lo = steps[t], offsets[t]
            hi = lo + n
            d[0][:n] += d_part["s"][lo:hi]
            dXP[lo:hi], dhn_t, d_step = kind.backward([dk[:n] for dk in d], caches[t], W_h.data)
            if dHn is None:
                dHn = np.empty((N, dhn_t.shape[1]), dtype=dtype)
            dHn[lo:hi] = dhn_t
            if C is not None:
                dC[:n, t] = dXP[lo:hi] @ W_c.T + d_part["c"][lo:hi]
            if attention is not None:
                denergy, dv_t = _attend_backward(dC[:n, t], attn[t], states_s[:n], v.data)
                dproj[:n] += denergy
                dv += dv_t
                dSP[lo:hi] = denergy.sum(axis=1)
                weights[:n, t] = attn[t][1]
                d_step = (d_step[0] + dSP[lo:hi] @ W_s.T, *d_step[1:])
            caches[t] = attn[t] = None
            for dk, ds in zip(d, d_step):
                dk[:n] = ds
        if W_h.requires_grad:
            W_h._accumulate(_w_h_grad(h_in, dXP, dHn))
        if b.requires_grad:
            b._accumulate(dXP.sum(axis=0))
        if W_i.requires_grad:
            dW = [X.T @ dXP]
            if C is not None:
                dW.append(C.T @ dXP)
            W_i._accumulate(np.concatenate(dW, axis=0))
        if emb.requires_grad:
            dX = dXP @ W_x.T
            if "x" in d_part:
                dX += d_part["x"]
            if emb_keep is not None:
                dX *= emb_keep
            _scatter_rows(emb, ids, dX)
        if context is not None and context.requires_grad:
            context._accumulate(_restore(dC.sum(axis=1), order))
        for s, ds in zip(state, d):
            if s.requires_grad:
                s._accumulate(_restore(ds, order))
        if attention is not None:
            flat = states.data.reshape(-1, states.data.shape[-1])          # [B·Ts, D]
            dP = _restore(dproj, order).reshape(len(flat), A)   # d proj, the caller's rows
            if W_e.requires_grad:
                dW = np.empty_like(W_e.data)
                dW[:H], dW[H:] = h_in.T @ dSP, flat.T @ dP
                W_e._accumulate(dW)
            if b_e.requires_grad:
                b_e._accumulate(dP.sum(axis=0))
            if states.requires_grad:
                d_states = _restore(weights.transpose(0, 2, 1) @ dC, order)
                d_states += (dP @ W_e.data[H:].T).reshape(d_states.shape)
                states._accumulate(d_states)
            if v.requires_grad:
                v._accumulate(dv[:, None])

    return _make(logits, parents, backward)


# -- softmax / loss ----------------------------------------------------------

def cross_entropy_masked(logits, targets):
    """Mean of -log softmax(logits)[target] over the target tokens.

    `targets` is an int array whose non-pad entries are the tokens scored;
    `logits` is a Tensor [N, V] with one row for each, in the order of
    ``targets[targets != PAD]``, as a teacher-forced pass returns them.
    """
    logits = _to_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    tgt = targets[targets != PAD]
    if logits.data.ndim != 2 or logits.data.shape[0] != tgt.size:
        raise ValueError("logits %s do not hold one row per target token (%d)"
                         % (logits.data.shape, tgt.size))
    N, V = logits.data.shape
    if not N or tgt.min() < 0 or tgt.max() >= V:
        raise ValueError("targets need at least one token, each an id in [1, %d)" % V)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    loss = (logsumexp - shifted[np.arange(N), tgt]).sum() / N

    def backward(g):
        if logits.requires_grad:
            probs = np.exp(shifted - logsumexp[:, None])
            probs[np.arange(N), tgt] -= 1.0
            probs *= float(g) / N
            logits._accumulate(probs)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


# -- optimizer ---------------------------------------------------------------

def clip_grad_norm(params, max_norm):
    """Scale gradients so the global L2 norm over live params is <= max_norm.

    A norm that is not finite raises FloatingPointError, naming the first
    parameter whose gradient is not, before any gradient is scaled.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    live = [p for p in params if not p.frozen and p.grad is not None]
    if not live:
        return 1.0
    total = 0.0
    for p in live:
        total += float(np.square(p.grad, dtype=np.float64).sum())
    if not np.isfinite(total):
        bad = next((p.name for p in live if not np.isfinite(p.grad).all()), None)
        raise FloatingPointError("non-finite gradient norm (%r)%s" % (
            total, "" if bad is None else "; first non-finite gradient: %r" % bad))
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
