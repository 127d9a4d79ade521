"""The generic tape ops that only the references and the op tests run.

`lrmt` builds a training batch from three fused ops (`encoder_sequence`,
`decoder_sequence` and `cross_entropy_masked`) that do their arithmetic on
plain arrays, so it needs none of these.  The composed references in
`reference_forward` build every step from them, and they record on the same
tape as the ops `lrmt.numerics` keeps.
"""

import numpy as np

from lrmt.numerics import _make, _scatter_rows, _sigmoid, _to_tensor, dropout_mask
from lrmt.text import PAD


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



def mul(a, b):
    a, b = _to_tensor(a), _to_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def stack(tensors, axis=1):
    tensors = [_to_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece.reshape(t.data.shape).copy())     # a view of g

    return _make(data, tensors, backward)


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


def sigmoid(a):
    a = _to_tensor(a)
    data = _sigmoid(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), backward)


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


def padded_cross_entropy(logits, targets):
    """Mean of -log softmax(logits)[target] over the non-pad targets, with
    logits [..., V] at every position of `targets`, pads included: the loss
    as computed before the packed one, which scores read positions only."""
    logits = _to_tensor(logits)
    V = logits.data.shape[-1]
    flat = logits.data.reshape(-1, V)
    tgt = np.asarray(targets, dtype=np.int64).reshape(-1)
    live = tgt != PAD
    count = int(live.sum())
    shifted = flat - flat.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    nll = logsumexp - shifted[np.arange(tgt.size), tgt]

    def backward(g):
        if logits.requires_grad:
            probs = np.exp(shifted - logsumexp[:, None])
            probs[np.arange(tgt.size), tgt] -= 1.0
            probs[~live] = 0.0
            probs *= float(g) / count
            logits._accumulate(probs.reshape(logits.data.shape))

    return _make(np.asarray(nll[live].sum() / count, dtype=logits.data.dtype), (logits,),
                 backward)
