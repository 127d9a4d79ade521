"""Tape ops that only the references and the op tests run: `mul`, `stack`,
`tsum`, `sigmoid`, `masked_softmax` and `padded_cross_entropy`.  The fused
kernels in `lrmt.numerics` do this arithmetic on plain arrays, so `lrmt`
itself needs none of them.  They record on the same tape as the ops
`lrmt.numerics` keeps."""

import numpy as np

from lrmt.numerics import _make, _sigmoid, _to_tensor, _unbroadcast
from lrmt.text import PAD


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
