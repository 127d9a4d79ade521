"""The composed, one-step-at-a-time encoder and decoder, kept as the
reference for the fused kernels that training and greedy decoding run.

Every step is built from the tape's generic ops (`matmul`, `tanh`,
`narrow`, `concat`, and `mul`, `sigmoid`, `masked_softmax`, `tsum`, `stack`
from the test-side `tape_ops`), so it shares no kernel with the code it
checks.  Every row runs at every position: a pad position carries the state
as a lerp by the {0,1} mask.  The teacher-forced pass consumes the dropout
masks and scheduled-sampling coins the model draws, so both paths read the
same draws from the same rng.
"""

import numpy as np

import tape_ops as tp
from lrmt import numerics as nm
from lrmt.model import EncodeResult
from lrmt.text import PAD


def composed_cell(kind, xp, state, W_h):
    """One GRU or LSTM step on xp = x @ W_i + b; returns the new state tuple."""
    H = W_h.shape[0]
    h = state[0]
    if kind == "gru":
        hh = h @ W_h
        r = tp.sigmoid(nm.narrow(xp, 0, H) + nm.narrow(hh, 0, H))
        z = tp.sigmoid(nm.narrow(xp, H, H) + nm.narrow(hh, H, H))
        n = nm.tanh(nm.narrow(xp, 2 * H, H) + tp.mul(r, nm.narrow(hh, 2 * H, H)))
        return (tp.mul(tp.mul(z, -1.0) + 1.0, n) + tp.mul(z, h),)
    a = xp + h @ W_h
    i = tp.sigmoid(nm.narrow(a, 0, H))
    f = tp.sigmoid(nm.narrow(a, H, H))
    g = nm.tanh(nm.narrow(a, 2 * H, H))
    o = tp.sigmoid(nm.narrow(a, 3 * H, H))
    c_new = tp.mul(f, state[1]) + tp.mul(i, g)
    return tp.mul(o, nm.tanh(c_new)), c_new


def composed_sequence(kind, x, W_i, b, W_h, mask, reverse=False):
    """A cell over every position of x [B, T, I] from a zero state: the
    states after each position, packed [B, T, states*H] as the fused
    recurrence returns them."""
    B, T, I = x.shape
    H = W_h.shape[0]
    xp = nm.reshape(nm.reshape(x, (B * T, I)) @ W_i + b, (B, T, -1))
    state = [nm.Tensor(np.zeros((B, H), dtype=W_h.dtype))] * (2 if kind == "lstm" else 1)
    per_pos = [None] * T
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        new = composed_cell(kind, nm.reshape(nm.narrow(xp, t, 1, axis=1), (B, -1)), state, W_h)
        m = mask[:, t:t + 1]
        state = [tp.mul(n, m) + tp.mul(s, 1.0 - m) for n, s in zip(new, state)]
        per_pos[t] = nm.concat(state, axis=-1)
    return tp.stack(per_pos, axis=1)


def composed_encode(model, source, rng=None):
    """The model's encoder pass without the attention projection, on
    composed cells, drawing the same dropout mask from `rng`."""
    B, T = source.shape
    H = model.hidden_size
    mask = (source != PAD).astype(model.dtype)
    x = nm.dropout(nm.embedding(model.src_emb, source), model.dropout, rng)
    states, finals = [], []
    for k, cell in enumerate(model.encoders):
        seq = composed_sequence(cell.kind, x, cell.W_i, cell.b, cell.W_h, mask, reverse=k > 0)
        states.append(nm.narrow(seq, 0, H))
        finals.append(nm.reshape(nm.narrow(seq, 0 if k else T - 1, 1, axis=1), (B, -1)))
    if model.enc_init is None:
        state = [nm.narrow(finals[0], k * H, H) for k in range(2 if model.arch == "lstm" else 1)]
        return EncodeResult(states[0], tuple(state), mask)
    z = nm.tanh(model.enc_init(nm.concat([nm.narrow(f, 0, H) for f in finals], axis=-1)))
    return EncodeResult(nm.concat(states, axis=-1), (z,), mask)


def composed_attention(model, s, enc):
    """The additive-attention read-out [B, 2H] under the decoder state s,
    with the encoder-side projection formed here."""
    B, T, D = enc.states.shape
    H = model.hidden_size
    W_e = model.attn_energy.W
    flat = nm.reshape(enc.states, (B * T, D))
    proj = nm.reshape(flat @ nm.narrow(W_e, H, D, axis=0) + model.attn_energy.b, (B, T, H))
    s_proj = nm.reshape(s @ nm.narrow(W_e, 0, H, axis=0), (B, 1, H))
    energy = nm.reshape(nm.tanh(proj + s_proj), (B * T, H))
    scores = nm.reshape(energy @ model.attn_v, (B, T))
    a = tp.masked_softmax(scores, enc.mask)
    return tp.tsum(tp.mul(nm.reshape(a, (B, T, 1)), enc.states), axis=1)


def composed_step(model, ids, state, enc, emb_keep=None, feat_keep=None):
    """One decoder step: (new state tuple, head features [B, F])."""
    cell = model.dec_cell
    x = nm.embedding(model.tgt_emb, ids)
    if emb_keep is not None:
        x = tp.mul(x, emb_keep)
    if model.arch == "lstm":
        state = composed_cell("lstm", x @ cell.W_i + cell.b, state, cell.W_h)
        feats = state[0]
    elif model.arch == "gru":
        inputs = nm.concat([x, enc.state[0]], axis=-1)
        state = composed_cell("gru", inputs @ cell.W_i + cell.b, state, cell.W_h)
        feats = nm.concat([x, state[0], enc.state[0]], axis=-1)
    else:
        w = composed_attention(model, state[0], enc)
        inputs = nm.concat([x, w], axis=-1)
        state = composed_cell("gru", inputs @ cell.W_i + cell.b, state, cell.W_h)
        feats = nm.concat([x, w, state[0]], axis=-1)
    if feat_keep is not None:
        feats = tp.mul(feats, feat_keep)
    return state, feats


def composed_logits(model, feats):
    return feats @ model.out.W + model.out.b


def reference_forward(model, batch, tf_ratio=1.0, rng=None):
    """Logits [B, Tt-1, V] as a Tensor, at every position, read or not;
    `tape_ops.padded_cross_entropy` scores them."""
    enc = composed_encode(model, batch.source, rng=rng)
    targets = batch.target
    B, Tt = targets.shape
    (emb_keep, feat_keep), gold = model.decoder_noise(rng, B, Tt - 1, tf_ratio)
    state = enc.state
    step_logits = []
    for t in range(Tt - 1):
        ids = targets[:, t] if gold[t] else step_logits[-1].data.argmax(axis=1)
        state, feats = composed_step(model, ids, state, enc,
                                     None if emb_keep is None else emb_keep[:, t],
                                     None if feat_keep is None else feat_keep[:, t])
        step_logits.append(composed_logits(model, feats))
    return tp.stack(step_logits, axis=1)
