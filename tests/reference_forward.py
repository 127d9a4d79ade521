"""The composed, one-step-at-a-time encoder and decoder, kept as the
reference for the fused kernels that training and greedy decoding run.

Every step is built from the test-side generic tape ops in `tape_ops`
(`matmul`, `add`, `tanh`, `narrow`, `concat`, `mul`, `sigmoid`,
`masked_softmax`, `tsum`, `stack`, ...), so it shares no kernel with the
code it checks.  Every row runs at every position: a pad position carries
the state as a lerp by the {0,1} mask.  The teacher-forced pass consumes the
dropout masks and scheduled-sampling coins the model draws, so both paths
read the same draws from the same rng, and an own-token step reads the
argmax over every id but pad, sos and unk, as the fused pass does.
"""

import numpy as np

import tape_ops as tp
from lrmt import numerics as nm
from lrmt.model import EncodeResult
from lrmt.text import PAD, SOS, UNK


def composed_cell(kind, xp, state, W_h):
    """One GRU or LSTM step on xp = x @ W_i + b; returns the new state tuple."""
    H = W_h.shape[0]
    h = state[0]
    if kind == "gru":
        hh = tp.matmul(h, W_h)
        r = tp.sigmoid(tp.add(tp.narrow(xp, 0, H), tp.narrow(hh, 0, H)))
        z = tp.sigmoid(tp.add(tp.narrow(xp, H, H), tp.narrow(hh, H, H)))
        n = tp.tanh(tp.add(tp.narrow(xp, 2 * H, H), tp.mul(r, tp.narrow(hh, 2 * H, H))))
        return (tp.add(tp.mul(tp.add(tp.mul(z, -1.0), 1.0), n), tp.mul(z, h)),)
    a = tp.add(xp, tp.matmul(h, W_h))
    i = tp.sigmoid(tp.narrow(a, 0, H))
    f = tp.sigmoid(tp.narrow(a, H, H))
    g = tp.tanh(tp.narrow(a, 2 * H, H))
    o = tp.sigmoid(tp.narrow(a, 3 * H, H))
    c_new = tp.add(tp.mul(f, state[1]), tp.mul(i, g))
    return tp.mul(o, tp.tanh(c_new)), c_new


def composed_sequence(kind, x, W_i, b, W_h, mask, reverse=False):
    """A cell over every position of x [B, T, I] from a zero state: the
    states after each position, packed [B, T, states*H]."""
    B, T, I = x.shape
    H = W_h.shape[0]
    xp = tp.reshape(tp.add(tp.matmul(tp.reshape(x, (B * T, I)), W_i), b), (B, T, -1))
    state = [nm.Tensor(np.zeros((B, H), dtype=W_h.dtype))] * (2 if kind == "lstm" else 1)
    per_pos = [None] * T
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        new = composed_cell(kind, tp.reshape(tp.narrow(xp, t, 1, axis=1), (B, -1)), state, W_h)
        m = mask[:, t:t + 1]
        state = [tp.add(tp.mul(n, m), tp.mul(s, 1.0 - m)) for n, s in zip(new, state)]
        per_pos[t] = tp.concat(state, axis=-1)
    return tp.stack(per_pos, axis=1)


def composed_encoder(kind, x, directions, mask, init=None):
    """(states [B, T, D], initial decoder state tuple) of the encoder over the
    embedded source x [B, T, E], on composed cells: directions[k] = (W_i, b,
    W_h), the first reading forwards and any further one backwards; with
    init = (W, b) the state is (tanh(F @ W + b),) over every direction's
    last h, else the first direction's last state arrays."""
    B, T, _ = x.shape
    H = directions[0][2].shape[0]
    states, finals = [], []
    for k, (W_i, b, W_h) in enumerate(directions):
        seq = composed_sequence(kind, x, W_i, b, W_h, mask, reverse=k > 0)
        states.append(tp.narrow(seq, 0, H))
        finals.append(tp.reshape(tp.narrow(seq, 0 if k else T - 1, 1, axis=1), (B, -1)))
    states = states[0] if len(states) == 1 else tp.concat(states, axis=-1)
    if init is None:
        return states, tuple(tp.narrow(finals[0], s * H, H)
                             for s in range(finals[0].shape[1] // H))
    F = tp.concat([tp.narrow(f, 0, H) for f in finals], axis=-1)
    return states, (tp.tanh(tp.add(tp.matmul(F, init[0]), init[1])),)


def composed_projection(energy, states, H):
    """The encoder-side attention energy [B, T, H], states @ W_e[H:] + b_e,
    with energy = (W_e, b_e)."""
    W_e, b_e = energy
    B, T, D = states.shape
    flat = tp.reshape(states, (B * T, D))
    return tp.reshape(tp.add(tp.matmul(flat, tp.narrow(W_e, H, D, axis=0)), b_e), (B, T, H))


def composed_encode(model, source, rng=None):
    """The model's encoder pass without the attention projection, on
    composed cells, drawing the same dropout mask from `rng`."""
    mask = (source != PAD).astype(model.dtype)
    x = tp.dropout(tp.embedding(model.src_emb, source), model.dropout, rng)
    init = None if model.enc_init is None else model.enc_init.parameters()
    states, state = composed_encoder(model.encoders[0].kind, x,
                                     [(c.W_i, c.b, c.W_h) for c in model.encoders], mask, init)
    return EncodeResult(states, state, mask)


def composed_attention(model, s, enc):
    """The additive-attention read-out [B, 2H] under the decoder state s,
    with the encoder-side projection formed here."""
    B, T, D = enc.states.shape
    H = model.hidden_size
    proj = composed_projection(model.attn_energy.parameters(), enc.states, H)
    s_proj = tp.reshape(tp.matmul(s, tp.narrow(model.attn_energy.W, 0, H, axis=0)), (B, 1, H))
    energy = tp.reshape(tp.tanh(tp.add(proj, s_proj)), (B * T, H))
    scores = tp.reshape(tp.matmul(energy, model.attn_v), (B, T))
    a = tp.masked_softmax(scores, enc.mask)
    return tp.tsum(tp.mul(tp.reshape(a, (B, T, 1)), enc.states), axis=1)


def composed_step(model, ids, state, enc, emb_keep=None, feat_keep=None):
    """One decoder step: (new state tuple, head features [B, F])."""
    cell = model.dec_cell
    x = tp.embedding(model.tgt_emb, ids)
    if emb_keep is not None:
        x = tp.mul(x, emb_keep)
    if model.arch == "lstm":
        state = composed_cell("lstm", tp.add(tp.matmul(x, cell.W_i), cell.b), state, cell.W_h)
        feats = state[0]
    elif model.arch == "gru":
        inputs = tp.concat([x, enc.state[0]], axis=-1)
        state = composed_cell("gru", tp.add(tp.matmul(inputs, cell.W_i), cell.b), state, cell.W_h)
        feats = tp.concat([x, state[0], enc.state[0]], axis=-1)
    else:
        w = composed_attention(model, state[0], enc)
        inputs = tp.concat([x, w], axis=-1)
        state = composed_cell("gru", tp.add(tp.matmul(inputs, cell.W_i), cell.b), state, cell.W_h)
        feats = tp.concat([x, w, state[0]], axis=-1)
    if feat_keep is not None:
        feats = tp.mul(feats, feat_keep)
    return state, feats


def composed_logits(model, feats):
    return tp.add(tp.matmul(feats, model.out.W), model.out.b)


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
        if gold[t]:
            ids = targets[:, t]
        else:       # the model's own token, never pad, sos or unk
            own = step_logits[-1].data.copy()
            own[:, [PAD, SOS, UNK]] = -np.inf
            ids = own.argmax(axis=1)
        state, feats = composed_step(model, ids, state, enc,
                                     None if emb_keep is None else emb_keep[:, t],
                                     None if feat_keep is None else feat_keep[:, t])
        step_logits.append(composed_logits(model, feats))
    return tp.stack(step_logits, axis=1)
