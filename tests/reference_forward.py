"""The composed, one-step-at-a-time teacher-forced decoder that the fused
`numerics.decoder_sequence` pass replaced, kept as its reference.

Each step is built from the tape's small ops (embedding, attention, concat,
the cell step, the head GEMM), with the dropout masks and scheduled-sampling
coins the model's `decoder_noise` draws, so both paths consume the same
draws from the same rng.
"""

import numpy as np

from lrmt import numerics as nm


def _step(model, ids, s, c, enc, emb_keep, feat_keep):
    emb = nm.embedding(model.tgt_emb, ids)
    if emb_keep is not None:
        emb = emb * emb_keep
    B = ids.shape[0]
    if model.arch == "lstm":
        s, c = model.dec_cell.step(emb, s, c)
        feats = s
    elif model.arch == "gru":
        s = model.dec_cell.step(nm.concat([emb, enc.z], axis=-1), s)
        feats = nm.concat([emb, s, enc.z], axis=-1)
    else:
        a = model.attention_weights(s, enc.states, enc.mask, enc.attn_proj)
        w = nm.tsum(nm.reshape(a, (B, a.shape[1], 1)) * enc.states, axis=1)
        s = model.dec_cell.step(nm.concat([emb, w], axis=-1), s)
        feats = nm.concat([emb, w, s], axis=-1)
    if feat_keep is not None:
        feats = feats * feat_keep
    return s, c, feats


def reference_forward(model, batch, tf_ratio=1.0, rng=None):
    """(head features [B, Tt-1, F], logits [B, Tt-1, V]) as Tensors."""
    enc = model.encode(batch.source, rng=rng)
    targets = batch.target
    B, Tt = targets.shape
    (emb_keep, feat_keep), gold = model.decoder_noise(rng, B, Tt - 1, tf_ratio)
    s, c = enc.z, enc.cell
    step_feats, step_logits = [], []
    for t in range(Tt - 1):
        ids = targets[:, t] if gold[t] else step_logits[-1].data.argmax(axis=1)
        s, c, feats = _step(model, ids, s, c, enc,
                            None if emb_keep is None else emb_keep[:, t],
                            None if feat_keep is None else feat_keep[:, t])
        step_feats.append(feats)
        step_logits.append(model.out(feats))
    return nm.stack(step_feats, axis=1), nm.stack(step_logits, axis=1)
