"""The per-sentence greedy decoder on the composed reference step, kept as
the reference the batched decoder must reproduce token for token.  Like it,
it never emits pad, sos or unk, ids that no training target holds."""

import numpy as np

from lrmt import numerics as nm
from lrmt.text import EOS, PAD, SOS, UNK

from reference_forward import composed_logits, composed_step


def reference_greedy_decode(model, source_ids, max_len=50):
    """Encode one sentence, then step the composed decoder on it alone until eos."""
    with nm.no_grad():
        enc = model.encode(np.asarray(source_ids, dtype=np.int64).reshape(1, -1))
        state = enc.state
        out = []
        prev = np.array([SOS])
        for _ in range(max_len):
            state, feats = composed_step(model, prev, state, enc)
            logits = composed_logits(model, feats).data.copy()
            logits[:, [PAD, SOS, UNK]] = -np.inf
            nxt = int(logits.argmax(axis=1)[0])
            if nxt == EOS:
                break
            out.append(nxt)
            prev = np.array([nxt])
    return out
