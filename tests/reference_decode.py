"""The per-sentence, taped greedy decoder that batched decoding replaced,
kept as the reference the batched decoder must reproduce token for token."""

import numpy as np

from lrmt.text import EOS, SOS


def reference_greedy_decode(model, source_ids, max_len=50):
    """Encode one sentence, then step the decoder on it alone until eos."""
    enc = model.encode(np.asarray(source_ids, dtype=np.int64).reshape(1, -1))
    s, c = enc.z, enc.cell
    out = []
    prev = np.array([SOS])
    for _ in range(max_len):
        s, logits, c = model.decode_step(prev, s, enc, cell_prev=c)
        nxt = int(logits.data.argmax(axis=1)[0])
        if nxt == EOS:
            break
        out.append(nxt)
        prev = np.array([nxt])
    return out
