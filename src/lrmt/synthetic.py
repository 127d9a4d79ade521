"""Seeded synthetic corpora: a copy task and a substitution-translation task.

These give fast, fully reproducible material for the test suite and demos
without shipping real bilingual data.
"""

import numpy as np

from .text import ParallelCorpus


def _word(i):
    return "w%02d" % i


def copy_task(pairs=2000, vocab_size=64, min_len=2, max_len=8, seed=0):
    """Sentences over a small vocabulary; the target is the source verbatim."""
    if vocab_size < 1 or min_len < 1 or max_len < min_len:
        raise ValueError("bad copy-task parameters")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(pairs):
        length = int(rng.integers(min_len, max_len + 1))
        toks = [_word(int(rng.integers(vocab_size))) for _ in range(length)]
        out.append((toks, list(toks)))
    return ParallelCorpus(out)


def substitution_task(pairs=2000, vocab_size=64, min_len=2, max_len=8, seed=0):
    """A toy 'translation': each source word maps 1:1 to a target word via a
    fixed permutation, and the target sequence is reversed. The reversal makes
    long-range alignment matter, which separates attention from plain seq2seq."""
    if vocab_size < 1 or min_len < 1 or max_len < min_len:
        raise ValueError("bad substitution-task parameters")
    table_rng = np.random.default_rng(vocab_size)   # lexicon fixed per vocab size
    perm = table_rng.permutation(vocab_size)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(pairs):
        length = int(rng.integers(min_len, max_len + 1))
        src_ids = [int(rng.integers(vocab_size)) for _ in range(length)]
        src = [_word(i) for i in src_ids]
        tgt = ["v%02d" % perm[i] for i in reversed(src_ids)]
        out.append((src, tgt))
    return ParallelCorpus(out)


def splits(maker, train=2000, valid=200, test=200, seed=0, **kw):
    """Disjointly seeded train/valid/test corpora from one generator."""
    return {
        "train": maker(pairs=train, seed=seed, **kw),
        "valid": maker(pairs=valid, seed=seed + 1, **kw),
        "test": maker(pairs=test, seed=seed + 2, **kw),
    }
