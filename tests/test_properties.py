"""Property-based tests of two invariants: every checkpoint round-trips, and
every batch row is sos ... eos followed only by pad (the encoder's pad mask
is `source != PAD`)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmt.model import ARCHITECTURES, Seq2SeqModel
from lrmt.text import EOS, PAD, SOS, UNK, ParallelCorpus, build_vocab, make_batches
from lrmt.training import Checkpoint, TrainConfig, load_checkpoint

SETTINGS = settings(max_examples=25, deadline=None)
EMBED, HIDDEN = 4, 3


@st.composite
def models(draw):
    arch = draw(st.sampled_from(ARCHITECTURES))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2 ** 16))
    words = ["w%d" % i for i in range(draw(st.integers(1, 6)))]
    vocab = build_vocab([ParallelCorpus("a-b", [(words, words)])], side="source")
    model = Seq2SeqModel(arch, vocab, vocab, embed_size=EMBED, hidden_size=HIDDEN,
                         dropout=0.0, seed=seed, dtype=dtype)
    model.prune_encoder_units(draw(st.sets(st.integers(0, model.analysis_width - 1))))
    if draw(st.booleans()):
        model.freeze_encoder()
    return model, seed


@SETTINGS
@given(models(), st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=5),
                          min_size=1, max_size=4))
def test_checkpoint_round_trips_every_model(drawn, sources):
    model, seed = drawn
    config = TrainConfig(arch=model.arch, embed_size=EMBED, hidden_size=HIDDEN,
                         seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lrmt"
        Checkpoint.from_model(model, config).save(path)
        back = load_checkpoint(path).to_model()
    params, restored = model.named_parameters(), back.named_parameters()
    assert list(restored) == list(params)
    for name, p in params.items():
        assert restored[name].data.dtype == p.data.dtype
        assert restored[name].data.tobytes() == p.data.tobytes(), name
        assert restored[name].frozen == p.frozen, name
    assert back.pruned_neurons().tolist() == model.pruned_neurons().tolist()
    words = len(model.src_vocab) - UNK                # unk and the words
    rows = [[SOS] + [UNK + i % words for i in s] + [EOS] for s in sources]
    assert (back.greedy_decode_batch(rows, max_len=6)
            == model.greedy_decode_batch(rows, max_len=6))


# known words, unknown words and literal reserved tokens
TOKENS = st.sampled_from(["a", "b", "c", "zz", "qq", "<pad>", "<unk>"])


@SETTINGS
@given(st.lists(st.tuples(st.lists(TOKENS, min_size=1, max_size=7),
                          st.lists(TOKENS, min_size=1, max_size=7)),
                min_size=1, max_size=12),
       st.integers(1, 5), st.integers(0, 2 ** 16))
def test_every_batch_row_is_sos_to_eos_then_only_pad(pairs, batch_size, seed):
    corpus = ParallelCorpus("a-b", pairs)
    known = ParallelCorpus("a-b", [(["a", "b"], ["a", "c"])])
    src_vocab = build_vocab([known], side="source")
    tgt_vocab = build_vocab([known], side="target")
    lengths = []
    for batch in make_batches(corpus, src_vocab, tgt_vocab, batch_size, seed):
        for row in batch.source.tolist():
            live = len(row) - row[::-1].index(EOS)   # through the last eos
            assert row[0] == SOS
            assert PAD not in row[:live]
            assert set(row[live:]) <= {PAD}
            lengths.append(live)
    assert sorted(lengths) == sorted(len(src) + 2 for src, _ in pairs)
