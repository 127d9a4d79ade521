"""Property-based tests of the invariants: every checkpoint and activation
dump round-trips, every truncated or altered file of either kind is rejected
with a CheckpointError, a v1 checkpoint loads like its v2 twin, every batch
row is sos ... eos followed only by pad (the encoder's pad mask is
`source != PAD`), one epoch's batches hold every pair once in the seeded
order, each row the pair its batch's index names, cleaning and tokenizing
text a second time changes nothing, corpus BLEU does not depend on the
order of the pairs, and a corpus scored against itself gets 1.0."""

import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lrmt import xray
from lrmt.bleu import bleu4
from lrmt.model import ARCHITECTURES, Seq2SeqModel
from lrmt.numerics import Parameter, clip_grad_norm
from lrmt.text import (CONTRACTIONS, EOS, PAD, SOS, UNK, ParallelCorpus, build_vocab,
                       encode_pairs, make_batches, preprocess, tokenize)
from lrmt.training import Checkpoint, CheckpointError, TrainConfig, load_checkpoint

SETTINGS = settings(max_examples=25, deadline=None)
EMBED, HIDDEN = 4, 3


@st.composite
def models(draw):
    arch = draw(st.sampled_from(ARCHITECTURES))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2 ** 16))
    words = ["w%d" % i for i in range(draw(st.integers(1, 6)))]
    vocab = build_vocab([ParallelCorpus([(words, words)])], side="source")
    model = Seq2SeqModel(arch, vocab, vocab, embed_size=EMBED, hidden_size=HIDDEN,
                         dropout=0.0, seed=seed, dtype=dtype)
    model.prune_encoder_units(draw(st.sets(st.integers(0, model.analysis_width - 1))))
    if draw(st.booleans()):
        model.freeze_encoder()
    return model, seed


def _config_of(model, seed):
    return TrainConfig(arch=model.arch, embed_size=EMBED, hidden_size=HIDDEN, seed=seed)


@SETTINGS
@given(models(), st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=5),
                          min_size=1, max_size=4))
def test_checkpoint_round_trips_every_model(drawn, sources):
    model, seed = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lrmt"
        Checkpoint.from_model(model, _config_of(model, seed)).save(path)
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


@st.composite
def activation_datasets(draw):
    width = draw(st.integers(1, 4))
    words = st.lists(st.text(max_size=3), max_size=4)
    tokens = draw(st.lists(words, max_size=4))
    tags = [draw(st.lists(st.text(max_size=3), min_size=len(toks), max_size=len(toks)))
            for toks in tokens]
    matrix = draw(arrays(np.float64, (sum(map(len, tokens)), width)))
    provenance = draw(st.dictionaries(st.text(max_size=3),
                                      st.integers() | st.text(max_size=3), max_size=3))
    return xray.ActivationDataset(tokens=tokens, tags=tags, matrix=matrix,
                                  provenance=provenance)


@SETTINGS
@given(activation_datasets())
def test_activation_dump_round_trips_bit_for_bit(acts):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "activations.bin"
        xray.dump_activations(acts, path)
        back = xray.load_activations(path)
    assert (back.width, back.provenance) == (acts.width, acts.provenance)
    assert (back.tokens, back.tags) == (acts.tokens, acts.tags)
    assert back.matrix.dtype == np.float64 and back.matrix.shape == acts.matrix.shape
    assert back.matrix.tobytes() == acts.matrix.tobytes()


def _file_bytes(kind, drawn, tmp):
    path = Path(tmp) / "file"
    if kind == "checkpoint":
        model, seed = drawn
        Checkpoint.from_model(model, _config_of(model, seed)).save(path)
    else:
        xray.dump_activations(drawn, path)
    return path.read_bytes()


LOADERS = {"checkpoint": load_checkpoint, "activations": xray.load_activations}


@SETTINGS
@given(st.sampled_from(sorted(LOADERS)), st.data())
def test_every_cut_or_flipped_byte_is_a_checkpoint_error(kind, data):
    drawn = data.draw(models() if kind == "checkpoint" else activation_datasets())
    with tempfile.TemporaryDirectory() as tmp:
        raw = _file_bytes(kind, drawn, tmp)
        at = data.draw(st.integers(0, len(raw) - 1))
        flipped = bytearray(raw)
        flipped[at] ^= data.draw(st.integers(1, 255))
        for bad in (raw[:at], bytes(flipped)):
            path = Path(tmp) / "bad"
            path.write_bytes(bad)
            with pytest.raises(CheckpointError):
                LOADERS[kind](path)


def _as_v1(raw):
    """A v2 checkpoint rewritten as the v1 writer wrote it: the same bytes
    plus "rng_state" and the config keys "layers", "betas", "eps" and
    "min_freq" in the header, version 1, its CRC."""
    hlen = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:16 + hlen])
    header["config"].update(layers=1, betas=[0.9, 0.999], eps=1e-8, min_freq=1)
    header["rng_state"] = {"bit_generator": "PCG64",
                           "state": {"state": 2 ** 100, "inc": 7},
                           "has_uint32": 0, "uinteger": 0}
    head = json.dumps(header).encode("utf-8")
    body = (raw[:4] + struct.pack("<IQ", 1, len(head)) + head
            + raw[16 + hlen:-4])
    return body + struct.pack("<I", zlib.crc32(body))


@SETTINGS
@given(models())
def test_v1_checkpoint_loads_like_its_v2_twin(drawn):
    model, seed = drawn
    with tempfile.TemporaryDirectory() as tmp:
        v2 = Path(tmp) / "v2.lrmt"
        Checkpoint.from_model(model, _config_of(model, seed),
                              provenance={"stage": "s"}).save(v2)
        v1 = Path(tmp) / "v1.lrmt"
        v1.write_bytes(_as_v1(v2.read_bytes()))
        old, new = load_checkpoint(v1), load_checkpoint(v2)
    assert old.train_config() == new.train_config()
    assert list(old.tensors) == list(new.tensors)
    for name, tensor in new.tensors.items():
        assert old.tensors[name].dtype == tensor.dtype
        assert old.tensors[name].tobytes() == tensor.tobytes(), name
    assert (old.frozen, old.pruned, old.provenance) == (new.frozen, new.pruned,
                                                        new.provenance)


# known words, unknown words and literal reserved tokens
TOKENS = st.sampled_from(["a", "b", "c", "zz", "qq", "<pad>", "<unk>"])


@SETTINGS
@given(st.lists(st.tuples(st.lists(TOKENS, min_size=1, max_size=7),
                          st.lists(TOKENS, min_size=1, max_size=7)),
                min_size=1, max_size=12),
       st.integers(1, 5), st.integers(0, 2 ** 16))
def test_every_batch_row_is_sos_to_eos_then_only_pad(pairs, batch_size, seed):
    corpus = ParallelCorpus(pairs)
    known = ParallelCorpus([(["a", "b"], ["a", "c"])])
    src_vocab = build_vocab([known], side="source")
    tgt_vocab = build_vocab([known], side="target")
    lengths = []
    for batch in make_batches(encode_pairs(corpus, src_vocab, tgt_vocab), batch_size, seed):
        for row in batch.source.tolist():
            live = len(row) - row[::-1].index(EOS)   # through the last eos
            assert row[0] == SOS
            assert PAD not in row[:live]
            assert set(row[live:]) <= {PAD}
            lengths.append(live)
    assert sorted(lengths) == sorted(len(src) + 2 for src, _ in pairs)


@SETTINGS
@given(st.lists(st.tuples(st.lists(TOKENS, min_size=1, max_size=7),
                          st.lists(TOKENS, min_size=1, max_size=7)),
                min_size=1, max_size=30),
       st.integers(1, 8), st.integers(0, 2 ** 16))
def test_batch_rows_partition_the_pairs_in_seeded_order(pairs, batch_size, seed):
    vocab = build_vocab([ParallelCorpus([(["a", "b"], ["a", "c"])])], side="source")
    encoded = encode_pairs(ParallelCorpus(pairs), vocab, vocab)
    batches = make_batches(encoded, batch_size, seed)
    order = np.concatenate([batch.index for batch in batches])
    assert order.tolist() == np.random.default_rng(seed).permutation(len(pairs)).tolist()
    for batch in batches:
        assert 1 <= len(batch.index) <= batch_size and batch.encoding is None
        for side, ids in enumerate((batch.source, batch.target)):
            assert ids.shape[0] == len(batch.index)
            assert ids.shape[1] == max(len(encoded[i][side]) for i in batch.index)
            for row, i in zip(ids.tolist(), batch.index):
                width = len(encoded[i][side])
                assert row[:width] == encoded[i][side] and set(row[width:]) <= {PAD}


# contractions, case, curly quotes, kept and dropped punctuation, digits,
# odd whitespace, and any other character
RAW_TEXT = st.lists(st.one_of(
    st.sampled_from(sorted(CONTRACTIONS) + ["Don't", "THEY'LL'VE", "I’m", "‘tis"]),
    st.text(st.sampled_from("aZn't’‘.,!?;:-09 \t\u00a0\u2003")),
    st.text()), max_size=8).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(RAW_TEXT)
def test_preprocess_is_idempotent_and_tokens_survive_a_rejoin(raw):
    clean = preprocess(raw)
    assert preprocess(clean) == clean
    tokens = tokenize(clean)
    assert tokenize(" ".join(tokens)) == tokens


# few distinct words, so hypotheses and references share n-grams
SENTENCES = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=7)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(SENTENCES, SENTENCES), min_size=1, max_size=8), st.data())
def test_corpus_bleu_ignores_the_order_of_the_pairs(pairs, data):
    shuffled = data.draw(st.permutations(pairs))
    assert bleu4(*zip(*shuffled)) == bleu4(*zip(*pairs))


@settings(max_examples=200, deadline=None)
@given(st.lists(SENTENCES, min_size=1, max_size=8))
def test_a_corpus_scored_against_itself_is_perfect(corpus):
    score = bleu4(corpus, [list(s) for s in corpus]).score
    # without a 4-gram the pooled 4-gram precision is 0, which scores 0
    assert score == (1.0 if any(len(s) >= 4 for s in corpus) else 0.0)


@st.composite
def gradients(draw):
    """A float32 or float64 gradient of magnitude about 10**k, k in [-20, 5]."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    unit = draw(arrays(dtype, array_shapes(max_dims=2, max_side=40),
                       elements=st.floats(-1.0, 1.0, width=np.dtype(dtype).itemsize * 8)))
    return unit * dtype(10.0 ** draw(st.integers(-20, 5)))


@settings(max_examples=200, deadline=None)
@given(st.lists(gradients(), min_size=1, max_size=4), st.floats(1e-30, 1e3))
def test_clip_norm_and_scale_match_the_float64_copy_formula(grads, max_norm):
    # the squared norm was summed from a float64 copy, then squared in a second
    # temporary: one float64 square gives the same bits
    total = sum(float((g.astype(np.float64) ** 2).sum()) for g in grads)
    norm = np.sqrt(total)
    expected = 1.0 if norm <= max_norm or norm == 0.0 else max_norm / norm
    params = []
    for i, g in enumerate(grads):
        p = Parameter(np.zeros_like(g), name="p%d" % i)
        p.grad = g.copy()
        params.append(p)
    assert clip_grad_norm(params, max_norm) == expected
    for p, g in zip(params, grads):
        want = g if expected == 1.0 else g * g.dtype.type(expected)
        assert p.grad.dtype == g.dtype and p.grad.tobytes() == want.tobytes()
