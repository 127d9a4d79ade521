"""The fused decoder, teacher-forced pass and greedy step, against the
composed per-step loop.

`reference_forward` builds every step from the tape's small ops, runs every
row at every position, and consumes the same dropout masks and
scheduled-sampling coins, drawn by the model from an rng of the same seed.
The fused passes step only the rows still live, longest first.  Both do the
same arithmetic per element, but the fused pass splits the input GEMM into
its embedding and context rows and sums gradients over all steps at once, so
the bounds are float64 rounding: 1e-12 on features and logits, 1e-10 on
gradients.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lrmt.model import Seq2SeqModel
from lrmt.numerics import cross_entropy_masked
from lrmt.text import PAD, SOS, Batch, ParallelCorpus, build_vocab

from gradcheck import relative_gradient_error
from reference_forward import (composed_encode, composed_logits, composed_step, initial_state,
                               reference_forward)

# with this seed, tf_ratio 0.5 feeds the model's own argmax at some steps
SEED = 0


def _model(arch, dropout):
    words = ["a", "b", "c", "d", "e"]
    vocab = build_vocab([ParallelCorpus([(words, words)])], side="source")
    model = Seq2SeqModel(arch, vocab, vocab, embed_size=5, hidden_size=4,
                         dropout=dropout, seed=3)
    # weights far larger than the +-0.08 init, so attention is sharp and
    # every path carries a gradient an absolute bound can see
    rng = np.random.default_rng(4)
    for p in model.parameters():
        p.data[...] = rng.normal(scale=0.7, size=p.shape)
    return model


def _pad(rows):
    mat = np.zeros((len(rows), max(len(r) for r in rows)), dtype=np.int64)
    for i, r in enumerate(rows):
        mat[i, :len(r)] = r
    return mat


def _batch():
    # right-padded rows of different lengths, sos .. eos; ids 4..8 are words
    return Batch(source=_pad(([1, 4, 5, 6, 7, 8, 2], [1, 6, 4, 2], [1, 8, 2])),
                 target=_pad(([1, 5, 5, 7, 2], [1, 8, 6, 4, 4, 2], [1, 7, 2])))


def _loss(logits, batch):
    return cross_entropy_masked(logits, batch.target[:, 1:])


def _grads(model, loss):
    for p in model.parameters():
        p.zero_grad()
    loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters().items()}


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("tf_ratio", [1.0, 0.5])
@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_fused_pass_matches_composed_reference(float64_mode, arch, tf_ratio, dropout):
    model = _model(arch, dropout)
    batch = _batch()
    B, Tt = batch.target.shape
    fused = model.forward_teacher_forced(batch, tf_ratio, rng=np.random.default_rng(SEED))
    ref_feats, ref = reference_forward(model, batch, tf_ratio, rng=np.random.default_rng(SEED))

    rng = np.random.default_rng(SEED)
    enc = model.encode(batch.source, rng=rng)
    keep, gold = model.decoder_noise(rng, B, Tt - 1, tf_ratio)
    assert gold.all() == (tf_ratio == 1.0)
    assert (keep[0] is None) == (dropout == 0.0)
    every = np.ones((B, Tt - 1), dtype=bool)
    feats = model.decoder_features(enc, batch.target[:, :-1], keep, gold, every)

    assert feats.shape == ref_feats.shape
    assert np.max(np.abs(feats.data - ref_feats.data)) < 1e-12
    # the pass steps only the rows whose target is read: the features of
    # the others are exactly 0, so their logits are the head bias
    read = batch.target[:, 1:] != PAD
    stepped = model.decoder_features(enc, batch.target[:, :-1], keep, gold, read)
    assert np.all(stepped.data[~read] == 0.0)
    assert np.max(np.abs(stepped.data[read] - ref_feats.data[read])) < 1e-12
    assert fused.shape == ref.shape == (B, Tt - 1, len(model.tgt_vocab))
    assert np.max(np.abs(fused.data[read] - ref.data[read])) < 1e-12
    got = _grads(model, _loss(fused, batch))
    want = _grads(model, _loss(ref, batch))
    assert got.keys() == want.keys()
    for name in got:
        assert np.max(np.abs(got[name] - want[name])) < 1e-10, name


WORDS = st.lists(st.integers(4, 8), max_size=6)     # ids 4..8 are _model's words


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=4))
@example([([4, 5], [6, 7, 8])])                                  # one row
@example([([4, 5, 6], [7, 8]), ([8, 7, 6], [5, 4]), ([5, 5, 5], [6, 6])])    # one length
@example([([4], [5]), ([4, 5, 6, 7, 8, 4], [5, 6, 7, 8, 4, 5]), ([6], [7])])  # one longer
def test_live_rows_match_composed_reference_on_any_padding(float64_mode, arch, pairs):
    model = _model(arch, dropout=0.5)
    batch = Batch(source=_pad([[SOS, *src, 2] for src, _ in pairs]),
                  target=_pad([[SOS, *tgt, 2] for _, tgt in pairs]))
    B, Tt = batch.target.shape
    read = batch.target[:, 1:] != PAD

    rng = np.random.default_rng(SEED)
    enc = model.encode(batch.source, rng=rng)
    ref_enc = composed_encode(model, batch.source, rng=np.random.default_rng(SEED))
    for got, want in ((enc.states, ref_enc.states), (enc.z, ref_enc.z)):
        assert np.max(np.abs(got.data - want.data)) < 1e-12
    keep, gold = model.decoder_noise(rng, B, Tt - 1, 0.5)
    feats = model.decoder_features(enc, batch.target[:, :-1], keep, gold, read)
    ref_feats, ref = reference_forward(model, batch, 0.5, rng=np.random.default_rng(SEED))
    assert np.all(feats.data[~read] == 0.0)
    assert np.max(np.abs(feats.data[read] - ref_feats.data[read])) < 1e-12

    fused = model.forward_teacher_forced(batch, 0.5, rng=np.random.default_rng(SEED))
    assert np.max(np.abs(fused.data[read] - ref.data[read])) < 1e-12
    got = _grads(model, _loss(fused, batch))
    want = _grads(model, _loss(ref, batch))
    for name in got:
        assert np.max(np.abs(got[name] - want[name])) < 1e-10, name


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_all_pad_columns_change_no_loss_or_gradient(float64_mode, arch):
    # evaluation mode: no dropout mask whose shape grows with the batch
    model = _model(arch, dropout=0.5)
    batch = _batch()
    wide = Batch(source=np.pad(batch.source, ((0, 0), (0, 3))),
                 target=np.pad(batch.target, ((0, 0), (0, 2))))
    losses, grads = [], []
    for b in (batch, wide):
        loss = _loss(model.forward_teacher_forced(b), b)
        losses.append(loss.item())
        grads.append(_grads(model, loss))
    assert abs(losses[0] - losses[1]) < 1e-12
    for name in grads[0]:
        assert np.max(np.abs(grads[0][name] - grads[1][name])) < 1e-12, name


@pytest.mark.parametrize("side", ["source", "target"])
def test_pad_before_a_real_token_is_rejected(float64_mode, side):
    model = _model("abgru", dropout=0.0)
    batch = _batch()
    getattr(batch, side)[0, 2] = PAD                   # row 0 goes on after a pad
    with pytest.raises(ValueError, match="mask is not right-padded"):
        model.forward_teacher_forced(batch)


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_fused_pass_gradients_finite_difference(float64_mode, arch):
    # dropout and own-token steps included; a fresh rng of one seed draws
    # the same masks and coins on every call.  _model's head bias is not 0:
    # a row whose features all drop out has logits equal to it, and a tie
    # there would make the argmax jump under a finite difference.
    model = _model(arch, dropout=0.5)
    batch = _batch()

    def forward():
        logits = model.forward_teacher_forced(batch, 0.5, rng=np.random.default_rng(SEED))
        return _loss(logits, batch)

    err = relative_gradient_error(model.parameters(), forward, max_checks=8,
                                  rng=np.random.default_rng(1))
    assert err < 1e-4


def test_attention_over_fully_padded_source_is_rejected(float64_mode):
    model = _model("abgru", dropout=0.0)
    batch = _batch()
    batch.source[1] = 0
    with pytest.raises(ValueError, match="fully padded"):
        model.forward_teacher_forced(batch)


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_greedy_steps_match_composed_reference(float64_mode, arch):
    model = _model(arch, dropout=0.0)
    source = _batch().source                    # rows of lengths 7, 4 and 3
    enc = model.encode(source)
    s, c = enc.z, enc.cell
    state = initial_state(model, enc)
    ids = np.full(source.shape[0], SOS)
    for _ in range(6):
        s, logits, c = model.decode_step(ids, s, enc, cell_prev=c)
        state, feats = composed_step(model, ids, state, enc)
        assert np.max(np.abs(logits.data - composed_logits(model, feats).data)) < 1e-12
        assert np.max(np.abs(s.data - state[0].data)) < 1e-12
        if arch == "lstm":
            assert np.max(np.abs(c.data - state[1].data)) < 1e-12
        else:
            assert c is None
        assert not (s.requires_grad or logits.requires_grad)
        ids = logits.data.argmax(axis=1)


def test_references_share_no_decoder_kernel():
    # a reference that called the code it checks would agree with any bug in it
    here = Path(__file__).parent
    for name in ("reference_forward.py", "reference_decode.py"):
        source = (here / name).read_text(encoding="utf-8")
        for kernel in ("decoder_sequence", "decoder_features", "decode_step",
                       "_gru_forward", "_lstm_forward", "_attend_forward"):
            assert kernel not in source, (name, kernel)
    # the teacher-forced reference runs its own encoder too
    source = (here / "reference_forward.py").read_text(encoding="utf-8")
    for kernel in ("cell_sequence", "encode_states", ".sequence("):
        assert kernel not in source, kernel
