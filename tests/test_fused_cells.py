"""The fused encoder op, `numerics.encoder_sequence`, against the composed
encoder it replaced.

The reference is `reference_forward`'s `composed_encoder`: the embedding
lookup and dropout as tape ops, the input projection as a tape `matmul` and
`add`, the cell maths built from `narrow`, `sigmoid`, `tanh`, `add` and `mul`
with the pad carry as a lerp by the {0,1} mask, one position at a time and
every row at every one, then `concat`, `matmul`, `add` and `tanh` for the
decoder's initial state.  The op reads the encoder's weights only; the
attention energy is the decoder op's, and `test_fused_decoder`'s full passes
and the frozen and partly frozen tests below check its gradients against the
composed reference.  The fused op steps only the live rows, longest first,
and does backprop through time on plain arrays.  Fused and composed forms do
the same arithmetic per element, so outputs agree to float64 rounding
(1e-12); gradients sum in a different order (one W_h GEMM over all live
positions), hence 1e-10.  A second direction reads the source backwards and
comes with an initial-state projection, as abgru's does.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lrmt import numerics as nm
from lrmt.model import Seq2SeqModel
from lrmt.numerics import Parameter, cross_entropy_masked
from lrmt.text import PAD, SOS, Batch, ParallelCorpus, build_vocab
from lrmt.training import Checkpoint

import tape_ops as tp
from gradcheck import directional_gradient_error, relative_gradient_error
from reference_forward import (composed_encode, composed_encoder, composed_projection,
                               reference_forward)

B, T, H, E, V = 3, 5, 4, 2, 7
LENGTHS = np.array([5, 3, 1])
GATES = {"gru": 3, "lstm": 4}


def _inputs(kind, reverse, seed):
    """(emb, directions, init) of one encoder op: one direction, or
    with `reverse` a second, backwards one and an init projection; `seed`
    is a seed or a Generator to draw from."""
    rng = np.random.default_rng(seed)
    G, D = GATES[kind] * H, (1 + reverse) * H

    def param(name, *shape):
        return Parameter(rng.normal(scale=0.5, size=shape), name=name)

    directions = [[param("W_i%d" % k, E, G), param("b%d" % k, G), param("W_h%d" % k, H, G)]
                  for k in range(1 + reverse)]
    init = [param("init.W", D, H), param("init.b", H)] if reverse else None
    return param("emb", V, E), directions, init


def _flat(emb, directions, init):
    return [emb, *(w for ws in directions for w in ws), *(init or ())]


def _ids(lengths, steps, rng):
    lengths = np.asarray(lengths)
    ids = rng.integers(1, V, size=(len(lengths), steps))
    ids[np.arange(steps)[None, :] >= lengths[:, None]] = PAD
    return ids


def _fused(kind, ids, keep, inputs, mask=None):
    emb, directions, init = inputs
    mask = (ids != PAD).astype(np.float64) if mask is None else mask
    states, state = nm.encoder_sequence(kind, ids, mask, emb, directions, keep, init)
    return [states, *state]


def _reference(kind, ids, keep, inputs):
    emb, directions, init = inputs
    x = tp.embedding(emb, ids)
    if keep is not None:
        x = tp.mul(x, keep)
    states, state = composed_encoder(kind, x, directions, (ids != PAD).astype(np.float64), init)
    return [states, *state]


def _weighted(outputs, weights, squash=False):
    total = None
    for out, w in zip(outputs, weights, strict=True):
        term = tp.tsum(tp.mul(tp.tanh(out) if squash else out, w))
        total = term if total is None else tp.add(total, term)
    return total


def _grads(loss, params):
    for p in params:
        p.zero_grad()
    loss.backward()
    return [p.grad.copy() for p in params]


def _compare(kind, reverse, seed, lengths, steps):
    """The fused outputs [states, *state], after checking them and
    every parameter gradient against the composed reference."""
    rng = np.random.default_rng(seed)
    inputs = _inputs(kind, reverse, seed)
    ids = _ids(lengths, steps, rng)
    keep = nm.dropout_mask(ids.shape + (E,), 0.5, rng, np.float64)
    fused = _fused(kind, ids, keep, inputs)
    ref = _reference(kind, ids, keep, inputs)
    assert len(fused) == len(ref) == (2 if reverse or kind == "gru" else 3)
    for got, want in zip(fused, ref):
        assert got.shape == want.shape
        assert np.max(np.abs(got.data - want.data)) < 1e-12
    weights = [rng.normal(size=out.shape) for out in fused]
    params = _flat(*inputs)
    got = _grads(_weighted(fused, weights), params)
    want = _grads(_weighted(ref, weights), params)
    for p, g, w in zip(params, got, want):
        assert np.max(np.abs(g - w)) < 1e-10, p.name
    return fused


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_sequence_matches_composed_reference(float64_mode, kind, reverse):
    states = _compare(kind, reverse, 1 + reverse, LENGTHS, T)[0]
    assert states.shape == (B, T, (1 + reverse) * H)
    # the carry: pad positions repeat the state before them in visiting
    # order, the last real one going forward and the zero start in reverse
    for row, length in enumerate(LENGTHS):
        assert np.all(states.data[row, length:, :H] == states.data[row, length - 1, :H])
        assert np.all(states.data[row, length:, H:] == 0.0)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_sequence_gradients_finite_difference(float64_mode, kind, reverse):
    rng, draws = np.random.default_rng(5 + reverse), np.random.default_rng(5 + reverse)
    inputs = _inputs(kind, reverse, draws)
    # the loss reads the states through the attention energy's encoder-side
    # projection too, as a training batch's does, so that no checked entry's
    # gradient is small enough for the difference's rounding to set its error
    energy = [Parameter(draws.normal(scale=0.5, size=shape), name=name) for name, shape
              in (("energy.W", ((2 + reverse) * H, H)), ("energy.b", (H,)))]
    ids = _ids(LENGTHS, T, rng)
    keep = nm.dropout_mask(ids.shape + (E,), 0.5, rng, np.float64)

    def outputs():
        out = _fused(kind, ids, keep, inputs)
        return out + [composed_projection(energy, out[0], H)]

    weights = [rng.normal(size=out.shape) for out in outputs()]

    def forward():
        return _weighted(outputs(), weights, squash=True)

    assert relative_gradient_error(_flat(*inputs) + energy, forward) < 1e-6
    assert directional_gradient_error(_flat(*inputs) + energy, forward) < 1e-6


def test_sequence_rejects_mismatched_mask():
    ids = _ids(LENGTHS, T, np.random.default_rng(7))
    with pytest.raises(ValueError):
        _fused("gru", ids, None, _inputs("gru", False, 7), mask=np.ones((B, T + 1)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["gru", "lstm"]), st.booleans(),
       st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(0, 2 ** 31))
@example("gru", False, [4], 0)                  # one row
@example("lstm", True, [3, 3, 3], 1)            # every row of one length
@example("gru", True, [2, 6, 2, 2], 2)          # one row longer than the rest
@example("lstm", False, [0, 5, 1], 3)           # a row with no real position
def test_sequence_on_any_right_padding_matches_composed_reference(float64_mode, kind,
                                                                  reverse, lengths, seed):
    extra = int(np.random.default_rng(seed).integers(0, 2))
    _compare(kind, reverse, seed, lengths, max(1, max(lengths) + extra))


def test_sequence_rejects_a_mask_that_is_not_right_padded():
    ids = _ids(LENGTHS, T, np.random.default_rng(8))
    mask = (ids != PAD).astype(np.float64)
    mask[0, 2] = 0.0                                # row 0: real, pad, then real again
    with pytest.raises(ValueError, match="mask is not right-padded"):
        _fused("gru", ids, None, _inputs("gru", False, 8), mask=mask)


def test_live_rows_order_only_a_batch_that_needs_it():
    mask = (np.arange(T)[None, :] < LENGTHS[:, None]).astype(np.float64)
    # no padding, or rows already longest first: stepped in the caller's order
    assert nm._live_rows(np.ones((3, 4)), (3, 4))[:2] == ([3, 3, 3, 3], None)
    assert nm._live_rows(mask, (B, T))[:2] == ([3, 2, 2, 1, 1], None)
    steps, order, offsets = nm._live_rows(mask[::-1], (B, T))
    assert steps == [3, 2, 2, 1, 1] and offsets == [0, 3, 5, 7, 8, 9]
    assert order.tolist() == [2, 1, 0]


# -- the op as `Seq2SeqModel.encode` runs it ----------------------------------------

def _model(arch, dropout=0.5):
    words = ["a", "b", "c", "d", "e"]
    vocab = build_vocab([ParallelCorpus([(words, words)])], side="source")
    model = Seq2SeqModel(arch, vocab, vocab, embed_size=5, hidden_size=4, dropout=dropout,
                         seed=3)
    rng = np.random.default_rng(4)          # weights far larger than the init's
    for p in model.parameters():
        p.data[...] = rng.normal(scale=0.7, size=p.shape)
    return model


def _source(lengths, seed):
    rng = np.random.default_rng(seed)
    rows = [[SOS, *rng.integers(4, 9, size=n).tolist(), 2] for n in lengths]
    mat = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for i, row in enumerate(rows):
        mat[i, :len(row)] = row
    return mat


def _check_encode(model, source):
    enc = model.encode(source, rng=np.random.default_rng(0))
    ref = composed_encode(model, source, rng=np.random.default_rng(0))
    got, want = [enc.states, *enc.state], [ref.states, *ref.state]
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and np.max(np.abs(g.data - w.data)) < 1e-12
    rng = np.random.default_rng(1)
    weights = [rng.normal(size=out.shape) for out in got]
    params = model.encoder_parameters()
    for g, w, p in zip(_grads(_weighted(got, weights), params),
                       _grads(_weighted(want, weights), params), params, strict=True):
        assert np.max(np.abs(g - w)) < 1e-10, p.name


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_encode_matches_composed_reference(float64_mode, arch):
    _check_encode(_model(arch), _source([5, 2, 3], seed=0))


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.integers(0, 2 ** 31))
@example([3], 0)                                # one row
@example([2, 2, 2], 1)                          # every row of one length
@example([0, 4, 1], 2)                          # a row of no word: sos, eos only
def test_encode_on_any_right_padding_matches_composed_reference(float64_mode, arch, lengths,
                                                                seed):
    _check_encode(_model(arch), _source(lengths, seed))


def test_encode_of_a_fully_padded_row_matches_composed_reference(float64_mode):
    source = _source([3, 1], seed=5)
    source[1] = PAD                                  # a row of no position at all
    for arch in ("lstm", "gru", "abgru"):
        _check_encode(_model(arch), source)


# -- frozen encoders ------------------------------------------------------------------

def _batch():
    src, tgt = _source([5, 2, 3], seed=6), _source([4, 3, 1], seed=7)
    return Batch(source=src, target=tgt)


def _train_grads(model, batch, composed=False):
    """Every parameter's gradient (None where backward reaches none) after
    one training batch at dropout 0.5 and tf 0.5, fused or composed."""
    rng = np.random.default_rng(0)
    if composed:
        loss = tp.padded_cross_entropy(reference_forward(model, batch, 0.5, rng=rng),
                                       batch.target[:, 1:])
    else:
        loss = cross_entropy_masked(model.forward_teacher_forced(batch, 0.5, rng=rng),
                                    batch.target[:, 1:])
    for p in model.parameters():
        p.zero_grad()
    loss.backward()
    return {name: None if p.grad is None else p.grad.copy()
            for name, p in model.named_parameters().items()}


def _no_backprop_through_time(*_):
    raise AssertionError("backprop through time ran under a frozen encoder")


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_frozen_encoder_runs_no_backprop_through_time(float64_mode, monkeypatch, arch):
    model = _model(arch).freeze_encoder()
    batch = _batch()
    want = _train_grads(model, batch, composed=True)
    monkeypatch.setattr(nm, "_recurrence_backward", _no_backprop_through_time)
    got = _train_grads(model, batch)
    frozen = {p.name for p in model.encoder_parameters()}
    assert frozen and all(got[name] is None for name in frozen)
    for name, g in got.items():
        if name not in frozen:
            # the attention energy's W and b included, under a frozen encoder
            assert np.max(np.abs(g - want[name])) < 1e-10, name


PARTLY_FROZEN = [("abgru", ("src_emb", "enc_bwd.W_i", "enc_bwd.b", "enc_bwd.W_h")),
                 ("abgru", ("enc_fwd.W_h", "enc_init.W", "enc_init.b")),
                 ("gru", ("src_emb", "enc.b")),
                 ("lstm", ("enc.W_i", "enc.W_h"))]


@pytest.mark.parametrize("arch, frozen", PARTLY_FROZEN)
def test_partly_frozen_encoder_gets_gradients_for_exactly_its_trainable_tensors(
        float64_mode, arch, frozen):
    ckpt = Checkpoint.from_model(_model(arch), {})
    ckpt.frozen.update(dict.fromkeys(frozen, True))
    model = ckpt.to_model()
    batch = _batch()
    got, want = _train_grads(model, batch), _train_grads(model, batch, composed=True)
    assert got.keys() == want.keys()
    for name, g in got.items():
        assert (g is None) == (name in frozen) == (want[name] is None), name
        if g is not None:
            assert np.max(np.abs(g - want[name])) < 1e-10, name
