"""Architecture tests: cell math, attention, masking, pruning, gradients."""

import math

import numpy as np
import pytest

from lrmt import numerics as nm
from lrmt.model import RecurrentCell, Seq2SeqModel
from lrmt.numerics import Tensor, cross_entropy_masked
from lrmt.text import EOS, SOS, Batch, ParallelCorpus, build_vocab, encode

from gradcheck import relative_gradient_error


def _tiny_vocab(words):
    c = ParallelCorpus("a-b", [(list(words), list(words))], "train")
    return build_vocab([c], side="source")


def _tiny_model(arch, seed=0, hidden=3, embed=4):
    v = _tiny_vocab(["a", "b", "c", "d"])
    return Seq2SeqModel(arch, v, v, embed_size=embed, hidden_size=hidden,
                        dropout=0.0, seed=seed)


def _tiny_batch(model, rows=((4, 5, 6), (5, 4))):
    src = [encode([model.src_vocab.token_of(i) for i in r], model.src_vocab)
           for r in rows]
    width = max(len(r) for r in src)
    mat = np.zeros((len(src), width), dtype=np.int64)
    for i, r in enumerate(src):
        mat[i, :len(r)] = r
    lengths = np.array([len(r) for r in src])
    return Batch(source=mat, source_lengths=lengths, target=mat.copy(),
                 lang_token=None)


# -- closed-form cell checks ---------------------------------------------------

def test_gru_width_one_closed_form(float64_mode):
    rng = np.random.default_rng(2)
    cell = RecurrentCell("gru", 1, 1, rng, "c")
    x, h = 0.7, -0.4
    wi, wh, b = cell.W_i.data[0], cell.W_h.data[0], cell.b.data
    r = 1 / (1 + math.exp(-(x * wi[0] + b[0] + h * wh[0])))
    z = 1 / (1 + math.exp(-(x * wi[1] + b[1] + h * wh[1])))
    n = math.tanh(x * wi[2] + b[2] + r * (h * wh[2]))
    want = (1 - z) * n + z * h
    got = cell.step(Tensor(np.array([[x]])), Tensor(np.array([[h]])))
    assert abs(float(got.data[0, 0]) - want) < 1e-12


def test_lstm_width_one_closed_form(float64_mode):
    rng = np.random.default_rng(3)
    cell = RecurrentCell("lstm", 1, 1, rng, "c")
    x, h, c = 0.3, 0.5, -0.2
    wi, wh, b = cell.W_i.data[0], cell.W_h.data[0], cell.b.data
    sig = lambda v: 1 / (1 + math.exp(-v))
    i = sig(x * wi[0] + b[0] + h * wh[0])
    f = sig(x * wi[1] + b[1] + h * wh[1])
    g = math.tanh(x * wi[2] + b[2] + h * wh[2])
    o = sig(x * wi[3] + b[3] + h * wh[3])
    c_new = f * c + i * g
    h_new = o * math.tanh(c_new)
    hh, cc = cell.step(Tensor(np.array([[x]])), Tensor(np.array([[h]])),
                       Tensor(np.array([[c]])))
    assert abs(float(hh.data[0, 0]) - h_new) < 1e-12
    assert abs(float(cc.data[0, 0]) - c_new) < 1e-12


# -- gradient checks through full forward passes --------------------------------

@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_full_forward_gradients(float64_mode, arch):
    model = _tiny_model(arch, seed=4)
    batch = _tiny_batch(model)
    params = model.parameters()

    def forward():
        logits = model.forward_teacher_forced(batch, tf_ratio=1.0, rng=None,
                                              training=False)
        return cross_entropy_masked(logits, batch.target[:, 1:])

    rng = np.random.default_rng(0)
    err = relative_gradient_error(params, forward, max_checks=6, rng=rng)
    assert err < 1e-4


# -- attention ------------------------------------------------------------------

def test_attention_rows_sum_to_one_with_zero_on_pads(float64_mode):
    model = _tiny_model("abgru", seed=5)
    batch = _tiny_batch(model)
    enc = model.encode(batch.source, batch.source_lengths)
    a = model.attention_weights(enc.z, enc.states, enc.mask)
    sums = a.data.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    pad_positions = enc.mask == 0
    assert np.all(a.data[pad_positions] == 0.0)


def test_attention_rejects_fully_padded_row(float64_mode):
    model = _tiny_model("abgru")
    enc_states = Tensor(np.zeros((1, 2, 6)))
    with pytest.raises(ValueError):
        model.attention_weights(Tensor(np.zeros((1, 3))), enc_states,
                                np.zeros((1, 2)))


# -- context reinjection / state handling ---------------------------------------

def test_gru_decoder_reinjects_identical_context_each_step(float64_mode):
    model = _tiny_model("gru", seed=6)
    batch = _tiny_batch(model, rows=((4, 5, 6, 7),))
    enc = model.encode(batch.source, batch.source_lengths)
    z_before = enc.z.data.copy()
    s = enc.z
    for step_tok in (SOS, 4, 5):
        s, logits, _ = model.decode_step(np.array([step_tok]), s, enc)
        assert np.array_equal(enc.z.data, z_before)  # z is re-used, untouched
    # logits must actually depend on z: recompute with perturbed z
    _, base, _ = model.decode_step(np.array([SOS]), Tensor(z_before.copy()), enc)
    enc.z.data += 0.5
    _, moved, _ = model.decode_step(np.array([SOS]), Tensor(z_before.copy()), enc)
    assert not np.allclose(base.data, moved.data)


def test_decode_step_rejects_wrong_state_width(float64_mode):
    model = _tiny_model("gru")
    batch = _tiny_batch(model)
    enc = model.encode(batch.source, batch.source_lengths)
    with pytest.raises(ValueError):
        model.decode_step(np.array([SOS, SOS]),
                          Tensor(np.zeros((2, model.hidden_size + 1))), enc)


# -- bidirectional state layout ---------------------------------------------------

def test_bidirectional_states_concatenate_directions(float64_mode):
    model = _tiny_model("abgru", seed=7, hidden=2)
    ids = encode(["a", "b", "c"], model.src_vocab)
    src = np.asarray(ids, dtype=np.int64).reshape(1, -1)
    enc = model.encode(src)
    T = src.shape[1]
    emb = model.src_emb.data[src[0]]
    H = model.hidden_size

    def run(cell, order):
        h = np.zeros((1, H))
        out = [None] * T
        for t in order:
            h = cell.step(Tensor(emb[t:t + 1]), Tensor(h)).data
            out[t] = h
        return out

    fwd = run(model.enc_fwd, range(T))
    bwd = run(model.enc_bwd, range(T - 1, -1, -1))
    for t in range(T):
        want = np.concatenate([fwd[t], bwd[t]], axis=-1)
        assert np.max(np.abs(enc.states.data[0, t] - want)) < 1e-12
    # decoder init: z = tanh(g([h_T_fwd; h_1_bwd]))
    final = np.concatenate([fwd[T - 1], bwd[0]], axis=-1)
    want_z = np.tanh(final @ model.enc_init.W.data + model.enc_init.b.data)
    assert np.max(np.abs(enc.z.data - want_z)) < 1e-12


def test_padded_rows_reuse_last_real_state(float64_mode):
    model = _tiny_model("gru", seed=8)
    ids = encode(["a", "b"], model.src_vocab)
    short = np.asarray(ids).reshape(1, -1)
    padded = np.zeros((1, len(ids) + 3), dtype=np.int64)
    padded[0, :len(ids)] = ids
    z1 = model.encode(short).z.data
    z2 = model.encode(padded).z.data
    assert np.array_equal(z1, z2)


# -- pruning / freezing -----------------------------------------------------------

@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_pruned_units_stay_exactly_silent(float64_mode, arch):
    model = _tiny_model(arch, seed=9, hidden=4)
    targets = [1, model.analysis_width - 1]
    model.prune_encoder_units(targets)
    batch = _tiny_batch(model)
    enc = model.encode(batch.source, batch.source_lengths)
    for row in range(batch.source.shape[0]):
        acts = enc.activations(row)
        assert np.all(acts[:, targets] == 0.0)
    assert sorted(model.pruned_neurons().tolist()) == sorted(targets)


def test_prune_rejects_out_of_range():
    model = _tiny_model("gru", hidden=4)
    with pytest.raises(IndexError):
        model.prune_encoder_units([4])


def test_freeze_marks_all_encoder_side_params():
    model = _tiny_model("abgru")
    model.freeze_encoder()
    named = model.named_parameters()
    for name, p in named.items():
        should_freeze = name == "src_emb" or name.startswith("enc")
        assert p.frozen == should_freeze, name


def test_rebind_decoder_preserves_encoder_bytes():
    model = _tiny_model("abgru", seed=10)
    before = {p.name or "src_emb": p.data.tobytes()
              for p in model.encoder_parameters()}
    model.rebind_decoder(_tiny_vocab(["x", "y"]), seed=11)
    after = {p.name or "src_emb": p.data.tobytes()
             for p in model.encoder_parameters()}
    assert before == after
    assert len(model.tgt_vocab) == len(_tiny_vocab(["x", "y"]))


def test_greedy_decode_stops_at_eos_and_excludes_markers(float64_mode):
    model = _tiny_model("lstm", seed=12)
    out = model.greedy_decode(encode(["a", "b"], model.src_vocab), max_len=7)
    assert len(out) <= 7
    assert SOS not in out and EOS not in out


def test_unknown_architecture_rejected():
    v = _tiny_vocab(["a"])
    with pytest.raises(ValueError):
        Seq2SeqModel("transformer", v, v)
