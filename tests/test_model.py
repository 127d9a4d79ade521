"""Architecture tests: cell math, attention, masking, pruning, gradients."""

import gc
import math
import weakref

import numpy as np
import pytest

from lrmt import numerics as nm
from lrmt import synthetic
from lrmt.model import ARCH_TABLE, RecurrentCell, Seq2SeqModel
from lrmt.numerics import Tensor, cross_entropy_masked
from lrmt.text import EOS, PAD, SOS, UNK, Batch, ParallelCorpus, build_vocab, encode
from lrmt.training import TrainConfig, pretrain_copy

import tape_ops as tp
from gradcheck import relative_gradient_error
from reference_decode import reference_greedy_decode
from reference_forward import composed_cell


def _tiny_vocab(words):
    c = ParallelCorpus([(list(words), list(words))])
    return build_vocab([c], side="source")


def _tiny_model(arch, seed=0, hidden=3, embed=4, dropout=0.0):
    v = _tiny_vocab(["a", "b", "c", "d"])
    return Seq2SeqModel(arch, v, v, embed_size=embed, hidden_size=hidden,
                        dropout=dropout, seed=seed)


def _tiny_batch(model, rows=((4, 5, 6), (5, 4))):
    src = [encode([model.src_vocab.token_of(i) for i in r], model.src_vocab)
           for r in rows]
    width = max(len(r) for r in src)
    mat = np.zeros((len(src), width), dtype=np.int64)
    for i, r in enumerate(src):
        mat[i, :len(r)] = r
    return Batch(source=mat, target=mat.copy())


# -- closed-form cell checks ---------------------------------------------------

XS = (0.7, -0.4)      # two steps, so the second enters a state that is not 0


def _sig(v):
    return 1 / (1 + math.exp(-v))


def _width_one_run(cell):
    """A width-one cell over the inputs XS from a zero state, through the fused
    encoder op (ids 1, 2, ... embed the inputs) and through the composed
    reference cell: each as the flat [h(, c)] after the last input."""
    table = np.array([[0.0], *([x] for x in XS)])
    _, state = nm.encoder_sequence(cell.kind, np.arange(1, len(XS) + 1)[None, :],
                                   np.ones((1, len(XS))), table, [(cell.W_i, cell.b, cell.W_h)])
    ref = [Tensor(np.zeros((1, 1)))] * nm.CELLS[cell.kind].states
    for x in XS:
        ref = composed_cell(cell.kind, tp.add(tp.matmul(Tensor(np.array([[x]])), cell.W_i),
                                              cell.b), ref, cell.W_h)
    return [np.concatenate([s.data for s in st], axis=-1).reshape(-1) for st in (state, ref)]


def test_gru_width_one_closed_form(float64_mode):
    rng = np.random.default_rng(2)
    cell = RecurrentCell("gru", 1, 1, rng, "c")
    cell.b.data[...] = rng.normal(size=3)
    wi, wh, b = cell.W_i.data[0], cell.W_h.data[0], cell.b.data
    h = 0.0
    for x in XS:
        r = _sig(x * wi[0] + b[0] + h * wh[0])
        z = _sig(x * wi[1] + b[1] + h * wh[1])
        n = math.tanh(x * wi[2] + b[2] + r * (h * wh[2]))
        h = (1 - z) * n + z * h
    for got in _width_one_run(cell):
        assert abs(float(got[0]) - h) < 1e-12


def test_lstm_width_one_closed_form(float64_mode):
    rng = np.random.default_rng(3)
    cell = RecurrentCell("lstm", 1, 1, rng, "c")
    cell.b.data[...] = rng.normal(size=4)
    wi, wh, b = cell.W_i.data[0], cell.W_h.data[0], cell.b.data
    h = c = 0.0
    for x in XS:
        i = _sig(x * wi[0] + b[0] + h * wh[0])
        f = _sig(x * wi[1] + b[1] + h * wh[1])
        g = math.tanh(x * wi[2] + b[2] + h * wh[2])
        o = _sig(x * wi[3] + b[3] + h * wh[3])
        c = f * c + i * g
        h = o * math.tanh(c)
    for got in _width_one_run(cell):
        assert abs(float(got[0]) - h) < 1e-12
        assert abs(float(got[1]) - c) < 1e-12


# -- gradient checks through full forward passes --------------------------------

@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_full_forward_gradients(float64_mode, arch):
    model = _tiny_model(arch, seed=4)
    batch = _tiny_batch(model)
    params = model.parameters()

    def forward():
        logits = model.forward_teacher_forced(batch, tf_ratio=1.0, rng=None)
        return cross_entropy_masked(logits, batch.target[:, 1:])

    rng = np.random.default_rng(0)
    err = relative_gradient_error(params, forward, max_checks=6, rng=rng)
    assert err < 1e-4


# -- attention ------------------------------------------------------------------

def _greedy_step(model, enc, ids, state):
    """The step function an attention model's greedy decoding runs, on its arrays."""
    cell, H = model.dec_cell, model.hidden_size
    return nm.decoder_step(ids, [s.data for s in state], cell.kind, model.tgt_emb.data,
                           cell.W_i.data, cell.b.data, cell.W_h.data,
                           (model.out.W.data, model.out.b.data), model.spec.layout,
                           attention=(model.attn_energy.W.data[:H],
                                      *nm.attention_arrays(*model.attn_energy.parameters(),
                                                           enc.states, enc.mask),
                                      model.attn_v.data))


def test_attention_rows_sum_to_one_with_zero_on_pads(float64_mode):
    model = _tiny_model("abgru", seed=5)
    batch = _tiny_batch(model)
    enc = model.encode(batch.source)
    _, _, a = _greedy_step(model, enc, np.full(2, SOS), enc.state)
    sums = a.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    pad_positions = enc.mask == 0
    assert pad_positions.any()
    assert np.all(a[pad_positions] == 0.0)


def test_attention_rejects_fully_padded_row(float64_mode):
    model = _tiny_model("abgru")
    enc = model.encode(np.zeros((1, 2), dtype=np.int64))    # pads only
    with pytest.raises(ValueError, match="fully padded"):
        model.decode_step(np.array([SOS]), enc.state, enc)


@pytest.mark.parametrize("source", [np.zeros((0, 3), dtype=np.int64),
                                    np.zeros((1, 0), dtype=np.int64),
                                    np.ones(3, dtype=np.int64)],
                         ids=["no-rows", "no-columns", "one-dimensional"])
@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_encode_rejects_a_source_that_is_not_a_non_empty_matrix(arch, source):
    model = _tiny_model(arch)
    with pytest.raises(ValueError, match=r"non-empty \[B, T\] id matrix"):
        model.encode(source)
    if source.shape == (1, 0):                  # what greedy decoding of no id pads to
        with pytest.raises(ValueError, match=r"non-empty \[B, T\] id matrix"):
            model.greedy_decode([])


# -- context reinjection / state handling ---------------------------------------

def test_gru_decoder_reinjects_identical_context_each_step(float64_mode):
    model = _tiny_model("gru", seed=6)
    batch = _tiny_batch(model, rows=((4, 5, 6, 7),))
    enc = model.encode(batch.source)
    (z,) = enc.state
    z_before = z.data.copy()
    state = enc.state
    for step_tok in (SOS, 4, 5):
        state, logits = model.decode_step(np.array([step_tok]), state, enc)
        assert np.array_equal(z.data, z_before)  # z is re-used, untouched
    # logits must actually depend on z: recompute with perturbed z
    _, base = model.decode_step(np.array([SOS]), (Tensor(z_before.copy()),), enc)
    z.data += 0.5
    _, moved = model.decode_step(np.array([SOS]), (Tensor(z_before.copy()),), enc)
    assert not np.allclose(base.data, moved.data)


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_decode_step_rejects_a_state_of_the_wrong_shape(arch, float64_mode):
    model = _tiny_model(arch)
    enc = model.encode(_tiny_batch(model).source)
    B, H = enc.mask.shape[0], model.hidden_size
    h = enc.state[0]
    wide = Tensor(np.zeros((B, H + 1)))
    if arch == "lstm":
        # the two cell shapes broadcast inside the step, so only the check stops them
        bad = [(h,), (wide, enc.state[1]),
               (h, Tensor(np.zeros((B, 1)))), (h, Tensor(np.zeros((1, H))))]
    else:
        bad = [(h, h), (wide,)]
    for state in bad:
        with pytest.raises(ValueError, match="decoder state"):
            model.decode_step(np.full(B, SOS), state, enc)
    # ids and state of one row more than the encoding: the batch is the encoding's
    tall = tuple(Tensor(np.zeros((B + 1, H))) for _ in enc.state)
    with pytest.raises(ValueError, match="decoder state"):
        model.decode_step(np.full(B + 1, SOS), tall, enc)
    model.decode_step(np.full(B, SOS), enc.state, enc)      # the encoder's own state runs


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
        h = Tensor(np.zeros((1, H)))
        out = [None] * T
        for t in order:
            xp = tp.add(tp.matmul(Tensor(emb[t:t + 1]), cell.W_i), cell.b)
            (h,) = composed_cell("gru", xp, (h,), cell.W_h)
            out[t] = h.data
        return out

    fwd_cell, bwd_cell = model.encoders
    fwd = run(fwd_cell, range(T))
    bwd = run(bwd_cell, range(T - 1, -1, -1))
    for t in range(T):
        want = np.concatenate([fwd[t], bwd[t]], axis=-1)
        assert np.max(np.abs(enc.states.data[0, t] - want)) < 1e-12
    # decoder init: z = tanh(g([h_T_fwd; h_1_bwd]))
    final = np.concatenate([fwd[T - 1], bwd[0]], axis=-1)
    want_z = np.tanh(final @ model.enc_init.W.data + model.enc_init.b.data)
    assert np.max(np.abs(enc.state[0].data - want_z)) < 1e-12


def test_padded_rows_reuse_last_real_state(float64_mode):
    model = _tiny_model("gru", seed=8)
    ids = encode(["a", "b"], model.src_vocab)
    short = np.asarray(ids).reshape(1, -1)
    padded = np.zeros((1, len(ids) + 3), dtype=np.int64)
    padded[0, :len(ids)] = ids
    z1 = model.encode(short).state[0].data
    z2 = model.encode(padded).state[0].data
    assert np.array_equal(z1, z2)


# -- pruning / freezing -----------------------------------------------------------

@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_pruned_units_stay_exactly_silent(float64_mode, arch):
    model = _tiny_model(arch, seed=9, hidden=4)
    targets = [1, model.analysis_width - 1]
    model.prune_encoder_units(targets)
    batch = _tiny_batch(model)
    enc = model.encode(batch.source)
    assert np.all(enc.states.data[enc.mask != 0][:, targets] == 0.0)
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


# -- batched greedy decoding ------------------------------------------------------

@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_batched_decode_equals_each_sentence_alone(float64_mode, arch):
    # a briefly trained copy model, so rows emit eos at different steps
    data = synthetic.splits(synthetic.copy_task, train=60, valid=6, test=12,
                            vocab_size=8, min_len=1, max_len=6, seed=5)
    cfg = TrainConfig(arch=arch, embed_size=8, hidden_size=8, dropout=0.0,
                      batch_size=10, lr=0.03, tf_ratio=1.0, max_epochs=12,
                      patience=12, seed=5)
    model = pretrain_copy(data["train"], cfg).to_model()
    sources = [encode(src, model.src_vocab) for src, _ in data["test"].pairs]
    batched = model.greedy_decode_batch(sources, max_len=9)
    assert batched == [model.greedy_decode(ids, max_len=9) for ids in sources]
    assert batched == [reference_greedy_decode(model, ids, max_len=9)
                       for ids in sources]
    assert len({len(out) for out in batched}) > 2


def test_greedy_decode_of_no_sources_is_empty():
    assert _tiny_model("abgru").greedy_decode_batch([]) == []


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_negative_max_len_is_rejected(arch):
    model = _tiny_model(arch)
    with pytest.raises(ValueError, match="max_len"):
        model.translate(["a", "b"], max_len=-1)
    with pytest.raises(ValueError, match="max_len"):
        model.greedy_decode_batch([], max_len=-1)
    assert model.translate(["a", "b"], max_len=0) == []
    sources = [encode(words, model.src_vocab) for words in (["a"], ["b", "c", "d"])]
    assert model.greedy_decode_batch(sources, max_len=0) == [[], []]


def test_attention_arrays_form_once_per_encoding(monkeypatch, float64_mode):
    model = _tiny_model("abgru", seed=14)
    model.out.b.data[EOS] = -1e9             # no row stops early: every step runs
    formed, steps = [], []
    original_arrays, original_step = nm.attention_arrays, nm.decoder_step

    def arrays(*args):
        formed.append(args)
        return original_arrays(*args)

    def step(*args):
        steps.append(args)
        return original_step(*args)

    monkeypatch.setattr(nm, "attention_arrays", arrays)
    monkeypatch.setattr(nm, "decoder_step", step)
    sources = [encode(words, model.src_vocab) for words in (["a", "b"], ["c"])]
    assert [len(row) for row in model.greedy_decode_batch(sources, max_len=12)] == [12, 12]
    assert len(steps) == 12 and len(formed) == 1


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_decode_step_reads_the_current_weights(arch, float64_mode):
    # nothing the step reads from a parameter outlives the step
    model = _tiny_model(arch, seed=3)
    enc = model.encode(_tiny_batch(model).source)
    ids = np.full(enc.mask.shape[0], SOS)
    _, before = model.decode_step(ids, enc.state, enc)
    model.out.b.data = model.out.b.data + 1.0
    _, rebound = model.decode_step(ids, enc.state, enc)
    assert np.allclose(rebound.data, before.data + 1.0, rtol=0, atol=1e-12)
    model.out.b.data[0] += 2.0
    _, changed = model.decode_step(ids, enc.state, enc)
    assert np.allclose(changed.data[:, 0], rebound.data[:, 0] + 2.0, rtol=0, atol=1e-12)
    assert np.array_equal(changed.data[:, 1:], rebound.data[:, 1:])
    if arch == "abgru":
        # the attention energy too: a step on the old encoding equals one on a fresh one
        model.attn_energy.b.data = model.attn_energy.b.data + 0.5
        model.attn_energy.W.data[-1] -= 0.75
        _, moved = model.decode_step(ids, enc.state, enc)
        fresh = model.encode(_tiny_batch(model).source)
        _, want = model.decode_step(ids, fresh.state, fresh)
        assert not np.allclose(moved.data, changed.data, rtol=0, atol=1e-12)
        assert np.array_equal(moved.data, want.data)


# one sentence, a padded batch, and an unpadded batch of several rows
NO_GRAD_ROWS = [((4, 5, 6),), ((4, 5, 6, 7), (5,), (6, 4)), ((4, 5, 6), (6, 5, 4))]


@pytest.mark.parametrize("rows, float64", [
    pytest.param(rows, float64, id="rows%d%s" % (i, "-float64" if float64 else ""))
    for float64 in (False, True) for i, rows in enumerate(NO_GRAD_ROWS)])
@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_encoder_under_no_grad_records_nothing_and_matches(request, arch, rows, float64):
    if float64:
        request.getfixturevalue("float64_mode")
    model = _tiny_model(arch, seed=8, hidden=5, embed=3)
    source = _tiny_batch(model, rows).source
    taped = model.encode(source)
    with nm.no_grad():
        plain = model.encode(source)

    def outputs(enc):
        return [enc.states, *enc.state]

    assert all(t.requires_grad and t._parents for t in outputs(taped))
    assert len(outputs(plain)) == len(outputs(taped))
    for got, want in zip(outputs(plain), outputs(taped)):
        assert not got.requires_grad and got._parents == () and got._backward is None
        assert got.data.dtype == want.data.dtype and got.shape == want.shape
        assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(plain.mask, taped.mask)


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_greedy_decoding_never_emits_pad_sos_or_unk(arch):
    # no training target holds pad, sos or unk, so greedy decoding emits none,
    # even from a head whose bias favours them
    model = _tiny_model(arch, seed=9)
    model.out.b.data[[PAD, SOS, UNK]] = 100.0
    model.out.b.data[EOS] = -100.0          # every row runs all its steps
    sources = [encode(words, model.src_vocab) for words in (["a", "b"], ["c"])]
    decoded = model.greedy_decode_batch(sources, max_len=5)
    assert [len(row) for row in decoded] == [5, 5]
    assert all(i > UNK for row in decoded for i in row)
    assert decoded == [reference_greedy_decode(model, ids, max_len=5) for ids in sources]


def test_greedy_decode_records_no_tape(monkeypatch, float64_mode):
    model = _tiny_model("abgru", seed=14)
    steps = []
    original = nm.decoder_step

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        steps.append(result[1])
        return result

    monkeypatch.setattr(nm, "decoder_step", spy)
    model.greedy_decode(encode(["a", "b"], model.src_vocab), max_len=4)
    # a plain array is no tape node
    assert steps and all(type(logits) is np.ndarray for logits in steps)
    assert all(p.requires_grad for p in model.parameters())


def _recorded_nodes(loss):
    """Every node reachable from `loss` that holds parents, each once."""
    nodes, seen, todo = [], set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            nodes.append(node)
            todo.extend(node._parents)
    return nodes


def _tape_ops(loss):
    """The op whose code holds each backward closure reachable from `loss`,
    each closure once (an output of the encoder op and its hidden node are
    two)."""
    return [node._backward.__qualname__.split(".")[0] for node in _recorded_nodes(loss)]


# the encoder outputs the decoder reads, (trainable, frozen): every one, or
# with a frozen encoder none, the attention energy being the decoder op's own
ENCODER_OUTPUTS = {"lstm": (2, 0), "gru": (1, 0), "abgru": (2, 0)}


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_a_training_batch_is_three_ops(arch, frozen):
    model = _tiny_model(arch, seed=1, dropout=0.5)
    if frozen:
        model.freeze_encoder()
    batch = _tiny_batch(model)
    logits = model.forward_teacher_forced(batch, 0.5, rng=np.random.default_rng(0))
    ops = _tape_ops(cross_entropy_masked(logits, batch.target[:, 1:]))
    assert set(ops) <= {"encoder_sequence", "decoder_sequence", "cross_entropy_masked"}, ops
    assert ops.count("decoder_sequence") == ops.count("cross_entropy_masked") == 1
    outputs = ENCODER_OUTPUTS[arch][frozen]
    assert ops.count("encoder_sequence") == (outputs + 1 if outputs else 0)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_backward_releases_every_node_it_walks(arch, frozen):
    model = _tiny_model(arch, seed=1, dropout=0.5)
    if frozen:
        model.freeze_encoder()
    batch = _tiny_batch(model)
    logits = model.forward_teacher_forced(batch, 0.5, rng=np.random.default_rng(0))
    loss = cross_entropy_masked(logits, batch.target[:, 1:])
    nodes = _recorded_nodes(loss)
    loss.backward()
    for node in nodes:
        # its closure, and every array that closure saved, is gone
        assert node._parents == () and node._backward.__closure__ is None
    assert all(p.grad is not None for p in model.parameters() if not p.frozen)


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_a_walked_tape_cannot_be_walked_again(arch):
    model = _tiny_model(arch, seed=1)
    batch = _tiny_batch(model)
    logits = model.forward_teacher_forced(batch, 1.0)
    loss = cross_entropy_masked(logits, batch.target[:, 1:])
    loss.backward()
    grads = {name: p.grad.copy() for name, p in model.named_parameters().items()}
    with pytest.raises(RuntimeError, match="already walked"):
        loss.backward()
    # a second loss that reaches the released decoder node, beside a fresh
    # tape that the walk would reach first
    fresh = model.forward_teacher_forced(batch, 1.0)
    with pytest.raises(RuntimeError, match="already walked"):
        tp.add(cross_entropy_masked(fresh, batch.target[:, 1:]),
               cross_entropy_masked(logits, batch.target[:, 1:])).backward()
    for name, p in model.named_parameters().items():     # no gradient was added again
        assert np.array_equal(p.grad, grads[name]), name


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_a_frozen_encoder_keeps_no_recurrence_caches(monkeypatch, arch):
    model = _tiny_model(arch, seed=1).freeze_encoder()
    assert arch != "abgru" or model.named_parameters()["attn_energy.W"].requires_grad
    recurrence, runs = nm._recurrence, []

    def spy(*args):
        out = recurrence(*args)
        runs.append(out)
        return out

    monkeypatch.setattr(nm, "_recurrence", spy)
    batch = _tiny_batch(model)
    logits = model.forward_teacher_forced(batch, 1.0)
    assert len(runs) == len(model.encoders) and logits.requires_grad
    for _, entering, caches in runs:
        assert entering is None and caches == [None] * batch.source.shape[1]


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_backprop_frees_each_step_cache_once_its_step_is_done(arch, monkeypatch):
    # counts the live step caches as each backward step kernel starts: every
    # step before it in the walk has let its cache go, every one after holds it
    cell = ARCH_TABLE[arch].cell
    kind = nm.CELLS[cell]
    made, live = [], []

    def forward(xp, state, W_h):
        new, cache = kind.forward(xp, state, W_h)
        made.append(weakref.ref(cache[-1]))
        return new, cache

    def backward(d_state, cache, W_h):
        live.append(sum(ref() is not None for ref in made))
        return kind.backward(d_state, cache, W_h)

    monkeypatch.setitem(nm.CELLS, cell, kind._replace(forward=forward, backward=backward))
    model = _tiny_model(arch, seed=1, dropout=0.5)
    batch = _tiny_batch(model)
    logits = model.forward_teacher_forced(batch, 0.5, rng=np.random.default_rng(0))
    cross_entropy_masked(logits, batch.target[:, 1:]).backward()
    assert live == list(range(len(made), 0, -1))


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_a_training_batch_leaves_no_reference_cycle(arch):
    # the encoder op's outputs and its hidden node free their arrays by
    # reference counting as soon as the loss goes, as every other op's do
    model = _tiny_model(arch, seed=1, dropout=0.5)
    batch = _tiny_batch(model)
    gc.collect()
    gc.disable()
    try:
        logits = model.forward_teacher_forced(batch, 0.5, rng=np.random.default_rng(0))
        loss = cross_entropy_masked(logits, batch.target[:, 1:])
        loss.backward()
        del logits, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def _taped_batch(model, frozen):
    if frozen:
        model.freeze_encoder()
    batch = _tiny_batch(model)
    logits = model.forward_teacher_forced(batch, 0.5, rng=np.random.default_rng(0))
    return batch, logits, cross_entropy_masked(logits, batch.target[:, 1:])


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("arch", ["gru", "abgru"])
def test_every_recorded_gru_step_cache_owns_its_hn(arch, frozen, monkeypatch):
    # a view of h @ W_h [n, 3H] would keep all of it alive until the step's
    # backward; the kept hn is its own [n, H] array
    cell = ARCH_TABLE[arch].cell
    kind = nm.CELLS[cell]
    kept = []

    def backward(d_state, cache, W_h):
        kept.append(cache[1])
        return kind.backward(d_state, cache, W_h)

    monkeypatch.setitem(nm.CELLS, cell, kind._replace(backward=backward))
    model = _tiny_model(arch, seed=1, hidden=5, dropout=0.5)
    batch, _, loss = _taped_batch(model, frozen)
    loss.backward()
    directions = len(model.encoders)
    steps = batch.target.shape[1] - 1 + (0 if frozen else directions * batch.source.shape[1])
    assert len(kept) == steps
    for hn in kept:
        assert hn.base is None and hn.shape[1] == model.hidden_size


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_greedy_decoding_and_a_no_grad_pass_copy_no_step_cache(arch, monkeypatch):
    # a kind's `keep` makes the only copy a step cache gets
    cell = ARCH_TABLE[arch].cell
    kind, calls = nm.CELLS[cell], []

    def keep(cache):
        calls.append(cache)
        return kind.keep(cache)

    monkeypatch.setitem(nm.CELLS, cell, kind._replace(keep=keep))
    model = _tiny_model(arch, seed=3, hidden=5)
    batch = _tiny_batch(model)
    model.greedy_decode_batch([list(row[row != 0]) for row in batch.source], max_len=6)
    with nm.no_grad():
        model.encode(batch.source)
        model.forward_teacher_forced(batch, 0.5, rng=np.random.default_rng(0))
    assert not calls
    _taped_batch(model, frozen=False)           # a recorded pass keeps every step's
    assert calls


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_a_decoder_pass_under_no_grad_keeps_no_step_cache(arch, monkeypatch):
    # weakrefs on each step's cell cache and attention energy, counted as each
    # cell kernel starts: only the step before may still hold its two, beside
    # this step's attention cache
    cell = ARCH_TABLE[arch].cell
    kind, attend = nm.CELLS[cell], nm._attend_forward
    made, live = [], []

    def forward(xp, state, W_h):
        live.append(sum(ref() is not None for ref in made))
        new, cache = kind.forward(xp, state, W_h)
        made.append(weakref.ref(cache[-1]))
        return new, cache

    def attend_forward(*args):
        context, cache = attend(*args)
        made.append(weakref.ref(cache[0]))
        return context, cache

    monkeypatch.setitem(nm.CELLS, cell, kind._replace(forward=forward))
    monkeypatch.setattr(nm, "_attend_forward", attend_forward)
    model = _tiny_model(arch, seed=1, hidden=5)
    batch = _tiny_batch(model, rows=((4, 5, 6, 7, 4), (5, 4, 6, 7, 5)))
    with nm.no_grad():
        logits = model.forward_teacher_forced(batch, 1.0)
    assert not logits.requires_grad and logits._backward is None
    assert len(live) > 6 and max(live) <= (1 if model.attn_energy is None else 3), live


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_the_decoder_backward_releases_the_head_input_before_its_own_gradient(arch,
                                                                              monkeypatch):
    # `read`, the head's input [N, F], goes once out.W's gradient is formed:
    # out.b's gradient comes next, before the packed feature gradient exists
    model = _tiny_model(arch, seed=1, hidden=5, dropout=0.5)
    _, logits, loss = _taped_batch(model, frozen=False)
    closure = logits._backward
    read = weakref.ref(closure.__closure__[closure.__code__.co_freevars.index("read")]
                       .cell_contents)
    del closure
    head_b, accumulate, seen = model.named_parameters()["out.b"], nm.Tensor._accumulate, []

    def spy(self, g):
        if self is head_b:
            seen.append(read() is None)
        accumulate(self, g)

    monkeypatch.setattr(nm.Tensor, "_accumulate", spy)
    assert read() is not None
    loss.backward()
    assert seen == [True]
