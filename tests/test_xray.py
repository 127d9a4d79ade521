"""Mass-activation algebra against brute-force oracles, plus pruning selection
and the POS/token distribution rules."""

import dataclasses
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrmt import _container, synthetic, xray
from lrmt import numerics as nm
from lrmt._container import CheckpointFormatError
from lrmt.model import Seq2SeqModel
from lrmt.numerics import no_grad
from lrmt.text import (INFER_BATCH, build_vocab, encode, length_sorted_chunks, load_tsv,
                       pad_rows)
from lrmt.xray import (ActivationDataset, change_in_mass, dead_neurons,
                       knowledge_abstraction, mass_matrices, pos_token_distribution,
                       select_prune_set)


def _dataset(matrices, tokens=None, tags=None):
    matrices = [np.asarray(m, dtype=np.float64) for m in matrices]
    tokens = tokens or [["t%d" % j for j in range(m.shape[0])] for m in matrices]
    tags = tags or [["NOUN"] * m.shape[0] for m in matrices]
    return ActivationDataset(tokens=tokens, tags=tags, matrix=np.concatenate(matrices))


def _oracle(acts):
    """Brute-force double loop over tokens and neurons."""
    N = acts.width
    signed = [0.0] * N
    magnitude = [0.0] * N
    max_mass = [0.0] * N
    hits = [0] * N
    for row in acts.matrix:
        best, best_val = 0, abs(row[0])
        for k in range(N):
            signed[k] += row[k]
            magnitude[k] += abs(row[k])
            if abs(row[k]) > best_val:
                best, best_val = k, abs(row[k])
        max_mass[best] += row[best]
        hits[best] += 1
    return signed, magnitude, max_mass, hits


def test_single_row_worked_example():
    acts = _dataset([[[0.5, -0.9]]])
    m = mass_matrices(acts)
    assert m.signed_mass.tolist() == [0.5, -0.9]
    assert m.magnitude_mass.tolist() == [0.5, 0.9]
    assert m.max_mass.tolist() == [0.0, -0.9]   # neuron 1 wins on magnitude
    assert m.hit_count.tolist() == [0, 1]
    assert dead_neurons(m) == {0}


def test_matches_double_loop_oracle_on_random_datasets():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(int(rng.integers(1, 6)), 5))
                for _ in range(int(rng.integers(1, 4)))]
        acts = _dataset(mats)
        m = mass_matrices(acts)
        s, g, x, h = _oracle(acts)
        assert np.max(np.abs(m.signed_mass - s)) < 1e-12
        assert np.max(np.abs(m.magnitude_mass - g)) < 1e-12
        assert np.max(np.abs(m.max_mass - x)) < 1e-12
        assert m.hit_count.tolist() == h


def test_algebraic_identities():
    rng = np.random.default_rng(7)
    acts = _dataset([rng.normal(size=(9, 6))])
    m = mass_matrices(acts)
    k = knowledge_abstraction(m)
    assert k.overall == k.positive + k.negative
    assert np.all(m.magnitude_mass >= np.abs(m.signed_mass) - 1e-15)
    assert int(m.hit_count.sum()) == acts.total_tokens()


def test_argmax_ties_go_to_lowest_index():
    acts = _dataset([[[0.5, -0.5, 0.5]]])
    m = mass_matrices(acts)
    assert m.hit_count.tolist() == [1, 0, 0]


def test_cancellation_is_not_death():
    # neuron 0 fires +1 then -1: signed mass cancels to 0 but it is never dead
    acts = _dataset([[[1.0, 0.1], [-1.0, 0.1]]])
    m = mass_matrices(acts)
    assert m.signed_mass[0] == 0.0
    assert m.magnitude_mass[0] == 2.0
    assert dead_neurons(m) == {1}


def test_select_prune_set_counts_and_ranking():
    mag = np.array([5.0, 1.0, 3.0, 3.0, 0.5, 9.0, 2.0, 0.1, 4.0, 0.7])
    m = xray.MassActivationMatrix(signed_mass=mag.copy(), magnitude_mass=mag,
                                  max_mass=np.zeros(10),
                                  hit_count=np.ones(10, dtype=np.int64))
    assert select_prune_set(m, "most_n", 30.0) == {5, 0, 8}
    assert select_prune_set(m, "least_n", 30.0) == {7, 4, 9}
    # tie at 3.0 between neurons 2 and 3 -> lower index first
    assert select_prune_set(m, "most_n", 40.0) == {5, 0, 8, 2}
    assert select_prune_set(m, "most_n", 0.0) == set()


def test_monotone_prefix_property():
    rng = np.random.default_rng(13)
    mag = rng.random(64)
    m = xray.MassActivationMatrix(signed_mass=mag.copy(), magnitude_mass=mag,
                                  max_mass=np.zeros(64),
                                  hit_count=np.ones(64, dtype=np.int64))
    prev = set()
    for pct in (0, 5, 10, 25, 50, 100):
        cur = select_prune_set(m, "most_n", pct)
        assert prev <= cur
        assert len(cur) == int(pct / 100 * 64)
        prev = cur


def test_table_pruning_counts_at_width_512():
    mag = np.arange(512, dtype=np.float64)
    m = xray.MassActivationMatrix(signed_mass=mag.copy(), magnitude_mass=mag,
                                  max_mass=np.zeros(512),
                                  hit_count=np.ones(512, dtype=np.int64))
    assert len(select_prune_set(m, "most_n", 1.0)) == 5
    assert len(select_prune_set(m, "most_n", 5.0)) == 25
    assert len(select_prune_set(m, "most_n", 10.0)) == 51


def test_select_prune_set_validates_input():
    m = xray.MassActivationMatrix(signed_mass=np.zeros(4),
                                  magnitude_mass=np.zeros(4),
                                  max_mass=np.zeros(4),
                                  hit_count=np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        select_prune_set(m, "random", 5.0)
    with pytest.raises(ValueError):
        select_prune_set(m, "most_n", 150.0)


def test_change_in_mass_delta_and_antisymmetry():
    rng = np.random.default_rng(21)
    a = mass_matrices(_dataset([rng.normal(size=(4, 5))]))
    b = mass_matrices(_dataset([rng.normal(size=(6, 5))]))
    d_ab, most, least = change_in_mass(a, b, top_k=2)
    d_ba, _, _ = change_in_mass(b, a, top_k=2)
    assert np.array_equal(d_ab, -(d_ba))
    assert np.max(np.abs(d_ab - (b.signed_mass - a.signed_mass))) == 0.0
    order = np.argsort(-np.abs(d_ab), kind="stable")
    assert most == order[:2].tolist()
    assert set(least) == set(order[-2:].tolist())


@pytest.mark.parametrize("deltas, most, least", [
    ([0, 0, 0, 0, 0, 0], [0, 1, 2], [0, 1, 2]),      # a frozen, unpruned stage
    ([1, 0, -1, 0, 2, 0], [4, 0, 2], [1, 3, 5])])
def test_change_in_mass_breaks_ties_toward_the_lower_neuron(deltas, most, least):
    before = mass_matrices(_dataset([np.ones((1, 6))]))
    after = dataclasses.replace(before, signed_mass=before.signed_mass + deltas)
    assert change_in_mass(before, after, top_k=3)[1:] == (most, least)


def test_change_in_mass_rejects_width_mismatch():
    a = mass_matrices(_dataset([np.ones((1, 3))]))
    b = mass_matrices(_dataset([np.ones((1, 4))]))
    with pytest.raises(ValueError):
        change_in_mass(a, b)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        mass_matrices(ActivationDataset(tokens=[], tags=[], matrix=np.zeros((0, 4))))


# -- POS/token distribution ------------------------------------------------------

def test_pos_token_distribution_means_normalization_and_topk():
    tokens = [["cat", "cat", "runs"]]
    tags = [["NOUN", "VERB", "VERB"]]  # "cat" seen twice with different tags
    mats = [[[2.0, 0.0], [4.0, 0.0], [-6.0, 0.0]]]
    acts = _dataset(mats, tokens=tokens, tags=tags)
    dist = pos_token_distribution(acts, neuron=0, k=1)
    by_tok = {e[0]: e for e in dist.entries}
    assert by_tok["cat"][2] == 3.0          # mean of 2 and 4
    assert by_tok["runs"][2] == -6.0
    assert by_tok["runs"][3] == -1.0        # normalized by max |mean| = 6
    assert by_tok["cat"][3] == 0.5
    # a token's tag is its first row's
    assert by_tok["cat"][1] == "NOUN"
    assert dist.top_k[0][0] == "runs"
    # only "cat" activates positively -> density concentrates on its tag
    assert dist.pos_density == {"NOUN": 1.0}


def test_pos_token_distribution_validates_neuron_and_k():
    acts = _dataset([np.ones((2, 3))])
    with pytest.raises(IndexError):
        pos_token_distribution(acts, neuron=3)
    with pytest.raises(ValueError):
        pos_token_distribution(acts, neuron=0, k=0)


def test_pos_token_distribution_tags_a_token_by_its_first_row_not_by_a_vote():
    acts = _dataset([np.ones((3, 1))], tokens=[["a", "a", "a"]], tags=[["X", "N", "N"]])
    dist = pos_token_distribution(acts, neuron=0)
    assert dist.entries == [("a", "X", 1.0, 1.0)]
    assert dist.pos_density == {"X": 1.0}


def _distribution_oracle(acts, neuron, k):
    """Plain Python, one token type at a time, in first-seen order.  A mean adds the
    type's rows one by one in row order (Python 3.12's `sum` compensates, so it is
    not used) and divides by their count."""
    rows = list(zip(chain(*acts.tokens), chain(*acts.tags), acts.matrix[:, neuron].tolist()))
    entries = []
    for tok in dict.fromkeys(t for t, _, _ in rows):
        values = [v for t, _, v in rows if t == tok]
        total = 0.0
        for v in values:
            total += v
        tag = next(g for t, g, _ in rows if t == tok)
        entries.append((tok, tag, total / len(values)))
    max_abs = max([abs(m) for _, _, m in entries], default=0.0)
    scale = max_abs if max_abs > 0 else 1.0
    entries = sorted([(tok, tag, m, m / scale) for tok, tag, m in entries],
                     key=lambda e: (-abs(e[3]), e[0]))
    positive = [tag for _, tag, m, _ in entries if m > 0]
    density = {tag: positive.count(tag) / len(positive) for tag in sorted(set(positive))}
    return xray.PosTokenDistribution(neuron, entries, entries[:k], density)


TYPES = ["a", "a\x00", "b", "ü", "日本", "<sos>"]


def _tag_of(tok):
    """A tag that depends on the token alone, as `postag.tag_token`'s does."""
    return "T%d" % (sum(map(ord, tok)) % 3)


def _case(sentences, matrix, neuron, k):
    return ActivationDataset(tokens=sentences, tags=[list(map(_tag_of, s)) for s in sentences],
                             matrix=np.asarray(matrix, dtype=np.float64)), neuron, k


@st.composite
def _distribution_cases(draw):
    sentences = draw(st.lists(st.lists(st.sampled_from(TYPES), min_size=1, max_size=6),
                              max_size=4))
    width = draw(st.integers(1, 3))
    values = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, -2.0]) | st.floats(-1e6, 1e6)
    matrix = draw(arrays(np.float64, (sum(map(len, sentences)), width), elements=values))
    neuron = draw(st.integers(0, width - 1))
    if draw(st.booleans()):
        matrix[:, neuron] = 0.0                 # an all-zero column: scale 1.0
    return _case(sentences, matrix, neuron, draw(st.integers(1, 8)))


@settings(max_examples=300, deadline=None)
@given(case=_distribution_cases())
@example(case=_case([], np.zeros((0, 2)), 1, 3))
@example(case=_case([["a", "a\x00", "a"]], [[0.0], [0.0], [-0.0]], 0, 2))
@example(case=_case([["a", "a\x00", "ü"], ["b"]], [[1.0], [-1.0], [0.5], [-0.5]], 0, 1))
def test_pos_token_distribution_matches_a_brute_force_oracle_exactly(case):
    acts, neuron, k = case
    assert repr(pos_token_distribution(acts, neuron, k)) == repr(
        _distribution_oracle(acts, neuron, k))


@pytest.mark.parametrize("source", ["synthetic", "load_tsv"])
def test_a_capture_gives_every_token_type_one_tag(tmp_path, source):
    corpus = synthetic.splits(synthetic.substitution_task, train=2, valid=1, test=40,
                              vocab_size=30, max_len=8, seed=1)["test"]
    if source == "load_tsv":     # preprocessing strips `<` and `>`: no loaded word is a marker
        (tmp_path / "t.tsv").write_text(
            "The cat sat on the mat.\tx\nI can't see 3 cats, can you?\tx\n"
            "Running is fun; the cats ran!\tx\n<sos> and sos, 42 $ 42.\tx\n", encoding="utf-8")
        corpus = load_tsv(tmp_path / "t.tsv")
    vocab = build_vocab([corpus], side="source")
    model = Seq2SeqModel("gru", vocab, vocab, embed_size=4, hidden_size=3, dropout=0.0, seed=0)
    acts = xray.capture_activations(model, corpus)
    tags = {}
    for tok, tag in zip(chain(*acts.tokens), chain(*acts.tags)):
        tags.setdefault(tok, set()).add(tag)
    assert len(tags) < acts.total_tokens()          # some type has several rows
    assert tags["<sos>"] == tags["<eos>"] == {"X"}
    assert [tok for tok, seen in tags.items() if len(seen) != 1] == []


# -- serialization round trips -----------------------------------------------------

def test_activation_binary_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    acts = _dataset([rng.normal(size=(3, 4)), rng.normal(size=(1, 4))],
                    tokens=[["a", "b", "ü"], ["x"]],
                    tags=[["NOUN", "VERB", "X"], ["NOUN"]])
    path = tmp_path / "acts.bin"
    xray.dump_activations(acts, path)
    back = xray.load_activations(path)
    assert back.width == acts.width
    assert back.tokens == acts.tokens and back.tags == acts.tags
    assert np.array_equal(back.matrix, acts.matrix)


def test_analysis_export_schema():
    acts = _dataset([np.ones((2, 3))])
    m = mass_matrices(acts)
    doc = xray.analysis_export("stage1", m,
                               top_changed=[{"neuron": 2, "delta": -1.5}])
    assert doc["stage"] == "stage1" and doc["width"] == 3
    assert set(doc) == {"stage", "width", "signed_mass", "magnitude_mass",
                        "max_mass", "hit_count", "knowledge", "top_changed"}
    assert doc["knowledge"]["overall"] == (doc["knowledge"]["positive"]
                                           + doc["knowledge"]["negative"])
    assert doc["top_changed"] == [{"neuron": 2, "delta": -1.5}]


@pytest.mark.parametrize("arch", ["lstm", "gru", "abgru"])
def test_batched_capture_equals_per_sentence_capture(float64_mode, arch):
    data = synthetic.splits(synthetic.copy_task, train=8, valid=2,
                            test=INFER_BATCH + 6, vocab_size=10, min_len=1,
                            max_len=7, seed=2)
    corpus = data["test"]
    vocab = build_vocab([corpus], side="source")
    model = Seq2SeqModel(arch, vocab, vocab, embed_size=6, hidden_size=5,
                         dropout=0.0, seed=3)
    acts = xray.capture_activations(model, corpus)
    per_sentence = []
    for src, _ in corpus.pairs:
        ids = np.asarray(encode(src, vocab), dtype=np.int64).reshape(1, -1)
        per_sentence.append(model.encode(ids).states.data[0])
    want = np.concatenate(per_sentence)
    assert acts.tokens == [["<sos>"] + list(src) + ["<eos>"] for src, _ in corpus.pairs]
    assert acts.matrix.shape == want.shape
    assert np.max(np.abs(acts.matrix - want)) <= 1e-12
    alone = ActivationDataset(tokens=acts.tokens, tags=acts.tags, matrix=want)
    assert np.array_equal(mass_matrices(acts).hit_count,
                          mass_matrices(alone).hit_count)


def test_capture_reads_states_only_and_matches_the_decoding_encoder_bit_for_bit(monkeypatch):
    # float32, as every run captures
    data = synthetic.splits(synthetic.copy_task, train=8, valid=2,
                            test=INFER_BATCH + 6, vocab_size=10, min_len=1,
                            max_len=7, seed=4)
    corpus = data["test"]
    vocab = build_vocab([corpus], side="source")
    model = Seq2SeqModel("abgru", vocab, vocab, embed_size=6, hidden_size=5,
                         dropout=0.0, seed=3)
    sources = [encode(src, vocab) for src, _ in corpus.pairs]
    want = [None] * len(sources)
    with no_grad():
        for chunk in length_sorted_chunks(sources):
            enc = model.encode(pad_rows([sources[i] for i in chunk]))
            for row, i in enumerate(chunk):
                want[i] = enc.states.data[row][enc.mask[row] != 0].astype(np.float64)

    def attention_arrays(*_):
        raise AssertionError("a capture formed the attention energy's arrays")

    monkeypatch.setattr(nm, "attention_arrays", attention_arrays)
    acts = xray.capture_activations(model, corpus)
    assert acts.matrix.tobytes() == np.concatenate(want).tobytes()


def _write_activations(path, header, matrix):
    """An activations file with a valid CRC whatever its header says."""
    _container.write(path, xray.ACTIVATIONS_MAGIC, xray.ACTIVATIONS_VERSION,
                     dict({"width": 2, "tokens": [["a", "b"], ["c"]],
                           "tags": [["X", "X"], ["X"]], "provenance": {}}, **header),
                     [("activations", matrix, {})])


@pytest.mark.parametrize("header, matrix", [
    ({"tags": [["X", "X"]]}, np.zeros((3, 2))),
    ({"tags": [["X", "X"], ["X", "X"]]}, np.zeros((3, 2))),
    ({}, np.zeros((4, 2))),
    ({"width": 3}, np.zeros((3, 2))),
    ({}, np.zeros((3, 2), dtype=np.int64)),
    ({}, np.zeros((3, 2), dtype=np.float32)),
    ({"tags": [[1, 2], [3]]}, np.zeros((3, 2))),
    ({"provenance": [1]}, np.zeros((3, 2))),
    ({"tokens": "abc", "tags": "XXX"}, np.zeros((3, 2))),
    ({"tokens": ["ab", "c"], "tags": ["XX", "X"]}, np.zeros((3, 2)))],
    ids=["sentence-counts-differ", "tag-count-differs", "rows-differ-from-tokens",
         "header-width-differs", "int64-matrix", "float32-matrix", "tags-not-strings",
         "provenance-not-an-object", "tokens-a-string", "sentences-strings"])
def test_activation_file_with_an_inconsistent_header_is_a_format_error(tmp_path, header, matrix):
    path = tmp_path / "activations.bin"
    _write_activations(path, {}, np.zeros((3, 2)))
    assert xray.load_activations(path).total_tokens() == 3      # the base file is valid
    _write_activations(path, header, matrix)
    with pytest.raises(CheckpointFormatError) as info:
        xray.load_activations(path)
    assert str(path) in str(info.value)
