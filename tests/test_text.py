"""Text pipeline: cleaning, contractions, tokenization, vocab, batching."""

import json

import numpy as np
import pytest

from lrmt import text
from lrmt.text import (EOS, PAD, SOS, UNK, ParallelCorpus, Vocabulary,
                       build_vocab, encode, load_manifest, load_tsv,
                       encode_pairs, make_batches, preprocess, tokenize)


def test_preprocess_expands_contractions_and_spaces_punctuation():
    assert preprocess("You're late!") == "you are late !"


def test_preprocess_handles_negations_and_odd_characters():
    assert preprocess("Won't  he—go?") == "will not he go ?"


def test_preprocess_more_contractions():
    assert preprocess("I'm sure they'll've... wait, can't!") \
        == "i am sure they will have . . . wait , cannot !"


def test_preprocess_empty_result():
    assert preprocess("€ ∞ 😀") == ""


def test_tokenize_splits_trailing_punctuation():
    assert tokenize("you are late !") == ["you", "are", "late", "!"]
    assert tokenize("hello, world.") == ["hello", ",", "world", "."]


def test_vocab_reserved_ids_and_frequency_order():
    c = ParallelCorpus([(["b", "a", "a"], ["x"]),
                        (["c", "a", "b"], ["y"])])
    v = build_vocab([c], side="source")
    assert v.itos[:4] == ["<pad>", "<sos>", "<eos>", "<unk>"]
    assert (PAD, SOS, EOS, UNK) == (0, 1, 2, 3)
    # a (3) before b (2) before c (1); ties would break lexicographically
    assert v.itos[4:] == ["a", "b", "c"]


def test_vocab_tie_breaks_lexicographically():
    c = ParallelCorpus([(["z", "m", "z", "m", "q"], ["x"])])
    v = build_vocab([c], side="source")
    assert v.itos[4:] == ["m", "z", "q"]
    assert v.id_of("y") == UNK


def test_vocab_extra_tokens_reserved_up_front():
    c = ParallelCorpus([(["a"], ["x"])])
    v = build_vocab([c], side="source", extra_tokens=("<2de>", "<2fr>"))
    assert v.itos[4:6] == ["<2de>", "<2fr>"]


def test_vocab_json_round_trip(tmp_path):
    c = ParallelCorpus([(["a", "b"], ["x"])])
    v = build_vocab([c], side="source")
    v.export_json(tmp_path / "v.json")
    v2 = Vocabulary.from_json(tmp_path / "v.json")
    assert v2.itos == v.itos and v2.stoi == v.stoi


def test_vocab_builds_its_own_map_and_rejects_a_repeated_token():
    reserved = ["<pad>", "<sos>", "<eos>", "<unk>"]
    assert Vocabulary(reserved + ["a", "b"]).stoi == {t: i for i, t in
                                                      enumerate(reserved + ["a", "b"])}
    with pytest.raises(TypeError):
        Vocabulary(reserved + ["a"], stoi={"a": 0})
    with pytest.raises(ValueError, match="repeats token 'a'"):
        Vocabulary(reserved + ["a", "b", "a"])
    with pytest.raises(ValueError, match="repeats token '<unk>'"):
        Vocabulary(reserved + ["<unk>"])


def test_encode_adds_sos_eos_and_maps_unknowns():
    c = ParallelCorpus([(["a"], ["x"])])
    v = build_vocab([c], side="source")
    assert encode(["a", "zzz"], v) == [SOS, v.id_of("a"), UNK, EOS]


def test_corpus_rejects_empty_sentences():
    with pytest.raises(ValueError):
        ParallelCorpus([([], ["x"])])


def test_load_tsv_drops_long_training_pairs_but_truncates_eval(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("Hello there!\tGuten Tag!\n"
                    "a b c d e f\tx y z w v u\n", encoding="utf-8")
    train = load_tsv(path, max_len=4)
    assert len(train.pairs) == 1
    ev = load_tsv(path, max_len=4, truncate=True)
    assert len(ev.pairs) == 2
    assert ev.pairs[1] == (["a", "b", "c", "d"], ["x", "y", "z", "w"])


def test_load_manifest_resolves_relative_paths_and_flags_missing(tmp_path):
    (tmp_path / "t.tsv").write_text("hi!\thallo!\n", encoding="utf-8")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "en-de", "pair": "en-de", "train": "t.tsv"}]}), encoding="utf-8")
    corpora = load_manifest(manifest)
    assert corpora["en-de"]["train"].pairs == [(["hi", "!"], ["hallo", "!"])]
    manifest.write_text(json.dumps({"datasets": [
        {"id": "x", "pair": "x-y", "train": "missing.tsv"}]}), encoding="utf-8")
    with pytest.raises(FileNotFoundError):
        load_manifest(manifest)


def test_make_batches_pads_and_is_seed_deterministic():
    pairs = [(["a"] * n, ["b"] * n) for n in range(1, 9)]
    c = ParallelCorpus(pairs)
    sv = build_vocab([c], side="source")
    tv = build_vocab([c], side="target")
    b1 = make_batches(encode_pairs(c, sv, tv), batch_size=3, seed=7)
    b2 = make_batches(encode_pairs(c, sv, tv), batch_size=3, seed=7)
    assert len(b1) == 3
    for x, y in zip(b1, b2):
        assert np.array_equal(x.source, y.source)
        assert np.array_equal(x.target, y.target)
    for batch in b1:
        # every row: sos ... eos then pad
        assert np.all(batch.source[:, 0] == SOS)
        for row in batch.source:
            length = int((row != PAD).sum())
            assert row[length - 1] == EOS
            assert np.all(row[length:] == PAD)
    b3 = make_batches(encode_pairs(c, sv, tv), batch_size=3, seed=8)
    assert any(not np.array_equal(x.source, y.source) for x, y in zip(b1, b3))


def _batches_encoding_each_batch(corpus, sv, tv, batch_size, seed):
    # batching as it ran when every epoch re-encoded its pairs
    order = np.random.default_rng(seed).permutation(len(corpus.pairs))
    for start in range(0, len(order), batch_size):
        chunk = [corpus.pairs[i] for i in order[start:start + batch_size]]
        yield (text.pad_rows([encode(src, sv) for src, _ in chunk]),
               text.pad_rows([encode(tgt, tv) for _, tgt in chunk]))


def test_batches_of_pairs_encoded_once_are_byte_identical():
    rng = np.random.default_rng(3)
    words = ["w%d" % i for i in range(12)]
    pairs = [([words[i] for i in rng.integers(0, 12, rng.integers(1, 9))],
              [words[i] for i in rng.integers(0, 12, rng.integers(1, 9))]) for _ in range(50)]
    corpus = ParallelCorpus(pairs)
    sv = build_vocab([ParallelCorpus(pairs[:30])], side="source")    # later pairs hold unk
    tv = build_vocab([corpus], side="target")
    encoded = encode_pairs(corpus, sv, tv)
    for batch_size in (1, 7, 50, 64):
        for seed in (0, 1, 8):
            got = make_batches(encoded, batch_size, seed)
            want = list(_batches_encoding_each_batch(corpus, sv, tv, batch_size, seed))
            assert len(got) == len(want)
            for batch, (src, tgt) in zip(got, want):
                for a, b in ((batch.source, src), (batch.target, tgt)):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()



def test_load_manifest_ignores_the_pair_label(tmp_path):
    (tmp_path / "t.tsv").write_text("hi!\thallo!\n", encoding="utf-8")
    manifest = tmp_path / "m.json"
    for entry in ({"id": "en-de", "train": "t.tsv"},
                  {"id": "en-de", "pair": "en-de", "train": "t.tsv"}):
        manifest.write_text(json.dumps({"datasets": [entry]}), encoding="utf-8")
        assert load_manifest(manifest)["en-de"]["train"].pairs \
            == [(["hi", "!"], ["hallo", "!"])]


@pytest.mark.parametrize("doc, named", [
    ({}, "'datasets'"),
    ([{"id": "en-de", "train": "t.tsv"}], "'datasets'"),
    ({"datasets": {"id": "en-de"}}, "'datasets'"),
    ({"datasets": ["en-de"]}, "'datasets'[0]"),
    ({"datasets": [{"train": "t.tsv"}]}, "'id'"),
    ({"datasets": [{"id": "a"}, {"id": "b", "test": 3}]}, "'datasets'[1] 'test'")],
    ids=["no-datasets", "top-level-list", "datasets-object", "entry-string",
         "no-id", "split-number"])
def test_manifest_of_another_shape_raises_value_error_naming_the_key(tmp_path, doc, named):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        text.manifest_files(manifest)
    assert named in str(info.value)


def test_manifest_files_resolves_every_split_beside_the_manifest(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "a", "train": "a.tsv", "test": "sub/a.test.tsv"},
        {"id": "b", "valid": "b.tsv"}]}), encoding="utf-8")
    assert text.manifest_files(manifest) == {
        "a": {"train": tmp_path / "a.tsv", "test": tmp_path / "sub" / "a.test.tsv"},
        "b": {"valid": tmp_path / "b.tsv"}}


def test_empty_sentence_error_names_the_pair_index():
    with pytest.raises(ValueError, match="pair 1"):
        ParallelCorpus([(["a"], ["x"]), (["b"], [])])


def test_manifest_that_repeats_a_dataset_id_raises_value_error_naming_it(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": "en-en", "train": "a.tsv"}, {"id": "en-de", "train": "b.tsv"},
        {"id": "en-en", "train": "c.tsv"}]}), encoding="utf-8")
    with pytest.raises(ValueError, match=r"'datasets'\[2\] repeats dataset id 'en-en'"):
        text.manifest_files(manifest)
