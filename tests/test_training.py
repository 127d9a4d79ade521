"""Training regimes, early stopping, freezing invariance, checkpoint format."""

import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest

from lrmt import _container, synthetic, training
from lrmt.model import Seq2SeqModel
from lrmt.numerics import Adam, cross_entropy_masked
from lrmt.text import ParallelCorpus, build_vocab, encode_pairs, make_batches
from lrmt.training import (Checkpoint, CheckpointChecksumError,
                           CheckpointFormatError, CheckpointVersionError,
                           StageSpec, TrainConfig,
                           VocabMismatchError, carve_validation,
                           early_stopping_trace, fit_with_early_stopping,
                           load_checkpoint, pretrain_copy,
                           run_sequential_plan, train_multitask_joint,
                           transfer_1hop)

import tape_ops
from reference_decode import reference_greedy_decode

TINY = dict(embed_size=8, hidden_size=8, dropout=0.0, batch_size=8,
            max_epochs=3, patience=2, max_len=20)


def _data(seed=0, **kw):
    return synthetic.splits(synthetic.copy_task, train=40, valid=8, test=8,
                            vocab_size=10, max_len=5, seed=seed, **kw)


# -- early stopping ---------------------------------------------------------------

def test_early_stopping_trace_patience_two():
    assert early_stopping_trace([3.0, 2.0, 2.5, 2.4, 2.6], patience=2) == (4, 2)


def test_early_stopping_trace_monotone_runs_to_end():
    assert early_stopping_trace([3.0, 2.0, 1.0], patience=2) == (3, 3)


def test_early_stopping_trace_immediate_plateau():
    assert early_stopping_trace([1.0, 1.0, 1.0, 1.0], patience=2) == (3, 1)


def test_fit_stops_early_and_keeps_best(tmp_path):
    cfg = TrainConfig(arch="gru", seed=1, **TINY | {"max_epochs": 6, "patience": 1})
    data = _data()
    ckpt = pretrain_copy(data["train"], cfg,
                         metrics_path=tmp_path / "metrics.jsonl")
    history = ckpt.provenance["history"]
    best_epoch = ckpt.provenance["epoch"]
    losses = [h["valid_loss"] for h in history]
    assert losses[best_epoch - 1] == min(losses)
    assert (tmp_path / "metrics.jsonl").exists()
    lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(history)


@pytest.mark.parametrize("losses, patience, expected", [
    ([3.0, 2.5, 2.0, 1.5, 1.0], 3, (5, 5)),                      # improves
    ([3.0, 2.0, 2.0, 2.1, 2.2, 1.0], 3, (5, 2)),                 # plateaus
    ([3.0, 2.0, 2.5, 2.4, 1.5, 1.6, 1.7, 1.8, 1.0], 3, (8, 5)),  # recovers
], ids=["improves", "plateaus", "recovers"])
def test_fit_follows_the_stopping_rule(monkeypatch, losses, patience, expected):
    scripted = iter(losses)
    monkeypatch.setattr(training, "evaluate_loss", lambda model, batches: next(scripted))
    cfg = TrainConfig(arch="gru", seed=1, **TINY | {"max_epochs": len(losses),
                                                    "patience": patience})
    ckpt = pretrain_copy(_data()["train"], cfg)
    assert early_stopping_trace(losses, patience) == expected
    assert (len(ckpt.provenance["history"]), ckpt.provenance["epoch"]) == expected
    assert ckpt.provenance["valid_loss"] == losses[expected[1] - 1]


def test_fit_raises_named_error_on_nan_validation_loss(monkeypatch):
    monkeypatch.setattr(training, "evaluate_loss", lambda model, batches: float("nan"))
    cfg = TrainConfig(arch="gru", seed=1, **TINY)
    with pytest.raises(FloatingPointError, match="stage 'pretrain', epoch 1"):
        pretrain_copy(_data()["train"], cfg)


# -- config validation --------------------------------------------------------------

def test_train_config_defaults_are_full_scale():
    cfg = TrainConfig()
    assert (cfg.embed_size, cfg.hidden_size, cfg.max_epochs) == (300, 512, 50)
    assert (cfg.lr, cfg.batch_size, cfg.clip_norm, cfg.dropout) == (0.001, 40, 5.0, 0.5)


def test_train_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(hidden_size=0)
    with pytest.raises(ValueError, match="unknown architecture 'foo'"):
        TrainConfig(arch="foo")


@pytest.mark.parametrize("field, value", [
    ("hidden_size", True), ("batch_size", 2.5), ("max_len", 1.0), ("seed", False),
    ("lr", True), ("arch", None), ("dropout", "0.1")])
def test_train_config_rejects_a_value_of_another_type(field, value):
    with pytest.raises(TypeError, match="%s: expected" % field):
        TrainConfig(**{field: value})


def test_train_config_takes_values_as_given():
    # an int where a float goes, and numpy integers as seeds, are kept unconverted
    cfg = TrainConfig(lr=1, dropout=0, l2=0, seed=np.int64(3))
    assert (type(cfg.lr), type(cfg.dropout), type(cfg.l2)) == (int, int, int)
    assert type(cfg.seed) is np.int64 and cfg.seed == 3
    assert TrainConfig(seed=np.uint8(7)).seed == 7


@pytest.mark.parametrize("field, value", [
    ("freeze_encoder", "no"), ("freeze_encoder", 1), ("prune_percent", True),
    ("prune_percent", "10"), ("label", 3), ("dataset_id", None)])
def test_stage_spec_rejects_a_value_of_another_type(field, value):
    with pytest.raises(TypeError, match="%s: expected" % field):
        StageSpec(**dict({"dataset_id": "en-de"}, **{field: value}))


def test_stage_spec_takes_an_int_percent_as_given():
    spec = StageSpec(dataset_id="en-de", prune_mode="most_n", prune_percent=10)
    assert type(spec.prune_percent) is int


def test_check_plan_rejects_an_empty_plan():
    with pytest.raises(ValueError, match="at least one stage"):
        training.check_plan([], {"en-en": _data()})


# -- optimization sanity --------------------------------------------------------------

def test_overfits_single_pair_to_near_zero_loss():
    corpus = ParallelCorpus([(["a", "b", "c"], ["c", "b", "a"])])
    cfg = TrainConfig(arch="gru", seed=0, lr=0.01, **TINY)
    sv = build_vocab([corpus], side="source")
    tv = build_vocab([corpus], side="target")
    model = training.build_model(cfg, sv, tv)
    opt = Adam(model.parameters(), lr=cfg.lr)
    batches = make_batches(encode_pairs(corpus, sv, tv), 1, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        loss = training.train_epoch(model, batches, cfg, opt, rng)
    assert loss < 0.01
    assert model.translate(["a", "b", "c"]) == ["c", "b", "a"]


def test_frozen_encoder_stays_off_the_tape():
    corpus = _data()["train"]
    cfg = TrainConfig(arch="abgru", seed=0, **TINY)
    sv = build_vocab([corpus], side="source")
    tv = build_vocab([corpus], side="target")
    model = training.build_model(cfg, sv, tv).freeze_encoder()
    batches = make_batches(encode_pairs(corpus, sv, tv), cfg.batch_size, seed=0)
    training.train_epoch(model, batches, cfg, Adam(model.parameters(), lr=cfg.lr),
                         np.random.default_rng(0))
    encoder = {id(p) for p in model.encoder_parameters()}
    for name, p in model.named_parameters().items():
        if id(p) in encoder:
            assert p.grad is None, name
        else:
            assert p.grad is not None, name


# -- regimes ---------------------------------------------------------------------------

def test_carve_validation_partitions_without_overlap():
    c = ParallelCorpus([([f"w{i}"], [f"w{i}"]) for i in range(20)])
    train, valid = carve_validation(c, fraction=0.25, seed=3)
    assert len(train.pairs) == 15 and len(valid.pairs) == 5
    train_set = {tuple(s) for s, _ in train.pairs}
    valid_set = {tuple(s) for s, _ in valid.pairs}
    assert not train_set & valid_set


def test_transfer_keeps_frozen_encoder_bytes_identical():
    cfg = TrainConfig(arch="abgru", seed=2, **TINY)
    data = _data()
    target = synthetic.splits(synthetic.substitution_task, train=40, valid=8,
                              test=8, vocab_size=10, max_len=5, seed=5)
    pre = pretrain_copy(data["train"], cfg)
    enc_names = [p.name or "src_emb" for p in pre.to_model().encoder_parameters()]
    before = {n: pre.tensors[n].tobytes() for n in enc_names}
    post = transfer_1hop(pre, target, cfg)
    after = {n: post.tensors[n].tobytes() for n in enc_names}
    assert before == after
    # the decoder did actually train
    assert post.tensors["dec.W_i"].tobytes() != pre.tensors["dec.W_i"].tobytes() \
        or post.tensors["out.W"].shape != pre.tensors["out.W"].shape


def test_multitask_requires_reserved_control_tokens():
    cfg = TrainConfig(arch="gru", seed=3, **TINY)
    data = _data()
    corpus = data["train"]
    # pretrain WITHOUT control tokens in the shared vocabulary
    bare_vocab = build_vocab([training.copy_corpus([s for s, _ in corpus.pairs])],
                             side="source")
    pre = pretrain_copy(corpus, cfg, src_vocab=bare_vocab)
    tasks = {"de": synthetic.splits(synthetic.substitution_task, train=20,
                                    valid=4, test=4, vocab_size=10, max_len=5)}
    with pytest.raises(VocabMismatchError):
        train_multitask_joint(pre, tasks, cfg)


def test_combine_multitask_names_an_unknown_language():
    vocab = training.shared_source_vocab([_data()["train"]])
    with pytest.raises(ValueError, match="unknown language 'xx'"):
        training.combine_multitask({"de": _data(), "xx": _data()}, vocab)


def test_multitask_trains_with_control_tokens_reserved():
    cfg = TrainConfig(arch="gru", seed=3, **TINY | {"max_epochs": 2})
    data = _data()
    tasks = {"de": synthetic.splits(synthetic.substitution_task, train=20,
                                    valid=4, test=4, vocab_size=10, max_len=5),
             "fr": _data(seed=9)}
    all_train = [data["train"]] + [t["train"] for t in tasks.values()]
    shared = training.shared_source_vocab(all_train)
    pre = pretrain_copy(data["train"], cfg, src_vocab=shared)
    ckpt = train_multitask_joint(pre, tasks, cfg)
    assert ckpt.provenance["stage"] == "multitask"
    for tok in ("<2de>", "<2fr>"):
        assert tok in ckpt.src_vocab


def test_sequential_plan_runs_all_stages_and_prunes(tmp_path):
    cfg = TrainConfig(arch="abgru", seed=4, **TINY | {"max_epochs": 2})
    corpora = {"en-en": _data(),
               "en-de": synthetic.splits(synthetic.substitution_task, train=30,
                                         valid=6, test=6, vocab_size=10,
                                         max_len=5)}
    plan = [
        StageSpec(dataset_id="en-en", label="pretrain"),
        StageSpec(dataset_id="en-de", prune_mode="most_n", prune_percent=10.0,
                  label="stage1"),
    ]
    results = run_sequential_plan(plan, corpora, cfg, out_dir=tmp_path)
    assert [r["label"] for r in results] == ["pretrain", "stage1"]
    assert (tmp_path / "pretrain.lrmt").exists()
    assert (tmp_path / "stage1.lrmt").exists()
    model = results[1]["checkpoint"].to_model()
    n_expect = int(10.0 / 100 * model.analysis_width)
    assert len(model.pruned_neurons()) == n_expect
    assert results[1]["bleu"] is not None


def test_sequential_plan_rejects_pruning_after_stage_without_test(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before rejecting the plan")

    monkeypatch.setattr(training, "fit_with_early_stopping", no_training)
    cfg = TrainConfig(arch="gru", **TINY)
    data = _data()
    corpora = {"en-en": {"train": data["train"], "valid": data["valid"]},
               "en-de": data}
    plan = [
        StageSpec(dataset_id="en-en", label="pretrain"),
        StageSpec(dataset_id="en-de", prune_mode="dead", label="stage1"),
    ]
    with pytest.raises(ValueError, match="'stage1'.*'pretrain'"):
        run_sequential_plan(plan, corpora, cfg)


def test_sequential_stage_zero_carries_the_plan_label(tmp_path):
    cfg = TrainConfig(arch="gru", seed=1, **TINY)
    metrics = tmp_path / "metrics.jsonl"
    (result,) = run_sequential_plan([StageSpec(dataset_id="en-en", label="copy")],
                                    {"en-en": _data()}, cfg, metrics_path=metrics)
    provenance = result["checkpoint"].provenance
    assert provenance["stage"] == "copy"
    assert {row["stage"] for row in provenance["history"]} == {"copy"}
    assert {json.loads(line)["stage"]
            for line in metrics.read_text().splitlines()} == {"copy"}


def test_checkpoint_records_the_model_shape_not_the_config():
    data = _data()
    pre = pretrain_copy(data["train"], TrainConfig(arch="gru", seed=1, **TINY))
    other = TrainConfig(arch="lstm", seed=1, **TINY | {"embed_size": 4, "hidden_size": 16,
                                                       "dropout": 0.3, "max_epochs": 1})
    ckpt = transfer_1hop(pre, data, other)
    assert ckpt.arch == "gru"
    assert {k: ckpt.config[k] for k in ("arch", "embed_size", "hidden_size", "dropout")} \
        == {"arch": "gru", "embed_size": 8, "hidden_size": 8, "dropout": 0.0}
    ckpt.to_model()


def test_sequential_plan_rejects_unknown_dataset():
    cfg = TrainConfig(arch="gru", **TINY)
    with pytest.raises(KeyError):
        run_sequential_plan([StageSpec(dataset_id="nope")],
                            {}, cfg)


# -- determinism ------------------------------------------------------------------------

def test_training_is_byte_deterministic():
    cfg = TrainConfig(arch="abgru", seed=11, **TINY | {"max_epochs": 2})
    c1 = pretrain_copy(_data()["train"], cfg)
    c2 = pretrain_copy(_data()["train"], cfg)
    assert set(c1.tensors) == set(c2.tensors)
    for name in c1.tensors:
        assert c1.tensors[name].tobytes() == c2.tensors[name].tobytes(), name


# -- checkpoint format --------------------------------------------------------------------

def _small_ckpt(tmp_path, seed=0):
    cfg = TrainConfig(arch="gru", seed=seed, **TINY | {"max_epochs": 1})
    ckpt = pretrain_copy(_data()["train"], cfg)
    path = tmp_path / "m.lrmt"
    ckpt.save(path)
    return ckpt, path


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    ckpt, path = _small_ckpt(tmp_path)
    back = load_checkpoint(path)
    assert back.arch == ckpt.arch
    assert list(back.src_vocab) == list(ckpt.src_vocab)
    assert list(back.tgt_vocab) == list(ckpt.tgt_vocab)
    for name in ckpt.tensors:
        assert back.tensors[name].tobytes() == ckpt.tensors[name].tobytes()
    assert back.frozen == ckpt.frozen and back.pruned == ckpt.pruned
    # forward equality on the restored model
    m1, m2 = ckpt.to_model(), back.to_model()
    src = np.array([[1, 4, 5, 2]])
    assert np.array_equal(m1.encode(src).z.data, m2.encode(src).z.data)


def test_checkpoint_with_the_deleted_config_keys_loads(tmp_path):
    ckpt, _ = _small_ckpt(tmp_path)
    # version 2 files written before TrainConfig lost betas, eps and min_freq
    old = dataclasses.replace(ckpt, config=dict(ckpt.config, betas=[0.9, 0.999],
                                                eps=1e-8, min_freq=1))
    old.save(tmp_path / "old.lrmt")
    back = load_checkpoint(tmp_path / "old.lrmt")
    assert back.config == ckpt.config
    assert back.train_config() == ckpt.train_config()


@pytest.mark.parametrize("change, named", [
    (lambda cfg: cfg.pop("embed_size"), "embed_size"),
    (lambda cfg: cfg.update(hidden_size="4"), "hidden_size"),
    (lambda cfg: cfg.update(foo=1), "foo")], ids=["missing", "ill-typed", "unknown"])
def test_checkpoint_with_a_malformed_config_is_a_format_error(tmp_path, change, named):
    ckpt, _ = _small_ckpt(tmp_path)
    config = dict(ckpt.config)
    change(config)
    path = tmp_path / "bad.lrmt"
    dataclasses.replace(ckpt, config=config).save(path)
    with pytest.raises(CheckpointFormatError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and named in str(info.value)


def test_checkpoint_config_loads_exactly_as_stored(tmp_path):
    ckpt, _ = _small_ckpt(tmp_path)
    stored = dict(ckpt.config, lr=1, dropout=0)      # ints where floats go
    dataclasses.replace(ckpt, config=stored).save(tmp_path / "ints.lrmt")
    back = load_checkpoint(tmp_path / "ints.lrmt")
    assert back.config == stored
    assert (type(back.config["lr"]), type(back.config["dropout"])) == (int, int)
    back.save(tmp_path / "again.lrmt")
    assert (tmp_path / "again.lrmt").read_bytes() == (tmp_path / "ints.lrmt").read_bytes()


def test_checkpoint_whose_header_arch_differs_from_its_config_is_a_format_error(tmp_path):
    _, path = _small_ckpt(tmp_path)
    header, arrays = _container.read(path, training.CHECKPOINT_MAGIC,
                                     (training.CHECKPOINT_VERSION,), lambda h, a: (h, a))
    entries = header.pop("tensors")
    _container.write(path, training.CHECKPOINT_MAGIC, training.CHECKPOINT_VERSION,
                     dict(header, arch="lstm"),
                     [(e["name"], arrays[e["name"]], {"frozen": e["frozen"], "pruned": e["pruned"]})
                      for e in entries])
    with pytest.raises(CheckpointFormatError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and "'lstm'" in str(info.value)


def test_checkpoint_with_an_attention_score_bias_decodes_as_before(float64_mode, tmp_path,
                                                                    monkeypatch):
    words = ["a", "b", "c", "d", "e", "f"]
    vocab = build_vocab([ParallelCorpus([(words, words)])], side="source")
    model = Seq2SeqModel("abgru", vocab, vocab, embed_size=5, hidden_size=4, dropout=0.0)
    rng = np.random.default_rng(2)
    for p in model.parameters():                   # sharp attention, varied outputs
        p.data[...] = rng.normal(scale=0.7, size=p.shape)
    ckpt = Checkpoint.from_model(model, TrainConfig(arch="abgru", embed_size=5, hidden_size=4))
    ckpt.tensors["attn_score.b"] = np.array([1.7])  # as files written with the bias hold it
    ckpt.save(tmp_path / "old.lrmt")
    back = load_checkpoint(tmp_path / "old.lrmt").to_model()
    assert "attn_score.b" not in back.named_parameters()
    sources = [[1] + [4 + (i * k) % 6 for k in range(1 + i % 5)] + [2] for i in range(12)]
    decoded = back.greedy_decode_batch(sources, max_len=8)
    assert len({tuple(out) for out in decoded}) > 3
    # the decoder as it was: the bias added to every source position's score
    softmax = tape_ops.masked_softmax
    monkeypatch.setattr(tape_ops, "masked_softmax",
                        lambda scores, mask: softmax(scores + 1.7, mask))
    assert decoded == [reference_greedy_decode(back, ids, max_len=8) for ids in sources]


def test_checkpoint_save_is_deterministic(tmp_path):
    ckpt, path = _small_ckpt(tmp_path)
    ckpt.save(tmp_path / "again.lrmt")
    assert path.read_bytes() == (tmp_path / "again.lrmt").read_bytes()


def test_corrupted_checkpoint_rejected(tmp_path):
    _, path = _small_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    bad = tmp_path / "bad.lrmt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(bad)


def test_wrong_magic_and_version_rejected(tmp_path):
    _, path = _small_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    notmagic = tmp_path / "notmagic.lrmt"
    notmagic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(notmagic)
    import zlib
    futures = bytearray(raw)
    futures[4:8] = (99).to_bytes(4, "little")
    futures[-4:] = (zlib.crc32(bytes(futures[:-4])) & 0xFFFFFFFF).to_bytes(4, "little")
    future = tmp_path / "future.lrmt"
    future.write_bytes(bytes(futures))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(future)


def test_truncated_checkpoint_rejected(tmp_path):
    _, path = _small_ckpt(tmp_path)
    raw = path.read_bytes()
    trunc = tmp_path / "trunc.lrmt"
    trunc.write_bytes(raw[:len(raw) // 2])
    with pytest.raises((CheckpointFormatError, CheckpointChecksumError)):
        load_checkpoint(trunc)


def _rewritten(raw, header=None, trailing=b""):
    """Checkpoint bytes with a replaced header and/or bytes appended after
    the last tensor, under a valid CRC."""
    hlen = struct.unpack("<Q", raw[8:16])[0]
    head = raw[16:16 + hlen] if header is None else json.dumps(header).encode("utf-8")
    body = (raw[:8] + struct.pack("<Q", len(head)) + head
            + raw[16 + hlen:-4] + trailing)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _write(path, raw):
    path.write_bytes(raw)
    return path


def test_checkpoint_header_missing_a_key_is_a_format_error(tmp_path):
    _, path = _small_ckpt(tmp_path)
    raw = path.read_bytes()
    header = json.loads(raw[16:16 + struct.unpack("<Q", raw[8:16])[0]])
    del header["provenance"]
    bad = tmp_path / "nokey.lrmt"
    bad.write_bytes(_rewritten(raw, header=header))
    with pytest.raises(CheckpointFormatError, match="provenance"):
        load_checkpoint(bad)


def test_checkpoint_bytes_after_the_payload_are_a_format_error(tmp_path):
    _, path = _small_ckpt(tmp_path)
    raw = path.read_bytes()
    assert load_checkpoint(_write(tmp_path / "same.lrmt", _rewritten(raw))).tensors
    with pytest.raises(CheckpointFormatError, match="3 stray bytes"):
        load_checkpoint(_write(tmp_path / "stray.lrmt", _rewritten(raw, trailing=b"abc")))


def test_checkpoint_save_replaces_the_file_whole_or_not_at_all(tmp_path, monkeypatch):
    ckpt, path = _small_ckpt(tmp_path)
    before = path.read_bytes()

    def failed_rename(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(_container.os, "replace", failed_rename)
    ckpt.provenance["note"] = "a second save"
    with pytest.raises(OSError, match="disk full"):
        ckpt.save(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.lrmt"]


def test_checkpoint_preserves_pruned_and_frozen_state(tmp_path):
    cfg = TrainConfig(arch="gru", seed=5, **TINY | {"max_epochs": 1})
    ckpt = pretrain_copy(_data()["train"], cfg)
    model = ckpt.to_model()
    model.prune_encoder_units([0, 3])
    model.freeze_encoder()
    path = tmp_path / "p.lrmt"
    Checkpoint.from_model(model, cfg).save(path)
    back = load_checkpoint(path).to_model()
    assert sorted(back.pruned_neurons().tolist()) == [0, 3]
    assert all(p.frozen for p in back.encoder_parameters())


def test_fit_encodes_each_split_once_and_batches_validation_once(monkeypatch):
    calls = {"encode_pairs": 0, "make_batches": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
    cfg = TrainConfig(arch="gru", **dict(TINY, patience=3))
    data = _data()
    sv = build_vocab([data["train"]], side="source")
    tv = build_vocab([data["train"]], side="target")
    model = training.build_model(cfg, sv, tv)
    ckpt = training.fit_with_early_stopping(model, data["train"], data["valid"], cfg)
    assert len(ckpt.provenance["history"]) == 3
    # train and valid encoded once; one batching per epoch plus the validation batches
    assert calls == {"encode_pairs": 2, "make_batches": 3 + 1}


def test_evaluate_loss_matches_the_taped_forward_bit_for_bit():
    corpus = _data()["valid"]
    cfg = TrainConfig(arch="abgru", seed=2, **TINY)
    sv = build_vocab([corpus], side="source")
    tv = build_vocab([corpus], side="target")
    model = training.build_model(cfg, sv, tv)
    batches = make_batches(encode_pairs(corpus, sv, tv), 3, seed=0)
    taped = []
    for batch in batches:
        logits = model.forward_teacher_forced(batch, tf_ratio=1.0, rng=None)
        loss = cross_entropy_masked(logits, batch.target[:, 1:])
        assert loss.requires_grad
        taped.append(loss.item())
    assert training.evaluate_loss(model, batches) == float(np.mean(taped))


@pytest.mark.parametrize("label", ["de/fr", "de\\fr", ".", ".."])
def test_sequential_plan_rejects_unsafe_label_before_training(monkeypatch, label):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before rejecting the plan")

    monkeypatch.setattr(training, "fit_with_early_stopping", no_training)
    cfg = TrainConfig(arch="gru", **TINY)
    data = _data()
    plan = [StageSpec(dataset_id="en-en", label="pretrain"),
            StageSpec(dataset_id="en-de", label=label)]
    with pytest.raises(ValueError, match="cannot name a file"):
        run_sequential_plan(plan, {"en-en": data, "en-de": data}, cfg)
