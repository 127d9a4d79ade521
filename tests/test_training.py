"""Training regimes, early stopping, freezing invariance, checkpoint format."""

import numpy as np
import pytest

from lrmt import synthetic, training
from lrmt.numerics import Adam
from lrmt.text import ParallelCorpus, build_vocab, make_batches
from lrmt.training import (Checkpoint, CheckpointChecksumError,
                           CheckpointFormatError, CheckpointVersionError,
                           StageSpec, TrainConfig, TransferPlan,
                           VocabMismatchError, carve_validation,
                           early_stopping_trace, fit_with_early_stopping,
                           load_checkpoint, pretrain_copy,
                           run_sequential_plan, train_multitask_joint,
                           transfer_1hop)

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
    assert cfg.layers == 1


def test_train_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(layers=2)
    with pytest.raises(ValueError):
        TrainConfig(hidden_size=0)


# -- optimization sanity --------------------------------------------------------------

def test_overfits_single_pair_to_near_zero_loss():
    corpus = ParallelCorpus("a-b", [(["a", "b", "c"], ["c", "b", "a"])], "train")
    cfg = TrainConfig(arch="gru", seed=0, lr=0.01, **TINY)
    sv = build_vocab([corpus], side="source")
    tv = build_vocab([corpus], side="target")
    model = training.build_model(cfg, sv, tv)
    opt = Adam(model.parameters(), lr=cfg.lr)
    batches = make_batches(corpus, sv, tv, 1, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        loss = training.train_epoch(model, batches, cfg, opt, rng)
    assert loss < 0.01
    assert model.translate(["a", "b", "c"]) == ["c", "b", "a"]


# -- regimes ---------------------------------------------------------------------------

def test_carve_validation_partitions_without_overlap():
    c = ParallelCorpus("a-b", [([f"w{i}"], [f"w{i}"]) for i in range(20)], "train")
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


def test_multitask_trains_with_control_tokens_reserved():
    cfg = TrainConfig(arch="gru", seed=3, **TINY | {"max_epochs": 2})
    data = _data()
    tasks = {"de": synthetic.splits(synthetic.substitution_task, train=20,
                                    valid=4, test=4, vocab_size=10, max_len=5),
             "fr": _data(seed=9)}
    all_train = [data["train"]] + [t["train"] for t in tasks.values()]
    shared = training.shared_source_vocab(all_train, cfg)
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
    plan = TransferPlan([
        StageSpec(dataset_id="en-en", label="pretrain"),
        StageSpec(dataset_id="en-de", prune_mode="most_n", prune_percent=10.0,
                  label="stage1"),
    ])
    results = run_sequential_plan(plan, corpora, cfg, out_dir=tmp_path)
    assert [r["label"] for r in results] == ["pretrain", "stage1"]
    assert (tmp_path / "pretrain.lrmt").exists()
    assert (tmp_path / "stage1.lrmt").exists()
    model = results[1]["checkpoint"].to_model()
    n_expect = int(10.0 / 100 * model.analysis_width)
    assert len(model.pruned_neurons()) == n_expect
    assert results[1]["bleu"] is not None


def test_sequential_plan_rejects_unknown_dataset():
    cfg = TrainConfig(arch="gru", **TINY)
    with pytest.raises(KeyError):
        run_sequential_plan(TransferPlan([StageSpec(dataset_id="nope")]),
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


def test_checkpoint_preserves_pruned_and_frozen_state(tmp_path):
    cfg = TrainConfig(arch="gru", seed=5, **TINY | {"max_epochs": 1})
    ckpt = pretrain_copy(_data()["train"], cfg)
    model = ckpt.to_model()
    model.prune_encoder_units([0, 3])
    model.freeze_encoder()
    path = tmp_path / "p.lrmt"
    training.save_checkpoint(model, path, cfg)
    back = load_checkpoint(path).to_model()
    assert sorted(back.pruned_neurons().tolist()) == [0, 3]
    assert all(p.frozen for p in back.encoder_parameters())
