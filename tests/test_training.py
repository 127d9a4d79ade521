"""Training regimes, early stopping, freezing invariance, checkpoint format."""

import dataclasses
import json
import re
import struct
import zlib

import numpy as np
import pytest

from lrmt import _container, synthetic, training
from lrmt.bleu import evaluate_corpus
from lrmt.model import ARCHITECTURES, Seq2SeqModel
from lrmt.numerics import Adam, cross_entropy_masked, no_grad
from lrmt.text import PAD, SOS, ParallelCorpus, build_vocab, encode_pairs, make_batches
from lrmt.training import (Checkpoint, CheckpointChecksumError,
                           CheckpointFormatError, CheckpointVersionError,
                           StageSpec, TrainConfig,
                           VocabMismatchError, carve_validation, continue_plan,
                           copy_corpus, fit_with_early_stopping,
                           load_checkpoint, pretrain_copy,
                           run_sequential_plan, train_multitask_joint,
                           transfer_1hop)
from lrmt.xray import capture_activations, mass_matrices

import tape_ops
from reference_decode import reference_greedy_decode

TINY = dict(embed_size=8, hidden_size=8, dropout=0.0, batch_size=8,
            max_epochs=3, patience=2, max_len=20)


def _data(seed=0, **kw):
    return synthetic.splits(synthetic.copy_task, train=40, valid=8, test=8,
                            vocab_size=10, max_len=5, seed=seed, **kw)


# -- early stopping ---------------------------------------------------------------

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
    ([3.0, 2.0, 2.5, 2.4, 2.6], 2, (4, 2)),                      # patience two
    ([3.0, 2.0, 1.0], 2, (3, 3)),                                # runs to the end
    ([1.0, 1.0, 1.0, 1.0], 2, (3, 1)),                           # plateau at once
], ids=["improves", "plateaus", "recovers", "patience-two", "runs-to-the-end",
        "plateau-at-once"])
def test_fit_follows_the_stopping_rule(monkeypatch, losses, patience, expected):
    scripted = iter(losses)
    monkeypatch.setattr(training, "evaluate_loss", lambda model, batches: next(scripted))
    cfg = TrainConfig(arch="gru", seed=1, **TINY | {"max_epochs": len(losses),
                                                    "patience": patience})
    ckpt = pretrain_copy(_data()["train"], cfg)
    assert (len(ckpt.provenance["history"]), ckpt.provenance["epoch"]) == expected
    assert ckpt.provenance["valid_loss"] == losses[expected[1] - 1]


def test_fit_raises_named_error_on_nan_validation_loss(monkeypatch):
    monkeypatch.setattr(training, "evaluate_loss", lambda model, batches: float("nan"))
    cfg = TrainConfig(arch="gru", seed=1, **TINY)
    with pytest.raises(FloatingPointError, match="stage 'pretrain', epoch 1"):
        pretrain_copy(_data()["train"], cfg)


def test_fit_raises_named_error_on_a_non_finite_training_loss():
    cfg = TrainConfig(arch="gru", **TINY)
    data = _data()
    model = training.build_model(cfg, *training.vocabularies(data["train"]))
    model.named_parameters()["src_emb"].data[:] = np.nan
    with pytest.raises(FloatingPointError, match=re.escape("non-finite training loss (nan)")):
        fit_with_early_stopping(model, data["train"], data["valid"], cfg)


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


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_training_step_holds_one_tape(arch, traced_peak):
    # backward releases each batch's tape, so a second equal batch trains in
    # the memory of the first instead of beside the first one's tape
    corpus = synthetic.copy_task(pairs=64, vocab_size=12, min_len=2, max_len=8, seed=0)
    cfg = TrainConfig(arch=arch, seed=0, embed_size=16, hidden_size=32, batch_size=64)
    sv = build_vocab([corpus], side="source")
    tv = build_vocab([corpus], side="target")
    (batch,) = make_batches(encode_pairs(corpus, sv, tv), cfg.batch_size, seed=0)

    def peak(batches):
        model = training.build_model(cfg, sv, tv)
        opt = Adam(model.parameters(), lr=cfg.lr, l2=cfg.l2)
        rng = np.random.default_rng(0)
        return traced_peak(lambda: training.train_epoch(model, batches, cfg, opt, rng))

    one, two = peak([batch]), peak([batch, batch])
    assert two <= 1.05 * one, (one, two)


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


def test_sequential_stage_that_does_not_freeze_trains_the_encoder_again(tmp_path):
    # the stage before it froze the encoder; its own flag decides, both ways
    cfg = TrainConfig(arch="gru", seed=2, **TINY | {"max_epochs": 2})
    task = synthetic.splits(synthetic.substitution_task, train=30, valid=6, test=6,
                            vocab_size=10, max_len=5)
    plan = [StageSpec(dataset_id="en-en", label="en"),
            StageSpec(dataset_id="en-de", label="de"),
            StageSpec(dataset_id="en-fr", label="fr", freeze_encoder=False)]
    results = run_sequential_plan(plan, {"en-en": _data(), "en-de": task, "en-fr": task}, cfg)
    de, fr = (results[k]["checkpoint"] for k in (1, 2))
    names = [p.name for p in de.to_model().encoder_parameters()]
    assert all(de.frozen[n] for n in names)
    assert not any(fr.frozen[n] for n in names)
    assert all(fr.tensors[n].tobytes() != de.tensors[n].tobytes() for n in names)


def _no_training(*args, **kwargs):
    raise AssertionError("trained before rejecting the plan")


def _entry_points(corpora, cfg):
    """A plan run whole, and continued from an untrained stage-0 checkpoint, on
    `corpora`: each takes the plan."""
    model = training.build_model(cfg, *training.vocabularies(corpora["en-en"]["train"]))
    pretrained = Checkpoint.from_model(model, cfg)
    return (lambda plan: run_sequential_plan(plan, corpora, cfg),
            lambda plan: continue_plan(pretrained, plan, corpora, cfg))


def test_sequential_plan_rejects_pruning_after_stage_without_test(monkeypatch):
    monkeypatch.setattr(training, "fit_with_early_stopping", _no_training)
    cfg = TrainConfig(arch="gru", **TINY)
    data = _data()
    corpora = {"en-en": {"train": data["train"], "valid": data["valid"]},
               "en-de": data}
    plan = [
        StageSpec(dataset_id="en-en", label="pretrain"),
        StageSpec(dataset_id="en-de", prune_mode="dead", label="stage1"),
    ]
    for run in _entry_points(corpora, cfg):
        with pytest.raises(ValueError, match="'stage1'.*'pretrain'"):
            run(plan)


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


MASS_ARRAYS = ("signed_mass", "magnitude_mass", "max_mass", "hit_count")


@pytest.mark.parametrize("dropout, tf_ratio", [(0.0, 1.0), (0.5, 0.5)])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_plan_continued_from_its_stage_0_checkpoint_is_the_plan(tmp_path, arch, dropout,
                                                                  tf_ratio):
    cfg = TrainConfig(arch=arch, seed=3, **TINY | {"max_epochs": 2, "dropout": dropout,
                                                   "tf_ratio": tf_ratio})
    corpora = {"en-en": _data(), **{ds: synthetic.splits(
        synthetic.substitution_task, train=30, valid=6, test=6, vocab_size=10, max_len=5,
        seed=seed) for ds, seed in (("en-de", 1), ("en-fr", 2))}}
    plan = [StageSpec(dataset_id="en-en", label="pretrain"),
            StageSpec(dataset_id="en-de", prune_mode="most_n", prune_percent=25.0,
                      label="most25"),
            StageSpec(dataset_id="en-fr", prune_mode="dead", freeze_encoder=False,
                      label="dead")]
    whole = run_sequential_plan(plan, corpora, cfg, out_dir=tmp_path / "whole")
    pretrain = (tmp_path / "whole" / "pretrain.lrmt").read_bytes()
    pretrained = load_checkpoint(tmp_path / "whole" / "pretrain.lrmt")
    for run in ("once", "twice"):
        continued = continue_plan(pretrained, plan, corpora, cfg, out_dir=tmp_path / run)
        assert len(continued) == len(whole) == 3
        for a, b in zip(whole, continued):
            name = "%s.lrmt" % a["label"]
            assert (tmp_path / run / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
            assert b["bleu"].score == a["bleu"].score
            for key in MASS_ARRAYS:
                assert np.array_equal(getattr(b["mass"], key), getattr(a["mass"], key)), key
    pretrained.save(tmp_path / "after.lrmt")
    assert (tmp_path / "after.lrmt").read_bytes() == pretrain


def test_continue_plan_scores_and_xrays_the_given_checkpoint_as_stage_0(tmp_path):
    cfg = TrainConfig(arch="abgru", seed=6, **TINY | {"max_epochs": 2})
    data = _data()
    pretrained = pretrain_copy(data["train"], cfg)
    provenance = dict(pretrained.provenance)
    (stage0,) = continue_plan(pretrained, [StageSpec(dataset_id="en-en", label="copy")],
                              {"en-en": data}, cfg, out_dir=tmp_path)
    test = copy_corpus([s for s, _ in data["test"].pairs])
    model = pretrained.to_model()
    assert stage0["bleu"] == evaluate_corpus(model, test, max_len=cfg.max_len)
    mass = mass_matrices(capture_activations(model, test))
    for key in MASS_ARRAYS:
        assert np.array_equal(getattr(stage0["mass"], key), getattr(mass, key)), key
    assert stage0["checkpoint"].provenance == dict(provenance, prune_mode="none")
    assert pretrained.provenance == provenance and "prune_mode" not in provenance
    saved = load_checkpoint(tmp_path / "copy.lrmt")
    assert saved.provenance == stage0["checkpoint"].provenance
    assert all(saved.tensors[n].tobytes() == t.tobytes() for n, t in pretrained.tensors.items())


def test_continue_plan_from_a_pruned_checkpoint_keeps_its_prune_record(tmp_path):
    cfg = TrainConfig(arch="gru", seed=6, **TINY | {"max_epochs": 2})
    data = _data()
    pretrained = pretrain_copy(data["train"], cfg)
    model = pretrained.to_model()        # pruned as `lrmt prune` prunes: most_n 25%
    mass = mass_matrices(capture_activations(model, data["test"]))
    record = training.prune_encoder(model, mass, "most_n", 25.0)
    pruned = Checkpoint.from_model(model, cfg, provenance={**pretrained.provenance, **record})
    assert record["pruned"] and pruned.to_model().pruned_neurons().tolist() == record["pruned"]
    (stage0,) = continue_plan(pruned, [StageSpec(dataset_id="en-en", label="copy")],
                              {"en-en": data}, cfg, out_dir=tmp_path)
    assert stage0["checkpoint"].provenance == pruned.provenance
    assert load_checkpoint(tmp_path / "copy.lrmt").provenance == dict(
        pretrained.provenance, prune_mode="most_n", prune_percent=25.0, pruned=record["pruned"])


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


def test_pretrain_copy_is_train_from_scratch_on_the_copy_corpus(tmp_path):
    cfg = TrainConfig(arch="abgru", seed=5, **TINY | {"max_epochs": 2, "dropout": 0.5})
    corpus = _data()["train"]
    pretrain_copy(corpus, cfg).save(tmp_path / "pretrain.lrmt")
    training.train_from_scratch({"train": training.copy_corpus([s for s, _ in corpus.pairs])},
                                cfg, stage_label="pretrain").save(tmp_path / "scratch.lrmt")
    assert (tmp_path / "pretrain.lrmt").read_bytes() == (tmp_path / "scratch.lrmt").read_bytes()


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
    assert np.array_equal(m1.encode(src).state[0].data, m2.encode(src).state[0].data)


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


def _set_pruned(ckpt, name, ids, value=None):
    ckpt.pruned[name] = ids
    if value is not None:
        ckpt.tensors[name].reshape(-1)[0] = value


@pytest.mark.parametrize("change, named", [
    (lambda c: _set_pruned(c, "enc.b", [24]), "enc.b"),
    (lambda c: _set_pruned(c, "enc.b", [-1]), "enc.b"),
    (lambda c: _set_pruned(c, "enc.b", ["3"]), "enc.b"),
    (lambda c: _set_pruned(c, "enc.b", [1.0]), "enc.b"),
    (lambda c: _set_pruned(c, "enc.b", 3), "enc.b"),
    (lambda c: _set_pruned(c, "enc.W_i", [0], value=0.00087), "enc.W_i"),
    (lambda c: c.frozen.update({"out.W": 1}), "out.W"),
    (lambda c: c.tensors.update({k: v.astype(np.int64) for k, v in c.tensors.items()}),
     "dec.W_h"),
    (lambda c: c.tensors.update({"out.b": c.tensors["out.b"].astype(np.float64)}), "out.b")],
    ids=["pruned-past-size", "pruned-negative", "pruned-str", "pruned-float",
         "pruned-not-a-list", "pruned-nonzero", "frozen-not-bool", "int64", "mixed-dtype"])
def test_checkpoint_with_malformed_tensor_metadata_is_a_format_error(tmp_path, change, named):
    ckpt, _ = _small_ckpt(tmp_path)
    change(ckpt)
    path = tmp_path / "bad.lrmt"
    ckpt.save(path)
    with pytest.raises(CheckpointFormatError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and repr(named) in str(info.value)


@pytest.mark.parametrize("change, named", [
    (lambda c: setattr(c, "src_vocab", 5), "src_vocab"),
    (lambda c: setattr(c, "src_vocab", c.src_vocab[1:]), "src_vocab"),
    (lambda c: setattr(c, "src_vocab", c.src_vocab + ["extra"]), "src_vocab"),
    (lambda c: setattr(c, "tgt_vocab", c.tgt_vocab[:-1]), "tgt_vocab"),
    (lambda c: setattr(c, "tgt_vocab", c.tgt_vocab[:4] + list(range(len(c.tgt_vocab) - 4))),
     "tgt_vocab"),
    (lambda c: setattr(c, "provenance", [1]), "provenance")],
    ids=["vocab-not-a-list", "no-reserved-prefix", "vocab-one-long", "vocab-one-short",
         "vocab-of-ints", "provenance-not-an-object"])
def test_checkpoint_with_malformed_vocabulary_or_provenance_is_a_format_error(tmp_path, change,
                                                                               named):
    ckpt, _ = _small_ckpt(tmp_path)
    change(ckpt)
    path = tmp_path / "bad.lrmt"
    ckpt.save(path)
    with pytest.raises(CheckpointFormatError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and repr(named) in str(info.value)


@pytest.mark.parametrize("key", ["src_vocab", "tgt_vocab"])
def test_checkpoint_whose_vocabulary_repeats_a_token_is_a_format_error(tmp_path, key):
    ckpt, _ = _small_ckpt(tmp_path)
    vocab = getattr(ckpt, key)
    setattr(ckpt, key, vocab[:-1] + [vocab[4]])         # one entry per row still
    path = tmp_path / "repeats.lrmt"
    ckpt.save(path)
    with pytest.raises(CheckpointFormatError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and "repeats token %r" % vocab[4] in str(info.value)


@pytest.mark.parametrize("change, message", [
    (lambda t: t.pop("out.b"), "missing tensor 'out.b'"),
    (lambda t: t.update({"out.b": t["out.b"][:-1]}), "shape mismatch for 'out.b'")],
    ids=["missing-tensor", "shape-mismatch"])
def test_checkpoint_whose_tensors_do_not_fit_the_model_fails_to_build_it(tmp_path, change,
                                                                          message):
    ckpt, _ = _small_ckpt(tmp_path)
    change(ckpt.tensors)
    ckpt.save(tmp_path / "bad.lrmt")
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        load_checkpoint(tmp_path / "bad.lrmt").to_model()


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
                        lambda scores, mask: softmax(tape_ops.add(scores, 1.7), mask))
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


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("frozen, dropout, once", [
    (True, 0.0, True), (False, 0.0, False), (True, 0.5, False),
], ids=["frozen", "trainable", "frozen-dropout"])
def test_fit_encodes_each_sentence_once_only_for_a_fixed_encoder(monkeypatch, epochs, frozen,
                                                                 dropout, once):
    rows = []
    encode = Seq2SeqModel.encode

    def counted(self, source, rng=None):
        rows.append(len(source))
        return encode(self, source, rng=rng)

    monkeypatch.setattr(Seq2SeqModel, "encode", counted)
    cfg = TrainConfig(arch="abgru", **dict(TINY, dropout=dropout, max_epochs=epochs,
                                           patience=epochs))
    data = _data()
    sv = build_vocab([data["train"]], side="source")
    tv = build_vocab([data["train"]], side="target")
    model = training.build_model(cfg, sv, tv)
    if frozen:
        model.freeze_encoder()
    ckpt = training.fit_with_early_stopping(model, data["train"], data["valid"], cfg)
    assert len(ckpt.provenance["history"]) == epochs
    sentences = len(data["train"]) + len(data["valid"])
    assert sum(rows) == (sentences if once else epochs * sentences)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_cached_batch_encoding_equals_the_batch_encoded(arch):
    data = synthetic.splits(synthetic.copy_task, train=120, valid=8, test=8, vocab_size=10,
                            max_len=7, seed=5)
    cfg = TrainConfig(arch=arch, seed=2, **TINY)
    sv = build_vocab([data["train"]], side="source")
    tv = build_vocab([data["train"]], side="target")
    model = training.build_model(cfg, sv, tv).freeze_encoder()
    pairs = encode_pairs(data["train"], sv, tv)
    sources = [src for src, _ in pairs]
    longest = max(map(len, sources))
    assert sum(len(s) == longest for s in sources) > 1      # so no chunk steps one row last
    cached = model.encode_all(sources)
    exact = 0
    for batch in make_batches(pairs, 7, seed=1):
        enc = cached.gather(batch.index, batch.source)
        with no_grad():
            want = model.encode(batch.source)
        assert np.array_equal(enc.mask, want.mask)
        assert not enc.states.data[~enc.mask].any()             # zero at the pads
        got = [enc.states.data[enc.mask], *(s.data for s in enc.state)]
        ref = [want.states.data[want.mask], *(s.data for s in want.state)]
        lengths = (batch.source != PAD).sum(axis=1)
        for g, r in zip(got, ref, strict=True):
            assert g.dtype == r.dtype == model.dtype
            # a unique longest row runs its last steps as one row, which
            # numpy multiplies on a matrix-vector path with other rounding
            if (lengths == lengths.max()).sum() > 1:
                assert g.tobytes() == r.tobytes()
            assert np.max(np.abs(g - r)) < 1e-6
        exact += (lengths == lengths.max()).sum() > 1
        # and any decoder path reads it: attention forms its arrays from the rows
        ids = np.full(len(batch.index), SOS)
        (_, got), (_, ref) = (model.decode_step(ids, e.state, e) for e in (enc, want))
        assert np.max(np.abs(got.data - ref.data)) < 1e-6
    assert exact


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
    monkeypatch.setattr(training, "fit_with_early_stopping", _no_training)
    cfg = TrainConfig(arch="gru", **TINY)
    data = _data()
    plan = [StageSpec(dataset_id="en-en", label="pretrain"),
            StageSpec(dataset_id="en-de", label=label)]
    for run in _entry_points({"en-en": data, "en-de": data}, cfg):
        with pytest.raises(ValueError, match="cannot name a file"):
            run(plan)


def test_sequential_plan_rejects_a_prune_mode_on_stage_0_before_training(monkeypatch):
    # stage 0 is copy pretraining, which prunes nothing: its mode would only
    # be written into the checkpoint's provenance
    monkeypatch.setattr(training, "pretrain_copy", _no_training)
    monkeypatch.setattr(training, "fit_with_early_stopping", _no_training)
    data = _data()
    plan = [StageSpec(dataset_id="en-en", label="pre", prune_mode="most_n",
                      prune_percent=50.0),
            StageSpec(dataset_id="en-de", label="de")]
    for run in _entry_points({"en-en": data, "en-de": data}, TrainConfig(arch="gru", **TINY)):
        with pytest.raises(ValueError, match="stage 0 \\('pre'\\).*prune mode 'most_n'"):
            run(plan)


def test_check_plan_rejects_a_repeated_label_naming_both_stages():
    data = _data()
    plan = [StageSpec(dataset_id="en-en", label="pre"), StageSpec(dataset_id="en-de", label="x"),
            StageSpec(dataset_id="en-fr", label="x")]
    with pytest.raises(ValueError, match="stages 1 and 2 share the label 'x'"):
        training.check_plan(plan, {"en-en": data, "en-de": data, "en-fr": data})


def test_check_plan_rejects_an_empty_train_split():
    data = _data()
    plan = [StageSpec(dataset_id="en-en"), StageSpec(dataset_id="en-de")]
    with pytest.raises(ValueError, match="'en-de', which has no train split with pairs"):
        training.check_plan(plan, {"en-en": data,
                                   "en-de": dict(data, train=ParallelCorpus([]))})


@pytest.mark.parametrize("stage, valid, named", [
    (1, False, "stage 1 ('de') trains on dataset 'en-de'"),
    (0, True, "stage 0 ('pre') trains on dataset 'en-en'")],
    ids=["stage-1-without-valid", "stage-0-copy-ignores-valid"])
def test_check_plan_rejects_a_train_split_the_validation_carve_takes_whole(stage, valid,
                                                                           named):
    # fit_splits carves at least one validation pair; stage 0's copy pretraining
    # carves from its train split even beside a valid split
    data = _data()
    one_pair = {"train": ParallelCorpus(data["train"].pairs[:1]), "test": data["test"]}
    if valid:
        one_pair["valid"] = data["valid"]
    corpora = {"en-en": data, "en-de": data, ("en-en", "en-de")[stage]: one_pair}
    plan = [StageSpec(dataset_id="en-en", label="pre"), StageSpec(dataset_id="en-de", label="de")]
    with pytest.raises(ValueError, match=re.escape(named) + ".*carve takes whole"):
        training.check_plan(plan, corpora)
    corpora["en-de"] = dict(one_pair, valid=data["valid"])      # one pair beside a valid split
    corpora["en-en"] = {"train": ParallelCorpus(data["train"].pairs[:2])}
    assert training.check_plan(plan, corpora) == ["pre", "de"]


def test_fit_rejects_a_train_split_with_no_pairs():
    cfg = TrainConfig(arch="gru", **TINY)
    data = _data()
    vocabs = (build_vocab([data["train"]], side="source"),
              build_vocab([data["train"]], side="target"))
    # an empty split, and one pair that the 10% validation carve takes whole
    for splits in ({"train": ParallelCorpus([]), "valid": data["valid"]},
                   {"train": ParallelCorpus(data["train"].pairs[:1])}):
        train, valid = training.fit_splits(splits, cfg.seed)
        with pytest.raises(ValueError, match="train split is empty"):
            training.fit_with_early_stopping(training.build_model(cfg, *vocabs), train, valid,
                                             cfg)


def test_fit_rejects_a_validation_split_with_no_pairs():
    cfg = TrainConfig(arch="gru", **TINY)
    data = _data()
    model = training.build_model(cfg, *training.vocabularies(data["train"]))
    with pytest.raises(ValueError, match="validation split is empty"):
        fit_with_early_stopping(model, data["train"], ParallelCorpus([]), cfg)
