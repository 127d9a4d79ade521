"""Training regimes: end-to-end, copy pretraining, 1-hop transfer, joint
multi-task, sequential transfer plans; early stopping and checkpointing."""

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import _container
from . import numerics as nm
from . import xray
from ._container import (CheckpointChecksumError, CheckpointError,  # noqa: F401
                         CheckpointFormatError, CheckpointVersionError)
from .bleu import evaluate_corpus
from .model import ARCHITECTURES, Seq2SeqModel
from .numerics import Adam, clip_grad_norm, cross_entropy_masked
from .text import (RESERVED, ParallelCorpus, Vocabulary, build_vocab, encode_pairs,
                   make_batches)

CHECKPOINT_MAGIC = b"LRMT"
CHECKPOINT_VERSION = 2      # v1 also held "rng_state" and config "layers"; load ignores both
# TrainConfig fields that older files still hold; load drops them from the config
OLD_CONFIG_KEYS = ("layers", "betas", "eps", "min_freq")

CONTROL_TOKENS = {"de": "<2de>", "fr": "<2fr>", "es": "<2es>", "en": "<2en>"}
# the TrainConfig fields a model is built from, so a checkpoint's config always rebuilds it
MODEL_KEYS = ("arch", "embed_size", "hidden_size", "dropout")


class VocabMismatchError(ValueError):
    pass


def check_type(name, value, kind, error=TypeError):
    """Raise `error` naming `name` unless `value` is a `kind`: an int is no bool and
    a float may be an int.  Nothing is converted, so a value keeps its stored bytes."""
    accepts = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}
    if (isinstance(value, bool) and kind is not bool
            or not isinstance(value, accepts.get(kind, kind))):
        raise error("%s: expected %s, got %r" % (name, kind.__name__, value))


@dataclass
class TrainConfig:
    """Hyperparameters; the defaults are the full-scale configuration."""

    arch: str = "abgru"
    embed_size: int = 300
    hidden_size: int = 512
    max_epochs: int = 50
    patience: int = 5
    dropout: float = 0.5
    lr: float = 0.001
    batch_size: int = 40
    l2: float = 1e-6
    clip_norm: float = 5.0
    tf_ratio: float = 0.5
    seed: int = 0
    max_len: int = 50

    def __post_init__(self):
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        if self.arch not in ARCHITECTURES:
            raise ValueError("arch: unknown architecture %r, not one of %s"
                             % (self.arch, ARCHITECTURES))
        for name in ("embed_size", "hidden_size", "max_epochs", "patience", "lr",
                     "batch_size", "clip_norm", "max_len"):
            if getattr(self, name) <= 0:
                raise ValueError("%s: %r is not positive" % (name, getattr(self, name)))
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout: %r is outside [0, 1)" % (self.dropout,))
        if not 0.0 <= self.tf_ratio <= 1.0:
            raise ValueError("tf_ratio: %r is outside [0, 1]" % (self.tf_ratio,))
        for name in ("l2", "seed"):
            if getattr(self, name) < 0:
                raise ValueError("%s: %r is negative" % (name, getattr(self, name)))


@dataclass
class StageSpec:
    dataset_id: str
    freeze_encoder: bool = True
    prune_mode: str = "none"      # "none" with prune_percent 0, which prunes nothing,
    prune_percent: float = 0.0    # or a pair that xray.check_prune_setting takes
    label: str = ""

    def __post_init__(self):
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        if self.prune_mode != "none" or self.prune_percent:
            xray.check_prune_setting(self.prune_mode, self.prune_percent)


def names_a_file(name):
    """Whether `name` can name a file in a directory: no path separator, not '.' or '..'."""
    return name not in (".", "..") and "/" not in name and "\\" not in name


def check_plan(stages, corpora):
    """The labels of `stages`, stage 0 the copy-pretraining one, after checking that
    there is a stage and each against `corpora`: a known dataset (else KeyError) that
    `leaves_train_pairs` (stage 0's train split alone), a label of its own that can name a
    file and, before a pruning stage, a test split.  Stage 0 trains a fresh encoder: a prune
    mode or freeze_encoder false there is a ValueError."""
    if not stages:
        raise ValueError("plan needs at least one stage")
    labels = [s.label or ("stage%d-%s" % (i, s.dataset_id))
              for i, s in enumerate(stages)]
    for i, (stage, label) in enumerate(zip(stages, labels)):
        if stage.dataset_id not in corpora:
            raise KeyError("stage %d (%r) names unknown dataset %r"
                           % (i, label, stage.dataset_id))
        splits = corpora[stage.dataset_id]      # stage 0's copy pretraining: train alone
        if not leaves_train_pairs(splits if i else {"train": splits.get("train")}):
            raise ValueError("stage %d (%r) trains on dataset %r, which has no train split "
                             "with pairs, or one pair that the validation carve takes whole"
                             % (i, label, stage.dataset_id))
        if label in labels[:i]:
            raise ValueError("stages %d and %d share the label %r, which names each "
                             "one's checkpoint" % (labels.index(label), i, label))
        if not names_a_file(label):
            raise ValueError("stage %d label %r cannot name a file: it holds a "
                             "path separator or is '.' or '..'" % (i, label))
        if not i and (stage.prune_mode != "none" or not stage.freeze_encoder):
            raise ValueError("stage 0 (%r) is copy pretraining, which trains a fresh encoder and "
                             "prunes nothing, but names prune mode %r and freeze_encoder %r"
                             % (label, stage.prune_mode, stage.freeze_encoder))
        if stage.prune_mode != "none" and not corpora[stages[i - 1].dataset_id].get("test"):
            raise ValueError("stage %d (%r) prunes by the test split of stage %d "
                             "(%r, dataset %r), which has none"
                             % (i, label, i - 1, labels[i - 1],
                                stages[i - 1].dataset_id))
    return labels


@dataclass
class Checkpoint:
    """A complete, restorable model snapshot."""

    config: dict             # TrainConfig fields; its MODEL_KEYS rebuild the model
    src_vocab: list
    tgt_vocab: list
    tensors: dict            # name -> ndarray
    frozen: dict             # name -> bool
    pruned: dict             # name -> list of flat indices
    provenance: dict = field(default_factory=dict)

    @property
    def arch(self):
        """The config's "arch"; the header's copy must agree with it."""
        return self.config["arch"]

    @classmethod
    def from_model(cls, model, config, provenance=None):
        tensors, frozen, pruned = {}, {}, {}
        for name, p in model.named_parameters().items():
            tensors[name] = p.data.copy()
            frozen[name] = bool(p.frozen)
            pruned[name] = [] if p.pruned is None else p.pruned.tolist()
        cfg = asdict(config) if isinstance(config, TrainConfig) else dict(config)
        cfg.update({key: getattr(model, key) for key in MODEL_KEYS})
        return cls(config=cfg, src_vocab=list(model.src_vocab.itos),
                   tgt_vocab=list(model.tgt_vocab.itos),
                   tensors=tensors, frozen=frozen, pruned=pruned,
                   provenance=provenance or {})

    def to_model(self):
        cfg = self.config
        model = Seq2SeqModel(self.arch, Vocabulary(list(self.src_vocab)),
                             Vocabulary(list(self.tgt_vocab)),
                             embed_size=cfg["embed_size"], hidden_size=cfg["hidden_size"],
                             dropout=cfg["dropout"], seed=cfg.get("seed", 0),
                             dtype=self.tensors["src_emb"].dtype.type)
        for name, p in model.named_parameters().items():
            if name not in self.tensors:
                raise CheckpointFormatError("missing tensor %r" % name)
            if p.data.shape != self.tensors[name].shape:
                raise CheckpointFormatError("shape mismatch for %r" % name)
            p.data = self.tensors[name].copy()
            p.frozen = self.frozen.get(name, False)
            idx = self.pruned.get(name) or []
            p.pruned = np.asarray(idx, dtype=np.int64) if idx else None
        return model

    def train_config(self):
        return TrainConfig(**self.config)

    # -- binary round trip (layout in `_container`) --------------------------

    def save(self, path):
        _container.write(
            path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            {"config": self.config, "arch": self.arch,
             "src_vocab": self.src_vocab, "tgt_vocab": self.tgt_vocab,
             "provenance": self.provenance},
            [(n, self.tensors[n], {"frozen": self.frozen.get(n, False),
                                   "pruned": self.pruned.get(n, [])})
             for n in sorted(self.tensors)])

    @classmethod
    def load(cls, path):
        def build(header, tensors):
            config = dict(header["config"])
            for dropped in OLD_CONFIG_KEYS:
                config.pop(dropped, None)
            missing = [f.name for f in fields(TrainConfig) if f.name not in config]
            if missing:
                raise KeyError("config lacks field %r" % missing[0])
            TrainConfig(**config)       # checks every field; the stored dict is kept
            if header["arch"] != config["arch"]:
                raise CheckpointFormatError("%s: header arch %r differs from config arch %r"
                                            % (path, header["arch"], config["arch"]))
            entries = header["tensors"]
            for e in entries:
                name, data = e["name"], tensors[e["name"]]
                if data.dtype.char not in "fd" or data.dtype != tensors[entries[0]["name"]].dtype:
                    raise ValueError("tensor %r is %s; tensors must be float32 or float64, "
                                     "all one dtype" % (name, data.dtype))
                if not isinstance(e["frozen"], bool):
                    raise ValueError("tensor %r: frozen is not a bool" % name)
                if not (isinstance(e["pruned"], list) and all(
                        type(i) is int and 0 <= i < data.size for i in e["pruned"])):
                    raise ValueError("tensor %r: pruned ids are not ints in [0, %d)"
                                     % (name, data.size))
                if data.reshape(-1)[e["pruned"]].any():
                    raise ValueError("tensor %r is nonzero at a pruned id" % name)
            for key, table in (("src_vocab", "src_emb"), ("tgt_vocab", "tgt_emb")):
                vocab = header[key]
                if not (isinstance(vocab, list) and vocab[:len(RESERVED)] == RESERVED
                        and all(isinstance(t, str) for t in vocab)
                        and len(vocab) == tensors[table].shape[0]):
                    raise CheckpointFormatError(
                        "%s: %r is not a list of str that starts with the reserved tokens "
                        "and has one entry per %r row" % (path, key, table))
                Vocabulary(vocab)       # a token listed twice is a ValueError
            if not isinstance(header["provenance"], dict):
                raise CheckpointFormatError("%s: 'provenance' is not an object" % path)
            return cls(config=config, src_vocab=header["src_vocab"],
                       tgt_vocab=header["tgt_vocab"], tensors=tensors,
                       frozen={e["name"]: e["frozen"] for e in entries},
                       pruned={e["name"]: e["pruned"] for e in entries},
                       provenance=header["provenance"])
        return _container.read(path, CHECKPOINT_MAGIC, (1, CHECKPOINT_VERSION), build)


def load_checkpoint(path):
    return Checkpoint.load(path)


# -- epoch loops ---------------------------------------------------------------


def train_epoch(model, batches, config, optimizer, rng):
    """Forward (teacher forced), masked cross-entropy, clip, Adam; mean loss."""
    losses = []
    for batch in batches:
        optimizer.zero_grad()
        logits = model.forward_teacher_forced(batch, tf_ratio=config.tf_ratio, rng=rng)
        loss = cross_entropy_masked(logits, batch.target[:, 1:])
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError(
                "non-finite training loss (%r); aborting epoch" % value)
        loss.backward()
        clip_grad_norm(model.parameters(), config.clip_norm)
        optimizer.step()
        losses.append(value)
    return float(np.mean(losses)) if losses else 0.0


def evaluate_loss(model, batches):
    """Validation loss: dropout off, full teacher forcing, no tape."""
    losses = []
    with nm.no_grad():
        for batch in batches:
            logits = model.forward_teacher_forced(batch, tf_ratio=1.0)
            losses.append(cross_entropy_masked(logits, batch.target[:, 1:]).item())
    return float(np.mean(losses)) if losses else 0.0


def _encoded(batches, rows):
    """`batches`, each with the rows of `rows` (`model.EncodedRows`) that its
    `index` names gathered as its encoding, one batch at a time; `batches`
    as they are when `rows` is None."""
    if rows is None:
        return batches
    return (replace(batch, encoding=rows.gather(batch.index, batch.source))
            for batch in batches)


def fit_with_early_stopping(model, train, valid, config, metrics_path=None,
                            stage_label=""):
    """Train with per-epoch validation; keep and return the best checkpoint.

    An epoch improves iff its validation loss is below the best so far; the
    loop stops after `patience` epochs in a row without improving, or after
    `max_epochs`.

    When every encoder parameter is frozen and the model's dropout is 0, the
    encoder is a fixed function of each source sentence, and `encode` draws
    nothing from the rng.  The fit then encodes the train and validation
    sentences once, without a tape (`Seq2SeqModel.encode_all`), and each
    batch reads its rows of that encoding; the encoding, the live tokens by
    the encoder's width, goes when the fit returns.  Otherwise (a trainable
    encoder changes every step, and dropout draws a fresh mask per batch)
    each batch is encoded as it is trained or scored."""
    if not train.pairs:
        raise ValueError("train split is empty")
    if not valid.pairs:
        raise ValueError("validation split is empty")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.lr, l2=config.l2)
    history = []
    train_pairs = encode_pairs(train, model.src_vocab, model.tgt_vocab)
    valid_pairs = encode_pairs(valid, model.src_vocab, model.tgt_vocab)
    vbatches = make_batches(valid_pairs, config.batch_size, seed=0)
    train_rows = valid_rows = None
    if model.dropout == 0 and all(p.frozen for p in model.encoder_parameters()):
        train_rows, valid_rows = (model.encode_all([src for src, _ in pairs])
                                  for pairs in (train_pairs, valid_pairs))

    best, best_epoch = float("inf"), 0
    for epoch in range(1, config.max_epochs + 1):
        started = time.monotonic()
        batches = make_batches(train_pairs, config.batch_size, seed=config.seed + epoch)
        train_loss = train_epoch(model, _encoded(batches, train_rows), config, optimizer, rng)
        valid_loss = evaluate_loss(model, _encoded(vbatches, valid_rows))
        if not np.isfinite(valid_loss):
            raise FloatingPointError(
                "non-finite validation loss (%r) in stage %r, epoch %d"
                % (valid_loss, stage_label, epoch))
        history.append({"stage": stage_label, "epoch": epoch,
                        "train_loss": train_loss, "valid_loss": valid_loss})
        if metrics_path:
            # wall time goes to the log only, never into checkpoints,
            # so identical runs stay byte-identical
            row = dict(history[-1], seconds=time.monotonic() - started)
            with open(metrics_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
        if valid_loss < best:
            best, best_epoch = valid_loss, epoch
            best_ckpt = Checkpoint.from_model(model, config,
                                              provenance={"stage": stage_label,
                                                          "epoch": epoch,
                                                          "valid_loss": valid_loss})
        elif epoch - best_epoch >= config.patience:
            break
    best_ckpt.provenance["history"] = history
    return best_ckpt


# -- regimes ---------------------------------------------------------------


def carve_validation(corpus, fraction=0.1, seed=0):
    """Split one corpus into (train, valid), seeded."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus.pairs))
    n_valid = max(1, int(len(order) * fraction))
    valid_idx = set(order[:n_valid].tolist())
    train_pairs = [p for i, p in enumerate(corpus.pairs) if i not in valid_idx]
    valid_pairs = [p for i, p in enumerate(corpus.pairs) if i in valid_idx]
    return ParallelCorpus(train_pairs), ParallelCorpus(valid_pairs)


def fit_splits(splits, seed):
    """(train, valid) as every regime fits on `splits`: its valid split, or,
    without one with pairs, 10% of its train split carved off, seeded by `seed`."""
    if not splits.get("valid"):
        return carve_validation(splits["train"], seed=seed)
    return splits["train"], splits["valid"]


def leaves_train_pairs(splits):
    """Whether `fit_splits(splits, ...)` leaves train pairs: the carve takes at least one
    pair, so one train pair needs a valid split with pairs beside it."""
    train = splits.get("train")
    return bool(train) and (len(train) > 1 or bool(splits.get("valid")))


def copy_corpus(sentences):
    """Targets set equal to sources: the auto-encoding pretraining corpus."""
    return ParallelCorpus([(list(s), list(s)) for s in sentences])


def build_model(config, src_vocab, tgt_vocab):
    return Seq2SeqModel(config.arch, src_vocab, tgt_vocab,
                        embed_size=config.embed_size, hidden_size=config.hidden_size,
                        dropout=config.dropout, seed=config.seed)


def shared_source_vocab(corpora):
    """The input vocabulary shared by every transfer regime.

    Control tokens for multi-task mode are reserved up front so the frozen
    source embedding can address them later.
    """
    extra = tuple(CONTROL_TOKENS[k] for k in sorted(CONTROL_TOKENS))
    return build_vocab(corpora, side="source", extra_tokens=extra)


def vocabularies(train):
    """The (source, target) vocabularies of a model trained from scratch on `train`."""
    return shared_source_vocab([train]), build_vocab([train], side="target")


def train_from_scratch(splits, config, src_vocab=None, metrics_path=None,
                       stage_label="train"):
    """The end-to-end regime, every transfer regime's baseline: a fresh model on the
    `vocabularies` of `fit_splits`' train split (source: `src_vocab` if given), fit."""
    train, valid = fit_splits(splits, config.seed)
    src, tgt = vocabularies(train)
    model = build_model(config, src if src_vocab is None else src_vocab, tgt)
    return fit_with_early_stopping(model, train, valid, config,
                                   metrics_path=metrics_path, stage_label=stage_label)


def pretrain_copy(en_corpus, config, src_vocab=None, metrics_path=None,
                  stage_label="pretrain"):
    """Auto-encode English; this checkpoint seeds every transfer regime."""
    return train_from_scratch({"train": copy_corpus([s for s, _ in en_corpus.pairs])},
                              config, src_vocab, metrics_path, stage_label)


def _fine_tune(model, splits, config, metrics_path, stage_label):
    """The fine-tuning recipe of every transfer regime: carve a validation
    split when `splits` has none, rebind the decoder to the train split's
    target vocabulary, fit.  Freezing and pruning are the caller's."""
    train, valid = fit_splits(splits, config.seed)
    tgt_vocab = build_vocab([train], side="target")
    model.rebind_decoder(tgt_vocab, seed=config.seed)
    return fit_with_early_stopping(model, train, valid, config,
                                   metrics_path=metrics_path, stage_label=stage_label)


def transfer_1hop(pretrained, target_splits, config, metrics_path=None):
    """Freeze the pre-trained encoder, rebind the decoder, fine-tune."""
    model = pretrained.to_model().freeze_encoder()
    return _fine_tune(model, target_splits, config, metrics_path, "1hop")


def combine_multitask(corpora, src_vocab):
    """Concatenate {lang: splits} train corpora, tagging rows with control tokens.

    Raises VocabMismatchError for a language without a control token or a
    control token missing from `src_vocab`."""
    pairs = []
    for lang in sorted(corpora):
        if lang not in CONTROL_TOKENS:
            raise VocabMismatchError("unknown language %r, not one of %s"
                                     % (lang, sorted(CONTROL_TOKENS)))
        token = CONTROL_TOKENS[lang]
        if token not in src_vocab.stoi:
            raise VocabMismatchError(
                "control token %r missing from the shared vocabulary; "
                "pretrain with control tokens reserved" % token)
        pairs += [([token] + list(src), list(tgt))
                  for src, tgt in corpora[lang]["train"].pairs]
    return ParallelCorpus(pairs)


def train_multitask_joint(pretrained, corpora, config, metrics_path=None):
    """Joint fine-tuning on the concatenated union with a single loss."""
    model = pretrained.to_model().freeze_encoder()
    combined = combine_multitask(corpora, model.src_vocab)
    return _fine_tune(model, {"train": combined}, config, metrics_path, "multitask")


def prune_encoder(model, mass, mode, percent):
    """Prune what `xray.select_prune_set` picks; the provenance every prune records."""
    pruned = sorted(xray.select_prune_set(mass, mode, percent))
    model.prune_encoder_units(pruned)
    return {"prune_mode": mode, "prune_percent": percent, "pruned": pruned}


def run_sequential_plan(stages, corpora, config, out_dir=None, metrics_path=None):
    """The whole plan: `continue_plan` from a copy pretraining on stage 0's train
    split, over the source vocabulary of every stage's train split."""
    labels = check_plan(stages, corpora)
    src_vocab = shared_source_vocab([corpora[s.dataset_id]["train"] for s in stages])
    pretrained = pretrain_copy(corpora[stages[0].dataset_id]["train"], config, src_vocab,
                               metrics_path, labels[0])
    return continue_plan(pretrained, stages, corpora, config, out_dir, metrics_path)


def continue_plan(pretrained, stages, corpora, config, out_dir=None, metrics_path=None):
    """Stage-by-stage transfer from `pretrained`, stage 0's copy-pretrained checkpoint:
    prune -> freeze -> rebind -> fine-tune -> score.

    `corpora` maps dataset ids to {"train": ..., "valid":..., "test": ...}.  Stage 0
    trains nothing: its checkpoint is `pretrained` with `prune_mode: "none"` added to a
    copy of its provenance, and every stage reads its source vocabulary.  Each stage's
    best model is built once: it is scored and x-rayed on the stage's test split (stage
    0's sources copied), and the next stage fine-tunes it, pruned by `prune_encoder` on
    those mass matrices.  Returns a list of {stage, label, checkpoint, bleu, mass}
    records; bleu and mass are None for a stage without test pairs.
    """
    labels = check_plan(stages, corpora)
    out_dir = Path(out_dir) if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for idx, (stage, label) in enumerate(zip(stages, labels)):
        splits = corpora[stage.dataset_id]
        test = splits.get("test")
        pruned = {"prune_mode": stage.prune_mode}
        if idx == 0:
            ckpt = replace(pretrained, provenance=dict(pretrained.provenance))
            if test is not None:
                test = copy_corpus([s for s, _ in test.pairs])
        else:
            if stage.prune_mode != "none":
                pruned = prune_encoder(model, results[-1]["mass"], stage.prune_mode,
                                       stage.prune_percent)
            for p in model.encoder_parameters():       # both ways: a stage may unfreeze
                p.frozen = stage.freeze_encoder
            ckpt = _fine_tune(model, splits, config, metrics_path, label)
        ckpt.provenance.update(pruned)
        model = ckpt.to_model()
        bleu = mass = None
        if test:
            bleu = evaluate_corpus(model, test, max_len=config.max_len)
            mass = xray.mass_matrices(xray.capture_activations(model, test))
        if out_dir:
            ckpt.save(out_dir / ("%s.lrmt" % label))
        results.append({"stage": idx, "label": label, "checkpoint": ckpt,
                        "bleu": bleu, "mass": mass})
    return results
