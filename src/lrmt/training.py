"""Training regimes: end-to-end, copy pretraining, 1-hop transfer, joint
multi-task, sequential transfer plans; early stopping and checkpointing."""

import json
import time
from dataclasses import dataclass, field, fields, asdict
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
from .text import ParallelCorpus, Vocabulary, build_vocab, encode_pairs, make_batches

CHECKPOINT_MAGIC = b"LRMT"
CHECKPOINT_VERSION = 2      # v1 also held "rng_state" and config "layers"; load ignores both
# TrainConfig fields that older files still hold; load drops them from the config
OLD_CONFIG_KEYS = ("layers", "betas", "eps", "min_freq")

CONTROL_TOKENS = {"de": "<2de>", "fr": "<2fr>", "es": "<2es>", "en": "<2en>"}


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
    prune_mode: str = "none"      # "none" or one of xray.PRUNE_MODES
    prune_percent: float = 0.0
    label: str = ""

    def __post_init__(self):
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        if self.prune_mode not in ("none",) + xray.PRUNE_MODES:
            raise ValueError("prune_mode: unknown prune mode %r" % (self.prune_mode,))
        if not 0.0 <= self.prune_percent <= 100.0:
            raise ValueError("prune_percent: %r is outside [0, 100]" % (self.prune_percent,))


def check_plan(stages, corpora):
    """The labels of `stages`, stage 0 the copy-pretraining one, after checking that
    there is a stage and each against `corpora`: a known dataset (else KeyError) with a
    train split, a label that can name a file and, before a pruning stage, a test split."""
    if not stages:
        raise ValueError("plan needs at least one stage")
    labels = [s.label or ("stage%d-%s" % (i, s.dataset_id))
              for i, s in enumerate(stages)]
    for i, (stage, label) in enumerate(zip(stages, labels)):
        if stage.dataset_id not in corpora:
            raise KeyError("stage %d (%r) names unknown dataset %r"
                           % (i, label, stage.dataset_id))
        if "train" not in corpora[stage.dataset_id]:
            raise ValueError("stage %d (%r) trains on dataset %r, which has no train split"
                             % (i, label, stage.dataset_id))
        if label in (".", "..") or "/" in label or "\\" in label:
            raise ValueError("stage %d label %r cannot name a file: it holds a "
                             "path separator or is '.' or '..'" % (i, label))
        if (i and stage.prune_mode != "none"
                and not corpora[stages[i - 1].dataset_id].get("test")):
            raise ValueError("stage %d (%r) prunes by the test split of stage %d "
                             "(%r, dataset %r), which has none"
                             % (i, label, i - 1, labels[i - 1],
                                stages[i - 1].dataset_id))
    return labels


@dataclass
class Checkpoint:
    """A complete, restorable model snapshot."""

    config: dict             # TrainConfig fields; "arch" and the sizes rebuild the model
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
            pruned[name] = [] if p.pruned is None else [int(i) for i in p.pruned]
        cfg = asdict(config) if isinstance(config, TrainConfig) else dict(config)
        # the model's own shape, so the checkpoint always rebuilds it
        cfg.update(arch=model.arch, embed_size=model.embed_size,
                   hidden_size=model.hidden_size, dropout=model.dropout)
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
        loss = cross_entropy_masked(logits, batch.target[:, 1:], ignore_index=0)
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


def _stopping_rule(losses, patience):
    """Improve iff loss < best; stop after `patience` epochs without improving.

    Yields (epoch, loss, improved) and takes no loss past the stop, so a lazy
    `losses` trains no extra epoch."""
    best = float("inf")
    since = 0
    for epoch, loss in enumerate(losses, start=1):
        improved = loss < best
        if improved:
            best, since = loss, 0
        else:
            since += 1
        yield epoch, loss, improved
        if since >= patience:
            return


def early_stopping_trace(losses, patience):
    """The bare stopping rule: returns (epochs run, best 1-based epoch)."""
    epochs = best_epoch = 0
    for epochs, _, improved in _stopping_rule(losses, patience):
        if improved:
            best_epoch = epochs
    return epochs, best_epoch


def fit_with_early_stopping(model, train, valid, config, metrics_path=None,
                            stage_label=""):
    """Train with per-epoch validation; keep and return the best checkpoint."""
    if not valid.pairs:
        raise ValueError("validation split is empty")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.lr, l2=config.l2)
    history = []
    train_pairs = encode_pairs(train, model.src_vocab, model.tgt_vocab)
    vbatches = make_batches(encode_pairs(valid, model.src_vocab, model.tgt_vocab),
                            config.batch_size, seed=0)

    def valid_losses():
        for epoch in range(1, config.max_epochs + 1):
            started = time.monotonic()
            batches = make_batches(train_pairs, config.batch_size, seed=config.seed + epoch)
            train_loss = train_epoch(model, batches, config, optimizer, rng)
            valid_loss = evaluate_loss(model, vbatches)
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
            yield valid_loss

    for epoch, valid_loss, improved in _stopping_rule(valid_losses(), config.patience):
        if improved:
            best_ckpt = Checkpoint.from_model(model, config,
                                              provenance={"stage": stage_label,
                                                          "epoch": epoch,
                                                          "valid_loss": valid_loss})
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
    without one, 10% of its train split carved off, seeded by `seed`."""
    valid = splits.get("valid")
    if valid is None:
        return carve_validation(splits["train"], seed=seed)
    return splits["train"], valid


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


def pretrain_copy(en_corpus, config, src_vocab=None, metrics_path=None,
                  stage_label="pretrain"):
    """Auto-encode English; this checkpoint seeds every transfer regime."""
    train_full = copy_corpus([s for s, _ in en_corpus.pairs])
    train, valid = carve_validation(train_full, fraction=0.1, seed=config.seed)
    if src_vocab is None:
        src_vocab = shared_source_vocab([train])
    tgt_vocab = build_vocab([train], side="target")
    model = build_model(config, src_vocab, tgt_vocab)
    return fit_with_early_stopping(model, train, valid, config,
                                   metrics_path=metrics_path, stage_label=stage_label)


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


def run_sequential_plan(stages, corpora, config, out_dir=None, metrics_path=None):
    """Stage-by-stage transfer: prune -> freeze -> rebind -> fine-tune -> score.

    `corpora` maps dataset ids to {"train": ..., "valid":..., "test": ...};
    stage 0's dataset is auto-encoded (targets = sources).  Each stage's best
    model is built once: it is scored and x-rayed on the stage's test split,
    and the next stage fine-tunes it, pruning by those mass matrices.
    Returns a list of {stage, label, checkpoint, bleu, mass} records; bleu
    and mass are None for a stage without test pairs.
    """
    labels = check_plan(stages, corpora)
    out_dir = Path(out_dir) if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    all_train = [corpora[s.dataset_id]["train"] for s in stages]
    src_vocab = shared_source_vocab(all_train)

    results = []
    for idx, (stage, label) in enumerate(zip(stages, labels)):
        splits = corpora[stage.dataset_id]
        test = splits.get("test")
        if idx == 0:
            ckpt = pretrain_copy(splits["train"], config, src_vocab=src_vocab,
                                 metrics_path=metrics_path, stage_label=label)
            if test is not None:
                test = copy_corpus([s for s, _ in test.pairs])
        else:
            if stage.prune_mode != "none":
                prune_set = xray.select_prune_set(results[-1]["mass"], stage.prune_mode,
                                                  stage.prune_percent)
                model.prune_encoder_units(sorted(prune_set))
            if stage.freeze_encoder:
                model.freeze_encoder()
            ckpt = _fine_tune(model, splits, config, metrics_path, label)
        ckpt.provenance["prune_mode"] = stage.prune_mode
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
