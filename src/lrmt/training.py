"""Training regimes: end-to-end, copy pretraining, 1-hop transfer, joint
multi-task, sequential transfer plans; early stopping and checkpointing."""

import json
import struct
import time
import zlib
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import numerics as nm
from . import xray
from .bleu import evaluate_corpus
from .model import Seq2SeqModel
from .numerics import Adam, clip_grad_norm, cross_entropy_masked
from .text import ParallelCorpus, Vocabulary, build_vocab, make_batches

CHECKPOINT_MAGIC = b"LRMT"
CHECKPOINT_VERSION = 1

CONTROL_TOKENS = {"de": "<2de>", "fr": "<2fr>", "es": "<2es>", "en": "<2en>"}


class CheckpointError(Exception):
    pass


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointChecksumError(CheckpointError):
    pass


class VocabMismatchError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Hyperparameters; the defaults are the full-scale configuration."""

    arch: str = "abgru"
    embed_size: int = 300
    layers: int = 1
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
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    max_len: int = 50
    min_freq: int = 1

    def __post_init__(self):
        numeric = [self.embed_size, self.layers, self.hidden_size, self.max_epochs,
                   self.patience, self.lr, self.batch_size, self.clip_norm]
        if any(v <= 0 for v in numeric):
            raise ValueError("all TrainConfig sizes and rates must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 <= self.tf_ratio <= 1.0:
            raise ValueError("tf_ratio must be in [0, 1]")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.layers != 1:
            raise ValueError("only single-layer models are supported")


@dataclass
class StageSpec:
    dataset_id: str
    freeze_encoder: bool = True
    prune_mode: str = "none"      # none | dead | most_n | least_n
    prune_percent: float = 0.0
    label: str = ""


@dataclass
class TransferPlan:
    """Ordered training stages; stage 0 is the copy-pretraining stage."""

    stages: list

    def __post_init__(self):
        if not self.stages:
            raise ValueError("plan needs at least one stage")


@dataclass
class Checkpoint:
    """A complete, restorable model snapshot."""

    version: int
    config: dict
    arch: str
    src_vocab: list
    tgt_vocab: list
    tensors: dict            # name -> ndarray
    frozen: dict             # name -> bool
    pruned: dict             # name -> list of flat indices
    rng_state: dict
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_model(cls, model, config, rng=None, provenance=None):
        tensors, frozen, pruned = {}, {}, {}
        for name, p in model.named_parameters().items():
            tensors[name] = p.data.copy()
            frozen[name] = bool(p.frozen)
            pruned[name] = [] if p.pruned is None else [int(i) for i in p.pruned]
        cfg = asdict(config) if isinstance(config, TrainConfig) else dict(config)
        cfg["betas"] = list(cfg.get("betas", (0.9, 0.999)))
        state = rng.bit_generator.state if rng is not None else {}
        return cls(version=CHECKPOINT_VERSION, config=cfg, arch=model.arch,
                   src_vocab=list(model.src_vocab.itos),
                   tgt_vocab=list(model.tgt_vocab.itos),
                   tensors=tensors, frozen=frozen, pruned=pruned,
                   rng_state=_jsonable_rng(state), provenance=provenance or {})

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
        cfg = dict(self.config)
        cfg["betas"] = tuple(cfg.get("betas", (0.9, 0.999)))
        return TrainConfig(**cfg)

    def rng(self):
        rng = np.random.default_rng(0)
        if self.rng_state:
            rng.bit_generator.state = _rng_from_jsonable(self.rng_state)
        return rng

    # -- binary round trip ---------------------------------------------------

    def save(self, path):
        names = sorted(self.tensors)
        manifest = [{"name": n, "shape": list(self.tensors[n].shape),
                     "dtype": str(self.tensors[n].dtype),
                     "frozen": self.frozen.get(n, False),
                     "pruned": self.pruned.get(n, [])} for n in names]
        header = json.dumps({
            "config": self.config, "arch": self.arch,
            "src_vocab": self.src_vocab, "tgt_vocab": self.tgt_vocab,
            "rng_state": self.rng_state, "provenance": self.provenance,
            "tensors": manifest,
        }, ensure_ascii=False).encode("utf-8")
        blob = bytearray()
        blob += CHECKPOINT_MAGIC
        blob += struct.pack("<I", self.version)
        blob += struct.pack("<Q", len(header))
        blob += header
        for n in names:
            arr = self.tensors[n]
            blob += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        Path(path).write_bytes(bytes(blob))

    @classmethod
    def load(cls, path):
        raw = Path(path).read_bytes()
        if len(raw) < 20 or raw[:4] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError("not a checkpoint file: %s" % path)
        stored_crc = struct.unpack("<I", raw[-4:])[0]
        if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
            raise CheckpointChecksumError("checksum mismatch in %s" % path)
        version = struct.unpack("<I", raw[4:8])[0]
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError("unsupported checkpoint version %d" % version)
        hlen = struct.unpack("<Q", raw[8:16])[0]
        try:
            header = json.loads(raw[16:16 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError("corrupt header: %s" % exc)
        offset = 16 + hlen
        tensors, frozen, pruned = {}, {}, {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            dtype = np.dtype(entry["dtype"])
            nbytes = int(np.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
            chunk = raw[offset:offset + nbytes]
            if len(chunk) != nbytes:
                raise CheckpointFormatError("truncated payload in %s" % path)
            tensors[entry["name"]] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
            frozen[entry["name"]] = entry["frozen"]
            pruned[entry["name"]] = entry["pruned"]
            offset += nbytes
        return cls(version=version, config=header["config"], arch=header["arch"],
                   src_vocab=header["src_vocab"], tgt_vocab=header["tgt_vocab"],
                   tensors=tensors, frozen=frozen, pruned=pruned,
                   rng_state=header["rng_state"], provenance=header["provenance"])


def _jsonable_rng(state):
    def conv(v):
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, (np.integer,)):
            return int(v)
        return v
    return conv(state)


def _rng_from_jsonable(state):
    return state


def save_checkpoint(model, path, config, rng=None, provenance=None):
    ckpt = Checkpoint.from_model(model, config, rng=rng, provenance=provenance)
    ckpt.save(path)
    return ckpt


def load_checkpoint(path):
    return Checkpoint.load(path)


# -- epoch loops ---------------------------------------------------------------


def train_epoch(model, batches, config, optimizer, rng):
    """Forward (teacher forced), masked cross-entropy, clip, Adam; mean loss."""
    losses = []
    for batch in batches:
        optimizer.zero_grad()
        logits = model.forward_teacher_forced(batch, tf_ratio=config.tf_ratio,
                                              rng=rng, training=True)
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
    """Validation loss: dropout off, full teacher forcing."""
    losses = []
    for batch in batches:
        logits = model.forward_teacher_forced(batch, tf_ratio=1.0, rng=None,
                                              training=False)
        losses.append(cross_entropy_masked(logits, batch.target[:, 1:]).item())
    return float(np.mean(losses)) if losses else 0.0


def early_stopping_trace(losses, patience):
    """The bare stopping rule: returns (epochs run, best 1-based epoch)."""
    best = float("inf")
    best_epoch = 0
    since = 0
    for epoch, loss in enumerate(losses, start=1):
        if loss < best:
            best, best_epoch, since = loss, epoch, 0
        else:
            since += 1
        if since >= patience:
            return epoch, best_epoch
    return len(losses), best_epoch


def fit_with_early_stopping(model, train, valid, config, lang_token=None,
                            metrics_path=None, stage_label=""):
    """Train with per-epoch validation; keep and return the best checkpoint."""
    if not valid.pairs:
        raise ValueError("validation split is empty")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.lr, betas=config.betas,
                     eps=config.eps, l2=config.l2)
    best_loss = float("inf")
    best_ckpt = None
    since_improve = 0
    history = []
    metrics_fh = open(metrics_path, "a", encoding="utf-8") if metrics_path else None
    try:
        for epoch in range(1, config.max_epochs + 1):
            started = time.monotonic()
            batches = make_batches(train, model.src_vocab, model.tgt_vocab,
                                   config.batch_size, seed=config.seed + epoch,
                                   lang_token=lang_token)
            train_loss = train_epoch(model, batches, config, optimizer, rng)
            vbatches = make_batches(valid, model.src_vocab, model.tgt_vocab,
                                    config.batch_size, seed=0, lang_token=lang_token)
            valid_loss = evaluate_loss(model, vbatches)
            if not np.isfinite(valid_loss):
                raise FloatingPointError(
                    "non-finite validation loss (%r) in stage %r, epoch %d"
                    % (valid_loss, stage_label, epoch))
            history.append({"stage": stage_label, "epoch": epoch,
                            "train_loss": train_loss, "valid_loss": valid_loss})
            if metrics_fh:
                # wall time goes to the log only, never into checkpoints,
                # so identical runs stay byte-identical
                row = dict(history[-1], seconds=time.monotonic() - started)
                metrics_fh.write(json.dumps(row) + "\n")
            if valid_loss < best_loss:
                best_loss = valid_loss
                best_ckpt = Checkpoint.from_model(model, config, rng=rng,
                                                  provenance={"stage": stage_label,
                                                              "epoch": epoch,
                                                              "valid_loss": valid_loss})
                since_improve = 0
            else:
                since_improve += 1
            if since_improve >= config.patience:
                break
    finally:
        if metrics_fh:
            metrics_fh.close()
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
    return (ParallelCorpus(corpus.pair, train_pairs, "train"),
            ParallelCorpus(corpus.pair, valid_pairs, "valid"))


def copy_corpus(sentences, pair="en-en", split="train"):
    """Targets set equal to sources: the auto-encoding pretraining corpus."""
    return ParallelCorpus(pair, [(list(s), list(s)) for s in sentences], split)


def build_model(config, src_vocab, tgt_vocab):
    return Seq2SeqModel(config.arch, src_vocab, tgt_vocab,
                        embed_size=config.embed_size, hidden_size=config.hidden_size,
                        dropout=config.dropout, seed=config.seed)


def shared_source_vocab(corpora, config, control_tokens=True):
    """The input vocabulary shared by every transfer regime.

    Control tokens for multi-task mode are reserved up front so the frozen
    source embedding can address them later.
    """
    extra = tuple(CONTROL_TOKENS[k] for k in sorted(CONTROL_TOKENS)) if control_tokens else ()
    return build_vocab(corpora, side="source", min_freq=config.min_freq,
                       extra_tokens=extra)


def pretrain_copy(en_corpus, config, src_vocab=None, metrics_path=None):
    """Auto-encode English; this checkpoint seeds every transfer regime."""
    if isinstance(en_corpus, ParallelCorpus):
        train_full = copy_corpus([s for s, _ in en_corpus.pairs], pair="en-en")
    else:
        train_full = copy_corpus(en_corpus)
    train, valid = carve_validation(train_full, fraction=0.1, seed=config.seed)
    if src_vocab is None:
        src_vocab = shared_source_vocab([train], config)
    tgt_vocab = build_vocab([train], side="target", min_freq=config.min_freq)
    model = build_model(config, src_vocab, tgt_vocab)
    return fit_with_early_stopping(model, train, valid, config,
                                   metrics_path=metrics_path, stage_label="pretrain")


def transfer_1hop(pretrained, target_splits, config, src_vocab=None,
                  metrics_path=None, stage_label="1hop"):
    """Freeze the pre-trained encoder, rebind the decoder, fine-tune."""
    if src_vocab is not None and list(src_vocab.itos) != list(pretrained.src_vocab):
        raise VocabMismatchError("target corpus does not share the pretraining vocabulary")
    model = pretrained.to_model()
    model.freeze_encoder()
    train = target_splits["train"]
    valid = target_splits.get("valid")
    if valid is None:
        train, valid = carve_validation(train, seed=config.seed)
    tgt_vocab = build_vocab([train], side="target", min_freq=config.min_freq)
    model.rebind_decoder(tgt_vocab, seed=config.seed)
    return fit_with_early_stopping(model, train, valid, config,
                                   metrics_path=metrics_path, stage_label=stage_label)


def combine_multitask(corpora, insert_control=True, src_vocab=None):
    """Concatenate {lang: splits} train corpora, tagging rows with control tokens."""
    pairs = []
    for lang in sorted(corpora):
        token = CONTROL_TOKENS.get(lang)
        for src, tgt in corpora[lang]["train"].pairs:
            if insert_control:
                if src_vocab is not None and token not in src_vocab.stoi:
                    raise VocabMismatchError(
                        "control token %r missing from the shared vocabulary; "
                        "pretrain with control tokens reserved" % token)
                pairs.append(([token] + list(src), list(tgt)))
            else:
                pairs.append((list(src), list(tgt)))
    return ParallelCorpus("multi", pairs, "train")


def train_multitask_joint(pretrained, corpora, config, insert_control=True,
                          freeze_encoder=True, metrics_path=None):
    """Joint fine-tuning on the concatenated union with a single loss."""
    model = pretrained.to_model()
    if freeze_encoder:
        model.freeze_encoder()
    combined = combine_multitask(corpora, insert_control=insert_control,
                                 src_vocab=model.src_vocab)
    train, valid = carve_validation(combined, seed=config.seed)
    tgt_vocab = build_vocab([train], side="target", min_freq=config.min_freq)
    model.rebind_decoder(tgt_vocab, seed=config.seed)
    return fit_with_early_stopping(model, train, valid, config,
                                   metrics_path=metrics_path, stage_label="multitask")


def run_sequential_plan(plan, corpora, config, out_dir=None, metrics_path=None,
                        bleu_max_len=None):
    """Stage-by-stage transfer: prune -> freeze -> rebind -> fine-tune -> score.

    `corpora` maps dataset ids to {"train": ..., "valid":..., "test": ...};
    stage 0's dataset is auto-encoded (targets = sources).  Returns a list of
    {stage, label, checkpoint, bleu} records.
    """
    for stage in plan.stages:
        if stage.dataset_id not in corpora:
            raise KeyError("plan references unknown corpus %r" % stage.dataset_id)
    out_dir = Path(out_dir) if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    max_len = bleu_max_len or config.max_len

    all_train = [corpora[s.dataset_id]["train"] for s in plan.stages]
    src_vocab = shared_source_vocab(all_train, config)

    results = []
    ckpt = None
    prev_test = None
    for idx, stage in enumerate(plan.stages):
        label = stage.label or ("stage%d-%s" % (idx, stage.dataset_id))
        splits = corpora[stage.dataset_id]
        if idx == 0:
            ckpt = pretrain_copy(splits["train"], config, src_vocab=src_vocab,
                                 metrics_path=metrics_path)
            test = copy_corpus([s for s, _ in splits["test"].pairs], split="test") \
                if "test" in splits else None
        else:
            model = ckpt.to_model()
            if stage.prune_mode != "none":
                acts = xray.capture_activations(model, prev_test)
                mass = xray.mass_matrices(acts)
                prune_set = xray.select_prune_set(mass, stage.prune_mode,
                                                  stage.prune_percent)
                model.prune_encoder_units(sorted(prune_set))
            if stage.freeze_encoder:
                model.freeze_encoder()
            train = splits["train"]
            valid = splits.get("valid")
            if valid is None:
                train, valid = carve_validation(train, seed=config.seed)
            tgt_vocab = build_vocab([train], side="target", min_freq=config.min_freq)
            model.rebind_decoder(tgt_vocab, seed=config.seed)
            ckpt = fit_with_early_stopping(model, train, valid, config,
                                           metrics_path=metrics_path,
                                           stage_label=label)
            test = splits.get("test")
        ckpt.provenance.setdefault("stage_label", label)
        ckpt.provenance["prune_mode"] = stage.prune_mode
        bleu = None
        if test is not None and test.pairs:
            bleu = evaluate_corpus(ckpt.to_model(), test, max_len=max_len)
        if out_dir:
            ckpt.save(out_dir / ("%s.lrmt" % label))
        results.append({"stage": idx, "label": label, "checkpoint": ckpt,
                        "bleu": bleu})
        prev_test = test
    return results
