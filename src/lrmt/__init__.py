"""Little recurrent machine-translation workbench.

A numpy-only package covering the whole pipeline: a reverse-mode tensor
engine, three sequence-to-sequence architectures (LSTM, GRU with context
reinjection, attention-based bidirectional GRU), text preparation, four
training regimes with early stopping and binary checkpoints, corpus BLEU-4,
an activation-analysis layer for selective neuron pruning, and deterministic
SVG reports.
"""

__version__ = "1.0.0"

from .numerics import (
    Adam,
    Parameter,
    Tensor,
    clip_grad_norm,
    cross_entropy_masked,
    default_dtype,
    init_uniform,
    no_grad,
    set_default_dtype,
)
from .text import (
    Batch,
    ParallelCorpus,
    Vocabulary,
    build_vocab,
    encode,
    encode_pairs,
    load_manifest,
    load_tsv,
    make_batches,
    preprocess,
    tokenize,
)
from .postag import pos_tag, tag_token
from .model import ARCHITECTURES, Seq2SeqModel
from .bleu import BleuReport, bleu4, evaluate_corpus
from .training import (
    Checkpoint,
    CheckpointChecksumError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    StageSpec,
    TrainConfig,
    VocabMismatchError,
    early_stopping_trace,
    fit_with_early_stopping,
    load_checkpoint,
    pretrain_copy,
    run_sequential_plan,
    train_multitask_joint,
    transfer_1hop,
)
from .xray import (
    ActivationDataset,
    KnowledgeAbstraction,
    MassActivationMatrix,
    PosTokenDistribution,
    capture_activations,
    change_in_mass,
    dead_neurons,
    knowledge_abstraction,
    mass_matrices,
    pos_token_distribution,
    select_prune_set,
)
from .report import StageAnalysis, export_analysis
from . import synthetic

__all__ = [name for name in dir() if not name.startswith("_")]
