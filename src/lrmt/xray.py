"""Activation capture and the mass-activation algebra used for selective
neuron-knowledge pruning, knowledge abstraction, and change-in-mass analysis."""

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import _container
from .postag import pos_tag
from .text import encode


@dataclass
class ActivationDataset:
    """Per-token encoder states for every real token of a test corpus, laid
    out as `activations.bin` stores them: one row per token, sentence by
    sentence."""

    tokens: list                 # one token list per sentence
    tags: list                   # one POS tag list per sentence
    matrix: np.ndarray           # [total_tokens, width] float64
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(len(toks) != len(tags) for toks, tags in zip(self.tokens, self.tags, strict=True)):
            raise ValueError("token/tag count mismatch")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.total_tokens():
            raise ValueError("a %s activation matrix for %d tokens"
                             % (self.matrix.shape, self.total_tokens()))

    @property
    def width(self):
        return self.matrix.shape[1]

    def total_tokens(self):
        return sum(len(toks) for toks in self.tokens)


@dataclass
class MassActivationMatrix:
    """Per-neuron aggregates over an entire activation dataset."""

    signed_mass: np.ndarray      # sum of raw activations
    magnitude_mass: np.ndarray   # sum of |activation|
    max_mass: np.ndarray         # sum of activations where the neuron was argmax
    hit_count: np.ndarray        # argmax occurrences

    @property
    def width(self):
        return self.signed_mass.shape[0]


@dataclass
class KnowledgeAbstraction:
    positive: float
    negative: float
    overall: float


@dataclass
class PosTokenDistribution:
    neuron: int
    entries: list                # (token, tag, mean activation, normalized mean)
    top_k: list                  # top-k entries by |normalized mean|
    pos_density: dict            # tag -> share of positively activated tokens


def capture_activations(model, corpus, provenance=None):
    """Record the encoder's per-token state for every real token (eval mode).

    `Seq2SeqModel.encode_all` encodes the sentences without a tape in padded,
    length-sorted batches; each batch's live states go to its sentences' rows
    of the float64 matrix in one assignment.
    """
    sources = [encode(src, model.src_vocab) for src, _ in corpus.pairs]
    matrix = model.encode_all(sources, dtype=np.float64).states
    return ActivationDataset(tokens=[["<sos>"] + list(src) + ["<eos>"] for src, _ in corpus.pairs],
                             tags=[["X"] + pos_tag(src) + ["X"] for src, _ in corpus.pairs],
                             matrix=matrix, provenance=provenance or {})


def mass_matrices(acts):
    """All four per-neuron aggregates from column sums and counts over the
    magnitude argmax of each row.

    Magnitude-argmax ties break toward the lowest neuron index.
    """
    if not acts.tokens:
        raise ValueError("empty activation dataset")
    m = acts.matrix
    magnitude = np.abs(m)
    arg = magnitude.argmax(axis=1)      # argmax takes the first (lowest) index on ties
    return MassActivationMatrix(
        signed_mass=m.sum(axis=0), magnitude_mass=magnitude.sum(axis=0),
        max_mass=np.bincount(arg, weights=m[np.arange(m.shape[0]), arg], minlength=acts.width),
        hit_count=np.bincount(arg, minlength=acts.width))


def dead_neurons(mass):
    """Neurons that were never the magnitude-argmax for any token."""
    return set(np.flatnonzero(mass.hit_count == 0).tolist())


PRUNE_MODES = ("dead", "most_n", "least_n")


def check_prune_setting(mode, percent):
    """The one rule for a (mode, percent) pair; a ValueError for a pair that means nothing."""
    if mode not in PRUNE_MODES or not 0.0 <= percent <= 100.0 or percent and mode == "dead":
        raise ValueError("prune_mode %r with prune_percent %r: the mode is one of %s, and the "
                         "percent is in [0, 100] and 0 under dead" % (mode, percent, PRUNE_MODES))


def select_prune_set(mass, mode, percent=0.0):
    """Dead neurons or the top/bottom floor(percent% of N); check_prune_setting vets the pair."""
    check_prune_setting(mode, percent)
    if mode == "dead":
        return dead_neurons(mass)
    n = int(percent / 100.0 * mass.width)
    # stable sort on (key, index) so ties go to the lower neuron index
    order = np.lexsort((np.arange(mass.width),
                        -mass.magnitude_mass if mode == "most_n" else mass.magnitude_mass))
    return set(order[:n].tolist())


def knowledge_abstraction(mass):
    signed = mass.signed_mass
    positive = float(signed[signed > 0].sum())
    negative = float(signed[signed < 0].sum())
    return KnowledgeAbstraction(positive=positive, negative=negative,
                                overall=positive + negative)


def change_in_mass(before, after, top_k=5):
    """Elementwise signed-mass delta plus the most/least changed neuron ids."""
    if before.width != after.width:
        raise ValueError("mass matrix width mismatch")
    delta = after.signed_mass - before.signed_mass
    order = np.lexsort((np.arange(delta.shape[0]), -np.abs(delta)))
    most = order[:top_k].tolist()
    least = order[::-1][:top_k].tolist()
    return delta, most, least


def pos_token_distribution(acts, neuron, k=5):
    """Per-token-type mean activation at one neuron, with POS annotations.  One
    token-type index, in first-seen order, gives each type its first row's tag and
    its mean: its `bincount` sum in row order over its count.  A capture tags a
    token by the token alone; a dataset with conflicting tags gets the first row's."""
    if not 0 <= neuron < acts.width:
        raise IndexError("neuron id out of range")
    if k < 1:
        raise ValueError("k must be >= 1")
    tokens = list(chain.from_iterable(acts.tokens))
    first_tag = {}                  # token -> its first row's tag, in first-seen order
    for tok, tag in zip(tokens, chain.from_iterable(acts.tags)):
        first_tag.setdefault(tok, tag)
    type_id = {tok: i for i, tok in enumerate(first_tag)}
    ids = np.fromiter(map(type_id.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    means = np.bincount(ids, weights=acts.matrix[:, neuron]) / np.bincount(ids)
    max_abs = max(np.abs(means).tolist(), default=0.0)
    scale = max_abs if max_abs > 0 else 1.0
    entries = sorted(zip(first_tag, first_tag.values(), means.tolist(), (means / scale).tolist()),
                     key=lambda e: (-abs(e[3]), e[0]))
    positive = Counter(e[1] for e in entries if e[2] > 0)
    density = {tag: c / positive.total() for tag, c in sorted(positive.items())}
    return PosTokenDistribution(neuron, entries, entries[:k], density)


# -- exchange formats ----------------------------------------------------------


ACTIVATIONS_MAGIC = b"LRMA"
ACTIVATIONS_VERSION = 1


def dump_activations(acts, path):
    """One container file (layout in `_container`): width, per-sentence
    tokens and tags and the provenance in the header, and the dataset's
    [total_tokens, width] float64 matrix."""
    header = {"width": acts.width, "tokens": acts.tokens, "tags": acts.tags,
              "provenance": acts.provenance}
    _container.write(path, ACTIVATIONS_MAGIC, ACTIVATIONS_VERSION, header,
                     [("activations", acts.matrix, {})])


def load_activations(path):
    def build(header, arrays):
        acts = ActivationDataset(tokens=header["tokens"], tags=header["tags"],
                                 matrix=arrays["activations"], provenance=header["provenance"])
        if acts.matrix.dtype != np.float64 or acts.width != header["width"]:
            raise _container.CheckpointFormatError("%s: a %s %s matrix under header width %r"
                                                   % (path, acts.matrix.dtype, acts.matrix.shape,
                                                      header["width"]))
        rows = [acts.tokens, acts.tags, *acts.tokens, *acts.tags]   # each side, then each sentence
        if not (all(isinstance(r, list) for r in rows) and isinstance(acts.provenance, dict)
                and all(isinstance(w, str) for row in rows[2:] for w in row)):
            raise _container.CheckpointFormatError(
                "%s: tokens and tags must be lists of lists of str, provenance an object" % path)
        return acts
    return _container.read(path, ACTIVATIONS_MAGIC, (ACTIVATIONS_VERSION,), build)


def analysis_export(stage, mass, top_changed=None):
    """The machine-readable analysis record written by the report layer."""
    knowledge = knowledge_abstraction(mass)
    return {
        "stage": stage,
        "width": mass.width,
        "signed_mass": mass.signed_mass.tolist(),
        "magnitude_mass": mass.magnitude_mass.tolist(),
        "max_mass": mass.max_mass.tolist(),
        "hit_count": mass.hit_count.tolist(),
        "knowledge": {"positive": knowledge.positive,
                      "negative": knowledge.negative,
                      "overall": knowledge.overall},
        "top_changed": top_changed or [],
    }


def _finite(x):
    return type(x) in (int, float) and math.isfinite(x)


# mass key of an analysis record -> (what each entry must be, its check)
_MASS_ENTRIES = {
    "signed_mass": ("a finite number", _finite),
    "magnitude_mass": ("a finite number >= 0", lambda x: _finite(x) and x >= 0),
    "max_mass": ("a finite number", _finite),
    "hit_count": ("an int >= 0", lambda x: type(x) is int and x >= 0),
}


def load_analysis(path):
    """The (stage, mass, top_changed) of each `analysis_export` record in the
    JSON file at `path`, which holds one record or a list of them.  A record
    raises ValueError unless each mass key holds a list of its `_MASS_ENTRIES`
    values, all of its "width", and "top_changed", if present, is a list."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    records = []
    for i, rec in enumerate(doc if isinstance(doc, list) else [doc]):
        for key, (what, ok) in _MASS_ENTRIES.items():
            if not isinstance(rec[key], list) or not all(map(ok, rec[key])):
                raise ValueError("%s: record %d: %r must be a list of entries each %s"
                                 % (path, i, key, what))
        if not isinstance(rec.get("top_changed", []), list):
            raise ValueError("%s: record %d: 'top_changed' must be a list" % (path, i))
        mass = MassActivationMatrix(
            signed_mass=np.asarray(rec["signed_mass"], dtype=np.float64),
            magnitude_mass=np.asarray(rec["magnitude_mass"], dtype=np.float64),
            max_mass=np.asarray(rec["max_mass"], dtype=np.float64),
            hit_count=np.asarray(rec["hit_count"], dtype=np.int64))
        shapes = [a.shape for a in vars(mass).values()]
        if any(shape != (rec["width"],) for shape in shapes):
            raise ValueError("%s: record %d has width %r but mass arrays of shapes %s"
                             % (path, i, rec["width"], shapes))
        records.append((str(rec["stage"]), mass, rec.get("top_changed", [])))
    return records
