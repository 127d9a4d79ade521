"""Corpus ingestion, preprocessing, vocabulary construction, and batching."""

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PAD, SOS, EOS, UNK = 0, 1, 2, 3
PAD_TOKEN, SOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<sos>", "<eos>", "<unk>"
RESERVED = [PAD_TOKEN, SOS_TOKEN, EOS_TOKEN, UNK_TOKEN]

# English contractions expanded before tokenization.  Applied longest-first,
# case already folded.
CONTRACTIONS = {
    "won't": "will not",
    "shan't": "shall not",
    "ain't": "is not",
    "can't": "cannot",
    "let's": "let us",
    "y'all": "you all",
    "o'clock": "oclock",
    "it's": "it is",
    "that's": "that is",
    "what's": "what is",
    "who's": "who is",
    "there's": "there is",
    "here's": "here is",
    "he's": "he is",
    "she's": "she is",
}

# generic suffix expansions, applied after the table above
_GENERIC_SUFFIXES = [
    ("n't", " not"),
    ("'re", " are"),
    ("'ve", " have"),
    ("'ll", " will"),
    ("'m", " am"),
    ("'d", " would"),
]

_KEEP_PUNCT = ".,!?;:-"
_ALLOWED_RE = re.compile(r"[^a-z0-9\s" + re.escape(_KEEP_PUNCT) + r"]")
_PUNCT_RE = re.compile(r"([" + re.escape(_KEEP_PUNCT) + r"])")


def preprocess(raw):
    """Lowercase, expand contractions, strip odd characters, space punctuation.

    Returns "" when nothing survives; the caller flags such lines for removal.
    """
    text = raw.lower()
    text = text.replace("’", "'").replace("‘", "'")
    for contraction, expansion in CONTRACTIONS.items():
        text = text.replace(contraction, expansion)
    for suffix, expansion in _GENERIC_SUFFIXES:
        text = text.replace(suffix, expansion)
    text = text.replace("'", "")
    text = _ALLOWED_RE.sub(" ", text)
    text = _PUNCT_RE.sub(r" \1 ", text)
    return " ".join(text.split())


def tokenize(text):
    """Whitespace split; trailing punctuation becomes its own token."""
    tokens = []
    for piece in text.split():
        if len(piece) > 1 and piece[-1] in _KEEP_PUNCT and piece[:-1].strip("-"):
            tokens.append(piece[:-1])
            tokens.append(piece[-1])
        else:
            tokens.append(piece)
    return tokens


@dataclass
class Vocabulary:
    """token<->id maps with reserved ids pad=0, sos=1, eos=2, unk=3."""

    itos: list
    stoi: dict = field(init=False)

    def __post_init__(self):
        if self.itos[:4] != RESERVED:
            raise ValueError("vocabulary must start with the reserved tokens")
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}
        if len(self.stoi) < len(self.itos):
            raise ValueError("vocabulary repeats token %r"
                             % next(t for i, t in enumerate(self.itos) if self.stoi[t] != i))

    def __len__(self):
        return len(self.itos)

    def id_of(self, token):
        return self.stoi.get(token, UNK)

    def token_of(self, idx):
        return self.itos[idx]

    def export_json(self, path):
        Path(path).write_text(json.dumps(self.itos, ensure_ascii=False, indent=0),
                              encoding="utf-8")

    @classmethod
    def from_json(cls, path):
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class ParallelCorpus:
    """Aligned (source tokens, target tokens) pairs for one language pair."""

    pairs: list            # list of (src token list, tgt token list)

    def __post_init__(self):
        for i, (src, tgt) in enumerate(self.pairs):
            if not src or not tgt:
                raise ValueError("empty sentence in corpus pair %d" % i)

    def __len__(self):
        return len(self.pairs)


@dataclass
class Batch:
    """Right-padded id matrices; pad id is 0 and no row holds it before its end.

    `make_batches` records `index`, the rows of its pairs list that the batch
    holds, in batch order.  `encoding`, when set, is the `EncodeResult` that
    `forward_teacher_forced` reads in place of encoding `source`: a frozen,
    dropout-free encoder's rows gathered from one encoding of the whole split
    (`model.EncodedRows`).  A batch built by hand has neither."""

    source: np.ndarray       # [B, Ts] int64
    target: np.ndarray       # [B, Tt] int64
    index: np.ndarray = None     # [B] int64
    encoding: object = None


def load_tsv(path, max_len=50, truncate=False):
    """Read a Tatoeba-style TSV (source TAB target per line) into a corpus.

    Lines that clean to empty are dropped.  Pairs longer than `max_len` tokens
    on either side are dropped (training) or truncated (evaluation).
    """
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) < 2:
                continue
            src = tokenize(preprocess(cols[0]))
            tgt = tokenize(preprocess(cols[1]))
            if not src or not tgt:
                continue
            if len(src) > max_len or len(tgt) > max_len:
                if not truncate:
                    continue
                src, tgt = src[:max_len], tgt[:max_len]
            pairs.append((src, tgt))
    return ParallelCorpus(pairs)


SPLITS = ("train", "valid", "test")


def manifest_files(path):
    """The manifest JSON at `path`, checked: {dataset id: {split: file path}}.

    Format: {"datasets": [{"id": "en-de", "train": "...", "valid": "...",
                           "test": "..."}]}
    Paths are resolved relative to the manifest file; a split may be left
    out, and other keys (such as a "pair" label) are ignored.  A manifest
    of another shape, or one that lists a dataset id twice, raises ValueError
    naming the key at fault.
    """
    path = Path(path)
    spec = json.loads(path.read_text(encoding="utf-8"))
    datasets = spec.get("datasets") if isinstance(spec, dict) else None
    if not isinstance(datasets, list):
        raise ValueError("manifest %s: 'datasets' must be a list of objects" % path)
    files = {}
    for i, entry in enumerate(datasets):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise ValueError("manifest %s: 'datasets'[%d] must be an object with "
                             "a string 'id'" % (path, i))
        for split in SPLITS:
            if not isinstance(entry.get(split, ""), str):
                raise ValueError("manifest %s: 'datasets'[%d] %r must be a file name"
                                 % (path, i, split))
        if entry["id"] in files:
            raise ValueError("manifest %s: 'datasets'[%d] repeats dataset id %r"
                             % (path, i, entry["id"]))
        files[entry["id"]] = {split: path.parent / entry[split]
                              for split in SPLITS if split in entry}
    return files


def load_manifest(path, max_len=50):
    """Load every split file a manifest names (see `manifest_files`):
    {dataset id: {split: corpus}}."""
    corpora = {}
    for dataset, files in manifest_files(path).items():
        splits = {}
        for split, fp in files.items():
            if not fp.exists():
                raise FileNotFoundError("corpus file missing: %s" % fp)
            splits[split] = load_tsv(fp, max_len=max_len, truncate=(split != "train"))
        corpora[dataset] = splits
    return corpora


def build_vocab(corpora, side="source", extra_tokens=()):
    """Frequency-then-lexicographic vocabulary over one side of the corpora.

    `extra_tokens` (e.g. multi-task control tokens) are appended right after
    the reserved ids.
    """
    if not corpora:
        raise ValueError("no corpora given")
    counts = {}
    idx = 0 if side == "source" else 1
    for corpus in corpora:
        for pair in corpus.pairs:
            for tok in pair[idx]:
                counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    itos = list(RESERVED) + list(extra_tokens)
    itos += [tok for tok, _ in ordered if tok not in itos]
    return Vocabulary(itos=itos)


def encode(tokens, vocab):
    """[sos] + mapped ids (unk for OOV) + [eos].

    Never PAD (a literal pad token maps to unk, PAD being 0), so the pad
    mask of a right-padded batch is simply `ids != PAD`."""
    return [SOS] + [vocab.id_of(t) or UNK for t in tokens] + [EOS]


def pad_rows(rows):
    """Id lists as one [B, T] int64 matrix, right-padded with PAD."""
    width = max(len(r) for r in rows)
    out = np.zeros((len(rows), width), dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


# Rows per inference batch: bounds the [rows, V] logits of one decoder step
INFER_BATCH = 64


def length_sorted_chunks(rows):
    """Index lists of at most INFER_BATCH rows, shortest rows first, so a
    padded inference batch holds rows of similar length."""
    order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
    return [order[k:k + INFER_BATCH] for k in range(0, len(order), INFER_BATCH)]


def encode_pairs(corpus, src_vocab, tgt_vocab):
    """Every pair of `corpus` as (source ids, target ids), each side `encode`d."""
    return [(encode(src, src_vocab), encode(tgt, tgt_vocab)) for src, tgt in corpus.pairs]


def make_batches(pairs, batch_size, seed):
    """Seeded shuffle of `encode_pairs` output, padded into batches of at
    most `batch_size`, each with the `index` of the pairs it holds."""
    order = np.random.default_rng(seed).permutation(len(pairs))
    batches = []
    for start in range(0, len(order), batch_size):
        index = order[start:start + batch_size]
        chunk = [pairs[i] for i in index]
        batches.append(Batch(source=pad_rows([src for src, _ in chunk]),
                             target=pad_rows([tgt for _, tgt in chunk]), index=index))
    return batches
