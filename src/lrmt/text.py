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
    stoi: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.itos[:4] != RESERVED:
            raise ValueError("vocabulary must start with the reserved tokens")
        if not self.stoi:
            self.stoi = {tok: i for i, tok in enumerate(self.itos)}

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

    pair: str              # e.g. "en-de"
    pairs: list            # list of (src token list, tgt token list)
    split: str = "train"   # train/valid/test

    def __post_init__(self):
        for src, tgt in self.pairs:
            if not src or not tgt:
                raise ValueError("empty sentence in corpus %s" % self.pair)

    def __len__(self):
        return len(self.pairs)


@dataclass
class Batch:
    """Padded id matrices with source lengths; pad id is 0."""

    source: np.ndarray       # [B, Ts] int64
    source_lengths: np.ndarray
    target: np.ndarray       # [B, Tt] int64
    lang_token: int = None   # optional control-token id inserted after sos


def load_tsv(path, pair, split, max_len=50, truncate=False):
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
    return ParallelCorpus(pair=pair, pairs=pairs, split=split)


def load_manifest(path, max_len=50):
    """Load a manifest JSON naming language pairs and their split files.

    Format: {"datasets": [{"id": "en-de", "pair": "en-de",
                           "train": "...", "valid": "...", "test": "..."}]}
    Paths are resolved relative to the manifest file.
    """
    path = Path(path)
    spec = json.loads(path.read_text(encoding="utf-8"))
    corpora = {}
    for entry in spec["datasets"]:
        splits = {}
        for split in ("train", "valid", "test"):
            if split in entry:
                fp = path.parent / entry[split]
                if not fp.exists():
                    raise FileNotFoundError("corpus file missing: %s" % fp)
                splits[split] = load_tsv(fp, entry["pair"], split, max_len=max_len,
                                         truncate=(split != "train"))
        corpora[entry["id"]] = splits
    return corpora


def build_vocab(corpora, side="source", min_freq=1, extra_tokens=()):
    """Frequency-then-lexicographic vocabulary over one side of the corpora.

    Tokens below `min_freq` are left out and encode to unk.  `extra_tokens`
    (e.g. multi-task control tokens) are appended right after the reserved ids.
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
    itos += [tok for tok, c in ordered if c >= min_freq and tok not in itos]
    return Vocabulary(itos=itos)


def encode(tokens, vocab):
    """[sos] + mapped ids (unk for OOV) + [eos]."""
    return [SOS] + [vocab.id_of(t) for t in tokens] + [EOS]


def _pad_rows(rows):
    width = max(len(r) for r in rows)
    out = np.zeros((len(rows), width), dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def make_batches(corpus, src_vocab, tgt_vocab, batch_size, seed, lang_token=None):
    """Seeded shuffle, encode, and pad into batches of at most `batch_size`.

    When `lang_token` is given (multi-task mode) its id is inserted right
    after sos on the source side of every row.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus.pairs))
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        src_rows, tgt_rows = [], []
        for i in chunk:
            src, tgt = corpus.pairs[i]
            ids = encode(src, src_vocab)
            if lang_token is not None:
                ids = [ids[0], src_vocab.id_of(lang_token)] + ids[1:]
            src_rows.append(ids)
            tgt_rows.append(encode(tgt, tgt_vocab))
        src_mat = _pad_rows(src_rows)
        lengths = np.array([len(r) for r in src_rows], dtype=np.int64)
        batches.append(Batch(source=src_mat, source_lengths=lengths,
                             target=_pad_rows(tgt_rows), lang_token=lang_token))
    return batches
