"""Corpus-level cumulative BLEU-4 and greedy-decoding evaluation."""

import csv
from collections import Counter
from dataclasses import dataclass, field
from math import exp, log

from .text import encode, length_sorted_chunks


@dataclass
class BleuReport:
    """Corpus score with its ingredients (clipped precisions, brevity penalty)."""

    score: float
    precisions: list          # p1..p4
    brevity_penalty: float
    candidate_length: int
    reference_length: int
    samples: list = field(default_factory=list)  # (source, reference, hypothesis) token triples


MAX_N = 4       # BLEU-4: n-grams of 1 to 4 tokens


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(candidates, references):
    """Cumulative BLEU with uniform 1/n weights and the standard brevity penalty.

    Clipped n-gram counts are pooled over the corpus; any zero pooled
    precision gives a score of exactly 0 (no smoothing).
    """
    if len(candidates) != len(references):
        raise ValueError("candidate/reference list length mismatch")
    if not candidates:
        raise ValueError("empty corpus")
    numer = [0] * MAX_N
    denom = [0] * MAX_N
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, MAX_N + 1):
            cgrams = _ngrams(cand, n)
            rgrams = _ngrams(ref, n)
            numer[n - 1] += sum(min(c, rgrams[g]) for g, c in cgrams.items())
            denom[n - 1] += max(len(cand) - n + 1, 0)
    precisions = [numer[i] / denom[i] if denom[i] else 0.0 for i in range(MAX_N)]
    if cand_len == 0:
        bp = 0.0
    else:
        bp = exp(1.0 - ref_len / cand_len) if cand_len < ref_len else 1.0
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * exp(sum(log(p) for p in precisions) / MAX_N)
    return BleuReport(score=score, precisions=precisions, brevity_penalty=bp,
                      candidate_length=cand_len, reference_length=ref_len)


def evaluate_corpus(model, corpus, max_len=50, sample_count=10):
    """Greedy-decode every source sentence and score against the references.

    Sentences are decoded in length-sorted batches; samples keep corpus order.
    """
    sources = [encode(src, model.src_vocab) for src, _ in corpus.pairs]
    decoded = [None] * len(sources)
    for chunk in length_sorted_chunks(sources):
        for i, ids in zip(chunk, model.greedy_decode_batch([sources[i] for i in chunk],
                                                           max_len=max_len)):
            decoded[i] = ids
    hypotheses = [[model.tgt_vocab.token_of(i) for i in ids] for ids in decoded]
    references = [list(tgt) for _, tgt in corpus.pairs]
    report = bleu4(hypotheses, references)
    report.samples = [(list(src), list(tgt), hyp) for (src, tgt), hyp
                      in zip(corpus.pairs[:sample_count], hypotheses)]
    return report


def dump_translations_tsv(report, path):
    """TSV with columns source, reference, hypothesis."""
    lines = ["source\treference\thypothesis"]
    for src, ref, hyp in report.samples:
        lines.append("%s\t%s\t%s" % (" ".join(src), " ".join(ref), " ".join(hyp)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bleu_csv(path, rows):
    """bleu.csv with LF line endings: one line per (stage, label, BleuReport)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["stage", "label", "score", "p1", "p2", "p3", "p4", "bp"])
        for stage, label, rep in rows:
            writer.writerow([stage, label, "%.6f" % rep.score]
                            + ["%.6f" % p for p in rep.precisions]
                            + ["%.6f" % rep.brevity_penalty])
