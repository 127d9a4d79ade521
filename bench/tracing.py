"""Spans around calls into lrmt's public functions, recorded from outside.

`Tracer.installed(run)` swaps each function in PATCHES for a recording
wrapper under the exact name its caller looks it up by (training imports
`clip_grad_norm` by name, so the wrapper goes into `training`, not
`numerics`), and puts every original back when the block ends.  Nothing
under src/ changes.  Spans are kept in memory as
[name, start, end, parent index, run id] and written once by `dump`.
"""

import functools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from lrmt import bleu, cli, model, numerics, report, text, training, xray

# Counters run after their span ends, inside a span of this name, so that
# their cost is charged to no layer.
COUNT_SPAN = "trace.count"


def _count_encode(add, parent, args, result):
    add("model.encode_rows", np.shape(args[1])[0])


def _count_decode_step(add, parent, args, result):
    add("model.decode_step_rows", np.size(args[1]))
    if parent == "model.greedy_decode":
        add("numerics.infer_steps", 1)
        add("numerics.infer_taped", int(result[1].requires_grad))


def _count_batches(add, parent, args, result):
    add("text.batches", len(result))
    for batch in result:
        for ids in (batch.source, batch.target):
            add("text.pad_cells", int((ids == text.PAD).sum()))
            add("text.cells", ids.size)


def _count_pos_tag(add, parent, args, result):
    add("postag.tokens", len(args[0]))


def _count_capture(add, parent, args, result):
    add("xray.tokens", result.total_tokens())


def _count_sentences(add, parent, args, result):
    add("bleu.sentences", len(args[1].pairs))


def _count_ckpt_bytes(add, parent, args, result):
    add("training.ckpt_bytes", os.path.getsize(args[1]))


def _count_report_bytes(add, parent, args, result):
    add("report.bytes", sum(p.stat().st_size for p in Path(args[1]).iterdir()
                            if p.is_file()))


# (span name, owner looked up by the caller, attribute, counter or None)
PATCHES = (
    ("numerics.backward", numerics.Tensor, "backward", None),
    ("numerics.loss", training, "cross_entropy_masked", None),
    ("numerics.clip", training, "clip_grad_norm", None),
    ("numerics.adam", numerics.Adam, "step", None),
    ("model.encode", model.Seq2SeqModel, "encode", _count_encode),
    ("model.decode_step", model.Seq2SeqModel, "decode_step", _count_decode_step),
    ("model.forward_tf", model.Seq2SeqModel, "forward_teacher_forced", None),
    ("model.greedy_decode", model.Seq2SeqModel, "greedy_decode", None),
    ("text.make_batches", training, "make_batches", _count_batches),
    ("text.load_manifest", text, "load_manifest", None),
    ("postag.pos_tag", xray, "pos_tag", _count_pos_tag),
    ("xray.capture", xray, "capture_activations", _count_capture),
    ("xray.mass_matrices", xray, "mass_matrices", None),
    ("bleu.evaluate_corpus", bleu, "evaluate_corpus", _count_sentences),
    ("bleu.evaluate_corpus", training, "evaluate_corpus", _count_sentences),
    ("bleu.bleu4", bleu, "bleu4", None),
    ("training.train_epoch", training, "train_epoch", None),
    ("training.evaluate_loss", training, "evaluate_loss", None),
    ("training.ckpt_from_model", training.Checkpoint, "from_model", None),
    ("training.ckpt_to_model", training.Checkpoint, "to_model", None),
    ("training.ckpt_save", training.Checkpoint, "save", _count_ckpt_bytes),
    ("report.export_analysis", report, "export_analysis", _count_report_bytes),
    ("cli.sequential", cli._COMMANDS, "sequential", None),
)


def _lookup(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.spans = []
        self.counts = {}          # run id -> {counter: total}
        self.run = None
        self._stack = []

    @contextmanager
    def installed(self, run):
        """Record spans under run id `run` while the block executes."""
        self.run = run
        self.counts.setdefault(run, {})
        saved = []
        try:
            for name, owner, attr, count in self.patches:
                original = _lookup(owner, attr)
                saved.append((owner, attr, original))
                _assign(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                _assign(owner, attr, original)
            self.run = None

    def _add(self, counter, value):
        totals = self.counts[self.run]
        totals[counter] = totals.get(counter, 0) + value

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), None, parent, self.run]
        self.spans.append(span)
        return span, len(self.spans) - 1, parent

    def _wrap(self, name, original, count):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(name, original.__func__, count))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span, index, parent = self._open(name)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = perf_counter()
            if count is not None:
                counting, _, _ = self._open(COUNT_SPAN)
                count(self._add, self.spans[parent][0] if parent >= 0 else None,
                      args, result)
                counting[2] = perf_counter()
            return result

        return wrapper

    def layer_totals(self):
        """Per run id: {"<span>_s": self seconds, "<span>_calls": n} plus the
        run's counters."""
        totals = {run: dict(counts) for run, counts in self.counts.items()}
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[0] == COUNT_SPAN:
                continue
            run = totals.setdefault(span[4], {})
            run[span[0] + "_s"] = run.get(span[0] + "_s", 0.0) + own
            run[span[0] + "_calls"] = run.get(span[0] + "_calls", 0) + 1
        return totals

    def dump(self, path):
        """Write every span once, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - origin, end - origin, parent, run]
                for name, start, end, parent, run in self.spans]
        Path(path).write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "run"],
            "spans": rows, "counts": self.counts}), encoding="utf-8")


def self_times(spans):
    """Each span's duration minus the part of it covered by its child spans."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out
