"""The benchmark's three workloads.  README.md beside this file says why
each exists.

A workload builds its inputs from lrmt.synthetic under the run's seed
(`setup`), performs one closed-loop operation per `run` call, and checks
that operation's outputs in `check`, outside the timed region.  `check`
counts operations in an Outcome and adds the samples behind the workload's
own end-to-end metrics.
"""

import csv
import json
import math
import shutil
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from lrmt import bleu, cli, synthetic, training, xray
# Bound at import, before any tracing wrapper exists: the checks below call
# these and must not show up in the trace.
from lrmt.bleu import bleu4
from lrmt.training import CheckpointError, load_checkpoint

from measure import highest_percentile, percentile


class Outcome:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def operation(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


MAX_DECODE = 12


def _copy_config(arch, seed, epochs, batch_size):
    # patience = max_epochs: every call trains the same fixed number of epochs
    return training.TrainConfig(arch=arch, embed_size=32, hidden_size=64,
                                batch_size=batch_size, lr=0.005, dropout=0.0,
                                tf_ratio=1.0, max_epochs=epochs, patience=epochs,
                                seed=seed, max_len=MAX_DECODE)


def _target_tokens(pairs):
    """Non-pad target tokens one epoch trains on: each target plus its eos."""
    return sum(len(tgt) + 1 for _, tgt in pairs)


def _same_as_before(state, key, value):
    """Deterministic outputs must repeat bit for bit across operations."""
    first = state.first.setdefault(key, value)
    return first == value


class Train:
    """abgru copy pretraining at the criterion-3 shape."""

    name = "train"
    setup_repeats = 9
    epochs = 2

    def setup(self, seed, workdir):
        corpus = synthetic.copy_task(pairs=2000, vocab_size=64, min_len=2,
                                     max_len=8, seed=seed)
        config = _copy_config("abgru", seed, self.epochs, batch_size=100)
        # pretrain_copy trains on the same carve of the copy corpus
        trained, _ = training.carve_validation(
            training.copy_corpus([src for src, _ in corpus.pairs]),
            fraction=0.1, seed=seed)
        return SimpleNamespace(corpus=corpus, config=config, first={},
                               tokens=self.epochs * _target_tokens(trained.pairs))

    def run(self, state):
        return training.pretrain_copy(state.corpus, state.config)

    def check(self, state, ckpt, wall, outcome, samples):
        history = ckpt.provenance["history"]
        loss = ckpt.provenance["valid_loss"]
        ok = (len(history) == self.epochs and math.isfinite(loss)
              and loss < history[0]["valid_loss"]
              and _same_as_before(state, "valid_loss", loss))
        outcome.operation(ok, "valid_loss %r after %d epochs (epoch 1: %r)"
                          % (loss, len(history), history[0]["valid_loss"]))
        samples["valid_loss"].append(loss)
        samples["train_tok_per_s"].append(state.tokens / wall)

    def enough(self, samples):
        return True

    def summarise(self, samples):
        return {
            "train_tok_per_s": (median(samples["train_tok_per_s"]), "tok/s",
                                len(samples["train_tok_per_s"])),
            "valid_loss": (samples["valid_loss"][0], "nats",
                           len(samples["valid_loss"])),
        }


class Infer:
    """Greedy decoding, corpus BLEU and activation capture, no training."""

    name = "infer"
    setup_repeats = 3
    archs = ("abgru", "gru", "lstm")

    def setup(self, seed, workdir):
        data = synthetic.splits(synthetic.copy_task, train=400, valid=40,
                                test=50, vocab_size=24, min_len=2, max_len=6,
                                seed=seed)
        models = {arch: training.pretrain_copy(
                      data["train"], _copy_config(arch, seed, 8, batch_size=20)
                  ).to_model() for arch in self.archs}
        test = data["test"]
        return SimpleNamespace(models=models, test=test, first={},
                               tokens=sum(len(src) + 2 for src, _ in test.pairs))

    def run(self, state):
        phases = {}
        for arch, model in state.models.items():
            started = perf_counter()
            rep = bleu.evaluate_corpus(model, state.test, max_len=MAX_DECODE,
                                       sample_count=len(state.test))
            decoded = perf_counter()
            hyps, latencies = [], []
            for src, _ in state.test.pairs:
                begin = perf_counter()
                hyps.append(model.translate(src, max_len=MAX_DECODE))
                latencies.append(perf_counter() - begin)
            captured = perf_counter()
            acts = xray.capture_activations(model, state.test)
            mass = xray.mass_matrices(acts)
            phases[arch] = SimpleNamespace(
                report=rep, decode_s=decoded - started, hyps=hyps,
                latencies=latencies, acts=acts, mass=mass,
                xray_s=perf_counter() - captured)
        return phases

    def check(self, state, phases, wall, outcome, samples):
        for arch, ph in phases.items():
            corpus_hyps = [hyp for _, _, hyp in ph.report.samples]
            for i, hyp in enumerate(ph.hyps):
                outcome.operation(i < len(corpus_hyps) and hyp == corpus_hyps[i],
                                  "%s translate of sentence %d differs from "
                                  "evaluate_corpus" % (arch, i))
            refs = [ref for _, ref, _ in ph.report.samples]
            rescored = bleu4(corpus_hyps, refs).score if corpus_hyps else None
            outcome.operation(rescored == ph.report.score
                              and _same_as_before(state, arch, ph.report.score),
                              "%s BLEU %r, rescored %r"
                              % (arch, ph.report.score, rescored))
            tokens = ph.acts.total_tokens()
            outcome.operation(tokens == state.tokens
                              and int(ph.mass.hit_count.sum()) == state.tokens,
                              "%s captured %d tokens, expected %d"
                              % (arch, tokens, state.tokens))
            samples["translate_s"].extend(ph.latencies)
            samples["decode_s"].append(ph.decode_s)
            samples["decode_sentences"].append(len(state.test))
            samples["xray_s"].append(ph.xray_s)
            samples["xray_tokens"].append(tokens)
        samples["bleu"].append(phases["abgru"].report.score)

    def enough(self, samples):
        """Enough translate calls that p99 has ten samples beyond it."""
        tail = highest_percentile(len(samples["translate_s"]))
        return tail is not None and float(tail) >= 99

    def summarise(self, samples):
        ms = [1000.0 * s for s in samples["translate_s"]]
        return {
            "decode_sent_per_s": (sum(samples["decode_sentences"])
                                  / sum(samples["decode_s"]), "sent/s",
                                  len(samples["decode_s"])),
            "translate_ms_p50": (percentile(ms, "50"), "ms", len(ms)),
            "translate_ms_p99": (percentile(ms, "99"), "ms", len(ms)),
            "xray_tok_per_s": (sum(samples["xray_tokens"]) / sum(samples["xray_s"]),
                               "tok/s", len(samples["xray_s"])),
            "bleu": (samples["bleu"][0], "bleu", len(samples["bleu"])),
        }


class Sequential:
    """`lrmt sequential` in process: pretrain, prune most_n, prune dead."""

    name = "sequential"
    setup_repeats = 9
    epochs = 3
    batch_size = 20
    lr = 0.02
    stages = [{"dataset": "en-en", "label": "pretrain"},
              {"dataset": "en-de", "label": "most10", "prune_mode": "most_n",
               "prune_percent": 10.0, "freeze_encoder": True},
              {"dataset": "en-fr", "label": "dead", "prune_mode": "dead",
               "freeze_encoder": True}]

    def setup(self, seed, workdir):
        data = workdir / "data"
        data.mkdir(parents=True)
        sizes = dict(train=400, valid=40, test=40, vocab_size=24, min_len=2,
                     max_len=6)
        corpora = {
            "en-en": synthetic.splits(synthetic.copy_task, seed=seed, **sizes),
            "en-de": synthetic.splits(synthetic.substitution_task, seed=seed + 10,
                                      **sizes),
            "en-fr": synthetic.splits(synthetic.substitution_task, seed=seed + 20,
                                      **sizes),
        }
        entries = []
        for ds, splits in corpora.items():
            entry = {"id": ds, "pair": ds}
            for split, corpus in splits.items():
                entry[split] = "%s.%s.tsv" % (ds, split)
                (data / entry[split]).write_text(
                    "".join("%s\t%s\n" % (" ".join(s), " ".join(t))
                            for s, t in corpus.pairs), encoding="utf-8")
            entries.append(entry)
        (data / "manifest.json").write_text(json.dumps({"datasets": entries}),
                                            encoding="utf-8")
        config = {"train.arch": "abgru", "train.embed_size": 32,
                  "train.hidden_size": 64, "train.batch_size": self.batch_size,
                  "train.lr": self.lr, "train.dropout": 0.0, "train.tf_ratio": 1.0,
                  "train.max_epochs": self.epochs, "train.patience": self.epochs,
                  "train.max_len": MAX_DECODE, "train.seed": seed,
                  "data.manifest": str(data / "manifest.json"),
                  "plan.stages": self.stages}
        config_path = workdir / "plan.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        # stage 0 trains on the carve pretrain_copy makes; later stages on
        # their whole train split
        pretrain, _ = training.carve_validation(
            training.copy_corpus([src for src, _ in corpora["en-en"]["train"].pairs]),
            fraction=0.1, seed=seed)
        tokens = _target_tokens(pretrain.pairs) + sum(
            _target_tokens(corpora[ds]["train"].pairs) for ds in ("en-de", "en-fr"))
        return SimpleNamespace(config_path=config_path, workdir=workdir, runs=0,
                               first={}, tokens=self.epochs * tokens)

    def run(self, state):
        state.runs += 1
        out = state.workdir / ("out-%d" % state.runs)
        code = cli.main(["sequential", "--config", str(state.config_path),
                         "--out", str(out)])
        return code, out

    def check(self, state, result, wall, outcome, samples):
        code, out = result
        problems = [] if code == 0 else ["exit code %d" % code]
        for stage in self.stages:
            try:
                load_checkpoint(out / ("%s.lrmt" % stage["label"]))
            except (OSError, CheckpointError) as exc:
                problems.append("stage %s checkpoint: %s" % (stage["label"], exc))
        try:
            with open(out / "bleu.csv", encoding="utf-8", newline="") as fh:
                scores = [float(row["score"]) for row in csv.DictReader(fh)]
        except OSError as exc:
            scores = []
            problems.append("bleu.csv: %s" % exc)
        if len(scores) != len(self.stages):
            problems.append("bleu.csv has %d rows for %d stages"
                            % (len(scores), len(self.stages)))
        mean_bleu = sum(scores) / len(scores) if scores else 0.0
        if not _same_as_before(state, "bleu", mean_bleu):
            problems.append("mean BLEU %r differs from the first run" % mean_bleu)
        outcome.operation(not problems, "; ".join(problems))
        samples["train_tok_per_s"].append(state.tokens / wall)
        samples["bleu"].append(mean_bleu)
        shutil.rmtree(out, ignore_errors=True)

    def enough(self, samples):
        return True

    def summarise(self, samples):
        return {
            "train_tok_per_s": (median(samples["train_tok_per_s"]), "tok/s",
                                len(samples["train_tok_per_s"])),
            "bleu": (samples["bleu"][0], "bleu", len(samples["bleu"])),
        }


WORKLOADS = {w.name: w for w in (Train, Infer, Sequential)}
