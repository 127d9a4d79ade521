"""Write a fixed set of lrmt artifacts and the SHA-256 of each, so that two
checkouts can be shown to write the same bytes.

    PYTHONPATH=<checkout>/src python tests/same_bytes.py OUT [OTHER.hashes.json]

It runs `lrmt prepare-data` once on the manifest.  For each of abgru, gru
and lstm, at dropout 0 / tf 1 and at dropout 0.5 / tf 0.5, it runs
`lrmt train` (en-de), `lrmt sequential` (copy pretraining, then a frozen
encoder pruned `most_n` 10%, then an unfrozen one pruned `dead`), and
`lrmt xray`, `lrmt evaluate` and `lrmt prune` (`most_n` 25% and `dead`) on
every stage checkpoint, then `lrmt report` over the three stages' x-ray
`analysis.json`, all inside the new directory OUT.  From each run's
`pretrain.lrmt` it also runs `lrmt transfer` (en-de) and `lrmt multitask`
(de: en-de, fr: en-fr), the 1-hop and joint regimes on a frozen encoder.
Each stage checkpoint also translates its test split one sentence at a
time, a batch of one each, into `translate-<stage>.txt`, so the
single-sentence path is hashed beside the batched decoding of
`lrmt evaluate`.  It then writes OUT.hashes.json, every
file under OUT by its relative path, leaving out `metrics.jsonl` and
`run.json`, which hold wall-clock times.  Run it once per checkout; given
another checkout's hashes file, it prints each path whose digest differs
from that file's, or that only one of the two holds, and exits 1 if there
is any.  BLAS runs one thread:
OpenBLAS's sums depend on its thread count.  Not a test module; pytest does
not collect it.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"            # before numpy loads

from lrmt import cli, synthetic, text, training     # noqa: E402

ARCHS = ("abgru", "gru", "lstm")
NOISE = ((0.0, 1.0), (0.5, 0.5))                    # (dropout, tf_ratio)
STAGES = [{"dataset": "en-en", "label": "pretrain"},
          {"dataset": "en-de", "label": "most10", "prune_mode": "most_n",
           "prune_percent": 10.0, "freeze_encoder": True},
          {"dataset": "en-fr", "label": "dead", "prune_mode": "dead",
           "freeze_encoder": False}]
CORPORA = {"en-en": (synthetic.copy_task, 1), "en-de": (synthetic.substitution_task, 11),
           "en-fr": (synthetic.substitution_task, 21)}
MULTITASK = {"de": "en-de", "fr": "en-fr"}
PRUNES = {"most25": ("--mode", "most_n", "--percent", "25"), "dead": ("--mode", "dead")}
LEFT_OUT = {"metrics.jsonl", "run.json"}


def _write_data(data):
    """The three datasets as TSV splits under `data`, and their manifest."""
    data.mkdir()
    entries = []
    for ds, (maker, seed) in CORPORA.items():
        entry = {"id": ds, "pair": ds}
        splits = synthetic.splits(maker, train=400, valid=40, test=40, seed=seed,
                                  vocab_size=24, min_len=2, max_len=6)
        for split, corpus in splits.items():
            entry[split] = "%s.%s.tsv" % (ds, split)
            (data / entry[split]).write_text("".join(
                "%s\t%s\n" % (" ".join(s), " ".join(t)) for s, t in corpus.pairs),
                encoding="utf-8")
        entries.append(entry)
    (data / "manifest.json").write_text(json.dumps({"datasets": entries}), encoding="utf-8")


def _lrmt(command, config, out, *flags):
    """`lrmt COMMAND` in process on `config`, a dict written next to `out`."""
    path = Path("%s.json" % out)
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(out), *flags]
    if cli.main(argv):
        raise SystemExit("lrmt %s failed" % " ".join(argv))


def _translate(ckpt, test, out):
    """Each sentence of the TSV `test` through `translate` on the checkpoint
    `ckpt`, at its own max_len, one output line per sentence, into `out`."""
    checkpoint = training.Checkpoint.load(ckpt)
    model, max_len = checkpoint.to_model(), checkpoint.train_config().max_len
    lines = [" ".join(model.translate(src, max_len=max_len)) + "\n"
             for src, _ in text.load_tsv(test, truncate=True).pairs]
    out.write_text("".join(lines), encoding="utf-8")


def main(out, other=None):
    theirs = None if other is None else json.loads(Path(other).read_text(encoding="utf-8"))
    out = Path(out).resolve()
    out.mkdir(parents=True)
    os.chdir(out)                   # relative paths only, so OUT's name is in no file
    _write_data(Path("data"))
    _lrmt("prepare-data", {"data.manifest": "data/manifest.json"}, Path("prepare-data"))
    for arch in ARCHS:
        for dropout, tf in NOISE:
            run = Path("%s-dropout%g-tf%g" % (arch, dropout, tf))
            run.mkdir()
            config = {"train.arch": arch, "train.embed_size": 32, "train.hidden_size": 64,
                      "train.batch_size": 20, "train.lr": 0.02, "train.dropout": dropout,
                      "train.tf_ratio": tf, "train.max_epochs": 5, "train.patience": 5,
                      "train.max_len": 12, "train.seed": 3,
                      "data.manifest": "data/manifest.json"}
            _lrmt("train", dict(config, **{"data.dataset": "en-de"}), run / "train")
            _lrmt("sequential", dict(config, **{"plan.stages": STAGES}), run / "sequential")
            for stage in STAGES:
                ckpt = run / "sequential" / ("%s.lrmt" % stage["label"])
                analysis = dict(config, **{"data.dataset": stage["dataset"],
                                           "analysis.neuron": 0})
                for command in ("xray", "evaluate"):
                    _lrmt(command, analysis, run / ("%s-%s" % (command, stage["label"])),
                          "--ckpt", str(ckpt))
                for name, flags in PRUNES.items():
                    _lrmt("prune", analysis, run / ("prune-%s-%s" % (name, stage["label"])),
                          "--ckpt", str(ckpt), *flags)
                _translate(ckpt, Path("data") / ("%s.test.tsv" % stage["dataset"]),
                           run / ("translate-%s.txt" % stage["label"]))
            _lrmt("report", {"report.analyses": [str(run / ("xray-%s" % stage["label"])
                                                     / "analysis.json") for stage in STAGES]},
                  run / "report")
            pretrain = str(run / "sequential" / "pretrain.lrmt")
            _lrmt("transfer", dict(config, **{"data.dataset": "en-de"}), run / "transfer",
                  "--ckpt", pretrain)
            _lrmt("multitask", dict(config, **{"multitask.datasets": MULTITASK}),
                  run / "multitask", "--ckpt", pretrain)
    hashes = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.rglob("*")) if p.is_file() and p.name not in LEFT_OUT}
    target = out.with_name(out.name + ".hashes.json")
    target.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("%d files hashed into %s" % (len(hashes), target))
    if theirs is None:
        return 0
    changed = sorted(p for p in hashes.keys() | theirs.keys() if hashes.get(p) != theirs.get(p))
    for p in changed:
        print("%s: %s" % ("differs" if p in hashes and p in theirs else "in one file only", p))
    print("%d of %d files differ from %s" % (len(changed), len(hashes), other))
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    sys.exit(main(*sys.argv[1:]))
