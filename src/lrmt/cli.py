"""Command-line interface driving the full pipeline.

Configuration is a JSON file of flat dotted keys ("train.lr", "data.manifest",
...); each command's flags set dotted keys over the file's values, once, in
`main`, which checks each against its row of `_KEYS` before any work.  Every
command writes its artifacts under --out, starting with a run.json record.
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__, bleu, report, text, training, xray
from .training import StageSpec, TrainConfig, check_type


class ConfigError(Exception):
    pass


def _stage_specs(stages):
    """The StageSpec of each `plan.stages` entry (its dataset under "dataset"); [] fails."""
    specs = []
    for i, entry in enumerate(stages):
        try:
            entry = {**entry}          # a copy, and a TypeError for a non-object
            specs.append(StageSpec(dataset_id=entry.pop("dataset", None), **entry))
        except (TypeError, ValueError) as exc:
            raise ConfigError("'plan.stages'[%d]: %s" % (i, exc))
    return specs


# key -> (type, default or MISSING if required, check: false for a value out of range)
_KEYS = {
    **{"train." + f.name: (f.type, f.default, None) for f in fields(TrainConfig)},
    "data.manifest": (str, MISSING, None),
    "data.dataset": (str, MISSING, None),
    "data.test": (str, None, None),
    "data.max_len": (int, 50, lambda n: n >= 1),
    "plan.stages": (list, MISSING, _stage_specs),
    "multitask.datasets": (dict, MISSING,
                           lambda m: m and all(isinstance(d, str) for d in m.values())),
    "ckpt": (str, MISSING, None),
    "analysis.mode": (str, "dead", None),          # these two are checked as a pair,
    "analysis.percent": (float, 0.0, None),        # by xray.check_prune_setting
    "analysis.top_k": (int, 5, lambda k: k >= 1),
    "analysis.neuron": (int, None, lambda n: n >= 0),
    "report.analyses": (list, MISSING,
                        lambda paths: paths and all(isinstance(p, str) for p in paths)),
}


def _get(cfg, key):
    """The value of `key`, which `check_config` has checked, or the key's default."""
    value = cfg.get(key, _KEYS[key][1])
    if value is MISSING:
        raise ConfigError("missing config key: %r" % key)
    return value


def load_config(path):
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object of dotted keys")
    return cfg


def resolve_train_config(cfg):
    kwargs = {k.split(".", 1)[1]: v for k, v in cfg.items()
              if k.startswith("train.")}
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad training configuration: train.%s" % exc)


def check_config(cfg):
    """A ConfigError naming the first unknown, ill-typed or out-of-range key (or pair) of `cfg`."""
    for key, value in cfg.items():
        if key not in _KEYS:
            raise ConfigError("unknown config key: %r" % key)
        kind, _default, check = _KEYS[key]
        check_type(repr(key), value, kind, ConfigError)
        if check is not None and not check(value):
            raise ConfigError("%r: %r is not a valid value" % (key, value))
    try:
        xray.check_prune_setting(_get(cfg, "analysis.mode"), _get(cfg, "analysis.percent"))
    except ValueError as exc:
        raise ConfigError("'analysis.mode' and 'analysis.percent': %s" % exc)
    resolve_train_config(cfg)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_run_record(out, command, cfg, inputs):
    """Provenance first: config hash, corpus hashes, versions."""
    out.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    record = {
        "command": command,
        "config": cfg,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "inputs": {str(p): _sha256(p) for p in sorted(str(x) for x in inputs)},
        "versions": {"lrmt": __version__, "numpy": np.__version__,
                     "python": "%d.%d.%d" % sys.version_info[:3]},
    }
    (out / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True),
                                  encoding="utf-8")


def _load_data(cfg):
    # main has checked that the manifest and every file it names exist
    return text.load_manifest(_get(cfg, "data.manifest"), max_len=_get(cfg, "data.max_len"))


def _splits(corpora, dataset, key="data.dataset", split="train", fit=False):
    """The splits of `dataset`, whose `split` split a command reads, so it needs one
    with pairs; a command that `fit`s on them needs `training.leaves_train_pairs`."""
    if dataset not in corpora:
        raise ConfigError("unknown dataset id in %r: %r" % (key, dataset))
    if not corpora[dataset].get(split):
        raise ConfigError("dataset %r in %r has no %s split with pairs" % (dataset, key, split))
    if fit and not training.leaves_train_pairs(corpora[dataset]):
        raise ConfigError("dataset %r in %r has one train pair and no valid split with pairs, "
                          "and the validation carve takes that pair whole" % (dataset, key))
    return corpora[dataset]


# -- subcommands -------------------------------------------------------------


def cmd_prepare_data(cfg, out):
    corpora = _load_data(cfg)
    seed = resolve_train_config(cfg).seed
    for ds_id in corpora:
        if not training.names_a_file(ds_id):
            raise ConfigError("dataset id %r cannot name its vocabulary files: it holds a "
                              "path separator or is '.' or '..'" % ds_id)
    summary = {}
    for ds_id, splits in sorted(corpora.items()):
        summary[ds_id] = {"splits": {s: len(c.pairs) for s, c in splits.items()}}
        if not splits.get("train"):
            continue        # nothing trains on it, so it has no vocabulary
        src, tgt = training.vocabularies(training.fit_splits(splits, seed)[0])
        src.export_json(out / ("%s.src.vocab.json" % ds_id))
        tgt.export_json(out / ("%s.tgt.vocab.json" % ds_id))
        summary[ds_id].update(source_vocab=len(src.itos), target_vocab=len(tgt.itos))
    (out / "datasets.json").write_text(json.dumps(summary, indent=2, sort_keys=True),
                                       encoding="utf-8")
    return 0


def _fresh_metrics(out):
    """metrics.jsonl emptied, so it holds this command's rows only."""
    path = out / "metrics.jsonl"
    path.write_text("", encoding="utf-8")
    return path


def _score(ckpt, corpus, out):
    """bleu.csv and translations.tsv for one checkpoint, labelled by its stage;
    `train`, `transfer` and `evaluate` all score through here."""
    rep = bleu.evaluate_corpus(ckpt.to_model(), corpus, max_len=ckpt.train_config().max_len)
    bleu.write_bleu_csv(out / "bleu.csv", [(0, ckpt.provenance.get("stage", "eval"), rep)])
    bleu.dump_translations_tsv(rep, out / "translations.tsv")


def _finalize(ckpt, out, name, test):
    ckpt.save(out / ("%s.lrmt" % name))
    if test is not None and test.pairs:
        _score(ckpt, test, out)


def cmd_train(cfg, out):
    splits = _splits(_load_data(cfg), _get(cfg, "data.dataset"), fit=True)
    ckpt = training.train_from_scratch(splits, resolve_train_config(cfg),
                                       metrics_path=_fresh_metrics(out))
    _finalize(ckpt, out, "model", splits.get("test"))
    return 0


def _load_ckpt(cfg):
    return training.load_checkpoint(_get(cfg, "ckpt"))


def _fine_tune_config(cfg, pretrained):
    """The TrainConfig of a run fine-tuning `pretrained`, whose model shape it must keep."""
    shape = {"train." + k: pretrained.config[k] for k in training.MODEL_KEYS}
    for key, value in shape.items():
        if cfg.get(key, value) != value:
            raise ConfigError("%r is %r, but the pretrained checkpoint has %r"
                              % (key, cfg[key], value))
    return resolve_train_config({**cfg, **shape})


def cmd_transfer(cfg, out):
    corpora = _load_data(cfg)
    pretrained = _load_ckpt(cfg)
    config = _fine_tune_config(cfg, pretrained)
    splits = _splits(corpora, _get(cfg, "data.dataset"), fit=True)
    ckpt = training.transfer_1hop(pretrained, splits, config,
                                  metrics_path=_fresh_metrics(out))
    _finalize(ckpt, out, "transfer", splits.get("test"))
    return 0


def cmd_multitask(cfg, out):
    corpora = _load_data(cfg)
    task_corpora = {lang: _splits(corpora, ds, "multitask.datasets")   # fit as one union
                    for lang, ds in _get(cfg, "multitask.datasets").items()}
    pretrained = _load_ckpt(cfg)
    config = _fine_tune_config(cfg, pretrained)
    try:
        ckpt = training.train_multitask_joint(pretrained, task_corpora, config,
                                              metrics_path=_fresh_metrics(out))
    except training.VocabMismatchError as exc:
        raise ConfigError("'multitask.datasets': %s" % exc)
    ckpt.save(out / "multitask.lrmt")
    return 0


def cmd_sequential(cfg, out):
    corpora = _load_data(cfg)
    config = resolve_train_config(cfg)
    plan = _stage_specs(_get(cfg, "plan.stages"))
    try:
        training.check_plan(plan, corpora)
    except (KeyError, ValueError) as exc:
        raise ConfigError("'plan.stages': %s" % exc.args[0])
    results = training.run_sequential_plan(
        plan, corpora, config, out_dir=out, metrics_path=_fresh_metrics(out))
    rows = [(r["stage"], r["label"], r["bleu"]) for r in results
            if r["bleu"] is not None]
    if rows:
        bleu.write_bleu_csv(out / "bleu.csv", rows)
    stages = [report.StageAnalysis(stage=r["stage"], label=r["label"], mass=r["mass"],
                                   bleu=r["bleu"])
              for r in results if r["mass"] is not None]
    if stages:
        report.export_analysis(stages, out / "report")
    return 0


def _analysis_corpus(cfg):
    """The test corpus an analysis command reads: `data.test`, else the dataset's test split."""
    test_path = _get(cfg, "data.test")
    if test_path is None:
        return _splits(_load_data(cfg), _get(cfg, "data.dataset"), split="test")["test"]
    corpus = text.load_tsv(test_path, max_len=_get(cfg, "data.max_len"), truncate=True)
    if not corpus.pairs:
        raise ConfigError("'data.test': the test corpus holds no pair after cleaning")
    return corpus


def cmd_prune(cfg, out):
    mode, percent = _get(cfg, "analysis.mode"), _get(cfg, "analysis.percent")
    ckpt = _load_ckpt(cfg)
    model = ckpt.to_model()
    mass = xray.mass_matrices(xray.capture_activations(model, _analysis_corpus(cfg)))
    provenance = {**ckpt.provenance, **training.prune_encoder(model, mass, mode, percent)}
    training.Checkpoint.from_model(model, ckpt.train_config(),
                                   provenance=provenance).save(out / "pruned.lrmt")
    return 0


def cmd_evaluate(cfg, out):
    ckpt = _load_ckpt(cfg)
    _score(ckpt, _analysis_corpus(cfg), out)
    return 0


def cmd_xray(cfg, out):
    ckpt = _load_ckpt(cfg)
    model = ckpt.to_model()
    neuron = _get(cfg, "analysis.neuron")
    if neuron is None and "analysis.top_k" in cfg:
        raise ConfigError("'analysis.top_k' sizes neuron_<k>.svg, so it needs 'analysis.neuron'")
    if neuron is not None and neuron >= model.analysis_width:
        raise ConfigError("'analysis.neuron': %d >= width %d" % (neuron, model.analysis_width))
    corpus = _analysis_corpus(cfg)
    acts = xray.capture_activations(model, corpus,
                                    provenance={"checkpoint": Path(_get(cfg, "ckpt")).name})
    xray.dump_activations(acts, out / "activations.bin")
    mass = xray.mass_matrices(acts)
    (out / "analysis.json").write_text(
        json.dumps(xray.analysis_export(ckpt.provenance.get("stage", "xray"), mass),
                   indent=2, sort_keys=True), encoding="utf-8")
    if neuron is not None:
        dist = xray.pos_token_distribution(acts, neuron, k=_get(cfg, "analysis.top_k"))
        report.render_pos_distribution(dist, out / ("neuron_%d.svg" % neuron))
    return 0


def cmd_report(cfg, out):
    stages, first = [], None
    for p in _get(cfg, "report.analyses"):
        try:
            records = xray.load_analysis(p)
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("cannot read analysis records from %s: %s: %s"
                              % (p, type(exc).__name__, exc))
        for label, mass, top_changed in records:
            first = first or (p, mass.width)
            if mass.width != first[1]:
                raise ConfigError("'report.analyses': %s holds records of width %d, %s of "
                                  "width %d" % (first[0], first[1], p, mass.width))
            stages.append(report.StageAnalysis(stage=len(stages), label=label, mass=mass,
                                               top_changed=top_changed))
    report.export_analysis(stages, out)
    return 0


_COMMANDS = {
    "prepare-data": cmd_prepare_data,
    "train": cmd_train,
    "transfer": cmd_transfer,
    "multitask": cmd_multitask,
    "sequential": cmd_sequential,
    "prune": cmd_prune,
    "evaluate": cmd_evaluate,
    "xray": cmd_xray,
    "report": cmd_report,
}


# flag -> (the config key it sets, the commands that read it); `_KEYS` gives its type
_FLAGS = {
    "--seed": ("train.seed", ("train", "transfer", "multitask", "sequential")),
    "--arch": ("train.arch", ("train", "sequential")),
    "--ckpt": ("ckpt", ("transfer", "multitask", "prune", "evaluate", "xray")),
    "--test": ("data.test", ("prune", "evaluate", "xray")),
    "--mode": ("analysis.mode", ("prune",)),
    "--percent": ("analysis.percent", ("prune",)),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="lrmt",
                                     description="Recurrent translation workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)  # unset flags set no key
        p.add_argument("--config", default=None)
        p.add_argument("--out", default="out", type=Path)
        for flag, (key, commands) in _FLAGS.items():
            if name in commands:
                p.add_argument(flag, dest=key, type=_KEYS[key][0])
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        flags = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command, config_path, out = (flags.pop(k) for k in ("command", "config", "out"))
    try:
        cfg = {**load_config(config_path), **flags}
        check_config(cfg)
        inputs = [config_path] if config_path else []
        if "data.manifest" in cfg:
            try:
                datasets = text.manifest_files(cfg["data.manifest"])
            except (OSError, ValueError) as exc:   # JSONDecodeError is a ValueError
                raise ConfigError("bad manifest %r: %s" % (cfg["data.manifest"], exc))
            inputs += [cfg["data.manifest"]] + [
                fp for files in datasets.values() for fp in files.values()]
        inputs += [cfg[key] for key in ("ckpt", "data.test") if key in cfg]
        inputs += cfg.get("report.analyses", [])
        missing = [p for p in inputs if not Path(p).is_file()]
        if missing:
            raise ConfigError("input file missing: %s" % missing[0])
        write_run_record(out, command, cfg, inputs)
        return _COMMANDS[command](cfg, out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
