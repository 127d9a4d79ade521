"""Command-line interface driving the full pipeline.

Configuration is a JSON file of flat dotted keys ("train.lr", "data.manifest",
...); command-line flags override file values.  Every command writes all of
its artifacts under --out, starting with a run.json provenance record.
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bleu, report, text, training, xray
from .model import ARCHITECTURES
from .training import StageSpec, TrainConfig, TransferPlan


class ConfigError(Exception):
    pass


_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}
_KNOWN_KEYS = ({"train." + k for k in _TRAIN_KEYS}
               | {"data.manifest", "data.dataset", "data.test", "data.max_len",
                  "plan.stages", "multitask.datasets", "ckpt",
                  "analysis.mode", "analysis.percent", "analysis.top_k",
                  "analysis.neuron", "report.analyses"})


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
    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise ConfigError("unknown config key: %r" % key)
    return cfg


def resolve_train_config(cfg, args):
    kwargs = {k.split(".", 1)[1]: v for k, v in cfg.items()
              if k.startswith("train.")}
    if getattr(args, "arch", None):
        kwargs["arch"] = args.arch
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = kwargs.get("seed")
    if seed is None:
        env = os.environ.get("LRMT_SEED")
        seed = int(env) if env else 0
    kwargs["seed"] = int(seed)
    if "betas" in kwargs:
        kwargs["betas"] = tuple(kwargs["betas"])
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad training configuration: %s" % exc)


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


def _manifest_inputs(manifest_path):
    doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    root = Path(manifest_path).parent
    files = [Path(manifest_path)]
    for entry in doc.get("datasets", []):
        for split in ("train", "valid", "test"):
            if split in entry:
                files.append(root / entry[split])
    return files


def _load_data(cfg, need_dataset=True):
    manifest = cfg.get("data.manifest")
    if manifest is None:
        raise ConfigError("missing config key: 'data.manifest'")
    try:
        corpora = text.load_manifest(manifest, max_len=cfg.get("data.max_len", 50))
    except FileNotFoundError as exc:
        raise ConfigError(str(exc))
    dataset = cfg.get("data.dataset")
    if need_dataset:
        if dataset is None:
            raise ConfigError("missing config key: 'data.dataset'")
        if dataset not in corpora:
            raise ConfigError("unknown dataset id in 'data.dataset': %r" % dataset)
    return corpora, dataset


# -- subcommands -------------------------------------------------------------


def cmd_prepare_data(args, cfg, out):
    corpora, _ = _load_data(cfg, need_dataset=False)
    config = resolve_train_config(cfg, args)
    summary = {}
    for ds_id, splits in sorted(corpora.items()):
        src = text.build_vocab(list(splits.values()), side="source",
                               min_freq=config.min_freq)
        tgt = text.build_vocab(list(splits.values()), side="target",
                               min_freq=config.min_freq)
        src.export_json(out / ("%s.src.vocab.json" % ds_id))
        tgt.export_json(out / ("%s.tgt.vocab.json" % ds_id))
        summary[ds_id] = {"splits": {s: len(c.pairs) for s, c in splits.items()},
                          "source_vocab": len(src.itos),
                          "target_vocab": len(tgt.itos)}
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


def cmd_train(args, cfg, out):
    corpora, dataset = _load_data(cfg)
    config = resolve_train_config(cfg, args)
    splits = corpora[dataset]
    train = splits["train"]
    valid = splits.get("valid")
    if valid is None:
        train, valid = training.carve_validation(train, seed=config.seed)
    src_vocab = text.build_vocab([train], side="source", min_freq=config.min_freq)
    tgt_vocab = text.build_vocab([train], side="target", min_freq=config.min_freq)
    model = training.build_model(config, src_vocab, tgt_vocab)
    ckpt = training.fit_with_early_stopping(
        model, train, valid, config,
        metrics_path=_fresh_metrics(out), stage_label="train")
    _finalize(ckpt, out, "model", splits.get("test"))
    return 0


def _load_ckpt(args, cfg):
    path = getattr(args, "ckpt", None) or cfg.get("ckpt")
    if path is None:
        raise ConfigError("missing config key: 'ckpt'")
    if not Path(path).exists():
        raise ConfigError("checkpoint not found: %s" % path)
    return training.load_checkpoint(path), Path(path)


def cmd_transfer(args, cfg, out):
    corpora, dataset = _load_data(cfg)
    config = resolve_train_config(cfg, args)
    pretrained, _ = _load_ckpt(args, cfg)
    ckpt = training.transfer_1hop(pretrained, corpora[dataset], config,
                                  metrics_path=_fresh_metrics(out))
    _finalize(ckpt, out, "transfer", corpora[dataset].get("test"))
    return 0


def cmd_multitask(args, cfg, out):
    corpora, _ = _load_data(cfg, need_dataset=False)
    config = resolve_train_config(cfg, args)
    mapping = cfg.get("multitask.datasets")
    if not mapping:
        raise ConfigError("missing config key: 'multitask.datasets'")
    for lang, ds in mapping.items():
        if lang not in training.CONTROL_TOKENS:
            raise ConfigError("unknown language in 'multitask.datasets': %r" % lang)
        if ds not in corpora:
            raise ConfigError("unknown dataset id in 'multitask.datasets': %r" % ds)
    pretrained, _ = _load_ckpt(args, cfg)
    task_corpora = {lang: corpora[ds] for lang, ds in mapping.items()}
    ckpt = training.train_multitask_joint(pretrained, task_corpora, config,
                                          metrics_path=_fresh_metrics(out))
    ckpt.save(out / "multitask.lrmt")
    return 0


def cmd_sequential(args, cfg, out):
    corpora, _ = _load_data(cfg, need_dataset=False)
    config = resolve_train_config(cfg, args)
    stages_cfg = cfg.get("plan.stages")
    if not stages_cfg:
        raise ConfigError("missing config key: 'plan.stages'")
    stages = []
    for i, entry in enumerate(stages_cfg):
        if "dataset" not in entry:
            raise ConfigError("'plan.stages'[%d] is missing 'dataset'" % i)
        if entry["dataset"] not in corpora:
            raise ConfigError("'plan.stages'[%d] names unknown dataset %r"
                              % (i, entry["dataset"]))
        label = str(entry.get("label", ""))
        if training.unsafe_label(label):
            raise ConfigError("'plan.stages'[%d] label %r holds a path separator "
                              "or is '.' or '..'; it names the stage's files"
                              % (i, label))
        if (i and entry.get("prune_mode", "none") != "none"
                and not corpora[stages_cfg[i - 1]["dataset"]].get("test")):
            raise ConfigError("'plan.stages'[%d] prunes, but 'plan.stages'[%d] "
                              "(dataset %r) has no test split to measure neurons on"
                              % (i, i - 1, stages_cfg[i - 1]["dataset"]))
        stages.append(StageSpec(dataset_id=entry["dataset"],
                                freeze_encoder=entry.get("freeze_encoder", True),
                                prune_mode=entry.get("prune_mode", "none"),
                                prune_percent=entry.get("prune_percent", 0.0),
                                label=label))
    results = training.run_sequential_plan(
        TransferPlan(stages), corpora, config,
        out_dir=out, metrics_path=_fresh_metrics(out))
    rows = [(r["stage"], r["label"], r["bleu"]) for r in results
            if r["bleu"] is not None]
    if rows:
        bleu.write_bleu_csv(out / "bleu.csv", rows)
    bundle = report.AnalysisBundle([
        report.StageAnalysis(label=r["label"], mass=r["mass"], bleu=r["bleu"])
        for r in results if r["mass"] is not None])
    if bundle.stages:
        report.export_analysis(bundle, out / "report")
    return 0


def _analysis_corpus(args, cfg):
    test_path = getattr(args, "test", None) or cfg.get("data.test")
    if test_path is not None:
        if not Path(test_path).exists():
            raise ConfigError("test corpus not found: %s" % test_path)
        return text.load_tsv(test_path, "eval", "test",
                             max_len=cfg.get("data.max_len", 50), truncate=True)
    corpora, dataset = _load_data(cfg)
    if "test" not in corpora[dataset]:
        raise ConfigError("dataset %r has no test split" % dataset)
    return corpora[dataset]["test"]


def cmd_prune(args, cfg, out):
    ckpt, _ = _load_ckpt(args, cfg)
    mode = getattr(args, "mode", None) or cfg.get("analysis.mode", "dead")
    percent = getattr(args, "percent", None)
    if percent is None:
        percent = cfg.get("analysis.percent", 0.0)
    if mode not in ("dead", "most_n", "least_n"):
        raise ConfigError("bad value for 'analysis.mode': %r" % mode)
    model = ckpt.to_model()
    corpus = _analysis_corpus(args, cfg)
    acts = xray.capture_activations(model, corpus)
    mass = xray.mass_matrices(acts)
    try:
        prune_set = xray.select_prune_set(mass, mode, percent)
    except ValueError as exc:
        raise ConfigError(str(exc))
    xray.prune_neuron_knowledge(model, prune_set)
    training.Checkpoint.from_model(
        model, ckpt.train_config(),
        provenance={"prune_mode": mode, "prune_percent": percent,
                    "pruned": sorted(prune_set)}).save(out / "pruned.lrmt")
    (out / "prune.json").write_text(
        json.dumps({"mode": mode, "percent": percent,
                    "pruned": sorted(prune_set)}, indent=2),
        encoding="utf-8")
    return 0


def cmd_evaluate(args, cfg, out):
    ckpt, _ = _load_ckpt(args, cfg)
    _score(ckpt, _analysis_corpus(args, cfg), out)
    return 0


def cmd_xray(args, cfg, out):
    ckpt, ckpt_path = _load_ckpt(args, cfg)
    model = ckpt.to_model()
    corpus = _analysis_corpus(args, cfg)
    acts = xray.capture_activations(model, corpus,
                                    provenance={"checkpoint": ckpt_path.name})
    xray.dump_activations(acts, out / "activations.bin")
    xray.activations_to_json(acts, out / "activations.json")
    mass = xray.mass_matrices(acts)
    stage = getattr(args, "stage", None) or ckpt.provenance.get("stage", "xray")
    (out / "analysis.json").write_text(
        json.dumps(xray.analysis_export(stage, mass), indent=2, sort_keys=True),
        encoding="utf-8")
    neuron = cfg.get("analysis.neuron")
    if neuron is not None:
        dist = xray.pos_token_distribution(acts, int(neuron),
                                           k=int(cfg.get("analysis.top_k", 5)))
        report.render_pos_distribution(dist, out / ("neuron_%d.svg" % int(neuron)))
    return 0


def cmd_report(args, cfg, out):
    paths = cfg.get("report.analyses")
    if not paths:
        raise ConfigError("missing config key: 'report.analyses'")
    bundle = report.AnalysisBundle()
    for p in paths:
        if not Path(p).exists():
            raise ConfigError("analysis file not found: %s" % p)
        doc = json.loads(Path(p).read_text(encoding="utf-8"))
        records = doc if isinstance(doc, list) else [doc]
        for rec in records:
            mass = xray.MassActivationMatrix(
                signed_mass=np.asarray(rec["signed_mass"], dtype=np.float64),
                magnitude_mass=np.asarray(rec["magnitude_mass"], dtype=np.float64),
                max_mass=np.asarray(rec["max_mass"], dtype=np.float64),
                hit_count=np.asarray(rec["hit_count"], dtype=np.int64))
            bundle.add(report.StageAnalysis(label=str(rec["stage"]), mass=mass,
                                            top_changed=rec.get("top_changed", [])))
    report.export_analysis(bundle, out)
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


def build_parser():
    parser = argparse.ArgumentParser(prog="lrmt",
                                     description="Recurrent translation workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out")
        p.add_argument("--stage", default=None)
        p.add_argument("--mode", default=None,
                       choices=["dead", "most_n", "least_n"])
        p.add_argument("--percent", type=float, default=None)
        p.add_argument("--arch", default=None, choices=list(ARCHITECTURES))
        p.add_argument("--ckpt", default=None)
        p.add_argument("--test", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        inputs = [args.config] if args.config else []
        if cfg.get("data.manifest"):
            try:
                inputs += _manifest_inputs(cfg["data.manifest"])
            except (OSError, json.JSONDecodeError, KeyError) as exc:
                raise ConfigError("bad manifest %r: %s" % (cfg["data.manifest"], exc))
        for key, cfg_key in (("ckpt", "ckpt"), ("test", "data.test")):
            val = getattr(args, key, None) or cfg.get(cfg_key)
            if val and Path(val).exists():
                inputs.append(val)
        missing = [p for p in inputs if not Path(p).exists()]
        if missing:
            raise ConfigError("input file missing: %s" % missing[0])
        write_run_record(out, args.command, cfg, inputs)
        return _COMMANDS[args.command](args, cfg, out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
