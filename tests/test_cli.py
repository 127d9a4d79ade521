"""End-to-end CLI behaviour: config validation, exit codes, artifact layout."""

import contextlib
import csv
import hashlib
import io
import json
import zlib

import numpy as np
import pytest

from lrmt import training, xray
from lrmt.cli import main, resolve_train_config
from lrmt.text import ParallelCorpus, load_manifest
from lrmt.training import CONTROL_TOKENS, carve_validation, load_checkpoint

WORDS = ["sun", "moon", "star", "tree", "bird", "fish", "stone", "river"]
TARGET = ["sonne", "mond", "stern", "baum", "vogel", "fisch", "stein", "fluss"]

TINY_TRAIN = {"train.arch": "gru", "train.embed_size": 8, "train.hidden_size": 8,
              "train.max_epochs": 2, "train.patience": 1, "train.dropout": 0.0,
              "train.batch_size": 8, "train.max_len": 20}


def _write_tsv(path, n, rng, translate=False, lengths=(2, 5)):
    lines = []
    for _ in range(n):
        idx = rng.integers(0, len(WORDS), size=int(rng.integers(*lengths)))
        src = " ".join(WORDS[i] for i in idx)
        tgt = " ".join(TARGET[i] for i in idx) if translate else src
        lines.append("%s\t%s" % (src, tgt))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "data"
    data.mkdir()
    for ds, translate in (("en-en", False), ("en-de", True)):
        for split, n in (("train", 30), ("valid", 6), ("test", 6)):
            _write_tsv(data / ("%s.%s.tsv" % (ds, split)), n, rng, translate)
    manifest = {"datasets": [
        {"id": ds, "pair": ds,
         "train": "%s.train.tsv" % ds, "valid": "%s.valid.tsv" % ds,
         "test": "%s.test.tsv" % ds}
        for ds in ("en-en", "en-de")]}
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return tmp_path


def _config(workspace, name="cfg.json", **extra):
    cfg = dict(TINY_TRAIN)
    cfg["data.manifest"] = str(workspace / "data" / "manifest.json")
    cfg.update(extra)
    path = workspace / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_unknown_config_key_exits_2_and_names_key(workspace):
    path = _config(workspace, **{"train.warp_speed": 9})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(path), "--out",
                     str(workspace / "out")])
    assert code == 2
    assert "train.warp_speed" in err.getvalue()


def test_missing_corpus_file_exits_2_before_training(workspace):
    (workspace / "data" / "en-de.train.tsv").unlink()
    path = _config(workspace, **{"data.dataset": "en-de"})
    out = workspace / "out"
    code = main(["train", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert not (out / "model.lrmt").exists()


def test_prepare_data_writes_vocabs_and_run_record(workspace):
    path = _config(workspace)
    out = workspace / "out"
    assert main(["prepare-data", "--config", str(path), "--out", str(out)]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "prepare-data"
    assert run["config_sha256"]
    assert any(k.endswith("manifest.json") for k in run["inputs"])
    summary = json.loads((out / "datasets.json").read_text())
    assert set(summary) == {"en-en", "en-de"}
    vocab = json.loads((out / "en-de.src.vocab.json").read_text())
    assert vocab[:4] == ["<pad>", "<sos>", "<eos>", "<unk>"]


def test_prepare_data_exports_the_vocabularies_train_uses(workspace):
    data = workspace / "data"
    # "bird" and "vogel" occur only in the test split
    (data / "en-de.test.tsv").write_text("tree bird\tbaum vogel\n", encoding="utf-8")
    for split in ("train", "valid"):
        lines = (data / ("en-de.%s.tsv" % split)).read_text(encoding="utf-8")
        kept = [ln for ln in lines.splitlines() if "bird" not in ln]
        (data / ("en-de.%s.tsv" % split)).write_text("\n".join(kept) + "\n",
                                                     encoding="utf-8")
    path = _config(workspace, **{"data.dataset": "en-de"})
    out = workspace / "out"
    assert main(["prepare-data", "--config", str(path), "--out", str(out)]) == 0
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    src = json.loads((out / "en-de.src.vocab.json").read_text(encoding="utf-8"))
    tgt = json.loads((out / "en-de.tgt.vocab.json").read_text(encoding="utf-8"))
    assert "tree" in src and "bird" not in src and "vogel" not in tgt
    ckpt = load_checkpoint(out / "model.lrmt")
    assert (src, tgt) == (ckpt.src_vocab, ckpt.tgt_vocab)
    train, _ = training.fit_splits(load_manifest(data / "manifest.json")["en-de"], seed=0)
    assert [src, tgt] == [vocab.itos for vocab in training.vocabularies(train)]


def test_train_saves_what_train_from_scratch_saves(workspace):
    path = _config(workspace, **{"data.dataset": "en-de", "train.dropout": 0.5})
    out = workspace / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    splits = load_manifest(workspace / "data" / "manifest.json")["en-de"]
    config = resolve_train_config(json.loads(path.read_text(encoding="utf-8")))
    training.train_from_scratch(splits, config).save(workspace / "in-process.lrmt")
    assert (out / "model.lrmt").read_bytes() == (workspace / "in-process.lrmt").read_bytes()


def test_prepare_data_carves_validation_as_train_does(workspace):
    # a dataset with no valid split: train carves 10% off, seeded by
    # train.seed, and builds its vocabularies from the rest
    data = workspace / "data"
    n = 30
    pairs = [("w%d" % i, "w%d" % i) for i in range(n)]
    _, carved = carve_validation(ParallelCorpus([([s], [t]) for s, t in pairs]), seed=3)
    zebra = int(carved.pairs[0][0][0][1:])          # a row the carve takes at seed 3
    lines = ["sun moon\tsonne mond"] * n
    lines[zebra] = "zebra sun\tzebra sonne"
    (data / "one.train.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (data / "manifest.json").write_text(json.dumps({"datasets": [
        {"id": "one", "train": "one.train.tsv"}]}), encoding="utf-8")
    path = _config(workspace, **{"data.dataset": "one", "train.seed": 3})
    out = workspace / "out"
    for command in ("prepare-data", "train"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    src = json.loads((out / "one.src.vocab.json").read_text(encoding="utf-8"))
    ckpt = load_checkpoint(out / "model.lrmt")
    assert "zebra" not in ckpt.src_vocab
    assert src == ckpt.src_vocab


def test_an_empty_valid_split_is_carved_from_train_as_a_missing_one(workspace):
    data = workspace / "data"
    (data / "en-de.valid.tsv").write_text("", encoding="utf-8")
    cfg = _config(workspace, **{"data.dataset": "en-de"})
    assert main(["train", "--config", str(cfg), "--out", str(workspace / "empty")]) == 0
    doc = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    for entry in doc["datasets"]:
        entry.pop("valid")
    (data / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--out", str(workspace / "missing")]) == 0
    assert ((workspace / "empty" / "model.lrmt").read_bytes()
            == (workspace / "missing" / "model.lrmt").read_bytes())


def test_prepare_data_skips_a_dataset_with_no_train_pairs(workspace):
    (workspace / "data" / "en-de.train.tsv").write_text("", encoding="utf-8")
    out = workspace / "out"
    assert main(["prepare-data", "--config", str(_config(workspace)), "--out", str(out)]) == 0
    summary = json.loads((out / "datasets.json").read_text())
    assert summary["en-de"] == {"splits": {"train": 0, "valid": 6, "test": 6}}
    assert "source_vocab" in summary["en-en"]
    assert not list(out.glob("en-de.*.vocab.json"))
    assert (out / "en-en.src.vocab.json").exists()


@pytest.mark.parametrize("ds_id", ["../escape", "sub/dir", "back\\slash", ".."])
def test_prepare_data_rejects_a_dataset_id_that_cannot_name_a_file(workspace, ds_id):
    manifest = {"datasets": [{"id": ds_id, "train": "en-en.train.tsv",
                              "valid": "en-en.valid.tsv"}]}
    cfg = _config(workspace, **{"data.manifest": _manifest(workspace, manifest)})
    out = workspace / "run" / "out"
    code, err = _run(["prepare-data", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert err.startswith("config error: ") and repr(ds_id) in err
    assert not list(workspace.rglob("*.vocab.json"))
    assert sorted(p.name for p in (workspace / "run").rglob("*")) == ["out", "run.json"]


def test_train_evaluate_prune_xray_round_trip(workspace):
    cfg = _config(workspace, **{"data.dataset": "en-en"})
    out = workspace / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--seed", "3"]) == 0
    ckpt = out / "model.lrmt"
    assert ckpt.exists()
    assert (out / "metrics.jsonl").exists()
    assert (out / "bleu.csv").read_text().startswith("stage,label,score,")

    ev = workspace / "eval"
    assert main(["evaluate", "--ckpt", str(ckpt),
                 "--test", str(workspace / "data" / "en-en.test.tsv"),
                 "--out", str(ev)]) == 0
    assert len((ev / "bleu.csv").read_text().strip().splitlines()) == 2
    assert (ev / "translations.tsv").read_text().startswith(
        "source\treference\thypothesis")

    xr = workspace / "xr"
    assert main(["xray", "--ckpt", str(ckpt),
                 "--test", str(workspace / "data" / "en-en.test.tsv"),
                 "--out", str(xr)]) == 0
    analysis = json.loads((xr / "analysis.json").read_text())
    assert analysis["width"] == 8
    assert len(analysis["signed_mass"]) == 8
    acts = xray.load_activations(xr / "activations.bin")
    assert acts.width == 8 and len(acts.tokens) == 6
    assert not (xr / "activations.json").exists()

    pr = workspace / "pr"
    assert main(["prune", "--ckpt", str(ckpt), "--mode", "most_n",
                 "--percent", "25",
                 "--test", str(workspace / "data" / "en-en.test.tsv"),
                 "--out", str(pr)]) == 0
    assert sorted(p.name for p in pr.iterdir()) == ["pruned.lrmt", "run.json"]
    pruned = load_checkpoint(pr / "pruned.lrmt").provenance
    assert len(pruned["pruned"]) == 2  # floor(25% of 8)
    source = load_checkpoint(ckpt).provenance
    assert pruned == dict(source, prune_mode="most_n", prune_percent=25.0,
                          pruned=pruned["pruned"])

    ev_pruned = workspace / "eval_pruned"
    assert main(["evaluate", "--ckpt", str(pr / "pruned.lrmt"),
                 "--test", str(workspace / "data" / "en-en.test.tsv"),
                 "--out", str(ev_pruned)]) == 0
    assert _bleu_row(ev_pruned / "bleu.csv")["label"] == "train"


def test_sequential_plan_and_report(workspace):
    cfg = _config(workspace, **{
        "plan.stages": [
            {"dataset": "en-en", "label": "pretrain"},
            {"dataset": "en-de", "label": "stage1",
             "prune_mode": "most_n", "prune_percent": 25.0}]})
    out = workspace / "seq"
    assert main(["sequential", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "pretrain.lrmt").exists()
    assert (out / "stage1.lrmt").exists()
    report = json.loads((out / "report" / "report.json").read_text())
    names = {a["path"] for a in report["artifacts"]}
    assert {"analysis.json", "knowledge.svg"} <= names
    for a in report["artifacts"]:
        data = (out / "report" / a["path"]).read_bytes()
        assert zlib.crc32(data) == a["crc32"]


def test_a_pruning_stage_records_what_lrmt_prune_records(workspace):
    # both paths go through one prune step: the stage prunes by stage 0's test split,
    # the copy of en-en's, and `lrmt prune` by en-en's test file, whose sources it reads
    cfg = _config(workspace, **{"plan.stages": [
        {"dataset": "en-en", "label": "pretrain"},
        {"dataset": "en-de", "label": "stage1", "prune_mode": "most_n", "prune_percent": 25.0}]})
    seq, pr = workspace / "seq", workspace / "pr"
    assert main(["sequential", "--config", str(cfg), "--out", str(seq)]) == 0
    assert main(["prune", "--ckpt", str(seq / "pretrain.lrmt"), "--mode", "most_n",
                 "--percent", "25", "--test", str(workspace / "data" / "en-en.test.tsv"),
                 "--out", str(pr)]) == 0
    keys = ("prune_mode", "prune_percent", "pruned")
    stage = load_checkpoint(seq / "stage1.lrmt").provenance
    pruned = load_checkpoint(pr / "pruned.lrmt").provenance
    assert [stage[k] for k in keys] == [pruned[k] for k in keys]
    assert stage["prune_mode"] == "most_n" and len(stage["pruned"]) == 2  # floor(25% of 8)
    # a stage that prunes nothing records its mode only, as before
    pretrain = load_checkpoint(seq / "pretrain.lrmt").provenance
    assert pretrain["prune_mode"] == "none" and not {"prune_percent", "pruned"} & set(pretrain)


def test_sequential_evaluates_each_stage_once(workspace, monkeypatch):
    from lrmt import xray
    calls = []
    capture = xray.capture_activations

    def counting(model, corpus, *args, **kwargs):
        calls.append(len(corpus.pairs))
        return capture(model, corpus, *args, **kwargs)

    monkeypatch.setattr(xray, "capture_activations", counting)
    cfg = _config(workspace, **{
        "plan.stages": [
            {"dataset": "en-en", "label": "pretrain"},
            {"dataset": "en-de", "label": "most25",
             "prune_mode": "most_n", "prune_percent": 25.0},
            {"dataset": "en-de", "label": "dead", "prune_mode": "dead"}]})
    out = workspace / "seq"
    assert main(["sequential", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == [6, 6, 6]


def test_sequential_bleu_csv_round_trips_label_with_comma_and_quote(workspace):
    label = 'pre,"train'
    cfg = _config(workspace, **{
        "plan.stages": [{"dataset": "en-en", "label": label},
                        {"dataset": "en-de", "label": "stage1"}]})
    out = workspace / "seq"
    assert main(["sequential", "--config", str(cfg), "--out", str(out)]) == 0
    for path in (out / "bleu.csv", out / "report" / "bleu.csv"):
        assert b"\r" not in path.read_bytes()
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == [label, "stage1"]
        for row in rows:
            assert None not in row and None not in row.values()
            float(row["score"])


def test_sequential_pruning_after_stage_without_test_exits_2(workspace):
    data = workspace / "data"
    manifest = {"datasets": [
        {"id": "en-en", "pair": "en-en", "train": "en-en.train.tsv",
         "valid": "en-en.valid.tsv"},
        {"id": "en-de", "pair": "en-de", "train": "en-de.train.tsv",
         "valid": "en-de.valid.tsv", "test": "en-de.test.tsv"}]}
    (data / "notest.json").write_text(json.dumps(manifest), encoding="utf-8")
    cfg = _config(workspace, **{
        "data.manifest": str(data / "notest.json"),
        "plan.stages": [{"dataset": "en-en", "label": "pretrain"},
                        {"dataset": "en-de", "label": "stage1",
                         "prune_mode": "dead"}]})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sequential", "--config", str(cfg),
                     "--out", str(workspace / "seq")])
    assert code == 2
    assert "stage 1 ('stage1')" in err.getvalue()
    assert "stage 0 ('pretrain'" in err.getvalue()
    assert not (workspace / "seq" / "pretrain.lrmt").exists()


def test_runtime_failure_exits_1(workspace):
    bad = workspace / "broken.lrmt"
    bad.write_bytes(b"LRMT" + b"\x00" * 40)
    code = main(["evaluate", "--ckpt", str(bad),
                 "--test", str(workspace / "data" / "en-en.test.tsv"),
                 "--out", str(workspace / "o")])
    assert code == 1


def test_report_command_rebuilds_from_analysis_json(workspace):
    cfg = _config(workspace, **{"data.dataset": "en-en"})
    out = workspace / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    xr = workspace / "xr2"
    assert main(["xray", "--ckpt", str(out / "model.lrmt"),
                 "--test", str(workspace / "data" / "en-en.test.tsv"),
                 "--out", str(xr)]) == 0
    rcfg = workspace / "rcfg.json"
    rcfg.write_text(json.dumps({"report.analyses": [str(xr / "analysis.json")]}),
                    encoding="utf-8")
    rep = workspace / "rep"
    assert main(["report", "--config", str(rcfg), "--out", str(rep)]) == 0
    assert (rep / "knowledge.svg").exists()
    # no stage has a BLEU score, so no header-only bleu.csv
    assert not (rep / "bleu.csv").exists()


@pytest.mark.parametrize("label", ["de/fr", "de\\fr", "..", "."])
def test_sequential_unsafe_stage_label_exits_2_before_training(workspace, label):
    cfg = _config(workspace, **{
        "plan.stages": [{"dataset": "en-en", "label": "pretrain"},
                        {"dataset": "en-de", "label": label}]})
    out = workspace / "seq"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sequential", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "stage 1 label" in err.getvalue()
    assert not list(workspace.rglob("*.lrmt"))


def test_second_train_into_same_out_starts_metrics_afresh(workspace):
    cfg = _config(workspace, **{"data.dataset": "en-en"})
    out = workspace / "out"
    runs = []
    for _ in range(2):
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
        runs.append([json.loads(line) for line in lines])
    assert runs[0] and len(runs[1]) == len(runs[0])
    assert [row["epoch"] for row in runs[1]] == list(range(1, len(runs[1]) + 1))


def _bleu_row(path):
    with open(path, encoding="utf-8", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    return {k: row[k] for k in ("label", "score", "p1", "p2", "p3", "p4", "bp")}


def test_evaluate_decodes_with_the_checkpoint_max_len(workspace):
    # copies of 6-8 words: a model that has learnt some copying decodes past
    # train.max_len 4, while data.max_len keeps its default of 50
    rng = np.random.default_rng(1)
    data = workspace / "data"
    for split, n in (("train", 60), ("valid", 6), ("test", 6)):
        _write_tsv(data / ("long.%s.tsv" % split), n, rng, lengths=(6, 9))
    (data / "long.json").write_text(json.dumps({"datasets": [
        {"id": "long", "pair": "en-en", "train": "long.train.tsv",
         "valid": "long.valid.tsv", "test": "long.test.tsv"}]}), encoding="utf-8")
    cfg = _config(workspace, **{"data.manifest": str(data / "long.json"),
                                "data.dataset": "long", "train.max_len": 4,
                                "train.embed_size": 16, "train.hidden_size": 16,
                                "train.lr": 0.01, "train.max_epochs": 20,
                                "train.patience": 20})
    out, ev = workspace / "out", workspace / "eval"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--ckpt",
                 str(out / "model.lrmt"), "--out", str(ev)]) == 0
    assert _bleu_row(ev / "bleu.csv") == _bleu_row(out / "bleu.csv")
    assert ((ev / "translations.tsv").read_bytes()
            == (out / "translations.tsv").read_bytes())


def test_run_record_lists_the_config_test_corpus(workspace):
    cfg = _config(workspace, **{"data.dataset": "en-en"})
    out = workspace / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    # outside the manifest, so only data.test can bring it into run.json
    test = workspace / "held_out.tsv"
    test.write_bytes((workspace / "data" / "en-en.test.tsv").read_bytes())
    ecfg = _config(workspace, name="ecfg.json",
                   **{"data.test": str(test), "ckpt": str(out / "model.lrmt")})
    ev = workspace / "eval"
    assert main(["evaluate", "--config", str(ecfg), "--out", str(ev)]) == 0
    inputs = json.loads((ev / "run.json").read_text())["inputs"]
    assert inputs[str(test)] == hashlib.sha256(test.read_bytes()).hexdigest()


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command, flag", [
    ("prepare-data", "--seed"), ("train", "--ckpt"), ("transfer", "--arch"),
    ("multitask", "--test"), ("sequential", "--mode"), ("prune", "--seed"),
    ("evaluate", "--percent"), ("xray", "--stage"), ("report", "--test")])
def test_a_flag_the_command_does_not_read_exits_2(workspace, command, flag):
    out = workspace / "out"
    code, err = _run([command, "--config", str(_config(workspace)),
                      "--out", str(out), flag, "1"])
    assert code == 2
    assert "unrecognized arguments: %s" % flag in err
    assert not out.exists()


def test_run_record_holds_the_flags(workspace):
    cfg = _config(workspace, **{"data.dataset": "en-en"})
    hashes = []
    for seed in (3, 4):
        out = workspace / ("seed%d" % seed)
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["train.seed"] == seed
        assert load_checkpoint(out / "model.lrmt").config["seed"] == seed
        hashes.append(run["config_sha256"])
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("stage, named", [
    ({"prune_mod": "most_n"}, "prune_mod"),
    ({"prune_mode": "deadd"}, "deadd"),
    ({"prune_mode": "most_n", "prune_percent": 150}, "150"),
    ({"prune_mode": "dead", "prune_percent": 50}, "prune_percent 50"),
    ({"prune_percent": 50}, "prune_percent 50")],
    ids=["unknown-key", "bad-mode", "bad-percent", "percent-under-dead", "percent-under-none"])
def test_sequential_bad_stage_exits_2_before_training(workspace, stage, named):
    cfg = _config(workspace, **{
        "plan.stages": [{"dataset": "en-en", "label": "pretrain"},
                        dict({"dataset": "en-de", "label": "stage1"}, **stage)]})
    code, err = _run(["sequential", "--config", str(cfg),
                      "--out", str(workspace / "seq")])
    assert code == 2
    assert "'plan.stages'[1]" in err and named in err
    assert not list(workspace.rglob("*.lrmt"))


def test_train_arch_outside_the_architectures_exits_2(workspace):
    cfg = _config(workspace, **{"data.dataset": "en-en", "train.arch": "foo"})
    out = workspace / "out"
    code, err = _run(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "unknown architecture 'foo'" in err
    assert not (out / "model.lrmt").exists()


@pytest.mark.parametrize("command, extra", [
    ("transfer", {"data.dataset": "en-de"}),
    ("multitask", {"multitask.datasets": {"de": "en-de"}})])
def test_fine_tuning_rejects_a_model_shape_other_than_the_checkpoints(
        workspace, command, extra):
    pre = workspace / "pre"
    assert main(["train", "--config", str(_config(workspace, **{"data.dataset": "en-en"})),
                 "--out", str(pre)]) == 0
    wide = _config(workspace, name="wide.json", **{"train.hidden_size": 16}, **extra)
    out = workspace / "wide"
    code, err = _run([command, "--config", str(wide), "--ckpt", str(pre / "model.lrmt"),
                      "--out", str(out)])
    assert code == 2
    assert "'train.hidden_size' is 16" in err
    assert not list(out.glob("*.lrmt"))


def test_transfer_takes_the_model_shape_from_the_checkpoint(workspace):
    pre = workspace / "pre"
    assert main(["train", "--config", str(_config(workspace, **{"data.dataset": "en-en"})),
                 "--out", str(pre)]) == 0
    # no train.arch, embed_size, hidden_size or dropout: the defaults
    # (abgru, 300, 512, 0.5) would not fit the H=8 gru checkpoint
    cfg = {k: v for k, v in TINY_TRAIN.items()
           if k not in ("train.arch", "train.embed_size", "train.hidden_size",
                        "train.dropout")}
    cfg.update({"data.manifest": str(workspace / "data" / "manifest.json"),
                "data.dataset": "en-de"})
    path = workspace / "bare.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = workspace / "hop"
    assert main(["transfer", "--config", str(path), "--ckpt", str(pre / "model.lrmt"),
                 "--out", str(out)]) == 0
    ckpt = load_checkpoint(out / "transfer.lrmt")
    assert ckpt.arch == "gru"
    assert {k: ckpt.config[k] for k in ("arch", "embed_size", "hidden_size", "dropout")} \
        == {"arch": "gru", "embed_size": 8, "hidden_size": 8, "dropout": 0.0}
    ckpt.to_model()


def test_report_names_the_file_of_a_bad_analysis_record(workspace):
    analysis = workspace / "analysis.json"
    analysis.write_text(json.dumps({"stage": "s", "signed_mass": [1.0],
                                    "max_mass": [1.0], "hit_count": [1]}),
                        encoding="utf-8")
    rcfg = workspace / "rcfg.json"
    rcfg.write_text(json.dumps({"report.analyses": [str(analysis)]}), encoding="utf-8")
    code, err = _run(["report", "--config", str(rcfg), "--out", str(workspace / "rep")])
    assert code == 2
    assert str(analysis) in err and "magnitude_mass" in err


GOOD_RECORD = {"stage": "s", "width": 2, "signed_mass": [1.0, -0.5],
               "magnitude_mass": [1.0, 0.5], "max_mass": [1.0, 0.0], "hit_count": [1, 0],
               "top_changed": []}


@pytest.mark.parametrize("key, value, named", [
    ("hit_count", [1.7, 0], "'hit_count'"), ("hit_count", [1, -3], "'hit_count'"),
    ("hit_count", [True, 0], "'hit_count'"), ("signed_mass", [True, 0.5], "'signed_mass'"),
    ("signed_mass", [float("nan"), 0.5], "'signed_mass'"),
    ("max_mass", [float("inf"), 0.0], "'max_mass'"),
    ("magnitude_mass", [1.0, -0.5], "'magnitude_mass'"),
    ("magnitude_mass", ["1", 0.5], "'magnitude_mass'"),
    ("top_changed", "junk", "'top_changed'"),
    # ints JSON holds but float64 or int64 cannot
    ("signed_mass", [10 ** 400, 0.5], "OverflowError"),
    ("hit_count", [1, 2 ** 64], "OverflowError")],
    ids=["hit-float", "hit-negative", "hit-bool", "signed-bool", "signed-nan", "max-inf",
         "magnitude-negative", "magnitude-str", "top-changed-str", "signed-huge", "hit-huge"])
def test_report_names_the_file_of_an_analysis_record_of_bad_values(workspace, key, value,
                                                                   named):
    analysis = workspace / "analysis.json"
    rcfg = workspace / "rcfg.json"
    rcfg.write_text(json.dumps({"report.analyses": [str(analysis)]}), encoding="utf-8")
    analysis.write_text(json.dumps(GOOD_RECORD), encoding="utf-8")
    assert main(["report", "--config", str(rcfg), "--out", str(workspace / "good")]) == 0
    analysis.write_text(json.dumps({**GOOD_RECORD, key: value}), encoding="utf-8")
    code, err = _run(["report", "--config", str(rcfg), "--out", str(workspace / "rep")])
    assert code == 2
    assert str(analysis) in err and named in err
    assert not (workspace / "rep" / "analysis.json").exists()


def _manifest(workspace, doc):
    path = workspace / "data" / "other.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


NO_TRAIN = {"datasets": [
    {"id": "en-en", "train": "en-en.train.tsv", "valid": "en-en.valid.tsv",
     "test": "en-en.test.tsv"},
    {"id": "en-de", "valid": "en-de.valid.tsv", "test": "en-de.test.tsv"}]}


@pytest.mark.parametrize("command, doc, extra, named", [
    ("train", {"sets": []}, {"data.dataset": "en-en"}, "'datasets'"),
    ("train", [{"id": "en-en", "train": "en-en.train.tsv"}], {"data.dataset": "en-en"},
     "'datasets'"),
    ("train", NO_TRAIN, {"data.dataset": "en-de"}, "'en-de'"),
    ("sequential", NO_TRAIN,
     {"plan.stages": [{"dataset": "en-en", "label": "pretrain"},
                      {"dataset": "en-de", "label": "de"}]}, "'en-de'")],
    ids=["no-datasets", "top-level-list", "dataset-without-train",
         "stage-without-train"])
def test_bad_manifest_or_dataset_without_train_exits_2(workspace, command, doc,
                                                        extra, named):
    cfg = _config(workspace, **{"data.manifest": _manifest(workspace, doc)}, **extra)
    code, err = _run([command, "--config", str(cfg), "--out", str(workspace / "out")])
    assert code == 2
    assert err.startswith("config error: ") and named in err
    assert not list(workspace.rglob("*.lrmt"))


@pytest.mark.parametrize("command, extra, named", [
    ("transfer", {"data.dataset": "en-de"}, "'en-de'"),
    ("multitask", {"multitask.datasets": {"de": "en-de"}}, "'en-de'"),
    ("multitask", {"multitask.datasets": {"xx": "en-en"}}, "unknown language 'xx'")])
def test_fine_tuning_on_a_dataset_it_cannot_train_on_exits_2(workspace, command,
                                                              extra, named):
    pre = workspace / "pre"
    assert main(["train", "--config", str(_config(workspace, **{"data.dataset": "en-en"})),
                 "--out", str(pre)]) == 0
    cfg = _config(workspace, name="ft.json",
                  **{"data.manifest": _manifest(workspace, NO_TRAIN)}, **extra)
    out = workspace / "ft"
    code, err = _run([command, "--config", str(cfg), "--ckpt", str(pre / "model.lrmt"),
                      "--out", str(out)])
    assert code == 2
    assert named in err
    assert not list(out.glob("*.lrmt"))


def test_sequential_report_numbers_stages_by_plan_stage(workspace):
    data = workspace / "data"
    manifest = {"datasets": [
        {"id": "en-en", "train": "en-en.train.tsv", "valid": "en-en.valid.tsv",
         "test": "en-en.test.tsv"},
        {"id": "de-notest", "train": "en-de.train.tsv", "valid": "en-de.valid.tsv"},
        {"id": "en-de", "train": "en-de.train.tsv", "valid": "en-de.valid.tsv",
         "test": "en-de.test.tsv"}]}
    cfg = _config(workspace, **{
        "data.manifest": _manifest(workspace, manifest),
        "plan.stages": [{"dataset": "en-en", "label": "pre"},
                        {"dataset": "de-notest", "label": "de"},
                        {"dataset": "en-de", "label": "fr"}]})
    out = workspace / "seq"
    assert main(["sequential", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "report" / "bleu.csv", encoding="utf-8", newline="") as fh:
        rows = [(r["stage"], r["label"]) for r in csv.DictReader(fh)]
    assert rows == [("0", "pre"), ("2", "fr")]
    assert (out / "report" / "bleu.csv").read_bytes() == (out / "bleu.csv").read_bytes()
    names = sorted(p.name for p in (out / "report").glob("translations_*"))
    assert names == ["translations_00_pre.tsv", "translations_02_fr.tsv"]


def test_multitask_fine_tunes_a_train_checkpoint(workspace):
    pre = workspace / "pre"
    assert main(["train", "--config", str(_config(workspace, **{"data.dataset": "en-en"})),
                 "--out", str(pre)]) == 0
    src_vocab = load_checkpoint(pre / "model.lrmt").src_vocab
    assert src_vocab[4:8] == sorted(CONTROL_TOKENS.values())
    cfg = _config(workspace, name="mt.json",
                  **{"multitask.datasets": {"de": "en-de", "en": "en-en"}})
    out = workspace / "mt"
    code, err = _run(["multitask", "--config", str(cfg), "--ckpt", str(pre / "model.lrmt"),
                      "--out", str(out)])
    assert (code, err) == (0, "")
    assert load_checkpoint(out / "multitask.lrmt").src_vocab == src_vocab


def _analysis_file(path, width, **arrays):
    mass = xray.MassActivationMatrix(signed_mass=np.ones(width), magnitude_mass=np.ones(width),
                                     max_mass=np.ones(width), hit_count=np.ones(width, int))
    path.write_text(json.dumps(dict(xray.analysis_export("s", mass), **arrays)),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("records, named", [
    ([(4, {}), (6, {})], ["a0.json", "a1.json"]),
    ([(3, {"signed_mass": [1.0, 2.0]})], ["a0.json", "record 0"])],
    ids=["widths-4-and-6", "width-3-with-2-masses"])
def test_report_on_records_of_another_width_exits_2_and_writes_nothing(workspace, records,
                                                                        named):
    paths = [_analysis_file(workspace / ("a%d.json" % i), width, **arrays)
             for i, (width, arrays) in enumerate(records)]
    rcfg = workspace / "rcfg.json"
    rcfg.write_text(json.dumps({"report.analyses": paths}), encoding="utf-8")
    out = workspace / "rep"
    code, err = _run(["report", "--config", str(rcfg), "--out", str(out)])
    assert code == 2
    assert all(name in err for name in named)
    assert sorted(p.name for p in out.iterdir()) == ["run.json"]


@pytest.mark.parametrize("key", ["data.test", "data.dataset"])
@pytest.mark.parametrize("command", ["evaluate", "xray", "prune"])
def test_analysis_on_an_empty_test_corpus_exits_2_before_any_artifact(workspace, command,
                                                                      key):
    pre = workspace / "pre"
    assert main(["train", "--config", str(_config(workspace, **{"data.dataset": "en-de"})),
                 "--out", str(pre)]) == 0
    empty = workspace / "data" / "en-de.test.tsv"
    empty.write_text("no tab here\n\t\nsun\t\n", encoding="utf-8")     # cleans to no pair
    test = {"data.test": str(empty)} if key == "data.test" else {"data.dataset": "en-de"}
    cfg = _config(workspace, name="an.json", **test, **{"analysis.neuron": 0})
    out = workspace / "an"
    code, err = _run([command, "--config", str(cfg), "--ckpt", str(pre / "model.lrmt"),
                      "--out", str(out)])
    assert code == 2
    assert repr(key) in err
    assert sorted(p.name for p in out.iterdir()) == ["run.json"]


@pytest.mark.parametrize("command, extra", [
    ("train", {"data.dataset": "en-de"}),
    ("sequential", {"plan.stages": [{"dataset": "en-en", "label": "pre"},
                                    {"dataset": "en-de", "label": "de"}]})])
def test_an_empty_train_split_exits_2_naming_the_dataset(workspace, command, extra):
    (workspace / "data" / "en-de.train.tsv").write_text("", encoding="utf-8")
    cfg = _config(workspace, **extra)
    out = workspace / "out"
    code, err = _run([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert err.startswith("config error: ") and "'en-de'" in err
    assert sorted(p.name for p in out.iterdir()) == ["run.json"]


ONE_PAIR = {"datasets": [
    {"id": "en-en", "train": "en-en.train.tsv", "valid": "en-en.valid.tsv",
     "test": "en-en.test.tsv"},
    {"id": "en-de", "train": "one.tsv", "test": "en-de.test.tsv"},
    {"id": "one-en", "train": "one.tsv", "valid": "en-en.valid.tsv"}]}


@pytest.mark.parametrize("command, extra, named", [
    ("train", {"data.dataset": "en-de"}, "'en-de'"),
    ("transfer", {"data.dataset": "en-de"}, "'en-de'"),
    ("sequential", {"plan.stages": [{"dataset": "en-en", "label": "pre"},
                                    {"dataset": "en-de", "label": "de"}]}, "'en-de'"),
    ("sequential", {"plan.stages": [{"dataset": "one-en", "label": "pre"},
                                    {"dataset": "en-en", "label": "en"}]}, "'one-en'")],
    ids=["train", "transfer", "stage-1", "stage-0-with-valid"])
def test_a_train_split_the_validation_carve_takes_whole_exits_2_before_training(
        workspace, command, extra, named):
    # one train pair and no valid split: fit_splits carves that pair as validation;
    # copy pretraining carves from the train split even beside a valid split
    (workspace / "data" / "one.tsv").write_text("sun moon\tsonne mond\n", encoding="utf-8")
    flags = []
    if command == "transfer":
        pre = workspace / "pre"
        assert main(["train", "--config", str(_config(workspace, **{"data.dataset": "en-en"})),
                     "--out", str(pre)]) == 0
        flags = ["--ckpt", str(pre / "model.lrmt")]
    cfg = _config(workspace, name="one.json",
                  **{"data.manifest": _manifest(workspace, ONE_PAIR)}, **extra)
    out = workspace / "out"
    code, err = _run([command, "--config", str(cfg), "--out", str(out), *flags])
    assert code == 2
    assert err.startswith("config error: ") and named in err
    assert sorted(p.name for p in out.iterdir()) == ["run.json"]


def test_sequential_with_a_repeated_stage_label_exits_2_before_training(workspace):
    cfg = _config(workspace, **{"plan.stages": [{"dataset": "en-en", "label": "x"},
                                                {"dataset": "en-de", "label": "x"}]})
    out = workspace / "seq"
    code, err = _run(["sequential", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "stages 0 and 1 share the label 'x'" in err
    assert not list(workspace.rglob("*.lrmt"))


def test_sequential_with_a_prune_mode_on_stage_0_exits_2_before_training(workspace):
    cfg = _config(workspace, **{"plan.stages": [
        {"dataset": "en-en", "label": "pre", "prune_mode": "most_n", "prune_percent": 50.0},
        {"dataset": "en-de", "label": "de"}]})
    out = workspace / "seq"
    code, err = _run(["sequential", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert err.startswith("config error: ") and "stage 0 ('pre')" in err and "most_n" in err
    assert not list(workspace.rglob("*.lrmt"))


def test_a_manifest_that_repeats_a_dataset_id_exits_2(workspace):
    doc = {"datasets": [{"id": "en-en", "train": "en-en.train.tsv"},
                        {"id": "en-en", "train": "en-de.train.tsv"}]}
    cfg = _config(workspace, **{"data.manifest": _manifest(workspace, doc),
                                "data.dataset": "en-en"})
    out = workspace / "out"
    code, err = _run(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert err.startswith("config error: bad manifest") and "'en-en'" in err
    assert not out.exists() or not list(out.iterdir())
