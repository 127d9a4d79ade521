"""Every setting `lrmt sequential` reads acts or is refused.

One table gives each `StageSpec` field (at stage 0 and at a later stage) and
each `train.*` key a changed value.  A changed value must either exit 2 before
any training, naming its field and stage, or change what the run wrote.
"""

import contextlib
import hashlib
import io
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from lrmt.cli import main
from lrmt.training import StageSpec, TrainConfig, load_checkpoint

WORDS = ["sun", "moon", "star", "tree", "bird", "fish", "stone", "river"]
LEXICONS = {"en-de": ["sonne", "mond", "stern", "baum", "vogel", "fisch", "stein", "fluss"],
            "en-fr": ["soleil", "lune", "etoile", "arbre", "oiseau", "poisson", "pierre",
                      "fleuve"]}
TRAIN = {"train.arch": "gru", "train.embed_size": 8, "train.hidden_size": 8,
         "train.max_epochs": 2, "train.dropout": 0.0, "train.batch_size": 8,
         "train.max_len": 20}
PLAN = [{"dataset": "en-en", "label": "pre"},
        {"dataset": "en-de", "label": "de", "prune_mode": "most_n", "prune_percent": 25.0},
        {"dataset": "en-fr", "label": "fr", "prune_mode": "dead", "freeze_encoder": False}]

# StageSpec field -> [(stage, changed value)], at stage 0 and at a later stage
STAGE_CHANGES = {
    "dataset_id": [(0, "en-en2"), (1, "en-fr")],
    "freeze_encoder": [(0, False), (1, False)],
    # least_n picks the two weakest of 8 neurons, most_n the two strongest
    "prune_mode": [(0, "most_n"), (1, "least_n")],
    # stage 0 prunes by mode none and stage 2 by dead, neither of which reads a percent;
    # at stage 1, most_n 50% prunes 4 neurons of 8 instead of 2
    "prune_percent": [(0, 50.0), (1, 50.0), (2, 50.0)],
    "label": [(0, "pre2"), (1, "de2")],
}
# stage 0 copy-pretrains a fresh encoder; a percent goes with most_n or least_n only
REFUSED = {(0, "freeze_encoder"), (0, "prune_mode"), (0, "prune_percent"),
           (2, "prune_percent")}

# train key -> changed value; the plain ones change the model's shape, data order,
# initialisation, noise, step size, or (max_epochs) how many epochs each stage runs
TRAIN_CHANGES = {
    "arch": "lstm", "embed_size": 6, "hidden_size": 6, "max_epochs": 1,
    "dropout": 0.5, "lr": 0.01, "batch_size": 4, "l2": 0.01, "tf_ratio": 1.0, "seed": 1,
    # The first gradient's norm is at least its head-bias entry for <eos>, the mean
    # predicted <eos> probability (about 1/V) less the share of <eos> targets (one a
    # sentence of 2-5 tokens): about 0.15, far above 1e-3, so every step is clipped.
    # Adam ignores one constant scale of the gradient but not a scale that varies by step.
    "clip_norm": 1e-3,
    # The two below act in UNTRAINED runs only.  Patience acts on an epoch that does not
    # improve while an epoch is left to run: there epoch 2 does not, so patience 1 stops
    # before epoch 3, which the default of 5 runs.  Greedy decoding stops after
    # train.max_len tokens, so a cap of 1 acts where a hypothesis holds two or more: the
    # stage-0 model decodes from its initial weights, whose argmax is seldom <eos>
    # (`test_an_untrained_model_decodes_past_one_token` checks it).
    "patience": 1,
    "max_len": 1,
}
# Settings that both runs of an entry above share.  An Adam step moves a weight by about
# lr, so at lr 1e-30 no float32 weight moves and every epoch's validation loss equals
# the first's.
UNTRAINED = {"train.max_epochs": 3, "train.lr": 1e-30}
CONTEXTS = {"patience": UNTRAINED, "max_len": UNTRAINED}

CASES = ([(stage, name, value) for name, cases in STAGE_CHANGES.items()
          for stage, value in cases]
         + [(None, name, value) for name, value in TRAIN_CHANGES.items()])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Four datasets of 48/6/6 pairs: two copy corpora and two translations."""
    root = tmp_path_factory.mktemp("settings")
    rng = np.random.default_rng(0)
    entries = []
    for ds in ("en-en", "en-en2", "en-de", "en-fr"):
        entry = {"id": ds}
        for split, n in (("train", 48), ("valid", 6), ("test", 6)):
            lines = []
            for _ in range(n):
                idx = rng.integers(0, len(WORDS), size=int(rng.integers(2, 6)))
                target = LEXICONS.get(ds, WORDS)
                lines.append("%s\t%s\n" % (" ".join(WORDS[i] for i in idx),
                                           " ".join(target[i] for i in idx)))
            entry[split] = "%s.%s.tsv" % (ds, split)
            (root / entry[split]).write_text("".join(lines), encoding="utf-8")
        entries.append(entry)
    (root / "manifest.json").write_text(json.dumps({"datasets": entries}), encoding="utf-8")
    return root


def _sequential(root, name, cfg):
    """(exit code, stderr, artifact digest) of `lrmt sequential` on `cfg`."""
    out = root / name
    path = root / ("%s.json" % name)
    path.write_text(json.dumps(dict(cfg, **{"data.manifest": str(root / "manifest.json")})),
                    encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sequential", "--config", str(path), "--out", str(out)])
    return code, err.getvalue(), _digest(out)


def _digest(out):
    """SHA-256 of each artifact under `out` by relative path, leaving out run.json and
    metrics.jsonl (wall-clock times).  A checkpoint is hashed without its `config`, which
    records the train.* values themselves: a train key must act through what it does."""
    digest = {}
    for path in sorted(out.rglob("*")) if out.exists() else ():
        if not path.is_file() or path.name in ("run.json", "metrics.jsonl"):
            continue
        if path.suffix == ".lrmt":
            ckpt = load_checkpoint(path)
            h = hashlib.sha256(json.dumps([ckpt.src_vocab, ckpt.tgt_vocab, ckpt.frozen,
                                           ckpt.pruned, ckpt.provenance]).encode("utf-8"))
            for name in sorted(ckpt.tensors):
                h.update(("%s%s" % (name, ckpt.tensors[name].shape)).encode("utf-8"))
                h.update(ckpt.tensors[name].tobytes())
        else:
            h = hashlib.sha256(path.read_bytes())
        digest[path.relative_to(out).as_posix()] = h.hexdigest()
    return digest


def _config(stage=None, name=None, value=None, context=None):
    """The base config with one setting changed, over the settings in `context`."""
    plan = [dict(s) for s in PLAN]
    cfg = dict(TRAIN, **(context or {}))
    if stage is not None:
        plan[stage]["dataset" if name == "dataset_id" else name] = value
    elif name is not None:
        cfg["train." + name] = value
    return dict(cfg, **{"plan.stages": plan})


@pytest.fixture(scope="module")
def base(workspace):
    code, err, digest = _sequential(workspace, "base", _config())
    assert code == 0, err
    return digest


@pytest.fixture(scope="module")
def untrained(workspace):
    code, err, digest = _sequential(workspace, "untrained", _config(context=UNTRAINED))
    assert code == 0, err
    return digest


def test_the_table_lists_every_setting_at_stage_0_and_later():
    assert set(STAGE_CHANGES) == {f.name for f in fields(StageSpec)}
    assert set(TRAIN_CHANGES) == {f.name for f in fields(TrainConfig)}
    for name, cases in STAGE_CHANGES.items():
        stages = [stage for stage, _ in cases]
        assert 0 in stages and max(stages) > 0, name
    defaults = {f.name: f.default for f in fields(StageSpec)}
    for stage, name, value in CASES:
        if stage is None:
            assert value != TRAIN.get("train." + name, getattr(TrainConfig(), name)), name
        else:
            key = "dataset" if name == "dataset_id" else name
            assert value != PLAN[stage].get(key, defaults.get(name)), (stage, name)


def test_an_untrained_model_decodes_past_one_token(workspace, untrained):
    # the premise of TRAIN_CHANGES["max_len"]
    rows = (workspace / "untrained" / "report" / "translations_00_pre.tsv").read_text(
        encoding="utf-8").splitlines()[1:]
    assert any(len(row.split("\t")[2].split()) > 1 for row in rows)


@pytest.mark.parametrize("stage, name, value", CASES,
                         ids=["%s-%s" % ("train" if s is None else "stage%d" % s, n)
                              for s, n, _ in CASES])
def test_a_changed_setting_acts_or_exits_2(workspace, base, untrained, stage, name, value):
    context = CONTEXTS.get(name) if stage is None else None
    if context:
        base = untrained
    run = "%s-%s" % ("train" if stage is None else "stage%d" % stage, name)
    code, err, digest = _sequential(workspace, run, _config(stage, name, value, context))
    if (stage, name) in REFUSED:
        assert code == 2, err
        assert re.search(name.replace("_", "[_ ]"), err), err      # prune_mode or prune mode
        assert "[%d]" % stage in err or "stage %d " % stage in err, err
        assert not any(path.endswith(".lrmt") for path in digest)
    else:
        assert code == 0, err
        assert digest != base
