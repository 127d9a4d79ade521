"""The config table: every key a command reads is checked for its type and
range before any work, and a bad value exits 2 naming the key."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrmt import xray
from lrmt.cli import _KEYS, main
from lrmt.model import ARCHITECTURES
from lrmt.training import TrainConfig

WORDS = ["sun", "moon", "star", "tree", "bird", "fish", "stone", "river"]
TRAIN = {"train.arch": "abgru", "train.embed_size": 4, "train.hidden_size": 4,
         "train.max_epochs": 1, "train.patience": 1, "train.dropout": 0.0,
         "train.batch_size": 8, "train.max_len": 10}
WIDTH = 8                   # the analysis width of the H=4 abgru model


@pytest.fixture(scope="module")
def space(tmp_path_factory):
    """A manifest of two datasets, an H=4 abgru checkpoint copy-pretrained on one
    by `lrmt sequential`, so its vocabulary holds the control tokens, and an
    analysis.json of it; `base[command]` is a valid config for each command."""
    root = tmp_path_factory.mktemp("config")
    rng = np.random.default_rng(0)
    for ds in ("en-en", "en-de"):
        for split, n in (("train", 20), ("valid", 4), ("test", 4)):
            lines = [" ".join(rng.choice(WORDS, size=3)) for _ in range(n)]
            (root / ("%s.%s.tsv" % (ds, split))).write_text(
                "".join("%s\t%s\n" % (line, line) for line in lines), encoding="utf-8")
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"datasets": [
        {"id": ds, **{split: "%s.%s.tsv" % (ds, split) for split in ("train", "valid", "test")}}
        for ds in ("en-en", "en-de")]}), encoding="utf-8")
    data = {"data.manifest": str(manifest)}
    analysis = {"ckpt": str(root / "model" / "model.lrmt"),
                "data.test": str(root / "en-en.test.tsv")}
    plan = {"plan.stages": [{"dataset": "en-en", "label": "model"}]}
    assert _run(root, "sequential", dict(data, **TRAIN, **plan), out=root / "model")[0] == 0
    assert _run(root, "xray", analysis, out=root / "xray")[0] == 0
    base = {
        "prepare-data": dict(data),
        "train": dict(data, **TRAIN, **{"data.dataset": "en-en"}),
        "transfer": dict(data, **TRAIN, **{"data.dataset": "en-de", "ckpt": analysis["ckpt"]}),
        "multitask": dict(data, **TRAIN, **{"multitask.datasets": {"de": "en-de"},
                                            "ckpt": analysis["ckpt"]}),
        "sequential": dict(data, **TRAIN, **{"plan.stages": [
            {"dataset": "en-en", "label": "pre"}, {"dataset": "en-de", "label": "de"}]}),
        "prune": dict(analysis, **{"analysis.mode": "most_n", "analysis.percent": 25.0}),
        "evaluate": dict(analysis),
        "xray": dict(analysis, **{"analysis.neuron": 1, "analysis.top_k": 3}),
        "report": {"report.analyses": [str(root / "xray" / "analysis.json")]},
    }
    return root, base


_runs = itertools.count()


def _run(root, command, cfg, out=None):
    """(exit code, stderr, out directory) of `lrmt command` on the config `cfg`."""
    out = out or root / ("run%d" % next(_runs))
    path = root / ("cfg%d.json" % next(_runs))
    path.write_text(json.dumps(cfg), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(out)])
    return code, err.getvalue(), out


def _assert_rejected(code, err, out, key, before_run_record=True):
    assert code == 2, err
    assert key in err, err
    assert not list(out.rglob("*.lrmt")) and not (out / "activations.bin").exists()
    if before_run_record:
        assert not (out / "run.json").exists()


PROBES = [
    ("train", {"data.max_len": "x"}, "data.max_len"),
    ("sequential", {"plan.stages": 5}, "plan.stages"),
    ("sequential", {"plan.stages": [{"dataset": "en-en", "label": "pre"},
                                    {"dataset": "en-de", "freeze_encoder": "no"}]},
     "plan.stages"),
    ("multitask", {"multitask.datasets": ["en-en"]}, "multitask.datasets"),
    ("xray", {"analysis.top_k": "x"}, "analysis.top_k"),
    ("xray", {"analysis.neuron": 99}, "analysis.neuron"),
    ("train", {"train.max_len": 1.5}, "train.max_len"),
    ("train", {"train.batch_size": 2.5}, "train.batch_size"),
    ("train", {"train.hidden_size": True}, "train.hidden_size"),
    ("train", {"train.seed": True}, "train.seed"),
    ("evaluate", {"ckpt": 5}, "ckpt"),
    ("report", {"report.analyses": "abc"}, "report.analyses"),
]


@pytest.mark.parametrize("command, change, key", PROBES,
                         ids=["%s-%s" % (c, k) for c, _, k in PROBES])
def test_a_bad_value_exits_2_naming_its_key_before_any_work(space, command, change, key):
    root, base = space
    code, err, out = _run(root, command, dict(base[command], **change))
    # only the neuron's upper bound needs the model, which loads after run.json
    _assert_rejected(code, err, out, key, before_run_record=key != "analysis.neuron")


def test_every_valid_base_config_runs(space):
    root, base = space
    for command, cfg in base.items():
        code, err, _ = _run(root, command, cfg)
        assert code == 0, (command, err)


# the keys each command reads; the analysis commands read data.test, so
# they read neither data.manifest nor data.dataset
TRAIN_KEYS = ["train." + f.name for f in dataclasses.fields(TrainConfig)]
DATA = ["data.manifest", "data.max_len"]
READS = {
    "prepare-data": DATA + ["train.seed"],
    "train": DATA + ["data.dataset"] + TRAIN_KEYS,
    "transfer": DATA + ["data.dataset", "ckpt"] + TRAIN_KEYS,
    "multitask": DATA + ["multitask.datasets", "ckpt"] + TRAIN_KEYS,
    "sequential": DATA + ["plan.stages"] + TRAIN_KEYS,
    "prune": ["ckpt", "data.test", "data.max_len", "analysis.mode", "analysis.percent"],
    "evaluate": ["ckpt", "data.test", "data.max_len"],
    "xray": ["ckpt", "data.test", "data.max_len", "analysis.neuron", "analysis.top_k"],
    "report": ["report.analyses"],
}

# what a JSON value of each type is, written out here rather than taken from lrmt
IS_A = {int: lambda v: type(v) is int, float: lambda v: type(v) in (int, float),
        str: lambda v: type(v) is str, bool: lambda v: type(v) is bool,
        list: lambda v: type(v) is list, dict: lambda v: type(v) is dict}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != int(x)),
    st.text(max_size=5), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))

negative = st.integers(max_value=-1)
below_one = st.integers(max_value=0)
OUT_OF_RANGE = {
    "data.max_len": below_one,
    "analysis.top_k": below_one,
    "analysis.neuron": st.one_of(negative, st.integers(min_value=WIDTH)),
    "analysis.percent": st.one_of(st.floats(max_value=-0.01), st.floats(min_value=100.01),
                                  st.integers(min_value=101)),
    "analysis.mode": st.text(max_size=8).filter(lambda m: m not in xray.PRUNE_MODES),
    "multitask.datasets": st.sampled_from([{}, {"de": 5}, {"de": ["en-de"]}]),
    "report.analyses": st.sampled_from([[], [5], [None]]),
    "plan.stages": st.sampled_from([
        [], [5], [{"dataset": "en-en", "label": "pre"}, {"dataset": "en-de", "prune_mode": "x"}],
        [{"dataset": "en-en", "prune_percent": 101}], [{"dataset": "en-en", "freeze": True}]]),
    "train.arch": st.text(max_size=8).filter(lambda a: a not in ARCHITECTURES),
    "train.dropout": st.one_of(st.floats(max_value=-0.01), st.floats(min_value=1.0)),
    "train.tf_ratio": st.one_of(st.floats(max_value=-0.01), st.floats(min_value=1.01)),
    "train.l2": st.floats(max_value=-1e-9),
    "train.seed": negative,
    "train.lr": st.floats(max_value=0.0),
    "train.clip_norm": st.floats(max_value=0.0),
    **{"train." + name: below_one for name in ("embed_size", "hidden_size", "max_epochs",
                                                "patience", "batch_size", "max_len")},
}


@st.composite
def bad_settings(draw):
    command = draw(st.sampled_from(sorted(READS)))
    key = draw(st.sampled_from(READS[command]))
    kind = _KEYS[key][0]
    ill_typed = JSON_VALUES.filter(lambda v: not IS_A[kind](v))
    value = draw(st.one_of(ill_typed, OUT_OF_RANGE[key]) if key in OUT_OF_RANGE
                 else ill_typed)
    return command, key, value


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad_settings())
def test_a_drawn_bad_value_exits_2_naming_its_key(space, drawn):
    root, base = space
    command, key, value = drawn
    code, err, out = _run(root, command, dict(base[command], **{key: value}))
    needs_model = key == "analysis.neuron" and type(value) is int and value >= WIDTH
    _assert_rejected(code, err, out, key, before_run_record=not needs_model)


def test_flags_take_their_type_from_the_table(space):
    root, base = space
    # --percent 25 is the float 25.0, as the table's analysis.percent says
    path = root / "prune.json"
    path.write_text(json.dumps(base["prune"]), encoding="utf-8")
    assert main(["prune", "--config", str(path), "--percent", "25", "--mode", "most_n",
                 "--out", str(root / "flagged")]) == 0
    run = json.loads((root / "flagged" / "run.json").read_text(encoding="utf-8"))
    assert run["config"]["analysis.percent"] == 25.0
    assert type(run["config"]["analysis.percent"]) is float
    assert main(["prune", "--config", str(path), "--percent", "x",
                 "--out", str(root / "bad")]) == 2


@pytest.mark.parametrize("flags", [["--mode", "dead", "--percent", "25"], ["--percent", "10"]],
                         ids=["dead-25", "default-mode-10"])
def test_a_percent_that_no_mode_reads_exits_2(space, flags):
    # dead, the default mode, prunes the neurons never argmax and reads no percent
    root, base = space
    path = root / "prune-analysis.json"
    path.write_text(json.dumps({k: v for k, v in base["prune"].items()
                                if not k.startswith("analysis.")}), encoding="utf-8")
    out = root / ("refused-%s" % "-".join(flags))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["prune", "--config", str(path), "--out", str(out), *flags])
    _assert_rejected(code, err.getvalue(), out, "analysis.percent")
    assert "'dead'" in err.getvalue() and not (out / "pruned.lrmt").exists()


def test_top_k_without_a_neuron_exits_2_before_any_artifact(space):
    # analysis.top_k only sizes the neuron_<k>.svg that analysis.neuron asks for
    root, base = space
    cfg = {k: v for k, v in base["xray"].items() if k != "analysis.neuron"}
    code, err, out = _run(root, "xray", cfg)
    _assert_rejected(code, err, out, "analysis.top_k", before_run_record=False)
    assert [p.name for p in out.iterdir()] == ["run.json"]


def test_null_is_ill_typed_like_any_other_type(space):
    root, base = space
    code, err, out = _run(root, "evaluate", dict(base["evaluate"], **{"data.test": None}))
    _assert_rejected(code, err, out, "data.test")
    assert "got None" in err


@pytest.mark.parametrize("command, key", [
    ("train", "data.manifest"), ("evaluate", "ckpt"), ("evaluate", "data.test"),
    ("report", "report.analyses")])
def test_an_empty_path_exits_2_before_any_work(space, command, key):
    root, base = space
    value = [""] if key == "report.analyses" else ""
    code, err, out = _run(root, command, dict(base[command], **{key: value}))
    _assert_rejected(code, err, out, "input file missing: \n" if key != "data.manifest"
                     else "bad manifest ''")


def test_the_table_has_25_keys_and_the_flags_state_no_type():
    from lrmt.cli import _FLAGS
    assert len(_KEYS) == 25
    assert all(len(row) == 2 for row in _FLAGS.values())


def test_readme_table_names_every_config_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = set(re.findall(r"^\| `([a-z0-9_.]+)` \|", readme, flags=re.MULTILINE))
    assert rows == set(_KEYS), sorted(rows ^ set(_KEYS))
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert {"train." + name for name in fields} <= rows


def test_run_record_hashes_the_report_analyses(space):
    root, base = space
    code, err, out = _run(root, "report", base["report"])
    assert code == 0, err
    (analysis,) = base["report"]["report.analyses"]
    inputs = json.loads((out / "run.json").read_text(encoding="utf-8"))["inputs"]
    assert inputs[analysis] == hashlib.sha256(Path(analysis).read_bytes()).hexdigest()
    missing = str(root / "no-such-analysis.json")
    code, err, out = _run(root, "report", {"report.analyses": [analysis, missing]})
    assert code == 2 and "input file missing: %s" % missing in err
    assert not out.exists()
