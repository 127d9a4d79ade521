"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The trend criteria (3, 4, 8) train real models and together take
a few minutes; everything else is fast.
"""

import json
import math
import statistics
import time
import zlib
from collections import Counter

import numpy as np
import pytest

from lrmt import bleu, synthetic, training, xray
from lrmt.model import Seq2SeqModel
from lrmt.numerics import cross_entropy_masked, set_default_dtype
from lrmt.text import Batch, ParallelCorpus, build_vocab, encode
from lrmt.training import (CheckpointChecksumError, CheckpointFormatError,
                           StageSpec, TrainConfig,
                           continue_plan, load_checkpoint, pretrain_copy,
                           run_sequential_plan, transfer_1hop)
from lrmt.xray import (ActivationDataset, capture_activations, change_in_mass,
                       knowledge_abstraction, mass_matrices, select_prune_set)

from gradcheck import relative_gradient_error
from reference_decode import reference_greedy_decode


def _report(number, name, passed, detail=""):
    line = "ACCEPTANCE %2d %-28s %s" % (number, name,
                                        "PASS" if passed else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print("\n" + line, flush=True)
    assert passed, line


def _vocab(words):
    c = ParallelCorpus([(list(words), list(words))])
    return build_vocab([c], side="source")


def _batch(model, rows):
    src = [encode([model.src_vocab.token_of(i) for i in r], model.src_vocab)
           for r in rows]
    width = max(len(r) for r in src)
    mat = np.zeros((len(src), width), dtype=np.int64)
    for i, r in enumerate(src):
        mat[i, :len(r)] = r
    return Batch(source=mat, target=mat.copy())


# -- 1: gradient correctness -----------------------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.time()
    set_default_dtype(np.float64)
    try:
        worst = 0.0
        rng = np.random.default_rng(0)
        # every layer participates in at least one of these graphs:
        # lstm -> embedding + LSTM cells + output head
        # gru -> GRU cells with context reinjection
        # abgru -> bidirectional GRU + init projection + attention + head
        for arch in ("lstm", "gru", "abgru"):
            v = _vocab(["a", "b", "c", "d"])
            model = Seq2SeqModel(arch, v, v, embed_size=4, hidden_size=3,
                                 dropout=0.0, seed=7)
            batch = _batch(model, rows=((4, 5, 6), (5, 4)))

            def forward():
                logits = model.forward_teacher_forced(batch, tf_ratio=1.0,
                                                      rng=None)
                return cross_entropy_masked(logits, batch.target[:, 1:])

            err = relative_gradient_error(model.parameters(), forward,
                                          eps=1e-5, max_checks=5, rng=rng)
            worst = max(worst, err)
        elapsed = time.time() - started
        _report(1, "gradient correctness", worst < 1e-4 and elapsed < 60.0,
                "max rel err %.2e, %.1fs" % (worst, elapsed))
    finally:
        set_default_dtype(np.float32)


# -- 2: BLEU oracle equivalence ----------------------------------------------------

def _bleu_oracle(cands, refs):
    match, total = [0] * 4, [0] * 4
    c_len = sum(len(c) for c in cands)
    r_len = sum(len(r) for r in refs)
    for cand, ref in zip(cands, refs):
        for n in range(1, 5):
            cc = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            rc = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            total[n - 1] += sum(cc.values())
            match[n - 1] += sum(min(k, rc.get(g, 0)) for g, k in cc.items())
    ps = [m / t if t else 0.0 for m, t in zip(match, total)]
    if any(p == 0.0 for p in ps):
        return 0.0
    bp = math.exp(1 - r_len / c_len) if c_len < r_len else 1.0
    return bp * math.exp(sum(math.log(p) for p in ps) / 4)


def test_criterion_2_bleu_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cands, refs = [], []
        for _ in range(int(rng.integers(1, 8))):
            cands.append([str(rng.integers(20))
                          for _ in range(int(rng.integers(1, 13)))])
            refs.append([str(rng.integers(20))
                         for _ in range(int(rng.integers(1, 13)))])
            if rng.random() < 0.5:
                refs[-1] = list(cands[-1])
        worst = max(worst, abs(bleu.bleu4(cands, refs).score
                               - _bleu_oracle(cands, refs)))
    same = [["x", "y", "z", "w"], ["q", "r", "s", "t"]]
    perfect = bleu.bleu4(same, [list(s) for s in same]).score
    disjoint = bleu.bleu4([["a", "b", "c", "d"]], [["e", "f", "g", "h"]]).score
    ok = worst < 1e-9 and perfect == 1.0 and disjoint == 0.0
    _report(2, "BLEU oracle equivalence", ok,
            "max |diff| %.2e, perfect=%s, disjoint=%s" % (worst, perfect, disjoint))


# -- 3: copy-task BLEU -------------------------------------------------------------

COPY_CFG = dict(arch="abgru", embed_size=32, hidden_size=64, max_epochs=16,
                patience=5, dropout=0.0, batch_size=100, lr=0.005,
                tf_ratio=1.0, max_len=20)


def _scored_against_reference(model, corpus, max_len):
    """Corpus BLEU, after checking that every batched hypothesis equals the
    per-sentence taped decoder's output for that sentence."""
    rep = bleu.evaluate_corpus(model, corpus, max_len=max_len,
                               sample_count=len(corpus.pairs))
    assert len(rep.samples) == len(corpus.pairs)
    for src, _ref, hyp in rep.samples:
        ids = reference_greedy_decode(model, encode(src, model.src_vocab), max_len)
        want = [model.tgt_vocab.token_of(i) for i in ids]
        assert hyp == want, ("batched decode of %r gave %r, per-sentence decode %r"
                             % (src, hyp, want))
    return rep.score


def _copy_run(seed):
    cfg = TrainConfig(seed=seed, **COPY_CFG)
    data = synthetic.splits(synthetic.copy_task, train=2000, valid=200,
                            test=200, vocab_size=64, min_len=2, max_len=8,
                            seed=seed)
    ckpt = pretrain_copy(data["train"], cfg)
    test = training.copy_corpus([s for s, _ in data["test"].pairs])
    return _scored_against_reference(ckpt.to_model(), test, max_len=12)


def test_criterion_3_copy_task_bleu():
    # Budget is CPU seconds ("one desktop core"), immune to machine contention.
    started = time.process_time()
    scores = [_copy_run(seed) for seed in (0, 1, 2)]
    median = statistics.median(scores)
    elapsed = time.process_time() - started
    _report(3, "copy-task BLEU >= 0.90", median >= 0.90 and elapsed <= 600.0,
            "median %.4f of %s, %.0f cpu-s" % (median,
                                               ["%.3f" % s for s in scores],
                                               elapsed))


# -- 4: architecture ordering --------------------------------------------------------

SUB_SPLITS = dict(train=800, valid=80, test=80, vocab_size=32, min_len=2,
                  max_len=6)


def _sub_run(arch, seed, epochs=14):
    cfg = TrainConfig(arch=arch, embed_size=32, hidden_size=64,
                      max_epochs=epochs, patience=epochs, dropout=0.0,
                      batch_size=80, lr=0.005, tf_ratio=1.0, seed=seed,
                      max_len=20)
    data = synthetic.splits(synthetic.substitution_task, seed=seed, **SUB_SPLITS)
    sv = build_vocab([data["train"]], side="source")
    tv = build_vocab([data["train"]], side="target")
    model = training.build_model(cfg, sv, tv)
    ckpt = training.fit_with_early_stopping(model, data["train"], data["valid"],
                                            cfg, stage_label=arch)
    return _scored_against_reference(ckpt.to_model(), data["test"], max_len=10)


def test_criterion_4_architecture_ordering():
    medians = {}
    for arch in ("lstm", "gru", "abgru"):
        medians[arch] = statistics.median(_sub_run(arch, s) for s in (0, 1, 2))
    ok = medians["abgru"] >= max(medians["gru"], medians["lstm"])
    _report(4, "A-BGRU >= max(GRU, LSTM)", ok,
            ", ".join("%s %.4f" % kv for kv in medians.items()))


# -- 5: frozen-encoder invariance -------------------------------------------------------

def test_criterion_5_frozen_encoder_invariance(tmp_path):
    cfg = TrainConfig(arch="abgru", embed_size=8, hidden_size=8, max_epochs=3,
                      patience=2, dropout=0.0, batch_size=8, seed=3, max_len=20)
    data = synthetic.splits(synthetic.copy_task, train=40, valid=8, test=8,
                            vocab_size=10, max_len=5)
    target = synthetic.splits(synthetic.substitution_task, train=40, valid=8,
                              test=8, vocab_size=10, max_len=5, seed=1)
    pre = pretrain_copy(data["train"], cfg)
    enc_names = [p.name or "src_emb" for p in pre.to_model().encoder_parameters()]
    before = {n: pre.tensors[n].tobytes() for n in enc_names}
    ok = True
    # 1-hop
    hop = transfer_1hop(pre, target, cfg)
    ok &= all(hop.tensors[n].tobytes() == before[n] for n in enc_names)
    # every sequential stage
    corpora = {"en-en": data, "en-de": target, "en-fr": target}
    plan = [StageSpec(dataset_id="en-en", label="pretrain"),
            StageSpec(dataset_id="en-de", label="s1"),
            StageSpec(dataset_id="en-fr", label="s2",
                      prune_mode="dead")]
    results = run_sequential_plan(plan, corpora, cfg)
    base = {n: results[0]["checkpoint"].tensors[n].tobytes() for n in enc_names}
    for r in results[1:]:
        cur = r["checkpoint"]
        model = cur.to_model()
        pruned_params = {p.name for p in model.encoder_parameters()
                         if p.pruned is not None}
        for n in enc_names:
            if n in pruned_params:
                # pruning legitimately zeroes entries; everything else is frozen
                continue
            ok &= cur.tensors[n].tobytes() == base[n]
    _report(5, "frozen-encoder invariance", ok)


# -- 6: pruned-neuron silence --------------------------------------------------------------

def test_criterion_6_pruned_neuron_silence():
    cfg = TrainConfig(arch="abgru", embed_size=8, hidden_size=8, max_epochs=1,
                      patience=1, dropout=0.0, batch_size=8, seed=4, max_len=20)
    data = synthetic.splits(synthetic.copy_task, train=40, valid=8, test=8,
                            vocab_size=10, max_len=5)
    ckpt = pretrain_copy(data["train"], cfg)
    model = ckpt.to_model()
    k = 5
    model.prune_encoder_units([k])
    test = training.copy_corpus([s for s, _ in data["test"].pairs])
    acts = capture_activations(model, test)
    col = acts.matrix[:, k]
    silent_before = np.all(col == 0.0)
    # one further fine-tuning epoch (encoder NOT frozen: the pin must hold alone)
    from lrmt.numerics import Adam
    from lrmt.text import encode_pairs, make_batches
    opt = Adam(model.parameters(), lr=cfg.lr, l2=cfg.l2)
    batches = make_batches(encode_pairs(data["train"], model.src_vocab, model.tgt_vocab),
                           cfg.batch_size, seed=99)
    training.train_epoch(model, batches, cfg, opt, np.random.default_rng(0))
    acts2 = capture_activations(model, test)
    col2 = acts2.matrix[:, k]
    silent_after = np.all(col2 == 0.0)
    _report(6, "pruned-neuron silence", silent_before and silent_after,
            "before=%s after_finetune=%s" % (silent_before, silent_after))


# -- 7: pruning count arithmetic --------------------------------------------------------------

def test_criterion_7_pruning_count_arithmetic():
    mag = np.arange(512, dtype=np.float64)
    m = xray.MassActivationMatrix(signed_mass=mag.copy(), magnitude_mass=mag,
                                  max_mass=np.zeros(512),
                                  hit_count=np.ones(512, dtype=np.int64))
    counts = {pct: len(select_prune_set(m, "most_n", pct))
              for pct in (1.0, 5.0, 10.0)}
    ok = counts == {1.0: 5, 5.0: 25, 10.0: 51}
    _report(7, "pruning counts at N=512", ok, str(counts))


# -- 8: pruning degradation trend -----------------------------------------------------------

PRUNINGS = (("unpruned", "none", 0.0), ("most10", "most_n", 10.0), ("least10", "least_n", 10.0))


def _stage_bleus(seed):
    """Final-stage BLEU of each of `PRUNINGS`' plans at `seed`, all three from one
    copy pretraining: the unpruned plan runs whole, and the pruned ones continue
    from its stage-0 checkpoint."""
    cfg = TrainConfig(arch="abgru", embed_size=32, hidden_size=32,
                      max_epochs=15, patience=15, dropout=0.0, batch_size=50,
                      lr=0.005, tf_ratio=1.0, seed=seed, max_len=20)
    corpora = {
        "en-en": synthetic.splits(synthetic.copy_task, train=400, valid=40,
                                  test=40, vocab_size=24, min_len=2, max_len=6,
                                  seed=seed),
        "en-de": synthetic.splits(synthetic.substitution_task, train=400,
                                  valid=40, test=40, vocab_size=24, min_len=2,
                                  max_len=6, seed=seed + 10),
    }
    scores, pretrained = {}, None
    for label, prune_mode, percent in PRUNINGS:
        plan = [
            StageSpec(dataset_id="en-en", label="pretrain"),
            StageSpec(dataset_id="en-de", label="final", prune_mode=prune_mode,
                      prune_percent=percent),
        ]
        if pretrained is None:
            results = run_sequential_plan(plan, corpora, cfg)
            pretrained = results[0]["checkpoint"]
        else:
            results = continue_plan(pretrained, plan, corpora, cfg)
        score = _scored_against_reference(results[-1]["checkpoint"].to_model(),
                                          corpora["en-de"]["test"], max_len=cfg.max_len)
        assert score == results[-1]["bleu"].score
        scores[label] = score
    return scores


def test_criterion_8_pruning_degradation_trend():
    per_seed = [_stage_bleus(seed) for seed in (0, 1, 2)]
    medians = {label: statistics.median(scores[label] for scores in per_seed)
               for label, _, _ in PRUNINGS}
    ok = (medians["unpruned"] >= medians["most10"]
          and medians["unpruned"] >= medians["least10"])
    _report(8, "unpruned >= pruned BLEU", ok,
            ", ".join("%s %.4f [%s]" % (label, median, " ".join(
                "%.4f" % scores[label] for scores in per_seed))
                for label, median in medians.items()))


# -- 9: mass-matrix algebra ---------------------------------------------------------------------

def test_criterion_9_mass_matrix_algebra():
    ok = True
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(int(rng.integers(1, 6)), 6))
                for _ in range(int(rng.integers(1, 4)))]
        acts = ActivationDataset(tokens=[["t%d" % i for i in range(len(mat))] for mat in mats],
                                 tags=[["NOUN"] * len(mat) for mat in mats],
                                 matrix=np.concatenate(mats))
        m = mass_matrices(acts)
        # brute-force double loop
        signed = np.zeros(6)
        magnitude = np.zeros(6)
        max_mass = np.zeros(6)
        hits = np.zeros(6, dtype=np.int64)
        rows = 0
        for row in acts.matrix:
            rows += 1
            best = 0
            for k in range(6):
                signed[k] += row[k]
                magnitude[k] += abs(row[k])
                if abs(row[k]) > abs(row[best]):
                    best = k
            max_mass[best] += row[best]
            hits[best] += 1
        worst = max(worst,
                    float(np.max(np.abs(m.signed_mass - signed))),
                    float(np.max(np.abs(m.magnitude_mass - magnitude))),
                    float(np.max(np.abs(m.max_mass - max_mass))))
        ok &= m.hit_count.tolist() == hits.tolist()
        k = knowledge_abstraction(m)
        ok &= k.overall == k.positive + k.negative
        ok &= bool(np.all(m.magnitude_mass >= np.abs(m.signed_mass) - 1e-15))
        ok &= int(m.hit_count.sum()) == rows
        if seed < 20:  # antisymmetry on a sample of pairs
            m2 = mass_matrices(ActivationDataset(tokens=[["x"]], tags=[["X"]],
                                                 matrix=rng.normal(size=(1, 6))))
            d_ab, _, _ = change_in_mass(m, m2)
            d_ba, _, _ = change_in_mass(m2, m)
            ok &= bool(np.all(d_ab == -d_ba))
    ok &= worst < 1e-12
    _report(9, "mass-matrix algebra", ok, "max |diff| %.2e" % worst)


# -- 10: determinism -----------------------------------------------------------------------------

def test_criterion_10_sequential_determinism(tmp_path):
    from lrmt.cli import main

    def _setup(root):
        root.mkdir()
        rng = np.random.default_rng(0)
        words = ["sun", "moon", "star", "tree", "bird", "fish"]
        tgt = ["sonne", "mond", "stern", "baum", "vogel", "fisch"]
        for ds, translate in (("en-en", False), ("en-de", True)):
            for split, n in (("train", 30), ("valid", 6), ("test", 6)):
                lines = []
                for _ in range(n):
                    idx = rng.integers(0, 6, size=int(rng.integers(2, 5)))
                    s = " ".join(words[i] for i in idx)
                    t = " ".join(tgt[i] for i in idx) if translate else s
                    lines.append("%s\t%s" % (s, t))
                (root / ("%s.%s.tsv" % (ds, split))).write_text(
                    "\n".join(lines) + "\n", encoding="utf-8")
        (root / "manifest.json").write_text(json.dumps({"datasets": [
            {"id": ds, "pair": ds, "train": "%s.train.tsv" % ds,
             "valid": "%s.valid.tsv" % ds, "test": "%s.test.tsv" % ds}
            for ds in ("en-en", "en-de")]}), encoding="utf-8")

    _setup(tmp_path / "data1")
    _setup(tmp_path / "data2")
    outs = []
    for i, data in enumerate(("data1", "data2")):
        cfg = {"train.arch": "abgru", "train.embed_size": 8,
               "train.hidden_size": 8, "train.max_epochs": 2,
               "train.patience": 1, "train.dropout": 0.0,
               "train.batch_size": 8, "train.max_len": 20, "train.seed": 5,
               "data.manifest": str(tmp_path / data / "manifest.json"),
               "plan.stages": [{"dataset": "en-en", "label": "pretrain"},
                               {"dataset": "en-de", "label": "stage1",
                                "prune_mode": "most_n",
                                "prune_percent": 10.0}]}
        cfg_path = tmp_path / ("cfg%d.json" % i)
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / ("out%d" % i)
        assert main(["sequential", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append(out)

    ok = True
    compared = 0
    for path in sorted(outs[0].rglob("*")):
        if not path.is_file() or path.name == "metrics.jsonl":
            continue  # metrics carry wall-clock seconds by design
        twin = outs[1] / path.relative_to(outs[0])
        same = twin.exists() and path.read_bytes() == twin.read_bytes()
        if path.name == "run.json":
            same = twin.exists()  # contains absolute input paths
        ok &= same
        compared += 1
    _report(10, "sequential determinism", ok and compared >= 5,
            "%d artifacts byte-compared" % compared)


# -- 11: checkpoint round-trip ----------------------------------------------------------------------

def test_criterion_11_checkpoint_round_trip(tmp_path):
    cfg = TrainConfig(arch="abgru", embed_size=8, hidden_size=8, max_epochs=1,
                      patience=1, dropout=0.0, batch_size=8, seed=6, max_len=20)
    data = synthetic.splits(synthetic.copy_task, train=40, valid=8, test=8,
                            vocab_size=10, max_len=5)
    ckpt = pretrain_copy(data["train"], cfg)
    path = tmp_path / "m.lrmt"
    ckpt.save(path)
    back = load_checkpoint(path)
    m1, m2 = ckpt.to_model(), back.to_model()
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(10):
        length = int(rng.integers(2, 7))
        ids = [1] + [int(rng.integers(4, 10)) for _ in range(length)] + [2]
        src = np.asarray(ids).reshape(1, -1)
        e1, e2 = m1.encode(src), m2.encode(src)
        ok &= e1.states.data.tobytes() == e2.states.data.tobytes()
        ok &= e1.state[0].data.tobytes() == e2.state[0].data.tobytes()
        ok &= m1.greedy_decode(ids, max_len=10) == m2.greedy_decode(ids, max_len=10)
    # corruption: flip one byte anywhere -> rejected, no partial object
    raw = bytearray(path.read_bytes())
    for pos in (2, len(raw) // 2, len(raw) - 2):
        bad = bytearray(raw)
        bad[pos] ^= 0xFF
        bad_path = tmp_path / ("bad%d.lrmt" % pos)
        bad_path.write_bytes(bytes(bad))
        with pytest.raises((CheckpointFormatError, CheckpointChecksumError)):
            load_checkpoint(bad_path)
    _report(11, "checkpoint round-trip", ok)
