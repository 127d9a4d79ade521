"""A full sequential transfer plan with frozen-encoder stages and pruning.

Stage 0 pretrains by copying; each later stage prunes encoder neurons chosen
from the previous stage's activations, freezes the encoder, rebinds a fresh
decoder, and fine-tunes on its own language pair.
"""

from pathlib import Path
from tempfile import mkdtemp

from lrmt import synthetic, training
from lrmt.training import StageSpec, TrainConfig

config = TrainConfig(arch="abgru", embed_size=32, hidden_size=32,
                     max_epochs=20, patience=20, dropout=0.0, batch_size=50,
                     lr=0.005, tf_ratio=1.0, seed=0, max_len=20)

corpora = {
    "en-en": synthetic.splits(synthetic.copy_task, train=400, valid=40,
                              test=40, vocab_size=24, min_len=2, max_len=6,
                              seed=0),
    "en-de": synthetic.splits(synthetic.substitution_task, train=400, valid=40,
                              test=40, vocab_size=24, min_len=2, max_len=6,
                              seed=1),
    "en-fr": synthetic.splits(synthetic.substitution_task, train=400, valid=40,
                              test=40, vocab_size=24, min_len=2, max_len=6,
                              seed=2),
}

plan = [
    StageSpec(dataset_id="en-en", label="pretrain"),
    StageSpec(dataset_id="en-de", label="stage1-de",
              prune_mode="least_n", prune_percent=10.0),
    StageSpec(dataset_id="en-fr", label="stage2-fr",
              prune_mode="most_n", prune_percent=10.0),
]

out = Path(mkdtemp(prefix="lrmt-demo-"))
results = training.run_sequential_plan(plan, corpora, config, out_dir=out)

for r in results:
    model = r["checkpoint"].to_model()
    pruned = model.pruned_neurons()
    score = r["bleu"].score if r["bleu"] else float("nan")
    print("stage %d %-12s BLEU %.4f  pruned neurons: %d"
          % (r["stage"], r["label"], score, len(pruned)))
print("checkpoints written to", out)
