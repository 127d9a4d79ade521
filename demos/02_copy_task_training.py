"""Train the attention model to copy its input, then score it with BLEU-4.

This mirrors the pretraining stage of every transfer regime: the target is
the source, so the encoder must learn a faithful sentence representation.
Runs in well under a minute at this scale.
"""

from lrmt import bleu, synthetic, training

config = training.TrainConfig(arch="abgru", embed_size=32, hidden_size=64,
                              max_epochs=30, patience=5, dropout=0.0,
                              batch_size=100, lr=0.005, tf_ratio=1.0, seed=0,
                              max_len=20)

data = synthetic.splits(synthetic.copy_task, train=1000, valid=100, test=100,
                        vocab_size=32, min_len=2, max_len=6, seed=0)

checkpoint = training.pretrain_copy(data["train"], config)
print("stopped after epoch %d (best: epoch %d)"
      % (len(checkpoint.provenance["history"]), checkpoint.provenance["epoch"]))

model = checkpoint.to_model()
test = training.copy_corpus([s for s, _ in data["test"].pairs])
report = bleu.evaluate_corpus(model, test, max_len=10)
print("held-out BLEU-4: %.4f  (precisions %s, bp %.3f)"
      % (report.score, ["%.3f" % p for p in report.precisions],
         report.brevity_penalty))

for src, ref, hyp in report.samples[:3]:
    print("  in : %s\n  out: %s" % (src, hyp))
