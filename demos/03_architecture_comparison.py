"""Compare the three architectures on a substitution-translation task.

The synthetic task maps each source word through a fixed lexicon and reverses
the sentence, so long-range alignment matters — which is exactly where
attention should earn its keep over the plain LSTM/GRU context vector.
"""

from lrmt import bleu, synthetic, training

data = synthetic.splits(synthetic.substitution_task, train=600, valid=60,
                        test=60, vocab_size=24, min_len=2, max_len=6, seed=1)

for arch in ("lstm", "gru", "abgru"):
    config = training.TrainConfig(arch=arch, embed_size=32, hidden_size=64,
                                  max_epochs=15, patience=15, dropout=0.0,
                                  batch_size=50, lr=0.005, tf_ratio=1.0,
                                  seed=0, max_len=20)
    ckpt = training.train_from_scratch(data, config, stage_label=arch)
    report = bleu.evaluate_corpus(ckpt.to_model(), data["test"], max_len=10)
    print("%-6s  BLEU %.4f  (best epoch %d)"
          % (arch, report.score, ckpt.provenance["epoch"]))
