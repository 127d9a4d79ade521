"""Look inside a trained encoder: mass-activation matrices, dead neurons,
knowledge abstraction, change-in-mass, POS/token profiles, and SVG reports.
"""

from pathlib import Path
from tempfile import mkdtemp

from lrmt import bleu, report, synthetic, training, xray

config = training.TrainConfig(arch="abgru", embed_size=16, hidden_size=16,
                              max_epochs=12, patience=3, dropout=0.0,
                              batch_size=50, lr=0.005, tf_ratio=1.0, seed=0,
                              max_len=20)
data = synthetic.splits(synthetic.copy_task, train=400, valid=40, test=40,
                        vocab_size=24, min_len=2, max_len=6, seed=0)

before_model = training.build_model(
    config,
    *(2 * [training.shared_source_vocab([data["train"]])]))
test = training.copy_corpus([s for s, _ in data["test"].pairs])

acts_before = xray.capture_activations(before_model, test)
mass_before = xray.mass_matrices(acts_before)

ckpt = training.pretrain_copy(data["train"], config)
model = ckpt.to_model()
acts_after = xray.capture_activations(model, test)
mass_after = xray.mass_matrices(acts_after)

know = xray.knowledge_abstraction(mass_after)
print("knowledge: positive %.3f  negative %.3f  overall %.3f"
      % (know.positive, know.negative, know.overall))
print("dead neurons after training:", sorted(xray.dead_neurons(mass_after)))

delta, most, least = xray.change_in_mass(mass_before, mass_after, top_k=3)
print("most changed neurons:", most)

dist = xray.pos_token_distribution(acts_after, neuron=most[0], k=5)
print("top tokens for neuron %d:" % most[0])
for tok, tag, mean, norm in dist.top_k:
    print("  %-8s %-6s mean %+.4f  normalized %+.3f" % (tok, tag, mean, norm))

out = Path(mkdtemp(prefix="lrmt-xray-"))
stages = [
    report.StageAnalysis(stage=0, label="untrained", mass=mass_before),
    report.StageAnalysis(
        stage=1, label="pretrained", mass=mass_after,
        bleu=bleu.evaluate_corpus(model, test, max_len=10),
        top_changed=[{"neuron": int(n), "delta": float(delta[n])} for n in most])]
report.export_analysis(stages, out)
report.render_pos_distribution(dist, out / "neuron.svg")
print("report written to", out)
