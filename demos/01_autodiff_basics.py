"""Reverse-mode autodiff on lrmt's own ops.

A training batch of a toy attention model is a tape of three fused ops: the
encoder, the decoder with its output head, and the loss.  This prints that
tape, checks one encoder weight's gradient against a central finite
difference (the oracle the test suite uses for every op) and takes a few
Adam steps.  backward() walks a tape once and releases it as it goes, so the
tape is printed before it is walked.
"""

import numpy as np

from lrmt import synthetic
from lrmt.model import Seq2SeqModel
from lrmt.numerics import Adam, cross_entropy_masked, set_default_dtype
from lrmt.text import build_vocab, encode_pairs, make_batches

set_default_dtype(np.float64)
corpus = synthetic.copy_task(pairs=8, vocab_size=6, min_len=2, max_len=4, seed=0)
vocab = build_vocab([corpus], side="source")
model = Seq2SeqModel("abgru", vocab, vocab, embed_size=4, hidden_size=5, dropout=0.0, seed=0)
(batch,) = make_batches(encode_pairs(corpus, vocab, vocab), batch_size=8, seed=0)


def forward():
    return cross_entropy_masked(model.forward_teacher_forced(batch), batch.target[:, 1:])


def tape(loss):
    """Every node with a backward closure, from `loss` back, each once."""
    seen, nodes, todo = set(), [], [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            nodes.append(node)
            todo.extend(node._parents)
    return nodes


loss = forward()
print("loss: %.6f; its tape, from the loss back:" % loss.item())
nodes = tape(loss)
for node in nodes:
    op = node._backward.__qualname__.split(".")[0]
    print("  %-22s %-12s %2d parent(s)" % (op, node.shape, len(node._parents)))
print("(the encoder op's three outputs hang off its hidden node, the entry with 11 parents)")
loss.backward()
print("backward() released the tape: %d of its %d nodes keep a parent"
      % (sum(bool(node._parents) for node in nodes), len(nodes)))

# Finite-difference check on the forward encoder's recurrent weight, at its
# entry of largest gradient: that gradient crosses all three ops.
W_h = model.named_parameters()["enc_fwd.W_h"]
i = int(np.abs(W_h.grad).argmax())
eps = 1e-6
flat = W_h.data.reshape(-1)
old = flat[i]
flat[i] = old + eps
up = forward().item()
flat[i] = old - eps
down = forward().item()
flat[i] = old
numeric = (up - down) / (2 * eps)
print("dL/d enc_fwd.W_h (flat %d) analytic %.10f  numeric %.10f"
      % (i, W_h.grad.reshape(-1)[i], numeric))

# A few Adam steps drive the loss down.
opt = Adam(model.parameters(), lr=0.05)
for step in range(20):
    opt.zero_grad()
    loss = forward()
    loss.backward()
    opt.step()
    if step % 5 == 0:
        print("step %2d  loss %.6f" % (step, loss.item()))
