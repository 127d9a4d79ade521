"""Reverse-mode autodiff from the ground up.

Builds a tiny computation by hand, backpropagates through it, and checks the
result against central finite differences — the same oracle the test suite
uses for every layer.
"""

import numpy as np

from lrmt import numerics as nm
from lrmt.numerics import Adam, Parameter, Tensor, set_default_dtype

set_default_dtype(np.float64)

# A two-layer tanh network on a fixed input, loss = sum of outputs: the
# [4, 2] output between a row and a column of ones is a [1, 1] scalar node.
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)))
W1 = Parameter(nm.init_uniform((3, 5), rng), name="W1")
W2 = Parameter(nm.init_uniform((5, 2), rng), name="W2")
rows, cols = Tensor(np.ones((1, 4))), Tensor(np.ones((2, 1)))


def forward():
    h = nm.tanh(x @ W1)
    return rows @ nm.tanh(h @ W2) @ cols


loss = forward()
loss.backward()
print("loss:", loss.item())

# Finite-difference check on one entry of W1.
eps = 1e-6
flat = W1.data.reshape(-1)
old = flat[0]
flat[0] = old + eps
up = forward().item()
flat[0] = old - eps
down = forward().item()
flat[0] = old
numeric = (up - down) / (2 * eps)
print("dL/dW1[0,0] analytic %.10f  numeric %.10f" % (W1.grad.reshape(-1)[0], numeric))

# A few Adam steps drive the loss down.
opt = Adam([W1, W2], lr=0.05)
for step in range(20):
    opt.zero_grad()
    loss = forward()
    loss.backward()
    opt.step()
    if step % 5 == 0:
        print("step %2d  loss %.6f" % (step, loss.item()))
