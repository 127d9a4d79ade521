"""A fixed reference loop that measures how fast this machine runs lrmt-like
work at the moment.

The benchmark shares a few cores with other tenants of its host, and their
load makes the same operation 10-30% slower for minutes at a time.  The
harness runs `sample()` between operations, outside their timing, and reports
operation times as multiples of the mean sample: a slow spell of the host
slows both, so the ratio moves less than the seconds do.

The loop does in miniature what lrmt does: a GRU-like cell built from small
numpy ops, recorded on a tape of Python objects with closures, then walked
backwards, at batch 1 (decoding) and batch 50 (training).  It imports nothing
from lrmt, so a change to the package cannot move it.
"""

from time import perf_counter, process_time

import numpy as np

HIDDEN = 64
STEPS = 8
# (batch, repeats) per sample; about 20 ms on a 2-core Intel Xeon VM
SHAPES = ((1, 48), (50, 12))

_rng = np.random.default_rng(0)
_W = (_rng.standard_normal((HIDDEN, 3 * HIDDEN)) * 0.1).astype(np.float32)
_U = (_rng.standard_normal((HIDDEN, 3 * HIDDEN)) * 0.1).astype(np.float32)
_X = {b: _rng.standard_normal((STEPS, b, HIDDEN)).astype(np.float32)
      for b, _ in SHAPES}


class _Node:
    __slots__ = ("value", "parents", "backward", "grad")

    def __init__(self, value, parents=(), backward=None):
        self.value = value
        self.parents = parents
        self.backward = backward
        self.grad = None


def _cell(x, h):
    gates = x @ _W + h.value @ _U
    z = 1.0 / (1.0 + np.exp(-gates[:, :HIDDEN]))
    r = 1.0 / (1.0 + np.exp(-gates[:, HIDDEN:2 * HIDDEN]))
    n = np.tanh(gates[:, 2 * HIDDEN:] * r)
    out = _Node(z * h.value + (1.0 - z) * n, (h,))

    def backward(g):
        return (g * z,)
    out.backward = backward
    return out


def _sequence(xs):
    h = _Node(np.zeros((xs.shape[1], HIDDEN), dtype=np.float32))
    tape = []
    for x in xs:
        h = _cell(x, h)
        tape.append(h)
    h.grad = np.ones_like(h.value)
    for node in reversed(tape):
        for parent, g in zip(node.parents, node.backward(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g
    return float(tape[0].grad.sum())


def sample():
    """Run the reference loop once; return its (wall, process CPU) seconds."""
    wall0, cpu0 = perf_counter(), process_time()
    for batch, repeats in SHAPES:
        for _ in range(repeats):
            _sequence(_X[batch])
    return perf_counter() - wall0, process_time() - cpu0
