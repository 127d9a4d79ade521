"""Fused GRU/LSTM ops against the composed-op cells they replaced.

The reference is `reference_forward.composed_cell`, the cell maths built
from `narrow`, `sigmoid`, `tanh`, `add` and `mul`, run here with the pad
carry as a lerp by the {0,1} mask, one position at a time.  Fused and
composed forms do the same arithmetic per element, so states agree to
float64 rounding; gradients sum in a different order (one W_h GEMM over all
positions), hence the looser gradient bound.
"""

import numpy as np
import pytest

from lrmt import numerics as nm
from lrmt.numerics import Parameter

import tape_ops as tp
from gradcheck import relative_gradient_error
from reference_forward import composed_cell

B, T, H = 3, 5, 4
LENGTHS = np.array([5, 3, 1])
GATES = {"gru": 3, "lstm": 4}


def _lerp(mask_col, new, prev):
    m = mask_col[:, None]
    return tp.mul(new, m) + tp.mul(prev, 1.0 - m)


def _ref_sequence(kind, xp, state, W_h, mask, reverse):
    order = range(T - 1, -1, -1) if reverse else range(T)
    per_pos = [None] * T
    for t in order:
        x_t = nm.reshape(nm.narrow(xp, t, 1, axis=1), (B, -1))
        new = composed_cell(kind, x_t, state, W_h)
        state = [_lerp(mask[:, t], n, s) for n, s in zip(new, state)]
        per_pos[t] = nm.concat(state, axis=-1)
    return tp.stack(per_pos, axis=1)


def _inputs(kind, seed):
    rng = np.random.default_rng(seed)
    G = GATES[kind] * H
    xp = Parameter(rng.normal(scale=0.5, size=(B, T, G)), name="xp")
    W_h = Parameter(rng.normal(scale=0.5, size=(H, G)), name="W_h")
    state = [Parameter(rng.normal(size=(B, H)), name="h0")]
    if kind == "lstm":
        state.append(Parameter(rng.normal(size=(B, H)), name="c0"))
    return xp, state, W_h


def _mask():
    return (np.arange(T)[None, :] < LENGTHS[:, None]).astype(np.float64)


def _grads(loss, params):
    for p in params:
        p.zero_grad()
    loss.backward()
    return [p.grad.copy() for p in params]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_sequence_matches_composed_reference(float64_mode, kind, reverse):
    xp, state, W_h = _inputs(kind, seed=1 + reverse)
    params = [xp, *state, W_h]
    weights = np.random.default_rng(9).normal(size=(B, T, len(state) * H))
    fused = nm.cell_sequence(kind, xp, state, W_h, _mask(), reverse)
    ref = _ref_sequence(kind, xp, state, W_h, _mask(), reverse)
    assert fused.shape == ref.shape == (B, T, len(state) * H)
    assert np.max(np.abs(fused.data - ref.data)) < 1e-12
    got = _grads(tp.tsum(tp.mul(fused, weights)), params)
    want = _grads(tp.tsum(tp.mul(ref, weights)), params)
    for p, g, w in zip(params, got, want):
        assert np.max(np.abs(g - w)) < 1e-10, p.name
    # the carry: pad positions repeat the state before them in visiting
    # order, the last real one going forward and the initial one in reverse
    initial = np.concatenate([s.data for s in state], axis=-1)
    for row, length in enumerate(LENGTHS):
        carried = initial[row] if reverse else fused.data[row, length - 1]
        assert np.all(fused.data[row, length:] == carried)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_sequence_gradients_finite_difference(float64_mode, kind, reverse):
    xp, state, W_h = _inputs(kind, seed=5 + reverse)
    weights = np.random.default_rng(6).normal(size=(B, T, len(state) * H))

    def forward():
        out = nm.cell_sequence(kind, xp, state, W_h, _mask(), reverse)
        return tp.tsum(tp.mul(nm.tanh(out), weights))

    assert relative_gradient_error([xp, *state, W_h], forward) < 1e-6


def test_sequence_rejects_mismatched_mask():
    xp, state, W_h = _inputs("gru", seed=7)
    with pytest.raises(ValueError):
        nm.cell_sequence("gru", xp, state, W_h, np.ones((B, T + 1)))
