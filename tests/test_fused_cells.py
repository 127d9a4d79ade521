"""Fused GRU/LSTM ops against the composed-op cells they replaced.

The reference below is the cell maths as it was built from `narrow`,
`sigmoid`, `tanh`, `add` and `mul`, with the pad carry as a lerp by the
{0,1} mask, one position at a time.  Fused and composed forms do the same
arithmetic per element, so states agree to float64 rounding; gradients sum
in a different order (one W_h GEMM over all positions), hence the looser
gradient bound.
"""

import numpy as np
import pytest

from lrmt import numerics as nm
from lrmt.numerics import Parameter

from gradcheck import relative_gradient_error

B, T, H = 3, 5, 4
LENGTHS = np.array([5, 3, 1])
GATES = {"gru": 3, "lstm": 4}


def _ref_gru(xp, h, W_h):
    hh = h @ W_h
    r = nm.sigmoid(nm.narrow(xp, 0, H) + nm.narrow(hh, 0, H))
    z = nm.sigmoid(nm.narrow(xp, H, H) + nm.narrow(hh, H, H))
    n = nm.tanh(nm.narrow(xp, 2 * H, H) + r * nm.narrow(hh, 2 * H, H))
    return ((z * -1.0 + 1.0) * n + z * h,)


def _ref_lstm(xp, h, c, W_h):
    a = xp + h @ W_h
    i = nm.sigmoid(nm.narrow(a, 0, H))
    f = nm.sigmoid(nm.narrow(a, H, H))
    g = nm.tanh(nm.narrow(a, 2 * H, H))
    o = nm.sigmoid(nm.narrow(a, 3 * H, H))
    c_new = f * c + i * g
    return o * nm.tanh(c_new), c_new


def _ref_step(kind, xp, state, W_h):
    return _ref_gru(xp, *state, W_h) if kind == "gru" else _ref_lstm(xp, *state, W_h)


def _lerp(mask_col, new, prev):
    m = mask_col[:, None]
    return new * m + prev * (1.0 - m)


def _ref_sequence(kind, xp, state, W_h, mask, reverse):
    order = range(T - 1, -1, -1) if reverse else range(T)
    per_pos = [None] * T
    for t in order:
        x_t = nm.reshape(nm.narrow(xp, t, 1, axis=1), (B, -1))
        new = _ref_step(kind, x_t, state, W_h)
        state = [_lerp(mask[:, t], n, s) for n, s in zip(new, state)]
        per_pos[t] = nm.concat(state, axis=-1)
    return nm.stack(per_pos, axis=1)


def _fused_sequence(kind, xp, state, W_h, mask, reverse):
    op = nm.gru_sequence if kind == "gru" else nm.lstm_sequence
    return op(xp, *state, W_h, mask, reverse=reverse)


def _inputs(kind, seed, steps=(T,)):
    rng = np.random.default_rng(seed)
    G = GATES[kind] * H
    xp = Parameter(rng.normal(scale=0.5, size=(B, *steps, G)), name="xp")
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
    fused = _fused_sequence(kind, xp, state, W_h, _mask(), reverse)
    ref = _ref_sequence(kind, xp, state, W_h, _mask(), reverse)
    assert fused.shape == ref.shape == (B, T, len(state) * H)
    assert np.max(np.abs(fused.data - ref.data)) < 1e-12
    got = _grads(nm.tsum(fused * weights), params)
    want = _grads(nm.tsum(ref * weights), params)
    for p, g, w in zip(params, got, want):
        assert np.max(np.abs(g - w)) < 1e-10, p.name
    # the carry: pad positions repeat the state before them in visiting
    # order, the last real one going forward and the initial one in reverse
    initial = np.concatenate([s.data for s in state], axis=-1)
    for row, length in enumerate(LENGTHS):
        carried = initial[row] if reverse else fused.data[row, length - 1]
        assert np.all(fused.data[row, length:] == carried)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_step_matches_composed_reference(float64_mode, kind):
    xp, state, W_h = _inputs(kind, seed=3, steps=())
    params = [xp, *state, W_h]
    weights = np.random.default_rng(4).normal(size=(B, len(state) * H))
    op = nm.gru_step if kind == "gru" else nm.lstm_step
    fused = op(xp, *state, W_h)
    ref = nm.concat(list(_ref_step(kind, xp, state, W_h)), axis=-1)
    assert np.max(np.abs(fused.data - ref.data)) < 1e-12
    got = _grads(nm.tsum(fused * weights), params)
    want = _grads(nm.tsum(ref * weights), params)
    for p, g, w in zip(params, got, want):
        assert np.max(np.abs(g - w)) < 1e-10, p.name


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_sequence_gradients_finite_difference(float64_mode, kind, reverse):
    xp, state, W_h = _inputs(kind, seed=5 + reverse)
    weights = np.random.default_rng(6).normal(size=(B, T, len(state) * H))

    def forward():
        out = _fused_sequence(kind, xp, state, W_h, _mask(), reverse)
        return nm.tsum(nm.tanh(out) * weights)

    assert relative_gradient_error([xp, *state, W_h], forward) < 1e-6


def test_sequence_rejects_mismatched_mask():
    xp, state, W_h = _inputs("gru", seed=7)
    with pytest.raises(ValueError):
        nm.gru_sequence(xp, *state, W_h, np.ones((B, T + 1)))
