"""Fused GRU/LSTM ops against the composed-op cells they replaced.

The reference is `reference_forward.composed_sequence`: the cell maths built
from `narrow`, `sigmoid`, `tanh`, `add` and `mul`, with the pad carry as a
lerp by the {0,1} mask, one position at a time and every row at every one.
The fused op steps only the live rows, longest first.  Fused and composed
forms do the same arithmetic per element, so states agree to float64
rounding; gradients sum in a different order (one W_h GEMM over all live
positions), hence the looser gradient bound.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lrmt import numerics as nm
from lrmt.numerics import Parameter

import tape_ops as tp
from gradcheck import relative_gradient_error
from reference_forward import composed_sequence

B, T, H = 3, 5, 4
LENGTHS = np.array([5, 3, 1])
GATES = {"gru": 3, "lstm": 4}


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
    ref = composed_sequence(kind, xp, state, W_h, _mask(), reverse)
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


def _compare(kind, xp, state, W_h, mask, reverse, weights):
    params = [xp, *state, W_h]
    fused = nm.cell_sequence(kind, xp, state, W_h, mask, reverse)
    ref = composed_sequence(kind, xp, state, W_h, mask, reverse)
    assert np.max(np.abs(fused.data - ref.data)) < 1e-12
    got = _grads(tp.tsum(tp.mul(fused, weights)), params)
    want = _grads(tp.tsum(tp.mul(ref, weights)), params)
    for p, g, w in zip(params, got, want):
        assert np.max(np.abs(g - w)) < 1e-10, p.name


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["gru", "lstm"]), st.booleans(),
       st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(0, 2 ** 31))
@example("gru", False, [4], 0)                  # one row
@example("lstm", True, [3, 3, 3], 1)            # every row of one length
@example("gru", True, [2, 6, 2, 2], 2)          # one row longer than the rest
@example("lstm", False, [0, 5, 1], 3)           # a row with no real position
def test_sequence_on_any_right_padding_matches_composed_reference(float64_mode, kind,
                                                                  reverse, lengths, seed):
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    rows, steps = len(lengths), max(1, lengths.max() + int(rng.integers(0, 2)))
    G = GATES[kind] * H
    xp = Parameter(rng.normal(scale=0.5, size=(rows, steps, G)), name="xp")
    W_h = Parameter(rng.normal(scale=0.5, size=(H, G)), name="W_h")
    state = [Parameter(rng.normal(size=(rows, H)), name="s%d" % k)
             for k in range(1 + (kind == "lstm"))]
    mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)
    weights = rng.normal(size=(rows, steps, len(state) * H))
    _compare(kind, xp, state, W_h, mask, reverse, weights)


def test_sequence_rejects_a_mask_that_is_not_right_padded():
    xp, state, W_h = _inputs("gru", seed=8)
    mask = _mask()
    mask[0, 2] = 0.0                                # row 0: real, pad, then real again
    with pytest.raises(ValueError, match="mask is not right-padded"):
        nm.cell_sequence("gru", xp, state, W_h, mask)


def test_live_rows_order_only_a_batch_that_needs_it():
    # no padding, or rows already longest first: stepped in the caller's order
    assert nm._live_rows(np.ones((3, 4)), (3, 4))[:2] == ([3, 3, 3, 3], None)
    assert nm._live_rows(_mask(), (B, T))[:2] == ([3, 2, 2, 1, 1], None)
    steps, order, offsets = nm._live_rows(_mask()[::-1], (B, T))
    assert steps == [3, 2, 2, 1, 1] and offsets == [0, 3, 5, 7, 8, 9]
    assert order.tolist() == [2, 1, 0]
