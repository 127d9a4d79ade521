"""Fused GRU/LSTM ops against the composed-op cells they replaced.

The reference is `reference_forward.composed_sequence`: the input projection
as a tape `matmul` and `add`, then the cell maths built from `narrow`,
`sigmoid`, `tanh`, `add` and `mul`, with the pad carry as a lerp by the
{0,1} mask, one position at a time and every row at every one.  The fused
op steps only the live rows, longest first.  Fused and composed forms do the
same arithmetic per element, so states agree to float64 rounding; gradients
sum in a different order (one W_h GEMM over all live positions), hence the
looser gradient bound.
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

B, T, H, I = 3, 5, 4, 2
LENGTHS = np.array([5, 3, 1])
GATES = {"gru": 3, "lstm": 4}
STATES = {"gru": 1, "lstm": 2}


def _inputs(kind, seed, rows=B, steps=T):
    """The parameters (x, W_i, b, W_h) of one fused sequence op."""
    rng = np.random.default_rng(seed)
    G = GATES[kind] * H
    return [Parameter(rng.normal(scale=0.5, size=shape), name=name)
            for name, shape in (("x", (rows, steps, I)), ("W_i", (I, G)), ("b", (G,)),
                                ("W_h", (H, G)))]


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
    params = _inputs(kind, seed=1 + reverse)
    weights = np.random.default_rng(9).normal(size=(B, T, STATES[kind] * H))
    fused = _compare(kind, params, _mask(), reverse, weights)
    assert fused.shape == (B, T, STATES[kind] * H)
    # the carry: pad positions repeat the state before them in visiting
    # order, the last real one going forward and the zero start in reverse
    for row, length in enumerate(LENGTHS):
        carried = 0.0 if reverse else fused.data[row, length - 1]
        assert np.all(fused.data[row, length:] == carried)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_sequence_gradients_finite_difference(float64_mode, kind, reverse):
    params = _inputs(kind, seed=5 + reverse)
    weights = np.random.default_rng(6).normal(size=(B, T, STATES[kind] * H))

    def forward():
        out = nm.cell_sequence(kind, *params, _mask(), reverse)
        return tp.tsum(tp.mul(nm.tanh(out), weights))

    assert relative_gradient_error(params, forward) < 1e-6


def test_sequence_rejects_mismatched_mask():
    with pytest.raises(ValueError):
        nm.cell_sequence("gru", *_inputs("gru", seed=7), np.ones((B, T + 1)))


def _compare(kind, params, mask, reverse, weights):
    """The fused op's output, after checking it and every parameter
    gradient against the composed reference."""
    fused = nm.cell_sequence(kind, *params, mask, reverse)
    ref = composed_sequence(kind, *params, mask, reverse)
    assert fused.shape == ref.shape
    assert np.max(np.abs(fused.data - ref.data)) < 1e-12
    got = _grads(tp.tsum(tp.mul(fused, weights)), params)
    want = _grads(tp.tsum(tp.mul(ref, weights)), params)
    for p, g, w in zip(params, got, want):
        assert np.max(np.abs(g - w)) < 1e-10, p.name
    return fused


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
    params = _inputs(kind, seed, rows, steps)
    mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)
    weights = rng.normal(size=(rows, steps, STATES[kind] * H))
    _compare(kind, params, mask, reverse, weights)


def test_sequence_rejects_a_mask_that_is_not_right_padded():
    mask = _mask()
    mask[0, 2] = 0.0                                # row 0: real, pad, then real again
    with pytest.raises(ValueError, match="mask is not right-padded"):
        nm.cell_sequence("gru", *_inputs("gru", seed=8), mask)


def test_live_rows_order_only_a_batch_that_needs_it():
    # no padding, or rows already longest first: stepped in the caller's order
    assert nm._live_rows(np.ones((3, 4)), (3, 4))[:2] == ([3, 3, 3, 3], None)
    assert nm._live_rows(_mask(), (B, T))[:2] == ([3, 2, 2, 1, 1], None)
    steps, order, offsets = nm._live_rows(_mask()[::-1], (B, T))
    assert steps == [3, 2, 2, 1, 1] and offsets == [0, 3, 5, 7, 8, 9]
    assert order.tolist() == [2, 1, 0]
