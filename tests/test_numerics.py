"""Oracle tests for the tensor engine: softmax, the fused loss, clipping, Adam,
and reverse-mode gradients checked against central finite differences."""

import math
import zlib

import numpy as np
import pytest

from lrmt import numerics as nm
from lrmt.numerics import Adam, Parameter, Tensor, clip_grad_norm, cross_entropy_masked

import tape_ops as tp
from gradcheck import relative_gradient_error
from tape_ops import masked_softmax


# -- softmax ------------------------------------------------------------------

def _softmax_oracle(row):
    # plain math.exp, no stabilization shift: an independent high-precision path
    exps = [math.exp(float(x)) for x in row]
    total = math.fsum(exps)
    return [e / total for e in exps]


def test_masked_softmax_zeroes_masked_positions(float64_mode):
    x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]), requires_grad=True)
    mask = np.array([[1, 0, 1, 0]])
    out = masked_softmax(x, mask)
    assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
    want = _softmax_oracle([1.0, 3.0])
    assert abs(out.data[0, 0] - want[0]) < 1e-12
    assert abs(out.data[0, 2] - want[1]) < 1e-12


def test_masked_softmax_rejects_fully_masked_row():
    with pytest.raises(ValueError):
        masked_softmax(Tensor(np.ones((2, 3))), np.array([[1, 1, 1], [0, 0, 0]]))


# -- cross entropy --------------------------------------------------------------

def _ce_oracle(logits, targets):
    # scalar loop over the packed rows, independent of the fused implementation
    targets = targets[targets != 0]
    total = 0.0
    for row, t in zip(logits, targets):
        total += -math.log(_softmax_oracle(row)[t])
    return total / len(targets)


def test_cross_entropy_matches_scalar_loop(float64_mode):
    rng = np.random.default_rng(11)
    targets = rng.integers(0, 9, size=(4, 6))
    targets[0, 3:] = 0  # pad positions: no logit row
    logits = Tensor(rng.normal(size=(int((targets != 0).sum()), 9)), requires_grad=True)
    loss = cross_entropy_masked(logits, targets)
    assert abs(loss.item() - _ce_oracle(logits.data, targets)) < 1e-10


def test_cross_entropy_rejects_targets_without_a_token(float64_mode):
    logits = Tensor(np.zeros((0, 5)), requires_grad=True)
    with pytest.raises(ValueError, match="at least one token"):
        cross_entropy_masked(logits, np.zeros((2, 3), dtype=np.int64))


def test_cross_entropy_gradient_finite_difference(float64_mode):
    rng = np.random.default_rng(5)
    p = Parameter(rng.normal(size=(3, 7)), name="logits")
    targets = np.array([[2, 6, 0], [5, 0, 0]])     # three tokens, right-padded
    err = relative_gradient_error([p], lambda: cross_entropy_masked(p, targets))
    assert err < 1e-7


def test_cross_entropy_rejects_bad_targets():
    logits = Tensor(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        cross_entropy_masked(logits, np.array([1, 9]))
    with pytest.raises(ValueError):
        cross_entropy_masked(logits, np.array([1, 2, 3]))


def test_cross_entropy_rejects_logits_at_every_position():
    # [B, S, V] logits, one row per position pads included, are not packed
    targets = np.array([[4, 2, 0], [3, 0, 0]])
    with pytest.raises(ValueError, match="one row per target token"):
        cross_entropy_masked(Tensor(np.zeros((2, 3, 5))), targets)
    with pytest.raises(ValueError, match="one row per target token"):
        cross_entropy_masked(Tensor(np.zeros((6, 5))), targets)


# -- clipping -------------------------------------------------------------------

def test_clip_scales_to_max_norm():
    p = Parameter(np.zeros(2), name="p")
    p.grad = np.array([3.0, 4.0])  # norm 5
    scale = clip_grad_norm([p], 2.5)
    assert abs(scale - 0.5) < 1e-12
    assert np.allclose(p.grad, [1.5, 2.0], atol=1e-7)


def test_clip_is_identity_below_threshold_and_idempotent():
    p = Parameter(np.zeros(2), name="p")
    p.grad = np.array([3.0, 4.0], dtype=np.float64)
    assert clip_grad_norm([p], 10.0) == 1.0
    assert np.array_equal(p.grad, [3.0, 4.0])
    clip_grad_norm([p], 2.5)
    once = p.grad.copy()
    clip_grad_norm([p], 2.5)
    assert np.max(np.abs(p.grad - once)) < 1e-12


def test_clip_uses_global_norm_and_skips_frozen():
    a = Parameter(np.zeros(1), name="a")
    b = Parameter(np.zeros(1), name="b")
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    b.frozen = True
    scale = clip_grad_norm([a, b], 1.0)  # live norm is 3, not 5
    assert abs(scale - 1.0 / 3.0) < 1e-12
    assert np.array_equal(b.grad, [4.0])


def test_clip_rejects_nonpositive_norm():
    with pytest.raises(ValueError):
        clip_grad_norm([], 0.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_clip_raises_on_a_non_finite_gradient_before_scaling_any(bad):
    params = [Parameter(np.ones(3, dtype=np.float32), name=n) for n in ("a", "b", "c")]
    for i, p in enumerate(params):
        p.grad = np.full(3, 10.0 * (i + 1), dtype=np.float32)
    params[1].grad[2] = bad
    params[2].grad[0] = bad
    opt = Adam(params, lr=0.1)
    before = [(p.grad.tobytes(), p.data.tobytes()) for p in params]
    moments = [(m.tobytes(), v.tobytes()) for m, v in zip(opt.m, opt.v)]
    with pytest.raises(FloatingPointError, match="'b'"):
        clip_grad_norm(params, 1.0)
    assert [(p.grad.tobytes(), p.data.tobytes()) for p in params] == before
    assert [(m.tobytes(), v.tobytes()) for m, v in zip(opt.m, opt.v)] == moments
    assert opt.t == [0, 0, 0]


# -- Adam -----------------------------------------------------------------------

def _adam_oracle(x0, grads, lr, b1, b2, eps, l2=0.0):
    # textbook scalar recurrence with bias correction
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        g = g + l2 * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        x -= lr * mhat / (math.sqrt(vhat) + eps)
    return x


def test_adam_three_steps_match_scalar_recurrence(float64_mode):
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    grads = [0.3, -1.2, 0.7]
    p = Parameter(np.array([0.5]), name="p")
    opt = Adam([p], lr=lr)
    for g in grads:
        p.grad = np.array([g])
        opt.step()
    want = _adam_oracle(0.5, grads, lr, b1, b2, eps)
    assert abs(float(p.data[0]) - want) < 1e-12


def test_adam_l2_matches_scalar_recurrence(float64_mode):
    lr, b1, b2, eps, l2 = 0.05, 0.9, 0.999, 1e-8, 0.1
    grads = [1.0, -0.5, 0.25, 2.0]
    p = Parameter(np.array([-0.3]), name="p")
    opt = Adam([p], lr=lr, l2=l2)
    # replicate the sequential dependence: oracle recomputes g + l2*x per step
    x, m, v = -0.3, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([g])
        opt.step()
        ge = g + l2 * x
        m = b1 * m + (1 - b1) * ge
        v = b2 * v + (1 - b2) * ge * ge
        x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    assert abs(float(p.data[0]) - x) < 1e-12


def test_adam_skips_frozen_entirely(float64_mode):
    p = Parameter(np.array([1.0, 2.0]), name="p")
    p.frozen = True
    opt = Adam([p], lr=0.1)
    p.grad = np.array([5.0, -5.0])
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])
    assert opt.t == [0] and np.all(opt.m[0] == 0.0) and np.all(opt.v[0] == 0.0)


def test_adam_keeps_pruned_entries_exactly_zero(float64_mode):
    p = Parameter(np.array([1.0, 2.0, 3.0]), name="p")
    p.add_pruned([1])
    assert p.data[1] == 0.0
    opt = Adam([p], lr=0.05, l2=0.01)
    for _ in range(5):
        p.grad = np.array([0.1, 9.9, -0.2])
        opt.step()
        assert p.data[1] == 0.0
        assert opt.m[0][1] == 0.0 and opt.v[0][1] == 0.0
    assert p.data[0] != 1.0 and p.data[2] != 3.0


def _allocating_adam_step(opt):
    """Adam.step as it was before it ran in place, kept as a literal oracle."""
    b1, b2 = nm.ADAM_BETAS
    for i, p in enumerate(opt.params):
        if p.frozen:
            continue
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if opt.l2:
            g = g + opt.l2 * p.data
        if p.pruned is not None and p.pruned.size:
            g = g.copy()
            g.reshape(-1)[p.pruned] = 0.0
        opt.t[i] += 1
        opt.m[i] = b1 * opt.m[i] + (1.0 - b1) * g
        opt.v[i] = b2 * opt.v[i] + (1.0 - b2) * g * g
        mhat = opt.m[i] / (1.0 - b1 ** opt.t[i])
        vhat = opt.v[i] / (1.0 - b2 ** opt.t[i])
        p.data -= (opt.lr * mhat / (np.sqrt(vhat) + nm.ADAM_EPS)).astype(p.data.dtype)
        if p.pruned is not None and p.pruned.size:
            p.data.reshape(-1)[p.pruned] = 0.0
            opt.m[i].reshape(-1)[p.pruned] = 0.0
            opt.v[i].reshape(-1)[p.pruned] = 0.0


def _adam_params(dtype):
    rng = np.random.default_rng(8)
    params = [Parameter(rng.normal(size=shape).astype(dtype), name=name)
              for name, shape in (("plain", (3, 4)), ("pruned", (5,)),
                                  ("frozen", (2, 2)), ("no_grad", (6,)))]
    params[1].add_pruned([0, 3])
    params[2].frozen = True
    return params


@pytest.mark.parametrize("l2", [0.0, 0.01])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_adam_is_bit_identical_to_allocating_update(dtype, l2):
    rng = np.random.default_rng(9)
    ours, theirs = _adam_params(dtype), _adam_params(dtype)
    opt, oracle = Adam(ours, lr=0.01, l2=l2), Adam(theirs, lr=0.01, l2=l2)
    for _ in range(6):
        for a, b in zip(ours, theirs):
            grad = None if a.name == "no_grad" else rng.normal(size=a.shape).astype(dtype)
            a.grad, b.grad = grad, None if grad is None else grad.copy()
        opt.step()
        _allocating_adam_step(oracle)
        for k, (a, b) in enumerate(zip(ours, theirs)):
            assert a.data.tobytes() == b.data.tobytes(), a.name
            assert opt.m[k].tobytes() == oracle.m[k].tobytes(), a.name
            assert opt.v[k].tobytes() == oracle.v[k].tobytes(), a.name
        assert opt.t == oracle.t == [opt.t[0], opt.t[0], 0, opt.t[0]]


def test_adam_rejects_nonpositive_lr():
    with pytest.raises(ValueError):
        Adam([Parameter(np.zeros(1))], lr=0.0)


# -- op gradients ----------------------------------------------------------------

def _scalarize(t):
    return tp.tsum(tp.tanh(t))


@pytest.mark.parametrize("op", ["add", "mul", "matmul", "concat", "stack",
                                "narrow", "reshape", "sigmoid", "tanh",
                                "masked_softmax", "embedding"])
def test_op_gradients_finite_difference(float64_mode, op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    a = Parameter(rng.normal(size=(3, 4)), name="a")
    b = Parameter(rng.normal(size=(3, 4)), name="b")

    def forward():
        if op == "add":
            out = tp.add(a, b)
        elif op == "mul":
            out = tp.mul(a, b)
        elif op == "matmul":
            out = tp.matmul(a, tp.reshape(b, (4, 3)))
        elif op == "concat":
            out = tp.concat([a, b], axis=-1)
        elif op == "stack":
            out = tp.stack([a, b], axis=1)
        elif op == "narrow":
            out = tp.mul(tp.narrow(a, 1, 2, axis=-1), tp.narrow(b, 0, 2, axis=-1))
        elif op == "reshape":
            out = tp.mul(tp.reshape(a, (2, 6)), 2.0)
        elif op == "sigmoid":
            out = tp.sigmoid(tp.mul(a, b))
        elif op == "tanh":
            out = tp.mul(tp.tanh(a), b)
        elif op == "masked_softmax":
            out = tp.mul(masked_softmax(a, np.array([[1, 1, 0, 1]])), b)
        else:  # embedding
            out = tp.mul(tp.embedding(a, np.array([[0, 2], [2, 1]])), 1.5)
        return _scalarize(out)

    err = relative_gradient_error([a, b], forward)
    assert err < 1e-6


def test_broadcast_add_gradient(float64_mode):
    a = Parameter(np.random.default_rng(1).normal(size=(3, 4)), name="a")
    bias = Parameter(np.random.default_rng(2).normal(size=(4,)), name="bias")
    err = relative_gradient_error([a, bias], lambda: _scalarize(tp.add(a, bias)))
    assert err < 1e-7


def test_embedding_backward_accumulates_repeated_rows(float64_mode):
    table = Parameter(np.ones((3, 2)), name="emb")
    out = tp.tsum(tp.embedding(table, np.array([1, 1, 1])))
    out.backward()
    assert np.array_equal(table.grad, [[0, 0], [3, 3], [0, 0]])


def test_embedding_backward_matches_row_wise_add_at_bit_for_bit():
    rng = np.random.default_rng(0)
    table = Parameter(rng.normal(size=(7, 5)).astype(np.float32), name="emb")
    ids = rng.integers(0, 7, size=(6, 9))
    weights = rng.normal(size=(6, 9, 5)).astype(np.float32)
    tp.tsum(tp.mul(tp.embedding(table, ids), weights)).backward()
    want = np.zeros_like(table.data)
    np.add.at(want, ids.reshape(-1), weights.reshape(-1, 5))
    assert table.grad.dtype == np.float32
    assert table.grad.tobytes() == want.tobytes()


def test_dropout_eval_mode_is_identity_and_train_scales(float64_mode):
    x = Tensor(np.ones((4, 5)), requires_grad=True)
    assert tp.dropout(x, 0.5, None) is x
    out = tp.dropout(x, 0.5, np.random.default_rng(0))
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 2.0)  # inverted scaling 1/keep


def test_backward_requires_scalar():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        t.backward()


def test_backward_requires_a_recorded_pass():
    with pytest.raises(RuntimeError, match="no recorded forward pass"):
        Tensor(np.array(1.0)).backward()


@pytest.mark.parametrize("index", [4, -1])
def test_add_pruned_rejects_an_index_outside_the_parameter(index):
    p = Parameter(np.ones(4), name="w")
    with pytest.raises(IndexError, match="out of range for w"):
        p.add_pruned([0, index])
    assert p.pruned is None and p.data.tolist() == [1.0] * 4


def test_set_default_dtype_validates():
    with pytest.raises(ValueError):
        nm.set_default_dtype(np.int32)


# -- no_grad -------------------------------------------------------------------

def test_no_grad_records_no_parents():
    p = Parameter(np.ones((2, 3)), name="p")
    x = Tensor(np.full((3, 2), 0.5))
    with nm.no_grad():
        out = tp.tanh(tp.add(tp.matmul(p, x), 1.0))
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    assert p.requires_grad and not p.frozen
    taped = tp.tanh(tp.add(tp.matmul(p, x), 1.0))
    assert taped.requires_grad and taped._parents
    assert np.array_equal(out.data, taped.data)


def test_no_grad_restores_state_after_exception_and_nests():
    p = Parameter(np.ones(2), name="p")
    q = Parameter(np.ones(2), name="q")
    q.frozen = True
    with pytest.raises(RuntimeError):
        with nm.no_grad():
            with nm.no_grad():
                pass
            assert not tp.add(p, 2.0).requires_grad
            raise RuntimeError("boom")
    assert tp.add(p, 2.0).requires_grad
    assert not p.frozen and q.frozen


# -- gradient ownership -----------------------------------------------------------

def test_add_gives_each_operand_its_own_gradient():
    a = Parameter(np.zeros((2, 3)), name="a")
    b = Parameter(np.zeros((2, 3)), name="b")
    out = tp.add(a, b)
    tp.tsum(out).backward()
    a.grad *= 5.0
    assert np.array_equal(b.grad, np.ones((2, 3)))
    assert np.array_equal(out.grad, np.ones((2, 3)))


def test_x_plus_x_sums_both_paths_and_leaves_the_sum_node_alone():
    x = Parameter(np.zeros(4), name="x")
    out = tp.add(x, x)
    tp.tsum(out).backward()
    assert np.array_equal(x.grad, [2.0] * 4)
    x.grad *= 3.0
    assert np.array_equal(out.grad, [1.0] * 4)


def test_clip_scales_two_parameters_fed_by_one_add_exactly_once():
    a = Parameter(np.zeros(8), name="a")
    b = Parameter(np.zeros(8), name="b")
    tp.tsum(tp.add(a, b)).backward()                 # each grad is 8 ones: norm 4
    scale = clip_grad_norm([a, b], 1.0)
    assert scale == 0.25
    assert np.array_equal(a.grad, [0.25] * 8)
    assert np.array_equal(b.grad, [0.25] * 8)


def test_no_gradient_is_a_view_of_another_nodes_gradient():
    a = Parameter(np.zeros((2, 3)), name="a")
    b = Parameter(np.zeros(4), name="b")
    flat = tp.reshape(a, (6,))
    joined = tp.concat([flat, b], axis=0)
    tp.tsum(joined).backward()
    assert np.array_equal(a.grad, np.ones((2, 3))) and np.array_equal(b.grad, np.ones(4))
    for x, y in ((a, flat), (flat, joined), (b, joined)):
        assert not np.shares_memory(x.grad, y.grad)


# -- bytes the training step's memory layout relies on ----------------------------

@pytest.mark.parametrize("N,H", [(7, 4), (100, 64), (749, 512), (1000, 300)])
@pytest.mark.parametrize("cell", sorted(nm.CELLS))
def test_w_h_gradient_from_its_two_column_blocks_is_the_full_product(cell, N, H):
    # both backprop-through-time loops keep d(h @ W_h) only where it differs
    # from d xp; the kernel's own dhn sets that width
    kind = nm.CELLS[cell]
    G = kind.gates * H
    rng = np.random.default_rng(N + H)
    state = [rng.standard_normal((N, H)).astype(np.float32) for _ in range(kind.states)]
    W_h = (rng.standard_normal((H, G)) / np.sqrt(H)).astype(np.float32)
    _, cache = kind.forward(rng.standard_normal((N, G)).astype(np.float32), state, W_h)
    _, dhn, _ = kind.backward(state, cache, W_h)
    own = G - dhn.shape[1]
    h_in, dHH = (rng.standard_normal(s).astype(np.float32) for s in ((N, H), (N, G)))
    dXP = dHH.copy()
    dXP[:, own:] = rng.standard_normal((N, G - own))
    split = nm._w_h_grad(h_in, dXP, dHH[:, own:].copy())
    assert split.tobytes() == (h_in.T @ dHH).tobytes()


@pytest.mark.parametrize("B,T,E,G", [(7, 1, 32, 192), (20, 6, 32, 192), (100, 8, 32, 192),
                                     (40, 30, 300, 1536), (10, 100, 300, 1536)])
def test_projecting_rows_longest_first_equals_reordering_the_projection(B, T, E, G):
    # the encoder sorts its E-wide embedded rows, not each direction's projection
    rng = np.random.default_rng(B * T)
    flat = rng.standard_normal((B * T, E)).astype(np.float32)
    W = rng.standard_normal((E, G)).astype(np.float32)
    b = rng.standard_normal(G).astype(np.float32)
    order = rng.permutation(B)
    rows = nm._take(flat.reshape(B, T, E), order).reshape(B * T, E)
    want = nm._take((flat @ W + b).reshape(B, T, G), order)
    assert (rows @ W + b).reshape(B, T, G).tobytes() == want.tobytes()
