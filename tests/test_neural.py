"""Tests for the autodiff substrate: ops, layers, Adam, gradient checks.

Every differentiable piece is verified against central finite differences
computed from the same forward code, with epsilon 1e-4 on 64-bit reals.
"""

import tracemalloc

import numpy as np
import pytest

from defmod.defgen import DefModelConfig, batch_nll, build_char_vocab, init_model
from defmod.errors import ConfigError, ShapeError
from defmod.neural import (
    CHAR_EMBEDDING_DIM,
    CHAR_FEATURE_DIM,
    CNN_KERNELS,
    AdamState,
    Tensor,
    adam_step,
    char_cnn_forward,
    clip_global_norm,
    concat,
    gather,
    init_adam,
    lstm_layer,
    softmax,
    softmax_cross_entropy,
    uniform_init,
)
from defmod.matcher import SenseDefPair
from defmod.neural.optim import BETA1, BETA2, BLOCK_ENTRIES, EPSILON, flat_buffer, flat_views
from defmod.neural.tensor import RowGrad, add_at_rows
from defmod.textprep import Vocabulary

from _gradcheck import dense_grad, grad_check
from _reference_ops import (
    char_cnn_pool_argmax,
    getitem,
    lstm_step,
    ref_char_cnn_forward,
    ref_softmax_cross_entropy,
    reshape,
    sigmoid,
    tanh,
    tensor_max,
)


def cross_entropy_on_logits(logits, targets) -> Tensor:
    """The fused op over given logits: an identity W and a zero b reproduce them exactly."""
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    width = logits.shape[-1]
    return softmax_cross_entropy(logits, Tensor(np.eye(width)), Tensor(np.zeros(width)), targets)


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, np.inf])
    with pytest.raises(ValueError):
        Tensor([np.nan])


def test_backward_requires_scalar():
    t = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        t.backward()


def test_add_mul_grads():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    y = Tensor([4.0, 5.0, 6.0], requires_grad=True)
    (x * y + x).sum().backward()
    np.testing.assert_allclose(x.grad, [5.0, 6.0, 7.0])
    np.testing.assert_allclose(y.grad, [1.0, 2.0, 3.0])


def test_broadcast_add_grad():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    (x + b).sum().backward()
    np.testing.assert_allclose(b.grad, [3.0, 3.0])


def test_matmul_grad_matches_analytic():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    (a @ b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))


def test_matmul_rejects_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_getitem_grad_and_restriction():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    getitem(x, (slice(1, None), slice(2, None))).sum().backward()
    want = np.zeros((3, 4))
    want[1:, 2:] = 1.0
    np.testing.assert_allclose(x.grad, want)
    with pytest.raises(TypeError):
        getitem(x, [0, 1])


def test_gather_accumulates_repeats():
    table = Tensor(np.eye(3), requires_grad=True)
    gather(table, [0, 0, 2]).sum().backward()
    np.testing.assert_allclose(dense_grad(table), np.diag([2.0, 2.0, 1.0]) @ np.ones((3, 3)) * 0 + [[2, 2, 2], [0, 0, 0], [1, 1, 1]])

    # The row form densifies to a zero-fill plus np.add.at, byte for byte.
    rng = np.random.default_rng(29)
    ids = np.array([4, 1, 4, 6, 1, 4, 2])
    upstream = rng.normal(size=(len(ids), 5)) * 10.0 ** rng.integers(-8, 8, size=(len(ids), 1))
    upstream[3] = -0.0                      # row 6 gets only -0.0
    upstream[1, ::2] = -0.0
    table = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    (gather(table, ids) * Tensor(upstream)).sum().backward()
    assert isinstance(table.grad, RowGrad)
    want = np.zeros((8, 5))
    np.add.at(want, ids, upstream)
    assert dense_grad(table).tobytes() == want.tobytes()

    # A leaf that `@` reaches as well keeps the dense scatter-add.
    def dense_gather(t, rows):
        out = Tensor(t.data[rows], parents=(t,))

        def backward(g):
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            np.add.at(t.grad, rows, g)

        out._backward = backward
        return out

    x = rng.normal(size=(2, 8))
    results = []
    for op in (gather, dense_gather):
        shared = Tensor(table.data, requires_grad=True)
        loss = (op(shared, ids) * Tensor(upstream)).sum() + ((Tensor(x) @ shared) * Tensor(x @ table.data)).sum()
        loss.backward()
        results.append(shared.grad)
    assert isinstance(results[0], np.ndarray)
    assert results[0].tobytes() == results[1].tobytes()


def test_concat_grad_splits():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * np.arange(5.0)).sum().backward()
    np.testing.assert_allclose(a.grad, [[0, 1], [0, 1]])
    np.testing.assert_allclose(b.grad, [[2, 3, 4], [2, 3, 4]])


def test_max_grad_routes_to_first_argmax():
    x = Tensor([[1.0, 3.0, 3.0], [5.0, 2.0, 1.0]], requires_grad=True)
    tensor_max(x, axis=1).sum().backward()
    np.testing.assert_allclose(x.grad, [[0, 1, 0], [1, 0, 0]])


def test_shared_node_grad_accumulates():
    x = Tensor([2.0], requires_grad=True)
    y = x * x
    (y + y).sum().backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_forward_is_pure():
    x = Tensor(np.linspace(-1, 1, 7))
    first = tanh(x).data.copy()
    second = tanh(x).data.copy()
    assert np.array_equal(first, second)


def test_softmax_uniform_and_sum():
    p = softmax(np.zeros(5))
    np.testing.assert_allclose(p, np.full(5, 0.2))
    rng = np.random.default_rng(1)
    for _ in range(50):
        logits = rng.normal(size=rng.integers(2, 20)) * 10
        p = softmax(logits, temperature=float(rng.uniform(0.05, 3.0)))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.argmax(p) == np.argmax(logits)


def test_softmax_matches_out_of_place_formula_bit_for_bit():
    """The in-place softmax takes the formula's operations in the same order."""
    rng = np.random.default_rng(4)
    for shape in ((7,), (1, 300), (3, 300), (5, 17)):
        logits = rng.normal(size=shape) * 10
        before = logits.copy()
        for temperature in (0.1, 1.0, 2.5):
            scaled = logits / temperature
            scaled = scaled - scaled.max(axis=-1, keepdims=True)
            exp = np.exp(scaled)
            expected = exp / exp.sum(axis=-1, keepdims=True)
            assert softmax(logits, temperature).tobytes() == expected.tobytes()
        assert logits.tobytes() == before.tobytes()


def test_softmax_temperature_sharpens():
    hot = softmax(np.array([2.0, 1.0]), temperature=0.1)
    warm = softmax(np.array([2.0, 1.0]), temperature=1.0)
    assert hot[0] > warm[0]


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        softmax(np.zeros(3), temperature=0.0)
    with pytest.raises(ConfigError):
        softmax(np.zeros(3), temperature=-1.0)


def test_cross_entropy_is_negative_log_prob():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(6, 9))
    targets = rng.integers(0, 9, size=6)
    losses = cross_entropy_on_logits(logits, targets)
    probs = softmax(logits)
    np.testing.assert_allclose(losses.data, -np.log(probs[np.arange(6), targets]), atol=1e-12)
    assert (losses.data >= 0).all()


def test_cross_entropy_zero_iff_certain():
    logits = Tensor(np.array([[50.0, -50.0, -50.0]]))
    loss = cross_entropy_on_logits(logits, [0]).data[0]
    assert loss < 1e-9


def test_cross_entropy_shape_errors():
    with pytest.raises(ShapeError):
        cross_entropy_on_logits(Tensor(np.zeros(4)), [0])
    with pytest.raises(ShapeError):
        cross_entropy_on_logits(Tensor(np.zeros((2, 4))), [0, 1, 2])
    hidden, bias = Tensor(np.zeros((2, 3))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError):
        softmax_cross_entropy(hidden, Tensor(np.zeros((2, 4))), bias, [0, 1])
    with pytest.raises(ShapeError):
        softmax_cross_entropy(hidden, Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)), [0, 1])


def test_grad_check_affine():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = np.arange(1.0, 5.0).reshape(1, 4)
    err = grad_check(lambda: (Tensor(x) @ w).sum(), [w])
    assert err < 1e-8


def test_grad_check_tanh_at_zero():
    x = Tensor(np.zeros(3), requires_grad=True)
    err = grad_check(lambda: tanh(x).sum(), [x])
    assert err < 1e-7


def test_grad_check_sigmoid():
    x = Tensor(np.linspace(-2, 2, 5), requires_grad=True)
    err = grad_check(lambda: sigmoid(x).sum(), [x])
    assert err < 1e-6


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    targets = rng.integers(0, 7, size=5)
    err = grad_check(lambda: cross_entropy_on_logits(logits, targets).sum(), [logits])
    assert err < 1e-5


def test_grad_check_max_and_concat():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    err = grad_check(lambda: tensor_max(concat([a, b], axis=1), axis=0).sum(), [a, b])
    assert err < 1e-6


def _lstm_chain(step, params, inputs, h0, c0, layers=2):
    """Stacked layers over every input: each step's top h, and every layer's final (h, c)."""
    state = [(h0, c0)] * layers
    tops = []
    for x in inputs:
        for layer in range(layers):
            state[layer] = step(x, *state[layer], params[f"Wx{layer}"], params[f"Wh{layer}"],
                                params[f"b{layer}"])
            x = state[layer][0]
        tops.append(x)
    return tops, state


def lstm_params(rng, input_dim, hidden, layers):
    """Stacked-LSTM weights and biases, every entry drawn uniformly."""
    shapes = {}
    for layer in range(layers):
        shapes[f"Wx{layer}"] = (input_dim if layer == 0 else hidden, 4 * hidden)
        shapes[f"Wh{layer}"] = (hidden, 4 * hidden)
        shapes[f"b{layer}"] = (4 * hidden,)
    return {name: uniform_init(rng, shape) for name, shape in shapes.items()}


def char_cnn_params(rng, char_vocab_size):
    """Character table, kernels and kernel biases, every entry drawn uniformly."""
    shapes = {"char_emb": (char_vocab_size, CHAR_EMBEDDING_DIM)}
    for length, size in CNN_KERNELS:
        shapes[f"K{length}"] = (length * CHAR_EMBEDDING_DIM, size)
        shapes[f"Kb{length}"] = (size,)
    return {name: uniform_init(rng, shape) for name, shape in shapes.items()}


def _zeros(batch, hidden):
    zero = Tensor(np.zeros((batch, hidden)))
    return zero, zero


def test_lstm_zero_params_zero_outputs():
    params = lstm_params(np.random.default_rng(7), input_dim=3, hidden=4, layers=2)
    for p in params.values():
        p.data[:] = 0.0
    inputs = [Tensor(np.ones((2, 3))) for _ in range(5)]
    outputs, state = _lstm_chain(lstm_step, params, inputs, *_zeros(2, 4))
    assert len(outputs) == 5
    for h in outputs:
        np.testing.assert_allclose(h.data, 0.0)
    for h, c in state:
        np.testing.assert_allclose(h.data, 0.0)
        np.testing.assert_allclose(c.data, 0.0)


def test_lstm_output_length_matches_input():
    params = lstm_params(np.random.default_rng(8), input_dim=2, hidden=3, layers=2)
    for steps in (1, 4, 9):
        outputs, _ = _lstm_chain(lstm_step, params, [Tensor(np.ones((1, 2)))] * steps,
                                 *_zeros(1, 3))
        assert len(outputs) == steps
        assert outputs[0].shape == (1, 3)


def test_lstm_forget_bias_is_one():
    vocab = build_char_vocab(["abcde"])
    model = init_model(DefModelConfig(vocab, vocab, condition_dim=2, hidden=3, layers=2,
                                      token_embedding_dim=1, seed=9))
    for layer in (0, 1):
        b = model.params[f"b{layer}"].data
        np.testing.assert_allclose(b[3:6], 1.0)
        np.testing.assert_allclose(np.delete(b, np.s_[3:6]), 0.0)


def test_lstm_rejects_bad_input_dim():
    params = lstm_params(np.random.default_rng(10), input_dim=3, hidden=4, layers=1)
    with pytest.raises(ShapeError):
        _lstm_chain(lstm_step, params, [Tensor(np.ones((1, 5)))], *_zeros(1, 4), layers=1)
    with pytest.raises(ShapeError, match="does not match"):
        lstm_layer(Tensor(np.ones((4, 5))), params["Wx0"], params["Wh0"], params["b0"], 2)
    with pytest.raises(ShapeError, match="steps"):
        lstm_layer(Tensor(np.ones((5, 3))), params["Wx0"], params["Wh0"], params["b0"], 2)


def test_lstm_grad_check_two_layers():
    """Full stacked-LSTM gradient vs central differences, epsilon 1e-4."""
    rng = np.random.default_rng(11)
    params = lstm_params(rng, input_dim=3, hidden=4, layers=2)
    inputs = [Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
    weights = np.arange(8.0).reshape(2, 4)

    def loss():
        outputs, _ = _lstm_chain(lstm_step, params, inputs, *_zeros(2, 4))
        return (concat(outputs, axis=0) * np.tile(weights, (3, 1))).sum()

    assert grad_check(loss, params, epsilon=1e-4) < 1e-3


def _lstm_step_by_nodes(x, h, c, Wx, Wh, b):
    """The LSTM cell built from one graph node per slice, sigmoid, tanh and mul."""
    hidden = Wh.shape[0]
    gates = x @ Wx + h @ Wh + b
    i = sigmoid(getitem(gates, (slice(None), slice(0 * hidden, 1 * hidden))))
    f = sigmoid(getitem(gates, (slice(None), slice(1 * hidden, 2 * hidden))))
    g = tanh(getitem(gates, (slice(None), slice(2 * hidden, 3 * hidden))))
    o = sigmoid(getitem(gates, (slice(None), slice(3 * hidden, 4 * hidden))))
    c_new = f * c + i * g
    return o * tanh(c_new), c_new


def _lstm_chain_loss(step, params, inputs, h0, c0, weights):
    """Two stacked layers over every input; the loss reads every h and the final c."""
    tops, state = _lstm_chain(step, params, inputs, h0, c0)
    loss = (concat(tops, axis=0) * weights).sum()
    for _h, c in state:
        loss = loss + (c * weights[:c.shape[0]]).sum()
    return loss


def test_lstm_step_matches_node_graph_bit_for_bit():
    rng = np.random.default_rng(19)
    params = lstm_params(rng, input_dim=3, hidden=4, layers=2)
    inputs = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
    h0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    weights = rng.normal(size=(8, 4))
    leaves = {**params, "h0": h0, "c0": c0, **{f"x{t}": x for t, x in enumerate(inputs)}}
    results = []
    for step in (lstm_step, _lstm_step_by_nodes):
        for p in leaves.values():
            p.zero_grad()
        loss = _lstm_chain_loss(step, params, inputs, h0, c0, weights)
        loss.backward()
        results.append((loss.data, {name: p.grad for name, p in leaves.items()}))
    (fused, fused_grads), (nodes, node_grads) = results
    np.testing.assert_array_equal(fused, nodes)
    for name in leaves:
        np.testing.assert_array_equal(fused_grads[name], node_grads[name])


def test_lstm_step_rejects_overflowing_gates():
    # sigmoid and tanh map an infinite gate to a finite value, so the gates
    # must be checked first.
    params = lstm_params(np.random.default_rng(21), input_dim=3, hidden=4, layers=1)
    params["Wx0"].data[:, 0] = 1e308
    x = Tensor(np.ones((1, 3)))
    zero = Tensor(np.zeros((1, 4)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        lstm_step(x, zero, zero, params["Wx0"], params["Wh0"], params["b0"])


def test_lstm_step_grad_check_two_steps():
    rng = np.random.default_rng(22)
    params = lstm_params(rng, input_dim=3, hidden=4, layers=1)
    xs = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(2)]
    h0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    weights = rng.normal(size=(2, 4))

    def loss():
        h, c = h0, c0
        for x in xs:
            h, c = lstm_step(x, h, c, params["Wx0"], params["Wh0"], params["b0"])
        return (h * weights).sum() + (c * c).sum()

    leaves = {**params, "h0": h0, "c0": c0, "x0": xs[0], "x1": xs[1]}
    assert grad_check(loss, leaves, epsilon=1e-4) < 1e-3


def _layer_stack(params, X, steps, layers=2):
    for layer in range(layers):
        X = lstm_layer(X, params[f"Wx{layer}"], params[f"Wh{layer}"], params[f"b{layer}"], steps)
    return X


@pytest.mark.parametrize("steps", [1, 5])
def test_lstm_layer_matches_oracle_step_chain(steps):
    """Top outputs and every gradient of two stacked layers agree with a
    chain of two-node oracle steps from a zero state to 1e-12 relative;
    only the grouping of the GEMMs differs."""
    rng = np.random.default_rng(31)
    batch, hidden = 3, 4
    params = lstm_params(rng, input_dim=3, hidden=hidden, layers=2)
    xs = [Tensor(rng.normal(size=(batch, 3)), requires_grad=True) for _ in range(steps)]
    weights = rng.normal(size=(steps * batch, hidden))
    leaves = {**params, **{f"x{t}": x for t, x in enumerate(xs)}}
    results = []
    for by_layer in (True, False):
        for p in leaves.values():
            p.zero_grad()
        if by_layer:
            top = _layer_stack(params, concat(xs, axis=0), steps)
        else:
            tops, _ = _lstm_chain(lstm_step, params, xs, *_zeros(batch, hidden))
            top = concat(tops, axis=0)
        (top * weights).sum().backward()
        results.append((top.data, {name: p.grad for name, p in leaves.items()}))
    (out, grads), (ref_out, ref_grads) = results
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12 * np.abs(ref_out).max())
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-12 * np.abs(ref).max(),
                                   err_msg=name)


def test_lstm_layer_grad_check_two_layers_three_steps():
    rng = np.random.default_rng(32)
    params = lstm_params(rng, input_dim=3, hidden=4, layers=2)
    X = Tensor(rng.normal(size=(3 * 2, 3)), requires_grad=True)
    weights = rng.normal(size=(3 * 2, 4))

    def loss():
        return (_layer_stack(params, X, steps=3) * weights).sum()

    assert grad_check(loss, {**params, "X": X}, epsilon=1e-4) < 1e-3


@pytest.mark.parametrize("step", [0, 1, 2, "recurrent"])
def test_lstm_layer_rejects_overflowing_gates_at_any_step(step):
    # sigmoid and tanh map an infinite gate to a finite value, so every
    # step's gates must be checked first.
    params = lstm_params(np.random.default_rng(21), input_dim=3, hidden=4, layers=1)
    X = np.zeros((3 * 2, 3))
    if step == "recurrent":
        # Saturated gates give h = tanh(1) per unit at step 0; step 1's
        # h @ Wh then overflows.
        params["b0"].data[:] = 10.0
        params["Wh0"].data[:, 0] = 1e308
    else:
        params["Wx0"].data[:, 0] = 1e308
        X[2 * step:2 * step + 2] = 1.0
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        lstm_layer(Tensor(X), params["Wx0"], params["Wh0"], params["b0"], 3)


def test_char_cnn_output_dim():
    params = char_cnn_params(np.random.default_rng(12), char_vocab_size=10)
    out = char_cnn_forward(params, [[4, 5, 6, 7, 8, 9]], pad_id=3)
    assert out.shape == (1, CHAR_FEATURE_DIM)
    assert CHAR_FEATURE_DIM == 160


def test_char_cnn_pads_short_words():
    params = char_cnn_params(np.random.default_rng(13), char_vocab_size=10)
    out = char_cnn_forward(params, [[5]], pad_id=3)
    assert out.shape == (1, 160)
    assert np.all(np.isfinite(out.data))


def test_char_cnn_rejects_empty():
    params = char_cnn_params(np.random.default_rng(14), char_vocab_size=10)
    with pytest.raises(ShapeError):
        char_cnn_forward(params, [[]], pad_id=3)
    with pytest.raises(ShapeError):
        char_cnn_forward(params, [[4, 5], []], pad_id=3)
    with pytest.raises(ShapeError):
        char_cnn_forward(params, [], pad_id=3)


def test_char_cnn_grad_check():
    rng = np.random.default_rng(15)
    params = char_cnn_params(rng, char_vocab_size=8)
    ids = [4, 6, 5, 7]
    weights = rng.normal(size=(1, 160))

    def loss():
        return (char_cnn_forward(params, [ids], pad_id=3) * weights).sum()

    assert grad_check(loss, params, epsilon=1e-4) < 1e-3


def test_char_cnn_rejects_non_finite_embedding():
    params = char_cnn_params(np.random.default_rng(16), char_vocab_size=10)
    params["char_emb"].data[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        char_cnn_forward(params, [[4, 5, 6]], pad_id=3)


def test_char_cnn_rejects_overflowing_scores():
    # tanh maps an infinite score to 1.0, so the scores must be checked first.
    params = char_cnn_params(np.random.default_rng(17), char_vocab_size=10)
    params["char_emb"].data[:] = 1.0
    params["K2"].data[:] = 1e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        char_cnn_forward(params, [[4, 5, 6]], pad_id=3)


def _char_cnn_by_nodes(params, ids):
    """The char-CNN built from one graph node per slice, concat and max."""
    emb = gather(params["char_emb"], ids)
    pooled = []
    for length, _ in CNN_KERNELS:
        positions = len(ids) - length + 1
        windows = concat([getitem(emb, slice(offset, offset + positions))
                          for offset in range(length)], axis=1)
        pooled.append(tensor_max(windows @ params[f"K{length}"] + params[f"Kb{length}"], axis=0))
    return reshape(tanh(concat(pooled, axis=0)), 1, CHAR_FEATURE_DIM)


@pytest.mark.parametrize("ids", [[5, 3, 3, 3, 3, 3], [4, 6, 5, 7, 4, 6, 9, 8]])
def test_char_cnn_matches_node_graph_bit_for_bit(ids):
    # The first id list is a one-character word already padded to the
    # longest kernel, since the reference does no padding of its own.
    rng = np.random.default_rng(18)
    params = char_cnn_params(rng, char_vocab_size=10)
    weights = rng.normal(size=(1, CHAR_FEATURE_DIM))
    results = []
    for forward in (lambda: char_cnn_forward(params, [ids], pad_id=3),
                    lambda: _char_cnn_by_nodes(params, ids)):
        for p in params.values():
            p.zero_grad()
        out = forward()
        (out * weights).sum().backward()
        results.append((out.data, {name: dense_grad(p) for name, p in params.items()}))
    (fused, fused_grads), (nodes, node_grads) = results
    np.testing.assert_array_equal(fused, nodes)
    for name in params:
        np.testing.assert_array_equal(fused_grads[name], node_grads[name])


def _char_cnn_results(params, words, weights, batched):
    """Features and every dense parameter gradient of sum(features * weights),
    from one batched node or from the per-word oracle."""
    for p in params.values():
        p.zero_grad()
    if batched:
        out = char_cnn_forward(params, words, pad_id=3)
    else:
        out = concat([ref_char_cnn_forward(params, ids, pad_id=3) for ids in words], axis=0)
    (out * weights).sum().backward()
    return out.data, {name: dense_grad(p) for name, p in params.items()}


# 1, 3, 6 and 9 characters, and a repeated word.
RAGGED_WORDS = [[4, 6, 5, 7, 4, 6, 9, 8, 5], [5], [7, 8, 4], [4, 5, 6, 7, 8, 9], [7, 8, 4]]


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [1, 2, 0, 4, 3], [3, 2]])
def test_char_cnn_batch_matches_per_word_oracle(order):
    rng = np.random.default_rng(30)
    params = char_cnn_params(rng, char_vocab_size=10)
    words = [RAGGED_WORDS[i] for i in order]
    weights = rng.normal(size=(len(words), CHAR_FEATURE_DIM))
    (ref_feats, ref_grads), (feats, grads) = (
        _char_cnn_results(params, words, weights, batched) for batched in (False, True))
    assert feats.shape == (len(words), CHAR_FEATURE_DIM)
    np.testing.assert_allclose(feats, ref_feats, rtol=0, atol=1e-12 * np.abs(ref_feats).max())
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-12 * np.abs(ref).max(),
                                   err_msg=name)
    assert isinstance(params["char_emb"].grad, RowGrad)


@pytest.mark.parametrize("word", [[5], [7, 8, 4], [4, 5, 6, 7, 8, 9], RAGGED_WORDS[0]])
def test_char_cnn_one_word_batch_matches_per_word_oracle_bit_for_bit(word):
    rng = np.random.default_rng(31)
    params = char_cnn_params(rng, char_vocab_size=10)
    weights = rng.normal(size=(1, CHAR_FEATURE_DIM))
    (feats, grads), (ref_feats, ref_grads) = (
        _char_cnn_results(params, [word], weights, batched) for batched in (True, False))
    np.testing.assert_array_equal(feats, ref_feats)
    for name, ref in ref_grads.items():
        np.testing.assert_array_equal(grads[name], ref, err_msg=name)


@pytest.mark.parametrize("seed", [32, 33, 34])
def test_char_cnn_grad_check_on_a_ragged_batch(seed):
    """At seeds 32 and 33 one word's pool of one filter is nearly tied
    between two windows, so +-epsilon on many character embedding entries
    moves its argmax, where the loss has no derivative; `kinks` skips those
    coordinates (72 and 48 of 2,070)."""
    rng = np.random.default_rng(seed)
    params = char_cnn_params(rng, char_vocab_size=10)
    weights = rng.normal(size=(len(RAGGED_WORDS), CHAR_FEATURE_DIM))

    def loss():
        return (char_cnn_forward(params, RAGGED_WORDS, pad_id=3) * weights).sum()

    checked = {name: params[name] for name in ("char_emb", "K3", "Kb3", "Kb6")}
    assert grad_check(loss, checked, epsilon=1e-4,
                      kinks=lambda: char_cnn_pool_argmax(params, RAGGED_WORDS, pad_id=3)) < 1e-3


def test_char_cnn_batch_rejects_a_non_finite_word():
    # Only the second word reads the NaN row; the overflow is in one kernel.
    params = char_cnn_params(np.random.default_rng(33), char_vocab_size=10)
    params["char_emb"].data[8] = np.nan
    with pytest.raises(ValueError, match="finite"):
        char_cnn_forward(params, [[4, 5, 6], [7, 8]], pad_id=3)
    params = char_cnn_params(np.random.default_rng(33), char_vocab_size=10)
    params["char_emb"].data[8] = 1.0
    params["K5"].data[:] = 1e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        char_cnn_forward(params, [[4, 5, 6], [7, 8]], pad_id=3)


def test_add_at_rows_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(34)
    ids = np.array([[3, 1, 3], [0, 3, 1]])
    values = rng.normal(size=(4, 2, 3)).transpose(1, 2, 0)  # (2, 3, 4), not C-ordered
    values[0, 1] = -0.0
    for out_order in ("C", "F"):
        fast = np.zeros((4, 4), order=out_order)
        fast[2] = rng.normal(size=4)
        slow = fast.copy(order="K")
        add_at_rows(fast, ids, values)
        np.add.at(slow, ids, values)
        assert fast.tobytes() == slow.tobytes()


def _flat_params(arrays: dict) -> dict:
    """Parameters holding copies of `arrays`, as views of one `flat_views` buffer."""
    views = flat_views({name: np.shape(a) for name, a in arrays.items()}, np.empty)
    for name, a in arrays.items():
        views[name][...] = a
    return {name: Tensor(view, requires_grad=True) for name, view in views.items()}


def _in_views(state, grads: dict) -> dict:
    """`grads` as backward leaves them: each dense one copied into its view
    of the gradient buffer, row-form ones as they are."""
    for name, g in grads.items():
        if not isinstance(g, RowGrad):
            np.copyto(state.gradient[name], g)
    return {name: g if isinstance(g, RowGrad) else state.gradient[name]
            for name, g in grads.items()}


def test_adam_zero_grads_no_change():
    params = _flat_params({"w": np.array([1.0, -2.0])})
    state = init_adam(params, lr=0.001)
    before = params["w"].data.copy()
    adam_step(params, _in_views(state, {"w": np.zeros(2)}), state)
    np.testing.assert_allclose(params["w"].data, before)
    assert state.step == 1


def test_adam_step_counter():
    params = _flat_params({"w": np.zeros(1)})
    state = init_adam(params)
    for expected in (1, 2, 3):
        adam_step(params, _in_views(state, {"w": np.ones(1)}), state)
        assert state.step == expected


def test_adam_shape_mismatch():
    params = _flat_params({"w": np.zeros(2)})
    state = init_adam(params)
    with pytest.raises(ShapeError):
        adam_step(params, {"w": np.zeros(3)}, state)
    table = _flat_params({"t": np.zeros((4, 3))})
    state = init_adam(table)
    for ids, values in (([0, 2], np.ones((2, 2))),    # rows too narrow
                        ([1, 4], np.ones((2, 3))),    # row 4 is past the end
                        ([-1, 2], np.ones((2, 3)))):  # a negative row
        with pytest.raises(ShapeError):
            adam_step(table, {"t": RowGrad(ids, values)}, state)
    assert state.step == 0 and not state.live["t"].any()


def test_adam_minimizes_quadratic():
    """Oracle: a scripted textbook Adam run on f(x)=x^2 from x=5 at lr 0.001
    first reaches |x| < 0.1 at step 7430 (decaying gradients keep the slow
    second-moment average large, so progress is slower than lr per step).
    """
    params = _flat_params({"x": np.array([5.0])})
    state = init_adam(params, lr=0.001)
    first_hit = None
    for step in range(1, 8001):
        grad = 2.0 * params["x"].data
        adam_step(params, _in_views(state, {"x": grad}), state)
        if first_hit is None and abs(params["x"].data[0]) < 0.1:
            first_hit = step
            break
    assert first_hit is not None
    assert 7425 <= first_hit <= 7435


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = clip_global_norm(grads, 5.0)
    assert norm == pytest.approx(5.0)
    assert clipped["a"][0] == pytest.approx(3.0)
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(clipped["a"][0] ** 2 + clipped["b"][0] ** 2)
    assert total == pytest.approx(1.0)
    zero, norm = clip_global_norm({"a": np.zeros(2)}, 1.0)
    assert norm == 0.0


def _reference_adam_step(params, grads, state):
    """The textbook update on whole arrays, as adam_step computed it before blocking."""
    state.step += 1
    correct1 = 1.0 - BETA1 ** state.step
    correct2 = 1.0 - BETA2 ** state.step
    for name, g in grads.items():
        p = params[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + EPSILON)


def test_adam_matches_whole_array_update_bit_for_bit():
    rng = np.random.default_rng(21)
    shapes = {
        "wide_rows": (3, BLOCK_ENTRIES + 5),      # one row is more than a block
        "flat": (2 * BLOCK_ENTRIES + 17,),
        "matrix": (1001, 33),                     # 33 does not divide the block
        "scalar": (),
        "single": (1,),
    }
    # Row-form gradients (ids, values). "sparse": rows 3, 10 and 400 are
    # first live at step 1, 11 and 450 at step 2, 0 and 999 at step 3, so the
    # walk has spans with never-live rows inside (1, 2, 4-9, 401-449) and
    # gaps between them; row 200 is never live. "all_live": step 1 reaches
    # every row, and the two blocks of its one span get rows of steps 2, 3.
    # Row-form gradients come first in buffer order.
    row_shapes = {"sparse": (1000, 7), "all_live": (BLOCK_ENTRIES // 7 + 300, 7)}
    row_ids = [
        {"sparse": [3, 3, 10, 400, 3], "all_live": np.r_[np.arange(row_shapes["all_live"][0]), 5, 5]},
        {"sparse": [10, 11, 3, 450, 11], "all_live": [0, 4900, 4900, 17]},
        {"sparse": [999, 0, 0, 400], "all_live": [4681, 4680]},
    ]
    shapes = {**row_shapes, **shapes}
    data = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    data["matrix"][5] = -0.0
    data["sparse"][[1, 200]] = -0.0
    grad_steps = []
    for step in range(3):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items() if name not in row_shapes}
        if step > 0:
            grads["matrix"][10:20] = 0.0          # rows with no gradient still move
        grads["matrix"][30, ::2] = -0.0
        grads["flat"][:100] = -0.0
        grads["single"][0] = -0.0
        for name, ids in row_ids[step].items():
            values = rng.normal(size=(len(ids), 7))
            values[1] = -0.0                      # a repeated id's -0.0 and a -0.0 row
            values[-1, ::3] = -0.0
            grads[name] = (np.asarray(ids), values)
        grad_steps.append(grads)

    def feed(grads, rows_as):
        return {k: rows_as(k, *g) if k in row_shapes else g.copy() for k, g in grads.items()}

    def as_rows(_name, ids, values):
        return RowGrad(ids, values)

    def densified(name, ids, values):
        dense = np.zeros(row_shapes[name])
        np.add.at(dense, ids, values)
        return dense

    def blocked_step(params, grads, state):
        adam_step(params, _in_views(state, grads), state)

    results = []
    for step_fn, rows_as in ((blocked_step, as_rows), (_reference_adam_step, densified)):
        params = _flat_params(data)
        state = init_adam(params, lr=0.01)
        for grads in grad_steps:
            step_fn(params, feed(grads, rows_as), state)
        results.append((params, state))
    (blocked, b_state), (whole, w_state) = results
    assert b_state.step == w_state.step == 3
    for name in shapes:
        assert blocked[name].data.tobytes() == whole[name].data.tobytes(), name
        assert b_state.first_moment[name].tobytes() == w_state.first_moment[name].tobytes()
        assert b_state.second_moment[name].tobytes() == w_state.second_moment[name].tobytes()
    assert b_state.live["sparse"].sum() == 7 and not b_state.live["sparse"][200]
    assert b_state.live["all_live"].all()
    # The rows with no gradient in the last step moved: dense Adam, not lazy.
    previous = _flat_params(data)
    state = init_adam(previous, lr=0.01)
    for grads in grad_steps[:2]:
        blocked_step(previous, feed(grads, as_rows), state)
    assert (blocked["matrix"].data[10:20] != previous["matrix"].data[10:20]).all()
    assert (blocked["sparse"].data[[3, 10, 450]] != previous["sparse"].data[[3, 10, 450]]).all()
    assert (blocked["all_live"].data[2:4] != previous["all_live"].data[2:4]).all()
    # Parameters that are not views of one buffer have no layout to walk.
    fortran = {"f": Tensor(np.asfortranarray(data["matrix"]), requires_grad=True)}
    with pytest.raises(ShapeError, match="not views of one flat buffer"):
        init_adam(fortran)
    with pytest.raises(ShapeError, match="not views of one flat buffer"):
        init_adam({**_flat_params({"w": np.zeros(3)}), "alone": Tensor(np.zeros(2))})


def test_adam_over_a_flat_buffer_matches_whole_array_update_bit_for_bit():
    """Two row-form tables, then dense parameters that straddle block edges
    (one wider than a block), held as views of one buffer; the update and
    both moments must equal the per-parameter textbook update bit for bit.
    A step in which a dense gradient is missing is refused."""
    rng = np.random.default_rng(26)
    shapes = {"token_emb": (300, 7), "char_emb": (40, 5), "W": (50, 700),
              "b": (700,), "big": (BLOCK_ENTRIES + 1000,), "U": (30, 33), "c": (5,)}
    rows = {"token_emb": [[3, 3, 10, 250], [10, 11, 3], [299, 0, 0]],
            "char_emb": [[1, 2, 2], [39, 1], [5]]}
    views = flat_views(shapes, np.empty)
    for view in views.values():
        view[...] = rng.normal(size=view.shape)
    flat = {name: Tensor(view, requires_grad=True) for name, view in views.items()}
    apart = {name: Tensor(view.copy(), requires_grad=True) for name, view in views.items()}
    flat_state = init_adam(flat, lr=0.01)
    # The reference keeps every array apart: its own moments, no buffer.
    apart_state = AdamState(lr=0.01, first_moment={n: np.zeros(s) for n, s in shapes.items()},
                            second_moment={n: np.zeros(s) for n, s in shapes.items()})
    for step in range(3):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()
                 if name not in rows}
        grads["big"][:100] = -0.0
        row_grads = {name: (ids[step], rng.normal(size=(len(ids[step]), shapes[name][1])))
                     for name, ids in rows.items()}
        adam_step(flat, _in_views(flat_state, {**{name: RowGrad(*g) for name, g in row_grads.items()},
                                               **grads}), flat_state)
        dense_rows = {}
        for name, (ids, values) in row_grads.items():
            dense_rows[name] = np.zeros(shapes[name])
            np.add.at(dense_rows[name], ids, values)
        _reference_adam_step(apart, {**dense_rows, **grads}, apart_state)
        for name in shapes:
            assert flat[name].data.tobytes() == apart[name].data.tobytes(), (step, name)
            for moment in ("first_moment", "second_moment"):
                assert (getattr(flat_state, moment)[name].tobytes()
                        == getattr(apart_state, moment)[name].tobytes()), (step, name, moment)
    assert flat_buffer(flat) is views["token_emb"].base
    assert all(p.data is views[name] for name, p in flat.items())
    before = flat_buffer(flat).copy()
    for missing in ({"b", "U"}, {"W"}):
        grads = {name: RowGrad(ids[0], np.ones((len(ids[0]), shapes[name][1])))
                 for name, ids in rows.items()}
        grads.update({name: flat_state.gradient[name] for name in shapes
                      if name not in rows and name not in missing})
        with pytest.raises(ShapeError, match="needs its dense gradient"):
            adam_step(flat, grads, flat_state)
    assert flat_state.step == 3 and flat_buffer(flat).tobytes() == before.tobytes()


def test_adam_refuses_a_dense_gradient_that_is_missing_or_not_its_view():
    rng = np.random.default_rng(36)
    params = _flat_params({"table": rng.normal(size=(6, 3)), "W": rng.normal(size=(3, 4)),
                           "b": rng.normal(size=4)})
    state = init_adam(params, lr=0.01)
    rows = RowGrad([1, 4], np.ones((2, 3)))
    dense = _in_views(state, {"W": rng.normal(size=(3, 4)), "b": rng.normal(size=4)})
    before = flat_buffer(params).copy()
    for grads in ({"table": rows, "W": dense["W"]},                                 # b missing
                  {"table": rows, **dense, "b": dense["b"].copy()},                 # not its view
                  {"table": rows, "W": dense["W"], "b": RowGrad([0], np.ones(1))},  # rows after dense
                  {"table": state.gradient["table"].copy(), **dense},              # not its view
                  {"table": rows, **dense, "other": np.zeros(1)}):                 # no such parameter
        with pytest.raises(ShapeError):
            adam_step(params, grads, state)
    assert state.step == 0 and flat_buffer(params).tobytes() == before.tobytes()
    assert not any(live.any() for live in state.live.values())
    adam_step(params, {"table": rows, **dense}, state)
    # With every gradient dense, the dense range starts at the first entry.
    adam_step(params, _in_views(state, {"table": np.ones((6, 3)), "W": np.ones((3, 4)),
                                        "b": np.ones(4)}), state)
    assert state.step == 2 and state.live["table"].all()


def test_one_batch_nll_backward_fills_every_dense_view():
    """In every step, each parameter after the two row-form tables gets a
    dense gradient, formed in its view; the tables never write theirs."""
    vocab = Vocabulary({f"w{i}": 1 for i in range(40)})
    model = init_model(DefModelConfig(vocab, build_char_vocab(["abcde"]), condition_dim=4,
                                      hidden=5, layers=2, token_embedding_dim=6, seed=37))
    state = init_adam(model.params)
    pairs = [SenseDefPair("abc", 0, np.ones(4), ("w7", "w19")),
             SenseDefPair("bad", 1, -np.ones(4), ("w3",))]
    names = list(model.params)
    assert names[:2] == ["token_emb", "char_emb"]
    for _ in range(2):
        for view in state.gradient.values():
            view.fill(np.nan)
        for p in model.params.values():
            p.zero_grad()
        loss, _ = batch_nll(model, pairs)
        loss.backward()
        for name in names[:2]:
            assert isinstance(model.params[name].grad, RowGrad), name
            assert np.isnan(state.gradient[name]).all(), name
        for name in names[2:]:
            assert model.params[name].grad is state.gradient[name], name
            assert np.isfinite(state.gradient[name]).all(), name
        adam_step(model.params, {name: p.grad for name, p in model.params.items()}, state)
    assert state.step == 2


def test_cross_entropy_forms_dlogits_in_its_one_buffer_and_backs_off_a_second_backward():
    n, hidden, width = 64, 16, 4096
    h_data, w_data, b_data, targets, _ = _output_layer(29, n, hidden, width)
    h, w, b = (Tensor(a, requires_grad=True) for a in (h_data, w_data, b_data))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss = softmax_cross_entropy(h, w, b, targets).sum()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (N, V) array, W's gradient, the (N, H) and (V,) gradients and a
    # little bookkeeping.
    bound = n * width * 8 + w.data.nbytes + h.data.nbytes + b.data.nbytes + (64 << 10)
    assert peak - base <= bound
    with pytest.raises(RuntimeError, match="backward has run"):
        loss.backward()


def test_weight_gradient_products_are_formed_in_their_views():
    """With the gradient buffer hooked, the loss's W gradient is written by
    its product into W's view: no W-sized array is allocated, and the bits
    are those of the product without `out=`."""
    n, hidden, width = 64, 16, 4096
    h_data, w_data, b_data, targets, _ = _output_layer(38, n, hidden, width)
    params = _flat_params({"W": w_data, "b": b_data})
    state = init_adam(params)
    h = Tensor(h_data, requires_grad=True)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        softmax_cross_entropy(h, params["W"], params["b"], targets).sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert params["W"].grad is state.gradient["W"] and params["b"].grad is state.gradient["b"]
    # One (N, V) array and its finiteness mask, the (N, H) and (V,)
    # gradients and a little bookkeeping; W's gradient would be 512 KiB more.
    assert peak - base <= n * width * 9 + h.data.nbytes + b_data.nbytes + (64 << 10)
    apart = [Tensor(a, requires_grad=True) for a in (h_data, w_data, b_data)]
    softmax_cross_entropy(*apart, targets).sum().backward()
    assert params["W"].grad.tobytes() == apart[1].grad.tobytes()


def test_adam_allocates_no_parameter_sized_temporaries():
    n = 1_000_000
    rng = np.random.default_rng(22)
    params = _flat_params({"w": rng.normal(size=(n // 500, 500))})
    state = init_adam(params)
    grads = _in_views(state, {"w": rng.normal(size=(n // 500, 500))})
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        adam_step(params, grads, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < params["w"].data.nbytes / 8


def test_token_rows_cost_no_table_sized_memory_in_a_training_step():
    vocab = Vocabulary({f"w{i}": 1 for i in range(20_000 - 4)})
    chars = build_char_vocab(["abcde"])
    model = init_model(DefModelConfig(vocab, chars, condition_dim=4, hidden=8, layers=2,
                                      token_embedding_dim=300, seed=30))
    table = model.params["token_emb"].data
    assert table.shape == (20_000, 300)
    pair = SenseDefPair("abc", 0, np.ones(4), ("w7", "w19000"))
    state = init_adam(model.params)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss, _ = batch_nll(model, [pair])
        loss.backward()
        grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
        clip_global_norm(grads, 5.0)
        adam_step(model.params, grads, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < table.nbytes / 8


def test_clip_global_norm_scales_in_place_bit_for_bit():
    rng = np.random.default_rng(23)
    grads = {"a": rng.normal(size=(7, 5)), "b": rng.normal(size=11), "c": np.array([-0.0, 3.0])}
    before = {name: g.copy() for name, g in grads.items()}
    arrays = dict(grads)
    norm_expected = float(np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in before.values())))
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == norm_expected
    scale = 1.0 / norm_expected
    assert clipped is grads
    for name, g in before.items():
        assert clipped[name] is arrays[name]
        assert clipped[name].tobytes() == (g * scale).tobytes()


def test_clip_global_norm_allocates_no_gradient_sized_temporaries():
    rng = np.random.default_rng(24)
    grads = {"w": rng.normal(size=(2000, 500)), "b": rng.normal(size=500)}
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        clip_global_norm(grads, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < grads["w"].nbytes / 8


def test_cross_entropy_matches_dense_softmax_formula_bit_for_bit():
    rng = np.random.default_rng(24)
    logits = rng.normal(size=(6, 9)) * 3.0
    targets = rng.integers(0, 9, size=6)
    weights = rng.uniform(0.1, 2.0, size=6)
    x = Tensor(logits, requires_grad=True)
    losses = cross_entropy_on_logits(x, targets)
    (losses * Tensor(weights)).sum().backward()

    rows = np.arange(6)
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    probs = exp / exp.sum(axis=1, keepdims=True)
    expected_losses = np.log(exp.sum(axis=1)) - shift[rows, targets]
    dlogits = probs.copy()
    dlogits[rows, targets] -= 1.0
    assert losses.data.tobytes() == expected_losses.tobytes()
    assert x.grad.tobytes() == (dlogits * weights[:, None]).tobytes()


def _output_layer(seed, n, hidden, width):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, hidden)), rng.normal(size=(hidden, width)) * 0.5,
            rng.normal(size=width), rng.integers(0, width, size=n), rng.uniform(0.1, 2.0, size=n))


def test_fused_cross_entropy_matches_reference_graph_bit_for_bit():
    h_data, w_data, b_data, targets, weights = _output_layer(26, 7, 5, 11)
    fused = [Tensor(a, requires_grad=True) for a in (h_data, w_data, b_data)]
    losses = softmax_cross_entropy(*fused, targets)
    (losses * Tensor(weights)).sum().backward()

    graph = [Tensor(a, requires_grad=True) for a in (h_data, w_data, b_data)]
    ref_losses = ref_softmax_cross_entropy(graph[0] @ graph[1] + graph[2], targets)
    (ref_losses * Tensor(weights)).sum().backward()

    assert losses.data.tobytes() == ref_losses.data.tobytes()
    for got, want in zip(fused, graph):
        assert got.grad.shape == want.grad.shape
        assert got.grad.tobytes() == want.grad.tobytes()


def test_grad_check_fused_cross_entropy_parameters():
    h_data, w_data, b_data, targets, _ = _output_layer(27, 4, 3, 6)
    h, w, b = (Tensor(a, requires_grad=True) for a in (h_data, w_data, b_data))
    err = grad_check(lambda: softmax_cross_entropy(h, w, b, targets).sum(), [h, w, b])
    assert err < 1e-5


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("hidden, weights", [
    ([[1e200]], [[1e200, 1.0]]),                          # overflows to inf
    ([[1e300, 1e300]], [[1e300, 0.0], [-1e300, 0.0]]),    # inf - inf is nan
])
def test_fused_cross_entropy_rejects_non_finite_logits(hidden, weights):
    with pytest.raises(ValueError, match="finite"):
        softmax_cross_entropy(Tensor(hidden), Tensor(weights), Tensor(np.zeros(2)), [0])


def test_owned_gradient_is_stored_without_a_copy():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    g = np.ones((2, 3))
    t._accumulate(g, owned=True)
    assert t.grad is g
    t._accumulate(np.full((2, 3), 2.0), owned=True)
    assert t.grad is g
    np.testing.assert_array_equal(g, np.full((2, 3), 3.0))
    shared = Tensor(np.zeros((2, 3)), requires_grad=True)
    shared._accumulate(g)
    assert shared.grad is not g and not np.shares_memory(shared.grad, g)


def test_fused_cross_entropy_holds_two_logit_sized_arrays():
    n, hidden, width = 64, 16, 4096
    h_data, w_data, b_data, targets, _ = _output_layer(28, n, hidden, width)
    h, w, b = (Tensor(a, requires_grad=True) for a in (h_data, w_data, b_data))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        softmax_cross_entropy(h, w, b, targets).sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    logits_bytes = n * width * 8
    # Two (N, V) arrays (the exponentials and dlogits) and W's gradient,
    # plus the (N, H) and (V,) gradients and a little bookkeeping.
    bound = 2 * logits_bytes + w.data.nbytes + h.data.nbytes + b.data.nbytes + (64 << 10)
    assert peak - base <= bound


def test_shared_upstream_gradient_is_never_aliased():
    rng = np.random.default_rng(25)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))
    # `+` hands one gradient array to both parents; a then gains a second term.
    loss = ((a + b) * Tensor(w)).sum() + (a * Tensor(v)).sum()
    loss.backward()
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(b.grad, w)
    np.testing.assert_array_equal(a.grad, w + v)


def test_uniform_init_range():
    from defmod.neural import uniform_init

    rng = np.random.default_rng(16)
    t = uniform_init(rng, (50, 50))
    assert t.requires_grad
    assert np.all(np.abs(t.data) <= 0.05)
    assert np.abs(t.data).max() > 0.01
