"""Tests for the autodiff substrate: ops, layers, Adam, gradient checks.

Every differentiable piece is verified against central finite differences
computed from the same forward code, with epsilon 1e-4 on 64-bit reals.
"""

import tracemalloc

import numpy as np
import pytest

from defmod.defgen import DefModelConfig, build_char_vocab, init_model
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
from defmod.neural.optim import BLOCK_ENTRIES

from _gradcheck import grad_check
from _reference_ops import (
    getitem,
    lstm_step,
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
    np.testing.assert_allclose(table.grad, np.diag([2.0, 2.0, 1.0]) @ np.ones((3, 3)) * 0 + [[2, 2, 2], [0, 0, 0], [1, 1, 1]])


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
    out = char_cnn_forward(params, [4, 5, 6, 7, 8, 9], pad_id=3)
    assert out.shape == (1, CHAR_FEATURE_DIM)
    assert CHAR_FEATURE_DIM == 160


def test_char_cnn_pads_short_words():
    params = char_cnn_params(np.random.default_rng(13), char_vocab_size=10)
    out = char_cnn_forward(params, [5], pad_id=3)
    assert out.shape == (1, 160)
    assert np.all(np.isfinite(out.data))


def test_char_cnn_rejects_empty():
    params = char_cnn_params(np.random.default_rng(14), char_vocab_size=10)
    with pytest.raises(ShapeError):
        char_cnn_forward(params, [], pad_id=3)


def test_char_cnn_grad_check():
    rng = np.random.default_rng(15)
    params = char_cnn_params(rng, char_vocab_size=8)
    ids = [4, 6, 5, 7]
    weights = rng.normal(size=(1, 160))

    def loss():
        return (char_cnn_forward(params, ids, pad_id=3) * weights).sum()

    assert grad_check(loss, params, epsilon=1e-4) < 1e-3


def test_char_cnn_rejects_non_finite_embedding():
    params = char_cnn_params(np.random.default_rng(16), char_vocab_size=10)
    params["char_emb"].data[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        char_cnn_forward(params, [4, 5, 6], pad_id=3)


def test_char_cnn_rejects_overflowing_scores():
    # tanh maps an infinite score to 1.0, so the scores must be checked first.
    params = char_cnn_params(np.random.default_rng(17), char_vocab_size=10)
    params["char_emb"].data[:] = 1.0
    params["K2"].data[:] = 1e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        char_cnn_forward(params, [4, 5, 6], pad_id=3)


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
    for forward in (lambda: char_cnn_forward(params, ids, pad_id=3),
                    lambda: _char_cnn_by_nodes(params, ids)):
        for p in params.values():
            p.zero_grad()
        out = forward()
        (out * weights).sum().backward()
        results.append((out.data, {name: p.grad for name, p in params.items()}))
    (fused, fused_grads), (nodes, node_grads) = results
    np.testing.assert_array_equal(fused, nodes)
    for name in params:
        np.testing.assert_array_equal(fused_grads[name], node_grads[name])


def test_adam_zero_grads_no_change():
    params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    state = init_adam(params, lr=0.001)
    before = params["w"].data.copy()
    adam_step(params, {"w": np.zeros(2)}, state)
    np.testing.assert_allclose(params["w"].data, before)
    assert state.step == 1


def test_adam_step_counter():
    params = {"w": Tensor(np.zeros(1), requires_grad=True)}
    state = init_adam(params)
    for expected in (1, 2, 3):
        adam_step(params, {"w": np.ones(1)}, state)
        assert state.step == expected


def test_adam_shape_mismatch():
    params = {"w": Tensor(np.zeros(2), requires_grad=True)}
    state = init_adam(params)
    with pytest.raises(ShapeError):
        adam_step(params, {"w": np.zeros(3)}, state)


def test_adam_minimizes_quadratic():
    """Oracle: a scripted textbook Adam run on f(x)=x^2 from x=5 at lr 0.001
    first reaches |x| < 0.1 at step 7430 (decaying gradients keep the slow
    second-moment average large, so progress is slower than lr per step).
    """
    params = {"x": Tensor(np.array([5.0]), requires_grad=True)}
    state = init_adam(params, lr=0.001)
    first_hit = None
    for step in range(1, 8001):
        grad = 2.0 * params["x"].data
        adam_step(params, {"x": grad}, state)
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
    correct1 = 1.0 - state.beta1 ** state.step
    correct2 = 1.0 - state.beta2 ** state.step
    for name, g in grads.items():
        p = params[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.epsilon)


def test_adam_matches_whole_array_update_bit_for_bit():
    rng = np.random.default_rng(21)
    shapes = {
        "wide_rows": (3, BLOCK_ENTRIES + 5),      # one row is more than a block
        "flat": (2 * BLOCK_ENTRIES + 17,),
        "matrix": (1001, 33),                     # 33 does not divide the block
        "fortran": (40, 900),
        "scalar": (),
        "single": (1,),
    }
    data = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    data["fortran"] = np.asfortranarray(data["fortran"])
    data["matrix"][5] = -0.0
    grad_steps = []
    for step in range(3):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        if step > 0:
            grads["matrix"][10:20] = 0.0          # rows with no gradient still move
        grads["matrix"][30, ::2] = -0.0
        grads["flat"][:100] = -0.0
        grads["single"][0] = -0.0
        grad_steps.append(grads)
    results = []
    for step_fn in (adam_step, _reference_adam_step):
        params = {name: Tensor(arr.copy(order="K"), requires_grad=True)
                  for name, arr in data.items()}
        state = init_adam(params, lr=0.01)
        for grads in grad_steps:
            step_fn(params, {k: g.copy() for k, g in grads.items()}, state)
        results.append((params, state))
    (blocked, b_state), (whole, w_state) = results
    assert b_state.step == w_state.step == 3
    for name in shapes:
        assert blocked[name].data.tobytes() == whole[name].data.tobytes(), name
        assert b_state.first_moment[name].tobytes() == w_state.first_moment[name].tobytes()
        assert b_state.second_moment[name].tobytes() == w_state.second_moment[name].tobytes()
    # The rows with no gradient in the last step moved: dense Adam, not lazy.
    previous = {name: Tensor(arr.copy(order="K"), requires_grad=True) for name, arr in data.items()}
    state = init_adam(previous, lr=0.01)
    for grads in grad_steps[:2]:
        adam_step(previous, {k: g.copy() for k, g in grads.items()}, state)
    assert (blocked["matrix"].data[10:20] != previous["matrix"].data[10:20]).all()
    assert blocked["fortran"].data.flags.f_contiguous


def test_adam_allocates_no_parameter_sized_temporaries():
    n = 1_000_000
    rng = np.random.default_rng(22)
    params = {"w": Tensor(rng.normal(size=(n // 500, 500)), requires_grad=True)}
    grads = {"w": rng.normal(size=(n // 500, 500))}
    state = init_adam(params)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        adam_step(params, grads, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < params["w"].data.nbytes / 8


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
