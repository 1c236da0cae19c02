"""Tests for the conditioned definition language model."""

import functools
import gc
import hashlib
import logging
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defmod.defgen import (
    HYPERPARAMETERS,
    SAMPLE_BLOCK_ROWS,
    DefModel,
    DefModelConfig,
    GenConfig,
    batch_nll,
    build_char_vocab,
    dataset_nll,
    generate_for_word,
    generate_seeded,
    init_model,
    load_checkpoint,
    parameter_shapes,
    sample_definition,
    save_checkpoint,
    save_generated,
    train_defmodel,
    word_char_ids,
    _config_payload,
)
from defmod.embeddings import EmbeddingTable, SenseTable
from defmod.errors import (CheckpointError, ConfigError, MissingWordError, NonFiniteError,
                           ShapeError)
from defmod.matcher import SenseDefPair
from defmod.neural import Tensor, flat_buffer
from defmod.textprep import BOS_ID, EOS_ID, PAD_ID, Vocabulary

from _gradcheck import dense_grad, grad_check
from _reference_ops import ref_batch_nll, ref_sample_definition


def tiny_config(**overrides):
    vocab = Vocabulary({"cat": 5, "dog": 4, "small": 3, "animal": 2, "a": 6})
    char_vocab = build_char_vocab(["cat", "dog"])
    defaults = dict(condition_dim=4, hidden=5, layers=2, token_embedding_dim=6,
                    batch_size=4, max_epochs=3, seed=1)
    defaults.update(overrides)
    return DefModelConfig(vocab, char_vocab, **defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(hidden=0)
    with pytest.raises(ConfigError):
        tiny_config(lr=0.0)
    with pytest.raises(ConfigError):
        DefModelConfig(Vocabulary({}), build_char_vocab(["cat"]), condition_dim=4)


def test_init_char_feature_width():
    model = init_model(tiny_config())
    assert model.params["Wc"].shape[0] == 4 + 160


def test_init_deterministic():
    a = init_model(tiny_config())
    b = init_model(tiny_config())
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_init_parameter_count_closed_form():
    """Hand-computed shape sum for the tiny config.

    vocab 9, chars 10, emb 6, hidden 5, layers 2, condition 4:
    token 9*6; char table 10*20; kernels sum((w*20+1)*c); projection
    (164*6 + 6); lstm (12*20 + 5*20 + 20) + (5*20 + 5*20 + 20); out 5*9 + 9.
    """
    model = init_model(tiny_config())
    kernels = sum((w * 20 + 1) * c for w, c in ((2, 10), (3, 30), (4, 40), (5, 40), (6, 40)))
    expected = 9 * 6 + 10 * 20 + kernels + (164 * 6 + 6) + (240 + 100 + 20) + (100 + 100 + 20) + (45 + 9)
    assert sum(p.size for p in model.params.values()) == expected == 16238


def pair(word, vec, tokens):
    return SenseDefPair(word, 0, np.asarray(vec, dtype=float), tuple(tokens))


def test_sequence_nll_factorizes_over_steps():
    """exp(-T * mean_nll) equals the product of per-step gold probabilities."""
    model = init_model(tiny_config())
    cfg = model.config
    definition = ("a", "small", "animal")
    condition = np.linspace(-0.2, 0.2, 4)
    nll = batch_nll(model, [pair("cat", condition, definition)])[0].item()

    from defmod.defgen import _condition_block
    from defmod.neural import stable_sigmoid as _np_sigmoid

    P = {k: t.data for k, t in model.params.items()}
    cond = _condition_block(model, condition[None, :], ["cat"]).data
    gold = cfg.vocab.ids(definition) + [EOS_ID]
    prev = BOS_ID
    hs = [np.zeros((1, 5)) for _ in range(2)]
    cs = [np.zeros((1, 5)) for _ in range(2)]
    product = 1.0
    for target in gold:
        x = np.concatenate([P["token_emb"][prev][None, :], cond], axis=1)
        for layer in range(2):
            gates = x @ P[f"Wx{layer}"] + hs[layer] @ P[f"Wh{layer}"] + P[f"b{layer}"]
            i = _np_sigmoid(gates[:, 0:5])
            f = _np_sigmoid(gates[:, 5:10])
            g = np.tanh(gates[:, 10:15])
            o = _np_sigmoid(gates[:, 15:20])
            cs[layer] = f * cs[layer] + i * g
            hs[layer] = o * np.tanh(cs[layer])
            x = hs[layer]
        logits = (x @ P["Wo"] + P["bo"])[0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        product *= probs[target]
        prev = target
    np.testing.assert_allclose(np.exp(-len(gold) * nll), product, rtol=1e-9)


def test_sequence_nll_is_order_sensitive():
    model = init_model(tiny_config())
    condition = np.linspace(-0.2, 0.2, 4)
    fwd = batch_nll(model, [pair("cat", condition, ("a", "small", "animal"))])[0].item()
    rev = batch_nll(model, [pair("cat", condition, ("animal", "small", "a"))])[0].item()
    assert fwd != rev


def test_one_pair_nll_rejects_empty_and_truncates_long_definitions():
    model = init_model(tiny_config())
    with pytest.raises(ValueError, match="definition must be nonempty"):
        pair("cat", np.zeros(4), ())
    long_loss, n_tokens = batch_nll(model, [pair("cat", np.zeros(4), ("a",) * 61)])
    cut_loss, _ = batch_nll(model, [pair("cat", np.zeros(4), ("a",) * 60)])
    assert n_tokens == 61  # 60 tokens and EOS
    assert long_loss.item() == cut_loss.item()


def test_gradients_match_finite_differences():
    """Finite-difference check on a 2-token definition.

    Convolution kernels are excluded here; their gradients are checked
    coordinate by coordinate in the convolution layer's own test, and
    re-checking all 14k of them through the full model forward is slow.
    """
    model = init_model(tiny_config(seed=3))
    condition = np.linspace(-0.3, 0.3, 4)
    checked = {name: p for name, p in model.params.items()
               if not name.startswith(("K", "Kb"))}

    def loss():
        return batch_nll(model, [pair("cat", condition, ("small", "dog"))])[0]

    err = grad_check(loss, checked, epsilon=1e-4)
    assert err < 1e-3


def test_batch_matches_single_pair_losses():
    """Padded batched loss equals the token-weighted mean of per-pair losses."""
    model = init_model(tiny_config(seed=5))
    pairs = [
        pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal")),
        pair("dog", [-0.2, 0.1, 0.3, -0.3], ("a", "animal")),
        pair("cat", [0.0, -0.1, 0.2, 0.1], ("dog",)),
    ]
    batched, n_tokens = batch_nll(model, pairs)
    total = 0.0
    count = 0
    for p in pairs:
        t = len(p.definition) + 1
        total += batch_nll(model, [p])[0].item() * t
        count += t
    assert n_tokens == count
    np.testing.assert_allclose(batched.item(), total / count, rtol=1e-12)


def _reachable_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_batch_nll_graph_size_and_char_cnn_calls(monkeypatch):
    """The fused design's exact graph size; one char-CNN node over the distinct headwords."""
    import defmod.defgen as defgen

    calls = []
    original = defgen.char_cnn_forward

    def counting(params, words_char_ids, pad_id):
        calls.append([list(char_ids) for char_ids in words_char_ids])
        return original(params, words_char_ids, pad_id)

    monkeypatch.setattr(defgen, "char_cnn_forward", counting)
    model = init_model(tiny_config())
    pairs = [
        pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal")),
        pair("dog", [-0.2, 0.1, 0.3, -0.3], ("a", "animal")),
        pair("cat", [0.0, -0.1, 0.2, 0.1], ("dog",)),
    ]
    loss, _ = batch_nll(model, pairs)
    chars = model.config.char_vocab
    assert calls == [[word_char_ids("cat", chars), word_char_ids("dog", chars)]]
    leaves = len(model.params) + 2      # plus conditions, 1/n
    condition = 1 + 1 + 3               # char-CNN, gather; concat, @Wc, +bc
    inputs = 3                          # gather tokens, gather condition rows, concat
    lstm = 2                            # one node per layer
    output = 4                          # gather real rows, fused cross-entropy, sum, *1/n
    expected = leaves + condition + inputs + lstm + output
    assert _reachable_nodes(loss) == expected == 38


def test_batch_nll_matches_per_step_oracle_graph():
    """Loss and every parameter gradient of a ragged batch agree with the
    per-step graph (one two-node cell per step and layer, masked mean) to
    1e-12 relative; only the GEMM grouping differs."""
    model = init_model(tiny_config(seed=6))
    pairs = [
        pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal", "dog")),
        pair("dog", [-0.2, 0.1, 0.3, -0.3], ("a",)),
        pair("cat", [0.0, -0.1, 0.2, 0.1], ("dog", "cat")),
    ]
    results = []
    for nll in (batch_nll, ref_batch_nll):
        for p in model.params.values():
            p.zero_grad()
        loss, n_tokens = nll(model, pairs)
        loss.backward()
        results.append((loss.item(), n_tokens, {k: dense_grad(p) for k, p in model.params.items()}))
    (loss, n, grads), (ref_loss, ref_n, ref_grads) = results
    assert n == ref_n == 10
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-12 * np.abs(ref).max(),
                                   err_msg=name)


def overfit_two_senses():
    """Train until two orthogonally conditioned definitions are memorized."""
    vocab = Vocabulary({w: 10 - i for i, w in enumerate(
        ["feline", "pet", "loyal", "friend", "the", "animal"])})
    char_vocab = build_char_vocab(["pw"])
    cfg = DefModelConfig(vocab, char_vocab, condition_dim=4, hidden=24, layers=2,
                         token_embedding_dim=12, batch_size=2, max_epochs=600,
                         patience=600, lr=0.01, seed=7)
    s0 = np.array([1.0, 0.0, 0.0, 0.0])
    s1 = np.array([0.0, 1.0, 0.0, 0.0])
    def_a = ("the", "feline", "pet")
    def_b = ("the", "loyal", "friend")
    pairs = [SenseDefPair("pw", 0, s0, def_a), SenseDefPair("pw", 1, s1, def_b)]
    model, report = train_defmodel(init_model(cfg), pairs)
    return model, report, (s0, def_a), (s1, def_b)


@pytest.fixture(scope="module")
def memorized():
    return overfit_two_senses()


def test_overfit_reaches_low_perplexity(memorized):
    model, report, (s0, def_a), (s1, def_b) = memorized
    pairs = [SenseDefPair("pw", 0, s0, def_a), SenseDefPair("pw", 1, s1, def_b)]
    assert np.exp(dataset_nll(model, pairs)) < 1.5


def test_overfit_sampling_reproduces_memorized(memorized):
    model, _report, (s0, def_a), (s1, def_b) = memorized
    rng = np.random.default_rng(11)
    hits = sum(
        out == def_a
        for out in sample_definition(model, np.tile(s0, (100, 1)), ["pw"] * 100,
                                     GenConfig(temperature=0.1), rng.spawn(100)))
    assert hits >= 95


def test_conditioning_controls_first_token(memorized):
    """Swapping the sense vectors swaps the argmax first-token prediction."""
    model, _report, (s0, def_a), (s1, def_b) = memorized
    first = {}
    outs = sample_definition(model, np.stack([s0, s1]), ["pw", "pw"],
                             GenConfig(temperature=0.01, max_len=5),
                             [np.random.default_rng(0), np.random.default_rng(0)])
    for expected, out in zip((def_a, def_b), outs):
        first[expected] = out[1] if len(out) > 1 else out
    assert first[def_a] != first[def_b]


def test_train_determinism():
    cfg = tiny_config(max_epochs=4)
    pairs = [
        pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal")),
        pair("dog", [-0.2, 0.1, 0.3, -0.3], ("a", "animal")),
    ]
    _, rep_a = train_defmodel(init_model(cfg), list(pairs))
    _, rep_b = train_defmodel(init_model(cfg), list(pairs))
    assert rep_a == rep_b


def test_train_returns_best_dev_parameters():
    cfg = tiny_config(max_epochs=6)
    train = [pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal"))]
    dev = [pair("dog", [-0.2, 0.1, 0.3, -0.3], ("a", "animal"))]
    model, report = train_defmodel(init_model(cfg), train, dev)
    assert dataset_nll(model, dev) <= report.dev_losses[0] + 1e-12
    assert report.dev_losses[report.best_epoch] == min(report.dev_losses)


def test_train_restores_an_earlier_best_epoch_bit_for_bit(monkeypatch):
    """Stopping at the best epoch and restoring it give the same parameters."""
    import defmod.defgen as defgen

    calls = {"snapshot": 0, "restore": 0}
    snapshot, restore = defgen._snapshot, defgen._restore

    def counting_snapshot(params):
        calls["snapshot"] += 1
        return snapshot(params)

    def counting_restore(params, saved):
        calls["restore"] += 1
        restore(params, saved)

    monkeypatch.setattr(defgen, "_snapshot", counting_snapshot)
    monkeypatch.setattr(defgen, "_restore", counting_restore)
    train = [pair("cat", [0.1, 0.2, -0.1, 0.0], ("small", "small", "cat")),
             pair("dog", [-0.2, 0.1, 0.3, -0.3], ("dog", "small", "cat"))]
    dev = [pair("dog", [-0.2, 0.1, 0.3, -0.3], ("small", "animal"))]
    long_model, long_report = train_defmodel(
        init_model(tiny_config(max_epochs=6, patience=10, lr=0.1)), train, dev)
    best = long_report.best_epoch
    assert 0 < best < 6 - 1
    assert calls == {"snapshot": best + 1, "restore": 1}
    calls.update(snapshot=0, restore=0)
    short_model, short_report = train_defmodel(
        init_model(tiny_config(max_epochs=best + 1, patience=10, lr=0.1)), train, dev)
    # The best epoch is the last one run: no snapshot of it, no restore.
    assert short_report.best_epoch == best
    assert calls == {"snapshot": best, "restore": 0}
    for name, p in long_model.params.items():
        assert p.data.tobytes() == short_model.params[name].data.tobytes(), name


def test_train_rejects_non_finite_dev_loss(monkeypatch):
    import defmod.defgen as defgen

    monkeypatch.setattr(defgen, "dataset_nll", lambda model, pairs: float("nan"))
    train = [pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal"))]
    with pytest.raises(ConfigError, match="dev NLL is not finite after epoch 1"):
        train_defmodel(init_model(tiny_config()), train)


def test_no_gradient_buffer_outlives_training(monkeypatch):
    """train_defmodel unhooks the gradient buffer that init_adam hooked to the
    parameters, after a normal run and after a diverging one."""
    import weakref

    import defmod.defgen as defgen

    buffers = []

    def init_adam(params, lr):
        state = real_init_adam(params, lr=lr)
        buffers.append(weakref.ref(state.gradient["Wo"].base))
        return state

    real_init_adam = defgen.init_adam
    monkeypatch.setattr(defgen, "init_adam", init_adam)
    train = [pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal"))]
    models = [train_defmodel(init_model(tiny_config()), train)[0], init_model(tiny_config(lr=1e300))]
    with pytest.raises(NonFiniteError, match="training diverged"):
        train_defmodel(models[1], train)
    gc.collect()
    assert len(buffers) == 2 and all(ref() is None for ref in buffers)
    for model in models:
        assert all(p.grad is None and p.grad_view is None for p in model.params.values())


def test_train_empty_pairs_rejected():
    with pytest.raises(ConfigError):
        train_defmodel(init_model(tiny_config()), [])


def test_train_rejects_an_empty_dev_list():
    """None means "no dev list"; an empty one is a caller's mistake, not a
    request to stop early on the training pairs."""
    train = [pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal"))]
    with pytest.raises(ConfigError, match="at least one dev pair"):
        train_defmodel(init_model(tiny_config()), train, [])


def test_sample_respects_max_len():
    model = init_model(tiny_config())
    outs = sample_definition(model, np.zeros((5, 4)), ["cat"] * 5,
                             GenConfig(temperature=2.0, max_len=7, mask_unk=True),
                             [np.random.default_rng(seed) for seed in range(5)])
    for out in outs:
        assert len(out) <= 7
        assert all(t not in ("<bos>", "<pad>", "<eos>", "<unk>") for t in out)


def test_sample_deterministic_given_seed():
    model = init_model(tiny_config())
    a = sample_definition(model, np.zeros((1, 4)), ["cat"], GenConfig(),
                          [np.random.default_rng(9)])
    b = sample_definition(model, np.zeros((1, 4)), ["cat"], GenConfig(),
                          [np.random.default_rng(9)])
    assert a == b


@pytest.mark.parametrize("mask_unk", [True, False])
def test_sampler_matches_single_row_oracle_at_batch_1(mask_unk, monkeypatch):
    """At batch 1 the batched sampler takes the old single-row sampler's
    draws, from logits equal to the oracle's bit for bit."""
    import defmod.defgen as defgen
    import _reference_ops

    logits = {"ours": [], "theirs": []}
    for module, side in ((defgen, "ours"), (_reference_ops, "theirs")):
        def recording(values, temperature, side=side, original=module.softmax):
            logits[side].append(np.asarray(values).tobytes())
            return original(values, temperature)
        monkeypatch.setattr(module, "softmax", recording)
    model = init_model(tiny_config(hidden=7))
    rng = np.random.default_rng(5)
    emitted = set()
    for seed in range(12):
        condition = rng.normal(size=4)
        word = ("cat", "dog", "cog")[seed % 3]
        for temperature in (0.5, 2.0):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            cfg = GenConfig(temperature=temperature, max_len=9, mask_unk=mask_unk)
            got = sample_definition(model, condition[None, :], [word], cfg, [ours])
            want = ref_sample_definition(model, condition, word, temperature, 9,
                                         theirs, mask_unk)
            assert got == [want]
            assert ours.bit_generator.state == theirs.bit_generator.state
            emitted.update(want)
    assert ("<unk>" in emitted) is not mask_unk
    assert logits["ours"] and logits["ours"] == logits["theirs"]


def test_sampler_output_on_a_fixed_model_is_pinned():
    """Rows sampled together from a model with unit-scale weights, whose
    draws depend on the weights: a change to the cell arithmetic that moves
    a draw shows here."""
    model = init_model(tiny_config(hidden=7))
    rng = np.random.default_rng(17)
    for p in model.params.values():
        p.data[...] = rng.normal(size=p.shape)
    conditions = rng.normal(size=(6, 4))
    words = ["cat", "dog", "cat", "cog", "dog", "cat"]
    outs = sample_definition(model, conditions, words, GenConfig(temperature=1.0, max_len=8),
                             [np.random.default_rng([3, i]) for i in range(6)])
    assert outs == [
        ("a", "cat", "dog", "cat", "a", "cat", "cat", "cat"),
        ("a", "a", "cat", "cat", "cat", "animal", "cat", "cat"),
        (),
        (),
        ("dog", "cat"),
        ("a", "animal", "animal", "cat", "dog", "cat", "cat", "animal"),
    ]


@pytest.mark.parametrize("param, index, value", [
    ("Wo", (0, 5), np.nan), ("bo", 6, np.inf), ("bo", 4, -np.inf), ("Wo", (2, 7), -np.inf),
    ("bo", BOS_ID, 1e4)])  # every unmasked token underflows: 0 / 0
def test_sampler_rejects_non_finite_probabilities(param, index, value):
    model = init_model(tiny_config())
    model.params[param].data[index] = value
    rngs = [np.random.default_rng(seed) for seed in range(3)]
    with pytest.raises(ValueError, match="not finite"):
        sample_definition(model, np.ones((3, 4)), ["cat", "dog", "cat"], GenConfig(), rngs)


def test_sampler_rejects_mismatched_rows():
    model = init_model(tiny_config())
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ShapeError):
        sample_definition(model, np.zeros((2, 3)), ["cat", "dog"], GenConfig(), rngs)
    with pytest.raises(ShapeError):
        sample_definition(model, np.zeros((2, 4)), ["cat"], GenConfig(), rngs)
    with pytest.raises(ShapeError):
        sample_definition(model, np.zeros((2, 4)), ["cat", "dog"], GenConfig(), rngs[:1])


def test_sampler_blocks_are_cut_in_input_order():
    """A block's rows depend on that block's inputs and streams alone."""
    model = init_model(tiny_config())
    n = 2 * SAMPLE_BLOCK_ROWS + 5
    conditions = np.random.default_rng(3).normal(size=(n, 4))
    words = [("cat", "dog")[i % 2] for i in range(n)]
    cfg = GenConfig(temperature=1.5, max_len=8)

    def sample(rows):
        return sample_definition(model, conditions[rows], words[rows], cfg,
                                 [np.random.default_rng([7, i]) for i in range(n)][rows])

    full = sample(slice(None))
    assert len(full) == n
    assert sample(slice(None)) == full
    second = slice(SAMPLE_BLOCK_ROWS, 2 * SAMPLE_BLOCK_ROWS)
    assert sample(second) == full[second]
    assert sample(slice(2 * SAMPLE_BLOCK_ROWS, None)) == full[2 * SAMPLE_BLOCK_ROWS:]
    assert len(set(full)) > 1


def test_each_row_draws_once_per_step_from_its_own_stream():
    model = init_model(tiny_config())
    n, max_len = 70, 6
    rngs = [np.random.default_rng([2, i]) for i in range(n)]
    outs = sample_definition(model, np.random.default_rng(1).normal(size=(n, 4)),
                             ["cat"] * n, GenConfig(temperature=1.5, max_len=max_len), rngs)
    assert {len(out) for out in outs} >= {0, max_len}
    for i, (out, rng) in enumerate(zip(outs, rngs)):
        fresh = np.random.default_rng([2, i])
        fresh.random(len(out) if len(out) == max_len else len(out) + 1)  # + the EOS draw
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_generate_for_word_draws_sense_k_from_spawned_stream_k():
    model = init_model(tiny_config())
    senses = SenseTable(4, 3)
    vectors = np.random.default_rng(2).normal(size=(3, 4))
    senses.add("cat", vectors, np.array([0.5, 0.3, 0.2]))
    cfg = GenConfig(temperature=1.5, max_len=8)
    out = generate_for_word(model, "cat", senses, cfg, np.random.default_rng(4))
    expected = sample_definition(model, vectors, ["cat"] * 3, cfg,
                                 np.random.default_rng(4).spawn(3))
    assert out == list(enumerate(expected))


def test_generate_seeded_gives_each_row_its_own_stream():
    model = init_model(tiny_config())
    rng = np.random.default_rng(8)
    senses = SenseTable(4, 3)
    senses.add("cat", rng.normal(size=(2, 4)), np.array([0.6, 0.4]))
    senses.add("dog", rng.normal(size=(1, 4)), np.array([1.0]))
    cfg = GenConfig(temperature=1.5, max_len=8)
    out = generate_seeded(model, ["dog", "cat"], senses, cfg, [11, 12])
    rows = [(seed, i, k) for seed in (11, 12) for i, word in enumerate(["dog", "cat"])
            for k in range(len(senses.senses(word)))]
    flat = sample_definition(
        model, np.stack([senses.senses(["dog", "cat"][i])[k][1] for _s, i, k in rows]),
        [["dog", "cat"][i] for _s, i, _k in rows], cfg,
        [np.random.default_rng([seed, i, k]) for seed, i, k in rows])
    assert out == [[flat[0:1], flat[1:3]], [flat[3:4], flat[4:6]]]
    assert generate_seeded(model, ["dog", "cat"], senses, cfg, [11, 12]) == out
    assert generate_seeded(model, [], senses, cfg, [11]) == [[]]
    with pytest.raises(MissingWordError):
        generate_seeded(model, ["zebra"], senses, cfg, [11])


def test_generate_for_word_cardinalities():
    model = init_model(tiny_config())
    rng = np.random.default_rng(1)
    senses = SenseTable(4, 3)
    senses.add("cat", rng.normal(size=(3, 4)), np.array([0.5, 0.3, 0.2]))
    senses.add("dog", rng.normal(size=(2, 4)), np.array([0.99, 0.01]) )
    out = generate_for_word(model, "cat", senses, GenConfig(), rng)
    assert [k for k, _ in out] == [0, 1, 2]

    pruned = SenseTable(4, 2)
    pruned.add("cat", rng.normal(size=(2, 4)), np.array([0.9999, 0.0001]))
    out = generate_for_word(model, "cat", pruned, GenConfig(), rng)
    assert len(out) == 1

    table = EmbeddingTable(4, ["cat"], rng.normal(size=(1, 4)))
    out = generate_for_word(model, "cat", table, GenConfig(), rng)
    assert len(out) == 1 and out[0][0] == 0

    with pytest.raises(MissingWordError):
        generate_for_word(model, "zebra", senses, GenConfig(), rng)


def test_save_generated(tmp_path):
    path = tmp_path / "gen.tsv"
    save_generated([("cat", 0, ("a", "pet")), ("dog", 1, ())], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["cat\t0\ta pet", "dog\t1\t"]


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config(seed=13, layers=1, max_def_len=7, lr=0.25, patience=2)
    model = init_model(cfg)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    again = load_checkpoint(path, cfg.vocab, cfg.char_vocab)
    assert set(again.params) == set(model.params)
    for name in model.params:
        np.testing.assert_array_equal(again.params[name].data, model.params[name].data)
    assert {name: getattr(again.config, name) for name in HYPERPARAMETERS} == \
        {name: getattr(cfg, name) for name in HYPERPARAMETERS}
    cond = np.linspace(-0.1, 0.1, 4)
    np.testing.assert_allclose(
        batch_nll(again, [pair("cat", cond, ("a", "animal"))])[0].item(),
        batch_nll(model, [pair("cat", cond, ("a", "animal"))])[0].item())


# The config echo of a tiny_config() checkpoint, byte for byte. Every saved
# .bin starts with such a header, so a change here changes every checkpoint.
TINY_CONFIG_PAYLOAD = (
    b'{"batch_size":4,"char_feature_dim":160,'
    b'"char_vocab_digest":"6aca714a0abbf93a50d25f531d66c1ae5b141f3c7d47d2bef362331389a64603",'
    b'"condition_dim":4,"hidden":5,"layers":2,"lr":0.001,"max_def_len":60,"max_epochs":3,'
    b'"patience":5,"seed":1,"token_embedding_dim":6,'
    b'"vocab_digest":"92f9e9b4fb6b72833800684c932954e2ca06e5603b2b3a1641c498ff83c92cfb"}'
)


def _parameters_view_one_buffer(model):
    flat = flat_buffer(model.params)
    offset = 0
    for name, shape in parameter_shapes(model.config).items():
        data = model.params[name].data
        assert data.base is flat and data.flags.c_contiguous, name
        assert data.__array_interface__["data"][0] == flat.__array_interface__["data"][0] + 8 * offset
        offset += math.prod(shape)
    return flat


def test_parameters_stay_views_of_one_buffer(tmp_path):
    """init_model, load_checkpoint, a restored best epoch and an in-place
    copy all leave every parameter a view of the one flat buffer."""
    cfg = tiny_config(max_epochs=6, patience=10, lr=0.1)
    model = init_model(cfg)
    flat = _parameters_view_one_buffer(model)
    train = [pair("cat", [0.1, 0.2, -0.1, 0.0], ("small", "small", "cat")),
             pair("dog", [-0.2, 0.1, 0.3, -0.3], ("dog", "small", "cat"))]
    dev = [pair("dog", [-0.2, 0.1, 0.3, -0.3], ("small", "animal"))]
    model, report = train_defmodel(model, train, dev)
    assert report.best_epoch < 6 - 1  # the best epoch was restored
    assert _parameters_view_one_buffer(model) is flat
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path, cfg.vocab, cfg.char_vocab)
    loaded_flat = _parameters_view_one_buffer(loaded)
    assert loaded_flat.tobytes() == flat.tobytes()
    for p in loaded.params.values():
        np.copyto(p.data, 0.5)
    assert _parameters_view_one_buffer(loaded) is loaded_flat
    assert (loaded_flat == 0.5).all()


# sha256 of save_checkpoint's bytes for tiny_config(): fresh, and after
# training on one headword (so the char-CNN runs one word per batch) with
# the best of six epochs restored. The flat buffer must not move a byte.
FRESH_CHECKPOINT_SHA256 = "80ea0347da4a290bad2e69deadfe48a22ddbc52a2be69545c78de9c2884f066c"
TRAINED_CHECKPOINT_SHA256 = "70c2adf905edb67b68e9d26e01bcf3faae2210cc03c112344024150838cb0c8f"


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(init_model(tiny_config()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FRESH_CHECKPOINT_SHA256
    train = [pair("cat", [0.1, 0.2, -0.1, 0.0], ("small", "small", "cat")),
             pair("cat", [-0.2, 0.1, 0.3, -0.3], ("dog", "small", "cat"))]
    dev = [pair("cat", [-0.2, 0.1, 0.3, -0.3], ("small", "animal"))]
    model, report = train_defmodel(init_model(tiny_config(max_epochs=6, patience=10, lr=0.1)),
                                   train, dev)
    assert report.best_epoch == 2
    save_checkpoint(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRAINED_CHECKPOINT_SHA256


def test_training_step_holds_one_logit_sized_array():
    """The loss node forms dlogits in its forward buffer, and each step's
    graph is dropped right after its backward, so the next step's forward
    never meets the last step's (tokens, V) array."""
    vocab = Vocabulary({f"w{i}": 1 for i in range(5000 - 4)})
    cfg = DefModelConfig(vocab, build_char_vocab(["cat", "dog"]), condition_dim=4, hidden=4,
                         layers=1, token_embedding_dim=4, batch_size=16, max_epochs=1, seed=3)
    rng = np.random.default_rng(35)
    pairs = [pair("cat" if i % 2 else "dog", rng.normal(size=4),
                  [f"w{j}" for j in rng.integers(0, len(vocab) - 4, size=19)]) for i in range(32)]
    model = init_model(cfg)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        train_defmodel(model, pairs, pairs[:1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    logits_bytes = 16 * 20 * len(vocab) * 8  # 16 pairs of 19 tokens plus EOS
    # One (tokens, V) array, its finiteness mask, and the V-proportional
    # parameters, moments and gradients (about 0.1 of it) fit; two do not.
    assert peak - base < 1.6 * logits_bytes


def test_checkpoint_header_bytes_are_pinned():
    assert _config_payload(tiny_config()) == TINY_CONFIG_PAYLOAD


def test_checkpoint_save_failure_keeps_old_checkpoint(tmp_path, monkeypatch):
    import struct

    import defmod.defgen as defgen

    cfg = tiny_config()
    path = tmp_path / "model.bin"
    save_checkpoint(init_model(cfg), path)
    before = path.read_bytes()

    class FailingStruct:
        """struct whose tenth pack call fails, partway through the tensors."""

        calls = 0

        @classmethod
        def pack(cls, *args):
            cls.calls += 1
            if cls.calls == 10:
                raise OSError("disk full")
            return struct.pack(*args)

    monkeypatch.setattr(defgen, "struct", FailingStruct)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(init_model(tiny_config(seed=2)), path)
    assert FailingStruct.calls == 10
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]


def test_checkpoint_digest_mismatch(tmp_path):
    cfg = tiny_config()
    model = init_model(cfg)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    other_vocab = Vocabulary({"entirely": 2, "different": 1})
    with pytest.raises(CheckpointError):
        load_checkpoint(path, other_vocab, cfg.char_vocab)
    other_chars = build_char_vocab(["xyz"])
    with pytest.raises(CheckpointError):
        load_checkpoint(path, cfg.vocab, other_chars)


def test_checkpoint_rejects_corruption(tmp_path):
    cfg = tiny_config()
    model = init_model(cfg)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXXX" + raw[5:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic, cfg.vocab, cfg.char_vocab)

    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated, cfg.vocab, cfg.char_vocab)

    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(trailing, cfg.vocab, cfg.char_vocab)


def test_checkpoint_rejects_other_char_feature_dim(tmp_path):
    import struct

    cfg = tiny_config()
    path = tmp_path / "model.bin"
    save_checkpoint(init_model(cfg), path)
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[5:9])
    header = raw[9:9 + length]
    assert b'"char_feature_dim":160' in header
    header = header.replace(b'"char_feature_dim":160', b'"char_feature_dim":64')
    path.write_bytes(raw[:5] + struct.pack("<I", len(header)) + header + raw[9 + length:])
    with pytest.raises(CheckpointError, match="char_feature_dim 64"):
        load_checkpoint(path, cfg.vocab, cfg.char_vocab)


@functools.lru_cache(maxsize=1)
def _fuzz_checkpoint() -> tuple[bytes, tuple[int, ...]]:
    """A tiny_config() checkpoint, and the offsets of every byte that is not
    tensor data: magic, config echo and each tensor's name and shape."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_checkpoint(init_model(tiny_config()), path)
        raw = path.read_bytes()
    (config_len,) = struct.unpack_from("<I", raw, 5)
    pos = 9 + config_len + 4
    structure = list(range(pos))
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        ndim = raw[pos + 2 + name_len]
        shape = struct.unpack_from(f"<{ndim}I", raw, pos + 3 + name_len)
        head = 3 + name_len + 4 * ndim
        structure.extend(range(pos, pos + head))
        pos += head + 8 * math.prod(shape)
    return raw, tuple(structure)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_raises_checkpoint_error(tmp_path, data):
    """Truncated, altered or extended files load with the declared shapes or
    raise CheckpointError, never any other exception."""
    raw, structure = _fuzz_checkpoint()
    kind = data.draw(st.sampled_from(["truncate", "byte", "append"]))
    if kind == "append":
        blob = raw + data.draw(st.binary(min_size=1, max_size=64))
    else:
        pos = data.draw(st.sampled_from(structure) | st.integers(0, len(raw) - 1))
        if kind == "truncate":
            blob = raw[:pos]
        else:
            blob = raw[:pos] + bytes([data.draw(st.integers(0, 255))]) + raw[pos + 1:]
    path = tmp_path / "fuzz.bin"
    path.write_bytes(blob)
    cfg = tiny_config()
    try:
        model = load_checkpoint(path, cfg.vocab, cfg.char_vocab)
    except CheckpointError:
        return
    assert {name: p.shape for name, p in model.params.items()} == parameter_shapes(model.config)


@pytest.mark.parametrize("layers", [1, 3])
def test_parameter_shapes_match_init_model(layers):
    model = init_model(tiny_config(layers=layers))
    assert parameter_shapes(model.config) == {
        name: p.shape for name, p in model.params.items()}


def test_checkpoint_rejects_wrong_tensor_shape(tmp_path):
    cfg = tiny_config()
    model = init_model(cfg)
    model.params["Wh1"] = Tensor(np.zeros((5, 16)), requires_grad=True)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="Wh1"):
        load_checkpoint(path, cfg.vocab, cfg.char_vocab)


def test_train_logs_one_line_per_epoch(caplog):
    cfg = tiny_config(max_epochs=3, patience=10)
    pairs = [
        pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal")),
        pair("dog", [-0.2, 0.1, 0.3, -0.3], ("a", "animal")),
    ]
    with caplog.at_level(logging.INFO, logger="defmod.defgen"):
        _, report = train_defmodel(init_model(cfg), pairs)
    lines = [r.getMessage() for r in caplog.records if r.name == "defmod.defgen"]
    assert [line.split(":")[0] for line in lines] == ["epoch 1/3", "epoch 2/3", "epoch 3/3"]
    for line, train, dev, norm in zip(lines, report.train_losses, report.dev_losses,
                                      report.grad_norms):
        assert f"train nll {train:.4f}" in line
        assert f"dev nll {dev:.4f}" in line
        assert f"grad norm {norm:.3f}" in line
        assert "clip rate 0.00" in line
        assert line.endswith("tokens/s")
    assert len(report.grad_norms) == len(report.clip_rates) == 3
    assert all(0.0 < norm < 5.0 for norm in report.grad_norms)


def test_train_reports_clip_rate(monkeypatch):
    import defmod.defgen as defgen

    monkeypatch.setattr(defgen, "CLIP_NORM", 1e-9)
    cfg = tiny_config(max_epochs=2, batch_size=1, patience=10)
    pairs = [
        pair("cat", [0.1, 0.2, -0.1, 0.0], ("a", "small", "animal")),
        pair("dog", [-0.2, 0.1, 0.3, -0.3], ("a", "animal")),
    ]
    _, report = train_defmodel(init_model(cfg), pairs)
    assert report.clip_rates == (1.0, 1.0)


def test_word_char_ids_unknown_chars_map_to_unk():
    char_vocab = build_char_vocab(["cat"])
    assert word_char_ids("cz", char_vocab)[1] == 0
