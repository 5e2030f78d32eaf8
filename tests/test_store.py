"""ParamStore owns the parameter state: one float64 vector in creation order,
every parameter's value a view of it, and each initial value declared once at
add(). These tests pin that layout through every path that sets values, and
Adam's update through views of its two moments against a plain per-parameter
loop."""

import tracemalloc

import numpy as np
import pytest

from furcasep import autodiff as ad
from furcasep import layers as ly
from furcasep.autodiff import ParamStore
from furcasep.corpus import MixtureExample
from furcasep.model import FurcaNet, ModelConfig, build, load_checkpoint, save_checkpoint
from furcasep.signal import Waveform, mix_sum
from furcasep.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, TrainConfig, adam_step, batch_loss, train

TINY = ModelConfig(frame_len=16, hop=8, gconv_layers=2, gconv_channels=4, bilstm_layers=1, bilstm_hidden=4,
                   dnn_layers=1, dnn_width=8, seed=0)


def toy_examples(count, seed, n=64):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        s1 = Waveform(0.4 * np.sin(2 * np.pi * (4 + i) * np.arange(n) / n) + 0.02 * rng.normal(size=n), 8000)
        s2 = Waveform(0.4 * np.sin(2 * np.pi * (11 + 2 * i) * np.arange(n) / n) + 0.02 * rng.normal(size=n), 8000)
        out.append(MixtureExample(mix_sum([s1, s2]), [s1, s2], 0.0, f"toy{i:03d}", i))
    return out


def assert_views_of_one_vector(params):
    """Every value is a view of params.values, and the views tile it in creation order without overlap."""
    values = params.values
    assert values.dtype == np.float64 and values.ndim == 1 and values.size == params.total_size
    assert values.flags.owndata and values.flags.writeable
    base = values.__array_interface__["data"][0]
    offset = 0
    for name, node in params.items():
        assert np.shares_memory(node.value, values), name
        assert node.value.flags.c_contiguous and node.value.flags.writeable, name
        assert node.value.__array_interface__["data"][0] == base + 8 * offset, name
        offset += node.value.size
    assert offset == values.size
    nodes = params.nodes()
    for i, a in enumerate(nodes):
        assert not any(np.shares_memory(a.value, b.value) for b in nodes[i + 1 :])


class TestOneVector:
    def test_build_and_reinit(self):
        model = build(TINY)
        assert_views_of_one_vector(model.params)
        values = model.params.values
        model.reinit(3)
        assert model.params.values is values  # redrawn in place
        assert_views_of_one_vector(model.params)

    def test_load_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(TINY), path)
        assert_views_of_one_vector(load_checkpoint(path).params)

    def test_adam_step(self):
        model = build(TINY)
        values = model.params.values
        ad.backward(batch_loss(model, toy_examples(2, 1)))
        adam_step(model.params, AdamState(model.params, 1e-2))
        assert model.params.values is values
        assert_views_of_one_vector(model.params)

    def test_train(self):
        model = build(TINY)
        cfg = TrainConfig(max_epochs=2, batch_size=2, seed=1, restart_max_attempts=2, restart_threshold_db=1000.0)
        train(model, toy_examples(4, 2), toy_examples(2, 3), cfg)
        assert_views_of_one_vector(model.params)

    def test_write_to_a_parameter_shows_in_the_vector(self):
        model = build(TINY)
        model.head.b.value[...] = 7.0
        offset = model.params.total_size - model.head.b.value.size  # the head bias is added last
        assert np.all(model.params.values[offset:] == 7.0)


class TestDeclaredOnce:
    def test_add_after_first_use_raises(self):
        params = ParamStore()
        params.add("w", np.zeros(2))
        params.nodes()
        with pytest.raises(ValueError, match="already made"):
            params.add("v", np.zeros(2))
        with pytest.raises(ValueError, match="already made"):
            params.add("w", np.zeros(2))
        assert params.names() == ["w"] and params.total_size == 2

    @pytest.mark.parametrize("wire", [
        lambda p: ly.GConvLayer(p, "g", 2, 3, 4),
        lambda p: ly.LayerNorm(p, "ln", 5),
        lambda p: ly.BiLstmLayer(p, "l", 3, 4),
        lambda p: ly.DenseLayer(p, "d", 3, 2, "relu"),
    ])
    def test_layer_parameter_write_before_first_use_raises(self, wire):
        params = ParamStore()
        wire(params)
        for name in params.names():
            with pytest.raises(ValueError, match="read-only"):
                params[name].value[...] = 2.0
        params.reset(np.random.default_rng(0))
        for name in params.names():
            params[name].value[...] = 2.0
        assert np.all(params.values == 2.0)

    def test_unfilled_model_is_read_only_until_loaded(self):
        model = FurcaNet._unfilled(TINY)
        with pytest.raises(ValueError, match="read-only"):
            model.head.w.value[...] = 1.0
        model.params.load_flat_values(build(TINY).params.values)
        model.head.w.value[...] = 1.0
        assert_views_of_one_vector(model.params)

    def test_reset_restores_constants_and_redraws_weights(self):
        params = ParamStore()
        layer = ly.BiLstmLayer(params, "l", 3, 4)
        params.reset(np.random.default_rng(5))
        first = params.flat_values()
        params.values[...] = 9.0
        params.reset(np.random.default_rng(5))
        assert np.array_equal(params.flat_values(), first)
        assert np.array_equal(layer.b["bwd"].value, np.repeat([0.0, 1.0, 0.0, 0.0], 4))


def reference_adam_step(nodes, moments, lr, t):
    """Adam as a per-parameter loop over moments held one array per parameter: adam_step's reference."""
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for node, (m, v) in zip(nodes, moments):
        g = node.grad
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        node.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        node.grad = None


def test_adam_step_matches_per_parameter_loop_bit_for_bit():
    config = ModelConfig(seed=4)  # desk widths
    flat, looped = build(config), build(config)
    state = AdamState(flat.params, 3e-3)
    ref_nodes = looped.params.nodes()
    moments = [(np.zeros_like(n.value), np.zeros_like(n.value)) for n in ref_nodes]
    rng = np.random.default_rng(6)
    for t in range(1, 7):
        for node, ref in zip(flat.params.nodes(), ref_nodes):
            node.grad = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=node.value.shape)
            ref.grad = node.grad.copy()
        adam_step(flat.params, state)
        reference_adam_step(ref_nodes, moments, 3e-3, t)
        assert state.step_count == t
        assert np.array_equal(flat.params.values, looped.params.values), t
        assert np.array_equal(state.m, np.concatenate([m.reshape(-1) for m, _ in moments])), t
        assert np.array_equal(state.v, np.concatenate([v.reshape(-1) for _, v in moments])), t
        assert all(node.grad is None for node in flat.params.nodes())


def test_adam_footprint_is_two_moments():
    """AdamState plus one adam_step allocates the two moments and a few parameter-sized temporaries."""
    model = build(ModelConfig(seed=4))  # desk widths
    rng = np.random.default_rng(7)
    for node in model.params.nodes():
        node.grad = rng.normal(size=node.value.shape)
    largest = max(node.value.nbytes for node in model.params.nodes())
    assert largest == 262144  # bilstm2.*.w_in
    tracemalloc.start()
    try:
        adam_step(model.params, AdamState(model.params, 1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * model.params.total_size + 4 * largest, peak
