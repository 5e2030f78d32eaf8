import dataclasses
import gc
import weakref

import numpy as np
import pytest

from furcasep import autodiff as ad
from furcasep.corpus import MixtureExample
from furcasep.metrics import pit_assign
from furcasep.model import (
    CheckpointError,
    FurcaNet,
    ModelConfig,
    build,
    load_checkpoint,
    save_checkpoint,
)
from furcasep.signal import Waveform, mix_sum

TINY = ModelConfig(
    frame_len=16,
    hop=8,
    first_kernel_len=16,
    gconv_layers=2,
    gconv_channels=3,
    bilstm_layers=1,
    bilstm_hidden=3,
    dnn_layers=1,
    dnn_width=4,
    seed=11,
)


def expected_param_count(c: ModelConfig) -> int:
    """Closed-form parameter count from the layer shapes."""
    total = 2 * (c.first_kernel_len * c.gconv_channels + c.gconv_channels)  # first gconv, both paths
    total += (c.gconv_layers - 1) * 2 * (
        c.gconv_cross_frame_len * c.gconv_channels * c.gconv_channels + c.gconv_channels
    )
    total += c.gconv_layers * 2 * c.gconv_channels  # layer norms
    lstm_in = c.gconv_channels
    for _ in range(c.bilstm_layers):
        per_direction = lstm_in * 4 * c.bilstm_hidden + c.bilstm_hidden * 4 * c.bilstm_hidden + 4 * c.bilstm_hidden
        total += 2 * per_direction
        lstm_in = 2 * c.bilstm_hidden
    dense_in = lstm_in
    for _ in range(c.dnn_layers):
        total += dense_in * c.dnn_width + c.dnn_width
        dense_in = c.dnn_width
    total += dense_in * c.num_sources * c.frame_len + c.num_sources * c.frame_len  # head
    return total


def random_example(seed, n=96, rate=8000):
    rng = np.random.default_rng(seed)
    s1 = Waveform(0.4 * rng.normal(size=n), rate)
    s2 = Waveform(0.4 * rng.normal(size=n), rate)
    return MixtureExample(mix_sum([s1, s2]), [s1, s2], 0.0, f"ex{seed}", seed)


class TestBuild:
    def test_param_count_matches_closed_form_desk(self):
        model = build(ModelConfig())
        assert model.param_count == expected_param_count(ModelConfig())

    def test_param_count_matches_closed_form_variants(self):
        for cfg in (
            TINY,
            ModelConfig(num_sources=3),
            dataclasses.replace(TINY, gconv_cross_frame_len=3),
            dataclasses.replace(TINY, bilstm_layers=3, dnn_layers=3),
        ):
            assert build(cfg).param_count == expected_param_count(cfg)

    def test_same_seed_bit_identical(self):
        a = build(dataclasses.replace(TINY, seed=5))
        b = build(dataclasses.replace(TINY, seed=5))
        assert np.array_equal(a.params.flat_values(), b.params.flat_values())

    def test_different_seed_differs(self):
        a = build(dataclasses.replace(TINY, seed=5))
        b = build(dataclasses.replace(TINY, seed=6))
        assert not np.array_equal(a.params.flat_values(), b.params.flat_values())

    def test_three_sources_head_width(self):
        model = build(ModelConfig(num_sources=3))
        assert model.head.out_size == 240

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="num_sources"):
            build(ModelConfig(num_sources=1))
        with pytest.raises(ValueError, match="first_kernel_len"):
            build(ModelConfig(first_kernel_len=64))

    def test_config_round_trips_through_dict(self):
        cfg = dataclasses.replace(TINY, num_sources=3, seed=99)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict({"bogus": 1})

    def test_reinit_matches_fresh_build(self):
        model = build(dataclasses.replace(TINY, seed=1))
        model.reinit(42)
        fresh = build(dataclasses.replace(TINY, seed=42))
        assert np.array_equal(model.params.flat_values(), fresh.params.flat_values())
        assert model.config.seed == 42


class TestForward:
    def test_output_count_and_length(self):
        model = build(TINY)
        for n in (16, 50, 96, 131):
            mixture = Waveform(np.random.default_rng(n).normal(size=n) * 0.3, 8000)
            outs = model.forward_utterance(mixture)
            assert len(outs) == TINY.num_sources
            for node in outs:
                assert node.value.shape == (n,)

    def test_zero_weights_zero_outputs(self):
        model = build(TINY)
        model.params.load_flat_values(np.zeros(model.param_count))
        mixture = Waveform(np.random.default_rng(0).normal(size=64) * 0.3, 8000)
        for node in model.forward_utterance(mixture):
            assert np.array_equal(node.value, np.zeros(64))

    def test_longer_input_same_parameters(self):
        model = build(TINY)
        before = model.params.flat_values().copy()
        model.forward_utterance(Waveform(np.random.default_rng(1).normal(size=64) * 0.3, 8000))
        model.forward_utterance(Waveform(np.random.default_rng(2).normal(size=128) * 0.3, 8000))
        assert np.array_equal(model.params.flat_values(), before)

    def test_too_short_input_rejected(self):
        model = build(TINY)
        with pytest.raises(ValueError, match="shorter than frame_len"):
            model.forward_utterance(Waveform(np.ones(8), 8000))

    def test_batched_matches_single(self):
        model = build(TINY)
        rng = np.random.default_rng(3)
        mixtures = [Waveform(rng.normal(size=96) * 0.3, 8000) for _ in range(3)]
        batched = model.forward_batch(mixtures)
        for mixture, outs in zip(mixtures, batched):
            single = model.forward_utterance(mixture)
            for got, want in zip(outs, single):
                assert np.allclose(got.value, want.value, atol=1e-12)

    def test_cross_frame_kernel_keeps_shape_contract(self):
        cfg = dataclasses.replace(TINY, gconv_cross_frame_len=3)
        model = build(cfg)
        mixture = Waveform(np.random.default_rng(4).normal(size=100) * 0.3, 8000)
        outs = model.forward_utterance(mixture)
        assert all(node.value.shape == (100,) for node in outs)


class TestSeparate:
    def test_deterministic(self):
        model = build(TINY)
        mixture = Waveform(np.random.default_rng(5).normal(size=80) * 0.3, 8000)
        a = model.separate(mixture)
        b = model.separate(mixture)
        for x, y in zip(a, b):
            assert np.array_equal(x.samples, y.samples)

    def test_returns_waveforms_at_input_rate(self):
        model = build(TINY)
        mixture = Waveform(np.random.default_rng(6).normal(size=80) * 0.3, 16000)
        for est in model.separate(mixture):
            assert isinstance(est, Waveform)
            assert est.sample_rate_hz == 16000
            assert len(est) == 80


class TestLoss:
    def test_loss_matches_metrics_oracle(self):
        model = build(TINY)
        example = random_example(7)
        loss = model.loss_on_example(example)
        estimates = model.separate(example.mixture)
        pit = pit_assign(example.sources, estimates)
        assert float(loss.value) == pytest.approx(pit.loss, abs=1e-6)

    def test_label_permutation_invariance_exact(self):
        model = build(TINY)
        example = random_example(8)
        swapped = MixtureExample(
            example.mixture, list(reversed(example.sources)), example.snr_db, "sw", example.seed
        )
        assert float(model.loss_on_example(example).value) == float(model.loss_on_example(swapped).value)

    def test_gradient_check_tiny_model(self):
        model = build(TINY)
        example = random_example(9, n=48)
        err = ad.grad_check(lambda p: model.loss_on_example(example), model.params)
        assert err < 1e-4

    def test_gradient_check_cross_frame_variant(self):
        model = build(dataclasses.replace(TINY, gconv_cross_frame_len=3, seed=2))
        example = random_example(10, n=48)
        err = ad.grad_check(lambda p: model.loss_on_example(example), model.params)
        assert err < 1e-4

    def test_source_count_mismatch(self):
        model = build(TINY)
        ex = random_example(11)
        bad = MixtureExample(ex.mixture, ex.sources[:1] * 3, 0.0, "bad", 0)
        with pytest.raises(ValueError, match="sources"):
            model.loss_on_example(bad)

    def test_determinism_of_loss_and_gradients(self):
        example = random_example(12)

        def run():
            model = build(TINY)
            loss = model.loss_on_example(example)
            ad.backward(loss)
            return float(loss.value), model.params.flat_values().copy(), _grads(model)

        def _grads(model):
            return np.concatenate([n.grad.reshape(-1) for n in model.params.nodes()])

        v1, p1, g1 = run()
        v2, p2, g2 = run()
        assert v1 == v2
        assert np.array_equal(p1, p2)
        assert np.array_equal(g1, g2)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = build(dataclasses.replace(TINY, seed=21))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.params.flat_values(), model.params.flat_values())

    def test_corrupted_checksum_rejected(self, tmp_path):
        model = build(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_parameter_count_mismatch_rejected(self, tmp_path):
        import struct
        import zlib

        model = build(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes()[:-4])
        # the count field sits right after magic + version + config block
        offset = 8 + 4
        (cfg_len,) = struct.unpack_from("<I", blob, offset)
        count_at = offset + 4 + cfg_len
        (count,) = struct.unpack_from("<Q", blob, count_at)
        struct.pack_into("<Q", blob, count_at, count + 1)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))  # recompute valid checksum
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="parameter count"):
            load_checkpoint(path)

    def test_separation_identical_after_reload(self, tmp_path):
        model = build(dataclasses.replace(TINY, seed=31))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        mixture = Waveform(np.random.default_rng(13).normal(size=96) * 0.3, 8000)
        for a, b in zip(model.separate(mixture), loaded.separate(mixture)):
            assert np.array_equal(a.samples, b.samples)


class TestGraphLifetime:
    def test_training_graph_freed_without_cyclic_gc(self):
        model = build(TINY)
        loss = model.loss_on_example(random_example(40))
        ad.backward(loss)
        refs, ops, stack, seen = [], set(), [loss], set()
        while stack:
            node = stack.pop()
            if id(node) in seen or not node.parents:
                continue
            seen.add(id(node))
            refs.append(weakref.ref(node))
            ops.add(node.op)
            stack.extend(node.parents)
        assert {"affine", "layer_norm_rows", "lstm_sequence", "overlap_add_frames", "log10"} <= ops
        gc.disable()
        try:
            del loss, node
            assert [r().op for r in refs if r() is not None] == []
        finally:
            gc.enable()
