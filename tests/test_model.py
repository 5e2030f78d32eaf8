import dataclasses
import gc
import json
import os
import struct
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from furcasep import autodiff as ad
from furcasep import layers as layers_module
from furcasep import model as model_module
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
from furcasep.training import AdamState, adam_step, batch_loss

TINY = ModelConfig(
    frame_len=16,
    hop=8,
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
    total = 2 * (c.frame_len * c.gconv_channels + c.gconv_channels)  # first gconv, both paths
    total += (c.gconv_layers - 1) * 2 * (c.gconv_channels * c.gconv_channels + c.gconv_channels)  # pointwise
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
        assert model.head.b.value.shape == (240,)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="num_sources"):
            build(ModelConfig(num_sources=1))
        with pytest.raises(ValueError, match="hop"):
            build(ModelConfig(hop=81))

    def test_config_round_trips_through_dict(self):
        cfg = dataclasses.replace(TINY, num_sources=3, seed=99)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict({"bogus": 1})

    def test_reinit_matches_fresh_build(self):
        model = build(dataclasses.replace(TINY, seed=1))
        arrays = [node.value for node in model.params.nodes()]
        model.params.load_flat_values(np.full(model.param_count, 7.0))  # stands in for trained values
        model.reinit(42)
        fresh = build(dataclasses.replace(TINY, seed=42))
        assert np.array_equal(model.params.flat_values(), fresh.params.flat_values())
        assert model.config.seed == 42
        assert all(node.value is array for node, array in zip(model.params.nodes(), arrays))  # drawn in place

    def test_reinit_rejects_negative_seed_unchanged(self):
        model = build(TINY)
        before = model.params.flat_values()
        with pytest.raises(ValueError, match="seed"):
            model.reinit(-1)
        assert model.config == TINY
        assert np.array_equal(model.params.flat_values(), before)


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


class TestNoGradForward:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_forward_batch_bit_identical_without_graph(self, batch):
        model = build(TINY)
        rng = np.random.default_rng(50 + batch)
        mixtures = [Waveform(rng.normal(size=101) * 0.3, 8000) for _ in range(batch)]  # 101 % hop != 0
        want = model.forward_batch(mixtures)
        with ad.no_grad():
            got = model.forward_batch(mixtures)
        for outs_got, outs_want in zip(got, want):
            for g, w in zip(outs_got, outs_want):
                assert np.array_equal(g.value, w.value)
                assert g.parents == () and w.parents != ()

    def test_separate_equals_grad_mode_forward(self):
        model = build(TINY)
        mixture = Waveform(np.random.default_rng(52).normal(size=131) * 0.3, 8000)
        want = model.forward_utterance(mixture)
        for est, node in zip(model.separate(mixture), want):
            assert np.array_equal(est.samples, node.value)

    def test_separate_peak_memory_under_half_of_grad_mode(self):
        cfg = dataclasses.replace(TINY, gconv_channels=8, bilstm_layers=2, bilstm_hidden=8, dnn_width=16)
        model = build(cfg)
        mixture = Waveform(np.random.default_rng(53).normal(size=4003) * 0.3, 8000)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grad_peak = peak(lambda: model.forward_utterance(mixture))
        no_grad_peak = peak(lambda: model.separate(mixture))
        assert no_grad_peak < 0.5 * grad_peak


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
        loss = batch_loss(model, [example])
        estimates = model.separate(example.mixture)
        pit = pit_assign(example.sources, estimates)
        assert float(loss.value) == pytest.approx(pit.loss, abs=1e-6)

    def test_label_permutation_invariance_exact(self):
        model = build(TINY)
        example = random_example(8)
        swapped = MixtureExample(
            example.mixture, list(reversed(example.sources)), example.snr_db, "sw", example.seed
        )
        assert float(batch_loss(model, [example]).value) == float(batch_loss(model, [swapped]).value)

    def test_gradient_check_tiny_model(self):
        model = build(TINY)
        example = random_example(9, n=48)
        err = ad.grad_check(lambda p: batch_loss(model, [example]), model.params)
        assert err < 1e-4

    def test_source_count_mismatch(self):
        model = build(TINY)
        ex = random_example(11)
        bad = MixtureExample(ex.mixture, ex.sources[:1] * 3, 0.0, "bad", 0)
        with pytest.raises(ValueError, match="3 targets vs 2 estimates"):
            batch_loss(model, [bad])

    def test_determinism_of_loss_and_gradients(self):
        example = random_example(12)

        def run():
            model = build(TINY)
            loss = batch_loss(model, [example])
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

    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        old = build(dataclasses.replace(TINY, seed=41))
        save_checkpoint(old, path)

        class HalfWrite:
            """A file whose write stores half of the bytes, then fails as a full disk does."""

            def __init__(self, name, mode):
                self._fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, data):
                self._fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(model_module, "open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(build(dataclasses.replace(TINY, seed=42)), path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["m.ckpt"]
        assert np.array_equal(load_checkpoint(path).params.flat_values(), old.params.flat_values())

    def test_overwrite_replaces_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(dataclasses.replace(TINY, seed=43)), path)
        new = build(dataclasses.replace(TINY, seed=44))
        save_checkpoint(new, path)
        assert os.listdir(tmp_path) == ["m.ckpt"]
        assert np.array_equal(load_checkpoint(path).params.flat_values(), new.params.flat_values())


class TestCheckpointIo:
    """load_checkpoint wires the network without drawing and copies the file once into
    its parameters; save_checkpoint writes straight from the parameters."""

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        model = build(dataclasses.replace(TINY, seed=81))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)

        def no_draw(rng, weight):
            raise AssertionError("initial values drawn")

        monkeypatch.setattr(layers_module, "uniform_init", no_draw)
        with pytest.raises(AssertionError, match="drawn"):
            build(TINY)  # the patch sits on the drawing path
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.params.flat_values(), model.params.flat_values())

    def test_loaded_parameters_are_owned_and_writable(self, tmp_path):
        model = build(dataclasses.replace(TINY, seed=82))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert all(node.value.flags.owndata and node.value.flags.writeable for node in loaded.params.nodes())
        ad.backward(batch_loss(loaded, [random_example(83)]))
        adam_step(loaded.params, AdamState(loaded.params, learning_rate=1e-2))
        assert not np.array_equal(loaded.params.flat_values(), model.params.flat_values())
        assert np.array_equal(load_checkpoint(path).params.flat_values(), model.params.flat_values())

    def test_peak_memory_against_file_size(self, tmp_path):
        model = build(ModelConfig())  # desk widths: a 1.7 MB file, so the header and Python objects are noise
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            save_checkpoint(model, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < 1.5 * size  # was 3.0x: a staged copy of the payload plus its CRC slice
        assert load_peak < 2.5 * size  # was 5.0x: the file, two slices of it, a copy, and a drawn network
        assert np.array_equal(loaded.params.flat_values(), model.params.flat_values())


def checkpoint_bytes(cfg_dict, values):
    """A v1 checkpoint laid out byte for byte as save_checkpoint writes it."""
    cfg_json = json.dumps(cfg_dict, sort_keys=True).encode("utf-8")
    body = (model_module.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(cfg_json)) + cfg_json
            + struct.pack("<Q", values.size) + values.astype("<f8").tobytes())
    return with_crc(body)


def with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


def legacy_config(cfg, **retired):
    """A config block as written before first_kernel_len and gconv_cross_frame_len were retired."""
    return {**cfg.to_dict(), "first_kernel_len": cfg.frame_len, "gconv_cross_frame_len": 1, **retired}


class TestLegacyCheckpoint:
    def test_retired_keys_at_their_only_value_load_bit_identical(self, tmp_path):
        model = build(dataclasses.replace(TINY, seed=61))
        save_checkpoint(model, tmp_path / "new.ckpt")  # the helper writes the layout save_checkpoint does
        assert (tmp_path / "new.ckpt").read_bytes() == checkpoint_bytes(model.config.to_dict(),
                                                                         model.params.flat_values())
        path = tmp_path / "old.ckpt"
        path.write_bytes(checkpoint_bytes(legacy_config(model.config), model.params.flat_values()))
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        mixtures = [Waveform(np.random.default_rng(62 + b).normal(size=101) * 0.3, 8000) for b in range(2)]
        for outs_got, outs_want in zip(loaded.forward_batch(mixtures), model.forward_batch(mixtures)):
            for got, want in zip(outs_got, outs_want):
                assert np.array_equal(got.value, want.value)

    @pytest.mark.parametrize("key,value", [("first_kernel_len", 8), ("first_kernel_len", 80),
                                           ("gconv_cross_frame_len", 3), ("gconv_cross_frame_len", 1.0)])
    def test_retired_key_at_another_value_rejected(self, tmp_path, key, value):
        model = build(TINY)
        path = tmp_path / "old.ckpt"
        path.write_bytes(checkpoint_bytes(legacy_config(model.config, **{key: value}), model.params.flat_values()))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("dnn_width", 8.0), ("dnn_width", True), ("dnn_width", "8"),
                                           ("dnn_width", None), ("seed", -1)])
    def test_bad_config_value_rejected(self, tmp_path, key, value):
        model = build(TINY)
        path = tmp_path / "m.ckpt"
        cfg = {**model.config.to_dict(), key: value}
        path.write_bytes(checkpoint_bytes(cfg, model.params.flat_values()))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)


FUZZ_MODEL = build(dataclasses.replace(TINY, seed=71))
FUZZ_BLOB = checkpoint_bytes(FUZZ_MODEL.config.to_dict(), FUZZ_MODEL.params.flat_values())
(FUZZ_CFG_LEN,) = struct.unpack_from("<I", FUZZ_BLOB, 12)
# header fields as (offset, struct format): version, config length, parameter count
FUZZ_FIELDS = {"version": (8, "<I"), "cfg_len": (12, "<I"), "count": (16 + FUZZ_CFG_LEN, "<Q")}
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCheckpointFuzz:
    """Damaged files raise CheckpointError, never another error or a wrong model."""

    @staticmethod
    def load(path, blob):
        path.write_bytes(blob)
        return load_checkpoint(path)

    @FUZZ
    @given(cut=st.integers(min_value=0, max_value=len(FUZZ_BLOB) - 1), recompute_crc=st.booleans())
    @example(cut=16 + FUZZ_CFG_LEN + 8, recompute_crc=True)  # valid CRC, body ends inside the count field
    def test_truncation_at_any_offset_rejected(self, tmp_path, cut, recompute_crc):
        # with recompute_crc the cut file still ends in a valid CRC, taken over the cut - 4 bytes before it;
        # sealing all of FUZZ_BLOB[:-4] instead would give back the intact file at cut = len(FUZZ_BLOB) - 4
        blob = with_crc(FUZZ_BLOB[:cut - 4]) if recompute_crc and cut >= 4 else FUZZ_BLOB[:cut]
        with pytest.raises(CheckpointError):
            self.load(tmp_path / "m.ckpt", blob)

    @FUZZ
    @given(bit=st.integers(min_value=0, max_value=8 * len(FUZZ_BLOB) - 1))
    def test_single_bit_flip_rejected(self, tmp_path, bit):
        blob = bytearray(FUZZ_BLOB)
        blob[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CheckpointError):
            self.load(tmp_path / "m.ckpt", bytes(blob))

    @FUZZ
    @given(field=st.sampled_from(sorted(FUZZ_FIELDS)),
           shift=st.integers(min_value=-2, max_value=2) | st.integers(min_value=0, max_value=2**64 - 1))
    def test_lying_header_field_rejected_or_harmless(self, tmp_path, field, shift):
        offset, fmt = FUZZ_FIELDS[field]
        body = bytearray(FUZZ_BLOB[:-4])
        truth = struct.unpack_from(fmt, body, offset)[0]
        value = (truth + shift) % (1 << (8 * struct.calcsize(fmt)))
        struct.pack_into(fmt, body, offset, value)
        try:
            loaded = self.load(tmp_path / "m.ckpt", with_crc(bytes(body)))
        except CheckpointError:
            return
        assert value == truth
        assert loaded.config == FUZZ_MODEL.config
        assert np.array_equal(loaded.params.flat_values(), FUZZ_MODEL.params.flat_values())


class TestGraphLifetime:
    def test_training_graph_freed_without_cyclic_gc(self):
        model = build(TINY)
        loss = batch_loss(model, [random_example(40)])
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
