import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furcasep import autodiff as ad
from furcasep import layers as ly
from furcasep.autodiff import ParamStore, backward, constant, grad_check
from furcasep.metrics import pit_assign
from furcasep.signal import FrameGeometry, Waveform, frame, overlap_add


def naive_lstm(pre, w_rec):
    """Plain-numpy unidirectional LSTM over [T x B x 4H] pre-activations, gates
    ordered input, forget, output, cell candidate; returns [T x B x H]."""
    steps, batch, four_h = pre.shape
    hidden = four_h // 4
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    out = np.empty((steps, batch, hidden))
    for t in range(steps):
        a = pre[t] + h @ w_rec
        i, f, o = (1.0 / (1.0 + np.exp(-a[:, k * hidden : (k + 1) * hidden])) for k in range(3))
        g = np.tanh(a[:, 3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def naive_bilstm(pre, w_rec, steps, batch):
    """Two independent unidirectional loops; the backward one runs on time
    reversed by slicing. Returns the fused kernel's [T*B x 2H] layout."""
    hidden = w_rec.shape[1] // 4
    x = pre.reshape(steps, batch, 8 * hidden)
    fwd = naive_lstm(x[:, :, : 4 * hidden], w_rec[:hidden])
    bwd = naive_lstm(x[::-1, :, 4 * hidden :], w_rec[hidden:])[::-1]
    return np.concatenate([fwd, bwd], axis=2).reshape(steps * batch, 2 * hidden)


def naive_gconv(x, w, b, w_gate, b_gate, kernel_len):
    """Loop-based reference for the gated convolution: valid, stride 1.
    x: [time x c_in], kernels: [kernel_len*c_in x c_out] with tap-major rows."""
    steps, c_in = x.shape
    c_out = w.shape[1]
    out_steps = steps - kernel_len + 1
    out = np.zeros((out_steps, c_out))
    for t in range(out_steps):
        window = x[t : t + kernel_len].reshape(-1)
        lin = np.zeros(c_out)
        gate = np.zeros(c_out)
        for o in range(c_out):
            for i in range(kernel_len * c_in):
                lin[o] += window[i] * w[i, o]
                gate[o] += window[i] * w_gate[i, o]
            lin[o] += b[o]
            gate[o] += b_gate[o]
        out[t] = lin / (1.0 + np.exp(-gate))
    return out


class TestGConv:
    """The model's two kernels: the first spans a whole frame of a mono signal
    (in_channels=1), so each frame is one window; later ones are pointwise
    (kernel_len=1), so each feature row is one window."""

    def make(self, c_in=1, c_out=3, kernel=8, seed=0):
        params = ParamStore()
        layer = ly.GConvLayer(params, "g", c_in, c_out, kernel)
        params.reset(np.random.default_rng(seed))
        return params, layer

    def test_zero_gate_halves_linear_path(self):
        params, layer = self.make()
        layer.w_gate.value[...] = 0.0
        layer.b_gate.value[...] = 0.0
        x = constant(np.random.default_rng(1).normal(size=(10, 8)))
        out = layer.forward_windows(x)
        linear = x.value @ layer.w.value + layer.b.value
        assert np.allclose(out.value, 0.5 * linear, atol=1e-12)

    def test_saturated_gate_passes_linear_path(self):
        params, layer = self.make()
        layer.w_gate.value[...] = 0.0
        layer.b_gate.value[...] = 20.0
        x = constant(np.random.default_rng(2).normal(size=(10, 8)))
        out = layer.forward_windows(x)
        linear = x.value @ layer.w.value + layer.b.value
        assert np.max(np.abs(out.value - linear)) < 1e-8

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_convolution(self, seed):
        rng = np.random.default_rng(seed)
        frames = rng.normal(size=(4, 9))  # 4 frames of 9 samples
        params, layer = self.make(c_in=1, kernel=9, seed=seed)
        got = layer.forward_windows(constant(frames)).value
        for t, frame_samples in enumerate(frames):
            want = naive_gconv(frame_samples[:, None], layer.w.value, layer.b.value,
                               layer.w_gate.value, layer.b_gate.value, 9)
            assert want.shape == (1, 3)
            assert np.max(np.abs(got[t] - want[0])) < 1e-12
        features = rng.normal(size=(6, 3))  # 6 steps of 3 channels
        params, layer = self.make(c_in=3, c_out=3, kernel=1, seed=seed)
        got = layer.forward_windows(constant(features)).value
        want = naive_gconv(features, layer.w.value, layer.b.value, layer.w_gate.value, layer.b_gate.value, 1)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_gradients(self):
        params, layer = self.make(seed=5)
        x = np.random.default_rng(6).normal(size=(5, 8))
        err = grad_check(lambda p: ad.mean(layer.forward_windows(constant(x))), params)
        assert err < 1e-4
        params, layer = self.make(c_in=3, kernel=1, seed=7)
        x = np.random.default_rng(8).normal(size=(5, 3))
        err = grad_check(lambda p: ad.mean(layer.forward_windows(constant(x))), params)
        assert err < 1e-4

    def test_shape_mismatch(self):
        params, layer = self.make()
        with pytest.raises(ValueError, match="window width 5"):
            layer.forward_windows(constant(np.zeros((10, 5))))


class TestLayerNorm:
    def make(self, dim=6):
        params = ParamStore()
        return params, ly.LayerNorm(params, "ln", dim)

    def test_constant_input_maps_to_zero(self):
        params, norm = self.make()
        out = norm.forward(constant(np.full((4, 6), 3.7)))
        assert np.max(np.abs(out.value)) < 1e-6

    def test_standardizes_rows(self):
        params, norm = self.make()
        x = np.random.default_rng(7).normal(loc=2.0, scale=3.0, size=(5, 6))
        out = norm.forward(constant(x)).value
        assert np.max(np.abs(out.mean(axis=1))) < 1e-9
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)  # epsilon shifts variance slightly

    def test_zero_gain_outputs_bias(self):
        params, norm = self.make()
        params.reset(np.random.default_rng(0))  # makes the vector, so the parameters are writable
        norm.gain.value[...] = 0.0
        norm.bias.value[...] = np.arange(6.0)
        out = norm.forward(constant(np.random.default_rng(8).normal(size=(3, 6))))
        assert np.array_equal(out.value, np.tile(np.arange(6.0), (3, 1)))

    def test_gradients(self):
        params, norm = self.make()
        x = np.random.default_rng(9).normal(size=(4, 6))
        err = grad_check(lambda p: ad.mean(ad.mul(norm.forward(constant(x)), norm.forward(constant(x)))), params)
        assert err < 1e-4

    def test_input_gradient(self):
        # mean of the raw output is constant in x (rows standardize to zero
        # mean), so square the output to get a non-degenerate objective
        params = ParamStore()
        norm = ly.LayerNorm(params, "ln", 5)
        params.add("x", np.random.default_rng(10).normal(size=(3, 5)))

        def f(p):
            out = norm.forward(p["x"])
            return ad.mean(ad.mul(out, out))

        assert grad_check(f, params) < 1e-4


class TestBiLstm:
    def make(self, input_size=3, hidden=4, seed=0):
        params = ParamStore()
        layer = ly.BiLstmLayer(params, "lstm", input_size, hidden)
        params.reset(np.random.default_rng(seed))
        return params, layer

    def test_zero_weights_zero_output(self):
        params, layer = self.make()
        for node in params.nodes():
            node.value[...] = 0.0
        out = layer.forward(constant(np.random.default_rng(11).normal(size=(6, 3))))
        assert np.array_equal(out.value, np.zeros((6, 8)))

    def test_output_width_is_twice_hidden(self):
        params, layer = self.make(hidden=5)
        out = layer.forward(constant(np.zeros((4, 3))))
        assert out.value.shape == (4, 10)

    def test_forget_bias_initialized_to_one(self):
        params, layer = self.make(hidden=4)
        for direction in ("fwd", "bwd"):
            b = layer.b[direction].value
            assert np.array_equal(b[4:8], np.ones(4))
            assert np.array_equal(b[:4], np.zeros(4))
            assert np.array_equal(b[8:], np.zeros(8))

    def test_time_reversal_symmetry_with_shared_weights(self):
        params, layer = self.make(seed=12)
        for name in ("w_in", "w_rec", "b"):
            getattr(layer, name)["bwd"].value[...] = getattr(layer, name)["fwd"].value
        x = np.random.default_rng(13).normal(size=(7, 3))
        out_fwd_on_reversed = layer.forward(constant(x[::-1].copy())).value[:, :4]
        out_bwd_on_original = layer.forward(constant(x)).value[:, 4:]
        assert np.allclose(out_fwd_on_reversed, out_bwd_on_original[::-1], atol=1e-12)

    def test_gradients_three_steps(self):
        params, layer = self.make(seed=14)
        x = np.random.default_rng(15).normal(size=(3, 3))
        err = grad_check(lambda p: ad.mean(layer.forward(constant(x))), params)
        assert err < 1e-4

    def test_gradients_through_input(self):
        params = ParamStore()
        layer = ly.BiLstmLayer(params, "lstm", 3, 4)
        params.add("x", np.random.default_rng(17).normal(size=(4, 3)))  # before reset makes the vector
        params.reset(np.random.default_rng(16))
        err = grad_check(lambda p: ad.mean(layer.forward(p["x"])), params)
        assert err < 1e-4

    def test_batched_matches_loop(self):
        params, layer = self.make(seed=18)
        rng = np.random.default_rng(19)
        seqs = [rng.normal(size=(5, 3)) for _ in range(3)]
        # batch: time-major interleave
        stacked = np.empty((15, 3))
        for b, s in enumerate(seqs):
            stacked[b::3] = s
        batched = layer.forward(constant(stacked), batch_size=3).value
        for b, s in enumerate(seqs):
            single = layer.forward(constant(s), batch_size=1).value
            assert np.allclose(batched[b::3], single, atol=1e-12)

    def test_parameter_names_and_order(self):
        params = ParamStore()
        ly.BiLstmLayer(params, "l", 3, 4)
        assert params.names() == ["l.fwd.w_in", "l.fwd.w_rec", "l.fwd.b", "l.bwd.w_in", "l.bwd.w_rec", "l.bwd.b"]
        assert [params[n].value.shape for n in params.names()] == [(3, 16), (4, 16), (16,)] * 2

    def test_empty_sequence_rejected(self):
        params, layer = self.make()
        with pytest.raises(ValueError):
            layer.forward(constant(np.zeros((0, 3))))


BLOCK = ly.LSTM_BLOCK_STEPS
# lengths around the block boundary: short, one before, on, one after a
# boundary, and several blocks later
LSTM_STEPS = [1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def lstm_inputs(rng, steps, batch, hidden, features=3):
    """Random lstm_sequence operands: x [T*B x F], w_in [F x 8H], b [8H], w_rec [2H x 4H]."""
    x = rng.normal(size=(steps * batch, features))
    w_in = rng.normal(size=(features, 8 * hidden))
    b = rng.normal(size=8 * hidden)
    w_rec = rng.normal(scale=0.5, size=(2 * hidden, 4 * hidden))
    return x, w_in, b, w_rec


class TestLstmSequence:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("steps", LSTM_STEPS)
    def test_matches_two_unidirectional_loops(self, steps, batch):
        rng = np.random.default_rng(100 + 10 * steps + batch)
        hidden = 4
        x, w_in, b, w_rec = lstm_inputs(rng, steps, batch, hidden)
        got = ly.lstm_sequence(constant(x), constant(w_in), constant(b), constant(w_rec), steps, batch).value
        assert got.shape == (steps * batch, 2 * hidden)
        assert np.max(np.abs(got - naive_bilstm(x @ w_in + b, w_rec, steps, batch))) < 1e-12

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("steps", LSTM_STEPS)
    def test_no_grad_bit_identical_and_detached(self, steps, batch):
        rng = np.random.default_rng(200 + 10 * steps + batch)
        operands = [ad.parameter(v) for v in lstm_inputs(rng, steps, batch, 4)]
        want = ly.lstm_sequence(*operands, steps, batch)
        with ad.no_grad():
            got = ly.lstm_sequence(*operands, steps, batch)
        assert np.array_equal(got.value, want.value)
        assert got.parents == () and got._backward is None
        assert want.parents == tuple(operands)

    def test_desk_shape(self):
        steps, batch, features, hidden = 199, 8, 32, 64
        rng = np.random.default_rng(300)
        x = constant(rng.normal(size=(steps * batch, features)))
        w_in = constant(rng.uniform(-0.5, 0.5, size=(features, 8 * hidden)))
        b = constant(rng.normal(size=8 * hidden))
        w_rec = constant(rng.uniform(-0.125, 0.125, size=(2 * hidden, 4 * hidden)))
        want = ly.lstm_sequence(x, w_in, b, w_rec, steps, batch).value
        pre = x.value @ w_in.value + b.value
        assert np.max(np.abs(want - naive_bilstm(pre, w_rec.value, steps, batch))) < 1e-12
        with ad.no_grad():
            assert np.array_equal(ly.lstm_sequence(x, w_in, b, w_rec, steps, batch).value, want)

    def test_no_grad_memory_bounded(self):
        # under no_grad the kernel keeps one block of step state and never
        # makes the [T x 8H] pre-activation: beyond its output it allocates
        # less than a quarter of that pre-activation's bytes (one full
        # [T x 2H] hidden-state cache alone would be that quarter)
        steps, features, hidden = 3199, 32, 64
        rng = np.random.default_rng(301)
        x = constant(rng.normal(size=(steps, features)))
        w_in = constant(rng.uniform(-0.25, 0.25, size=(features, 8 * hidden)))
        b = constant(rng.normal(size=8 * hidden))
        w_rec = constant(rng.uniform(-0.125, 0.125, size=(2 * hidden, 4 * hidden)))
        pre_bytes = steps * 8 * hidden * 8
        tracemalloc.start()
        try:
            with ad.no_grad():
                out = ly.lstm_sequence(x, w_in, b, w_rec, steps, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.value.nbytes < pre_bytes / 4

    def test_grad_mode_keeps_gates_and_entry_cells_only(self):
        # with the output node alive, a grad-mode BiLSTM layer keeps its
        # output, the [T x 8H] gate cache and the cell entering each block;
        # one block of step buffers (cell, tanh(c), hidden state, projection)
        # is the slack, and it covers the stacked weights. Beyond those
        # T-sized terms nothing grows with T, kept or at the peak, so a
        # [T x 2H] cell cache fails even if only the forward allocates it.
        batch, features, hidden = 2, 8, 16
        one_block = BLOCK * batch * (2 * hidden + 2 * hidden + 2 * hidden + 4 * hidden) * 8
        extra = []
        for steps in (3 * BLOCK + 5, 8 * BLOCK + 5):
            params = ParamStore()
            layer = ly.BiLstmLayer(params, "lstm", features, hidden)
            params.reset(np.random.default_rng(302))
            x = constant(np.random.default_rng(303).normal(size=(steps * batch, features)))
            tracemalloc.start()
            try:
                out = layer.forward(x, batch_size=batch)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            gates = steps * batch * 8 * hidden * 8
            entry_cells = -(-steps // BLOCK) * batch * 2 * hidden * 8
            assert out.value.nbytes == steps * batch * 2 * hidden * 8
            held = out.value.nbytes + gates + entry_cells
            assert kept <= held + one_block
            extra.append((kept - held, peak - held))
        cell_growth = 5 * BLOCK * batch * 2 * hidden * 8  # a [T x 2H] cache's growth from 3 to 8 blocks
        (kept_short, peak_short), (kept_long, peak_long) = extra
        assert kept_long - kept_short < cell_growth / 4
        assert peak_long - peak_short < cell_growth / 4

    def test_gradients(self):
        # (seed, steps, batch, hidden, features): within one block, and one
        # step past a block, where BPTT recomputes the one-step last block's
        # cells from the cell that entered it
        for seed, steps, batch, hidden, features in ((101, 4, 2, 3, 3), (106, BLOCK + 1, 2, 2, 2)):
            rng = np.random.default_rng(seed)
            params = ParamStore()
            for name, value in zip(("x", "w_in", "b", "w_rec"), lstm_inputs(rng, steps, batch, hidden, features)):
                params.add(name, value)
            weights = constant(rng.normal(size=(steps * batch, 2 * hidden)))

            def f(p):
                out = ly.lstm_sequence(p["x"], p["w_in"], p["b"], p["w_rec"], steps, batch)
                return ad.mean(ad.mul(out, weights))

            assert grad_check(f, params) < 1e-4

    def test_repeated_backward_doubles_gradients(self):
        # the second case has three whole blocks and a partial one: the second
        # pass recomputes every block's cells again from the same entry cells
        for seed, steps, batch, hidden, features in ((102, 9, 3, 4, 3), (107, 3 * BLOCK + 5, 2, 3, 2)):
            rng = np.random.default_rng(seed)
            operands = [ad.parameter(v) for v in lstm_inputs(rng, steps, batch, hidden, features)]
            weights = constant(rng.normal(size=(steps * batch, 2 * hidden)))
            out = ly.lstm_sequence(*operands, steps, batch)
            loss = ad.mean(ad.mul(out, weights))
            backward(loss)
            first = [node.grad.copy() for node in operands]
            assert out.grad is None
            backward(loss)
            for node, grad in zip(operands, first):
                assert np.array_equal(node.grad, 2 * grad)

    def test_wrong_pre_shape_rejected(self):
        # operands whose projection x @ w_in + b is not [T*B x 8H]
        x, w_in, b, w_rec = (constant(v) for v in lstm_inputs(np.random.default_rng(103), 3, 2, 4))
        bad = [
            (constant(np.zeros((5, 3))), w_in, b),  # rows != T*B
            (x, constant(w_in.value[:, :16]), b),  # one direction's columns only
            (x, constant(np.zeros((4, 32))), b),  # w_in rows != input features
            (x, w_in, constant(np.zeros(16))),  # one direction's bias only
        ]
        for xi, wi, bi in bad:
            with pytest.raises(ValueError, match="pre-activation shape"):
                ly.lstm_sequence(xi, wi, bi, w_rec, 3, 2)

    def test_wrong_w_rec_shape_rejected(self):
        x, w_in, b, _ = (constant(v) for v in lstm_inputs(np.random.default_rng(104), 3, 2, 4))
        with pytest.raises(ValueError, match="recurrent matrix shape"):
            ly.lstm_sequence(x, w_in, b, constant(np.zeros((4, 16))), 3, 2)  # one direction's rows only
        with pytest.raises(ValueError, match="recurrent matrix shape"):
            ly.lstm_sequence(x, w_in, b, constant(np.zeros((8, 8))), 3, 2)

    def test_non_matrix_inputs_rejected(self):
        x, w_in, b, w_rec = (constant(v) for v in lstm_inputs(np.random.default_rng(105), 3, 2, 4))
        with pytest.raises(ValueError, match="must be 2-D"):
            ly.lstm_sequence(x, w_in, b, constant(np.zeros(16)), 3, 2)
        with pytest.raises(ValueError, match="must be 2-D"):
            ly.lstm_sequence(constant(np.zeros((3, 2, 3))), w_in, b, w_rec, 3, 2)
        with pytest.raises(ValueError, match="must be 2-D"):
            ly.lstm_sequence(x, constant(np.zeros(32)), b, w_rec, 3, 2)

    @pytest.mark.parametrize("steps, batch", [(0, 2), (3, 0), (-1, 2)])
    def test_empty_steps_or_batch_rejected(self, steps, batch):
        with pytest.raises(ValueError, match="must be >= 1"):
            ly.lstm_sequence(constant(np.zeros((0, 3))), constant(np.zeros((3, 32))), constant(np.zeros(32)),
                             constant(np.zeros((8, 16))), steps, batch)


class TestDense:
    def test_identity_weight_linear(self):
        params = ParamStore()
        layer = ly.DenseLayer(params, "d", 4, 4, "linear")
        params.reset(np.random.default_rng(0))  # makes the vector, so the parameters are writable
        layer.w.value[...] = np.eye(4)
        layer.b.value[...] = 0.0
        x = np.random.default_rng(20).normal(size=(5, 4))
        assert np.array_equal(layer.forward(constant(x)).value, x)

    def test_relu_zeroes_negative_preactivations(self):
        params = ParamStore()
        layer = ly.DenseLayer(params, "d", 3, 2, "relu")
        params.reset(np.random.default_rng(0))  # makes the vector, so the parameters are writable
        layer.w.value[...] = 0.0
        layer.b.value[...] = [-1.0, -2.0]
        out = layer.forward(constant(np.random.default_rng(21).normal(size=(4, 3))))
        assert np.array_equal(out.value, np.zeros((4, 2)))

    def test_matches_matrix_multiply(self):
        params = ParamStore()
        layer = ly.DenseLayer(params, "d", 3, 5, "linear")
        params.reset(np.random.default_rng(2))
        x = np.random.default_rng(22).normal(size=(6, 3))
        want = x @ layer.w.value + layer.b.value
        assert np.max(np.abs(layer.forward(constant(x)).value - want)) < 1e-12

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            ly.DenseLayer(ParamStore(), "d", 3, 3, "gelu")

    def test_gradients(self):
        params = ParamStore()
        layer = ly.DenseLayer(params, "d", 3, 2, "relu")
        params.reset(np.random.default_rng(3))
        x = np.random.default_rng(23).normal(size=(4, 3)) + 0.5
        assert grad_check(lambda p: ad.mean(layer.forward(constant(x))), params) < 1e-4


class TestOverlapAddFrames:
    def test_matches_signal_overlap_add(self):
        rng = np.random.default_rng(24)
        w = Waveform(rng.normal(size=333), 8000)
        for hop in (40, 1, 80):  # hop = 1 and hop = frame_len are the bounds ModelConfig accepts
            fm = frame(w, FrameGeometry(80, hop))
            node = ly.overlap_add_frames(constant(fm.frames), hop, 333)
            assert np.array_equal(node.value, overlap_add(fm).samples), hop
            assert np.array_equal(node.value, w.samples), hop

    def test_gradients(self):
        params = ParamStore()
        params.add("frames", np.random.default_rng(25).normal(size=(4, 6)))
        for hop, original_len in ((3, 14), (1, 8), (6, 23)):  # hop = 1 and hop = frame_len as above
            err = grad_check(lambda p: ad.mean(ly.overlap_add_frames(p["frames"], hop, original_len)), params)
            assert err < 1e-4, hop

    def test_gradients_frame_len_not_multiple_of_hop(self):
        params = ParamStore()
        params.add("frames", np.random.default_rng(32).normal(size=(5, 7)))
        weights = constant(np.random.default_rng(33).normal(size=17))
        err = grad_check(lambda p: ad.dot(ly.overlap_add_frames(p["frames"], 3, 17), weights), params)
        assert err < 1e-4

    def test_gradient_of_truncated_region_is_zero(self):
        params = ParamStore()
        frames = params.add("frames", np.random.default_rng(26).normal(size=(2, 4)))
        out = ly.overlap_add_frames(frames, 2, 3)  # padded length 6, keep 3
        backward(ad.mean(out))
        assert np.all(frames.grad[1, 2:] == 0)  # samples 4..5 are truncated

    def test_validation(self):
        with pytest.raises(ValueError):
            ly.overlap_add_frames(constant(np.zeros((2, 4))), 5, 3)
        with pytest.raises(ValueError):
            ly.overlap_add_frames(constant(np.zeros((2, 4))), 2, 99)


class TestUsdrLoss:
    def test_swapped_exact_targets_guarded_value(self):
        rng = np.random.default_rng(27)
        t1, t2 = rng.normal(size=100), rng.normal(size=100)
        outputs = [constant(t2), constant(t1)]
        loss = ly.usdr_loss([t1, t2], outputs)
        want = -0.5 * sum(10.0 * np.log10(np.dot(t, t) / ly.LOSS_ENERGY_EPS) for t in (t1, t2))
        assert float(loss.value) == pytest.approx(want, rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_forward_agrees_with_metrics_path(self, seed, n_sources):
        rng = np.random.default_rng(seed)
        # unit-scale signals of realistic length: energies >> eps, guard negligible
        targets = [rng.normal(size=400) for _ in range(n_sources)]
        outputs = [rng.normal(size=400) for _ in range(n_sources)]
        loss = ly.usdr_loss(targets, [constant(o) for o in outputs])
        pit = pit_assign(targets, outputs)
        assert float(loss.value) == pytest.approx(pit.loss, abs=1e-9)

    @staticmethod
    def loss_under(targets, outputs, perm):
        """The value usdr_loss reports when it picks perm (same pair nodes, same sums)."""
        pairs = [float(ly._sdr_node(targets[perm[j]], constant(o)).value) for j, o in enumerate(outputs)]
        return sum(pairs) * (-1.0 / len(pairs))

    def test_selected_permutation_matches_metrics(self):
        rng = np.random.default_rng(28)
        targets = [rng.normal(size=200) for _ in range(2)]
        near_swap = [targets[1] + 0.5 * rng.normal(size=200), targets[0] + 0.5 * rng.normal(size=200)]
        loss = ly.usdr_loss(targets, [constant(o) for o in near_swap])
        pit = pit_assign(targets, near_swap)
        assert pit.permutation == (1, 0)
        assert float(loss.value) == self.loss_under(targets, near_swap, (1, 0))
        assert float(loss.value) != self.loss_under(targets, near_swap, (0, 1))
        assert float(loss.value) == pytest.approx(pit.loss, abs=1e-9)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_rescaling_outputs_keeps_permutation(self, gain):
        rng = np.random.default_rng(29)
        targets = [rng.normal(size=150) for _ in range(2)]
        outputs = [rng.normal(size=150) for _ in range(2)]
        perm = pit_assign(targets, outputs).permutation
        for outs in (outputs, [gain * o for o in outputs]):
            loss = ly.usdr_loss(targets, [constant(o) for o in outs])
            assert float(loss.value) == self.loss_under(targets, outs, perm)

    def test_gradients_flow_only_through_selected_pairs(self):
        rng = np.random.default_rng(30)
        targets = [rng.normal(size=60) for _ in range(2)]
        outputs = [ad.parameter(targets[1] + 0.2 * rng.normal(size=60)),
                   ad.parameter(targets[0] + 0.2 * rng.normal(size=60))]
        loss = ly.usdr_loss(targets, outputs)
        backward(loss)
        assert outputs[0].grad is not None and outputs[1].grad is not None

    def test_gradient_check_toy_scale(self):
        rng = np.random.default_rng(31)
        targets = [rng.normal(size=40) for _ in range(2)]
        params = ParamStore()
        params.add("o1", rng.normal(size=40))
        params.add("o2", rng.normal(size=40))
        err = grad_check(lambda p: ly.usdr_loss(targets, [p["o1"], p["o2"]]), params)
        assert err < 1e-4

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="all-zero target"):
            ly.usdr_loss([np.zeros(10), np.ones(10)], [constant(np.ones(10))] * 2)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="targets vs"):
            ly.usdr_loss([np.ones(10)] * 3, [constant(np.ones(10))] * 2)

    def test_too_many_sources_rejected_before_building_pairs(self, monkeypatch):
        def no_pairs(*args):
            raise AssertionError("pair node built")

        monkeypatch.setattr(ly, "_sdr_node", no_pairs)
        with pytest.raises(ValueError, match="at most 8"):
            ly.usdr_loss([np.ones(10)] * 9, [constant(np.ones(10))] * 9)
