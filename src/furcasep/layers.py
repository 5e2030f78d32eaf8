"""Differentiable building blocks: gated 1-D convolution (GLU), layer
normalization, bidirectional LSTM with hand-rolled backpropagation through
time, dense layers, a differentiable overlap-add, and the permutation-invariant
utterance-SDR loss head.

Layers create their weights at zero. reset(rng) draws them in place by the
uniform fan-in rule and sets every bias and gain to its initial constant; a
model loaded from a checkpoint is filled from the file and draws nothing.

Sequence tensors are time-major: an [T*B x F] matrix stores step t of batch
element b at row t*B + b. Non-recurrent layers are row-wise and do not care.

The BiLSTM runs both directions in one fused op, lstm_sequence. Its inputs
stack the two directions side by side: the pre-activation is [T*B x 8H] with
the forward direction's gate columns first, the recurrent matrix is [2H x 4H]
with the forward rows on top, and the output is [T*B x 2H], forward hidden
state first. Within a direction the gate columns are ordered input, forget,
output, cell candidate (i, f, o, g). Inside the time loop the gates are laid
out gate-major, [gate, direction, batch, H], so every elementwise op works on
a contiguous block. The i/f/o weights and inputs are negated once per call,
which is exact, so the sigmoid is exp, +1 and reciprocal with no per-step
negation. Forward-only passes (ad.no_grad()) keep LSTM_BLOCK_STEPS steps of
gate, cell and hidden state rather than every step.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Node, ParamStore
from .metrics import best_permutation, check_source_count
from .signal import _overlap_add_padded, overlap_count

LOSS_ENERGY_EPS = 1e-8  # denominator guard inside the differentiable SDR
LAYER_NORM_EPS = 1e-5  # variance guard of layer_norm_rows
LSTM_BLOCK_STEPS = 64  # steps of lstm_sequence state kept under no_grad


def uniform_init(rng: np.random.Generator, weight: np.ndarray) -> None:
    """Fill a [fan_in x fan_out] weight in place with U(-b, b) draws, b = 1/sqrt(fan_in).

    This is the one function that draws initial values; the layers' reset(rng) calls it.
    """
    bound = math.sqrt(1.0 / weight.shape[0])
    weight[...] = rng.uniform(-bound, bound, size=weight.shape)


class GConvLayer:
    """Gated 1-D convolution: out = (x*W + b) (*) sigmoid(x*W_g + b_g).

    Both paths are valid (no padding) convolutions with the same kernel shape;
    the gate path uses a sigmoid, nothing else. The caller cuts the input into
    windows, one flattened [kernel_len x in_channels] window per row (tap-major),
    so each path is one affine. Kernels are stored flattened as
    [kernel_len*in_channels x out_channels] with tap-major rows.
    """

    def __init__(self, params: ParamStore, name: str, in_channels: int, out_channels: int, kernel_len: int):
        if min(in_channels, out_channels, kernel_len) < 1:
            raise ValueError("GConvLayer: all dimensions must be positive")
        self.in_channels = in_channels
        self.kernel_len = kernel_len
        fan_in = in_channels * kernel_len
        self.w = params.add(f"{name}.w", np.zeros((fan_in, out_channels)))
        self.b = params.add(f"{name}.b", np.zeros(out_channels))
        self.w_gate = params.add(f"{name}.w_gate", np.zeros((fan_in, out_channels)))
        self.b_gate = params.add(f"{name}.b_gate", np.zeros(out_channels))

    def reset(self, rng: np.random.Generator) -> None:
        """Draw both kernels from rng, linear path first, and zero both biases."""
        uniform_init(rng, self.w.value)
        self.b.value[...] = 0.0
        uniform_init(rng, self.w_gate.value)
        self.b_gate.value[...] = 0.0

    def forward_windows(self, windows: Node) -> Node:
        """Apply both paths to rows that are already flattened conv windows."""
        if windows.value.shape[1] != self.kernel_len * self.in_channels:
            raise ValueError(
                f"GConvLayer: window width {windows.value.shape[1]} != "
                f"kernel_len*in_channels {self.kernel_len * self.in_channels}"
            )
        linear = ad.affine(windows, self.w, self.b)
        gate = ad.affine(windows, self.w_gate, self.b_gate)
        return ad.mul(linear, ad.sigmoid(gate))


def layer_norm_rows(x: Node, gain: Node, bias: Node) -> Node:
    """Per-row standardization over features, then learned gain and bias (fused op)."""
    if x.value.ndim != 2 or gain.value.shape != (x.value.shape[1],) or bias.value.shape != gain.value.shape:
        raise ValueError(
            f"layer_norm_rows: shapes x={x.value.shape}, gain={gain.value.shape}, bias={bias.value.shape}"
        )
    xv = x.value
    mu = xv.mean(axis=1, keepdims=True)
    centered = xv - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    out = Node(xhat * gain.value + bias.value, (x, gain, bias), "layer_norm_rows")

    def backward(g):
        if gain.needs_grad:
            gain.accumulate_grad((g * xhat).sum(axis=0), own=True)
        if bias.needs_grad:
            bias.accumulate_grad(g.sum(axis=0), own=True)
        if x.needs_grad:
            dxhat = g * gain.value
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            x.accumulate_grad(inv_std * (dxhat - m1 - xhat * m2), own=True)

    return ad.set_backward(out, backward)


class LayerNorm:
    def __init__(self, params: ParamStore, name: str, dim: int):
        self.gain = params.add(f"{name}.gain", np.ones(dim))
        self.bias = params.add(f"{name}.bias", np.zeros(dim))

    def reset(self, rng: np.random.Generator) -> None:
        """Back to gain 1 and bias 0; draws nothing from rng."""
        self.gain.value[...] = 1.0
        self.bias.value[...] = 0.0

    def forward(self, x: Node) -> Node:
        return layer_norm_rows(x, self.gain, self.bias)


def lstm_sequence(pre: Node, w_rec: Node, num_steps: int, batch_size: int) -> Node:
    """Bidirectional LSTM over a time-major [T*B x 8H] pre-activation matrix.

    pre already holds x_t @ W_in + b for both directions: columns [0, 4H) feed
    the forward direction, [4H, 8H) the backward one. w_rec stacks the two
    [H x 4H] recurrent matrices, forward rows over backward rows. Within each
    direction the gate columns are input, forget, output, cell candidate.
    Initial states are zero. The output is [T*B x 2H], forward hidden state
    then backward hidden state, both at the row's own time.

    Both directions advance in one loop over steps s: the forward direction
    reads time s, the backward direction time T-1-s. The step works in a
    gate-major buffer [gate, direction, batch, H], so the i/f/o slab and each
    gate are contiguous blocks. The recurrent product writes into that layout
    as one [2,B,H] @ [4,2,H,H] matmul, with the weights laid out once per call.
    The i/f/o columns of the weights and of the time-aligned input are negated
    up front, which is exact, so the sigmoid needs no per-step negation. The
    time-aligned input is built LSTM_BLOCK_STEPS steps at a time under
    ad.no_grad(), and the step state (gates, cell, hidden) is kept for one
    block only; in grad mode it is built once into the full per-step cache
    that backpropagation through time reads. No full-size copy of pre is made.

    Backward is hand-rolled BPTT over those caches. The dh recurrence and the
    recurrent weight gradient are single 4H-wide GEMMs per direction, the
    latter after the loop.
    """
    if pre.value.ndim != 2 or w_rec.value.ndim != 2:
        raise ValueError(
            f"lstm_sequence: pre-activation {pre.value.shape} and recurrent matrix {w_rec.value.shape} must be 2-D"
        )
    if num_steps < 1 or batch_size < 1:
        raise ValueError(f"lstm_sequence: num_steps {num_steps} and batch_size {batch_size} must be >= 1")
    hidden = w_rec.value.shape[1] // 4
    if w_rec.value.shape != (2 * hidden, 4 * hidden) or hidden == 0:
        raise ValueError(f"lstm_sequence: recurrent matrix shape {w_rec.value.shape} != (2H, 4H)")
    if pre.value.shape != (num_steps * batch_size, 8 * hidden):
        raise ValueError(
            f"lstm_sequence: pre-activation shape {pre.value.shape} != ({num_steps * batch_size}, {8 * hidden})"
        )
    steps, h4 = num_steps, 4 * hidden
    # time-aligned input, [step, batch, gate, H] per direction; the backward
    # direction's step s reads time T-1-s
    x_pre = pre.value.reshape(steps, batch_size, 2, 4, hidden)
    x_fwd = x_pre[:, :, 0].transpose(0, 2, 1, 3)
    x_bwd = x_pre[::-1, :, 1].transpose(0, 2, 1, 3)
    u = w_rec.value.reshape(2, hidden, h4)
    u_gate = u.reshape(2, hidden, 4, hidden).transpose(2, 0, 1, 3).copy()  # [gate, direction, H, H]
    u_gate[:3] *= -1.0
    # step-major caches [step, gate, direction, batch, H]; in grad mode they
    # span every step, under no_grad one block that the loop refills
    block = steps if ad.grad_enabled() else min(steps, LSTM_BLOCK_STEPS)
    act = np.empty((block, 4, 2, batch_size, hidden))  # time-aligned input, then post-activation gates
    cell = np.empty((block, 2, batch_size, hidden))
    tanh_c = np.empty_like(cell)
    h_all = np.empty_like(cell)
    sig_all, i_all, f_all, o_all, g_all = act[:, :3], act[:, 0], act[:, 1], act[:, 2], act[:, 3]
    rec = np.empty((4, 2, batch_size, hidden))
    tmp = np.empty((2, batch_size, hidden))
    h = np.zeros((2, batch_size, hidden))
    c = np.zeros((2, batch_size, hidden))
    out_value = np.empty((steps, batch_size, 2 * hidden))
    out_fwd = out_value[:, :, :hidden]
    out_bwd = out_value[::-1, :, hidden:]
    with np.errstate(over="ignore"):  # exp overflow saturates the sigmoid to 0, which is exact
        for s0 in range(0, steps, block):
            n = min(block, steps - s0)
            np.negative(x_fwd[s0 : s0 + n, :3], out=act[:n, :3, 0])
            np.negative(x_bwd[s0 : s0 + n, :3], out=act[:n, :3, 1])
            act[:n, 3, 0] = x_fwd[s0 : s0 + n, 3]
            act[:n, 3, 1] = x_bwd[s0 : s0 + n, 3]
            for a, sig, i, f, o, g, c_k, tanh_k, h_k in zip(
                act[:n], sig_all[:n], i_all[:n], f_all[:n], o_all[:n], g_all[:n], cell[:n], tanh_c[:n], h_all[:n]
            ):
                np.matmul(h, u_gate, out=rec)
                a += rec
                ad.sigmoid_of_negated(sig)
                np.tanh(g, out=g)
                np.multiply(f, c, out=tmp)  # reads c before c_k is overwritten
                np.multiply(i, g, out=c_k)
                c_k += tmp
                np.tanh(c_k, out=tanh_k)
                np.multiply(o, tanh_k, out=h_k)
                c, h = c_k, h_k
            out_fwd[s0 : s0 + n] = h_all[:n, 0]
            out_bwd[s0 : s0 + n] = h_all[:n, 1]
    out = Node(out_value.reshape(steps * batch_size, 2 * hidden), (pre, w_rec), "lstm_sequence")

    def backward(g):
        g_out = g.reshape(steps, batch_size, 2 * hidden)
        g_h = np.empty_like(h_all)
        g_h[:, 0] = g_out[:, :, :hidden]
        g_h[:, 1] = g_out[::-1, :, hidden:]
        d_sig = sig_all - sig_all * sig_all  # sigmoid derivatives of the i, f, o slab
        # per-gate factors that scale dc, vectorized over all steps, in the
        # [step, direction, batch, gate, H] layout of the dh GEMM; the
        # output-gate slot stays zero here and is set in the loop (it scales
        # dh), and the forget slot of step 0 stays zero (c_prev = 0)
        local = np.zeros((steps, 2, batch_size, 4, hidden))
        local[..., 0, :] = g_all * d_sig[:, 0]
        local[1:, ..., 1, :] = cell[:-1] * d_sig[1:, 1]
        local[..., 3, :] = i_all * (1.0 - g_all * g_all)
        pre_o = tanh_c * d_sig[:, 2]
        d_tanh_c = o_all * (1.0 - tanh_c * tanh_c)
        d_act = np.empty((steps, 2, batch_size, 4, hidden))
        u_t = u.transpose(0, 2, 1).copy()
        dh = np.empty((2, batch_size, hidden))
        dc = np.empty((2, batch_size, hidden))
        dh_next = np.zeros((2, batch_size, hidden))
        dc_next = np.zeros((2, batch_size, hidden))
        for s in reversed(range(steps)):
            np.add(g_h[s], dh_next, out=dh)
            np.multiply(dh, d_tanh_c[s], out=dc)
            dc += dc_next
            da = d_act[s]
            np.multiply(dc[:, :, None, :], local[s], out=da)
            np.multiply(dh, pre_o[s], out=da[:, :, 2, :])
            np.matmul(da.reshape(2, batch_size, h4), u_t, out=dh_next)
            np.multiply(dc, f_all[s], out=dc_next)
        d_act = d_act.reshape(steps, 2, batch_size, h4)
        if pre.needs_grad:
            d_pre = np.empty((steps, batch_size, 8 * hidden))
            d_pre[:, :, :h4] = d_act[:, 0]
            d_pre[:, :, h4:] = d_act[::-1, 1]
            pre.accumulate_grad(d_pre.reshape(steps * batch_size, 8 * hidden), own=True)
        if w_rec.needs_grad:
            # sum over steps s >= 1 of h_{s-1}^T @ da_s (h_{-1} = 0), one GEMM per direction
            h_rows = h_all[:-1].transpose(1, 3, 0, 2).reshape(2, hidden, (steps - 1) * batch_size)
            d_rows = d_act[1:].transpose(1, 0, 2, 3).reshape(2, (steps - 1) * batch_size, h4)
            w_rec.accumulate_grad(np.matmul(h_rows, d_rows).reshape(2 * hidden, h4), own=True)

    return ad.set_backward(out, backward)


class BiLstmLayer:
    """Forward and backward LSTM over the frame sequence (zero initial state),
    outputs concatenated [forward | backward].

    Parameters are kept per direction (fwd.w_in [in x 4H], fwd.w_rec [H x 4H],
    fwd.b [4H], then the same for bwd; gate columns i, f, o, g), which is the
    checkpoint layout. Each forward call stacks them into the fused layout of
    lstm_sequence: w_in side by side, b end to end, w_rec forward rows over
    backward rows. reset(rng) sets the forget-gate bias columns to 1.0 and
    draws the weights by the uniform fan-in rule.
    """

    DIRECTIONS = ("fwd", "bwd")

    def __init__(self, params: ParamStore, name: str, input_size: int, hidden_size: int):
        self.input_size = input_size
        self.w_in = {}
        self.w_rec = {}
        self.b = {}
        for d in self.DIRECTIONS:
            self.w_in[d] = params.add(f"{name}.{d}.w_in", np.zeros((input_size, 4 * hidden_size)))
            self.w_rec[d] = params.add(f"{name}.{d}.w_rec", np.zeros((hidden_size, 4 * hidden_size)))
            self.b[d] = params.add(f"{name}.{d}.b", np.zeros(4 * hidden_size))

    def reset(self, rng: np.random.Generator) -> None:
        """Per direction, draw w_in then w_rec from rng and set the bias (forget columns 1.0)."""
        hidden = self.w_rec["fwd"].value.shape[0]
        for d in self.DIRECTIONS:
            uniform_init(rng, self.w_in[d].value)
            uniform_init(rng, self.w_rec[d].value)
            self.b[d].value[...] = 0.0
            self.b[d].value[hidden : 2 * hidden] = 1.0

    def forward(self, x: Node, batch_size: int = 1) -> Node:
        """[T*B x input_size] time-major in, [T*B x 2*hidden_size] out."""
        rows = x.value.shape[0]
        if rows == 0 or rows % batch_size != 0:
            raise ValueError(f"BiLstmLayer: {rows} rows not divisible into batches of {batch_size}")
        if x.value.shape[1] != self.input_size:
            raise ValueError(f"BiLstmLayer: input shape {x.value.shape} != (rows, {self.input_size})")
        num_steps = rows // batch_size
        w_in = ad.concat([self.w_in[d] for d in self.DIRECTIONS], axis=1)
        b = ad.concat([self.b[d] for d in self.DIRECTIONS], axis=0)
        w_rec = ad.concat([self.w_rec[d] for d in self.DIRECTIONS], axis=0)
        return lstm_sequence(ad.affine(x, w_in, b), w_rec, num_steps, batch_size)


class DenseLayer:
    """activation(x @ W + b) per row; activation is 'relu' or 'linear'."""

    ACTIVATIONS = ("relu", "linear")

    def __init__(self, params: ParamStore, name: str, in_size: int, out_size: int, activation: str):
        if activation not in self.ACTIVATIONS:
            raise ValueError(f"DenseLayer: unknown activation '{activation}'")
        self.activation = activation
        self.w = params.add(f"{name}.w", np.zeros((in_size, out_size)))
        self.b = params.add(f"{name}.b", np.zeros(out_size))

    def reset(self, rng: np.random.Generator) -> None:
        """Draw the weight from rng and zero the bias."""
        uniform_init(rng, self.w.value)
        self.b.value[...] = 0.0

    def forward(self, x: Node) -> Node:
        y = ad.affine(x, self.w, self.b)
        return ad.relu(y) if self.activation == "relu" else y


def overlap_add_frames(frames: Node, hop: int, original_len: int) -> Node:
    """Differentiable overlap-add with per-sample averaging, truncated to original_len."""
    if frames.value.ndim != 2:
        raise ValueError(f"overlap_add_frames: 2-D frames required, got shape {frames.value.shape}")
    num, frame_len = frames.value.shape
    if hop < 1 or hop > frame_len:
        raise ValueError(f"overlap_add_frames: hop {hop} invalid for frame_len {frame_len}")
    padded = (num - 1) * hop + frame_len
    if not (1 <= original_len <= padded):
        raise ValueError(f"overlap_add_frames: original_len {original_len} outside (0, {padded}]")
    out = Node(_overlap_add_padded(frames.value, hop)[:original_len], (frames,), "overlap_add_frames")

    def backward(g):
        if frames.needs_grad:
            g_padded = np.zeros(padded)
            g_padded[:original_len] = g
            g_padded /= overlap_count(num, frame_len, hop)
            windows = np.lib.stride_tricks.sliding_window_view(g_padded, frame_len)[::hop]
            frames.accumulate_grad(windows.copy(), own=True)

    return ad.set_backward(out, backward)


def _sdr_node(target: np.ndarray, output: Node) -> Node:
    """Differentiable projection SDR in dB, denominator guarded by LOSS_ENERGY_EPS."""
    xx = float(np.dot(target, target))
    if xx == 0.0:
        raise ValueError("usdr_loss: degenerate all-zero target")
    x = ad.constant(target)
    coef = ad.mul_scalar(ad.dot(x, output), 1.0 / xx)
    error = ad.sub(ad.scale(x, coef), output)
    proj_energy = ad.mul_scalar(ad.mul(coef, coef), xx)
    err_energy = ad.add_scalar(ad.dot(error, error), LOSS_ENERGY_EPS)
    return ad.mul_scalar(ad.sub(ad.log10(proj_energy), ad.log10(err_energy)), 10.0)


def usdr_loss(targets: list[np.ndarray], outputs: list[Node]) -> Node:
    """Negative mean utterance SDR under the best output-to-target permutation.

    metrics.best_permutation picks the permutation on forward values, the same
    search pit_assign runs; gradients flow only through the selected pairs.
    """
    n = len(targets)
    check_source_count("usdr_loss", n, len(outputs))
    targets = [ad.as_tensor(t) for t in targets]
    for t in targets:
        if t.shape != outputs[0].value.shape:
            raise ValueError(f"usdr_loss: target shape {t.shape} vs output shape {outputs[0].value.shape}")
    sdr_nodes = [[_sdr_node(t, out) for out in outputs] for t in targets]
    perm, _ = best_permutation([[float(node.value) for node in row] for row in sdr_nodes])
    total = sdr_nodes[perm[0]][0]
    for j in range(1, n):
        total = ad.add(total, sdr_nodes[perm[j]][j])
    return ad.mul_scalar(total, -1.0 / n)
