"""Differentiable building blocks: gated 1-D convolution (GLU), layer
normalization, bidirectional LSTM with hand-rolled backpropagation through
time, dense layers, a differentiable overlap-add, and the permutation-invariant
utterance-SDR loss head.

Sequence tensors are time-major: an [T*B x F] matrix stores step t of batch
element b at row t*B + b. Non-recurrent layers are row-wise and do not care.

The BiLSTM runs both directions in one fused op, lstm_sequence. Its inputs
stack the two directions side by side: the pre-activation is [T*B x 8H] with
the forward direction's gate columns first, the recurrent matrix is [2H x 4H]
with the forward rows on top, and the output is [T*B x 2H], forward hidden
state first. Within a direction the gate columns are ordered input, forget,
output, cell candidate (i, f, o, g).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Node, ParamStore
from .signal import _overlap_add_padded, overlap_count

LOSS_ENERGY_EPS = 1e-8  # denominator guard inside the differentiable SDR


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class GConvLayer:
    """Gated 1-D convolution: out = (x*W + b) (*) sigmoid(x*W_g + b_g).

    Both paths are valid (no padding) convolutions with the same kernel shape
    and stride; the gate path uses a sigmoid, nothing else. Kernels are stored
    flattened as [kernel_len*in_channels x out_channels] with tap-major rows.
    """

    def __init__(self, params: ParamStore, name: str, in_channels: int, out_channels: int,
                 kernel_len: int, stride: int = 1, rng: np.random.Generator | None = None):
        if min(in_channels, out_channels, kernel_len, stride) < 1:
            raise ValueError("GConvLayer: all dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_len = kernel_len
        self.stride = stride
        fan_in = in_channels * kernel_len
        self.w = params.add(f"{name}.w", uniform_init(rng, fan_in, (fan_in, out_channels)))
        self.b = params.add(f"{name}.b", np.zeros(out_channels))
        self.w_gate = params.add(f"{name}.w_gate", uniform_init(rng, fan_in, (fan_in, out_channels)))
        self.b_gate = params.add(f"{name}.b_gate", np.zeros(out_channels))

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

    def forward(self, x: Node) -> Node:
        """Convolve a [time x in_channels] input; output [out_time x out_channels]."""
        if x.value.ndim != 2 or x.value.shape[1] != self.in_channels:
            raise ValueError(f"GConvLayer: input shape {x.value.shape} != (time, {self.in_channels})")
        steps = x.value.shape[0]
        if steps < self.kernel_len:
            raise ValueError(f"GConvLayer: input shape {x.value.shape} shorter than kernel {self.kernel_len}")
        out_steps = (steps - self.kernel_len) // self.stride + 1
        rows = (np.arange(out_steps) * self.stride)[:, None] + np.arange(self.kernel_len)[None, :]
        windows = ad.reshape(ad.gather_rows(x, rows.reshape(-1)), (out_steps, self.kernel_len * self.in_channels))
        return self.forward_windows(windows)


def layer_norm_rows(x: Node, gain: Node, bias: Node, eps: float = 1e-5) -> Node:
    """Per-row standardization over features, then learned gain and bias (fused op)."""
    if x.value.ndim != 2 or gain.value.shape != (x.value.shape[1],) or bias.value.shape != gain.value.shape:
        raise ValueError(
            f"layer_norm_rows: shapes x={x.value.shape}, gain={gain.value.shape}, bias={bias.value.shape}"
        )
    xv = x.value
    mu = xv.mean(axis=1, keepdims=True)
    centered = xv - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
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
    def __init__(self, params: ParamStore, name: str, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps
        self.gain = params.add(f"{name}.gain", np.ones(dim))
        self.bias = params.add(f"{name}.bias", np.zeros(dim))

    def forward(self, x: Node) -> Node:
        return layer_norm_rows(x, self.gain, self.bias, self.eps)


def lstm_sequence(pre: Node, w_rec: Node, num_steps: int, batch_size: int) -> Node:
    """Bidirectional LSTM over a time-major [T*B x 8H] pre-activation matrix.

    pre already holds x_t @ W_in + b for both directions: columns [0, 4H) feed
    the forward direction, [4H, 8H) the backward one. w_rec stacks the two
    [H x 4H] recurrent matrices, forward rows over backward rows. Within each
    direction the gate columns are input, forget, output, cell candidate (the
    three sigmoids form one contiguous slab). Initial states are zero.

    Both directions advance in one loop over steps s: the forward direction
    reads time s, the backward direction time T-1-s, through stacked
    [2,B,H] @ [2,H,4H] products. The output is [T*B x 2H], forward hidden
    state then backward hidden state, both at the row's own time. Backward is
    hand-rolled BPTT over the cached per-step activations; the recurrent
    weight gradient is one GEMM per direction after the loop.
    """
    hidden = w_rec.value.shape[1] // 4
    if w_rec.value.shape != (2 * hidden, 4 * hidden) or hidden == 0:
        raise ValueError(f"lstm_sequence: recurrent matrix shape {w_rec.value.shape} != (2H, 4H)")
    if pre.value.shape != (num_steps * batch_size, 8 * hidden):
        raise ValueError(
            f"lstm_sequence: pre-activation shape {pre.value.shape} != ({num_steps * batch_size}, {8 * hidden})"
        )
    steps, h4 = num_steps, 4 * hidden
    x_pre = pre.value.reshape(steps, batch_size, 8 * hidden)
    x_fwd = x_pre[:, :, :h4]
    x_bwd = x_pre[::-1, :, h4:]  # step s of the backward direction reads time T-1-s
    u = w_rec.value.reshape(2, hidden, h4)
    # per-step caches, step-major: [step, direction, batch, feature]
    act = np.empty((steps, 2, batch_size, h4))  # post-activation gates
    cell = np.empty((steps, 2, batch_size, hidden))
    tanh_c = np.empty_like(cell)
    h_all = np.empty_like(cell)
    tmp = np.empty((2, batch_size, hidden))
    h = np.zeros((2, batch_size, hidden))
    c = np.zeros((2, batch_size, hidden))
    with np.errstate(over="ignore"):  # exp overflow saturates the sigmoid to 0, which is exact
        for s in range(steps):
            a = act[s]
            np.matmul(h, u, out=a)
            a[0] += x_fwd[s]
            a[1] += x_bwd[s]
            sig = a[:, :, : 3 * hidden]
            np.negative(sig, out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.reciprocal(sig, out=sig)
            np.tanh(a[:, :, 3 * hidden :], out=a[:, :, 3 * hidden :])
            np.multiply(a[:, :, hidden : 2 * hidden], c, out=tmp)
            np.multiply(a[:, :, :hidden], a[:, :, 3 * hidden :], out=cell[s])
            cell[s] += tmp
            c = cell[s]
            np.tanh(c, out=tanh_c[s])
            np.multiply(a[:, :, 2 * hidden : 3 * hidden], tanh_c[s], out=h_all[s])
            h = h_all[s]
    out_value = np.empty((steps, batch_size, 2 * hidden))
    out_value[:, :, :hidden] = h_all[:, 0]
    out_value[:, :, hidden:] = h_all[::-1, 1]
    out = Node(out_value.reshape(steps * batch_size, 2 * hidden), (pre, w_rec), "lstm_sequence")

    def backward(g):
        g_out = g.reshape(steps, batch_size, 2 * hidden)
        g_h = np.empty_like(h_all)
        g_h[:, 0] = g_out[:, :, :hidden]
        g_h[:, 1] = g_out[::-1, :, hidden:]
        i_all = act[..., :hidden]
        f_all = act[..., hidden : 2 * hidden]
        o_all = act[..., 2 * hidden : 3 * hidden]
        g_all = act[..., 3 * hidden :]
        sig = act[..., : 3 * hidden]
        d_sig = sig - sig * sig  # sigmoid derivatives of the i, f, o slab
        # per-gate factors that scale dc, vectorized over all steps, in gate
        # order; the output-gate slot stays zero here and is set in the loop
        # (it scales dh), and the forget slot of step 0 stays zero (c_prev = 0)
        local = np.zeros((steps, 2, batch_size, 4, hidden))
        local[..., 0, :] = g_all * d_sig[..., :hidden]
        local[1:, ..., 1, :] = cell[:-1] * d_sig[1:, ..., hidden : 2 * hidden]
        local[..., 3, :] = i_all * (1.0 - g_all * g_all)
        pre_o = tanh_c * d_sig[..., 2 * hidden :]
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
    backward rows. Forget-gate bias columns start at 1.0; everything else
    follows the uniform fan-in rule.
    """

    DIRECTIONS = ("fwd", "bwd")

    def __init__(self, params: ParamStore, name: str, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_in = {}
        self.w_rec = {}
        self.b = {}
        for direction in self.DIRECTIONS:
            self.w_in[direction] = params.add(
                f"{name}.{direction}.w_in", uniform_init(rng, input_size, (input_size, 4 * hidden_size))
            )
            self.w_rec[direction] = params.add(
                f"{name}.{direction}.w_rec", uniform_init(rng, hidden_size, (hidden_size, 4 * hidden_size))
            )
            bias = np.zeros(4 * hidden_size)
            bias[hidden_size : 2 * hidden_size] = 1.0
            self.b[direction] = params.add(f"{name}.{direction}.b", bias)

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

    def __init__(self, params: ParamStore, name: str, in_size: int, out_size: int,
                 activation: str = "relu", rng: np.random.Generator | None = None):
        if activation not in self.ACTIVATIONS:
            raise ValueError(f"DenseLayer: unknown activation '{activation}'")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_size = in_size
        self.out_size = out_size
        self.activation = activation
        self.w = params.add(f"{name}.w", uniform_init(rng, in_size, (in_size, out_size)))
        self.b = params.add(f"{name}.b", np.zeros(out_size))

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


def _sdr_node(target: np.ndarray, output: Node, eps: float) -> Node:
    """Differentiable projection SDR in dB, denominator guarded by eps."""
    xx = float(np.dot(target, target))
    if xx == 0.0:
        raise ValueError("usdr_loss: degenerate all-zero target")
    x = ad.constant(target)
    coef = ad.mul_scalar(ad.dot(x, output), 1.0 / xx)
    error = ad.sub(ad.scale(x, coef), output)
    proj_energy = ad.mul_scalar(ad.mul(coef, coef), xx)
    err_energy = ad.add_scalar(ad.dot(error, error), eps)
    return ad.mul_scalar(ad.sub(ad.log10(proj_energy), ad.log10(err_energy)), 10.0)


def usdr_loss(targets: list[np.ndarray], outputs: list[Node], eps: float = LOSS_ENERGY_EPS,
              return_permutation: bool = False):
    """Negative mean utterance SDR under the best output-to-target permutation.

    The permutation is chosen on forward values (ties to the lexicographically
    smallest, matching metrics.pit_assign); gradients flow only through the
    selected pairs. With return_permutation=True also returns the chosen
    assignment (output j scored against target permutation[j]).
    """
    n = len(targets)
    if len(outputs) != n:
        raise ValueError(f"usdr_loss: {n} targets vs {len(outputs)} outputs")
    if n < 2:
        raise ValueError(f"usdr_loss needs at least 2 sources, got {n}")
    targets = [ad.as_tensor(t) for t in targets]
    for t in targets:
        if t.shape != outputs[0].value.shape:
            raise ValueError(f"usdr_loss: target shape {t.shape} vs output shape {outputs[0].value.shape}")
    sdr_nodes = [[_sdr_node(t, out, eps) for out in outputs] for t in targets]
    best_perm = None
    best_mean = -np.inf
    for perm in itertools.permutations(range(n)):
        mean = math.fsum(float(sdr_nodes[perm[j]][j].value) for j in range(n)) / n
        if mean > best_mean:
            best_mean = mean
            best_perm = perm
    total = sdr_nodes[best_perm[0]][0]
    for j in range(1, n):
        total = ad.add(total, sdr_nodes[best_perm[j]][j])
    loss = ad.mul_scalar(total, -1.0 / n)
    if return_permutation:
        return loss, best_perm
    return loss
