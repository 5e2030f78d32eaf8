"""Differentiable building blocks: gated 1-D convolution (GLU), layer
normalization, bidirectional LSTM with hand-rolled backpropagation through
time, dense layers, a differentiable overlap-add, and the permutation-invariant
utterance-SDR loss head.

Layers add each parameter with its initial value, a read-only constant, and
their weights with uniform_init as the draw that ParamStore.reset(rng) calls;
a model loaded from a checkpoint is filled from the file and draws nothing.

Sequence tensors are time-major: an [T*B x F] matrix stores step t of batch
element b at row t*B + b. Non-recurrent layers are row-wise and do not care.

The BiLSTM runs both directions in one fused op, lstm_sequence(x, w_in, b,
w_rec, num_steps, batch_size), from the layer input to the hidden states. Its
weights stack the two directions: the input weight is [F x 8H] and the bias
[8H] with the forward direction's gate columns first, the recurrent matrix is
[2H x 4H] with the forward rows on top, and the output is [T*B x 2H], forward
hidden state first. Within a direction the gate columns are ordered input,
forget, output, cell candidate (i, f, o, g). The op projects x @ w_in + b
LSTM_BLOCK_STEPS steps at a time straight into its gate cache, so no
[T*B x 8H] pre-activation exists. Inside the time loop the gates are laid out
gate-major, [gate, direction, batch, H], so every elementwise op works on a
contiguous block. The i/f/o weights and inputs are negated once per call,
which is exact, so the sigmoid is exp, +1 and reciprocal with no per-step
negation. In grad mode only the gates span every step, and the cell is kept
once per block, as the cell entering it: backpropagation through time
recomputes each block's cells and tanh(c) and reads the hidden states back
from the output. Forward-only passes (ad.no_grad()) keep one block of every
step buffer.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Node, ParamStore
from .metrics import best_permutation, check_source_count
from .signal import _overlap_add_padded, _windows, overlap_count

LOSS_ENERGY_EPS = 1e-8  # denominator guard inside the differentiable SDR
LAYER_NORM_EPS = 1e-5  # variance guard of layer_norm_rows
LSTM_BLOCK_STEPS = 64  # steps per lstm_sequence projection block and per one-block state buffer


def uniform_init(rng: np.random.Generator, weight: np.ndarray) -> None:
    """Fill a [fan_in x fan_out] weight in place with U(-b, b) draws, b = 1/sqrt(fan_in).

    This is the one function that draws initial values; the layers add their weights with it as the draw.
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
        self.w = params.add(f"{name}.w", np.broadcast_to(0.0, (fan_in, out_channels)), draw=uniform_init)
        self.b = params.add(f"{name}.b", np.broadcast_to(0.0, out_channels))
        self.w_gate = params.add(f"{name}.w_gate", np.broadcast_to(0.0, (fan_in, out_channels)), draw=uniform_init)
        self.b_gate = params.add(f"{name}.b_gate", np.broadcast_to(0.0, out_channels))

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
    gain_v = gain.value

    def backward(g, x, gain, bias):
        if gain.needs_grad:
            gain.accumulate_grad((g * xhat).sum(axis=0), own=True)
        if bias.needs_grad:
            bias.accumulate_grad(g.sum(axis=0), own=True)
        if x.needs_grad:
            dxhat = g * gain_v
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            x.accumulate_grad(inv_std * (dxhat - m1 - xhat * m2), own=True)

    return ad.record(xhat * gain_v + bias.value, "layer_norm_rows", (x, gain, bias), backward)


class LayerNorm:
    def __init__(self, params: ParamStore, name: str, dim: int):
        self.gain = params.add(f"{name}.gain", np.broadcast_to(1.0, dim))
        self.bias = params.add(f"{name}.bias", np.broadcast_to(0.0, dim))

    def forward(self, x: Node) -> Node:
        return layer_norm_rows(x, self.gain, self.bias)


def lstm_sequence(x: Node, w_in: Node, b: Node, w_rec: Node, num_steps: int, batch_size: int) -> Node:
    """Bidirectional LSTM from a time-major [T*B x F] input to its hidden states.

    w_in [F x 8H] and b [8H] hold both directions' input projections side by
    side: columns [0, 4H) feed the forward direction, [4H, 8H) the backward
    one. w_rec stacks the two [H x 4H] recurrent matrices, forward rows over
    backward rows. Within each direction the gate columns are input, forget,
    output, cell candidate. Initial states are zero. The output is
    [T*B x 2H], forward hidden state then backward hidden state, both at the
    row's own time.

    Both directions advance in one loop over steps s: the forward direction
    reads time s, the backward direction time T-1-s. The pre-activation
    x @ w_in + b is projected LSTM_BLOCK_STEPS steps at a time, per direction:
    the block's rows of x in time order, one GEMM with that direction's
    column half of w_in and the bias add, the same products affine makes, then
    written into the gate cache in step order (time-reversed for the backward
    direction). No full-size pre-activation is made. The step works in a
    gate-major buffer [gate, direction, batch, H], so the i/f/o slab and each
    gate are contiguous blocks. The recurrent product writes into that layout
    as one [2,B,H] @ [4,2,H,H] matmul, with the weights laid out once per call.
    The i/f/o columns of the weights and of the projected input are negated,
    which is exact, so the sigmoid needs no per-step negation.

    Cache policy: in grad mode the gate cache (projected input, then the
    post-activation gates) spans every step; with the output and the cell
    entering each block ([ceil(T/LSTM_BLOCK_STEPS), 2, B, H]), it is all that
    backpropagation through time keeps. The cell, tanh(c) and the hidden state
    live in one-block buffers in both modes, and under ad.no_grad() so do the
    gates.

    Backward is hand-rolled BPTT over those caches. At the start of each block
    of its reverse loop it recomputes the block's cells from the block's entry
    cell, c_s = i*g + f*c_{s-1}, the forward's expressions in its order (i*g
    for the whole block in one call), so they match bit for bit and one block
    of cells exists at a time. It takes tanh(c_s) from those cells, and forms
    each step's gate-derivative factors in the reverse loop in small scratch
    buffers that belong to the one backward call. The gate gradients land in
    a direction-major [direction, step, batch, 4H] array and are laid out once
    as the [T*B x 8H] pre-activation gradient, from which x, w_in and b get
    affine's three products. The dh recurrence and the recurrent weight
    gradient are single 4H-wide GEMMs per direction; the latter runs after the
    loop and reads h_{s-1} from the output (time-reversed for the backward
    direction).
    """
    xv, w_in_v, b_v, w_rec_v = x.value, w_in.value, b.value, w_rec.value
    if xv.ndim != 2 or w_in_v.ndim != 2 or w_rec_v.ndim != 2:
        raise ValueError(
            f"lstm_sequence: input {xv.shape}, input weight {w_in_v.shape} and recurrent matrix "
            f"{w_rec_v.shape} must be 2-D"
        )
    if num_steps < 1 or batch_size < 1:
        raise ValueError(f"lstm_sequence: num_steps {num_steps} and batch_size {batch_size} must be >= 1")
    hidden = w_rec_v.shape[1] // 4
    if w_rec_v.shape != (2 * hidden, 4 * hidden) or hidden == 0:
        raise ValueError(f"lstm_sequence: recurrent matrix shape {w_rec_v.shape} != (2H, 4H)")
    rows = num_steps * batch_size
    if xv.shape[0] != rows or w_in_v.shape != (xv.shape[1], 8 * hidden) or b_v.shape != (8 * hidden,):
        raise ValueError(
            f"lstm_sequence: pre-activation shape: {xv.shape} @ {w_in_v.shape} + {b_v.shape} "
            f"does not make ({rows}, {8 * hidden})"
        )
    steps, h4 = num_steps, 4 * hidden
    u = w_rec_v.reshape(2, hidden, h4)
    u_gate = u.reshape(2, hidden, 4, hidden).transpose(2, 0, 1, 3).copy()  # [gate, direction, H, H]
    u_gate[:3] *= -1.0
    block = min(steps, LSTM_BLOCK_STEPS)
    # step-major caches [step, gate, direction, batch, H]; the gates span
    # every step in grad mode, the rest holds one block that the loop refills
    span = steps if ad.grad_enabled() else block
    act = np.empty((span, 4, 2, batch_size, hidden))  # projected input, then post-activation gates
    c_entry = np.empty((-(-steps // block), 2, batch_size, hidden))  # the cell entering each block
    cell = np.empty((block, 2, batch_size, hidden))
    tanh_c = np.empty((block, 2, batch_size, hidden))
    h_block = np.empty_like(tanh_c)
    proj = np.empty((block * batch_size, h4))
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
            k = s0 % span  # the block's first cache row: s0 if the caches span every step, else 0
            act_k = act[k : k + n]
            c_entry[s0 // block] = c
            # (direction, first time of the block's rows of x, their order in steps)
            for d, t0, order in ((0, s0, slice(None)), (1, steps - s0 - n, slice(None, None, -1))):
                p = proj[: n * batch_size]
                np.matmul(xv[t0 * batch_size : (t0 + n) * batch_size], w_in_v[:, d * h4 : (d + 1) * h4], out=p)
                p += b_v[d * h4 : (d + 1) * h4]
                p = p.reshape(n, batch_size, 4, hidden)[order].transpose(0, 2, 1, 3)
                np.negative(p[:, :3], out=act_k[:, :3, d])
                act_k[:, 3, d] = p[:, 3]
            for a, sig, i, f, o, g, c_k, tanh_k, h_k in zip(
                act_k, act_k[:, :3], act_k[:, 0], act_k[:, 1], act_k[:, 2], act_k[:, 3], cell[:n],
                tanh_c[:n], h_block[:n]
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
            out_fwd[s0 : s0 + n] = h_block[:n, 0]
            out_bwd[s0 : s0 + n] = h_block[:n, 1]

    def backward(g, x, w_in, b, w_rec):
        sig_all, i_all, f_all, o_all, g_all = act[:, :3], act[:, 0], act[:, 1], act[:, 2], act[:, 3]
        g_out = g.reshape(steps, batch_size, 2 * hidden)
        g_h = np.empty((steps, 2, batch_size, hidden))
        g_h[:, 0] = g_out[:, :, :hidden]
        g_h[:, 1] = g_out[::-1, :, hidden:]
        # direction-major [direction, step, batch, gate, H]: each direction's
        # steps are contiguous rows for the recurrent weight GEMM
        d_act = np.empty((2, steps, batch_size, 4, hidden))
        # one step's factors, formed in the loop in scratch owned by this call
        d_sig = np.empty((3, 2, batch_size, hidden))  # sigmoid derivatives of the i, f, o slab
        # the per-gate factors that scale dc, [direction, batch, gate, H]; the
        # output-gate slot stays zero (that gate scales dh, written after the
        # product), and the forget slot is zero at step 0 (c_prev = 0)
        local = np.zeros((2, batch_size, 4, hidden))
        pre_o = np.empty((2, batch_size, hidden))
        tanh_s = np.empty_like(pre_o)
        d_tanh_c = np.empty_like(pre_o)
        tmp = np.empty_like(pre_o)
        u_t = u.transpose(0, 2, 1).copy()
        dh = np.empty_like(pre_o)
        dc = np.empty_like(pre_o)
        dh_next = np.zeros_like(pre_o)
        dc_next = np.zeros_like(pre_o)
        # one block of cells, recomputed from the block's entry cell: row
        # k + 1 holds c at step s0 + k, row 0 the entry cell
        cells = np.empty((block + 1, 2, batch_size, hidden))
        for s in reversed(range(steps)):
            k = s % block
            if s == steps - 1 or k == block - 1:
                # the forward's c_s = i*g + f*c_{s-1}, in its order (i*g for
                # the whole block first; the sum is commutative)
                s0 = s - k
                cells[0] = c_entry[s0 // block]
                np.multiply(i_all[s0 : s + 1], g_all[s0 : s + 1], out=cells[1 : k + 2])
                for j in range(k + 1):
                    np.multiply(f_all[s0 + j], cells[j], out=tmp)
                    cells[j + 1] += tmp
            sig, g_s = sig_all[s], g_all[s]
            np.tanh(cells[k + 1], out=tanh_s)
            np.multiply(sig, sig, out=d_sig)
            np.subtract(sig, d_sig, out=d_sig)
            np.multiply(g_s, d_sig[0], out=local[:, :, 0])
            if s:
                np.multiply(cells[k], d_sig[1], out=local[:, :, 1])
            else:
                local[:, :, 1] = 0.0
            np.multiply(g_s, g_s, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(i_all[s], tmp, out=local[:, :, 3])
            np.multiply(tanh_s, d_sig[2], out=pre_o)
            np.multiply(tanh_s, tanh_s, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(o_all[s], tmp, out=d_tanh_c)
            np.add(g_h[s], dh_next, out=dh)
            np.multiply(dh, d_tanh_c, out=dc)
            dc += dc_next
            da = d_act[:, s]
            np.multiply(dc[:, :, None, :], local, out=da)
            np.multiply(dh, pre_o, out=da[:, :, 2, :])
            np.matmul(da.reshape(2, batch_size, h4), u_t, out=dh_next)
            np.multiply(dc, f_all[s], out=dc_next)
        d_act = d_act.reshape(2, steps, batch_size, h4)
        if x.needs_grad or w_in.needs_grad or b.needs_grad:
            d_pre = np.empty((steps, batch_size, 8 * hidden))
            d_pre[:, :, :h4] = d_act[0]
            d_pre[:, :, h4:] = d_act[1, ::-1]
            d_pre = d_pre.reshape(steps * batch_size, 8 * hidden)
            if x.needs_grad:
                x.accumulate_grad(d_pre @ w_in_v.T, own=True)
            if w_in.needs_grad:
                w_in.accumulate_grad(xv.T @ d_pre, own=True)
            if b.needs_grad:
                b.accumulate_grad(d_pre.sum(axis=0), own=True)
        if w_rec.needs_grad:
            # sum over steps s >= 1 of h_{s-1}^T @ da_s (h_{-1} = 0), one GEMM
            # per direction; h_{s-1} is the output at time s-1 (forward
            # direction) or T-s (backward direction)
            h_rows = np.empty((2, hidden, steps - 1, batch_size))
            h_rows[0] = out_value[:-1, :, :hidden].transpose(2, 0, 1)
            h_rows[1] = out_value[:0:-1, :, hidden:].transpose(2, 0, 1)
            d_rows = d_act[:, 1:].reshape(2, (steps - 1) * batch_size, h4)
            h_rows = h_rows.reshape(2, hidden, (steps - 1) * batch_size)
            w_rec.accumulate_grad(np.matmul(h_rows, d_rows).reshape(2 * hidden, h4), own=True)

    return ad.record(out_value.reshape(steps * batch_size, 2 * hidden), "lstm_sequence", (x, w_in, b, w_rec), backward)


class BiLstmLayer:
    """Forward and backward LSTM over the frame sequence (zero initial state),
    outputs concatenated [forward | backward].

    Parameters are kept per direction (fwd.w_in [in x 4H], fwd.w_rec [H x 4H],
    fwd.b [4H], then the same for bwd; gate columns i, f, o, g), which is the
    checkpoint layout. Each forward call stacks them into the fused layout of
    lstm_sequence (three concat nodes: w_in side by side, b end to end, w_rec
    forward rows over backward rows) and makes one lstm_sequence call on the
    layer input, which projects it inside the op; the graph keeps the output,
    the gates and one entry cell per block, not a pre-activation or every
    step's cell. The biases start at 0.0 with the forget-gate columns at 1.0;
    the weights are drawn by the uniform fan-in rule.
    """

    DIRECTIONS = ("fwd", "bwd")

    def __init__(self, params: ParamStore, name: str, input_size: int, hidden_size: int):
        self.input_size = input_size
        self.w_in = {}
        self.w_rec = {}
        self.b = {}
        h4 = 4 * hidden_size
        bias = np.broadcast_to(np.repeat([0.0, 1.0, 0.0, 0.0], hidden_size), h4)  # forget-gate columns 1.0
        for d in self.DIRECTIONS:
            self.w_in[d] = params.add(f"{name}.{d}.w_in", np.broadcast_to(0.0, (input_size, h4)), draw=uniform_init)
            self.w_rec[d] = params.add(f"{name}.{d}.w_rec", np.broadcast_to(0.0, (hidden_size, h4)), draw=uniform_init)
            self.b[d] = params.add(f"{name}.{d}.b", bias)

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
        return lstm_sequence(x, w_in, b, w_rec, num_steps, batch_size)


class DenseLayer:
    """activation(x @ W + b) per row; activation is 'relu' or 'linear'."""

    ACTIVATIONS = ("relu", "linear")

    def __init__(self, params: ParamStore, name: str, in_size: int, out_size: int, activation: str):
        if activation not in self.ACTIVATIONS:
            raise ValueError(f"DenseLayer: unknown activation '{activation}'")
        self.activation = activation
        self.w = params.add(f"{name}.w", np.broadcast_to(0.0, (in_size, out_size)), draw=uniform_init)
        self.b = params.add(f"{name}.b", np.broadcast_to(0.0, out_size))

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

    def backward(g, frames):
        if frames.needs_grad:
            g_padded = np.zeros(padded)
            g_padded[:original_len] = g
            g_padded /= overlap_count(num, frame_len, hop)
            frames.accumulate_grad(_windows(g_padded, frame_len, hop), own=True)

    return ad.record(_overlap_add_padded(frames.value, hop)[:original_len], "overlap_add_frames", (frames,), backward)


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
