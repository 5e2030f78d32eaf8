"""FurcaNet assembly: gated-conv front-end over raw frames, BiLSTM across the
frame sequence, dense layers, and a linear head emitting one frame per source;
overlap-add turns per-frame outputs back into full utterances.

The first gated conv spans the whole frame, collapsing its time axis into a
feature vector; later gated convs are pointwise over those features.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers as ly
from . import signal as sig
from .autodiff import Node, ParamStore
from .signal import FrameGeometry, Waveform

CHECKPOINT_MAGIC = b"FSEPCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, corrupted, or incompatible checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    """Every architecture hyperparameter. Defaults are the desk-scale setup:
    the smallest widths that reach the held-out separation target in minutes
    on one CPU core."""

    num_sources: int = 2
    frame_len: int = 80
    hop: int = 40
    gconv_layers: int = 5
    gconv_channels: int = 32
    bilstm_layers: int = 2
    bilstm_hidden: int = 64
    dnn_layers: int = 2
    dnn_width: int = 128
    seed: int = 0

    def validate(self) -> None:
        if self.num_sources < 2:
            raise ValueError(f"num_sources must be >= 2, got {self.num_sources}")
        if not (0 < self.hop <= self.frame_len):
            raise ValueError(f"need 0 < hop <= frame_len, got hop={self.hop}, frame_len={self.frame_len}")
        for name in ("gconv_layers", "gconv_channels", "bilstm_layers", "bilstm_hidden",
                     "dnn_layers", "dnn_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Config from a checkpoint's JSON block; every value must be a plain int.

        Older checkpoints also carry first_kernel_len and gconv_cross_frame_len.
        They are dropped when they hold the only value this network uses (the
        frame length, and 1); any other value is rejected.
        """
        if not isinstance(d, dict):
            raise ValueError(f"ModelConfig block must be a JSON object, got {type(d).__name__}")
        retired = {"first_kernel_len": d.get("frame_len", cls.frame_len), "gconv_cross_frame_len": 1}
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)} - set(retired)
        if unknown:
            raise ValueError(f"unknown ModelConfig fields: {sorted(unknown)}")
        for key, value in d.items():
            if type(value) is not int:
                raise ValueError(f"ModelConfig field {key!r} must be an int, got {value!r}")
        for key, only in retired.items():
            if d.get(key, only) != only:
                raise ValueError(f"retired field {key!r} = {d[key]}, only {only} is supported")
        cfg = cls(**{k: v for k, v in d.items() if k not in retired})
        cfg.validate()
        return cfg


class FurcaNet:
    """The separation network plus its frame-in / utterance-out pipeline."""

    def __init__(self, config: ModelConfig):
        self._wire(config)
        self._draw(config.seed)

    @classmethod
    def _unfilled(cls, config: ModelConfig) -> "FurcaNet":
        """The wired network with its initial values not drawn, for a checkpoint load to fill."""
        model = cls.__new__(cls)
        model._wire(config)
        return model

    def _wire(self, config: ModelConfig) -> None:
        config.validate()
        self.config = config
        self.params = ParamStore()
        c = config
        self.gconvs = []
        self.norms = []
        for i in range(c.gconv_layers):
            # the first kernel spans the whole frame, later ones are pointwise
            in_channels, kernel_len = (1, c.frame_len) if i == 0 else (c.gconv_channels, 1)
            self.gconvs.append(
                ly.GConvLayer(self.params, f"gconv{i + 1}", in_channels, c.gconv_channels, kernel_len)
            )
            self.norms.append(ly.LayerNorm(self.params, f"ln{i + 1}", c.gconv_channels))
        self.bilstms = []
        lstm_in = c.gconv_channels
        for i in range(c.bilstm_layers):
            self.bilstms.append(ly.BiLstmLayer(self.params, f"bilstm{i + 1}", lstm_in, c.bilstm_hidden))
            lstm_in = 2 * c.bilstm_hidden
        self.dnn = []
        dense_in = lstm_in
        for i in range(c.dnn_layers):
            self.dnn.append(ly.DenseLayer(self.params, f"dnn{i + 1}", dense_in, c.dnn_width, "relu"))
            dense_in = c.dnn_width
        self.head = ly.DenseLayer(self.params, "head", dense_in, c.num_sources * c.frame_len, "linear")

    def _draw(self, seed: int) -> None:
        """Set every parameter to its initial value from one generator seeded with seed.

        The weights are drawn in the order the layers were wired (the layer
        norms draw nothing), so the values depend only on the config and seed.
        """
        rng = np.random.default_rng(seed)
        for layer in (*self.gconvs, *self.norms, *self.bilstms, *self.dnn, self.head):
            layer.reset(rng)

    @property
    def param_count(self) -> int:
        return self.params.total_size

    def reinit(self, seed: int) -> None:
        """Re-draw all parameters from a new seed, in place, to the values FurcaNet gives that seed."""
        config = dataclasses.replace(self.config, seed=seed)
        config.validate()
        self._draw(seed)
        self.config = config

    def forward_batch(self, mixtures: list[Waveform]) -> list[list[Node]]:
        """Forward a batch of equal-length mixtures; returns per-utterance lists of S outputs."""
        if not mixtures:
            raise ValueError("forward_batch: empty batch")
        c = self.config
        length = len(mixtures[0])
        if length < c.frame_len:
            raise ValueError(f"input length {length} shorter than frame_len {c.frame_len}")
        for w in mixtures:
            if len(w) != length:
                raise ValueError(f"forward_batch: mixed lengths {length} vs {len(w)}")
        batch = len(mixtures)
        geometry = FrameGeometry(c.frame_len, c.hop)
        stacked = None
        for b, w in enumerate(mixtures):
            frames = sig.frame(w, geometry).frames
            if stacked is None:
                stacked = np.empty((frames.shape[0] * batch, c.frame_len))
            stacked[b::batch] = frames  # time-major rows
        num_steps = stacked.shape[0] // batch
        h = ad.constant(stacked)  # each row is one full-frame window of the first gconv
        for gconv, norm in zip(self.gconvs, self.norms):
            h = norm.forward(gconv.forward_windows(h))
        for lstm in self.bilstms:
            h = lstm.forward(h, batch_size=batch)
        for dense in self.dnn:
            h = dense.forward(h)
        head_out = self.head.forward(h)  # [T*B x S*frame_len]
        outputs = []
        for b in range(batch):
            rows = ad.gather_rows(head_out, np.arange(num_steps) * batch + b)
            per_source = []
            for s in range(c.num_sources):
                frames_node = ad.narrow(rows, 1, s * c.frame_len, (s + 1) * c.frame_len)
                per_source.append(ly.overlap_add_frames(frames_node, c.hop, length))
            outputs.append(per_source)
        return outputs

    def forward_utterance(self, mixture: Waveform) -> list[Node]:
        return self.forward_batch([mixture])[0]

    def separate(self, mixture: Waveform) -> list[Waveform]:
        """Inference: a forward pass under no_grad, returned as waveforms."""
        with ad.no_grad():
            outs = self.forward_utterance(mixture)
        return [Waveform(o.value.copy(), mixture.sample_rate_hz) for o in outs]


def build(config: ModelConfig) -> FurcaNet:
    return FurcaNet(config)


def save_checkpoint(model: FurcaNet, path) -> None:
    """Versioned binary checkpoint: magic, version, config JSON, raw float64 LE
    parameters in store order, CRC32 footer.

    One pass: the header is written first, then each parameter's bytes
    straight from its array, with the CRC32 carried along; the payload is
    never staged in a second buffer, so a save holds nothing the size of the
    file beyond the parameters themselves. The bytes go to a temporary file
    next to path, which then replaces path in one os.replace: a failed write
    leaves any earlier checkpoint intact and removes the temporary file.
    """
    cfg_json = json.dumps(model.config.to_dict(), sort_keys=True).encode("utf-8")
    header = (
        CHECKPOINT_MAGIC
        + struct.pack("<II", CHECKPOINT_VERSION, len(cfg_json))
        + cfg_json
        + struct.pack("<Q", model.params.total_size)
    )
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            crc = zlib.crc32(header)
            for node in model.params.nodes():
                block = np.ascontiguousarray(node.value, dtype="<f8")  # a copy only on big-endian hosts
                fh.write(block)
                crc = zlib.crc32(block, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> FurcaNet:
    """Read a checkpoint written by save_checkpoint; any damage raises CheckpointError.

    One pass: the file is read once; the CRC, the header and the parameter
    block are all read through views of that one buffer. The network is
    wired without drawing initial values, and the parameter block is copied
    once, straight into the parameters, so a load peaks at about twice the
    file size.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(CHECKPOINT_MAGIC) + 12:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    body = memoryview(data)[:-4]
    (stored_crc,) = struct.unpack_from("<I", data, len(body))
    if zlib.crc32(body) != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupted")
    if body[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    offset = len(CHECKPOINT_MAGIC)
    version, cfg_len = struct.unpack_from("<II", body, offset)  # within the length checked above
    offset += 8
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if len(body) - offset < cfg_len + 8:
        raise CheckpointError(f"{path}: file ends inside the {cfg_len}-byte config block or the count after it")
    try:
        cfg = ModelConfig.from_dict(json.loads(bytes(body[offset : offset + cfg_len]).decode("utf-8")))
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad config block ({exc})") from exc
    offset += cfg_len
    (count,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    model = FurcaNet._unfilled(cfg)
    if count != model.params.total_size:
        raise CheckpointError(
            f"{path}: parameter count {count} does not match config ({model.params.total_size})"
        )
    blob = body[offset:]
    if len(blob) != 8 * count:
        raise CheckpointError(f"{path}: parameter block has {len(blob)} bytes, expected {8 * count}")
    model.params.load_flat_values(np.frombuffer(blob, dtype="<f8"))
    return model
