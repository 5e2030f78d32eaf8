"""Time-domain monaural source separation: a gated-conv + BiLSTM network
trained by maximizing utterance-level SDR under permutation-invariant
training, with an STFT ideal-ratio-mask oracle and synthetic corpus tooling."""

from .autodiff import Node, ParamStore, Tensor, backward, grad_check
from .corpus import (
    MixtureExample,
    SpeakerProfile,
    default_desk_corpus,
    generate_corpus,
    load_corpus,
    make_speaker_pool,
    synth_speaker,
)
from .metrics import PitResult, SdrResult, pit_assign, sdr
from .model import FurcaNet, ModelConfig, build, load_checkpoint, save_checkpoint
from .signal import (
    FrameGeometry,
    FrameMatrix,
    Waveform,
    frame,
    mix_at_snr,
    mix_sum,
    overlap_add,
    read_wav,
    write_wav,
)
from .spectral import irm_masks, irm_separate, istft, stft
from .training import AdamState, TrainConfig, TrainReport, adam_step, train

__all__ = [
    "AdamState",
    "FrameGeometry",
    "FrameMatrix",
    "FurcaNet",
    "MixtureExample",
    "ModelConfig",
    "Node",
    "ParamStore",
    "PitResult",
    "SdrResult",
    "SpeakerProfile",
    "Tensor",
    "TrainConfig",
    "TrainReport",
    "Waveform",
    "adam_step",
    "backward",
    "build",
    "default_desk_corpus",
    "frame",
    "generate_corpus",
    "grad_check",
    "irm_masks",
    "irm_separate",
    "istft",
    "load_checkpoint",
    "load_corpus",
    "make_speaker_pool",
    "mix_at_snr",
    "mix_sum",
    "overlap_add",
    "pit_assign",
    "read_wav",
    "save_checkpoint",
    "sdr",
    "stft",
    "synth_speaker",
    "train",
    "write_wav",
]

__version__ = "0.1.0"
