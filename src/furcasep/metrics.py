"""Evaluation-side SDR and permutation-invariant assignment.

SDR here is the projection form: the target is scaled to best explain the
estimate, and the ratio of projected energy to residual energy is reported in
dB. All functions are pure. The differentiable loss in layers.py picks its
permutation with the same best_permutation, and agrees with sdr away from its
epsilon guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .signal import Waveform

SDR_CLAMP_DB = 100.0
ENERGY_EPS_REL = 1e-20  # relative guard deciding when the dB clamp engages
MAX_PIT_SOURCES = 8  # factorial search guard


@dataclass(frozen=True)
class SdrResult:
    sdr_db: float
    projection_energy: float
    error_energy: float
    scale: float


@dataclass(frozen=True)
class PitResult:
    """Best output-to-target assignment: output j is scored against target permutation[j]."""

    permutation: tuple[int, ...]
    per_source_sdr_db: tuple[float, ...]
    mean_sdr_db: float
    loss: float


def _as_samples(x) -> np.ndarray:
    if isinstance(x, Waveform):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def sdr(target, estimate) -> SdrResult:
    """Projection SDR of an estimate against a target, clamped to +-100 dB.

    scale = <x,s>/<x,x>, projection = scale*x, error = projection - estimate,
    sdr = 10*log10(projection energy / error energy).
    """
    x = _as_samples(target)
    s = _as_samples(estimate)
    if isinstance(target, Waveform) and isinstance(estimate, Waveform):
        if target.sample_rate_hz != estimate.sample_rate_hz:
            raise ValueError(
                f"sdr: sample rates differ: {target.sample_rate_hz} vs {estimate.sample_rate_hz}"
            )
    if x.shape != s.shape:
        raise ValueError(f"sdr: length mismatch: target {x.shape[0]} vs estimate {s.shape[0]}")
    if x.size == 0:
        raise ValueError("sdr: empty signals")
    xx = float(np.dot(x, x))
    if xx == 0.0:
        raise ValueError("sdr: target has zero energy")
    scale = float(np.dot(x, s)) / xx
    error = scale * x - s
    projection_energy = scale * scale * xx
    error_energy = float(np.dot(error, error))
    guard = ENERGY_EPS_REL * max(projection_energy, error_energy)
    if projection_energy <= guard:
        sdr_db = -SDR_CLAMP_DB
    elif error_energy <= guard:
        sdr_db = SDR_CLAMP_DB
    else:
        sdr_db = float(np.clip(10.0 * np.log10(projection_energy / error_energy), -SDR_CLAMP_DB, SDR_CLAMP_DB))
    return SdrResult(sdr_db, projection_energy, error_energy, scale)


def check_source_count(caller: str, num_targets: int, num_estimates: int) -> None:
    """The S-source rules shared by PIT scoring and the PIT loss: equal counts, 2 <= S <= MAX_PIT_SOURCES."""
    if num_estimates != num_targets:
        raise ValueError(f"{caller}: {num_targets} targets vs {num_estimates} estimates")
    if num_targets < 2:
        raise ValueError(f"{caller} needs at least 2 sources, got {num_targets}")
    if num_targets > MAX_PIT_SOURCES:
        raise ValueError(f"{caller} supports at most {MAX_PIT_SOURCES} sources, got {num_targets}")


def best_permutation(matrix) -> tuple[tuple[int, ...], float]:
    """Exhaustive PIT search over an S x S score matrix, matrix[target][output].

    Returns the permutation (output j against target perm[j]) that maximizes the
    mean score, and that mean. Each mean is a left-to-right sum over outputs
    divided by S; a later permutation must beat the best so far strictly, so
    ties go to the lexicographically smallest permutation. The first
    permutation is taken without a comparison, so scores that are all NaN or
    -inf still give a permutation, with a NaN or -inf mean.
    """
    n = len(matrix)
    check_source_count("best_permutation", n, n)
    best_perm = None
    best_mean = -np.inf
    for perm in itertools.permutations(range(n)):
        mean = sum(matrix[perm[j]][j] for j in range(n)) / n
        if best_perm is None or mean > best_mean:
            best_mean = mean
            best_perm = perm
    return best_perm, best_mean


def pit_assign(targets: list, estimates: list) -> PitResult:
    """Best-permutation assignment over the pairwise SDR matrix, computed once."""
    check_source_count("pit_assign", len(targets), len(estimates))
    matrix = [[sdr(t, e).sdr_db for e in estimates] for t in targets]
    perm, mean = best_permutation(matrix)
    return PitResult(perm, tuple(matrix[k][j] for j, k in enumerate(perm)), mean, -mean)
