"""Channel gains, noise levels and received-signal synthesis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHANNEL_MODES",
    "ChannelRealization",
    "NoiseModel",
    "sample_gains",
    "sample_noise",
    "superpose",
    "snr_to_noise_variance",
]

CHANNEL_MODES = ("awgn", "downlink", "uplink_rayleigh")
SNR_CONVENTIONS = ("per_layer", "total")


@dataclass(frozen=True)
class ChannelRealization:
    """Per-layer, per-resource complex gains for one transmission."""

    gains: np.ndarray
    mode: str

    def __post_init__(self) -> None:
        g = np.array(self.gains, dtype=np.complex128)
        if g.ndim != 2:
            raise ValueError("gains must be layers x resources")
        if self.mode not in CHANNEL_MODES:
            raise ValueError(f"unknown channel mode {self.mode!r}")
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)

    @property
    def n_layers(self) -> int:
        return self.gains.shape[0]

    @property
    def n_resources(self) -> int:
        return self.gains.shape[1]


@dataclass(frozen=True)
class NoiseModel:
    """Total complex noise variance per resource plus the convention used."""

    variance: float
    snr_convention: str

    def __post_init__(self) -> None:
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError("noise variance must be positive and finite")
        if self.snr_convention not in SNR_CONVENTIONS:
            raise ValueError(f"unknown convention {self.snr_convention!r}")


def _cn01(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1): unit total variance split over real and imaginary parts."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def sample_gains(
    mode: str,
    n_layers: int,
    n_resources: int,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw channel gains; shape (J, K) or (size, J, K).

    awgn: all-ones. downlink: one Rayleigh vector shared by every layer.
    uplink_rayleigh: independent Rayleigh per layer and resource.
    """
    lead = () if size is None else (size,)
    if mode == "awgn":
        return np.ones(lead + (n_layers, n_resources), dtype=np.complex128)
    if mode == "downlink":
        h = _cn01(rng, lead + (1, n_resources))
        return np.broadcast_to(h, lead + (n_layers, n_resources)).copy()
    if mode == "uplink_rayleigh":
        return _cn01(rng, lead + (n_layers, n_resources))
    raise ValueError(f"unknown channel mode {mode!r}")


def sample_noise(
    variance: float,
    n_resources: int,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Circular complex noise with the given total variance per resource."""
    if not (np.isfinite(variance) and variance > 0):
        raise ValueError("variance must be positive and finite")
    shape = (n_resources,) if size is None else (size, n_resources)
    return _cn01(rng, shape) * np.sqrt(variance)


def superpose(
    codewords: np.ndarray, channel: ChannelRealization | np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """y = sum_j gains[j] * codewords[j] + noise over the layer axis of a
    (..., J, K) codeword stack; channel is a ChannelRealization or its gains."""
    gains = channel.gains if isinstance(channel, ChannelRealization) else channel
    cw = np.asarray(codewords, dtype=np.complex128)
    if cw.shape != np.shape(gains):
        raise ValueError("codeword stack and gains must both be (..., J, K)")
    return (gains * cw).sum(axis=-2) + np.asarray(noise, dtype=np.complex128)


def snr_to_noise_variance(snr_db: float, system, convention: str) -> NoiseModel:
    """Noise variance for a target SNR under the chosen accounting.

    per_layer compares one layer's average per-resource energy (1/K, unit
    codeword energy spread over the K resources) against the noise, so
    sigma^2 = 10**(-snr/10) / K. total accounts all J layers together:
    sigma^2 = (J/K) * 10**(-snr/10). Both agree at J = 1. `system` needs
    only n_resources and n_layers.
    """
    try:
        lin = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        lin = math.inf  # NoiseModel rejects it
    k = system.n_resources
    j = system.n_layers
    if convention == "per_layer":
        return NoiseModel(lin / k, convention)
    if convention == "total":
        return NoiseModel(lin * j / k, convention)
    raise ValueError(f"unknown convention {convention!r}")
