"""Discrete delay-Doppler channel simulation.

A resolvable scatterer is an integer (delay tap, Doppler tap) pair with a
complex gain. After CPP removal the channel acts cyclically:

    r[n] = sum_i h_i * s[(n - l_i) mod n_c] * exp(-j*2*pi*k_i*n/n_c) + w[n]

Doppler taps are signed; the exponential makes k_i and k_i + n_c equivalent,
but values within one chirp-count period K are *not* interchangeable with
their mod-K aliases, so taps are kept signed end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._phase import unit_phasor
from .params import AfdmConfig
from .waveform import TimeSignal, _as_samples

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class PathTap:
    """One scatterer: complex gain, delay tap >= 0, signed Doppler tap."""

    gain: complex
    delay_tap: int
    doppler_tap: int

    def __post_init__(self) -> None:
        if self.delay_tap < 0:
            raise ValueError("delay_tap must be non-negative")


@dataclass(frozen=True)
class PhysicalPath:
    """A scatterer in physical units (one-way range, radial velocity)."""

    range_m: float
    radial_velocity_mps: float
    gain: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.range_m < 0:
            raise ValueError("range_m must be non-negative")


def quantize_path(
    path: PhysicalPath, bandwidth_hz: float, duration_s: float, carrier_hz: float
) -> PathTap:
    """Round-trip delay/Doppler quantized to taps: l = round(B*tau), k = round(T*nu)."""
    if bandwidth_hz <= 0 or duration_s <= 0:
        raise ValueError("bandwidth and duration must be positive")
    tau = 2.0 * path.range_m / SPEED_OF_LIGHT
    nu = 2.0 * path.radial_velocity_mps * carrier_hz / SPEED_OF_LIGHT
    return PathTap(
        gain=path.gain,
        delay_tap=round(bandwidth_hz * tau),
        doppler_tap=round(duration_s * nu),
    )


def taps_from_targets(targets) -> list[PathTap]:
    """Convert scenario (gain, l, k) triples into PathTap objects."""
    return [PathTap(complex(g), int(l), int(k)) for g, l, k in targets]


def _doppler_taps(paths, n_c: int) -> list[tuple[complex, int, np.ndarray]]:
    """(gain, cyclic shift, Doppler phasor exp(-j2pi k n/n_c)) of each path on n_c samples."""
    n = np.arange(n_c, dtype=np.int64)
    return [
        (complex(p.gain), p.delay_tap % n_c, unit_phasor(-p.doppler_tap * n, n_c))
        for p in paths
    ]


def _delay_doppler(samples: np.ndarray, taps) -> np.ndarray:
    """The cyclic delay-Doppler channel on the last axis of a (..., n_c) stack.

    ``taps`` is ``_doppler_taps(paths, n_c)``, built once by the caller for
    every stack that passes through the same paths.
    """
    out = np.zeros(samples.shape, dtype=np.complex128)
    for gain, shift, phasor in taps:
        out += gain * np.roll(samples, shift, axis=-1) * phasor
    return out


def apply_channel(config: AfdmConfig, s, paths) -> TimeSignal:
    """Cyclic delay-Doppler channel on a CPP-free symbol (noise-free)."""
    taps = _doppler_taps(paths, config.n_c)
    return TimeSignal(_delay_doppler(_as_samples(s, config), taps), config)


def apply_channel_linear(config: AfdmConfig, s: TimeSignal, paths) -> TimeSignal:
    """Physical non-cyclic channel over a CPP-extended block.

    Delayed samples that precede the block are dropped (no energy wraps), and
    the Doppler phase is referenced to the post-CPP sample index so that
    removing the CPP afterwards reproduces :func:`apply_channel` exactly for
    every delay tap not exceeding l_cpp.
    """
    if not s.has_cpp:
        raise ValueError("apply_channel_linear expects a CPP-extended signal")
    total = config.n_c + config.l_cpp
    n_post = np.arange(total, dtype=np.int64) - config.l_cpp
    out = np.zeros(total, dtype=np.complex128)
    for p in paths:
        li = p.delay_tap
        if li > total:
            continue
        shifted = np.zeros(total, dtype=np.complex128)
        if li < total:
            shifted[li:] = s.samples[: total - li]
        out += complex(p.gain) * shifted * unit_phasor(-p.doppler_tap * n_post, config.n_c)
    return TimeSignal(out, config, has_cpp=True)


def noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance for a given symbol SNR in dB (unit signal power)."""
    return 1.0 / (10.0 ** (snr_db / 10.0))


def _awgn(n: int, snr_db: float, rng: np.random.Generator) -> np.ndarray | None:
    """``n`` samples of complex Gaussian noise at ``snr_db``, real parts drawn first.

    Draws nothing and returns None at +inf SNR.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return None
    sigma2 = noise_variance(snr_db)
    return np.sqrt(sigma2 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def add_awgn(r: TimeSignal, snr_db: float, rng: np.random.Generator) -> TimeSignal:
    """Add circularly-symmetric complex Gaussian noise.

    The variance convention is relative to unit mean transmit-sample power
    (frames are built with total energy n_c, so E|s[n]|^2 = 1); an infinite
    ``snr_db`` returns the signal unchanged.
    """
    noise = _awgn(len(r.samples), snr_db, rng)
    if noise is None:
        return r
    return TimeSignal(r.samples + noise, r.config, has_cpp=r.has_cpp)
