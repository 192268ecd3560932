"""Discrete delay-Doppler channel simulation.

A resolvable scatterer is an integer (delay tap, Doppler tap) pair with a
complex gain. After CPP removal the channel acts cyclically:

    r[n] = sum_i h_i * s[(n - l_i) mod n_c] * exp(-j*2*pi*k_i*n/n_c) + w[n]

Doppler taps are signed; the exponential makes k_i and k_i + n_c equivalent,
but values within one chirp-count period K are *not* interchangeable with
their mod-K aliases, so taps are kept signed end to end. A path is a
``PathTap``, and ``noise_variance`` the SNR rule; both are defined in
:mod:`afdmsim.params` and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._phase import unit_phasor
from .params import AfdmConfig, PathTap, _check_finite_real, _check_paths, noise_variance
from .waveform import _as_samples

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class PhysicalPath:
    """A scatterer in physical units (one-way range, radial velocity)."""

    range_m: float
    radial_velocity_mps: float
    gain: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        for name in ("range_m", "radial_velocity_mps"):
            _check_finite_real(name, getattr(self, name))
        if self.range_m < 0:
            raise ValueError("range_m must be non-negative")


def quantize_path(
    path: PhysicalPath, bandwidth_hz: float, duration_s: float, carrier_hz: float
) -> PathTap:
    """Round-trip delay/Doppler quantized to taps: l = round(B*tau), k = round(T*nu).

    The bandwidth, duration and carrier are finite real numbers, the first two
    positive, and B*tau and T*nu must be finite too.
    """
    for name, value in (
        ("bandwidth_hz", bandwidth_hz), ("duration_s", duration_s), ("carrier_hz", carrier_hz)
    ):
        _check_finite_real(name, value)
    if bandwidth_hz <= 0 or duration_s <= 0:
        raise ValueError("bandwidth and duration must be positive")
    tau = 2.0 * path.range_m / SPEED_OF_LIGHT
    nu = 2.0 * path.radial_velocity_mps * carrier_hz / SPEED_OF_LIGHT
    delay, doppler = bandwidth_hz * tau, duration_s * nu
    _check_finite_real("delay tap B*tau", delay)
    _check_finite_real("Doppler tap T*nu", doppler)
    return PathTap(gain=path.gain, delay_tap=round(delay), doppler_tap=round(doppler))


def _doppler_taps(paths, n_c: int) -> list[tuple[complex, int, np.ndarray]]:
    """(gain, cyclic shift, Doppler phasor exp(-j2pi k n/n_c)) of each path on n_c samples.

    A path that is not a ``PathTap`` is a ValueError.
    """
    _check_paths(paths)
    n = np.arange(n_c, dtype=np.int64)
    return [
        (complex(p.gain), p.delay_tap % n_c, unit_phasor(-p.doppler_tap * n, n_c))
        for p in paths
    ]


def _delay_doppler(samples: np.ndarray, taps) -> np.ndarray:
    """The cyclic delay-Doppler channel on the last axis of a (..., n_c) stack.

    ``taps`` is ``_doppler_taps(paths, n_c)``, built once by the caller for
    every stack that passes through the same paths. A gain may be an array
    that broadcasts against the stack, one per channel realization.
    """
    out = np.zeros(samples.shape, dtype=np.complex128)
    for gain, shift, phasor in taps:
        out += gain * np.roll(samples, shift, axis=-1) * phasor
    return out


def _delay_doppler_adjoint(samples: np.ndarray, taps) -> np.ndarray:
    """The adjoint H_t^H of ``_delay_doppler`` on the last axis of a (..., n_c) stack.

    H_t holds gain_i * phasor_i[n] at [n, (n - shift_i) % n_c], so H_t^H z is
    the sum over taps of conj(gain_i * phasor_i) * z rolled back by shift_i:
    O(len(taps) * n_c) per signal. Equal to the dense product up to rounding.
    """
    out = np.zeros(samples.shape, dtype=np.complex128)
    for gain, shift, phasor in taps:
        out += np.roll(np.conj(gain * phasor) * samples, -shift, axis=-1)
    return out


def _gram_diagonals(taps):
    """Yield (d, values) for each ordered tap pair (i, j) of the Gram H_t H_t^H.

    With v_i = gain_i * phasor_i and d = shift_i - shift_j, the pair adds
    values[..., n] = v_i[n] * conj(v_j[(n - d) % n_c]) at [n, (n - d) % n_c].
    Gains may be arrays that broadcast against the (n_c,) phasors, one per
    channel realization, giving (..., n_c) values.
    """
    scaled = [(gain * phasor, shift) for gain, shift, phasor in taps]
    for v_i, shift_i in scaled:
        for v_j, shift_j in scaled:
            d = shift_i - shift_j
            yield d, v_i * np.conj(np.roll(v_j, d, axis=-1))


def _gram_block_index(shifts, n_c: int, b: int) -> dict[int, np.ndarray]:
    """Where [n, (n - d) % n_c] lies in a flat (3, n_c // b, b, b) stack, for each d = s_i - s_j.

    Block row I of the stack holds its lower, diagonal and upper cyclic
    neighbours [I, I - 1], [I, I] and [I, I + 1] at 0, 1 and 2. Valid for b
    at least every cyclic distance between two shifts and n_c // b >= 3, or
    b = n_c (every entry in the diagonal slot).
    """
    n = np.arange(n_c, dtype=np.int64)
    blocks = n_c // b
    index = {}
    for d in {i - j for i in shifts for j in shifts}:
        m = (n - d) % n_c
        side = (m // b - n // b + 1) % blocks if blocks > 1 else 1
        index[d] = ((side * blocks + n // b) * b + n % b) * b + m % b
    return index


def _delay_doppler_gram_blocks(taps, n_c: int, b: int, index) -> np.ndarray:
    """The Gram H_t H_t^H of ``_delay_doppler`` as a (..., 3, n_c // b, b, b) block-cyclic stack.

    ``index`` is ``_gram_block_index`` of the taps' shifts. The leading axes
    are those of the gains broadcast against a phasor, less its sample axis:
    (R, 1, 1) gains give (R, 1, 3, n_c // b, b, b). The pairs of
    ``_gram_diagonals`` are added in their order, so each entry equals the
    dense n_c x n_c Gram built from the same pairs bit for bit, and the dense
    product H_t H_t^H up to rounding.
    """
    lead = np.broadcast_shapes(*(np.shape(gain) for gain, _, _ in taps), (1,))[:-1]
    blocks = np.zeros(lead + (3 * n_c * b,), dtype=np.complex128)
    for d, values in _gram_diagonals(taps):
        blocks[..., index[d]] += values
    return blocks.reshape(lead + (3, n_c // b, b, b))


def apply_channel(config: AfdmConfig, s, paths) -> np.ndarray:
    """Cyclic delay-Doppler channel on a CPP-free symbol or (..., n_c) stack (noise-free)."""
    return _delay_doppler(_as_samples(s, config, stacked=True), _doppler_taps(paths, config.n_c))


def _noise_scale(snr_db: float) -> float | None:
    """sqrt(sigma^2 / 2), the scale of each real noise part at ``snr_db``; None at +inf SNR."""
    if snr_db == math.inf:
        return None
    return np.sqrt(noise_variance(snr_db) / 2.0)


def _normal_pairs(n: int, rng: np.random.Generator) -> np.ndarray:
    """re + 1j*im of ``n`` standard normal pairs, the real parts drawn first."""
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)
