"""Chirp-multicarrier modulation and the delay-Doppler index map.

Conventions used throughout the package:

* subcarrier ``m``:  psi_m[n] = exp(j*2*pi*(c1*n^2 + m*n/n_c + c2*m^2))
* modulate:          s[n] = (1/sqrt(n_c)) * sum_m x[m] * psi_m[n]
* demodulate:        Y[m] = (1/sqrt(n_c)) * sum_n r[n] * conj(psi_m[n])

so the transform pair is unitary. The fast path is pre-chirp multiply,
inverse FFT, post-chirp multiply (and its adjoint), O(n_c log n_c).

Under the FMCW-equivalent parameter set the linear subcarrier index m and a
delay-Doppler pair (l, k) are in bijection through

    m = (n_c - k_chirps*l - k) mod n_c,   l in [0, n_p), k in [0, k_chirps),

and psi_m equals a cyclically delayed, Doppler-shifted copy of psi_0 up to a
constant delay-dependent phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._phase import chirp_phasor, unit_phasor
from .params import AfdmConfig, proposed_params


@dataclass(frozen=True)
class TimeSignal:
    """A complex baseband sample sequence tied to a waveform config."""

    samples: np.ndarray
    config: AfdmConfig
    has_cpp: bool = False

    def __post_init__(self) -> None:
        expected = self.config.n_c + (self.config.l_cpp if self.has_cpp else 0)
        if self.samples.shape != (expected,):
            raise ValueError(
                f"expected {expected} samples, got shape {self.samples.shape}"
            )

    def __len__(self) -> int:
        return len(self.samples)


def _as_samples(signal, config: AfdmConfig, *, stacked: bool = False) -> np.ndarray:
    """Accept a CPP-free TimeSignal or bare array of n_c samples (``stacked``: (..., n_c))."""
    if isinstance(signal, TimeSignal):
        if signal.has_cpp:
            raise ValueError("signal still carries a CPP; remove it first")
        return signal.samples
    arr = np.asarray(signal, dtype=np.complex128)
    if arr.shape[-1:] != (config.n_c,) or (arr.ndim != 1 and not stacked):
        raise ValueError(f"expected {config.n_c} samples, got shape {arr.shape}")
    return arr


def _chirps(config: AfdmConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only exp(j2pi c2 m^2) over m and exp(j2pi c1 n^2) over n, for reuse across calls."""
    index = np.arange(config.n_c, dtype=np.int64)
    pair = chirp_phasor(config.c2, index), chirp_phasor(config.c1, index)
    for phasor in pair:
        phasor.flags.writeable = False
    return pair


def subcarrier(config: AfdmConfig, m: int) -> TimeSignal:
    """The m-th unit-modulus basis chirp, n = 0..n_c-1."""
    if not 0 <= m < config.n_c:
        raise ValueError(f"subcarrier index {m} outside [0, {config.n_c})")
    n = np.arange(config.n_c, dtype=np.int64)
    samples = (
        chirp_phasor(config.c1, n) * unit_phasor(m * n, config.n_c) * chirp_phasor(config.c2, m)
    )
    return TimeSignal(samples, config)


def _modulate(config: AfdmConfig, x: np.ndarray, chirps=None) -> np.ndarray:
    """(..., n_c) DAFT-domain symbol stack -> (..., n_c) time samples.

    Three-step fast path: chirp-filter the symbols by exp(j2pi c2 m^2),
    inverse FFT, then chirp-window by exp(j2pi c1 n^2). ``chirps`` is
    ``_chirps(config)`` built by the caller, or None to build it here.
    """
    c2_chirp, c1_chirp = _chirps(config) if chirps is None else chirps
    return np.fft.ifft(x * c2_chirp) * np.sqrt(config.n_c) * c1_chirp


def modulate(config: AfdmConfig, x) -> TimeSignal:
    """Synthesize the time-domain symbol from DAFT-domain symbols ``x``."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (config.n_c,):
        raise ValueError(f"expected {config.n_c} symbols, got shape {x.shape}")
    return TimeSignal(_modulate(config, x), config)


def demodulate(config: AfdmConfig, r, chirps=None) -> np.ndarray:
    """Project a CPP-free received signal (or a (..., n_c) stack) onto the subcarrier basis.

    ``chirps`` is ``_chirps(config)`` built by the caller, or None to build it here.
    """
    samples = _as_samples(r, config, stacked=True)
    c2_chirp, c1_chirp = _chirps(config) if chirps is None else chirps
    return np.fft.fft(samples * np.conj(c1_chirp)) / np.sqrt(config.n_c) * np.conj(c2_chirp)


def cpp_phase(config: AfdmConfig, n) -> np.ndarray:
    """exp(-j*2*pi*c1*(n_c^2 + 2*n_c*n)), the CPP compensating factor.

    Equals 1 for every parameter set with 2*c1*n_c and c1*n_c^2 integral
    (all built-in presets on even n_c), reducing the CPP to a plain CP.
    """
    n = np.asarray(n, dtype=np.int64)
    p, q = config.c1.numerator, config.c1.denominator
    numer = -p * (config.n_c * config.n_c + 2 * config.n_c * n)
    return unit_phasor(numer, q)


def add_cpp(config: AfdmConfig, s: TimeSignal) -> TimeSignal:
    """Prepend the l_cpp-sample chirp cyclic prefix."""
    if s.has_cpp:
        raise ValueError("signal already has a CPP")
    l_cpp = config.l_cpp
    if l_cpp == 0:
        return TimeSignal(s.samples.copy(), config, has_cpp=True)
    n = np.arange(-l_cpp, 0, dtype=np.int64)
    prefix = cpp_phase(config, n) * s.samples[config.n_c - l_cpp :]
    return TimeSignal(np.concatenate([prefix, s.samples]), config, has_cpp=True)


def remove_cpp(config: AfdmConfig, r: TimeSignal) -> TimeSignal:
    """Drop the first l_cpp samples."""
    if not r.has_cpp:
        raise ValueError("signal has no CPP to remove")
    return TimeSignal(r.samples[config.l_cpp :].copy(), config, has_cpp=False)


def fmcw_signal(n_p: int, k_chirps: int) -> TimeSignal:
    """K concatenated Nyquist-sampled up-chirps exp(j*pi*n^2/n_p).

    ``n_p`` must be even, as ``proposed_params`` requires: only then is the
    concatenation phase-continuous and equal to subcarrier 0 of that config.
    """
    config = proposed_params(n_p, k_chirps)
    n = np.arange(n_p, dtype=np.int64)
    base = unit_phasor(n * n, 2 * n_p)
    return TimeSignal(np.tile(base, k_chirps), config)


# ---------------------------------------------------------------------------
# Delay-Doppler <-> subcarrier index mapping (FMCW-equivalent set only)
# ---------------------------------------------------------------------------

def dd_to_daft_index(config: AfdmConfig, l: int, k: int) -> int:
    """m = (n_c - K*l - k) mod n_c with (0, 0) -> 0."""
    if not 0 <= l < config.n_p:
        raise ValueError(f"delay index {l} outside [0, {config.n_p})")
    if not 0 <= k < config.k_chirps:
        raise ValueError(f"Doppler index {k} outside [0, {config.k_chirps})")
    return (config.n_c - config.k_chirps * l - k) % config.n_c


def daft_index_to_dd(config: AfdmConfig, m: int) -> tuple[int, int]:
    """Inverse of :func:`dd_to_daft_index`."""
    if not 0 <= m < config.n_c:
        raise ValueError(f"subcarrier index {m} outside [0, {config.n_c})")
    j = (config.n_c - m) % config.n_c
    return j // config.k_chirps, j % config.k_chirps


def dd_index_table(config: AfdmConfig) -> np.ndarray:
    """(n_p, k_chirps) table of subcarrier indices, entry [l, k] = m(l, k)."""
    l = np.arange(config.n_p, dtype=np.int64)[:, None]
    k = np.arange(config.k_chirps, dtype=np.int64)[None, :]
    return (config.n_c - config.k_chirps * l - k) % config.n_c


def echo_form_subcarrier(config: AfdmConfig, l: int, k: int) -> TimeSignal:
    """psi_m built as a delayed, Doppler-shifted echo of psi_0.

    Returns psi_0[(n-l) mod n_c] * exp(-j2pi k n / n_c) * exp(-j pi l^2/n_p),
    which equals ``subcarrier(config, dd_to_daft_index(config, l, k))``.
    """
    config.require_fmcw("echo_form_subcarrier")
    if not 0 <= l < config.n_p:
        raise ValueError(f"delay index {l} outside [0, {config.n_p})")
    if not 0 <= k < config.k_chirps:
        raise ValueError(f"Doppler index {k} outside [0, {config.k_chirps})")
    base = subcarrier(config, 0).samples
    n = np.arange(config.n_c, dtype=np.int64)
    samples = (
        np.roll(base, l)
        * unit_phasor(-k * n, config.n_c)
        * unit_phasor(-config.k_chirps * l * l, 2 * config.n_c)
    )
    return TimeSignal(samples, config)
