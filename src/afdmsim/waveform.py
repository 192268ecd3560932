"""Chirp-multicarrier modulation and the delay-Doppler index map.

Conventions used throughout the package:

* subcarrier ``m``:  psi_m[n] = exp(j*2*pi*(c1*n^2 + m*n/n_c + c2*m^2))
* modulate:          s[n] = (1/sqrt(n_c)) * sum_m x[m] * psi_m[n]
* demodulate:        Y[m] = (1/sqrt(n_c)) * sum_n r[n] * conj(psi_m[n])

so the transform pair is unitary. The fast path is pre-chirp multiply,
inverse FFT, post-chirp multiply (and its adjoint), O(n_c log n_c). The
two chirps are the config's ``chirp_phasors``, built once per config object.

Under the FMCW-equivalent parameter set the linear subcarrier index m and a
delay-Doppler pair (l, k) are in bijection through

    m = (n_c - k_chirps*l - k) mod n_c,   l in [0, n_p), k in [0, k_chirps),

and psi_m equals a cyclically delayed, Doppler-shifted copy of psi_0 up to a
constant delay-dependent phase.

Signals are plain complex arrays: a symbol is n_c samples (a stack (..., n_c)),
and a CPP-extended block, the symbol behind its chirp cyclic prefix, is
n_c + l_cpp. Each function checks the length it takes, so while l_cpp > 0
a block is never mistaken for a symbol.
"""

from __future__ import annotations

import numpy as np

from ._phase import chirp_phasor, unit_phasor
from .params import AfdmConfig, _check_index, proposed_params


def _as_samples(signal, config: AfdmConfig, *, stacked: bool = False, cpp: bool = False):
    """``signal`` as n_c complex samples (``stacked``: (..., n_c); ``cpp``: n_c + l_cpp)."""
    arr = np.asarray(signal, dtype=np.complex128)
    length = config.n_c + (config.l_cpp if cpp else 0)
    if arr.shape[-1:] != (length,) or (arr.ndim != 1 and not stacked):
        block = "a CPP-extended block of " if cpp else ""
        raise ValueError(f"expected {block}{length} samples, got shape {arr.shape}")
    return arr


def subcarrier(config: AfdmConfig, m: int) -> np.ndarray:
    """The m-th unit-modulus basis chirp, n = 0..n_c-1."""
    _check_index("subcarrier index m", m, config.n_c)
    n = np.arange(config.n_c, dtype=np.int64)
    return chirp_phasor(config.c1, n) * unit_phasor(m * n, config.n_c) * chirp_phasor(config.c2, m)


def modulate(config: AfdmConfig, x) -> np.ndarray:
    """(..., n_c) DAFT-domain symbol stack -> (..., n_c) time samples.

    Three-step fast path: chirp-filter the symbols by exp(j2pi c2 m^2),
    inverse FFT, then chirp-window by exp(j2pi c1 n^2), the config's
    ``chirp_phasors``.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-1:] != (config.n_c,):
        raise ValueError(f"expected {config.n_c} symbols, got shape {x.shape}")
    c2_chirp, c1_chirp = config.chirp_phasors
    return np.fft.ifft(x * c2_chirp) * np.sqrt(config.n_c) * c1_chirp


def demodulate(config: AfdmConfig, r) -> np.ndarray:
    """Project a CPP-free received signal (or a (..., n_c) stack) onto the subcarrier basis."""
    samples = _as_samples(r, config, stacked=True)
    c2_chirp, c1_chirp = config.chirp_phasors
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


def add_cpp(config: AfdmConfig, s) -> np.ndarray:
    """Prepend the l_cpp-sample chirp cyclic prefix: n_c samples -> n_c + l_cpp."""
    s = _as_samples(s, config)
    n = np.arange(-config.l_cpp, 0, dtype=np.int64)
    return np.concatenate([cpp_phase(config, n) * s[config.n_c - config.l_cpp :], s])


def remove_cpp(config: AfdmConfig, r) -> np.ndarray:
    """Drop the first l_cpp samples of a CPP-extended block."""
    return _as_samples(r, config, cpp=True)[config.l_cpp :].copy()


def fmcw_signal(n_p: int, k_chirps: int) -> np.ndarray:
    """K concatenated Nyquist-sampled up-chirps exp(j*pi*n^2/n_p).

    ``n_p`` must be even, as ``proposed_params`` requires: only then is the
    concatenation phase-continuous and equal to subcarrier 0 of that config.
    """
    proposed_params(n_p, k_chirps)  # raises as the proposed set does, on an odd n_p
    n = np.arange(n_p, dtype=np.int64)
    return np.tile(unit_phasor(n * n, 2 * n_p), k_chirps)


# ---------------------------------------------------------------------------
# Delay-Doppler <-> subcarrier index mapping (FMCW-equivalent set only)
# ---------------------------------------------------------------------------

def dd_to_daft_index(config: AfdmConfig, l: int, k: int) -> int:
    """m = (n_c - K*l - k) mod n_c with (0, 0) -> 0."""
    _check_index("delay index l", l, config.n_p)
    _check_index("Doppler index k", k, config.k_chirps)
    return (config.n_c - config.k_chirps * l - k) % config.n_c


def daft_index_to_dd(config: AfdmConfig, m: int) -> tuple[int, int]:
    """Inverse of :func:`dd_to_daft_index`."""
    _check_index("subcarrier index m", m, config.n_c)
    j = (config.n_c - m) % config.n_c
    return j // config.k_chirps, j % config.k_chirps


def dd_index_table(config: AfdmConfig) -> np.ndarray:
    """(n_p, k_chirps) table of subcarrier indices, entry [l, k] = m(l, k)."""
    l = np.arange(config.n_p, dtype=np.int64)[:, None]
    k = np.arange(config.k_chirps, dtype=np.int64)[None, :]
    return (config.n_c - config.k_chirps * l - k) % config.n_c


def echo_form_subcarrier(config: AfdmConfig, l: int, k: int) -> np.ndarray:
    """psi_m built as a delayed, Doppler-shifted echo of psi_0.

    Returns psi_0[(n-l) mod n_c] * exp(-j2pi k n / n_c) * exp(-j pi l^2/n_p),
    which equals ``subcarrier(config, dd_to_daft_index(config, l, k))``.
    """
    config.require_fmcw("echo_form_subcarrier")
    _check_index("delay index l", l, config.n_p)
    _check_index("Doppler index k", k, config.k_chirps)
    n = np.arange(config.n_c, dtype=np.int64)
    return (
        np.roll(subcarrier(config, 0), l)
        * unit_phasor(-k * n, config.n_c)
        * unit_phasor(-config.k_chirps * l * l, 2 * config.n_c)
    )
