"""Discrete periodic ambiguity functions.

The cyclic delay/Doppler correlation of length-n_c signals,

    L[l, k] = sum_n a[n] * conj(b[(n - l) mod n_c]) * exp(+j*2*pi*k*n/n_c),

has a sparse closed form for the FMCW-equivalent basis chirps: the base
auto-surface is a thumbtack supported on k = 0 mod K with the delay support
line tilted by the Doppler-induced offset floor(k/K). Support tests below use
exact integer modular arithmetic; phases use exact rational reduction.
"""

from __future__ import annotations

import numpy as np

from ._phase import unit_phasor
from .params import AfdmConfig
from .waveform import TimeSignal


def _samples(x) -> np.ndarray:
    if isinstance(x, TimeSignal):
        if x.has_cpp:
            raise ValueError("ambiguity functions are defined on CPP-free signals")
        return x.samples
    return np.asarray(x, dtype=np.complex128)


def dpaf_brute(a, b, l: int, k: int) -> complex:
    """Direct-sum cyclic cross-ambiguity at a single (l, k) point."""
    av, bv = _samples(a), _samples(b)
    if av.shape != bv.shape or av.ndim != 1:
        raise ValueError("signals must be 1-D and of equal length")
    n_c = len(av)
    n = np.arange(n_c, dtype=np.int64)
    return complex(np.sum(av * np.conj(np.roll(bv, l)) * unit_phasor(k * n, n_c)))


def dpaf_surface(a, b, n_delays: int | None = None) -> np.ndarray:
    """Cross-ambiguity rows at delays l = 0..n_delays-1 (default: the full plane).

    Returns an (n_delays, n_c) array. Row l is the length-n_c inverse DFT of
    a[n] * conj(b[(n - l) mod n_c]) scaled by n_c, which equals
    :func:`dpaf_brute` at every Doppler k. All rows come from one index
    gather and one batched inverse FFT; each row's transform is computed
    alone, so the first rows are the same bits whatever ``n_delays`` is.
    """
    av, bv = _samples(a), _samples(b)
    if av.shape != bv.shape or av.ndim != 1:
        raise ValueError("signals must be 1-D and of equal length")
    n_c = len(av)
    n_delays = n_c if n_delays is None else n_delays
    if not 0 <= n_delays <= n_c:
        raise ValueError(f"n_delays must lie in [0, {n_c}], got {n_delays}")
    n = np.arange(n_c)
    shifted = bv[(n - np.arange(n_delays)[:, None]) % n_c]
    return np.fft.ifft(av * np.conj(shifted), axis=-1) * n_c


def aaf_psi0_closed(config: AfdmConfig, l, k) -> complex | np.ndarray:
    """Closed-form auto-ambiguity of the base periodic chirp.

    n_c * exp(-j*pi*l^2/n_p) on the support k = 0 (mod K) and
    l = -floor(k/K) (mod n_p); zero elsewhere. Accepts integer arrays.
    """
    config.require_fmcw("aaf_psi0_closed")
    l = np.asarray(l, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    K, n_p, n_c = config.k_chirps, config.n_p, config.n_c
    on_support = (np.mod(k, K) == 0) & (np.mod(l + np.floor_divide(k, K), n_p) == 0)
    value = n_c * unit_phasor(-K * l * l, 2 * n_c)
    out = np.where(on_support, value, 0.0 + 0.0j)
    return complex(out) if out.ndim == 0 else out


def aaf_shifted_closed(config: AfdmConfig, sub: tuple[int, int], l, k):
    """Auto-ambiguity of the (l_p, k_p) basis chirp: a phase-rotated base AAF."""
    config.require_fmcw("aaf_shifted_closed")
    l_p, k_p = sub
    l = np.asarray(l, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    rot = unit_phasor(2 * (k * l_p - l * k_p), 2 * config.n_c)
    out = rot * aaf_psi0_closed(config, l, k)
    return complex(out) if out.ndim == 0 else out


def caf_closed(
    config: AfdmConfig, sub_a: tuple[int, int], sub_b: tuple[int, int], l, k
):
    """Closed-form cross-ambiguity of two basis chirps.

    Nonzero only when k + k_b - k_a = 0 (mod K) and
    l + l_b - l_a = -floor((k + k_b - k_a)/K) (mod n_p); the value is n_c
    times two unit phases (a shift-rotation term and the base quadratic
    term evaluated at the offset delay).
    """
    config.require_fmcw("caf_closed")
    l_a, k_a = sub_a
    l_b, k_b = sub_b
    l = np.asarray(l, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    K, n_p, n_c = config.k_chirps, config.n_p, config.n_c

    dk = k + k_b - k_a
    dl = l + l_b - l_a
    on_support = (np.mod(dk, K) == 0) & (np.mod(dl + np.floor_divide(dk, K), n_p) == 0)

    # phi1/(2*pi) = (k*l_a - l*k_b)/n_c + (k_b - k_a)*l_a/n_c
    #              + (l_b^2 - l_a^2)/(2*n_p)
    phi1_numer = 2 * (k * l_a - l * k_b) + 2 * (k_b - k_a) * l_a + K * (
        l_b * l_b - l_a * l_a
    )
    # phi2/(2*pi) = -(l + l_b - l_a)^2 / (2*n_p)
    phi2_numer = -K * dl * dl
    value = n_c * unit_phasor(phi1_numer + phi2_numer, 2 * n_c)
    out = np.where(on_support, value, 0.0 + 0.0j)
    return complex(out) if out.ndim == 0 else out


def aaf_psi0_surface(config: AfdmConfig) -> np.ndarray:
    """Full-plane base auto-ambiguity via the closed form (FMCW set only)."""
    l = np.arange(config.n_c, dtype=np.int64)[:, None]
    k = np.arange(config.n_c, dtype=np.int64)[None, :]
    return aaf_psi0_closed(config, l, k)
