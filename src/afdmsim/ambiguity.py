"""Discrete periodic ambiguity functions.

The cyclic delay/Doppler correlation of length-n_c signals,

    L[l, k] = sum_n a[n] * conj(b[(n - l) mod n_c]) * exp(+j*2*pi*k*n/n_c),

has a sparse closed form for the FMCW-equivalent basis chirps: the base
auto-surface is a thumbtack supported on k = 0 mod K with the delay support
line tilted by the Doppler-induced offset floor(k/K). :func:`caf_closed`
evaluates it for any two basis chirps (an auto-surface is a chirp with
itself) with exact integer support tests and exact rational phase reduction.
"""

from __future__ import annotations

import numpy as np

from ._phase import unit_phasor
from .params import AfdmConfig


def _signal_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two signals as complex arrays, which must be 1-D and of equal length."""
    av, bv = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if av.shape != bv.shape or av.ndim != 1:
        raise ValueError("signals must be 1-D and of equal length")
    return av, bv


def dpaf_brute(a, b, l: int, k: int) -> complex:
    """Direct-sum cyclic cross-ambiguity at a single (l, k) point."""
    av, bv = _signal_pair(a, b)
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
    av, bv = _signal_pair(a, b)
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
    This is :func:`caf_closed` of the (0, 0) chirp with itself.
    """
    return caf_closed(config, (0, 0), (0, 0), l, k)


def aaf_shifted_closed(config: AfdmConfig, sub: tuple[int, int], l, k):
    """Auto-ambiguity of the (l_p, k_p) basis chirp: :func:`caf_closed` of it with itself."""
    return caf_closed(config, sub, sub, l, k)


def caf_closed(
    config: AfdmConfig, sub_a: tuple[int, int], sub_b: tuple[int, int], l, k
):
    """Closed-form cross-ambiguity of two basis chirps.

    Nonzero only when k + k_b - k_a = 0 (mod K) and
    l + l_b - l_a = -floor((k + k_b - k_a)/K) (mod n_p); the value is n_c
    times two unit phases (a shift-rotation term and the base quadratic
    term evaluated at the offset delay). Every index is an integer or an
    integer array; anything else (a bool included) is a ValueError.
    """
    config.require_fmcw("caf_closed")
    for name, values in (("sub_a", sub_a), ("sub_b", sub_b), ("l", [l]), ("k", [k])):
        for v in values:
            if np.asarray(v).dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers or integer arrays, got {v!r}")
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
    # phi2/(2*pi) = -(l + l_b - l_a)^2 / (2*n_p)
    # the integer sum is exact in any order; a term whose coefficient is 0
    # everywhere is left out, so the phase keeps the shape of the terms it
    # depends on (an (l, 1) column for the base auto-surface)
    numer = 2 * (k_b - k_a) * l_a + K * (l_b * l_b - l_a * l_a) - K * dl * dl
    if np.any(l_a):
        numer = numer + 2 * l_a * k
    if np.any(k_b):
        numer = numer - 2 * k_b * l
    value = n_c * unit_phasor(numer, 2 * n_c)
    out = np.where(on_support, value, 0.0 + 0.0j)
    return complex(out) if out.ndim == 0 else out
