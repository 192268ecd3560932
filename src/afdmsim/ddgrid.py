"""Delay-Doppler grid view of the DAFT-domain symbols and its channel model.

Reshaping the length-n_c symbol vector onto an (n_p, K) grid through
m = (n_c - K*l - k) mod n_c turns the cyclic delay-Doppler channel into a
quasi-2D-cyclic relation with one twist: a path's Doppler tap k_i leaks into
the delay axis through the coupling offset floor((k - k_i)/K). Noise-free,

    Y[l, k] = sum_i h_i * X[(l - l_i + dl) mod n_p, (k - k_i) mod K]
              * exp(j*2*pi*(k - k_i)*l_i/n_c) * exp(j*pi*(2l - l_i)*l_i/n_p),
    dl = floor((k - k_i) / K).

Three equivalent evaluations are provided: the compact form above
(:func:`io_predict`), the kernel/2D-convolution form (:func:`kernel_hw`,
:func:`io_convolve`), and the general double sum with cross-ambiguity
interaction coefficients (:func:`interaction_coeff`, :func:`io_general`).
All require the FMCW-equivalent parameter set and signed Doppler taps.
"""

from __future__ import annotations

import numpy as np

from ._phase import unit_phasor
from .ambiguity import caf_closed
from .params import AfdmConfig, _check_integer_arrays, _check_paths
from .waveform import dd_index_table


def _check_grid(config: AfdmConfig, g, *, stacked: bool = False) -> np.ndarray:
    """``g`` as a complex (n_p, K) grid (``stacked``: a (..., n_p, K) stack)."""
    arr = np.asarray(g, dtype=np.complex128)
    grid = (config.n_p, config.k_chirps)
    if arr.shape[-2:] != grid or (arr.ndim != 2 and not stacked):
        raise ValueError(f"expected grid of shape {grid}, got {arr.shape}")
    return arr


def vector_to_grid(config: AfdmConfig, v) -> np.ndarray:
    """Reshape length-n_c symbol vectors, (..., n_c), onto (..., n_p, K) grids."""
    config.require_fmcw("vector_to_grid")
    v = np.asarray(v, dtype=np.complex128)
    if v.shape[-1:] != (config.n_c,):
        raise ValueError(f"expected {config.n_c} symbols, got shape {v.shape}")
    # take gives C order; v[..., table] lays a stack out grid-axes first
    return np.take(v, dd_index_table(config), axis=-1)


def grid_to_vector(config: AfdmConfig, g) -> np.ndarray:
    """Inverse of :func:`vector_to_grid` on (..., n_p, K) grids (the index map is a bijection)."""
    config.require_fmcw("grid_to_vector")
    g = _check_grid(config, g, stacked=True)
    v = np.empty(g.shape[:-2] + (config.n_c,), dtype=np.complex128)
    v[..., dd_index_table(config)] = g
    return v


def io_predict(config: AfdmConfig, x_grid, paths) -> np.ndarray:
    """Compact noise-free channel action on a transmitted grid; ``paths`` are ``PathTap`` paths."""
    config.require_fmcw("io_predict")
    X = _check_grid(config, x_grid)
    _check_paths(paths)
    n_p, K, n_c = config.n_p, config.k_chirps, config.n_c
    L = np.arange(n_p, dtype=np.int64)[:, None]
    Kg = np.arange(K, dtype=np.int64)[None, :]
    Y = np.zeros((n_p, K), dtype=np.complex128)
    for p in paths:
        li, ki = int(p.delay_tap), int(p.doppler_tap)
        dk = Kg - ki
        dl = np.floor_divide(dk, K)
        rows = np.mod(L - li + dl, n_p)
        cols = np.mod(dk, K)
        # phase/(2*pi) = (k - k_i)*l_i/n_c + (2l - l_i)*l_i/(2*n_p)
        numer = 2 * dk * li + K * (2 * L - li) * li
        Y += complex(p.gain) * X[rows, cols] * unit_phasor(numer, 2 * n_c)
    return Y


def kernel_hw(config: AfdmConfig, paths, l, k, l_in, k_in):
    """Channel kernel h_w[l, k; l', k'] of the 2D-convolution form.

    Each path contributes exp(j*phi_i) on the single input cell it maps onto
    the output cell (l, k), with
    phi_i = 2*pi*(l_i*k'/n_c + l'*l_i/n_p + l_i^2/(2*n_p)).
    Accepts integer arrays in any argument (broadcast together); ``paths``
    are ``PathTap`` paths. Any other index (a bool included) or path is a
    ValueError.
    """
    config.require_fmcw("kernel_hw")
    _check_paths(paths)
    _check_integer_arrays(l=[l], k=[k], l_in=[l_in], k_in=[k_in])
    n_p, K, n_c = config.n_p, config.k_chirps, config.n_c
    l = np.asarray(l, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    l_in = np.asarray(l_in, dtype=np.int64)
    k_in = np.asarray(k_in, dtype=np.int64)
    out = np.zeros(np.broadcast(l, k, l_in, k_in).shape, dtype=np.complex128)
    for p in paths:
        li, ki = int(p.delay_tap), int(p.doppler_tap)
        dl_i = np.floor_divide(k - (k_in + ki), K)
        doppler_hit = np.mod(k_in - (k - ki), K) == 0
        delay_hit = np.mod(l_in - (l - li + dl_i), n_p) == 0
        numer = 2 * li * k_in + 2 * K * l_in * li + K * li * li
        term = complex(p.gain) * unit_phasor(numer, 2 * n_c)
        out = out + np.where(doppler_hit & delay_hit, term, 0.0 + 0.0j)
    if out.ndim == 0:
        return complex(out)
    return out


def io_convolve(config: AfdmConfig, x_grid, paths) -> np.ndarray:
    """Evaluate the 2D-convolution form: full kernel sum per output cell.

    ``paths`` are ``PathTap`` paths; any other path is a ValueError.
    """
    config.require_fmcw("io_convolve")
    X = _check_grid(config, x_grid)
    n_p, K = config.n_p, config.k_chirps
    Lp = np.arange(n_p, dtype=np.int64)[:, None]
    Kp = np.arange(K, dtype=np.int64)[None, :]
    Y = np.empty((n_p, K), dtype=np.complex128)
    for l in range(n_p):
        for k in range(K):
            Y[l, k] = np.sum(kernel_hw(config, paths, l, k, Lp, Kp) * X)
    return Y


def interaction_coeff(
    config: AfdmConfig,
    sub_in: tuple[int, int],
    sub_out: tuple[int, int],
    l_i: int,
    k_i: int,
):
    """Coupling coefficient between input and output grid cells for one tap.

    Equals conj(CAF of the output-cell chirp against the input-cell chirp,
    evaluated at the tap) / n_c. Accepts arrays inside ``sub_in``; any index
    that is no integer or integer array (a bool included) is a ValueError.
    """
    config.require_fmcw("interaction_coeff")
    _check_integer_arrays(sub_in=sub_in, sub_out=sub_out, l_i=[l_i], k_i=[k_i])
    caf = caf_closed(config, sub_out, sub_in, l_i, k_i)
    return np.conj(caf) / config.n_c


def io_general(config: AfdmConfig, x_grid, paths) -> np.ndarray:
    """General double-sum channel action via interaction coefficients.

    ``paths`` are ``PathTap`` paths; any other path is a ValueError.
    """
    config.require_fmcw("io_general")
    X = _check_grid(config, x_grid)
    _check_paths(paths)
    n_p, K = config.n_p, config.k_chirps
    Lp = np.arange(n_p, dtype=np.int64)[:, None]
    Kp = np.arange(K, dtype=np.int64)[None, :]
    Y = np.zeros((n_p, K), dtype=np.complex128)
    for l in range(n_p):
        for k in range(K):
            acc = 0.0 + 0.0j
            for p in paths:
                coeff = interaction_coeff(
                    config, (Lp, Kp), (l, k), int(p.delay_tap), int(p.doppler_tap)
                )
                acc += complex(p.gain) * np.sum(coeff * X)
            Y[l, k] = acc
    return Y
