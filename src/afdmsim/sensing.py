"""Monostatic sensing pipelines and detection on delay-Doppler maps.

Three estimators turn one symbol into a complex (n_p, K) delay-Doppler array:

* ``tfmf``    -- per-chirp spectral matched filter against a reference copy
  of the transmitted signal, then delay and Doppler inverse transforms.
  O(n_c log n_c). Works for any reference waveform but does not compensate
  the Doppler-into-delay coupling of chirp waveforms.
* ``dechirp`` -- conjugate-multiply by a deterministic pilot then transform;
  the classic low-complexity FMCW receiver. Identical map magnitudes to
  ``tfmf`` whenever the reference is the pilot itself.
* ``ddmf``    -- exhaustive hypothesis correlation on the delay-Doppler grid
  with the coupling offset and a phase-matching factor, O(n_c^2) as written
  (``_ddmf_direct``) and O(K n_c log n_c) as K time-domain cross-correlations
  (``ddmf_batch``). Exactly decouples delay and Doppler for the
  FMCW-equivalent parameter set. Against one shared grid with a single
  nonzero cell (the boosted pilot at full pilot overhead) each map cell
  reads one received cell times a known phase, so ``ddmf_batch`` returns a
  gather of the conjugate received grids, O(n_c) per map.

``tfmf`` and ``dechirp`` run chirp-major: a symbol's K chirps of n_p samples
are contiguous runs, so a (..., n_c) stack is a free (..., K, n_p) view. The
fast-time transforms and products run along that contiguous last axis in
place, and the slow-time transform writes the C-contiguous (..., n_p, K)
maps through their transposed view, scaled once.

Doppler columns of every map are mod-K bins; ``ddmf`` evaluates each column
at its signed representative in [-K//2, K-1-K//2] so that targets with
negative Doppler taps integrate coherently at their true delay.

CA- and OS-CFAR mark detections in boolean masks.
"""

from __future__ import annotations

import math

import numpy as np

from ._phase import unit_phasor
from .ddgrid import grid_to_vector
from .params import AfdmConfig, _is_integer
from .waveform import _as_samples, modulate


def _slow_time_maps(chirps: np.ndarray, lead: tuple, scale: float) -> np.ndarray:
    """scale * the slow-time inverse transform of (..., K, n_p) chirps, as (*lead, n_p, K) maps."""
    K, n_p = chirps.shape[-2:]
    maps = np.empty(lead + (n_p, K), dtype=np.complex128)
    np.fft.ifft(chirps, axis=-2, out=maps.reshape(chirps.shape[:-2] + (n_p, K)).swapaxes(-1, -2))
    maps *= scale
    return maps


def tfmf_batch(config: AfdmConfig, r_stack: np.ndarray, s_ref) -> np.ndarray:
    """Vectorized TFMF over a (..., n_c) stack of N received signals.

    ``s_ref`` holds R references: one signal of n_c samples (R = 1), or an
    (R, n_c) stack. R must divide N, and received row i (C order over the
    leading axes) is matched against reference i mod R: R = 1 shares one
    reference, and R = N gives each row its own.
    """
    r = _as_samples(r_stack, config, stacked=True)
    refs = _as_samples(s_ref, config, stacked=True).reshape(-1, config.n_c)
    n_rows = r.size // config.n_c
    if not len(refs) or n_rows % len(refs):
        raise ValueError(f"{len(refs)} references do not divide {n_rows} received signals")
    n_p, K = config.n_p, config.k_chirps
    spectra = np.fft.fft(r.reshape(-1, len(refs), K, n_p))
    ref_spectra = np.fft.fft(refs.reshape(-1, K, n_p))
    spectra *= np.conj(ref_spectra, out=ref_spectra)
    np.fft.ifft(spectra, out=spectra)
    return _slow_time_maps(spectra, r.shape[:-1], np.sqrt(K) / np.sqrt(n_p))


def tfmf(config: AfdmConfig, r, s_ref) -> np.ndarray:
    """Time-frequency matched filter against a known reference signal.

    Five stages: cut both signals into their K chirps of n_p samples, forward
    transform each chirp along fast time, per-cell product with the conjugate
    reference spectrum, inverse transform back to delay, inverse transform
    across the chirps along slow time to Doppler, giving the (n_p, K) map.
    """
    return tfmf_batch(config, _as_samples(r, config)[None, :], s_ref)[0]


def dechirp_batch(config: AfdmConfig, r_stack: np.ndarray, pilot) -> np.ndarray:
    """Vectorized dechirp over a (..., n_c) stack of received signals, chirp-major like TFMF."""
    r = _as_samples(r_stack, config, stacked=True)
    pilot = _as_samples(pilot, config)
    n_p, K = config.n_p, config.k_chirps
    beats = r.reshape(-1, K, n_p) * np.conj(pilot.reshape(K, n_p))
    np.fft.ifft(beats, out=beats)
    return _slow_time_maps(beats, r.shape[:-1], np.sqrt(n_p) * np.sqrt(K))


def dechirp(config: AfdmConfig, r, pilot) -> np.ndarray:
    """Pilot dechirping: conjugate product, then beat-frequency transforms.

    The delay transform uses the +j kernel so that beat frequencies land on
    positive delay bins (argmax at the true tap).
    """
    return dechirp_batch(config, _as_samples(r, config)[None, :], pilot)[0]


def signed_doppler(column, k_chirps: int):
    """Signed hypothesis value for a Doppler column or array of columns (nearest to zero)."""
    return column - k_chirps * (column >= (k_chirps + 1) // 2)


def _ddmf_inputs(config: AfdmConfig, y_grids, x_grids) -> tuple[np.ndarray, np.ndarray]:
    """Check a ddmf call (FMCW-equivalent config; (N, n_p, K) received and
    (R, n_p, K) transmit stacks, R dividing N); return both stacks."""
    config.require_fmcw("ddmf")
    Y = np.asarray(y_grids, dtype=np.complex128)
    X = np.asarray(x_grids, dtype=np.complex128)
    grid = (config.n_p, config.k_chirps)
    if Y.shape[1:] != grid or X.shape[1:] != grid or (len(Y) % len(X) if len(X) else len(Y)):
        raise ValueError(
            "y_grids and x_grids must both be stacks of (n_p, K) grids, "
            "len(x_grids) dividing len(y_grids)"
        )
    return Y, X


def _ddmf_direct(config: AfdmConfig, y_grids: np.ndarray, x_grids: np.ndarray) -> np.ndarray:
    """The delay-Doppler matched filter as written: one correlation per hypothesis cell.

    Same maps as ``ddmf_batch`` to rounding. Per map the work is one
    length-n_c correlation per hypothesis cell, i.e. O(n_c^2) in total: the
    complexity the paper states, and what ``benchmark_pipelines`` times.
    """
    Y, X = _ddmf_inputs(config, y_grids, x_grids)
    if Y.shape != X.shape:
        raise ValueError("y_grids and x_grids must both be (B, n_p, K)")
    n_p, K, n_c = config.n_p, config.k_chirps, config.n_c

    L = np.arange(n_p, dtype=np.int64)
    n_idx = np.arange(n_p, dtype=np.int64)
    shift_idx = np.mod(n_idx[None, :] - L[:, None], n_p)  # [l, n] -> (n-l) mod n_p
    W = unit_phasor(L[:, None] * n_idx[None, :], n_p)     # exp(j2pi n l / n_p)
    Yc = np.conj(Y)

    Z = np.zeros_like(Y)
    for col in range(K):
        k_hyp = signed_doppler(col, K)
        mk = np.arange(K, dtype=np.int64) - k_hyp
        dl_m = np.floor_divide(mk, K)
        cols = np.mod(mk, K)
        # residual hypothesis phase: l*(m-k)/n_c - l^2/(2*n_p) turns per cell
        phase = unit_phasor(
            2 * L[:, None] * mk[None, :] - K * (L * L)[:, None], 2 * n_c
        )
        for m in range(K):
            xt_col = X[:, np.mod(n_idx + dl_m[m], n_p), cols[m]]  # (B, n')
            shifted = xt_col[:, shift_idx]                        # (B, l, n)
            corr = np.einsum("bln,ln,bn->bl", shifted, W, Yc[:, :, m], optimize=True)
            Z[:, :, col] += corr * phase[None, :, m]
    return Z


def _one_cell_gather(
    config: AfdmConfig, x_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, weights) of ``ddmf`` against a grid with one nonzero cell.

    With a at (r0, c0) the only nonzero cell of ``x_grid``, ``_ddmf_direct``'s
    sum keeps one term per hypothesis cell (l, col): m = (c0 + k) mod K with
    k = signed_doppler(col, K), and n = (r0 + l - floor((m - k)/K)) mod n_p.
    So map[l, col] = conj(y[n, m]) * a * exp(j2pi n l / n_p)
    * exp(jpi (2 l (m - k) - K l^2) / n_c), both phases reduced in one
    ``unit_phasor`` over 2 n_c. Returns the (n_p, K) rows n, the (K,)
    columns m and the (n_p, K) weights.
    """
    n_p, K = config.n_p, config.k_chirps
    (r0,), (c0,) = np.nonzero(x_grid)
    l = np.arange(n_p, dtype=np.int64)[:, None]
    k = signed_doppler(np.arange(K, dtype=np.int64), K)
    cols = (c0 + k) % K
    rows = (r0 + l - (cols - k) // K) % n_p
    turns = 2 * K * rows * l + 2 * l * (cols - k) - K * l * l
    return rows, cols, x_grid[r0, c0] * unit_phasor(turns, 2 * config.n_c)


def ddmf_batch(config: AfdmConfig, y_grids: np.ndarray, x_grids: np.ndarray) -> np.ndarray:
    """Delay-Doppler matched filter over a batch of received grids.

    ``y_grids`` holds N received and ``x_grids`` R transmit (n_p, K) grids,
    R dividing N; received grid i is matched against transmit grid i mod R,
    as in ``tfmf_batch``. Returns (N, n_p, K) maps, each independent of the
    rest of the batch. Computes ``_ddmf_direct``'s sum in O(K n_c log n_c)
    per map: under the FMCW-equivalent set every subcarrier is a delayed,
    Doppler-shifted copy of one chirp, so cell (l, col) is the periodic
    cross-ambiguity of the grids' time signals r and s,
    sum_n conj(r[n]) s[n - l] exp(-j2pi k n / n_c) with k the column's
    signed Doppler: lag l of one length-n_c circular correlation per column,
    whose spectrum is V[f + k] T[f] with V = fft(conj r) and T = n_c ifft(s).
    The spectra are transformed once per grid of each stack and the (K, n_c)
    products are formed one map at a time, so only the spectra and the maps
    grow with N. Against one grid with exactly one nonzero cell (the pilot
    alone) each map cell is one received cell times a known phase, so the
    maps are conj(Y[:, rows, cols]) * weights from ``_one_cell_gather``,
    built once per call, and no FFT is taken.
    """
    Y, X = _ddmf_inputs(config, y_grids, x_grids)
    if len(X) == 1 and np.count_nonzero(X) == 1:
        rows, cols, weights = _one_cell_gather(config, X[0])
        maps = np.take(Y.reshape(len(Y), -1), rows * config.k_chirps + cols, axis=-1)
        np.conj(maps, out=maps)
        maps *= weights
        return maps
    n_c, K = config.n_c, config.k_chirps
    V = np.fft.fft(np.conj(modulate(config, grid_to_vector(config, Y))))
    T = np.fft.ifft(modulate(config, grid_to_vector(config, X))) * n_c
    # shift[col, f] = (f + k) mod n_c: the bins of V that column col's Doppler reads
    shift = np.mod(np.arange(n_c) + signed_doppler(np.arange(K), K)[:, None], n_c)
    maps = np.empty_like(Y)
    for b in range(len(Y)):
        maps[b] = np.fft.ifft(V[b, shift] * T[b % len(X)])[:, :config.n_p].T
    return maps


def ddmf(config: AfdmConfig, y_grid, x_grid) -> np.ndarray:
    """Delay-Doppler matched filter for one received grid.

    Correlates the received grid against the known transmitted grid shifted
    to each hypothesis (delay, Doppler) cell, applying the coupling offset
    floor((m - k)/K) and the coherence phase factor. The map is conjugate-
    linear in the received grid.
    """
    return ddmf_batch(config, np.asarray(y_grid)[None], np.asarray(x_grid)[None])[0]


# ---------------------------------------------------------------------------
# CFAR detection: cell-averaging (CA) and ordered-statistic (OS)
# ---------------------------------------------------------------------------

def cfar_threshold_factor(n_train: int, pfa: float) -> float:
    """alpha = N_t * (pfa^(-1/N_t) - 1), the CA-CFAR scaling for exponential cells."""
    return n_train * (pfa ** (-1.0 / n_train) - 1.0)


def _training_windows(
    power: np.ndarray, train: int, guard: int, pfa: float, near: tuple[int, int] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the CFAR arguments for (..., n_p, K) maps; return (windows, ring, cells).

    ``train`` >= 1 and ``guard`` >= 0 are integers (a bool is not),
    ``pfa`` lies in (0, 1) and ``near`` is None or a pair of integers, any
    integers (the engine passes signed taps); anything else is a ValueError.

    ``cells`` are the tested cells, (..., r, c): every cell with ``near``
    None, or with ``near`` = (l, k) the 3 x 3 window of rows l-1, l, l+1
    mod n_p and columns k-1, k, k+1 mod K. Those cells and a cyclic margin
    of w = train + guard are gathered once, as an (r + 2w, c + 2w, M) patch
    over the M maps. ``windows[w + di, w + dj]`` is the (r, c, M) view of
    the cells' values at offset (di, dj), power[(l - di) mod n_p,
    (k - dj) mod K]: the map rolled by (di, dj). ``ring`` is the
    (2w + 1, 2w + 1) mask of the training offsets, Chebyshev radius in
    (guard, w]; C order over its axes runs di outer and dj inner.
    """
    if not (_is_integer(train) and _is_integer(guard) and train >= 1 and guard >= 0):
        raise ValueError(f"need integers train >= 1 and guard >= 0, got {train!r} and {guard!r}")
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie in (0, 1)")
    if near is not None and not (
        isinstance(near, (tuple, list)) and len(near) == 2 and all(map(_is_integer, near))
    ):
        raise ValueError(f"near must be a pair of integers (l, k), got {near!r}")
    n_p, K = power.shape[-2:]
    w = train + guard
    if 2 * w + 1 > n_p or 2 * w + 1 > K:
        raise ValueError(f"CFAR window {2 * w + 1} exceeds map dimensions ({n_p}, {K})")
    l0, k0, r, c = (0, 0, n_p, K) if near is None else (near[0] - 1, near[1] - 1, 3, 3)
    rows = np.mod(np.arange(l0 - w, l0 + r + w), n_p)
    cols = np.mod(np.arange(k0 - w, k0 + c + w), K)
    patch = power.reshape(-1, n_p, K).transpose(1, 2, 0)[rows[:, None], cols]
    # windows[a, b, i, j] = patch[2w - a + i, 2w - b + j], from one bounds-checked
    # constructor (sliding_window_view's argument handling took a third of a window call)
    s0, s1, s2 = patch.strides
    windows = np.ndarray(
        (2 * w + 1, 2 * w + 1, r, c, patch.shape[2]), patch.dtype, buffer=patch,
        offset=2 * w * (s0 + s1), strides=(-s0, -s1, s0, s1, s2),
    )
    span = np.abs(np.arange(-w, w + 1))
    ring = np.maximum(span[:, None], span) > guard
    cells = power if near is None else power[..., rows[w : w + 3, None], cols[w : w + 3]]
    return windows, ring, cells


def _cfar_decide(
    cells: np.ndarray, noise: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """(cells > threshold, threshold) for (..., r, c) cells and their (r, c, M) noise levels.

    threshold = alpha * noise, where an exactly zero noise level is replaced
    by the smallest positive float so that a lone peak is still detected.
    """
    noise = np.moveaxis(np.where(noise > 0.0, noise, np.finfo(np.float64).tiny), -1, 0)
    threshold = alpha * noise.reshape(cells.shape)
    return cells > threshold, threshold


def cfar_mask_batch(
    power: np.ndarray, train: int, guard: int, pfa: float, near: tuple[int, int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized CA-CFAR over a (..., n_p, K) stack of power maps.

    Returns (detected boolean stack, power-threshold stack). With ``near``
    None every cell is tested; with ``near`` = (l, k) only the 3 x 3 window
    around that cell is, and both stacks are (..., 3, 3): rows l-1, l, l+1
    mod n_p and columns k-1, k, k+1 mod K. The noise level is the mean of
    the ``_training_windows`` ring. The maps are the patch's contiguous axis
    and di strides wider than dj, so the masked reduce runs its inner loop
    over cells and maps and adds the offsets one after another in ring order
    (di outer, dj inner), never pairwise: the noise equals the sum of rolled
    copies bit for bit, and the window the full stacks' window.
    """
    windows, ring, cells = _training_windows(power, train, guard, pfa, near)
    n_train = int(ring.sum())
    noise = np.add.reduce(windows, axis=(0, 1), where=ring[..., None, None, None]) / n_train
    return _cfar_decide(cells, noise, cfar_threshold_factor(n_train, pfa))


def os_cfar_rank(n_train: int) -> int:
    """Rank k = ceil(3 N_t / 4) of the ordered training cell used as noise level."""
    return -(-3 * n_train // 4)


def os_cfar_threshold_factor(n_train: int, pfa: float) -> float:
    """OS-CFAR scaling alpha for exponential cells at rank ``os_cfar_rank``.

    Solves sum_{i<k} log((N_t - i) / (N_t - i + alpha)) = log(pfa) by Newton
    steps from alpha = 0. The left side is decreasing and convex in alpha, so
    the iterates rise monotonically to the root without overshooting.
    """
    counts = [n_train - i for i in range(os_cfar_rank(n_train))]
    target = math.log(pfa)
    alpha = 0.0
    for _ in range(100):
        excess = sum(math.log(c / (c + alpha)) for c in counts) - target
        step = excess / sum(1.0 / (c + alpha) for c in counts)
        if step <= 1e-12 * alpha:
            break
        alpha += step
    return alpha


def os_cfar_mask_batch(
    power: np.ndarray, train: int, guard: int, pfa: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ordered-statistic CFAR (Rohling 1983) over (..., n_p, K) maps.

    Same ring, wrap, zero-noise rule, argument checks and return value as
    ``cfar_mask_batch``, but the noise level is the ``os_cfar_rank``-th
    smallest of the N_t training cells instead of their mean, so a strong
    target inside the ring does not raise the threshold of its neighbour
    (CA-CFAR target masking). Every cell is tested: the ring's
    ``_training_windows`` views are stacked once on a last axis and
    partitioned in place, so memory is about N_t times that of ``power``.
    """
    windows, ring, cells = _training_windows(power, train, guard, pfa, None)
    n_train = int(ring.sum())
    rank = os_cfar_rank(n_train)
    stack = np.stack([windows[a, b] for a, b in np.argwhere(ring)], axis=-1)
    stack.partition(rank - 1, axis=-1)
    return _cfar_decide(cells, stack[..., rank - 1], os_cfar_threshold_factor(n_train, pfa))


def peak(cells) -> tuple[int, int, float]:
    """(l, k, |cell|) at the argmax of an (n_p, K) map; ties go to the smallest l, then k."""
    mag = np.abs(cells)
    if mag.ndim != 2:
        raise ValueError(f"cells must be one (n_p, K) map, got shape {mag.shape}")
    if mag.size == 0:
        raise ValueError("empty map")
    flat = int(np.argmax(mag))
    l, k = np.unravel_index(flat, mag.shape)
    return int(l), int(k), float(mag[l, k])
