"""Monostatic sensing pipelines and detection on delay-Doppler maps.

Three estimators produce an (n_p, K) delay-Doppler map from one symbol:

* ``tfmf``    -- fast/slow-time reshape, per-column spectral matched filter
  against a reference copy of the transmitted signal, then delay and Doppler
  inverse transforms. O(n_c log n_c). Works for any reference waveform but
  does not compensate the Doppler-into-delay coupling of chirp waveforms.
* ``dechirp`` -- conjugate-multiply by a deterministic pilot then transform;
  the classic low-complexity FMCW receiver. Identical map magnitudes to
  ``tfmf`` whenever the reference is the pilot itself.
* ``ddmf``    -- exhaustive hypothesis correlation on the delay-Doppler grid
  with the coupling offset and a phase-matching factor, O(n_c^2) as written
  (``_ddmf_direct``) and O(K n_c log n_p) FFT-factored (``ddmf_batch``).
  Exactly decouples delay and Doppler for the FMCW-equivalent parameter set.

Doppler columns of every map are mod-K bins; ``ddmf`` evaluates each column
at its signed representative in [-K//2, K-1-K//2] so that targets with
negative Doppler taps integrate coherently at their true delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._phase import unit_phasor
from .params import AfdmConfig
from .waveform import _as_samples


@dataclass(frozen=True)
class DelayDopplerMap:
    """Complex (n_p, K) sensing surface plus the algorithm that made it."""

    cells: np.ndarray
    config: AfdmConfig
    algorithm: str

    def __post_init__(self) -> None:
        if self.cells.shape != (self.config.n_p, self.config.k_chirps):
            raise ValueError(
                f"map shape {self.cells.shape} does not match config grid "
                f"({self.config.n_p}, {self.config.k_chirps})"
            )

    def magnitude(self) -> np.ndarray:
        return np.abs(self.cells)


@dataclass(frozen=True)
class Detection:
    """One CFAR exceedance: cell indices, amplitude, and its threshold."""

    l: int
    k: int
    magnitude: float
    threshold: float


def _fast_slow(config: AfdmConfig, samples: np.ndarray) -> np.ndarray:
    """(n_p, K) fast/slow-time matrix: entry [n, q] = x[n + q*n_p]."""
    return samples.reshape(config.k_chirps, config.n_p).T


def _fast_slow_batch(config: AfdmConfig, stack: np.ndarray) -> np.ndarray:
    """(B, n_c) stack -> (B, n_p, K) fast/slow-time matrices."""
    b = stack.shape[0]
    return stack.reshape(b, config.k_chirps, config.n_p).transpose(0, 2, 1)


def tfmf_batch(config: AfdmConfig, r_stack: np.ndarray, s_ref) -> np.ndarray:
    """Vectorized TFMF over a (B, n_c) stack of received signals.

    ``s_ref`` is one reference for every row (a signal or n_c samples) or a
    (B, n_c) stack holding each row's own reference.
    """
    rm = _fast_slow_batch(config, np.asarray(r_stack, dtype=np.complex128))
    refs = _as_samples(s_ref, config, stacked=True).reshape(-1, config.n_c)
    if len(refs) not in (1, len(rm)):
        raise ValueError(f"{len(refs)} references for {len(rm)} received signals")
    sm = _fast_slow_batch(config, refs)
    n_p, K = config.n_p, config.k_chirps
    r_fre = np.fft.fft(rm, axis=1) / np.sqrt(n_p)
    s_fre = np.fft.fft(sm, axis=1) / np.sqrt(n_p)
    mf = r_fre * np.conj(s_fre)
    d_range = np.fft.ifft(mf, axis=1) * np.sqrt(n_p)
    return np.fft.ifft(d_range, axis=2) * np.sqrt(K)


def tfmf(config: AfdmConfig, r, s_ref) -> DelayDopplerMap:
    """Time-frequency matched filter against a known reference signal.

    Five stages: reshape both signals to (n_p, K) fast/slow-time matrices,
    forward transform along fast time, per-cell product with the conjugate
    reference spectrum, inverse transform back to delay, inverse transform
    along slow time to Doppler.
    """
    cells = tfmf_batch(config, _as_samples(r, config)[None, :], s_ref)[0]
    return DelayDopplerMap(cells, config, "tfmf")


def dechirp_batch(config: AfdmConfig, r_stack: np.ndarray, pilot) -> np.ndarray:
    """Vectorized dechirp over a (B, n_c) stack of received signals."""
    rm = _fast_slow_batch(config, np.asarray(r_stack, dtype=np.complex128))
    pm = _fast_slow(config, _as_samples(pilot, config))
    n_p, K = config.n_p, config.k_chirps
    d = rm * np.conj(pm)[None, :, :]
    d_range = np.fft.ifft(d, axis=1) * np.sqrt(n_p)
    return np.fft.ifft(d_range, axis=2) * np.sqrt(K)


def dechirp(config: AfdmConfig, r, pilot) -> DelayDopplerMap:
    """Pilot dechirping: conjugate product, then beat-frequency transforms.

    The delay transform uses the +j kernel so that beat frequencies land on
    positive delay bins (argmax at the true tap).
    """
    cells = dechirp_batch(config, _as_samples(r, config)[None, :], pilot)[0]
    return DelayDopplerMap(cells, config, "dechirp")


def signed_doppler(column: int, k_chirps: int) -> int:
    """Signed hypothesis value for a Doppler column (nearest to zero)."""
    half = (k_chirps + 1) // 2
    return column - k_chirps if column >= half else column


def _ddmf_inputs(config: AfdmConfig, y_grids, x_grids) -> tuple[np.ndarray, np.ndarray]:
    """Check a ddmf call (FMCW-equivalent config, two (B, n_p, K) stacks); return both stacks."""
    config.require_fmcw("ddmf")
    Y = np.asarray(y_grids, dtype=np.complex128)
    X = np.asarray(x_grids, dtype=np.complex128)
    if Y.shape != X.shape or Y.shape[1:] != (config.n_p, config.k_chirps):
        raise ValueError("y_grids and x_grids must both be (B, n_p, K)")
    return Y, X


def _ddmf_direct(config: AfdmConfig, y_grids: np.ndarray, x_grids: np.ndarray) -> np.ndarray:
    """The delay-Doppler matched filter as written: one correlation per hypothesis cell.

    Same maps as ``ddmf_batch`` to rounding. Per map the work is one
    length-n_c correlation per hypothesis cell, i.e. O(n_c^2) in total: the
    complexity the paper states, and what ``benchmark_pipelines`` times.
    """
    Y, X = _ddmf_inputs(config, y_grids, x_grids)
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


def ddmf_batch(config: AfdmConfig, y_grids: np.ndarray, x_grids: np.ndarray) -> np.ndarray:
    """Delay-Doppler matched filter over a batch of received grids.

    ``y_grids`` and ``x_grids`` are (B, n_p, K); returns (B, n_p, K) maps,
    each independent of the rest of the batch. Computes ``_ddmf_direct``'s
    sum in O(K n_c log n_p) per map: with c(u) = exp(j pi u^2 / n_p), which
    is n_p-periodic because n_p is even, Bluestein's identity
    nl = (n^2 + l^2 - (n-l)^2) / 2 turns each (hypothesis column, m)
    correlation sum_n a[n-l] exp(j2pi nl/n_p) conj(y[n]) into
    c(l) * sum_n (conj(y) c)[n] (a conj(c))[n-l], a length-n_p circular
    correlation. The c(l) cancels the l^2 term of the hypothesis phase.
    """
    Y, X = _ddmf_inputs(config, y_grids, x_grids)
    n_p, K, n_c = config.n_p, config.k_chirps, config.n_c
    n = np.arange(n_p, dtype=np.int64)
    chirp = unit_phasor(n * n, 2 * n_p)  # c(n)
    # U[b, m, f]: spectrum of conj(y_m) c per received column m
    U = np.fft.fft(np.conj(Y).transpose(0, 2, 1) * chirp, axis=-1)
    # V[b, dl + 1, q, f]: n_p * inverse spectrum of a conj(c) for the transmit
    # column q rolled by the coupling offset dl; floor((m - k)/K) takes all
    # three values -1, 0, 1 over the signed hypotheses k
    rolled = np.stack([np.roll(X, -dl, axis=1) for dl in (-1, 0, 1)], axis=1)
    V = np.fft.ifft(rolled.transpose(0, 1, 3, 2) * np.conj(chirp), axis=-1) * n_p
    k_hyp = np.array([signed_doppler(col, K) for col in range(K)])
    mk = np.arange(K) - k_hyp[:, None]  # [col, m] -> m - k
    # h[b, col, m, l] = sum_n u_m[n] v[n - l]: one circular correlation per (col, m)
    h = V[:, np.floor_divide(mk, K) + 1, np.mod(mk, K)]
    h *= U[:, None, :, :]
    h = np.fft.ifft(h, axis=-1)
    ramp = unit_phasor(mk[:, :, None] * n[None, None, :], n_c)  # exp(j2pi l(m-k)/n_c)
    return np.einsum("bcml,cml->blc", h, ramp)


def ddmf(config: AfdmConfig, y_grid, x_grid) -> DelayDopplerMap:
    """Delay-Doppler matched filter for one received grid.

    Correlates the received grid against the known transmitted grid shifted
    to each hypothesis (delay, Doppler) cell, applying the coupling offset
    floor((m - k)/K) and the coherence phase factor. The map is conjugate-
    linear in the received grid.
    """
    Y = np.asarray(y_grid, dtype=np.complex128)[None, :, :]
    X = np.asarray(x_grid, dtype=np.complex128)[None, :, :]
    cells = ddmf_batch(config, Y, X)[0]
    return DelayDopplerMap(cells, config, "ddmf")


# ---------------------------------------------------------------------------
# CFAR detection: cell-averaging (CA) and ordered-statistic (OS)
# ---------------------------------------------------------------------------

def _ring_offsets(train: int, guard: int) -> list[tuple[int, int]]:
    """Offsets of the square training ring (Chebyshev radius in (g, g+t])."""
    w = train + guard
    return [
        (di, dj)
        for di in range(-w, w + 1)
        for dj in range(-w, w + 1)
        if max(abs(di), abs(dj)) > guard
    ]


def cfar_threshold_factor(n_train: int, pfa: float) -> float:
    """alpha = N_t * (pfa^(-1/N_t) - 1), the CA-CFAR scaling for exponential cells."""
    return n_train * (pfa ** (-1.0 / n_train) - 1.0)


def _cfar_ring(
    power: np.ndarray, train: int, guard: int, pfa: float
) -> list[tuple[int, int]]:
    """Check the CFAR arguments against a (..., n_p, K) stack; return the ring offsets."""
    if train < 1 or guard < 0:
        raise ValueError("need train >= 1 and guard >= 0")
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie in (0, 1)")
    n_p, K = power.shape[-2:]
    window = 2 * (train + guard) + 1
    if window > n_p or window > K:
        raise ValueError(
            f"CFAR window {window} exceeds map dimensions ({n_p}, {K})"
        )
    return _ring_offsets(train, guard)


def _wrap_pad(power: np.ndarray, w: int) -> np.ndarray:
    """Pad the last two axes of a map stack by ``w`` cells on each side, cyclically."""
    rows, cols = (np.arange(-w, size + w) for size in power.shape[-2:])
    return np.take(np.take(power, rows, axis=-2, mode="wrap"), cols, axis=-1, mode="wrap")


def _detections(
    ddm: DelayDopplerMap, mask_fn, train: int, guard: int, pfa: float
) -> list[Detection]:
    """Run a CFAR mask function on one map and list its exceedances."""
    power = np.abs(ddm.cells) ** 2
    mask, threshold = mask_fn(power, train, guard, pfa)
    return [
        Detection(
            l=int(l),
            k=int(k),
            magnitude=float(np.sqrt(power[l, k])),
            threshold=float(np.sqrt(threshold[l, k])),
        )
        for l, k in np.argwhere(mask)
    ]


def cfar_mask_batch(
    power: np.ndarray, train: int, guard: int, pfa: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized CA-CFAR over a (..., n_p, K) stack of power maps.

    Returns (detected boolean stack, power-threshold stack). The training
    ring wraps cyclically at the map edges; an exactly zero noise estimate is
    replaced by the smallest positive float so a lone peak is still detected.
    """
    offsets = _cfar_ring(power, train, guard, pfa)
    w = train + guard
    # summed delay-last, so each add runs along n_p contiguous cells; the
    # padded slice [w - dj, w - di] is the map rolled by (di, dj)
    padded = _wrap_pad(power.swapaxes(-1, -2), w)
    n_p, K = power.shape[-2:]
    ring = np.zeros(padded.shape[:-2] + (K, n_p), dtype=padded.dtype)
    for di, dj in offsets:
        ring += padded[..., w - dj : w - dj + K, w - di : w - di + n_p]
    noise = ring.swapaxes(-1, -2) / len(offsets)
    noise = np.where(noise > 0.0, noise, np.finfo(np.float64).tiny)
    threshold = cfar_threshold_factor(len(offsets), pfa) * noise
    return power > threshold, threshold


def ca_cfar_2d(
    ddm: DelayDopplerMap, train: int, guard: int, pfa: float
) -> list[Detection]:
    """2D cell-averaging CFAR on a delay-Doppler map."""
    return _detections(ddm, cfar_mask_batch, train, guard, pfa)


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
    (CA-CFAR target masking). Memory is N_t times that of ``power``.
    """
    offsets = _cfar_ring(power, train, guard, pfa)
    rank = os_cfar_rank(len(offsets))
    w = train + guard
    windows = sliding_window_view(_wrap_pad(power, w), (2 * w + 1, 2 * w + 1), axis=(-2, -1))
    rows, cols = (np.array(offsets) + w).T
    ring = windows[..., rows, cols]  # (..., n_p, K, N_t) cyclic training cells
    noise = np.partition(ring, rank - 1, axis=-1)[..., rank - 1]
    noise = np.where(noise > 0.0, noise, np.finfo(np.float64).tiny)
    threshold = os_cfar_threshold_factor(len(offsets), pfa) * noise
    return power > threshold, threshold


def os_cfar_2d(
    ddm: DelayDopplerMap, train: int, guard: int, pfa: float
) -> list[Detection]:
    """2D ordered-statistic CFAR on a delay-Doppler map (detections as ``ca_cfar_2d``)."""
    return _detections(ddm, os_cfar_mask_batch, train, guard, pfa)


def peak(ddm: DelayDopplerMap) -> tuple[int, int, float]:
    """Argmax of |cells|; ties resolve to the smallest l, then smallest k."""
    mag = ddm.magnitude()
    if mag.size == 0:
        raise ValueError("empty map")
    flat = int(np.argmax(mag))
    l, k = np.unravel_index(flat, mag.shape)
    return int(l), int(k), float(mag[l, k])


def cyclic_distance(a: int, b: int, modulus: int) -> int:
    d = abs((a - b) % modulus)
    return min(d, modulus - d)


def detection_near(
    detections, l_true: int, k_true: int, n_p: int, k_chirps: int, radius: int = 1
) -> bool:
    """True if any detection lies within a cyclic +-radius cell box of the tap."""
    k_bin = k_true % k_chirps
    return any(
        cyclic_distance(d.l, l_true % n_p, n_p) <= radius
        and cyclic_distance(d.k, k_bin, k_chirps) <= radius
        for d in detections
    )


def mask_near(mask: np.ndarray, l_true: int, k_true: int, radius: int = 1) -> np.ndarray:
    """Per-map ``detection_near`` on a (..., n_p, K) detection-mask stack."""
    n_p, K = mask.shape[-2:]
    box = np.arange(-radius, radius + 1)
    rows = np.mod(l_true + box, n_p)[:, None]
    cols = np.mod(k_true + box, K)[None, :]
    return mask[..., rows, cols].any(axis=(-2, -1))
