"""Reference forms that only the tests use."""

from __future__ import annotations

import math

import numpy as np

from afdmsim._phase import chirp_phasor, unit_phasor
from afdmsim.ambiguity import aaf_psi0_closed
from afdmsim.channel import (
    _delay_doppler,
    _doppler_taps,
    _gram_diagonals,
    _noise_scale,
    _normal_pairs,
)
from afdmsim.metrics import qam4_demodulate, qam4_modulate, trial_metrics, trial_rng
from afdmsim.params import AfdmConfig
from afdmsim.waveform import _as_samples, demodulate, modulate


def chirp_pair(config) -> tuple[np.ndarray, np.ndarray]:
    """Read-only exp(j2pi c2 m^2) over m and exp(j2pi c1 n^2) over n, built afresh."""
    index = np.arange(config.n_c, dtype=np.int64)
    pair = chirp_phasor(config.c2, index), chirp_phasor(config.c1, index)
    for phasor in pair:
        phasor.flags.writeable = False
    return pair


def delay_doppler_gram(taps, n_c: int) -> np.ndarray:
    """The dense Gram H_t H_t^H of ``channel._delay_doppler``, built on its diagonals.

    The pairs of ``channel._gram_diagonals`` are added in their order. Equal
    to the dense product up to rounding, not bit for bit.
    """
    n = np.arange(n_c, dtype=np.int64)
    gram = np.zeros((n_c, n_c), dtype=np.complex128)
    for d, values in _gram_diagonals(taps):
        gram[n, (n - d) % n_c] += values
    return gram


def mask_near(mask: np.ndarray, l_true: int, k_true: int) -> np.ndarray:
    """Per map of a (..., n_p, K) mask stack: a detection within one cyclic cell of the tap?"""
    n_p, K = mask.shape[-2:]
    box = np.arange(-1, 2)
    rows = np.mod(l_true + box, n_p)[:, None]
    cols = np.mod(k_true + box, K)[None, :]
    return mask[..., rows, cols].any(axis=(-2, -1))


def scenario_metrics(
    scenario, algorithms, trials, seed=None, snr_db=None, pilot_overhead=None, preset_name=None,
    **options,
):
    """``trial_metrics`` of ``trials`` trials on a scenario, resolved as the sweep kinds do.

    ``None`` takes the scenario's seed, SNR, pilot overhead and preset;
    trial t draws from ``trial_rng(seed, t)``, and ``options`` are
    ``tfmf_reference`` and ``quality``.
    """
    config = scenario.waveform(preset_name)
    po = scenario.pilot_overhead if pilot_overhead is None else pilot_overhead
    snr = scenario.snr_db if snr_db is None else snr_db
    seed = scenario.rng_seed if seed is None else seed
    rngs = (trial_rng(seed, t) for t in range(trials))
    return trial_metrics(config, po, scenario.targets, snr, algorithms, rngs, **options)


def guard_count(n_c: int, po: float) -> int | None:
    """Single-sided zero-guard count Q of pilot overhead ``po``; None is the all-data frame.

    PO = 0 has no pilot; otherwise Q = (PO*n_c - 1)/2 rounded half up.
    """
    if not 0.0 <= po <= 1.0:
        raise ValueError("pilot overhead must lie in [0, 1]")
    if po == 0.0:
        return None
    return max(0, math.floor((po * n_c - 1) / 2 + 0.5))


def reference_frame(config, po: float, rng: np.random.Generator) -> np.ndarray:
    """``metrics.build_frame`` written from the guard count, with its all-data branch.

    The pilot on subcarrier 0 has the power of the min(2Q+1, n_c) slots it
    and its guards take; 4QAM data fill the rest, and a frame without data
    slots draws nothing.
    """
    n_c = config.n_c
    q = guard_count(n_c, po)
    if q is None:
        bits = rng.integers(0, 2, size=(n_c, 2))
        return qam4_modulate(bits).astype(np.complex128)
    occupied = min(2 * q + 1, n_c)
    x = np.zeros(n_c, dtype=np.complex128)
    x[0] = math.sqrt(occupied)
    if n_c - occupied:
        mask = np.ones(n_c, dtype=bool)
        mask[np.mod(np.arange(-q, q + 1), n_c)] = False
        x[mask] = qam4_modulate(rng.integers(0, 2, size=(n_c - occupied, 2)))
    return x


def _fast_slow(config, samples: np.ndarray) -> np.ndarray:
    """(..., n_c) -> (..., n_p, K) fast/slow-time matrices: entry [n, q] = x[n + q*n_p]."""
    return samples.reshape(*samples.shape[:-1], config.k_chirps, config.n_p).swapaxes(-1, -2)


def tfmf_strided(config, r_stack, s_ref) -> np.ndarray:
    """``sensing.tfmf_batch`` on the transposed (n_p, K) view, scaled stage by stage.

    Each transform runs along a strided axis and each stage keeps its own
    unitary scale, as the filter is written step by step.
    """
    r = _as_samples(r_stack, config, stacked=True)
    refs = _as_samples(s_ref, config, stacked=True).reshape(-1, config.n_c)
    rm = _fast_slow(config, r.reshape(-1, len(refs), config.n_c))
    n_p, K = config.n_p, config.k_chirps
    r_fre = np.fft.fft(rm, axis=-2) / np.sqrt(n_p)
    s_fre = np.fft.fft(_fast_slow(config, refs), axis=-2) / np.sqrt(n_p)
    mf = r_fre * np.conj(s_fre)
    d_range = np.fft.ifft(mf, axis=-2) * np.sqrt(n_p)
    return (np.fft.ifft(d_range, axis=-1) * np.sqrt(K)).reshape(r.shape[:-1] + (n_p, K))


def dechirp_strided(config, r_stack, pilot) -> np.ndarray:
    """``sensing.dechirp_batch`` on the transposed (n_p, K) view, scaled stage by stage."""
    rm = _fast_slow(config, _as_samples(r_stack, config, stacked=True))
    pm = _fast_slow(config, _as_samples(pilot, config))
    n_p, K = config.n_p, config.k_chirps
    d_range = np.fft.ifft(rm * np.conj(pm), axis=-2) * np.sqrt(n_p)
    return np.fft.ifft(d_range, axis=-1) * np.sqrt(K)



def apply_channel_linear(config: AfdmConfig, s, paths) -> np.ndarray:
    """Physical non-cyclic channel over a CPP-extended block of n_c + l_cpp samples.

    Delayed samples that precede the block are dropped (no energy wraps), and
    the Doppler phase is referenced to the post-CPP sample index so that
    removing the CPP afterwards reproduces :func:`apply_channel` exactly for
    every delay tap not exceeding l_cpp.
    """
    s = _as_samples(s, config, cpp=True)
    total = len(s)
    n_post = np.arange(total, dtype=np.int64) - config.l_cpp
    out = np.zeros(total, dtype=np.complex128)
    for p in paths:
        li = p.delay_tap
        if li >= total:
            continue
        shifted = np.zeros(total, dtype=np.complex128)
        shifted[li:] = s[: total - li]
        out += complex(p.gain) * shifted * unit_phasor(-p.doppler_tap * n_post, config.n_c)
    return out


def add_awgn(r, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise to a signal or stack of any shape.

    The variance convention is relative to unit mean transmit-sample power
    (frames are built with total energy n_c, so E|s[n]|^2 = 1); +inf
    ``snr_db`` returns the signal unchanged and draws nothing. The real
    parts of every sample, in C order, are drawn before the imaginary parts.
    """
    r = np.asarray(r, dtype=np.complex128)
    scale = _noise_scale(snr_db)
    if scale is None:
        return r
    return r + scale * _normal_pairs(r.size, rng).reshape(r.shape)


def aaf_psi0_surface(config: AfdmConfig) -> np.ndarray:
    """Full-plane base auto-ambiguity via the closed form (FMCW set only)."""
    l = np.arange(config.n_c, dtype=np.int64)[:, None]
    k = np.arange(config.n_c, dtype=np.int64)[None, :]
    return aaf_psi0_closed(config, l, k)


def ber(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Bit error fraction between two 4QAM symbol arrays."""
    b_hat = qam4_demodulate(x_hat)
    b_true = qam4_demodulate(x_true)
    return float(np.mean(b_hat != b_true))


def build_effective_channel(config: AfdmConfig, paths) -> np.ndarray:
    """Dense n_c x n_c DAFT-domain channel matrix H = A^H H_t A.

    Column m equals demodulate(apply_channel(modulate(e_m))); A is the
    unitary DAFT and H_t the waveform-independent time-domain channel.
    """
    eye = np.eye(config.n_c, dtype=np.complex128)
    # row m of each stack is the image of the basis vector e_m
    taps = _doppler_taps(paths, config.n_c)
    return demodulate(config, _delay_doppler(modulate(config, eye), taps)).T


def lmmse_detect(H: np.ndarray, y: np.ndarray, noise_var: float) -> np.ndarray:
    """LMMSE equalizer: x_hat = H^H (H H^H + noise_var I)^(-1) y.

    ``y`` may be a vector or a matrix of column observations. Raises
    ``numpy.linalg.LinAlgError`` when the regularized system is singular
    (rank-deficient H at noise_var = 0).
    """
    if not noise_var >= 0:  # NaN included
        raise ValueError("noise_var must be non-negative")
    H_h = H.conj().T
    z = np.linalg.solve(H @ H_h + noise_var * np.eye(H.shape[0]), y)
    return H_h @ z
