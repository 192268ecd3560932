"""Reference forms that only the tests use."""

from __future__ import annotations

import numpy as np

from afdmsim.channel import _gram_diagonals
from afdmsim.metrics import FrameSpec, trial_metrics, trial_rng


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
    return trial_metrics(
        config, FrameSpec.from_overhead(config.n_c, po), scenario.targets, snr, algorithms, rngs,
        **options,
    )
