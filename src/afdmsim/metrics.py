"""Frame construction, sensing quality metrics, and the LMMSE comm link.

Frames put a boosted pilot on subcarrier 0 with Q zero guards on each cyclic
side and unit-power 4QAM data elsewhere; the energy freed by the guards and
the pilot slot is assigned to the pilot so total symbol energy is exactly
n_c for every pilot overhead. Pilot overhead PO = (2Q+1)/n_c.

Sensing metrics operate on delay-Doppler maps: PSLR (peak over strongest
other cell) and image SNR (peak power over mean background power outside a
one-cell guard ring). Every sensing Monte Carlo runs through one trial
engine, ``sensing_trials``, and ``trial_metrics`` reduces its maps per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    PathTap,
    _awgn,
    _delay_doppler,
    _doppler_taps,
    noise_variance,
    taps_from_targets,
)
from .params import AfdmConfig, ScenarioConfig
from .ddgrid import vector_to_grid
from .sensing import (  # noqa: F401 -- ddmf is re-exported
    DelayDopplerMap,
    _DdmfPlan,
    _ddmf_plan,
    cfar_mask_batch,
    ddmf,
    ddmf_batch,
    dechirp_batch,
    mask_near,
    tfmf_batch,
)
from .waveform import TimeSignal, _chirps, _modulate, demodulate, subcarrier

ALGORITHMS = ("tfmf", "dechirp", "ddmf")

#: CFAR configuration used by the detection-probability studies.
CFAR_TRAIN, CFAR_GUARD, CFAR_PFA = 2, 1, 1e-4

#: Trials simulated and filtered together by ``sensing_trials``. Memory sets
#: it, not speed: blocks of 8 raised the benchmark's peak RSS on ddmf sweeps
#: by 2.4%, beyond its 2% bound; blocks of 4 by 0.3%.
TRIAL_BLOCK = 4


@dataclass(frozen=True)
class MetricReport:
    """Aggregated quality figures for one (condition, algorithm) cell.

    Probability fields must be valid fractions or NaN when the quantity was
    not measured; dB fields may be +-inf (sentinels for degenerate maps).
    """

    pslr_db: float
    image_snr_db: float
    pd: float
    ber: float
    trials: int

    def __post_init__(self) -> None:
        for name in ("pd", "ber"):
            value = getattr(self, name)
            if not math.isnan(value) and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.trials <= 0:
            raise ValueError("trials must be positive")


# ---------------------------------------------------------------------------
# 4QAM mapping (Gray: independent sign bits on I and Q)
# ---------------------------------------------------------------------------

_SCALE = 1.0 / math.sqrt(2.0)


def qam4_modulate(bits: np.ndarray) -> np.ndarray:
    """(..., 2) bit pairs -> unit-power 4QAM symbols."""
    b = np.asarray(bits)
    return ((1 - 2 * b[..., 0]) + 1j * (1 - 2 * b[..., 1])) * _SCALE


def qam4_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard decisions back to (..., 2) bit pairs."""
    s = np.asarray(symbols)
    return np.stack([(s.real < 0).astype(np.int8), (s.imag < 0).astype(np.int8)], axis=-1)


def ber(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Bit error fraction between two 4QAM symbol arrays."""
    b_hat = qam4_demodulate(x_hat)
    b_true = qam4_demodulate(x_true)
    return float(np.mean(b_hat != b_true))


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameSpec:
    """Pilot/guard layout of one symbol.

    ``q_guard`` is the single-sided zero-guard count; ``None`` means a pure
    data frame with no pilot at all. The pilot sits on subcarrier 0, the data
    are 4QAM, and the pilot power is the number of distinct pilot+guard slots
    (the energy-conserving boost).
    """

    q_guard: int | None

    def __post_init__(self) -> None:
        if self.q_guard is not None and self.q_guard < 0:
            raise ValueError("q_guard must be non-negative")

    @classmethod
    def from_overhead(cls, n_c: int, po: float) -> "FrameSpec":
        """Resolve a pilot-overhead fraction to a guard count.

        PO = 0 gives the all-data frame; otherwise Q = round((PO*n_c - 1)/2),
        so PO = 1 covers every non-pilot subcarrier with guards.
        """
        if not 0.0 <= po <= 1.0:
            raise ValueError("pilot overhead must lie in [0, 1]")
        if po == 0.0:
            return cls(q_guard=None)
        return cls(q_guard=max(0, round((po * n_c - 1) / 2)))

    def occupied_slots(self, n_c: int) -> int:
        """Distinct subcarriers taken by the pilot and its guards."""
        if self.q_guard is None:
            return 0
        return min(2 * self.q_guard + 1, n_c)

    def overhead(self, n_c: int) -> float:
        return self.occupied_slots(n_c) / n_c


def build_frame(config: AfdmConfig, spec: FrameSpec, rng: np.random.Generator) -> np.ndarray:
    """One DAFT-domain symbol vector with total energy exactly n_c."""
    n_c = config.n_c
    if spec.q_guard is None:
        bits = rng.integers(0, 2, size=(n_c, 2))
        return qam4_modulate(bits).astype(np.complex128)

    occupied = spec.occupied_slots(n_c)
    n_data = n_c - occupied
    x = np.zeros(n_c, dtype=np.complex128)
    x[0] = math.sqrt(occupied)
    if n_data:
        offsets = np.arange(-spec.q_guard, spec.q_guard + 1)
        mask = np.ones(n_c, dtype=bool)
        mask[np.mod(offsets, n_c)] = False
        bits = rng.integers(0, 2, size=(n_data, 2))
        x[mask] = qam4_modulate(bits)
    return x


def pilot_reference(config: AfdmConfig):
    """Unit-amplitude deterministic pilot waveform (base chirp subcarrier)."""
    return subcarrier(config, 0)


# ---------------------------------------------------------------------------
# Map metrics
# ---------------------------------------------------------------------------

def _cells(ddm) -> np.ndarray:
    return ddm.cells if isinstance(ddm, DelayDopplerMap) else np.asarray(ddm)


def _db(scale: float, num, den):
    """scale * log10(num / den) per element: +inf where den is 0, else -inf where num is 0.

    ``math.log10`` is bit-stable here; ``np.log10`` can differ from it by one ulp.
    """
    values = [
        math.inf if d == 0.0 else -math.inf if n == 0.0 else scale * math.log10(n / d)
        for n, d in zip(np.ravel(num).tolist(), np.ravel(den).tolist())
    ]
    return values[0] if np.ndim(num) == 0 else np.array(values).reshape(np.shape(num))


def pslr(ddm, target: tuple[int, int]):
    """Peak-to-maximum-sidelobe ratio in dB, peak taken at the target cell.

    A (..., n_p, K) stack of maps gives an array with one ratio per map.
    """
    mag = np.abs(_cells(ddm))
    l, k = target
    flat = mag.reshape(*mag.shape[:-2], -1)
    rest = np.delete(flat, l * mag.shape[-1] + k, axis=-1)
    side = rest.max(axis=-1) if rest.shape[-1] else np.zeros(flat.shape[:-1])
    return _db(20.0, mag[..., l, k], side)


def image_snr(ddm, target: tuple[int, int]):
    """Peak power over mean background power (one-cell guard ring excluded), dB.

    A (..., n_p, K) stack of maps gives an array with one ratio per map.
    """
    power = np.abs(_cells(ddm)) ** 2
    n_p, K = power.shape[-2:]
    l, k = target
    mask = np.ones((n_p, K), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            mask[(l + di) % n_p, (k + dj) % K] = False
    if not mask.any():
        raise ValueError("map too small to exclude the target guard ring")
    # C order keeps each map's background sum in the single-map (pairwise) order
    background = np.ascontiguousarray(power[..., mask]).mean(axis=-1)
    return _db(10.0, power[..., l, k], background)


# ---------------------------------------------------------------------------
# Monte-Carlo sensing trials
# ---------------------------------------------------------------------------

class _TrialPlan(NamedTuple):
    """What every trial block of one ``sensing_trials`` call shares, built once per call."""

    pilot: TimeSignal        # pilot_reference(config)
    chirps: tuple            # _chirps(config), for modulate and demodulate
    taps: list               # _doppler_taps(paths, n_c), for the channel
    ddmf: _DdmfPlan | None   # _ddmf_plan(config) when ddmf is among the algorithms


def _trial_plan(config: AfdmConfig, paths, algorithms) -> _TrialPlan:
    return _TrialPlan(
        pilot=pilot_reference(config),
        chirps=_chirps(config),
        taps=_doppler_taps(paths, config.n_c),
        ddmf=_ddmf_plan(config) if "ddmf" in algorithms else None,
    )


def _matched_maps(config: AfdmConfig, algorithm: str, x, s, r, tfmf_reference: str, plan):
    """(B, n_p, K) maps of one algorithm from (B, n_c) symbol, transmit and received stacks."""
    if algorithm == "tfmf":
        return tfmf_batch(config, r, s if tfmf_reference == "transmit" else plan.pilot)
    if algorithm == "dechirp":
        return dechirp_batch(config, r, plan.pilot)
    if algorithm == "ddmf":
        y_grids = vector_to_grid(config, demodulate(config, r, plan.chirps))
        return ddmf_batch(config, y_grids, vector_to_grid(config, x), plan.ddmf)
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def _trial_block(config, frame, snr_db, algorithms, rngs, tfmf_reference, plan: _TrialPlan):
    """{algorithm: (B, n_p, K) maps}, one trial per generator; each draws frame bits, then noise.

    The draws stay per trial; modulation, channel and noise act once on the (B, n_c) stacks.
    """
    x, noise = zip(
        *[(build_frame(config, frame, rng), _awgn(config.n_c, snr_db, rng)) for rng in rngs]
    )
    x = np.stack(x)
    s = _modulate(config, x, plan.chirps)
    r = _delay_doppler(s, plan.taps)
    if noise[0] is not None:  # None: no noise drawn at +inf SNR
        r += np.stack(noise)
    return {
        alg: _matched_maps(config, alg, x, s, r, tfmf_reference, plan) for alg in algorithms
    }


def sensing_maps(
    config: AfdmConfig,
    spec: FrameSpec,
    paths,
    snr_db: float,
    algorithms,
    rng: np.random.Generator,
    tfmf_reference: str = "transmit",
) -> dict[str, DelayDopplerMap]:
    """Simulate one symbol through the channel and run the requested pipelines.

    ``tfmf_reference`` selects the matched-filter copy: the full known
    transmit signal (default) or the deterministic pilot only.
    """
    maps = _trial_block(
        config, spec, snr_db, algorithms, [rng], tfmf_reference,
        _trial_plan(config, paths, algorithms),
    )
    return {alg: DelayDopplerMap(cells[0], config, alg) for alg, cells in maps.items()}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, deterministic per-trial stream."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def sensing_trials(
    config: AfdmConfig,
    frame: FrameSpec,
    paths,
    snr_db: float,
    algorithms,
    trials: int,
    seed: int,
    tfmf_reference: str = "transmit",
):
    """Yield {algorithm: (B, n_p, K) maps} for trials 0..trials-1, B <= TRIAL_BLOCK.

    Trial t is ``sensing_maps`` on ``trial_rng(seed, t)``. Whatever depends
    only on the config and the paths -- the pilot, the chirp pair, the
    channel's Doppler taps and the ddmf phasors (``_trial_plan``) -- is built
    once per call and shared by every block; nothing outlives the call.
    """
    plan = _trial_plan(config, paths, algorithms)
    for start in range(0, trials, TRIAL_BLOCK):
        rngs = [trial_rng(seed, t) for t in range(start, min(start + TRIAL_BLOCK, trials))]
        yield _trial_block(config, frame, snr_db, algorithms, rngs, tfmf_reference, plan)


def trial_metrics(
    scenario: ScenarioConfig,
    algorithms,
    trials: int,
    seed: int | None = None,
    snr_db: float | None = None,
    pilot_overhead: float | None = None,
    preset_name: str | None = None,
    tfmf_reference: str = "transmit",
    quality: bool = True,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-trial (PSLR dB, image SNR dB, hit) arrays of each algorithm.

    Every metric is taken at the scenario's first target. A hit is a CA-CFAR
    detection (2 train, 1 guard, Pfa 1e-4) within one cyclic cell of its
    tap. Noise and data symbols are redrawn every trial; path gains stay
    fixed at the scenario values. ``None`` arguments take the scenario's.
    With ``quality=False`` only the hits are computed, and PSLR and image
    SNR are NaN.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not scenario.targets:
        raise ValueError("scenario has no target to detect")
    config = scenario.waveform(preset_name)
    po = scenario.pilot_overhead if pilot_overhead is None else pilot_overhead
    _, l, k = scenario.targets[0]
    cell = (l % config.n_p, k % config.k_chirps)
    if not algorithms:
        return {}
    blocks = {alg: [] for alg in algorithms}
    for maps in sensing_trials(
        config, FrameSpec.from_overhead(config.n_c, po), taps_from_targets(scenario.targets),
        scenario.snr_db if snr_db is None else snr_db, algorithms, trials,
        scenario.rng_seed if seed is None else seed, tfmf_reference,
    ):
        # one magnitude, one CFAR call and one quality pass on the
        # (algorithms, B, n_p, K) stack of the block's maps
        mag = np.abs(np.stack(list(maps.values())))
        mask, _ = cfar_mask_batch(mag**2, CFAR_TRAIN, CFAR_GUARD, CFAR_PFA)
        hits = mask_near(mask, l, k)
        if quality:
            ratios = pslr(mag, cell), image_snr(mag, cell)
        else:
            ratios = (np.full(hits.shape, np.nan),) * 2
        for alg, *per_alg in zip(maps, *ratios, hits):
            blocks[alg].append(per_alg)
    return {
        alg: tuple(np.concatenate(column) for column in zip(*per_block))
        for alg, per_block in blocks.items()
    }


# ---------------------------------------------------------------------------
# Effective channel, LMMSE detection, BER
# ---------------------------------------------------------------------------

def build_effective_channel(config: AfdmConfig, paths) -> np.ndarray:
    """Dense n_c x n_c DAFT-domain channel matrix H = A^H H_t A.

    Column m equals demodulate(apply_channel(modulate(e_m))); A is the
    unitary DAFT and H_t the waveform-independent time-domain channel.
    """
    eye = np.eye(config.n_c, dtype=np.complex128)
    # row m of each stack is the image of the basis vector e_m
    taps = _doppler_taps(paths, config.n_c)
    return demodulate(config, _delay_doppler(_modulate(config, eye), taps)).T


def lmmse_detect(
    H: np.ndarray,
    y: np.ndarray,
    noise_var: float,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """LMMSE equalizer: x_hat = H^H (H H^H + noise_var I)^(-1) y.

    ``y`` may be a vector or a matrix of column observations. A precomputed
    ``gram`` = H H^H can be supplied when solving repeatedly at different
    noise levels. Raises ``numpy.linalg.LinAlgError`` when the regularized
    system is singular (rank-deficient H at noise_var = 0).
    """
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    n = H.shape[0]
    if gram is None:
        gram = H @ H.conj().T
    z = np.linalg.solve(gram + noise_var * np.eye(n), y)
    return H.conj().T @ z


def rayleigh_gains(powers, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian gains with E|h_i|^2 equal to the given powers."""
    p = np.asarray(powers, dtype=np.float64)
    g = rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)
    return np.sqrt(p / 2.0) * g


def _first_repeat(values):
    """The first value equal to an earlier one (so 5 repeats 5.0), or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


def lmmse_ber_compare(
    configs: dict[str, AfdmConfig],
    target_powers,
    target_taps,
    snr_db_list,
    n_symbols: int,
    realizations: int,
    seed: int,
) -> dict[tuple[str, float], tuple[int, int]]:
    """Paired BER counts for several waveform configs over a fading channel.

    Per realization the Rayleigh path gains, data bits, and DAFT-domain noise
    draws are shared across configs, which pairs the BER estimates tightly.
    Detection runs in the time domain, where the channel is
    waveform-independent: one Gram per realization and one LMMSE solve per
    (realization, SNR) serve every config. Returns
    {(config_name, snr_db): (bit_errors, bits)}.
    """
    if realizations < 1 or n_symbols < 1:
        raise ValueError("realizations and n_symbols must be >= 1")
    n_c = next(iter(configs.values())).n_c
    if any(c.n_c != n_c for c in configs.values()):
        raise ValueError("all configs must share n_c")
    repeated = _first_repeat([float(snr) for snr in snr_db_list])
    if repeated is not None:
        raise ValueError(f"snr_db_list repeats the value {repeated!r}")
    per_real = max(1, n_symbols // realizations)
    taps = [(int(l), int(k)) for l, k in target_taps]
    errors = {(name, float(snr)): 0 for name in configs for snr in snr_db_list}
    for real in range(realizations):
        rng = trial_rng(seed, real)
        gains = rayleigh_gains(target_powers, rng)
        paths = [PathTap(complex(g), l, k) for g, (l, k) in zip(gains, taps)]
        doppler_taps = _doppler_taps(paths, n_c)
        bits = rng.integers(0, 2, size=(per_real, n_c, 2))
        w = (
            rng.standard_normal((n_c, per_real))
            + 1j * rng.standard_normal((n_c, per_real))
        ) / math.sqrt(2.0)
        # H = A^H H_t A with A unitary: detect in the time domain, where the
        # channel and its Gram are the same for every config
        H_t = _delay_doppler(np.eye(n_c, dtype=np.complex128), doppler_taps).T
        gram = H_t @ H_t.conj().T
        # time-domain symbols A x and noise A w, each (configs, per_real, n_c);
        # A w is white like w because A is unitary
        s, noise = np.stack(
            [_modulate(c, np.stack([qam4_modulate(bits), w.T])) for c in configs.values()]
        ).swapaxes(0, 1)
        r0 = _delay_doppler(s, doppler_taps)
        for snr in snr_db_list:
            sigma2 = noise_variance(float(snr))
            r = (r0 + math.sqrt(sigma2) * noise).reshape(-1, n_c).T
            s_hat = lmmse_detect(H_t, r, sigma2, gram=gram).T.reshape(s.shape)
            for (name, config), est in zip(configs.items(), s_hat):
                detected = qam4_demodulate(demodulate(config, est))
                errors[(name, float(snr))] += int(np.sum(detected != bits))
    return {key: (e, realizations * bits.size) for key, e in errors.items()}
