"""Frame construction, sensing quality metrics, and the LMMSE comm link.

Frames put a boosted pilot on subcarrier 0 with Q zero guards on each cyclic
side and unit-power 4QAM data elsewhere; the energy freed by the guards and
the pilot slot is assigned to the pilot so total symbol energy is exactly
n_c for every pilot overhead. Pilot overhead PO = (2Q+1)/n_c.

Sensing metrics operate on (n_p, K) map arrays: PSLR (peak over strongest
other cell) and image SNR (peak power over mean background power outside a
one-cell guard ring). Every sensing Monte Carlo runs through one trial
engine, ``_sweep``, which simulates each trial once for all SNR points of a
sweep and filters each group of points with one call per algorithm, every
received row against its own trial's transmit row (at full pilot overhead,
one data-free row shared by every trial). The filters are linear
(``ddmf`` conjugate-linear) and the noise scales real, so at full pilot
overhead a sweep of two or more points, one of them finite, filters the
shared noise-free echo once per call and each trial's unit noise once, and
sums the two per point: fewer rows than filtering every point's received
row, which one-point calls and data frames still do. ``trial_metrics``
reduces its maps per trial and SNR point, and ``sensing_maps`` returns them
at one SNR point, from the same inputs: config, pilot overhead, ``PathTap`` paths,
SNR, algorithms and one generator per trial. Each call builds its pilot,
``subcarrier(config, 0)``, once; the modulator's chirp pair is the config's
own ``chirp_phasors``. The LMMSE link,
``lmmse_ber_compare``, takes the same paths and solves in the time domain,
where the channel is waveform-independent; its dense DAFT-domain reference
(effective channel, LMMSE detector, BER) is a test oracle in
``tests/oracles.py``. No scenario enters this module.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import islice

import numpy as np

from .channel import (
    _delay_doppler,
    _delay_doppler_adjoint,
    _delay_doppler_gram_blocks,
    _doppler_taps,
    _gram_block_index,
    _noise_scale,
    _normal_pairs,
    noise_variance,
)
from .params import AfdmConfig, _check_index, _check_integer, _check_paths, _is_real
from .ddgrid import vector_to_grid
from .sensing import (  # noqa: F401 -- ddmf is re-exported
    cfar_mask_batch,
    ddmf,
    ddmf_batch,
    dechirp_batch,
    tfmf_batch,
)
from .waveform import demodulate, modulate, subcarrier

ALGORITHMS = ("tfmf", "dechirp", "ddmf")

#: CFAR configuration used by the detection-probability studies.
CFAR_TRAIN, CFAR_GUARD, CFAR_PFA = 2, 1, 1e-4

#: Trials simulated and filtered together by the sensing trial engine, and
#: channel realizations solved together by the BER link. Memory sets it:
#: against blocks of 4, blocks of 8 raised the benchmark's ``peak_rss_mb``
#: from 42.84-43.07 to 43.07-43.52 MB on mc-ddmf and from 42.92-43.18 to
#: 43.30-43.67 MB on mc-fft (10 runs each, 2-vCPU host; the bound is 2%),
#: and ``work_per_s`` by 24% and 19% in the median. Blocks of 16 peaked
#: 1.6 MB above blocks of 8 on both, for 2-7% more speed (3 pairs). On the
#: link (fig4, 10 realizations of 10 symbols, 2 SNRs) blocks of 4, 8 and all
#: 10 peak at 3.02, 5.84 and 7.24 MiB of allocations (one realization at a
#: time with a dense Gram: 8.97 MiB); all 32 of a 32-realization call at
#: once peak at 22.7 MiB, so the link's memory must not grow with ``trials``.
#: The link's blocks hold max(1, TRIAL_BLOCK * 8 // b) realizations, scaling
#: with 1/b (``_block_size``), so their Grams take no more memory than at b = 8.
TRIAL_BLOCK = 8

#: SNR points of one trial block filtered, CFAR-tested and scored together.
#: Memory sets it too: on a 12-point fig5 sweep (proposed, three estimators,
#: 100 trials) groups of 1, 2, 3, 4, 6 and 12 points peaked at 37.7, 38.0,
#: 38.2, 38.7, 40.0 and 43.0 MB RSS and took 0.91, 0.76, 0.70, 0.62, 0.55
#: and 0.55 s (2-vCPU host). 2 is the smallest group that filters a
#: two-point sweep, the benchmark's longest, in one pass per block.
SNR_GROUP = 2


# ---------------------------------------------------------------------------
# 4QAM mapping (Gray: independent sign bits on I and Q)
# ---------------------------------------------------------------------------

_SCALE = 1.0 / math.sqrt(2.0)


def qam4_modulate(bits: np.ndarray) -> np.ndarray:
    """(..., 2) bit pairs -> unit-power 4QAM symbols.

    The bits must be 0 or 1 and are taken unchecked, since this runs once per
    trial frame: any other value maps off the 4QAM alphabet.
    """
    b = np.asarray(bits)
    return ((1 - 2 * b[..., 0]) + 1j * (1 - 2 * b[..., 1])) * _SCALE


def qam4_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard decisions back to (..., 2) bit pairs."""
    s = np.asarray(symbols)
    return np.stack([(s.real < 0).astype(np.int8), (s.imag < 0).astype(np.int8)], axis=-1)


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def _pilot_slots(n_c: int, po) -> int:
    """Distinct subcarriers the pilot and its guards take at pilot overhead ``po``.

    PO = 0 takes none (the all-data frame); otherwise the pilot and Q zero
    guards on each cyclic side take min(2Q+1, n_c), with Q = (PO*n_c - 1)/2
    rounded half up (not to even, as ``round`` does), which is
    floor(PO*n_c / 2), so PO = 1 covers every subcarrier at every n_c. A PO that is no real
    number in [0, 1] (NaN and bools included) is a ValueError.
    """
    if not _is_real(po):
        raise ValueError(f"pilot overhead must be a real number, got {type(po).__name__} {po!r}")
    if not 0.0 <= po <= 1.0:
        raise ValueError("pilot overhead must lie in [0, 1]")
    if po == 0.0:
        return 0
    return min(2 * math.floor(po * n_c / 2) + 1, n_c)


def build_frame(config: AfdmConfig, po: float, rng: np.random.Generator) -> np.ndarray:
    """One DAFT-domain symbol vector with total energy exactly n_c, at pilot overhead ``po``.

    The pilot sits on subcarrier 0 with power equal to the slots it and its
    guards take (``_pilot_slots``: the energy-conserving boost); the other
    slots carry 4QAM data whose bits come from ``rng``. A frame without
    data slots (PO = 1 at every n_c) is the boosted pilot alone and draws
    nothing from ``rng``.
    """
    n_c = config.n_c
    occupied = _pilot_slots(n_c, po)
    x = np.zeros(n_c, dtype=np.complex128)
    x[0] = math.sqrt(occupied)
    if occupied < n_c:
        # occupied = 2Q + 1 slots: the pilot, Q guards after it and Q before
        # it (cyclically), so the data fill slots Q+1 .. n_c-Q-1; the
        # all-data frame is Q = -1, every slot
        q = (occupied - 1) // 2
        x[q + 1:n_c - q] = qam4_modulate(rng.integers(0, 2, size=(n_c - occupied, 2)))
    return x


def _check_reference(tfmf_reference) -> None:
    """Reject a tfmf copy other than "transmit" (the full signal) or "pilot"."""
    if tfmf_reference not in ("transmit", "pilot"):
        raise ValueError("tfmf_reference must be 'transmit' or 'pilot'")


# ---------------------------------------------------------------------------
# Map metrics
# ---------------------------------------------------------------------------

def _db(scale: float, num, den):
    """scale * log10(num / den) per element: +inf where den is 0, else -inf where num is 0.

    ``math.log10`` is bit-stable here; ``np.log10`` can differ from it by one ulp.
    """
    values = [
        math.inf if d == 0.0 else -math.inf if n == 0.0 else scale * math.log10(n / d)
        for n, d in zip(np.ravel(num).tolist(), np.ravel(den).tolist())
    ]
    return values[0] if np.ndim(num) == 0 else np.array(values).reshape(np.shape(num))


def _check_target(target, shape) -> tuple[int, int]:
    """The (l, k) ``target`` cell, which must lie on an (n_p, K) map of ``shape``."""
    l, k = target
    _check_index("target delay index", l, shape[-2])
    _check_index("target Doppler index", k, shape[-1])
    return l, k


def pslr(cells, target: tuple[int, int]):
    """Peak-to-maximum-sidelobe ratio in dB, peak taken at the target cell.

    A (..., n_p, K) stack of maps gives an array with one ratio per map. A
    target that is not an integer cell of the maps is a ValueError.
    """
    mag = np.abs(cells)
    l, k = _check_target(target, mag.shape)
    flat = mag.reshape(*mag.shape[:-2], -1)
    rest = np.delete(flat, l * mag.shape[-1] + k, axis=-1)
    side = rest.max(axis=-1) if rest.shape[-1] else np.zeros(flat.shape[:-1])
    return _db(20.0, mag[..., l, k], side)


def image_snr(cells, target: tuple[int, int]):
    """Peak power over mean background power (one-cell guard ring excluded), dB.

    A (..., n_p, K) stack of maps gives an array with one ratio per map. A
    target that is not an integer cell of the maps is a ValueError.
    """
    power = np.abs(cells) ** 2
    n_p, K = power.shape[-2:]
    l, k = _check_target(target, power.shape)
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

def sensing_maps(
    config: AfdmConfig,
    po: float,
    paths,
    snr_db: float,
    algorithms,
    rngs,
    tfmf_reference: str = "transmit",
) -> Iterator[dict[str, np.ndarray]]:
    """Iterate {algorithm: (B, n_p, K) maps}, one item per block of B <= TRIAL_BLOCK trials.

    ``rngs`` holds one generator per trial (a list or any iterable), and
    each trial simulates one symbol at pilot overhead ``po`` (``build_frame``)
    through the channel on its generator: the sweep engine of
    ``trial_metrics`` at one SNR point. ``tfmf_reference``
    selects the matched-filter copy: the full known transmit signal
    (default) or the deterministic pilot only. Any other reference, an
    unknown algorithm, no algorithm at all or a pilot overhead outside
    [0, 1] is a ValueError raised at the first item, before any draw; so is
    an empty ``rngs``.
    """
    sweep = _sweep(config, po, paths, [_noise_scale(snr_db)], algorithms, rngs, tfmf_reference)
    return ({alg: cells[0] for alg, cells in zip(algorithms, maps)} for _, _, maps in sweep)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, deterministic per-trial stream."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _sweep(config, po, paths, scales, algorithms, rngs, tfmf_reference):
    """Yield (trial slice, SNR slice, maps) per block of trials and group of SNR points.

    ``rngs`` holds one generator per trial. Trials run ``TRIAL_BLOCK`` at a
    time: each draws the bits of its frame at pilot overhead ``po``, then
    its real and then its imaginary noise normals, once for all SNR points;
    it draws no normals when every point is +inf (every ``scales`` entry,
    ``_noise_scale``, is None). The symbol, transmit and noise-free
    received (B, n_c) stacks are built once per block, and point i receives
    r0 + scales[i] * w, w = re + 1j im, or r0 alone at +inf. A frame
    without data slots (PO = 1) draws no bits and is the same symbol in
    every trial, so its (1, n_c) symbol, transmit and noise-free received
    rows are built once per call, from the first trial's frame, and serve
    every block; ``build_frame`` still runs once per trial. For each group
    of up to ``SNR_GROUP`` points, ``maps`` yields one (g, B, n_p, K) stack
    per algorithm, in the order of ``algorithms``: one call filters the
    group's flat (g B, n_c) stack, received row i against transmit row
    i mod R, R = B or the shared 1.
    The engine splits the sum only where that filters fewer rows: with the
    shared row, two or more points and one of them finite, each filter runs
    on r0 once per call (at the first block) and on the block's (B, n_c)
    unit noise w once per block, and point i's maps are scales[i] * map(w)
    + map(r0), or map(r0) alone at +inf. They are written into one
    (SNR_GROUP, TRIAL_BLOCK, n_p, K) stack per algorithm, allocated once
    per call, which the next group overwrites: a caller copies what it
    keeps. The identity is exact in real arithmetic, since the filters are
    linear (``ddmf`` conjugate-linear) and each scale is real, so the maps
    equal the direct sum's to rounding. That is B rows per block and one
    per call against S B per block. A one-point call (B + 1 against B) and
    data frames (r0 differs per trial: 2 B) keep the direct sum. Consuming
    ``maps`` before asking for the next group keeps one group's stacks
    alive at a time. The pilot and the channel's Doppler taps are built
    once per call and shared by every block, and nothing but the config's
    own ``chirp_phasors`` outlives the call. ``tfmf_reference`` other
    than "transmit" or "pilot", an algorithm not in ``ALGORITHMS``, an
    empty ``algorithms`` or a ``po`` that ``_pilot_slots`` rejects is a
    ValueError, raised before any draw; an empty ``rngs`` is one too,
    raised when the first block finds no trial.
    """
    _check_reference(tfmf_reference)
    if not algorithms:
        raise ValueError(f"algorithms needs at least one of {list(ALGORITHMS)}")
    unknown = [algorithm for algorithm in algorithms if algorithm not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithms {unknown}; expected some of {list(ALGORITHMS)}")
    pilot = subcarrier(config, 0)
    taps = _doppler_taps(paths, config.n_c)
    noisy = any(scale is not None for scale in scales)

    shared = _pilot_slots(config.n_c, po) == config.n_c
    # split only where it filters fewer rows: B per block and 1 per call, against S B per block
    split = shared and noisy and len(scales) > 1

    def filtered(r, s, x_grids):
        """Each algorithm's (rows, n_p, K) maps of the received (rows, n_c) stack, in turn."""
        for algorithm in algorithms:
            if algorithm == "tfmf":
                yield tfmf_batch(config, r, s if tfmf_reference == "transmit" else pilot)
            elif algorithm == "dechirp":
                yield dechirp_batch(config, r, pilot)
            else:
                y_grids = vector_to_grid(config, demodulate(config, r))
                yield ddmf_batch(config, y_grids, x_grids)

    if split:
        # one (SNR_GROUP, TRIAL_BLOCK) stack per algorithm serves every group:
        # a fresh one per group page-faulted about 4x as often (fig4 sweep)
        stacks = np.empty((len(algorithms), SNR_GROUP, TRIAL_BLOCK, config.n_p,
                           config.k_chirps), dtype=np.complex128)

    def combined(group, zero, unit):
        """Each algorithm's (g, B, n_p, K) maps of ``group``, scale * unit + zero, in its stack."""
        for stack, m0, mw in zip(stacks, zero, unit):
            maps = stack[:len(group), :len(mw)]
            for out, scale in zip(maps, group):
                if scale is None:
                    out[...] = m0
                else:
                    np.multiply(mw, scale, out=out)
                    out += m0
            yield maps

    rngs, trials, s = iter(rngs), slice(0, 0), None
    while block := list(islice(rngs, TRIAL_BLOCK)):
        # frame and normals trial by trial: drawing every frame of the block
        # first raised mc-ddmf's peak_rss_mb by 0.8 MB (3 pairs, 2-vCPU host)
        x, w = [], []
        for rng in block:
            x.append(build_frame(config, po, rng))
            if noisy:
                w.append(_normal_pairs(config.n_c, rng))
        w = np.stack(w) if noisy else None
        if s is None or not shared:
            # a frame without data slots is the same symbol in every trial:
            # the first trial's row serves every block of the call
            x = np.stack(x[:1] if shared else x)
            s = modulate(config, x)
            r0 = _delay_doppler(s, taps)
            x_grids = vector_to_grid(config, x) if "ddmf" in algorithms else None
            zero = list(filtered(r0, s, x_grids)) if split else None
        n = len(block)
        trials = slice(trials.stop, trials.stop + n)
        unit = list(filtered(w, s, x_grids)) if split else None
        for start in range(0, len(scales), SNR_GROUP):
            group = scales[start:start + SNR_GROUP]
            if split:
                maps = combined(group, zero, unit)
            else:
                r = np.concatenate([
                    np.broadcast_to(r0, (n, config.n_c)) if scale is None else r0 + scale * w
                    for scale in group
                ])
                maps = (
                    m.reshape(-1, n, config.n_p, config.k_chirps)
                    for m in filtered(r, s, x_grids)
                )
            yield trials, slice(start, start + len(group)), maps
    if not trials.stop:
        raise ValueError("rngs needs at least one generator, one per trial")


def trial_metrics(
    config: AfdmConfig,
    po: float,
    paths,
    snr_db: float | Sequence[float],
    algorithms,
    rngs,
    tfmf_reference: str = "transmit",
    quality: bool = True,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-trial (PSLR dB, image SNR dB, hit) arrays of each algorithm.

    The inputs are those of ``sensing_maps``, whose ``rngs`` (one generator
    per trial, any iterable) are read one block at a time. ``snr_db`` is one
    point, giving (trials,) arrays, or S points, giving (S, trials) arrays
    whose row i equals the result at ``snr_db[i]`` alone: each trial is
    simulated once for all points (``_sweep``), its data and noise drawn
    afresh and the path gains fixed. Every metric is taken at ``paths[0]``.
    A hit is a CA-CFAR detection (2 train, 1 guard, Pfa 1e-4) within one
    cyclic cell of its tap, so CA-CFAR runs on that 3 x 3 window only
    (``cfar_mask_batch`` with ``near``), with the bits of the whole map. With
    ``quality=False`` PSLR and image SNR are NaN. No path, no SNR point, no
    algorithm or any other input ``sensing_maps`` rejects is a ValueError
    raised before any draw.
    """
    if not paths:
        raise ValueError("paths needs at least one path to score")
    # _sweep checks them only at its first block, after paths[0] is read below
    _check_paths(paths)
    scales = [_noise_scale(point) for point in ([snr_db] if np.ndim(snr_db) == 0 else snr_db)]
    if not scales:
        raise ValueError("snr_db needs at least one value")
    l, k = paths[0].delay_tap, paths[0].doppler_tap
    cell = (l % config.n_p, k % config.k_chirps)
    blocks = []  # (hits, ratios) of each block of trials
    for t, snrs, maps in _sweep(config, po, paths, scales, algorithms, rngs, tfmf_reference):
        if snrs.start == 0:
            hits = np.empty((len(algorithms), len(scales), t.stop - t.start), dtype=bool)
            ratios = np.full((2,) + hits.shape, np.nan)
            blocks.append((hits, ratios))
        # every algorithm's magnitudes go straight into one float
        # (algorithms, SNR points, B, n_p, K) stack; one CFAR call on the
        # target's 3 x 3 window and one quality pass reduce it
        mag = np.empty(hits[:, snrs].shape + (config.n_p, config.k_chirps))
        for a, cells in enumerate(maps):
            np.abs(cells, out=mag[a])
        del cells  # else the last map stack outlives the filtering of the next group
        hits[:, snrs] = cfar_mask_batch(
            mag**2, CFAR_TRAIN, CFAR_GUARD, CFAR_PFA, near=(l, k)
        )[0].any(axis=(-2, -1))
        if quality:
            ratios[:, :, snrs] = pslr(mag, cell), image_snr(mag, cell)
    hits, ratios = (np.concatenate(parts, axis=-1) for parts in zip(*blocks))
    if np.ndim(snr_db) == 0:
        hits, ratios = hits[:, 0], ratios[:, :, 0]
    return {alg: (ratios[0, a], ratios[1, a], hits[a]) for a, alg in enumerate(algorithms)}


# ---------------------------------------------------------------------------
# The LMMSE link: banded time-domain solve, BER counts
# ---------------------------------------------------------------------------

#: smallest block of the banded LMMSE solve: at n_c = 512, blocks of 4 took
#: about 1.4x as long as blocks of 8, the steps' overhead outweighing the
#: smaller solves
_MIN_BLOCK = 8


def _block_size(taps, n_c: int) -> int:
    """The block size b of ``_lmmse_solve``'s sweep for ``taps``.

    The Gram H_t H_t^H is nonzero only at the cyclic distances between two
    tap shifts, so with w the largest of them it is block-cyclic-tridiagonal
    in blocks of any b >= w that divides n_c. b is the smallest divisor with
    b >= max(w, 8) and at least three blocks, or n_c when none is (a delay
    spread near n_c / 2, or n_c < 24): one block, the whole Gram.
    """
    shifts = [shift for _, shift, _ in taps]
    w = max((min((i - j) % n_c, (j - i) % n_c) for i in shifts for j in shifts), default=0)
    return next((b for b in range(max(w, _MIN_BLOCK), n_c // 3 + 1) if n_c % b == 0), n_c)


def _lmmse_solve(taps, noise_vars, y: np.ndarray, b: int, index) -> None:
    """Overwrite each y[r, s] with (G_r + noise_vars[s] I)^(-1) y[r, s], G_r = H_t H_t^H.

    ``y`` is an (R, S, n_c, m) stack and ``taps`` hold each path's R gains
    as an (R, 1, 1) array, one channel realization per gain; ``b`` is
    ``_block_size`` of the taps and ``index`` the ``_gram_block_index`` of
    their shifts. Each G_r + sigma^2 I is Hermitian positive definite, so
    block elimination without pivoting is stable (Golub and Van Loan,
    block-tridiagonal LU). The Grams are scattered into (R, 3, N, b, b)
    block-cyclic-tridiagonal form, N = n_c / b. A forward sweep over blocks
    0..N-2 carries each block's coupling to the corner block N-1, one b x b
    solve settles block N-1, and a back sweep recovers the rest. Each
    forward step inverts its pivot once, batched over every (realization,
    SNR), and applies the inverse to the next block, the corner and the
    right-hand sides in one product; each back step subtracts both
    couplings in one product. The right-hand sides are reduced and solved
    in place in ``y``, so only the (N-1, R, S, b, 2b) coupling coefficients
    are held besides it. One block (b = n_c) makes no step, and its one
    solve, of block 0 as block N-1, is the dense LU. Equal to the dense
    solve up to rounding; a singular pivot or corner raises
    ``numpy.linalg.LinAlgError``.
    """
    n_c = y.shape[-2]
    noise = np.asarray(noise_vars, dtype=np.float64)[:, None, None]
    lower, diag, upper = np.moveaxis(_delay_doppler_gram_blocks(taps, n_c, b, index), -4, 0)
    last = n_c // b - 1
    bb = 2 * b
    ridge = noise * np.eye(b)
    stack = y.shape[:-2] + (b, b)
    upper = np.broadcast_to(upper, y.shape[:-2] + upper.shape[-3:])
    rows = [y[..., i * b:(i + 1) * b, :] for i in range(last + 1)]

    # with x_0..x_{k-1} eliminated, block row k reads
    #     pivot x_k + nxt x_{k+1} + corner x_{N-1} = rows[k]
    # and block row N-1 reads edge x_k + end x_{N-1} = rows[N-1]; row N-2's
    # next block is N-1 itself, so its coupling is all in ``corner``
    pivot, corner = diag[..., 0, :, :] + ridge, np.broadcast_to(lower[..., 0, :, :], stack)
    edge, end = upper[..., last, :, :], diag[..., last, :, :] + ridge if last else pivot
    coupling = np.empty((last,) + stack[:-1] + (bb,), dtype=np.complex128)
    for k in range(last):
        nxt = upper[..., k, :, :] if k + 1 < last else np.zeros(stack)
        # pivot^-1 [nxt | corner | rows[k]]: an inverse and a product took
        # about 50 us against 80 us for one solve of the 26 columns (fig4
        # block, R = 8, S = 2, shared 2-vCPU Xeon host)
        z = np.linalg.inv(pivot) @ np.concatenate([nxt, corner, rows[k]], -1)
        coupling[k], rows[k][...] = z[..., :bb], z[..., bb:]
        fz = edge @ z
        end = end - fz[..., b:bb]
        rows[last] -= fz[..., bb:]
        if k + 1 < last:
            # blocks k + 1 and N-1 touch only when k + 1 = N-2
            near = k + 2 == last
            lz = lower[..., k + 1, :, :] @ z
            pivot = diag[..., k + 1, :, :] + ridge - lz[..., :b]
            corner = (upper[..., k + 1, :, :] if near else 0.0) - lz[..., b:bb]
            rows[k + 1] -= lz[..., bb:]
            edge = (lower[..., last, :, :] if near else 0.0) - fz[..., :b]
    rows[last][...] = x_last = np.linalg.solve(end, rows[last])
    for k in reversed(range(last)):
        rows[k] -= coupling[k] @ np.concatenate([rows[k + 1], x_last], -2)


def rayleigh_gains(powers, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian gains with E|h_i|^2 equal to the given powers."""
    p = np.asarray(powers, dtype=np.float64)
    return np.sqrt(p / 2.0) * _normal_pairs(p.size, rng).reshape(p.shape)


def _first_repeat(values):
    """The first value equal to an earlier one (so 5 repeats 5.0), or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


def lmmse_ber_compare(
    configs: dict[str, AfdmConfig],
    paths,
    snr_db_list,
    realizations: int,
    symbols_per_realization: int,
    seed: int,
) -> dict[tuple[str, float], tuple[int, int]]:
    """Paired BER counts for several waveform configs over a fading channel.

    ``paths`` are ``PathTap`` paths: each keeps its delay and Doppler taps,
    and its gain is redrawn per realization as a Rayleigh gain of mean power
    ``abs(gain) ** 2``. Per realization the gains, data bits, and DAFT-domain
    noise draws are shared across configs, which pairs the BER estimates
    tightly. Detection runs in the time domain, where the channel is
    waveform-independent: one Gram H_t H_t^H per realization and one LMMSE
    solve per (realization, SNR) serve every config. With P paths (at most 3
    in the built-in scenarios) the Gram is built, to rounding, on its <= P**2
    cyclic diagonals, and H_t^H is applied as P rolled phasor products
    without forming H_t. The Gram is cyclically banded, with half-bandwidth
    w the largest cyclic distance between two delay taps, so the solve is a
    block-cyclic-tridiagonal sweep over blocks of b samples, b the smallest
    divisor of n_c with b >= max(w, 8) and n_c / b >= 3; when no such b
    exists (a delay spread near n_c / 2) b = n_c, one block solved by a
    dense LU. Realizations run max(1, TRIAL_BLOCK * 8 // b) at a time, each
    carrying ``symbols_per_realization`` symbols. Realization i draws its
    gains, then its bits (symbols, n_c, 2), then its noise (n_c, symbols),
    real part first, from ``trial_rng(seed, i)``; each block makes one
    ``_lmmse_solve`` sweep over every (realization, SNR), on Grams scattered
    straight into block form. The Doppler phasors and the Gram's scatter
    index are built once per call; only the gains change between
    realizations. ``realizations`` and ``symbols_per_realization`` are
    integers >= 1 and ``seed`` an integer >= 0. Returns
    {(config_name, snr_db): (bit_errors, bits)}.
    """
    for name, value in (("realizations", realizations),
                        ("symbols_per_realization", symbols_per_realization), ("seed", seed)):
        _check_integer(name, value)
    if realizations < 1 or symbols_per_realization < 1:
        raise ValueError("realizations and symbols_per_realization must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not configs:
        raise ValueError("configs needs at least one waveform config")
    n_c = next(iter(configs.values())).n_c
    if any(c.n_c != n_c for c in configs.values()):
        raise ValueError("all configs must share n_c")
    if not len(snr_db_list):
        raise ValueError("snr_db_list needs at least one value")
    repeated = _first_repeat([float(snr) for snr in snr_db_list])
    if repeated is not None:
        raise ValueError(f"snr_db_list repeats the value {repeated!r}")
    per_real = symbols_per_realization
    sigma2 = np.array([noise_variance(float(snr)) for snr in snr_db_list])
    # each block replaces the paths' gains by its realizations' Rayleigh gains
    path_taps = _doppler_taps(paths, n_c)
    powers = [abs(gain) ** 2 for gain, _, _ in path_taps]
    b = _block_size(path_taps, n_c)
    index = _gram_block_index([s for _, s, _ in path_taps], n_c, b)
    per_block = max(1, TRIAL_BLOCK * _MIN_BLOCK // b)
    scale = np.sqrt(sigma2)[:, None, None]

    def block_errors(reals):
        """The (configs, SNR) bit errors of realizations ``reals``, one solve for all."""
        gains, bits, w = [], [], []
        for real in reals:
            rng = trial_rng(seed, real)
            gains.append(rayleigh_gains(powers, rng))
            bits.append(rng.integers(0, 2, size=(per_real, n_c, 2)))
            w.append(_normal_pairs(n_c * per_real, rng).reshape(n_c, per_real) / math.sqrt(2.0))
        bits, w = np.stack(bits), np.stack(w)
        taps = [
            (gain[:, None, None], shift, phasor)
            for gain, (_, shift, phasor) in zip(np.stack(gains).T, path_taps)
        ]
        # H = A^H H_t A with A unitary: detect in the time domain, where the
        # channel and its Gram are the same for every config. y holds the
        # received stack (R, SNR, n_c, configs * per_real), one symbol per
        # column, and is solved in place: config c's columns receive the
        # channel's image of A x plus the noise A w, white like w because A
        # is unitary
        x, w = qam4_modulate(bits), np.swapaxes(w, 1, 2)
        y = np.empty((len(reals), len(sigma2), n_c, len(configs) * per_real), dtype=np.complex128)
        for c, config in enumerate(configs.values()):
            cols = y[..., c * per_real:(c + 1) * per_real]
            np.multiply(scale, modulate(config, w).swapaxes(1, 2)[:, None], out=cols)
            cols += _delay_doppler(modulate(config, x), taps).swapaxes(1, 2)[:, None]
        # holding x and w through the solve raised a fig4 call's allocation
        # peak from 5.84 to 7.09 MiB
        del x, w
        _lmmse_solve(taps, sigma2, y, b, index)
        s_hat = _delay_doppler_adjoint(y.transpose(1, 0, 3, 2), taps).reshape(
            len(sigma2), len(reals), len(configs), per_real, n_c
        )
        return np.array([
            np.count_nonzero(
                qam4_demodulate(demodulate(config, s_hat[:, :, c])) != bits, axis=(1, 2, 3, 4)
            )
            for c, config in enumerate(configs.values())
        ])

    errors = sum(
        block_errors(range(start, min(start + per_block, realizations)))
        for start in range(0, realizations, per_block)
    )
    total = realizations * per_real * n_c * 2
    return {
        (name, float(snr)): (int(e), total)
        for name, row in zip(configs, errors) for snr, e in zip(snr_db_list, row)
    }
