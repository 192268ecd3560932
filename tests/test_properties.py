"""Property tests of the paper's channel identities over random valid geometries."""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from afdmsim.ambiguity import dpaf_surface
from afdmsim._phase import unit_phasor
from afdmsim.channel import PathTap, _delay_doppler, _doppler_taps, apply_channel
from afdmsim.ddgrid import grid_to_vector, io_predict, vector_to_grid
from afdmsim.metrics import build_effective_channel
from afdmsim.params import (
    PRESET_NAMES,
    AfdmConfig,
    ScenarioConfig,
    classic_params,
    load_scenario,
    preset,
    proposed_params,
)
from afdmsim.sensing import (
    _ddmf_direct,
    _ddmf_plan,
    cfar_mask_batch,
    cfar_threshold_factor,
    ddmf,
    ddmf_batch,
    os_cfar_mask_batch,
    os_cfar_rank,
    os_cfar_threshold_factor,
    signed_doppler,
)
from afdmsim.waveform import _chirps, _modulate, demodulate, modulate


@st.composite
def geometries(draw, presets=PRESET_NAMES):
    """A waveform config: even n_p in [2, 16], K in [1, 6], any preset in ``presets``."""
    n_p = 2 * draw(st.integers(1, 8))
    k_chirps = draw(st.integers(1, 6))
    return preset(
        draw(st.sampled_from(presets)), n_p * k_chirps, k_chirps, draw(st.integers(0, 3))
    )


@st.composite
def channels(draw, config):
    """1-3 paths with any delay tap and signed Doppler taps across [-n_c, n_c]."""
    n_c = config.n_c
    gain = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
    return [
        PathTap(draw(gain), draw(st.integers(0, n_c - 1)), draw(st.integers(-n_c, n_c)))
        for _ in range(draw(st.integers(1, 3)))
    ]


def _symbols(config, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(config.n_c) + 1j * rng.standard_normal(config.n_c)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), config=geometries(), seed=st.integers(0, 2**32 - 1))
def test_effective_channel_equals_simulated_chain(data, config, seed):
    paths = data.draw(channels(config))
    x = _symbols(config, seed)
    H = build_effective_channel(config, paths)
    simulated = demodulate(config, apply_channel(config, modulate(config, x), paths))
    assert np.abs(H @ x - simulated).max() <= 1e-10


@settings(deadline=None, max_examples=60)
@given(data=st.data(), config=geometries(("proposed",)), seed=st.integers(0, 2**32 - 1))
def test_effective_channel_equals_grid_io_relation(data, config, seed):
    paths = data.draw(channels(config))
    x = _symbols(config, seed)
    H = build_effective_channel(config, paths)
    predicted = io_predict(config, vector_to_grid(config, x), paths)
    assert np.abs(vector_to_grid(config, H @ x) - predicted).max() <= 1e-10


@settings(deadline=None, max_examples=60)
@given(config=geometries(("proposed",)), seed=st.integers(0, 2**32 - 1))
def test_ddmf_is_the_time_domain_cross_ambiguity(config, seed):
    # each map cell is the conjugate periodic cross-ambiguity of the two time
    # signals at the cell's delay and signed Doppler hypothesis
    y, x = (vector_to_grid(config, _symbols(config, s)) for s in (seed, seed + 1))
    r = modulate(config, grid_to_vector(config, y))
    s = modulate(config, grid_to_vector(config, x))
    surface = np.conj(dpaf_surface(r, s))
    K = config.k_chirps
    doppler = [signed_doppler(col, K) % config.n_c for col in range(K)]
    cells = ddmf(config, y, x).cells
    assert np.abs(cells - surface[: config.n_p][:, doppler]).max() <= 1e-12 * np.abs(cells).max()


@settings(deadline=None, max_examples=60)
@given(
    n_p=st.integers(1, 16).map(lambda half: 2 * half),
    k_chirps=st.integers(1, 9),
    batch=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    zero_y=st.booleans(),
)
@example(n_p=8, k_chirps=4, batch=2, seed=0, zero_y=True)
def test_fft_ddmf_equals_the_direct_form(n_p, k_chirps, batch, seed, zero_y):
    # Bluestein's factorisation, with all three coupling offsets, computes the
    # direct form's maps; an all-zero received grid gives all-zero maps
    config = proposed_params(n_p, k_chirps)
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, batch, n_p, k_chirps, 2))
    Y, X = parts[..., 0] + 1j * parts[..., 1]
    if zero_y:
        Y[:] = 0.0
    want = _ddmf_direct(config, Y, X)
    got = ddmf_batch(config, Y, X)
    peaks = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * peaks)


@pytest.mark.parametrize(
    "config, y_shape, x_shape, match",
    [
        (classic_params(32, 1, k_chirps=4), (1, 8, 4), (1, 8, 4), "FMCW-equivalent"),
        (proposed_params(8, 4), (1, 8, 4), (2, 8, 4), "must both be"),
        (proposed_params(8, 4), (1, 4, 8), (1, 4, 8), "must both be"),
        (proposed_params(8, 4), (8, 4), (8, 4), "must both be"),
    ],
)
@pytest.mark.parametrize("form", [ddmf_batch, _ddmf_direct])
def test_ddmf_forms_reject_the_same_inputs(form, config, y_shape, x_shape, match):
    with pytest.raises(ValueError, match=match):
        form(config, np.zeros(y_shape, complex), np.zeros(x_shape, complex))


@settings(deadline=None, max_examples=60)
@given(config=geometries(), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_daft_is_unitary(config, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, config.n_c)) + 1j * rng.standard_normal((batch, config.n_c))
    s = _modulate(config, x)
    norm = np.linalg.norm(x, axis=-1)
    assert np.abs(demodulate(config, s) - x).max() <= 1e-12 * np.abs(x).max()
    assert np.all(np.abs(np.linalg.norm(s, axis=-1) - norm) <= 1e-12 * norm)


@settings(deadline=None, max_examples=60)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(7, 20), st.integers(7, 12)),
    zeros=st.integers(0, 8),
    exponent=st.integers(-60, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_cfar_is_invariant_to_power_of_two_scaling(shape, zeros, exponent, seed):
    # scaling by 2^e is exact, and so is every sum and product of scaled
    # cells; at most 8 zero cells per map never empty a 40-cell ring, so the
    # zero-noise floor (which does not scale) is never used
    rng = np.random.default_rng(seed)
    power = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=shape))
    for block in power:
        block.flat[rng.choice(block.size, zeros, replace=False)] = 0.0
    scaled = np.ldexp(power, exponent)
    for mask_fn in (cfar_mask_batch, os_cfar_mask_batch):
        mask, threshold = mask_fn(power, 2, 1, 1e-4)
        scaled_mask, scaled_threshold = mask_fn(scaled, 2, 1, 1e-4)
        assert np.array_equal(scaled_mask, mask)
        assert np.array_equal(scaled_threshold, np.ldexp(threshold, exponent))


# ---------------------------------------------------------------------------
# Fast paths pinned bit for bit to the forms they replaced
# ---------------------------------------------------------------------------

def _rolled_ring(power, train, guard):
    """The training ring as rolled copies of each map, in offset order."""
    w = train + guard
    return [
        np.roll(power, (di, dj), axis=(-2, -1))
        for di in range(-w, w + 1)
        for dj in range(-w, w + 1)
        if max(abs(di), abs(dj)) > guard
    ]


def _rolled_decide(power, noise, alpha):
    """Floor an exactly zero noise level at the smallest positive float; test alpha * noise."""
    noise = np.where(noise > 0.0, noise, np.finfo(np.float64).tiny)
    threshold = alpha * noise
    return power > threshold, threshold


def _rolled_ring_cfar(power, train, guard, pfa):
    """CA-CFAR with the ring summed from rolled copies of each map, in offset order."""
    copies = _rolled_ring(power, train, guard)
    ring = np.zeros_like(power)
    for copy in copies:
        ring += copy
    return _rolled_decide(power, ring / len(copies), cfar_threshold_factor(len(copies), pfa))


def _rolled_ring_os_cfar(power, train, guard, pfa):
    """OS-CFAR with the ``os_cfar_rank``-th smallest of the stacked rolled copies as noise."""
    copies = _rolled_ring(power, train, guard)
    rank = os_cfar_rank(len(copies))
    noise = np.partition(np.stack(copies, axis=-1), rank - 1, axis=-1)[..., rank - 1]
    return _rolled_decide(power, noise, os_cfar_threshold_factor(len(copies), pfa))


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    lead=st.lists(st.integers(1, 3), max_size=2),
    train=st.integers(1, 3),
    guard=st.integers(0, 2),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_slice_cfar_equals_rolled_copies(data, lead, train, guard, zero_fraction, seed):
    # each cell's ring holds the same values (added in the same offset order
    # for CA), so the thresholds of both detectors agree bit for bit over
    # 600 decades of power, zero cells included
    window = 2 * (train + guard) + 1
    n_p, k_chirps = (data.draw(st.integers(window, 70)) for _ in range(2))
    rng = np.random.default_rng(seed)
    power = np.exp(rng.uniform(np.log(1e-300), np.log(1e300), size=(*lead, n_p, k_chirps)))
    power[rng.random(power.shape) < zero_fraction] = 0.0
    for mask_fn, oracle in (
        (cfar_mask_batch, _rolled_ring_cfar),
        (os_cfar_mask_batch, _rolled_ring_os_cfar),
    ):
        mask, threshold = mask_fn(power, train, guard, 1e-4)
        want_mask, want_threshold = oracle(power, train, guard, 1e-4)
        assert np.array_equal(threshold, want_threshold)
        assert np.array_equal(mask, want_mask)


def _ddmf_rolled(config, Y, X):
    """``ddmf_batch`` with its phasors rebuilt per call and the transmit grid rolled per offset."""
    n_p, K, n_c = config.n_p, config.k_chirps, config.n_c
    n = np.arange(n_p, dtype=np.int64)
    chirp = unit_phasor(n * n, 2 * n_p)
    U = np.fft.fft(np.conj(Y).transpose(0, 2, 1) * chirp, axis=-1)
    rolled = np.stack([np.roll(X, -dl, axis=1) for dl in (-1, 0, 1)], axis=1)
    V = np.fft.ifft(rolled.transpose(0, 1, 3, 2) * np.conj(chirp), axis=-1) * n_p
    k_hyp = np.array([signed_doppler(col, K) for col in range(K)])
    mk = np.arange(K) - k_hyp[:, None]
    h = V[:, np.floor_divide(mk, K) + 1, np.mod(mk, K)]
    h *= U[:, None, :, :]
    h = np.fft.ifft(h, axis=-1)
    ramp = unit_phasor(mk[:, :, None] * n[None, None, :], n_c)
    return np.einsum("bcml,cml->blc", h, ramp)


@settings(deadline=None, max_examples=60)
@given(
    n_p=st.integers(1, 16).map(lambda half: 2 * half),
    k_chirps=st.integers(1, 9),
    batch=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_planned_ddmf_equals_the_rolled_form(n_p, k_chirps, batch, seed):
    # one plan serves every batch of a config: two batches through it give
    # the maps of the per-call, per-offset-roll form bit for bit
    config = proposed_params(n_p, k_chirps)
    plan = _ddmf_plan(config)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        parts = rng.standard_normal((2, batch, n_p, k_chirps, 2))
        Y, X = parts[..., 0] + 1j * parts[..., 1]
        want = _ddmf_rolled(config, Y, X)
        assert np.array_equal(ddmf_batch(config, Y, X, plan), want)
        assert np.array_equal(ddmf_batch(config, Y, X), want)


@settings(deadline=None, max_examples=60)
@given(config=geometries(), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_demodulate_with_built_chirps_equals_building_them(config, batch, seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((batch, config.n_c)) + 1j * rng.standard_normal((batch, config.n_c))
    assert np.array_equal(demodulate(config, r, _chirps(config)), demodulate(config, r))


def _delay_doppler_per_path(samples, paths):
    """The channel with each path's shift and Doppler phasor built inside the loop."""
    n_c = samples.shape[-1]
    n = np.arange(n_c, dtype=np.int64)
    out = np.zeros(samples.shape, dtype=np.complex128)
    for p in paths:
        out += (
            complex(p.gain)
            * np.roll(samples, p.delay_tap % n_c, axis=-1)
            * unit_phasor(-p.doppler_tap * n, n_c)
        )
    return out


@settings(deadline=None, max_examples=60)
@given(data=st.data(), config=geometries(), batch=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_doppler_taps_channel_equals_per_path_loop(data, config, batch, seed):
    # delay taps beyond n_c wrap; Doppler taps of either sign
    paths = data.draw(channels(config)) + [PathTap(0.5, config.n_c + 1, -config.n_c - 2)]
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((batch, config.n_c)) + 1j * rng.standard_normal((batch, config.n_c))
    got = _delay_doppler(s, _doppler_taps(paths, config.n_c))
    assert np.array_equal(got, _delay_doppler_per_path(s, paths))


@st.composite
def scenarios(draw):
    """A valid ScenarioConfig of any preset with 0-3 targets and a finite or +inf SNR.

    n_p is in [1, 16] (even for ``proposed``) and K in [1, 8]; k_max and l_max
    stay within the preset's separability limits.
    """
    name = draw(st.sampled_from(PRESET_NAMES))
    proposed = name == "proposed"
    n_p = 2 * draw(st.integers(1, 8)) if proposed else draw(st.integers(1, 16))
    k_chirps = draw(st.integers(1, 8))
    k_max = draw(st.integers(0, (k_chirps - 1) // 2 if proposed else 4))
    l_max = draw(st.integers(0, n_p - 1 if proposed else 20))
    gain = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    target = st.tuples(gain, st.integers(0, l_max), st.integers(-k_max, k_max))
    return ScenarioConfig(
        name="scenario", n_c=n_p * k_chirps, k_chirps=k_chirps, n_p=n_p, preset=name,
        l_max=l_max, k_max=k_max,
        snr_db=draw(st.floats(-100.0, 100.0) | st.just(math.inf)),
        pilot_overhead=draw(st.floats(0.0, 1.0)),
        rng_seed=draw(st.integers(0, 2**31)),
        targets=tuple(draw(st.lists(target, max_size=3))),
    )


def preset_rates(name, n_c, n_p, k_max):
    """Each preset's (c1, c2) as the paper states it, written out apart from ``params``."""
    return {
        "proposed": (Fraction(1, 2 * n_p), Fraction(0)),
        "classic": (Fraction(2 * k_max + 1, 2 * n_c), math.sqrt(2.0)),
        "ofdm": (Fraction(0), Fraction(0)),
        "ocdm": (Fraction(1, 2 * n_c), Fraction(1, 2 * n_c)),
    }[name]


@settings(deadline=None, max_examples=300)
@given(
    name=st.sampled_from(PRESET_NAMES), n_c=st.integers(-4, 64), k_chirps=st.integers(0, 9),
    k_max=st.integers(-1, 4), l_cpp=st.integers(-1, 4),
)
@example(name="ocdm", n_c=0, k_chirps=1, k_max=0, l_cpp=0)
@example(name="proposed", n_c=0, k_chirps=1, k_max=0, l_cpp=0)
@example(name="classic", n_c=8, k_chirps=0, k_max=0, l_cpp=0)
def test_preset_builds_its_rates_or_raises_value_error(name, n_c, k_chirps, k_max, l_cpp):
    valid = (
        n_c >= 1 and k_chirps >= 1 and n_c % k_chirps == 0 and k_max >= 0 and l_cpp >= 0
        and (name != "proposed" or (n_c // k_chirps) % 2 == 0)
    )
    if not valid:
        with pytest.raises(ValueError):
            preset(name, n_c, k_chirps, k_max, l_cpp)
        return
    config = preset(name, n_c, k_chirps, k_max, l_cpp)
    n_p = n_c // k_chirps
    c1, c2 = preset_rates(name, n_c, n_p, k_max)
    assert config == AfdmConfig(n_c, k_chirps, n_p, c1=c1, c2=c2, l_cpp=l_cpp)
    assert config.fmcw_equivalent == (name == "proposed")


@settings(deadline=None, max_examples=100)
@given(sc=scenarios(), name=st.sampled_from(PRESET_NAMES))
def test_scenario_waveform_is_the_preset_formula(sc, name):
    assume(name != "proposed" or sc.n_p % 2 == 0)
    c1, c2 = preset_rates(name, sc.n_c, sc.n_p, sc.k_max)
    want = AfdmConfig(sc.n_c, sc.k_chirps, sc.n_p, c1=c1, c2=c2, l_cpp=sc.l_max + 1)
    assert sc.waveform(name) == want
    assert sc.waveform() == sc.waveform(sc.preset)


@settings(deadline=None, max_examples=100)
@given(sc=scenarios(), geometry_key=st.sampled_from(("k_chirps", "n_p")))
def test_scenario_file_round_trip(sc, geometry_key):
    lines = [
        f"n_c = {sc.n_c}", f"{geometry_key} = {getattr(sc, geometry_key)}",
        f"preset = {sc.preset}", f"k_max = {sc.k_max}", f"l_max = {sc.l_max}",
        f"snr_db = {sc.snr_db!r}", f"pilot_overhead = {sc.pilot_overhead!r}",
        f"seed = {sc.rng_seed}",
    ]
    for gain, l, k in sc.targets:
        lines += ["[path]", f"gain_re = {gain.real!r}", f"gain_im = {gain.imag!r}",
                  f"l = {l}", f"k = {k}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.txt"
        path.write_text("\n".join(lines) + "\n")
        assert load_scenario(path) == sc
