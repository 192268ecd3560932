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
from afdmsim.channel import PathTap, apply_channel
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
    _ddmf_direct, cfar_mask_batch, ddmf, ddmf_batch, os_cfar_mask_batch, signed_doppler,
)
from afdmsim.waveform import _modulate, demodulate, modulate


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


@settings(deadline=None, max_examples=100)
@given(sc=scenarios(), name=st.sampled_from(PRESET_NAMES))
def test_scenario_waveform_is_the_preset_formula(sc, name):
    assume(name != "proposed" or sc.n_p % 2 == 0)
    cpp = sc.l_max + 1
    if name == "proposed":
        want = proposed_params(sc.n_p, sc.k_chirps, l_cpp=cpp)
    elif name == "classic":
        want = classic_params(sc.n_c, sc.k_max, k_chirps=sc.k_chirps, l_cpp=cpp)
    else:
        c = Fraction(0) if name == "ofdm" else Fraction(1, 2 * sc.n_c)
        want = AfdmConfig(sc.n_c, sc.k_chirps, sc.n_p, c1=c, c2=c, l_cpp=cpp)
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
