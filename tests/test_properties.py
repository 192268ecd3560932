"""Property tests of the paper's channel identities over random valid geometries."""

import dataclasses
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import afdmsim.sensing as sensing
from afdmsim.ambiguity import caf_closed, dpaf_brute, dpaf_surface
from afdmsim._phase import unit_phasor
from afdmsim.channel import (
    PathTap,
    _delay_doppler,
    _delay_doppler_adjoint,
    _delay_doppler_gram_blocks,
    _doppler_taps,
    _gram_block_index,
    apply_channel,
)
from afdmsim.ddgrid import grid_to_vector, io_predict, vector_to_grid
from afdmsim.metrics import (
    _block_size,
    _lmmse_solve,
    _pilot_slots,
    build_frame,
)
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
    cfar_mask_batch,
    cfar_threshold_factor,
    ddmf,
    ddmf_batch,
    dechirp,
    dechirp_batch,
    os_cfar_mask_batch,
    os_cfar_rank,
    os_cfar_threshold_factor,
    signed_doppler,
    tfmf,
    tfmf_batch,
)
from afdmsim.waveform import (
    daft_index_to_dd,
    dd_to_daft_index,
    demodulate,
    echo_form_subcarrier,
    fmcw_signal,
    modulate,
    subcarrier,
)

from oracles import (
    build_effective_channel,
    chirp_pair,
    dechirp_strided,
    delay_doppler_gram,
    mask_near,
    reference_frame,
    tfmf_strided,
)


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
    cells = ddmf(config, y, x)
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
@example(n_p=64, k_chirps=8, batch=3, seed=0, zero_y=False)
def test_fft_ddmf_equals_the_direct_form(n_p, k_chirps, batch, seed, zero_y):
    # the K time-domain cross-correlations compute the direct form's maps,
    # at the production size (fig4's n_p = 64, K = 8) too; an all-zero
    # received grid gives all-zero maps
    config = proposed_params(n_p, k_chirps)
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, batch, config.n_c, 2))
    # gridded as the engine grids its symbols, so the maps' layout is the engine's
    Y, X = vector_to_grid(config, parts[..., 0] + 1j * parts[..., 1])
    if zero_y:
        Y[:] = 0.0
    want = _ddmf_direct(config, Y, X)
    got = ddmf_batch(config, Y, X)
    assert got.flags.c_contiguous
    peaks = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * peaks)


@settings(deadline=None, max_examples=60)
@given(
    n_p=st.integers(1, 16).map(lambda half: 2 * half),
    k_chirps=st.integers(1, 9),
    batch=st.integers(1, 5),
    row=st.integers(0, 31),
    col=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_p=64, k_chirps=8, batch=3, row=0, col=0, seed=0)
@example(n_p=8, k_chirps=4, batch=1, row=7, col=3, seed=0)
def test_one_cell_gather_equals_the_direct_form(n_p, k_chirps, batch, row, col, seed):
    # one transmit grid whose only nonzero cell is a complex amplitude: each
    # map cell reads one received cell (fig4's n_p = 64, K = 8 with the pilot
    # at (0, 0), and a last cell)
    config = proposed_params(n_p, k_chirps)
    rng = np.random.default_rng(seed)
    cell = (row % n_p, col % k_chirps)
    parts = rng.standard_normal((batch, config.n_c, 2))
    Y = vector_to_grid(config, parts[..., 0] + 1j * parts[..., 1])
    X = np.zeros((1, n_p, k_chirps), dtype=np.complex128)
    X[(0,) + cell] = complex(*rng.standard_normal(2))
    want = _ddmf_direct(config, Y, np.repeat(X, batch, axis=0))
    got = ddmf_batch(config, Y, X)
    assert got.flags.c_contiguous
    peaks = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * peaks)


def test_only_one_shared_one_cell_grid_takes_the_gather(monkeypatch):
    # a two-cell grid, an all-zero grid and R = N one-cell grids keep the
    # FFT path; one shared one-cell grid skips it
    config = proposed_params(8, 4)
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((2, 8, 4)) + 1j * rng.standard_normal((2, 8, 4))
    one = np.zeros((1, 8, 4), dtype=np.complex128)
    one[0, 2, 1] = 1.5
    two = one.copy()
    two[0, 5, 3] = -0.5j
    calls = {"gather": 0, "ifft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sensing, "_one_cell_gather", counted("gather", sensing._one_cell_gather))
    monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
    for X in (two, np.zeros_like(one), np.repeat(one, 2, axis=0)):
        ddmf_batch(config, Y, X)
        assert calls["gather"] == 0 and calls["ifft"] > 0
        calls["ifft"] = 0
    ddmf_batch(config, Y, one)
    assert calls == {"gather": 1, "ifft": 0}


@pytest.mark.parametrize(
    "config, y_shape, x_shape, match",
    [
        (classic_params(32, 1, k_chirps=4), (1, 8, 4), (1, 8, 4), "FMCW-equivalent"),
        (proposed_params(8, 4), (1, 8, 4), (2, 8, 4), "must both be"),
        (proposed_params(8, 4), (1, 4, 8), (1, 4, 8), "must both be"),
        (proposed_params(8, 4), (8, 4), (8, 4), "must both be"),
        # 2B received grids against B transmit grids: ddmf_batch pairs them
        # (None), the direct form keeps its equal-shape (B, n_p, K) contract
        (proposed_params(8, 4), (4, 8, 4), (2, 8, 4), None),
    ],
)
@pytest.mark.parametrize("form", [ddmf_batch, _ddmf_direct])
def test_ddmf_forms_reject_the_same_inputs(form, config, y_shape, x_shape, match):
    y, x = np.zeros(y_shape, complex), np.zeros(x_shape, complex)
    if match is None and form is ddmf_batch:
        assert form(config, y, x).shape == y_shape
        return
    with pytest.raises(ValueError, match=match or r"must both be \(B, n_p, K\)"):
        form(config, y, x)


@settings(deadline=None, max_examples=40)
@given(
    config=geometries(),
    refs=st.integers(1, 3),
    rows=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@example(config=proposed_params(8, 4), refs=3, rows=6, seed=0)
@example(config=proposed_params(8, 4), refs=2, rows=3, seed=0)
def test_batch_filters_pair_row_i_with_reference_i_mod_r(config, refs, rows, seed):
    # N = m R received rows against R references equal the per-row calls
    # bit for bit; an R that does not divide N is rejected
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, rows + refs, config.n_c))
    r, s = np.split(parts[0] + 1j * parts[1], [rows])
    kernels = [(tfmf_batch, r, s, "references do not divide")]
    if config.fmcw_equivalent:
        kernels.append((ddmf_batch, vector_to_grid(config, r), vector_to_grid(config, s),
                        "must both be"))
    for kernel, received, sent, message in kernels:
        if rows % refs:
            with pytest.raises(ValueError, match=message):
                kernel(config, received, sent)
            continue
        want = [kernel(config, received[i:i + 1], sent[i % refs:i % refs + 1])[0]
                for i in range(rows)]
        assert np.array_equal(kernel(config, received, sent), np.stack(want))


@settings(deadline=None, max_examples=60)
@given(config=geometries(), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_daft_is_unitary(config, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, config.n_c)) + 1j * rng.standard_normal((batch, config.n_c))
    s = modulate(config, x)
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

@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(PRESET_NAMES),
    n_p=st.integers(1, 16),
    k_chirps=st.integers(1, 8),
    lead=st.integers(1, 3),
    rows=st.integers(1, 4),
    per_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="proposed", n_p=64, k_chirps=8, lead=2, rows=3, per_row=False, seed=0)
@example(name="ocdm", n_p=6, k_chirps=3, lead=1, rows=2, per_row=True, seed=0)
@example(name="proposed", n_p=6, k_chirps=1, lead=1, rows=1, per_row=True, seed=0)
def test_chirp_major_filters_equal_the_strided_forms(
    name, n_p, k_chirps, lead, rows, per_row, seed
):
    # tfmf and dechirp scale once where the strided forms scale each stage:
    # bit for bit when sqrt(n_p) is a power of 2, to rounding otherwise.
    # Every map stack is C-contiguous
    if name == "proposed":
        n_p += n_p % 2
    config = preset(name, n_p * k_chirps, k_chirps, 1)
    rng = np.random.default_rng(seed)
    n_rows = lead * rows
    parts = rng.standard_normal((2, n_rows + (n_rows if per_row else 1) + 1, config.n_c))
    r, s, pilot = np.split(parts[0] + 1j * parts[1], [n_rows, -1])
    r = r.reshape(lead, rows, config.n_c)
    exact = n_p & (n_p - 1) == 0 and n_p.bit_length() % 2 == 1  # n_p a power of 4
    for got, want in (
        (tfmf_batch(config, r, s), tfmf_strided(config, r, s)),
        (dechirp_batch(config, r, pilot[0]), dechirp_strided(config, r, pilot[0])),
    ):
        assert got.flags.c_contiguous and got.shape == want.shape == (lead, rows, n_p, k_chirps)
        if exact:
            assert np.array_equal(got, want)
        else:
            peaks = np.abs(want).max(axis=(-2, -1))
            assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= 1e-14 * peaks)


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
    # both detectors read each cell's ring as views of one gathered cyclic
    # patch: the same values as the rolled copies (added in the same offset
    # order for CA), so the thresholds of both agree bit for bit over 600
    # decades of power, zero cells included
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


@settings(deadline=None, max_examples=100)
@given(
    data=st.data(),
    lead=st.lists(st.integers(1, 3), max_size=2),
    ring=st.sampled_from([(2, 1), (1, 0), (1, 2)]),
    near=st.tuples(st.integers(-2**62, 2**62), st.integers(-2**62, 2**62)),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cfar_window_equals_the_full_maps_window(data, lead, ring, near, zero_fraction, seed):
    # each window cell's ring is gathered and added in the full map's offset
    # order, so its threshold and decision are the full map's, bit for bit
    train, guard = ring
    window = 2 * (train + guard) + 1
    n_p, k_chirps = (data.draw(st.integers(window, 40)) for _ in range(2))
    rng = np.random.default_rng(seed)
    power = np.exp(rng.uniform(np.log(1e-300), np.log(1e300), size=(*lead, n_p, k_chirps)))
    power[rng.random(power.shape) < zero_fraction] = 0.0
    mask, threshold = cfar_mask_batch(power, train, guard, 1e-4)
    got_mask, got_threshold = cfar_mask_batch(power, train, guard, 1e-4, near=near)
    rows = np.mod(near[0] + np.arange(-1, 2), n_p)[:, None]
    cols = np.mod(near[1] + np.arange(-1, 2), k_chirps)
    assert got_mask.shape == got_threshold.shape == (*lead, 3, 3)
    assert np.array_equal(got_threshold, threshold[..., rows, cols])
    assert np.array_equal(got_mask, mask[..., rows, cols])
    # c08's association of the full masks is the trial engine's hit rule
    assert np.array_equal(mask_near(mask, *near), got_mask.any(axis=(-2, -1)))


@pytest.mark.parametrize(
    "shape, near",
    [
        ((2, 2, 8, 64, 8), (10, 3)), ((2, 2, 8, 64, 8), (-1, -1)),
        ((3, 1, 8, 64, 8), (10, 3)), ((3, 1, 8, 64, 8), (-1, -1)),
        ((256, 64, 8), None),
    ],
)
def test_benchmark_stacks_equal_rolled_copies(shape, near):
    # the trial engine's window stacks and a full-map stack: more leading
    # axes and maps than the property tests draw
    rng = np.random.default_rng(sum(shape))
    power = np.exp(rng.uniform(np.log(1e-300), np.log(1e300), size=shape))
    power[rng.random(shape) < 0.3] = 0.0
    want_mask, want_threshold = _rolled_ring_cfar(power, 2, 1, 1e-4)
    if near is not None:
        rows = np.mod(near[0] + np.arange(-1, 2), shape[-2])[:, None]
        cols = np.mod(near[1] + np.arange(-1, 2), shape[-1])
        want_mask, want_threshold = want_mask[..., rows, cols], want_threshold[..., rows, cols]
    mask, threshold = cfar_mask_batch(power, 2, 1, 1e-4, near=near)
    assert np.array_equal(threshold, want_threshold)
    assert np.array_equal(mask, want_mask)


@settings(deadline=None, max_examples=60)
@given(config=geometries(), l_cpp=st.integers(0, 4))
@example(config=preset("proposed", 8, 1), l_cpp=1)  # K = 1
@example(config=preset("classic", 30, 3, 1), l_cpp=2)  # odd K, the float c2
def test_chirp_phasors_are_built_once_per_config(config, l_cpp):
    twin = dataclasses.replace(config)
    assert twin == config and hash(twin) == hash(config)
    pair = config.chirp_phasors
    assert config.chirp_phasors is pair
    assert twin == config and hash(twin) == hash(config)  # one built, the other not
    want = chirp_pair(config)
    for phasor, expected in zip(pair, want):
        assert np.array_equal(phasor, expected) and not phasor.flags.writeable
    other = dataclasses.replace(config, l_cpp=l_cpp)
    assert other.chirp_phasors is not pair
    assert np.array_equal(other.chirp_phasors, want)


@settings(deadline=None, max_examples=60)
@given(config=geometries(), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_demodulate_with_built_chirps_equals_building_them(config, batch, seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((batch, config.n_c)) + 1j * rng.standard_normal((batch, config.n_c))
    c2_chirp, c1_chirp = chirp_pair(config)
    want = np.fft.fft(r * np.conj(c1_chirp)) / np.sqrt(config.n_c) * np.conj(c2_chirp)
    assert np.array_equal(demodulate(config, r), want)


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


@settings(deadline=None, max_examples=60)
@given(data=st.data(), config=geometries())
def test_structured_gram_equals_the_dense_form(data, config):
    # a pair sharing one delay (their diagonals add) and a delay tap that wraps
    n_c = config.n_c
    paths = data.draw(channels(config))
    paths += [PathTap(0.5, paths[0].delay_tap, -n_c), PathTap(0.25j, n_c + 1, n_c)]
    taps = _doppler_taps(paths, n_c)
    dense = _delay_doppler(np.eye(n_c, dtype=np.complex128), taps).T
    gram = dense @ dense.conj().T
    scale = np.abs(gram).max()
    assert np.abs(delay_doppler_gram(taps, n_c) - gram).max() <= 1e-12 * scale


def _relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _dense_from_blocks(blocks):
    """The n_c x n_c matrix of a (3, N, b, b) lower/diagonal/upper block-cyclic stack.

    The slots are added, not written: with N = 1 all three are the one block.
    """
    _, n_blocks, b, _ = blocks.shape
    dense = np.zeros((n_blocks * b, n_blocks * b), dtype=blocks.dtype)
    for side, offset in enumerate((-1, 0, 1)):
        for i in range(n_blocks):
            j = (i + offset) % n_blocks
            dense[i * b:(i + 1) * b, j * b:(j + 1) * b] += blocks[side, i]
    return dense


@settings(deadline=None, max_examples=60)
@given(n_c=st.integers(6, 96), spread=st.integers(0, 48), n_paths=st.integers(1, 3),
       realizations=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
# N = 3 blocks of 8: the forward sweep runs one step and meets the corner at once
@example(n_c=24, spread=8, n_paths=2, realizations=3, seed=0)
# no divisor of 32 in [12, 32 / 3]: one block of 32
@example(n_c=32, spread=12, n_paths=2, realizations=3, seed=0)
def test_banded_lmmse_solve_and_adjoint_equal_the_dense_forms(
    n_c, spread, n_paths, realizations, seed
):
    rng = np.random.default_rng(seed)
    # delays 0 and ``spread`` (more with three paths), a pair sharing a delay
    # and a delay tap >= n_c; each realization draws its own gains
    delays = [0, *rng.integers(0, spread + 1, max(n_paths - 2, 0)).tolist(), spread][:n_paths]
    gains = rng.standard_normal((realizations, n_paths + 2, 2)) @ [1.0, 1j]
    # ||H_t|| <= 1: every stacked system's condition is <= 1 + 1 / sigma^2,
    # at most 10^4 + 1 at 40 dB
    gains /= np.abs(gains).sum(axis=1, keepdims=True)
    dopplers = rng.integers(-n_c, n_c + 1, n_paths + 2)
    delays += [delays[-1], n_c + int(rng.integers(0, spread + 1))]
    unit = _doppler_taps([PathTap(1.0, l, k) for l, k in zip(delays, dopplers)], n_c)
    taps = [(g[:, None, None], shift, phasor) for g, (_, shift, phasor) in zip(gains.T, unit)]
    b = _block_size(unit, n_c)
    index = _gram_block_index([shift for _, shift, _ in unit], n_c, b)

    noise_vars = np.array([1.0, 0.1, 0.01, 1e-4])  # SNR 0, 10, 20 and 40 dB, stacked
    shape = (realizations, len(noise_vars), n_c, 4)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = y.copy()
    _lmmse_solve(taps, noise_vars, got, b, index)
    z = rng.standard_normal((2, realizations, 3, n_c)) + 1j * rng.standard_normal(
        (2, realizations, 3, n_c)
    )
    adjoint = _delay_doppler_adjoint(z, taps)
    blocks = _delay_doppler_gram_blocks(taps, n_c, b, index)
    assert blocks.shape == (realizations, 1, 3, n_c // b, b, b)
    for r in range(realizations):
        taps_r = _doppler_taps([PathTap(*p) for p in zip(gains[r], delays, dopplers)], n_c)
        dense = _delay_doppler(np.eye(n_c, dtype=np.complex128), taps_r).T
        gram = dense @ dense.conj().T
        for s, v in enumerate(noise_vars):
            want = np.linalg.solve(gram + v * np.eye(n_c), y[r, s])
            assert _relative_error(got[r, s], want) <= 1e-12
        assert _relative_error(adjoint[:, r], z[:, r] @ dense.conj()) <= 1e-12
        # the block form holds the structured Gram's entries bit for bit
        want = delay_doppler_gram(taps_r, n_c)
        assert np.array_equal(_dense_from_blocks(blocks[r, 0]), want)


# three blocks of 8 (the sweep's steps) and one block of 32 (the dense LU)
@pytest.mark.parametrize("n_c, delays, n_blocks", [(24, (0,), 3), (32, (0, 12), 1)])
@pytest.mark.parametrize("slot", [0, 1])
def test_banded_lmmse_solve_reports_a_singular_system(n_c, delays, n_blocks, slot):
    # each delay carries two taps at the same (l, k) with gains g and -g, so
    # H_t = 0 and a zero noise variance leaves the system G_r + 0 I = 0
    g = 0.6 - 0.3j
    gains = [g, -g] * len(delays)
    unit = _doppler_taps([PathTap(1.0, l, 1) for l in delays for _ in (g, -g)], n_c)
    taps = [(np.full((2, 1, 1), v), shift, phasor) for v, (_, shift, phasor) in zip(gains, unit)]
    b = _block_size(unit, n_c)
    assert n_c // b == n_blocks
    index = _gram_block_index([shift for _, shift, _ in unit], n_c, b)
    noise_vars = np.ones(2)
    noise_vars[slot] = 0.0
    y = np.ones((2, 2, n_c, 3), dtype=np.complex128)
    with pytest.raises(np.linalg.LinAlgError):
        _lmmse_solve(taps, noise_vars, y, b, index)


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
    target = st.builds(PathTap, gain, st.integers(0, l_max), st.integers(-k_max, k_max))
    return ScenarioConfig(
        name="scenario", n_c=n_p * k_chirps, k_chirps=k_chirps, preset=name,
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
    assert config == AfdmConfig(n_c, k_chirps, c1=c1, c2=c2, l_cpp=l_cpp)
    assert config.fmcw_equivalent == (name == "proposed")


@settings(deadline=None, max_examples=100)
@given(sc=scenarios(), name=st.sampled_from(PRESET_NAMES))
def test_scenario_waveform_is_the_preset_formula(sc, name):
    assume(name != "proposed" or sc.n_p % 2 == 0)
    c1, c2 = preset_rates(name, sc.n_c, sc.n_p, sc.k_max)
    want = AfdmConfig(sc.n_c, sc.k_chirps, c1=c1, c2=c2, l_cpp=sc.l_max + 1)
    assert sc.waveform(name) == want
    assert sc.waveform() == sc.waveform(sc.preset)


@settings(deadline=None, max_examples=100)
@given(
    sc=scenarios(),
    geometry=st.sampled_from((("k_chirps",), ("n_p",), ("k_chirps", "n_p"))),
)
@example(  # the desk grid keyed by its chirp period alone
    sc=ScenarioConfig(name="scenario", n_c=32, k_chirps=4, l_max=2, k_max=1,
                      targets=(PathTap(1.0 + 0.0j, 1, 1),)),
    geometry=("n_p",),
)
def test_scenario_file_round_trip(sc, geometry):
    # the chirp period n_p is a file input: alone or beside k_chirps it
    # loads the same scenario as k_chirps alone
    lines = [
        f"n_c = {sc.n_c}", *(f"{key} = {getattr(sc, key)}" for key in geometry),
        f"preset = {sc.preset}", f"k_max = {sc.k_max}", f"l_max = {sc.l_max}",
        f"snr_db = {sc.snr_db!r}", f"pilot_overhead = {sc.pilot_overhead!r}",
        f"seed = {sc.rng_seed}",
    ]
    for path in sc.targets:
        lines += ["[path]", f"gain_re = {path.gain.real!r}", f"gain_im = {path.gain.imag!r}",
                  f"l = {path.delay_tap}", f"k = {path.doppler_tap}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.txt"
        path.write_text("\n".join(lines) + "\n")
        assert load_scenario(path) == sc


# ---------------------------------------------------------------------------
# Acceptance criteria over random geometries
# ---------------------------------------------------------------------------

even_n_p = st.integers(1, 16).map(lambda half: 2 * half)


@settings(deadline=None, max_examples=60)
@given(n_p=even_n_p, k_chirps=st.integers(1, 8), delay=st.integers(0, 255),
       doppler=st.integers(-256, 256),
       gain=st.complex_numbers(min_magnitude=0.1, max_magnitude=1.5, allow_nan=False,
                               allow_infinity=False),
       seed=st.integers(0, 2**32 - 1))
# n_c = 18: (n_c - 1) / 2 = 8.5 guards must round up, or one data subcarrier stays
@example(n_p=6, k_chirps=3, delay=0, doppler=0, gain=1.0, seed=0)
def test_c07_tfmf_equals_dechirp_at_full_overhead(n_p, k_chirps, delay, doppler, gain, seed):
    # at PO = 1 the frame is the boosted pilot alone, so matching the
    # transmit signal is dechirping by the pilot, up to scale
    config = proposed_params(n_p, k_chirps)
    x = build_frame(config, 1.0, np.random.default_rng(seed))
    s = modulate(config, x)
    r = apply_channel(config, s, [PathTap(gain, delay, doppler)])
    zt = np.abs(tfmf(config, r, s))
    zd = np.abs(dechirp(config, r, subcarrier(config, 0)))
    assert np.abs(zt / np.linalg.norm(zt) - zd / np.linalg.norm(zd)).max() < 1e-9


@st.composite
def overheads(draw):
    """(n_c, PO): PO 0, 1, (2Q+2)/n_c (Q + 1/2 guards, rounded up) or any in [0, 1]."""
    n_c = draw(st.integers(1, 70))
    half_up = st.integers(0, max(0, n_c // 2 - 1)).map(lambda q: min(1.0, (2 * q + 2) / n_c))
    return n_c, draw(st.one_of(st.sampled_from([0.0, 1.0]), half_up, st.floats(0.0, 1.0)))


@settings(deadline=None, max_examples=200)
@given(grid=overheads(), seed=st.integers(0, 2**32 - 1))
@example(grid=(64, 0.09375), seed=0)  # 2.5 guards: Q = 3, not 2
def test_frame_equals_the_guard_count_form(grid, seed):
    # one path for every overhead builds the frame the guard-count form
    # builds, and takes as many draws
    n_c, po = grid
    config = preset("ofdm", n_c)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(build_frame(config, po, rng), reference_frame(config, po, oracle))
    assert rng.bit_generator.state == oracle.bit_generator.state


@settings(deadline=None, max_examples=60)
@given(
    n_c=st.integers(1, 70),
    po=st.one_of(
        st.just(math.nan), st.booleans(),
        st.floats(allow_nan=False).filter(lambda po: not 0.0 <= po <= 1.0),
    ),
)
def test_pilot_slots_reject_an_overhead_outside_the_unit_interval(n_c, po):
    with pytest.raises(ValueError, match="pilot overhead must"):
        _pilot_slots(n_c, po)


@settings(deadline=None, max_examples=60)
@given(n_p=st.integers(1, 32).map(lambda half: 2 * half), k_chirps=st.integers(1, 8))
def test_c01_base_subcarrier_is_the_fmcw_sweep(n_p, k_chirps):
    got = subcarrier(proposed_params(n_p, k_chirps), 0)
    assert np.abs(got - fmcw_signal(n_p, k_chirps)).max() < 1e-12


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n_p=even_n_p, k_chirps=st.integers(1, 8))
def test_c03_every_subcarrier_is_an_echo_of_the_base_chirp(data, n_p, k_chirps):
    config = proposed_params(n_p, k_chirps)
    l = data.draw(st.integers(0, n_p - 1))
    k = data.draw(st.integers(0, k_chirps - 1))
    m = dd_to_daft_index(config, l, k)
    echo = echo_form_subcarrier(config, l, k)
    assert np.abs(echo - subcarrier(config, m)).max() < 1e-10
    assert daft_index_to_dd(config, m) == (l, k)


@settings(deadline=None, max_examples=20)
@given(data=st.data(), n_p=st.integers(1, 12).map(lambda half: 2 * half))
def test_c04_cross_ambiguity_closed_form_on_the_full_plane(data, n_p):
    # n_c = n_p K <= 48
    config = proposed_params(n_p, data.draw(st.integers(1, 48 // n_p)))
    K, n_c = config.k_chirps, config.n_c
    sub = st.tuples(st.integers(0, n_p - 1), st.integers(0, K - 1))
    sub_a, sub_b = data.draw(sub), data.draw(sub)
    a, b = echo_form_subcarrier(config, *sub_a), echo_form_subcarrier(config, *sub_b)
    l, k = np.meshgrid(np.arange(n_c), np.arange(n_c), indexing="ij")
    closed = caf_closed(config, sub_a, sub_b, l, k)
    brute = [[dpaf_brute(a, b, li, ki) for ki in range(n_c)] for li in range(n_c)]
    assert np.abs(np.array(brute) - closed).max() < 1e-9
