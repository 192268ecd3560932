import tracemalloc

import numpy as np
import pytest

from afdmsim.channel import PathTap, apply_channel
from afdmsim.ddgrid import vector_to_grid
from afdmsim.metrics import build_frame, sensing_maps
from afdmsim.params import proposed_params
from afdmsim.sensing import (
    cfar_mask_batch,
    cfar_threshold_factor,
    ddmf,
    ddmf_batch,
    dechirp,
    dechirp_batch,
    os_cfar_mask_batch,
    os_cfar_rank,
    os_cfar_threshold_factor,
    peak,
    signed_doppler,
    tfmf,
    tfmf_batch,
)
from afdmsim.waveform import demodulate, modulate, subcarrier

from oracles import mask_near

CFG = proposed_params(8, 4)
FIG4 = proposed_params(64, 8)  # the fig4 grid, n_c = 512


def pilot_frame(config):
    return build_frame(config, 1.0, np.random.default_rng(0))


def received_grid(config, x, paths):
    r = apply_channel(config, modulate(config, x), paths)
    return vector_to_grid(config, demodulate(config, r)), r


class TestTfmf:
    def test_zero_input_zero_map(self):
        z = tfmf(CFG, np.zeros(32, dtype=complex), subcarrier(CFG, 0))
        assert np.all(z == 0)

    def test_single_target_argmax(self):
        x = pilot_frame(CFG)
        s = modulate(CFG, x)
        r = apply_channel(CFG, s, [PathTap(1.0, 3, 0)])
        z = tfmf(CFG, r, s)
        assert peak(z)[:2] == (3, 0)

    def test_full_scale_coupled_target(self):
        cfg = proposed_params(64, 8)
        x = pilot_frame(cfg)
        s = modulate(cfg, x)
        r = apply_channel(cfg, s, [PathTap(1.0, 10, 3)])
        z = tfmf(cfg, r, s)
        assert peak(z)[:2] == (10, 3)

    def test_linearity_in_received_signal(self):
        rng = np.random.default_rng(0)
        ref = subcarrier(CFG, 0)
        r1 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        r2 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        a, b = 1.5 - 0.5j, -0.7j
        combined = tfmf(CFG, a * r1 + b * r2, ref)
        split = a * tfmf(CFG, r1, ref) + b * tfmf(CFG, r2, ref)
        assert np.abs(combined - split).max() < 1e-12


class TestDechirp:
    def test_matches_tfmf_magnitudes_at_full_overhead(self):
        rng = np.random.default_rng(1)
        x = pilot_frame(CFG)
        s = modulate(CFG, x)
        r = apply_channel(CFG, s, [PathTap(0.8, 2, 1), PathTap(0.4, 5, -1)])
        noisy = r + 0.05 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        zt = tfmf(CFG, noisy, s)
        zd = dechirp(CFG, noisy, subcarrier(CFG, 0))
        assert np.abs(np.abs(zt) - np.abs(zd)).max() < 1e-9

    def test_identity_channel_peak_at_origin(self):
        p = subcarrier(CFG, 0)
        z = dechirp(CFG, p, p)
        assert peak(z)[:2] == (0, 0)

    def test_zero_input(self):
        z = dechirp(CFG, np.zeros(32, dtype=complex), subcarrier(CFG, 0))
        assert np.all(z == 0)


@pytest.mark.parametrize("kernel, algorithm", [(tfmf_batch, tfmf), (dechirp_batch, dechirp)])
def test_batch_kernel_maps_every_signal_of_any_stack(kernel, algorithm):
    # the transforms run along the trailing (n_p, K) axes, whatever the leading shape
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((2, 3, 32)) + 1j * rng.standard_normal((2, 3, 32))
    ref = subcarrier(CFG, 0)
    maps = kernel(CFG, stack, ref)
    assert maps.shape[-2:] == (8, 4)
    for index in np.ndindex(2, 3):
        expected = algorithm(CFG, stack[index], ref)
        assert np.array_equal(maps[index], expected)
        assert np.array_equal(kernel(CFG, stack[index], ref).reshape(8, 4), expected)


def test_tfmf_batch_pairs_rows_with_references_that_divide_them():
    rng = np.random.default_rng(6)
    refs = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
    stack = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
    maps = tfmf_batch(CFG, stack, refs)
    for row in range(8):
        assert np.array_equal(maps[row], tfmf(CFG, stack[row], refs[row]))
    # rows pair with references in C order over the leading axes, whatever their shape
    assert np.array_equal(tfmf_batch(CFG, stack.reshape(2, 4, 32), refs), maps.reshape(2, 4, 8, 4))
    # 8 references divide no fewer received signals; a 1-D signal is one received signal
    for r, count in [(subcarrier(CFG, 1), 1), (stack[:4], 4), (stack[:6], 6)]:
        with pytest.raises(ValueError, match=f"8 references do not divide {count} received"):
            tfmf_batch(CFG, r, refs)


class TestDdmf:
    def test_zero_received_grid(self):
        x = vector_to_grid(CFG, pilot_frame(CFG))
        z = ddmf(CFG, np.zeros((8, 4), dtype=complex), x)
        assert np.all(z == 0)

    def test_identity_channel_full_data(self):
        rng = np.random.default_rng(2)
        x = build_frame(CFG, 0.0, rng)
        y_grid, _ = received_grid(CFG, x, [PathTap(1.0, 0, 0)])
        x_grid = vector_to_grid(CFG, x)
        z = ddmf(CFG, y_grid, x_grid)
        assert z[0, 0] == pytest.approx(np.sum(np.abs(x_grid) ** 2), abs=1e-9)
        assert peak(z)[:2] == (0, 0)

    @pytest.mark.parametrize("li", range(8))
    @pytest.mark.parametrize("ki", [-1, 0, 1])
    def test_pilot_only_decoupling_exhaustive(self, li, ki):
        x = pilot_frame(CFG)
        y_grid, _ = received_grid(CFG, x, [PathTap(0.9 * np.exp(0.4j), li, ki)])
        z = ddmf(CFG, y_grid, vector_to_grid(CFG, x))
        assert peak(z)[:2] == (li, ki % 4)

    def test_conjugate_linearity_in_received_grid(self):
        rng = np.random.default_rng(3)
        x_grid = vector_to_grid(CFG, pilot_frame(CFG))
        y1 = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        y2 = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        a, b = 0.3 + 2.0j, -1.1
        combined = ddmf(CFG, a * y1 + b * y2, x_grid)
        split = np.conj(a) * ddmf(CFG, y1, x_grid) + np.conj(b) * ddmf(CFG, y2, x_grid)
        assert np.abs(combined - split).max() < 1e-10

    @pytest.mark.parametrize("config", [FIG4, CFG], ids=["fig4", "n_c=32"])
    @pytest.mark.parametrize("batch", [1, 3, 8, 17])
    def test_batch_equals_each_map_filtered_alone(self, config, batch):
        rng = np.random.default_rng(batch)
        shape = (2, batch, config.n_p, config.k_chirps)
        Y, X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = ddmf_batch(config, Y, X)
        for b in range(batch):
            assert np.array_equal(got[b], ddmf_batch(config, Y[b:b + 1], X[b:b + 1])[0])

    def test_memory_per_extra_map_is_less_than_a_correlation_stack(self):
        # the (K, n_c) correlation spectra are built one map at a time: from
        # 1 to 16 maps the peak grows by the spectra and the maps alone
        # (about 26 KiB a map at fig4); a (B, K, n_c) stack would add 64 KiB
        n_p, K = FIG4.n_p, FIG4.k_chirps
        stack_bytes = K * K * n_p * 16
        rng = np.random.default_rng(4)
        shape = (2, 16, n_p, K)
        Y, X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def peak(batch):
            tracemalloc.start()
            try:
                ddmf_batch(FIG4, Y[:batch], X[:batch])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm any first-call allocations
        per_map = (peak(16) - peak(1)) / 15
        assert per_map < 1.5 * stack_bytes, (per_map, stack_bytes)

    def test_signed_doppler_convention(self):
        assert [signed_doppler(c, 8) for c in range(8)] == [0, 1, 2, 3, -4, -3, -2, -1]
        assert [signed_doppler(c, 4) for c in range(4)] == [0, 1, -2, -1]
        # an array of columns maps elementwise, as ddmf_batch reads it
        assert signed_doppler(np.arange(8), 8).tolist() == [0, 1, 2, 3, -4, -3, -2, -1]


def cfar_window(power, train, guard, pfa):
    """CA-CFAR on the 3 x 3 window around each map's last cell."""
    return cfar_mask_batch(power, train, guard, pfa, near=(-1, -1))


class TestCfar:
    @pytest.mark.parametrize("mask_fn", [cfar_mask_batch, os_cfar_mask_batch])
    def test_lone_peak_in_zero_background(self, mask_fn):
        power = np.zeros((8, 4))
        power[5, 2] = 9.0
        mask, threshold = mask_fn(power, 1, 0, 1e-4)
        assert np.argwhere(mask).tolist() == [[5, 2]]
        assert np.all(power[mask] >= threshold[mask])

    def test_threshold_factor_formula(self):
        assert cfar_threshold_factor(40, 1e-4) == pytest.approx(40 * (1e-4 ** (-1 / 40) - 1))

    def test_window_must_fit(self):
        with pytest.raises(ValueError, match="window"):
            cfar_mask_batch(np.zeros((8, 4)), 2, 1, 1e-4)

    @pytest.mark.parametrize("mask_fn", [cfar_mask_batch, os_cfar_mask_batch, cfar_window])
    @pytest.mark.parametrize(
        "train, guard, pfa, match",
        [
            (0, 1, 1e-4, "train"),
            (2, -1, 1e-4, "guard"),
            (2, 1, 0.0, "pfa"),
            (2, 1, 1.0, "pfa"),
            (2, 1, 1e-4, "window"),
        ],
    )
    def test_bad_arguments_rejected(self, mask_fn, train, guard, pfa, match):
        with pytest.raises(ValueError, match=match):
            mask_fn(np.ones((8, 4)), train, guard, pfa)

    def test_os_threshold_factor_meets_pfa(self):
        assert os_cfar_rank(40) == 30
        alpha = os_cfar_threshold_factor(40, 1e-4)
        assert alpha == pytest.approx(8.154, abs=1e-3)
        pfa = np.prod([(40 - i) / (40 - i + alpha) for i in range(30)])
        assert pfa == pytest.approx(1e-4, rel=1e-9)
        # one training cell: pfa = 1 / (1 + alpha)
        assert os_cfar_threshold_factor(1, 0.2) == pytest.approx(4.0, rel=1e-9)

    def test_os_false_alarm_rate_on_noise(self):
        rng = np.random.default_rng(12)
        alarms = cells = 0
        for _ in range(32):
            mask, _ = os_cfar_mask_batch(rng.exponential(1.0, size=(256, 64, 8)), 2, 1, 1e-4)
            alarms += int(mask.sum())
            cells += mask.size
        assert 1e-4 / 3 < alarms / cells < 3e-4

    def test_os_sees_target_masked_for_ca(self):
        cfg = proposed_params(16, 8)
        power = np.ones((cfg.n_p, cfg.k_chirps))
        power[10, 3] = 30.0   # weak target
        power[7, 2] = 90.0    # 3x stronger, Chebyshev distance 3: in the ring
        ca = np.argwhere(cfar_mask_batch(power, 2, 1, 1e-4)[0]).tolist()
        os_ = np.argwhere(os_cfar_mask_batch(power, 2, 1, 1e-4)[0]).tolist()
        assert ca == [[7, 2]]
        assert os_ == [[7, 2], [10, 3]]

    @pytest.mark.parametrize("train, guard", [(2, 1), (1, 0), (1, 2)])
    @pytest.mark.parametrize(
        "shape",
        [
            (64, 8), (1, 64, 8), (4, 64, 8), (256, 8), (4, 256, 8), (8, 8), (3, 7, 9),
            (2, 4, 64, 8), (3, 2, 7, 9),
        ],
    )
    def test_ring_equals_rolled_copies(self, shape, train, guard):
        # the ring is summed from views of one gathered cyclic patch in the
        # order of the offsets, so it equals the sum of rolled copies bit for bit
        rng = np.random.default_rng(sum(shape) + 10 * train + guard)
        power = np.exp(rng.uniform(np.log(1e-300), np.log(1e300), size=shape))
        power[..., 0, 0] = 0.0
        offsets = [
            (di, dj)
            for di in range(-train - guard, train + guard + 1)
            for dj in range(-train - guard, train + guard + 1)
            if max(abs(di), abs(dj)) > guard
        ]
        ring = np.zeros_like(power)
        for di, dj in offsets:
            ring += np.roll(power, (di, dj), axis=(-2, -1))
        noise = ring / len(offsets)
        noise = np.where(noise > 0.0, noise, np.finfo(np.float64).tiny)
        threshold = cfar_threshold_factor(len(offsets), 1e-4) * noise
        mask, got = cfar_mask_batch(power, train, guard, 1e-4)
        assert np.array_equal(got, threshold)
        assert np.array_equal(mask, power > threshold)

    def test_full_map_memory_is_a_few_copies_of_the_input(self):
        # the ring is read through views of one gathered patch (about 5 times
        # the input at the peak); a gathered 40-offset ring takes about 44
        power = np.random.default_rng(3).exponential(1.0, size=(256, 64, 8))
        cfar_mask_batch(power, 2, 1, 1e-4)  # warm any first-call allocations
        tracemalloc.start()
        try:
            cfar_mask_batch(power, 2, 1, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * power.nbytes, peak / power.nbytes

    @pytest.mark.parametrize("mask_fn", [cfar_mask_batch, os_cfar_mask_batch, cfar_window])
    def test_empty_stack(self, mask_fn):
        mask, threshold = mask_fn(np.zeros((0, 64, 8)), 2, 1, 1e-4)
        tail = (3, 3) if mask_fn is cfar_window else (64, 8)
        assert mask.shape == threshold.shape == (0, *tail)

    @pytest.mark.parametrize("mask_fn", [cfar_mask_batch, os_cfar_mask_batch])
    @pytest.mark.parametrize("shape", [(3, 4, 64, 8), (2, 1, 7, 9)])
    def test_stack_of_blocks_equals_one_call_per_block(self, mask_fn, shape):
        # trial_metrics runs one CFAR call on every algorithm's block of maps
        rng = np.random.default_rng(sum(shape))
        power = rng.exponential(1.0, size=shape)
        power[1, 0, 3, 2] = 50.0
        mask, threshold = mask_fn(power, 2, 1, 1e-4)
        assert mask.any()
        for a, block in enumerate(power):
            want_mask, want_threshold = mask_fn(block, 2, 1, 1e-4)
            assert np.array_equal(mask[a], want_mask)
            assert np.array_equal(threshold[a], want_threshold)

    def test_false_alarm_rate_on_noise(self):
        rng = np.random.default_rng(12)
        power = rng.exponential(1.0, size=(400, 16, 16))
        mask, _ = cfar_mask_batch(power, 2, 1, 1e-2)
        rate = mask.mean()
        assert 0.3e-2 < rate < 3e-2

    def test_three_target_scene_exactly_three_clusters(self):
        cfg = proposed_params(64, 8)
        targets = [(np.sqrt(0.6), 3, 0), (np.sqrt(0.3), 7, 2), (np.sqrt(0.1), 10, 3)]
        paths = [PathTap(g, l, k) for g, l, k in targets]
        rng = np.random.default_rng(7)
        (maps,) = sensing_maps(
            cfg, 1.0, paths, 30.0, ("tfmf", "ddmf"), [rng]
        )
        for alg in ("tfmf", "ddmf"):
            mask, _ = cfar_mask_batch(np.abs(maps[alg][0]) ** 2, 2, 1, 1e-4)
            for _, l, k in targets:
                assert mask_near(mask, l, k)
            for dl, dk in np.argwhere(mask):
                assert any(
                    max(min(abs(dl - l), 64 - abs(dl - l)), min(abs(dk - k), 8 - abs(dk - k))) <= 1
                    for _, l, k in targets
                )


class TestPeak:
    def test_single_entry(self):
        cells = np.zeros((8, 4), dtype=complex)
        cells[2, 3] = 1.0 - 1.0j
        assert peak(cells) == (2, 3, pytest.approx(np.sqrt(2)))

    def test_uniform_tie_break(self):
        cells = np.ones((8, 4), dtype=complex)
        assert peak(cells)[:2] == (0, 0)
