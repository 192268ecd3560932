import math

import numpy as np
import pytest

from afdmsim.channel import (
    PathTap,
    PhysicalPath,
    apply_channel,
    noise_variance,
    quantize_path,
)
from afdmsim.params import classic_params, preset, proposed_params
from afdmsim.waveform import add_cpp, modulate, remove_cpp

from oracles import add_awgn, apply_channel_linear


class TestQuantizePath:
    def test_reference_delay_tap(self):
        # tau = 1302 ns round trip -> R = tau*c/2; B = 7.68 MHz -> l = 10
        tau = 1302e-9
        p = PhysicalPath(range_m=tau * 299_792_458.0 / 2, radial_velocity_mps=0.0)
        tap = quantize_path(p, 7.68e6, 512 / 7.68e6, 79e9)
        assert tap.delay_tap == 10

    def test_reference_doppler_tap(self):
        # nu = 45 kHz -> v = nu*c/(2 fc); T = 512/7.68 MHz -> k = 3
        nu = 45e3
        v = nu * 299_792_458.0 / (2 * 79e9)
        tap = quantize_path(
            PhysicalPath(range_m=0.0, radial_velocity_mps=v), 7.68e6, 512 / 7.68e6, 79e9
        )
        assert tap.doppler_tap == 3

    def test_static_origin(self):
        tap = quantize_path(PhysicalPath(0.0, 0.0), 7.68e6, 1e-4, 79e9)
        assert (tap.delay_tap, tap.doppler_tap) == (0, 0)

    def test_negative_velocity_gives_negative_tap(self):
        tap = quantize_path(
            PhysicalPath(10.0, -100.0), 7.68e6, 512 / 7.68e6, 79e9
        )
        assert tap.doppler_tap < 0

    @pytest.mark.parametrize("range_m, velocity, name", [
        (math.nan, 0.0, "range_m"),
        (math.inf, 0.0, "range_m"),
        (10.0, math.nan, "radial_velocity_mps"),
        (10.0, -math.inf, "radial_velocity_mps"),
    ])
    def test_non_finite_path_rejected(self, range_m, velocity, name):
        # quantize_path used to fail on it with a raw float-to-integer conversion error
        with pytest.raises(ValueError, match=f"{name} must be finite, got"):
            PhysicalPath(range_m, velocity)


class TestApplyChannel:
    def setup_method(self):
        self.cfg = proposed_params(8, 4)
        rng = np.random.default_rng(0)
        self.s = modulate(self.cfg, rng.standard_normal(32) + 1j * rng.standard_normal(32))

    def test_identity_path(self):
        r = apply_channel(self.cfg, self.s, [PathTap(1.0, 0, 0)])
        assert np.abs(r - self.s).max() < 1e-15

    def test_pure_cyclic_shift(self):
        r = apply_channel(self.cfg, self.s, [PathTap(1.0, 2, 0)])
        assert np.abs(r - np.roll(self.s, 2)).max() < 1e-15

    def test_two_path_linearity(self):
        p1, p2 = PathTap(0.7 + 0.1j, 1, 1), PathTap(0.2 - 0.4j, 3, -1)
        both = apply_channel(self.cfg, self.s, [p1, p2])
        split = (
            apply_channel(self.cfg, self.s, [p1])
            + apply_channel(self.cfg, self.s, [p2])
        )
        assert np.abs(both - split).max() < 1e-14

    def test_linear_in_gain(self):
        a = apply_channel(self.cfg, self.s, [PathTap(2.0 + 1.0j, 1, 1)])
        b = apply_channel(self.cfg, self.s, [PathTap(1.0, 1, 1)])
        assert np.abs(a - (2.0 + 1.0j) * b).max() < 1e-13

    def test_stack_equals_its_rows(self):
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((2, 3, 32)) + 1j * rng.standard_normal((2, 3, 32))
        paths = [PathTap(0.7 + 0.1j, 1, 1), PathTap(0.2 - 0.4j, 3, -1)]
        r = apply_channel(self.cfg, stack, paths)
        assert r.shape == stack.shape
        for i in np.ndindex(2, 3):
            assert np.array_equal(r[i], apply_channel(self.cfg, stack[i], paths))

    def test_doppler_phase_convention(self):
        # positive tap k applies exp(-j*2*pi*k*n/n_c)
        r = apply_channel(self.cfg, self.s, [PathTap(1.0, 0, 1)])
        n = np.arange(32)
        expected = self.s * np.exp(-2j * np.pi * n / 32)
        assert np.abs(r - expected).max() < 1e-13


class TestCppEquivalence:
    @pytest.mark.parametrize(
        "cfg",
        [
            proposed_params(8, 4, l_cpp=3),
            classic_params(32, 1, k_chirps=4, l_cpp=3),
            preset("ofdm", 32, k_chirps=4, l_cpp=3),
            preset("ocdm", 32, k_chirps=4, l_cpp=3),
        ],
        ids=lambda c: str(c.c1),
    )
    def test_linear_channel_plus_cpp_equals_cyclic(self, cfg):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        s = modulate(cfg, x)
        paths = [PathTap(0.8 + 0.2j, 0, 1), PathTap(0.5 - 0.1j, 2, -1), PathTap(0.3j, 3, 0)]
        direct = apply_channel(cfg, s, paths)
        physical = remove_cpp(cfg, apply_channel_linear(cfg, add_cpp(cfg, s), paths))
        assert np.abs(direct - physical).max() < 1e-10

    def test_requires_cpp_signal(self):
        cfg = proposed_params(8, 4, l_cpp=2)
        s = modulate(cfg, np.ones(32, dtype=complex))
        with pytest.raises(ValueError, match="CPP"):
            apply_channel_linear(cfg, s, [PathTap(1.0, 1, 0)])


class TestAwgn:
    def test_infinite_snr_identity(self):
        cfg = proposed_params(8, 4)
        s = modulate(cfg, np.ones(32, dtype=complex))
        out = add_awgn(s, math.inf, np.random.default_rng(0))
        assert out is s

    def test_draws_real_parts_first(self):
        cfg = proposed_params(8, 4)
        s = modulate(cfg, np.ones(32, dtype=complex))
        scale = math.sqrt(noise_variance(10.0) / 2.0)
        rng = np.random.default_rng(5)
        want = s + scale * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        assert np.array_equal(add_awgn(s, 10.0, np.random.default_rng(5)), want)

    def test_stack_keeps_its_shape(self):
        stack = np.zeros((2, 3, 32), dtype=complex)
        noisy = add_awgn(stack, 0.0, np.random.default_rng(6))
        assert noisy.shape == stack.shape
        flat = add_awgn(stack.reshape(-1), 0.0, np.random.default_rng(6))
        assert np.array_equal(noisy.reshape(-1), flat)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_non_finite_snr_rejected(self, snr_db):
        cfg = proposed_params(8, 4)
        s = modulate(cfg, np.ones(32, dtype=complex))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"snr_db must be a number or \+inf, got (nan|-inf)"):
            add_awgn(s, snr_db, rng)
        assert rng.bit_generator.state == state  # nothing drawn

    @pytest.mark.parametrize("snr_db", [3083.0, 4000.0, 1e308])
    def test_snr_past_the_float_range_is_noise_free(self, snr_db):
        # 10^(snr_db/10) overflows a float from about 3083 dB up
        assert noise_variance(snr_db) == 0.0
        assert noise_variance(np.float64(snr_db)) == 0.0

    @pytest.mark.parametrize("snr_db", [-3083.0, -3240.0, -4000.0, np.float64(-4000.0)])
    def test_snr_whose_variance_overflows_rejected(self, snr_db):
        # from about -3083 dB the variance is inf, from about -3240 dB the power is 0
        with pytest.raises(ValueError, match=r"snr_db -\d+\.0 is too low: its noise variance"):
            noise_variance(snr_db)

    def test_lowest_modelled_snr_keeps_its_variance(self):
        assert noise_variance(-3082.0) == 1.0 / 10.0 ** -308.2
        assert noise_variance(3082.0) == 1.0 / 10.0 ** 308.2

    def test_empirical_noise_power(self):
        cfg = proposed_params(64, 8)
        rng = np.random.default_rng(42)
        zero = modulate(cfg, np.zeros(512))
        total = 0.0
        for _ in range(100):
            noisy = add_awgn(zero, 0.0, rng)
            total += np.mean(np.abs(noisy) ** 2)
        assert abs(total / 100 - 1.0) < 0.1

    def test_zero_signal_uses_unit_reference(self):
        cfg = proposed_params(64, 8)
        rng = np.random.default_rng(1)
        zero = modulate(cfg, np.zeros(512))
        noisy = add_awgn(zero, 10.0, rng)
        assert abs(np.mean(np.abs(noisy) ** 2) - 0.1) < 0.05
