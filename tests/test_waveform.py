import cmath
import math

import numpy as np
import pytest

from afdmsim._phase import chirp_phasor, unit_phasor
from afdmsim.params import classic_params, preset, proposed_params
from afdmsim.waveform import (
    TimeSignal,
    _chirps,
    _modulate,
    add_cpp,
    cpp_phase,
    daft_index_to_dd,
    dd_to_daft_index,
    demodulate,
    echo_form_subcarrier,
    fmcw_signal,
    modulate,
    remove_cpp,
    subcarrier,
)


def direct_subcarrier(config, m, n):
    """Independent direct evaluation of the basis-chirp formula."""
    c1 = float(config.c1)
    c2 = float(config.c2)
    return np.exp(2j * np.pi * (c1 * n**2 + m * n / config.n_c + c2 * m**2))


def direct_modulate(config, x):
    """O(n_c^2) double-sum oracle for the modulator."""
    n = np.arange(config.n_c)
    out = np.zeros(config.n_c, dtype=complex)
    for m in range(config.n_c):
        out += x[m] * direct_subcarrier(config, m, n)
    return out / math.sqrt(config.n_c)


ALL_PRESETS = [
    proposed_params(8, 4),
    classic_params(32, 1, k_chirps=4),
    preset("ofdm", 32, k_chirps=4),
    preset("ocdm", 32, k_chirps=4),
]


class TestSubcarrier:
    def test_zero_phase_sample(self):
        cfg = proposed_params(64, 8)
        assert subcarrier(cfg, 0).samples[0] == pytest.approx(1 + 0j)

    def test_period_boundary_sample(self):
        # n = n_p: phase c1*n^2 = 64^2/128 = 32 full turns
        cfg = proposed_params(64, 8)
        assert subcarrier(cfg, 0).samples[64] == pytest.approx(1 + 0j, abs=1e-12)

    def test_ofdm_reduces_to_dft_basis(self):
        cfg = preset("ofdm", 32)
        n = np.arange(32)
        expected = np.exp(2j * np.pi * n / 32)
        assert np.abs(subcarrier(cfg, 1).samples - expected).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subcarrier(proposed_params(8, 4), 32)

    @pytest.mark.parametrize("cfg", ALL_PRESETS, ids=lambda c: str(c.c1))
    def test_matches_direct_formula(self, cfg):
        n = np.arange(cfg.n_c)
        for m in (0, 1, cfg.n_c // 2, cfg.n_c - 1):
            assert np.abs(subcarrier(cfg, m).samples - direct_subcarrier(cfg, m, n)).max() < 1e-9


class TestOrthogonality:
    @pytest.mark.parametrize("cfg", ALL_PRESETS, ids=lambda c: str(c.c1))
    def test_sampled_pairs(self, cfg):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m1, m2 = rng.integers(0, cfg.n_c, size=2)
            inner = np.vdot(subcarrier(cfg, int(m2)).samples, subcarrier(cfg, int(m1)).samples)
            expected = cfg.n_c if m1 == m2 else 0.0
            assert abs(inner - expected) < 1e-9 * cfg.n_c
        # include the diagonal explicitly
        m = int(rng.integers(0, cfg.n_c))
        inner = np.vdot(subcarrier(cfg, m).samples, subcarrier(cfg, m).samples)
        assert abs(inner - cfg.n_c) < 1e-9 * cfg.n_c


class TestModulateDemodulate:
    def test_basis_vector(self):
        cfg = proposed_params(8, 4)
        x = np.zeros(32, dtype=complex)
        x[0] = 1.0
        s = modulate(cfg, x)
        expected = subcarrier(cfg, 0).samples / math.sqrt(32)
        assert np.abs(s.samples - expected).max() < 1e-12

    def test_zero_in_zero_out(self):
        cfg = proposed_params(8, 4)
        assert np.all(modulate(cfg, np.zeros(32)).samples == 0)
        assert np.all(demodulate(cfg, np.zeros(32)) == 0)

    @pytest.mark.parametrize("cfg", ALL_PRESETS, ids=lambda c: str(c.c1))
    def test_against_double_sum_oracle(self, cfg):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=(cfg.n_c, 2))
        x = ((1 - 2 * bits[:, 0]) + 1j * (1 - 2 * bits[:, 1])) / math.sqrt(2)
        assert np.abs(modulate(cfg, x).samples - direct_modulate(cfg, x)).max() < 1e-10

    @pytest.mark.parametrize("cfg", ALL_PRESETS, ids=lambda c: str(c.c1))
    def test_round_trip(self, cfg):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(cfg.n_c) + 1j * rng.standard_normal(cfg.n_c)
        assert np.abs(demodulate(cfg, modulate(cfg, x)) - x).max() < 1e-10

    def test_demodulate_single_subcarrier(self):
        cfg = proposed_params(8, 4)
        r = subcarrier(cfg, 0).samples / math.sqrt(32)
        y = demodulate(cfg, r)
        expected = np.zeros(32, dtype=complex)
        expected[0] = 1.0
        assert np.abs(y - expected).max() < 1e-10

    def test_quasi_periodicity(self):
        # direct-formula evaluation over a doubled block:
        # s[n + N_c] = exp(j2pi c1 (N_c^2 + 2 N_c n)) s[n]
        cfg = classic_params(16, 1, k_chirps=2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        n_ext = np.arange(32)
        ext = np.zeros(32, dtype=complex)
        for m in range(16):
            ext += x[m] * np.exp(
                2j * np.pi
                * (float(cfg.c1) * n_ext**2 + m * n_ext / 16 + float(cfg.c2) * m**2)
            )
        ext /= math.sqrt(16)
        n = np.arange(16)
        phase = np.exp(2j * np.pi * float(cfg.c1) * (16**2 + 2 * 16 * n))
        assert np.abs(ext[16:] - phase * ext[:16]).max() < 1e-9


class TestChirps:
    """A chirp pair built once and shared must not change what the kernels compute."""

    @pytest.mark.parametrize("cfg", ALL_PRESETS, ids=lambda c: str(c.c1))
    def test_arrays_are_read_only(self, cfg):
        for chirp in _chirps(cfg):
            assert not chirp.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                chirp[0] = 0.0

    @pytest.mark.parametrize("cfg", ALL_PRESETS, ids=lambda c: str(c.c1))
    def test_kernels_equal_per_call_phasors(self, cfg):
        index = np.arange(cfg.n_c)
        c2_chirp, c1_chirp = chirp_phasor(cfg.c2, index), chirp_phasor(cfg.c1, index)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, cfg.n_c)) + 1j * rng.standard_normal((2, 3, cfg.n_c))
        s = np.fft.ifft(x * c2_chirp) * np.sqrt(cfg.n_c) * c1_chirp
        assert np.array_equal(_modulate(cfg, x), s)
        assert np.array_equal(_modulate(cfg, x, _chirps(cfg)), s)
        y = np.fft.fft(x * np.conj(c1_chirp)) / np.sqrt(cfg.n_c) * np.conj(c2_chirp)
        assert np.array_equal(demodulate(cfg, x), y)
        for m in (0, 5, cfg.n_c - 1):
            psi = c1_chirp * unit_phasor(m * index, cfg.n_c) * chirp_phasor(cfg.c2, m)
            assert np.array_equal(subcarrier(cfg, m).samples, psi)


class TestCpp:
    def test_proposed_cpp_is_plain_copy(self):
        cfg = proposed_params(8, 4, l_cpp=3)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        s = modulate(cfg, x)
        ext = add_cpp(cfg, s)
        assert np.abs(ext.samples[:3] - s.samples[-3:]).max() < 1e-12
        assert np.abs(cpp_phase(cfg, np.arange(-3, 0)) - 1).max() == 0.0

    def test_zero_length_identity(self):
        cfg = proposed_params(8, 4, l_cpp=0)
        s = modulate(cfg, np.ones(32, dtype=complex))
        ext = add_cpp(cfg, s)
        assert ext.has_cpp and len(ext) == 32
        back = remove_cpp(cfg, ext)
        assert np.array_equal(back.samples, s.samples)

    def test_classic_matches_direct_formula(self):
        cfg = classic_params(8, 0, l_cpp=2)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s = modulate(cfg, x)
        ext = add_cpp(cfg, s)
        c1 = float(cfg.c1)
        for i, n in enumerate(range(-2, 0)):
            expected = cmath.exp(-2j * math.pi * c1 * (64 + 16 * n)) * s.samples[n + 8]
            assert abs(ext.samples[i] - expected) < 1e-12

    def test_state_mismatch(self):
        cfg = proposed_params(8, 4, l_cpp=2)
        s = modulate(cfg, np.ones(32, dtype=complex))
        with pytest.raises(ValueError, match="CPP"):
            remove_cpp(cfg, s)
        ext = add_cpp(cfg, s)
        with pytest.raises(ValueError, match="CPP"):
            add_cpp(cfg, ext)


class TestFmcw:
    def test_first_sample(self):
        assert fmcw_signal(4, 1).samples[0] == pytest.approx(1 + 0j)

    def test_hand_expanded_single_chirp(self):
        expected = [
            cmath.exp(1j * math.pi * 0 / 4),
            cmath.exp(1j * math.pi * 1 / 4),
            cmath.exp(1j * math.pi * 4 / 4),
            cmath.exp(1j * math.pi * 9 / 4),
        ]
        got = fmcw_signal(4, 1).samples
        assert np.abs(got - np.array(expected)).max() < 1e-12

    @pytest.mark.parametrize("n_p,k", [(8, 4), (64, 8)])
    def test_equals_base_subcarrier(self, n_p, k):
        cfg = proposed_params(n_p, k)
        err = np.abs(fmcw_signal(n_p, k).samples - subcarrier(cfg, 0).samples).max()
        assert err < 1e-12

    def test_odd_period_rejected(self):
        with pytest.raises(ValueError, match="even"):
            fmcw_signal(5, 2)


class TestDdIndexMap:
    def test_anchor(self):
        cfg = proposed_params(64, 8)
        assert dd_to_daft_index(cfg, 0, 0) == 0

    def test_hand_values(self):
        cfg = proposed_params(64, 8)
        assert dd_to_daft_index(cfg, 3, 0) == 488
        assert dd_to_daft_index(cfg, 10, 3) == 429

    def test_inverse_exhaustive(self):
        cfg = proposed_params(8, 4)
        seen = set()
        for l in range(8):
            for k in range(4):
                m = dd_to_daft_index(cfg, l, k)
                assert daft_index_to_dd(cfg, m) == (l, k)
                seen.add(m)
        assert seen == set(range(32))

    def test_out_of_range(self):
        cfg = proposed_params(8, 4)
        with pytest.raises(ValueError):
            dd_to_daft_index(cfg, 8, 0)
        with pytest.raises(ValueError):
            daft_index_to_dd(cfg, 32)


class TestEchoFormSubcarrier:
    def test_base_case(self):
        cfg = proposed_params(8, 4)
        assert np.abs(
            echo_form_subcarrier(cfg, 0, 0).samples - subcarrier(cfg, 0).samples
        ).max() < 1e-12

    def test_hand_mapped_cases(self):
        cfg = proposed_params(4, 2)
        got = echo_form_subcarrier(cfg, 1, 0).samples
        assert np.abs(got - subcarrier(cfg, 6).samples).max() < 1e-10
        got = echo_form_subcarrier(cfg, 0, 1).samples
        assert np.abs(got - subcarrier(cfg, 7).samples).max() < 1e-10

    @pytest.mark.parametrize("n_p,k", [(4, 2), (8, 4), (16, 4), (8, 8)])
    def test_exhaustive_small_configs(self, n_p, k):
        cfg = proposed_params(n_p, k)
        for l in range(n_p):
            for kk in range(k):
                direct = subcarrier(cfg, dd_to_daft_index(cfg, l, kk)).samples
                echo = echo_form_subcarrier(cfg, l, kk).samples
                assert np.abs(echo - direct).max() < 1e-10

    def test_requires_fmcw_set(self):
        cfg = classic_params(32, 1, k_chirps=4)
        with pytest.raises(ValueError, match="FMCW"):
            echo_form_subcarrier(cfg, 1, 1)


class TestTimeSignal:
    def test_length_validation(self):
        cfg = proposed_params(8, 4)
        with pytest.raises(ValueError):
            TimeSignal(np.zeros(31, dtype=complex), cfg)
        with pytest.raises(ValueError):
            modulate(cfg, np.zeros(31))
