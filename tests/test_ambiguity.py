import cmath
import math

import numpy as np
import pytest

from afdmsim.ambiguity import (
    aaf_psi0_closed,
    aaf_shifted_closed,
    caf_closed,
    dpaf_brute,
    dpaf_surface,
)
from afdmsim._phase import unit_phasor
from afdmsim.experiments import ExperimentSpec, builtin_scenarios, run
from afdmsim.params import PRESET_NAMES, classic_params, proposed_params
from afdmsim.waveform import echo_form_subcarrier, subcarrier

from oracles import aaf_psi0_surface

CFG = proposed_params(8, 4)  # n_c = 32
PSI0 = subcarrier(CFG, 0)


class TestBrute:
    def test_zero_shift_energy(self):
        assert dpaf_brute(PSI0, PSI0, 0, 0) == pytest.approx(32.0)

    def test_off_support_zero(self):
        assert abs(dpaf_brute(PSI0, PSI0, 1, 0)) < 1e-9

    def test_hand_support_point(self):
        # k = K = 4 -> sweep offset 1 -> support delay l = n_p - 1 = 7
        expected = 32 * cmath.exp(-1j * math.pi * 49 / 8)
        assert dpaf_brute(PSI0, PSI0, 7, 4) == pytest.approx(expected, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dpaf_brute(PSI0, PSI0[:-1], 0, 0)

    @pytest.mark.parametrize("n_delays", [-1, 33])
    def test_delay_count_outside_the_symbol(self, n_delays):
        with pytest.raises(ValueError, match="n_delays"):
            dpaf_surface(PSI0, PSI0, n_delays=n_delays)

    def test_surface_matches_pointwise(self):
        surf = dpaf_surface(PSI0, PSI0)
        for l in (0, 3, 7, 20):
            for k in (0, 1, 4, 31):
                assert surf[l, k] == pytest.approx(dpaf_brute(PSI0, PSI0, l, k), abs=1e-9)


class TestBaseClosedForm:
    def test_zero_point(self):
        assert aaf_psi0_closed(CFG, 0, 0) == pytest.approx(32.0)

    def test_support_condition_fails(self):
        assert aaf_psi0_closed(CFG, 1, 0) == 0

    def test_doppler_coupled_support(self):
        expected = 32 * cmath.exp(-1j * math.pi * 49 / 8)
        assert aaf_psi0_closed(CFG, 7, 4) == pytest.approx(expected, abs=1e-12)

    def test_af_surface_grid_is_the_base_formula_bit_for_bit(self):
        # the formula the af_surface CSV of the proposed preset is written from
        cfg = proposed_params(64, 8)
        K, n_p, n_c = cfg.k_chirps, cfg.n_p, cfg.n_c
        l = np.arange(n_p)[:, None]
        k = np.arange(n_c)[None, :]
        support = (k % K == 0) & ((l + k // K) % n_p == 0)
        expected = np.where(support, n_c * unit_phasor(-K * l * l, 2 * n_c), 0)
        assert np.array_equal(aaf_psi0_closed(cfg, l, k), expected)

    def test_full_plane_against_brute(self):
        surf = dpaf_surface(PSI0, PSI0)
        closed = aaf_psi0_surface(CFG)
        assert np.abs(surf - closed).max() < 1e-9

    def test_support_sparsity_count(self):
        # exactly one support delay per Doppler multiple of K
        closed = aaf_psi0_surface(CFG)
        assert np.count_nonzero(closed) == (32 // 4) * (32 // 8)
        surf = dpaf_surface(PSI0, PSI0)
        off = np.abs(surf[np.abs(closed) == 0])
        assert off.max() < 1e-9 * 32

    def test_delay_doppler_coupling_line(self):
        closed = aaf_psi0_surface(CFG)
        for l, k in zip(*np.nonzero(closed)):
            assert k % 4 == 0
            assert (l + k // 4) % 8 == 0

    def test_requires_fmcw_set(self):
        with pytest.raises(ValueError, match="FMCW"):
            aaf_psi0_closed(classic_params(32, 1), 0, 0)


class TestShiftedClosedForm:
    def test_reduces_to_base(self):
        for l in (0, 1, 5):
            for k in (0, 4, 9):
                assert aaf_shifted_closed(CFG, (0, 0), l, k) == pytest.approx(
                    aaf_psi0_closed(CFG, l, k), abs=1e-12
                )

    def test_zero_shift_is_energy(self):
        for sub in ((1, 1), (5, 3), (7, 0)):
            assert aaf_shifted_closed(CFG, sub, 0, 0) == pytest.approx(32.0)

    @pytest.mark.parametrize("sub", [(1, 1), (3, 2), (6, 0)])
    def test_full_plane_against_brute(self, sub):
        sig = echo_form_subcarrier(CFG, *sub)
        surf = dpaf_surface(sig, sig)
        l = np.arange(32)[:, None]
        k = np.arange(32)[None, :]
        closed = aaf_shifted_closed(CFG, sub, l, k)
        assert np.abs(surf - closed).max() < 1e-9


class TestCafClosedForm:
    def test_self_cross_reduces_to_shifted(self):
        sub = (2, 1)
        l = np.arange(32)[:, None]
        k = np.arange(32)[None, :]
        assert np.abs(
            caf_closed(CFG, sub, sub, l, k) - aaf_shifted_closed(CFG, sub, l, k)
        ).max() < 1e-12

    def test_distinct_doppler_zero_at_origin(self):
        # k_b != k_a within one alias period never lies on the support at (0, 0)
        assert caf_closed(CFG, (1, 1), (1, 2), 0, 0) == 0
        assert caf_closed(CFG, (0, 0), (0, 3), 0, 0) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_full_plane_against_brute(self, seed):
        rng = np.random.default_rng(seed)
        sub_a = (int(rng.integers(0, 8)), int(rng.integers(0, 4)))
        sub_b = (int(rng.integers(0, 8)), int(rng.integers(0, 4)))
        a = echo_form_subcarrier(CFG, *sub_a)
        b = echo_form_subcarrier(CFG, *sub_b)
        surf = dpaf_surface(a, b)
        l = np.arange(32)[:, None]
        k = np.arange(32)[None, :]
        closed = caf_closed(CFG, sub_a, sub_b, l, k)
        assert np.abs(surf - closed).max() < 1e-9


@pytest.mark.parametrize("preset_name", PRESET_NAMES)
def test_n_delays_gives_the_full_planes_first_rows(preset_name):
    config = builtin_scenarios()["desk"].waveform(preset_name)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(config.n_c) + 1j * rng.standard_normal(config.n_c)
    for b in (subcarrier(config, 0), subcarrier(config, 5)):
        full = dpaf_surface(a, b)
        assert full.shape == (config.n_c, config.n_c)
        for n_delays in (0, 1, config.n_p, config.n_c - 1, config.n_c):
            rows = dpaf_surface(a, b, n_delays=n_delays)
            assert rows.shape == (n_delays, config.n_c)
            assert rows.tobytes() == full[:n_delays].tobytes()


@pytest.mark.parametrize("scenario", ["desk", "table1"])
def test_af_surface_rows_are_the_full_planes_first_rows(tmp_path, scenario):
    # the artifact evaluates delays 0..n_p-1 only; its cells are the same bits
    # as the first n_p rows of the full-plane surfaces
    sc = builtin_scenarios()[scenario]
    run(ExperimentSpec(kind="af_surface", scenario=sc, out_dir=tmp_path, presets=PRESET_NAMES))
    for preset_name in PRESET_NAMES:
        config = sc.waveform(preset_name)
        if config.fmcw_equivalent:
            full = aaf_psi0_surface(config)
        else:
            base = subcarrier(config, 0)
            full = dpaf_surface(base, base)
        expected = full[: config.n_p].ravel()
        table = np.loadtxt(tmp_path / f"af_surface_{preset_name}_psi0.csv", delimiter=",",
                           skiprows=1, usecols=(2, 3))
        assert table.shape == (config.n_p * config.n_c, 2)
        for column, part in zip(table.T, (expected.real, expected.imag)):
            assert column.view(np.uint64).tolist() == part.view(np.uint64).tolist()
