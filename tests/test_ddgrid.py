import numpy as np
import pytest

from afdmsim.channel import PathTap, apply_channel
from afdmsim.ddgrid import (
    grid_to_vector,
    interaction_coeff,
    io_convolve,
    io_general,
    io_predict,
    kernel_hw,
    vector_to_grid,
)
from afdmsim.params import classic_params, proposed_params
from afdmsim.waveform import demodulate, modulate


def end_to_end(config, x_grid, paths):
    """Time-domain oracle: modulate, cyclic channel, demodulate, regrid."""
    s = modulate(config, grid_to_vector(config, x_grid))
    r = apply_channel(config, s, paths)
    return vector_to_grid(config, demodulate(config, r))


def random_instance(config, rng, n_paths=None):
    shape = (config.n_p, config.k_chirps)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    count = n_paths or int(rng.integers(1, 4))
    half = config.k_chirps // 2
    paths = [
        PathTap(
            complex(rng.standard_normal(), rng.standard_normal()),
            int(rng.integers(0, config.n_p)),
            int(rng.integers(-half + 1, half)),
        )
        for _ in range(count)
    ]
    return x, paths


class TestGridMapping:
    def test_basis_vector_to_origin(self):
        cfg = proposed_params(8, 4)
        v = np.zeros(32, dtype=complex)
        v[0] = 1.0
        g = vector_to_grid(cfg, v)
        assert g[0, 0] == 1.0 and np.count_nonzero(g) == 1

    def test_hand_mapped_cell(self):
        cfg = proposed_params(64, 8)
        v = np.zeros(512, dtype=complex)
        v[488] = 1.0
        g = vector_to_grid(cfg, v)
        assert g[3, 0] == 1.0 and np.count_nonzero(g) == 1

    def test_round_trip(self):
        cfg = proposed_params(8, 4)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.array_equal(grid_to_vector(cfg, vector_to_grid(cfg, v)), v)

    def test_round_trip_on_a_stack(self):
        # both directions map every vector of a (..., n_c) stack alone
        cfg = proposed_params(8, 4)
        rng = np.random.default_rng(1)
        v = rng.standard_normal((2, 3, 32)) + 1j * rng.standard_normal((2, 3, 32))
        grids = vector_to_grid(cfg, v)
        assert grids.shape == (2, 3, 8, 4)
        assert np.array_equal(grid_to_vector(cfg, grids), v)

    @pytest.mark.parametrize("shape", [(8,), (4, 8), (3, 8, 5)])
    def test_grid_to_vector_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"expected grid of shape \(8, 4\)"):
            grid_to_vector(proposed_params(8, 4), np.zeros(shape, dtype=complex))

    def test_requires_fmcw_set(self):
        cfg = classic_params(32, 1, k_chirps=4)
        with pytest.raises(ValueError, match="FMCW"):
            vector_to_grid(cfg, np.zeros(32, dtype=complex))


class TestIoPredict:
    def test_identity_path(self):
        cfg = proposed_params(8, 4)
        rng = np.random.default_rng(1)
        x, _ = random_instance(cfg, rng)
        y = io_predict(cfg, x, [PathTap(1.0, 0, 0)])
        assert np.abs(y - x).max() < 1e-15

    def test_single_delay_matches_oracle(self):
        cfg = proposed_params(8, 4)
        rng = np.random.default_rng(2)
        x, _ = random_instance(cfg, rng)
        paths = [PathTap(1.0, 1, 0)]
        assert np.abs(io_predict(cfg, x, paths) - end_to_end(cfg, x, paths)).max() < 1e-9

    def test_doppler_wrap_case(self):
        # k_i = 3 with K = 4: output column 1 pulls delay offset floor((1-3)/4) = -1
        cfg = proposed_params(8, 4)
        rng = np.random.default_rng(3)
        x, _ = random_instance(cfg, rng)
        paths = [PathTap(1.0, 2, 3)]
        got = io_predict(cfg, x, paths)
        oracle = end_to_end(cfg, x, paths)
        assert np.abs(got - oracle).max() < 1e-9

    @pytest.mark.parametrize("n_p,k", [(4, 4), (8, 4), (8, 8)])
    def test_random_instances_match_oracle(self, n_p, k):
        cfg = proposed_params(n_p, k)
        rng = np.random.default_rng(n_p * 31 + k)
        for _ in range(20):
            x, paths = random_instance(cfg, rng)
            err = np.abs(io_predict(cfg, x, paths) - end_to_end(cfg, x, paths)).max()
            assert err < 1e-9

    def test_single_path_is_shifted_magnitude(self):
        # no coupling wrap when the output column stays >= k_i
        cfg = proposed_params(8, 4)
        rng = np.random.default_rng(5)
        x, _ = random_instance(cfg, rng)
        y = io_predict(cfg, x, [PathTap(1.0, 2, 0)])
        assert np.abs(np.abs(y) - np.abs(np.roll(x, (2, 0), axis=(0, 1)))).max() < 1e-12


class TestKernelForm:
    def test_identity_path_delta(self):
        cfg = proposed_params(8, 4)
        paths = [PathTap(1.0, 0, 0)]
        assert kernel_hw(cfg, paths, 3, 2, 3, 2) == pytest.approx(1.0)
        assert kernel_hw(cfg, paths, 3, 2, 4, 2) == 0
        assert kernel_hw(cfg, paths, 3, 2, 3, 1) == 0

    def test_convolution_matches_compact_form(self):
        cfg = proposed_params(8, 4)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, paths = random_instance(cfg, rng)
            assert np.abs(io_convolve(cfg, x, paths) - io_predict(cfg, x, paths)).max() < 1e-9


class TestInteractionCoeff:
    def test_identity_normalization(self):
        cfg = proposed_params(8, 4)
        assert interaction_coeff(cfg, (2, 1), (2, 1), 0, 0) == pytest.approx(1.0)

    def test_off_support_zero(self):
        cfg = proposed_params(8, 4)
        assert interaction_coeff(cfg, (2, 1), (2, 2), 0, 0) == 0

    def test_general_form_matches_compact_form(self):
        cfg = proposed_params(8, 4)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x, paths = random_instance(cfg, rng)
            assert np.abs(io_general(cfg, x, paths) - io_predict(cfg, x, paths)).max() < 1e-9


class TestThreeWayAgreement:
    @pytest.mark.parametrize("n_p,k", [(4, 4), (8, 4)])
    def test_all_forms_coincide(self, n_p, k):
        cfg = proposed_params(n_p, k)
        rng = np.random.default_rng(n_p + k)
        x, paths = random_instance(cfg, rng)
        compact = io_predict(cfg, x, paths)
        assert np.abs(io_convolve(cfg, x, paths) - compact).max() < 1e-9
        assert np.abs(io_general(cfg, x, paths) - compact).max() < 1e-9
        assert np.abs(end_to_end(cfg, x, paths) - compact).max() < 1e-9
