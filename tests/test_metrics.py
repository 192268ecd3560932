import math
from dataclasses import replace

import numpy as np
import pytest

import afdmsim.metrics as metrics
from afdmsim.channel import PathTap, add_awgn, apply_channel, noise_variance, taps_from_targets
from afdmsim.ddgrid import io_predict, vector_to_grid
from afdmsim.experiments import builtin_scenarios
from afdmsim.metrics import (
    ALGORITHMS,
    FrameSpec,
    ber,
    build_effective_channel,
    build_frame,
    image_snr,
    lmmse_detect,
    pilot_reference,
    pslr,
    qam4_demodulate,
    qam4_modulate,
    rayleigh_gains,
    sensing_maps,
    sensing_trials,
    trial_metrics,
    trial_rng,
)
from afdmsim.params import ScenarioConfig, classic_params, proposed_params
from afdmsim.sensing import DelayDopplerMap, ca_cfar_2d, ddmf, dechirp, detection_near, tfmf
from afdmsim.waveform import demodulate, modulate

CFG = proposed_params(8, 4)


class TestQam4:
    def test_gray_mapping_round_trip(self):
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        syms = qam4_modulate(bits)
        assert np.allclose(np.abs(syms), 1.0)
        assert np.array_equal(qam4_demodulate(syms), bits)

    def test_ber_counts_bits(self):
        x = qam4_modulate(np.array([[0, 0], [1, 1]]))
        y = qam4_modulate(np.array([[0, 1], [1, 1]]))
        assert ber(y, x) == pytest.approx(0.25)


class TestFrames:
    def test_full_overhead_pilot_only(self):
        spec = FrameSpec.from_overhead(512, 1.0)
        x = build_frame(proposed_params(64, 8), spec, np.random.default_rng(0))
        assert x[0] == pytest.approx(math.sqrt(512))
        assert np.count_nonzero(x) == 1

    def test_zero_overhead_all_data(self):
        spec = FrameSpec.from_overhead(512, 0.0)
        x = build_frame(proposed_params(64, 8), spec, np.random.default_rng(0))
        assert np.count_nonzero(x) == 512
        assert np.allclose(np.abs(x), 1.0)

    def test_minimal_pilot(self):
        spec = FrameSpec(q_guard=0)
        x = build_frame(CFG, spec, np.random.default_rng(0))
        assert x[0] == pytest.approx(1.0)
        assert np.count_nonzero(x) == 32

    @pytest.mark.parametrize("po", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_energy_exactly_n_c(self, po):
        spec = FrameSpec.from_overhead(512, po)
        x = build_frame(proposed_params(64, 8), spec, np.random.default_rng(1))
        assert np.sum(np.abs(x) ** 2) == pytest.approx(512.0, abs=1e-9)

    def test_guard_slots_are_cyclic(self):
        spec = FrameSpec(q_guard=2)
        x = build_frame(CFG, spec, np.random.default_rng(2))
        for idx in (1, 2, 30, 31):
            assert x[idx] == 0


class TestMapMetrics:
    def test_pslr_hand_value(self):
        cells = np.full((8, 4), 0.1, dtype=complex)
        cells[2, 1] = 1.0
        assert pslr(cells, (2, 1)) == pytest.approx(20.0)

    def test_pslr_sentinel_and_uniform(self):
        lone = np.zeros((8, 4), dtype=complex)
        lone[1, 1] = 5.0
        assert pslr(lone, (1, 1)) == math.inf
        assert pslr(np.ones((8, 4), dtype=complex), (0, 0)) == pytest.approx(0.0)

    def test_image_snr_hand_value(self):
        cells = np.ones((16, 8), dtype=complex)
        cells[4, 4] = 10.0
        assert image_snr(cells, (4, 4)) == pytest.approx(20.0)

    def test_image_snr_excludes_guard_ring(self):
        cells = np.ones((16, 8), dtype=complex)
        cells[4, 4] = 10.0
        cells[5, 5] = 8.0  # inside the ring: ignored
        assert image_snr(cells, (4, 4)) == pytest.approx(20.0)

    def test_image_snr_sentinels(self):
        lone = np.zeros((16, 8), dtype=complex)
        lone[0, 0] = 2.0
        assert image_snr(lone, (0, 0)) == math.inf
        assert image_snr(np.ones((16, 8), dtype=complex), (3, 3)) == pytest.approx(0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        cells = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        for fn in (pslr, image_snr):
            assert fn(cells, (3, 2)) == pytest.approx(fn(cells * (2.0 - 3.0j), (3, 2)))


# smallest grid whose Doppler axis fits the standard 7-cell CFAR window
DESK = ScenarioConfig(
    name="pd-desk", n_c=64, k_chirps=8, n_p=8, l_max=2, k_max=1,
    targets=((1.0 + 0.0j, 1, 1),), snr_db=20.0, pilot_overhead=1.0, rng_seed=7,
)


class TestMonteCarloPd:
    """Detection probability: the mean of ``trial_metrics``' per-trial hits."""

    def test_noiseless_ddmf_always_detects(self):
        hits = trial_metrics(DESK, ("ddmf",), 20, snr_db=math.inf, quality=False)["ddmf"][2]
        assert hits.all()

    def test_deep_noise_rarely_detects(self):
        hits = trial_metrics(DESK, ("ddmf",), 40, snr_db=-60.0, quality=False)["ddmf"][2]
        assert hits.mean() <= 0.1

    def test_monotone_in_snr(self):
        lo, hi = (
            trial_metrics(DESK, ("tfmf",), 60, snr_db=snr, quality=False)["tfmf"][2].mean()
            for snr in (-25.0, 10.0)
        )
        assert hi >= lo

    def test_deterministic_given_seed(self):
        a, b = (
            trial_metrics(DESK, ("dechirp",), 25, seed=3, snr_db=-5.0, quality=False)
            for _ in range(2)
        )
        assert np.array_equal(a["dechirp"][2], b["dechirp"][2])


# n_p = K = 8: the 7-cell CFAR window fits both axes; the targets sit on the
# map edges (rows 0 and 7, column 7), and the zero-gain one only sees noise
EDGE = ScenarioConfig(
    name="edge", n_c=64, k_chirps=8, n_p=8, l_max=7, k_max=3,
    targets=((1.0, 7, -1), (0.6, 0, 3), (0.4, 4, -3), (0.0, 0, 0)),
    snr_db=5.0, pilot_overhead=0.0, rng_seed=8,
)
GRID8 = EDGE.waveform()
EDGE_PATHS = taps_from_targets(EDGE.targets)


def one_trial_maps(config, frame, paths, snr_db, rng, tfmf_reference):
    """One trial through the single-map estimators: the engine's oracle."""
    x = build_frame(config, frame, rng)
    s = modulate(config, x)
    r = add_awgn(apply_channel(config, s, paths), snr_db, rng)
    pilot = pilot_reference(config)
    maps = {
        "tfmf": tfmf(config, r, s if tfmf_reference == "transmit" else pilot).cells,
        "dechirp": dechirp(config, r, pilot).cells,
    }
    if config.fmcw_equivalent:
        y_grid = vector_to_grid(config, demodulate(config, r))
        maps["ddmf"] = ddmf(config, y_grid, vector_to_grid(config, x)).cells
    return maps


class TestTrialEngine:
    @pytest.mark.parametrize("reference", ["transmit", "pilot"])
    @pytest.mark.parametrize("po", [0.0, 0.5, 1.0])
    def test_stacks_equal_one_trial_maps(self, po, reference):
        self.assert_stacks_equal_one_trial_maps("proposed", 0.0, po, reference)

    @pytest.mark.parametrize("reference", ["transmit", "pilot"])
    @pytest.mark.parametrize("po", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("preset_name, snr_db", [
        ("proposed", math.inf), ("classic", 0.0), ("ofdm", 0.0), ("ocdm", 0.0),
    ])
    def test_noise_free_and_non_fmcw_stacks_equal_one_trial_maps(
        self, preset_name, snr_db, po, reference
    ):
        # at +inf SNR neither side draws noise; ddmf needs the FMCW-equivalent set
        self.assert_stacks_equal_one_trial_maps(preset_name, snr_db, po, reference)

    @staticmethod
    def assert_stacks_equal_one_trial_maps(preset_name, snr_db, po, reference):
        config = EDGE.waveform(preset_name)
        algorithms = ALGORITHMS if preset_name == "proposed" else ("tfmf", "dechirp")
        frame = FrameSpec.from_overhead(config.n_c, po)
        blocks = list(
            sensing_trials(config, frame, EDGE_PATHS, snr_db, algorithms, 7, 5, reference)
        )
        assert [len(b["tfmf"]) for b in blocks] == [4, 3]
        for alg in algorithms:
            stack = np.concatenate([b[alg] for b in blocks])
            for t in range(7):
                want = one_trial_maps(config, frame, EDGE_PATHS, snr_db, trial_rng(5, t), reference)
                single = sensing_maps(
                    config, frame, EDGE_PATHS, snr_db, (alg,), trial_rng(5, t), reference
                )
                assert np.array_equal(single[alg].cells, want[alg])
                assert np.array_equal(stack[t], want[alg])

    def test_infinite_snr_draws_no_noise(self):
        frame = FrameSpec.from_overhead(GRID8.n_c, 0.5)
        rng, oracle = trial_rng(5, 0), trial_rng(5, 0)
        sensing_maps(GRID8, frame, EDGE_PATHS, math.inf, ("tfmf",), rng)
        build_frame(GRID8, frame, oracle)
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("quality", [True, False])
    @pytest.mark.parametrize("algorithms", [
        ("tfmf",), ("ddmf",), ("dechirp", "ddmf"), ("ddmf", "tfmf"), ALGORITHMS,
    ])
    def test_metrics_equal_single_map_reductions(self, algorithms, quality):
        # the block's one CFAR call and one quality pass over all algorithms'
        # maps give each map what the single-map reductions give it
        frame = FrameSpec.from_overhead(GRID8.n_c, 0.0)
        hits = []
        for first in range(len(EDGE.targets)):
            targets = EDGE.targets[first:] + EDGE.targets[:first]
            _, l, k = targets[0]
            cell = (l % 8, k % 8)
            got = trial_metrics(replace(EDGE, targets=targets), algorithms, 9, quality=quality)
            assert list(got) == list(algorithms)
            paths = taps_from_targets(targets)
            for t in range(9):
                maps = one_trial_maps(GRID8, frame, paths, 5.0, trial_rng(8, t), "transmit")
                for alg in algorithms:
                    cells = maps[alg]
                    p, isnr, hit = (column[t] for column in got[alg])
                    dets = ca_cfar_2d(DelayDopplerMap(cells, GRID8, alg), 2, 1, 1e-4)
                    assert hit == detection_near(dets, l, k, 8, 8)
                    hits.append(hit)
                    if quality:
                        assert (p, isnr) == (pslr(cells, cell), image_snr(cells, cell))
                    else:
                        assert math.isnan(p) and math.isnan(isnr)
        assert 0 < sum(hits) < len(hits)  # both outcomes are compared

    def test_partial_block_equals_one_trial_at_a_time(self, monkeypatch):
        blocked = trial_metrics(EDGE, ALGORITHMS, 7, seed=3, pilot_overhead=0.5)
        monkeypatch.setattr(metrics, "TRIAL_BLOCK", 1)
        single = trial_metrics(EDGE, ALGORITHMS, 7, seed=3, pilot_overhead=0.5)
        for alg in ALGORITHMS:
            for got, want in zip(blocked[alg], single[alg]):
                assert got.shape == (7,)
                assert np.array_equal(got, want)

    def test_no_algorithm_gives_no_metrics(self):
        # ddmf alone on a non-FMCW preset leaves a sweep no algorithm to run
        assert trial_metrics(EDGE, (), 5) == {}

    def test_stack_metrics_match_single_maps(self):
        rng = np.random.default_rng(14)
        cells = rng.standard_normal((5, 16, 8)) + 1j * rng.standard_normal((5, 16, 8))
        cells[1] = 0.0
        cells[2, 3, 2] = 0.0
        for fn in (pslr, image_snr):
            got = fn(cells, (3, 2))
            assert got.shape == (5,)
            assert list(got) == [fn(c, (3, 2)) for c in cells]


class TestEffectiveChannel:
    def test_identity_path_gives_identity(self):
        H = build_effective_channel(CFG, [PathTap(1.0, 0, 0)])
        assert np.abs(H - np.eye(32)).max() < 1e-10

    def test_matches_per_column_definition(self):
        from afdmsim.channel import apply_channel
        from afdmsim.waveform import demodulate, modulate

        paths = [PathTap(0.8 + 0.1j, 1, 1), PathTap(0.3, 2, -1)]
        H = build_effective_channel(CFG, paths)
        for m in (0, 5, 31):
            e = np.zeros(32, dtype=complex)
            e[m] = 1.0
            col = demodulate(CFG, apply_channel(CFG, modulate(CFG, e), paths))
            assert np.abs(H[:, m] - col).max() < 1e-10

    def test_consistent_with_grid_io(self):
        rng = np.random.default_rng(6)
        paths = [PathTap(0.7, 2, 1), PathTap(0.4j, 1, -1)]
        H = build_effective_channel(CFG, paths)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        lhs = vector_to_grid(CFG, H @ x)
        rhs = io_predict(CFG, vector_to_grid(CFG, x), paths)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_classic_preset_round_trip(self):
        cfg = classic_params(32, 1, k_chirps=4)
        paths = [PathTap(1.0, 1, 1)]
        H = build_effective_channel(cfg, paths)
        # unitary-similar to a unit-modulus channel: singular values all 1
        sv = np.linalg.svd(H, compute_uv=False)
        assert np.abs(sv - 1.0).max() < 1e-9


class TestLmmse:
    def test_identity_channel_noiseless_ber_zero(self):
        rng = np.random.default_rng(8)
        H = np.eye(32, dtype=complex)
        x = qam4_modulate(rng.integers(0, 2, size=(32, 2)))
        x_hat = lmmse_detect(H, x, 0.0)
        assert ber(x_hat, x) == 0.0

    def test_shrinks_toward_zero_with_noise_var(self):
        H = np.eye(4, dtype=complex)
        y = np.ones(4, dtype=complex)
        x_hat = lmmse_detect(H, y, 1.0)
        assert np.allclose(x_hat, 0.5)

    def test_singular_system_reported(self):
        H = np.zeros((4, 4), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            lmmse_detect(H, np.ones(4, dtype=complex), 0.0)

    def test_end_to_end_ber_zero_high_snr(self):
        rng = np.random.default_rng(9)
        paths = [PathTap(1.0, 1, 1)]
        H = build_effective_channel(CFG, paths)
        x = qam4_modulate(rng.integers(0, 2, size=(32, 2)))
        y = H @ x
        x_hat = lmmse_detect(H, y, 1e-12)
        assert ber(x_hat, x) == 0.0


def _dense_ber_counts(configs, powers, taps, snr_db_list, n_symbols, realizations, seed):
    """The link in the DAFT domain: one dense H and one solve per (config, realization, SNR)."""
    n_c = next(iter(configs.values())).n_c
    per_real = max(1, n_symbols // realizations)
    counts = {(nm, float(snr)): [0, 0] for nm in configs for snr in snr_db_list}
    for real in range(realizations):
        rng = trial_rng(seed, real)
        gains = rayleigh_gains(powers, rng)
        paths = [PathTap(complex(g), l, k) for g, (l, k) in zip(gains, taps)]
        bits = rng.integers(0, 2, size=(per_real, n_c, 2))
        x = qam4_modulate(bits).T
        w = (
            rng.standard_normal((n_c, per_real)) + 1j * rng.standard_normal((n_c, per_real))
        ) / math.sqrt(2.0)
        for name, config in configs.items():
            H = build_effective_channel(config, paths)
            for snr in snr_db_list:
                sigma2 = noise_variance(snr)
                x_hat = lmmse_detect(H, H @ x + math.sqrt(sigma2) * w, sigma2)
                counts[(name, float(snr))][0] += int(np.sum(qam4_demodulate(x_hat.T) != bits))
                counts[(name, float(snr))][1] += bits.size
    return {key: tuple(v) for key, v in counts.items()}


class TestTimeDomainLink:
    """``lmmse_ber_compare`` detects in the time domain; the DAFT-domain link is its oracle."""

    #: the built-in desk grid with three paths, one of negative Doppler
    DESK = replace(
        builtin_scenarios()["desk"],
        targets=((0.8 + 0.0j, 1, 1), (0.5j, 2, -1), (0.3 + 0.0j, 0, 0)),
    )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("presets", [("proposed", "classic"), ("proposed",), ("classic",)])
    @pytest.mark.parametrize("n_symbols, realizations", [(24, 4), (23, 5)])
    def test_counts_equal_dense_daft_domain_link(self, seed, presets, n_symbols, realizations):
        # classic has the irrational c2 = sqrt(2), held as a float
        configs = {name: self.DESK.waveform(name) for name in presets}
        powers = [abs(g) ** 2 for g, _, _ in self.DESK.targets]
        taps = [(l, k) for _, l, k in self.DESK.targets]
        args = (configs, powers, taps, (0.0, 12.0), n_symbols, realizations, seed)
        counts = metrics.lmmse_ber_compare(*args)
        assert counts == _dense_ber_counts(*args)
        assert all(errors > 0 for (_, snr), (errors, _) in counts.items() if snr == 0.0)

    @pytest.mark.parametrize("snrs", [(5.0, 5.0), (5, 5.0), (0.0, 12.0, 0)])
    def test_repeated_snr_rejected(self, snrs):
        # a repeated SNR would add its errors twice into one (name, SNR) count
        configs = {"proposed": self.DESK.waveform("proposed")}
        with pytest.raises(ValueError, match="snr_db_list repeats the value"):
            metrics.lmmse_ber_compare(configs, [1.0], [(1, 1)], snrs, 4, 2, 1)

    @pytest.mark.parametrize("name", ["proposed", "classic", "ofdm", "ocdm"])
    def test_stacked_kernels_equal_row_wise_calls(self, name):
        from afdmsim.channel import _delay_doppler, _doppler_taps
        from afdmsim.waveform import _modulate

        config = self.DESK.waveform(name)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 32)) + 1j * rng.standard_normal((2, 3, 32))
        paths = taps_from_targets(self.DESK.targets)
        s = _modulate(config, x)
        r = _delay_doppler(s, _doppler_taps(paths, config.n_c))
        for i in np.ndindex(2, 3):
            assert np.array_equal(s[i], modulate(config, x[i]).samples)
            assert np.array_equal(r[i], apply_channel(config, s[i], paths).samples)


class TestRayleighGains:
    def test_mean_power_matches(self):
        rng = np.random.default_rng(10)
        draws = rayleigh_gains(np.tile([0.6, 0.3, 0.1], (4000, 1)), rng)
        est = np.mean(np.abs(draws) ** 2, axis=0)
        assert np.abs(est - [0.6, 0.3, 0.1]).max() < 0.05


class TestMetricReport:
    def test_bounds_enforced(self):
        from afdmsim.metrics import MetricReport

        MetricReport(pslr_db=10.0, image_snr_db=20.0, pd=0.5, ber=float("nan"), trials=100)
        with pytest.raises(ValueError, match="pd"):
            MetricReport(pslr_db=0.0, image_snr_db=0.0, pd=1.5, ber=0.0, trials=1)
        with pytest.raises(ValueError, match="trials"):
            MetricReport(pslr_db=0.0, image_snr_db=0.0, pd=0.0, ber=0.0, trials=0)
