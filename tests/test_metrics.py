import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import afdmsim.metrics as metrics
from afdmsim.channel import (
    PathTap,
    _doppler_taps,
    apply_channel,
    noise_variance,
)
from afdmsim.ddgrid import io_predict, vector_to_grid
from afdmsim.experiments import builtin_scenarios
from afdmsim.metrics import (
    ALGORITHMS,
    _pilot_slots,
    build_frame,
    image_snr,
    pslr,
    qam4_demodulate,
    qam4_modulate,
    rayleigh_gains,
    sensing_maps,
    trial_metrics,
    trial_rng,
)
from afdmsim.params import ScenarioConfig, classic_params, proposed_params
from afdmsim.sensing import cfar_mask_batch, ddmf, dechirp, tfmf
from afdmsim.waveform import demodulate, modulate, subcarrier

from oracles import (
    add_awgn,
    ber,
    build_effective_channel,
    lmmse_detect,
    mask_near,
    scenario_metrics,
)

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
        x = build_frame(proposed_params(64, 8), 1.0, np.random.default_rng(0))
        assert x[0] == pytest.approx(math.sqrt(512))
        assert np.count_nonzero(x) == 1

    @pytest.mark.parametrize("n_c", [18, 510])
    def test_full_overhead_occupies_every_slot(self, n_c):
        # (n_c - 1) / 2 is 8.5 at n_c = 18: halves round up, not to even
        assert _pilot_slots(n_c, 1.0) == n_c

    @pytest.mark.parametrize(
        "n_c, slots", [(512, (129, 257, 385, 512)), (32, (9, 17, 25, 32))]
    )
    def test_builtin_grids_keep_their_guards(self, n_c, slots):
        # Q = 64, 128, 192 at n_c = 512 and 4, 8, 12 at 32; PO = 1 takes every slot
        assert tuple(_pilot_slots(n_c, po) for po in (0.25, 0.5, 0.75, 1.0)) == slots

    def test_zero_overhead_all_data(self):
        x = build_frame(proposed_params(64, 8), 0.0, np.random.default_rng(0))
        assert np.count_nonzero(x) == 512
        assert np.allclose(np.abs(x), 1.0)

    def test_minimal_pilot(self):
        # PO = 1/32 on 32 subcarriers is the pilot alone, Q = 0
        x = build_frame(CFG, 1 / 32, np.random.default_rng(0))
        assert x[0] == pytest.approx(1.0)
        assert np.count_nonzero(x) == 32

    @pytest.mark.parametrize("po", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_energy_exactly_n_c(self, po):
        x = build_frame(proposed_params(64, 8), po, np.random.default_rng(1))
        assert np.sum(np.abs(x) ** 2) == pytest.approx(512.0, abs=1e-9)

    def test_guard_slots_are_cyclic(self):
        # PO = 5/32 on 32 subcarriers is the pilot and Q = 2 guards on each side
        x = build_frame(CFG, 5 / 32, np.random.default_rng(2))
        for idx in (1, 2, 30, 31):
            assert x[idx] == 0
        assert np.count_nonzero(x) == 28


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
    name="pd-desk", n_c=64, k_chirps=8, l_max=2, k_max=1,
    targets=(PathTap(1.0 + 0.0j, 1, 1),), snr_db=20.0, pilot_overhead=1.0, rng_seed=7,
)


class TestMonteCarloPd:
    """Detection probability: the mean of ``trial_metrics``' per-trial hits."""

    def test_noiseless_ddmf_always_detects(self):
        hits = scenario_metrics(DESK, ("ddmf",), 20, snr_db=math.inf, quality=False)["ddmf"][2]
        assert hits.all()

    def test_deep_noise_rarely_detects(self):
        hits = scenario_metrics(DESK, ("ddmf",), 40, snr_db=-60.0, quality=False)["ddmf"][2]
        assert hits.mean() <= 0.1

    def test_monotone_in_snr(self):
        lo, hi = (
            scenario_metrics(DESK, ("tfmf",), 60, snr_db=snr, quality=False)["tfmf"][2].mean()
            for snr in (-25.0, 10.0)
        )
        assert hi >= lo

    def test_deterministic_given_seed(self):
        a, b = (
            scenario_metrics(DESK, ("dechirp",), 25, seed=3, snr_db=-5.0, quality=False)
            for _ in range(2)
        )
        assert np.array_equal(a["dechirp"][2], b["dechirp"][2])


# n_p = K = 8: the 7-cell CFAR window fits both axes; the targets sit on the
# map edges (rows 0 and 7, column 7), and the zero-gain one only sees noise
EDGE = ScenarioConfig(
    name="edge", n_c=64, k_chirps=8, l_max=7, k_max=3,
    targets=(PathTap(1.0, 7, -1), PathTap(0.6, 0, 3), PathTap(0.4, 4, -3), PathTap(0.0, 0, 0)),
    snr_db=5.0, pilot_overhead=0.0, rng_seed=8,
)
GRID8 = EDGE.waveform()
EDGE_PATHS = EDGE.targets
#: a sweep's SNR points: a noise-free one among finite ones, and a partial
#: last group of SNR_GROUP = 2
SWEEP_SNRS = (5.0, math.inf, -3.0)


def one_trial_maps(config, po, paths, snr_db, rng, tfmf_reference):
    """One trial through the single-map estimators: the engine's oracle."""
    x = build_frame(config, po, rng)
    s = modulate(config, x)
    r = add_awgn(apply_channel(config, s, paths), snr_db, rng)
    pilot = subcarrier(config, 0)
    maps = {
        "tfmf": tfmf(config, r, s if tfmf_reference == "transmit" else pilot),
        "dechirp": dechirp(config, r, pilot),
    }
    if config.fmcw_equivalent:
        y_grid = vector_to_grid(config, demodulate(config, r))
        maps["ddmf"] = ddmf(config, y_grid, vector_to_grid(config, x))
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
        trials = metrics.TRIAL_BLOCK + 3  # a full block and a partial one
        rngs = [trial_rng(5, t) for t in range(trials)]
        blocks = list(sensing_maps(config, po, EDGE_PATHS, snr_db, algorithms, rngs, reference))
        assert [len(b["tfmf"]) for b in blocks] == [metrics.TRIAL_BLOCK, 3]
        for alg in algorithms:
            stack = np.concatenate([b[alg] for b in blocks])
            for t in range(trials):
                want = one_trial_maps(config, po, EDGE_PATHS, snr_db, trial_rng(5, t), reference)
                (single,) = sensing_maps(
                    config, po, EDGE_PATHS, snr_db, (alg,), [trial_rng(5, t)], reference
                )
                assert np.array_equal(single[alg][0], want[alg])
                assert np.array_equal(stack[t], want[alg])

    def test_infinite_snr_draws_no_noise(self):
        po = 0.5
        rng, oracle = trial_rng(5, 0), trial_rng(5, 0)
        next(sensing_maps(GRID8, po, EDGE_PATHS, math.inf, ("tfmf",), [rng]))
        build_frame(GRID8, po, oracle)
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("quality", [True, False])
    @pytest.mark.parametrize("algorithms", [
        ("tfmf",), ("ddmf",), ("dechirp", "ddmf"), ("ddmf", "tfmf"), ALGORITHMS,
    ])
    def test_metrics_equal_single_map_reductions(self, algorithms, quality):
        # the block's one CFAR call and one quality pass over all algorithms'
        # maps give each map what the single-map reductions give it
        po = 0.0
        hits = []
        for first in range(len(EDGE_PATHS)):
            paths = EDGE_PATHS[first:] + EDGE_PATHS[:first]
            l, k = paths[0].delay_tap, paths[0].doppler_tap
            cell = (l % 8, k % 8)
            rngs = (trial_rng(8, t) for t in range(9))
            got = trial_metrics(GRID8, po, paths, 5.0, algorithms, rngs, quality=quality)
            assert list(got) == list(algorithms)
            for t in range(9):
                maps = one_trial_maps(GRID8, po, paths, 5.0, trial_rng(8, t), "transmit")
                for alg in algorithms:
                    cells = maps[alg]
                    p, isnr, hit = (column[t] for column in got[alg])
                    mask, _ = cfar_mask_batch(np.abs(cells) ** 2, 2, 1, 1e-4)
                    assert hit == mask_near(mask, l, k)
                    hits.append(hit)
                    if quality:
                        assert (p, isnr) == (pslr(cells, cell), image_snr(cells, cell))
                    else:
                        assert math.isnan(p) and math.isnan(isnr)
        assert 0 < sum(hits) < len(hits)  # both outcomes are compared

    @pytest.mark.parametrize("po", [0.5, 1.0])
    def test_partial_block_equals_one_trial_at_a_time(self, po, monkeypatch):
        # TRIAL_BLOCK + 3 trials are a full block and a partial block of 3;
        # 3 SNR points are a group of 2 and a partial group of 1. At PO = 1
        # one data-free row serves both blocks, and the sweep forms point i's
        # maps as scale_i * map(w) + map(r0): equal to the one-point maps to
        # rounding, so its hits are equal and its PSLR and image SNR within
        # 1e-12 relative. Data frames filter each point's rows: bit for bit
        trials = metrics.TRIAL_BLOCK + 3
        blocked = scenario_metrics(
            EDGE, ALGORITHMS, trials, seed=3, snr_db=SWEEP_SNRS, pilot_overhead=po
        )
        monkeypatch.setattr(metrics, "TRIAL_BLOCK", 1)
        single = [
            scenario_metrics(EDGE, ALGORITHMS, trials, seed=3, snr_db=snr, pilot_overhead=po)
            for snr in SWEEP_SNRS
        ]
        for alg in ALGORITHMS:
            for j, got in enumerate(blocked[alg]):
                assert got.shape == (3, trials)
                for i, at_one_snr in enumerate(single):
                    want = at_one_snr[alg][j]
                    assert want.shape == (trials,)
                    if po < 1.0 or got.dtype == bool:
                        assert np.array_equal(got[i], want)
                    else:
                        np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("reference", ["transmit", "pilot"])
    @pytest.mark.parametrize("preset_name", ["proposed", "classic", "ofdm", "ocdm"])
    def test_sweep_equals_one_trial_maps_at_each_snr(self, preset_name, reference):
        # one simulation per trial serves every SNR point: its maps and its
        # metrics equal the oracle's, run once per (trial, SNR point)
        config = EDGE.waveform(preset_name)
        algorithms = ALGORITHMS if config.fmcw_equivalent else ("tfmf", "dechirp")
        po = 0.5
        scales = [metrics._noise_scale(snr) for snr in SWEEP_SNRS]
        maps = np.full((len(algorithms), len(SWEEP_SNRS), 7, 8, 8), np.nan, dtype=complex)
        rngs = [trial_rng(5, t) for t in range(7)]
        for t, snrs, group in metrics._sweep(
            config, po, EDGE_PATHS, scales, algorithms, rngs, reference
        ):
            for a, cells in enumerate(group):
                maps[a, snrs, t] = cells
        got = scenario_metrics(
            EDGE, algorithms, 7, seed=5, snr_db=SWEEP_SNRS, pilot_overhead=0.5,
            preset_name=preset_name, tfmf_reference=reference,
        )
        l, k = EDGE_PATHS[0].delay_tap, EDGE_PATHS[0].doppler_tap
        cell = (l % 8, k % 8)
        for i, snr in enumerate(SWEEP_SNRS):
            for t in range(7):
                want = one_trial_maps(config, po, EDGE_PATHS, snr, trial_rng(5, t), reference)
                for a, alg in enumerate(algorithms):
                    cells = want[alg]
                    assert np.array_equal(maps[a, i, t], cells)
                    p, isnr, hit = (column[i, t] for column in got[alg])
                    assert (p, isnr) == (pslr(cells, cell), image_snr(cells, cell))
                    mask, _ = cfar_mask_batch(np.abs(cells) ** 2, 2, 1, 1e-4)
                    assert hit == mask_near(mask, l, k)

    @pytest.mark.parametrize("name", ["fig4", "fig5"])
    def test_split_sweep_flips_no_hit(self, name):
        # at PO = 1 a multi-point sweep sums each point's maps from the
        # noise-free echo's and the unit noise's: 0 of the 3 algorithms x 5
        # points x 300 trials CA-CFAR decisions may differ from one-point calls
        scenario = builtin_scenarios()[name]
        assert scenario.pilot_overhead == 1.0
        snrs = (-21.0, -18.0, -15.0, -12.0, -9.0)
        sweep = scenario_metrics(scenario, ALGORITHMS, 300, snr_db=snrs, quality=False)
        hits = np.array([sweep[alg][2] for alg in ALGORITHMS])
        one = np.array([
            [scenario_metrics(scenario, ALGORITHMS, 300, snr_db=snr, quality=False)[alg][2]
             for snr in snrs]
            for alg in ALGORITHMS
        ])
        assert 0 < hits.sum() < hits.size  # both outcomes are compared
        assert np.count_nonzero(hits != one) == 0

    @pytest.mark.parametrize("po, passes", [(0.5, 3), (1.0, 1)])
    def test_data_free_frame_is_simulated_once_per_call(self, po, passes, monkeypatch):
        # a frame without data slots is one symbol for every trial: one
        # modulation and one channel pass serve every block; frames with
        # data take one per block. Every trial still builds its frame
        calls = {"build_frame": 0, "modulate": 0, "_delay_doppler": 0}

        def counted(name):
            original = getattr(metrics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(metrics, name, counted(name))
        trials = 2 * metrics.TRIAL_BLOCK + 3
        scenario_metrics(EDGE, ALGORITHMS, trials, snr_db=SWEEP_SNRS, pilot_overhead=po)
        assert calls == {"build_frame": trials, "modulate": passes, "_delay_doppler": passes}

    @pytest.mark.parametrize("entry", ["trial_metrics", "sensing_maps"])
    def test_unknown_reference_rejected_before_any_draw(self, entry, monkeypatch):
        # "Transmit" used to run the pilot reference silently
        def no_frame(*args):
            raise AssertionError("a frame was drawn")

        monkeypatch.setattr(metrics, "build_frame", no_frame)
        po = 0.5
        rng = trial_rng(5, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="tfmf_reference must be 'transmit' or 'pilot'"):
            if entry == "trial_metrics":
                trial_metrics(GRID8, po, EDGE_PATHS, 5.0, ALGORITHMS, [rng], "Transmit")
            else:
                next(sensing_maps(GRID8, po, EDGE_PATHS, 5.0, ALGORITHMS, [rng], "Transmit"))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("entry", ["trial_metrics", "sensing_maps"])
    def test_unknown_algorithm_rejected_before_any_draw(self, entry, monkeypatch):
        # sensing_maps used to draw its frame and noise from the caller's rng first
        def no_frame(*args):
            raise AssertionError("a frame was drawn")

        monkeypatch.setattr(metrics, "build_frame", no_frame)
        po = 0.5
        algorithms = ("tfmf", "foo")
        rng = trial_rng(5, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"unknown algorithms \['foo'\]"):
            if entry == "trial_metrics":
                trial_metrics(GRID8, po, EDGE_PATHS, 5.0, algorithms, [rng])
            else:
                next(sensing_maps(GRID8, po, EDGE_PATHS, 5.0, algorithms, [rng]))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("entry", ["trial_metrics", "sensing_maps"])
    def test_no_algorithm_rejected_before_any_draw(self, entry, monkeypatch):
        # sensing_maps used to draw every frame and its noise, then return
        # nothing, and trial_metrics returned {}
        def no_frame(*args):
            raise AssertionError("a frame was drawn")

        monkeypatch.setattr(metrics, "build_frame", no_frame)
        po = 0.0
        rng = trial_rng(5, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="algorithms needs at least one of"):
            if entry == "trial_metrics":
                trial_metrics(GRID8, po, EDGE_PATHS, 10.0, (), [rng])
            else:
                next(sensing_maps(GRID8, po, EDGE_PATHS, 10.0, (), [rng]))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("rngs", [[], (rng for rng in [])], ids=["list", "generator"])
    def test_sensing_maps_without_trials_rejected(self, rngs):
        # a trial count below 1 used to yield no block, silently
        po = 0.5
        with pytest.raises(ValueError, match="rngs needs at least one generator"):
            list(sensing_maps(GRID8, po, EDGE_PATHS, 5.0, ALGORITHMS, rngs))

    @pytest.mark.parametrize("rngs", [[], (rng for rng in [])], ids=["list", "generator"])
    def test_trial_metrics_without_trials_rejected(self, rngs):
        po = 0.5
        with pytest.raises(ValueError, match="rngs needs at least one generator"):
            trial_metrics(GRID8, po, EDGE_PATHS, 5.0, ALGORITHMS, rngs)

    def test_no_path_rejected_before_any_draw(self, monkeypatch):
        # trial_metrics scores the first path; with none it has nothing to score
        def no_frame(*args):
            raise AssertionError("a frame was drawn")

        monkeypatch.setattr(metrics, "build_frame", no_frame)
        po = 0.5
        rng = trial_rng(5, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="paths needs at least one path to score"):
            trial_metrics(GRID8, po, [], 5.0, ALGORITHMS, [rng])
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("po", [0.5, 1.0])
    def test_one_shot_streams_equal_a_list_of_them(self, po):
        # two full blocks and a partial one; SWEEP_SNRS are a group of 2 and one of 1
        trials = 2 * metrics.TRIAL_BLOCK + 3
        listed, one_shot = (
            trial_metrics(GRID8, po, EDGE_PATHS, SWEEP_SNRS, ALGORITHMS, rngs)
            for rngs in (
                [trial_rng(5, t) for t in range(trials)],
                (trial_rng(5, t) for t in range(trials)),
            )
        )
        for alg in ALGORITHMS:
            for got, want in zip(one_shot[alg], listed[alg]):
                assert got.shape == (len(SWEEP_SNRS), trials)
                assert np.array_equal(got, want, equal_nan=True)

    def test_streams_are_read_one_block_at_a_time(self, monkeypatch):
        # the streams of the next block are not drawn before this block's frames
        trials = 2 * metrics.TRIAL_BLOCK + 3
        read, seen = [], []

        def streams():
            for t in range(trials):
                read.append(t)
                yield trial_rng(5, t)

        def counted(*args):
            seen.append(len(read))
            return build_frame(*args)

        monkeypatch.setattr(metrics, "build_frame", counted)
        po = 0.5
        trial_metrics(GRID8, po, EDGE_PATHS, 5.0, ("tfmf",), streams())
        block = metrics.TRIAL_BLOCK
        assert seen == [block] * block + [2 * block] * block + [trials] * 3

    @pytest.mark.parametrize("reference", ["transmit", "pilot"])
    @pytest.mark.parametrize("scenario, snrs", [
        (builtin_scenarios()["fig5"], (-22.0, -19.0)),
        (EDGE, (-3.0, 0.0)),  # target at (n_p - 1, K - 1): the window wraps both axes
    ], ids=["fig5", "edge"])
    def test_window_hits_equal_full_map_cfar(self, scenario, snrs, reference):
        # CA-CFAR on the target's 3 x 3 window hits where the whole maps'
        # masks have a detection near the target
        trials = metrics.TRIAL_BLOCK + 3
        got = scenario_metrics(
            scenario, ALGORITHMS, trials, seed=5, snr_db=snrs, tfmf_reference=reference,
            quality=False,
        )
        config = scenario.waveform()
        po = scenario.pilot_overhead
        paths = scenario.targets
        l, k = paths[0].delay_tap, paths[0].doppler_tap
        hits = []
        for i, snr in enumerate(snrs):
            rngs = [trial_rng(5, t) for t in range(trials)]
            blocks = list(sensing_maps(config, po, paths, snr, ALGORITHMS, rngs, reference))
            for alg in ALGORITHMS:
                power = np.abs(np.concatenate([b[alg] for b in blocks])) ** 2
                want = mask_near(cfar_mask_batch(power, 2, 1, 1e-4)[0], l, k)
                assert np.array_equal(got[alg][2][i], want)
                hits.extend(want)
        assert 0 < sum(hits) < len(hits)  # both outcomes are compared

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, (10.0, math.nan), [-math.inf]])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match=r"snr_db must be a number or \+inf, got (nan|-inf)"):
            scenario_metrics(EDGE, ALGORITHMS, 3, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [[], (), np.array([])])
    def test_empty_snr_list_rejected_before_any_trial(self, snr_db, monkeypatch):
        # it used to simulate every trial block and return (0, trials) arrays
        def no_sweep(*args):
            raise AssertionError("a trial was simulated")

        monkeypatch.setattr(metrics, "_sweep", no_sweep)
        with pytest.raises(ValueError, match="snr_db needs at least one value"):
            scenario_metrics(EDGE, ALGORITHMS, 20, snr_db=snr_db)

    def test_snr_past_the_float_range_equals_noise_free(self):
        # 10^400 overflows a float, so the noise variance is 0, as at +inf
        beyond = scenario_metrics(EDGE, ALGORITHMS, 3, snr_db=4000.0)
        noise_free = scenario_metrics(EDGE, ALGORITHMS, 3, snr_db=math.inf)
        for alg in ALGORITHMS:
            for got, want in zip(beyond[alg], noise_free[alg]):
                assert np.array_equal(got, want)

    def test_memory_does_not_grow_with_the_snr_list(self):
        # SNR points are filtered SNR_GROUP at a time, so a 12-point sweep
        # allocates no more at its peak than a 2-point one; filtering all 12
        # at once measured 3.6 times the 2-point peak
        fig5 = builtin_scenarios()["fig5"]

        def peak(snrs):
            tracemalloc.start()
            try:
                scenario_metrics(fig5, ALGORITHMS, 5, seed=1, snr_db=snrs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((0.0, 10.0))  # warm any first-call allocations
        two = peak((0.0, 10.0))
        twelve = peak(tuple(range(-10, 26, 3)))
        assert twelve <= 1.05 * two, (twelve, two)

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

    @pytest.mark.parametrize("noise_var", [float("nan"), -1.0])
    def test_noise_var_not_non_negative_rejected(self, noise_var):
        H = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="noise_var must be non-negative"):
            lmmse_detect(H, np.ones(4, dtype=complex), noise_var)


def _dense_ber_counts(configs, paths, snr_db_list, realizations, symbols_per_realization, seed):
    """The link in the DAFT domain: one dense H and one solve per (config, realization, SNR)."""
    n_c = next(iter(configs.values())).n_c
    per_real = symbols_per_realization
    counts = {(nm, float(snr)): [0, 0] for nm in configs for snr in snr_db_list}
    for real in range(realizations):
        rng = trial_rng(seed, real)
        gains = rayleigh_gains([abs(p.gain) ** 2 for p in paths], rng)
        faded = [PathTap(complex(g), p.delay_tap, p.doppler_tap) for g, p in zip(gains, paths)]
        bits = rng.integers(0, 2, size=(per_real, n_c, 2))
        x = qam4_modulate(bits).T
        w = (
            rng.standard_normal((n_c, per_real)) + 1j * rng.standard_normal((n_c, per_real))
        ) / math.sqrt(2.0)
        for name, config in configs.items():
            H = build_effective_channel(config, faded)
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
        targets=(PathTap(0.8 + 0.0j, 1, 1), PathTap(0.5j, 2, -1), PathTap(0.3 + 0.0j, 0, 0)),
    )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("presets", [("proposed", "classic"), ("proposed",), ("classic",)])
    @pytest.mark.parametrize("realizations, per_real", [(4, 6), (5, 4)])
    def test_counts_equal_dense_daft_domain_link(self, seed, presets, realizations, per_real):
        # classic has the irrational c2 = sqrt(2), held as a float
        configs = {name: self.DESK.waveform(name) for name in presets}
        paths = self.DESK.targets
        args = (configs, paths, (0.0, 12.0), realizations, per_real, seed)
        counts = metrics.lmmse_ber_compare(*args)
        assert counts == _dense_ber_counts(*args)
        assert all(errors > 0 for (_, snr), (errors, _) in counts.items() if snr == 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("presets", [("proposed", "classic"), ("ocdm",)])
    def test_one_block_counts_equal_dense_daft_domain_link(self, seed, presets):
        # delays 0 and 12 at n_c = 32: no divisor of 32 lies in [12, 32 / 3],
        # so the sweep runs on one block of 32, a dense LU of the whole Gram
        configs = {name: self.DESK.waveform(name) for name in presets}
        paths = [PathTap(math.sqrt(0.7), 0, 1), PathTap(math.sqrt(0.3), 12, -1)]
        assert metrics._block_size(_doppler_taps(paths, 32), 32) == 32
        args = (configs, paths, (0.0, 12.0), 4, 6, seed)
        counts = metrics.lmmse_ber_compare(*args)
        assert counts == _dense_ber_counts(*args)
        assert all(errors > 0 for (_, snr), (errors, _) in counts.items() if snr == 0.0)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("presets", [("proposed", "classic"), ("ocdm",)])
    def test_partial_block_of_realizations_equals_dense_daft_domain_link(self, seed, presets):
        # one full block of TRIAL_BLOCK realizations and a partial block of 3
        realizations = metrics.TRIAL_BLOCK + 3
        configs = {name: self.DESK.waveform(name) for name in presets}
        paths = self.DESK.targets
        args = (configs, paths, (0.0, 12.0), realizations, 2, seed)
        assert metrics.lmmse_ber_compare(*args) == _dense_ber_counts(*args)

    @staticmethod
    def _peaks(paths):
        """The link's allocation peaks at TRIAL_BLOCK and 4 TRIAL_BLOCK realizations, on fig4."""
        configs = {"proposed": builtin_scenarios()["fig4"].waveform("proposed")}

        def peak(realizations):
            tracemalloc.start()
            try:
                metrics.lmmse_ber_compare(configs, paths, (5.0, 15.0), realizations, 10, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm any first-call allocations
        return peak(metrics.TRIAL_BLOCK), peak(4 * metrics.TRIAL_BLOCK)

    def test_memory_does_not_grow_with_the_realizations(self):
        # realizations are solved TRIAL_BLOCK at a time, so four blocks peak
        # no higher than one; solving all of them at once grows with the count
        one, four = self._peaks(builtin_scenarios()["fig4"].targets)
        assert four <= 1.1 * one, (four, one)

    def test_one_block_memory_does_not_grow_with_the_realizations(self):
        # delays 0 and 200 at n_c = 512 leave one block of 512, solved one
        # realization at a time: each holds its whole Gram, so four
        # TRIAL_BLOCKs of them must still peak no higher than one
        one, four = self._peaks([PathTap(math.sqrt(0.7), 0, 0), PathTap(math.sqrt(0.3), 200, 0)])
        assert four <= 1.1 * one, (four, one)

    @pytest.mark.parametrize(
        "n_c, delays, b",
        [
            (512, (3, 7, 10), 8),  # fig4: half-bandwidth 7, blocks of at least 8
            (24, (0, 8), 8),  # N = 3 blocks
            (30, (0, 9), 10),  # 9 does not divide 30
            (64, (0, 63), 8),  # delays 0 and 63 are one sample apart cyclically
            (512, (0, 20), 32),  # 32 is the next power-of-two divisor of 512
            (32, (0, 12), 32),  # no divisor of 32 in [12, 32 / 3]: one block
            (16, (0,), 16),  # fewer than three blocks of 8: one block
        ],
    )
    def test_block_size_is_the_smallest_divisor_over_the_spread(self, n_c, delays, b):
        paths = [PathTap(1.0, l, 0) for l in delays]
        assert metrics._block_size(_doppler_taps(paths, n_c), n_c) == b

    @pytest.mark.parametrize("snrs", [(5.0, 5.0), (5, 5.0), (0.0, 12.0, 0)])
    def test_repeated_snr_rejected(self, snrs):
        # a repeated SNR would add its errors twice into one (name, SNR) count
        configs = {"proposed": self.DESK.waveform("proposed")}
        with pytest.raises(ValueError, match="snr_db_list repeats the value"):
            metrics.lmmse_ber_compare(configs, [PathTap(1.0, 1, 1)], snrs, 2, 2, 1)

    @pytest.mark.parametrize("realizations, per_real", [(0, 2), (2, 0), (-1, 2)])
    def test_no_realization_or_no_symbol_rejected(self, realizations, per_real):
        configs = {"proposed": self.DESK.waveform("proposed")}
        with pytest.raises(ValueError, match="realizations and symbols_per_realization must be"):
            metrics.lmmse_ber_compare(configs, [PathTap(1.0, 1, 1)], (0.0,), realizations,
                                      per_real, 1)

    @pytest.mark.parametrize("name, value", [
        ("realizations", 2.5), ("realizations", True), ("symbols_per_realization", 2.5),
        ("seed", 1.5), ("seed", -1),
    ])
    def test_non_integer_count_or_seed_rejected(self, name, value):
        # each used to raise a raw TypeError or numpy's seed error, and
        # realizations=True ran one realization
        args = {"realizations": 2, "symbols_per_realization": 2, "seed": 1, name: value}
        configs = {"proposed": self.DESK.waveform("proposed")}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            metrics.lmmse_ber_compare(configs, [PathTap(1.0, 1, 1)], (0.0,), **args)

    @pytest.mark.parametrize("snrs", [(), [], np.array([])])
    def test_empty_snr_list_rejected(self, snrs):
        # an empty list used to end in a numpy reshape error
        configs = {"proposed": self.DESK.waveform("proposed")}
        with pytest.raises(ValueError, match="snr_db_list needs at least one value"):
            metrics.lmmse_ber_compare(configs, [PathTap(1.0, 1, 1)], snrs, 2, 2, 1)

    def test_no_config_rejected_before_any_draw(self, monkeypatch):
        # it used to end in a bare StopIteration
        def no_draw(*args):
            raise AssertionError("a realization was drawn")

        monkeypatch.setattr(metrics, "trial_rng", no_draw)
        with pytest.raises(ValueError, match="configs needs at least one waveform config"):
            metrics.lmmse_ber_compare({}, [PathTap(1.0, 0, 0)], [10.0], 1, 10, 1)

    @pytest.mark.parametrize("snrs", [(math.nan,), (5.0, -math.inf)])
    def test_non_finite_snr_rejected(self, snrs):
        # NaN gave plausible counts and -inf a ZeroDivisionError
        configs = {"proposed": self.DESK.waveform("proposed")}
        with pytest.raises(ValueError, match=r"snr_db must be a number or \+inf, got (nan|-inf)"):
            metrics.lmmse_ber_compare(configs, [PathTap(1.0, 1, 1)], snrs, 2, 2, 1)

    @pytest.mark.parametrize("name", ["proposed", "classic", "ofdm", "ocdm"])
    def test_stacked_kernels_equal_row_wise_calls(self, name):
        from afdmsim.channel import _delay_doppler, _doppler_taps

        config = self.DESK.waveform(name)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 32)) + 1j * rng.standard_normal((2, 3, 32))
        paths = self.DESK.targets
        s = modulate(config, x)
        r = _delay_doppler(s, _doppler_taps(paths, config.n_c))
        assert np.array_equal(apply_channel(config, s, paths), r)
        for i in np.ndindex(2, 3):
            assert np.array_equal(s[i], modulate(config, x[i]))
            assert np.array_equal(r[i], apply_channel(config, s[i], paths))


class TestFig4LinkCounts:
    """The benchmark's link cycle: fig4 (n_c = 512), 100 symbols over 10 realizations."""

    #: (errors, bits) at SNR 5 and 15 dB, recorded before H_t and its Gram
    #: were built from the taps instead of a dense identity and matmul
    COUNTS = {
        ("proposed", 1): ((13619, 102400), (686, 102400)),
        ("proposed", 2): ((7725, 102400), (181, 102400)),
        ("proposed", 3): ((8836, 102400), (192, 102400)),
        ("classic", 1): ((13639, 102400), (691, 102400)),
        ("classic", 2): ((7834, 102400), (158, 102400)),
        ("classic", 3): ((8956, 102400), (217, 102400)),
    }

    @pytest.mark.parametrize("name, seed", sorted(COUNTS))
    def test_counts_are_pinned(self, name, seed):
        sc = builtin_scenarios()["fig4"]
        counts = metrics.lmmse_ber_compare(
            {name: sc.waveform(name)}, sc.targets, (5.0, 15.0), 10, 10, seed
        )
        at_5, at_15 = self.COUNTS[(name, seed)]
        assert counts == {(name, 5.0): at_5, (name, 15.0): at_15}


class TestRayleighGains:
    def test_mean_power_matches(self):
        rng = np.random.default_rng(10)
        draws = rayleigh_gains(np.tile([0.6, 0.3, 0.1], (4000, 1)), rng)
        est = np.mean(np.abs(draws) ** 2, axis=0)
        assert np.abs(est - [0.6, 0.3, 0.1]).max() < 0.05
