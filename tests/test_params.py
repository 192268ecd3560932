import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from afdmsim.experiments import builtin_scenarios
from afdmsim.params import (
    AfdmConfig,
    PathTap,
    ScenarioConfig,
    ScenarioError,
    classic_params,
    load_scenario,
    preset,
    proposed_params,
)


class TestProposedParams:
    def test_reference_geometry(self):
        cfg = proposed_params(64, 8)
        assert cfg.c1 == Fraction(1, 128)
        assert cfg.c2 == 0
        assert cfg.n_c == 512
        assert cfg.fmcw_equivalent

    def test_smallest_even_period(self):
        cfg = proposed_params(2, 1)
        assert cfg.c1 == Fraction(1, 4)
        assert cfg.c2 == 0
        assert cfg.n_c == 2

    def test_odd_period_rejected(self):
        with pytest.raises(ValueError, match="even"):
            proposed_params(3, 4)


class TestClassicParams:
    def test_reference_values(self):
        cfg = classic_params(512, 3)
        assert cfg.c1 == Fraction(7, 1024)
        assert cfg.c2 == pytest.approx(math.sqrt(2))
        assert not cfg.fmcw_equivalent

    def test_zero_doppler_bound(self):
        assert classic_params(512, 0).c1 == Fraction(1, 1024)
        assert classic_params(8, 0).c1 == Fraction(1, 16)


class TestPreset:
    def test_ofdm(self):
        cfg = preset("ofdm", 512)
        assert cfg.c1 == 0 and cfg.c2 == 0

    def test_ocdm(self):
        cfg = preset("ocdm", 512)
        assert cfg.c1 == Fraction(1, 1024)
        assert cfg.c2 == Fraction(1, 1024)

    def test_proposed_delegates(self):
        assert preset("proposed", 512, 8) == proposed_params(64, 8)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("zak", 512)

    @pytest.mark.parametrize("k_max", [1.5, True, -1])
    def test_non_integer_or_negative_k_max_rejected(self, k_max):
        # 1.5 used to fail inside Fraction with a raw TypeError; True built k_max = 1
        with pytest.raises(ValueError, match="k_max must be an integer >= 0, got"):
            preset("classic", 512, 8, k_max)

    def test_numpy_integers_stored_as_int(self):
        cfg = preset("ocdm", np.int64(32), np.int32(4), l_cpp=np.int64(3))
        assert [type(v) for v in (cfg.n_c, cfg.k_chirps, cfg.l_cpp)] == [int] * 3
        assert cfg == preset("ocdm", 32, 4, l_cpp=3)


class TestPeriodicityInvariants:
    def test_parity_rule_enforced(self):
        # an odd period breaks the chirp's n_p-periodicity, so the set is not FMCW-equivalent
        cfg = AfdmConfig(n_c=21, k_chirps=3, c1=Fraction(1, 14), c2=Fraction(0))
        with pytest.raises(ValueError, match="even"):
            cfg.require_fmcw("ddmf")

    def test_cpp_phase_unity_for_proposed(self):
        cfg = proposed_params(8, 4)
        for n in range(-5, 6):
            arg = cfg.c1 * (cfg.n_c**2 + 2 * cfg.n_c * n)
            assert arg.denominator == 1

    @pytest.mark.parametrize("build", [
        lambda: preset("proposed", 32.0, 4),
        lambda: ScenarioConfig(name="bad", n_c=32.0, k_chirps=4),
        lambda: AfdmConfig(n_c=32, k_chirps=4.0, c1=Fraction(1, 16), c2=Fraction(0)),
    ], ids=["preset", "scenario", "config"])
    def test_non_integer_geometry_rejected(self, build):
        # a float n_c or k_chirps would otherwise reach a Fraction rate as a raw TypeError
        with pytest.raises(ValueError, match="must be positive integers"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: preset("ocdm", True, True),
        lambda: ScenarioConfig(name="bad", n_c=32, k_chirps=True, preset="ocdm"),
        lambda: AfdmConfig(n_c=True, k_chirps=1, c1=Fraction(1, 2), c2=Fraction(0)),
    ], ids=["preset", "scenario", "config"])
    def test_bool_geometry_rejected(self, build):
        # True counted as the integer 1, so preset("ocdm", True, True) built a one-sample grid
        with pytest.raises(ValueError, match="n_c and k_chirps must be positive integers"):
            build()

    @pytest.mark.parametrize("l_cpp", [2.5, 2.0, True, Fraction(2)])
    def test_non_integer_prefix_rejected(self, l_cpp):
        # a 2.5-sample prefix used to reach add_cpp's slices as a raw TypeError
        with pytest.raises(ValueError, match="l_cpp must be an integer"):
            AfdmConfig(n_c=32, k_chirps=4, c1=Fraction(1, 16), c2=Fraction(0), l_cpp=l_cpp)

    def test_geometry_consistency_enforced(self):
        with pytest.raises(ValueError, match="k_chirps must divide n_c, got 30 % 4 != 0"):
            AfdmConfig(n_c=30, k_chirps=4, c1=Fraction(1, 16), c2=Fraction(0))

    def test_chirp_period_is_derived(self):
        # n_p used to be a stored field, so a new k_chirps alone raised
        # "n_c must equal k_chirps * n_p"
        assert replace(builtin_scenarios()["fig4"], k_chirps=16).n_p == 32
        assert replace(proposed_params(64, 8), k_chirps=4).n_p == 128
        assert "n_p" not in {f.name for f in (*fields(AfdmConfig), *fields(ScenarioConfig))}


class TestPathTap:
    @pytest.mark.parametrize("taps, name", [
        ((1, 0.5), "doppler_tap"),  # its phasor used to take int64(-0.5 n), truncated
        ((1.5, 0), "delay_tap"),  # apply_channel used to run on it
        ((True, 0), "delay_tap"),
        ((1, False), "doppler_tap"),
        ((Fraction(1), 0), "delay_tap"),
    ])
    def test_non_integer_tap_rejected(self, taps, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PathTap(1.0, *taps)

    @pytest.mark.parametrize("gain", [math.nan, complex(0.0, math.inf), complex(-math.inf, 1.0)])
    def test_non_finite_gain_rejected(self, gain):
        # a NaN gain used to make the channel output NaN
        with pytest.raises(ValueError, match="gain .* must be finite"):
            PathTap(gain, 1, 0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_tap must be non-negative"):
            PathTap(1.0, -1, 0)

    def test_numpy_integer_taps_accepted(self):
        path = PathTap(np.float64(0.5), np.int64(3), np.int32(-2))
        assert (path.delay_tap, path.doppler_tap) == (3, -2)
        assert [type(v) for v in (path.gain, path.delay_tap, path.doppler_tap)] == [
            complex, int, int
        ]

    def test_channel_and_package_export_the_same_type(self):
        import afdmsim
        from afdmsim.channel import PathTap as channel_path

        assert afdmsim.PathTap is channel_path is PathTap


class TestScenarioConfig:
    def test_path_separability(self):
        with pytest.raises(ValueError, match="separability"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, k_max=2, l_max=1)

    def test_target_bounds(self):
        with pytest.raises(ValueError, match="Doppler"):
            ScenarioConfig(
                name="bad", n_c=32, k_chirps=4, k_max=1, l_max=2,
                targets=(PathTap(1.0, 1, 3),),
            )

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf")])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, snr_db=snr_db)

    @pytest.mark.parametrize("target", [(1.0, 1, 0), (1.0, 1.5, 0), [1.0, 1, 0]])
    def test_target_that_is_no_path_rejected(self, target):
        # a (gain, l, k) tuple used to be accepted, and int() made 1.5 delay tap 1
        with pytest.raises(ValueError, match="targets must be PathTap paths"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, l_max=2, targets=(target,))

    @pytest.mark.parametrize("gain", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
    def test_non_finite_target_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="target gain"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, targets=(PathTap(gain, 0, 0),))

    @pytest.mark.parametrize("field, value", [
        ("l_max", 1.5), ("k_max", 0.5), ("l_max", 2.0), ("k_max", True), ("l_max", Fraction(1)),
    ])
    def test_non_integer_channel_bound_rejected(self, field, value):
        # l_max = 1.5 used to build a waveform with l_cpp = 2.5
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, preset="ocdm", **{field: value})

    @pytest.mark.parametrize("field, value", [
        # "20" used to raise a bare TypeError, True to run and be recorded as
        # the seed true, and 1.5 to build and fail inside numpy at run time
        ("snr_db", "20"), ("snr_db", True), ("snr_db", 20j),
        ("pilot_overhead", "1"), ("pilot_overhead", False),
        ("rng_seed", True), ("rng_seed", 1.5), ("rng_seed", 2.0), ("rng_seed", "3"),
    ])
    def test_field_of_the_wrong_type_rejected(self, field, value):
        kind = "an integer" if field == "rng_seed" else "a real number"
        with pytest.raises(ValueError, match=f"{field} must be {kind}, got"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("snr_db", np.float64(7.5)), ("snr_db", 12), ("pilot_overhead", Fraction(1, 2)),
        ("pilot_overhead", 0), ("rng_seed", np.int64(4)),
    ])
    def test_field_of_another_number_type_accepted(self, field, value):
        assert getattr(ScenarioConfig(name="ok", n_c=32, k_chirps=4, **{field: value}), field) == value

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="rng_seed must be non-negative, got -1"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, rng_seed=-1)

    def test_infinite_snr_is_noise_free(self):
        sc = ScenarioConfig(name="clean", n_c=32, k_chirps=4, snr_db=float("inf"))
        assert sc.snr_db == float("inf")

    def test_bandwidth_derived(self):
        sc = ScenarioConfig(name="x", n_c=512, k_chirps=8, k_max=3, l_max=10)
        assert sc.bandwidth_hz == pytest.approx(7.68e6)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        text = """
        # example scenario
        n_c = 32
        k_chirps = 4
        preset = proposed
        k_max = 1
        l_max = 2
        snr_db = 15
        pilot_overhead = 0.5
        seed = 9

        [path]
        gain_re = 0.6
        gain_im = -0.2
        l = 1
        k = -1

        [path]
        power = 0.25
        phase = 0.0
        l = 2
        k = 1
        """
        f = tmp_path / "scen.txt"
        f.write_text(text)
        sc = load_scenario(f)
        assert sc.n_c == 32 and sc.k_chirps == 4 and sc.n_p == 8
        assert sc.snr_db == 15 and sc.pilot_overhead == 0.5 and sc.rng_seed == 9
        assert sc.targets[0] == PathTap(complex(0.6, -0.2), 1, -1)
        assert sc.targets[1].gain == pytest.approx(0.5)

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "scen.txt"
        f.write_text("n_c = 32\nk_chirps = 4\nwindow = hann\n")
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario(f)

    def test_missing_n_c(self, tmp_path):
        f = tmp_path / "scen.txt"
        f.write_text("\n")
        with pytest.raises(ScenarioError, match="missing key n_c"):
            load_scenario(f)
