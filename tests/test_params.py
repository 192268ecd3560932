import math
from fractions import Fraction

import pytest

from afdmsim.params import (
    AfdmConfig,
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


class TestPeriodicityInvariants:
    def test_parity_rule_enforced(self):
        # an odd period breaks the chirp's n_p-periodicity, so the set is not FMCW-equivalent
        cfg = AfdmConfig(n_c=21, k_chirps=3, n_p=7, c1=Fraction(1, 14), c2=Fraction(0))
        with pytest.raises(ValueError, match="even"):
            cfg.require_fmcw("ddmf")

    def test_cpp_phase_unity_for_proposed(self):
        cfg = proposed_params(8, 4)
        for n in range(-5, 6):
            arg = cfg.c1 * (cfg.n_c**2 + 2 * cfg.n_c * n)
            assert arg.denominator == 1

    @pytest.mark.parametrize("build", [
        lambda: preset("proposed", 32.0, 4),
        lambda: ScenarioConfig(name="bad", n_c=32.0, k_chirps=4, n_p=8.0),
        lambda: AfdmConfig(n_c=32, k_chirps=4.0, n_p=8, c1=Fraction(1, 16), c2=Fraction(0)),
    ], ids=["preset", "scenario", "config"])
    def test_non_integer_geometry_rejected(self, build):
        # a float n_p would otherwise reach a Fraction rate as a raw TypeError
        with pytest.raises(ValueError, match="must be positive integers"):
            build()

    def test_geometry_consistency_enforced(self):
        with pytest.raises(ValueError, match="k_chirps"):
            AfdmConfig(n_c=30, k_chirps=4, n_p=8, c1=Fraction(1, 16), c2=Fraction(0))


class TestScenarioConfig:
    def test_path_separability(self):
        with pytest.raises(ValueError, match="separability"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, n_p=8, k_max=2, l_max=1)

    def test_target_bounds(self):
        with pytest.raises(ValueError, match="Doppler"):
            ScenarioConfig(
                name="bad", n_c=32, k_chirps=4, n_p=8, k_max=1, l_max=2,
                targets=((1.0, 1, 3),),
            )

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf")])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, n_p=8, snr_db=snr_db)

    @pytest.mark.parametrize("gain", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
    def test_non_finite_target_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="target gain"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, n_p=8, targets=((gain, 0, 0),))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="rng_seed must be non-negative, got -1"):
            ScenarioConfig(name="bad", n_c=32, k_chirps=4, n_p=8, rng_seed=-1)

    def test_infinite_snr_is_noise_free(self):
        sc = ScenarioConfig(name="clean", n_c=32, k_chirps=4, n_p=8, snr_db=float("inf"))
        assert sc.snr_db == float("inf")

    def test_bandwidth_derived(self):
        sc = ScenarioConfig(name="x", n_c=512, k_chirps=8, n_p=64, k_max=3, l_max=10)
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
        assert sc.targets[0] == (complex(0.6, -0.2), 1, -1)
        assert sc.targets[1][0] == pytest.approx(0.5)

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
