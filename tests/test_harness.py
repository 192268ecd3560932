import dataclasses
import itertools
import json
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afdmsim.metrics as metrics
from afdmsim.cli import _kind_flags, main
from afdmsim.experiments import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    NumericalCheckError,
    builtin_scenarios,
    run,
)
from afdmsim.params import PRESET_NAMES, PathTap, ScenarioConfig


def read_ddm_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            l, k, db = line.strip().split(",")
            rows.append((int(l), int(k), float(db)))
    return header, rows


class TestBuiltinScenarios:
    def test_reference_scenario_fields(self):
        sc = builtin_scenarios()["table1"]
        assert (sc.n_c, sc.k_chirps, sc.n_p) == (512, 8, 64)
        assert (sc.l_max, sc.k_max) == (10, 3)
        assert sc.bandwidth_hz == pytest.approx(7.68e6)

    def test_three_target_scene(self):
        sc = builtin_scenarios()["fig4"]
        taps = [(p.delay_tap, p.doppler_tap) for p in sc.targets]
        assert taps == [(3, 0), (7, 2), (10, 3)]
        powers = [abs(p.gain) ** 2 for p in sc.targets]
        assert powers == pytest.approx([0.6, 0.3, 0.1])

    def test_single_target_scene(self):
        sc = builtin_scenarios()["fig5"]
        assert sc.targets == (PathTap(1.0 + 0.0j, 10, 3),)

    def test_desk_is_scaled_down(self):
        sc = builtin_scenarios()["desk"]
        assert (sc.n_p, sc.k_chirps) == (8, 4)
        assert sc.k_chirps > 2 * sc.k_max and sc.n_p > sc.l_max


class TestDdmRun:
    def test_three_target_top_cells(self, tmp_path):
        spec = ExperimentSpec(
            kind="ddm",
            scenario=builtin_scenarios()["fig4"],
            out_dir=tmp_path,
            presets=("proposed",),
            algorithms=("ddmf",),
            seed=5,
        )
        written = run(spec)
        csv = tmp_path / "ddm_proposed_ddmf.csv"
        assert csv in written
        header, rows = read_ddm_csv(csv)
        assert header == ["l", "k", "magnitude_db"]
        top3 = sorted(rows, key=lambda r: -r[2])[:3]
        assert {(l, k) for l, k, _ in top3} == {(3, 0), (7, 2), (10, 3)}

    def test_manifest_records_resolved_config(self, tmp_path):
        spec = ExperimentSpec(
            kind="ddm",
            scenario=builtin_scenarios()["desk"],
            out_dir=tmp_path,
            presets=("proposed",),
            algorithms=("tfmf",),
            seed=5,
        )
        run(spec)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["kind"] == "ddm"
        assert manifest["seed"] == 5
        assert manifest["waveforms"]["proposed"]["c1"] == "1/16"
        assert manifest["scenario"]["targets"][0]["l"] == 1
        assert "ddm_proposed_tfmf.csv" in manifest["outputs"]


class TestIoCheck:
    def test_passes_and_reports(self, tmp_path):
        spec = ExperimentSpec(
            kind="io_check",
            scenario=builtin_scenarios()["desk"],
            out_dir=tmp_path,
            trials=20,
        )
        run(spec)
        text = (tmp_path / "io_check_proposed_all.csv").read_text().splitlines()
        assert text[0] == "n_c,trials,max_abs_error,tolerance,passed"
        fields = text[1].split(",")
        assert float(fields[2]) < 1e-9
        assert fields[4] == "true"

    def test_numpy_integers_run_as_plain_ones(self, tmp_path):
        # trials, seed and sizes used to be rejected: "trials must be int, got int64"
        desk = builtin_scenarios()["desk"]
        for name, trials, seed, sizes in (
            ("typed", np.int64(3), np.int64(5), (np.int64(256), np.int32(512))),
            ("plain", 3, 5, (256, 512)),
        ):
            run(ExperimentSpec("io_check", desk, tmp_path / name, trials=trials, seed=seed,
                               sizes=sizes))
        for name in ("io_check_proposed_all.csv", "manifest.json"):
            typed, plain = (tmp_path / side / name for side in ("typed", "plain"))
            assert typed.read_bytes() == plain.read_bytes()

    def test_runs_on_the_scenario_grid(self, tmp_path):
        spec = ExperimentSpec(kind="io_check", scenario=builtin_scenarios()["fig4"],
                              out_dir=tmp_path, trials=5)
        run(spec)
        fields = (tmp_path / "io_check_proposed_all.csv").read_text().splitlines()[1].split(",")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert int(fields[0]) == manifest["waveforms"]["proposed"]["n_c"] == 512
        assert fields[4] == "true"

    def test_single_chirp_period_passes(self, tmp_path):
        # K = 1 separates Doppler tap 0 only; the taps used to be drawn from
        # [1 - K // 2, K // 2), an empty range that failed with "low >= high"
        scen = tmp_path / "one_chirp.txt"
        scen.write_text("n_c = 16\nk_chirps = 1\n")
        out = tmp_path / "o"
        assert main(["io-check", "--scenario", str(scen), "--trials", "5", "--out", str(out)]) == 0
        header, row = (out / "io_check_proposed_all.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["passed"] == "true"

    @pytest.mark.parametrize("kind", ["io_check", "runtime_scaling"])
    def test_kind_without_presets_runs_and_records_proposed(self, tmp_path, kind):
        scenario = replace(builtin_scenarios()["desk"], preset="classic")
        spec = ExperimentSpec(kind=kind, scenario=scenario, out_dir=tmp_path, trials=3)
        assert spec.resolved_presets == ("proposed",)
        if kind == "io_check":
            run(spec)
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            assert manifest["presets"] == ["proposed"]
            assert list(manifest["waveforms"]) == ["proposed"]


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["ddm", "io_check", "af_surface"])
    def test_byte_identical_reruns(self, kind, tmp_path):
        outs = []
        for sub in ("a", "b"):
            spec = ExperimentSpec(
                kind=kind,
                scenario=builtin_scenarios()["desk"],
                out_dir=tmp_path / sub,
                presets=("proposed", "classic"),
                algorithms=("tfmf", "dechirp", "ddmf"),
                seed=11,
                trials=10,
            )
            outs.append(sorted(run(spec)))
        names_a = [p.name for p in outs[0]]
        names_b = [p.name for p in outs[1]]
        assert names_a == names_b
        for pa, pb in zip(outs[0], outs[1]):
            assert pa.read_bytes() == pb.read_bytes()


class TestPartialCleanup:
    def test_failed_run_removes_outputs(self, tmp_path, monkeypatch):
        import afdmsim.experiments as experiments

        # the first preset's CSV is written, then the second preset's trials fail
        def fail_after_first(*args, **kwargs):
            if (tmp_path / "pd_curve_proposed_all.csv").exists():
                raise ValueError("trials failed")
            return metrics.trial_metrics(*args, **kwargs)

        monkeypatch.setattr(experiments, "trial_metrics", fail_after_first)
        spec = ExperimentSpec(
            kind="pd_curve",
            scenario=builtin_scenarios()["table1"],
            out_dir=tmp_path,
            presets=("proposed", "classic"),
            algorithms=("tfmf",),
            trials=2,
            snr_db_list=(10.0,),
        )
        with pytest.raises(ValueError, match="trials failed"):
            run(spec)
        assert list(tmp_path.glob("*.csv")) == []
        assert not (tmp_path / "manifest.json").exists()

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, monkeypatch):
        import afdmsim.experiments as experiments

        spec = ExperimentSpec(kind="io_check", scenario=builtin_scenarios()["desk"],
                              out_dir=tmp_path, trials=3)
        run(spec)
        assert (tmp_path / "manifest.json").exists()
        monkeypatch.setattr(experiments, "IO_CHECK_TOLERANCE", 0.0)
        with pytest.raises(experiments.NumericalCheckError):
            run(spec)
        assert list(tmp_path.iterdir()) == []


class TestManifestOutputs:
    @pytest.mark.parametrize("kind, scenario, extra", [
        ("ddm", "desk", {}),
        ("af_surface", "desk", {"presets": ("proposed", "ofdm")}),
        ("snr_sweep", "table1", {"algorithms": ("tfmf",)}),
        ("po_sweep", "table1", {"algorithms": ("tfmf",), "po_list": (0.5,)}),
        ("pd_curve", "table1", {"algorithms": ("tfmf",)}),
        ("ber_curve", "desk", {"presets": ("proposed", "classic")}),
        ("io_check", "desk", {}),
        ("runtime_scaling", "desk", {"sizes": (16, 32)}),
    ])
    def test_outputs_equal_file_headers(self, tmp_path, kind, scenario, extra):
        spec = ExperimentSpec(kind=kind, scenario=builtin_scenarios()[scenario],
                              out_dir=tmp_path, trials=2, snr_db_list=(10.0,), **extra)
        written = run(spec)
        outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == sorted(p.name for p in written[:-1])
        for name, header in outputs.items():
            assert (tmp_path / name).read_text().splitlines()[0] == ",".join(header)

    @staticmethod
    def _ddm_manifest(out_dir, changes):
        """The manifest of a desk ``ddm`` run with ``changes`` to its scenario or spec."""
        scenario_fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        scenario = replace(builtin_scenarios()["desk"],
                           **{k: v for k, v in changes.items() if k in scenario_fields})
        spec = {k: v for k, v in changes.items() if k not in scenario_fields}
        run(ExperimentSpec("ddm", scenario, out_dir, **spec))
        return (out_dir / "manifest.json").read_text()

    @pytest.mark.parametrize("changes, plain", [
        ({"pilot_overhead": Fraction(1, 2)}, {"pilot_overhead": 0.5}),
        ({"snr_db": 12}, {"snr_db": 12.0}),
        ({"snr_db": np.float32(12)}, {"snr_db": 12.0}),
        ({"rng_seed": np.int64(7)}, {"rng_seed": 7}),
        ({"l_max": np.int64(2)}, {"l_max": 2}),
        ({"n_c": np.int64(32)}, {"n_c": 32}),
        ({"targets": (PathTap(1.0, np.int64(1), np.int64(1)),)},
         {"targets": (PathTap(1.0, 1, 1),)}),
        ({"targets": (PathTap(np.complex64(1), 1, 1),)}, {"targets": (PathTap(1.0, 1, 1),)}),
        ({"snr_db_list": (np.float32(5),)}, {"snr_db_list": (5.0,)}),
        ({"snr_db_list": (5, 10)}, {"snr_db_list": (5.0, 10.0)}),
    ], ids=["fraction-po", "int-snr", "float32-snr", "int64-seed", "int64-l_max", "int64-n_c",
            "int64-taps", "complex64-gain", "float32-snr-list", "int-snr-list"])
    def test_any_number_type_records_the_plain_manifest(self, tmp_path, changes, plain):
        # each used to record an int where a scenario file gives a float, or
        # to fail in json.dumps once the run's maps were written
        assert (self._ddm_manifest(tmp_path / "typed", changes)
                == self._ddm_manifest(tmp_path / "plain", plain))


class TestCli:
    def test_ddm_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "ddm",
                "--scenario", "desk",
                "--preset", "proposed",
                "--algorithm", "ddmf",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert str(tmp_path / "ddm_proposed_ddmf.csv") in out
        assert (tmp_path / "manifest.json").exists()

    def test_scenario_file(self, tmp_path, capsys):
        scen = tmp_path / "scen.txt"
        scen.write_text(
            "n_c = 32\nk_chirps = 4\npreset = proposed\nk_max = 1\nl_max = 2\n"
            "snr_db = 25\npilot_overhead = 1.0\nseed = 2\n"
            "[path]\ngain_re = 1.0\ngain_im = 0.0\nl = 1\nk = 0\n"
        )
        code = main(["ddm", "--scenario", str(scen), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_missing_key_reports_config_error(self, tmp_path, capsys):
        scen = tmp_path / "empty.txt"
        scen.write_text("\n")
        code = main(["ddm", "--scenario", str(scen), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing key n_c" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where, message", [
        ("n_c = 32\nk_chirps = 4\n[paths]\n", ":3", "unknown section [paths]"),
        ("n_c = 32\nk_chirps 4\n", ":2", "expected 'key = value'"),
        ("n_c = 32\nk_chirps = 4\n[path]\ngain = 1\n", ":4", "unknown path key 'gain'"),
        ("n_c = 32\n", "", "missing key k_chirps"),
        ("n_c = 32\nk_chirps = 4\n[path]\npower = 1\n", "", "path block 0 missing taps l/k"),
        ("n_c = 32\nk_chirps = 4\n[path]\nl = 0\nk = 0\n", "",
         "path block 0 needs gain_re/gain_im or power"),
        ("n_c = 32\nk_chirps = 4\npreset = fancy\n", ":3", "unknown preset 'fancy'"),
    ], ids=["section", "no-equals", "path-key", "no-k_chirps", "no-taps", "no-gain", "preset"])
    def test_malformed_scenario_file_names_the_file(self, tmp_path, capsys, text, where,
                                                    message):
        scen = tmp_path / "bad.txt"
        scen.write_text(text)
        out = tmp_path / "o"
        code = main(["ddm", "--scenario", str(scen), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {scen}{where}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_scenario_path(self, tmp_path, capsys):
        code = main(["ddm", "--scenario", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
        assert code == 1

    def test_zero_trials_rejected(self, tmp_path, capsys):
        code = main(["io-check", "--scenario", "desk", "--trials", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "trials must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_non_finite_snr_rejected(self, tmp_path, capsys):
        code = main(["ber-curve", "--scenario", "desk", "--snr", "5", "nan",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "SNR values must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_snr_whose_variance_overflows_rejected(self, tmp_path, capsys):
        code = main(["snr-sweep", "--scenario", "fig5", "--snr", "10", "-4000",
                     "--trials", "2", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: snr_db -4000.0 is too low: its noise variance overflows" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_snr_past_the_float_range_runs_noise_free(self, tmp_path):
        code = main(["snr-sweep", "--scenario", "fig5", "--snr", "4000",
                     "--trials", "2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "manifest.json").exists()

    def test_spec_snr_whose_variance_overflows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"snr_db -4000\.0 is too low"):
            ExperimentSpec(kind="pd_curve", scenario=builtin_scenarios()["desk"],
                           out_dir=tmp_path, snr_db_list=(0.0, -4000.0))

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_scenario_snr_rejected(self, tmp_path, capsys, value):
        scen = tmp_path / "scen.txt"
        scen.write_text(
            f"n_c = 32\nk_chirps = 4\nk_max = 1\nl_max = 2\nsnr_db = {value}\n"
            "[path]\ngain_re = 1.0\nl = 1\nk = 0\n"
        )
        out = tmp_path / "o"
        out.mkdir()
        code = main(["ddm", "--scenario", str(scen), "--out", str(out)])
        assert code == 1
        assert "snr_db" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("lines, message", [
        ("k_chirps = 0\n", "k_chirps must be >= 1, got 0"),
        ("k_chirps = 0\nn_p = 8\n", "k_chirps must be >= 1, got 0"),
        ("n_p = 0\n", "n_p must be >= 1, got 0"),
        ("k_chirps = 4\nn_p = 0\n", "n_p must be >= 1, got 0"),
    ], ids=["k_chirps", "k_chirps-and-n_p", "n_p", "n_p-and-k_chirps"])
    def test_zero_chirp_geometry_rejected(self, tmp_path, capsys, lines, message):
        scen = tmp_path / "scen.txt"
        scen.write_text(f"n_c = 32\n{lines}[path]\ngain_re = 1.0\nl = 0\nk = 0\n")
        out = tmp_path / "o"
        out.mkdir()
        code = main(["ddm", "--scenario", str(scen), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("top, path_line, message", [
        ("n_c = 32.5", "gain_re = 1.0", "scen.txt:1: n_c must be an integer, got '32.5'"),
        ("snr_db = loud", "gain_re = 1.0", "scen.txt:1: snr_db must be a number, got 'loud'"),
        ("", "gain_re = nan", "scen.txt:6: gain_re must be finite, got 'nan'"),
        ("", "gain_im = -inf", "scen.txt:6: gain_im must be finite, got '-inf'"),
        ("", "power = -1", "scen.txt:6: power must be >= 0, got '-1'"),
        ("", "phase = inf", "scen.txt:6: phase must be finite, got 'inf'"),
        ("", "l = 0.5", "scen.txt:6: l must be an integer, got '0.5'"),
    ], ids=["n_c", "snr_db", "gain_re", "gain_im", "power", "phase", "l"])
    def test_bad_scenario_value_names_file_line_and_key(
        self, tmp_path, capsys, top, path_line, message
    ):
        scen = tmp_path / "scen.txt"
        scen.write_text(
            f"{top}\nn_c = 32\nk_chirps = 4\nk_max = 1\n[path]\n{path_line}\nl = 0\nk = 0\n"
        )
        out = tmp_path / "o"
        out.mkdir()
        code = main(["ddm", "--scenario", str(scen), "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("top, paths, message", [
        ("pilot_overhead = 2", "l = 0\nk = 0", "scen.txt:1: pilot_overhead must lie in [0, 1]"),
        ("l_max = -1", "l = 0\nk = 0", "scen.txt:1: l_max must be non-negative"),
        ("snr_db = -inf", "l = 0\nk = 0",
         "scen.txt:1: snr_db must be a number or +inf, got -inf"),
        ("snr_db = -4000", "l = 0\nk = 0",
         "scen.txt:1: snr_db -4000.0 is too low: its noise variance overflows"),
        ("l_max = 1", "l = 3\nk = 0",
         "scen.txt: path block 0: target delay tap 3 outside [0, l_max]"),
        ("k_max = 1", "l = 0\nk = 0\n[path]\ngain_re = 1.0\nl = 0\nk = -2",
         "scen.txt: path block 1: target Doppler tap -2 outside [-k_max, k_max]"),
        ("k_max = 2", "l = 0\nk = 0",
         "scen.txt: path separability needs k_chirps > 2*k_max (4 <= 4)"),
        ("n_p = 16", "l = 0\nk = 0", "scen.txt: n_c must equal k_chirps * n_p, got 32 != 4 * 16"),
        ("n_c = 30\nn_p = 8", "l = 0\nk = 0",
         "scen.txt: n_c must equal k_chirps * n_p, got 30 != 3 * 8"),
        ("k_chirps = 2", "l = 0\nk = 0", "scen.txt:3: k_chirps given twice"),
        ("", "l = 0\nk = 0\nl = 1", "scen.txt:8: l given twice"),
    ], ids=["pilot_overhead", "l_max", "snr_db", "snr_db-too-low", "delay-tap", "doppler-tap",
            "separability", "geometry", "period-not-dividing", "repeated-key",
            "repeated-path-key"])
    def test_invalid_scenario_names_file(self, tmp_path, capsys, top, paths, message):
        # faults found only when the ScenarioConfig is built still name the file;
        # a row that sets n_c brings its own geometry
        geometry = "" if top.startswith("n_c") else "n_c = 32\nk_chirps = 4\n"
        scen = tmp_path / "scen.txt"
        scen.write_text(f"{top}\n{geometry}[path]\ngain_re = 1.0\n{paths}\n")
        out = tmp_path / "o"
        out.mkdir()
        code = main(["ddm", "--scenario", str(scen), "--out", str(out)])
        assert code == 1
        assert f"error: {scen.parent}/{message}" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv, ignored", [
        (["ddm", "--snr", "5", "--po", "0", "--trials", "3", "--sizes", "16"],
         "ddm does not use --trials, --snr, --po, --sizes"),
        (["af-surface", "--seed", "1"], "af-surface does not use --seed"),
        (["af-surface", "--algorithm", "tfmf"], "af-surface does not use --algorithm"),
        (["snr-sweep", "--po", "0.5"], "snr-sweep does not use --po"),
        (["po-sweep", "--snr", "10"], "po-sweep does not use --snr"),
        (["pd-curve", "--sizes", "16"], "pd-curve does not use --sizes"),
        (["ber-curve", "--algorithm", "tfmf"], "ber-curve does not use --algorithm"),
        (["ber-curve", "--pilot-only-reference"],
         "ber-curve does not use --pilot-only-reference"),
        (["io-check", "--preset", "classic"], "io-check does not use --preset"),
        (["io-check", "--snr", "5"], "io-check does not use --snr"),
        (["runtime-scaling", "--trials", "3"], "runtime-scaling does not use --trials"),
    ])
    def test_flag_the_kind_ignores_rejected(self, tmp_path, capsys, argv, ignored):
        code = main([*argv, "--scenario", "desk", "--out", str(tmp_path)])
        assert code == 1
        assert ignored in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["snr-sweep", "--trials", "2", "--snr", "10"],
        ["ddm", "--algorithm", "dechirp"],
    ])
    def test_pilot_only_reference_without_tfmf_rejected(self, tmp_path, capsys, argv):
        # it used to run the other algorithms and record a pilot reference nothing read
        code = main([*argv, "--scenario", "fig5", "--algorithm", "ddmf",
                     "--pilot-only-reference", "--out", str(tmp_path)])
        assert code == 1
        assert "--pilot-only-reference" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["ber-curve", "--snr", "5", "5"], "snr_db_list repeats the value 5.0"),
        (["ber-curve", "--snr", "5", "10", "5.0"], "snr_db_list repeats the value 5.0"),
        (["snr-sweep", "--preset", "proposed", "--preset", "proposed"],
         "presets repeats the value 'proposed'"),
        (["pd-curve", "--algorithm", "tfmf", "--algorithm", "dechirp", "--algorithm", "tfmf"],
         "algorithms repeats the value 'tfmf'"),
        (["po-sweep", "--po", "0.5", "0", "0.5"], "po_list repeats the value 0.5"),
        (["runtime-scaling", "--sizes", "256", "256"], "sizes repeats the value 256"),
    ])
    def test_repeated_value_rejected(self, tmp_path, capsys, argv, message):
        # a repeat would redo the work and write duplicate rows (or, for a
        # BER SNR, count its bit errors twice against the bits of one)
        code = main([*argv, "--scenario", "desk", "--out", str(tmp_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["runtime-scaling", "--sizes", "16"],
         "runtime_scaling fits slopes and needs two or more sizes, got [16]"),
        (["ber-curve", "--trials", "25"],
         "ber_curve trials 25 must be a multiple of its 2 channel realizations"),
        (["ber-curve", "--trials", "101"],
         "ber_curve trials 101 must be a multiple of its 10 channel realizations"),
    ], ids=["one-size", "ber-trials-25", "ber-trials-101"])
    def test_request_that_cannot_be_met_rejected(self, tmp_path, capsys, monkeypatch, argv,
                                                 message):
        # a slope through one point, or a BER that silently drops symbols,
        # would read like a real result
        import afdmsim.experiments as experiments

        def no_timing(*args, **kwargs):
            pytest.fail("runtime scaling started timing")

        monkeypatch.setattr(experiments, "benchmark_pipelines", no_timing)
        code = main([*argv, "--scenario", "desk", "--out", str(tmp_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("trials", [1, 2, 15, 20, 100])
    def test_ber_trials_that_fill_every_realization_accepted(self, tmp_path, trials):
        ExperimentSpec(kind="ber_curve", scenario=builtin_scenarios()["desk"],
                       out_dir=tmp_path, trials=trials)

    @pytest.mark.parametrize("kind", ["snr-sweep", "po-sweep", "pd-curve"])
    def test_grid_smaller_than_the_cfar_window_rejected(self, tmp_path, capsys, monkeypatch,
                                                        kind):
        # the CA-CFAR ring (2 train, 1 guard) spans 7 cells per axis, more than
        # the desk grid's 4 Doppler bins: no trial of a sweep there could be scored
        import afdmsim.experiments as experiments

        def no_trials(*args, **kwargs):
            pytest.fail(f"{kind} started its trials")

        monkeypatch.setattr(experiments, "trial_metrics", no_trials)
        code = main([kind, "--scenario", "desk", "--trials", "2", "--out", str(tmp_path)])
        assert code == 1
        assert ("error: scenario 'desk': its (8, 4) delay-Doppler grid is smaller than the "
                "CFAR window 7") in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["snr-sweep", "po-sweep", "pd-curve", "ber-curve"])
    def test_scenario_without_a_target_rejected(self, tmp_path, capsys, kind):
        # these kinds score the scenario's first target; without one they
        # used to fail inside the run, after creating the out dir
        scen = tmp_path / "notarget.txt"
        scen.write_text("n_c = 512\nk_chirps = 8\n")
        out = tmp_path / "o"
        code = main([kind, "--scenario", str(scen), "--trials", "10", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: scenario 'notarget': no target for {kind.replace('-', '_')} to score" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["1010", "1032", "0", "-16"])
    def test_invalid_size_rejected_before_timing(self, tmp_path, capsys, monkeypatch, size):
        import afdmsim.experiments as experiments

        def no_timing(*args, **kwargs):
            pytest.fail("runtime scaling started timing")

        monkeypatch.setattr(experiments, "benchmark_pipelines", no_timing)
        code = main(["runtime-scaling", "--sizes", "256", size, "--out", str(tmp_path)])
        assert code == 1
        assert f"size {size} " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, preset_name", [
        (["pd-curve", "--scenario", "fig4", "--preset", "ofdm", "--algorithm", "ddmf"], "ofdm"),
        (["ddm", "--scenario", "desk", "--preset", "classic", "--algorithm", "ddmf"], "classic"),
        (["snr-sweep", "--scenario", "fig4", "--preset", "proposed", "--preset", "ocdm",
          "--algorithm", "ddmf"], "ocdm"),
    ], ids=["pd-curve-ofdm", "ddm-classic", "snr-sweep-ocdm"])
    def test_preset_with_no_algorithm_to_run_rejected(self, tmp_path, capsys, argv,
                                                      preset_name):
        # ddmf needs the FMCW-equivalent set: such a preset would write a
        # header-only CSV (sweeps) or no CSV at all (ddm)
        code = main([*argv, "--out", str(tmp_path)])
        assert code == 1
        assert f"preset {preset_name!r} runs none of the algorithms ['ddmf']" in (
            capsys.readouterr().err
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["af_surface", "ber_curve", "io_check"])
    def test_kind_that_reads_no_algorithm_accepts_any(self, tmp_path, kind):
        ExperimentSpec(kind=kind, scenario=builtin_scenarios()["desk"], out_dir=tmp_path,
                       presets=("classic", "ofdm"), algorithms=("ddmf",), trials=10)

    @pytest.mark.parametrize("kind, field", [
        ("snr_sweep", "snr_db_list"), ("pd_curve", "snr_db_list"),
        ("ber_curve", "snr_db_list"), ("po_sweep", "po_list"),
    ])
    def test_empty_list_the_kind_reads_rejected(self, tmp_path, kind, field):
        with pytest.raises(ValueError, match=f"{kind} needs at least one value in {field}"):
            ExperimentSpec(kind=kind, scenario=builtin_scenarios()["desk"], out_dir=tmp_path,
                           **{field: ()})

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main(["io-check", "--scenario", "desk", "--seed", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_scenario_seed_names_file_and_line(self, tmp_path, capsys):
        scen = tmp_path / "scen.txt"
        scen.write_text("n_c = 32\nk_chirps = 4\nseed = -3\n[path]\ngain_re = 1.0\nl = 0\nk = 0\n")
        out = tmp_path / "o"
        out.mkdir()
        code = main(["io-check", "--scenario", str(scen), "--out", str(out)])
        assert code == 1
        assert f"error: {scen}:3: seed must be non-negative, got -3" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("n_c", [0, -8])
    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_non_positive_geometry_names_file(self, tmp_path, capsys, preset_name, n_c):
        # one message for every preset: the geometry is checked before any chirp rate
        scen = tmp_path / "scen.txt"
        scen.write_text(f"n_c = {n_c}\nk_chirps = 4\npreset = {preset_name}\n")
        out = tmp_path / "o"
        out.mkdir()
        code = main(["af-surface", "--scenario", str(scen), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {scen}: n_c and k_chirps must be positive integers, got {n_c}, 4\n"
        )
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["af-surface", "--preset", "proposed"],
        ["io-check"],
        ["runtime-scaling", "--sizes", "32", "64"],
    ], ids=["af-surface", "io-check", "runtime-scaling"])
    def test_preset_that_does_not_fit_the_grid_rejected(self, tmp_path, capsys, monkeypatch,
                                                        argv):
        # proposed needs an even n_p; these kinds used to fail inside the run
        # without naming the scenario or the preset, after creating the out dir
        # (runtime-scaling after every timing)
        import afdmsim.experiments as experiments

        def no_timing(*args, **kwargs):
            pytest.fail("runtime scaling started timing")

        monkeypatch.setattr(experiments, "benchmark_pipelines", no_timing)
        scen = tmp_path / "ocdm30.txt"
        scen.write_text("n_c = 30\nk_chirps = 2\npreset = ocdm\n")
        out = tmp_path / "o"
        code = main([*argv, "--scenario", str(scen), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scenario 'ocdm30': preset 'proposed' does not fit its grid: "
            "n_p must be even, got 15\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("presets", ("proposed", "bogus"), "unknown presets ['bogus']"),
        ("algorithms", ("foo",), "unknown algorithms ['foo']"),
        ("seed", 1.5, "seed must be int, got float 1.5"),
        ("trials", 2.5, "trials must be int, got float 2.5"),
        ("trials", True, "trials must be int, got bool True"),
        ("sizes", (32.0, 64.0), "sizes must be int, got float 32.0"),
        ("sizes", (32, "64"), "sizes must be int, got str '64'"),
        ("snr_db_list", ("10",), "snr_db_list must be real, got str '10'"),
        ("snr_db_list", (None,), "snr_db_list must be real, got NoneType None"),
        ("snr_db_list", (10.0, True), "snr_db_list must be real, got bool True"),
        ("po_list", ("0.5",), "po_list must be real, got str '0.5'"),
    ], ids=["preset", "algorithm", "float-seed", "float-trials", "bool-trials", "float-sizes",
            "str-size", "str-snr", "none-snr", "bool-snr", "str-po"])
    def test_unknown_name_or_non_integer_rejected_by_spec(self, tmp_path, field, value, message):
        with pytest.raises(ValueError) as info:
            ExperimentSpec(kind="io_check", scenario=builtin_scenarios()["desk"],
                           out_dir=tmp_path, **{field: value})
        assert str(info.value).startswith(message)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("po", [["0.5", "1.5"], ["-0.1"], ["nan"]])
    def test_pilot_overhead_outside_unit_interval_rejected(self, tmp_path, capsys,
                                                           monkeypatch, po):
        import afdmsim.experiments as experiments

        def no_trials(*args, **kwargs):
            pytest.fail("po_sweep started its trials")

        monkeypatch.setattr(experiments, "trial_metrics", no_trials)
        code = main(["po-sweep", "--scenario", "fig5", "--po", *po, "--out", str(tmp_path)])
        assert code == 1
        assert "po_list values must lie in [0, 1]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_kind_flags_table_in_readme(self):
        # the README's "Kind | Flags it reads" table, one row per kind or kinds
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        rows = lines[lines.index("| Kind | Flags it reads |") + 2:]
        documented = {}
        for row in itertools.takewhile(lambda line: line.startswith("|"), rows):
            kinds, flags = (cell.strip() for cell in row.strip("|").split("|"))
            for kind in kinds.split(", "):
                documented[kind.strip("`")] = [flag.strip("`") for flag in flags.split(", ")]
        assert documented == {
            kind.replace("_", "-"): _kind_flags(kind) for kind in EXPERIMENT_KINDS
        }


class TestExitCodes:
    def test_numerical_check_failure_is_exit_2(self, tmp_path, monkeypatch, capsys):
        import afdmsim.experiments as experiments

        monkeypatch.setattr(experiments, "IO_CHECK_TOLERANCE", 0.0)
        code = main(["io-check", "--scenario", "desk", "--trials", "3",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "numerical check failed" in capsys.readouterr().err

    def test_out_dir_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AFDMSIM_OUT", str(tmp_path / "env_out"))
        code = main(["io-check", "--scenario", "desk", "--trials", "3"])
        assert code == 0
        assert (tmp_path / "env_out" / "manifest.json").exists()


class TestSweepKinds:
    def _spec(self, kind, tmp_path, **kwargs):
        base = dict(
            kind=kind,
            scenario=builtin_scenarios()["table1"],
            out_dir=tmp_path,
            presets=("proposed",),
            algorithms=("tfmf", "ddmf"),
            seed=21,
            trials=3,
            snr_db_list=(20.0,),
            po_list=(0.5, 1.0),
        )
        base.update(kwargs)
        return ExperimentSpec(**base)

    def test_snr_sweep_rows(self, tmp_path):
        run(self._spec("snr_sweep", tmp_path))
        lines = (tmp_path / "snr_sweep_proposed_all.csv").read_text().splitlines()
        assert lines[0].startswith("snr_db,po,algorithm,preset,pslr_db")
        assert len(lines) == 1 + 2  # two algorithms, one snr, scenario po

    def test_po_sweep_rows(self, tmp_path):
        run(self._spec("po_sweep", tmp_path))
        lines = (tmp_path / "po_sweep_proposed_all.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # two algorithms x two overheads

    def test_pd_curve_rows(self, tmp_path):
        run(self._spec("pd_curve", tmp_path))
        lines = (tmp_path / "pd_curve_proposed_all.csv").read_text().splitlines()
        pd_values = [float(ln.split(",")[6]) for ln in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in pd_values)

    def test_pd_curve_measures_no_map_quality(self, tmp_path, monkeypatch):
        def unused(*args):
            raise AssertionError("pd_curve reports no PSLR or image SNR")

        monkeypatch.setattr(metrics, "pslr", unused)
        monkeypatch.setattr(metrics, "image_snr", unused)
        run(self._spec("pd_curve", tmp_path))
        lines = (tmp_path / "pd_curve_proposed_all.csv").read_text().splitlines()
        assert [ln.split(",")[4:6] for ln in lines[1:]] == [["nan", "nan"]] * 2

    def test_pd_curve_matches_snr_sweep_pd(self, tmp_path):
        # pd_curve follows the pilot-only tfmf reference like the sweeps do
        scenario = replace(builtin_scenarios()["table1"], pilot_overhead=0.1)
        pd = {}
        for kind in ("snr_sweep", "pd_curve"):
            run(self._spec(kind, tmp_path / kind, scenario=scenario, algorithms=("tfmf",),
                           seed=4, trials=40, snr_db_list=(-20.0, 0.0),
                           tfmf_reference="pilot"))
            lines = (tmp_path / kind / f"{kind}_proposed_all.csv").read_text().splitlines()
            pd[kind] = {tuple(ln.split(",")[:3]): ln.split(",")[6] for ln in lines[1:]}
        assert pd["pd_curve"] == pd["snr_sweep"]

    def test_ber_curve_rows(self, tmp_path):
        spec = self._spec(
            "ber_curve", tmp_path, scenario=builtin_scenarios()["fig4"],
            trials=20, snr_db_list=(10.0,),
        )
        run(spec)
        lines = (tmp_path / "ber_curve_proposed_lmmse.csv").read_text().splitlines()
        ber_value = float(lines[1].split(",")[7])
        assert 0.0 <= ber_value <= 1.0

    def test_runtime_scaling_rows(self, tmp_path):
        spec = self._spec("runtime_scaling", tmp_path, sizes=(64, 128))
        run(spec)
        lines = (tmp_path / "runtime_scaling_proposed_all.csv").read_text().splitlines()
        assert lines[0] == "algorithm,n_c,seconds_per_map"
        assert len(lines) == 1 + 3 * 2  # three pipelines x two sizes
        slopes = (tmp_path / "runtime_slopes_proposed_all.csv").read_text().splitlines()
        assert slopes[0] == "algorithm,slope"

    def test_af_surface_extent(self, tmp_path):
        run(self._spec("af_surface", tmp_path, presets=("proposed", "classic")))
        for preset_name in ("proposed", "classic"):
            lines = (tmp_path / f"af_surface_{preset_name}_psi0.csv").read_text().splitlines()
            assert len(lines) == 1 + 64 * 512  # delay axis one chirp period


class TestAcceptedSpecsRun:
    """Every spec ``ExperimentSpec`` accepts writes rows, or fails cleanly with a named error."""

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(list(EXPERIMENT_KINDS)),
        presets=st.lists(st.sampled_from(PRESET_NAMES), unique=True, max_size=4),
        algorithms=st.lists(st.sampled_from(metrics.ALGORITHMS), unique=True, max_size=3),
        trials=st.integers(1, 12),
        # edges of the accepted ranges; values outside them have their own tests
        snr_db_list=st.lists(st.sampled_from((-300.0, -30.0, 0.0, 30.0, 300.0)),
                             unique=True, max_size=3),
        po_list=st.lists(st.sampled_from((0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0)),
                         unique=True, max_size=3),
        sizes=st.lists(st.sampled_from((16, 32, 48)), unique=True, min_size=2, max_size=2),
    )
    def test_writes_rows_or_raises_and_leaves_nothing(self, kind, presets, algorithms, trials,
                                                      snr_db_list, po_list, sizes):
        fields = dict(presets=tuple(presets), algorithms=tuple(algorithms), trials=trials,
                      snr_db_list=tuple(snr_db_list), po_list=tuple(po_list),
                      sizes=tuple(sizes))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            try:
                spec = ExperimentSpec(kind=kind, scenario=builtin_scenarios()["desk"],
                                      out_dir=out, **fields)
            except ValueError:
                return
            try:
                written = run(spec)
            except (ValueError, NumericalCheckError):
                assert list(out.iterdir()) == []
                return
            assert written[-1] == out / "manifest.json"
            csvs = written[:-1]
            assert csvs and all(path.suffix == ".csv" for path in csvs)
            for path in csvs:
                assert len(path.read_text().splitlines()) >= 2, path.name
