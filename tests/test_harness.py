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

    @pytest.mark.parametrize("kind", ["io_check", "runtime_scaling", "io-check"])
    def test_kind_without_presets_runs_and_records_proposed(self, tmp_path, kind):
        # "io-check" runs the command line on a scenario file whose preset is classic
        if kind == "io-check":
            scen = tmp_path / "classic.txt"
            scen.write_text("n_c = 32\nk_chirps = 4\npreset = classic\nk_max = 1\nl_max = 2\n")
            assert main([kind, "--scenario", str(scen), "--trials", "3",
                         "--out", str(tmp_path)]) == 0
        else:
            scenario = replace(builtin_scenarios()["desk"], preset="classic")
            spec = ExperimentSpec(kind=kind, scenario=scenario, out_dir=tmp_path, trials=3)
            assert spec.resolved_presets == ("proposed",)
            if kind == "runtime_scaling":
                return
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

    def test_snr_past_the_float_range_runs_noise_free(self, tmp_path):
        code = main(["snr-sweep", "--scenario", "fig5", "--snr", "4000",
                     "--trials", "2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "manifest.json").exists()

    def test_spec_snr_whose_variance_overflows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"snr_db -4000\.0 is too low"):
            ExperimentSpec(kind="pd_curve", scenario=builtin_scenarios()["desk"],
                           out_dir=tmp_path, snr_db_list=(0.0, -4000.0))

    @pytest.mark.parametrize("trials", [1, 2, 15, 20, 100])
    def test_ber_trials_that_fill_every_realization_accepted(self, tmp_path, trials):
        ExperimentSpec(kind="ber_curve", scenario=builtin_scenarios()["desk"],
                       out_dir=tmp_path, trials=trials)

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

    def test_sweeps_seed_one_trial_iterator_per_call(self, tmp_path, monkeypatch):
        # every (preset, PO) engine call takes one trial_rngs iterator of all
        # its trials; no sweep seeds a trial through trial_rng
        import afdmsim.experiments as experiments

        calls = []

        def counted(seed, trials):
            calls.append((seed, trials))
            return metrics.trial_rngs(seed, trials)

        def unused(*args):
            raise AssertionError("a sweep trial was seeded one at a time")

        monkeypatch.setattr(experiments, "trial_rngs", counted)
        monkeypatch.setattr(experiments, "trial_rng", unused)
        monkeypatch.setattr(metrics, "trial_rng", unused)
        scenario = ScenarioConfig(name="s", n_c=64, k_chirps=8, l_max=1, k_max=1,
                                  targets=(PathTap(1.0, 1, 1),))
        for kind, presets, n_calls in (("snr_sweep", ("proposed", "classic"), 2),
                                       ("pd_curve", ("proposed", "ocdm"), 2),
                                       ("po_sweep", ("proposed",), 3)):
            calls.clear()
            run(self._spec(kind, tmp_path / kind, scenario=scenario, presets=presets,
                           algorithms=("tfmf",), trials=100, po_list=(0.0, 0.5, 1.0)))
            assert calls == [(21, range(100))] * n_calls, kind

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
