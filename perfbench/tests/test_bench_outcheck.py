"""The benchmark's output check: bounds, invariants and committed references.

Run with ``python3 -m pytest perfbench/tests``.
"""

from afdmsim.experiments import IO_CHECK_TOLERANCE, ExperimentSpec, builtin_scenarios, run

import outcheck
import workloads
from outcheck import REL_BOUND, compare_csv, stored_form

SURFACE = (
    "l,k,re,im,magnitude_db\n"
    "0,0,512.0,1.4833496611564965e-16,-1.9286549331065743e-15\n"
    "0,1,7.382679934035724e-16,-1.0104974292027919e-16,-300.0\n"
    "1,0,-256.0,3.0,-6.020599913279624\n"
)


def _with_cell(text, row, col, value):
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def test_identical_output_passes():
    assert compare_csv(SURFACE, SURFACE) == []


def test_float_within_bound_of_column_max_passes():
    # column re has max |512|: 0.5e-12 * 512 is inside the bound
    got = _with_cell(SURFACE, 2, 2, repr(-256.0 + 0.5 * REL_BOUND * 512))
    assert compare_csv(got, SURFACE) == []


def test_float_beyond_bound_of_column_max_fails():
    got = _with_cell(SURFACE, 2, 2, repr(-256.0 + 2.0 * REL_BOUND * 512))
    problems = compare_csv(got, SURFACE)
    assert len(problems) == 1 and "row 2 re" in problems[0]


def test_rounding_noise_cell_passes_against_column_max():
    # an off-support entry moving from 7e-16 to -3e-15 is rounding noise
    got = _with_cell(SURFACE, 1, 2, "-3e-15")
    assert compare_csv(got, SURFACE) == []


def test_magnitude_db_is_compared_in_linear_amplitude():
    noise = _with_cell(SURFACE, 1, 4, "-290.0")  # 3e-15 in amplitude
    assert compare_csv(noise, SURFACE) == []
    real = _with_cell(SURFACE, 2, 4, "-6.0206")
    assert compare_csv(real, SURFACE) != []


def test_non_float_columns_must_be_identical():
    assert compare_csv(_with_cell(SURFACE, 2, 0, "2"), SURFACE) != []
    rows = "snr_db,algorithm,pd\n10.0,tfmf,0.5\n"
    assert compare_csv(rows.replace("tfmf", "ddmf"), rows) != []


def test_max_abs_error_only_needs_to_stay_below_tolerance():
    ref = f"n_c,trials,max_abs_error,tolerance,passed\n32,100,1e-15,{IO_CHECK_TOLERANCE},true\n"
    assert compare_csv(ref.replace("1e-15", "4e-12"), ref) == []
    assert compare_csv(ref.replace("1e-15", repr(2 * IO_CHECK_TOLERANCE)), ref) != []


def test_stored_form_zeroes_only_noise_and_still_matches():
    stored = stored_form(SURFACE)
    assert "0,1,0.0,0.0,-300.0" in stored
    assert "1.4833496611564965e-16" not in stored
    assert compare_csv(SURFACE, stored) == []


def test_invariants_catch_out_of_range_pd_and_wrong_trials():
    spec = workloads.build_specs("mc-fft", 9, "unused")[0]
    header = "snr_db,po,algorithm,preset,pslr_db,image_snr_db,pd,ber,trials\n"
    good = header + "10.0,1.0,tfmf,proposed,12.0,30.0,0.97,nan,100\n"
    assert outcheck.invariants(spec, "snr_sweep_proposed_all.csv", good) == []
    bad = header + "10.0,1.0,tfmf,proposed,12.0,30.0,1.5,nan,99\n"
    assert len(outcheck.invariants(spec, "snr_sweep_proposed_all.csv", bad)) == 2


def _spec_index(specs, kind):
    (i,) = [i for i, spec in enumerate(specs) if spec.kind == kind]
    return i


def test_committed_references_match_a_fresh_run(tmp_path):
    specs = workloads.build_specs("artifacts", 1, tmp_path)
    checker = outcheck.OutputChecker("artifacts", 1, specs)
    assert checker.mode == "reference"
    for kind in ("ddm", "io_check"):  # af_surface is covered by the benchmark
        i = _spec_index(specs, kind)
        paths = [str(p) for p in run(specs[i])]
        assert checker.check_call(i, paths) == []


def test_unreferenced_seed_gets_invariant_checks(tmp_path):
    specs = workloads.build_specs("artifacts", 12345, tmp_path)
    checker = outcheck.OutputChecker("artifacts", 12345, specs)
    assert checker.mode == "invariants"
    i = _spec_index(specs, "io_check")
    paths = [str(p) for p in run(specs[i])]
    assert checker.check_call(i, paths) == []


def test_a_wrong_output_fails_the_reference_check(tmp_path):
    spec = ExperimentSpec(
        kind="io_check", scenario=builtin_scenarios()["desk"], out_dir=tmp_path,
        trials=7, seed=1,
    )
    specs = workloads.build_specs("artifacts", 1, tmp_path)
    checker = outcheck.OutputChecker("artifacts", 1, specs)
    paths = [str(p) for p in run(spec)]
    problems = checker.check_call(_spec_index(specs, "io_check"), paths)
    assert any("trials 7" in p for p in problems)  # not the requested 100
