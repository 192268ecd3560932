import numpy as np
import pytest

from afdmsim.csvio import peak_db, write_csv
from afdmsim.experiments import ExperimentSpec, builtin_scenarios, run


def test_ddm_is_peak_normalized():
    cells = np.zeros((4, 2), dtype=complex)
    cells[1, 0] = 10.0
    cells[2, 1] = 1.0j
    db = peak_db(cells)
    assert db[1, 0] == 0.0
    assert db[2, 1] == -20.0
    assert db[0, 0] == -300.0


def test_all_zero_map_is_at_the_floor():
    assert (peak_db(np.zeros((2, 3), dtype=complex)) == -300.0).all()


def test_af_surface_columns(tmp_path):
    # the base chirp's closed-form surface: peak n_c at (0, 0), exact zeros off support
    spec = ExperimentSpec(kind="af_surface", scenario=builtin_scenarios()["desk"],
                          out_dir=tmp_path, presets=("proposed",))
    run(spec)
    lines = (tmp_path / "af_surface_proposed_psi0.csv").read_text().splitlines()
    assert lines[0] == "l,k,re,im,magnitude_db"
    assert lines[1] == "0,0,32.0,0.0,0.0"
    assert lines[2] == "0,1,0.0,0.0,-300.0"


def test_float_formatting_round_trips(tmp_path):
    value = 0.1 + 0.2  # 0.30000000000000004
    path = write_csv(tmp_path / "f.csv", ["x"], [(value,)])
    text = path.read_text().splitlines()[1]
    assert float(text) == value


def test_failed_write_keeps_the_previous_file(tmp_path):
    def rows():
        yield (1.0,)
        raise RuntimeError("row source failed")

    (tmp_path / "f.csv").write_text("x\n0.5\n")
    with pytest.raises(RuntimeError):
        write_csv(tmp_path / "f.csv", ["x"], rows())
    assert (tmp_path / "f.csv").read_text() == "x\n0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]
