import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afdmsim.csvio import CHUNK_ROWS, METRIC_COLUMNS, peak_db, write_csv
from afdmsim.experiments import ExperimentSpec, builtin_scenarios, run


def _fmt(value) -> str:
    """The per-cell formatter of the row-wise writer, kept as the byte oracle."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _row_wise_text(header, rows) -> str:
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in [header, *rows])


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
    path = write_csv(tmp_path / "f.csv", ["x"], [np.array([value])])
    text = path.read_text().splitlines()[1]
    assert float(text) == value


class _FailsOnSecondChunk:
    """A column of ones whose second chunk cannot be read."""

    def __len__(self):
        return 2 * CHUNK_ROWS

    def __getitem__(self, chunk: slice):
        if chunk.start:
            raise RuntimeError("column source failed")
        return np.ones(chunk.stop - chunk.start)


def test_failed_write_keeps_the_previous_file(tmp_path):
    # the first chunk is formatted and written before the second one fails
    (tmp_path / "f.csv").write_text("x\n0.5\n")
    with pytest.raises(RuntimeError, match="column source failed"):
        write_csv(tmp_path / "f.csv", ["x"], [_FailsOnSecondChunk()])
    assert (tmp_path / "f.csv").read_text() == "x\n0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]


@pytest.mark.parametrize("columns", [
    [np.arange(3), np.arange(2)],
    [np.arange(3)],
], ids=["unequal-lengths", "missing-column"])
def test_ragged_table_rejected(tmp_path, columns):
    with pytest.raises(ValueError, match="header names"):
        write_csv(tmp_path / "f.csv", ["a", "b"], columns)
    assert not list(tmp_path.iterdir())


def test_table_without_rows_is_its_header(tmp_path):
    # no experiment writes one (ExperimentSpec rejects a request with no rows)
    for columns in ([], [[] for _ in METRIC_COLUMNS]):
        write_csv(tmp_path / "f.csv", METRIC_COLUMNS, columns)
        assert (tmp_path / "f.csv").read_text() == ",".join(METRIC_COLUMNS) + "\n"


_SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
    1e16, 1e15, 1e-4, 1e-5, 0.1 + 0.2,
)


@st.composite
def tables(draw):
    """Float, int, bool and str columns of 0, 1, chunk-1, chunk or chunk+1 rows."""
    n = draw(st.sampled_from((0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1)))
    kinds = {
        "float": (st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()), float),
        "int": (st.integers(-(2**63), 2**63 - 1), np.int64),
        "bool": (st.booleans(), bool),
        "str": (st.text("abcdefghij_-.", min_size=1, max_size=8), str),
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=5))
    columns = []
    for name in names:
        elements, dtype = kinds[name]
        columns.append(np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype))
    return names, columns


@settings(deadline=None, max_examples=40)
@given(table=tables())
def test_columnar_writer_matches_row_wise_bytes(table):
    header, columns = table
    rows = list(zip(*columns))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "t.csv", header, columns)
        assert path.read_bytes() == _row_wise_text(header, rows).encode()
