"""Every benchmark workload's outputs against the committed references.

One cycle of each workload of ``perfbench/workloads.py`` runs in process at
the seeds ``perfbench/refs`` holds, and ``perfbench/outcheck.py`` checks each
file that every ``experiments.run`` call returns: float cells within
``outcheck.REL_BOUND`` of the reference, every other cell and each manifest
exactly. Both modules are imported from ``perfbench/`` and only read.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import afdmsim.csvio as csvio
from afdmsim.experiments import run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import outcheck  # noqa: E402
import workloads  # noqa: E402

#: the seeds with committed references
SEEDS = (1, 2)


def _problems(workload: str, seed: int, out_dir: Path) -> list[str]:
    """Run one cycle of ``workload`` into ``out_dir``; each problem, led by its spec's directory."""
    specs = workloads.build_specs(workload, seed, out_dir)
    checker = outcheck.OutputChecker(workload, seed, specs)
    assert checker.mode == "reference"
    return [
        f"{spec.out_dir.name}/{problem}"
        for i, spec in enumerate(specs)
        for problem in checker.check_call(i, [str(path) for path in run(spec)])
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_matches_its_references(workload, seed, tmp_path):
    assert _problems(workload, seed, tmp_path) == []


def test_one_cell_past_the_bound_fails_its_file(tmp_path, monkeypatch):
    # the first CSV written has the first non-zero cell of its first float
    # column scaled by 1 + 1e-9, a thousand times REL_BOUND; the check must
    # then report that file and nothing else
    write_csv = csvio.write_csv
    nudged = []

    def nudge_first(path, header, columns):
        if not nudged:
            columns = [np.asarray(column) for column in columns]
            i = next(i for i, column in enumerate(columns)
                     if column.dtype.kind == "f" and np.isfinite(column[0]) and column[0] != 0)
            columns[i] = columns[i].copy()
            columns[i][0] *= 1 + 1e-9
            nudged.append(Path(path).relative_to(tmp_path).as_posix())
        return write_csv(path, header, columns)

    monkeypatch.setattr(csvio, "write_csv", nudge_first)
    problems = _problems("mc-fft", 1, tmp_path)
    assert problems and all(problem.startswith(f"{nudged[0]}: ") for problem in problems)
