"""Checks every file an ``experiments.run`` call returns.

For the seeds that have committed references (``refs/index.json``) each file
is compared with its reference:

* non-float columns (integers, booleans, names) must be identical;
* float columns must agree within ``REL_BOUND`` of the column's largest
  reference magnitude, so rounding-noise cells (such as off-support
  ambiguity entries near 1e-16) cannot fail the check on their own;
* ``magnitude_db`` columns are compared the same way after conversion to
  linear amplitude, since a dB value of a noise cell carries no precision;
* ``io_check``'s ``max_abs_error`` only has to stay below the program's
  ``IO_CHECK_TOLERANCE``;
* ``manifest.json`` must parse to the same object.

Every seed, with or without references, also gets invariant checks: the same
file names and headers as the references, pd and BER in [0, 1], the
requested trial counts, full-size maps peaking at 0 dB and ``passed=true``.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import math
from pathlib import Path

from afdmsim.csvio import METRIC_COLUMNS
from afdmsim.experiments import IO_CHECK_TOLERANCE

#: ROADMAP aim 2: rounding may differ by at most 1e-12 relative.
REL_BOUND = 1e-12
#: Reference cells below this share of the bound are stored as 0.
NOISE_SHARE = 1e-3

REFS_DIR = Path(__file__).resolve().parent / "refs"

METRIC_KINDS = ("snr_sweep", "po_sweep", "pd_curve", "ber_curve")


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _float_column(cells: list[str]) -> bool:
    return bool(cells) and all(map(_is_float, cells)) and not all(map(_is_int, cells))


def _linear(column: str, cell: str) -> float:
    value = float(cell)
    return 10.0 ** (value / 20.0) if column == "magnitude_db" else value


def _scale(column: str, cells: list[str]) -> float:
    finite = [abs(_linear(column, c)) for c in cells]
    finite = [v for v in finite if math.isfinite(v)]
    return max(finite, default=0.0)


def _floats_agree(got: float, ref: float, tol: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return got == ref or (math.isnan(ref) and math.isnan(got))
    return abs(got - ref) <= tol


def compare_csv(got_text: str, ref_text: str) -> list[str]:
    """Problems found comparing a CSV with its reference (empty when equal)."""
    got_header, got_rows = parse_csv(got_text)
    ref_header, ref_rows = parse_csv(ref_text)
    if got_header != ref_header:
        return [f"header {got_header} != reference {ref_header}"]
    if len(got_rows) != len(ref_rows):
        return [f"{len(got_rows)} rows, reference has {len(ref_rows)}"]
    if any(len(row) != len(ref_header) for row in got_rows):
        return ["row with the wrong number of fields"]
    problems = []
    for j, column in enumerate(ref_header):
        ref_cells = [row[j] for row in ref_rows]
        got_cells = [row[j] for row in got_rows]
        if column == "max_abs_error":
            bad = [c for c in got_cells if not float(c) < IO_CHECK_TOLERANCE]
            if bad:
                problems.append(f"max_abs_error {bad[0]} not below {IO_CHECK_TOLERANCE}")
            continue
        if not _float_column(ref_cells):
            for i, (g, r) in enumerate(zip(got_cells, ref_cells)):
                if g != r:
                    problems.append(f"row {i} {column}: {g!r} != reference {r!r}")
                    break
            continue
        if not all(map(_is_float, got_cells)):
            problems.append(f"column {column} holds a non-number")
            continue
        tol = REL_BOUND * _scale(column, ref_cells)
        for i, (g, r) in enumerate(zip(got_cells, ref_cells)):
            if not _floats_agree(_linear(column, g), _linear(column, r), tol):
                problems.append(
                    f"row {i} {column}: {g} differs from reference {r} by more than {tol:.3g}"
                )
                break
    return problems


def stored_form(text: str) -> str:
    """A reference CSV with float cells far below the bound written as 0.0.

    Cells smaller than ``NOISE_SHARE * REL_BOUND`` of their column's largest
    magnitude carry only rounding noise. Zeroing them moves each reference
    value by at most a thousandth of the bound and keeps the committed
    references small: the off-support cells of the ``classic`` and ``ocdm``
    ambiguity surfaces are random digits that LZMA cannot compress, and
    stored as they are the references take 1.25 MB instead of 98 kB.
    """
    header, rows = parse_csv(text)
    for j, column in enumerate(header):
        cells = [row[j] for row in rows]
        if column == "magnitude_db" or not _float_column(cells):
            continue
        floor = NOISE_SHARE * REL_BOUND * _scale(column, cells)
        for row in rows:
            value = float(row[j])
            if math.isfinite(value) and abs(value) < floor:
                row[j] = "0.0"
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


# ---------------------------------------------------------------------------
# Invariants (every seed)
# ---------------------------------------------------------------------------

def expected_trials(spec) -> int:
    """Value of the ``trials`` column: trials, or bits for ``ber_curve``."""
    if spec.kind != "ber_curve":
        return spec.trials
    realizations = max(1, spec.trials // 10)
    per_real = max(1, spec.trials // realizations)
    return realizations * per_real * spec.scenario.n_c * 2


def invariants(spec, name: str, text: str) -> list[str]:
    if name == "manifest.json":
        manifest = json.loads(text)
        want = {"kind": spec.kind, "seed": spec.seed, "trials": spec.trials}
        return [
            f"manifest {key}={manifest.get(key)!r}, expected {value!r}"
            for key, value in want.items() if manifest.get(key) != value
        ]
    header, rows = parse_csv(text)
    col = {c: [row[j] for row in rows] for j, c in enumerate(header)}
    if not rows:
        return ["no data rows"]
    sc = spec.scenario
    problems = []
    if spec.kind in METRIC_KINDS:
        if header != METRIC_COLUMNS:
            return [f"header {header} != {METRIC_COLUMNS}"]
        for key in ("pd", "ber"):
            for cell in col[key]:
                value = float(cell)
                if not (math.isnan(value) or 0.0 <= value <= 1.0):
                    problems.append(f"{key}={cell} outside [0, 1]")
        want = expected_trials(spec)
        if any(int(c) != want for c in col["trials"]):
            problems.append(f"trials column differs from the requested {want}")
    elif spec.kind in ("ddm", "af_surface"):
        width = sc.n_c if spec.kind == "af_surface" else sc.k_chirps
        if len(rows) != sc.n_p * width:
            problems.append(f"{len(rows)} rows, expected {sc.n_p * width}")
        db = [float(c) for c in col["magnitude_db"]]
        if abs(max(db)) > 1e-9:
            problems.append(f"peak magnitude_db {max(db)} is not 0")
    elif spec.kind == "io_check":
        if col["passed"] != ["true"]:
            problems.append(f"passed={col['passed']}")
        if not float(col["max_abs_error"][0]) < IO_CHECK_TOLERANCE:
            problems.append(f"max_abs_error {col['max_abs_error'][0]} not below tolerance")
        if int(col["trials"][0]) != spec.trials:
            problems.append(f"trials {col['trials'][0]} != requested {spec.trials}")
    return problems


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

def load_blob(digest: str) -> str:
    return lzma.decompress((REFS_DIR / f"{digest}.xz").read_bytes()).decode()


class OutputChecker:
    """Checks the files of each call of one workload run.

    ``mode`` is ``"reference"`` when the seed has committed references and
    ``"invariants"`` otherwise. Verdicts are cached by file content, so a
    repeated identical output is parsed once.
    """

    def __init__(self, workload: str, seed: int, specs):
        index = json.loads((REFS_DIR / "index.json").read_text())
        runs = index["runs"][workload]
        self.specs = specs
        self.mode = "reference" if str(seed) in runs else "invariants"
        self.refs = runs[str(seed) if self.mode == "reference" else str(index["seeds"][0])]
        self._verdicts: dict[tuple[int, str, bytes], list[str]] = {}

    def check_call(self, spec_index: int, paths: list[str]) -> list[str]:
        ref_files = self.refs[spec_index]
        names = [Path(p).name for p in paths]
        if names != [name for name, _ in ref_files]:
            return [f"spec {spec_index} wrote {names}, expected {[n for n, _ in ref_files]}"]
        problems = []
        for path, (name, digest) in zip(paths, ref_files):
            try:
                text = Path(path).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                problems.append(f"{name}: unreadable ({exc})")
                continue
            key = (spec_index, name, hashlib.sha256(text.encode()).digest())
            if key not in self._verdicts:
                try:
                    verdict = self._check_file(spec_index, name, digest, text)
                except (ValueError, KeyError, IndexError) as exc:
                    verdict = [f"malformed ({type(exc).__name__}: {exc})"]
                self._verdicts[key] = verdict
            problems += [f"{name}: {p}" for p in self._verdicts[key]]
        return problems

    def _check_file(self, spec_index: int, name: str, digest: str, text: str) -> list[str]:
        spec = self.specs[spec_index]
        ref = load_blob(digest)
        problems = invariants(spec, name, text)
        if name == "manifest.json":
            if self.mode == "reference" and json.loads(text) != json.loads(ref):
                problems.append("manifest differs from reference")
            return problems
        if self.mode == "reference":
            return problems + compare_csv(text, ref)
        header, ref_header = parse_csv(text)[0], parse_csv(ref)[0]
        if header != ref_header:
            problems.append(f"header {header} != reference {ref_header}")
        return problems
