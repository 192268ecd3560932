"""Deterministic CSV emission.

Floats are written with ``repr`` (shortest round-trip form) and files use
LF newlines, so identical data always produces byte-identical output.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

#: Level written for cells that are zero or more than 300 dB below the peak.
_FLOOR_DB = -300.0

METRIC_COLUMNS = [
    "snr_db",
    "po",
    "algorithm",
    "preset",
    "pslr_db",
    "image_snr_db",
    "pd",
    "ber",
    "trials",
]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header, rows) -> Path:
    """Write ``header`` and ``rows`` to ``path``; returns ``path``.

    The file is written under a temporary name in the same directory and
    renamed into place, so a failure never leaves a truncated file under
    ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def peak_db(cells) -> np.ndarray:
    """Magnitude in dB relative to the peak magnitude, floored at -300 dB.

    An all-zero array is at the floor everywhere.
    """
    mag = np.abs(cells)
    peak = mag.max(initial=0.0)
    if peak == 0.0:
        return np.full(mag.shape, _FLOOR_DB)
    with np.errstate(divide="ignore"):
        return np.maximum(20.0 * np.log10(mag / peak), _FLOOR_DB)
