"""Waveform geometry, chirp-parameter presets, and scenario configuration.

A symbol of ``n_c`` samples is split into ``k_chirps`` periods of ``n_p``
samples each. The two chirp rates ``c1`` (time domain, cycles per
sample-squared) and ``c2`` (symbol-index domain) select the waveform family:

* ``proposed`` -- c1 = 1/(2*n_p), c2 = 0. The 0-th subcarrier is then a
  Nyquist-sampled periodic up-chirp (an FMCW sweep repeated k_chirps times),
  which is what the sensing pipelines in :mod:`afdmsim.sensing` exploit.
* ``classic``  -- c1 = (2*k_max+1)/(2*n_c), c2 = sqrt(2).
* ``ofdm``     -- c1 = c2 = 0.
* ``ocdm``     -- c1 = c2 = 1/(2*n_c).

``c1`` is always held as an exact :class:`fractions.Fraction` so that the
periodicity identities hold to rounding error rather than accumulating phase
drift (see :mod:`afdmsim._phase`).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

ChirpRate = Union[Fraction, float]

#: Each preset's chirp rates (c1, c2) from the symbol geometry and Doppler bound.
_RATES = {
    "proposed": lambda n_c, n_p, k_max: (Fraction(1, 2 * n_p), Fraction(0)),
    "classic": lambda n_c, n_p, k_max: (Fraction(2 * k_max + 1, 2 * n_c), math.sqrt(2.0)),
    "ofdm": lambda n_c, n_p, k_max: (Fraction(0), Fraction(0)),
    "ocdm": lambda n_c, n_p, k_max: (Fraction(1, 2 * n_c), Fraction(1, 2 * n_c)),
}

PRESET_NAMES = tuple(_RATES)


def _check_geometry(n_c: int, k_chirps: int, n_p: int) -> None:
    """Raise ValueError unless n_c = k_chirps * n_p with all three positive integers."""
    if not all(isinstance(v, numbers.Integral) and v > 0 for v in (n_c, k_chirps, n_p)):
        raise ValueError(
            f"n_c, k_chirps and n_p must be positive integers, got {n_c}, {k_chirps}, {n_p}"
        )
    if n_c != k_chirps * n_p:
        raise ValueError(
            f"n_c must equal k_chirps * n_p, got {n_c} != {k_chirps} * {n_p}"
        )


@dataclass(frozen=True)
class AfdmConfig:
    """Immutable symbol geometry plus chirp parameters.

    Attributes:
        n_c: samples (= subcarriers) per symbol.
        k_chirps: chirp periods per symbol (K).
        n_p: samples per chirp period; n_c = k_chirps * n_p.
        c1: time-domain chirp rate, exact rational.
        c2: symbol-index chirp rate; Fraction when exact, float otherwise.
        l_cpp: chirp-cyclic-prefix length in samples.
    """

    n_c: int
    k_chirps: int
    n_p: int
    c1: Fraction
    c2: ChirpRate
    l_cpp: int = 0

    def __post_init__(self) -> None:
        _check_geometry(self.n_c, self.k_chirps, self.n_p)
        if self.l_cpp < 0:
            raise ValueError("l_cpp must be non-negative")
        if not isinstance(self.c1, Fraction):
            raise TypeError("c1 must be an exact Fraction")

    @property
    def fmcw_equivalent(self) -> bool:
        """True when subcarrier 0 is an exact periodic chirp (FMCW sweep)."""
        return (
            self.n_p % 2 == 0
            and self.c1 == Fraction(1, 2 * self.n_p)
            and self.c2 == 0
        )

    def require_fmcw(self, what: str) -> None:
        if not self.fmcw_equivalent:
            raise ValueError(
                f"{what} requires the FMCW-equivalent parameter set "
                "(c1 = 1/(2*n_p), c2 = 0, even n_p)"
            )


def preset(
    name: str, n_c: int, k_chirps: int = 1, k_max: int = 0, l_cpp: int = 0
) -> AfdmConfig:
    """Build a named preset on a symbol of ``n_c`` samples in ``k_chirps`` periods.

    ``k_max`` enters only the ``classic`` c1; ``l_cpp`` is the chirp-cyclic
    prefix length of every preset. ``proposed`` needs an even chirp period
    n_p: an odd one breaks the exact periodicity of the quadratic phase, and
    subcarrier 0 would no longer equal the sampled FMCW sweep.
    """
    if name not in _RATES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    if k_chirps < 1 or n_c % k_chirps != 0:
        raise ValueError("k_chirps must divide n_c")
    n_p = n_c // k_chirps
    _check_geometry(n_c, k_chirps, n_p)  # before a rate divides by n_c or n_p
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if name == "proposed" and n_p % 2 != 0:
        raise ValueError(f"n_p must be even, got {n_p}")
    c1, c2 = _RATES[name](n_c, n_p, k_max)
    return AfdmConfig(n_c=n_c, k_chirps=k_chirps, n_p=n_p, c1=c1, c2=c2, l_cpp=l_cpp)


def proposed_params(n_p: int, k_chirps: int, l_cpp: int = 0) -> AfdmConfig:
    """The FMCW-equivalent set c1 = 1/(2*n_p), c2 = 0 on K periods of even ``n_p``."""
    return preset("proposed", n_p * k_chirps, k_chirps, l_cpp=l_cpp)


def classic_params(
    n_c: int, k_max: int, k_chirps: int = 1, l_cpp: int = 0
) -> AfdmConfig:
    """The conventional set c1 = (2*k_max+1)/(2*n_c), c2 = sqrt(2); K fixes only the grid."""
    return preset("classic", n_c, k_chirps, k_max, l_cpp)


# ---------------------------------------------------------------------------
# Scenario configuration and scenario files
# ---------------------------------------------------------------------------

#: Keys accepted in scenario files outside [path] blocks.
SCENARIO_KEYS = (
    "n_c",
    "k_chirps",
    "n_p",
    "preset",
    "k_max",
    "l_max",
    "snr_db",
    "pilot_overhead",
    "seed",
)

#: Keys accepted inside a [path] block.
PATH_KEYS = ("gain_re", "gain_im", "power", "phase", "l", "k")

#: The reference deployment: 79 GHz carrier, 15 kHz subcarrier spacing.
CARRIER_HZ, SUBCARRIER_SPACING_HZ = 79e9, 15e3


@dataclass(frozen=True)
class ScenarioConfig:
    """A named simulation scenario: geometry, channel bounds, and targets.

    ``targets`` holds (complex gain, delay tap, Doppler tap) triples; Doppler
    taps are signed integers. Every scenario shares the reference deployment's
    ``CARRIER_HZ`` and ``SUBCARRIER_SPACING_HZ``.
    """

    name: str
    n_c: int
    k_chirps: int
    n_p: int
    preset: str = "proposed"
    l_max: int = 0
    k_max: int = 0
    snr_db: float = 20.0
    pilot_overhead: float = 1.0
    rng_seed: int = 1
    targets: tuple[tuple[complex, int, int], ...] = ()

    def __post_init__(self) -> None:
        _check_geometry(self.n_c, self.k_chirps, self.n_p)
        if self.preset not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.preset!r}")
        for key in ("pilot_overhead", "snr_db", "l_max", "k_max", "rng_seed"):
            _check_field(key, getattr(self, key))
        if self.preset == "proposed":
            if self.k_chirps <= 2 * self.k_max:
                raise ValueError(
                    "path separability needs k_chirps > 2*k_max "
                    f"({self.k_chirps} <= {2 * self.k_max})"
                )
            if self.n_p <= self.l_max:
                raise ValueError(
                    f"path separability needs n_p > l_max ({self.n_p} <= {self.l_max})"
                )
        for target in self.targets:
            _check_target(target, self.l_max, self.k_max)

    @property
    def bandwidth_hz(self) -> float:
        return self.n_c * SUBCARRIER_SPACING_HZ

    def waveform(self, preset_name: str | None = None) -> AfdmConfig:
        """The AfdmConfig of a preset (default: the scenario's) on this grid.

        The chirp-cyclic prefix covers the largest delay: l_cpp = l_max + 1.
        """
        return preset(
            preset_name or self.preset, self.n_c, self.k_chirps, self.k_max, self.l_max + 1
        )


def _check_field(key: str, value) -> None:
    """Raise ValueError if the value of one ``ScenarioConfig`` field is invalid on its own."""
    if key == "pilot_overhead" and not 0.0 <= value <= 1.0:
        raise ValueError("pilot_overhead must lie in [0, 1]")
    if key == "snr_db" and (math.isnan(value) or value == -math.inf):
        raise ValueError(f"snr_db must be finite or +inf (noise-free), got {value}")
    if key in ("l_max", "k_max", "seed", "rng_seed") and value < 0:
        raise ValueError(f"{key} must be non-negative, got {value}")


def _check_target(target, l_max: int, k_max: int) -> None:
    """Raise ValueError if a (gain, l, k) target is invalid under the channel bounds."""
    gain, l, k = target
    if not cmath.isfinite(gain):
        raise ValueError(f"target gain {gain} must be finite")
    if not 0 <= l <= l_max:
        raise ValueError(f"target delay tap {l} outside [0, l_max]")
    if abs(k) > k_max:
        raise ValueError(f"target Doppler tap {k} outside [-k_max, k_max]")


class ScenarioError(ValueError):
    """Raised for malformed or incomplete scenario files."""


def _parse_value(key: str, raw: str):
    """The value of one ``key = raw`` line; a ValueError says what is wrong with it."""
    if key == "preset":
        if raw not in PRESET_NAMES:
            raise ValueError(f"unknown preset {raw!r}")
        return raw
    if key in ("n_c", "k_chirps", "n_p", "k_max", "l_max", "seed", "l", "k"):
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{key} must be an integer, got {raw!r}") from None
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{key} must be a number, got {raw!r}") from None
        if key in PATH_KEYS and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {raw!r}")
        if key == "power" and value < 0.0:
            raise ValueError(f"power must be >= 0, got {raw!r}")
    _check_field(key, value)
    return value


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file (``key = value`` lines plus [path] blocks).

    The scenario is named after the file stem. Unknown keys are rejected.
    Each ``[path]`` block declares one target via either
    ``gain_re``/``gain_im`` or ``power``/``phase``, plus taps ``l`` and ``k``.
    Every error names the file: a bad value also its line, a bad target its
    path block (counted from 0).
    """
    path = Path(path)
    top: dict[str, object] = {}
    paths: list[dict[str, float]] = []
    block: dict[str, float] | None = None

    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[path]":
            block = {}
            paths.append(block)
            continue
        if line.startswith("["):
            raise ScenarioError(f"{path}:{lineno}: unknown section {line}")
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if block is None:
            if key not in SCENARIO_KEYS:
                raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
            target = top
        else:
            if key not in PATH_KEYS:
                raise ScenarioError(f"{path}:{lineno}: unknown path key {key!r}")
            target = block
        if key in target:
            raise ScenarioError(f"{path}:{lineno}: {key} given twice")
        try:
            target[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: {exc}") from None

    if "n_c" not in top:
        raise ScenarioError(f"{path}: missing key n_c")
    if "k_chirps" not in top and "n_p" not in top:
        raise ScenarioError(f"{path}: missing key k_chirps")
    for key in ("k_chirps", "n_p"):  # either may divide n_c to give the other
        if key in top and top[key] < 1:
            raise ScenarioError(f"{path}: {key} must be >= 1, got {top[key]}")
    n_c = top["n_c"]
    k_chirps = top["k_chirps"] if "k_chirps" in top else n_c // top["n_p"]
    n_p = top["n_p"] if "n_p" in top else n_c // k_chirps

    l_max, k_max = int(top.get("l_max", 0)), int(top.get("k_max", 0))
    targets = []
    for i, block in enumerate(paths):
        if "l" not in block or "k" not in block:
            raise ScenarioError(f"{path}: path block {i} missing taps l/k")
        if "gain_re" in block or "gain_im" in block:
            gain = complex(block.get("gain_re", 0.0), block.get("gain_im", 0.0))
        elif "power" in block:
            gain = math.sqrt(block["power"]) * complex(
                math.cos(block.get("phase", 0.0)), math.sin(block.get("phase", 0.0))
            )
        else:
            raise ScenarioError(f"{path}: path block {i} needs gain_re/gain_im or power")
        targets.append((gain, int(block["l"]), int(block["k"])))
        try:
            _check_target(targets[-1], l_max, k_max)
        except ValueError as exc:
            raise ScenarioError(f"{path}: path block {i}: {exc}") from None

    try:
        return ScenarioConfig(
            name=path.stem,
            n_c=n_c,
            k_chirps=k_chirps,
            n_p=n_p,
            preset=str(top.get("preset", "proposed")),
            l_max=l_max,
            k_max=k_max,
            snr_db=float(top.get("snr_db", 20.0)),
            pilot_overhead=float(top.get("pilot_overhead", 1.0)),
            rng_seed=int(top.get("seed", 1)),
            targets=tuple(targets),
        )
    except ValueError as exc:  # a fault of several keys together: geometry, path separability
        raise ScenarioError(f"{path}: {exc}") from None
