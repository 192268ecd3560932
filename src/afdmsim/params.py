"""Waveform geometry, chirp-parameter presets, channel paths and scenario configuration.

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
drift (see :mod:`afdmsim._phase`). A scenario's targets are ``PathTap`` paths.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from ._phase import chirp_phasor

ChirpRate = Union[Fraction, float]

#: Each preset's chirp rates (c1, c2) from the symbol geometry and Doppler bound.
_RATES = {
    "proposed": lambda n_c, n_p, k_max: (Fraction(1, 2 * n_p), Fraction(0)),
    "classic": lambda n_c, n_p, k_max: (Fraction(2 * k_max + 1, 2 * n_c), math.sqrt(2.0)),
    "ofdm": lambda n_c, n_p, k_max: (Fraction(0), Fraction(0)),
    "ocdm": lambda n_c, n_p, k_max: (Fraction(1, 2 * n_c), Fraction(1, 2 * n_c)),
}

PRESET_NAMES = tuple(_RATES)


def _is_integer(value) -> bool:
    """True for an integral number that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(name: str, value) -> None:
    """Reject a value that is no integer (a bool included) with a ValueError naming it."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def _check_integer_arrays(**named) -> None:
    """Reject, naming its argument, a value that is no integer or integer array (a bool included).

    Each keyword holds the values of one argument.
    """
    for name, values in named.items():
        for v in values:
            if np.asarray(v).dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers or integer arrays, got {v!r}")


def _check_index(name: str, value, stop: int) -> None:
    """Reject an index that is no integer (a bool included) or lies outside [0, ``stop``)."""
    if not (_is_integer(value) and 0 <= value < stop):
        raise ValueError(
            f"{name} must be an integer in [0, {stop}), got {type(value).__name__} {value!r}"
        )


def _is_real(value) -> bool:
    """True for a real number that is not a bool."""
    # exact float and int skip the ABC check: about 0.5 us that every
    # build_frame call would pay (2-vCPU host)
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def _check_finite_real(name: str, value) -> None:
    """Reject a value that is no real number (a bool included) or is not finite, naming it."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {type(value).__name__} {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")


def _check_geometry(n_c: int, k_chirps: int) -> None:
    """Raise ValueError unless n_c and k_chirps are positive integers and k_chirps divides n_c."""
    if not all(_is_integer(v) and v > 0 for v in (n_c, k_chirps)):
        raise ValueError(f"n_c and k_chirps must be positive integers, got {n_c}, {k_chirps}")
    if n_c % k_chirps:
        raise ValueError(f"k_chirps must divide n_c, got {n_c} % {k_chirps} != 0")


@dataclass(frozen=True)
class AfdmConfig:
    """Immutable symbol geometry plus chirp parameters.

    Attributes:
        n_c: samples (= subcarriers) per symbol.
        k_chirps: chirp periods per symbol (K); it divides n_c.
        n_p: samples per chirp period, the property n_c / k_chirps.
        c1: time-domain chirp rate, exact rational.
        c2: symbol-index chirp rate; Fraction when exact, float otherwise.
        l_cpp: chirp-cyclic-prefix length in samples; n_c, k_chirps and
            l_cpp are stored as ``int``.
        chirp_phasors: the modulator's chirp pair, built on first use and
            kept on this instance; equality and hashing read the fields only.
    """

    n_c: int
    k_chirps: int
    c1: Fraction
    c2: ChirpRate
    l_cpp: int = 0

    def __post_init__(self) -> None:
        _check_geometry(self.n_c, self.k_chirps)
        if not _is_integer(self.l_cpp):
            raise ValueError(f"l_cpp must be an integer, got {self.l_cpp!r}")
        if self.l_cpp < 0:
            raise ValueError("l_cpp must be non-negative")
        if not isinstance(self.c1, Fraction):
            raise TypeError("c1 must be an exact Fraction")
        if not isinstance(self.c2, Fraction):
            _check_finite_real("c2", self.c2)
        for name in ("n_c", "k_chirps", "l_cpp"):
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def n_p(self) -> int:
        """Samples per chirp period: n_c / k_chirps."""
        return self.n_c // self.k_chirps

    @cached_property
    def chirp_phasors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only exp(j2pi c2 m^2) over m and exp(j2pi c1 n^2) over n."""
        index = np.arange(self.n_c, dtype=np.int64)
        pair = chirp_phasor(self.c2, index), chirp_phasor(self.c1, index)
        for phasor in pair:
            phasor.flags.writeable = False
        return pair

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
    _check_geometry(n_c, k_chirps)  # before a rate divides by n_c or n_p
    n_p = n_c // k_chirps
    if not _is_integer(k_max) or k_max < 0:
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    if name == "proposed" and n_p % 2 != 0:
        raise ValueError(f"n_p must be even, got {n_p}")
    c1, c2 = _RATES[name](n_c, n_p, k_max)
    return AfdmConfig(n_c=n_c, k_chirps=k_chirps, c1=c1, c2=c2, l_cpp=l_cpp)


def proposed_params(n_p: int, k_chirps: int, l_cpp: int = 0) -> AfdmConfig:
    """The FMCW-equivalent set c1 = 1/(2*n_p), c2 = 0 on K periods of even ``n_p``."""
    if not (_is_integer(n_p) and n_p > 0):
        raise ValueError(f"n_p must be a positive integer, got {type(n_p).__name__} {n_p!r}")
    return preset("proposed", n_p * k_chirps, k_chirps, l_cpp=l_cpp)


def classic_params(
    n_c: int, k_max: int, k_chirps: int = 1, l_cpp: int = 0
) -> AfdmConfig:
    """The conventional set c1 = (2*k_max+1)/(2*n_c), c2 = sqrt(2); K fixes only the grid."""
    return preset("classic", n_c, k_chirps, k_max, l_cpp)


@dataclass(frozen=True)
class PathTap:
    """One scatterer: finite complex gain, integer delay tap >= 0, signed integer Doppler tap.

    The gain is stored as ``complex`` and the taps as ``int``, whatever number types they came
    as; a bool is none of them.
    """

    gain: complex
    delay_tap: int
    doppler_tap: int

    def __post_init__(self) -> None:
        for name in ("delay_tap", "doppler_tap"):
            _check_integer(name, getattr(self, name))
        if isinstance(self.gain, bool) or not isinstance(self.gain, numbers.Complex):
            raise ValueError(
                f"gain must be a complex number, got {type(self.gain).__name__} {self.gain!r}"
            )
        if not cmath.isfinite(self.gain):
            raise ValueError(f"target gain {self.gain} must be finite")
        if self.delay_tap < 0:
            raise ValueError("delay_tap must be non-negative")
        object.__setattr__(self, "gain", complex(self.gain))
        for name in ("delay_tap", "doppler_tap"):
            object.__setattr__(self, name, int(getattr(self, name)))


def _check_paths(paths) -> None:
    """Reject a path that is not a ``PathTap`` with a ValueError naming ``paths``."""
    for p in paths:
        if not isinstance(p, PathTap):
            raise ValueError(f"paths must hold PathTap paths, got {type(p).__name__} {p!r}")


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

    The geometry is ``n_c`` and ``k_chirps``; ``n_p`` is derived, as in
    ``AfdmConfig``. ``targets`` holds ``PathTap`` paths within the channel bounds (delay tap
    at most ``l_max``, Doppler tap at most ``k_max`` in magnitude); the
    first is the one the sweeps score. Every scenario shares the reference
    deployment's ``CARRIER_HZ`` and ``SUBCARRIER_SPACING_HZ``.
    """

    name: str
    n_c: int
    k_chirps: int
    preset: str = "proposed"
    l_max: int = 0
    k_max: int = 0
    snr_db: float = 20.0
    pilot_overhead: float = 1.0
    rng_seed: int = 1
    targets: tuple[PathTap, ...] = ()

    def __post_init__(self) -> None:
        _check_geometry(self.n_c, self.k_chirps)
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
            if not isinstance(target, PathTap):
                raise ValueError(f"targets must be PathTap paths, got {target!r}")
            _check_target(target.delay_tap, target.doppler_tap, self.l_max, self.k_max)
        for name in ("n_c", "k_chirps", "l_max", "k_max", "rng_seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("snr_db", "pilot_overhead"):
            object.__setattr__(self, name, float(getattr(self, name)))

    n_p = AfdmConfig.n_p

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


def noise_variance(snr_db: float) -> float:
    """Per-sample complex noise variance for a given symbol SNR in dB (unit signal power).

    +inf dB gives 0 (no noise), and so does a finite SNR whose power
    overflows a float; NaN, -inf and an SNR so low that the variance
    overflows are a ``ValueError``; so is a value that is no real number (a bool included).
    """
    if not _is_real(snr_db):
        raise ValueError(f"snr_db must be a real number, got {type(snr_db).__name__} {snr_db!r}")
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")
    try:
        power = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        return 0.0
    if power == 0.0 or 1.0 / power == math.inf:
        raise ValueError(f"snr_db {snr_db} is too low: its noise variance overflows")
    return 1.0 / power


def _check_field(key: str, value) -> None:
    """Raise ValueError if the value of one ``ScenarioConfig`` field is invalid on its own."""
    if key == "pilot_overhead" and not _is_real(value):
        raise ValueError(f"{key} must be a real number, got {type(value).__name__} {value!r}")
    if key in ("l_max", "k_max", "seed", "rng_seed") and not _is_integer(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if key == "pilot_overhead" and not 0.0 <= value <= 1.0:
        raise ValueError("pilot_overhead must lie in [0, 1]")
    if key == "snr_db":
        noise_variance(value)
    if key in ("l_max", "k_max", "seed", "rng_seed") and value < 0:
        raise ValueError(f"{key} must be non-negative, got {value}")


def _check_target(l: int, k: int, l_max: int, k_max: int) -> None:
    """Raise ValueError if a target's taps lie outside the channel bounds."""
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

    The scenario is named after the file stem. Unknown keys are rejected,
    and a key the file omits takes the ``ScenarioConfig`` default; ``seed``
    is ``rng_seed``, and ``n_p`` may stand for ``k_chirps = n_c / n_p``.
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
    for key in ("k_chirps", "n_p"):  # n_c is divided by either
        if key in top and top[key] < 1:
            raise ScenarioError(f"{path}: {key} must be >= 1, got {top[key]}")

    l_max, k_max = top.get("l_max", ScenarioConfig.l_max), top.get("k_max", ScenarioConfig.k_max)
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
        try:
            _check_target(block["l"], block["k"], l_max, k_max)
        except ValueError as exc:
            raise ScenarioError(f"{path}: path block {i}: {exc}") from None
        targets.append(PathTap(gain, block["l"], block["k"]))

    if "n_p" in top:  # the chirp period is an input only: it fixes k_chirps
        n_c, n_p = top["n_c"], top.pop("n_p")
        k_chirps = top.setdefault("k_chirps", n_c // n_p)
        if n_c != k_chirps * n_p:
            raise ScenarioError(
                f"{path}: n_c must equal k_chirps * n_p, got {n_c} != {k_chirps} * {n_p}"
            )
    if "seed" in top:
        top["rng_seed"] = top.pop("seed")
    try:
        return ScenarioConfig(name=path.stem, targets=tuple(targets), **top)
    except ValueError as exc:  # a fault of several keys together: geometry, path separability
        raise ScenarioError(f"{path}: {exc}") from None
