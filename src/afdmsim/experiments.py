"""Experiment orchestration: scenarios, runs, and CSV artifacts.

Every run resolves a scenario (built-in name or file) and executes one
experiment kind for each requested (preset, algorithm) combination.
``EXPERIMENT_KINDS`` maps each kind to its runner and to the spec fields it
reads. Only runners turn a scenario into engine inputs (waveform, pilot
overhead, ``PathTap`` targets, ``trial_rng(spec.resolved_seed, t)``
streams, which the sweeps take from one ``trial_rngs`` iterator per engine
call). A runner yields ``(file name, header, columns)`` tables;
:func:`run` alone writes them as ``<kind>_<preset>_<algorithm>.csv`` plus
``manifest.json`` recording the fully resolved configuration, and removes
its outputs and any manifest on failure. Fixed seeds give byte-identical CSVs, except for
``runtime_scaling`` whose rows contain wall-clock measurements.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import csvio
from .ambiguity import aaf_psi0_closed, dpaf_surface
from .channel import apply_channel, noise_variance
from .ddgrid import grid_to_vector, io_predict, vector_to_grid
from .metrics import (
    ALGORITHMS,
    CFAR_GUARD,
    CFAR_PFA,
    CFAR_TRAIN,
    _check_reference,
    _first_repeat,
    lmmse_ber_compare,
    sensing_maps,
    trial_metrics,
    trial_rng,
    trial_rngs,
)
from .params import (
    CARRIER_HZ,
    PRESET_NAMES,
    SUBCARRIER_SPACING_HZ,
    AfdmConfig,
    PathTap,
    ScenarioConfig,
    _is_integer,
    _is_real,
    load_scenario,
    preset,
)
from .sensing import _ddmf_direct, dechirp_batch, tfmf_batch
from .waveform import demodulate, modulate, subcarrier

IO_CHECK_TOLERANCE = 1e-9

#: Chirp periods per symbol and timed repetitions (the best is kept) of
#: ``benchmark_pipelines``.
BENCHMARK_K_CHIRPS, BENCHMARK_REPS = 8, 9


class NumericalCheckError(RuntimeError):
    """A numerical self-check exceeded its tolerance."""


def builtin_scenarios() -> dict[str, ScenarioConfig]:
    """Named reference scenarios.

    ``table1``/``fig5``: the full-scale grid with a single unit target at
    (10, 3); ``fig4``: three targets with powers 0.6/0.3/0.1; ``desk``: a
    scaled-down grid for fast experimentation.
    """
    full = dict(n_c=512, k_chirps=8, l_max=10, k_max=3)
    three = (
        PathTap(math.sqrt(0.6) + 0.0j, 3, 0),
        PathTap(math.sqrt(0.3) + 0.0j, 7, 2),
        PathTap(math.sqrt(0.1) + 0.0j, 10, 3),
    )
    unit = (PathTap(1.0 + 0.0j, 10, 3),)
    return {
        "table1": ScenarioConfig(
            name="table1", targets=unit, snr_db=20.0,
            pilot_overhead=1.0, rng_seed=1, **full,
        ),
        "fig4": ScenarioConfig(
            name="fig4", targets=three, snr_db=20.0,
            pilot_overhead=1.0, rng_seed=1, **full,
        ),
        "fig5": ScenarioConfig(
            name="fig5", targets=unit, snr_db=20.0,
            pilot_overhead=1.0, rng_seed=1, **full,
        ),
        "desk": ScenarioConfig(
            name="desk", n_c=32, k_chirps=4, l_max=2, k_max=1,
            targets=(PathTap(1.0 + 0.0j, 1, 1),), snr_db=20.0,
            pilot_overhead=1.0, rng_seed=7,
        ),
    }


def resolve_scenario(ref: str | Path | ScenarioConfig) -> ScenarioConfig:
    """A scenario itself, the built-in of that name, or the scenario file at that path.

    A bare name (no directory part, no suffix) that is neither a built-in
    nor an existing file is a ValueError naming the built-ins, so that a
    misspelt one does not read as a missing file.
    """
    if isinstance(ref, ScenarioConfig):
        return ref
    builtins = builtin_scenarios()
    if isinstance(ref, str) and ref in builtins:
        return builtins[ref]
    path = Path(ref)
    if str(ref) == path.name and not path.suffix and not path.exists():
        raise ValueError(f"unknown scenario {str(ref)!r}: no file of that name and no built-in "
                         f"({', '.join(sorted(builtins))})")
    return load_scenario(ref)


@dataclass(frozen=True)
class ExperimentSpec:
    """One orchestrated run: what to compute and where to put it."""

    kind: str
    scenario: ScenarioConfig
    out_dir: Path
    presets: tuple[str, ...] = ()
    algorithms: tuple[str, ...] = ALGORITHMS
    seed: int | None = None
    trials: int = 100
    snr_db_list: tuple[float, ...] = (0.0, 10.0, 20.0)
    po_list: tuple[float, ...] = (0.0, 0.5, 1.0)
    sizes: tuple[int, ...] = (256, 512, 1024, 2048)
    tfmf_reference: str = "transmit"

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        reads = EXPERIMENT_KINDS[self.kind].reads
        for name, known in (("presets", PRESET_NAMES), ("algorithms", ALGORITHMS)):
            unknown = [value for value in getattr(self, name) if value not in known]
            if unknown:
                raise ValueError(f"unknown {name} {unknown}; expected some of {list(known)}")
        seeds = () if self.seed is None else (self.seed,)
        for name, values, kind in (
            ("trials", (self.trials,), "int"), ("seed", seeds, "int"), ("sizes", self.sizes, "int"),
            ("snr_db_list", self.snr_db_list, "real"), ("po_list", self.po_list, "real"),
        ):
            for value in values:
                if not (_is_integer if kind == "int" else _is_real)(value):
                    raise ValueError(f"{name} must be {kind}, got {type(value).__name__} {value!r}")
        # the manifest records plain numbers, whatever number types came in
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", None if self.seed is None else int(self.seed))
        object.__setattr__(self, "sizes", tuple(int(n_c) for n_c in self.sizes))
        for name in ("snr_db_list", "po_list"):
            object.__setattr__(self, name, tuple(float(value) for value in getattr(self, name)))
        _check_reference(self.tfmf_reference)
        if self.tfmf_reference == "pilot" and "tfmf" not in self.algorithms:
            raise ValueError("--pilot-only-reference sets the reference of tfmf, which is not run")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not all(math.isfinite(snr) for snr in self.snr_db_list):
            raise ValueError(f"SNR values must be finite, got {list(self.snr_db_list)}")
        for snr in self.snr_db_list:
            noise_variance(snr)  # a ValueError below the lowest SNR a float can model
        if not all(0.0 <= po <= 1.0 for po in self.po_list):  # False for NaN too
            raise ValueError(f"po_list values must lie in [0, 1], got {list(self.po_list)}")
        for name in ("snr_db_list", "po_list"):
            if name in reads and not getattr(self, name):
                raise ValueError(f"{self.kind} needs at least one value in {name}")
        if "algorithms" in reads:
            for preset_name in self.resolved_presets:
                if not _algorithms_for(preset_name, self.algorithms):
                    raise ValueError(
                        f"preset {preset_name!r} runs none of the algorithms "
                        f"{list(self.algorithms)} (ddmf needs the 'proposed' preset)"
                    )
        for name in ("presets", "algorithms", "snr_db_list", "po_list", "sizes"):
            repeated = _first_repeat(getattr(self, name))
            if repeated is not None:
                raise ValueError(f"{name} repeats the value {repeated!r}")
        for preset_name in self.resolved_presets:  # the manifest records each waveform
            try:
                self.scenario.waveform(preset_name)
            except ValueError as exc:
                raise ValueError(
                    f"scenario {self.scenario.name!r}: preset {preset_name!r} does not fit "
                    f"its grid: {exc}"
                ) from None
        for n_c in self.sizes:  # each is timed on the proposed preset's grid
            try:
                preset("proposed", n_c, BENCHMARK_K_CHIRPS)
            except ValueError as exc:
                raise ValueError(
                    f"size {n_c} is no proposed symbol of {BENCHMARK_K_CHIRPS} chirps: {exc}"
                ) from None
        if self.kind == "runtime_scaling" and len(self.sizes) < 2:
            raise ValueError(
                f"runtime_scaling fits slopes and needs two or more sizes, got {list(self.sizes)}"
            )
        if self.kind == "ber_curve" and self.trials % self.ber_realizations:
            raise ValueError(
                f"ber_curve trials {self.trials} must be a multiple of its "
                f"{self.ber_realizations} channel realizations (trials // 10)"
            )
        runner = EXPERIMENT_KINDS[self.kind].runner
        if runner in (_run_sweep, _run_ber_curve) and not self.scenario.targets:
            raise ValueError(
                f"scenario {self.scenario.name!r}: no target for {self.kind} to score"
            )
        window = 2 * (CFAR_TRAIN + CFAR_GUARD) + 1
        grid = (self.scenario.n_p, self.scenario.k_chirps)
        if runner is _run_sweep and min(grid) < window:
            raise ValueError(
                f"scenario {self.scenario.name!r}: its {grid} delay-Doppler grid is smaller "
                f"than the CFAR window {window} of {self.kind}"
            )

    @property
    def resolved_presets(self) -> tuple[str, ...]:
        """The presets the run covers; a kind that reads no presets runs ``proposed``."""
        if "presets" not in EXPERIMENT_KINDS[self.kind].reads:
            return ("proposed",)
        return self.presets or (self.scenario.preset,)

    @property
    def resolved_seed(self) -> int:
        return self.scenario.rng_seed if self.seed is None else self.seed

    @property
    def ber_realizations(self) -> int:
        """``ber_curve``'s channel realizations: one per 10 trials (symbols), at least one."""
        return max(1, self.trials // 10)


def _algorithms_for(preset_name: str, algorithms) -> tuple[str, ...]:
    """ddmf requires the FMCW-equivalent set; drop it for other presets."""
    if preset_name == "proposed":
        return tuple(algorithms)
    return tuple(a for a in algorithms if a != "ddmf")


def _scenario_manifest(sc: ScenarioConfig) -> dict:
    return asdict(sc) | {
        "n_p": sc.n_p,
        "bandwidth_hz": sc.bandwidth_hz,
        "carrier_hz": CARRIER_HZ,
        "subcarrier_spacing_hz": SUBCARRIER_SPACING_HZ,
        "targets": [
            {"gain_re": t.gain.real, "gain_im": t.gain.imag, "l": t.delay_tap, "k": t.doppler_tap}
            for t in sc.targets
        ],
    }


def _config_manifest(config: AfdmConfig) -> dict:
    """Fields of ``config`` and its ``n_p``, exact rates as text, and the sweep count ``z_a``.

    ``z_a`` is 1 for the FMCW-equivalent set and None otherwise.
    """
    return asdict(config) | {
        "n_p": config.n_p,
        "c1": str(config.c1),
        "c2": str(config.c2),
        "z_a": 1 if config.fmcw_equivalent else None,
    }


def run(spec: ExperimentSpec) -> list[Path]:
    """Execute one experiment; returns the paths written (manifest last).

    On failure every file this run wrote is removed, and so is any
    ``manifest.json`` already in ``out_dir``, so a failed run never leaves
    a manifest that lists files it has deleted.
    """
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_tmp = out_dir / ".manifest.json.tmp"
    written: list[Path] = []
    outputs: dict[str, list[str]] = {}
    try:
        for name, header, columns in EXPERIMENT_KINDS[spec.kind].runner(spec):
            written.append(csvio.write_csv(out_dir / name, header, columns))
            outputs[name] = list(header)
        manifest = {
            "kind": spec.kind,
            "scenario": _scenario_manifest(spec.scenario),
            "presets": list(spec.resolved_presets),
            "waveforms": {
                name: _config_manifest(spec.scenario.waveform(name))
                for name in spec.resolved_presets
            },
            "algorithms": list(spec.algorithms),
            "seed": spec.resolved_seed,
            "trials": spec.trials,
            "snr_db_list": list(spec.snr_db_list),
            "po_list": list(spec.po_list),
            "sizes": list(spec.sizes),
            "tfmf_reference": spec.tfmf_reference,
            "cfar": {"train": CFAR_TRAIN, "guard": CFAR_GUARD, "pfa": CFAR_PFA},
            "outputs": outputs,
        }
        manifest_tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        os.replace(manifest_tmp, manifest_path)
        written.append(manifest_path)
        return written
    except Exception:
        for path in (*written, manifest_path, manifest_tmp):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        raise


# ---------------------------------------------------------------------------
# Individual experiment kinds: each yields (file name, header, columns) tables
# ---------------------------------------------------------------------------

def _grid_columns(*planes) -> list[np.ndarray]:
    """Row-major ``l, k, value, ...`` columns of equal-shape 2-D arrays."""
    n_l, n_k = planes[0].shape
    return [*np.divmod(np.arange(n_l * n_k), n_k), *(plane.ravel() for plane in planes)]


def _run_ddm(spec):
    sc = spec.scenario
    for preset_name in spec.resolved_presets:
        maps = next(sensing_maps(
            sc.waveform(preset_name), sc.pilot_overhead, sc.targets, sc.snr_db,
            _algorithms_for(preset_name, spec.algorithms), [trial_rng(spec.resolved_seed, 0)],
            tfmf_reference=spec.tfmf_reference,
        ))
        for alg, cells in maps.items():
            yield (f"ddm_{preset_name}_{alg}.csv", ["l", "k", "magnitude_db"],
                   _grid_columns(csvio.peak_db(cells[0])))


def _run_af_surface(spec):
    """The base subcarrier's auto-ambiguity at delays 0..n_p-1 (one chirp period)."""
    sc = spec.scenario
    for preset_name in spec.resolved_presets:
        config = sc.waveform(preset_name)
        if config.fmcw_equivalent:
            l = np.arange(config.n_p)[:, None]
            k = np.arange(config.n_c)[None, :]
            cells = aaf_psi0_closed(config, l, k)
        else:
            base = subcarrier(config, 0)
            cells = dpaf_surface(base, base, n_delays=config.n_p)
        yield (f"af_surface_{preset_name}_psi0.csv", ["l", "k", "re", "im", "magnitude_db"],
               _grid_columns(cells.real, cells.imag, csvio.peak_db(cells)))


def _sweep_rows(spec, preset_name, snr_values, po_values):
    """Metric rows of one preset, one engine call per PO, trial t on ``trial_rng(seed, t)``'s stream.

    Each call reads its trials' generators from one ``trial_rngs`` iterator,
    which seeds them a chunk at a time.
    """
    rows = []
    config = spec.scenario.waveform(preset_name)
    algorithms = _algorithms_for(preset_name, spec.algorithms)
    for po in po_values:
        # one engine call simulates each trial once for every SNR point
        samples = trial_metrics(
            config, po, spec.scenario.targets, snr_values, algorithms,
            trial_rngs(spec.resolved_seed, range(spec.trials)),
            spec.tfmf_reference, quality=spec.kind != "pd_curve",
        )
        for i, snr in enumerate(snr_values):
            for alg in algorithms:
                pslr_db, image_snr_db, pd = (float(np.mean(v[i])) for v in samples[alg])
                rows.append((float(snr), float(po), alg, preset_name,
                             pslr_db, image_snr_db, pd, math.nan, spec.trials))
    return rows


def _run_sweep(spec):
    """``snr_sweep`` and ``pd_curve`` over the SNR list, ``po_sweep`` over the PO list.

    ``pd_curve`` lists its rows by algorithm, then SNR, and measures no PSLR
    or image SNR (NaN).
    """
    sc = spec.scenario
    for preset_name in spec.resolved_presets:
        if spec.kind == "po_sweep":
            rows = _sweep_rows(spec, preset_name, (sc.snr_db,), spec.po_list)
        else:
            rows = _sweep_rows(spec, preset_name, spec.snr_db_list, (sc.pilot_overhead,))
        if spec.kind == "pd_curve":
            n = len(_algorithms_for(preset_name, spec.algorithms))
            rows = [row for j in range(n) for row in rows[j::n]]
        yield f"{spec.kind}_{preset_name}_all.csv", csvio.METRIC_COLUMNS, list(zip(*rows))


def _run_ber_curve(spec):
    sc = spec.scenario
    counts = lmmse_ber_compare(
        {name: sc.waveform(name) for name in spec.resolved_presets},
        sc.targets, spec.snr_db_list, spec.ber_realizations,
        spec.trials // spec.ber_realizations, spec.resolved_seed,
    )
    for preset_name in spec.resolved_presets:
        rows = []
        for snr in spec.snr_db_list:
            errors, bits = counts[(preset_name, float(snr))]
            rows.append((float(snr), 0.0, "lmmse", preset_name,
                         math.nan, math.nan, math.nan, errors / bits, bits))
        yield f"ber_curve_{preset_name}_lmmse.csv", csvio.METRIC_COLUMNS, list(zip(*rows))


def _run_io_check(spec):
    (preset_name,) = spec.resolved_presets
    config = spec.scenario.waveform(preset_name)
    rng = trial_rng(spec.resolved_seed, 0)
    # the Doppler taps whose shifts stay separable: K = 1 leaves only 0
    k_edge = (config.k_chirps - 1) // 2
    worst = 0.0
    for _ in range(spec.trials):
        x_grid = rng.standard_normal((config.n_p, config.k_chirps)) + 1j * rng.standard_normal(
            (config.n_p, config.k_chirps)
        )
        n_paths = int(rng.integers(1, 4))
        paths = [
            PathTap(
                complex(rng.standard_normal(), rng.standard_normal()),
                int(rng.integers(0, config.n_p)),
                int(rng.integers(-k_edge, k_edge + 1)),
            )
            for _ in range(n_paths)
        ]
        predicted = io_predict(config, x_grid, paths)
        s = modulate(config, grid_to_vector(config, x_grid))
        r = apply_channel(config, s, paths)
        observed = vector_to_grid(config, demodulate(config, r))
        worst = max(worst, float(np.abs(predicted - observed).max()))
    yield (
        f"io_check_{preset_name}_all.csv",
        ["n_c", "trials", "max_abs_error", "tolerance", "passed"],
        [(config.n_c,), (spec.trials,), (worst,), (IO_CHECK_TOLERANCE,),
         (worst < IO_CHECK_TOLERANCE,)],
    )
    if worst >= IO_CHECK_TOLERANCE:
        raise NumericalCheckError(
            f"grid I/O relation error {worst:.3e} exceeds {IO_CHECK_TOLERANCE:.1e}"
        )


def _best_round_robin(runs) -> list[float]:
    """Best per-map seconds of each (run, maps) over ``BENCHMARK_REPS`` rounds.

    Each round times every run once, so a phase of host load slows every
    run of the round alike instead of tilting one size's timing.
    """
    rounds = []
    for _ in range(BENCHMARK_REPS):
        times = []
        for run, maps in runs:
            t0 = time.perf_counter()
            run()
            times.append((time.perf_counter() - t0) / maps)
        rounds.append(times)
    return [min(times) for times in zip(*rounds)]


def benchmark_pipelines(sizes, seed: int = 0) -> list[tuple[str, int, float]]:
    """Per-map runtimes (best of ``BENCHMARK_REPS``) for each pipeline at each size, by size.

    Pipelines are timed in batch mode so per-call dispatch overhead does not
    mask the per-map work: O(n_c log n_c) for the transform pipelines and
    O(n_c^2) for the grid matched filter as the paper states it (the direct
    form, ``_ddmf_direct``; ``ddmf_batch`` computes the same maps in
    O(K n_c log n_c)). The matched-filter batch holds
    2**24 / n_c^2 maps (at most 256), so its contraction works on the same
    4 MB at every size from 256 to 2048: no size gets a cache advantage
    that would tilt the measured slope. The transform pipelines' repetitions
    go round-robin over the sizes, then the matched filter's.
    """
    rng = np.random.default_rng(seed)
    batches_fast = [int(np.clip(2**21 // n_c, 64, 8192)) for n_c in sizes]
    # every size's transform batch is a view of one draw, so that holding
    # all of them for the round-robin costs no more memory than one
    total = max(b * n_c for b, n_c in zip(batches_fast, sizes))
    samples = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    fast_runs, ddmf_runs = [], []
    for n_c, batch_fast in zip(sizes, batches_fast):
        config = preset("proposed", n_c, BENCHMARK_K_CHIRPS)
        pilot = subcarrier(config, 0)
        stack = samples[: batch_fast * n_c].reshape(batch_fast, n_c)
        n_p, K = config.n_p, config.k_chirps

        run_tfmf = partial(tfmf_batch, config, stack, pilot)
        run_dechirp = partial(dechirp_batch, config, stack, pilot)
        batch_mf = int(np.clip(2**24 // (n_c * n_c), 1, 256))
        y = rng.standard_normal((batch_mf, n_p, K)) + 1j * rng.standard_normal(
            (batch_mf, n_p, K)
        )
        x = np.broadcast_to(
            rng.standard_normal((1, n_p, K)) + 1j * rng.standard_normal((1, n_p, K)),
            (batch_mf, n_p, K),
        ).copy()

        run_ddmf = partial(_ddmf_direct, config, y, x)
        run_tfmf(), run_dechirp(), run_ddmf()  # warm-up
        fast_runs += [(run_tfmf, batch_fast), (run_dechirp, batch_fast)]
        ddmf_runs.append((run_ddmf, batch_mf))
    fast = iter(_best_round_robin(fast_runs))
    results = [(alg, n_c, next(fast)) for n_c in sizes for alg in ("tfmf", "dechirp")]
    results += [("ddmf", n_c, t) for n_c, t in zip(sizes, _best_round_robin(ddmf_runs))]
    return sorted(results, key=lambda row: sizes.index(row[1]))


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(np.asarray(sizes, float)), np.log(times), 1)[0])


def _run_runtime_scaling(spec):
    rows = benchmark_pipelines(spec.sizes, seed=spec.resolved_seed)
    by_alg: dict[str, list[tuple[int, float]]] = {}
    for alg, n_c, seconds in rows:
        by_alg.setdefault(alg, []).append((n_c, seconds))
    yield ("runtime_scaling_proposed_all.csv", ["algorithm", "n_c", "seconds_per_map"],
           list(zip(*rows)))
    yield "runtime_slopes_proposed_all.csv", ["algorithm", "slope"], [
        list(by_alg),
        [loglog_slope([n for n, _ in pts], [s for _, s in pts]) for pts in by_alg.values()],
    ]


class ExperimentKind(NamedTuple):
    """An experiment kind's runner and the ``ExperimentSpec`` fields it reads
    (``scenario`` and ``out_dir`` not counted)."""

    runner: Callable[[ExperimentSpec], Iterator[tuple]]
    reads: tuple[str, ...]


_SWEEP_READS = ("presets", "algorithms", "seed", "trials", "tfmf_reference")

#: Every experiment kind, in the CLI's order.
EXPERIMENT_KINDS = {
    "ddm": ExperimentKind(_run_ddm, ("presets", "algorithms", "seed", "tfmf_reference")),
    "af_surface": ExperimentKind(_run_af_surface, ("presets",)),
    "snr_sweep": ExperimentKind(_run_sweep, (*_SWEEP_READS, "snr_db_list")),
    "po_sweep": ExperimentKind(_run_sweep, (*_SWEEP_READS, "po_list")),
    "pd_curve": ExperimentKind(_run_sweep, (*_SWEEP_READS, "snr_db_list")),
    "ber_curve": ExperimentKind(_run_ber_curve, ("presets", "seed", "trials", "snr_db_list")),
    "io_check": ExperimentKind(_run_io_check, ("seed", "trials")),
    "runtime_scaling": ExperimentKind(_run_runtime_scaling, ("seed", "sizes")),
}
