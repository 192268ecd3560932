"""Per-layer spans around afdmsim's public functions, installed from outside.

Every public function of each layer module is wrapped once, and the wrapper
is bound in place of the original at *every* module attribute that refers to
it -- the defining module, ``afdmsim/__init__`` and each module that did
``from .x import f``. A wrapper on the defining module alone would miss the
calls made through those imported names.

A span's self time is its duration minus the time covered by its child
spans. Tracer bookkeeping done after a span closes (counting maps, rows,
repeated phasor inputs) is charged to no span. Calls are counted for the
outermost span of an operation only, so ``chirp_phasor`` calling
``rational_phasor`` calling ``unit_phasor`` is one phasor call.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

#: The package modules that are the benchmark's layers (``cli`` is left out:
#: the workloads call ``experiments.run`` in process).
LAYERS = (
    "_phase", "params", "waveform", "channel", "ddgrid",
    "ambiguity", "sensing", "metrics", "experiments", "csvio",
)

#: (module, function) -> operation name. Public functions not listed here
#: get the operation ``<layer>.<function>``.
OPS = {
    ("_phase", "unit_phasor"): "phase.phasor",
    ("_phase", "rational_phasor"): "phase.phasor",
    ("_phase", "real_phasor"): "phase.phasor",
    ("_phase", "chirp_phasor"): "phase.phasor",
    ("waveform", "modulate"): "waveform.modulate",
    ("waveform", "demodulate"): "waveform.demodulate",
    ("waveform", "subcarrier"): "waveform.subcarrier",
    ("channel", "apply_channel"): "channel.apply",
    ("channel", "apply_channel_linear"): "channel.apply",
    ("channel", "add_awgn"): "channel.awgn",
    ("ddgrid", "io_predict"): "ddgrid.io_predict",
    ("ddgrid", "vector_to_grid"): "ddgrid.reshape",
    ("ddgrid", "grid_to_vector"): "ddgrid.reshape",
    ("ambiguity", "aaf_psi0_surface"): "ambiguity.surface",
    ("ambiguity", "dpaf_surface"): "ambiguity.surface",
    ("ambiguity", "aaf_psi0_closed"): "ambiguity.surface",
    ("sensing", "ddmf"): "sensing.ddmf",
    ("sensing", "ddmf_batch"): "sensing.ddmf",
    ("sensing", "tfmf"): "sensing.tfmf",
    ("sensing", "tfmf_batch"): "sensing.tfmf",
    ("sensing", "dechirp"): "sensing.dechirp",
    ("sensing", "dechirp_batch"): "sensing.dechirp",
    ("sensing", "ca_cfar_2d"): "sensing.cfar",
    ("sensing", "cfar_mask_batch"): "sensing.cfar",
    ("sensing", "cfar_threshold_factor"): "sensing.cfar",
    ("metrics", "build_frame"): "metrics.frame",
    ("metrics", "pslr"): "metrics.map_quality",
    ("metrics", "image_snr"): "metrics.map_quality",
    ("metrics", "build_effective_channel"): "metrics.effective_channel",
    ("metrics", "lmmse_detect"): "metrics.lmmse",
    ("metrics", "lmmse_ber_compare"): "metrics.ber",
    ("metrics", "ber"): "metrics.ber",
    ("metrics", "qam4_modulate"): "metrics.ber",
    ("metrics", "qam4_demodulate"): "metrics.ber",
    ("metrics", "rayleigh_gains"): "metrics.ber",
    ("csvio", "write_csv"): "csvio.write",
    ("csvio", "write_complex_series"): "csvio.write",
    ("csvio", "write_grid"): "csvio.write",
    ("csvio", "write_ddm"): "csvio.write",
    ("csvio", "write_af_surface"): "csvio.write",
    ("csvio", "write_metric_rows"): "csvio.write",
    ("experiments", "run"): "experiments.run",
}


def layer_prefix(module: str) -> str:
    return module.lstrip("_")


def op_name(module: str, function: str) -> str:
    return OPS.get((module, function), f"{layer_prefix(module)}.{function}")


class Tracer:
    """In-memory span stack with per-operation self time and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []  # [op, start, child_seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: set = set()

    def enter(self, op: str) -> bool:
        """Open a span; returns True when it is the outermost span of ``op``."""
        outermost = self._depth[op] == 0
        self._depth[op] += 1
        if outermost:
            self.counts[f"{op}.calls"] += 1
        self._stack.append([op, self.clock(), 0.0])
        return outermost

    def exit(self) -> None:
        op, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[op] += duration - child
        self._depth[op] -= 1
        if self._stack:
            self._stack[-1][2] += duration

    def exclude_since(self, t0: float) -> None:
        """Charge the time since ``t0`` to no span (tracer bookkeeping)."""
        if self._stack:
            self._stack[-1][2] += self.clock() - t0

    def note_input(self, op: str, key) -> None:
        """Count a call of ``op`` whose input key was already seen."""
        if key in self._seen:
            self.counts[f"{op}.repeats"] += 1
        else:
            self._seen.add(key)

    def snapshot(self) -> dict:
        if self._stack:
            raise RuntimeError("snapshot taken with spans still open")
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# Counters taken at particular functions
# ---------------------------------------------------------------------------

def _digest(value):
    if isinstance(value, Fraction):
        return ("fraction", value.numerator, value.denominator)
    if isinstance(value, float):
        return ("float", value.hex())
    arr = np.ascontiguousarray(value)
    return (arr.dtype.str, arr.shape, hashlib.blake2b(arr.tobytes(), digest_size=16).digest())


def _count_phasor(tracer, fn, bound, result, outermost):
    if outermost:
        key = (fn.__name__,) + tuple(_digest(v) for v in bound.arguments.values())
        tracer.note_input("phase.phasor", key)


def _count_maps(op: str, stack_arg: str):
    def counter(tracer, fn, bound, result, outermost):
        tracer.counts[f"{op}.maps"] += int(np.shape(bound.arguments[stack_arg])[0])
    return counter


def _count_cfar(tracer, fn, bound, result, outermost):
    mask = result[0]
    tracer.counts["sensing.cfar.maps"] += int(np.prod(mask.shape[:-2], dtype=np.int64))
    tracer.counts["sensing.cfar.detections"] += int(np.count_nonzero(mask))


def _count_realizations(tracer, fn, bound, result, outermost):
    if outermost:
        tracer.counts["metrics.ber.realizations"] += int(bound.arguments["realizations"])


def _count_csv(tracer, fn, bound, result, outermost):
    if outermost:
        data = Path(result).read_bytes()
        tracer.counts["csvio.write.bytes"] += len(data)
        tracer.counts["csvio.write.rows"] += data.count(b"\n") - 1


COUNTERS = {
    ("_phase", "unit_phasor"): _count_phasor,
    ("_phase", "rational_phasor"): _count_phasor,
    ("_phase", "real_phasor"): _count_phasor,
    ("_phase", "chirp_phasor"): _count_phasor,
    ("sensing", "ddmf_batch"): _count_maps("sensing.ddmf", "y_grids"),
    ("sensing", "tfmf_batch"): _count_maps("sensing.tfmf", "r_stack"),
    ("sensing", "dechirp_batch"): _count_maps("sensing.dechirp", "r_stack"),
    ("sensing", "cfar_mask_batch"): _count_cfar,
    ("metrics", "lmmse_ber_compare"): _count_realizations,
    **{("csvio", name): _count_csv for name in (
        "write_csv", "write_complex_series", "write_grid", "write_ddm",
        "write_af_surface", "write_metric_rows",
    )},
}


def _wrap(tracer: Tracer, fn, op: str, counter):
    if counter is None:
        @functools.wraps(fn)
        def plain(*args, **kwargs):
            tracer.enter(op)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return plain

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        outermost = tracer.enter(op)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        t0 = tracer.clock()
        counter(tracer, fn, signature.bind(*args, **kwargs), result, outermost)
        tracer.exclude_since(t0)
        return result
    return counted


def install(tracer: Tracer):
    """Wrap every public layer function at every binding; returns an undo list."""
    wrappers = {}
    for module in LAYERS:
        mod = importlib.import_module(f"afdmsim.{module}")
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            wrappers[fn] = _wrap(
                tracer, fn, op_name(module, name), COUNTERS.get((module, name))
            )
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "afdmsim" and not modname.startswith("afdmsim."):
            continue
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((mod, name, value))
                setattr(mod, name, wrappers[value])
    return undo


def uninstall(undo) -> None:
    for mod, name, original in undo:
        setattr(mod, name, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from per-cycle snapshots
# ---------------------------------------------------------------------------

#: Operations whose median self time per cycle is reported as ``<op>.self_s``.
TIMED_OPS = (
    "sensing.ddmf", "sensing.cfar", "sensing.tfmf", "sensing.dechirp",
    "metrics.frame", "metrics.map_quality", "waveform.modulate",
    "waveform.demodulate", "waveform.subcarrier", "channel.apply", "channel.awgn",
    "phase.phasor", "metrics.effective_channel", "metrics.lmmse", "metrics.ber",
    "csvio.write", "ambiguity.surface", "ddgrid.io_predict", "ddgrid.reshape",
    "experiments.run",
)
#: Counts reported per cycle, by metric name -> tracer counter.
COUNTED = {
    name: name for name in (
        "sensing.ddmf.maps", "sensing.cfar.maps", "sensing.tfmf.maps",
        "sensing.dechirp.maps", "metrics.frame.calls", "waveform.modulate.calls",
        "waveform.demodulate.calls", "waveform.subcarrier.calls",
        "channel.apply.calls", "phase.phasor.calls",
        "metrics.effective_channel.calls", "metrics.ber.realizations",
        "csvio.write.rows", "csvio.write.bytes", "ambiguity.surface.calls",
        "experiments.run.calls",
    )
} | {"metrics.lmmse.solves": "metrics.lmmse.calls"}
MAP_OPS = ("sensing.ddmf", "sensing.tfmf", "sensing.dechirp")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(cycles: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from traced cycles of identical work.

    Counts are taken from the first cycle; times are medians over cycles.
    Returns (metrics, problems), where problems lists every count that
    differed between cycles.
    """
    counts = cycles[0]["counts"]
    problems = [
        f"count {key} differs between traced cycles"
        for key in sorted(set().union(*(c["counts"] for c in cycles)))
        if len({c["counts"].get(key, 0) for c in cycles}) > 1
    ]
    self_s = median_self_s(cycles)
    out: dict[str, float] = {}
    for name, key in COUNTED.items():
        out[name] = counts.get(key, 0)
    for op in TIMED_OPS:
        out[f"{op}.self_s"] = self_s.get(op, 0.0)
    for op in (*MAP_OPS, "sensing.cfar"):
        out[f"{op}.s_per_map"] = _ratio(self_s.get(op, 0.0), counts.get(f"{op}.maps", 0))
    out["sensing.cfar.detections_per_map"] = _ratio(
        counts.get("sensing.cfar.detections", 0), counts.get("sensing.cfar.maps", 0)
    )
    maps = sum(counts.get(f"{op}.maps", 0) for op in MAP_OPS)
    out["metrics.frames_per_map"] = _ratio(counts.get("metrics.frame.calls", 0), maps)
    out["phase.phasor.repeat_ratio"] = _ratio(
        counts.get("phase.phasor.repeats", 0), counts.get("phase.phasor.calls", 0)
    )
    for module in LAYERS:
        prefix = layer_prefix(module) + "."
        out[f"layer.{layer_prefix(module)}.self_s"] = sum(
            t for op, t in self_s.items() if op.startswith(prefix)
        )
    return out, problems


def median_self_s(cycles: list[dict]) -> dict[str, float]:
    """Median self time per cycle of every operation seen."""
    ops = set().union(*(c["self_s"] for c in cycles))
    return {op: statistics.median(c["self_s"].get(op, 0.0) for c in cycles) for op in ops}


def top_ops(cycles: list[dict]) -> list[tuple[str, float]]:
    """The five operations with the largest median self time per cycle."""
    return sorted(median_self_s(cycles).items(), key=lambda kv: -kv[1])[:5]
