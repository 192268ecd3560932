"""The benchmark's workloads: fixed lists of ``experiments.run`` specs.

Each workload is one *cycle* of ``ExperimentSpec`` calls that the closed loop
repeats. Every spec uses a built-in scenario at its built-in size, with the
workload seed passed through as ``ExperimentSpec.seed``. Trial counts stay at
the scale of the README examples so that per-trial overhead is not hidden
behind a tiny batch.

Why each workload exists, and which layer it should leave alone:

* ``mc-ddmf``   -- sensing Monte Carlo with the O(n_c^2) grid matched filter;
  ``sensing.ddmf`` dominates. Predicts no change from LMMSE work (never
  calls ``metrics.lmmse``).
* ``mc-fft``    -- the same trial loops with ``tfmf``/``dechirp`` only, across
  all four presets plus a pilot-referenced TFMF run; CA-CFAR and per-trial
  frame/phasor/channel overhead dominate. Predicts no change from ``ddmf``
  work (zero ddmf maps).
* ``ber-link``  -- LMMSE BER over a fading channel; the dense effective
  channel and the solves dominate. Predicts no change from sensing work
  (never calls ``sensing``).
* ``artifacts`` -- ambiguity surfaces, a delay-Doppler map dump and the grid
  I/O self-check; CSV formatting dominates. Predicts no change from Monte
  Carlo trial-loop work (no ``snr_sweep``/``pd_curve`` runs, no ddmf maps).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from afdmsim.csvio import METRIC_COLUMNS
from afdmsim.experiments import ExperimentSpec, builtin_scenarios

from outcheck import parse_csv

ALL_PRESETS = ("proposed", "classic", "ofdm", "ocdm")

#: Trials per Monte-Carlo condition (README examples use 100-500).
SENSING_TRIALS = 100
#: ber_curve trials: 10 channel realizations of 10 symbols each.
BER_TRIALS = 100
IO_CHECK_TRIALS = 100

#: What one unit of ``work_per_s`` is on each workload.
WORK_UNITS = {
    "mc-ddmf": "sensing maps (sum of the CSV trials column)",
    "mc-fft": "sensing maps (sum of the CSV trials column)",
    "ber-link": "detected bits (sum of the CSV trials column)",
    "artifacts": "CSV data rows written",
}

WORKLOADS = tuple(WORK_UNITS)


def build_specs(workload: str, seed: int, out_dir: Path) -> list[ExperimentSpec]:
    """The cycle of specs for ``workload``; spec ``i`` writes to ``out_dir/s<i>``.

    Sweeps are split into one call per preset (or pilot overhead) wherever
    that leaves the amount of work unchanged, so that each call lasts about a
    second or less and is calibrated by the kernel runs right before and
    after it (``speed.py``); a long call tracks the host's changes of speed
    worse. Over five seeded runs, ``work_per_s`` spread by 0.078 (standard
    deviation over median) on ``artifacts`` with ``af_surface`` as one call
    and by 0.023 with one call per preset; on ``ber-link`` by 0.051 and 0.026.
    """
    sc = builtin_scenarios()
    t = SENSING_TRIALS
    if workload == "mc-ddmf":
        specs = [
            dict(kind="snr_sweep", scenario=sc["fig4"], presets=("proposed",),
                 snr_db_list=(10.0,), trials=t),
            *(dict(kind="po_sweep", scenario=sc["fig5"], presets=("proposed",),
                   po_list=(po,), trials=t) for po in (0.0, 0.5, 1.0)),
            dict(kind="pd_curve", scenario=sc["fig4"], presets=("proposed",),
                 algorithms=("ddmf", "tfmf"), snr_db_list=(10.0,), trials=t),
        ]
    elif workload == "mc-fft":
        fft = ("tfmf", "dechirp")
        specs = [
            *(dict(kind=kind, scenario=sc[scenario], presets=(preset,),
                   algorithms=fft, snr_db_list=(0.0, 10.0), trials=t)
              for kind, scenario in (("snr_sweep", "fig4"), ("pd_curve", "fig5"))
              for preset in ALL_PRESETS),
            dict(kind="snr_sweep", scenario=sc["fig4"], presets=("proposed",),
                 algorithms=("tfmf",), snr_db_list=(10.0,), trials=t,
                 tfmf_reference="pilot"),
        ]
    elif workload == "ber-link":
        specs = [
            dict(kind="ber_curve", scenario=sc["fig4"], presets=(preset,),
                 snr_db_list=(5.0, 15.0), trials=BER_TRIALS)
            for preset in ("proposed", "classic")
        ]
    elif workload == "artifacts":
        specs = [
            *(dict(kind="af_surface", scenario=sc["table1"], presets=(preset,))
              for preset in ALL_PRESETS),
            # tfmf/dechirp only, so that ddmf maps stay unique to mc-ddmf
            dict(kind="ddm", scenario=sc["fig4"], presets=("proposed",),
                 algorithms=("tfmf", "dechirp")),
            dict(kind="io_check", scenario=sc["desk"], trials=IO_CHECK_TRIALS),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return [
        ExperimentSpec(out_dir=Path(out_dir) / f"s{i}", seed=seed, **kw)
        for i, kw in enumerate(specs)
    ]


def warmup_specs(specs: list[ExperimentSpec]) -> list[ExperimentSpec]:
    """One single-trial run per experiment kind, into ``<out_dir>-warmup``."""
    first: dict[str, ExperimentSpec] = {}
    for spec in specs:
        first.setdefault(spec.kind, spec)
    return [
        dataclasses.replace(spec, trials=1, out_dir=Path(f"{spec.out_dir}-warmup"))
        for spec in first.values()
    ]


def work_units(workload: str, paths: list[str]) -> int:
    """Work done by one call, counted from the files it returned."""
    total = 0
    for path in paths:
        if not path.endswith(".csv"):
            continue
        header, rows = parse_csv(Path(path).read_text())
        if workload == "artifacts":
            total += len(rows)
        elif header == METRIC_COLUMNS:
            j = header.index("trials")
            total += sum(int(row[j]) for row in rows)
    return total


# ---------------------------------------------------------------------------
# Tracing self-checks and the layer each workload should stress
# ---------------------------------------------------------------------------

_SENSING_LOOP = (
    "sensing.cfar.maps", "sensing.cfar.s_per_map", "sensing.cfar.detections_per_map",
    "sensing.tfmf.s_per_map", "sensing.dechirp.s_per_map",
    "metrics.frame.calls", "metrics.frame.self_s", "metrics.frames_per_map",
    "metrics.map_quality.self_s", "waveform.modulate.calls", "waveform.modulate.self_s",
    "waveform.subcarrier.calls", "waveform.subcarrier.self_s",
    "channel.apply.calls", "channel.apply.self_s", "channel.awgn.self_s",
    "phase.phasor.calls", "phase.phasor.self_s", "phase.phasor.repeat_ratio",
)
_ALWAYS = (
    "csvio.write.rows", "csvio.write.bytes", "csvio.write.self_s",
    "experiments.run.calls", "experiments.run.self_s",
)

#: Per-layer metrics that must be non-zero on a workload that uses the layer.
EXPECT_NONZERO = {
    "mc-ddmf": _SENSING_LOOP + _ALWAYS + (
        "sensing.ddmf.maps", "sensing.ddmf.s_per_map", "waveform.demodulate.calls",
        "waveform.demodulate.self_s", "ddgrid.reshape.self_s",
    ),
    "mc-fft": _SENSING_LOOP + _ALWAYS,
    "ber-link": _ALWAYS + (
        "metrics.effective_channel.calls", "metrics.effective_channel.self_s",
        "metrics.lmmse.solves", "metrics.lmmse.self_s",
        "metrics.ber.realizations", "metrics.ber.self_s",
        "phase.phasor.calls", "phase.phasor.self_s",
    ),
    "artifacts": _ALWAYS + (
        "ambiguity.surface.calls", "ambiguity.surface.self_s",
        "ddgrid.io_predict.self_s", "ddgrid.reshape.self_s",
        "waveform.modulate.calls", "waveform.demodulate.calls",
        "waveform.subcarrier.calls", "channel.apply.calls",
    ),
}

#: Per-layer metrics that must stay zero: the layer the workload bypasses.
EXPECT_ZERO = {
    "mc-ddmf": ("metrics.lmmse.solves", "metrics.ber.realizations"),
    "mc-fft": ("sensing.ddmf.maps", "metrics.lmmse.solves"),
    "ber-link": (
        "sensing.ddmf.maps", "sensing.cfar.maps", "sensing.tfmf.maps",
        "sensing.dechirp.maps", "metrics.frame.calls",
    ),
    "artifacts": ("sensing.ddmf.maps", "sensing.cfar.maps", "metrics.lmmse.solves"),
}

#: Operations predicted to have the largest self time on each workload
#: (a group is compared by its summed self time).
PREDICTED_TOP = {
    "mc-ddmf": ("sensing.ddmf",),
    "mc-fft": ("sensing.cfar",),
    "ber-link": ("metrics.effective_channel", "metrics.lmmse"),
    "artifacts": ("csvio.write",),
}


def trace_expectations(workload: str, layer: dict[str, float]) -> list[str]:
    """Tracing-completeness problems: metrics zero where used, or used where not."""
    return [
        f"{name} is 0 on {workload}" for name in EXPECT_NONZERO[workload] if not layer[name]
    ] + [
        f"{name} is {layer[name]} on {workload}, expected 0"
        for name in EXPECT_ZERO[workload] if layer[name]
    ]


def layer_prediction(workload: str, self_s: dict[str, float]) -> str:
    """Whether the predicted operation(s) hold the largest self time."""
    group = PREDICTED_TOP[workload]
    group_s = sum(self_s.get(op, 0.0) for op in group)
    rival = max(((s, op) for op, s in self_s.items() if op not in group), default=(0.0, "none"))
    verdict = "held" if group_s >= rival[0] else "NOT held"
    return (f"{' + '.join(group)} {group_s:.3f} s vs next {rival[1]} {rival[0]:.3f} s: "
            f"{verdict}")
