"""Command-line interface.

One subcommand per experiment kind; flags override scenario-file values,
and a flag that the kind does not read is a configuration error.
Exit codes: 0 success, 1 configuration error, 2 numerical-check failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    NumericalCheckError,
    builtin_scenarios,
    resolve_scenario,
    run,
)
from .metrics import ALGORITHMS
from .params import PRESET_NAMES, ScenarioError

#: The ``ExperimentSpec`` field that each optional flag sets.
_FLAG_FIELDS = {
    "--preset": "presets",
    "--algorithm": "algorithms",
    "--seed": "seed",
    "--trials": "trials",
    "--snr": "snr_db_list",
    "--po": "po_list",
    "--sizes": "sizes",
    "--pilot-only-reference": "tfmf_reference",
}


def _kind_flags(kind: str) -> list[str]:
    """The optional flags that ``kind`` reads, in ``_FLAG_FIELDS`` order; any other is an error."""
    reads = EXPERIMENT_KINDS[kind].reads
    return [flag for flag, field in _FLAG_FIELDS.items() if field in reads]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afdmsim",
        description=(
            "Chirp-multicarrier ISAC simulation: delay-Doppler maps, ambiguity "
            "surfaces, metric sweeps, detection and BER Monte Carlo, and "
            "runtime scaling. Results are written as plot-ready CSV plus a "
            "manifest.json with the fully resolved configuration."
        ),
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    builtin_names = ", ".join(sorted(builtin_scenarios()))
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(
            kind.replace("_", "-"), help=f"run the {kind} experiment",
            description=f"Reads --scenario, --out and {', '.join(_kind_flags(kind))}.",
        )
        p.add_argument(
            "--scenario",
            default="table1",
            help=f"scenario file or builtin name ({builtin_names})",
        )
        p.add_argument(
            "--preset",
            action="append",
            choices=PRESET_NAMES,
            help="waveform preset (repeatable; default: scenario preset)",
        )
        p.add_argument(
            "--algorithm",
            action="append",
            choices=ALGORITHMS,
            help="sensing algorithm (repeatable; default: all applicable)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials")
        p.add_argument("--snr", type=float, nargs="+", default=None, help="SNR grid (dB)")
        p.add_argument("--po", type=float, nargs="+", default=None, help="pilot-overhead grid")
        p.add_argument(
            "--sizes", type=int, nargs="+", default=None, help="symbol sizes for runtime scaling"
        )
        p.add_argument(
            "--pilot-only-reference",
            action="store_const",
            const="pilot",
            help="match tfmf against the pilot only instead of the full transmit signal",
        )
        p.add_argument(
            "--out",
            default=None,
            help="output directory (default: $AFDMSIM_OUT or ./afdmsim_out)",
        )
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    kind = args.kind.replace("-", "_")
    given = {
        flag: value for flag in _FLAG_FIELDS
        if (value := getattr(args, flag[2:].replace("-", "_"))) is not None
    }
    ignored = [flag for flag in given if flag not in _kind_flags(kind)]
    if ignored:
        raise ValueError(f"{args.kind} does not use {', '.join(ignored)}")
    out = args.out or os.environ.get("AFDMSIM_OUT") or "afdmsim_out"
    return ExperimentSpec(
        kind=kind,
        scenario=resolve_scenario(args.scenario),
        out_dir=Path(out),
        **{
            _FLAG_FIELDS[flag]: tuple(value) if isinstance(value, list) else value
            for flag, value in given.items()
        },
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        written = run(spec)
    except NumericalCheckError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
