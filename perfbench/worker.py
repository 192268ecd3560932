"""One benchmark process; started by ``run.py``, never by hand.

    worker.py setup   --workload W --seed N --out DIR
    worker.py measure --workload W --seed N --out DIR --seconds S --trace 0|1

Both modes set up first: import afdmsim from the checkout's ``src``, resolve
the built-in scenarios, build the workload's specs and make one single-trial
warm-up ``run()`` per experiment kind. ``setup`` then exits; its parent times
it from spawn to exit. ``measure`` then issues ``experiments.run`` calls as a
closed loop with one client -- each call starts when the previous one
returns -- cycling through the workload's specs until at least ``--seconds``
have passed, and writes ``DIR/worker.json`` with every call's duration, the
calibration times bracketing it (``speed.py``) and its returned paths, the
process's peak resident memory and, when traced, one per-layer snapshot per
cycle.

With ``--trace 1`` cycles alternate between untraced (the reference for the
tracing overhead) and traced, starting untraced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from afdmsim import experiments  # noqa: E402

import tracing  # noqa: E402
from speed import calibrate  # noqa: E402
from workloads import build_specs, warmup_specs  # noqa: E402

#: Whole cycles a measure run always completes: untraced, and traced
#: (two untraced reference cycles alternating with two traced ones, whose
#: counts are compared).
MIN_CYCLES = {0: 2, 1: 4}
#: No cycle starts when it would be expected to end later than this.
TIME_LIMIT_S = 120.0


def set_up(workload: str, seed: int, out: Path):
    specs = build_specs(workload, seed, out / "spec")
    for spec in warmup_specs(specs):
        experiments.run(spec)
    return specs


def measure(specs, out: Path, seconds: float, trace: bool) -> dict:
    calls, snapshots = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    calib = calibrate()
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        undo = tracing.install(tracer) if traced else []
        for i, spec in enumerate(specs):
            call_spec = dataclasses.replace(spec, out_dir=out / f"c{cycle}" / f"s{i}")
            t0 = time.perf_counter()
            try:
                paths, error = [str(p) for p in experiments.run(call_spec)], None
            except Exception as exc:  # a failed call is counted, not fatal
                paths, error = [], f"{type(exc).__name__}: {exc}"
            call_s = time.perf_counter() - t0
            calib_before, calib = calib, calibrate()
            calls.append({
                "cycle": cycle, "spec": i, "seconds": call_s,
                "calib": [calib_before, calib],
                "paths": paths, "error": error, "traced": traced,
            })
        if traced:
            tracing.uninstall(undo)
            snapshots.append(tracer.snapshot())
            tracer.reset()
        cycle += 1
        elapsed = time.perf_counter() - start
        if cycle >= MIN_CYCLES[trace] and elapsed >= seconds:
            break
        if elapsed * (cycle + 1) / cycle > TIME_LIMIT_S:
            break
    return {
        "calls": calls,
        "snapshots": snapshots,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    specs = set_up(args.workload, args.seed, args.out)
    if args.mode == "measure":
        result = measure(specs, args.out, args.seconds, bool(args.trace))
        (args.out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
