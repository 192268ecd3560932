"""afdmsim benchmark: closed-loop ``experiments.run`` throughput per workload.

    python3 perfbench/run.py --workload mc-ddmf --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One run:

1. times ``SETUP_REPS`` fresh interpreters that each import afdmsim, build
   the workload's specs and make one warm-up ``run()`` per experiment kind
   (``setup_s`` is their median);
2. starts one worker process that sets up the same way and then issues
   ``run()`` calls as a closed loop with one client for ``--seconds``;
3. checks every file each call returned (``outcheck.py``) and computes the
   metrics.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports its per-layer metrics, from spans installed around every public
layer function (``tracing.py``). Human-readable lines come first; the last
line of standard output is one JSON object. A fuller record, with the
environment fingerprint, goes to ``.perfbench_out/records/``.

The process and its workers use at most ``nproc`` (capped at 2) threads,
BLAS included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import speed  # noqa: E402  (imports numpy, which must see the thread limits)

SETUP_REPS = 5
#: Wall seconds for a fresh interpreter to import numpy on an uncontended
#: core of the baseline host: the calibration for set-up, which is mostly
#: process start and imports (``speed.py`` explains reference seconds).
SPAWN_REFERENCE_S = 0.2
#: Wall-clock budget for the whole run (the contract allows 180 s).
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    import numpy as np

    import afdmsim

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(THREADS),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "afdmsim": afdmsim.__version__,
        "git_commit": git_commit(),
    }


def spawn(args: list[str], deadline: float) -> float:
    """Run a worker to completion; returns its wall time from spawn to exit.

    The worker is killed at the deadline. ``wait()`` without a timeout blocks
    in ``waitpid`` instead of polling, so the measured time is not rounded
    up to a polling step.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args])
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {code}")
    return elapsed


def spawn_slowdown() -> float:
    """Time to start an interpreter that imports numpy, over its reference."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return (time.perf_counter() - t0) / SPAWN_REFERENCE_S


def spec_throughput(calls, work: dict[int, int], reference: bool = True) -> float:
    """Work of one cycle over the cycle's time (0 unless every spec succeeded).

    ``work[i]`` is the work of spec ``i`` (one entry per spec of the cycle);
    a spec's time is its mean call time, in reference seconds (``speed.py``)
    or, with ``reference=False``, in wall seconds.
    """
    by_spec: dict[int, list[dict]] = {}
    for call in calls:
        by_spec.setdefault(call["spec"], []).append(call)
    if set(by_spec) != set(work):
        return 0.0
    cycle_s = 0.0
    for spec_calls in by_spec.values():
        wall = [c["seconds"] for c in spec_calls]
        total = speed.reference_seconds(wall, [c["calib"] for c in spec_calls]) \
            if reference else sum(wall)
        cycle_s += total / len(spec_calls)
    return sum(work.values()) / cycle_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="afdmsim closed-loop benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "afdmsim" / "__init__.py").is_file():
        return fail(f"no afdmsim package under {SRC.relative_to(ROOT)}/ in this checkout")
    sys.path.insert(0, str(SRC))
    import outcheck
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    out_root = ROOT / ".perfbench_out"
    run_dir = out_root / f"run-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        calib = [spawn_slowdown()]
        setup_wall = []
        for k in range(SETUP_REPS):
            setup_wall.append(
                spawn(["setup", *common, "--out", str(run_dir / f"setup{k}")], deadline)
            )
            calib.append(spawn_slowdown())
        spawn(["measure", *common, "--out", str(run_dir / "measure"),
               "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        worker = json.loads((run_dir / "measure" / "worker.json").read_text())

        specs = workloads.build_specs(args.workload, args.seed, run_dir / "spec")
        checker = outcheck.OutputChecker(args.workload, args.seed, specs)
        failures, work = [], {}
        ok_calls = {False: [], True: []}
        for call in worker["calls"]:
            problems = (
                [call["error"]] if call["error"]
                else checker.check_call(call["spec"], call["paths"])
            )
            if problems:
                failures.append({"cycle": call["cycle"], "spec": call["spec"],
                                 "problems": problems[:5]})
                continue
            ok_calls[call["traced"]].append(call)
            work.setdefault(call["spec"], workloads.work_units(args.workload, call["paths"]))
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(worker["calls"])
    if len(work) < len(specs):
        work = {}  # a spec that never succeeded leaves the cycle unmeasured
    untraced_rate = spec_throughput(ok_calls[False], work)
    setup_times = [
        speed.reference_seconds([t], [(calib[k], calib[k + 1])])
        for k, t in enumerate(setup_wall)
    ]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": untraced_rate,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "output_check": checker.mode,
        "work_unit": workloads.WORK_UNITS[args.workload],
        "setup_samples_s": setup_times, "setup_wall_s": setup_wall,
        "wall_work_per_s": spec_throughput(ok_calls[False], work, reference=False),
        "env": fingerprint(),
        "calls": [
            {key: call[key] for key in ("cycle", "spec", "seconds", "calib", "traced")}
            for call in worker["calls"]
        ],
        "attempted": attempted, "failures": failures,
        "error_rate": len(failures) / attempted,
    }
    trace_problems: list[str] = []
    if args.trace:
        snapshots = worker["snapshots"]
        layer, trace_problems = tracing.layer_metrics(snapshots)
        trace_problems += workloads.trace_expectations(args.workload, layer)
        traced_rate = spec_throughput(ok_calls[True], work)
        layer["trace.work_per_s"] = traced_rate
        layer["trace.overhead_ratio"] = untraced_rate / traced_rate if traced_rate else 0.0
        layer["trace.cycles"] = len(snapshots)
        layer["trace.check_failures"] = len(trace_problems)
        metrics = layer
        record["top_self_s"] = tracing.top_ops(snapshots)
        record["layer_prediction"] = workloads.layer_prediction(
            args.workload, tracing.median_self_s(snapshots)
        )
        record["trace_problems"] = trace_problems
    record["metrics"] = metrics

    records = out_root / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"output check: {checker.mode}"
          + ("" if checker.mode == "reference" else " (no committed reference for this seed)"))
    print(f"work unit: {workloads.WORK_UNITS[args.workload]}")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'(wall-clock work_per_s)':<36} {record['wall_work_per_s']:>14.6g} 1/s")
    print(f"  {'error_rate':<36} {record['error_rate']:>14.6g} "
          f"({len(failures)} of {attempted} run() calls failed)")
    if args.trace:
        print("  largest self time: " + ", ".join(f"{op} {s:.3f} s" for op, s in record["top_self_s"]))
        print(f"  layer prediction: {record['layer_prediction']}")
        for problem in trace_problems:
            print(f"  trace check: {problem}")
    for failure in failures[:3]:
        print(f"  failed call: {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
