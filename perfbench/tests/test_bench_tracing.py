"""Span arithmetic, binding coverage and metric names of the benchmark tracer.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

import tracing
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    # a [0, 10] holds b [2, 5], which holds c [3, 4], and b2 [6, 8]
    tr.enter("a")
    clock.now = 2.0
    tr.enter("b")
    clock.now = 3.0
    tr.enter("c")
    clock.now = 4.0
    tr.exit()
    clock.now = 5.0
    tr.exit()
    clock.now = 6.0
    tr.enter("b")
    clock.now = 8.0
    tr.exit()
    clock.now = 10.0
    tr.exit()
    snap = tr.snapshot()
    assert snap["self_s"] == {"a": 5.0, "b": 4.0, "c": 1.0}
    assert sum(snap["self_s"].values()) == 10.0
    assert snap["counts"] == {"a.calls": 1, "b.calls": 2, "c.calls": 1}


def test_same_op_nesting_counts_outermost_call_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    assert tr.enter("phase.phasor") is True
    clock.now = 1.0
    assert tr.enter("phase.phasor") is False
    clock.now = 3.0
    tr.exit()
    clock.now = 4.0
    tr.exit()
    snap = tr.snapshot()
    assert snap["counts"] == {"phase.phasor.calls": 1}
    assert snap["self_s"] == {"phase.phasor": 4.0}


def test_bookkeeping_is_charged_to_no_span():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    tr.enter("parent")
    clock.now = 1.0
    tr.enter("child")
    clock.now = 2.0
    tr.exit()
    t0 = clock.now
    clock.now = 2.5  # counter work after the child closed
    tr.exclude_since(t0)
    clock.now = 3.0
    tr.exit()
    assert tr.snapshot()["self_s"] == {"parent": 1.5, "child": 1.0}


def test_snapshot_refuses_open_spans():
    tr = tracing.Tracer(FakeClock())
    tr.enter("a")
    with pytest.raises(RuntimeError):
        tr.snapshot()


def test_install_rebinds_every_import_site_and_uninstall_restores():
    import afdmsim
    import afdmsim.experiments as experiments
    import afdmsim.metrics as metrics
    import afdmsim.sensing as sensing
    import afdmsim.waveform as waveform

    originals = (metrics.ddmf, experiments.sensing_maps, waveform.unit_phasor, afdmsim.ddmf)
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        assert metrics.ddmf is sensing.ddmf is afdmsim.ddmf
        assert metrics.ddmf is not originals[0]
        assert experiments.sensing_maps is metrics.sensing_maps is not originals[1]
        assert waveform.unit_phasor is not originals[2]
        assert metrics.ddmf.__wrapped__ is originals[0]
    finally:
        tracing.uninstall(undo)
    assert (metrics.ddmf, experiments.sensing_maps, waveform.unit_phasor, afdmsim.ddmf) == originals


def test_traced_run_counts_maps_frames_and_rows(tmp_path):
    from afdmsim import experiments
    from afdmsim.experiments import ExperimentSpec, builtin_scenarios

    spec = ExperimentSpec(
        kind="snr_sweep", scenario=builtin_scenarios()["fig5"], out_dir=tmp_path,
        presets=("proposed",), trials=3, snr_db_list=(10.0,), seed=4,
    )
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        experiments.run(spec)
        first = tr.snapshot()
        tr.reset()
        experiments.run(spec)
        second = tr.snapshot()
    finally:
        tracing.uninstall(undo)
    assert first["counts"] == second["counts"]
    counts = first["counts"]
    assert counts["experiments.run.calls"] == 1
    assert counts["metrics.frame.calls"] == 3
    for op in ("sensing.tfmf", "sensing.dechirp", "sensing.ddmf"):
        assert counts[f"{op}.maps"] == 3
    assert counts["sensing.cfar.maps"] == 9  # every map goes through CFAR
    assert counts["csvio.write.rows"] == 3  # one row per algorithm
    metrics, problems = tracing.layer_metrics([first, second])
    assert problems == []
    assert metrics["metrics.frames_per_map"] == pytest.approx(1 / 3)
    assert 0.0 < metrics["phase.phasor.repeat_ratio"] < 1.0


def test_layer_metrics_flags_counts_that_differ():
    a = {"self_s": {"x": 1.0}, "counts": {"x.calls": 2}}
    b = {"self_s": {"x": 3.0}, "counts": {"x.calls": 3}}
    _, problems = tracing.layer_metrics([a, b])
    assert problems == ["count x.calls differs between traced cycles"]


def test_benchmark_json_names_match_what_the_run_reports():
    bench = json.loads((Path(tracing.__file__).parents[1] / "BENCHMARK.json").read_text())
    snap = {"self_s": {}, "counts": {}}
    reported = set(tracing.layer_metrics([snap])[0]) | {
        "trace.work_per_s", "trace.overhead_ratio", "trace.cycles", "trace.check_failures",
    }
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "work_per_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for expected in (workloads.EXPECT_NONZERO, workloads.EXPECT_ZERO):
        for names in expected.values():
            assert set(names) <= reported
