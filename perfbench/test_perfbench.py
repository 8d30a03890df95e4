"""The benchmark's own checks: a wrong output or a tampered counter fails.

Each test runs a shrunken workload (a few frames, one target, a small
grid) so the file stays quick; the checks are the ones full runs use.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
import workloads
from calibration import HostClock
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a round of a fraction of a second."""
    monkeypatch.setattr(workloads, "STREAM_FRAMES", 3)
    monkeypatch.setattr(workloads, "TARGETS",
                        {"adapter/up": workloads.TARGETS["adapter/up"]})
    grid = workloads.sweep_grid
    monkeypatch.setattr(workloads, "sweep_grid", lambda seed: grid(seed)[:3])


def _round(cls, tmp_path, tamper=None):
    workload = cls(5, tmp_path)
    workload.prepare()
    if tamper:
        tamper(workload)
    try:
        return workload, workload.run(HostClock())
    finally:
        workload.close()


@pytest.mark.parametrize("cls", [workloads.Stream, workloads.Verify,
                                 workloads.Sweep])
def test_untampered_rounds_pass(small, tmp_path, cls):
    _, rnd = _round(cls, tmp_path)
    assert rnd.attempted > 0 and rnd.errors == []


def test_wrong_expected_frame_fails(small, tmp_path):
    def tamper(workload):
        workload.frames["sram"][1][0][0] ^= 1
    _, rnd = _round(workloads.Stream, tmp_path, tamper)
    assert rnd.errors == ["sram frame 2: wrong pixels"]


def test_wrong_recorded_coverage_fails(small, tmp_path):
    def tamper(workload):
        workload.expected["adapter/up"][workload.seeds[1]] = 50.0
    _, rnd = _round(workloads.Verify, tmp_path, tamper)
    assert len(rnd.errors) == 1 and "recorded 50.0" in rnd.errors[0]


def test_stale_store_record_fails_warm_check(small, tmp_path):
    def tamper(workload):
        # A warm pass that must simulate means the store lost a record.
        workload.store.put = lambda key, record: None
    _, rnd = _round(workloads.Sweep, tmp_path, tamper)
    assert any("warm pass simulated" in error for error in rnd.errors)


def test_tampered_counters_fail(small, tmp_path):
    workload, first = _round(workloads.Stream, tmp_path)
    _, second = _round(workloads.Stream, tmp_path)
    report = workloads.Round()
    bench_run.check_rounds(workload, [first, second], [], report)
    assert report.errors == []
    second.counters["cycles.fifo"] += 1
    bench_run.check_rounds(workload, [first, second], [], report)
    assert len(report.errors) == 1


def test_traced_cycles_must_match_counted_cycles(small, tmp_path):
    from tracer import LayerTracer

    workload = workloads.Stream(5, tmp_path)
    workload.prepare()
    tracer = LayerTracer()
    tracer.install()
    try:
        rnd = workload.run(HostClock())
    finally:
        tracer.remove()
    report = workloads.Round()
    bench_run.check_rounds(workload, [rnd], [(rnd, tracer)], report)
    assert report.errors == []
    rnd.lane_cycles += 1
    bench_run.check_rounds(workload, [rnd], [(rnd, tracer)], report)
    assert len(report.errors) == 1 and "kernel cycles" in report.errors[0]


def test_wrappers_are_removed(tmp_path):
    from repro.rtl import Simulator
    from tracer import LayerTracer

    step = Simulator.step
    tracer = LayerTracer()
    tracer.install()
    assert Simulator.step is not step
    tracer.remove()
    assert Simulator.step is step


def test_fails_without_program_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert ({w["name"] for w in spec["workloads"]}
            == set(workloads.WORKLOADS))
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == bench_run.END_TO_END)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {name: unit for name, (unit, _) in PER_LAYER.items()})
    assert spec["run_seconds"] == bench_run.parse_args(
        ["--workload", "stream"]).seconds
