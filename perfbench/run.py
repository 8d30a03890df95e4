"""Run one benchmark workload, check its outputs and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Workloads: ``stream``, ``verify``, ``sweep`` and ``served`` (see
``workloads.py``).  The run first times several fresh set-ups (``setup_s``),
then repeats identical rounds of the workload until ``--seconds`` are
spent (at least one round).  Every timed unit is normalised by the host
calibration of ``calibration.py``; raw timings are printed beside the
normalised ones.  ``--trace 1`` alternates untraced rounds with rounds
under the per-layer wrappers of ``tracer.py`` and reports the per-layer
metrics instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed correctness check
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median, quantiles
from typing import Dict, List, Optional

from calibration import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Stores and other files a run writes; removed when the run ends.
SCRATCH = ROOT / ".perfbench"

#: Measured fresh set-ups per run, after one unmeasured warm-up that
#: compiles the bytecode of a fresh checkout.
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 120.0
#: Seconds between calibration samples inside a unit of in-process work.
SAMPLE_S = 0.05
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "sim_cycles_per_s": "1/s",
              "peak_rss_mb": "MB"}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "verify", "sweep", "served"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args, workloads) -> int:
    """Child process: set up like a run, say ``ready``, tear down."""
    scratch = SCRATCH / f"probe-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    try:
        workload.prepare()
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def _probe(cmd: List[str], env: Dict[str, str]) -> tuple:
    """Start one set-up probe; seconds until it says ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - start
    try:
        proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return elapsed, line == "ready" and proc.returncode == 0


def measure_setup(clock, args, scratch: Path, report) -> List[tuple]:
    """Raw and normalised seconds from process start to a prepared round.

    This process and its probes are held to one CPU meanwhile, so that the
    brackets measure the CPU each set-up ran on; the closing bracket waits
    until the probe has exited.  The probes share a bytecode cache in
    ``scratch`` that the warm-up fills, so no measured set-up compiles,
    whatever the environment says.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(scratch / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        for probe in range(SETUP_PROBES + 1):
            (elapsed, ok), _, _ = clock.time(_probe, cmd, env)
            report.check(ok, f"set-up probe {probe} failed")
            if ok and probe:  # probe 0 is the warm-up
                samples.append((elapsed, clock.normalise_last(elapsed)))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def run_rounds(workload, clock, seconds: float, trace: bool):
    """Repeat rounds until ``seconds`` are spent; alternate traced ones."""
    from tracer import LayerTracer

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    sample_s = clock.sample_s
    while True:
        workload.prepare()
        start = time.perf_counter()
        if trace and len(traced) < len(plain):
            # No calibration samples inside traced units: the tracer
            # would charge their time to whichever layer they interrupt.
            clock.sample_s = None
            tracer = LayerTracer()
            tracer.install()
            try:
                rnd = workload.run(clock)
            finally:
                tracer.remove()
                clock.sample_s = sample_s
            traced.append((rnd, tracer))
        else:
            plain.append(workload.run(clock))
        took = time.perf_counter() - start
        finished = not trace or traced
        if finished and time.perf_counter() + took > deadline:
            return plain, traced


def check_rounds(workload, plain, traced, report) -> None:
    """Work counters must repeat exactly and agree with the trace."""
    first = plain[0].counters
    for rnd in plain[1:] + [rnd for rnd, _ in traced]:
        report.check(rnd.counters == first,
                     f"work counters differ between rounds: {rnd.counters} "
                     f"!= {first}")
    if not workload.in_process:
        return
    for rnd, tracer in traced:
        counts = tracer.metrics(1.0, 1.0)
        constructions = (rnd.counters["simulator_constructions"]
                         + rnd.counters["batched_simulator_constructions"])
        report.check(counts["kernel.cycles"] == rnd.lane_cycles,
                     f"traced kernel cycles {counts['kernel.cycles']} != "
                     f"simulated cycles {rnd.lane_cycles}")
        report.check(counts["construct.calls"] == constructions,
                     f"traced constructions {counts['construct.calls']} != "
                     f"counted {constructions}")


def unit_rows(kind: str, samples: List[float]) -> Dict[str, float]:
    """The mean of one unit kind, named like ``frame_mean_s.fifo`` for the
    kind ``frame.fifo``.  Frames, the only units that repeat equal work
    many times in a round, also get a p50 and a p90, each only where at
    least TAIL_SAMPLES samples lie beyond it."""
    base, _, sub = kind.partition(".")
    stats = {"mean": mean(samples)}
    if base == "frame" and len(samples) >= 2 * TAIL_SAMPLES:
        stats["p50"] = median(samples)
    if base == "frame" and len(samples) >= 10 * TAIL_SAMPLES:
        stats["p90"] = quantiles(samples, n=10)[-1]
    return {f"{base}_{stat}_s" + (f".{sub}" if sub else ""): value
            for stat, value in stats.items()}


def end_to_end(workload, setup, plain) -> Dict[str, tuple]:
    """name -> (value, raw value or None)."""
    wall = mean(rnd.norm_s() for rnd in plain)
    raw_wall = mean(rnd.raw_s() for rnd in plain)
    cycles = plain[0].lane_cycles
    return {
        "setup_s": (median(n for _, n in setup), median(r for r, _ in setup)),
        "wall_s": (wall, raw_wall),
        "sim_cycles_per_s": (cycles / wall, cycles / raw_wall),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, None),
    }


def per_layer(clock, plain, traced) -> Dict[str, float]:
    """Every per-layer metric, averaged over the traced rounds."""
    from tracer import PER_LAYER

    rows = []
    for rnd, tracer in traced:
        scale = rnd.norm_s() / rnd.raw_s()
        row = tracer.metrics(scale, rnd.raw_s())
        row.update({name: value * scale if name.endswith("_s") else value
                    for name, value in rnd.layer.items()})
        rows.append(row)
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        value = mean(row.get(name, 0) for row in rows)
        out[name] = round(value) if unit == "count" else value
    out["host.cal_ms"] = clock.cal_ms()
    out["raw.wall_s"] = mean(rnd.raw_s() for rnd in plain)
    out["trace_overhead_frac"] = (mean(rnd.norm_s() for rnd, _ in traced)
                                  / mean(rnd.norm_s() for rnd in plain) - 1)
    return out


def print_report(args, clock, setup, plain, traced, report, e2e) -> None:
    rounds = len(plain) + len(traced)
    print(f"perfbench {args.workload}: seed {args.seed}, {rounds} rounds "
          f"({len(traced)} traced), host.cal_ms {clock.cal_ms():.4f}")
    notes = {"setup_s": f"median of {len(setup)} set-ups",
             "wall_s": f"mean of {len(plain)} untraced rounds"}
    for name, (value, raw) in e2e.items():
        raw_text = "" if raw is None else f"raw {raw:.6g}"
        print(f"  {name:<22}{value:>14.6g} {END_TO_END[name]:<5}"
              f"{raw_text:<18}{notes.get(name, '')}")
    units: Dict[str, List[tuple]] = {}
    for rnd in plain:
        for unit in rnd.units:
            units.setdefault(unit.kind, []).append((unit.norm_s, unit.raw_s))
    for kind, samples in units.items():
        norm = unit_rows(kind, [n for n, _ in samples])
        raw = unit_rows(kind, [r for _, r in samples])
        for name, value in norm.items():
            print(f"  {name:<22}{value:>14.6g} s    "
                  f"raw {raw[name]:<14.6g}n={len(samples)}")
    rate = report.failed / report.attempted
    print(f"  {'error_rate':<22}{rate:>14.6g}       "
          f"{report.failed} of {report.attempted} checks failed")
    for error in report.errors[:20]:
        print(f"  FAILED: {error}")
    print("counters " + json.dumps(plain[0].counters, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        return setup_probe(args, workloads)
    clock = HostClock()
    report = workloads.Round()
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    workload = None
    try:
        setup = measure_setup(clock, args, scratch, report)
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if workload.in_process:
            clock.sample_s = SAMPLE_S
        else:
            clock.cpus = os.sched_getaffinity(0)
        plain, traced = run_rounds(workload, clock, args.seconds,
                                   bool(args.trace))
        workload.finish(report)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's files are still there
    for rnd in plain + [rnd for rnd, _ in traced]:
        report.attempted += rnd.attempted
        report.errors += rnd.errors
    check_rounds(workload, plain, traced, report)
    e2e = end_to_end(workload, setup, plain)
    print_report(args, clock, setup, plain, traced, report, e2e)
    if args.trace:
        from tracer import PER_LAYER

        values = per_layer(clock, plain, traced)
        for name, (unit, moves) in PER_LAYER.items():
            print(f"  {name:<22}{values[name]:>14.6g} {unit:<6}moves: {moves}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": report.failed == 0,
                      "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
