"""The four benchmark workloads: inputs from a seed, timed rounds, checks.

Every workload calls the library's public entry point at its default
engine (no ``strategy=`` anywhere), so a change of default shows up as a
change in that workload's numbers.  A workload repeats identical *rounds*;
:meth:`prepare` does a round's untimed preparation (construction, a fresh
store, the worker pool) and :meth:`run` its timed units, each bracketed by
the host calibration of :mod:`calibration`.  Each round also returns its
exact work counters, which must repeat across rounds and across runs at
the same seed, and the outcome of every correctness check.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.designs import VideoSystem, build_saa2vga_pattern
from repro.explore.grid import DesignPoint
from repro.explore.runner import ExplorationRunner
from repro.rtl import Simulator, instrument
from repro.serve.jobs import DONE, JobManager
from repro.serve.records import result_from_record
from repro.serve.store import ResultStore
from repro.verify.session import TARGETS, verify_matrix
from repro.video import flatten, random_frame

HERE = Path(__file__).resolve().parent

#: Expected coverage per (target, seed), recorded by ``record_coverage.py``.
COVERAGE_FILE = HERE / "coverage.json"
#: The verify workload's first seed is the benchmark seed modulo this, so
#: every seed it can use has a recorded coverage value.
VERIFY_SEED_RANGE = 100
#: Consecutive seeds per target: 3 lanes, below the batched break-even.
VERIFY_SEEDS = 3

#: Stream geometry and frames per binding per round.
FRAME_W, FRAME_H = 16, 12
STREAM_FRAMES = 60
BINDINGS = ("fifo", "sram")

#: Frame shapes of equal area (192 pixels), so that every seed's sweep grid
#: costs about the same; the seed only picks which shape goes where.
SHAPES = ((16, 12), (12, 16), (24, 8), (8, 24), (32, 6), (6, 32), (48, 4),
          (4, 48))
#: The blur line buffer is as wide as the frame: keep its width moderate.
BLUR_SHAPES = SHAPES[:4]

#: A served job that takes longer than this has hung.
JOB_TIMEOUT_S = 120.0

#: Program counters that count work exactly (``repro.rtl.instrument``).
_COUNTERS = ("simulator_constructions", "batched_simulator_constructions",
             "store_hits", "store_misses", "store_puts")


@dataclass
class Unit:
    """One timed unit: host seconds as measured and at reference speed."""

    kind: str
    raw_s: float
    norm_s: float


@dataclass
class Round:
    """What one round did, how long each unit took and what went wrong."""

    units: List[Unit] = field(default_factory=list)
    #: Exact work counts; identical for every round at one seed.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Simulated cycles, every lane of a batch counted.
    lane_cycles: int = 0
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    #: Layer figures the program reports itself (jobs, explore counters).
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def raw_s(self) -> float:
        return sum(unit.raw_s for unit in self.units)

    def norm_s(self) -> float:
        return sum(unit.norm_s for unit in self.units)

    def check(self, ok: bool, message: str) -> None:
        """Count one check; record ``message`` when it failed."""
        self.attempted += 1
        if not ok:
            self.errors.append(message)


def counter_delta(before: Dict[str, float]) -> Dict[str, int]:
    """The program's own exact counters since ``before``."""
    after = instrument.snapshot()
    return {name: int(after.get(name, 0) - before.get(name, 0))
            for name in _COUNTERS}


def sweep_grid(seed: int) -> List[DesignPoint]:
    """A seeded 32-point grid mixing shared-structure points with singletons.

    Four structures (design, binding, format and capacity) are each seen
    at several frame shapes, which batched lanes could share; eight points
    have a structure of their own.  32 points make two shards of the job
    service's default size, so both workers of a 2-CPU host get one.
    """
    rng = random.Random(seed)

    def shapes(count):
        return rng.sample(SHAPES, count)

    shared = [("fifo", "gray8", 8, 8), ("sram", "gray8", 8, 4),
              ("fifo", "rgb565", 16, 4), ("fifo", "rgb24", 8, 8)]
    points = [DesignPoint("saa2vga", binding, fmt, w, h, capacity)
              for binding, fmt, capacity, count in shared
              for w, h in shapes(count)]
    points += [DesignPoint("saa2vga", binding, fmt, *shapes(1)[0], capacity)
               for binding, fmt, capacity in (("sram", "rgb24", 16),
                                              ("sram", "rgb565", 8),
                                              ("fifo", "gray8", 4),
                                              ("fifo", "gray8", 32))]
    points += [DesignPoint("blur", "linebuffer", "gray8", w, h, 8)
               for w, h in rng.sample(BLUR_SHAPES, 4)]
    return points


def load_coverage() -> Dict[str, List[float]]:
    return json.loads(COVERAGE_FILE.read_text())["coverage"]


class Workload:
    """Base class: per-round preparation, timed units, final checks."""

    name = ""
    #: Whether the work runs in this process, where the tracer sees it.
    in_process = True

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.rounds_prepared = 0

    def prepare(self) -> None:
        """Untimed preparation of the next round."""

    def run(self, clock) -> Round:
        raise NotImplementedError

    def finish(self, report: Round) -> None:
        """Checks that need every round; failures go into ``report``."""

    def peak_rss_kb(self) -> int:
        """Peak resident set of the processes doing the work."""
        return _hwm_kb(os.getpid())

    def close(self) -> None:
        """Release what :meth:`prepare` opened."""

    def _fresh_dir(self) -> Path:
        self.rounds_prepared += 1
        path = self.scratch / f"round-{self.rounds_prepared}"
        shutil.rmtree(path, ignore_errors=True)
        return path


def _hwm_kb(pid: int) -> int:
    """Peak resident set size (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


class Stream(Workload):
    """The saa2vga design streams seeded frames in both bindings."""

    name = "stream"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        self.frames = {binding: [random_frame(FRAME_W, FRAME_H,
                                              seed=rng.getrandbits(32))
                                 for _ in range(STREAM_FRAMES)]
                       for binding in BINDINGS}
        self.systems: Dict[str, tuple] = {}

    def prepare(self) -> None:
        self.systems = {}
        for binding in BINDINGS:
            system = VideoSystem(build_saa2vga_pattern(binding=binding),
                                 frames=self.frames[binding])
            self.systems[binding] = (system, Simulator(system))

    def run(self, clock) -> Round:
        result = Round()
        before = instrument.snapshot()
        size = FRAME_W * FRAME_H
        cycles = dict.fromkeys(BINDINGS, 0)
        for k in range(1, STREAM_FRAMES + 1):
            # Alternate the bindings so both see the same host states.
            for binding in BINDINGS:
                system, sim = self.systems[binding]
                start = sim.cycles
                try:
                    _, raw, norm = clock.time(system.simulate, k * size,
                                              simulator=sim)
                except Exception as exc:  # a failed unit, not a crash
                    result.check(False, f"{binding} frame {k}: {exc!r}")
                    continue
                result.units.append(Unit(f"frame.{binding}", raw, norm))
                cycles[binding] += sim.cycles - start
                got = system.received_pixels()[(k - 1) * size:k * size]
                result.check(got == flatten(self.frames[binding][k - 1]),
                             f"{binding} frame {k}: wrong pixels")
        result.lane_cycles = sum(cycles.values())
        result.counters = {f"cycles.{b}": cycles[b] for b in BINDINGS}
        result.counters["frames"] = len(result.units)
        result.counters.update(counter_delta(before))
        return result


class Verify(Workload):
    """``verify_matrix`` over every registered target, three seeds each."""

    name = "verify"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        first = seed % VERIFY_SEED_RANGE
        self.seeds = list(range(first, first + VERIFY_SEEDS))
        self.expected = load_coverage()

    def run(self, clock) -> Round:
        result = Round()
        before = instrument.snapshot()
        transactions = 0
        for target in TARGETS:
            try:
                results, raw, norm = clock.time(verify_matrix, target,
                                                self.seeds)
            except Exception as exc:
                result.check(False, f"{target}: {exc!r}")
                continue
            result.units.append(Unit("target", raw, norm))
            recorded = self.expected.get(target)
            for seed, res in zip(self.seeds, results):
                result.lane_cycles += res.cycles
                transactions += res.transactions
                want = None if recorded is None else recorded[seed]
                got = round(res.coverage_percent, 6)
                result.check(res.ok and res.seed == seed and got == want,
                             f"{target} seed {seed}: ok={res.ok} "
                             f"coverage {got} (recorded {want})")
            result.check(len(results) == len(self.seeds),
                         f"{target}: {len(results)} results")
        result.counters = {"targets": len(result.units),
                           "lane_cycles": result.lane_cycles,
                           "transactions": transactions}
        result.counters.update(counter_delta(before))
        return result


def _rows(results) -> List[dict]:
    return [result.row() for result in results]


class Sweep(Workload):
    """An in-process exploration sweep: cold pass, then warm pass."""

    name = "sweep"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.points = sweep_grid(seed)
        self.store: Optional[ResultStore] = None

    def prepare(self) -> None:
        self.store = ResultStore(self._fresh_dir())

    def run(self, clock) -> Round:
        result = Round()
        before = instrument.snapshot()
        cold_runner = ExplorationRunner(store=self.store)
        cold, raw, norm = clock.time(cold_runner.run, self.points)
        result.units.append(Unit("pass.cold", raw, norm))
        warm_runner = ExplorationRunner(store=self.store)
        warm, raw, norm = clock.time(warm_runner.run, self.points)
        result.units.append(Unit("pass.warm", raw, norm))
        for res in cold:
            result.check(res.verified, f"{res.point.label()}: not verified")
        result.check(warm_runner.evaluations == 0,
                     f"warm pass simulated {warm_runner.evaluations} points")
        result.check(_rows(warm) == _rows(cold),
                     "warm rows differ from cold rows")
        result.lane_cycles = sum(res.cycles for res in cold)
        runners = (cold_runner, warm_runner)
        result.layer = {
            "explore.evaluations": sum(r.evaluations for r in runners),
            "explore.cache_hits": sum(r.cache_hits for r in runners),
            "explore.store_hits": sum(r.store_hits for r in runners),
        }
        result.counters = {"points": len(self.points),
                           "lane_cycles": result.lane_cycles,
                           **{k: int(v) for k, v in result.layer.items()}}
        result.counters.update(counter_delta(before))
        return result


class Served(Workload):
    """The sweep grid through the job service: cold job, then warm job."""

    name = "served"
    in_process = False

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.points = sweep_grid(seed)
        self.workers = os.cpu_count() or 1
        self.manager: Optional[JobManager] = None
        self.records: List[dict] = []
        self.peak_kb = 0

    def prepare(self) -> None:
        self.close()
        self.manager = JobManager(store=ResultStore(self._fresh_dir()),
                                  workers=self.workers)

    def _job(self):
        job = self.manager.submit(self.points)
        job.wait(JOB_TIMEOUT_S)
        return job

    def run(self, clock) -> Round:
        result = Round()
        before = instrument.snapshot()
        cold, cold_raw, norm = clock.time(self._job)
        result.units.append(Unit("job.cold", cold_raw, norm))
        warm, raw, norm = clock.time(self._job)
        result.units.append(Unit("job.warm", raw, norm))
        total = len(cold.unique_keys)
        for label, job, cached in (("cold", cold, 0), ("warm", warm, total)):
            progress = job.progress()
            result.check(progress["state"] == DONE
                         and progress["failed"] == 0
                         and progress["cached"] == cached,
                         f"{label} job: state {progress['state']}, "
                         f"{progress['failed']} failed, "
                         f"{progress['cached']} cached")
        records = cold.ordered_records()["records"]
        result.check(records == warm.ordered_records()["records"],
                     "warm job records differ from cold job records")
        self.records = records
        results = [result_from_record(record) for record in records]
        for res in results:
            result.check(res.verified, f"{res.point.label()}: not verified")
        result.lane_cycles = sum(res.cycles for res in results)
        shards = cold.progress()["timing"]["shards"]
        result.layer = {
            "jobs.shards": shards["count"],
            "jobs.busy_s": shards["total_s"],
            "jobs.util": shards["total_s"] / (self.workers * cold_raw),
            "jobs.requeues": self.manager.requeues,
        }
        result.counters = {
            "points": len(self.points), "lane_cycles": result.lane_cycles,
            "shards": shards["count"], "requeues": self.manager.requeues}
        result.counters.update(counter_delta(before))
        self.peak_kb = max(self.peak_kb, self._pool_hwm_kb())
        self.close()
        return result

    def _pool_hwm_kb(self) -> int:
        return max(_hwm_kb(pid) for pid in
                   [os.getpid(), *self.manager.worker_pids()])

    def finish(self, report: Round) -> None:
        """The served records must match an in-process sweep's rows."""
        reference = ExplorationRunner().run(self.points)
        served = [result_from_record(record) for record in self.records]
        report.check(_rows(served) == _rows(reference),
                     "served records differ from the in-process sweep")

    def peak_rss_kb(self) -> int:
        return max(self.peak_kb, super().peak_rss_kb())

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()
            self.manager = None


WORKLOADS = {cls.name: cls for cls in (Stream, Verify, Sweep, Served)}
