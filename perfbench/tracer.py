"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerTracer` wraps the public entry points of each layer (the
names follow the program's modules), measures every call's span and
charges each layer its *self* time: the span minus the part of it that
nested wrapped calls cover.  The wrappers are installed only around the
traced rounds and removed afterwards; untraced rounds never see them.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.explore import runner
from repro.rtl import BatchedSimulator, Simulator
from repro.serve.jobs import JobManager
from repro.serve.store import ResultStore
from repro.verify import monitor, stimulus
from repro.verify.coverage import CoverGroup

#: Per-layer metric name -> (unit, the end-to-end metric and workload it
#: should move).  Printed with the traced report.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "kernel.s": ("s", "sim_cycles_per_s and wall_s on stream; less on verify; "
                 "little on sweep"),
    "kernel.cycles": ("count", "exact; changes only if the work changes"),
    "kernel.ns_per_cycle": ("ns", "sim_cycles_per_s on stream"),
    "construct.calls": ("count", "exact"),
    "construct.s": ("s", "wall_s on sweep and verify; only setup_s on stream"),
    "verify.drive_s": ("s", "wall_s on verify; idle elsewhere"),
    "verify.monitor_s": ("s", "wall_s on verify; idle elsewhere"),
    "verify.sample_s": ("s", "wall_s on verify; idle elsewhere"),
    "verify.calls": ("count", "exact; zero outside verify"),
    "designs.build_s": ("s", "wall_s on sweep and served"),
    "synth.s": ("s", "wall_s on sweep and served"),
    "explore.evaluations": ("count", "exact; wall_s on sweep"),
    "explore.cache_hits": ("count", "exact; wall_s on sweep"),
    "explore.store_hits": ("count", "exact; wall_s on sweep"),
    "store.gets": ("count", "exact"),
    "store.hits": ("count", "exact"),
    "store.puts": ("count", "exact"),
    "store.get_s": ("s", "wall_s on sweep (warm) and served; idle on stream "
                    "and verify"),
    "store.put_s": ("s", "wall_s on sweep (cold) and served; idle on stream "
                    "and verify"),
    "jobs.submit_s": ("s", "wall_s on served only"),
    "jobs.shards": ("count", "exact; wall_s on served only"),
    "jobs.busy_s": ("s", "wall_s on served only"),
    "jobs.util": ("frac", "wall_s on served only"),
    "jobs.requeues": ("count", "exact; wall_s on served only"),
    "host.cal_ms": ("ms", "none: raw calibration median"),
    "raw.wall_s": ("s", "none: untraced round wall, not normalised"),
    "attributed_frac": ("frac", "none: traced self time over traced wall"),
    "trace_overhead_frac": ("frac", "none: traced over untraced wall, minus 1"),
}

_KERNEL = "kernel"
#: Layer -> per-layer metric its self time is reported under.
_TIME_METRIC = {
    _KERNEL: "kernel.s", "construct": "construct.s",
    "verify.drive": "verify.drive_s", "verify.monitor": "verify.monitor_s",
    "verify.sample": "verify.sample_s", "designs.build": "designs.build_s",
    "synth": "synth.s", "store.get": "store.get_s", "store.put": "store.put_s",
    "jobs.submit": "jobs.submit_s",
}


def _targets() -> List[Tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point."""
    found = [(_KERNEL, cls, name)
             for cls in (Simulator, BatchedSimulator)
             for name in ("step", "settle")]
    found += [(_KERNEL, Simulator, "run_until"),
              (_KERNEL, BatchedSimulator, "run_lockstep"),
              ("construct", Simulator, "__init__"),
              ("construct", BatchedSimulator, "__init__"),
              ("verify.sample", CoverGroup, "sample"),
              ("store.get", ResultStore, "get"),
              ("store.put", ResultStore, "put"),
              ("jobs.submit", JobManager, "submit")]
    for module, layer, names in ((stimulus, "verify.drive", ("drive", "observe")),
                                 (monitor, "verify.monitor", ("pre_edge",))):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                found += [(layer, cls, name) for name in names
                          if name in vars(cls)]
    # Module functions are wrapped wherever a module bound them by name.
    for layer, func in (("designs.build", runner.build_design),
                        ("synth", runner.estimate_design)):
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and vars(mod).get(func.__name__) is func):
                found.append((layer, mod, func.__name__))
    return found


class LayerTracer:
    """Accumulates self time and call counts per layer while installed."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.kernel_cycles = 0
        self.store_hits = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, owner, name in _targets():
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            stack = tracer._stack()
            # Only the outermost kernel span counts cycles, once.
            outer_kernel = layer == _KERNEL and not any(
                frame[1] == _KERNEL for frame in stack)
            sim = args[0]
            start_cycles = sim.cycles if outer_kernel else 0
            frame = [0.0, layer]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] += elapsed - frame[0]
                    tracer.calls[layer] += 1
            if outer_kernel:
                lanes = getattr(sim, "n_lanes", 1)
                with tracer._lock:
                    tracer.kernel_cycles += (sim.cycles - start_cycles) * lanes
            if layer == "store.get" and result is not None:
                with tracer._lock:
                    tracer.store_hits += 1
            return result

        return span

    def metrics(self, scale: float, raw_wall_s: float) -> Dict[str, float]:
        """Layer figures; times scaled to reference host speed by ``scale``."""
        out = {metric: self.self_s.get(layer, 0.0) * scale
               for layer, metric in _TIME_METRIC.items()}
        cycles = self.kernel_cycles
        out["kernel.cycles"] = cycles
        out["kernel.ns_per_cycle"] = (out["kernel.s"] / cycles * 1e9
                                      if cycles else 0.0)
        out["construct.calls"] = self.calls.get("construct", 0)
        out["verify.calls"] = sum(self.calls.get(layer, 0) for layer in
                                  ("verify.drive", "verify.monitor",
                                   "verify.sample"))
        out["store.gets"] = self.calls.get("store.get", 0)
        out["store.hits"] = self.store_hits
        out["store.puts"] = self.calls.get("store.put", 0)
        out["attributed_frac"] = sum(self.self_s.values()) / raw_wall_s
        return out

