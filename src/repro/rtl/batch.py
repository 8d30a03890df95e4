"""Batched lockstep simulation: one compiled kernel, many lanes.

:class:`BatchedSimulator` advances N independent design instances ("lanes")
through the two-phase settle/cycle contract in lockstep.  Signal state lives
in ``(n_signals, n_lanes)`` int64 matrices; the per-design vectorized kernel
(:mod:`repro.rtl.compile.emit_batched`) walks the same statically-scheduled
program as the scalar compiled backend but executes every statement once for
all lanes via numpy, so sweeps and seed matrices amortize the Python
interpreter across the batch.

Lane compatibility is verification-by-regeneration: the batched emitter is
run per lane and lanes may share a batch only when the generated sources
are byte-identical (:attr:`BatchedProgram.signature`).  Incompatible designs
raise :class:`SimulationError` — callers (the explore runner, the verify
session) group points by signature first via :func:`batch_groups`.

Between kernel invocations the real :class:`~repro.rtl.signal.Signal` /
:class:`~repro.rtl.component.Memory` objects of each lane are stale; the
public :meth:`BatchedSimulator.settle` / :meth:`BatchedSimulator.step`
synchronize every lane's objects afterwards so benches behave exactly as
with a scalar simulator.  The internal :meth:`BatchedSimulator.run_lockstep`
fast path skips the per-cycle object sync — its per-lane stop conditions
must read Python-side state the kernel keeps live (appended lists such as
``sink.received``, or promoted attribute counters via :meth:`lane_attr`).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    _np = None

from ..obs import profile as _obs_profile
from ..obs import tracing as _obs_tracing
from . import instrument
from .component import Component, Memory
from .errors import CombinationalLoopError, SimulationError
from .signal import Signal

#: Strategy name routing to :class:`BatchedSimulator`.
COMPILED_BATCHED = "compiled-batched"


def _require_numpy() -> None:
    if _np is None:
        raise SimulationError(
            "strategy 'compiled-batched' requires numpy, which is not "
            "installed; use strategy='compiled' instead")


#: Recently emitted reference programs, newest first.  Sweeps and verify
#: matrices construct many simulators over sibling designs; rebinding
#: against a cached reference skips the dominant emission cost entirely.
#: Soundness does not depend on the cache: ``rebind_batched_program``
#: re-verifies every value the cached source baked — against the *cached*
#: design (mutation since emission) and the new one — and bails to a full
#: emission on any doubt.  Bounded because each entry pins its design's
#: object graph.
_REFERENCE_CACHE: deque = deque(maxlen=4)


def _program_for(top: Component, max_settle: int):
    """Emit ``top``'s batched program, reusing a cached emission if possible."""
    from .compile.emit_batched import emit_batched_program
    from .compile.rebind import rebind_batched_program

    profiler = _obs_profile.active()
    start = time.perf_counter() if profiler is not None else 0.0
    with _obs_tracing.span("rebind", design=type(top).__name__,
                           candidates=len(_REFERENCE_CACHE)):
        for reference in _REFERENCE_CACHE:
            program = rebind_batched_program(reference, top,
                                             max_settle=max_settle)
            if program is not None:
                if profiler is not None:
                    profiler.record_rebind(time.perf_counter() - start)
                return program
    with _obs_tracing.span("compile", strategy=COMPILED_BATCHED,
                           design=type(top).__name__):
        program = emit_batched_program(top, max_settle=max_settle)
    if profiler is not None:
        profiler.record_compile(time.perf_counter() - start)
    _REFERENCE_CACHE.appendleft(program)
    return program


class _WriteLog(list):
    """The per-lane ``_written`` queue; appends flag the batch dirty.

    :attr:`Signal.next`'s setter appends to ``sched._written`` without any
    notification call, so the queue itself must raise the batch's
    ``_in_dirty`` flag for test-bench pokes made between kernel calls to be
    gathered at the next settle.
    """

    __slots__ = ("_batch",)

    def __init__(self, batch: "BatchedSimulator") -> None:
        super().__init__()
        self._batch = batch

    def append(self, sig: Signal) -> None:
        list.append(self, sig)
        self._batch._in_dirty = True


class _LaneHook:
    """The scheduler object installed as one lane's ``sig._sched``.

    It records pokes (``next`` writes, ``force``, memory stores) for the
    batch to gather, and forwards the scalar detach protocol: a scalar
    :class:`~repro.rtl.simulator.Simulator` attaching to the same hierarchy
    sets ``sched._attached = False`` on whatever it finds, which here
    detaches the whole batch.
    """

    __slots__ = ("_batch", "_lane", "_written", "_forced", "_mems")

    def __init__(self, batch: "BatchedSimulator", lane: int) -> None:
        self._batch = batch
        self._lane = lane
        self._written = _WriteLog(batch)
        self._forced: List[Signal] = []
        self._mems: List[Memory] = []

    @property
    def _attached(self) -> bool:
        return self._batch._attached

    @_attached.setter
    def _attached(self, value: bool) -> None:
        if not value:
            self._batch._attached = False

    def notify_changed(self, sig: Signal) -> None:
        self._forced.append(sig)
        self._batch._in_dirty = True

    def notify_memory(self, mem: Memory) -> None:
        self._mems.append(mem)
        self._batch._in_dirty = True

    def clear(self) -> None:
        del self._written[:]
        del self._forced[:]
        del self._mems[:]


class LaneView:
    """A scalar-simulator-shaped window onto one lane of a batch.

    Provides the subset of the :class:`~repro.rtl.simulator.Simulator`
    surface that tracers and monitors use (``add_watcher`` /
    ``remove_watcher`` / ``cycles`` / ``strategy``), so a
    :class:`~repro.rtl.trace.Recorder` can sample one lane of a batched run
    exactly as it samples a scalar run.
    """

    def __init__(self, batch: "BatchedSimulator", lane: int) -> None:
        self._batch = batch
        self._lane = lane

    @property
    def lane(self) -> int:
        return self._lane

    @property
    def top(self) -> Component:
        return self._batch.tops[self._lane]

    @property
    def cycles(self) -> int:
        return self._batch.cycles

    @property
    def strategy(self) -> str:
        return COMPILED_BATCHED

    def add_watcher(self, func: Callable[[int], None],
                    on_reset: Optional[Callable[[], None]] = None) -> None:
        if on_reset is None:
            owner = getattr(func, "__self__", None)
            on_reset = getattr(owner, "on_reset", None) \
                if owner is not None else None
        self._batch._lane_watchers[self._lane].append((func, on_reset))
        self._batch._has_watchers = True

    def remove_watcher(self, func: Callable[[int], None]) -> None:
        watchers = self._batch._lane_watchers[self._lane]
        for index, (registered, _reset) in enumerate(watchers):
            if registered == func:
                del watchers[index]
                self._batch._refresh_has_watchers()
                return
        raise SimulationError(
            f"cannot remove watcher {func!r}: it is not registered")


class BatchedSimulator:
    """Drive N compatible design instances in vectorized lockstep.

    Parameters
    ----------
    tops:
        One root component per lane.  Each lane is an independent instance;
        the lanes must be *structurally identical* (their batched programs
        must have matching signatures) but may hold different state, queued
        stimulus and parameter-independent Python attributes.
    max_settle:
        Combinational delta-iteration budget per settle phase.
    max_cycles:
        Safety limit for :meth:`run_until` / :meth:`run_lockstep`.
    programs:
        Pre-emitted per-lane :class:`BatchedProgram` objects (from
        :func:`batch_groups`), to avoid emitting twice.
    """

    def __init__(self, tops: Sequence[Component], max_settle: int = 64,
                 max_cycles: int = 10_000_000,
                 programs: Optional[Sequence] = None) -> None:
        _require_numpy()
        instrument.bump(instrument.BATCHED_CONSTRUCTIONS)
        profiler = _obs_profile.active()
        if profiler is not None:
            profiler.record_sim(COMPILED_BATCHED)

        tops = list(tops)
        if not tops:
            raise SimulationError("a batched simulator needs >= 1 lane")
        self.tops = tops
        self.n_lanes = len(tops)
        self.max_settle = max_settle
        self.max_cycles = max_cycles
        if programs is None:
            # Emit the generated source at most once (the dominant
            # construction cost) and rebind it to every sibling lane; a
            # lane that cannot be proven recipe-identical re-emits in
            # full and is caught by the signature comparison below.
            programs = [_program_for(top, max_settle) for top in tops]
        else:
            programs = list(programs)
            if len(programs) != len(tops):
                raise SimulationError(
                    f"{len(tops)} lanes but {len(programs)} programs")
        reference = programs[0]
        for lane, program in enumerate(programs[1:], start=1):
            if program.signature != reference.signature:
                raise SimulationError(
                    f"lane {lane} is not batch-compatible with lane 0: "
                    f"the generated batched programs differ (group "
                    f"incompatible designs with repro.rtl.batch_groups)")
        self._programs = programs
        self.program = reference
        #: Generated vectorized settle/cycle source (lane 0 == all lanes).
        self.batched_source = reference.source
        #: :class:`~repro.rtl.compile.emit_batched.BatchReport`.
        self.batch_report = reference.report

        self._cycles = 0
        self._dirty = True
        self._in_dirty = False
        self._attached = True
        self._has_watchers = False
        self._lane_watchers: List[List[Tuple[Callable, Optional[Callable]]]]
        self._lane_watchers = [[] for _ in range(self.n_lanes)]
        self._lane_views: Dict[int, LaneView] = {}

        self._invalidate_previous()
        self._hooks = [_LaneHook(self, lane) for lane in range(self.n_lanes)]
        self._slot_maps: List[Dict[int, int]] = []
        self._mem_maps: List[Dict[int, int]] = []
        for lane, program in enumerate(self._programs):
            hook = self._hooks[lane]
            for sig in program.signals:
                sig._sched = hook
            for mem in program.memories:
                mem._sched = hook
            self._slot_maps.append(
                {id(sig): i for i, sig in enumerate(program.signals)})
            self._mem_maps.append(
                {id(mem): k for k, mem in enumerate(program.memories)})

        self._allocate()
        self._build_namespace()
        # Mirror the scalar constructor: pre-construction two-phase pokes
        # (rows where next != value) are committed by the initial settle.
        _np.copyto(self._V, self._VN)
        self._settle_fn(self)
        self.sync_out()

    # -- batch assembly --------------------------------------------------------

    def _invalidate_previous(self) -> None:
        previous = set()
        for top in self.tops:
            for sig in top.all_signals():
                previous.add(sig._sched)
            for mem in top.all_memories():
                previous.add(mem._sched)
        for sched in previous:
            if sched is not None and getattr(sched, "_batch", None) is not self:
                sched._attached = False

    def _allocate(self) -> None:
        program = self.program
        n_sigs = len(program.signals)
        n = self.n_lanes
        self._V = _np.zeros((n_sigs, n), dtype=_np.int64)
        self._VN = _np.zeros((n_sigs, n), dtype=_np.int64)
        # Each memory matrix has one spare row past the end: the kernel's
        # masked dynamic-index stores send masked-off lanes there.  Every
        # other reader sees only the ``depth`` real rows.
        self._MM_KERNEL = [_np.zeros((mem.depth + 1, n), dtype=_np.int64)
                           for mem in program.memories]
        self._MM = [rows[:-1] for rows in self._MM_KERNEL]
        self._PA = [_np.zeros(n, dtype=_np.int64)
                    for _ in program.attr_slots]
        self._PL: List[list] = [[None] for _ in program.gather_lists]
        self._PLEN = [_np.zeros(n, dtype=_np.int64)
                      for _ in program.gather_lists]
        self._LS: List[List[list]] = [
            [self._programs[lane].append_lists[j] for lane in range(n)]
            for j in range(len(program.append_lists))]
        self._gather_all()
        self._LC = [self._make_comb_call(q)
                    for q in range(len(program.comb_calls))]
        self._LQ = [self._make_seq_call(q)
                    for q in range(len(program.seq_calls))]

    def _gather_all(self) -> None:
        """(Re)load every lane's object state into the batch arrays."""
        for lane, program in enumerate(self._programs):
            self._V[:, lane] = [sig._value for sig in program.signals]
            self._VN[:, lane] = [sig._next for sig in program.signals]
            for k, mem in enumerate(program.memories):
                self._MM[k][:, lane] = mem._data
            for j, (owner, attr) in enumerate(program.attr_slots):
                self._PA[j][lane] = int(getattr(owner, attr))
        for j in range(len(self.program.gather_lists)):
            self._rebuild_gather(j)

    def _rebuild_gather(self, j: int) -> None:
        lanes = [self._programs[lane].gather_lists[j]
                 for lane in range(self.n_lanes)]
        longest = max((len(data) for data in lanes), default=0)
        matrix = _np.zeros((self.n_lanes, max(1, longest)), dtype=_np.int64)
        for lane, data in enumerate(lanes):
            if data:
                matrix[lane, :len(data)] = data
            self._PLEN[j][lane] = len(data)
        self._PL[j][0] = matrix

    def _build_namespace(self) -> None:
        n_lanes = self.n_lanes
        namespace: Dict[str, Any] = {
            "_NP": _np,
            "_LIDX": _np.arange(n_lanes),
            "_NLANES": n_lanes,
            "_VR": self._V,
            "_NR": self._VN,
            "_V": self._V,
            "_VN": self._VN,
            "_MM": self._MM_KERNEL,
            "_PA": self._PA,
            "_PL": self._PL,
            "_PLEN": self._PLEN,
            "_LS": self._LS,
            "_LC": self._LC,
            "_LQ": self._LQ,
            # One constant row per ``_k...`` default of the kernel.
            "_KC": lambda value: _np.full(n_lanes, value, dtype=_np.int64),
        }
        from .compile.emit import compile_source

        exec(compile_source(self.program.source, "<repro-batched>"),
             namespace)
        self._settle_fn = namespace["settle"]
        self._cycle_fn = namespace["cycle"]

    # -- per-lane fallback calls ----------------------------------------------

    def _make_comb_call(self, q: int) -> Callable[[], bool]:
        plans = [program.comb_calls[q] for program in self._programs]
        if plans[0].opaque:
            return self._make_opaque_call(plans)
        sig_slots = plans[0].sig_slots
        mem_slots = plans[0].mem_slots
        V, VN, MM = self._V, self._VN, self._MM

        def run() -> bool:
            changed = False
            for lane in range(self.n_lanes):
                program = self._programs[lane]
                self._scatter_lane(lane, sig_slots, mem_slots)
                plans[lane].proc()
                if self._drain_lane(lane, program, seq=False,
                                    v=V, vn=VN, mm=MM):
                    changed = True
            return changed

        return run

    def _make_opaque_call(self, plans: List) -> Callable[[], bool]:
        def run() -> bool:
            changed = False
            for lane in range(self.n_lanes):
                program = self._programs[lane]
                self._scatter_lane(lane, None, None)
                plans[lane].proc()
                if self._drain_lane(lane, program, seq=False,
                                    v=self._V, vn=self._VN, mm=self._MM):
                    changed = True
            return changed

        return run

    def _make_seq_call(self, q: int) -> Callable[[], None]:
        plans = [program.seq_calls[q] for program in self._programs]
        opaque = plans[0].opaque
        sig_slots = None if opaque else plans[0].sig_slots
        mem_slots = None if opaque else plans[0].mem_slots

        def run() -> None:
            for lane in range(self.n_lanes):
                program = self._programs[lane]
                self._scatter_lane(lane, sig_slots, mem_slots)
                plans[lane].proc()
                self._drain_lane(lane, program, seq=True,
                                 v=self._V, vn=self._VN, mm=self._MM)

        return run

    def _scatter_lane(self, lane: int, sig_slots: Optional[List[int]],
                      mem_slots: Optional[List[int]]) -> None:
        """Push batch columns onto one lane's live objects before a call."""
        program = self._programs[lane]
        signals = program.signals
        V, VN = self._V, self._VN
        if sig_slots is None:
            sig_slots = range(len(signals))
        for slot in sig_slots:
            sig = signals[slot]
            sig._value = int(V[slot, lane])
            sig._next = int(VN[slot, lane])
        memories = program.memories
        if mem_slots is None:
            mem_slots = range(len(memories))
        for k in mem_slots:
            memories[k]._data[:] = self._MM[k][:, lane].tolist()
        for j, (owner, attr) in enumerate(program.attr_slots):
            setattr(owner, attr, int(self._PA[j][lane]))

    def _drain_lane(self, lane: int, program, seq: bool, v, vn, mm) -> bool:
        """Pull one lane's post-call writes back into the batch arrays."""
        hook = self._hooks[lane]
        slot_map = self._slot_maps[lane]
        mem_map = self._mem_maps[lane]
        changed = False
        for sig in hook._written:
            slot = slot_map[id(sig)]
            nxt = sig._next
            if seq:
                vn[slot, lane] = nxt
            else:
                if v[slot, lane] != nxt:
                    changed = True
                v[slot, lane] = nxt
                vn[slot, lane] = nxt
        for sig in hook._forced:
            slot = slot_map[id(sig)]
            value = sig._value
            if v[slot, lane] != value:
                changed = True
            v[slot, lane] = value
            vn[slot, lane] = value
        for mem in hook._mems:
            k = mem_map.get(id(mem))
            if k is not None:
                mm[k][:, lane] = mem._data
        hook.clear()
        for j, (owner, attr) in enumerate(program.attr_slots):
            self._PA[j][lane] = int(getattr(owner, attr))
        # The drained queues account for every poke the call made; the flag
        # they raised would otherwise trigger a pointless sync next settle.
        if not any(h._written or h._forced or h._mems for h in self._hooks):
            self._in_dirty = False
        return changed

    # -- kernel support hooks (called from generated code) ---------------------

    def _check_attached(self) -> None:
        if not self._attached:
            raise SimulationError(
                "this batched simulator was detached: another simulator was "
                "constructed over one of its lane hierarchies; build a new "
                "batch (or keep one simulator per hierarchy)")

    def _raise_comb_loop(self) -> None:
        raise CombinationalLoopError(
            f"combinational network did not settle after {self.max_settle} "
            f"iterations in at least one lane (cycle {self._cycles})")

    def _sync_in(self) -> None:
        """Gather test-bench pokes made since the last kernel call.

        Mirrors the scalar compiled settle's entry: pending ``next`` pokes
        are committed (both rows), ``force``/``reset`` writes land in both
        rows, notified memories are re-gathered, and gather-list matrices
        are rebuilt when any lane's list grew.
        """
        V, VN = self._V, self._VN
        for lane, hook in enumerate(self._hooks):
            if hook._written:
                slot_map = self._slot_maps[lane]
                for sig in hook._written:
                    slot = slot_map[id(sig)]
                    nxt = sig._next
                    sig._value = nxt
                    V[slot, lane] = nxt
                    VN[slot, lane] = nxt
            if hook._forced:
                slot_map = self._slot_maps[lane]
                for sig in hook._forced:
                    slot = slot_map[id(sig)]
                    value = sig._value
                    V[slot, lane] = value
                    VN[slot, lane] = value
            if hook._mems:
                mem_map = self._mem_maps[lane]
                for mem in hook._mems:
                    k = mem_map.get(id(mem))
                    if k is not None:
                        self._MM[k][:, lane] = mem._data
            hook.clear()
        for j in range(len(self.program.gather_lists)):
            plen = self._PLEN[j]
            for lane in range(self.n_lanes):
                if len(self._programs[lane].gather_lists[j]) != plen[lane]:
                    self._rebuild_gather(j)
                    break
        self._in_dirty = False

    def _post_cycle(self) -> None:
        """Per-cycle watcher dispatch: sync only the lanes being watched."""
        for lane, watchers in enumerate(self._lane_watchers):
            if watchers:
                self.sync_out_lane(lane)
                for func, _reset in watchers:
                    func(self._cycles)

    def _refresh_has_watchers(self) -> None:
        self._has_watchers = any(self._lane_watchers)

    # -- object-state synchronization ------------------------------------------

    def sync_out_lane(self, lane: int) -> None:
        """Write one lane's batch columns back onto its live objects."""
        program = self._programs[lane]
        values = self._V[:, lane].tolist()
        nexts = self._VN[:, lane].tolist()
        for i, sig in enumerate(program.signals):
            sig._value = values[i]
            sig._next = nexts[i]
        for k, mem in enumerate(program.memories):
            mem._data[:] = self._MM[k][:, lane].tolist()
        for j, (owner, attr) in enumerate(program.attr_slots):
            setattr(owner, attr, int(self._PA[j][lane]))

    def sync_out(self) -> None:
        """Write every lane's state back onto its live objects."""
        for lane in range(self.n_lanes):
            self.sync_out_lane(lane)

    # -- public simulator surface ----------------------------------------------

    @property
    def cycles(self) -> int:
        """Number of lockstep clock cycles executed so far (all lanes)."""
        return self._cycles

    @property
    def strategy(self) -> str:
        return COMPILED_BATCHED

    def lane(self, index: int) -> LaneView:
        """A scalar-shaped view of one lane (for tracers and monitors)."""
        view = self._lane_views.get(index)
        if view is None:
            if not 0 <= index < self.n_lanes:
                raise SimulationError(
                    f"lane {index} out of range (batch has "
                    f"{self.n_lanes} lanes)")
            view = self._lane_views[index] = LaneView(self, index)
        return view

    def settle(self) -> int:
        """Settle all lanes, then sync every lane's objects."""
        rounds = self._settle_fn(self)
        self.sync_out()
        return rounds

    def step(self, cycles: int = 1) -> None:
        """Advance all lanes ``cycles`` clock cycles, then sync objects."""
        if cycles < 0:
            raise SimulationError(
                f"cannot step a negative number of cycles: {cycles}")
        profiler = _obs_profile.active()
        start = time.perf_counter() if profiler is not None else 0.0
        cycle_fn = self._cycle_fn
        for _ in range(cycles):
            cycle_fn(self)
        self.sync_out()
        if profiler is not None:
            profiler.record_step(COMPILED_BATCHED, cycles * self.n_lanes,
                                 time.perf_counter() - start)

    def run_until(self, condition: Callable[[], bool],
                  max_cycles: Optional[int] = None) -> int:
        """Step all lanes until a (whole-batch) condition holds."""
        budget = self.max_cycles if max_cycles is None else max_cycles
        start = self._cycles
        cycle_fn = self._cycle_fn
        while True:
            self.sync_out()
            if condition():
                break
            if self._cycles - start >= budget:
                raise SimulationError(
                    f"condition not reached within {budget} cycles")
            cycle_fn(self)
        return self._cycles - start

    def run_lockstep(self, conditions: Sequence[Callable[[], bool]],
                     max_cycles: Optional[int] = None) -> List[int]:
        """Advance until every lane's condition has become true.

        This is the sweep fast path: there is **no per-cycle object sync**,
        so each ``conditions[lane]`` must read state the kernel keeps live —
        appended Python lists (``sink.received`` via ``sink.count``) or
        promoted attribute rows via :meth:`lane_attr` — not ``Signal.value``.
        Returns the cycle count at which each lane's condition first held;
        lanes that finish early keep simulating (their pipelines simply
        drain) until the whole batch is done, preserving lockstep.
        """
        if len(conditions) != self.n_lanes:
            raise SimulationError(
                f"{self.n_lanes} lanes but {len(conditions)} conditions")
        if (_obs_profile._ACTIVE is not None
                or _obs_tracing._STATE.active):
            return self._run_lockstep_instrumented(conditions, max_cycles)
        return self._run_lockstep(conditions, max_cycles)

    def _run_lockstep_instrumented(self, conditions, max_cycles):
        """Lockstep run under a ``batch.lockstep`` span / profiler record.

        One span covers the whole batch run — lane count and the lockstep
        cycle total land in its attributes; lane-cycles (cycles × lanes,
        the throughput-relevant unit) are what the profiler accumulates.
        """
        profiler = _obs_profile.active()
        start_cycle = self._cycles
        wall = time.perf_counter()
        with _obs_tracing.span("batch.lockstep", lanes=self.n_lanes) as sp:
            done = self._run_lockstep(conditions, max_cycles)
            sp.args["cycles"] = self._cycles - start_cycle
        if profiler is not None:
            profiler.record_step(
                COMPILED_BATCHED,
                (self._cycles - start_cycle) * self.n_lanes,
                time.perf_counter() - wall)
        return done

    def _run_lockstep(self, conditions: Sequence[Callable[[], bool]],
                      max_cycles: Optional[int] = None) -> List[int]:
        budget = self.max_cycles if max_cycles is None else max_cycles
        start = self._cycles
        done: List[int] = [0] * self.n_lanes
        pending = list(zip(range(self.n_lanes), conditions))
        cycle_fn = self._cycle_fn
        while True:
            waiting = []
            for entry in pending:
                if entry[1]():
                    done[entry[0]] = self._cycles - start
                else:
                    waiting.append(entry)
            pending = waiting
            if not pending:
                break
            if self._cycles - start >= budget:
                missing = [lane for lane, _condition in pending]
                raise SimulationError(
                    f"lanes {missing} did not reach their conditions "
                    f"within {budget} cycles")
            cycle_fn(self)
        self.sync_out()
        return done

    def lane_attr(self, lane: int, owner: Any, attr: str) -> int:
        """Read a promoted Python attribute for one lane without a sync."""
        program = self._programs[lane]
        for j, (slot_owner, slot_attr) in enumerate(program.attr_slots):
            if slot_owner is owner and slot_attr == attr:
                return int(self._PA[j][lane])
        return int(getattr(owner, attr))

    def add_watcher(self, func: Callable[[int], None],
                    on_reset: Optional[Callable[[], None]] = None) -> None:
        """Watch every cycle (lane-agnostic); lanes are synced first."""
        self.lane(0).add_watcher(func, on_reset)

    def reset(self) -> None:
        """Reset every lane, the cycle counter and watcher state; re-settle."""
        for top in self.tops:
            top.reset_state()
        self._cycles = 0
        for hook in self._hooks:
            hook.clear()
        self._in_dirty = False
        self._dirty = True
        self._gather_all()
        for watchers in self._lane_watchers:
            for _func, on_reset in watchers:
                if on_reset is not None:
                    on_reset()
        self._settle_fn(self)
        self.sync_out()


def batch_groups(tops: Sequence[Component], max_settle: int = 64
                 ) -> List[Tuple[List[int], List]]:
    """Group design instances into batch-compatible lane sets.

    Buckets designs by program signature (byte-identical generated source
    and array shapes).  Each design is first rebound against recently
    emitted reference programs — recipe-identical siblings reuse a prior
    emission outright — and only novel designs pay a full emitter run.
    Returns ``[(indices, programs), ...]`` in first-seen order; feed each
    group's ``tops``/``programs`` pair straight into
    :class:`BatchedSimulator` to avoid a second emission.
    """
    _require_numpy()

    groups: Dict[str, Tuple[List[int], List]] = {}
    order: List[str] = []
    for index, top in enumerate(tops):
        program = _program_for(top, max_settle)
        key = program.signature
        if key not in groups:
            groups[key] = ([], [])
            order.append(key)
        groups[key][0].append(index)
        groups[key][1].append(program)
    return [groups[key] for key in order]
