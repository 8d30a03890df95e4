"""Batched lockstep simulation: lane semantics beyond the differential oracle.

``tests/rtl/test_strategy_equivalence.py`` proves every lane of a batched
run bit-identical to the scalar strategies on the shipped designs; this
module covers the batch-specific surface: ragged lane counts, cyclic comb
groups whose lanes converge at different iteration counts, the per-lane
fallback path for unvectorizable processes, lane-permutation and
batch-splitting invariance, attach/detach ownership, reset and watchers.
"""

import random

import pytest

from repro.designs import VideoSystem, build_saa2vga_pattern
from repro.rtl import (
    COMPILED,
    COMPILED_BATCHED,
    FIXPOINT,
    BatchedSimulator,
    Component,
    SimulationError,
    Simulator,
    batch_groups,
)
from repro.video import flatten, random_frame


def _make_system(frame, capacity=8):
    return VideoSystem(build_saa2vga_pattern("fifo", capacity=capacity),
                       frames=[frame])


def _scalar_run(frame, strategy=COMPILED, capacity=8):
    system = _make_system(frame, capacity=capacity)
    sim = Simulator(system, strategy=strategy)
    expected = flatten(frame)
    sim.run_until(lambda: system.sink.count >= len(expected), 50_000)
    return system.received_pixels(), sim.cycles


def _batched_run(frames, capacity=8):
    systems = [_make_system(frame, capacity=capacity) for frame in frames]
    batch = BatchedSimulator(systems)
    conditions = [(lambda s=system, n=len(flatten(frame)): s.sink.count >= n)
                  for system, frame in zip(systems, frames)]
    done = batch.run_lockstep(conditions, max_cycles=50_000)
    return [(system.received_pixels()[:len(flatten(frame))], cycles)
            for system, frame, cycles in zip(systems, frames, done)]


# -- ragged batches -----------------------------------------------------------


@pytest.mark.parametrize("n_lanes", [1, 5])
def test_ragged_batch_sizes_match_scalar(n_lanes):
    """N=1 and N not a power of two, with per-lane frame shapes, must each
    reproduce the scalar per-point runs exactly (early-finishing lanes keep
    clocking while the longest lane drains — their results may not drift)."""
    shapes = [(8, 5), (10, 6), (6, 9), (12, 4), (9, 7)][:n_lanes]
    frames = [random_frame(w, h, seed=30 + i)
              for i, (w, h) in enumerate(shapes)]
    scalar = [_scalar_run(frame) for frame in frames]
    assert _batched_run(frames) == scalar


# -- mixed-convergence cyclic groups ------------------------------------------


class _Ripple(Component):
    """Two comb processes in a feedback cycle whose fixpoint arrives after a
    data-dependent number of iterations: ``acc = inp | (acc >> 1)`` smears
    the highest input bit toward the LSB one iteration at a time, so lanes
    holding different inputs settle at different iteration counts."""

    def __init__(self):
        super().__init__("ripple")
        self.inp = self.signal(8)
        self.mid = self.signal(8)
        self.acc = self.signal(8)
        self.total = self.state(16)

        @self.comb
        def shift():
            self.mid.next = self.acc.value >> 1

        @self.comb
        def accumulate():
            self.acc.next = self.inp.value | self.mid.value

        @self.seq
        def integrate():
            self.total.next = self.total.value + self.acc.value


def test_cyclic_group_lanes_converge_independently():
    """Lanes needing 1..8 settle iterations in the same cyclic group must
    each land on exactly the scalar fixpoint, cycle after cycle."""
    stimuli = [0x80, 0x01, 0x24, 0x00]  # 8, 1, ~4 and 0 smear iterations
    scalars = []
    for value in stimuli:
        top = _Ripple()
        sim = Simulator(top, strategy=FIXPOINT)
        trace = []
        for cycle in range(6):
            top.inp.force((value + cycle) & 0xFF)
            sim.settle()
            trace.append((top.acc.value, top.mid.value))
            sim.step()
            trace.append(top.total.value)
        scalars.append(trace)

    tops = [_Ripple() for _ in stimuli]
    batch = BatchedSimulator(tops)
    report = batch.batch_report
    assert report.n_cyclic_groups >= 1 or report.guarded
    traces = [[] for _ in stimuli]
    for cycle in range(6):
        for top, value in zip(tops, stimuli):
            top.inp.force((value + cycle) & 0xFF)
        batch.settle()
        for lane, top in enumerate(tops):
            traces[lane].append((top.acc.value, top.mid.value))
        batch.step()
        for lane, top in enumerate(tops):
            traces[lane].append(top.total.value)
    assert traces == scalars


# -- per-lane fallback for unvectorizable processes ---------------------------


class _Checksum(Component):
    """A comb process the vectorizer cannot transpile (a ``for`` loop): the
    batched backend must still simulate it, lane by lane."""

    def __init__(self):
        super().__init__("checksum")
        self.inp = self.signal(8)
        self.out = self.signal(8)
        self.hist = self.state(8)

        @self.comb
        def fold():
            total = 0
            for shift in (0, 2, 4, 6):
                total ^= (self.inp.value >> shift) & 0x3
            self.out.next = total

        @self.seq
        def accumulate():
            self.hist.next = self.hist.value + self.out.value


def test_unvectorizable_proc_falls_back_per_lane():
    values = [0x00, 0x5A, 0xFF]
    scalars = []
    for value in values:
        top = _Checksum()
        sim = Simulator(top, strategy=COMPILED)
        trace = []
        for cycle in range(8):
            top.inp.force((value ^ (cycle * 37)) & 0xFF)
            sim.settle()
            trace.append(top.out.value)
            sim.step()
            trace.append(top.hist.value)
        scalars.append(trace)

    tops = [_Checksum() for _ in values]
    batch = BatchedSimulator(tops)
    report = batch.batch_report
    assert report.n_lane_call_comb + report.n_opaque_procs >= 1
    assert report.fallback_reasons
    traces = [[] for _ in values]
    for cycle in range(8):
        for top, value in zip(tops, values):
            top.inp.force((value ^ (cycle * 37)) & 0xFF)
        batch.settle()
        for lane, top in enumerate(tops):
            traces[lane].append(top.out.value)
        batch.step()
        for lane, top in enumerate(tops):
            traces[lane].append(top.hist.value)
    assert traces == scalars


# -- lane permutation / batch splitting invariance ----------------------------


@pytest.mark.parametrize("trial", range(3))
def test_results_invariant_under_lane_permutation_and_splitting(trial):
    """Property: per-point results may not depend on where a point sits in
    a batch, nor on how the batch is cut — any dependence would reveal
    hidden cross-lane state."""
    rng = random.Random(9000 + trial)
    shapes = [(rng.randint(5, 12), rng.randint(4, 9)) for _ in range(5)]
    frames = [random_frame(w, h, seed=rng.randint(0, 10_000))
              for w, h in shapes]

    baseline = _batched_run(frames)

    order = list(range(len(frames)))
    rng.shuffle(order)
    permuted = _batched_run([frames[i] for i in order])
    assert permuted == [baseline[i] for i in order]

    cut = rng.randint(1, len(frames) - 1)
    split = _batched_run(frames[:cut]) + _batched_run(frames[cut:])
    assert split == baseline


# -- lane packing -------------------------------------------------------------


def test_incompatible_lanes_rejected_and_grouped():
    """Different capacities bake different memory shapes into the program:
    one BatchedSimulator must refuse the mix, and batch_groups must split
    it into compatible lane sets covering every index exactly once."""
    systems = [_make_system(random_frame(8, 5, seed=i), capacity=cap)
               for i, cap in enumerate([8, 16, 8, 16, 8])]
    with pytest.raises(SimulationError, match="batch-compatible"):
        BatchedSimulator(systems)
    groups = batch_groups(systems)
    assert sorted(i for indices, _ in groups for i in indices) == [0, 1, 2, 3, 4]
    assert [indices for indices, _ in groups] == [[0, 2, 4], [1, 3]]
    for indices, programs in groups:
        batch = BatchedSimulator([systems[i] for i in indices],
                                 programs=programs)
        assert batch.n_lanes == len(indices)


# -- emit-once + rebind -------------------------------------------------------


def test_sibling_lanes_reuse_one_emission(monkeypatch):
    """Constructing a batch over N sibling designs must run the emitter
    once: every other lane is proven recipe-identical and rebound.  A
    second construction reuses the cached reference emission outright."""
    from repro.rtl import batch as batch_module
    from repro.rtl.compile import emit_batched

    emissions = []
    real = emit_batched.emit_batched_program

    def counted(*args, **kwargs):
        emissions.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(emit_batched, "emit_batched_program", counted)
    batch_module._REFERENCE_CACHE.clear()

    frames = [random_frame(8, 5, seed=40 + i) for i in range(6)]
    batch = BatchedSimulator([_make_system(frame) for frame in frames])
    assert batch.n_lanes == 6
    assert len(emissions) == 1

    BatchedSimulator([_make_system(frame) for frame in frames[:3]])
    assert len(emissions) == 1


def test_rebind_accepts_stimulus_siblings_and_rejects_baked_mismatch():
    """Rebinding must succeed across lanes that differ only in runtime
    payload (any frame shape), yielding a byte-identical program — and
    must bail for a design whose baked constants differ (capacity changes
    the memory shape and the folded guards)."""
    from repro.rtl.compile.emit_batched import emit_batched_program
    from repro.rtl.compile.rebind import rebind_batched_program

    reference = emit_batched_program(_make_system(random_frame(8, 5, seed=50)))
    sibling = _make_system(random_frame(10, 4, seed=51))
    rebound = rebind_batched_program(reference, sibling)
    assert rebound is not None
    assert rebound.source is reference.source
    assert rebound.signature == reference.signature
    assert rebound.signals == sibling.all_signals()

    other = _make_system(random_frame(8, 5, seed=52), capacity=16)
    assert rebind_batched_program(reference, other) is None


def test_rebind_rejects_reference_that_drifted_since_emission():
    """A cached program is only reusable while its own design still holds
    every value the source baked: mutating a folded attribute on the
    *reference* design must invalidate rebinding (this is what makes the
    cross-construction reference cache sound)."""
    from repro.rtl.compile.emit_batched import emit_batched_program
    from repro.rtl.compile.rebind import rebind_batched_program

    ref_top = _make_system(random_frame(8, 5, seed=60))
    sibling = _make_system(random_frame(8, 5, seed=61))
    reference = emit_batched_program(ref_top)
    assert rebind_batched_program(reference, sibling) is not None

    assert reference.bake_attrs, "expected folded scalar attributes"
    owner, attr, value = next((entry for entry in reference.bake_attrs
                               if isinstance(entry[2], int)),
                              reference.bake_attrs[0])
    setattr(owner, attr, value + 1 if isinstance(value, int) else "drift")
    assert rebind_batched_program(reference, sibling) is None
    setattr(owner, attr, value)
    assert rebind_batched_program(reference, sibling) is not None


# -- ownership, reset, watchers ----------------------------------------------


class _Toggler(Component):
    def __init__(self):
        super().__init__("toggler")
        self.count = self.state(8)
        self.parity = self.signal(1)

        @self.comb
        def decode():
            self.parity.next = self.count.value & 1

        @self.seq
        def advance():
            self.count.next = self.count.value + 1


def test_scalar_simulator_supersedes_batch():
    tops = [_Toggler(), _Toggler()]
    batch = BatchedSimulator(tops)
    batch.step(2)
    replacement = Simulator(tops[0], strategy=COMPILED)
    with pytest.raises(SimulationError):
        batch.step()
    with pytest.raises(SimulationError):
        batch.settle()
    replacement.step()
    assert tops[0].count.value == 3


def test_batch_supersedes_scalar_simulator():
    top = _Toggler()
    scalar = Simulator(top, strategy=COMPILED)
    scalar.step(2)
    batch = BatchedSimulator([top])
    with pytest.raises(SimulationError):
        scalar.step()
    batch.step()
    assert top.count.value == 3


def test_batched_reset_reproduces_first_run():
    frames = [random_frame(8, 5, seed=s) for s in (1, 2, 3)]
    systems = [_make_system(frame) for frame in frames]
    batch = BatchedSimulator(systems)
    conditions = [(lambda s=system, n=len(flatten(frame)): s.sink.count >= n)
                  for system, frame in zip(systems, frames)]
    first = batch.run_lockstep(conditions, max_cycles=50_000)
    pixels = [system.received_pixels() for system in systems]

    batch.reset()
    assert batch.cycles == 0
    for system in systems:
        system.sink.clear()
    again = batch.run_lockstep(conditions, max_cycles=50_000)
    assert again == first
    assert [system.received_pixels() for system in systems] == pixels


def test_lane_views_and_watchers():
    tops = [_Toggler(), _Toggler(), _Toggler()]
    batch = BatchedSimulator(tops)
    assert batch.strategy == COMPILED_BATCHED
    seen = {0: [], 2: []}
    for lane in seen:
        view = batch.lane(lane)
        assert view.top is tops[lane]
        assert view.strategy == COMPILED_BATCHED
        view.add_watcher(
            lambda cycle, lane=lane: seen[lane].append(
                (cycle, tops[lane].parity.value)))
    batch.step(4)
    # parity is decoded from the post-edge count: 1, 0, 1, 0 over 4 cycles
    assert seen[0] == seen[2] == [(1, 1), (2, 0), (3, 1), (4, 0)]
    assert batch.lane(1).cycles == 4
    with pytest.raises(SimulationError):
        batch.lane(1).remove_watcher(lambda cycle: None)


def test_run_lockstep_budget_names_unfinished_lanes():
    tops = [_Toggler(), _Toggler()]
    batch = BatchedSimulator(tops)
    conditions = [lambda: True, lambda: False]
    with pytest.raises(SimulationError, match=r"lanes \[1\]"):
        batch.run_lockstep(conditions, max_cycles=10)


def test_run_until_whole_batch_condition_reads_synced_signals():
    tops = [_Toggler(), _Toggler()]
    batch = BatchedSimulator(tops)
    elapsed = batch.run_until(
        lambda: all(top.count.value >= 5 for top in tops), max_cycles=100)
    assert elapsed == 5
    assert [top.count.value for top in tops] == [5, 5]
