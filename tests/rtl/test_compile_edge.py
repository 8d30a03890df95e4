"""The compiled clock edge: clocked processes lowered into generated code.

Every test runs the same stimulus through ``compiled`` and the
``fixpoint`` oracle and requires identical per-cycle signal traces,
memory contents, FSM transition logs and Python-side state (counters,
lists) — then pins what the generated ``edge`` looks like.
"""

import random

import pytest

from repro.obs import profile
from repro.rtl import (
    COMPILED,
    FIXPOINT,
    FSM,
    Component,
    Recorder,
    Simulator,
    register,
)
from repro.rtl.compile import emit
from repro.verify import mutate


class _Edge(Component):
    """One clocked process mixing every construct the lowering rewrites."""

    def __init__(self, width=8, states=("IDLE", "LOAD", "DRAIN")):
        super().__init__("edge")
        self.go = self.signal(1, name="go")
        self.din = self.signal(width, name="din")
        self.acc = self.state(width, name="acc")
        self.addr = self.state(2, name="addr")
        self.out = self.state(width, name="out")
        self.mem = self.memory(4, width, name="mem")
        self.fsm = FSM(self, list(states), name="ctl")
        self.writes = 0
        self.seen = []

        @self.seq
        def control():
            fsm = self.fsm
            if not self.go.value:
                fsm.stay()
                return
            if fsm.is_in("IDLE"):
                self.acc.next = self.din.value
                fsm.goto("LOAD")
            elif fsm.is_in("LOAD"):
                self._store()
                if self.addr.value == 3:
                    fsm.goto("DRAIN")
            elif fsm.is_in("DRAIN"):
                self.out.next = self.mem[self.addr.value] + self.acc.value
                self.addr.next = self.addr.value + 1
                self.seen.append(self.out.value)
                if self._ready():
                    fsm.goto("IDLE")

    def _store(self):
        self.mem[self.addr.value] = self.acc.value ^ self.din.value
        self.addr.next = self.addr.value + 1
        self.writes += 1

    def _ready(self):
        if self.addr.value != 3:
            return False
        return len(self.seen) % 2 == 0


def _stimulus(cycles=200, seed=11):
    rng = random.Random(seed)
    return [(rng.random() < 0.8, rng.randrange(256)) for _ in range(cycles)]


def _run(top, strategy, stimulus=None):
    """Per-cycle trace of every signal and memory, plus Python state."""
    sim = Simulator(top, strategy=strategy)
    recorder = Recorder(sim, top.all_signals())
    memories = []
    for go, din in stimulus or _stimulus():
        top.go.force(go)
        top.din.force(din)
        sim.step()
        memories.append([mem.dump() for mem in top.all_memories()])
    return sim, (recorder.rows, memories)


def _assert_same(factory, stimulus=None):
    """Run ``factory()`` under both engines; return the compiled run."""
    compiled_top, fixpoint_top = factory(), factory()
    sim, compiled = _run(compiled_top, COMPILED, stimulus)
    _, oracle = _run(fixpoint_top, FIXPOINT, stimulus)
    assert compiled == oracle
    for name in ("writes", "seen", "log", "count"):
        assert getattr(compiled_top, name, None) == \
            getattr(fixpoint_top, name, None)
    if hasattr(compiled_top, "fsm"):
        assert compiled_top.fsm.observed_transitions() == \
            fixpoint_top.fsm.observed_transitions()
    assert sim.analysis_misses == 0
    return sim, compiled_top


def _edge_source(sim):
    source = sim.compiled_source
    return source[source.index("def edge"):source.index("def cycle")]


def test_lowered_edge_matches_the_oracle():
    sim, top = _assert_same(_Edge)
    assert top.writes > 0 and top.seen
    assert len(top.fsm.observed_transitions()) >= 3
    report = sim.compile_report
    assert (report.n_seq_procs, report.n_compiled_seq_procs) == (1, 1)
    edge = _edge_source(sim)
    assert "_q0()" not in edge
    # FSM calls, helpers and the memory became straight-line code.
    assert "('IDLE', 'LOAD')" in edge
    assert ".is_in(" not in edge and ".goto(" not in edge
    assert "._store(" not in edge and "._ready(" not in edge
    assert "._data[" in edge
    # Python state stays live on the bound component.
    assert ".writes += 1" in edge and ".seen.append(" in edge


def test_early_return_skips_exactly_the_rest_of_the_process():
    stimulus = [(0, 5)] * 5 + [(1, 7)] * 20 + [(0, 1)] * 5
    _assert_same(_Edge, stimulus)


class _Loops(Component):
    """A helper the lowering cannot splice (return inside a loop)."""

    def __init__(self):
        super().__init__("loops")
        self.go = self.signal(1, name="go")
        self.din = self.signal(8, name="din")
        self.regs = [self.state(8, name=f"r{i}") for i in range(3)]
        self.hits = 0

        @self.seq
        def shift():
            if self.go.value:
                self._first_zero()
            self.regs[0].next = self.din.value

    def _first_zero(self):
        for index, reg in enumerate(self.regs):
            if reg.value == 0:
                reg.next = index + 1
                self.hits += 1
                return


def test_unspliceable_helper_stays_a_live_call():
    """Its ``Signal.next`` writes land in ``sim._written``, which the edge
    commits alongside the static write set."""
    sim, top = _assert_same(_Loops)
    assert top.hits > 0
    assert "._first_zero()" in _edge_source(sim)
    assert sim.compile_report.n_compiled_seq_procs == 1


class _Mixed(Component):
    def __init__(self):
        super().__init__("mixed")
        self.go = self.signal(1, name="go")
        self.din = self.signal(8, name="din")
        self.a = self.state(8, name="a")
        self.b = self.state(8, name="b")
        self.log = []

        @self.seq
        def plain():
            self.a.next = self.din.value + 1

        @self.seq
        def listy():
            self.b.next = sum([v for v in (self.a.value, self.din.value)])
            self.log.append(self.b.value)


def test_unsupported_process_falls_back_alone():
    sim, _ = _assert_same(_Mixed)
    report = sim.compile_report
    assert (report.n_seq_procs, report.n_compiled_seq_procs) == (2, 1)
    assert ("_Mixed.__init__.<locals>.listy", "contains ListComp") in \
        report.interpreted
    assert "interpreted _Mixed.__init__.<locals>.listy" in report.summary()
    edge = _edge_source(sim)
    assert "_q1()" in edge and "_q0()" not in edge


class _Unproven(Component):
    def __init__(self):
        super().__init__("unproven")
        self.go = self.signal(1, name="go")
        self.din = self.signal(8, name="din")
        self.fsm = FSM(self, ["A", "B", "C"], name="f")

        self.count = 0

        @self.seq
        def hop():
            if self.fsm.is_in("A"):
                self.count += 1
            if self.go.value:
                if self.din.value & 1:
                    self.fsm.goto("B")
                else:
                    self.fsm.goto("C")
            elif self.din.value & 2:
                self.fsm.goto("A" if self.din.value & 4 else "B")


def test_goto_from_an_unproven_state_stays_a_live_call():
    """An ``is_in`` proves the state inside its own branch only."""
    sim, top = _assert_same(_Unproven)
    assert len(top.fsm.observed_transitions()) > 3
    assert _edge_source(sim).count(".goto(") == 3


class _Coerce(Component):
    """Stores the interpreter passes through ``int()``: a bare signal, a
    float, a bool."""

    def __init__(self):
        super().__init__("coerce")
        self.go = self.signal(1, name="go")
        self.din = self.signal(8, name="din")
        self.a = self.state(8, name="a")
        self.b = self.state(4, name="b")
        self.c = self.state(3, name="c")
        self.scale = 2

        @self.seq
        def store():
            self.a.next = self.din
            self.b.next = self.din.value / self.scale
            self.c.next = self.din.value > 100


def test_stores_coerce_like_the_interpreter():
    sim, _ = _assert_same(_Coerce)
    edge = _edge_source(sim)
    assert "int(_s" in edge and "int(_s" in edge.split("int(_s", 1)[1]


def test_template_is_reused_across_widths_and_relowered_for_new_states():
    """Masks and depths are template parameters; FSM encodings are not."""
    code = _Edge(width=8).all_seq_procs()[0].__code__
    emit._TEMPLATES.pop(code, None)
    for width in (8, 5, 3):
        _assert_same(lambda width=width: _Edge(width=width))
    assert len(emit._TEMPLATES[code]) == 1
    _assert_same(lambda: _Edge(states=("DRAIN", "LOAD", "IDLE")))
    assert len(emit._TEMPLATES[code]) == 2


class _Foreign(Component):
    """Writes a register that belongs to no simulated hierarchy."""

    def __init__(self, outside):
        super().__init__("foreign")
        self.go = self.signal(1, name="go")
        self.din = self.signal(8, name="din")
        self.mine = self.state(8, name="mine")

        @self.seq
        def poke():
            self.mine.next = self.din.value
            outside.next = self.din.value


def test_store_to_a_foreign_signal_stays_live():
    outside = [register(8), register(8)]
    tops = iter([_Foreign(outside[0]), _Foreign(outside[1])])
    sim, _ = _assert_same(lambda: next(tops))
    assert outside[0].value == outside[1].value == 0  # never committed
    assert outside[0].next == outside[1].next != 0
    assert ".next = " in _edge_source(sim)


def test_stale_edge_commit_is_caught_by_the_oracle_trace():
    with mutate.inject("compiled.stale_edge_commit"):
        mutated = _Edge()
        sim, trace = _run(mutated, COMPILED)
    _, oracle = _run(_Edge(), FIXPOINT)
    assert trace != oracle
    clean_sim, clean = _run(_Edge(), COMPILED)
    assert clean == oracle
    # Exactly the last register of the write set lost its commit.
    assert len(_edge_source(sim).splitlines()) \
        == len(_edge_source(clean_sim).splitlines()) - 1


def test_stale_edge_commit_off_emits_byte_identical_source():
    before = Simulator(_Edge()).compiled_source
    with mutate.inject("compiled.stale_edge_commit"):
        mutated = Simulator(_Edge()).compiled_source
    after = Simulator(_Edge()).compiled_source
    assert mutated != before
    assert after == before


def test_run_until_calls_the_generated_cycle_when_telemetry_is_off(
        monkeypatch):
    calls = []
    original = Simulator.step

    def counting(self, cycles=1):
        calls.append(cycles)
        original(self, cycles)

    monkeypatch.setattr(Simulator, "step", counting)
    top = _Edge()
    top.go.force(1)
    sim = Simulator(top)
    assert sim.run_until(lambda: sim.cycles >= 30) == 30
    assert calls == []
    profile.enable()
    try:
        sim.run_until(lambda: sim.cycles >= 40)
    finally:
        profile.disable()
    assert calls == [1] * 10


def test_instrumented_step_runs_the_generated_edge():
    top = _Edge()
    sim = Simulator(top)
    edges = []
    edge = sim._program.edge
    sim._program.edge = lambda s: (edges.append(s.cycles), edge(s))
    profile.enable()
    try:
        _, trace = _run_steps(sim, top)
    finally:
        profile.disable()
    _, oracle = _run(_Edge(), FIXPOINT)
    assert trace == oracle
    assert len(edges) == len(_stimulus())


def _run_steps(sim, top):
    recorder = Recorder(sim, top.all_signals())
    memories = []
    for go, din in _stimulus():
        top.go.force(go)
        top.din.force(din)
        sim.step()
        memories.append([mem.dump() for mem in top.all_memories()])
    return sim, (recorder.rows, memories)


@pytest.mark.parametrize("strategy", [COMPILED, FIXPOINT])
def test_reset_replays_the_lowered_edge(strategy):
    top = _Edge()
    sim, first = _run(top, strategy)
    sim.reset()
    top.writes, top.seen[:] = 0, []
    recorder = Recorder(sim, top.all_signals())
    memories = []
    for go, din in _stimulus():
        top.go.force(go)
        top.din.force(din)
        sim.step()
        memories.append([mem.dump() for mem in top.all_memories()])
    assert (recorder.rows, memories) == first
