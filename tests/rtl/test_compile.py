"""Unit tests for the compiled simulation backend (``repro.rtl.compile``).

The differential suite (``test_strategy_equivalence.py``) proves the
compiled strategy agrees with the oracle on every shipped design; this file
tests the compiler's layers directly: static read/write analysis, dependency
scheduling, source emission and the safety fallbacks (guarded convergence
for opaque processes, miss detection, combinational-loop reporting).
"""

import pytest

from repro.rtl import (
    COMPILED,
    FIXPOINT,
    CombinationalLoopError,
    Component,
    FSM,
    Recorder,
    Simulator,
)
from repro.rtl.compile import analyze_proc, build_schedule, compile_design


# -- helper designs --------------------------------------------------------------


class _Plumbing(Component):
    """Simple wire plumbing: everything should dissolve into straight code."""

    def __init__(self):
        super().__init__("plumb")
        self.a = self.state(8)
        self.b = self.signal(8)
        self.c = self.signal(4)
        self.flag = self.signal(1)

        @self.comb
        def wires():
            self.b.next = self.a.value + 1
            self.c.next = self.b.value  # deliberately narrower: must mask
            self.flag.next = 1 if self.b.value > 10 else 0

        @self.seq
        def advance():
            self.a.next = self.a.value + 3


class _Branchy(Component):
    """Reads hidden behind a branch that the initial state never takes."""

    def __init__(self):
        super().__init__("branchy")
        self.sel = self.state(1)
        self.x = self.state(8, init=5)
        self.y = self.state(8, init=9)
        self.out = self.signal(8)

        @self.comb
        def pick():
            if self.sel.value:
                self.out.next = self.y.value
            else:
                self.out.next = self.x.value

        @self.seq
        def flip():
            self.sel.next = 1 - self.sel.value


class _Chained(Component):
    """b depends on a, c on b: scheduling must order writer before reader."""

    def __init__(self):
        super().__init__("chained")
        self.a = self.state(8)
        self.b = self.signal(8)
        self.c = self.signal(8)

        @self.comb
        def second():       # registered first, but depends on ``b``
            self.c.next = self.b.value * 2

        @self.comb
        def first():
            self.b.next = self.a.value + 1

        @self.seq
        def advance():
            self.a.next = self.a.value + 1


class _Feedback(Component):
    """A converging combinational feedback loop (SR-latch style)."""

    def __init__(self):
        super().__init__("feedback")
        self.start = self.state(1)
        self.enable = self.state(1, init=1)
        self.a = self.signal(1)
        self.b = self.signal(1)

        @self.comb
        def forward():
            self.a.next = 1 if (self.b.value or self.start.value) else 0

        @self.comb
        def backward():
            self.b.next = 1 if (self.a.value and self.enable.value) else 0

        @self.seq
        def drive():
            self.start.next = 1 if self.start.value == 0 and self.a.value == 0 else 0
            if self.a.value and self.start.value == 0:
                self.enable.next = 0


class _TrueLoop(Component):
    """A diverging combinational loop: must raise, like the other engines."""

    def __init__(self):
        super().__init__("loop")
        self.a = self.signal(8)

        @self.comb
        def oscillate():
            self.a.next = self.a.value + 1


#: A callable the analyser cannot see through (no retrievable source).
_mystery_opaque = eval("lambda: 1")


class _Opaque(Component):
    """One process the analyser must give up on -> guarded settle."""

    def __init__(self):
        super().__init__("opaque")
        self.a = self.state(8)
        self.b = self.signal(8)
        self.c = self.signal(8)

        @self.comb
        def fine():
            self.b.next = self.a.value + 1

        @self.comb
        def murky():
            self.c.next = self.b.value + _mystery_opaque()

        @self.seq
        def advance():
            self.a.next = self.a.value + 1


class _FsmComb(Component):
    """fsm.is_in inside a combinational process transpiles to a compare."""

    def __init__(self):
        super().__init__("fsmcomb")
        self.busy = self.signal(1)
        self.fsm = FSM(self, ["IDLE", "RUN", "DONE"], name="ctrl")

        @self.comb
        def status():
            self.busy.next = 0 if self.fsm.is_in("IDLE") else 1

        @self.seq
        def advance():
            if self.fsm.is_in("IDLE"):
                self.fsm.goto("RUN")
            elif self.fsm.is_in("RUN"):
                self.fsm.goto("DONE")


class _MemReader(Component):
    """Combinational memory read indexed by a register."""

    def __init__(self):
        super().__init__("memread")
        self.addr = self.state(3)
        self.dout = self.signal(8)
        self.mem = self.memory(8, 8, init=[10, 20, 30, 40, 50, 60, 70, 80])

        @self.comb
        def read():
            self.dout.next = self.mem[self.addr.value]

        @self.seq
        def advance():
            self.addr.next = self.addr.value + 1


class _ListIndexed(Component):
    """Dynamic indexing into a Python list of signals reads *all* of them."""

    def __init__(self):
        super().__init__("listidx")
        self.sel = self.state(2)
        self.out = self.signal(8)
        self.regs = [self.state(8, init=7 * (i + 1), name=f"r{i}")
                     for i in range(4)]

        @self.comb
        def mux():
            self.out.next = self.regs[self.sel.value % 4].value

        @self.seq
        def advance():
            self.sel.next = self.sel.value + 1


# -- analyser ---------------------------------------------------------------------


def test_analysis_covers_both_branches():
    top = _Branchy()
    (analysis,) = [analyze_proc(p) for p in top.all_comb_procs()]
    assert not analysis.opaque
    assert top.x in analysis.reads
    assert top.y in analysis.reads  # the branch not taken at reset
    assert top.sel in analysis.reads
    assert analysis.writes == {top.out}


def test_analysis_dissolves_plumbing_statements():
    top = _Plumbing()
    (analysis,) = [analyze_proc(p) for p in top.all_comb_procs()]
    assert analysis.transpilable
    assert len(analysis.units) == 3
    assert analysis.units[0].writes == {top.b}
    assert analysis.units[1].reads == {top.b}


def test_analysis_dynamic_list_index_reads_every_element():
    top = _ListIndexed()
    (analysis,) = [analyze_proc(p) for p in top.all_comb_procs()]
    assert not analysis.opaque
    assert set(top.regs) <= analysis.reads


def test_analysis_memory_read():
    top = _MemReader()
    (analysis,) = [analyze_proc(p) for p in top.all_comb_procs()]
    assert analysis.mem_reads == {top.mem}
    assert analysis.writes == {top.dout}


def test_analysis_flags_unresolvable_call_as_opaque():
    top = _Opaque()
    analyses = [analyze_proc(p) for p in top.all_comb_procs()]
    opaque = [a for a in analyses if a.opaque]
    assert len(opaque) == 1
    assert opaque[0].opaque_reasons, "the reason must be recorded for debugging"


def test_analysis_fsm_is_in_reads_state_register():
    top = _FsmComb()
    (analysis,) = [analyze_proc(p) for p in top.all_comb_procs()]
    assert not analysis.opaque
    assert top.fsm.state in analysis.reads


# -- scheduling -------------------------------------------------------------------


def test_schedule_orders_writer_before_reader():
    top = _Chained()
    analyses = [analyze_proc(p) for p in top.all_comb_procs()]
    schedule = build_schedule(analyses)
    order = []
    for group in schedule.groups:
        assert not group.cyclic
        for unit in group.units:
            order.extend(sig.name for sig in unit.writes)
    assert order.index(top.b.name) < order.index(top.c.name)


def test_schedule_detects_feedback_group():
    top = _Feedback()
    analyses = [analyze_proc(p) for p in top.all_comb_procs()]
    schedule = build_schedule(analyses)
    cyclic = [g for g in schedule.groups if g.cyclic]
    assert len(cyclic) == 1
    assert len(cyclic[0].units) == 2


# -- emitted program ---------------------------------------------------------------


def test_generated_source_inlines_masks_and_fuses_commits():
    top = _Plumbing()
    sim = Simulator(top, strategy=COMPILED)
    source = sim.compiled_source
    assert "& 15" in source       # the 4-bit mask of ``c``, inlined
    assert "._value = " in source
    assert "._next = " in source
    report = sim.compile_report
    assert report.n_transpiled_procs == 1
    assert report.n_opaque_procs == 0
    assert not report.guarded


def test_compiled_masks_narrow_assignments():
    results = []
    for strategy in (FIXPOINT, COMPILED):
        top = _Plumbing()
        sim = Simulator(top, strategy=strategy)
        values = []
        for _ in range(12):
            sim.step()
            values.append((top.b.value, top.c.value, top.flag.value))
        results.append(values)
    assert results[0] == results[1]
    assert any(c != b for b, c, _ in results[0])  # masking actually bit


def test_compiled_feedback_group_converges_and_matches_oracle():
    results = []
    for strategy in (FIXPOINT, COMPILED):
        top = _Feedback()
        sim = Simulator(top, strategy=strategy)
        recorder = Recorder(sim, [top.start, top.enable, top.a, top.b])
        sim.step(8)
        results.append(recorder.rows)
    assert results[0] == results[1]


def test_compiled_raises_on_true_combinational_loop():
    with pytest.raises(CombinationalLoopError):
        Simulator(_TrueLoop(), strategy=COMPILED)


def test_opaque_process_falls_back_to_guarded_convergence():
    results = []
    for strategy in (FIXPOINT, COMPILED):
        top = _Opaque()
        sim = Simulator(top, strategy=strategy)
        recorder = Recorder(sim, [top.a, top.b, top.c])
        sim.step(6)
        results.append(recorder.rows)
        if strategy == COMPILED:
            assert sim.compile_report.guarded
            assert sim.compile_report.n_opaque_procs == 1
            assert sim.analysis_misses == 0
    assert results[0] == results[1]


def test_compiled_fsm_compare_matches_oracle():
    results = []
    for strategy in (FIXPOINT, COMPILED):
        top = _FsmComb()
        sim = Simulator(top, strategy=strategy)
        values = []
        for _ in range(4):
            sim.step()
            values.append((top.fsm.state.value, top.busy.value))
        results.append(values)
    assert results[0] == results[1]
    # The transpiled compare must appear in the generated source.
    top = _FsmComb()
    sim = Simulator(top, strategy=COMPILED)
    assert "== 0" in sim.compiled_source


def test_compiled_memory_read_matches_oracle():
    results = []
    for strategy in (FIXPOINT, COMPILED):
        top = _MemReader()
        sim = Simulator(top, strategy=strategy)
        values = []
        for _ in range(10):
            sim.step()
            values.append(top.dout.value)
        results.append(values)
    assert results[0] == results[1]
    top = _MemReader()
    sim = Simulator(top, strategy=COMPILED)
    assert "._data[" in sim.compiled_source


def test_compiled_dynamic_mux_matches_oracle():
    results = []
    for strategy in (FIXPOINT, COMPILED):
        top = _ListIndexed()
        sim = Simulator(top, strategy=strategy)
        values = []
        for _ in range(8):
            sim.step()
            values.append(top.out.value)
        results.append(values)
    assert results[0] == results[1]


def test_compiled_verify_mode_is_silent_on_correct_designs():
    top = _Plumbing()
    sim = Simulator(top, strategy=COMPILED, verify=True)
    sim.step(20)
    assert sim.analysis_misses == 0


def test_compiled_force_wakes_the_schedule():
    top = _Branchy()
    sim = Simulator(top, strategy=COMPILED)
    assert top.out.value == top.x.value
    top.sel.force(1)
    sim.settle()
    assert top.out.value == top.y.value


def test_compile_design_report_counts():
    top = _Chained()
    program = compile_design(top.all_comb_procs(), top.all_seq_procs())
    report = program.report
    assert report.n_procs == 2
    assert report.n_transpiled_procs == 2
    assert report.n_units == 2
    assert report.n_cyclic_groups == 0
    assert "dissolved" in report.summary()


def test_source_cache_makes_recompiles_cheap():
    """Two instances of the same class share process code objects."""
    first = Simulator(_Plumbing(), strategy=COMPILED)
    second = Simulator(_Plumbing(), strategy=COMPILED)
    assert first.compiled_source == second.compiled_source


def test_def_block_source_matches_inspect_and_falls_back():
    """Process source is read without tokenizing: the ``def`` block ends at
    the first code line no deeper than the ``def``.  Trailing comments are
    dropped, and anything that does not parse back into the one function
    (lambdas, a body comment left of the ``def``) is left to ``inspect``."""
    import inspect
    import textwrap

    from repro.rtl.compile.analyze import _def_block_source

    top = _Plumbing()
    (wires,) = top.comb_procs
    assert _def_block_source(wires.__code__) == \
        textwrap.dedent(inspect.getsource(wires))

    def tidy():
        return 1
    # a trailing comment at the enclosing indentation
    assert _def_block_source(tidy.__code__) == "def tidy():\n    return 1\n"

    def ragged():
        x = 1
# a body comment left of the def breaks the dedent
        return x
    assert _def_block_source(ragged.__code__) is None
    assert _def_block_source((lambda: 0).__code__) is None


def test_dynamic_subscript_of_int_table_keeps_distinct_values_only():
    """A dynamic index into plain ints resolves to the distinct values, so
    queued stimulus does not make analysis slower; other containers keep
    every element."""
    from repro.rtl.compile.analyze import _distinct

    table = [3, 1, 3, 3, 1, 7] * 1000
    assert _distinct(table) == [3, 1, 7]
    mixed = [1, True, 1]
    assert _distinct(mixed) == mixed
    sigs = _Plumbing().signals
    assert _distinct(sigs) == sigs
