"""Differential fuzzing of the compiled clock edge on generated components.

A hypothesis strategy writes the source of a small component whose clocked
process (and a helper it calls) mixes registers, an FSM driven through
``is_in``/``goto``/``stay``, early ``return``, memory writes and reads, a
Python counter and a list append.  The component runs under ``compiled``
twice (the second instance binds the cached lowering) and under the
``fixpoint`` oracle; per-cycle signal values and memory contents, the
counter, the list and ``observed_transitions()`` must all agree.

Tier-1 runs a bounded number of examples; the ``compile-fuzz`` profile
(``--hypothesis-profile compile-fuzz``, see ``tests/conftest.py``) soaks.
"""

import itertools
import linecache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rtl import COMPILED, FIXPOINT, FSM, Component, Simulator

TIER1_EXAMPLES = 30


def _examples() -> int:
    fuzz = settings.get_profile("compile-fuzz")
    return fuzz.max_examples if settings.default is fuzz else TIER1_EXAMPLES


N_REGS = 3
N_STATES = 3


def _atoms(local: bool):
    # Data first: hypothesis leans on the first options when it simplifies.
    atoms = [st.just("self.inp.value"), st.integers(0, 600).map(str),
             st.sampled_from([f"self.r{i}.value" for i in range(N_REGS)]),
             st.just("self.out.value"), st.just("self.count"),
             st.just("len(self.log)"), st.just("self.fsm.state.value")]
    if local:
        atoms.append(st.just("t0"))
    return st.one_of(atoms)


def _exprs(local: bool):
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-&|^"), inner)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from("%>"), st.integers(1, 7))
            .map(lambda t: f"({t[0]} {'%' if t[1] == '%' else '>>'} {t[2]})"),
            inner.map(lambda e: f"self.mem[{e}]"),
            st.tuples(inner, _conds(local, inner), inner)
            .map(lambda t: f"({t[0]} if {t[1]} else {t[2]})"))
    return st.recursive(_atoms(local), extend, max_leaves=4)


def _conds(local: bool, exprs=None):
    exprs = exprs if exprs is not None else _atoms(local)
    base = st.one_of(
        st.tuples(exprs, st.sampled_from(["<", "<=", "==", "!="]), exprs)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.integers(0, N_STATES - 1).map(
            lambda k: f"self.fsm.is_in('S{k}')"),
        exprs)
    return st.one_of(
        base, base.map(lambda c: f"(not {c})"),
        st.tuples(base, st.sampled_from(["and", "or"]), base)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"))


def _simple(local: bool):
    exprs = _exprs(local)
    store = st.tuples(st.integers(0, N_REGS - 1), exprs).map(
        lambda t: [f"self.r{t[0]}.next = {t[1]}"])
    options = [
        store, store,
        st.tuples(exprs, exprs).map(lambda t: [f"self.mem[{t[0]}] = {t[1]}"]),
        st.integers(1, 3).map(lambda k: [f"self.count += {k}"]),
        exprs.map(lambda e: [f"self.log.append({e})"]),
        st.integers(0, N_STATES - 1).map(
            lambda k: [f"self.fsm.goto('S{k}')"]),
        st.just(["self.fsm.stay()"]),
        _conds(local).map(lambda c: [f"if {c}:", "    return"]),
    ]
    if local:
        options += [exprs.map(lambda e: [f"t0 = {e}"]),
                    st.just(["self._helper()"])]
    return st.one_of(options)


def _indent(lines):
    return ["    " + line for line in lines]


def _flat(parts):
    return list(itertools.chain.from_iterable(parts))


def _blocks(local: bool, max_size: int = 4):
    def extend(inner):
        body = st.lists(inner, min_size=1, max_size=3).map(_flat)
        test = st.one_of(_conds(local), st.integers(0, N_STATES - 1).map(
            lambda k: f"self.fsm.is_in('S{k}')"))
        return st.tuples(test, body, st.one_of(st.none(), body)).map(
            lambda t: [f"if {t[0]}:", *_indent(t[1])]
            + ([] if t[2] is None else ["else:", *_indent(t[2])]))
    return st.lists(st.recursive(_simple(local), extend, max_leaves=6),
                    min_size=1, max_size=max_size).map(_flat)


@st.composite
def _ladder(draw):
    """One branch per FSM state, each able to leave it: the edge's
    ``goto`` lowering needs the state an enclosing ``is_in`` proves."""
    lines = []
    for k in range(N_STATES):
        keyword = "if" if k == 0 else "elif"
        lines.append(f"{keyword} self.fsm.is_in('S{k}'):")
        lines += _indent(draw(_blocks(local=True, max_size=2)))
        target = draw(st.integers(0, N_STATES - 1))
        lines += _indent([f"if {draw(_conds(local=True))}:",
                          f"    self.fsm.goto('S{target}')"])
    return lines


@st.composite
def designs(draw):
    widths = draw(st.lists(st.integers(1, 9), min_size=N_REGS,
                           max_size=N_REGS))
    inits = draw(st.lists(st.integers(0, 511), min_size=N_REGS,
                          max_size=N_REGS))
    depth = draw(st.integers(2, 6))
    mem_width = draw(st.integers(1, 9))
    contents = draw(st.lists(st.integers(0, 511), min_size=depth,
                             max_size=depth))
    init = draw(_exprs(local=False))
    first = draw(_exprs(local=True))
    process = draw(_ladder()) + draw(_blocks(local=True))
    helper = draw(_blocks(local=False))
    regs = [f"        self.r{i} = self.state({w}, init={v}, name='r{i}')"
            for i, (w, v) in enumerate(zip(widths, inits))]
    states = [f"S{k}" for k in range(N_STATES)]
    return "\n".join([
        "class Generated(Component):",
        "    def __init__(self):",
        "        super().__init__('gen')",
        "        self.inp = self.signal(8, name='inp')",
        "        self.out = self.signal(8, name='out')",
        *regs,
        f"        self.mem = self.memory({depth}, {mem_width}, name='mem',",
        f"                               init={contents!r})",
        f"        self.fsm = FSM(self, {states!r}, name='fsm')",
        "        self.count = 0",
        "        self.log = []",
        "",
        "        @self.comb",
        "        def glue():",
        "            self.out.next = self.r0.value ^ self.inp.value",
        "",
        "        @self.seq",
        "        def step():",
        f"            t0 = {init}",
        f"            self.r0.next = {first}",
        *["            " + line for line in process],
        "",
        "    def _helper(self):",
        *["        " + line for line in helper],
        "",
    ])


_sources = itertools.count()


def _load(source: str):
    """Exec ``source`` under a file name the process analysis can read."""
    filename = f"<edge-fuzz-{next(_sources)}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace = {"Component": Component, "FSM": FSM}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["Generated"], filename


def _trace(cls, strategy, stimulus):
    top = cls()
    sim = Simulator(top, strategy=strategy)
    rows = []
    try:
        for value in stimulus:
            top.inp.force(value)
            sim.step()
            rows.append(([sig.value for sig in top.all_signals()],
                         top.mem.dump(), top.count, len(top.log)))
    except Exception as exc:  # both engines must fail alike
        rows.append((type(exc).__name__, sim.cycles))
    return rows, list(top.log), top.fsm.observed_transitions(), sim


@settings(max_examples=_examples(), deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=designs(),
       stimulus=st.lists(st.integers(0, 255), min_size=1, max_size=40))
def test_generated_clocked_processes_match_the_oracle(source, stimulus):
    cls, filename = _load(source)
    try:
        oracle = _trace(cls, FIXPOINT, stimulus)[:3]
        first = _trace(cls, COMPILED, stimulus)
        second = _trace(cls, COMPILED, stimulus)
    finally:
        del linecache.cache[filename]
    assert first[:3] == oracle, source
    assert second[:3] == oracle, source
    # The grammar stays inside what the lowering handles; only an
    # early-return ladder too tangled to unfold may stay interpreted.
    report = first[3].compile_report
    assert all(reason == "early returns copy too much code"
               for _, reason in report.interpreted), report.interpreted
    assert first[3].compiled_source == second[3].compiled_source
