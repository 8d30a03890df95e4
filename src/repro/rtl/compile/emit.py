"""Source emission for the compiled settle strategy.

Given a :class:`~repro.rtl.compile.schedule.Schedule`, this module generates
one specialised Python module per design:

* transpiled statements are rewritten onto *slots* — signals and memories
  become pre-bound local names (``_s12``, ``_m3``) so the hot path performs
  no dict or attribute-chain lookups beyond a single C-level slot access;
* bit-width masks are inlined as integer literals at every assignment, doing
  at code-generation time what ``Signal.next`` otherwise does per write;
* commits are fused into the writes (``_s12._value = _s12._next = ...``)
  because the topological order guarantees no reader ran earlier;
* cyclic groups iterate with per-signal change detection until stable;
* opaque processes demote the whole settle to a guarded convergence loop —
  never wrong, merely slower.

The generated source is kept on the simulator (``sim.compiled_source``) so
it can be inspected, diffed and unit-tested like any other artefact.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..component import Memory
from ..errors import CombinationalLoopError
from ..signal import Signal
from .analyze import ProcAnalysis
from .schedule import Schedule, Unit


@dataclass
class CompileReport:
    """What the compiler did with a design (for tests and debugging)."""

    n_procs: int
    n_transpiled_procs: int
    n_call_procs: int
    n_opaque_procs: int
    n_units: int
    n_cyclic_groups: int
    cyclic_group_sizes: List[int]
    guarded: bool
    opaque_reasons: List[str]

    def summary(self) -> str:
        return (f"{self.n_procs} comb procs: {self.n_transpiled_procs} "
                f"dissolved, {self.n_call_procs} called, "
                f"{self.n_opaque_procs} opaque; {self.n_units} units, "
                f"{self.n_cyclic_groups} cyclic groups"
                f"{' (guarded)' if self.guarded else ''}")


@dataclass
class CompiledProgram:
    """The executable artefact: settle/cycle plus its provenance."""

    settle: Callable
    cycle: Callable
    source: str
    report: CompileReport


class _Slots:
    """Stable slot numbering for every object the generated code touches."""

    def __init__(self) -> None:
        self.signals: Dict[Signal, str] = {}
        self.memories: Dict[Memory, str] = {}
        self.procs: Dict[int, str] = {}
        self._sig_objects: List[Signal] = []
        self._mem_objects: List[Memory] = []
        self._proc_objects: List[Callable] = []

    def signal(self, sig: Signal) -> str:
        name = self.signals.get(sig)
        if name is None:
            name = f"_s{len(self._sig_objects)}"
            self.signals[sig] = name
            self._sig_objects.append(sig)
        return name

    def memory(self, mem: Memory) -> str:
        name = self.memories.get(mem)
        if name is None:
            name = f"_m{len(self._mem_objects)}"
            self.memories[mem] = name
            self._mem_objects.append(mem)
        return name

    def proc(self, index: int, func: Callable) -> str:
        name = self.procs.get(index)
        if name is None:
            name = f"_p{len(self._proc_objects)}"
            self.procs[index] = name
            self._proc_objects.append(func)
        return name

class _Transpiler(ast.NodeTransformer):
    """Rewrite an analysed statement onto slot-indexed signal access."""

    def __init__(self, analysis: ProcAnalysis, slots: _Slots,
                 proc_tag: str, guarded: bool) -> None:
        self.analysis = analysis
        self.notes = analysis.notes
        self.slots = slots
        self.proc_tag = proc_tag
        self.guarded = guarded
        self.temp_counter = 0

    # -- helpers ---------------------------------------------------------------

    def _slot_value(self, sig: Signal) -> ast.Attribute:
        return ast.Attribute(value=ast.Name(id=self.slots.signal(sig),
                                            ctx=ast.Load()),
                             attr="_value", ctx=ast.Load())

    def _mangle(self, name: str) -> str:
        return f"_L{self.proc_tag}_{name}"

    # -- expressions -----------------------------------------------------------

    def visit_Name(self, node: ast.Name):
        noted = self.notes.get(id(node), _MISSING)
        if noted is not _MISSING:
            if isinstance(noted, Signal):
                return self._slot_value(noted)
            if _is_const(noted):
                return ast.Constant(value=noted)
        if node.id in self.analysis.local_names:
            return ast.Name(id=self._mangle(node.id), ctx=node.ctx)
        return node

    def visit_Attribute(self, node: ast.Attribute):
        noted = self.notes.get(id(node), _MISSING)
        if noted is not _MISSING and isinstance(noted, Signal):
            attr = "_next" if node.attr == "next" else "_value"
            return ast.Attribute(value=ast.Name(id=self.slots.signal(noted),
                                                ctx=ast.Load()),
                                 attr=attr, ctx=ast.Load())
        if noted is not _MISSING and _is_const(noted):
            return ast.Constant(value=noted)
        return self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript):
        noted = self.notes.get(id(node), _MISSING)
        if noted is not _MISSING and isinstance(noted, Memory):
            index = self.visit(node.slice)
            data = ast.Attribute(value=ast.Name(id=self.slots.memory(noted),
                                                ctx=ast.Load()),
                                 attr="_data", ctx=ast.Load())
            wrapped = ast.BinOp(left=_group(index), op=ast.Mod(),
                                right=ast.Constant(value=noted.depth))
            return ast.Subscript(value=data, slice=wrapped, ctx=node.ctx)
        if noted is not _MISSING and isinstance(noted, Signal):
            return self._slot_value(noted)
        if noted is not _MISSING and _is_const(noted):
            return ast.Constant(value=noted)
        return self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        noted = self.notes.get(id(node), _MISSING)
        if noted is not _MISSING:
            if isinstance(noted, tuple) and len(noted) == 2 \
                    and isinstance(noted[0], Signal):
                state_sig, code = noted  # fsm.is_in("NAME")
                return ast.Compare(left=self._slot_value(state_sig),
                                   ops=[ast.Eq()],
                                   comparators=[ast.Constant(value=code)])
            if isinstance(noted, Signal):
                return self._slot_value(noted)
        return self.generic_visit(node)

    # -- statements ------------------------------------------------------------

    def visit_Expr(self, node: ast.Expr):
        # Bare reads (sensitivity anchors) schedule dependencies but emit no
        # runtime work.
        transformed = self.visit(node.value)
        if isinstance(transformed, (ast.Attribute, ast.Constant, ast.Name)):
            return None
        return ast.copy_location(ast.Expr(value=transformed), node)

    def visit_Assign(self, node: ast.Assign):
        target = node.targets[0]
        noted = self.notes.get(id(target), _MISSING) \
            if isinstance(target, ast.Attribute) else _MISSING
        if noted is not _MISSING and isinstance(noted, Signal):
            value = self.visit(node.value)
            masked = _apply_mask(value, noted._mask)
            slot = self.slots.signal(noted)
            if not self.guarded:
                # Fused write+commit: topological order guarantees no
                # earlier unit wanted the old value.
                return ast.copy_location(ast.Assign(
                    targets=[
                        ast.Attribute(value=ast.Name(id=slot, ctx=ast.Load()),
                                      attr="_value", ctx=ast.Store()),
                        ast.Attribute(value=ast.Name(id=slot, ctx=ast.Load()),
                                      attr="_next", ctx=ast.Store()),
                    ],
                    value=masked), node)
            temp = f"_v{self.proc_tag}_{self.temp_counter}"
            self.temp_counter += 1
            return _parse_stmts(
                f"{temp} = {ast.unparse(_group(masked))}\n"
                f"{slot}._next = {temp}\n"
                f"if {slot}._value != {temp}:\n"
                f"    {slot}._value = {temp}\n"
                f"    _chg = True\n")
        return self.generic_visit(node)


_MISSING = object()


def _is_const(obj) -> bool:
    return obj is None or isinstance(obj, (int, bool, str))


def _group(node: ast.expr) -> ast.expr:
    """Ensure correct precedence when splicing an expression."""
    return node  # ast.unparse adds parentheses as needed


def _apply_mask(value: ast.expr, mask: int) -> ast.expr:
    if isinstance(value, ast.Constant) and isinstance(value.value, int):
        return ast.Constant(value=int(value.value) & mask)
    return ast.BinOp(left=value, op=ast.BitAnd(),
                     right=ast.Constant(value=mask))


def _parse_stmts(source: str) -> List[ast.stmt]:
    return ast.parse(source).body


def _unparse_block(stmts: Sequence[ast.stmt], indent: str) -> List[str]:
    # ``ast.unparse`` reads ``lineno`` of statements only; the transpiler
    # copies it onto every statement it builds.
    lines: List[str] = []
    for stmt in stmts:
        for line in ast.unparse(stmt).splitlines():
            lines.append(indent + line)
    return lines


def _flatten(transformed) -> List[ast.stmt]:
    if transformed is None:
        return []
    if isinstance(transformed, list):
        return transformed
    return [transformed]


class _Emitter:
    """Assemble and exec the specialised settle/cycle module."""

    def __init__(self, schedule: Schedule, comb_procs: Sequence[Callable],
                 seq_procs: Sequence[Callable], max_settle: int) -> None:
        self.schedule = schedule
        self.comb_procs = list(comb_procs)
        self.seq_procs = list(seq_procs)
        self.max_settle = max_settle
        self.slots = _Slots()
        self.lines: List[str] = []

    # -- unit emission ----------------------------------------------------------

    def emit_unit(self, unit: Unit, indent: str, guarded: bool) -> None:
        if unit.is_call:
            proc_name = self.slots.proc(unit.proc_index,
                                        self.comb_procs[unit.proc_index])
            self.lines.append(f"{indent}{proc_name}()")
            for sig in sorted(unit.writes, key=lambda s: s._uid):
                slot = self.slots.signal(sig)
                if guarded:
                    self.lines.append(
                        f"{indent}if {slot}._value != {slot}._next:")
                    self.lines.append(f"{indent}    {slot}._value = {slot}._next")
                    self.lines.append(f"{indent}    _chg = True")
                else:
                    self.lines.append(f"{indent}{slot}._value = {slot}._next")
            return
        transpiler = _Transpiler(unit.analysis, self.slots,
                                 proc_tag=str(unit.proc_index), guarded=guarded)
        transformed = _flatten(transpiler.visit(unit.stmt.node))
        self.lines.extend(_unparse_block(transformed, indent))

    def emit_groups(self, indent: str, guarded: bool) -> None:
        for group in self.schedule.groups:
            if group.cyclic and not guarded:
                self.lines.append(f"{indent}for _round in range({self.max_settle}):")
                self.lines.append(f"{indent}    _chg = False")
                for unit in group.units:
                    self.emit_unit(unit, indent + "    ", guarded=True)
                self.lines.append(f"{indent}    if not _chg:")
                self.lines.append(f"{indent}        break")
                self.lines.append(f"{indent}else:")
                self.lines.append(f"{indent}    sim._raise_comb_loop()")
            else:
                for unit in group.units:
                    self.emit_unit(unit, indent, guarded=guarded)

    def emit_opaque(self, indent: str) -> None:
        for analysis in self.schedule.opaque:
            index = self.comb_procs.index(analysis.proc)
            proc_name = self.slots.proc(index, analysis.proc)
            self.lines.append(f"{indent}{proc_name}()")
        self.lines.append(f"{indent}_w = sim._written")
        self.lines.append(f"{indent}for _sig in _w:")
        self.lines.append(f"{indent}    if _sig._value != _sig._next:")
        self.lines.append(f"{indent}        _sig._value = _sig._next")
        self.lines.append(f"{indent}        _chg = True")
        self.lines.append(f"{indent}del _w[:]")

    # -- function emission -------------------------------------------------------

    def emit_settle_body(self) -> None:
        lines = self.lines
        lines.append("    if not sim._attached:")
        lines.append("        sim._check_attached()")
        lines.append("    _w = sim._written")
        lines.append("    if _w:")
        lines.append("        for _sig in _w:")
        lines.append("            _sig._value = _sig._next")
        lines.append("        del _w[:]")
        if self.schedule.guarded:
            lines.append(f"    for _round in range({self.max_settle}):")
            lines.append("        _chg = False")
            self.emit_groups("        ", guarded=True)
            self.emit_opaque("        ")
            lines.append("        if not _chg:")
            lines.append("            break")
            lines.append("    else:")
            lines.append("        sim._raise_comb_loop()")
            lines.append("    _rounds = _round + 1")
        else:
            self.emit_groups("    ", guarded=False)
            lines.append("    _rounds = 1")
        lines.append("    if sim._written:")
        lines.append("        sim._drain_check()")
        lines.append("    if sim._verify:")
        lines.append("        sim._verify_settled()")
        lines.append("    sim._dirty = False")
        lines.append("    return _rounds")

    def emit_module(self) -> str:
        self.lines = []
        body_lines: List[str] = []
        self.lines = body_lines
        self.emit_settle_body()

        # Slot bindings become keyword defaults: one LOAD_FAST per use.
        sig_params = [f"{name}=_SIGS[{i}]" for i, name in
                      enumerate(self.slots.signals.values())]
        mem_params = [f"{name}=_MEMS[{i}]" for i, name in
                      enumerate(self.slots.memories.values())]
        proc_params = [f"{name}=_PROCS[{i}]" for i, name in
                       enumerate(self.slots.procs.values())]
        params = ", ".join(["sim"] + sig_params + mem_params + proc_params)

        seq_params = [f"_q{i}=_SEQS[{i}]" for i in range(len(self.seq_procs))]
        cycle_params = ", ".join(["sim"] + seq_params + ["_settle=settle"])
        seq_calls = "\n".join(f"    _q{i}()" for i in range(len(self.seq_procs)))

        module = [
            '"""Generated by repro.rtl.compile — do not edit."""',
            "",
            f"def settle({params}):",
            *body_lines,
            "",
            f"def cycle({cycle_params}):",
            # The attached check must run before the sequential processes:
            # a detached simulator skipping its leading settle would
            # otherwise fire a phantom clock edge into state now owned by
            # the replacement simulator.
            "    if not sim._attached:",
            "        sim._check_attached()",
            "    if sim._dirty or sim._written:",
            "        _settle(sim)",
        ]
        if seq_calls:
            module.append(seq_calls)
        module.extend([
            "    _w = sim._written",
            "    for _sig in _w:",
            "        _sig._value = _sig._next",
            "    del _w[:]",
            "    _settle(sim)",
            "    sim._cycles += 1",
            "    for _watch in sim._watchers:",
            "        _watch(sim._cycles)",
        ])
        return "\n".join(module) + "\n"

    def build(self) -> CompiledProgram:
        source = self.emit_module()
        namespace: Dict[str, object] = {
            "_SIGS": list(self.slots.signals),
            "_MEMS": list(self.slots.memories),
            "_PROCS": [self.comb_procs[index] for index in self.slots.procs],
            "_SEQS": list(self.seq_procs),
            "CombinationalLoopError": CombinationalLoopError,
        }
        code = compile(source, "<repro.rtl.compile>", "exec")
        exec(code, namespace)
        report = self._report()
        return CompiledProgram(settle=namespace["settle"],
                               cycle=namespace["cycle"],
                               source=source, report=report)

    def _report(self) -> CompileReport:
        transpiled = {u.proc_index for u in self.schedule.units
                      if not u.is_call}
        called = {u.proc_index for u in self.schedule.units if u.is_call}
        cyclic = [g for g in self.schedule.groups if g.cyclic]
        reasons: List[str] = []
        for analysis in self.schedule.opaque:
            reasons.extend(analysis.opaque_reasons)
        return CompileReport(
            n_procs=len(self.comb_procs),
            n_transpiled_procs=len(transpiled),
            n_call_procs=len(called),
            n_opaque_procs=len(self.schedule.opaque),
            n_units=len(self.schedule.units),
            n_cyclic_groups=len(cyclic),
            cyclic_group_sizes=[len(g.units) for g in cyclic],
            guarded=self.schedule.guarded,
            opaque_reasons=reasons,
        )


def emit_program(schedule: Schedule, comb_procs: Sequence[Callable],
                 seq_procs: Sequence[Callable],
                 max_settle: int) -> CompiledProgram:
    """Generate, compile and return the specialised program for a design."""
    return _Emitter(schedule, comb_procs, seq_procs, max_settle).build()
