"""Source emission for the compiled strategy.

Given a :class:`~repro.rtl.compile.schedule.Schedule` and a design's
clocked processes, this module generates one specialised Python module per
design with three functions.

``settle`` runs the combinational network:

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

``edge`` runs one clock edge, every clocked process in registration order:

* each process is lowered into straight-line code (:class:`_EdgeLowering`):
  signal reads become ``_sN._value``, ``.next`` stores masked ``_sN._next``
  writes, memory accesses index ``_mN._data``, ``fsm.is_in`` an integer
  compare, and ``fsm.goto`` from a state an enclosing ``is_in`` proves a
  state write plus the FSM's own transition bookkeeping; early returns are
  unfolded and small helper methods inlined;
* only structure (signals, memories, FSMs, components, bundles) resolves
  at compile time: counters, lists and configuration attributes stay live
  Python on the bound objects;
* every process still reads the pre-edge values: the lowered write sets are
  committed together after the last process, and writes made through
  ``Signal.next`` (helpers left as calls, a process left interpreted as
  ``_q{i}()``) are committed from ``sim._written``;
* a lowering is a template per process code object, checked against and
  bound to each later instance by replaying its structural lookups, so a
  sweep lowers each process once.

``cycle`` runs the leading settle when something changed, ``edge``, the
settle, and the watchers.  Identical module text is compiled once
(:func:`compile_source`), for this printer and for the batched one.

The generated source is kept on the simulator (``sim.compiled_source``) so
it can be inspected, diffed and unit-tested like any other artefact.
"""

from __future__ import annotations

import ast
import copy
import inspect
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..component import Memory
from ..errors import CombinationalLoopError
from ..fsm import FSM
from ..signal import Signal
from .analyze import (
    _FAIL,
    _UNSPLICEABLE,
    NotLowerable,
    ProcAnalysis,
    SeqFrame,
    _parse_proc,
    eval_ref,
    fsm_method,
    is_structure,
    seq_frame,
    static_attr,
    static_lookup,
)
from .schedule import Schedule, Unit

#: Emit-time fault switch (see :mod:`repro.verify.mutate`): the edge commit
#: skips the last register of every compiled process's write set.
MUTATION_STALE_EDGE_COMMIT = "compiled.stale_edge_commit"

#: How deep helper calls inside a clocked process are inlined.
_MAX_INLINE_DEPTH = 4


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
    #: Clocked processes, and how many of them became generated code.
    n_seq_procs: int = 0
    n_compiled_seq_procs: int = 0
    #: ``(qualname, reason)`` for every process the generated code still
    #: calls: combinational call units and opaque processes, then clocked
    #: processes the edge lowering left interpreted.
    interpreted: List[Tuple[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"{self.n_procs} comb procs: {self.n_transpiled_procs} "
                 f"dissolved, {self.n_call_procs} called, "
                 f"{self.n_opaque_procs} opaque; {self.n_units} units, "
                 f"{self.n_cyclic_groups} cyclic groups"
                 f"{' (guarded)' if self.guarded else ''}; "
                 f"{self.n_seq_procs} clocked procs: "
                 f"{self.n_compiled_seq_procs} compiled"]
        lines += [f"  interpreted {name}: {reason}"
                  for name, reason in self.interpreted]
        return "\n".join(lines)


@dataclass
class CompiledProgram:
    """The executable artefact: settle/edge/cycle plus their provenance."""

    settle: Callable
    #: One clock edge: every clocked process, then the register commit.
    edge: Callable
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
        #: Other objects the edge binds (FSMs, components, closure values),
        #: keyed by identity: sets and lists are unhashable.
        self.obj_names: Dict[int, str] = {}
        self.objects: List[Any] = []

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

    def obj(self, obj: Any) -> str:
        name = self.obj_names.get(id(obj))
        if name is None:
            name = f"_o{len(self.objects)}"
            self.obj_names[id(obj)] = name
            self.objects.append(obj)
        return name

    def name(self, obj: Any) -> str:
        """The slot generated code reads ``obj`` from."""
        if isinstance(obj, Signal):
            return self.signal(obj)
        if isinstance(obj, Memory):
            return self.memory(obj)
        return self.obj(obj)


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


class _Masked(ast.expr):
    """Placeholder: ``value`` stored into a slot; ``mask`` names the mask
    (None when the value is known to fit)."""

    _fields = ("value",)


class _IntOf(ast.expr):
    """Placeholder: ``value`` where the interpreter would apply ``int()``."""

    _fields = ("value",)


#: Binary operators that map two ints to an int.
_INT_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod, ast.BitAnd,
            ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)
#: Comparisons that return a bool whatever their operands are.
_BOOL_CMPS = (ast.Is, ast.IsNot, ast.In, ast.NotIn)
#: Builtins that always return an int (or bool).
_INT_CALLS = ("len", "int", "bool")
#: FSM methods the lowering rewrites.
_FSM_METHODS = ("is_in", "goto", "stay")

#: Template placeholders: bound object ``k`` (``_B3_``), its mask
#: (``_B3m_``) or memory depth (``_B3d_``), and the per-process local
#: prefix (``_LT``, becoming ``_L{index}``).
_PLACEHOLDER = re.compile(r"(?<![\w.])_B(\d+)([md]?)_(?!\w)")
_LOCAL_TAG = re.compile(r"(?<![\w.])_LT(?=\w)")


def _ref_shape(ref: tuple, obj: Any, frames: Sequence[SeqFrame],
               own: Optional[Set[Any]]) -> Any:
    """What the lowered text depends on about the object ``ref`` reached.

    Objects the text binds by name need only their kind; values the text
    embeds (literal free names, FSM encodings, which FSM methods are the
    class's own) enter whole.  Masks and depths are template parameters.
    """
    if obj is _FAIL:
        shape: Any = None
    elif isinstance(obj, (Signal, Memory)):
        shape = ("signal" if isinstance(obj, Signal) else "memory",
                 own is None or obj in own)
    elif isinstance(obj, FSM):
        shape = ("fsm", tuple(obj.states),
                 tuple(fsm_method(obj, name) for name in _FSM_METHODS))
    elif is_structure(obj):
        shape = "struct"
    elif ref[0] == "free" and _is_const(obj):
        shape = ("literal", type(obj), obj)
    else:
        shape = "object"
    if ref[0] == "free":
        return shape, frames[ref[1]].is_builtin(ref[2])
    return shape


def _lookup_method(owner: Any, name: str) -> Optional[Callable]:
    """The class-level function ``owner.name`` calls, unless shadowed."""
    if name in getattr(owner, "__dict__", {}):
        return None
    func = static_lookup(owner, name)
    return func if inspect.isfunction(func) else None


@dataclass
class _SeqTemplate:
    """A lowered clocked process, reusable for every instance that passes
    :meth:`bind` (same code, same answers to every structural question)."""

    text: str
    #: Per placeholder: every ref that led to its object.
    refs: List[List[tuple]]
    #: Placeholders of the signals the lowered code writes.
    writes: List[int]
    #: ``(ref, shape)`` of every structural lookup, in lowering order.
    queries: List[Tuple[tuple, Any]]
    #: ``(owner_ref, name, function)`` of every helper-method lookup.
    methods: List[Tuple[tuple, str, Any]]
    #: Helper functions spliced in, frames 1.. of the lowering.
    helpers: List[Callable]

    def bind(self, proc: Callable,
             own: Optional[Set[Any]]) -> Optional[List[Any]]:
        """``proc``'s objects for the placeholders, or None on a mismatch."""
        frames = [SeqFrame(proc)] + [SeqFrame(func, index) for index, func
                                     in enumerate(self.helpers, 1)]
        memo: Dict[tuple, Any] = {}
        for ref, shape in self.queries:
            obj = eval_ref(ref, frames, memo)
            if _ref_shape(ref, obj, frames, own) != shape:
                return None
        for owner_ref, name, func in self.methods:
            if _lookup_method(eval_ref(owner_ref, frames, memo),
                              name) is not func:
                return None
        objects = []
        for refs in self.refs:
            found = [eval_ref(ref, frames, memo) for ref in refs]
            if any(obj is not found[0] for obj in found):
                return None
            objects.append(found[0])
        return objects


#: Lowered clocked processes by code object, most recent last; bounded
#: both ways, since generated designs bring fresh code objects.
_TEMPLATES: Dict[Any, List[_SeqTemplate]] = {}
_TEMPLATES_PER_CODE = 8
_TEMPLATE_CODES = 512


def _seq_template(proc: Callable, own: Optional[Set[Any]]
                  ) -> Tuple[_SeqTemplate, List[Any]]:
    """A template for ``proc`` and its objects, lowering only on a miss."""
    code = getattr(proc, "__code__", None)
    for template in reversed(_TEMPLATES.get(code, ())):
        objects = template.bind(proc, own)
        if objects is not None:
            return template, objects
    lowering = _EdgeLowering(own)
    template = lowering.lower(proc)
    cached = _TEMPLATES.setdefault(code, [])
    cached.append(template)
    del cached[:-_TEMPLATES_PER_CODE]
    while len(_TEMPLATES) > _TEMPLATE_CODES:
        del _TEMPLATES[next(iter(_TEMPLATES))]
    return template, lowering.objects


class _EdgeLowering(ast.NodeTransformer):
    """Lower one clocked process into a template for the generated edge.

    The body runs in the middle of ``edge``, where every process must see
    the pre-edge state, so ``.next`` stores write ``_next`` only; the edge
    commits the union of the processes' write sets after the last one.
    Only structure resolves at compile time; everything else stays live.
    Every structural lookup is logged with a replayable ref, so the
    template can be checked against, and bound to, later instances.
    """

    def __init__(self, own: Optional[Set[Any]]) -> None:
        self.own = own
        self.frames: List[SeqFrame] = []
        #: Every frame made, by index: frame 0 is the process itself.
        self.made: List[SeqFrame] = []
        #: ``(fsm, state)`` known to hold on the path being lowered.
        self.facts: List[Tuple[Any, str]] = []
        #: Placeholder ``k`` binds ``objects[k]``.
        self.objects: List[Any] = []
        self._placeholder: Dict[int, int] = {}
        self._refs: Dict[int, List[tuple]] = {}
        self.queries: Dict[tuple, Any] = {}
        self.methods: List[Tuple[tuple, str, Any]] = []
        #: Placeholders of written signals (insertion order).
        self.writes: Dict[int, None] = {}
        #: Generated nodes known to hold an int, by id (kept alive here).
        self.typed: Dict[int, ast.AST] = {}
        self.alias_stores: List[ast.Assign] = []
        #: ``(parent, field, placeholder)`` for every _Masked and _IntOf.
        self.patches: List[Tuple[ast.AST, str, ast.expr]] = []
        #: Per mangled local: loads, stores, and the values assigned to it.
        self.loads: Counter = Counter()
        self.stores: Counter = Counter()
        self.sources: Dict[str, List[ast.expr]] = {}

    # -- entry point -------------------------------------------------------------

    def lower(self, proc: Callable) -> _SeqTemplate:
        frame = self._frame(proc)
        if proc.__code__.co_argcount:
            raise NotLowerable("takes arguments")
        body = self._finish(self._splice(frame, []))
        return _SeqTemplate(
            text="\n".join(map(ast.unparse, body)),
            refs=[self._refs[id(obj)] for obj in self.objects],
            writes=list(self.writes),
            queries=list(self.queries.items()),
            methods=self.methods,
            helpers=[made.func for made in self.made[1:]])

    def _frame(self, func: Callable) -> SeqFrame:
        frame = seq_frame(func, len(self.made))
        self.made.append(frame)
        return frame

    def _splice(self, frame: SeqFrame,
                prologue: List[ast.stmt]) -> List[ast.stmt]:
        self.frames.append(frame)
        try:
            return prologue + self._block(frame.body)
        finally:
            self.frames.pop()

    def _block(self, stmts: Sequence[ast.stmt]) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for stmt in stmts:
            new = self.visit(stmt)
            if new is None:
                continue
            out.extend(new if isinstance(new, list) else [new])
        return out

    # -- structure -----------------------------------------------------------------

    def _note(self, obj: Any, ref: Optional[tuple]) -> Any:
        if ref is not None:
            if ref not in self.queries:
                self.queries[ref] = _ref_shape(ref, obj, self.made, self.own)
            if obj is not _FAIL:
                refs = self._refs.setdefault(id(obj), [])
                if ref not in refs:
                    refs.append(ref)
        return obj

    def _resolve(self, node: ast.AST) -> Any:
        return self._note(*self.frames[-1].resolve(node))

    def _derive(self, obj: Any, attr: str) -> Any:
        """``obj.attr`` for a resolved ``obj``, logged like a lookup."""
        return self._note(static_attr(obj, attr),
                          (self._refs[id(obj)][0], attr))

    def _bind(self, obj: Any, suffix: str = "") -> ast.expr:
        """A load of ``obj`` (or of its mask or depth) in the template."""
        if _is_const(obj):
            return ast.Constant(value=obj)
        index = self._placeholder.get(id(obj))
        if index is None:
            index = self._placeholder[id(obj)] = len(self.objects)
            self.objects.append(obj)
        return ast.Name(id=f"_B{index}{suffix}_", ctx=ast.Load())

    def _own(self, obj: Any) -> bool:
        return self.own is None or obj in self.own

    def _typed(self, node: ast.expr) -> ast.expr:
        self.typed[id(node)] = node
        return node

    def _read(self, sig: Signal, attr: str = "_value") -> ast.expr:
        return self._typed(ast.Attribute(value=self._bind(sig), attr=attr,
                                         ctx=ast.Load()))

    def _store(self, sig: Signal, value: ast.expr, node: ast.AST,
               fits: bool = False) -> ast.stmt:
        target = self._bind(sig)
        self.writes[self._placeholder[id(sig)]] = None
        return self._masked_store(
            ast.Attribute(value=target, attr="_next", ctx=ast.Store()), value,
            None if fits else self._bind(sig, "m"), node)

    def _masked_store(self, target: ast.expr, value: ast.expr,
                      mask: Optional[ast.expr], node: ast.AST) -> ast.stmt:
        masked = _Masked(value=value)
        masked.mask = mask
        store = ast.copy_location(ast.Assign(targets=[target], value=masked),
                                  node)
        self.patches.append((store, "value", masked))
        return store

    def _memory(self, mem: Memory, index: ast.expr, ctx) -> ast.Subscript:
        holder = _IntOf(value=self.visit(index))
        wrapped = ast.BinOp(left=holder, op=ast.Mod(),
                            right=self._bind(mem, "d"))
        self.patches.append((wrapped, "left", holder))
        data = ast.Attribute(value=self._bind(mem), attr="_data",
                             ctx=ast.Load())
        return ast.Subscript(value=data, slice=wrapped, ctx=ctx)

    def _fsm_call(self, node: ast.AST, method: str, nargs: int) -> Any:
        """The FSM ``node`` calls ``method`` of with ``nargs`` args, or None."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == method and len(node.args) == nargs
                and not node.keywords):
            return None
        fsm = self._resolve(node.func.value)
        return fsm if fsm_method(fsm, method) else None

    def _facts(self, test: ast.expr) -> List[Tuple[Any, str]]:
        """FSM states every path into the body of ``if test`` is in."""
        terms = test.values if isinstance(test, ast.BoolOp) \
            and isinstance(test.op, ast.And) else [test]
        facts = []
        for term in terms:
            fsm = self._fsm_call(term, "is_in", 1)
            state = _state_name(fsm, term.args[0]) if fsm is not None else None
            if state is not None:
                facts.append((fsm, state))
        return facts

    # -- expressions -------------------------------------------------------------

    def visit_Name(self, node: ast.Name):
        frame = self.frames[-1]
        name = node.id
        if name in frame.local_names:
            alias = frame.aliases.get(name)
            if alias is not None and isinstance(node.ctx, ast.Load):
                return self._bind(self._note(*alias))
            prefix = f"_LTh{frame.index}_" if frame.index else "_LT_"
            counts = self.loads if isinstance(node.ctx, ast.Load) \
                else self.stores
            counts[prefix + name] += 1
            return ast.copy_location(ast.Name(id=prefix + name, ctx=node.ctx),
                                     node)
        value = self._resolve(node)
        if value is _FAIL:
            raise NotLowerable(f"cannot resolve name {name!r}")
        if frame.is_builtin(name):
            return node
        return self._bind(value)

    def visit_Attribute(self, node: ast.Attribute):
        if isinstance(node.ctx, ast.Load):
            if node.attr in ("value", "next"):
                sig = self._resolve(node.value)
                if isinstance(sig, Signal):
                    return self._read(sig, "_value" if node.attr == "value"
                                      else "_next")
            obj = self._resolve(node)
            if obj is not _FAIL and is_structure(obj):
                return self._bind(obj)
        return self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript):
        if isinstance(node.ctx, ast.Load):
            mem = self._resolve(node.value)
            if isinstance(mem, Memory):
                return self._typed(self._memory(mem, node.slice, ast.Load()))
        return self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        fsm = self._fsm_call(node, "is_in", 1)
        state = _state_name(fsm, node.args[0]) if fsm is not None else None
        if state is not None:
            return self._typed(ast.Compare(
                left=self._read(self._derive(fsm, "state")), ops=[ast.Eq()],
                comparators=[ast.Constant(value=fsm.encode(state))]))
        func = node.func
        if isinstance(func, ast.Attribute) and not node.args \
                and not node.keywords:
            owner = self._resolve(func.value)
            if is_structure(owner):
                inlined = self._inline_value(owner, func.attr)
                if inlined is not None:
                    return inlined
        return self.generic_visit(node)

    # -- statements --------------------------------------------------------------

    def visit_If(self, node: ast.If):
        facts = self._facts(node.test)
        node.test = self.visit(node.test)
        self.facts.extend(facts)
        node.body = self._block(node.body) \
            or [ast.copy_location(ast.Pass(), node)]
        del self.facts[len(self.facts) - len(facts):]
        node.orelse = self._block(node.orelse)
        return node

    def visit_Assign(self, node: ast.Assign):
        if len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Attribute) and target.attr == "next":
                sig = self._resolve(target.value)
                if isinstance(sig, Signal) and self._own(sig):
                    return self._store(sig, self.visit(node.value), node)
            elif isinstance(target, ast.Subscript):
                mem = self._resolve(target.value)
                if isinstance(mem, Memory) and self._own(mem):
                    value = self.visit(node.value)
                    return self._masked_store(
                        self._memory(mem, target.slice, ast.Store()), value,
                        self._bind(mem, "m"), node)
            elif isinstance(target, ast.Name):
                frame = self.frames[-1]
                found = frame.resolve(node.value) \
                    if target.id in frame.alias_defs else (_FAIL, None)
                alias = self._note(*found) if found[1] is not None else _FAIL
                if alias is not _FAIL and is_structure(alias):
                    store = self._assign(node)
                    frame.aliases[target.id] = found
                    self.alias_stores.append(store)
                    return store
        return self._assign(node)

    def _assign(self, node: ast.Assign) -> ast.Assign:
        node = self.generic_visit(node)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.sources.setdefault(target.id, []).append(node.value)
        return node

    def visit_AugAssign(self, node: ast.AugAssign):
        node = self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            name = node.target.id
            self.sources.setdefault(name, []).append(ast.BinOp(
                left=ast.Name(id=name, ctx=ast.Load()), op=node.op,
                right=node.value))
        return node

    def visit_Expr(self, node: ast.Expr):
        call = node.value
        fsm = self._fsm_call(call, "goto", 1)
        if fsm is not None:
            return self._goto(fsm, call.args[0], node) \
                or self.generic_visit(node)
        fsm = self._fsm_call(call, "stay", 0)
        if fsm is not None:
            state = self._derive(fsm, "state")
            if self._own(state):
                return self._store(state, self._read(state), node, fits=True)
            return self.generic_visit(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) \
                and not call.keywords \
                and not any(isinstance(a, ast.Starred) for a in call.args):
            owner = self._resolve(call.func.value)
            if is_structure(owner):
                inlined = self._inline_call(owner, call.func.attr, call.args)
                if inlined is not None:
                    return inlined
        return self.generic_visit(node)

    def _goto(self, fsm: Any, arg: ast.expr,
              node: ast.AST) -> Optional[List[ast.stmt]]:
        """``fsm.goto(target)`` from a state an enclosing ``is_in`` proves.

        The transition bookkeeping is the method's own, with the source
        state known at compile time: ``observed_transitions()`` is
        unchanged.  From an unknown state the call stays live.
        """
        target = _state_name(fsm, arg)
        source = next((state for owner, state in reversed(self.facts)
                       if owner is fsm), None)
        state = self._derive(fsm, "state")
        if target is None or source is None or not self._own(state):
            return None
        seen = self._bind(self._derive(fsm, "_transition_set")).id
        order = self._bind(self._derive(fsm, "_transitions")).id
        key = repr((source, target))
        check = _parse_stmts(f"if {key} not in {seen}:\n"
                             f"    {seen}.add({key})\n"
                             f"    {order}.append({key})\n")
        return check + [self._store(state,
                                    ast.Constant(value=fsm.encode(target)),
                                    node)]

    # -- finishing -----------------------------------------------------------------

    def _finish(self, body: List[ast.stmt]) -> List[ast.stmt]:
        """Replace the placeholders, leaving ``int()`` out where the value
        is known to be an int, and drop alias stores nothing reads."""
        ints = self._int_locals()
        for parent, field_name, holder in self.patches:
            value = holder.value
            if not self._is_int(value, ints):
                value = ast.Call(func=ast.Name(id="int", ctx=ast.Load()),
                                 args=[value], keywords=[])
            if isinstance(holder, _Masked):
                if isinstance(value, ast.Constant) and value.value in (0, 1):
                    value = ast.Constant(value=int(value.value))  # fits
                elif holder.mask is not None:
                    # Other constants fold when the instance is compiled.
                    value = ast.BinOp(left=value, op=ast.BitAnd(),
                                      right=holder.mask)
            setattr(parent, field_name, self._typed(value))
        dead = {id(store) for store in self.alias_stores
                if not self.loads[store.targets[0].id]}
        return _drop(body, dead) if dead else body

    def _int_locals(self) -> Set[str]:
        """Locals every store of which holds an int (greatest fixpoint)."""
        ints = {name for name, values in self.sources.items()
                if len(values) == self.stores[name]}
        changed = True
        while changed:
            changed = False
            for name in sorted(ints):
                if not all(self._is_int(value, ints)
                           for value in self.sources[name]):
                    ints.discard(name)
                    changed = True
        return ints

    def _is_int(self, node: ast.AST, ints: Set[str]) -> bool:
        if isinstance(node, (_Masked, _IntOf)) or id(node) in self.typed:
            return True
        if isinstance(node, ast.Constant):
            return type(node.value) in (int, bool)
        if isinstance(node, ast.Name):
            return node.id in ints
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, _INT_OPS) \
                and self._is_int(node.left, ints) \
                and self._is_int(node.right, ints)
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, ast.Not) \
                or self._is_int(node.operand, ints)
        if isinstance(node, ast.Compare):
            return all(isinstance(op, _BOOL_CMPS) for op in node.ops) or all(
                self._is_int(part, ints)
                for part in [node.left, *node.comparators])
        if isinstance(node, ast.BoolOp):
            return all(self._is_int(value, ints) for value in node.values)
        if isinstance(node, ast.IfExp):
            return self._is_int(node.body, ints) \
                and self._is_int(node.orelse, ints)
        if isinstance(node, ast.Call):
            # Bare names in lowered code are builtins: locals are mangled.
            return isinstance(node.func, ast.Name) \
                and node.func.id in _INT_CALLS
        return False

    # -- helper inlining -----------------------------------------------------------

    def _method(self, owner: Any, name: str) -> Optional[Callable]:
        """``owner``'s own class-level function ``name``, if inlinable."""
        if len(self.frames) > _MAX_INLINE_DEPTH:
            return None
        func = _lookup_method(owner, name)
        self.methods.append((self._refs[id(owner)][0], name, func))
        if func is None or any(frame.func is func for frame in self.frames):
            return None
        code = func.__code__
        if code.co_kwonlyargcount or code.co_flags & (
                inspect.CO_VARARGS | inspect.CO_VARKEYWORDS) \
                or not code.co_argcount:
            return None
        return func

    def _inline_call(self, owner: Any, name: str,
                     args: List[ast.expr]) -> Optional[List[ast.stmt]]:
        """Splice a helper method called as a statement, or None."""
        func = self._method(owner, name)
        if func is None:
            return None
        code = func.__code__
        params = code.co_varnames[:code.co_argcount]
        defaults = func.__defaults__ or ()
        missing = params[len(args) + 1:]
        if len(args) + 1 > len(params) or len(missing) > len(defaults):
            return None
        fills = defaults[len(defaults) - len(missing):]
        if not all(_is_const(value) for value in fills):
            return None
        try:
            frame = self._frame(func)
        except NotLowerable:
            return None
        if params[0] in frame.stored:
            return None
        frame.aliases[params[0]] = (owner, self._refs[id(owner)][0])
        prefix = f"_LTh{frame.index}_"
        saved = (dict(self.writes), len(self.alias_stores))
        try:
            values = [self.visit(copy.deepcopy(arg)) for arg in args]
            prologue = []
            for param, value in zip(params[1:], values + [
                    ast.Constant(value=fill) for fill in fills]):
                self.stores[prefix + param] += 1
                self.sources.setdefault(prefix + param, []).append(value)
                prologue.append(ast.Assign(
                    targets=[ast.Name(id=prefix + param, ctx=ast.Store())],
                    value=value, lineno=1))
            return self._splice(frame, prologue)
        except NotLowerable:
            self.writes = saved[0]
            del self.alias_stores[saved[1]:]
            return None

    def _inline_value(self, owner: Any, name: str) -> Optional[ast.expr]:
        """A zero-argument helper made of ``if c: return v`` steps and a
        final ``return v``, as one conditional expression, or None."""
        func = self._method(owner, name)
        if func is None or len(func.__code__.co_varnames) != 1:
            return None
        parsed = _parse_proc(func)
        if parsed is None:
            return None
        body = parsed.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if not body or not isinstance(body[-1], ast.Return) \
                or body[-1].value is None:
            return None
        expr = body[-1].value
        for stmt in reversed(body[:-1]):
            if not (isinstance(stmt, ast.If) and not stmt.orelse
                    and len(stmt.body) == 1
                    and isinstance(stmt.body[0], ast.Return)
                    and stmt.body[0].value is not None):
                return None
            expr = ast.IfExp(test=stmt.test, body=stmt.body[0].value,
                             orelse=expr)
        if any(isinstance(node, _UNSPLICEABLE) for node in ast.walk(expr)):
            return None
        frame = SeqFrame(func, len(self.made))
        self.made.append(frame)
        frame.aliases[func.__code__.co_varnames[0]] = \
            (owner, self._refs[id(owner)][0])
        self.frames.append(frame)
        try:
            return self.visit(expr)
        except NotLowerable:
            return None
        finally:
            self.frames.pop()


def _drop(stmts: List[ast.stmt], dead: Set[int]) -> List[ast.stmt]:
    """``stmts`` without the statements in ``dead``; alias stores sit at
    the top level or, after early-return rewriting, in ``if`` branches."""
    out = []
    for stmt in stmts:
        if id(stmt) in dead:
            continue
        if isinstance(stmt, ast.If):
            stmt.body = _drop(stmt.body, dead) \
                or [ast.copy_location(ast.Pass(), stmt)]
            stmt.orelse = _drop(stmt.orelse, dead)
        out.append(stmt)
    return out


def _state_name(fsm: Any, arg: ast.expr) -> Optional[str]:
    """The state named by a literal ``arg``, when ``fsm`` has it."""
    if fsm is not None and isinstance(arg, ast.Constant) \
            and isinstance(arg.value, str) and arg.value in fsm.states:
        return arg.value
    return None


class _Emitter:
    """Assemble and exec the specialised settle/edge/cycle module."""

    def __init__(self, schedule: Schedule, comb_procs: Sequence[Callable],
                 seq_procs: Sequence[Callable], max_settle: int,
                 own: Optional[Sequence[Any]] = None) -> None:
        self.schedule = schedule
        self.comb_procs = list(comb_procs)
        self.seq_procs = list(seq_procs)
        self.max_settle = max_settle
        self.own = own
        self.slots = _Slots()
        self.lines: List[str] = []
        #: ``(qualname, reason)`` of clocked processes left interpreted.
        self.seq_fallbacks: List[Tuple[str, str]] = []
        self.stale_edge_commit = \
            MUTATION_STALE_EDGE_COMMIT in _active_mutations()

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

    def emit_edge_body(self) -> None:
        """One clock edge: every clocked process, then the commit.

        Each process is lowered into straight-line code when it can be
        (see :class:`_EdgeLowering`) and called as ``_q{i}()`` otherwise,
        in registration order either way.  Writes that went through
        :attr:`Signal.next` (interpreted processes, helpers left as calls)
        are committed from ``sim._written``; the lowered processes' write
        sets are committed statically.
        """
        lines = self.lines
        own = None if self.own is None else set(self.own)
        write_sets: List[List[Signal]] = []
        for index, proc in enumerate(self.seq_procs):
            label = getattr(proc, "__qualname__", f"seq[{index}]")
            try:
                template, objects = _seq_template(proc, own)
            except NotLowerable as exc:
                self.seq_fallbacks.append((label, str(exc)))
                lines.append(f"    # seq {label} (interpreted)")
                lines.append(f"    _q{index}()")
                continue

            def slot(match, objects=objects) -> str:
                obj = objects[int(match.group(1))]
                if match.group(2) == "m":
                    return str(obj._mask)
                if match.group(2) == "d":
                    return str(obj.depth)
                return self.slots.name(obj)

            text = _LOCAL_TAG.sub(f"_L{index}",
                                  _PLACEHOLDER.sub(slot, template.text))
            lines.append(f"    # seq {label}")
            lines.extend("    " + line for line in text.splitlines())
            write_sets.append(sorted((objects[k] for k in template.writes),
                                     key=lambda sig: sig._uid))
        lines.append("    _w = sim._written")
        lines.append("    if _w:")
        lines.append("        for _sig in _w:")
        lines.append("            _sig._value = _sig._next")
        lines.append("        del _w[:]")
        committed: Set[Signal] = set()
        for writes in write_sets:
            if self.stale_edge_commit:
                writes = writes[:-1]
            for sig in writes:
                if sig not in committed:
                    committed.add(sig)
                    slot = self.slots.signal(sig)
                    lines.append(f"    {slot}._value = {slot}._next")

    def _params(self, body: List[str]) -> str:
        """``sim`` plus a keyword default for every slot ``body`` uses."""
        used = set(_SLOT_NAME.findall("\n".join(body)))
        tables = (("_SIGS", self.slots.signals.values()),
                  ("_MEMS", self.slots.memories.values()),
                  ("_PROCS", self.slots.procs.values()),
                  ("_OBJS", self.slots.obj_names.values()),
                  ("_SEQS", [f"_q{i}" for i in range(len(self.seq_procs))]))
        params = ["sim"]
        for table, names in tables:
            params += [f"{name}={table}[{i}]" for i, name in enumerate(names)
                       if name in used]
        return ", ".join(params)

    def emit_module(self) -> str:
        self.lines = settle_body = []
        self.emit_settle_body()
        self.lines = edge_body = []
        self.emit_edge_body()
        # Slot bindings become keyword defaults: one LOAD_FAST per use.
        module = [
            '"""Generated by repro.rtl.compile — do not edit."""',
            "",
            f"def settle({self._params(settle_body)}):",
            *settle_body,
            "",
            f"def edge({self._params(edge_body)}):",
            *edge_body,
            "",
            "def cycle(sim, _edge=edge, _settle=settle):",
            # The attached check must run before the clocked processes:
            # a detached simulator skipping its leading settle would
            # otherwise fire a phantom clock edge into state now owned by
            # the replacement simulator.
            "    if not sim._attached:",
            "        sim._check_attached()",
            "    if sim._dirty or sim._written:",
            "        _settle(sim)",
            "    _edge(sim)",
            "    _settle(sim)",
            "    sim._cycles += 1",
            "    for _watch in sim._watchers:",
            "        _watch(sim._cycles)",
        ]
        return "\n".join(module) + "\n"

    def build(self) -> CompiledProgram:
        source = self.emit_module()
        namespace: Dict[str, object] = {
            "_SIGS": list(self.slots.signals),
            "_MEMS": list(self.slots.memories),
            "_PROCS": [self.comb_procs[index] for index in self.slots.procs],
            "_OBJS": list(self.slots.objects),
            "_SEQS": list(self.seq_procs),
            "CombinationalLoopError": CombinationalLoopError,
        }
        exec(compile_source(source, "<repro.rtl.compile>"), namespace)
        report = self._report()
        return CompiledProgram(settle=namespace["settle"],
                               cycle=namespace["cycle"],
                               edge=namespace["edge"],
                               source=source, report=report)

    def _report(self) -> CompileReport:
        transpiled = {u.proc_index for u in self.schedule.units
                      if not u.is_call}
        cyclic = [g for g in self.schedule.groups if g.cyclic]
        reasons: List[str] = []
        for analysis in self.schedule.opaque:
            reasons.extend(analysis.opaque_reasons)
        interpreted: List[Tuple[str, str]] = []
        called: Dict[int, ProcAnalysis] = {}
        for unit in self.schedule.units:
            if unit.is_call:
                called.setdefault(unit.proc_index, unit.analysis)
        for analysis in called.values():
            interpreted.append((_label(analysis.proc),
                                analysis.call_reason or "not transpilable"))
        for analysis in self.schedule.opaque:
            interpreted.append((_label(analysis.proc), "opaque: " + "; ".join(
                analysis.opaque_reasons)))
        interpreted.extend(self.seq_fallbacks)
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
            n_seq_procs=len(self.seq_procs),
            n_compiled_seq_procs=len(self.seq_procs) - len(self.seq_fallbacks),
            interpreted=interpreted,
        )


#: Compiled modules by source text: identical designs share one compile
#: (the slot bindings are per instance, taken from the exec namespace).
_CODE_CACHE: Dict[Tuple[str, str], Any] = {}
_CODE_CACHE_SIZE = 64


def compile_source(source: str, filename: str) -> Any:
    """``compile(source, filename, "exec")``, once per distinct text.

    Both printers emit one module per design, and identical designs (a
    sweep's points, a seed matrix's DUTs) emit identical text.
    """
    key = (source, filename)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = _CODE_CACHE[key] = compile(source, filename, "exec")
        while len(_CODE_CACHE) > _CODE_CACHE_SIZE:
            del _CODE_CACHE[next(iter(_CODE_CACHE))]
    return code

#: Slot names in generated code (``_s3``, ``_m0``, ``_p2``, ``_o5``, ``_q1``).
_SLOT_NAME = re.compile(r"(?<![\w.])_[smpoq]\d+\b")


def _label(proc: Callable) -> str:
    return getattr(proc, "__qualname__", repr(proc))


def _active_mutations() -> Set[str]:
    """Enabled fault switches; none unless the switch module is loaded."""
    mutate = sys.modules.get(__name__.split(".")[0] + ".verify.mutate")
    return mutate.active() if mutate is not None else set()


def emit_program(schedule: Schedule, comb_procs: Sequence[Callable],
                 seq_procs: Sequence[Callable], max_settle: int,
                 own: Optional[Sequence[Any]] = None) -> CompiledProgram:
    """Generate, compile and return the specialised program for a design.

    ``own`` lists the design's signals and memories; the edge commits only
    those statically and leaves stores to anything else on the live path.
    """
    return _Emitter(schedule, comb_procs, seq_procs, max_settle, own).build()
