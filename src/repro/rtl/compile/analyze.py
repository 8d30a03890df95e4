"""Static read/write analysis of combinational processes.

The compiled backend schedules every combinational process exactly once per
settle (in dependency order), so it must know, *before* simulation, every
:class:`~repro.rtl.signal.Signal` and :class:`~repro.rtl.component.Memory` a
process could ever read or write — including reads hidden behind branches
that a dynamic trace of one evaluation would miss.  This module extracts
those sets from the process's abstract syntax tree:

* attribute chains (``self.fifo.empty``) are resolved at compile time by
  evaluating them against the process's closure and globals, using
  ``inspect.getattr_static`` so properties are analysed rather than invoked;
* dynamic subscripts into Python containers of signals
  (``self._regs[addr].value``) over-approximate to *every* element;
* calls into resolvable helpers (``self._budget_open()``, ``fsm.is_in(...)``,
  local closure functions) are analysed recursively;
* anything that cannot be resolved marks the process *opaque*, which the
  emitter handles with a convergence loop instead of a single pass — slower
  but always correct.

The same walk decides whether a process is *transpilable*: a body made only
of plain signal plumbing (assignments, ternaries, arithmetic, ``fsm.is_in``)
can be dissolved into the generated settle function statement by statement,
removing even the Python call overhead — the software analogue of the
paper's wrapper dissolution.
"""

from __future__ import annotations

import ast
import copy
import inspect
import linecache
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..bits import Bits
from ..component import Component, Memory
from ..fsm import FSM
from ..signal import Signal, SignalBundle

#: Sentinel for "could not be resolved at compile time".
_FAIL = object()

#: Builtins that are safe to see in a process body without recursing.
_SAFE_CALLS = {
    int, bool, len, range, enumerate, min, max, abs, sum, sorted, zip,
    divmod, round, tuple, list, isinstance, Bits,
}

#: Maximum helper-call recursion depth before giving up (opaque).
_MAX_CALL_DEPTH = 8


class AnyOf:
    """Compile-time union of candidate objects (dynamic subscript/branch)."""

    __slots__ = ("options",)

    def __init__(self, options) -> None:
        flat = []
        for opt in options:
            if isinstance(opt, AnyOf):
                flat.extend(opt.options)
            else:
                flat.append(opt)
        self.options = flat

    def __repr__(self) -> str:
        return f"AnyOf({len(self.options)} options)"


@dataclass
class StatementUnit:
    """One transpilable top-level statement of a combinational process."""

    node: ast.stmt
    reads: Set = field(default_factory=set)
    writes: Set = field(default_factory=set)
    mem_reads: Set = field(default_factory=set)
    mem_writes: Set = field(default_factory=set)
    #: Local temporaries this statement defines / uses (for ordering).
    locals_touched: Set[str] = field(default_factory=set)


@dataclass
class ProcAnalysis:
    """Everything the scheduler and emitter need to know about one process."""

    proc: Callable[[], None]
    reads: Set = field(default_factory=set)
    writes: Set = field(default_factory=set)
    mem_reads: Set = field(default_factory=set)
    mem_writes: Set = field(default_factory=set)
    #: True when the analysis could not account for everything the process
    #: might touch; the emitter then falls back to guarded convergence.
    opaque: bool = False
    opaque_reasons: List[str] = field(default_factory=list)
    #: Statement-level decomposition (only when every statement transpiles).
    units: Optional[List[StatementUnit]] = None
    #: AST-node resolution notes consumed by the emitter's transpiler.
    notes: Dict[int, Any] = field(default_factory=dict)
    #: Names of process-local temporaries (for collision-free mangling).
    local_names: Set[str] = field(default_factory=set)
    #: Why the process runs as one call instead of dissolving (first
    #: statement that does not transpile), or None.
    call_reason: Optional[str] = None

    @property
    def transpilable(self) -> bool:
        return self.units is not None and not self.opaque


#: Source text cache keyed by code object: every instance of a design class
#: shares the same process code objects, so compiling the second (and every
#: later) instance skips the expensive ``inspect.getsource`` walk.
_SOURCE_CACHE: Dict[Any, Optional[str]] = {}


def _proc_source(func: Callable) -> Optional[str]:
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    try:
        return _SOURCE_CACHE[code]
    except KeyError:
        pass
    # ``inspect`` follows ``__wrapped__`` to the decorated function.
    source = None if hasattr(func, "__wrapped__") else _def_block_source(code)
    if source is None:
        try:
            source = textwrap.dedent(inspect.getsource(func))
        except (OSError, TypeError, SyntaxError, IndentationError):
            source = None
    _SOURCE_CACHE[code] = source
    return source


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _def_block_source(code) -> Optional[str]:
    """The dedented ``def`` block ``code`` was compiled from, or None.

    ``inspect.getsource`` finds where a block ends by tokenizing it, which
    costs more than analysing a small design.  Here the block ends at the
    first code line indented no deeper than the ``def`` line.  A cut that
    falls inside a bracket or a string does not parse, so that (and any
    other surprise) returns None and the caller falls back to ``inspect``.
    """
    if code.co_name == "<lambda>":
        return None
    lines = linecache.getlines(code.co_filename)
    start = code.co_firstlineno - 1
    if not 0 <= start < len(lines):
        return None
    base = _indent(lines[start])
    end = start
    # Decorator lines come first, at the ``def`` line's indentation.
    while end < len(lines) and not (
            _indent(lines[end]) == base
            and lines[end].lstrip().startswith(("def ", "async def "))):
        end += 1
    if end == len(lines):
        return None
    end += 1
    while end < len(lines):
        stripped = lines[end].strip()
        if stripped and not stripped.startswith("#") \
                and _indent(lines[end]) <= base:
            break
        end += 1
    while lines[end - 1].strip().startswith("#") or not lines[end - 1].strip():
        end -= 1  # trailing comments belong to what follows
    source = textwrap.dedent("".join(lines[start:end]))
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return None
    if len(tree.body) != 1 or not isinstance(
            tree.body[0], (ast.FunctionDef, ast.AsyncFunctionDef)) \
            or tree.body[0].name != code.co_name:
        return None
    return source


def _parse_proc(func: Callable) -> Optional[ast.FunctionDef]:
    """Parse ``func`` down to its ``FunctionDef`` node (None on failure)."""
    source = _proc_source(func)
    if source is None:
        return None
    try:
        tree = ast.parse(source)
    except (SyntaxError, IndentationError, ValueError):
        return None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node if isinstance(node, ast.FunctionDef) else None
    return None


def _closure_env(func: Callable) -> Dict[str, Any]:
    """The names a function body can resolve: closure cells over globals."""
    env = dict(getattr(func, "__globals__", {}))
    freevars = getattr(func.__code__, "co_freevars", ())
    cells = getattr(func, "__closure__", None) or ()
    for name, cell in zip(freevars, cells):
        try:
            env[name] = cell.cell_contents
        except ValueError:  # empty cell
            env.pop(name, None)
    return env


def _is_fsm_like(obj: Any) -> bool:
    """Duck-check for the :class:`~repro.rtl.fsm.FSM` helper."""
    return (hasattr(obj, "state") and isinstance(getattr(obj, "state", None), Signal)
            and hasattr(obj, "encode") and hasattr(obj, "is_in"))


class _Analyzer:
    """AST walker accumulating reads/writes for a single process."""

    def __init__(self, analysis: ProcAnalysis, env: Dict[str, Any],
                 depth: int = 0, call_stack: Optional[Set[Any]] = None) -> None:
        self.analysis = analysis
        self.env = env
        self.depth = depth
        self.call_stack = call_stack if call_stack is not None else set()
        #: name -> _FAIL (runtime value) or resolved object / AnyOf
        self.locals: Dict[str, Any] = {}
        #: Per-statement transpilability of the current statement, and the
        #: first reason it lost it.
        self.stmt_transpilable = True
        self.stmt_reason: Optional[str] = None
        self.stmt_locals: Set[str] = set()
        self.reads = analysis.reads
        self.writes = analysis.writes
        self.mem_reads = analysis.mem_reads
        self.mem_writes = analysis.mem_writes

    # -- bookkeeping -----------------------------------------------------------

    def bail(self, reason: str) -> None:
        """Something unanalysable: the whole process becomes opaque."""
        self.analysis.opaque = True
        if len(self.analysis.opaque_reasons) < 8:
            self.analysis.opaque_reasons.append(reason)

    def not_transpilable(self, reason: Optional[str] = None) -> None:
        self.stmt_transpilable = False
        if self.stmt_reason is None:
            self.stmt_reason = reason

    def note(self, node: ast.AST, value: Any) -> None:
        self.analysis.notes[id(node)] = value

    def read_signal(self, obj: Any) -> None:
        for sig in _expand(obj):
            if isinstance(sig, Signal):
                self.reads.add(sig)
            elif isinstance(sig, Memory):
                self.mem_reads.add(sig)

    def write_signal(self, obj: Any) -> None:
        for sig in _expand(obj):
            if isinstance(sig, Signal):
                self.writes.add(sig)
            elif isinstance(sig, Memory):
                self.mem_writes.add(sig)

    # -- compile-time resolution ------------------------------------------------

    def resolve(self, node: ast.AST) -> Any:
        """Resolve ``node`` to a compile-time object, ``AnyOf`` or ``_FAIL``.

        Resolution never executes user code: attributes are fetched with
        ``getattr_static`` so properties and other descriptors fail cleanly
        instead of running.
        """
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return self.locals[node.id]
            if node.id in self.env:
                return self.env[node.id]
            builtin = getattr(__builtins__, node.id, _FAIL) if not isinstance(
                __builtins__, dict) else __builtins__.get(node.id, _FAIL)
            return builtin
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return self._resolve_attr(base, node.attr)
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            if base is _FAIL:
                return _FAIL
            index = self.resolve(node.slice)
            return self._resolve_subscript(base, index)
        if isinstance(node, ast.Call):
            # getattr(obj, "attr"[, default]) with resolvable arguments.
            func = self.resolve(node.func)
            if func is getattr and len(node.args) in (2, 3) and not node.keywords:
                base = self.resolve(node.args[0])
                attr = self.resolve(node.args[1])
                if base is not _FAIL and isinstance(attr, str):
                    resolved = self._resolve_attr(base, attr)
                    if resolved is _FAIL and len(node.args) == 3:
                        return self.resolve(node.args[2])
                    return resolved
            return _FAIL
        return _FAIL

    def _resolve_attr(self, base: Any, attr: str) -> Any:
        if base is _FAIL:
            return _FAIL
        if isinstance(base, AnyOf):
            resolved = [self._resolve_attr(opt, attr) for opt in base.options]
            ok = [r for r in resolved if r is not _FAIL]
            if not ok:
                return _FAIL
            return AnyOf(ok) if len(ok) > 1 else ok[0]
        value = static_lookup(base, attr)
        if value is _FAIL:
            return _FAIL
        if isinstance(value, (property, classmethod, staticmethod)):
            return _FAIL  # descriptor: would execute code; analysed elsewhere
        if hasattr(value, "__get__") and not callable(value) and not isinstance(
                value, (Signal, Memory)):
            return _FAIL
        # getattr_static returns plain functions for methods; keep them —
        # call analysis re-binds the instance explicitly.
        return value

    def _resolve_subscript(self, base: Any, index: Any) -> Any:
        if isinstance(base, AnyOf):
            resolved = [self._resolve_subscript(opt, index) for opt in base.options]
            ok = [r for r in resolved if r is not _FAIL]
            if not ok:
                return _FAIL
            return AnyOf(ok) if len(ok) > 1 else ok[0]
        if isinstance(base, Memory):
            # The memory itself is the dependency; elements are runtime values.
            return _FAIL
        if isinstance(base, (list, tuple)):
            if index is not _FAIL and not isinstance(index, AnyOf):
                try:
                    return base[index]
                except (IndexError, TypeError, KeyError):
                    return _FAIL
            if base:
                return AnyOf(_distinct(base)) if len(base) > 1 else base[0]
            return _FAIL
        if isinstance(base, dict):
            if index is not _FAIL and not isinstance(index, AnyOf):
                try:
                    return base[index]
                except (KeyError, TypeError):
                    return _FAIL
            values = list(base.values())
            if values:
                return AnyOf(values) if len(values) > 1 else values[0]
            return _FAIL
        return _FAIL

    def _iter_elements(self, value: Any) -> Optional[List[Any]]:
        """Elements of a resolvable iterable, or None."""
        if isinstance(value, (list, tuple)):
            return list(value)
        if isinstance(value, dict):
            return list(value)
        if isinstance(value, AnyOf):
            out: List[Any] = []
            for opt in value.options:
                elems = self._iter_elements(opt)
                if elems is None:
                    return None
                out.extend(elems)
            return out
        return None

    # -- statement walk ---------------------------------------------------------

    def visit_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) > 1:
                self.not_transpilable()
            self.visit_expr(stmt.value)
            for target in stmt.targets:
                self.visit_target(target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.not_transpilable("augmented assignment")
            self.visit_expr(stmt.value)
            self.visit_aug_target(stmt.target)
        elif isinstance(stmt, ast.AnnAssign):
            self.not_transpilable()
            if stmt.value is not None:
                self.visit_expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.assign_local(stmt.target.id, self.resolve(stmt.value)
                                  if stmt.value is not None else _FAIL)
        elif isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Constant):
                return  # docstring
            self.visit_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self.visit_expr(stmt.test, truth=True)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.While)):
            self.not_transpilable("loop")
            self.visit_loop(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.not_transpilable("return with a value")
                self.visit_expr(stmt.value)
            else:
                # A bare `return` early-exits the process; later statements
                # may not run, which a statement-split schedule cannot model.
                self.not_transpilable("early return")
        elif isinstance(stmt, (ast.Pass,)):
            return
        elif isinstance(stmt, ast.Assert):
            self.not_transpilable()
            self.visit_expr(stmt.test, truth=True)
            if stmt.msg is not None:
                self.visit_expr(stmt.msg)
        elif isinstance(stmt, ast.Raise):
            # Raising aborts the simulation; it cannot hide signal traffic.
            self.not_transpilable()
            if stmt.exc is not None and not isinstance(stmt.exc, ast.Call):
                self.visit_expr(stmt.exc)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef, ast.Import, ast.ImportFrom,
                               ast.Global, ast.Nonlocal)):
            self.not_transpilable()
            self.bail(f"unsupported statement {type(stmt).__name__}")
        else:
            self.not_transpilable()
            self.bail(f"unsupported statement {type(stmt).__name__}")

    def visit_loop(self, stmt) -> None:
        if isinstance(stmt, ast.While):
            self.visit_expr(stmt.test, truth=True)
            for _ in range(2):  # second pass: aliases assigned in the body
                self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
            return
        self.visit_expr(stmt.iter)
        self.bind_loop_target(stmt.target, stmt.iter)
        for _ in range(2):
            self.visit_body(stmt.body)
        self.visit_body(stmt.orelse)

    def bind_loop_target(self, target: ast.expr, iter_node: ast.expr) -> None:
        """Bind loop targets to element unions when the iterable resolves."""
        elements: Optional[List[Any]] = None
        enumerated = False
        if isinstance(iter_node, ast.Call):
            func = self.resolve(iter_node.func)
            if func is enumerate and iter_node.args:
                elements = self._iter_elements(self.resolve(iter_node.args[0]))
                enumerated = True
            elif func is range:
                elements = []  # targets are plain ints: no aliases
        if elements is None and not enumerated:
            elements = self._iter_elements(self.resolve(iter_node))

        def union(elems: Optional[List[Any]]) -> Any:
            if not elems:
                return _FAIL
            return AnyOf(elems) if len(elems) > 1 else elems[0]

        if enumerated and isinstance(target, ast.Tuple) and len(target.elts) == 2:
            self.assign_local_target(target.elts[0], _FAIL)
            self.assign_local_target(target.elts[1], union(elements))
        else:
            self.assign_local_target(target, union(elements))

    def assign_local_target(self, target: ast.expr, value: Any) -> None:
        if isinstance(target, ast.Name):
            self.assign_local(target.id, value)
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                self.assign_local_target(elt, _FAIL)
        # Attribute/Subscript loop targets would mutate structure: bail.
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.bail("loop target mutates an attribute or subscript")

    def assign_local(self, name: str, value: Any) -> None:
        """Record a local binding, accumulating unions across branches."""
        self.stmt_locals.add(name)
        previous = self.locals.get(name, None)
        if previous is None:
            self.locals[name] = value
            return
        if previous is _FAIL or value is _FAIL:
            self.locals[name] = _FAIL
            return
        if previous is value:
            return
        self.locals[name] = AnyOf([previous, value])

    # -- assignment targets -----------------------------------------------------

    def visit_target(self, target: ast.expr, value_node: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.assign_local(target.id, self.resolve(value_node))
            return
        if isinstance(target, ast.Attribute):
            if target.attr == "next":
                base = self.resolve(target.value)
                if base is _FAIL:
                    self.not_transpilable()
                    self.bail(f"cannot resolve write target "
                              f"{ast.dump(target)[:60]}")
                    return
                if _contains_signal(base):
                    self.write_signal(base)
                    self.note(target, base)
                    if isinstance(base, AnyOf):
                        self.not_transpilable()
                    return
            # Writing some other attribute (Python-side state) does not touch
            # the signal graph but cannot be transpiled.
            self.not_transpilable(f"writes Python attribute .{target.attr}")
            self.visit_expr(target.value)
            return
        if isinstance(target, ast.Subscript):
            base = self.resolve(target.value)
            if isinstance(base, Memory) or (
                    isinstance(base, AnyOf)
                    and any(isinstance(o, Memory) for o in base.options)):
                self.write_signal(base)
                self.note(target, base)
                self.not_transpilable("memory write")
                self.visit_expr(target.slice)
                return
            if base is _FAIL:
                self.not_transpilable()
                self.bail("cannot resolve subscript write target")
                return
            if _contains_signal(base):
                self.not_transpilable()
                self.bail("subscript store into a container of signals")
                return
            self.not_transpilable()
            self.visit_expr(target.slice)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            self.not_transpilable()
            for elt in target.elts:
                self.visit_target(elt, value_node)
            return
        self.not_transpilable()
        self.bail(f"unsupported assignment target {type(target).__name__}")

    def visit_aug_target(self, target: ast.expr) -> None:
        """``x += ...`` — target is read and written."""
        if isinstance(target, ast.Name):
            self.assign_local(target.id, _FAIL)
            return
        if isinstance(target, ast.Attribute) and target.attr == "next":
            base = self.resolve(target.value)
            if base is _FAIL:
                self.bail("cannot resolve augmented write target")
                return
            if _contains_signal(base):
                self.write_signal(base)
                self.read_signal(base)
                return
        if isinstance(target, ast.Attribute):
            self.visit_expr(target.value)
            return
        if isinstance(target, ast.Subscript):
            base = self.resolve(target.value)
            if isinstance(base, Memory):
                self.mem_writes.add(base)
                self.mem_reads.add(base)
                self.visit_expr(target.slice)
                return
            self.visit_expr(target.value)
            self.visit_expr(target.slice)
            return
        self.bail(f"unsupported augmented target {type(target).__name__}")

    # -- expressions ------------------------------------------------------------

    def visit_expr(self, node: ast.expr, truth: bool = False) -> None:
        if isinstance(node, ast.Constant):
            return
        if isinstance(node, ast.Attribute):
            if node.attr in ("value", "bits", "next"):
                base = self.resolve(node.value)
                if _contains_signal(base):
                    self.read_signal(base)
                    self.note(node, base)
                    if node.attr != "value" or isinstance(base, AnyOf):
                        self.not_transpilable()
                    return
            resolved = self.resolve(node)
            self._expr_resolved(node, resolved, truth)
            return
        if isinstance(node, (ast.Name, ast.Subscript)):
            resolved = self.resolve(node)
            if resolved is not _FAIL and _contains_signal(resolved):
                self._expr_resolved(node, resolved, truth)
                return
            if isinstance(node, ast.Subscript):
                base = self.resolve(node.value)
                if isinstance(base, Memory) or (
                        isinstance(base, AnyOf)
                        and any(isinstance(o, Memory) for o in base.options)):
                    self.read_signal(base)
                    self.note(node, base)
                    self.visit_expr(node.slice)
                    return
                if base is _FAIL:
                    # e.g. subscripting a runtime value; analyse children.
                    self.visit_expr(node.value)
                    self.visit_expr(node.slice)
                    self.not_transpilable()
                    return
                # Subscript of plain data (list of ints...): deps only via
                # the index expression.
                self.visit_expr(node.slice)
                if not isinstance(node.slice, ast.Constant):
                    self.not_transpilable()
                elif not isinstance(base, (list, tuple, dict, str, bytes)):
                    self.not_transpilable()
                else:
                    resolved_const = self._resolve_subscript(
                        base, self.resolve(node.slice))
                    if not _is_literal(resolved_const):
                        self.not_transpilable()
                    else:
                        self.note(node, resolved_const)
                return
            # Plain name: a runtime local or a resolvable constant.
            if isinstance(node, ast.Name) and node.id in self.locals:
                value = self.locals[node.id]
                if value is not _FAIL and _contains_signal(value):
                    self._expr_resolved(node, value, truth)
                return
            if resolved is not _FAIL and not _is_literal(resolved):
                # Non-literal constant (object reference) used bare: fine for
                # analysis, but the transpiler cannot embed it.
                self.not_transpilable(
                    f"uses a {type(resolved).__name__} object")
            elif resolved is not _FAIL:
                self.note(node, resolved)
            else:
                # An unresolvable bare name could hide anything (even a
                # rebound signal): give up on this process entirely.
                self.not_transpilable()
                self.bail(f"cannot resolve name {getattr(node, 'id', '?')!r}")
            return
        if isinstance(node, ast.Call):
            self.visit_call(node)
            return
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.visit_expr(value, truth=True)
            return
        if isinstance(node, ast.UnaryOp):
            self.visit_expr(node.operand, truth=isinstance(node.op, ast.Not))
            return
        if isinstance(node, ast.BinOp):
            self.visit_expr(node.left)
            self.visit_expr(node.right)
            return
        if isinstance(node, ast.Compare):
            self.visit_expr(node.left)
            for comp in node.comparators:
                self.visit_expr(comp)
            return
        if isinstance(node, ast.IfExp):
            self.visit_expr(node.test, truth=True)
            self.visit_expr(node.body, truth=truth)
            self.visit_expr(node.orelse, truth=truth)
            return
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            self.not_transpilable("builds a container")
            for elt in node.elts:
                self.visit_expr(elt)
            return
        if isinstance(node, ast.Dict):
            self.not_transpilable()
            for key in node.keys:
                if key is not None:
                    self.visit_expr(key)
            for value in node.values:
                self.visit_expr(value)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self.not_transpilable("comprehension")
            self.visit_comprehension(node.generators, [node.elt])
            return
        if isinstance(node, ast.DictComp):
            self.not_transpilable("comprehension")
            self.visit_comprehension(node.generators, [node.key, node.value])
            return
        if isinstance(node, ast.JoinedStr):
            self.not_transpilable()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.visit_expr(value.value)
            return
        if isinstance(node, ast.Starred):
            self.not_transpilable()
            self.visit_expr(node.value)
            return
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.visit_expr(part)
            self.not_transpilable()
            return
        if isinstance(node, ast.Lambda):
            self.not_transpilable()
            self.bail("lambda inside a combinational process")
            return
        self.not_transpilable()
        self.bail(f"unsupported expression {type(node).__name__}")

    def _expr_resolved(self, node: ast.expr, resolved: Any,
                       truth: bool) -> None:
        """An expression resolving to a compile-time object, used bare."""
        if resolved is _FAIL:
            self.not_transpilable()
            self.bail(f"cannot resolve {ast.dump(node)[:60]}")
            return
        if _contains_signal(resolved):
            # A bare Signal read (truthiness, int()...): depends on its value.
            self.read_signal(resolved)
            self.note(node, resolved)
            if not truth or isinstance(resolved, AnyOf) or not isinstance(
                    resolved, Signal):
                self.not_transpilable()
            return
        if _is_literal(resolved):
            self.note(node, resolved)
            return
        self.not_transpilable(f"uses a {type(resolved).__name__} object")

    def visit_comprehension(self, generators, elements) -> None:
        for gen in generators:
            self.visit_expr(gen.iter)
            self.bind_loop_target(gen.target, gen.iter)
            for cond in gen.ifs:
                self.visit_expr(cond, truth=True)
        for _ in range(2):
            for element in elements:
                self.visit_expr(element)

    # -- calls ------------------------------------------------------------------

    def visit_call(self, node: ast.Call) -> None:
        func = self.resolve(node.func)
        bound_self = None
        if func is _FAIL and isinstance(node.func, ast.Attribute):
            base = self.resolve(node.func.value)
            if base is not _FAIL and not isinstance(base, AnyOf):
                method = inspect.getattr_static(type(base), node.func.attr, _FAIL) \
                    if not inspect.isclass(base) else _FAIL
                if callable(method) and method is not _FAIL:
                    func, bound_self = method, base
        elif isinstance(node.func, ast.Attribute) and callable(func) \
                and not isinstance(func, type):
            base = self.resolve(node.func.value)
            if base is not _FAIL and not isinstance(base, AnyOf) \
                    and not inspect.ismodule(base) and not inspect.isclass(base):
                bound_self = base

        # fsm.is_in("NAME"): reads the FSM state register; transpiles to an
        # integer comparison against the state's encoding.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "is_in" \
                and len(node.args) == 1 and not node.keywords:
            base = self.resolve(node.func.value)
            state_name = self.resolve(node.args[0])
            if base is not _FAIL and not isinstance(base, AnyOf) \
                    and _is_fsm_like(base) and isinstance(state_name, str):
                self.reads.add(base.state)
                try:
                    code = base.encode(state_name)
                except Exception:
                    self.bail(f"unknown FSM state {state_name!r}")
                    return
                self.note(node, (base.state, code))
                return

        # getattr(obj, "attr") resolving to a signal: handled by resolve();
        # the caller records the read via the surrounding .value access.
        if func is getattr:
            resolved = self.resolve(node)
            if resolved is not _FAIL and _contains_signal(resolved):
                self.note(node, resolved)
                return
            for arg in node.args:
                self.visit_expr(arg)
            self.not_transpilable()
            return

        if func in _SAFE_CALLS:
            truth = func in (int, bool)
            for arg in node.args:
                self.visit_expr(arg, truth=truth)
            for kw in node.keywords:
                self.visit_expr(kw.value)
            self.not_transpilable(
                f"calls builtin {getattr(func, '__name__', func)}")
            return

        if func is _FAIL or not callable(func):
            self.not_transpilable()
            self.bail(f"cannot resolve call {ast.dump(node.func)[:60]}")
            for arg in node.args:
                self.visit_expr(arg)
            for kw in node.keywords:
                self.visit_expr(kw.value)
            return

        # A resolvable helper: analyse its body recursively.  The callee's
        # reads/writes land in the *caller's current* sets so statement-level
        # attribution stays correct.
        self.not_transpilable(
            f"calls helper {getattr(func, '__name__', 'callable')}")
        for arg in node.args:
            self.visit_expr(arg)
        for kw in node.keywords:
            self.visit_expr(kw.value)
        self.recurse_into(func, bound_self)

    def recurse_into(self, func: Callable, bound_self: Any) -> None:
        if isinstance(func, (classmethod, staticmethod)):
            func = func.__func__
        inner = getattr(func, "__func__", func)  # unwrap bound methods
        key = (inner, id(bound_self))
        if key in self.call_stack:
            return
        if self.depth >= _MAX_CALL_DEPTH:
            self.bail(f"call depth limit at {getattr(inner, '__name__', inner)}")
            return
        if not inspect.isfunction(inner):
            self.bail(f"cannot analyse call target {inner!r}")
            return
        parsed = _parse_proc(inner)
        if parsed is None:
            self.bail(f"no source for {getattr(inner, '__name__', inner)}")
            return
        sub = _Analyzer(self.analysis, _closure_env(inner),
                        depth=self.depth + 1,
                        call_stack=self.call_stack | {key})
        sub.reads = self.reads
        sub.writes = self.writes
        sub.mem_reads = self.mem_reads
        sub.mem_writes = self.mem_writes
        params = [a.arg for a in parsed.args.args + parsed.args.kwonlyargs]
        if parsed.args.vararg:
            params.append(parsed.args.vararg.arg)
        if parsed.args.kwarg:
            params.append(parsed.args.kwarg.arg)
        for param in params:
            sub.locals[param] = _FAIL
        actual_self = getattr(func, "__self__", bound_self)
        if params and actual_self is not None:
            sub.locals[params[0]] = actual_self
        # Recursion only needs reads/writes; transpilability is already off.
        sub.visit_body(parsed.body)


def _distinct(values) -> List[Any]:
    """The candidates a dynamic subscript of ``values`` can yield.

    A container of plain ints (a pixel queue, a lookup table) collapses to
    its distinct values, so analysis cost does not grow with queued
    stimulus; any other container keeps every element.
    """
    if set(map(type, values)) == {int}:
        return list(dict.fromkeys(values))
    return list(values)


def _expand(obj: Any):
    if isinstance(obj, AnyOf):
        for opt in obj.options:
            yield from _expand(opt)
    else:
        yield obj


def _contains_signal(obj: Any) -> bool:
    return any(isinstance(o, (Signal, Memory)) for o in _expand(obj))


def _is_literal(obj: Any) -> bool:
    """Values the transpiler may embed as literals in generated source."""
    return obj is None or isinstance(obj, (int, bool, str))


def analyze_proc(proc: Callable[[], None]) -> ProcAnalysis:
    """Analyse one combinational process.

    Returns a :class:`ProcAnalysis` whose ``reads``/``writes`` over-approximate
    every branch of the process.
    """
    analysis = ProcAnalysis(proc=proc)
    parsed = _parse_proc(proc)
    if parsed is None:
        analysis.opaque = True
        analysis.opaque_reasons.append("source unavailable")
        return analysis
    walker = _Analyzer(analysis, _closure_env(proc))
    units: List[StatementUnit] = []
    splittable = True
    for stmt in parsed.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        # Give the walker fresh per-statement sets: a signal read by two
        # statements must appear in *both* units' read sets, or the second
        # one loses its scheduling edge.
        walker.reads = set()
        walker.writes = set()
        walker.mem_reads = set()
        walker.mem_writes = set()
        walker.stmt_transpilable = True
        walker.stmt_reason = None
        walker.stmt_locals = set()
        walker.visit_stmt(stmt)
        analysis.reads |= walker.reads
        analysis.writes |= walker.writes
        analysis.mem_reads |= walker.mem_reads
        analysis.mem_writes |= walker.mem_writes
        unit = StatementUnit(
            node=stmt,
            reads=walker.reads,
            writes=walker.writes,
            mem_reads=walker.mem_reads,
            mem_writes=walker.mem_writes,
            locals_touched=set(walker.stmt_locals),
        )
        # Locals *read* by this statement also order it after their defs.
        unit.locals_touched |= _locals_used(stmt, walker)
        units.append(unit)
        if not walker.stmt_transpilable:
            splittable = False
            if analysis.call_reason is None:
                first = proc.__code__.co_firstlineno
                analysis.call_reason = (
                    f"line {first + stmt.lineno - 1}: "
                    f"{walker.stmt_reason or type(stmt).__name__}")
    analysis.local_names = set(walker.locals)
    if splittable and not analysis.opaque and units:
        analysis.units = units
    return analysis


def _locals_used(stmt: ast.stmt, walker: _Analyzer) -> Set[str]:
    """Names of process-local temporaries referenced anywhere in ``stmt``."""
    used: Set[str] = set()
    if not walker.locals:
        return used
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and node.id in walker.locals:
            used.add(node.id)
    return used


# -- clocked processes --------------------------------------------------------------
#
# The clock edge is lowered differently from the combinational network: a
# clocked process runs exactly once per edge, in registration order, so no
# scheduling is needed and its body is spliced whole into the generated
# ``edge`` function.  Only *structure* resolves at compile time (signals,
# memories, FSMs and the components and bundles that hold them); every
# other expression stays live Python on the bound objects, so counters,
# lists and configuration attributes are read and written exactly as the
# interpreted process would.


class NotLowerable(Exception):
    """A clocked process (or helper) the edge lowering leaves interpreted."""


#: Nodes that open a scope, bind names the renamer cannot see, or suspend
#: the frame: a body holding one cannot be spliced into another function.
_UNSPLICEABLE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                 ast.GeneratorExp, ast.Global, ast.Nonlocal, ast.Yield,
                 ast.YieldFrom, ast.Await, ast.Import, ast.ImportFrom,
                 ast.Match, ast.AsyncFor, ast.AsyncWith)

#: Statements an early-return rewrite may copy, in total, per body.
_MAX_RETURN_COPIES = 64

_CODE_SUSPENDS = inspect.CO_GENERATOR | inspect.CO_COROUTINE \
    | inspect.CO_ASYNC_GENERATOR | inspect.CO_ITERABLE_COROUTINE


def is_structure(obj: Any) -> bool:
    """Objects whose attributes are fixed once a simulator is built."""
    return isinstance(obj, (Component, SignalBundle, Signal, Memory, FSM))


def fsm_method(obj: Any, name: str) -> bool:
    """True when ``obj.name`` is :class:`FSM`'s own, unpatched method."""
    return (isinstance(obj, FSM) and name not in vars(obj)
            and inspect.getattr_static(type(obj), name, None)
            is inspect.getattr_static(FSM, name))


#: A replayable path to an object a lowering resolved: ``("free", frame,
#: name)`` for a name in frame number ``frame``, ``(base_ref, attr)`` for a
#: static attribute of the object ``base_ref`` leads to.
Ref = tuple


class SeqFrame:
    """One function body (a clocked process or a helper it calls) being
    spliced into the generated clock edge; frame ``index`` of its lowering."""

    def __init__(self, func: Callable, index: int = 0) -> None:
        self.func = func
        self.index = index
        code = func.__code__
        self.local_names: Set[str] = set(code.co_varnames)
        self._freevars = dict(zip(code.co_freevars, func.__closure__ or ()))
        self._globals = func.__globals__
        #: Locals bound once to structure: name -> (object, ref).
        self.aliases: Dict[str, tuple] = {}
        #: Locals whose single store is a plain top-level assignment.
        self.alias_defs: Set[str] = set()
        #: Every name the body stores to.
        self.stored: Set[str] = set()
        self.body: List[ast.stmt] = []

    def free_value(self, name: str) -> Any:
        """The closure, global or builtin object ``name`` names, or _FAIL."""
        cell = self._freevars.get(name)
        if cell is not None:
            try:
                return cell.cell_contents
            except ValueError:  # empty cell
                return _FAIL
        if name in self._globals:
            return self._globals[name]
        builtins = self._globals.get("__builtins__", {})
        if not isinstance(builtins, dict):
            builtins = vars(builtins)
        return builtins.get(name, _FAIL)

    def is_builtin(self, name: str) -> bool:
        return name not in self._freevars and name not in self._globals

    def resolve(self, node: ast.AST) -> tuple:
        """``(object, ref)`` for a name or attribute chain, where object is
        _FAIL unless the chain runs through structure only, and ref is None
        for what no instance can change (locals, other expressions).

        Attribute chains resolve only while every object along them is
        structure, and never through descriptors, so mutable Python state
        (``self.total_writes``, ``self.received``) is never read here.
        """
        if isinstance(node, ast.Name):
            if node.id in self.local_names:
                return self.aliases.get(node.id, (_FAIL, None))
            return self.free_value(node.id), ("free", self.index, node.id)
        if isinstance(node, ast.Attribute):
            base, ref = self.resolve(node.value)
            if ref is None:
                return _FAIL, None
            if base is _FAIL or not is_structure(base):
                return _FAIL, (ref, node.attr)
            return static_attr(base, node.attr), (ref, node.attr)
        return _FAIL, None


def static_lookup(base: Any, attr: str) -> Any:
    """What ``inspect.getattr_static(base, attr)`` returns, or _FAIL.

    Instances take a direct walk of their class's ``__mro__``, several
    times cheaper than ``inspect``'s general one; classes go to
    ``inspect``.
    """
    if isinstance(base, type):
        try:
            return inspect.getattr_static(base, attr)
        except AttributeError:
            return _FAIL
    instance = getattr(base, "__dict__", None)
    if not isinstance(instance, dict):
        instance = {}
    for klass in type(base).__mro__:
        found = vars(klass).get(attr, _FAIL)
        if found is _FAIL:
            continue
        kind = type(found)
        if attr in instance and not (hasattr(kind, "__get__") and (
                hasattr(kind, "__set__") or hasattr(kind, "__delete__"))):
            return instance[attr]  # no data descriptor overrides it
        return found
    return instance.get(attr, _FAIL)


def static_attr(base: Any, attr: str) -> Any:
    """``base.attr`` without running code: every descriptor but a plain
    function (a property, a slot, a classmethod...) gives _FAIL."""
    value = static_lookup(base, attr)
    if hasattr(type(value), "__get__") and not inspect.isfunction(value):
        return _FAIL
    return value


def eval_ref(ref: Ref, frames: Sequence[SeqFrame],
             memo: Dict[Ref, Any]) -> Any:
    """The object ``ref`` leads to in ``frames`` (see :data:`Ref`)."""
    try:
        return memo[ref]
    except KeyError:
        pass
    if ref[0] == "free":
        value = frames[ref[1]].free_value(ref[2])
    else:
        base = eval_ref(ref[0], frames, memo)
        value = static_attr(base, ref[1]) \
            if base is not _FAIL and is_structure(base) else _FAIL
    memo[ref] = value
    return value


#: Per code object: the alias candidates and stored names of a spliceable
#: body, or the reason it cannot be spliced (bounded, oldest out first).
_FRAME_CACHE: Dict[Any, tuple] = {}
_FRAME_CACHE_SIZE = 1024


def seq_frame(func: Callable, index: int = 0) -> SeqFrame:
    """Parse ``func`` into a splice-ready frame, or raise NotLowerable.

    Every ``return`` is rewritten away (see :func:`eliminate_returns`), so
    the body can run inline in the middle of a larger function.  The
    checks are made once per code object.
    """
    code = getattr(func, "__code__", None)
    if code is None or not inspect.isfunction(func):
        raise NotLowerable("not a Python function")
    cached = _FRAME_CACHE.get(code)
    if cached is None:
        try:
            body, alias_defs, stored = _splice_ready(func)
        except NotLowerable as exc:
            _remember(code, (str(exc),))
            raise
        _remember(code, (alias_defs, stored))
    elif len(cached) == 1:
        raise NotLowerable(cached[0])
    else:
        body = eliminate_returns(_body(_parse_proc(func)))
        alias_defs, stored = cached
    frame = SeqFrame(func, index)
    frame.body, frame.alias_defs, frame.stored = body, alias_defs, stored
    return frame


def _remember(code: Any, entry: tuple) -> None:
    _FRAME_CACHE[code] = entry
    while len(_FRAME_CACHE) > _FRAME_CACHE_SIZE:
        del _FRAME_CACHE[next(iter(_FRAME_CACHE))]


def _body(parsed: ast.FunctionDef) -> List[ast.stmt]:
    body = parsed.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        return body[1:]  # docstring
    return body


def _splice_ready(func: Callable) -> tuple:
    code = func.__code__
    if code.co_flags & _CODE_SUSPENDS:
        raise NotLowerable("generator or coroutine")
    if "__class__" in code.co_freevars:
        raise NotLowerable("uses super() or __class__")
    parsed = _parse_proc(func)
    if parsed is None:
        raise NotLowerable("source unavailable")
    body = _body(parsed)
    stores: Dict[str, int] = {}
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, _UNSPLICEABLE):
                raise NotLowerable(f"contains {type(node).__name__}")
            if isinstance(node, ast.ExceptHandler) and node.name:
                raise NotLowerable("binds an exception name")
            if isinstance(node, ast.Name) \
                    and not isinstance(node.ctx, ast.Load):
                stores[node.id] = stores.get(node.id, 0) + 1
    alias_defs = {stmt.targets[0].id for stmt in body
                  if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                  and isinstance(stmt.targets[0], ast.Name)
                  and stores.get(stmt.targets[0].id) == 1}
    return eliminate_returns(body), alias_defs, set(stores)


def eliminate_returns(body: List[ast.stmt],
                      budget: Optional[List[int]] = None) -> List[ast.stmt]:
    """Rewrite ``body`` so that no ``return`` remains.

    The statements after an ``if`` whose branch returns move into the
    branches that fall through, so every path runs exactly what it ran
    before.  A returned value is dropped (a clocked process's result is
    ignored) but kept as a statement when it may have side effects.  A
    ``return`` inside a loop, ``try`` or ``with`` raises NotLowerable, as
    does an ``if`` ladder that would copy more than ``_MAX_RETURN_COPIES``
    statements.
    """
    if budget is None:
        budget = [_MAX_RETURN_COPIES]
    out: List[ast.stmt] = []
    for index, stmt in enumerate(body):
        if isinstance(stmt, ast.Return):
            if stmt.value is not None and any(
                    isinstance(node, ast.Call) for node in ast.walk(stmt.value)):
                out.append(ast.copy_location(ast.Expr(value=stmt.value), stmt))
            return out
        if not any(isinstance(node, ast.Return) for node in ast.walk(stmt)):
            out.append(stmt)
            continue
        if not isinstance(stmt, ast.If):
            raise NotLowerable(f"return inside {type(stmt).__name__}")
        rest = body[index + 1:]
        body_ends = _always_returns(stmt.body)
        else_ends = _always_returns(stmt.orelse)
        tail_body: List[ast.stmt] = []
        if not body_ends:
            tail_body = rest
            if not else_ends:
                budget[0] -= len(rest)
                if budget[0] < 0:
                    raise NotLowerable("early returns copy too much code")
                tail_body = [copy.deepcopy(node) for node in rest]
        stmt.body = eliminate_returns(stmt.body + tail_body, budget) \
            or [ast.copy_location(ast.Pass(), stmt)]
        stmt.orelse = eliminate_returns(
            stmt.orelse + ([] if else_ends else rest), budget)
        out.append(stmt)
        return out
    return out


def _always_returns(body: List[ast.stmt]) -> bool:
    """Whether every path through ``body`` ends in ``return`` or ``raise``."""
    if not body:
        return False
    last = body[-1]
    if isinstance(last, (ast.Return, ast.Raise)):
        return True
    return isinstance(last, ast.If) and _always_returns(last.body) \
        and _always_returns(last.orelse)
