"""Vectorized N-lane batched emitter: one compiled kernel, many lanes.

The scalar compiled backend (:mod:`.emit`) dissolves a design into one
straight-line Python function.  This module goes one step further and emits
a *batched* variant of the same program: every signal becomes a row of an
``(n_signals, n_lanes)`` int64 matrix, every statement is vectorized over
the lane axis with numpy, and N independent copies of the design advance in
lockstep through a single settle/cycle pair.  Sweeps over parameter points
and verification seed matrices then pay the Python interpreter once per
statement instead of once per statement per point.

Vectorization rules (mirroring the scalar semantics exactly):

* combinational writes fuse value+next updates, masked per lane with
  ``np.where``; ``if``/``elif`` chains are if-converted into lane masks and
  early ``return`` statements become a live-lane mask;
* cyclic groups iterate until *all* lanes converge (a lane that already
  settled simply stops producing changes);
* small pure helper methods (budget checks, accounting) are inlined with
  their returns captured into masked merge temporaries;
* Python-side integer attributes written by processes (e.g. push counters)
  are promoted to lane rows; Python lists read by index become padded
  gather matrices and ``list.append`` is replayed per masked lane, on the
  live per-lane list objects;
* any process the vectorizer cannot prove out falls back to a guarded
  per-lane scalar call (scatter the read columns onto the lane's real
  signals, run the process closure, gather the writes back) — opaque
  processes additionally sync *everything*, so no design is excluded.

Lane compatibility is verification-by-regeneration: the emitter is run once
per lane and lanes may share a batch only when the generated sources are
byte-identical (slot names are structural indices, so identical source
means identical wiring, constants and schedule).

Two deliberate emit-time faults (``batched.cross_lane_mask_reuse`` and
``batched.stale_lane_commit``) hide behind :mod:`repro.verify.mutate`
switches so the differential oracle can prove it notices cross-lane
contamination.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import inspect
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..component import Memory
from ..signal import Signal
from .analyze import (
    _FAIL,
    AnyOf,
    ProcAnalysis,
    _Analyzer,
    _closure_env,
    _is_fsm_like,
    _parse_proc,
    analyze_proc,
)
from .schedule import Schedule, Unit, build_schedule

#: Emit-time fault switches implemented by this emitter.
MUTATION_MASK_REUSE = "batched.cross_lane_mask_reuse"
MUTATION_STALE_COMMIT = "batched.stale_lane_commit"

_MAX_INLINE_DEPTH = 8

#: Expression value categories.
_CONST = "const"   # compile-time Python value
_BOOL = "bool"     # numpy bool row (or scalar bool broadcast)
_VEC = "vec"       # numpy int64 row (or scalar int broadcast)

#: Integer constants inside this range are bound once per kernel as
#: lane-width int64 rows (``_k32``, ``_km1`` for -1): numpy combines two
#: rows about twice as fast as a row and a Python int, which it converts
#: on every call.  Out-of-range values stay literals (and keep numpy's
#: overflow behaviour).
_LANE_CONST_MIN = -(1 << 63)
_LANE_CONST_MAX = (1 << 63) - 1


class VectorizeError(Exception):
    """A process cannot be vectorized; it falls back to a per-lane call."""


class _Demote(Exception):
    """A statement-split process failed vectorization: rebuild the schedule
    with that process demoted to a whole-process call unit and re-emit."""

    def __init__(self, proc_index: int, reason: str) -> None:
        super().__init__(reason)
        self.proc_index = proc_index
        self.reason = reason


@dataclass
class _Ex:
    """One transpiled expression: a fully parenthesized numpy fragment."""

    code: str
    kind: str
    const: Any = None
    #: Upper bound on the value when known (enables width-mask elision).
    sigmask: Optional[int] = None
    #: Code of the logical negation, when one ufunc cheaper than ``~code``.
    negated: Optional[str] = None


@dataclass
class LaneCallPlan:
    """Runtime recipe for running one process per lane, un-vectorized."""

    proc: Callable[[], None]
    #: Signal slots to scatter before / examine after the call (sound
    #: read∪write set).  ``None`` means *all* slots (opaque process).
    sig_slots: Optional[List[int]]
    #: Memory slots to scatter/gather.  ``None`` means all (opaque).
    mem_slots: Optional[List[int]]
    seq: bool
    opaque: bool
    reason: str
    #: Position of ``proc`` in the design's comb/seq process list, so a
    #: rebound sibling program can substitute its own lane's process.
    proc_index: int = -1


@dataclass
class BatchReport:
    """What the batched emitter did with one design."""

    n_comb_procs: int
    n_vectorized_comb: int
    n_lane_call_comb: int
    n_opaque_procs: int
    n_seq_procs: int
    n_vectorized_seq: int
    n_lane_call_seq: int
    n_cyclic_groups: int
    guarded: bool
    n_attr_rows: int
    n_gather_lists: int
    n_append_lists: int
    fallback_reasons: List[str] = field(default_factory=list)
    mutations: Tuple[str, ...] = ()


@dataclass
class BatchedProgram:
    """Everything one lane contributes to a batched simulation.

    The generated ``source`` is structural (slot indices only); two designs
    may share a batch exactly when their programs' :attr:`signature` match.
    The aux registries hold this lane's live Python objects in the order
    the source expects them.
    """

    source: str
    report: BatchReport
    signals: List[Signal]
    memories: List[Memory]
    max_settle: int
    #: (owner, attr) pairs promoted to lane rows, in ``_pa{j}`` order.
    attr_slots: List[Tuple[Any, str]] = field(default_factory=list)
    #: Python lists read by vectorized gathers, in ``_pl{j}`` order.
    gather_lists: List[list] = field(default_factory=list)
    #: Python lists appended to by vectorized code, in ``_ls{j}`` order.
    append_lists: List[list] = field(default_factory=list)
    #: Per-lane fallback calls, in ``_lc{q}`` order (comb, incl. opaque).
    comb_calls: List[LaneCallPlan] = field(default_factory=list)
    #: Per-lane fallback calls, in ``_lq{q}`` order (sequential).
    seq_calls: List[LaneCallPlan] = field(default_factory=list)
    #: This lane's processes in design order (rebinding substitutes a
    #: sibling lane's process at the same index).
    comb_procs: List[Callable] = field(default_factory=list)
    seq_procs: List[Callable] = field(default_factory=list)
    #: Emission inputs recorded for :func:`rebind_batched_program`:
    #: ``(owner, attr, value)`` triples whose values were baked into the
    #: source as constants, ``(container, fingerprint)`` pairs for
    #: containers whose *elements* were read at compile time, and
    #: ``(owner, method, args, result)`` records of methods that ran at
    #: compile time (FSM encoders) — a sibling design must match these
    #: exactly to reuse the source without re-emitting, and the reference
    #: design must still match them for a cached program to stay valid.
    bake_attrs: List[Tuple[Any, str, Any]] = field(default_factory=list)
    bake_containers: List[Tuple[Any, Any]] = field(default_factory=list)
    bake_calls: List[Tuple[Any, str, Tuple, Any]] = \
        field(default_factory=list)

    @functools.cached_property
    def signature(self) -> str:
        """Lane-compatibility key: identical signature == identical kernel."""
        payload = "\0".join([
            self.source,
            str(len(self.signals)),
            str(len(self.memories)),
            ",".join(str(m.depth) for m in self.memories),
            ",".join(str(m._mask) for m in self.memories),
        ])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- compile-time helpers -----------------------------------------------------------

_BIN_OPS: Dict[type, Tuple[str, Callable[[Any, Any], Any]]] = {
    ast.Add: ("+", lambda a, b: a + b),
    ast.Sub: ("-", lambda a, b: a - b),
    ast.Mult: ("*", lambda a, b: a * b),
    ast.FloorDiv: ("//", lambda a, b: a // b),
    ast.Mod: ("%", lambda a, b: a % b),
    ast.LShift: ("<<", lambda a, b: a << b),
    ast.RShift: (">>", lambda a, b: a >> b),
    ast.BitOr: ("|", lambda a, b: a | b),
    ast.BitAnd: ("&", lambda a, b: a & b),
    ast.BitXor: ("^", lambda a, b: a ^ b),
}

_CMP_OPS: Dict[type, Tuple[str, Callable[[Any, Any], Any]]] = {
    ast.Eq: ("==", lambda a, b: a == b),
    ast.NotEq: ("!=", lambda a, b: a != b),
    ast.Lt: ("<", lambda a, b: a < b),
    ast.LtE: ("<=", lambda a, b: a <= b),
    ast.Gt: (">", lambda a, b: a > b),
    ast.GtE: (">=", lambda a, b: a >= b),
}


def _const_ex(value: Any) -> _Ex:
    mask = None
    if isinstance(value, bool):
        mask = int(value)
    elif isinstance(value, int):
        mask = value if value >= 0 else None
    return _Ex(code=repr(value), kind=_CONST, const=value, sigmask=mask)


def _pow2_mask(n: Any) -> Optional[int]:
    """``n - 1`` when ``n`` is a positive power of two, else None.

    ``x % n == x & (n - 1)`` holds for *any* int64 ``x`` (including
    negatives, by two's complement) when ``n`` is a power of two, and the
    ``&`` ufunc is several times cheaper than ``%`` on small lane arrays.
    """
    if isinstance(n, int) and n > 0 and (n & (n - 1)) == 0:
        return n - 1
    return None


def _active_batched_mutations() -> Tuple[str, ...]:
    """The currently enabled ``batched.*`` fault switches (emit-time)."""
    try:
        from ...verify import mutate
    except ImportError:  # pragma: no cover - verify not importable
        return ()
    return tuple(sorted(name for name in mutate.active()
                        if name.startswith("batched.")))


#: Sentinel recorded when a compile-time method call raised (the emission
#: demoted that path; a sibling lane must raise identically).
CALL_RAISED = object()

#: Scalar leaves a container fingerprint captures by value.
_FP_SCALARS = (bool, int, float, complex, str, bytes, type(None))


def container_fingerprint(obj: Any) -> Any:
    """Order- and value-faithful snapshot of a container's scalar shape.

    Comparing an object's fingerprint now against one taken at emission
    time detects any mutation that could invalidate baked constants
    (element values, lengths, key sets).  Non-scalar elements snapshot as
    an opaque marker: every value the emitter *read* out of them was
    recorded through its own bake entry, so their drift is checked there.
    """
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(
            (type(v).__name__, v) if isinstance(v, _FP_SCALARS)
            else ("<obj>",) for v in obj))
    if isinstance(obj, dict):
        return ("dict", tuple(
            ((type(k).__name__, k) if isinstance(k, _FP_SCALARS)
             else ("<obj>",),
             (type(v).__name__, v) if isinstance(v, _FP_SCALARS)
             else ("<obj>",)) for k, v in obj.items()))
    return None


class _BakeTrace:
    """Every lane-specific value the emitter folded into the source.

    Identical code objects do not guarantee identical emission: closure and
    attribute *values* become constants, container elements get baked by
    constant subscripts and ``in`` folds, and FSM encoders execute at
    compile time.  The trace records exactly those inputs so
    :func:`~repro.rtl.compile.rebind.rebind_batched_program` can prove a
    sibling design would emit byte-identical source without re-emitting —
    and so a *cached* reference can prove its own design has not mutated
    since emission.
    """

    def __init__(self) -> None:
        #: (id(owner), attr) -> (owner, attr, baked scalar value)
        self.attrs: Dict[Tuple[int, str], Tuple[Any, str, Any]] = {}
        #: id -> container whose elements were read at compile time
        self.containers: Dict[int, Any] = {}
        #: (id(owner), method, args) -> (owner, method, args, result) for
        #: methods the emitter executed (FSM ``encode``); ``result`` is
        #: :data:`CALL_RAISED` when the call raised.
        self.calls: Dict[Tuple[int, str, Tuple], Tuple] = {}

    def record_container(self, obj: Any) -> None:
        if isinstance(obj, (list, tuple, dict)):
            self.containers[id(obj)] = obj

    def record_call(self, owner: Any, method: str, args: Tuple,
                    result: Any) -> None:
        self.calls[(id(owner), method, args)] = (owner, method, args,
                                                 result)


class _Resolver(_Analyzer):
    """The analyzer's compile-time resolution, reused standalone.

    The batched transpiler maintains its own locals map on this object as
    it walks statements, so ``resolve`` sees the same bindings the analyzer
    would have seen at that program point.  While a :class:`_BakeTrace` is
    installed (class attribute, set for the duration of one emission),
    every attribute scalar and container-element read that could reach the
    generated source is recorded on it.
    """

    trace: Optional[_BakeTrace] = None

    def __init__(self, proc: Callable) -> None:
        super().__init__(ProcAnalysis(proc=proc), _closure_env(proc))

    def _resolve_attr(self, base: Any, attr: str) -> Any:
        value = super()._resolve_attr(base, attr)
        trace = _Resolver.trace
        if trace is not None and base is not _FAIL \
                and not isinstance(base, AnyOf) \
                and isinstance(value, (bool, int, float, str)):
            trace.attrs[(id(base), attr)] = (base, attr, value)
        return value

    def _resolve_subscript(self, base: Any, index: Any) -> Any:
        trace = _Resolver.trace
        if trace is not None:
            # Recorded even when resolution fails: an out-of-range constant
            # subscript demotes the process, and a sibling lane must have
            # failed identically for the shared source to be sound.
            trace.record_container(base)
        return super()._resolve_subscript(base, index)


@dataclass
class _Frame:
    """Per-function emission context (the process or one inlined helper)."""

    res: _Resolver
    prefix: str
    #: Kind bindings for runtime locals: name -> _Ex (var reference/const).
    local_kinds: Dict[str, _Ex] = field(default_factory=dict)
    #: Live-lane mask variable once a conditional ``return`` ran, else None.
    live: Optional[str] = None
    #: True once an unconditional ``return`` killed the rest of the body.
    terminated: bool = False
    #: Return capture variable for value-returning inlined helpers.
    ret_var: Optional[str] = None
    #: Deferred constant returns: (mask, const) merges, applied in order.
    #: Constant codes are safe to defer to the end of the inlined body
    #: (they reference no temporaries), where common shapes collapse to a
    #: single select — or to the branch mask itself — instead of a zeros
    #: init plus one masked merge per ``return``.
    ret_pending: List[Tuple[Optional[str], int]] = field(default_factory=list)
    #: True once ``ret_var`` was emitted (a non-constant return forced it).
    ret_materialized: bool = False
    #: Flips when the frame emitted a signal/memory/attr/list side effect.
    impure: bool = False


class _Vectorizer:
    """Transpile one process (or statement unit) into lane-vectorized code."""

    def __init__(self, emitter: "_BatchEmitter", proc: Callable,
                 mode: str, guarded: bool,
                 write_slots: Optional[Set[int]] = None) -> None:
        self.em = emitter
        self.proc = proc
        self.mode = mode            # "comb" | "seq"
        self.guarded = guarded      # guarded comb writes (convergence loop)
        #: Signal slots this process may write (None = unknown: snapshot
        #: every bound row view).  Used to elide local-binding copies.
        self.write_slots = write_slots
        self.out: List[str] = []
        self.indent = ""
        self.frames: List[_Frame] = []
        #: mask-var -> the mask-var it was emitted as the negation of.
        self.complements: Dict[str, str] = {}
        #: (branch mask, live mask) -> temporary holding their conjunction.
        self.eff_masks: Dict[Tuple[str, str], str] = {}

    # -- plumbing -------------------------------------------------------------

    def fail(self, reason: str) -> "VectorizeError":
        name = getattr(self.proc, "__qualname__", str(self.proc))
        return VectorizeError(f"{name}: {reason}")

    def line(self, text: str) -> None:
        self.out.append(self.indent + text)

    def temp(self) -> str:
        return self.em.temp()

    @property
    def frame(self) -> _Frame:
        return self.frames[-1]

    def push_frame(self, res: _Resolver, ret_var: Optional[str]) -> _Frame:
        frame = _Frame(res=res, prefix=self.em.prefix(), ret_var=ret_var)
        self.frames.append(frame)
        return frame

    def eff(self, mask: Optional[str]) -> Optional[str]:
        """Combine the branch mask with the frame's live-lane mask."""
        live = self.frame.live
        if mask is None:
            return live
        if live is None:
            return mask
        # Mask temporaries are assigned once, so a combination computed
        # for one store serves every later store under the same branch.
        combined = self.eff_masks.get((mask, live))
        if combined is None:
            combined = self.temp()
            self.line(f"{combined} = ({mask} & {live})")
            self.eff_masks[(mask, live)] = combined
        return combined

    # -- statement emission ----------------------------------------------------

    def run_proc(self, frame: _Frame, body: List[ast.stmt],
                 mask: Optional[str] = None) -> None:
        self.frames.append(frame)
        try:
            self.emit_body(body, mask)
        finally:
            self.frames.pop()

    def emit_body(self, body: Sequence[ast.stmt], mask: Optional[str]) -> None:
        for stmt in body:
            if self.frame.terminated:
                break
            self.emit_stmt(stmt, mask)

    def emit_stmt(self, stmt: ast.stmt, mask: Optional[str]) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise self.fail("multiple assignment targets")
            self.emit_assign(stmt.targets[0], stmt.value, mask)
        elif isinstance(stmt, ast.AugAssign):
            if type(stmt.op) not in _BIN_OPS:
                raise self.fail(f"augmented {type(stmt.op).__name__}")
            load = self.aug_load(stmt.target)
            value = ast.BinOp(left=load, op=stmt.op, right=stmt.value)
            ast.copy_location(value, stmt)
            ast.fix_missing_locations(value)
            self.emit_assign(stmt.target, value, mask)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return
            self.emit_assign(stmt.target, stmt.value, mask)
        elif isinstance(stmt, ast.Expr):
            self.emit_expr_stmt(stmt.value, mask)
        elif isinstance(stmt, ast.If):
            self.emit_if(stmt, mask)
        elif isinstance(stmt, ast.Return):
            self.emit_return(stmt, mask)
        elif isinstance(stmt, ast.Pass):
            return
        else:
            raise self.fail(f"unsupported statement {type(stmt).__name__}")

    def aug_load(self, target: ast.expr) -> ast.expr:
        """Build the load counterpart of an augmented-assignment target."""
        load = ast.copy_location(
            ast.parse(ast.unparse(target), mode="eval").body, target)
        ast.fix_missing_locations(load)
        return load

    def emit_if(self, stmt: ast.If, mask: Optional[str]) -> None:
        test = self.expr(stmt.test, truth=True)
        if test.kind == _CONST:
            branch = stmt.body if test.const else stmt.orelse
            self.emit_body(branch, mask)
            return
        # The condition must be captured before the body runs: guarded comb
        # writes may update rows the condition read.
        cvar = self.temp()
        self.line(f"{cvar} = {self.as_bool(test)}")
        if mask is None:
            mvar = cvar
        else:
            mvar = self.temp()
            self.line(f"{mvar} = ({mask} & {cvar})")
        self.em.maybe_mutate_mask(self, mvar)
        self.emit_body(stmt.body, mvar)
        if stmt.orelse:
            evar = self.temp()
            if mask is None:
                self.line(f"{evar} = ~{cvar}")
                self.complements[evar] = cvar
            else:
                self.line(f"{evar} = ({mask} & ~{cvar})")
            self.emit_body(stmt.orelse, evar)

    def emit_return(self, stmt: ast.Return, mask: Optional[str]) -> None:
        frame = self.frame
        value_ex: Optional[_Ex] = None
        if stmt.value is not None:
            value_ex = self.expr(stmt.value)
            if value_ex.kind == _CONST and value_ex.const is None:
                value_ex = None
        if value_ex is not None and frame.ret_var is None:
            raise self.fail("process-level return with a value")
        em = self.eff(mask)
        if frame.ret_var is not None and value_ex is not None:
            if value_ex.kind == _CONST and not frame.ret_materialized:
                frame.ret_pending.append((em, int(value_ex.const)))
            else:
                self.materialize_ret(frame)
                vec = self.as_vec(value_ex)
                if em is None:
                    self.line(f"{frame.ret_var} = "
                              f"{self.snapshot_code(value_ex)}")
                else:
                    self.line(f"{frame.ret_var} = _np.where({em}, {vec}, "
                              f"{frame.ret_var})")
        if mask is None:
            # A top-level return: every lane still live returns here, so the
            # rest of the function is dead code for all lanes.
            frame.terminated = True
            return
        lv = self.temp()
        if frame.live is None:
            self.line(f"{lv} = ~({em})")
            self.complements[lv] = em
        else:
            self.line(f"{lv} = ({frame.live} & ~({em}))")
        frame.live = lv

    def materialize_ret(self, frame: _Frame) -> None:
        """Emit the return-capture array plus any deferred constant merges."""
        if frame.ret_materialized:
            return
        frame.ret_materialized = True
        self.line(f"{frame.ret_var} = _np.zeros(_NL, dtype=_np.int64)")
        for em, const in frame.ret_pending:
            const = self.em.lane_const(const)
            if em is None:
                self.line(f"{frame.ret_var}[...] = {const}")
            else:
                self.line(f"{frame.ret_var} = _np.where({em}, {const}, "
                          f"{frame.ret_var})")
        frame.ret_pending = []

    def finalize_ret(self, frame: _Frame) -> _Ex:
        """Collapse an inlined helper's deferred returns into one value."""
        if frame.ret_materialized:
            return _Ex(frame.ret_var, _VEC)
        pending = frame.ret_pending
        if not pending:
            # No lane ever returned a value; scalar code would have
            # produced None — the zeros default stands in, as before.
            return _const_ex(0)
        if len(pending) == 1:
            em, const = pending[0]
            if em is None:
                return _const_ex(const)
            if const == 1:
                return _Ex(em, _BOOL, sigmask=1)
            if const == 0:
                return _const_ex(0)
            self.line(f"{frame.ret_var} = _np.where("
                      f"{em}, {self.em.lane_const(const)}, "
                      f"{self.em.lane_const(0)})")
            bound = const if const >= 0 else None
            return _Ex(frame.ret_var, _VEC, sigmask=bound)
        if len(pending) == 2:
            (m1, c1), (m2, c2) = pending
            if m1 is not None and self.complements.get(m2) == m1:
                if (c1, c2) == (1, 0):
                    return _Ex(m1, _BOOL, sigmask=1, negated=m2)
                if (c1, c2) == (0, 1):
                    return _Ex(m2, _BOOL, sigmask=1, negated=m1)
                bound = max(c1, c2) if c1 >= 0 and c2 >= 0 else None
                self.line(f"{frame.ret_var} = _np.where("
                          f"{m1}, {self.em.lane_const(c1)}, "
                          f"{self.em.lane_const(c2)})")
                return _Ex(frame.ret_var, _VEC, sigmask=bound)
        self.materialize_ret(frame)
        return _Ex(frame.ret_var, _VEC)

    # -- assignments -----------------------------------------------------------

    def emit_assign(self, target: ast.expr, value: ast.expr,
                    mask: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            self.assign_local(target.id, value, mask)
            return
        if isinstance(target, ast.Attribute):
            if target.attr == "next":
                base = self.frame.res.resolve(target.value)
                if isinstance(base, Signal):
                    self.write_signal(base, value, mask)
                    return
                raise self.fail("write target is not a plain signal")
            self.write_attr(target, value, mask)
            return
        if isinstance(target, ast.Subscript):
            base = self.frame.res.resolve(target.value)
            if isinstance(base, Memory):
                self.write_memory(base, target.slice, value, mask)
                return
            raise self.fail("subscript store target is not a memory")
        raise self.fail(f"unsupported target {type(target).__name__}")

    def assign_local(self, name: str, value_node: ast.expr,
                     mask: Optional[str]) -> None:
        frame = self.frame
        resolved = frame.res.resolve(value_node)
        if resolved is not _FAIL and not isinstance(resolved, AnyOf) \
                and not isinstance(resolved, (int, bool)) \
                and resolved is not None:
            # Aliasing a compile-time object (signal, memory, list, fsm...):
            # record the binding, emit nothing.
            if mask is not None:
                raise self.fail(f"conditional alias binding of {name!r}")
            frame.res.locals[name] = resolved
            frame.local_kinds.pop(name, None)
            return
        ex = self.expr(value_node)
        previous = frame.local_kinds.get(name)
        if ex.kind == _CONST and mask is None:
            frame.res.locals[name] = ex.const
            frame.local_kinds[name] = ex
            return
        var = previous.code if previous is not None \
            and previous.kind != _CONST else f"_L{frame.prefix}_{name}"
        frame.res.locals[name] = _FAIL
        if mask is None:
            # A bare name on the RHS is a live array (a signal row view, an
            # attribute row, another local): binding must SNAPSHOT it, or a
            # later in-place row update would leak through the alias —
            # scalar code copies an int here.
            self.line(f"{var} = {self.snapshot_code(ex)}")
            kind = ex.kind if ex.kind != _CONST else _VEC
            frame.local_kinds[name] = _Ex(var, kind, sigmask=ex.sigmask)
            return
        vec = self.as_vec(ex)
        if previous is None:
            # Scalar semantics: lanes outside the mask never read this
            # local afterwards (they would hit UnboundLocalError), so any
            # lane value is acceptable there.
            self.line(f"{var} = _np.where({mask}, {vec}, "
                      f"{self.em.lane_const(0)})")
        elif previous.kind == _CONST:
            self.line(f"{var} = _np.where({mask}, {vec}, "
                      f"{self.as_vec(previous)})")
        else:
            self.line(f"{var} = _np.where({mask}, {vec}, {var})")
        prev_mask = previous.sigmask if previous is not None else 0
        merged = None
        if ex.sigmask is not None and prev_mask is not None:
            merged = max(ex.sigmask, prev_mask)
        frame.local_kinds[name] = _Ex(var, _VEC, sigmask=merged)

    def write_signal(self, sig: Signal, value_node: ast.expr,
                     mask: Optional[str]) -> None:
        self.frame.impure = True
        slot = self.em.slot_of(sig, self)
        ex = self.expr(value_node)
        em = self.eff(mask)
        if ex.kind == _CONST:
            code = self.em.lane_const(int(ex.const) & sig._mask)
        elif ex.sigmask is not None and ex.sigmask <= sig._mask:
            code = ex.code
        else:
            code = f"({ex.code} & {self.em.lane_const(sig._mask)})"
        if self.mode == "seq":
            nrow = self.em.nrow(slot)
            if em is None:
                self.line(f"{nrow}[...] = {code}")
            else:
                # In-place masked store: one call instead of a full
                # where-select plus a slice assignment.  Branch masks are
                # always numpy bool rows of the lane width, as ``putmask``
                # requires; a scalar value is repeated.
                self.line(f"_np.putmask({nrow}, {em}, {code})")
            return
        # Combinational writes keep only the value row hot; the next rows
        # are resynchronized wholesale by one copyto at the end of settle
        # (unless some comb process *reads* ``.next``, which forces the
        # classic per-write mirroring).
        mirror = self.em.mirror_next
        vrow = self.em.vrow(slot)
        nrow = self.em.nrow(slot) if mirror else None
        if self.guarded:
            t = self.temp()
            if em is None:
                self.line(f"{t} = {code}")
            else:
                self.line(f"{t} = _np.where({em}, {code}, {vrow})")
            self.line(f"if ({vrow} != {t}).any():")
            self.line(f"    {vrow}[...] = {t}")
            if mirror:
                self.line(f"    {nrow}[...] = {t}")
            self.line("    _chg = True")
            return
        if em is None:
            if mirror:
                self.line(f"{vrow}[...] = {nrow}[...] = {code}")
            else:
                self.line(f"{vrow}[...] = {code}")
        elif mirror:
            t = self.temp()
            self.line(f"{t} = _np.where({em}, {code}, {vrow})")
            self.line(f"{vrow}[...] = {nrow}[...] = {t}")
        else:
            self.line(f"_np.putmask({vrow}, {em}, {code})")

    def write_memory(self, mem: Memory, index_node: ast.expr,
                     value_node: ast.expr, mask: Optional[str]) -> None:
        if isinstance(index_node, ast.Slice):
            raise self.fail("memory slice store")
        self.frame.impure = True
        name = self.em.mem_of(mem, self)
        idx = self.expr(index_node)
        ex = self.expr(value_node)
        em = self.eff(mask)
        if ex.kind == _CONST:
            code = self.em.lane_const(int(ex.const) & mem._mask)
        elif ex.sigmask is not None and ex.sigmask <= mem._mask:
            code = ex.code
        else:
            code = f"({ex.code} & {self.em.lane_const(mem._mask)})"
        if idx.kind == _CONST:
            cell = f"{name}[{int(idx.const) % mem.depth}]"
            if em is None:
                self.line(f"{cell} = {code}")
            else:
                self.line(f"{cell} = _np.where({em}, {code}, {cell})")
            return
        index = self.mem_index(idx, mem.depth)
        if em is not None:
            # Masked-off lanes store into the spare row every batched
            # memory has past its end: one select on the index instead of
            # a gather plus a select on the data.
            index = f"_np.where({em}, {index}, " \
                    f"{self.em.lane_const(mem.depth)})"
        self.line(f"{name}[{index}, _LANES] = {code}")

    def write_attr(self, target: ast.Attribute, value_node: ast.expr,
                   mask: Optional[str]) -> None:
        owner = self.frame.res.resolve(target.value)
        if owner is _FAIL or isinstance(owner, AnyOf):
            raise self.fail(f"cannot resolve attribute owner for "
                            f"{target.attr!r}")
        row = self.em.attr_row(owner, target.attr, self, register=True)
        self.frame.impure = True
        em = self.eff(mask)
        step = self.unit_step(value_node, owner, target.attr)
        if step is not None and em is not None:
            # ``self.n += 1`` under a branch: adding the bool lane mask is
            # one in-place ufunc instead of an add plus a masked store.
            self.line(f"{row} {step}= {em}")
            return
        code = self.as_vec(self.expr(value_node))
        if em is None:
            self.line(f"{row}[...] = {code}")
        else:
            self.line(f"_np.putmask({row}, {em}, {code})")

    def unit_step(self, value_node: ast.expr, owner: Any,
                  attr: str) -> Optional[str]:
        """``"+"``/``"-"`` when ``value_node`` is ``owner.attr +/- 1``."""
        if not isinstance(value_node, ast.BinOp) \
                or not isinstance(value_node.op, (ast.Add, ast.Sub)):
            return None
        left, right = value_node.left, value_node.right
        if not isinstance(left, ast.Attribute) or left.attr != attr \
                or not isinstance(right, ast.Constant) \
                or type(right.value) is not int or right.value != 1 \
                or self.frame.res.resolve(left.value) is not owner:
            return None
        return "+" if isinstance(value_node.op, ast.Add) else "-"

    # -- expression statements (calls, anchors) --------------------------------

    def emit_expr_stmt(self, node: ast.expr, mask: Optional[str]) -> None:
        if isinstance(node, ast.Constant):
            return  # docstring
        if isinstance(node, (ast.Name, ast.Attribute)):
            return  # bare read: a sensitivity anchor; batched settles run all
        if isinstance(node, ast.Call):
            func_node = node.func
            if isinstance(func_node, ast.Attribute) \
                    and func_node.attr == "append" and len(node.args) == 1 \
                    and not node.keywords:
                base = self.frame.res.resolve(func_node.value)
                if isinstance(base, list):
                    self.emit_append(base, node.args[0], mask)
                    return
            self.inline_call(node, mask, want_value=False)
            return
        raise self.fail(f"unsupported expression statement "
                        f"{type(node).__name__}")

    def emit_append(self, target: list, value_node: ast.expr,
                    mask: Optional[str]) -> None:
        name = self.em.append_list(target, self)
        self.frame.impure = True
        ex = self.expr(value_node)
        em = self.eff(mask)
        # Lane indices and values cross into Python as plain ints in one
        # ``tolist()`` each, rather than one numpy scalar per lane.
        loop = "for _j in range(_NL):" if em is None else \
            f"for _j in _np.flatnonzero({em}).tolist():"
        if ex.kind == _CONST:
            self.line(loop)
            self.line(f"    {name}[_j].append({repr(int(ex.const))})")
            return
        t = self.temp()
        self.line(f"{t} = _np.asarray({self.as_vec(ex)}, "
                  f"dtype=_np.int64).tolist()")
        self.line(loop)
        self.line(f"    {name}[_j].append({t}[_j])")

    # -- expressions -----------------------------------------------------------

    #: Expressions that are live views into batch storage rather than fresh
    #: arrays: a bare row/local name, or a constant-index memory row.
    _VIEW_RE = re.compile(r"_\w+(\[\d+\])?")
    _VROW_RE = re.compile(r"_v(\d+)")

    def snapshot_code(self, ex: _Ex) -> str:
        """The expression's code, copied if it would alias live storage.

        Value-row bindings skip the copy when the row provably stays
        untouched for the local's lifetime (one contiguous process block):
        vectorized sequential processes never write value rows, and a comb
        process only writes its own write set.  Everything else — next
        rows, attribute rows, memory rows, other locals — still snapshots.
        """
        if ex.kind == _CONST or not self._VIEW_RE.fullmatch(ex.code):
            return ex.code
        m = self._VROW_RE.fullmatch(ex.code)
        if m is not None:
            if self.mode == "seq":
                return ex.code
            if self.write_slots is not None \
                    and int(m.group(1)) not in self.write_slots:
                return ex.code
        return f"{ex.code}.copy()"

    def as_vec(self, ex: _Ex) -> str:
        if ex.kind == _CONST:
            return self.em.lane_const(int(ex.const))
        return ex.code

    def mem_index(self, idx: _Ex, depth: int) -> str:
        """A dynamic memory index wrapped to ``depth``, cheapest form first."""
        vec = self.as_vec(idx)
        if idx.sigmask is not None and idx.sigmask < depth:
            return vec
        pmask = _pow2_mask(depth)
        if pmask is not None:
            return f"({vec} & {self.em.lane_const(pmask)})"
        return f"(({vec}) % {self.em.lane_const(depth)})"

    def as_bool(self, ex: _Ex) -> str:
        if ex.kind == _CONST:
            return repr(bool(ex.const))
        if ex.kind == _BOOL:
            return ex.code
        return f"({ex.code} != {self.em.lane_const(0)})"

    def as_not(self, ex: _Ex) -> str:
        """Code for ``not ex`` on a non-constant expression."""
        if ex.kind == _BOOL:
            return ex.negated or f"(~{ex.code})"
        # One comparison instead of a boolification plus an invert:
        # ``x == 0`` is exactly ``not bool(x)`` for integer rows.
        return f"({ex.code} == {self.em.lane_const(0)})"

    def expr(self, node: ast.expr, truth: bool = False) -> _Ex:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (bool, int)) or node.value is None:
                return _const_ex(node.value)
            if isinstance(node.value, str):
                return _Ex(repr(node.value), _CONST, const=node.value)
            raise self.fail(f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            return self.expr_name(node, truth)
        if isinstance(node, ast.Attribute):
            return self.expr_attribute(node, truth)
        if isinstance(node, ast.Subscript):
            return self.expr_subscript(node)
        if isinstance(node, ast.Call):
            return self.expr_call(node, truth)
        if isinstance(node, ast.BoolOp):
            return self.expr_boolop(node, truth)
        if isinstance(node, ast.UnaryOp):
            return self.expr_unary(node, truth)
        if isinstance(node, ast.BinOp):
            return self.expr_binop(node)
        if isinstance(node, ast.Compare):
            return self.expr_compare(node)
        if isinstance(node, ast.IfExp):
            return self.expr_ifexp(node, truth)
        if isinstance(node, ast.Tuple):
            raise self.fail("tuple expression")
        raise self.fail(f"unsupported expression {type(node).__name__}")

    def expr_name(self, node: ast.Name, truth: bool) -> _Ex:
        frame = self.frame
        if node.id in frame.local_kinds:
            return frame.local_kinds[node.id]
        resolved = frame.res.resolve(node)
        return self.resolved_value(node, resolved, truth)

    def expr_attribute(self, node: ast.Attribute, truth: bool) -> _Ex:
        frame = self.frame
        if node.attr in ("value", "next"):
            base = frame.res.resolve(node.value)
            if isinstance(base, Signal):
                slot = self.em.slot_of(base, self)
                if node.attr == "next" and self.mode == "seq":
                    row = self.em.nrow(slot)
                elif node.attr == "next":
                    row = self.em.nrow(slot)
                else:
                    row = self.em.vrow(slot)
                return _Ex(row, _VEC, sigmask=base._mask)
            if isinstance(base, AnyOf):
                raise self.fail("signal read through ambiguous alias")
        if node.attr == "bits":
            raise self.fail("Bits view read")
        owner = frame.res.resolve(node.value)
        if owner is not _FAIL and not isinstance(owner, AnyOf):
            key = (id(owner), node.attr)
            row = self.em.attr_row_if_registered(key)
            if row is not None:
                return _Ex(row, _VEC)
            if key in self.em.bad_attrs:
                raise self.fail(f"non-integer Python attribute "
                                f"{node.attr!r}")
        resolved = frame.res.resolve(node)
        return self.resolved_value(node, resolved, truth)

    def resolved_value(self, node: ast.expr, resolved: Any,
                       truth: bool) -> _Ex:
        if resolved is _FAIL or isinstance(resolved, AnyOf):
            label = getattr(node, "id", None) or getattr(node, "attr", "?")
            raise self.fail(f"cannot resolve {label!r}")
        if isinstance(resolved, (bool, int)) or resolved is None:
            return _const_ex(resolved)
        if isinstance(resolved, str):
            return _Ex(repr(resolved), _CONST, const=resolved)
        if isinstance(resolved, Signal):
            if truth:
                row = self.em.vrow(self.em.slot_of(resolved, self))
                zero = self.em.lane_const(0)
                return _Ex(f"({row} != {zero})", _BOOL, sigmask=1,
                           negated=f"({row} == {zero})")
            raise self.fail("bare signal used as a value")
        raise self.fail(f"unsupported compile-time value "
                        f"{type(resolved).__name__}")

    def expr_subscript(self, node: ast.Subscript) -> _Ex:
        if isinstance(node.slice, ast.Slice):
            raise self.fail("slice read")
        base = self.frame.res.resolve(node.value)
        if isinstance(base, Memory):
            name = self.em.mem_of(base, self)
            idx = self.expr(node.slice)
            if idx.kind == _CONST:
                return _Ex(f"{name}[{int(idx.const) % base.depth}]", _VEC,
                           sigmask=base._mask)
            return _Ex(f"{name}[{self.mem_index(idx, base.depth)}, _LANES]",
                       _VEC, sigmask=base._mask)
        if isinstance(base, (list, tuple)):
            idx = self.expr(node.slice)
            if idx.kind == _CONST:
                if _Resolver.trace is not None:
                    _Resolver.trace.record_container(base)
                try:
                    element = base[int(idx.const)]
                except (IndexError, TypeError):
                    raise self.fail("constant subscript out of range")
                if isinstance(element, (bool, int)):
                    return _const_ex(element)
                raise self.fail("constant subscript of non-integer element")
            if isinstance(base, tuple):
                raise self.fail("dynamic subscript of a tuple")
            mat, length = self.em.gather_list(base, self)
            # np.clip dispatches through getlimits and costs microseconds
            # per call on lane-sized arrays; min/max ufuncs do the same
            # clamp directly (the lower clamp is dead for masked indices).
            vec = self.as_vec(idx)
            if idx.sigmask is None:
                vec = f"_np.maximum({vec}, {self.em.lane_const(0)})"
            return _Ex(f"{mat}[0][_LANES, _np.minimum({vec}, "
                       f"{length} - {self.em.lane_const(1)})]", _VEC)
        raise self.fail("unsupported subscript base")

    def expr_call(self, node: ast.Call, truth: bool) -> _Ex:
        frame = self.frame
        func_node = node.func
        # fsm.is_in("NAME") -> state register comparison.
        if isinstance(func_node, ast.Attribute) and func_node.attr == "is_in" \
                and len(node.args) == 1 and not node.keywords:
            base = frame.res.resolve(func_node.value)
            state_name = frame.res.resolve(node.args[0])
            if base is not _FAIL and not isinstance(base, AnyOf) \
                    and _is_fsm_like(base) and isinstance(state_name, str):
                try:
                    code = base.encode(state_name)
                except Exception:
                    if _Resolver.trace is not None:
                        # The failed encode demoted this path; a sibling
                        # lane's encoder must fail it identically.
                        _Resolver.trace.record_call(
                            base, "encode", (state_name,), CALL_RAISED)
                    raise self.fail(f"unknown FSM state {state_name!r}")
                if _Resolver.trace is not None:
                    # encode() executed at compile time and its result is
                    # about to become a source constant.
                    _Resolver.trace.record_call(
                        base, "encode", (state_name,), code)
                slot = self.em.slot_of(base.state, self)
                return _Ex(f"({self.em.vrow(slot)} == "
                           f"{self.em.lane_const(code)})", _BOOL,
                           sigmask=1)
        func = frame.res.resolve(func_node)
        if func is len and len(node.args) == 1 and not node.keywords:
            target = frame.res.resolve(node.args[0])
            if isinstance(target, (tuple, str)):
                if _Resolver.trace is not None:
                    _Resolver.trace.record_container(target)
                return _const_ex(len(target))
            if isinstance(target, list):
                _mat, length = self.em.gather_list(target, self)
                return _Ex(length, _VEC)
            raise self.fail("len() of an unresolvable object")
        if func in (int, bool) and len(node.args) == 1 and not node.keywords:
            inner = self.expr(node.args[0], truth=True)
            if inner.kind == _CONST:
                return _const_ex(func(inner.const))
            if func is bool:
                return _Ex(self.as_bool(inner), _BOOL, sigmask=1)
            return inner
        if func in (min, max) and len(node.args) >= 2 and not node.keywords:
            parts = [self.expr(arg) for arg in node.args]
            if all(p.kind == _CONST for p in parts):
                return _const_ex(func(p.const for p in parts))
            np_func = "_np.minimum" if func is min else "_np.maximum"
            code = self.as_vec(parts[0])
            for part in parts[1:]:
                code = f"{np_func}({code}, {self.as_vec(part)})"
            masks = [p.sigmask for p in parts]
            bound = None
            if all(m is not None for m in masks):
                bound = min(masks) if func is min else max(masks)
            return _Ex(code, _VEC, sigmask=bound)
        if func is abs and len(node.args) == 1 and not node.keywords:
            inner = self.expr(node.args[0])
            if inner.kind == _CONST:
                return _const_ex(abs(inner.const))
            return _Ex(f"_np.abs({inner.code})", _VEC, sigmask=inner.sigmask)
        return self.inline_call(node, mask=None, want_value=True,
                                truth=truth)

    def expr_boolop(self, node: ast.BoolOp, truth: bool) -> _Ex:
        is_and = isinstance(node.op, ast.And)
        parts: List[_Ex] = []
        for i, value in enumerate(node.values):
            last = i == len(node.values) - 1
            ex = self.expr(value, truth=truth)
            if ex.kind == _CONST:
                decisive = (not bool(ex.const)) if is_and else bool(ex.const)
                if decisive:
                    # Lanes reaching this operand stop here; later operands
                    # are dead.  In truth context (or with nothing emitted
                    # before it) the whole expression folds to it.
                    if truth or not parts:
                        return ex
                    parts.append(ex)
                    break
                # Neutral constant: execution always moves past it, and for
                # value semantics the result can only be it when it is last.
                if not truth and last:
                    parts.append(ex)
                continue
            parts.append(ex)
        if not parts:
            # All operands were neutral constants: result is the last value.
            return self.expr(node.values[-1], truth=truth)
        if truth:
            if len(parts) == 1:
                single = parts[0]
                return _Ex(self.as_bool(single), _BOOL, sigmask=1)
            return _Ex(self.truth_join(parts, is_and), _BOOL, sigmask=1)
        # Value semantics: `a and b` is b where a is truthy else a.  When
        # every operand is 0/1-valued the select chain degenerates to the
        # bitwise join (``a and b == a & b`` over {0, 1}), which costs one
        # ufunc per operand instead of a where-select per operand.
        if len(parts) > 1 and all(
                p.kind == _BOOL
                or (p.sigmask is not None and p.sigmask <= 1)
                for p in parts):
            return _Ex(self.truth_join(parts, is_and), _BOOL, sigmask=1)
        result = parts[-1]
        for prev in reversed(parts[:-1]):
            cond = self.as_bool(prev)
            if is_and:
                code = f"_np.where({cond}, {self.as_vec(result)}, " \
                       f"{self.as_vec(prev)})"
            else:
                code = f"_np.where({cond}, {self.as_vec(prev)}, " \
                       f"{self.as_vec(result)})"
            bound = None
            if prev.sigmask is not None and result.sigmask is not None:
                bound = max(prev.sigmask, result.sigmask)
            result = _Ex(code, _VEC, sigmask=bound)
        return result

    def truth_join(self, parts: List[_Ex], is_and: bool) -> str:
        """Code for the truth of ``p1 and p2 ...`` (``or``) over >= 2 parts.

        Integer rows are paired into ``_np.logical_and``/``logical_or``,
        which boolify both operands in the one ufunc that joins them
        (three times cheaper than two ``!= 0`` plus an ``&``); bool rows
        join with ``&``/``|``.  Every operand is evaluated either way, so
        the grouping changes no result.
        """
        func = "_np.logical_and" if is_and else "_np.logical_or"
        vecs = [p.code for p in parts if p.kind != _BOOL]
        terms = [p.code for p in parts if p.kind == _BOOL]
        paired = [f"{func}({a}, {b})" for a, b in zip(vecs[::2], vecs[1::2])]
        if len(vecs) % 2:
            if terms:
                paired.append(f"{func}({vecs[-1]}, {terms.pop(0)})")
            else:
                paired.append(self.as_bool(_Ex(vecs[-1], _VEC)))
        op = " & " if is_and else " | "
        return f"({op.join(paired + terms)})"

    def expr_unary(self, node: ast.UnaryOp, truth: bool) -> _Ex:
        if isinstance(node.op, ast.Not):
            inner = self.expr(node.operand, truth=True)
            if inner.kind == _CONST:
                return _const_ex(not inner.const)
            return _Ex(self.as_not(inner), _BOOL, sigmask=1,
                       negated=self.as_bool(inner))
        inner = self.expr(node.operand)
        if isinstance(node.op, ast.UAdd):
            return inner
        if inner.kind == _CONST:
            value = -inner.const if isinstance(node.op, ast.USub) \
                else ~inner.const
            return _const_ex(value)
        op = "-" if isinstance(node.op, ast.USub) else "~"
        return _Ex(f"({op}{self.as_vec(inner)})", _VEC)

    def expr_binop(self, node: ast.BinOp) -> _Ex:
        entry = _BIN_OPS.get(type(node.op))
        if entry is None:
            raise self.fail(f"operator {type(node.op).__name__}")
        symbol, fold = entry
        left = self.expr(node.left)
        right = self.expr(node.right)
        if left.kind == _CONST and right.kind == _CONST:
            try:
                return _const_ex(fold(left.const, right.const))
            except Exception as exc:
                raise self.fail(f"constant fold failed: {exc}")
        if isinstance(node.op, ast.Mod) and right.kind == _CONST:
            pmask = _pow2_mask(right.const)
            if pmask is not None:
                return _Ex(f"({self.as_vec(left)} & "
                           f"{self.em.lane_const(pmask)})", _VEC,
                           sigmask=pmask)
        code = f"({self.as_vec(left)} {symbol} {self.as_vec(right)})"
        bound = None
        if isinstance(node.op, ast.BitAnd):
            for side in (left, right):
                if side.kind == _CONST and side.const >= 0:
                    bound = side.const if bound is None \
                        else min(bound, side.const)
                elif side.sigmask is not None:
                    bound = side.sigmask if bound is None \
                        else min(bound, side.sigmask)
        elif isinstance(node.op, (ast.BitOr, ast.BitXor)):
            if left.sigmask is not None and right.sigmask is not None:
                bound = left.sigmask | right.sigmask
        elif isinstance(node.op, ast.Mod):
            if right.kind == _CONST and right.const > 0:
                bound = right.const - 1
        return _Ex(code, _VEC, sigmask=bound)

    def expr_compare(self, node: ast.Compare) -> _Ex:
        operands = [node.left] + list(node.comparators)
        pieces: List[str] = []
        folded: Optional[bool] = True
        exprs = []
        for op, left_node, right_node in zip(node.ops, operands,
                                             operands[1:]):
            if isinstance(op, (ast.Is, ast.IsNot)):
                left = self.frame.res.resolve(left_node)
                right = self.frame.res.resolve(right_node)
                if left is _FAIL or right is _FAIL \
                        or isinstance(left, AnyOf) \
                        or isinstance(right, AnyOf):
                    raise self.fail("'is' on runtime values")
                value = (left is right) if isinstance(op, ast.Is) \
                    else (left is not right)
                exprs.append(_const_ex(value))
                continue
            if isinstance(op, (ast.In, ast.NotIn)):
                container = self.frame.res.resolve(right_node)
                if _Resolver.trace is not None:
                    _Resolver.trace.record_container(container)
                if not isinstance(container, (tuple, list)) or not all(
                        isinstance(x, int) for x in container):
                    raise self.fail("'in' on a runtime container")
                item = self.expr(left_node)
                if item.kind == _CONST:
                    hit = item.const in container
                    exprs.append(_const_ex(
                        hit if isinstance(op, ast.In) else not hit))
                    continue
                vec = self.as_vec(item)
                alts = " | ".join(f"({vec} == {self.em.lane_const(int(x))})"
                                  for x in container) or "False"
                code = f"({alts})" if isinstance(op, ast.In) \
                    else f"(~({alts}))"
                exprs.append(_Ex(code, _BOOL, sigmask=1))
                continue
            entry = _CMP_OPS.get(type(op))
            if entry is None:
                raise self.fail(f"comparison {type(op).__name__}")
            symbol, fold = entry
            left = self.expr(left_node)
            right = self.expr(right_node)
            if left.kind == _CONST and right.kind == _CONST:
                exprs.append(_const_ex(fold(left.const, right.const)))
                continue
            exprs.append(_Ex(
                f"({self.as_vec(left)} {symbol} {self.as_vec(right)})",
                _BOOL, sigmask=1))
        for ex in exprs:
            if ex.kind == _CONST:
                if not ex.const:
                    folded = False
                continue
            folded = None
            pieces.append(self.as_bool(ex))
        if folded is not None:
            return _const_ex(folded)
        if len(pieces) == 1:
            return _Ex(pieces[0], _BOOL, sigmask=1)
        return _Ex(f"({' & '.join(pieces)})", _BOOL, sigmask=1)

    def expr_ifexp(self, node: ast.IfExp, truth: bool) -> _Ex:
        test = self.expr(node.test, truth=True)
        if test.kind == _CONST:
            return self.expr(node.body if test.const else node.orelse,
                             truth=truth)
        body = self.expr(node.body, truth=truth)
        orelse = self.expr(node.orelse, truth=truth)
        cond = self.as_bool(test)
        if body.kind == _CONST and orelse.kind == _CONST:
            if body.const == 1 and orelse.const == 0:
                return _Ex(cond, _BOOL, sigmask=1,
                           negated=self.as_not(test))
            if body.const == 0 and orelse.const == 1:
                return _Ex(self.as_not(test), _BOOL, sigmask=1,
                           negated=cond)
        code = f"_np.where({cond}, {self.as_vec(body)}, " \
               f"{self.as_vec(orelse)})"
        bound = None
        if body.sigmask is not None and orelse.sigmask is not None:
            bound = max(body.sigmask, orelse.sigmask)
        return _Ex(code, _VEC, sigmask=bound)

    # -- helper inlining -------------------------------------------------------

    def inline_call(self, node: ast.Call, mask: Optional[str],
                    want_value: bool, truth: bool = False) -> _Ex:
        if len(self.frames) > _MAX_INLINE_DEPTH:
            raise self.fail("helper inline depth limit")
        if node.keywords and any(kw.arg is None for kw in node.keywords):
            raise self.fail("**kwargs call")
        func, bound_self = self.resolve_call_target(node)
        inner = getattr(func, "__func__", func)
        if isinstance(inner, (classmethod, staticmethod)):
            inner = inner.__func__
        if not inspect.isfunction(inner):
            raise self.fail(f"cannot inline call target {inner!r}")
        parsed = _parse_proc(inner)
        if parsed is None:
            raise self.fail(f"no source for helper "
                            f"{getattr(inner, '__name__', inner)}")
        if parsed.args.vararg or parsed.args.kwarg or parsed.args.kwonlyargs:
            raise self.fail("helper with *args/**kwargs/kw-only args")

        res = _Resolver(inner)
        params = [a.arg for a in parsed.args.args]
        actual_self = getattr(func, "__self__", bound_self)
        offset = 0
        pfx = self.em.prefix()
        kinds: Dict[str, _Ex] = {}
        if params and actual_self is not None:
            res.locals[params[0]] = actual_self
            offset = 1
        positional = params[offset:]
        bindings: Dict[str, Optional[ast.expr]] = {p: None
                                                   for p in positional}
        for name, arg in zip(positional, node.args):
            bindings[name] = arg
        if len(node.args) > len(positional):
            raise self.fail("too many helper arguments")
        for kw in node.keywords:
            if kw.arg not in bindings or bindings[kw.arg] is not None:
                raise self.fail(f"bad helper keyword {kw.arg!r}")
            bindings[kw.arg] = kw.value
        defaults = inner.__defaults__ or ()
        default_map = dict(zip(positional[len(positional) - len(defaults):],
                               defaults))
        for name in positional:
            arg_node = bindings[name]
            if arg_node is None:
                if name not in default_map:
                    raise self.fail(f"missing helper argument {name!r}")
                value = default_map[name]
                if not (isinstance(value, (bool, int)) or value is None):
                    raise self.fail(f"non-literal default for {name!r}")
                res.locals[name] = value
                kinds[name] = _const_ex(value)
                continue
            ex = self.expr(arg_node)
            if ex.kind == _CONST:
                res.locals[name] = ex.const
                kinds[name] = ex
                continue
            var = f"_L{pfx}_{name}"
            self.line(f"{var} = {self.snapshot_code(ex)}")
            res.locals[name] = _FAIL
            kinds[name] = _Ex(var, ex.kind, sigmask=ex.sigmask)

        ret_var = self.temp() if want_value else None
        frame = _Frame(res=res, prefix=pfx, local_kinds=kinds,
                       ret_var=ret_var)
        self.frames.append(frame)
        try:
            self.emit_body(parsed.body, mask)
        finally:
            self.frames.pop()
        if want_value and frame.impure:
            # A value-returning helper evaluated inside an expression runs
            # unconditionally in vector form; that is only sound when it
            # has no side effects.
            raise self.fail("side-effecting helper used as a value")
        if frame.impure:
            self.frame.impure = True
        if not want_value:
            return _const_ex(None)
        return self.finalize_ret(frame)

    def resolve_call_target(self, node: ast.Call) -> Tuple[Any, Any]:
        res = self.frame.res
        func = res.resolve(node.func)
        bound_self = None
        if func is _FAIL and isinstance(node.func, ast.Attribute):
            base = res.resolve(node.func.value)
            if base is not _FAIL and not isinstance(base, AnyOf) \
                    and not inspect.isclass(base):
                method = inspect.getattr_static(type(base), node.func.attr,
                                                _FAIL)
                if callable(method) and method is not _FAIL:
                    return method, base
        elif isinstance(node.func, ast.Attribute) and callable(func) \
                and not isinstance(func, type):
            base = res.resolve(node.func.value)
            if base is not _FAIL and not isinstance(base, AnyOf) \
                    and not inspect.ismodule(base) \
                    and not inspect.isclass(base):
                bound_self = base
        if func is _FAIL or not callable(func):
            raise self.fail("cannot resolve call target")
        return func, bound_self


# -- whole-design emitter -----------------------------------------------------------


class _BatchEmitter:
    """Emit the batched settle/cycle module for one design instance."""

    def __init__(self, top, max_settle: int,
                 mutations: Tuple[str, ...]) -> None:
        self.top = top
        self.max_settle = max_settle
        self.mutations = mutations
        self.signals: List[Signal] = top.all_signals()
        self.memories: List[Memory] = top.all_memories()
        self.comb_procs: List[Callable] = top.all_comb_procs()
        self.seq_procs: List[Callable] = top.all_seq_procs()
        self.sig_slot = {id(sig): i for i, sig in enumerate(self.signals)}
        self.mem_slot = {id(mem): k for k, mem in enumerate(self.memories)}
        self.bad_attrs: Set[Tuple[int, str]] = set()
        self._scan_python_state()
        self.mirror_next = self._scan_comb_next_reads()

    def _scan_comb_next_reads(self) -> bool:
        """True when some comb process *reads* ``.next``.

        The fast path writes only the value rows during settle and restores
        the ``value == next`` invariant with a single whole-matrix copyto at
        the end; that is invisible unless a combinational process observes
        another signal's ``.next`` mid-settle, in which case every write
        keeps the classic per-write mirroring.
        """
        for proc in self.comb_procs:
            tree = _parse_proc(proc)
            if tree is None:
                return True  # no source: mirror conservatively
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr == "next" \
                        and isinstance(node.ctx, ast.Load):
                    return True
                if isinstance(node, ast.AugAssign) \
                        and isinstance(node.target, ast.Attribute) \
                        and node.target.attr == "next":
                    return True
        return False

    def _write_slot_set(self, analysis) -> Optional[Set[int]]:
        """Slots a whole-proc unit writes, or None when that set is unknown.

        A known write set lets the vectorizer skip the defensive ``.copy()``
        when binding a value row the process never overwrites; None keeps
        every snapshot conservative (statement-split units share one frame
        across interleaved processes, so their write sets do not compose).
        """
        if analysis is None:
            return None
        slots: Set[int] = set()
        for sig in analysis.writes:
            slot = self.sig_slot.get(id(sig))
            if slot is None:
                return None
            slots.add(slot)
        return slots

    # -- registries (reset per emission attempt) -------------------------------

    def _reset(self) -> None:
        self._temp = 0
        self._pfx = 0
        self.used_v: Set[int] = set()
        self.used_n: Set[int] = set()
        self.used_mem: Set[int] = set()
        self.attr_rows: Dict[Tuple[int, str], int] = {}
        self.attr_slots: List[Tuple[Any, str]] = []
        self.gathers: Dict[int, int] = {}
        self.gather_lists: List[list] = []
        self.appends: Dict[int, int] = {}
        self.append_lists: List[list] = []
        self.comb_calls: List[LaneCallPlan] = []
        self.seq_calls: List[LaneCallPlan] = []
        self.fallback_reasons: List[str] = []
        self.lane_consts: Set[int] = set()
        self._mask_mutated = False
        self._n_vec_comb = 0
        self._n_vec_seq = 0

    def temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def prefix(self) -> str:
        self._pfx += 1
        return str(self._pfx)

    def vrow(self, slot: int) -> str:
        self.used_v.add(slot)
        return f"_v{slot}"

    def lane_const(self, value: Any) -> str:
        """``value`` as a lane-width constant row name (``_k32``, ``_km1``).

        The rows are bound once as kernel defaults and never written: every
        use is an operand of a ufunc, a select or a copy into storage.
        Anything but an int64-range ``int`` stays a literal.
        """
        if type(value) is not int \
                or not _LANE_CONST_MIN <= value <= _LANE_CONST_MAX:
            return repr(value)
        self.lane_consts.add(value)
        return f"_k{value}" if value >= 0 else f"_km{-value}"

    def nrow(self, slot: int) -> str:
        self.used_n.add(slot)
        return f"_n{slot}"

    def slot_of(self, sig: Signal, vec: _Vectorizer) -> int:
        slot = self.sig_slot.get(id(sig))
        if slot is None:
            raise vec.fail(f"signal {sig.name!r} outside the design")
        return slot

    def mem_of(self, mem: Memory, vec: _Vectorizer) -> str:
        slot = self.mem_slot.get(id(mem))
        if slot is None:
            raise vec.fail("memory outside the design")
        self.used_mem.add(slot)
        return f"_mm{slot}"

    def attr_row(self, owner: Any, attr: str, vec: _Vectorizer,
                 register: bool) -> str:
        key = (id(owner), attr)
        index = self.attr_rows.get(key)
        if index is None:
            if key not in self._attr_candidates:
                raise vec.fail(f"Python attribute {attr!r} not promotable")
            index = len(self.attr_slots)
            self.attr_rows[key] = index
            self.attr_slots.append((owner, attr))
        return f"_pa{index}"

    def attr_row_if_registered(self, key: Tuple[int, str]) -> Optional[str]:
        index = self.attr_rows.get(key)
        if index is not None:
            return f"_pa{index}"
        if key in self._attr_candidates:
            # Reads must see later vectorized writes: promote on first read.
            owner, attr = self._attr_candidates[key]
            index = len(self.attr_slots)
            self.attr_rows[key] = index
            self.attr_slots.append((owner, attr))
            return f"_pa{index}"
        return None

    def gather_list(self, target: list, vec: _Vectorizer) -> Tuple[str, str]:
        if id(target) in self._pass1_appends:
            raise vec.fail("list is both gathered and appended")
        index = self.gathers.get(id(target))
        if index is None:
            if not all(isinstance(x, int) for x in target):
                raise vec.fail("gathered list holds non-integers")
            index = len(self.gather_lists)
            self.gathers[id(target)] = index
            self.gather_lists.append(target)
        return f"_pl{index}", f"_plen{index}"

    def append_list(self, target: list, vec: _Vectorizer) -> str:
        if id(target) in self._pass1_reads:
            raise vec.fail("list is both gathered and appended")
        index = self.appends.get(id(target))
        if index is None:
            index = len(self.append_lists)
            self.appends[id(target)] = index
            self.append_lists.append(target)
        return f"_ls{index}"

    def maybe_mutate_mask(self, vec: _Vectorizer, mvar: str) -> None:
        """``batched.cross_lane_mask_reuse``: corrupt the first sequential
        lane mask with its lane-reversed self, so lanes take branches that
        belong to other lanes' state."""
        if MUTATION_MASK_REUSE in self.mutations and vec.mode == "seq" \
                and not self._mask_mutated:
            vec.line(f"{mvar} = {mvar} | {mvar}[::-1]")
            self._mask_mutated = True

    # -- pass 1: find Python-side state processes touch ------------------------

    def _scan_python_state(self) -> None:
        self._attr_candidates: Dict[Tuple[int, str], Tuple[Any, str]] = {}
        self._pass1_reads: Set[int] = set()
        self._pass1_appends: Set[int] = set()
        for proc in list(self.comb_procs) + list(self.seq_procs):
            tree = _parse_proc(proc)
            if tree is None:
                continue
            res = _Resolver(proc)
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) \
                                and target.attr != "next":
                            self._scan_attr_store(res, target)
                elif isinstance(node, ast.Subscript):
                    base = res.resolve(node.value)
                    if isinstance(base, list):
                        self._pass1_reads.add(id(base))
                elif isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute) \
                            and func.attr == "append":
                        base = res.resolve(func.value)
                        if isinstance(base, list):
                            self._pass1_appends.add(id(base))
                    elif isinstance(func, ast.Name) and func.id == "len" \
                            and node.args:
                        base = res.resolve(node.args[0])
                        if isinstance(base, list):
                            self._pass1_reads.add(id(base))

    def _scan_attr_store(self, res: _Resolver,
                         target: ast.Attribute) -> None:
        owner = res.resolve(target.value)
        if owner is _FAIL or isinstance(owner, AnyOf):
            return
        key = (id(owner), target.attr)
        try:
            initial = inspect.getattr_static(owner, target.attr)
        except (AttributeError, TypeError):
            initial = _FAIL
        if isinstance(initial, int):  # bool is int
            self._attr_candidates[key] = (owner, target.attr)
        else:
            self.bad_attrs.add(key)

    # -- emission --------------------------------------------------------------

    def emit(self) -> BatchedProgram:
        analyses = [analyze_proc(proc) for proc in self.comb_procs]
        forced: Set[int] = set()
        for _attempt in range(len(self.comb_procs) + 2):
            try:
                return self._emit_once(analyses, forced)
            except _Demote as demote:
                forced.add(demote.proc_index)
                self.fallback_reasons_seed = demote.reason
        raise VectorizeError("batched emitter failed to converge")

    def _emit_once(self, analyses: List[ProcAnalysis],
                   forced: Set[int]) -> BatchedProgram:
        self._reset()
        effective = [replace(a, units=None)
                     if i in forced and a.units is not None else a
                     for i, a in enumerate(analyses)]
        schedule = build_schedule(effective)
        settle_body: List[str] = []
        frames: Dict[int, _Frame] = {}
        self._emit_settle(schedule, effective, forced, frames, settle_body)
        cycle_body: List[str] = []
        self._emit_cycle(cycle_body)
        source = self._assemble(settle_body, cycle_body)
        report = self._report(schedule)
        comb_index = {id(proc): i for i, proc in enumerate(self.comb_procs)}
        for plan in self.comb_calls:
            plan.proc_index = comb_index[id(plan.proc)]
        seq_index = {id(proc): i for i, proc in enumerate(self.seq_procs)}
        for plan in self.seq_calls:
            plan.proc_index = seq_index[id(plan.proc)]
        return BatchedProgram(
            source=source, report=report, signals=self.signals,
            memories=self.memories, max_settle=self.max_settle,
            attr_slots=list(self.attr_slots),
            gather_lists=list(self.gather_lists),
            append_lists=list(self.append_lists),
            comb_calls=list(self.comb_calls),
            seq_calls=list(self.seq_calls),
            comb_procs=list(self.comb_procs),
            seq_procs=list(self.seq_procs))

    def _emit_settle(self, schedule: Schedule,
                     analyses: List[ProcAnalysis], forced: Set[int],
                     frames: Dict[int, _Frame], out: List[str]) -> None:
        out.append("    if not sim._attached:")
        out.append("        sim._check_attached()")
        out.append("    if sim._in_dirty:")
        out.append("        sim._sync_in()")
        guarded = schedule.guarded
        if guarded:
            out.append(f"    for _round in range({self.max_settle}):")
            out.append("        _chg = False")
            self._emit_groups(schedule, forced, frames, out, "        ",
                              guarded=True)
            self._emit_opaque(schedule, out, "        ")
            out.append("        if not _chg:")
            out.append("            break")
            out.append("    else:")
            out.append("        sim._raise_comb_loop()")
            out.append("    _rounds = _round + 1")
        else:
            self._emit_groups(schedule, forced, frames, out, "    ",
                              guarded=False)
            out.append("    _rounds = 1")
        if not self.mirror_next:
            out.append("    _np.copyto(_VN, _V)")
        out.append("    sim._dirty = False")
        out.append("    return _rounds")

    def _emit_groups(self, schedule: Schedule, forced: Set[int],
                     frames: Dict[int, _Frame], out: List[str],
                     indent: str, guarded: bool) -> None:
        for group in schedule.groups:
            if group.cyclic and not guarded:
                out.append(f"{indent}for _round in "
                           f"range({self.max_settle}):")
                out.append(f"{indent}    _chg = False")
                for unit in group.units:
                    self._emit_unit(unit, forced, frames, out,
                                    indent + "    ", guarded=True)
                out.append(f"{indent}    if not _chg:")
                out.append(f"{indent}        break")
                out.append(f"{indent}else:")
                out.append(f"{indent}    sim._raise_comb_loop()")
            else:
                for unit in group.units:
                    self._emit_unit(unit, forced, frames, out, indent,
                                    guarded=guarded)

    def _emit_unit(self, unit: Unit, forced: Set[int],
                   frames: Dict[int, _Frame], out: List[str],
                   indent: str, guarded: bool) -> None:
        pi = unit.proc_index
        proc = self.comb_procs[pi]
        label = getattr(proc, "__qualname__", f"comb[{pi}]")
        if not unit.is_call:
            vec = _Vectorizer(self, proc, mode="comb", guarded=guarded)
            vec.indent = indent
            frame = frames.get(pi)
            if frame is None:
                frame = _Frame(res=_Resolver(proc), prefix=self.prefix())
                frames[pi] = frame
            mark_attr = len(self.attr_slots)
            try:
                vec.run_proc(frame, [unit.stmt.node])
            except VectorizeError as exc:
                del self.attr_slots[mark_attr:]
                raise _Demote(pi, str(exc))
            out.append(f"{indent}# comb {label}")
            out.extend(vec.out)
            self._n_vec_comb += 1
            return
        analysis = unit.analysis
        if pi not in forced:
            vec = _Vectorizer(self, proc, mode="comb", guarded=guarded,
                              write_slots=self._write_slot_set(analysis))
            vec.indent = indent
            parsed = _parse_proc(proc)
            saved = self._snapshot()
            if parsed is not None:
                frame = _Frame(res=_Resolver(proc), prefix=self.prefix())
                try:
                    vec.run_proc(frame, parsed.body)
                    out.append(f"{indent}# comb {label}")
                    out.extend(vec.out)
                    self._n_vec_comb += 1
                    return
                except VectorizeError as exc:
                    self._restore(saved)
                    self.fallback_reasons.append(str(exc))
            else:
                self.fallback_reasons.append(f"{label}: no source")
        plan = self._call_plan(proc, analysis, seq=False)
        index = len(self.comb_calls)
        self.comb_calls.append(plan)
        out.append(f"{indent}# comb {label} (per-lane fallback)")
        if guarded:
            out.append(f"{indent}if _lc{index}():")
            out.append(f"{indent}    _chg = True")
        else:
            out.append(f"{indent}_lc{index}()")

    def _emit_opaque(self, schedule: Schedule, out: List[str],
                     indent: str) -> None:
        for analysis in schedule.opaque:
            proc = analysis.proc
            label = getattr(proc, "__qualname__", "opaque")
            reason = "; ".join(analysis.opaque_reasons) or "opaque"
            plan = LaneCallPlan(proc=proc, sig_slots=None, mem_slots=None,
                                seq=False, opaque=True, reason=reason)
            index = len(self.comb_calls)
            self.comb_calls.append(plan)
            self.fallback_reasons.append(f"{label}: {reason}")
            out.append(f"{indent}# opaque {label} (full per-lane sync)")
            out.append(f"{indent}if _lc{index}():")
            out.append(f"{indent}    _chg = True")

    def _snapshot(self):
        return (self._temp, self._pfx, len(self.attr_slots),
                len(self.gather_lists), len(self.append_lists),
                set(self.used_v), set(self.used_n), set(self.used_mem))

    def _restore(self, saved) -> None:
        (self._temp, self._pfx, n_attr, n_gather, n_append,
         self.used_v, self.used_n, self.used_mem) = saved
        for owner_attr in self.attr_slots[n_attr:]:
            self.attr_rows.pop((id(owner_attr[0]), owner_attr[1]), None)
        del self.attr_slots[n_attr:]
        for target in self.gather_lists[n_gather:]:
            self.gathers.pop(id(target), None)
        del self.gather_lists[n_gather:]
        for target in self.append_lists[n_append:]:
            self.appends.pop(id(target), None)
        del self.append_lists[n_append:]

    def _call_plan(self, proc: Callable, analysis: ProcAnalysis,
                   seq: bool) -> LaneCallPlan:
        if analysis.opaque:
            return LaneCallPlan(proc=proc, sig_slots=None, mem_slots=None,
                                seq=seq, opaque=True,
                                reason="; ".join(analysis.opaque_reasons))
        sig_slots: Set[int] = set()
        for sig in list(analysis.reads) + list(analysis.writes):
            slot = self.sig_slot.get(id(sig))
            if slot is None:
                return LaneCallPlan(proc=proc, sig_slots=None,
                                    mem_slots=None, seq=seq, opaque=True,
                                    reason="touches a foreign signal")
            sig_slots.add(slot)
        mem_slots: Set[int] = set()
        for mem in list(analysis.mem_reads) + list(analysis.mem_writes):
            slot = self.mem_slot.get(id(mem))
            if slot is None:
                return LaneCallPlan(proc=proc, sig_slots=None,
                                    mem_slots=None, seq=seq, opaque=True,
                                    reason="touches a foreign memory")
            mem_slots.add(slot)
        return LaneCallPlan(proc=proc, sig_slots=sorted(sig_slots),
                            mem_slots=sorted(mem_slots), seq=seq,
                            opaque=False, reason="not vectorizable")

    def _emit_cycle(self, out: List[str]) -> None:
        out.append("    if not sim._attached:")
        out.append("        sim._check_attached()")
        out.append("    if sim._dirty or sim._in_dirty:")
        out.append("        _settle(sim)")
        for qi, proc in enumerate(self.seq_procs):
            label = getattr(proc, "__qualname__", f"seq[{qi}]")
            vec = _Vectorizer(self, proc, mode="seq", guarded=False)
            vec.indent = "    "
            parsed = _parse_proc(proc)
            analysis = self._analyze_seq(proc)
            saved = self._snapshot()
            emitted = False
            if parsed is not None:
                # The scalar analyzer's notion of "opaque" includes features
                # (list appends, attribute counters) this emitter supports,
                # so every sequential process gets a vectorization attempt.
                frame = _Frame(res=_Resolver(proc), prefix=self.prefix())
                try:
                    vec.run_proc(frame, parsed.body)
                    out.append(f"    # seq {label}")
                    out.extend(vec.out)
                    self._n_vec_seq += 1
                    emitted = True
                except VectorizeError as exc:
                    self._restore(saved)
                    self.fallback_reasons.append(str(exc))
            else:
                self.fallback_reasons.append(f"{label}: no source")
            if not emitted:
                plan = self._call_plan(proc, analysis, seq=True)
                index = len(self.seq_calls)
                self.seq_calls.append(plan)
                out.append(f"    # seq {label} (per-lane fallback)")
                out.append(f"    _lq{index}()")
        if MUTATION_STALE_COMMIT in self.mutations:
            # ``batched.stale_lane_commit``: the clock-edge commit forgets
            # the last lane's column, freezing that lane's registers.
            out.append("    _np.copyto(_V[:, :-1], _VN[:, :-1])")
        else:
            out.append("    _np.copyto(_V, _VN)")
        out.append("    _settle(sim)")
        out.append("    sim._cycles += 1")
        out.append("    if sim._has_watchers:")
        out.append("        sim._post_cycle()")

    def _analyze_seq(self, proc: Callable) -> ProcAnalysis:
        analysis = ProcAnalysis(proc=proc)
        tree = _parse_proc(proc)
        if tree is None:
            analysis.opaque = True
            analysis.opaque_reasons.append("no source")
            return analysis
        walker = _Analyzer(analysis, _closure_env(proc))
        walker.visit_body(tree.body)
        return analysis

    # -- module assembly -------------------------------------------------------

    def _assemble(self, settle_body: List[str],
                  cycle_body: List[str]) -> str:
        bindings = ["_np=_NP", "_LANES=_LIDX", "_NL=_NLANES"]
        for slot in sorted(self.used_v):
            bindings.append(f"_v{slot}=_VR[{slot}]")
        for slot in sorted(self.used_n):
            bindings.append(f"_n{slot}=_NR[{slot}]")
        for slot in sorted(self.used_mem):
            bindings.append(f"_mm{slot}=_MM[{slot}]")
        for j in range(len(self.attr_slots)):
            bindings.append(f"_pa{j}=_PA[{j}]")
        for j in range(len(self.gather_lists)):
            bindings.append(f"_pl{j}=_PL[{j}]")
            bindings.append(f"_plen{j}=_PLEN[{j}]")
        for j in range(len(self.append_lists)):
            bindings.append(f"_ls{j}=_LS[{j}]")
        for q in range(len(self.comb_calls)):
            bindings.append(f"_lc{q}=_LC[{q}]")
        for q in range(len(self.seq_calls)):
            bindings.append(f"_lq{q}=_LQ[{q}]")
        for value in sorted(self.lane_consts):
            bindings.append(f"{self.lane_const(value)}=_KC({value})")
        settle_params = ", ".join(["sim"] + bindings + ["_V=_V", "_VN=_VN"])
        cycle_params = ", ".join(
            ["sim"] + bindings + ["_V=_V", "_VN=_VN", "_settle=settle"])
        lines = [
            '"""Generated by repro.rtl.compile.emit_batched — do not '
            'edit."""',
            "",
            f"def settle({settle_params}):",
            *settle_body,
            "",
            f"def cycle({cycle_params}):",
            *cycle_body,
        ]
        return "\n".join(lines) + "\n"

    def _report(self, schedule: Schedule) -> BatchReport:
        lane_comb = [p for p in self.comb_calls if not p.opaque]
        return BatchReport(
            n_comb_procs=len(self.comb_procs),
            n_vectorized_comb=self._n_vec_comb,
            n_lane_call_comb=len(lane_comb),
            n_opaque_procs=len(schedule.opaque),
            n_seq_procs=len(self.seq_procs),
            n_vectorized_seq=self._n_vec_seq,
            n_lane_call_seq=len(self.seq_calls),
            n_cyclic_groups=sum(1 for g in schedule.groups if g.cyclic),
            guarded=schedule.guarded,
            n_attr_rows=len(self.attr_slots),
            n_gather_lists=len(self.gather_lists),
            n_append_lists=len(self.append_lists),
            fallback_reasons=list(self.fallback_reasons),
            mutations=self.mutations)


def emit_batched_program(top, max_settle: int = 64,
                         mutations: Optional[Tuple[str, ...]] = None
                         ) -> BatchedProgram:
    """Emit the batched lockstep program for one design instance.

    The program's :attr:`~BatchedProgram.signature` is the lane-compatibility
    key: designs may share a :class:`~repro.rtl.batch.BatchedSimulator`
    exactly when their signatures match (verification by regeneration).
    """
    if mutations is None:
        mutations = _active_batched_mutations()
    # The trace records every lane-specific value baked into the source;
    # rebind_batched_program verifies them on sibling lanes instead of
    # paying a full re-emission per lane.  Emissions never nest, so a
    # class-level slot (scoped to this call) is safe.
    trace = _BakeTrace()
    previous = _Resolver.trace
    _Resolver.trace = trace
    try:
        program = _BatchEmitter(top, max_settle, tuple(mutations)).emit()
    finally:
        _Resolver.trace = previous
    program.bake_attrs = list(trace.attrs.values())
    program.bake_containers = [(obj, container_fingerprint(obj))
                               for obj in trace.containers.values()]
    program.bake_calls = list(trace.calls.values())
    return program
