"""Rebind a batched program to a sibling design without re-emitting.

:func:`~repro.rtl.compile.emit_batched.emit_batched_program` costs tens of
milliseconds per design instance — the dominant cost of constructing a
:class:`~repro.rtl.batch.BatchedSimulator` over N structurally identical
lanes, because the naive path pays it N times just to compare signatures.
This module replaces N-1 of those emissions with a cheap structural proof:
if a sibling design is *recipe-identical* to the reference lane, the
reference source text applies verbatim and only the live-object registries
(signals, memories, attr rows, gather/append lists, per-lane call plans)
need swapping for the sibling's own objects.

"Recipe-identical" is decided conservatively.  Emission resolves Python
state reachable from each process's closure (``_closure_env`` +
``resolve`` in :mod:`.analyze`) and bakes three kinds of lane-specific
facts into the source:

* scalar attribute values folded to constants (``self.capacity`` -> 32),
* container *elements* read at compile time (const subscripts, ``len()``,
  ``in`` folds — including failed subscripts, since out-of-range reads
  demote code paths and the sibling must demote identically),
* results of methods that *ran* at compile time (FSM state encoders).

``emit_batched_program`` records all three on the program
(``bake_attrs`` / ``bake_containers`` / ``bake_calls``).  Rebinding first
re-checks every record against the reference design itself — a cached
reference whose design mutated since emission is rejected, so programs
may be reused across constructions — then walks the reference and
sibling closure graphs in lockstep, building an injective correspondence
``reference object -> sibling object``, and value-checks exactly the
recorded facts on the sibling side.  Containers that were never read at
compile time (per-lane stimulus frames, sink lists) are structure-checked
only, which is what lets lanes carry different data.  *Any* structural
doubt — unmatched type, missing ``__dict__``, inconsistent mapping,
unverifiable bake — abandons the rebind by returning ``None``; the caller
falls back to a full emission and the existing signature comparison, so a
wrong ``None`` costs time, never correctness.
"""

from __future__ import annotations

import types
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as _np

from ..component import Memory
from ..signal import Signal
from .analyze import _FAIL, static_lookup
from .emit_batched import (
    CALL_RAISED,
    BatchedProgram,
    _active_batched_mutations,
    container_fingerprint,
)

__all__ = ["rebind_batched_program"]

#: Immutable leaf values compared by ``type`` and (at value positions)
#: ``==``.  The strict ``type(r) is type(l)`` check keeps ``True`` and
#: ``1`` distinct, matching how the emitter folds them.
_SCALARS = (bool, int, float, complex, str, bytes)
_SCALAR_TYPES = {*_SCALARS, type(None)}
_INT_TYPES = {int, bool}
_UNMAPPED = object()

#: How the walk treats an instance of each type, decided once per type
#: (a walk meets the same few types hundreds of times per lane).
_SCALAR, _CLASS, _SIGNAL, _MEMORY, _ARRAY, _FUNCTION, _METHOD, _SEQUENCE, \
    _DICT, _SET, _INSTANCE = range(11)
_WALK_KIND: Dict[type, int] = {}
#: Kinds :func:`_pure_data` can accept (any other kind is never pure).
_PURE_KINDS = {_SCALAR, _SEQUENCE, _DICT, _SET}


def _walk_kind(cls: type) -> int:
    kind = _WALK_KIND.get(cls)
    if kind is None:
        for base, kind in (((*_SCALARS, type(None)), _SCALAR),
                           ((type, types.ModuleType), _CLASS),
                           (Signal, _SIGNAL), (Memory, _MEMORY),
                           (_np.ndarray, _ARRAY),
                           (types.FunctionType, _FUNCTION),
                           (types.MethodType, _METHOD),
                           ((list, tuple), _SEQUENCE), (dict, _DICT),
                           ((set, frozenset), _SET)):
            if issubclass(cls, base):
                break
        else:
            kind = _INSTANCE
        _WALK_KIND[cls] = kind
    return kind


class _Bail(Exception):
    """Internal: abandon the rebind (caller re-emits in full)."""


class _Correspondence:
    """Lockstep walk of two object graphs, reference vs. sibling lane.

    ``mapping`` sends reference object ids to sibling objects;
    ``inverse`` ids enforce injectivity (two reference objects may not
    claim the same sibling object — the emitter folds ``is`` comparisons
    of resolved objects, so aliasing structure must match exactly).
    ``shared`` collects ids of objects *identical* in both graphs
    (classes, module-level tables): for those the reference object itself
    is the sibling-side owner.
    """

    def __init__(self, recorded: Set[int]) -> None:
        self.mapping: Dict[int, Any] = {}
        self.inverse: Set[int] = set()
        self.shared: Set[int] = set()
        self.recorded = recorded
        # Keep every walked reference object alive for the duration of
        # the walk: ``id()`` keys are only meaningful while the object
        # they named is.  (Sibling objects stay alive as mapping values.)
        self._pins: List[Any] = []

    # -- lookup used while relocating registries -------------------------------

    def lane_object(self, ref_obj: Any) -> Any:
        """The sibling-side stand-in for ``ref_obj`` (or raise _Bail)."""
        key = id(ref_obj)
        if key in self.mapping:
            return self.mapping[key]
        if key in self.shared:
            return ref_obj
        raise _Bail(f"no correspondence for {type(ref_obj).__name__}")

    # -- the walk --------------------------------------------------------------

    def match(self, r: Any, l: Any, value: bool = False) -> None:
        """Require ``l`` to stand in for ``r``; raise :class:`_Bail` if not.

        ``value=True`` compares scalars by value (closure roots, function
        defaults, recorded-container elements); otherwise scalars are
        type-checked only — instance attributes whose values matter were
        either promoted to per-lane rows (relocated later) or recorded in
        ``bake_attrs`` (verified later).
        """
        cls = type(r)
        if cls in _SCALAR_TYPES:
            # Exact scalar leaf (the bulk of any walk): never mapped, and
            # never asked for by ``lane_object``.
            if r is l:
                return
            if cls is not type(l):
                raise _Bail("scalar type mismatch")
            if value and r != l:
                raise _Bail("scalar value mismatch at a baked position")
            return
        key = id(r)
        mapped = self.mapping.get(key, _UNMAPPED)
        if mapped is not _UNMAPPED:
            if mapped is not l:
                raise _Bail("inconsistent correspondence")
            return
        if r is l:
            # One shared object (class, module table, interned scalar):
            # nothing lane-specific can hide here unless it is mutable
            # and lane-written, which the emitter never resolves through.
            self.shared.add(key)
            self._pins.append(r)
            return
        if cls is not type(l):
            raise _Bail("type mismatch")
        kind = _WALK_KIND.get(cls)
        if kind is None:
            kind = _walk_kind(cls)
        if kind == _SCALAR:
            # A scalar subclass (enum members and the like).
            if value and r != l:
                raise _Bail("scalar value mismatch at a baked position")
            return
        if kind == _CLASS:
            # Distinct classes/modules of equal type: resolution results
            # (getattr_static on classes, module globals) could differ in
            # ways no recorded bake captures.  Identity or bust.
            raise _Bail("distinct classes/modules")
        self.mapping[key] = l
        self._pins.append(r)
        lkey = id(l)
        if lkey in self.inverse:
            raise _Bail("correspondence is not injective")
        self.inverse.add(lkey)
        if kind == _SIGNAL:  # the commonest object, settled here
            if r._mask != l._mask:
                raise _Bail("signal width mismatch")
            return
        self._dispatch(kind, r, l, value)

    def _dispatch(self, kind: int, r: Any, l: Any, value: bool) -> None:
        if kind == _MEMORY:
            if r.depth != l.depth or r._mask != l._mask:
                raise _Bail("memory shape mismatch")
            return
        if kind == _ARRAY:
            # Runtime state (lane rows): the emitter never reads ndarray
            # contents at compile time.
            return
        if kind == _FUNCTION:
            self._match_function(r, l)
            return
        if kind == _METHOD:
            if r.__func__.__code__ is not l.__func__.__code__:
                raise _Bail("bound method code mismatch")
            self.match(r.__self__, l.__self__)
            return
        if kind == _SEQUENCE:
            self._match_sequence(r, l, value)
            return
        if kind == _DICT:
            self._match_dict(r, l, value)
            return
        if kind == _SET:
            # Resolution never folds set *elements* (record_container
            # skips sets), so contents are runtime payload.
            return
        # Generic instance: walk the attribute dict.  Objects without one
        # (__slots__, C extensions) bail — the emitter may have resolved
        # through state this walk cannot see.
        try:
            r_vars, l_vars = vars(r), vars(l)
        except TypeError:
            raise _Bail(f"opaque instance of {type(r).__name__}")
        if r_vars.keys() != l_vars.keys():
            raise _Bail("instance attribute sets differ")
        match, mapping = self.match, self.mapping
        for name, r_val in r_vars.items():
            l_val = l_vars[name]
            cls = type(r_val)
            # Inline the two answers ``match`` gives without walking: a
            # non-baked scalar leaf of the same type, and a pair already
            # in correspondence (signals reached from their owner).
            if cls in _SCALAR_TYPES and cls is type(l_val):
                continue
            if mapping.get(id(r_val), _UNMAPPED) is l_val:
                continue
            match(r_val, l_val)

    def _match_function(self, r: Any, l: Any) -> None:
        if r.__code__ is not l.__code__:
            raise _Bail("function code mismatch")
        r_d = r.__defaults__ or ()
        l_d = l.__defaults__ or ()
        if len(r_d) != len(l_d):
            raise _Bail("function default arity mismatch")
        for r_val, l_val in zip(r_d, l_d):
            # Helper-call inlining binds defaults as compile-time consts.
            self.match(r_val, l_val, value=True)
        r_cells = r.__closure__ or ()
        l_cells = l.__closure__ or ()
        if len(r_cells) != len(l_cells):
            raise _Bail("closure shape mismatch")
        for r_cell, l_cell in zip(r_cells, l_cells):
            try:
                r_val = r_cell.cell_contents
            except ValueError:
                try:
                    l_cell.cell_contents
                except ValueError:
                    continue  # both unset: _closure_env drops the name
                raise _Bail("closure cell set on one side only")
            try:
                l_val = l_cell.cell_contents
            except ValueError:
                raise _Bail("closure cell set on one side only")
            # Closure roots are exactly what ``resolve`` reads: scalars
            # here were baked as constants, so value-compare them.
            self.match(r_val, l_val, value=True)

    def _match_sequence(self, r: Any, l: Any, value: bool) -> None:
        full = id(r) in self.recorded
        if not full and _pure_data(r) and _pure_data(l):
            # Never read at compile time and nothing resolvable hides
            # inside: this is lane payload (stimulus frames, sink
            # contents) and is allowed to differ, even in length.
            return
        if len(r) != len(l):
            raise _Bail("sequence length mismatch")
        match, mapping = self.match, self.mapping
        value = value or full
        for r_val, l_val in zip(r, l):
            if mapping.get(id(r_val), _UNMAPPED) is l_val:
                continue  # already in correspondence
            match(r_val, l_val, value)

    def _match_dict(self, r: Any, l: Any, value: bool) -> None:
        full = id(r) in self.recorded
        if not full and _pure_data(r) and _pure_data(l):
            return
        if r.keys() != l.keys():
            # Keys compare by ==: object keys with default equality fail
            # across lanes, which is the conservative outcome.
            raise _Bail("dict key sets differ")
        for name, r_val in r.items():
            self.match(r_val, l[name], value=value or full)


def _pure_data(obj: Any, _depth: int = 0) -> bool:
    """True when ``obj`` is (nested) scalars only — nothing resolvable.

    A recorded container can never hide below an unrecorded pure parent:
    recording happens at subscript/len/in sites, whose *base* object was
    itself reached through resolution, so every recorded container is
    reachable through edges the correspondence walk traverses.
    """
    if _depth > 8:
        return False
    kind = _walk_kind(type(obj))
    if kind == _SCALAR:
        return True
    if kind == _SEQUENCE or kind == _SET:
        # Flat payload (pixel queues, frames' rows) in one C-level pass;
        # one element of a never-pure kind (a signal in a port list)
        # settles the rest just as fast.
        kinds = set(map(type, obj))
        if kinds <= _SCALAR_TYPES:
            return True
        if any(_walk_kind(cls) not in _PURE_KINDS for cls in kinds):
            return False
        return all(_pure_data(x, _depth + 1) for x in obj)
    if kind == _DICT:
        return all(isinstance(k, _SCALARS) and _pure_data(v, _depth + 1)
                   for k, v in obj.items())
    return False


def _static_attr(owner: Any, attr: str) -> Any:
    value = static_lookup(owner, attr)
    if value is _FAIL:
        raise _Bail(f"missing attribute {attr!r}")
    return value


def _probe_call(owner: Any, method: str, args: Tuple) -> Any:
    """Re-run a compile-time method call, mapping any raise to a marker."""
    func = getattr(owner, method, None)
    if func is None:
        raise _Bail(f"missing method {method!r}")
    try:
        return func(*args)
    except Exception:
        return CALL_RAISED


def _same_result(got: Any, recorded: Any) -> bool:
    if recorded is CALL_RAISED or got is CALL_RAISED:
        return got is recorded
    return type(got) is type(recorded) and got == recorded


def rebind_batched_program(reference: BatchedProgram, top: Any,
                           max_settle: int = 64,
                           mutations: Optional[Tuple[str, ...]] = None,
                           ) -> Optional[BatchedProgram]:
    """Bind ``reference``'s generated source to sibling design ``top``.

    Returns a :class:`BatchedProgram` sharing the reference's source text
    (hence trivially signature-identical) with ``top``'s own live-object
    registries, or ``None`` when ``top`` cannot be *proven* to emit the
    same source — the caller must then fall back to
    :func:`emit_batched_program`.  Every bail is conservative: a ``None``
    for a truly compatible design only costs the emission we were trying
    to skip.
    """
    if mutations is None:
        mutations = _active_batched_mutations()
    if tuple(reference.report.mutations) != tuple(mutations):
        return None  # the reference source baked different seeded faults
    if reference.max_settle != max_settle:
        return None
    try:
        return _rebind(reference, top)
    except _Bail:
        return None


def _check_reference_drift(reference: BatchedProgram) -> None:
    """Reject a reference whose design mutated since emission.

    Within one construction this is a no-op by definition; it is what
    makes holding a reference in a cross-construction cache sound — every
    value the source baked is re-derived from the reference design and
    compared against the emission-time record.
    """
    for owner, attr, value in reference.bake_attrs:
        current = _static_attr(owner, attr)
        if type(current) is not type(value) or current != value:
            raise _Bail("reference attribute drifted since emission")
    for container, fingerprint in reference.bake_containers:
        if container_fingerprint(container) != fingerprint:
            raise _Bail("reference container drifted since emission")
    for owner, method, args, result in reference.bake_calls:
        if not _same_result(_probe_call(owner, method, args), result):
            raise _Bail("reference call result drifted since emission")


def _rebind(reference: BatchedProgram, top: Any) -> BatchedProgram:
    signals: List[Signal] = top.all_signals()
    memories: List[Memory] = top.all_memories()
    comb_procs: List[Callable] = top.all_comb_procs()
    seq_procs: List[Callable] = top.all_seq_procs()
    if (len(signals) != len(reference.signals)
            or len(memories) != len(reference.memories)
            or len(comb_procs) != len(reference.comb_procs)
            or len(seq_procs) != len(reference.seq_procs)):
        raise _Bail("registry shape mismatch")

    _check_reference_drift(reference)
    corr = _Correspondence(
        recorded={id(c) for c, _fp in reference.bake_containers})

    # Pin the slot order first: signal/memory correspondence by position
    # is what the generated slot indices assume.  Then walk every process
    # pair — their closures reach all Python state emission resolved.
    for r_sig, l_sig in zip(reference.signals, signals):
        corr.match(r_sig, l_sig)
    for r_mem, l_mem in zip(reference.memories, memories):
        corr.match(r_mem, l_mem)
    for r_proc, l_proc in zip(reference.comb_procs + reference.seq_procs,
                              comb_procs + seq_procs):
        corr.match(r_proc, l_proc)

    # Verify every scalar the emitter folded into the source holds the
    # same value on this lane's owners, and every compile-time method
    # call reproduces its recorded result.
    for owner, attr, value in reference.bake_attrs:
        lane_value = _static_attr(corr.lane_object(owner), attr)
        if type(lane_value) is not type(value) or lane_value != value:
            raise _Bail("baked attribute value differs")
    for owner, method, args, result in reference.bake_calls:
        lane_owner = corr.lane_object(owner)
        if not _same_result(_probe_call(lane_owner, method, args), result):
            raise _Bail("compile-time call result differs")

    # Relocate the live-object registries onto this lane's objects.
    attr_slots = []
    for owner, attr in reference.attr_slots:
        lane_owner = corr.lane_object(owner)
        if not isinstance(_static_attr(lane_owner, attr), int):
            raise _Bail("promoted attribute is not an int on this lane")
        attr_slots.append((lane_owner, attr))
    gather_lists = []
    for lst in reference.gather_lists:
        lane_lst = corr.lane_object(lst)
        if not isinstance(lane_lst, list) or not (
                set(map(type, lane_lst)) <= _INT_TYPES
                or all(isinstance(x, int) for x in lane_lst)):
            raise _Bail("gather list is not all-int on this lane")
        gather_lists.append(lane_lst)
    append_lists = []
    for lst in reference.append_lists:
        lane_lst = corr.lane_object(lst)
        if not isinstance(lane_lst, list):
            raise _Bail("append target is not a list on this lane")
        append_lists.append(lane_lst)

    def relocate(plan, procs):
        if not 0 <= plan.proc_index < len(procs):
            raise _Bail("per-lane call plan lost its process index")
        return replace(plan, proc=procs[plan.proc_index])

    comb_calls = [relocate(plan, comb_procs)
                  for plan in reference.comb_calls]
    seq_calls = [relocate(plan, seq_procs)
                 for plan in reference.seq_calls]

    program = BatchedProgram(
        source=reference.source,
        report=reference.report,
        signals=signals,
        memories=memories,
        max_settle=reference.max_settle,
        attr_slots=attr_slots,
        gather_lists=gather_lists,
        append_lists=append_lists,
        comb_calls=comb_calls,
        seq_calls=seq_calls,
        comb_procs=comb_procs,
        seq_procs=seq_procs,
        # Bake records stay with the reference's objects on purpose: a
        # rebound program is a *product*, not a rebind reference — using
        # it as one simply bails and re-emits.
    )
    # The signature hashes the source and the memory shapes, all proven
    # equal above: prime the cached value instead of rehashing the source.
    program.__dict__["signature"] = reference.signature
    return program
