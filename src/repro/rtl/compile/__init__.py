"""Compiled per-design simulation backend.

``Simulator(strategy="compiled")`` elaborates a design once, statically
analyses every combinational process's read/write sets
(:mod:`~repro.rtl.compile.analyze`), orders the network so one pass settles
it (:mod:`~repro.rtl.compile.schedule`) and emits specialised module-level
Python functions per design (:mod:`~repro.rtl.compile.emit`): a ``settle``
with slot-indexed signal access, inlined bit-width masks, fused
write+commit and topologically ordered process bodies, and an ``edge``
into which every clocked process is lowered — FSM tests and transitions,
register and memory writes as straight-line code, with one commit after
the last process.  It is the software analogue of the paper's wrapper
dissolution — the generic scheduler, and the FSM and iterator wrappers
around the logic, disappear into design-specific straight-line code.  A
clocked process the lowering cannot take stays an interpreted call,
process by process; ``CompileReport.interpreted`` names each one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ...obs import tracing as _obs_tracing
from .analyze import ProcAnalysis, analyze_proc
from .emit import CompiledProgram, CompileReport, emit_program
from .schedule import Schedule, build_schedule

#: Batched-backend names, imported on first use so a scalar compile does not
#: pay for loading the vectorizing emitter.
_BATCHED = ("BatchedProgram", "BatchReport", "VectorizeError",
            "emit_batched_program")


def __getattr__(name: str):
    if name in _BATCHED:
        from . import emit_batched

        return getattr(emit_batched, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def compile_design(comb_procs: Sequence[Callable],
                   seq_procs: Sequence[Callable],
                   max_settle: int = 64,
                   own: Optional[Sequence[Any]] = None) -> CompiledProgram:
    """Compile a design's processes into specialised settle/edge/cycle code.

    ``own`` lists the design's signals and memories (see
    :func:`~repro.rtl.compile.emit.emit_program`); ``None`` treats every
    signal a clocked process writes as the design's own.

    Each pipeline stage runs under its own child span ("analyze" /
    "schedule" / "emit") so traced compiles show where elaboration time
    goes; with tracing disabled the spans are no-op singletons.  The
    clocked processes are lowered during "emit".
    """
    with _obs_tracing.span("analyze", procs=len(comb_procs)):
        analyses = [analyze_proc(proc) for proc in comb_procs]
    with _obs_tracing.span("schedule"):
        schedule = build_schedule(analyses)
    with _obs_tracing.span("emit", seq_procs=len(seq_procs)):
        return emit_program(schedule, comb_procs, seq_procs, max_settle, own)


__all__ = [
    "analyze_proc",
    "build_schedule",
    "compile_design",
    "emit_program",
    "emit_batched_program",
    "BatchedProgram",
    "BatchReport",
    "CompiledProgram",
    "CompileReport",
    "ProcAnalysis",
    "Schedule",
    "VectorizeError",
]
