"""Test-only fault injection for the mutation smoke tests.

The verification subsystem is itself verified by seeding known protocol
bugs into the shipped primitives and asserting that the monitors catch
every one.  A mutation is a *named switch*: enabling it before a component
is constructed makes that component register a deliberately-broken variant
of one of its processes.  Construction-time selection keeps the pristine
process source byte-identical to the shipped code (so the compiled
backend's static analysis is unaffected when no mutation is active) and
costs nothing on the simulation hot path.

Usage (tests only)::

    with mutate.inject("fifo.drop_full_guard"):
        dut = make_container("queue", "fifo", "q", width=8, capacity=4)
        result = verify(dut, ...)
    assert not result.ok

This module must stay import-free of the rest of the package: the
primitives import it at module load time, long before the heavier
verification modules are usable.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Set

#: Catalogue of every mutation the primitives/containers understand.
KNOWN = {
    "fifo.drop_full_guard":
        "SyncFIFO accepts a push even when full (overwrites, occupancy grows)",
    "fifo.pop_empty_guard":
        "SyncFIFO honours a pop even when empty (occupancy underflows)",
    "fifo.stale_dout":
        "SyncFIFO presents the element *behind* the head on dout",
    "lifo.reverse_order":
        "SyncLIFO presents the bottom of the stack instead of the top",
    "queue.ready_when_full":
        "QueueFIFO asserts sink.ready even when the FIFO is full",
    # Batched-emitter faults: these switch the *vectorized code generator*
    # (repro.rtl.compile.emit_batched), not a primitive — enabling one makes
    # every BatchedSimulator program emitted from then on carry the fault.
    "batched.cross_lane_mask_reuse":
        "Batched emitter ORs a branch's lane mask with its lane-reversed "
        "self, leaking guarded writes into sibling lanes",
    "batched.stale_lane_commit":
        "Batched emitter's clock-edge commit skips the last lane column, "
        "freezing that lane's registers at their pre-edge values",
    # Scalar-emitter fault: switches the compiled code generator
    # (repro.rtl.compile.emit); every scalar ``compiled`` Simulator built
    # while it is on carries the fault.
    "compiled.stale_edge_commit":
        "Scalar emitter's clock-edge commit skips the last register of "
        "every compiled clocked process's write set, freezing it at its "
        "pre-edge value",
}

_active: Set[str] = set()


def enable(name: str) -> None:
    """Activate a mutation for components constructed from now on."""
    if name not in KNOWN:
        raise ValueError(
            f"unknown mutation {name!r}; known: {sorted(KNOWN)}")
    _active.add(name)


def disable(name: str) -> None:
    """Deactivate a mutation (no-op if it was not active)."""
    _active.discard(name)


def clear() -> None:
    """Deactivate every mutation."""
    _active.clear()


def enabled(name: str) -> bool:
    """Whether ``name`` is currently active (False for unknown names)."""
    return name in _active


def active() -> Set[str]:
    """A copy of the active mutation set."""
    return set(_active)


@contextmanager
def inject(*names: str) -> Iterator[None]:
    """Context manager enabling mutations for the duration of a block."""
    for name in names:
        enable(name)
    try:
        yield
    finally:
        for name in names:
            disable(name)
