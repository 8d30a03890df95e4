"""Seed matrices: scalar ``compiled`` sessions by default, lockstep on request.

``verify_matrix`` (and ``verify_gains`` on top of it) runs one scalar
session per seed unless ``strategy="compiled-batched"`` asks for a single
:class:`~repro.rtl.BatchedSimulator` lockstep session.  Both paths must
give the same per-seed results; the construction counters of
:mod:`repro.rtl.instrument` tell which engine actually ran.
"""

import json

import pytest

from repro.obs import tracing
from repro.rtl import COMPILED, COMPILED_BATCHED, instrument
from repro.verify import CoverageDB, verify, verify_gains, verify_matrix

SEEDS = [0, 1, 2]
CYCLES = 300


def constructions(before):
    diff = instrument.delta(before)
    return (diff.get(instrument.SIMULATOR_CONSTRUCTIONS, 0),
            diff.get(instrument.BATCHED_CONSTRUCTIONS, 0))


def snapshot(result):
    return (result.seed, result.cycles,
            json.dumps(result.coverage.to_dict(), sort_keys=True),
            result.transactions, [str(v) for v in result.violations])


def test_default_matrix_runs_one_scalar_session_per_seed():
    before = instrument.snapshot()
    results = verify_matrix("queue/fifo", SEEDS, cycles=CYCLES)
    assert constructions(before) == (len(SEEDS), 0)
    assert [result.strategy for result in results] == [COMPILED] * len(SEEDS)
    assert [snapshot(r) for r in results] == [
        snapshot(verify("queue/fifo", seed=seed, cycles=CYCLES))
        for seed in SEEDS]


def test_explicit_compiled_batched_matrix_is_one_lockstep_session():
    before = instrument.snapshot()
    batched = verify_matrix("queue/fifo", SEEDS, cycles=CYCLES,
                            strategy=COMPILED_BATCHED)
    assert constructions(before) == (0, 1)
    assert [r.strategy for r in batched] == [COMPILED_BATCHED] * len(SEEDS)
    scalar = verify_matrix("queue/fifo", SEEDS, cycles=CYCLES)
    assert [snapshot(r) for r in batched] == [snapshot(r) for r in scalar]


def test_default_verify_gains_builds_no_batched_simulator():
    db = CoverageDB()
    before = instrument.snapshot()
    _, gains = verify_gains("queue/fifo", SEEDS, db, cycles=CYCLES)
    assert constructions(before) == (len(SEEDS), 0)
    # The marginal-closure credit does not depend on the engine.
    _, batched_gains = verify_gains("queue/fifo", SEEDS, CoverageDB(),
                                    cycles=CYCLES, strategy=COMPILED_BATCHED)
    assert gains == batched_gains
    assert any(gains)


def test_empty_matrix_builds_nothing():
    before = instrument.snapshot()
    assert verify_matrix("queue/fifo", []) == []
    assert constructions(before) == (0, 0)


@pytest.fixture()
def traced():
    tracing.disable()
    tracing.drain()
    tracing.enable()
    yield
    tracing.disable()
    tracing.drain()


@pytest.mark.parametrize("strategy", [COMPILED, COMPILED_BATCHED])
def test_traced_matrix_is_one_verify_matrix_span(traced, strategy):
    verify_matrix("queue/fifo", [0, 1], cycles=50, strategy=strategy)
    spans = [r for r in tracing.records() if r["name"] == "verify.matrix"]
    assert len(spans) == 1
    assert spans[0]["ph"] == "X"
    assert spans[0]["args"] == {"target": "queue/fifo", "lanes": 2,
                                "strategy": strategy}


def test_untraced_matrix_records_no_span():
    tracing.disable()
    tracing.drain()
    verify_matrix("queue/fifo", [0], cycles=20)
    assert tracing.records() == []


@pytest.mark.parametrize("strategy", [COMPILED, COMPILED_BATCHED])
def test_live_component_matrix_needs_one_dut_per_seed(strategy):
    from repro.designs import Saa2VgaPatternDesign
    from repro.verify import VerificationError

    design = Saa2VgaPatternDesign(name="dut", binding="fifo", width=8,
                                  capacity=8)
    with pytest.raises(VerificationError, match="one DUT per seed"):
        verify_matrix(design, [0, 1], cycles=50, strategy=strategy)
    (result,) = verify_matrix(design, [0], cycles=50, strategy=strategy)
    assert result.target == "component/dut"
