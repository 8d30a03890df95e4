"""Mutation smoke test: every seeded protocol bug must be caught.

Five deliberate bugs hide behind construction-time switches in the
primitives and the queue container, and three more in the code
generators (:mod:`repro.verify.mutate`).  For each one, a
constrained-random session on the matching target must flag at least one
violation — and with the switch off, the same session must be clean.
This is the verification subsystem verifying itself.
"""

import functools

import pytest

from repro.rtl import COMPILED, COMPILED_BATCHED
from repro.verify import mutate, verify
from repro.verify.session import verify_matrix

#: mutation name -> (target exercising it, cycle budget)
MUTATION_TARGETS = {
    "fifo.drop_full_guard": ("queue/fifo", 800),
    "fifo.pop_empty_guard": ("queue/fifo", 800),
    "fifo.stale_dout": ("queue/fifo", 800),
    "lifo.reverse_order": ("stack/lifo", 800),
    "queue.ready_when_full": ("queue/fifo", 800),
    "batched.cross_lane_mask_reuse": ("queue/fifo", 800),
    "batched.stale_lane_commit": ("queue/fifo", 800),
    "compiled.stale_edge_commit": ("queue/fifo", 800),
}

#: The batched-emitter faults live in the *code generator*, not a
#: primitive: they only manifest inside a multi-lane lockstep session
#: (identical lanes would mask cross-lane leakage, and the stale-commit
#: fault freezes exactly the last lane), so their smoke test drives a
#: multi-seed lockstep matrix — explicitly ``compiled-batched``, since a
#: default matrix runs scalar sessions and never emits batched code.
BATCHED_MUTATIONS = {name for name in MUTATION_TARGETS
                     if name.startswith("batched.")}
BATCHED_SMOKE_SEEDS = [0, 1, 2, 3]


def test_every_known_mutation_has_a_smoke_target():
    assert set(MUTATION_TARGETS) == set(mutate.KNOWN)


@pytest.mark.parametrize("name", sorted(MUTATION_TARGETS))
def test_monitors_catch_seeded_protocol_bug(name):
    target, cycles = MUTATION_TARGETS[name]
    if name in BATCHED_MUTATIONS:
        with mutate.inject(name):
            mutated = verify_matrix(target, BATCHED_SMOKE_SEEDS,
                                    cycles=cycles, strategy=COMPILED_BATCHED)
        assert any(not result.ok for result in mutated), \
            f"mutation {name} went undetected on a " \
            f"{len(BATCHED_SMOKE_SEEDS)}-lane {target} matrix"
        clean = verify_matrix(target, BATCHED_SMOKE_SEEDS, cycles=cycles,
                              strategy=COMPILED_BATCHED)
        assert all(result.ok for result in clean), \
            [str(v) for result in clean for v in result.violations[:5]]
        return
    with mutate.inject(name):
        mutated = verify(target, seed=0, cycles=cycles)
    assert not mutated.ok, \
        f"mutation {name} went undetected on {target} " \
        f"(reproduce: {mutated.repro_command()})"
    # The switch is construction-time: a fresh DUT built after the context
    # exits behaves correctly again under the identical stimulus.
    clean = verify(target, seed=0, cycles=cycles)
    assert clean.ok, [str(v) for v in clean.violations[:5]]


def test_stale_lane_commit_freezes_exactly_the_last_lane():
    """The seeded commit fault skips the last lane column: earlier lanes
    must stay clean (their columns commit normally), pinning the fault's
    blast radius and proving detection is not an artefact of lane 0."""
    with mutate.inject("batched.stale_lane_commit"):
        results = verify_matrix("queue/fifo", BATCHED_SMOKE_SEEDS,
                                cycles=800, strategy=COMPILED_BATCHED)
    assert [result.ok for result in results] == [True, True, True, False]


#: Mutation escape: the exact monitor rules each fault trips when driven
#: by *search-proposed* seeds — the per-fault blast radius.  The sets are
#: deterministic (propose_seeds and the sessions share one root seed), so
#: an escape (fault undetected) or a radius change (fault detected by
#: different monitors) both fail loudly.
SEARCH_BLAST_RADIUS = {
    "fifo.drop_full_guard": {
        "queue/fifo.conservation", "queue/fifo.data-mismatch",
        "queue/fifo.data-stability", "queue/fifo.occupancy-bound",
        "queue/fifo.phantom-valid", "queue/fifo.scoreboard",
        "queue/fifo.valid-drop"},
    "fifo.pop_empty_guard": {
        "queue/fifo.conservation", "queue/fifo.data-mismatch",
        "queue/fifo.occupancy-bound", "queue/fifo.phantom-valid",
        "queue/fifo.scoreboard"},
    "fifo.stale_dout": {
        "queue/fifo.data-mismatch", "queue/fifo.scoreboard"},
    "lifo.reverse_order": {
        "stack/lifo.data-mismatch", "stack/lifo.scoreboard"},
    "queue.ready_when_full": {
        "queue/fifo.conservation", "queue/fifo.data-mismatch",
        "queue/fifo.scoreboard"},
    "batched.cross_lane_mask_reuse": {
        "queue/fifo.data-mismatch", "queue/fifo.data-stability",
        "queue/fifo.scoreboard"},
    "batched.stale_lane_commit": {
        "queue/fifo.conservation", "queue/fifo.scoreboard"},
    "compiled.stale_edge_commit": {
        "queue/fifo.conservation", "queue/fifo.scoreboard"},
}


@functools.lru_cache(maxsize=None)
def search_proposed_seeds(target, cycles, count):
    """Seeds a fault-free coverage search spends its budget on (cached:
    one healthy search per (target, cycles, budget) for the module)."""
    from repro.search import propose_seeds

    return tuple(propose_seeds(target, count, cycles=cycles))


@pytest.mark.parametrize("name", sorted(SEARCH_BLAST_RADIUS))
def test_search_proposed_seeds_catch_every_seeded_fault(name):
    """No mutation escapes the search's seed budget.

    The coverage-directed search proposes its seeds against the *healthy*
    design — faults must not get to vote.  Within the same session budget
    the fixed matrix spends (one scalar session, or the 4-lane batched
    matrix), those proposed seeds must still catch every seeded fault,
    and trip exactly the pinned monitor rules."""
    target, cycles = MUTATION_TARGETS[name]
    batched = name in BATCHED_MUTATIONS
    count = len(BATCHED_SMOKE_SEEDS) if batched else 1
    strategy = COMPILED_BATCHED if batched else COMPILED
    seeds = list(search_proposed_seeds(target, cycles, count))
    assert len(seeds) == count
    with mutate.inject(name):
        results = verify_matrix(target, seeds, cycles=cycles,
                                strategy=strategy)
    assert any(not result.ok for result in results), \
        f"mutation {name} escaped search-proposed seeds {seeds}"
    rules = {violation.rule for result in results
             for violation in result.violations}
    assert rules == SEARCH_BLAST_RADIUS[name]
    # And the same sessions are clean once the switch drops.
    clean = verify_matrix(target, seeds, cycles=cycles, strategy=strategy)
    assert all(result.ok for result in clean)


def test_mutation_registry_rejects_unknown_names():
    with pytest.raises(ValueError):
        mutate.enable("no.such.mutation")
    assert not mutate.enabled("no.such.mutation")


def test_inject_restores_state_on_exception():
    with pytest.raises(RuntimeError):
        with mutate.inject("fifo.stale_dout"):
            assert mutate.enabled("fifo.stale_dout")
            raise RuntimeError("boom")
    assert not mutate.enabled("fifo.stale_dout")
    assert mutate.active() == set()
