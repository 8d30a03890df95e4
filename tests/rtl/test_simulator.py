"""Unit tests for the two-phase cycle simulator."""

import pytest

from repro.rtl import (
    CombinationalLoopError,
    Component,
    SimulationError,
    Simulator,
    pulse,
)


class Counter(Component):
    """Free-running counter used as a simple clocked design."""

    def __init__(self, width=8):
        super().__init__("counter")
        self.enable = self.signal(1, init=1)
        self.value = self.state(width)

        @self.seq
        def count():
            if self.enable.value:
                self.value.next = self.value.value + 1


class AdderChain(Component):
    """Combinational chain a -> b -> c requiring multiple settle iterations."""

    def __init__(self):
        super().__init__("chain")
        self.a = self.signal(8)
        self.b = self.signal(8)
        self.c = self.signal(8)

        @self.comb
        def stage2():
            self.c.next = self.b.value + 1

        @self.comb
        def stage1():
            self.b.next = self.a.value + 1


class Oscillator(Component):
    """A combinational loop: the settler must detect it."""

    def __init__(self):
        super().__init__("osc")
        self.x = self.signal(1)

        @self.comb
        def invert():
            self.x.next = 0 if self.x.value else 1


def test_counter_advances_one_per_cycle():
    counter = Counter()
    sim = Simulator(counter)
    sim.step(5)
    assert counter.value.value == 5
    assert sim.cycles == 5


def test_counter_respects_enable():
    counter = Counter()
    sim = Simulator(counter)
    sim.step(3)
    counter.enable.force(0)
    sim.step(4)
    assert counter.value.value == 3


def test_counter_wraps_at_width():
    counter = Counter(width=4)
    sim = Simulator(counter)
    sim.step(20)
    assert counter.value.value == 4


def test_combinational_chain_settles_in_one_step():
    chain = AdderChain()
    sim = Simulator(chain)
    chain.a.force(10)
    sim.settle()
    assert chain.b.value == 11
    assert chain.c.value == 12


def test_combinational_loop_detected():
    with pytest.raises(CombinationalLoopError):
        Simulator(Oscillator(), max_settle=8)


def test_negative_step_rejected():
    sim = Simulator(Counter())
    with pytest.raises(SimulationError):
        sim.step(-1)


def test_run_until_and_timeout():
    counter = Counter()
    sim = Simulator(counter)
    used = sim.run_until(lambda: counter.value.value == 7)
    assert used == 7
    with pytest.raises(SimulationError):
        sim.run_until(lambda: False, max_cycles=10)


def test_reset_restores_initial_state():
    counter = Counter()
    sim = Simulator(counter)
    sim.step(9)
    sim.reset()
    assert sim.cycles == 0
    assert counter.value.value == 0


def test_watchers_called_every_cycle():
    counter = Counter()
    sim = Simulator(counter)
    seen = []
    sim.add_watcher(seen.append)
    sim.step(3)
    assert seen == [1, 2, 3]


def test_pulse_drives_then_clears():
    counter = Counter()
    sim = Simulator(counter)
    counter.enable.force(0)
    pulse(sim, counter.enable, cycles=2)
    assert counter.enable.value == 0
    assert counter.value.value == 2


def test_remove_watcher_stops_callbacks_and_reset_hooks():
    counter = Counter()
    sim = Simulator(counter)
    seen = []
    resets = []
    sim.add_watcher(seen.append, on_reset=lambda: resets.append(True))
    sim.step(2)
    sim.remove_watcher(seen.append)
    sim.step(3)
    assert seen == [1, 2], "removed watcher must not fire"
    sim.reset()
    assert resets == [], "removed watcher's reset hook must not fire"


def test_remove_watcher_matches_bound_methods_by_equality():
    class Sampler:
        def __init__(self):
            self.cycles = []

        def sample(self, cycle):
            self.cycles.append(cycle)

    counter = Counter()
    sim = Simulator(counter)
    sampler = Sampler()
    sim.add_watcher(sampler.sample)
    sim.step(1)
    # A *fresh* bound-method reference compares equal and removes it.
    sim.remove_watcher(sampler.sample)
    sim.step(2)
    assert sampler.cycles == [1]


def test_remove_watcher_unknown_callable_raises():
    sim = Simulator(Counter())
    with pytest.raises(SimulationError):
        sim.remove_watcher(lambda cycle: None)


def test_watchers_do_not_leak_across_add_remove_cycles():
    counter = Counter()
    sim = Simulator(counter)
    for _ in range(5):
        seen = []
        sim.add_watcher(seen.append, on_reset=seen.clear)
        sim.step(1)
        sim.remove_watcher(seen.append)
    assert sim._watchers == []
    assert sim._watcher_resets == []
