"""A machine's ill-formed trace fails the fleet, naming the machine.

Each shard validates and renders its nodes' traces at collect time and
ships the errors with the lines; the parent raises on the first machine
with errors.  The same report must come back whichever transport and
partition carried it.
"""

from __future__ import annotations

import pytest

from repro import trace
from repro.hw.machine import Machine
from repro.params import MachineConfig
from repro.sim import FleetNode, ShardedSim, ShardError, Sleep

WINDOW = 200_000


class UnbalancedNode(FleetNode):
    """Sleeps into a later window, then (on machine ``bad`` only) opens a
    span that nothing ever closes, inside the scheduler's slice span."""

    def __init__(self, index, seed, bad, **kwargs):
        super().__init__(index, Machine(MachineConfig(num_cpus=1,
                                                      mem_kb=1024)))
        self.bad = bad
        self.spawn_traced(self._task(), name="worker")

    def _task(self):
        yield Sleep(WINDOW + 1_000)
        if self.index == self.bad:
            trace.begin(self.machine.boot_cpu, "left.open", why="test")
        yield Sleep(1_000)


def _build_unbalanced(index, seed, **kwargs):
    """Module level, so spawned shard workers can import it."""
    return UnbalancedNode(index, seed, **kwargs)


@pytest.mark.parametrize("workers,transport", [(1, "inline"),
                                               (2, "inline"),
                                               (2, "process")])
def test_ill_formed_trace_names_the_machine(workers, transport):
    sim = ShardedSim(_build_unbalanced, 4, workers=workers,
                     transport=transport, window_cycles=WINDOW,
                     builder_kwargs={"bad": 3})
    with pytest.raises(ShardError) as info:
        sim.run()
    assert str(info.value) == (
        "machine 3 trace ill-formed: "
        "cpu0: end 'sim.slice' does not match open span 'left.open' "
        "(spans must nest); "
        "cpu0: span 'sim.slice' never ended; "
        "cpu0: span 'left.open' never ended")

