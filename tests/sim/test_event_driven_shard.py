"""The event-driven shard step against the advance-everything step.

:meth:`~repro.sim.shard.Shard.step` advances only the nodes touched since
the last step (added, or sent a message) and the nodes whose cached
next-work cycle falls inside the window.  The claim is that the skipped
advances were no-ops.  The reference here is a test-local
:class:`AdvanceAllShard` that advances every node in every window, as the
step did before; both must produce byte-identical canonical output (or
the same deadlock) over generated fleets, and a real fleet run must make
no advance that finds nothing to do.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.fleet import run_fleet
from repro.hw.machine import Machine
from repro.params import MachineConfig
from repro.sim import (FleetNode, Shard, ShardedSim, ShardReport,
                       SimDeadlock, SimScheduler, SleepUntil, WaitFor,
                       pool)


class AdvanceAllShard(Shard):
    """Reference step: every node advances every window, and the report
    folds over fresh scheduler state rather than a cache."""

    def step(self, horizon, inbound):
        for msg in inbound:
            self._deliver(msg)
        outbound = []
        all_finished = True
        next_cycles = []
        for index in sorted(self.nodes):
            node = self.nodes[index]
            all_finished = node.advance(horizon) and all_finished
            outbound.extend(node.take_outbox())
            cycle = node.sched.next_work_cycle()
            if cycle is not None:
                next_cycles.append(cycle)
        return ShardReport(shard_id=self.shard_id, outbound=outbound,
                           finished=all_finished,
                           next_cycle=min(next_cycles, default=None),
                           delivered=len(inbound))


class GenNode(FleetNode):
    """A node whose whole behaviour is drawn from ``(seed, index)``: an
    optional build-time timer (which may post when it fires), an optional
    build-time post, and zero to two tasks that sleep, post data, cancel
    or poke messages to random peers, or block until poked.  A ``cancel``
    disarms the timer; a ``poke`` unblocks a waiter, usually from another
    shard.  Nodes with no tasks at all are common."""

    def __init__(self, index, seed, machines=1, window=100_000, **kwargs):
        super().__init__(index, Machine(MachineConfig(num_cpus=1,
                                                      mem_kb=1024)))
        self.machines = machines
        self.window = window
        self.rng = random.Random(f"evshard:{seed}:{index}")
        self.fired_at = None
        self.woken_at = None
        self.timer = None
        rng = self.rng
        if rng.random() < 0.5:
            self.timer = self.machine.clock.schedule_at(
                self._when(rng.randrange(1, 8 * window)), self._fire)
        if rng.random() < 0.2:
            self.post(self._peer(), "data", payload="built",
                      latency_cycles=self._latency())
        for slot in range(rng.choice((0, 0, 1, 2))):
            if rng.random() < 0.3:
                self.spawn_traced(self._waiter(), name=f"waiter{slot}")
            else:
                self.spawn_traced(self._sender(rng.randrange(1, 4)),
                                  name=f"sender{slot}")

    def _peer(self):
        return self.rng.randrange(self.machines)

    def _when(self, cycle):
        """``cycle``, or often the window boundary at or after it: work
        due exactly at a horizon must run in that horizon's window."""
        if self.rng.random() < 0.4:
            return -(-cycle // self.window) * self.window
        return cycle

    def _latency(self):
        return self._when(self.window + self.rng.randrange(2 * self.window))

    def _fire(self):
        self.fired_at = self.machine.clock.cycles
        if self.rng.random() < 0.5:
            self.post(self._peer(), "poke", latency_cycles=self._latency())

    def _sender(self, rounds):
        for _ in range(rounds):
            now = self.machine.clock.cycles
            yield SleepUntil(self._when(
                now + self.rng.randrange(1_000, 4 * self.window)))
            kind = self.rng.choice(("data", "cancel", "poke"))
            self.post(self._peer(), kind, latency_cycles=self._latency())

    def _waiter(self):
        yield WaitFor(lambda: any(m.kind == "poke" for m in self.inbox),
                      desc="poke")
        self.woken_at = self.machine.clock.cycles
        if self.rng.random() < 0.5:
            self.post(self._peer(), "data", payload="woken",
                      latency_cycles=self._latency())

    def on_message(self, msg):
        super().on_message(msg)
        if msg.kind == "cancel" and self.timer is not None:
            self.timer.cancel()

    def result(self):
        out = super().result()
        timer = self.timer
        out.update(fired_at=self.fired_at, woken_at=self.woken_at,
                   timer=None if timer is None
                   else "cancelled" if timer.cancelled
                   else "fired" if timer.fired else "pending")
        return out


def _build_gen(index, seed, **kwargs):
    return GenNode(index, seed, **kwargs)


def _outcome(machines, workers, seed, window, shard_cls):
    sim = ShardedSim(_build_gen, machines, seed=seed, workers=workers,
                     transport="inline", window_cycles=window,
                     builder_kwargs={"machines": machines,
                                     "window": window},
                     max_windows=2_000)
    with mock.patch.object(pool, "Shard", shard_cls):
        try:
            res = sim.run()
        except SimDeadlock as exc:
            return ("deadlock", str(exc))
    return (res.canonical_output(), res.metrics)


@settings(max_examples=40, deadline=None)
@given(machines=st.integers(min_value=1, max_value=7),
       workers=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**31),
       window=st.sampled_from((50_000, 100_000, 200_000, 333_333)))
def test_due_set_step_equals_advance_all(machines, workers, seed, window):
    """Skipping idle nodes changes no byte of output, and no deadlock
    verdict or its list of blocked tasks."""
    expected = _outcome(machines, workers, seed, window, AdvanceAllShard)
    assert _outcome(machines, workers, seed, window, Shard) == expected


def test_generated_fleets_cover_every_case():
    """The generator above reaches the cases the property is about:
    idle nodes, fired and cancelled build-time timers, cross-shard
    wakeups, and deadlocks."""
    seen = set()
    for seed in range(40):
        nodes = [GenNode(i, seed, machines=4) for i in range(4)]
        seen.update("no-tasks" for n in nodes if not n.sched.tasks)
        seen.update("timer" for n in nodes if n.timer is not None)
        seen.update("build-post" for n in nodes if n._outbox)
        out = _outcome(4, 2, seed, 100_000, Shard)
        if out[0] == "deadlock":
            seen.add("deadlock")
            continue
        for line in out[0].splitlines():
            if '"woken_at": ' in line and "null" not in line:
                seen.add("woken")
            if '"timer": "cancelled"' in line:
                seen.add("cancelled")
            if '"timer": "fired"' in line:
                seen.add("fired")
    assert seen >= {"no-tasks", "timer", "build-post", "deadlock", "woken",
                    "cancelled", "fired"}


def test_liveupdate_fleet_advances_only_nodes_with_work():
    """On a 10-machine rolling update every advance finds an inbound
    message or work due by the horizon, and a healthy run never lists
    blocked tasks.  Its output equals the advance-everything run's."""
    state = {"inbound": frozenset(), "advances": 0, "idle": [],
             "blocked_calls": 0}
    step, advance = Shard.step, FleetNode.advance
    blocked_names = SimScheduler.blocked_names

    def counting_step(shard, horizon, inbound):
        state["inbound"] = frozenset(msg.dst for msg in inbound)
        return step(shard, horizon, inbound)

    def checking_advance(node, horizon):
        state["advances"] += 1
        due = node.sched.next_work_cycle()
        if node.index not in state["inbound"] and (due is None
                                                   or due > horizon):
            state["idle"].append((node.index, horizon))
        return advance(node, horizon)

    def counting_blocked_names(sched):
        state["blocked_calls"] += 1
        return blocked_names(sched)

    with mock.patch.object(Shard, "step", counting_step), \
            mock.patch.object(FleetNode, "advance", checking_advance), \
            mock.patch.object(SimScheduler, "blocked_names",
                              counting_blocked_names):
        res = run_fleet(machines=10, scenario="liveupdate", seed=7)
    assert state["idle"] == []
    assert state["blocked_calls"] == 0
    # one advance per node per window would be windows * 11
    assert 0 < state["advances"] < res.fleet.windows * 11
    with mock.patch.object(pool, "Shard", AdvanceAllShard):
        reference = run_fleet(machines=10, scenario="liveupdate", seed=7)
    assert res.canonical_output() == reference.canonical_output()
