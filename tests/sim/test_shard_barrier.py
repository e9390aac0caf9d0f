"""Barrier-protocol unit tests: timer cancellation across shard windows,
lookahead enforcement, cross-shard unblocking, and fleet deadlock.

The timer-cancel pair is the regression the sharded refactor must never
reintroduce: a :class:`~repro.hw.clock.TimerHandle` cancelled as the
result of a cross-shard message must stay dead after the barrier
exchange — the cancellation serializes into the event batch like any
other local effect, so a later window can never resurrect the handle.
"""

from __future__ import annotations

import time

import pytest

from repro.hw.machine import Machine
from repro.params import MachineConfig
from repro.sim import (FleetNode, Shard, ShardedSim, ShardError,
                       SimDeadlock, Sleep, WaitFor)

WINDOW = 200_000


def _machine() -> Machine:
    return Machine(MachineConfig(num_cpus=1, mem_kb=1024))


class TimerNode(FleetNode):
    """Arms a local timer well past several barrier windows; an inbound
    ``cancel`` message disarms it."""

    TIMER_AT = 5 * WINDOW + 17

    def __init__(self, index, seed, **kwargs):
        super().__init__(index, _machine())
        self.timer_fired = False
        self.handle = self.machine.clock.schedule_at(
            self.TIMER_AT, self._fire)

    def _fire(self):
        self.timer_fired = True

    def on_message(self, msg):
        super().on_message(msg)
        if msg.kind == "cancel":
            self.handle.cancel()

    def result(self):
        out = super().result()
        out["timer_fired"] = self.timer_fired
        out["handle_pending"] = self.handle.pending
        return out


class CancelNode(FleetNode):
    """Sends the cancel (or nothing) early in the first window."""

    def __init__(self, index, seed, send_cancel=True, **kwargs):
        super().__init__(index, _machine())
        if send_cancel:
            self.spawn_traced(self._task(), name="canceller")

    def _task(self):
        yield Sleep(1_000)
        self.post(0, "cancel")


def _cancel_fleet(send_cancel, workers):
    def build(index, seed, **kwargs):
        if index == 0:
            return TimerNode(index, seed)
        return CancelNode(index, seed, send_cancel=send_cancel)

    sim = ShardedSim(build, 2, workers=workers, transport="inline",
                     window_cycles=WINDOW)
    return sim.run()


@pytest.mark.parametrize("workers", [1, 2])
def test_cancelled_timer_never_fires_after_barrier(workers):
    """The cancel message lands at ~window 2; the timer deadline sits in
    window 6.  Whatever shard hosts which node, the handle must be dead
    by the time its window arrives."""
    res = _cancel_fleet(send_cancel=True, workers=workers)
    assert res.node_results[0]["timer_fired"] is False
    assert res.node_results[0]["handle_pending"] is False
    assert res.node_results[0]["messages_received"] == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_uncancelled_timer_fires(workers):
    """Positive control: without the cancel the timer must fire — proving
    the test above passes because of the cancel, not because barrier
    windows silently drop pending timers."""
    res = _cancel_fleet(send_cancel=False, workers=workers)
    assert res.node_results[0]["timer_fired"] is True


def test_cancel_path_is_worker_invariant():
    outs = [_cancel_fleet(True, k).canonical_output() for k in (1, 2)]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# lookahead enforcement
# ---------------------------------------------------------------------------

def test_post_below_window_latency_is_rejected():
    node = FleetNode(0, _machine())
    shard = Shard(0, min_latency=WINDOW)
    shard.add(node)
    with pytest.raises(ShardError, match="latency"):
        node.post(1, "too-fast", latency_cycles=WINDOW - 1)
    # at exactly the window it is legal (delivers strictly after this
    # window's end barrier for any send cycle > 0, and deterministically
    # at the next poll for send cycle 0)
    msg = node.post(1, "ok", latency_cycles=WINDOW)
    assert msg.deliver_cycle == node.machine.clock.cycles + WINDOW


def test_min_latency_below_window_is_rejected():
    with pytest.raises(ShardError, match="min_latency"):
        ShardedSim(lambda i, s: FleetNode(i, _machine()), 2,
                   window_cycles=WINDOW, min_latency=WINDOW // 2)


# ---------------------------------------------------------------------------
# cross-shard unblocking and fleet deadlock
# ---------------------------------------------------------------------------

class WaiterNode(FleetNode):
    """Blocks on a WaitFor that only an inbound message can satisfy."""

    def __init__(self, index, seed, **kwargs):
        super().__init__(index, _machine())
        self.woken_at = None
        self.spawn_traced(self._task(), name="waiter")

    def _task(self):
        yield WaitFor(lambda: bool(self.inbox), desc="fleet message")
        self.woken_at = self.machine.clock.cycles

    def result(self):
        out = super().result()
        out["woken_at"] = self.woken_at
        return out


class PokeNode(FleetNode):
    def __init__(self, index, seed, poke=True, **kwargs):
        super().__init__(index, _machine())
        if poke:
            self.spawn_traced(self._task(), name="poker")

    def _task(self):
        yield Sleep(50_000)
        self.post(0, "poke")


def _waiter_fleet(poke, workers):
    def build(index, seed, **kwargs):
        if index == 0:
            return WaiterNode(index, seed)
        return PokeNode(index, seed, poke=poke)

    return ShardedSim(build, 2, workers=workers, transport="inline",
                      window_cycles=WINDOW)


@pytest.mark.parametrize("workers", [1, 2])
def test_message_unblocks_waiter_across_shards(workers):
    res = _waiter_fleet(poke=True, workers=workers).run()
    woken = res.node_results[0]["woken_at"]
    # delivery cycle = 50_000 + WINDOW; the waiter resumes at (or after —
    # late delivery lands at the next poll) that instant
    assert woken is not None and woken >= 50_000 + WINDOW


@pytest.mark.parametrize("workers", [1, 2])
def test_blocked_fleet_with_no_messages_deadlocks(workers):
    with pytest.raises(SimDeadlock, match="waiter"):
        _waiter_fleet(poke=False, workers=workers).run()


def test_snapshot_ignores_process_global_fault_counter():
    """A fleet node's snapshot must be a pure function of the node: a
    fault injected elsewhere in this process (earlier tests, a co-hosted
    episode) must not show up — otherwise the serial run and a spawned
    worker's run disagree.  Faults on the node's own clock do count."""
    from repro import faults

    other = _machine()
    plan = faults.FaultPlan()
    plan.arm("transfer.hypercall-error", trigger_at=1, times=None)
    with faults.injected(plan, other):
        assert faults.fire("transfer.hypercall-error", other.clock)
    node = FleetNode(0, _machine())
    assert node.snapshot().faults_injected == 0
    with faults.injected(plan, node.machine):
        for _ in range(3):
            assert faults.fire("transfer.hypercall-error",
                               node.machine.clock)
    assert node.snapshot().faults_injected == 3


def test_duplicate_machine_index_rejected():
    shard = Shard(0, min_latency=WINDOW)
    shard.add(FleetNode(0, _machine()))
    with pytest.raises(ShardError, match="duplicate"):
        shard.add(FleetNode(0, _machine()))


def test_process_worker_failure_names_the_raising_function():
    """A builder that raises in a spawned worker surfaces as a ShardError
    carrying the worker's traceback and the shard's phase."""
    from repro.fleet.orchestrator import build_fleet_node

    # the service nodes are too small to load their kernel images; shard 0
    # (machines 0 and 2) is the first to report
    sim = ShardedSim(build_fleet_node, 3, workers=2, transport="process",
                     builder_kwargs={"machines": 2, "mem_kb": 8})
    with pytest.raises(ShardError) as info:
        sim.run()
    text = str(info.value)
    assert text.startswith("shard 0 (building) failed")
    assert "in alloc_many" in text
    assert "OutOfMemory" in text


def _build_unpoked_waiters(index, seed, **kwargs):
    """Module level, so spawned shard workers can import it."""
    if index == 0:
        return WaiterNode(index, seed)
    return PokeNode(index, seed, poke=False)


def test_process_transport_deadlock_names_blocked_tasks():
    """The deadlock report asks every worker for its blocked tasks; only
    then do they cross the pipe."""
    sim = ShardedSim(_build_unpoked_waiters, 2, workers=2,
                     transport="process", window_cycles=WINDOW)
    with pytest.raises(SimDeadlock, match="blocked: m0:waiter$"):
        sim.run()


class SleepyNode(FleetNode):
    """Advances by sleeping in host time: a hung worker."""

    def __init__(self, index, seed, **kwargs):
        super().__init__(index, _machine())

    def advance(self, horizon):
        time.sleep(60)
        return super().advance(horizon)


def _build_sleepy(index, seed, **kwargs):
    return SleepyNode(index, seed)


def test_hung_process_worker_is_reported(monkeypatch):
    """A worker that stops answering surfaces as a ShardError naming the
    shard and the horizon it was stepping to, after the reply timeout."""
    import multiprocessing

    from repro.sim import pool

    handle = pool._ProcessShard(multiprocessing.get_context("spawn"), 3,
                                [0], _build_sleepy, 0, {}, WINDOW)
    monkeypatch.setattr(pool, "WORKER_REPLY_TIMEOUT_S", 0.2)
    try:
        handle.step_begin(WINDOW, [])
        start = time.monotonic()
        with pytest.raises(ShardError, match=r"^shard 3 \(stepping to "
                                             r"horizon 200000\) worker hung"):
            handle.step_end()
        assert time.monotonic() - start < 30
    finally:
        handle.close()
