"""SimScheduler mechanics: ordering, blocking, determinism, failure modes.

These tests exercise the scheduler with plain bookkeeping generators (no
guest kernel) so every assertion is about scheduling order alone; the
contended-switch behaviour built on top lives in
``tests/sim/test_contended_switch.py``.
"""

from __future__ import annotations

import pytest

from repro import Machine, small_config
from repro.hw.clock import Clock
from repro.sim import (Join, SimDeadlock, SimError, SimScheduler, SimState,
                       Sleep, WaitFor, Yield, run_to_completion)
from repro.sim.scheduler import preempt_point


@pytest.fixture
def sched(machine):
    return SimScheduler(machine)


def logger(log, name, yields):
    """A task that logs (name, i) around each yield point."""
    for i, point in enumerate(yields):
        log.append((name, i))
        yield point


# ----------------------------------------------------------------------
# run_to_completion: the sequential compatibility path
# ----------------------------------------------------------------------

def test_run_to_completion_returns_generator_value():
    def gen():
        yield
        yield Yield()
        return 42

    assert run_to_completion(gen()) == 42


def test_run_to_completion_sleep_advances_given_clock():
    clock = Clock()

    def gen():
        yield Sleep(500)
        yield Sleep(250)

    run_to_completion(gen(), clock=clock)
    assert clock.cycles == 750


def test_run_to_completion_sleep_without_clock_is_noop():
    def gen():
        yield Sleep(500)

    run_to_completion(gen())  # no clock: time simply does not advance


def test_run_to_completion_rejects_blocking_waitfor():
    def gen():
        yield WaitFor(lambda: False)

    with pytest.raises(SimError):
        run_to_completion(gen())


def test_run_to_completion_passes_satisfied_waitfor():
    def gen():
        yield WaitFor(lambda: True)
        return "ok"

    assert run_to_completion(gen()) == "ok"


# ----------------------------------------------------------------------
# ordering: (cycle, seq) is the whole story
# ----------------------------------------------------------------------

def test_same_cycle_tasks_round_robin_in_spawn_order(sched):
    log = []
    sched.spawn(logger(log, "a", [None, None]), name="a")
    sched.spawn(logger(log, "b", [None, None]), name="b")
    sched.run()
    assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]


def test_sleep_orders_resumption_by_deadline(sched):
    log = []
    sched.spawn(logger(log, "late", [Sleep(1000)]), name="late")
    sched.spawn(logger(log, "early", [Sleep(100), None]), name="early")
    sched.run()
    # first slices run in spawn order at cycle 0; wakeups by deadline
    assert log == [("late", 0), ("early", 0), ("early", 1)]


def test_sleep_advances_clock_to_deadline(sched, machine):
    seen = []

    def napper():
        yield Sleep(5000)
        seen.append(machine.clock.cycles)

    sched.spawn(napper(), name="napper")
    sched.run()
    assert seen == [5000]


def test_timer_events_interleave_with_task_wakeups(sched, machine):
    """A timer deadline between two task resume points fires between them."""
    log = []
    machine.clock.schedule(300, lambda: log.append(("timer", machine.clock.cycles)))

    def task():
        yield Sleep(100)
        log.append(("task", machine.clock.cycles))
        yield Sleep(400)
        log.append(("task", machine.clock.cycles))

    sched.spawn(task(), name="t")
    sched.run()
    assert log == [("task", 100), ("timer", 300), ("task", 500)]


def test_same_deadline_timer_vs_task_breaks_tie_by_seq(sched, machine):
    log = []

    def task():
        # the Sleep wakeup gets its seq ticket when the slice parks, i.e.
        # before the timer below is scheduled from the other task
        yield Sleep(200)
        log.append("task")

    def scheduler_task():
        machine.clock.schedule(200, lambda: log.append("timer"))
        yield

    sched.spawn(task(), name="sleeper")
    sched.spawn(scheduler_task(), name="armer")
    sched.run()
    assert log == ["task", "timer"]


# ----------------------------------------------------------------------
# blocking: WaitFor / Join
# ----------------------------------------------------------------------

def test_waitfor_blocks_until_predicate_holds(sched):
    box = []

    def producer():
        yield Sleep(1000)
        box.append("ready")

    def consumer():
        yield WaitFor(lambda: bool(box), desc="box filled")
        box.append("consumed")

    sched.spawn(consumer(), name="consumer")
    sched.spawn(producer(), name="producer")
    sched.run()
    assert box == ["ready", "consumed"]


def test_join_waits_for_task_result(sched):
    def worker():
        yield Sleep(500)
        return 7

    def waiter(w):
        yield Join(w)
        return w.result * 2

    w = sched.spawn(worker(), name="worker")
    j = sched.spawn(waiter(w), name="waiter")
    sched.run()
    assert j.result == 14
    assert w.state is SimState.DONE


def test_satisfied_waitfor_never_blocks(sched):
    def gen():
        yield WaitFor(lambda: True)
        return "through"

    task = sched.spawn(gen(), name="t")
    sched.run()
    assert task.result == "through"
    assert task.slices == 2  # both slices ran; no blocked residence


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------

def test_deadlock_raises_and_names_blocked_tasks(sched):
    def stuck():
        yield WaitFor(lambda: False, desc="never")

    sched.spawn(stuck(), name="stuck-one")
    with pytest.raises(SimDeadlock, match="stuck-one"):
        sched.run()


def test_task_exception_propagates_and_marks_failed(sched):
    def boom():
        yield
        raise ValueError("kaput")

    task = sched.spawn(boom(), name="boom")
    with pytest.raises(ValueError, match="kaput"):
        sched.run()
    assert task.state is SimState.FAILED
    assert isinstance(task.error, ValueError)


def test_unknown_yield_value_raises_simerror(sched):
    def weird():
        yield "not-a-yield-point"

    sched.spawn(weird(), name="weird")
    with pytest.raises(SimError, match="weird"):
        sched.run()


def test_max_steps_guards_runaway_loops(machine):
    sched = SimScheduler(machine, max_steps=50)

    def forever():
        while True:
            yield

    sched.spawn(forever(), name="forever")
    with pytest.raises(SimError, match="50 steps"):
        sched.run()


def test_nested_run_rejected(sched, machine):
    def inner():
        other = SimScheduler(machine)
        with pytest.raises(SimError, match="already installed"):
            other.run()
        yield

    sched.spawn(inner(), name="nest")
    sched.run()


def test_active_slot_installed_only_while_running(sched, machine):
    states = []

    def probe():
        states.append(machine.clock.sched)
        yield

    assert machine.clock.sched is None
    sched.spawn(probe(), name="probe")
    sched.run()
    assert states == [sched]
    assert machine.clock.sched is None


def test_preempt_point_is_noop_without_scheduler(machine):
    assert preempt_point(machine.boot_cpu) == 0


# ----------------------------------------------------------------------
# determinism: same scenario, same trace, bit for bit
# ----------------------------------------------------------------------

def _interleaving_run():
    machine = Machine(small_config())
    sched = SimScheduler(machine)
    log = []

    def worker(name, naps):
        for n in naps:
            yield Sleep(n)
            log.append((name, machine.clock.cycles))

    def ticker():
        for _ in range(4):
            machine.clock.schedule(130, lambda: log.append(
                ("tick", machine.clock.cycles)))
            yield Sleep(130)

    sched.spawn(worker("a", [100, 100, 100]), name="a")
    sched.spawn(worker("b", [70, 140, 70]), name="b")
    sched.spawn(ticker(), name="tick")
    sched.run()
    return log


def test_interleaving_is_bit_reproducible():
    first = _interleaving_run()
    second = _interleaving_run()
    assert first == second
    # and the interleaving is genuinely mixed, not accidentally serial
    assert len({name for name, _ in first}) == 3
