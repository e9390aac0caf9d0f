"""Per-clock simulation context: machines on distinct clocks are isolated.

The tracer, the fault plan and the running scheduler are carried by each
machine's clock, so two machines built in one process — the inline fleet
transport, co-hosted episodes — cannot leak observation, injection or
interrupt windows into each other.  Each test pairs the isolation check
with a control showing the same action on the machine's own clock does
take effect.
"""

from __future__ import annotations

from repro import Machine, Mercury, faults, small_config, trace
from repro.sim import SimScheduler


def _stack() -> Mercury:
    mercury = Mercury(Machine(small_config()))
    mercury.create_kernel(image_pages=8)
    return mercury


def test_tracer_bound_on_a_records_nothing_from_b():
    a, b = _stack(), _stack()
    assert a.machine.clock is not b.machine.clock
    with trace.tracing(a.machine) as tracer:
        assert b.attach() is not None
        assert b.detach() is not None
    assert tracer.events() == []
    assert b.machine.clock.tracer is None

    with trace.tracing(tracer):
        a.attach()
    assert "switch.commit" in {e.name for e in tracer.events()}


def test_plan_armed_on_a_never_fires_on_b():
    a, b = _stack(), _stack()
    plan = faults.FaultPlan()
    plan.arm(faults.TRANSFER_HYPERCALL, times=1)
    with faults.injected(plan, a.machine):
        rec = b.attach()
    assert rec is not None and rec.rollbacks == 0
    assert plan.injected == 0
    assert b.machine.clock.faults_injected == 0

    with faults.injected(plan, a.machine):
        rec = a.attach()
    assert rec is not None and rec.rollbacks == 1
    assert plan.injected == 1
    assert a.machine.clock.faults_injected == 1
    assert b.machine.clock.faults_injected == 0


def _pumped_by_syscall(runner: Mercury, target: Mercury) -> bool:
    """Run one task under ``runner``'s scheduler that arms an
    already-due timer on ``runner``'s clock, then makes a syscall on
    ``target``: True if that syscall's interrupt window fired the timer."""
    fired: list = []
    seen: list = []

    def task():
        runner.machine.clock.schedule(0, lambda: fired.append(True))
        target.kernel.syscall(target.machine.boot_cpu, "getpid")
        seen.append(bool(fired))
        yield

    sched = SimScheduler(runner.machine)
    sched.spawn(task(), name="probe")
    sched.run()
    assert fired == [True]  # the timer always fires by the end of the run
    return seen[0]


def test_b_sensitive_ops_never_pump_a_running_scheduler():
    a, b = _stack(), _stack()
    assert _pumped_by_syscall(a, b) is False
    assert _pumped_by_syscall(a, a) is True
