"""Switch-storm stress: random interleavings of attach/detach requests,
workload syscalls, and fault (re)arming.

The property (§4.3 + §8): no matter how switches, retries, aborts and
injected faults interleave, the kernel always lands in exactly one
well-defined mode — NATIVE or PARTIAL_VIRTUAL — with the full invariant
suite green, and stays usable (one clean switch round-trip still works).

Faults are drawn from the switch-site registry, so a newly added site is
automatically storm-tested too.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Machine, Mercury, faults, small_config
from repro.core.invariants import check_all
from repro.core.mercury import Mode
from repro.core.switch import Direction
from repro.errors import ReproError
from repro.metrics import MetricsCollector
from repro.params import PAGE_SIZE

#: the storm runs on one CPU, so only the UP-reachable sites are armable
ARMABLE = [s.name for s in faults.SWITCH_SITES if not s.smp_only]

SIMPLE_OPS = st.sampled_from([
    "fork", "reap", "mmap", "touch",
    "attach", "detach", "request-attach", "request-detach",
    "drain", "clear-faults",
])
ARM_OPS = st.tuples(st.just("arm"), st.sampled_from(ARMABLE),
                    st.integers(min_value=1, max_value=3),
                    st.sampled_from([1, 2, None]))
OPS = st.one_of(SIMPLE_OPS, ARM_OPS)


def _fresh() -> Mercury:
    mercury = Mercury(Machine(small_config(mem_kb=32768)))
    mercury.create_kernel(image_pages=8)
    return mercury


def _apply(mercury: Mercury, plan: faults.FaultPlan, op, state) -> None:
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    if isinstance(op, tuple):
        _, site_name, trigger_at, times = op
        plan.arm(site_name, trigger_at=trigger_at, times=times)
        return
    if op == "clear-faults":
        plan.disarm_all()
    elif op == "fork" and len(state["children"]) < 4:
        pid = kernel.syscall(cpu, "fork")
        state["children"].append(kernel.procs.get(pid))
    elif op == "reap" and state["children"]:
        kernel.run_and_reap(cpu, state["children"].pop())
    elif op == "mmap":
        kernel.syscall(cpu, "mmap", 2 * PAGE_SIZE, True)
    elif op == "touch":
        base = kernel.syscall(cpu, "mmap", PAGE_SIZE)
        kernel.vmem.access(cpu, kernel.scheduler.current, base, write=True)
    elif op == "attach" and mercury.mode is Mode.NATIVE:
        mercury.attach()
    elif op == "detach" and mercury.mode is not Mode.NATIVE:
        mercury.detach()
    elif op == "request-attach":
        # raw request, no drain: leaves retry timers in flight on purpose
        mercury.engine.request(Direction.TO_VIRTUAL, cpu)
    elif op == "request-detach":
        mercury.engine.request(Direction.TO_NATIVE, cpu)
    elif op == "drain":
        mercury.machine.clock.drain_until_idle(max_events=5)
        mercury.machine.poll()


def _settle(mercury: Mercury) -> None:
    """Fault-free quiesce: let every leftover retry timer run to its end."""
    for _ in range(200):
        if mercury.machine.clock.next_deadline() is None:
            break
        try:
            mercury.machine.clock.drain_until_idle(max_events=10)
            mercury.machine.poll()
        except ReproError:
            pass


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(OPS, max_size=15))
def test_storm_always_settles_into_a_consistent_mode(ops):
    mercury = _fresh()
    plan = faults.FaultPlan()
    state = {"children": []}
    with faults.injected(plan, mercury.machine):
        for op in ops:
            try:
                _apply(mercury, plan, op, state)
            except ReproError:
                # aborted/vetoed operations are allowed; torn state is not
                pass
            assert mercury.mode in (Mode.NATIVE, Mode.PARTIAL_VIRTUAL)
    _settle(mercury)

    # the property: exactly one well-defined mode, all invariants green
    assert mercury.mode in (Mode.NATIVE, Mode.PARTIAL_VIRTUAL)
    violations = check_all(mercury)
    assert violations == [], violations

    # and the machine is still serviceable: a clean round-trip commits
    if mercury.mode is Mode.NATIVE:
        assert mercury.attach() is not None
        assert mercury.detach() is not None
    else:
        assert mercury.detach() is not None
        assert mercury.attach() is not None
    assert check_all(mercury) == []


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(OPS, max_size=12))
def test_storm_metrics_never_go_inconsistent(ops):
    """Accounting sanity under the same storm: counters are monotone and
    agree with each other."""
    mercury = _fresh()
    plan = faults.FaultPlan()
    state = {"children": []}
    with faults.injected(plan, mercury.machine):
        for op in ops:
            try:
                _apply(mercury, plan, op, state)
            except ReproError:
                pass
    _settle(mercury)

    snap = MetricsCollector(mercury.machine, kernel=mercury.kernel,
                            mercury=mercury).snapshot()
    records = mercury.switch_records
    assert snap.switch_aborts >= 0
    assert snap.switch_rollbacks >= sum(r.rollbacks for r in records)
    assert sum(snap.retry_histogram.values()) == len(records)
    assert snap.switch_retries == sum(r.retries for r in records)
    assert plan.injected == len(plan.log)
