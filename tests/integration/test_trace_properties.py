"""Trace well-formedness properties under switch storms.

Whatever interleaving of switches, retries, aborts, injected faults and
workload syscalls runs, the recorded trace must stay well-formed: spans
strictly nest, per-CPU timestamps never decrease (even though the SMP
coordinator rewinds the shared clock to overlap secondary work), every
begin has a matching end across ``SwitchAborted`` unwinds, and ring
overflow drops oldest-first with a counted ``trace_dropped`` metric.

Reuses the storm machinery of ``test_switch_storm``.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Machine, Mercury, faults, small_config, trace
from repro.errors import ReproError
from repro.metrics import MetricsCollector

from tests.integration.test_switch_storm import OPS, _apply, _fresh, _settle


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(OPS, max_size=12))
def test_storm_trace_is_well_formed(ops):
    mercury = _fresh()
    plan = faults.FaultPlan()
    state = {"children": []}
    with trace.tracing(mercury.machine) as tracer:
        with faults.injected(plan, mercury.machine):
            for op in ops:
                try:
                    _apply(mercury, plan, op, state)
                except ReproError:
                    pass
        _settle(mercury)
    assert trace.validate(tracer.events(), dropped=tracer.dropped) == []


UP_SITES = [s.name for s in faults.SWITCH_SITES if not s.smp_only]
SMP_SITES = [s.name for s in faults.SWITCH_SITES if s.smp_only]


@pytest.mark.parametrize("site", UP_SITES)
@pytest.mark.parametrize("start_attached", [False, True])
def test_aborted_switch_trace_balances(site, start_attached):
    """A terminally aborted switch (fault at any UP-reachable site) leaves
    a balanced trace: the rollback unwinds through the same span context
    managers the forward path opened."""
    mercury = _fresh()
    if start_attached:
        mercury.attach()
    mercury.engine.max_retries = 0
    plan = faults.FaultPlan()
    plan.arm(site, times=None)
    with trace.tracing(mercury.machine) as tracer, \
            faults.injected(plan, mercury.machine):
        try:
            if start_attached:
                mercury.detach()
            else:
                mercury.attach()
        except ReproError:
            pass
    assert trace.validate(tracer.events(), dropped=tracer.dropped) == []


@pytest.mark.parametrize("site", SMP_SITES)
def test_aborted_smp_switch_trace_balances(site):
    """Same property across the rendezvous-only fault sites — including
    the clock-rewinding overlapped secondary reloads."""
    cfg = dataclasses.replace(small_config(), num_cpus=2)
    mercury = Mercury(Machine(cfg))
    mercury.create_kernel()
    mercury.engine.max_retries = 0
    plan = faults.FaultPlan()
    plan.arm(site, times=None)
    with trace.tracing(mercury.machine) as tracer, \
            faults.injected(plan, mercury.machine):
        try:
            mercury.attach()
        except ReproError:
            pass
    events = tracer.events()
    assert trace.validate(events, dropped=tracer.dropped) == []
    # and per-CPU monotonicity specifically survived the clock rewind
    last: dict[int, int] = {}
    for ev in events:
        assert ev.ts >= last.get(ev.cpu_id, 0)
        last[ev.cpu_id] = ev.ts


@given(st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=64))
@settings(max_examples=40, deadline=None)
def test_ring_overflow_drops_oldest_first(capacity, n):
    clock = SimpleNamespace(cycles=0)
    tracer = trace.Tracer(clock, capacity_per_cpu=capacity)
    for i in range(n):
        clock.cycles += 1
        tracer.instant(0, f"ev{i}")
    events = tracer.events()
    assert len(events) == min(n, capacity)
    assert [e.name for e in events] == \
        [f"ev{i}" for i in range(max(0, n - capacity), n)]
    assert tracer.dropped == max(0, n - capacity)
    assert tracer.recorded == n


def test_trace_dropped_surfaces_as_metric():
    """Overflow is not silent: the metrics snapshot reports both the
    lifetime event count and the evicted count of the installed tracer."""
    mercury = _fresh()
    collector = MetricsCollector(mercury.machine, kernel=mercury.kernel,
                                 mercury=mercury)
    tiny = trace.Tracer(mercury.machine.clock, capacity_per_cpu=4)
    with trace.tracing(tiny) as tracer:
        mercury.attach()
        snap = collector.snapshot()
    assert tracer.dropped > 0
    assert snap.trace_dropped == tracer.dropped
    assert snap.trace_events == tracer.recorded
    assert tracer.recorded > tracer.capacity_per_cpu
    # with no tracer installed the fields read zero
    snap2 = collector.snapshot()
    assert snap2.trace_events == 0 and snap2.trace_dropped == 0


def test_truncated_trace_still_builds_span_trees():
    """A ring small enough to evict the opening BEGINs still yields a
    usable (validated, truncation-tolerant) span forest."""
    mercury = _fresh()
    tiny = trace.Tracer(mercury.machine.clock, capacity_per_cpu=8)
    with trace.tracing(tiny) as tracer:
        mercury.attach()
        mercury.detach()
    events = tracer.events()
    assert trace.validate(events, dropped=tracer.dropped) == []
    forests = trace.build_span_trees(events)
    assert forests  # something survived
    for forest in forests.values():
        for root in forest:
            for node in root.walk():
                if node.closed:
                    assert node.end >= node.start
