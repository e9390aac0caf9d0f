"""The golden-trace scenarios: one canonical switch trace per situation.

Each scenario builds a fresh stack, runs exactly one attach or detach under
a tracer, validates well-formedness, and returns the *canonical* rendering
(:func:`repro.trace.canonical_lines`): event kinds, nesting, phase ordering
and symbolic args — never raw cycle values — so the goldens are stable
across cost-model tuning and only change when the switch pipeline's
*structure* changes.

Regenerate with ``python tests/goldens/regen.py`` and commit the result
with ``REGEN_GOLDENS`` in the commit message (CI rejects golden changes
without the marker).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro import Machine, Mercury, faults, small_config, trace
from repro.errors import SwitchAborted


def _stack(num_cpus: int = 1) -> tuple[Machine, Mercury]:
    cfg = dataclasses.replace(small_config(), num_cpus=num_cpus)
    machine = Machine(cfg)
    mercury = Mercury(machine)
    mercury.create_kernel()
    return machine, mercury


def _canon(tracer: trace.Tracer) -> list[str]:
    events = tracer.events()
    trace.validate(events, dropped=tracer.dropped)
    return trace.canonical_lines(events)


def attach_up() -> list[str]:
    """Uniprocessor attach: the paper's headline ~0.2 ms path (§7.4)."""
    machine, mercury = _stack(num_cpus=1)
    with trace.tracing(machine) as tracer:
        mercury.attach()
    return _canon(tracer)


def detach_up() -> list[str]:
    """Uniprocessor detach (attach runs untraced first)."""
    machine, mercury = _stack(num_cpus=1)
    mercury.attach()
    with trace.tracing(machine) as tracer:
        mercury.detach()
    return _canon(tracer)


def attach_smp() -> list[str]:
    """Two-CPU attach: IPI + gather + overlapped secondary reload (§5.4)."""
    machine, mercury = _stack(num_cpus=2)
    with trace.tracing(machine) as tracer:
        mercury.attach()
    return _canon(tracer)


def detach_smp() -> list[str]:
    """Two-CPU detach through the same rendezvous protocol."""
    machine, mercury = _stack(num_cpus=2)
    mercury.attach()
    with trace.tracing(machine) as tracer:
        mercury.detach()
    return _canon(tracer)


def attach_rollback_up() -> list[str]:
    """Attach aborted by a persistent transfer fault: the trace must show
    the fault, the newest-first undo steps, and the abort."""
    machine, mercury = _stack(num_cpus=1)
    mercury.engine.max_retries = 0
    plan = faults.FaultPlan()
    plan.arm(faults.TRANSFER_HYPERCALL, times=None)
    with trace.tracing(machine) as tracer, faults.injected(plan, machine):
        try:
            mercury.attach()
        except SwitchAborted:
            pass
        else:
            raise AssertionError("fault plan failed to abort the attach")
    return _canon(tracer)


def detach_rollback_smp() -> list[str]:
    """Two-CPU detach aborted by a secondary reload failure after the
    control processor committed its own work (§5.1.3's hard case)."""
    machine, mercury = _stack(num_cpus=2)
    mercury.attach()
    mercury.engine.max_retries = 0
    plan = faults.FaultPlan()
    plan.arm(faults.RELOAD_SECONDARY, cpu_id=1, times=None)
    with trace.tracing(machine) as tracer, faults.injected(plan, machine):
        try:
            mercury.detach()
        except SwitchAborted:
            pass
        else:
            raise AssertionError("fault plan failed to abort the detach")
    return _canon(tracer)


def _recovery(num_cpus: int, site: str) -> list[str]:
    """Detect → emergency-detach → re-precache → re-attach, traced.

    The stack hosts a guest (the victim population of every VMM fault),
    the watchdog convicts in one scan, and the microreboot runs to
    completion — so the golden pins the whole chaos-to-recovery span tree:
    ``watchdog.corruption`` → ``recovery.microreboot`` wrapping
    ``recovery.emergency-detach`` / ``recovery.re-precache`` /
    ``recovery.re-attach`` and the guest re-host instants."""
    from repro.core.recovery import RecoveryManager
    from repro.watchdog import Watchdog

    machine, mercury = _stack(num_cpus=num_cpus)
    mercury.attach()
    mercury.host_guest(image_pages=8)
    watchdog = Watchdog(mercury, suspect_scans=1)
    manager = RecoveryManager(mercury)
    with trace.tracing(machine) as tracer:
        faults.inject_vmm_fault(site, mercury)
        verdict = watchdog.scan()
        if verdict is None:
            raise AssertionError(f"{site} escaped the watchdog scan")
        record = manager.recover(verdict)
        if not record.success:
            raise AssertionError(f"recovery from {site} failed")
    return _canon(tracer)


def recovery_up() -> list[str]:
    """Uniprocessor microreboot from a corrupted page-info table."""
    return _recovery(num_cpus=1, site=faults.VMM_PAGEINFO_CORRUPT)


def recovery_smp() -> list[str]:
    """Two-CPU microreboot from a dropped trap vector: the emergency
    detach reloads the secondary inline (no rendezvous — the VMM state is
    distrusted), then the re-attach runs the normal SMP protocol."""
    return _recovery(num_cpus=2, site=faults.VMM_TRAP_VECTOR_DROPPED)


SCENARIOS: dict[str, Callable[[], list[str]]] = {
    "attach_up": attach_up,
    "detach_up": detach_up,
    "attach_smp": attach_smp,
    "detach_smp": detach_smp,
    "attach_rollback_up": attach_rollback_up,
    "detach_rollback_smp": detach_rollback_smp,
    "recovery_up": recovery_up,
    "recovery_smp": recovery_smp,
}
