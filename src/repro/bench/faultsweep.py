"""Fault-rate sweep: dependability counters vs. injected fault probability.

The §8 companion to the performance benches: drive repeated attach/detach
round-trips with a live process/memory population while arming faults at
randomly drawn switch-pipeline sites with probability ``fault_rate`` per
switch, and record what the engine did about it — commits, rollbacks,
bounded-retry consumption, terminal aborts.

Randomness is a seeded :class:`random.Random` *deciding which faults to
arm*; each armed fault itself is the deterministic :mod:`repro.faults`
machinery, so a sweep point is exactly reproducible from (seed, rate) —
which also makes points order-independent, and the sweep fans across
worker processes (``workers=``) without changing a single number.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from repro import Machine, Mercury, faults, small_config
from repro.core.invariants import check_all
from repro.core.mercury import Mode
from repro.errors import SwitchAborted
from repro.hw.machine import isolated_machine_ids
from repro.metrics import MetricsCollector
from repro.sim.pool import parallel_episodes

#: probability that an armed fault is persistent (never clears, so the
#: switch must terminally abort) rather than single-shot
PERSISTENT_SHARE = 0.25

DEFAULT_RATES = (0.0, 0.1, 0.25, 0.5)


@dataclass
class SweepPoint:
    """Engine behaviour over one run at one fault probability."""

    fault_rate: float
    switch_attempts: int
    commits: int
    aborts: int
    rollbacks: int
    retries: int
    faults_injected: int
    invariant_violations: int
    mean_switch_us: float


def _workload_tick(mercury: Mercury, rng: random.Random) -> None:
    """Keep a live page-table/process population between switches so the
    transfer loops have real state to move (and to tear)."""
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    from repro.params import PAGE_SIZE
    if rng.random() < 0.5:
        pid = kernel.syscall(cpu, "fork")
        kernel.run_and_reap(cpu, kernel.procs.get(pid))
    else:
        base = kernel.syscall(cpu, "mmap", 2 * PAGE_SIZE, True)
        kernel.vmem.access(cpu, kernel.scheduler.current, base, write=True)


def sweep_point(rate: float, rounds: int = 24,
                seed: int = 1234) -> SweepPoint:
    """One fresh Mercury stack at one fault probability; a pure function
    of ``(rate, rounds, seed)`` (module-level so worker processes can
    import it by reference)."""
    armable = [s.name for s in faults.SWITCH_SITES if not s.smp_only]
    rng = random.Random(f"faultsweep:{seed}:{rate}")
    with isolated_machine_ids():
        mercury = Mercury(Machine(small_config(mem_kb=32768)))
        mercury.create_kernel(image_pages=8)
    collector = MetricsCollector(mercury.machine, kernel=mercury.kernel,
                                 mercury=mercury)
    commits = aborts = injected = 0
    for _ in range(rounds):
        _workload_tick(mercury, rng)
        plan = faults.FaultPlan()
        if rng.random() < rate:
            times = None if rng.random() < PERSISTENT_SHARE else 1
            plan.arm(rng.choice(armable), times=times)
        with faults.injected(plan, mercury.machine):
            try:
                rec = (mercury.attach() if mercury.mode is Mode.NATIVE
                       else mercury.detach())
                if rec is not None:
                    commits += 1
            except SwitchAborted:
                aborts += 1
        injected += plan.injected
    freq = mercury.machine.config.cost.freq_mhz
    records = mercury.switch_records
    mean_us = (sum(r.us(freq) for r in records)
               / len(records)) if records else 0.0
    snap = collector.snapshot()
    return SweepPoint(
        fault_rate=rate,
        switch_attempts=rounds,
        commits=commits,
        aborts=aborts,
        rollbacks=snap.switch_rollbacks,
        retries=snap.switch_retries + snap.pending_retries,
        faults_injected=injected,
        invariant_violations=len(check_all(mercury)),
        mean_switch_us=round(mean_us, 2),
    )


def run_fault_sweep(rates=DEFAULT_RATES, rounds: int = 24,
                    seed: int = 1234, workers: int = 1) -> list[SweepPoint]:
    """One :func:`sweep_point` per rate, optionally across processes."""
    return parallel_episodes(
        sweep_point, [(rate, rounds, seed) for rate in rates],
        workers=workers)


def sweep_as_rows(points: list[SweepPoint]) -> list[dict]:
    return [asdict(p) for p in points]
