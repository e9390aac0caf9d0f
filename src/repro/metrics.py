"""System-wide metrics collection and reporting.

Gathers the counters every layer already maintains — hypercalls served,
traps emulated, interrupts delivered, TLB hit rates, buffer-cache hit
rates, ring traffic, mode switches — into one snapshot, diffable across a
workload run.  The examples and benches use it to explain *why* a
configuration is slower, not just that it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.core.mercury import Mercury
    from repro.guestos.kernel import Kernel
    from repro.hw.machine import Machine
    from repro.vmm.hypervisor import Hypervisor


@dataclass
class MetricsSnapshot:
    """One point-in-time reading of every counter."""

    cycles: int = 0
    # hardware
    tlb_hits: int = 0
    tlb_misses: int = 0
    tlb_flushes: int = 0
    interrupts_delivered: int = 0
    ipis_sent: int = 0
    disk_requests: int = 0
    nic_tx_packets: int = 0
    nic_rx_packets: int = 0
    # kernel
    syscalls: int = 0
    forks: int = 0
    execs: int = 0
    minor_faults: int = 0
    cow_breaks: int = 0
    prot_faults: int = 0
    context_switches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    journal_commits: int = 0
    # vmm
    hypercalls: int = 0
    traps_emulated: int = 0
    page_validations: int = 0
    world_switches: int = 0
    mmu_batches: int = 0
    mmu_batched_updates: int = 0
    # split-driver datapath (§5.2 notification avoidance)
    io_notifies_sent: int = 0
    io_notifies_suppressed: int = 0
    io_ring_batches: int = 0
    io_ring_batched_entries: int = 0
    io_rx_dropped: int = 0
    events_coalesced: int = 0
    # mercury
    mode_switches: int = 0
    vo_entries: int = 0
    # dependability (§8 failure-resistant switching)
    switch_aborts: int = 0
    switch_rollbacks: int = 0
    rollback_steps: int = 0
    switch_retries: int = 0
    pending_retries: int = 0
    failed_attempts: int = 0
    faults_injected: int = 0
    # chaos-to-recovery (VMI watchdog + ReHype-style microreboot)
    watchdog_scans: int = 0
    watchdog_detections: int = 0
    recoveries: int = 0
    recovery_failures: int = 0
    emergency_detaches: int = 0
    # tracing (observation-only: both stay 0 unless a tracer is installed)
    trace_events: int = 0
    trace_dropped: int = 0
    #: committed-switch retry distribution: retries-consumed -> #switches
    retry_histogram: dict = field(default_factory=dict)
    #: fleet request-latency distribution: log-bucketed cycles -> #requests
    #: (see :mod:`repro.fleet.latency`; empty outside fleet scenarios)
    latency_histogram: dict = field(default_factory=dict)

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        out = MetricsSnapshot()
        for name in _FIELD_NAMES:
            setattr(out, name, getattr(self, name) - getattr(other, name))
        for name in _DICT_FIELDS:
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(out, name, {
                k: v - theirs.get(k, 0)
                for k, v in mine.items() if v - theirs.get(k, 0)})
        return out

    @classmethod
    def merge(cls, snapshots) -> "MetricsSnapshot":
        """Combine snapshots of *disjoint* machine sets into one fleet-wide
        reading: every counter adds, the histogram fields merge key-wise,
        and ``cycles`` — each machine has its own clock in a sharded fleet
        — reports the furthest clock (max).  Associative and commutative,
        so merging per-shard merges equals merging all per-machine
        snapshots directly, however the fleet was partitioned."""
        out = cls()
        for snap in snapshots:
            for name in _FIELD_NAMES:
                if name == "cycles":
                    continue
                setattr(out, name, getattr(out, name) + getattr(snap, name))
            if snap.cycles > out.cycles:
                out.cycles = snap.cycles
            for name in _DICT_FIELDS:
                acc = getattr(out, name)
                for key, value in getattr(snap, name).items():
                    acc[key] = acc.get(key, 0) + value
        return out

    def merged_with(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Two-snapshot convenience form of :meth:`merge`."""
        return MetricsSnapshot.merge((self, other))

    @property
    def tlb_hit_rate(self) -> float:
        total = self.tlb_hits + self.tlb_misses
        return self.tlb_hits / total if total else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def avg_batch_size(self) -> float:
        return (self.mmu_batched_updates / self.mmu_batches
                if self.mmu_batches else 0.0)

    @property
    def avg_io_batch_size(self) -> float:
        return (self.io_ring_batched_entries / self.io_ring_batches
                if self.io_ring_batches else 0.0)

    @property
    def notify_suppression_ratio(self) -> float:
        total = self.io_notifies_sent + self.io_notifies_suppressed
        return self.io_notifies_suppressed / total if total else 0.0

    @property
    def elapsed_us(self) -> float:
        return self.cycles / 3000.0


#: histogram-valued fields: merged/diffed key-wise, not as scalars
_DICT_FIELDS = ("retry_histogram", "latency_histogram")

#: diffing a snapshot per-benchmark-iteration is hot; resolve the dataclass
#: introspection once instead of per __sub__ call (the histogram dicts are
#: diffed key-wise, not subtracted)
_FIELD_NAMES = tuple(f.name for f in fields(MetricsSnapshot)
                     if f.name not in _DICT_FIELDS)


class MetricsCollector:
    """Reads the counters of one machine/kernel/VMM/Mercury stack."""

    def __init__(self, machine: "Machine",
                 kernel: Optional["Kernel"] = None,
                 vmm: Optional["Hypervisor"] = None,
                 mercury: Optional["Mercury"] = None):
        self.machine = machine
        self.kernel = kernel
        self.vmm = vmm if vmm is not None else (
            mercury.vmm if mercury is not None else None)
        self.mercury = mercury

    def snapshot(self) -> MetricsSnapshot:
        m = self.machine
        snap = MetricsSnapshot(cycles=m.clock.cycles)
        snap.tlb_hits = sum(c.tlb.hits for c in m.cpus)
        snap.tlb_misses = sum(c.tlb.misses for c in m.cpus)
        snap.tlb_flushes = sum(c.tlb.flushes for c in m.cpus)
        snap.interrupts_delivered = m.intc.delivered
        snap.ipis_sent = m.intc.sent_ipis
        snap.disk_requests = m.disk.requests_served
        snap.nic_tx_packets = m.nic.tx_packets
        snap.nic_rx_packets = m.nic.rx_packets

        k = self.kernel
        if k is not None:
            snap.syscalls = k.syscalls_served
            snap.forks = k.procs.forks
            snap.execs = k.procs.execs
            snap.minor_faults = k.vmem.minor_faults
            snap.cow_breaks = k.vmem.cow_breaks
            snap.prot_faults = k.vmem.prot_faults
            snap.context_switches = k.scheduler.switches
            snap.cache_hits = k.fs.cache.hits
            snap.cache_misses = k.fs.cache.misses
            snap.journal_commits = k.fs.journal_commits
            snap.vo_entries = k.vo.entries

        if self.vmm is not None:
            snap.hypercalls = self.vmm.hypercalls_served
            snap.traps_emulated = self.vmm.traps_emulated
            snap.mmu_batches = self.vmm.mmu_batches
            snap.mmu_batched_updates = self.vmm.mmu_batched_updates
            io = getattr(self.vmm, "io_stats", None)
            if io is not None:
                snap.io_notifies_sent = io.notifies_sent
                snap.io_notifies_suppressed = io.notifies_suppressed
                snap.io_ring_batches = io.ring_batches
                snap.io_ring_batched_entries = io.ring_batched_entries
                snap.io_rx_dropped = io.rx_dropped
            if self.vmm.events is not None:
                snap.events_coalesced = self.vmm.events.total_coalesced()
            if self.vmm.page_info is not None:
                snap.page_validations = self.vmm.page_info.validations
            if self.vmm.scheduler is not None:
                snap.world_switches = self.vmm.scheduler.world_switches

        if self.mercury is not None:
            snap.mode_switches = len(self.mercury.switch_records)
            engine = self.mercury.engine
            snap.switch_aborts = engine.switch_aborts
            snap.switch_rollbacks = engine.switch_rollbacks
            snap.rollback_steps = engine.rollback_steps
            snap.switch_retries = engine.total_retries
            snap.pending_retries = engine.pending_retries
            snap.failed_attempts = engine.failed_attempts
            snap.retry_histogram = dict(engine.retry_histogram)
            watchdog = getattr(self.mercury, "watchdog", None)
            if watchdog is not None:
                snap.watchdog_scans = watchdog.scans
                snap.watchdog_detections = watchdog.detections
            recovery = getattr(self.mercury, "recovery", None)
            if recovery is not None:
                snap.recoveries = recovery.recoveries
                snap.recovery_failures = recovery.recovery_failures
                snap.emergency_detaches = recovery.emergency_detaches
        clock = self.machine.clock
        snap.faults_injected = clock.faults_injected
        tracer = clock.tracer
        if tracer is not None:
            snap.trace_events = tracer.recorded
            snap.trace_dropped = tracer.dropped
        return snap

    def measure(self, fn, *args, **kwargs):
        """Run ``fn`` and return (result, delta snapshot)."""
        before = self.snapshot()
        result = fn(*args, **kwargs)
        return result, self.snapshot() - before

    def switch_phases(self, tracer: Optional["trace.Tracer"] = None
                      ) -> dict[str, "trace.PhaseStat"]:
        """Per-phase switch-latency breakdown (§7.4 decomposition) from the
        given tracer, or the one bound to the machine's clock.  Empty when
        nothing is traced."""
        from repro import trace
        tracer = tracer if tracer is not None else self.machine.clock.tracer
        if tracer is None:
            return {}
        return trace.phase_summary(tracer.events(),
                                   names=trace.SWITCH_PHASES)


def format_report(delta: MetricsSnapshot, title: str = "Metrics") -> str:
    """Human-readable account of one measured interval."""
    lines = [title, ""]
    lines.append(f"  elapsed           {delta.elapsed_us:14.1f} µs")
    groups = [
        ("kernel", [("syscalls", delta.syscalls), ("forks", delta.forks),
                    ("execs", delta.execs),
                    ("context switches", delta.context_switches),
                    ("minor faults", delta.minor_faults),
                    ("COW breaks", delta.cow_breaks)]),
        ("memory", [("TLB hits", delta.tlb_hits),
                    ("TLB misses", delta.tlb_misses),
                    ("TLB flushes", delta.tlb_flushes)]),
        ("I/O", [("disk requests", delta.disk_requests),
                 ("packets tx", delta.nic_tx_packets),
                 ("packets rx", delta.nic_rx_packets),
                 ("cache hits", delta.cache_hits),
                 ("cache misses", delta.cache_misses),
                 ("journal commits", delta.journal_commits),
                 ("ring batches", delta.io_ring_batches),
                 ("notifies sent", delta.io_notifies_sent),
                 ("notifies suppressed", delta.io_notifies_suppressed),
                 ("events coalesced", delta.events_coalesced),
                 ("rx dropped", delta.io_rx_dropped)]),
        ("virtualization", [("hypercalls", delta.hypercalls),
                            ("traps emulated", delta.traps_emulated),
                            ("page validations", delta.page_validations),
                            ("mmu batches", delta.mmu_batches),
                            ("batched updates", delta.mmu_batched_updates),
                            ("mode switches", delta.mode_switches),
                            ("VO entries", delta.vo_entries)]),
        ("dependability", [("switch retries", delta.switch_retries),
                           ("busy collisions", delta.failed_attempts),
                           ("switch rollbacks", delta.switch_rollbacks),
                           ("rollback steps", delta.rollback_steps),
                           ("switch aborts", delta.switch_aborts),
                           ("faults injected", delta.faults_injected),
                           ("watchdog scans", delta.watchdog_scans),
                           ("corruptions found", delta.watchdog_detections),
                           ("recoveries", delta.recoveries),
                           ("recovery failures", delta.recovery_failures),
                           ("emergency detaches", delta.emergency_detaches)]),
        ("tracing", [("trace events", delta.trace_events),
                     ("trace dropped", delta.trace_dropped)]),
    ]
    for name, rows in groups:
        shown = [(label, v) for label, v in rows if v]
        if not shown:
            continue
        lines.append(f"  {name}:")
        for label, v in shown:
            lines.append(f"    {label:<18}{v:>12}")
    if delta.mmu_batches:
        lines.append(f"  avg batch size    {delta.avg_batch_size:14.1f}")
    if delta.io_ring_batches:
        lines.append(f"  avg io batch      {delta.avg_io_batch_size:14.1f}")
    if delta.io_notifies_sent + delta.io_notifies_suppressed:
        lines.append(
            f"  notify suppression{delta.notify_suppression_ratio:14.1%}")
    if delta.retry_histogram:
        dist = ", ".join(f"{k}x{v}"
                         for k, v in sorted(delta.retry_histogram.items()))
        lines.append(f"  retry histogram   {dist:>14}")
    if delta.tlb_hits + delta.tlb_misses:
        lines.append(f"  TLB hit rate      {delta.tlb_hit_rate:14.1%}")
    if delta.cache_hits + delta.cache_misses:
        lines.append(f"  cache hit rate    {delta.cache_hit_rate:14.1%}")
    return "\n".join(lines)
