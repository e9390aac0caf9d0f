"""VMI-style corruption watchdog for the attached VMM (ROADMAP item 4).

The low-overhead VMI monitoring line of work (PAPERS.md) shows that an
observer *outside* the monitored TCB can detect kernel/hypervisor object
corruption by periodically re-deriving invariants over a handful of
critical structures — without pausing the system and at a per-scan cost
that is noise next to the workload.  This module is that observer for the
Mercury stack: a :class:`Watchdog` owns a catalogue of invariant checks
over the attached VMM's structures (trap tables, the columnar
:class:`~repro.vmm.page_info.PageInfoTable`, event-channel masks, grant
entries, split-driver backends, I/O ring indices, balloon-ring doorbells,
VO reference counts)
and produces a **typed verdict** — a :class:`~repro.errors.VmmCorruption`
naming the failed invariant — instead of letting the corruption fester
until a guest-visible crash.

Design points that matter for determinism and honesty:

- Scans read simulator state directly (the "trace/metrics plane"): they
  never call into the VMM under scrutiny, so a wedged backend or poisoned
  grant table cannot hang the scanner.  The one derived check — the
  page-info digest — rebuilds a *fresh* reference table from the pinned
  address spaces and compares it with
  :meth:`~repro.vmm.page_info.PageInfoTable.semantically_equal`; the
  reference recompute runs on an uncharged stub CPU so the digest costs
  the scan budget, not a full re-validation.
- A scan charges a flat ``CYC_SCAN`` to the clock.  At the default
  2 ms interval that is well under the 2 % steady-state overhead gate.
- Liveness-style checks (backend stuck in poll, channel pending+masked)
  can be *legitimately* true mid-operation: ``BlkBack`` runs timer events
  while polling with its channel masked.  Those checks therefore use a
  double-observation rule — a victim must look wedged for
  ``suspect_scans`` consecutive scans before the verdict fires.  Property
  tests that scan a quiescent stack pass ``suspect_scans=1`` to get the
  within-one-scan-period detection guarantee.
- The watchdog never recovers anything itself.  It records the verdict in
  ``pending_verdict`` (and emits a ``watchdog.corruption`` trace instant);
  the recovery manager (:mod:`repro.core.recovery`) or the self-healer
  consumes it from task context, where the VO refcounts are quiescent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import trace
from repro.errors import PageValidationError, RingError, VmmCorruption
from repro.vmm.page_info import PageInfoTable

if TYPE_CHECKING:
    from repro.core.mercury import Mercury
    from repro.hw.clock import TimerHandle

#: flat per-scan cycle charge (≈0.7 µs at 3 GHz) — the "low overhead" in
#: low-overhead VMI; the page-info digest is folded into this constant
#: rather than re-charged per PTE
CYC_SCAN = 2_000

#: default scan period: 2 ms of simulated time
DEFAULT_INTERVAL_CYCLES = 6_000_000

#: a healthy VO refcount is 0 at rest and single digits mid-pump; anything
#: past this is a runaway count that would wedge every future mode switch
#: (the ``vmm.refcount-runaway`` site — "balloon" now means the memory
#: balloon driver, not this)
REFCOUNT_SUSPECT_THRESHOLD = 512


class _UnchargedCpu:
    """Stub CPU for the reference page-info recompute: validation logic
    runs, cycle accounting doesn't."""

    class _Cost:
        cyc_pte_validate = 0

    cost = _Cost()

    def charge(self, cycles: int) -> None:
        pass


class Watchdog:
    """Periodic invariant scanner over one Mercury stack."""

    def __init__(self, mercury: "Mercury", *,
                 suspect_scans: int = 2,
                 refcount_threshold: int = REFCOUNT_SUSPECT_THRESHOLD):
        self.mercury = mercury
        self.machine = mercury.machine
        self.suspect_scans = max(1, suspect_scans)
        self.refcount_threshold = refcount_threshold
        #: first undelivered verdict; recovery consumes and clears it
        self.pending_verdict: Optional[VmmCorruption] = None
        self.scans = 0
        self.detections = 0
        self._timer: Optional["TimerHandle"] = None
        self._interval = DEFAULT_INTERVAL_CYCLES
        #: consecutive-suspect counters for the liveness-style checks,
        #: keyed by a stable identity tuple
        self._suspects: dict[tuple, int] = {}
        mercury.watchdog = self

    # -- periodic scheduling ------------------------------------------------

    @property
    def running(self) -> bool:
        return self._timer is not None and self._timer.pending

    def start(self, interval_cycles: int = DEFAULT_INTERVAL_CYCLES) -> None:
        """Begin periodic scanning on the machine clock."""
        self._interval = max(1, int(interval_cycles))
        self.stop()
        self._timer = self.machine.clock.schedule(self._interval, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self._timer = None
        self.scan()
        # keep scanning until stopped — detection does not end monitoring,
        # recovery needs the watchdog to confirm the repaired state
        self._timer = self.machine.clock.schedule(self._interval, self._tick)

    # -- scanning -----------------------------------------------------------

    def scan(self, cpu=None) -> Optional[VmmCorruption]:
        """Run every invariant check once; return (and record) the first
        failing verdict, or None if the stack looks healthy.

        Skipped (returns None) while detached — there is no attached VMM
        to monitor — and while a recovery is mid-flight, when the stack is
        deliberately inconsistent.
        """
        from repro.core.mercury import Mode
        mercury = self.mercury
        recovery = getattr(mercury, "recovery", None)
        if recovery is not None and recovery.in_progress:
            return None
        if mercury.mode is Mode.NATIVE:
            self._suspects.clear()
            return None
        self.scans += 1
        if cpu is not None:
            cpu.charge(CYC_SCAN)
        else:
            self.machine.clock.advance(CYC_SCAN)
        verdict = self._run_checks()
        if verdict is not None:
            self.detections += 1
            verdict.detected_cycles = self.machine.clock.cycles
            if self.pending_verdict is None:
                self.pending_verdict = verdict
            trace.instant(cpu or self.machine.boot_cpu,
                          "watchdog.corruption",
                          invariant=verdict.invariant)
        return verdict

    def take_verdict(self) -> Optional[VmmCorruption]:
        """Consume the pending verdict (recovery calls this)."""
        verdict, self.pending_verdict = self.pending_verdict, None
        return verdict

    # -- individual invariants ---------------------------------------------

    def _run_checks(self):
        return (self._check_trap_table()
                or self._check_vo_refcounts()
                or self._check_rings()
                or self._check_grants()
                or self._check_page_info()
                or self._check_channels()
                or self._check_backends()
                or self._check_balloons())

    def _check_trap_table(self) -> Optional[VmmCorruption]:
        """Every gate the kernel registered must still be reachable via
        the driver domain's trap table, or an interrupt will be silently
        dropped by ``forward_irq``."""
        mercury = self.mercury
        if mercury.domain is None:
            return None
        table = mercury.domain.trap_table
        for vector in sorted(mercury.kernel.idt.gates):
            if vector not in table:
                return VmmCorruption(
                    "trap-table",
                    f"vector {vector:#x} missing from driver-domain table")
        return None

    def _check_vo_refcounts(self) -> Optional[VmmCorruption]:
        mercury = self.mercury
        vos = [("kernel", mercury.kernel.vo)]
        if (mercury.virtual_vo is not None
                and mercury.virtual_vo is not mercury.kernel.vo):
            vos.append(("virtual", mercury.virtual_vo))
        for guest in getattr(mercury, "_guests", []):
            vos.append((guest.name, guest.vo))
        for label, vo in vos:
            if vo.refcount > self.refcount_threshold:
                return VmmCorruption(
                    "vo-refcount",
                    f"{label} VO refcount stuck at {vo.refcount}")
        return None

    def _check_rings(self) -> Optional[VmmCorruption]:
        for key, ring in self._rings():
            try:
                ring.check_invariants()
            except RingError as exc:
                return VmmCorruption("ring-indices", f"{key}: {exc}")
        return None

    def _check_grants(self) -> Optional[VmmCorruption]:
        from repro.vmm.hypervisor import VMM_OWNER
        vmm = self.mercury.vmm
        mem = self.machine.memory
        entries = vmm.grants._entries
        for key in sorted(entries):
            entry = entries[key]
            if entry.revoked:
                continue
            if entry.active_maps < 0:
                return VmmCorruption(
                    "grant-refs",
                    f"grant {key} active_maps={entry.active_maps}")
            owner = mem.owner_of(entry.frame)
            if owner != entry.granting_domain or owner == VMM_OWNER:
                return VmmCorruption(
                    "grant-refs",
                    f"grant {key} frame {entry.frame} owned by {owner}, "
                    f"granted by {entry.granting_domain}")
        return None

    def _check_page_info(self) -> Optional[VmmCorruption]:
        """Digest check: re-derive the page-info columns from the pinned
        address spaces into a fresh table and compare semantically."""
        vmm = self.mercury.vmm
        live = vmm.page_info
        reference = PageInfoTable(self.machine.memory)
        stub = _UnchargedCpu()
        for domain_id in sorted(vmm.domains):
            domain = vmm.domains[domain_id]
            for aspace in domain.aspaces:
                if not live.pinned_map[aspace.pgd.frame]:
                    continue
                try:
                    reference.validate_pgd(stub, aspace, domain.domain_id)
                except PageValidationError as exc:
                    return VmmCorruption(
                        "page-info",
                        f"reference recompute rejected domain {domain_id}: "
                        f"{exc}")
        if not reference.semantically_equal(live):
            return VmmCorruption(
                "page-info", "column digest diverged from reference recompute")
        return None

    def _check_channels(self) -> Optional[VmmCorruption]:
        """A *connected* channel that is pending while masked delivers
        nothing, forever — unless someone is about to unmask it, which is
        why this is a double-observation check."""
        chans = self.mercury.vmm.events._channels
        for key in sorted(chans):
            ch = chans[key]
            suspect = (ch.peer_domain is not None
                       and ch.pending and ch.masked)
            verdict = self._suspect(
                ("channel", key), suspect,
                VmmCorruption("channel-masks",
                              f"channel {key} pending while masked"))
            if verdict is not None:
                return verdict
        return None

    def _check_backends(self) -> Optional[VmmCorruption]:
        """A backend that stays inside ``poll`` across scans is dead or
        spinning; re-entrant kicks silently bounce off ``_in_poll``."""
        for idx, back in enumerate(getattr(self.mercury, "_backends", [])):
            suspect = bool(getattr(back, "_in_poll", False))
            verdict = self._suspect(
                ("backend", idx), suspect,
                VmmCorruption(
                    "backend-liveness",
                    f"{type(back).__name__} wedged in poll"))
            if verdict is not None:
                return verdict
        return None

    def _check_balloons(self) -> Optional[VmmCorruption]:
        """Balloon rings must drain promptly — the elasticity controller
        blocks on them.  A ring whose advertised wakeup index sits past any
        reachable producer index has lost its doorbell (structural, caught
        immediately); posted extents that survive consecutive scans
        unconsumed mean the backend missed its kick (double-observation,
        since a scan can land between submit and poll)."""
        from repro.vmm.backend import BalloonBack
        for idx, back in enumerate(getattr(self.mercury, "_backends", [])):
            if not isinstance(back, BalloonBack):
                continue
            ring = back.ring
            if (ring.c.req_event > ring.c.req_prod + 1
                    or ring.c.rsp_event > ring.c.rsp_prod + 1):
                return VmmCorruption(
                    "balloon-ring",
                    f"BalloonBack[{idx}] doorbell lost: event indices "
                    f"(req {ring.c.req_event}, rsp {ring.c.rsp_event}) past "
                    f"any reachable producer "
                    f"(req {ring.c.req_prod}, rsp {ring.c.rsp_prod})")
            suspect = ring.has_requests() and not back._in_poll
            verdict = self._suspect(
                ("balloon", idx), suspect,
                VmmCorruption(
                    "balloon-ring",
                    f"BalloonBack[{idx}] extents posted but never consumed"))
            if verdict is not None:
                return verdict
        return None

    def _suspect(self, key: tuple, suspect: bool,
                 verdict: VmmCorruption) -> Optional[VmmCorruption]:
        if not suspect:
            self._suspects.pop(key, None)
            return None
        count = self._suspects.get(key, 0) + 1
        self._suspects[key] = count
        if count >= self.suspect_scans:
            return verdict
        return None

    def _rings(self):
        for idx, back in enumerate(getattr(self.mercury, "_backends", [])):
            for attr in ("ring", "tx_ring", "rx_ring"):
                ring = getattr(back, attr, None)
                if ring is not None:
                    yield f"{type(back).__name__}[{idx}].{attr}", ring
