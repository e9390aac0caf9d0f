"""Online hardware maintenance (§6.3).

"An operator could switch the machine to be maintained to the full-virtual
mode dynamically.  The execution environment of the machine can then be
live migrated to another machine that has been virtualized and is in the
partial-virtual mode...  After the maintenance work is completed, the
execution environment is migrated back and the machine is returned to the
native mode for full speed."

:class:`MaintenanceWindow` orchestrates exactly that round trip and reports
the application-visible disruption (the two migration downtimes) against
the wall-clock maintenance duration — the paper's availability argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.mercury import Mercury, Mode
from repro.errors import ScenarioError
from repro.scenarios.migration import LiveMigration, MigrationReport

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel


@dataclass
class MaintenanceReport:
    """Outcome of one maintenance round trip."""

    outbound: MigrationReport
    inbound: MigrationReport
    maintenance_cycles: int = 0
    total_cycles: int = 0

    @property
    def disruption_cycles(self) -> int:
        """Application-visible pause: the two stop-and-copy downtimes."""
        return self.outbound.downtime_cycles + self.inbound.downtime_cycles

    def disruption_ms(self, freq_mhz: int = 3000) -> float:
        return self.disruption_cycles / (freq_mhz * 1000.0)


class MaintenanceWindow:
    """Maintain ``primary``'s hardware while its OS keeps running on
    ``standby``."""

    def __init__(self, primary: Mercury, standby: Mercury):
        if primary.machine.clock is not standby.machine.clock:
            raise ScenarioError("primary and standby must share a clock")
        self.primary = primary
        self.standby = standby

    def perform(self, maintain: Callable[[], None],
                mutator: Optional[Callable[[int], None]] = None
                ) -> MaintenanceReport:
        """Run the full §6.3 flow.  ``maintain()`` is the operator's work
        on the idle primary (may advance the clock); ``mutator`` models the
        workload running across the migrations."""
        clock = self.primary.machine.clock
        t0 = clock.cycles

        # 1. primary goes full-virtual; standby must be able to host
        self.primary.full_virtualize()
        if self.standby.mode is Mode.NATIVE:
            self.standby.attach()

        # 2. migrate the execution environment away
        out = LiveMigration(self.primary, self.standby)
        hosted, outbound = out.run(mutator=mutator)

        # 3. hardware maintenance on the now-idle primary
        m0 = clock.cycles
        maintain()
        maintenance_cycles = clock.cycles - m0

        # 4. migrate back: the hosted guest returns to the primary, which
        # is reconstructed as that machine's own OS
        inbound = self._migrate_back(hosted, mutator)

        # 5. the primary returns to native mode for full speed
        self.primary.detach()
        return MaintenanceReport(
            outbound=outbound, inbound=inbound,
            maintenance_cycles=maintenance_cycles,
            total_cycles=clock.cycles - t0)

    def _migrate_back(self, hosted: "Kernel",
                      mutator: Optional[Callable[[int], None]]
                      ) -> MigrationReport:
        """Move the hosted guest back onto the (fresh, maintained)
        primary."""
        from repro.scenarios.checkpoint import _snapshot, restore
        from repro.scenarios.migration import (CYC_SEND_PER_PAGE,
                                               MigrationReport, RoundStats,
                                               WIRE_NS_PER_PAGE)

        clock = self.standby.machine.clock
        cpu = self.standby.machine.boot_cpu
        mem = self.standby.machine.memory
        report = MigrationReport()
        t0 = clock.cycles

        # pre-copy rounds for the hosted guest
        owned = mem.frames_owned_by(hosted.owner_id)
        dirty = set(int(f) for f in owned)
        gen_seen = {int(f): -1 for f in owned}
        for round_no in range(5):
            if len(dirty) <= 32:
                break
            r0 = clock.cycles
            for frame in sorted(dirty):
                cpu.charge(CYC_SEND_PER_PAGE)
                cpu.charge(int(cpu.cost.cycles_from_ns(WIRE_NS_PER_PAGE)))
                gen_seen[frame] = int(mem.generation[frame])
            report.rounds.append(RoundStats(round_no, len(dirty),
                                            clock.cycles - r0))
            if mutator is not None:
                mutator(round_no)
            owned = mem.frames_owned_by(hosted.owner_id)
            dirty = {int(f) for f in owned
                     if int(mem.generation[f]) != gen_seen.get(int(f), -1)}

        # stop-and-copy + restore on the primary as its own OS
        pause = clock.cycles
        image = _snapshot(hosted, cpu, include_disk=True)
        for _ in range(len(dirty)):
            cpu.charge(CYC_SEND_PER_PAGE)
            cpu.charge(int(cpu.cost.cycles_from_ns(WIRE_NS_PER_PAGE)))
        report.stop_and_copy_pages = len(dirty)

        # tear the hosted guest out of the standby
        self.standby.shutdown_guest(hosted)
        mem.free_many(mem.frames_owned_by(hosted.owner_id).tolist())

        # the primary's Mercury still exists; restore into it.  It is in
        # full-virtual mode with an empty kernel shell (its state left in
        # the outbound migration).
        image.kernel_name = self.primary.kernel.name
        image.owner_id = self.primary.kernel.owner_id
        restored = restore(image, self.primary,
                           cpu=self.primary.machine.boot_cpu)
        self.primary.kernel.booted = True
        if self.primary.mode is Mode.FULL_VIRTUAL:
            self.primary.departial()
        report.downtime_cycles = clock.cycles - pause
        report.total_cycles = clock.cycles - t0
        return report
