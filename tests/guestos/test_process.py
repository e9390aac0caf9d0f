"""Process lifecycle: fork/exec/exit/wait, COW semantics, frame hygiene."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, Mercury, small_config
from repro.bench.configs import BareMetalVO
from repro.core.accounting import AccountingStrategy
from repro.core.mercury import PagingMode
from repro.errors import NoSuchProcess, SyscallError
from repro.guestos.kernel import Kernel
from repro.guestos.process import ProcessTable, Task, TaskState
from repro.hw.interrupts import Idt
from repro.hw.paging import AddressSpace, Pte
from repro.params import PAGE_SIZE, PT_SPAN
from repro.sim.scheduler import SimScheduler
from repro.sim.task import Yield


def test_boot_creates_init(kernel):
    init = kernel.scheduler.current
    assert init.name == "init"
    assert init.state == TaskState.RUNNING
    assert init.aspace.mapped_count() == 16


def test_fork_returns_child_pid(kernel, cpu):
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    assert child.parent is kernel.scheduler.current
    assert child.state == TaskState.READY


def test_fork_child_shares_frames_readonly(kernel, cpu):
    parent = kernel.scheduler.current
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    for vaddr in parent.aspace.mapped_vaddrs():
        p = parent.aspace.get_pte(vaddr)
        c = child.aspace.get_pte(vaddr)
        assert c.frame == p.frame
        assert not p.writable and not c.writable
        assert kernel.vmem.frame_refs(p.frame) == 2


def test_cow_write_isolates_parent_and_child(kernel, cpu):
    """After the child writes a shared page, parent and child must see
    different frames — the COW guarantee fork depends on."""
    parent = kernel.scheduler.current
    vaddr = next(iter(parent.aspace.mapped_vaddrs()))
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    kernel.switch_to(cpu, child)
    kernel.vmem.access(cpu, child, vaddr, write=True)
    c = child.aspace.get_pte(vaddr)
    p = parent.aspace.get_pte(vaddr)
    assert c.frame != p.frame
    assert c.writable
    assert kernel.vmem.frame_refs(p.frame) == 1
    assert kernel.vmem.frame_refs(c.frame) == 1


def test_cow_last_reference_reuses_frame(kernel, cpu):
    parent = kernel.scheduler.current
    vaddr = next(iter(parent.aspace.mapped_vaddrs()))
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    kernel.run_and_reap(cpu, child)  # child gone; parent sole owner again
    old_frame = parent.aspace.get_pte(vaddr).frame
    kernel.vmem.access(cpu, parent, vaddr, write=True)
    pte = parent.aspace.get_pte(vaddr)
    assert pte.frame == old_frame  # no copy needed
    assert pte.writable and not pte.cow


def test_exec_replaces_image(kernel, cpu):
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    old_aspace = child.aspace
    kernel.switch_to(cpu, child)
    kernel.syscall(cpu, "exec", "newprog", 24, task=child)
    assert child.name == "newprog"
    assert child.aspace is not old_aspace
    assert child.aspace.mapped_count() == 24


def test_exit_and_wait_reap(kernel, cpu):
    parent = kernel.scheduler.current
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    kernel.switch_to(cpu, child)
    kernel.syscall(cpu, "exit", 7, task=child)
    assert child.state == TaskState.ZOMBIE
    assert child.exit_code == 7
    kernel.switch_to(cpu, parent)
    got_pid, code = kernel.syscall(cpu, "wait")
    assert (got_pid, code) == (pid, 7)
    with pytest.raises(NoSuchProcess):
        kernel.procs.get(pid)


def test_wait_without_zombie_errors(kernel, cpu):
    with pytest.raises(SyscallError) as e:
        kernel.syscall(cpu, "wait")
    assert e.value.errno == "ECHILD"


def test_fork_exit_cycle_leaks_no_frames(kernel, cpu):
    free_before = kernel.machine.memory.free_frames
    for _ in range(5):
        pid = kernel.syscall(cpu, "fork")
        kernel.run_and_reap(cpu, kernel.procs.get(pid))
    assert kernel.machine.memory.free_frames == free_before


def test_fork_copies_fd_table(kernel, cpu):
    fd = kernel.syscall(cpu, "open", "/f", True)
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    assert fd in child.fds
    child.fds[fd][1] = 4096  # child's offset moves independently
    assert kernel.scheduler.current.fds[fd][1] == 0


def test_pids_monotonic(kernel, cpu):
    pids = [kernel.syscall(cpu, "fork") for _ in range(3)]
    assert pids == sorted(pids)
    assert len(set(pids)) == 3


def test_fork_records_selector_dpl(kernel, cpu):
    """The child's stack-cached selector DPL — the thing a mode switch
    must fix up (§5.1.2)."""
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    assert child.stack_cached_selector_dpl == \
        kernel.vo.data.kernel_segment_dpl


# ---------------------------------------------------------------------------
# fork's per-leaf region sweep against the entry-by-entry walk it replaced
# ---------------------------------------------------------------------------

def _entry_by_entry_fork(self, cpu, parent):
    """The fork the region sweep replaced: one Pte, one reference and one
    lock charge per entry, in table order, interleaved with one
    ``update_pte_flags`` call (and so one scheduler pump) per writable
    entry."""
    kernel = self.kernel
    cost = cpu.cost
    cpu.charge(cost.cyc_proc_create_fixed)
    kernel.smp_lock(cpu)
    child_as = AddressSpace(kernel.machine.memory, kernel.owner_id)
    child = Task(self._alloc_pid(), parent.name, child_as, parent=parent)
    child.vmas = [vma.clone() for vma in parent.vmas]
    child.brk = parent.brk
    child.fds = {fd: list(v) for fd, v in parent.fds.items()}
    child.pipe_fds = dict(parent.pipe_fds)
    child.signals.handlers = dict(parent.signals.handlers)
    child.next_fd = parent.next_fd
    child.stack_cached_selector_dpl = kernel.vo.data.kernel_segment_dpl
    child_updates = []
    frame_refs = kernel.vmem._frame_refs
    smp = kernel.machine.config.num_cpus > 1
    with kernel.lazy_mmu(cpu):
        for pgd_idx, leaf in list(parent.aspace.pgd.entries.items()):
            for idx, pte in list(leaf.entries.items()):
                if not pte.present:
                    continue
                vaddr = pgd_idx * PT_SPAN + idx * PAGE_SIZE
                if pte.writable:
                    kernel.vo.update_pte_flags(cpu, parent.aspace, vaddr,
                                               writable=False, cow=True)
                child_updates.append((vaddr, Pte(
                    frame=pte.frame, present=True, writable=False,
                    user=pte.user, cow=True)))
                frame_refs[pte.frame] = frame_refs.get(pte.frame, 1) + 1
                if smp:
                    cpu.charge(cost.cyc_lock)
        kernel.vo.apply_pte_region(cpu, child_as, child_updates)
    kernel.vo.new_address_space(cpu, child_as)
    kernel.register_aspace(child_as)
    self.tasks[child.pid] = child
    kernel.scheduler.enqueue(child)
    self.forks += 1
    return child


#: a vector no kernel binds: the property's handlers raise it and record
#: where it is delivered
VEC_PROBE = 0x90

#: walk start -> timer deadline: the walk costs a few cycles per writable
#: entry on UP (3 in a direct-paging region), ~150 more per entry on SMP
OFFSETS = st.one_of(st.integers(0, 40), st.integers(0, 400),
                    st.integers(0, 6_000))


def _fork_stack(vo_kind, cpus):
    machine = Machine(small_config(num_cpus=cpus))
    if vo_kind == "bare":
        kernel = Kernel(machine, BareMetalVO(machine), name="bare-linux")
        kernel.boot(image_pages=6)
        return machine, kernel, None
    strategy = (AccountingStrategy.ACTIVE if vo_kind == "active"
                else AccountingStrategy.RECOMPUTE)
    paging = PagingMode.SHADOW if vo_kind == "shadow" else PagingMode.DIRECT
    mercury = Mercury(machine, strategy=strategy, paging=paging)
    kernel = mercury.create_kernel(image_pages=6)
    if vo_kind in ("virtual", "shadow"):
        mercury.attach()
    return machine, kernel, mercury


def _fork_outcome(vo_kind, cpus, steps, timers, masked, reference):
    machine, kernel, mercury = _fork_stack(vo_kind, cpus)
    cpu = machine.boot_cpu
    clock = machine.clock
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 24 * PAGE_SIZE, True)
    for kind, page in steps:
        vaddr = base + page * PAGE_SIZE
        if kind == "protect":
            kernel.syscall(cpu, "mprotect", vaddr, PAGE_SIZE, False)
        elif kind == "unprotect":
            kernel.syscall(cpu, "mprotect", vaddr, PAGE_SIZE, True)
        elif kind == "touch":
            try:
                kernel.vmem.access(cpu, task, vaddr, write=True)
            except SyscallError:
                pass  # SIGSEGV on a protected page, the same in both runs
        elif kind == "steal":
            kernel.vmem.steal_page(cpu, task, vaddr)
        else:  # a sibling shares (and COWs) everything mapped so far
            kernel.syscall(cpu, "fork")

    def table(aspace):
        return [(vaddr, pte.frame, pte.present, pte.writable, pte.user,
                 pte.cow) for vaddr, pte in aspace.mapped_items()]

    # what every fired handler sees: the fork's interrupt windows are
    # where the rest of the machine observes its walk
    vo = kernel.vo
    seen = []

    def look(tag):
        seen.append((tag, clock.cycles, list(kernel.vmem._frame_refs.items()),
                     table(task.aspace), vo.lazy_mmu_pending(), vo.refcount,
                     vo.entries, sorted(cpu.tlb._entries)))

    other = machine.cpus[-1]
    if other.idt_base is None:  # a native secondary boots with no IDT
        other.idt_base = Idt("probe")
    other.idt_base.set_gate(VEC_PROBE,
                            lambda c, vector: look(("vector", c.cpu_id)))

    def timer(offset, action, then):
        def fire():
            look((action, offset))
            if action == "chain":
                clock.schedule_at(clock.cycles + then,
                                  lambda: look(("chained", offset)))
            elif action == "vector":
                machine.intc.raise_vector(other.cpu_id, VEC_PROBE)
            elif action == "mask":
                cpu.interrupts_enabled = False
            elif action == "flush":  # applies the lazy queue mid-walk
                vo.flush_tlb(cpu)
        return fire

    # the timers are armed where the walk starts, at its lazy-MMU region
    lazy_mmu = kernel.lazy_mmu

    def arming_lazy_mmu(c):
        for offset, action, then in timers:
            if action == "raise":  # a vector already waiting at the start
                machine.intc.raise_vector(other.cpu_id, VEC_PROBE)
            else:
                clock.schedule_at(clock.cycles + offset,
                                  timer(offset, action, then))
        return lazy_mmu(c)

    children = []

    def forker():
        # warm the TLB (a slice starts on a fresh CR3) and clear the dirty
        # roots, so the walk's invalidations and marks are both visible
        for page in range(24):
            kernel.vmem.access(cpu, task, base + page * PAGE_SIZE,
                               write=False)
        vo.mmu_log.dirty.clear()
        if masked:
            cpu.interrupts_enabled = False
        children.append(kernel.syscall(cpu, "fork"))
        cpu.interrupts_enabled = True
        yield Yield()

    fork = _entry_by_entry_fork if reference else ProcessTable.fork
    sched = SimScheduler(machine)
    sched.spawn(forker(), cpu=cpu, kernel=kernel)
    with patch.object(ProcessTable, "fork", fork), \
            patch.object(kernel, "lazy_mmu", arming_lazy_mmu):
        sched.run()
    child = kernel.procs.get(children[0])
    vmm = mercury.vmm if mercury is not None else None
    return (seen, table(task.aspace), table(child.aspace),
            list(kernel.vmem._frame_refs.items()), clock.cycles,
            vo.entries, vo.refcount, sorted(cpu.tlb._entries.items()),
            sorted(vo.mmu_log.dirty),
            dict(vmm.hypercall_counts) if vmm else None,
            vmm.mmu_batched_updates if vmm else None,
            list(machine.memory.owner))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(["native", "active", "bare", "virtual", "shadow"]),
       st.integers(1, 2),
       st.lists(st.tuples(st.sampled_from(["protect", "unprotect", "touch",
                                           "steal", "fork"]),
                          st.integers(0, 23)), max_size=12),
       st.lists(st.tuples(OFFSETS,
                          st.sampled_from(["record", "chain", "vector",
                                           "raise", "mask", "flush"]),
                          st.integers(0, 400)), min_size=1, max_size=4),
       st.sampled_from([False, False, False, True]))
def test_segmented_fork_matches_entry_by_entry_walk(vo_kind, cpus, steps,
                                                    timers, masked):
    """Over parents mixing writable, COW, read-only and unmapped pages,
    under a running sim scheduler whose timers fall inside the walk, on
    the native (plain and ACTIVE-accounting), bare-metal, direct-paging
    and shadow-paging VOes, on 1 and 2 CPUs, with interrupts open or
    masked: fork leaves both tables, the frame references, the VO
    counters, the TLB, the dirty roots, the memory, the hypercall traffic
    and the clock exactly as the entry-by-entry walk does — and every
    handler that fires sees the same clock, references, parent table,
    lazy queue, TLB, VO refcount and VO entries."""
    assert (_fork_outcome(vo_kind, cpus, steps, timers, masked,
                          reference=False)
            == _fork_outcome(vo_kind, cpus, steps, timers, masked,
                             reference=True))
