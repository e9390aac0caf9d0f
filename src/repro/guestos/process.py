"""Tasks and process lifecycle: fork / exec / exit / wait.

Process creation is the most virtualization-sensitive path in the kernel —
the paper's Table 1 shows fork ~5x slower under Xen — because it is made of
page-table work: building the child's tables, marking both copies
copy-on-write, and (in virtual mode) getting every new page-table page
validated by the VMM.  All of that goes through the installed VO here, so
the native/virtual cost difference *emerges* rather than being hard-coded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import NoSuchProcess, SyscallError
from repro.hw.paging import AddressSpace, Pte
from repro.params import PAGE_SIZE, PT_SPAN

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.guestos.vmem import Vma
    from repro.hw.cpu import Cpu


class TaskState(enum.Enum):
    RUNNING = "running"
    READY = "ready"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"


@dataclass
class Task:
    """One process (single-threaded; lmbench's benchmarks are)."""

    pid: int
    name: str
    aspace: AddressSpace
    state: TaskState = TaskState.READY
    parent: Optional["Task"] = None
    children: list["Task"] = field(default_factory=list)
    exit_code: Optional[int] = None
    #: memory layout
    vmas: list = field(default_factory=list)
    brk: int = 0x0800_0000
    #: the code/data segment selectors cached on this task's kernel stack by
    #: its last interrupt frame (§5.1.2: these embed the privilege level and
    #: must be fixed up when a mode switch changes the kernel's PL)
    stack_cached_selector_dpl: Optional[int] = None
    #: open file descriptors: fd -> (file name, offset)
    fds: dict[int, list] = field(default_factory=dict)
    #: pipe descriptors: fd -> (Pipe, "r"|"w")  (see guestos.ipc)
    pipe_fds: dict[int, tuple] = field(default_factory=dict)
    next_fd: int = 3
    utime_cycles: int = 0

    def __post_init__(self):
        from repro.guestos.ipc import SignalState
        self.signals = SignalState()


class ProcessTable:
    """PID allocation and the task list."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.tasks: dict[int, Task] = {}
        self._next_pid = 1
        self.forks = 0
        self.execs = 0

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def spawn_initial(self, name: str, image_pages: int) -> Task:
        """Create a process from nothing (boot-time init)."""
        kernel = self.kernel
        aspace = AddressSpace(kernel.machine.memory, kernel.owner_id)
        task = Task(self._alloc_pid(), name, aspace)
        kernel.vmem.map_image(kernel.boot_cpu, task, image_pages)
        kernel.vo.new_address_space(kernel.boot_cpu, aspace)
        kernel.register_aspace(aspace)
        self.tasks[task.pid] = task
        return task

    def fork(self, cpu: "Cpu", parent: Task) -> Task:
        """Classic fork with copy-on-write.

        Work done (all through the VO): duplicate the vma list, turn every
        writable mapping of the parent read-only+COW, install matching COW
        entries in the child, then register (and in virtual mode: pin) the
        child's address space.

        The parent's re-protections are one
        :meth:`~repro.core.vobject.VirtualizationObject.update_pte_flags_region`
        call per leaf, under a lazy-MMU region (in virtual mode: queued
        and issued as batched ``mmu_update``); each entry still costs what
        its own ``update_pte_flags`` call would.  The child's entries are
        collected in one pass per leaf and installed as one region write
        (the child is unpinned, so these are plain stores)."""
        kernel = self.kernel
        cost = cpu.cost
        cpu.charge(cost.cyc_proc_create_fixed)
        kernel.smp_lock(cpu)

        child_as = AddressSpace(kernel.machine.memory, kernel.owner_id)
        child = Task(self._alloc_pid(), parent.name, child_as, parent=parent)
        child.vmas = [vma.clone() for vma in parent.vmas]
        child.brk = parent.brk
        child.fds = {fd: list(v) for fd, v in parent.fds.items()}
        # pipes are shared (both tasks reference the same channel), signal
        # dispositions are copied — classic fork semantics
        child.pipe_fds = dict(parent.pipe_fds)
        child.signals.handlers = dict(parent.signals.handlers)
        child.next_fd = parent.next_fd
        child.stack_cached_selector_dpl = kernel.vo.data.kernel_segment_dpl

        child_updates = []
        frame_refs = kernel.vmem._frame_refs
        refs_get = frame_refs.get
        lock = cost.cyc_lock if kernel.machine.config.num_cpus > 1 else 0

        def share(entries: list) -> None:
            """Copy ``(vaddr, pte)`` entries into the child as read-only
            COW mappings: one more reference per frame, and on SMP one
            page_table_lock bounce per entry."""
            # positional Pte(frame, present, writable, user, accessed,
            # dirty, cow): a keyword call costs ~3x on this path
            child_updates.extend([(vaddr, Pte(pte.frame, True, False,
                                               pte.user, False, False, True))
                                  for vaddr, pte in entries])
            for _, pte in entries:
                frame = pte.frame
                frame_refs[frame] = refs_get(frame, 1) + 1
            if lock and entries:
                cpu.charge(lock * len(entries))

        parent_as = parent.aspace
        with kernel.lazy_mmu(cpu):
            for pgd_idx, leaf in list(parent_as.pgd.entries.items()):
                base = pgd_idx * PT_SPAN
                present = [(base + idx * PAGE_SIZE, pte)
                           for idx, pte in leaf.entries.items() if pte.present]
                # the leaf's flags are read up front: only this task's own
                # syscalls and faults change them, never an interrupt
                # serviced in a window
                at = [i for i, (_, pte) in enumerate(present) if pte.writable]
                done = 0

                def sync(k: int) -> None:
                    # a window is about to open after the k-th writable
                    # entry: share the entries before it, as the walk had
                    nonlocal done
                    share(present[done:at[k]])
                    done = at[k]

                kernel.vo.update_pte_flags_region(
                    cpu, parent_as, [present[i][0] for i in at],
                    writable=False, cow=True, sync=sync,
                    lag=[lock * i for i in at] if lock else None)
                share(present[done:])
            kernel.vo.apply_pte_region(cpu, child_as, child_updates)

        kernel.vo.new_address_space(cpu, child_as)
        kernel.register_aspace(child_as)
        self.tasks[child.pid] = child
        kernel.scheduler.enqueue(child)
        self.forks += 1
        return child

    def exec(self, cpu: "Cpu", task: Task, name: str, image_pages: int) -> None:
        """Replace the task's image: tear down the old address space and
        build + populate a fresh one."""
        kernel = self.kernel
        cpu.charge(cpu.cost.cyc_exec_fixed)
        kernel.smp_lock(cpu)
        old_as = task.aspace
        self._teardown_aspace(cpu, task, old_as)

        new_as = AddressSpace(kernel.machine.memory, kernel.owner_id)
        task.aspace = new_as
        task.vmas = []
        task.name = name
        kernel.vmem.map_image(cpu, task, image_pages)
        kernel.vo.new_address_space(cpu, new_as)
        kernel.register_aspace(new_as)
        if kernel.scheduler.current is task:
            kernel.vo.write_cr3(cpu, new_as.pgd_frame)
        self.execs += 1

    # ------------------------------------------------------------------
    # exit / wait
    # ------------------------------------------------------------------

    def exit(self, cpu: "Cpu", task: Task, code: int) -> None:
        kernel = self.kernel
        kernel.smp_lock(cpu)
        self._teardown_aspace(cpu, task, task.aspace)
        task.state = TaskState.ZOMBIE
        task.exit_code = code
        kernel.scheduler.dequeue(task)
        if task.parent is not None:
            task.parent.children.append(task)

    def wait(self, cpu: "Cpu", parent: Task) -> tuple[int, int]:
        """Reap one zombie child; returns (pid, exit_code)."""
        for child in parent.children:
            if child.state == TaskState.ZOMBIE:
                parent.children.remove(child)
                self.tasks.pop(child.pid, None)
                return child.pid, child.exit_code or 0
        raise SyscallError("ECHILD", f"pid {parent.pid} has no zombie children")

    def _teardown_aspace(self, cpu: "Cpu", task: Task, aspace: AddressSpace) -> None:
        """Unmap everything, dropping frame references (frees unshared
        frames), then unregister + destroy the page tables.

        The unmap is one batched clear-all through ``apply_pte_region``
        (multi-entry ``mmu_update`` in virtual mode) rather than a trap per
        PTE; frames are released only after the clears are applied, so the
        allocator never recycles a frame a live PTE still points at."""
        kernel = self.kernel
        updates = []
        frames = []
        for pgd_idx, leaf in aspace.pgd.entries.items():
            vaddr = pgd_idx * PT_SPAN
            entries = leaf.entries
            updates += [(vaddr + idx * PAGE_SIZE, None) for idx in entries]
            frames += [pte.frame for pte in entries.values() if pte.present]
        kernel.vo.apply_pte_region(cpu, aspace, updates)
        kernel.vmem.release_frames(cpu, frames)
        kernel.unregister_aspace(aspace)
        kernel.vo.destroy_address_space(cpu, aspace)

    # ------------------------------------------------------------------

    def get(self, pid: int) -> Task:
        try:
            return self.tasks[pid]
        except KeyError:
            raise NoSuchProcess(f"no task with pid {pid}") from None

    def live_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if t.state != TaskState.ZOMBIE]

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid
