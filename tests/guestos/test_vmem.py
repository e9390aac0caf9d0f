"""Virtual memory: mmap/munmap, demand paging, protection, brk."""

from contextlib import nullcontext
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, Mercury, small_config
from repro.core.accounting import AccountingStrategy
from repro.core.mercury import PagingMode
from repro.errors import InvalidPhysicalAddress, SyscallError
from repro.guestos.vmem import VirtualMemory
from repro.hw.memory import OWNER_FREE, PhysicalMemory
from repro.hw.paging import Pte
from repro.params import PAGE_SIZE, PT_ENTRIES
from repro.sim.scheduler import SimScheduler
from repro.sim.task import Yield


def test_mmap_demand_pages_on_touch(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    assert task.aspace.get_pte(base) is None  # nothing mapped yet
    faults0 = kernel.vmem.minor_faults
    kernel.vmem.access(cpu, task, base, write=True)
    assert kernel.vmem.minor_faults == faults0 + 1
    assert task.aspace.get_pte(base).present


def test_mmap_populate_maps_eagerly(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE, True)
    for i in range(4):
        assert task.aspace.get_pte(base + i * PAGE_SIZE).present


def test_mmap_zero_length_rejected(kernel, cpu):
    with pytest.raises(SyscallError):
        kernel.syscall(cpu, "mmap", 0)


def test_munmap_frees_frames(kernel, cpu):
    # force the mmap-area leaf PT page into existence first so the
    # measured delta is data frames only
    kernel.syscall(cpu, "mmap", PAGE_SIZE, True)
    free0 = kernel.machine.memory.free_frames
    base = kernel.syscall(cpu, "mmap", 8 * PAGE_SIZE, True)
    assert kernel.machine.memory.free_frames == free0 - 8
    kernel.syscall(cpu, "munmap", base, 8 * PAGE_SIZE)
    assert kernel.machine.memory.free_frames == free0


def test_munmap_partial_range_rejected(kernel, cpu):
    base = kernel.syscall(cpu, "mmap", 8 * PAGE_SIZE, True)
    with pytest.raises(SyscallError):
        kernel.syscall(cpu, "munmap", base, 4 * PAGE_SIZE)


def test_mappings_do_not_overlap(kernel, cpu):
    a = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    b = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    assert abs(a - b) >= 4 * PAGE_SIZE


def test_hole_reuse_after_munmap(kernel, cpu):
    a = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    kernel.syscall(cpu, "munmap", a, 4 * PAGE_SIZE)
    b = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    assert b == a


def test_access_outside_vma_is_segv(kernel, cpu):
    task = kernel.scheduler.current
    with pytest.raises(SyscallError) as e:
        kernel.vmem.access(cpu, task, 0x7000_0000, write=False)
    assert e.value.errno == "SIGSEGV"


def test_mprotect_write_fault(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 2 * PAGE_SIZE, True)
    kernel.syscall(cpu, "mprotect", base, 2 * PAGE_SIZE, False)
    faults0 = kernel.vmem.prot_faults
    with pytest.raises(SyscallError):
        kernel.vmem.access(cpu, task, base, write=True)
    assert kernel.vmem.prot_faults == faults0 + 1
    # reads still fine
    kernel.vmem.access(cpu, task, base, write=False)


def test_mprotect_unmapped_rejected(kernel, cpu):
    with pytest.raises(SyscallError):
        kernel.syscall(cpu, "mprotect", 0x7000_0000, PAGE_SIZE, False)


def test_mprotect_restore_write(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", PAGE_SIZE, True)
    kernel.syscall(cpu, "mprotect", base, PAGE_SIZE, False)
    kernel.syscall(cpu, "mprotect", base, PAGE_SIZE, True)
    kernel.vmem.access(cpu, task, base, write=True)  # no fault


def test_brk_grows_heap_lazily(kernel, cpu):
    task = kernel.scheduler.current
    old = task.brk
    new = kernel.syscall(cpu, "brk", old + 4 * PAGE_SIZE)
    assert new == old + 4 * PAGE_SIZE
    kernel.vmem.access(cpu, task, old, write=True)  # demand-paged


def test_brk_never_shrinks(kernel, cpu):
    task = kernel.scheduler.current
    old = task.brk
    assert kernel.syscall(cpu, "brk", old - PAGE_SIZE) == old


def test_tlb_serves_repeat_access_without_refault(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", PAGE_SIZE)
    kernel.vmem.access(cpu, task, base, write=True)
    faults = kernel.vmem.minor_faults
    hits0 = cpu.tlb.hits
    kernel.vmem.access(cpu, task, base, write=True)
    assert kernel.vmem.minor_faults == faults
    assert cpu.tlb.hits == hits0 + 1


def test_demand_zero_cost_roughly_matches_table1(kernel, cpu):
    """Native page-fault latency should be near Table 1's 1.22 µs."""
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 32 * PAGE_SIZE)
    t0 = cpu.rdtsc()
    for i in range(32):
        kernel.vmem.access(cpu, task, base + i * PAGE_SIZE, write=True)
    per_fault_us = cpu.cost.us(cpu.rdtsc() - t0) / 32
    assert 0.5 < per_fault_us < 2.5


def test_munmap_walks_partial_and_missing_leaves(kernel, cpu):
    """A range that starts mid-leaf, spans a leaf that was never touched
    (so has no table) and ends mid-leaf: every mapped page in it goes,
    nothing outside it does."""
    task = kernel.scheduler.current
    head = kernel.syscall(cpu, "mmap", 5 * PAGE_SIZE)
    pages = 2 * PT_ENTRIES + 7
    base = kernel.syscall(cpu, "mmap", pages * PAGE_SIZE)
    assert (base // PAGE_SIZE) % PT_ENTRIES == 5
    touched = [0, PT_ENTRIES - 6, 2 * PT_ENTRIES - 5, pages - 1]
    for page in touched:
        kernel.vmem.access(cpu, task, base + page * PAGE_SIZE, write=True)
    kernel.vmem.access(cpu, task, head, write=True)
    frames = [task.aspace.get_pte(base + p * PAGE_SIZE).frame for p in touched]
    free0 = kernel.machine.memory.free_frames
    kernel.syscall(cpu, "munmap", base, pages * PAGE_SIZE)
    assert kernel.machine.memory.free_frames == free0 + len(touched)
    assert all(kernel.machine.memory.owner_of(f) == OWNER_FREE for f in frames)
    assert all(task.aspace.get_pte(base + p * PAGE_SIZE) is None
               for p in touched)
    assert task.aspace.get_pte(head).present


def _vmem(num_frames):
    """A VirtualMemory over bare physical memory — release_frames needs
    nothing else of the kernel."""
    mem = PhysicalMemory(num_frames)
    return VirtualMemory(SimpleNamespace(machine=SimpleNamespace(memory=mem))), mem


def _release_loop(vmem, frames):
    # the per-frame path release_frames replaces
    for frame in frames:
        vmem.release_frame(None, frame)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=8, max_size=8),
       st.lists(st.integers(0, 11), max_size=16))
def test_release_frames_matches_per_frame_loop(refs, batch):
    """Same ``_frame_refs`` (contents and order), owner column and recycled
    stack as one ``release_frame`` per frame — and when the batch frees a
    frame twice, an already-free frame or one out of range, the same error
    with the frames after it untouched.  Picks 8-9 name a never-allocated
    and an out-of-range frame; picks 10-11 a frame with no refs entry."""
    outcomes = []
    for bulk in (True, False):
        vmem, mem = _vmem(12)
        frames = mem.alloc_many(0, 8) + [mem.alloc(0), mem.alloc(0)]
        for frame, n in zip(frames, refs):
            if n:
                vmem._frame_refs[frame] = n
        named = frames[:8] + [11, 99] + frames[8:]
        picked = [named[i] for i in batch]
        try:
            if bulk:
                vmem.release_frames(None, picked)
            else:
                _release_loop(vmem, picked)
            error = None
        except InvalidPhysicalAddress as exc:
            error = str(exc)
        outcomes.append((list(vmem._frame_refs.items()), list(mem.owner),
                         list(mem._recycled), error))
    assert outcomes[0] == outcomes[1]


def test_double_free_inside_one_teardown(kernel, cpu):
    """A frame mapped twice on one reference is freed twice by exit's
    teardown: the second free raises, the frames before it are released
    and the frame mapped after it keeps its reference and owner, as with
    the per-frame loop."""
    task = kernel.spawn_process(cpu, "victim")
    mem = kernel.machine.memory
    a, b, c = mem.alloc_many(kernel.owner_id, 3)
    for i, frame in enumerate((a, b, a, c)):
        kernel.vmem.claim_frame(frame)
        kernel.vo.set_pte(cpu, task.aspace, 0x6000_0000 + i * PAGE_SIZE,
                          Pte(frame))
    with pytest.raises(InvalidPhysicalAddress,
                       match=f"double free of frame {a}"):
        kernel.procs.exit(cpu, task, 0)
    assert mem.owner_of(a) == mem.owner_of(b) == OWNER_FREE
    assert kernel.vmem.frame_refs(a) == kernel.vmem.frame_refs(b) == 0
    assert kernel.vmem.frame_refs(c) == 1
    assert mem.owner_of(c) == kernel.owner_id


# ---------------------------------------------------------------------------
# mprotect's region call against the per-page loop it replaced
# ---------------------------------------------------------------------------

def _per_page_mprotect(self, cpu, task, base, length, writable):
    """The mprotect the region call replaced: one ``update_pte_flags``
    call (and so one scheduler pump) per present page."""
    pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
    vma = self._vma_at(task, base)
    if vma is None:
        raise SyscallError("EINVAL", f"mprotect of unmapped {base:#x}")
    vma.writable = writable
    with self.kernel.lazy_mmu(cpu):
        for i in range(pages):
            vaddr = base + i * PAGE_SIZE
            pte = task.aspace.get_pte(vaddr)
            if pte is not None and pte.present:
                self.kernel.vo.update_pte_flags(cpu, task.aspace, vaddr,
                                                writable=writable)


def _mprotect_outcome(vo_kind, cpus, steps, region, span, writable, timers,
                      reference):
    machine = Machine(small_config(num_cpus=cpus))
    strategy = (AccountingStrategy.ACTIVE if vo_kind == "active"
                else AccountingStrategy.RECOMPUTE)
    paging = PagingMode.SHADOW if vo_kind == "shadow" else PagingMode.DIRECT
    mercury = Mercury(machine, strategy=strategy, paging=paging)
    kernel = mercury.create_kernel(image_pages=6)
    if vo_kind in ("virtual", "shadow"):
        mercury.attach()
    cpu = machine.boot_cpu
    clock = machine.clock
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 24 * PAGE_SIZE, True)
    for kind, page in steps:
        vaddr = base + page * PAGE_SIZE
        if kind == "protect":
            kernel.syscall(cpu, "mprotect", vaddr, PAGE_SIZE, False)
        elif kind == "touch":
            try:
                kernel.vmem.access(cpu, task, vaddr, write=True)
            except SyscallError:
                pass  # SIGSEGV on a protected page, the same in both runs
        elif kind == "steal":
            kernel.vmem.steal_page(cpu, task, vaddr)
        else:
            kernel.syscall(cpu, "fork")
    vo = kernel.vo

    def table():
        return [(vaddr, pte.frame, pte.present, pte.writable, pte.user,
                 pte.cow) for vaddr, pte in task.aspace.mapped_items()]

    seen = []

    def look(offset):
        seen.append((offset, clock.cycles, table(), vo.lazy_mmu_pending(),
                     vo.refcount, vo.entries, sorted(cpu.tlb._entries)))

    first, count = span

    def caller():
        for page in range(24):  # a warm TLB: the invalidations show
            kernel.vmem.access(cpu, task, base + page * PAGE_SIZE,
                               write=False)
        for offset in timers:
            clock.schedule_at(clock.cycles + offset,
                              lambda offset=offset: look(offset))
        outer = kernel.lazy_mmu(cpu) if region == "nested" else nullcontext()
        with outer:
            if region == "nested":  # a queued write the call must read back
                vo.update_pte_flags(cpu, task.aspace, base + first * PAGE_SIZE,
                                    cow=True)
            kernel.syscall(cpu, "mprotect", base + first * PAGE_SIZE,
                           count * PAGE_SIZE, writable)
        yield Yield()

    # "none": no lazy-MMU region at all, so a direct-paging VO issues one
    # hypercall per entry
    lazy_mmu = (kernel.lazy_mmu if region != "none"
                else (lambda c: nullcontext()))
    mprotect = _per_page_mprotect if reference else VirtualMemory.mprotect
    sched = SimScheduler(machine)
    sched.spawn(caller(), cpu=cpu, kernel=kernel)
    with patch.object(VirtualMemory, "mprotect", mprotect), \
            patch.object(kernel, "lazy_mmu", lazy_mmu):
        sched.run()
    info = mercury.vmm.page_info
    return (seen, table(), sorted(cpu.tlb._entries.items()),
            bytes(info.type), list(info.type_count), list(info.ref_count),
            bytes(info.pinned_map), dict(mercury.vmm.hypercall_counts),
            mercury.vmm.mmu_batched_updates, clock.cycles, vo.entries,
            vo.refcount, sorted(vo.mmu_log.dirty))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["native", "active", "virtual", "shadow"]),
       st.integers(1, 2),
       st.lists(st.tuples(st.sampled_from(["protect", "touch", "steal",
                                           "fork"]),
                          st.integers(0, 23)), max_size=8),
       st.sampled_from(["own", "none", "nested"]),
       st.tuples(st.integers(0, 23), st.integers(1, 24)),
       st.booleans(),
       st.lists(st.integers(0, 3_000), max_size=3))
def test_region_mprotect_matches_per_page_loop(vo_kind, cpus, steps, region,
                                               span, writable, timers):
    """On the native (plain and ACTIVE-accounting), direct-paging and
    shadow-paging VOes, on 1 and 2 CPUs, in mprotect's own lazy-MMU
    region, with no region, and nested in an outer region holding a queued
    write to the range: region mprotect leaves the tables, the TLB, the
    page-info columns, the hypercall counts, the VO counters, the dirty
    roots and the clock exactly as one ``update_pte_flags`` per present
    page does — and a timer firing inside the call sees the same."""
    assert (_mprotect_outcome(vo_kind, cpus, steps, region, span, writable,
                              timers, reference=False)
            == _mprotect_outcome(vo_kind, cpus, steps, region, span,
                                 writable, timers, reference=True))
