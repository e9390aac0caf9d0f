"""The hypercall table: mmu_update, pinning, traps, events, scheduling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, small_config
from repro.errors import HypercallError, PageValidationError
from repro.hw.paging import AddressSpace, Pte
from repro.params import PAGE_SIZE, PT_SPAN
from repro.vmm.hypervisor import Hypervisor
from repro.vmm.page_info import _L1, _L2, PageType


@pytest.fixture
def env(machine, warm_vmm):
    dom = warm_vmm.create_domain("d", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    aspace = AddressSpace(machine.memory, owner=0)
    dom.register_aspace(aspace)
    return machine.boot_cpu, machine, warm_vmm, dom, aspace


def test_mmu_update_installs_and_clears(env):
    cpu, machine, vmm, dom, aspace = env
    frame = machine.memory.alloc(0)
    n = vmm.hypercall(cpu, dom, "mmu_update",
                      [(aspace, 0x4000, Pte(frame=frame))])
    assert n == 1
    assert aspace.get_pte(0x4000).frame == frame
    vmm.hypercall(cpu, dom, "mmu_update", [(aspace, 0x4000, None)])
    assert aspace.get_pte(0x4000) is None
    assert vmm.page_info.type[frame] == PageType.NONE


def test_mmu_update_unregistered_aspace_rejected(env):
    cpu, machine, vmm, dom, aspace = env
    rogue = AddressSpace(machine.memory, owner=0)
    frame = machine.memory.alloc(0)
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "mmu_update",
                      [(rogue, 0x4000, Pte(frame=frame))])


def test_mmu_update_foreign_frame_rejected(env):
    cpu, machine, vmm, dom, aspace = env
    foreign = machine.memory.alloc(31)
    with pytest.raises(PageValidationError):
        vmm.hypercall(cpu, dom, "mmu_update",
                      [(aspace, 0x4000, Pte(frame=foreign))])


def test_update_va_mapping_costs_more_than_batched(env):
    cpu, machine, vmm, dom, aspace = env
    frames = [machine.memory.alloc(0) for _ in range(8)]
    t0 = cpu.rdtsc()
    for i, f in enumerate(frames[:4]):
        vmm.hypercall(cpu, dom, "update_va_mapping", aspace,
                      0x10000 + i * 4096, Pte(frame=f))
    single = cpu.rdtsc() - t0
    t0 = cpu.rdtsc()
    vmm.hypercall(cpu, dom, "mmu_update",
                  [(aspace, 0x20000 + i * 4096, Pte(frame=f))
                   for i, f in enumerate(frames[4:])])
    batched = cpu.rdtsc() - t0
    assert batched < single


def test_pin_unpin_table(env):
    cpu, machine, vmm, dom, aspace = env
    frame = machine.memory.alloc(0)
    aspace.set_pte(0x1000, Pte(frame=frame))
    vmm.hypercall(cpu, dom, "mmuext_op", "pin_table", aspace)
    assert aspace.pgd_frame in vmm.page_info.pinned
    vmm.hypercall(cpu, dom, "mmuext_op", "unpin_table", aspace)
    assert aspace.pgd_frame not in vmm.page_info.pinned


def test_new_baseptr_requires_pin(env):
    cpu, machine, vmm, dom, aspace = env
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "mmuext_op", "new_baseptr", aspace)
    vmm.hypercall(cpu, dom, "mmuext_op", "pin_table", aspace)
    vmm.hypercall(cpu, dom, "mmuext_op", "new_baseptr", aspace)
    assert cpu.cr3 == aspace.pgd_frame


def test_tlb_ops(env):
    cpu, machine, vmm, dom, aspace = env
    cpu.tlb.fill(5, 50, True)
    vmm.hypercall(cpu, dom, "mmuext_op", "invlpg_local", None, 5 * 4096)
    assert 5 not in cpu.tlb
    cpu.tlb.fill(6, 60, True)
    vmm.hypercall(cpu, dom, "mmuext_op", "tlb_flush_local")
    assert len(cpu.tlb) == 0


def test_unknown_mmuext_rejected(env):
    cpu, machine, vmm, dom, aspace = env
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "mmuext_op", "frobnicate")


def test_set_trap_table_refreshes_active_idt(env):
    cpu, machine, vmm, dom, aspace = env
    got = []
    vmm.hypercall(cpu, dom, "set_trap_table",
                  {0x33: lambda c, v: got.append(v)})
    machine.intc.raise_vector(0, 0x33)
    machine.poll()
    assert got == [0x33]


def test_set_gdt_refuses_pl0(env):
    cpu, machine, vmm, dom, aspace = env
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "set_gdt", 0)


def test_set_gdt_applies_dpl(env):
    cpu, machine, vmm, dom, aspace = env
    from repro.hw.cpu import SegmentDescriptor
    cpu.gdt = {1: SegmentDescriptor("kernel_cs", 0)}
    vmm.hypercall(cpu, dom, "set_gdt", 1)
    assert cpu.gdt[1].dpl == 1


def test_vm_assist_toggles(env):
    cpu, machine, vmm, dom, aspace = env
    vmm.hypercall(cpu, dom, "vm_assist", "writable_pagetables", True)
    assert "writable_pagetables" in dom.assists
    vmm.hypercall(cpu, dom, "vm_assist", "writable_pagetables", False)
    assert "writable_pagetables" not in dom.assists


def test_event_channel_op_send_foreign_rejected(env):
    cpu, machine, vmm, dom, aspace = env
    other = vmm.create_domain("other")
    ch = vmm.hypercall(cpu, other, "event_channel_op", "alloc")
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "event_channel_op", "send", ch)


def test_grant_table_op_roundtrip(env):
    cpu, machine, vmm, dom, aspace = env
    other = vmm.create_domain("other")
    frame = machine.memory.alloc(0)
    grant = vmm.hypercall(cpu, dom, "grant_table_op", "grant",
                          frame, other.domain_id, False)
    mapped = vmm.hypercall(cpu, other, "grant_table_op", "map",
                           dom.domain_id, grant.ref)
    assert mapped.frame == frame
    vmm.hypercall(cpu, other, "grant_table_op", "unmap",
                  dom.domain_id, grant.ref)


def test_sched_op_yield_and_block(env):
    cpu, machine, vmm, dom, aspace = env
    nxt = vmm.hypercall(cpu, dom, "sched_op", "yield")
    assert nxt is not None
    vmm.hypercall(cpu, dom, "sched_op", "block")
    assert not dom.vcpus[0].runnable


def test_stack_switch_records_sp(env):
    cpu, machine, vmm, dom, aspace = env
    vmm.hypercall(cpu, dom, "stack_switch", 0xdeadbeef)
    assert dom.vcpus[0].kernel_sp == 0xdeadbeef


# ---------------------------------------------------------------------------
# mmu_update's leaf cache and empty-TLB skip against per-entry semantics
# ---------------------------------------------------------------------------

#: data frames per stack; slot NUM_DATA maps a page-table frame (a writable
#: mapping of it must be refused) and NUM_DATA + 1 a foreign frame
NUM_DATA = 6


def _mmu_stack():
    """A warm, active VMM with two registered address spaces (one pinned
    with a few mappings, one unpinned) and data frames to map.  Built the
    same way every time, so frame numbers line up across stacks."""
    machine = Machine(small_config())
    vmm = Hypervisor(machine)
    vmm.warm_up()
    dom = vmm.create_domain("d", domain_id=0, is_driver_domain=True)
    vmm.activate()
    mem = machine.memory
    pinned, loose = (AddressSpace(mem, owner=0) for _ in range(2))
    frames = [mem.alloc(0) for _ in range(NUM_DATA)]
    for i, frame in enumerate(frames[:3]):
        pinned.set_pte(i * PT_SPAN + i * PAGE_SIZE, Pte(frame))
    for aspace in (pinned, loose):
        dom.register_aspace(aspace)
    vmm.hypercall(machine.boot_cpu, dom, "mmuext_op", "pin_table", pinned)
    frames += [pinned.pgd_frame, mem.alloc(31)]
    return machine.boot_cpu, vmm, dom, (pinned, loose), frames


def _per_entry_mmu_update(vmm, cpu, dom, updates):
    """The batch one entry at a time through the non-inlined page-info
    methods, with an invlpg per entry."""
    info = vmm.page_info
    for aspace, vaddr, pte in updates:
        if aspace not in dom.aspaces:
            raise HypercallError("unregistered")
        cpu.clock.cycles += cpu.cost.cyc_mmu_update_batched
        if pte is None:
            info.account_pte_clear(cpu, aspace.clear_pte(vaddr))
        else:
            old = aspace.get_pte(vaddr)
            info.validate_pte_write(cpu, pte, dom.domain_id)
            info.account_pte_clear(cpu, old)
            aspace.set_pte(vaddr, pte)
            leaf = aspace.leaf_for(vaddr)
            if (info.pinned_map[aspace.pgd_frame]
                    and info.type[leaf.frame] not in (_L1, _L2)):
                info.adopt_new_leaf(cpu, leaf)
        cpu.tlb.invalidate(vaddr // PAGE_SIZE)


def _mmu_state(cpu, vmm, aspaces):
    info = vmm.page_info
    tables = [[(i, leaf.frame, dict(leaf.entries))
               for i, leaf in a.pgd.entries.items()] for a in aspaces]
    return (tables, bytes(info.type), list(info.type_count),
            list(info.ref_count), bytes(info.pinned_map),
            list(cpu.tlb._entries.items()), cpu.clock.cycles)


#: (address space, leaf, slot, frame slot or None to clear, writable)
MMU_BATCH = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3),
              st.one_of(st.none(), st.integers(0, NUM_DATA + 1)),
              st.booleans()),
    min_size=1, max_size=24)


@settings(max_examples=200, deadline=None)
@given(MMU_BATCH, st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           max_size=12))
def test_mmu_update_matches_per_entry_invlpg(batch, cached):
    """Whatever the TLB holds at entry, ``mmu_update`` leaves the page
    tables, page-info columns, TLB and clock exactly as the per-entry
    semantics do — including after an entry it refuses — and with an
    empty TLB at entry the tables and columns are the same again."""
    outcomes = []
    for mode in ("batched", "per-entry", "empty-tlb"):
        cpu, vmm, dom, aspaces, frames = _mmu_stack()
        updates = [(aspaces[a], leaf * PT_SPAN + slot * PAGE_SIZE,
                    None if f is None else Pte(frames[f], True, w))
                   for a, leaf, slot, f, w in batch]
        if mode != "empty-tlb":
            # batch vpns and one the batch never touches
            for leaf, slot in cached + [(40, 0)]:
                cpu.tlb.fill((leaf * PT_SPAN) // PAGE_SIZE + slot, 0, True)
        try:
            if mode == "per-entry":
                _per_entry_mmu_update(vmm, cpu, dom, updates)
            else:
                vmm.hypercall(cpu, dom, "mmu_update", updates)
            error = None
        except PageValidationError as exc:
            error = str(exc)
        outcomes.append((_mmu_state(cpu, vmm, aspaces), error))
    batched, per_entry, empty = outcomes
    # the hypercall entry charge is the only difference in cycles
    (*tables, tlb, cycles), error = batched
    assert ((*tables, tlb), error) == (per_entry[0][:-1], per_entry[1])
    assert cycles - per_entry[0][-1] == cpu.cost.cyc_hypercall
    assert empty == ((*tables, [], cycles), error)
