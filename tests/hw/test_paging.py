"""Two-level page tables: mapping, walks, permissions, teardown."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemory, PageFault
from repro.hw.memory import PhysicalMemory
from repro.hw.paging import AddressSpace, Pte, vpn_split
from repro.params import PAGE_SIZE, PT_ENTRIES, PT_SPAN


@pytest.fixture
def mem():
    return PhysicalMemory(256)


@pytest.fixture
def aspace(mem):
    return AddressSpace(mem, owner=0)


def test_vpn_split():
    assert vpn_split(0) == (0, 0)
    assert vpn_split(PAGE_SIZE) == (0, 1)
    assert vpn_split(PT_SPAN) == (1, 0)
    assert vpn_split(PT_SPAN + 3 * PAGE_SIZE) == (1, 3)


def test_pgd_occupies_a_frame(mem, aspace):
    assert mem.owner_of(aspace.pgd_frame) == 0
    assert mem.frame_objects[aspace.pgd_frame] is aspace.pgd


def test_map_and_walk(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, Pte(frame=f))
    pte = aspace.walk(0x5000, write=False, user=True)
    assert pte.frame == f
    assert pte.accessed


def test_walk_sets_dirty_on_write(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, Pte(frame=f))
    pte = aspace.walk(0x5000, write=True, user=True)
    assert pte.dirty


def test_walk_unmapped_faults(aspace):
    with pytest.raises(PageFault) as e:
        aspace.walk(0x9000, write=False, user=True)
    assert e.value.vaddr == 0x9000


def test_walk_write_to_readonly_faults(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, Pte(frame=f, writable=False))
    aspace.walk(0x5000, write=False, user=True)  # read ok
    with pytest.raises(PageFault):
        aspace.walk(0x5000, write=True, user=True)


def test_user_access_to_kernel_page_faults(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, Pte(frame=f, user=False))
    with pytest.raises(PageFault):
        aspace.walk(0x5000, write=False, user=True)
    # supervisor access is fine
    assert aspace.walk(0x5000, write=False, user=False).frame == f


def test_not_present_faults(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, Pte(frame=f, present=False))
    with pytest.raises(PageFault):
        aspace.walk(0x5000, write=False, user=True)


def test_leaf_created_lazily(mem, aspace):
    assert aspace.num_pt_pages() == 1
    f = mem.alloc(0)
    aspace.set_pte(PT_SPAN * 2, Pte(frame=f))
    assert aspace.num_pt_pages() == 2
    leaf = aspace.leaf_for(PT_SPAN * 2)
    assert leaf.level == 1
    assert mem.frame_objects[leaf.frame] is leaf


def test_clear_pte(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, Pte(frame=f))
    removed = aspace.clear_pte(0x5000)
    assert removed.frame == f
    assert aspace.get_pte(0x5000) is None
    assert aspace.clear_pte(0x5000) is None  # idempotent


def test_mapped_enumeration(mem, aspace):
    frames = [mem.alloc(0) for _ in range(3)]
    addrs = [0x1000, 0x2000, PT_SPAN + 0x1000]
    for va, f in zip(addrs, frames):
        aspace.set_pte(va, Pte(frame=f))
    assert sorted(aspace.mapped_vaddrs()) == sorted(addrs)
    assert aspace.mapped_count() == 3
    assert sorted(aspace.mapped_frames()) == sorted(frames)


def test_destroy_frees_pt_frames_only(mem, aspace):
    data = mem.alloc(0)
    aspace.set_pte(0x1000, Pte(frame=data))
    free_before = mem.free_frames
    pt_pages = aspace.num_pt_pages()
    aspace.destroy()
    assert mem.free_frames == free_before + pt_pages
    assert mem.owner_of(data) == 0  # the mapped frame is untouched


def test_pte_clone_is_independent():
    p = Pte(frame=1, writable=True)
    q = p.clone()
    q.writable = False
    assert p.writable


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 63), st.booleans()),  # (page index, map/unmap)
    max_size=80))
def test_property_map_walk_consistency(ops):
    """After any map/unmap sequence, walks agree with the shadow model."""
    mem = PhysicalMemory(512)
    aspace = AddressSpace(mem, owner=0)
    shadow: dict[int, int] = {}
    pool = [mem.alloc(0) for _ in range(64)]
    for page, do_map in ops:
        va = page * PAGE_SIZE
        if do_map:
            aspace.set_pte(va, Pte(frame=pool[page]))
            shadow[va] = pool[page]
        else:
            aspace.clear_pte(va)
            shadow.pop(va, None)
    for va, frame in shadow.items():
        assert aspace.walk(va, write=False, user=True).frame == frame
    assert aspace.mapped_count() == len(shadow)


def _tables(aspace):
    """Every leaf — its pgd slot, frame and entry dict, in table order."""
    return [(pgd_idx, leaf.frame, dict(leaf.entries))
            for pgd_idx, leaf in aspace.pgd.entries.items()]


#: (leaf, slot, map?) — leaves 0-3 of a 4-leaf window, a few slots each,
#: so runs of one leaf, leaf switches and clears of missing leaves all occur
REGION = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 5), st.booleans()),
    max_size=40)


def _store(aspace, updates, bulk):
    if bulk:
        aspace.store_region(updates)
        return
    for vaddr, pte in updates:
        if pte is None:
            aspace.clear_pte(vaddr)
        else:
            aspace.set_pte(vaddr, pte)


@settings(max_examples=200, deadline=None)
@given(REGION, REGION, st.integers(0, 8))
def test_store_region_matches_per_entry_stores(setup, region, spare):
    """``store_region`` leaves the same leaf dicts as one ``set_pte`` /
    ``clear_pte`` per entry, creates missing leaves in the same order (so
    on the same frames), and runs out of memory at the same entry."""
    results = []
    for bulk in (True, False):
        mem = PhysicalMemory(1 + 8 + spare)
        aspace = AddressSpace(mem, owner=0)
        pool = [mem.alloc(0) for _ in range(8)]
        error = None
        try:
            for ops in (setup, region):
                _store(aspace, [(leaf * PT_SPAN + slot * PAGE_SIZE,
                                 Pte(pool[slot]) if do_map else None)
                                for leaf, slot, do_map in ops], bulk)
        except OutOfMemory as exc:
            error = str(exc)
        results.append((_tables(aspace), mem.free_frames, error))
    assert results[0] == results[1]


def _destroy_loop(aspace):
    # the per-frame teardown destroy() replaces
    for leaf in list(aspace.pgd.entries.values()):
        aspace.mem.free(leaf.frame)
    aspace.pgd.entries.clear()
    aspace.mem.free(aspace.pgd.frame)


@pytest.mark.parametrize("bad", [None, 0, 1, 2, "pgd"])
def test_destroy_with_a_bad_frame_matches_per_frame_loop(bad):
    """A page-table frame already freed under a live table makes destroy
    raise the per-frame loop's double free, with the same leaves freed and
    the same table dicts left behind."""
    outcomes = []
    for bulk in (True, False):
        mem = PhysicalMemory(16)
        aspace = AddressSpace(mem, owner=0)
        data = mem.alloc(0)
        for i in range(3):
            aspace.set_pte(i * PT_SPAN, Pte(data))
        if bad is not None:
            mem.free(aspace.pgd_frame if bad == "pgd"
                     else aspace.leaf_for(bad * PT_SPAN).frame)
        try:
            aspace.destroy() if bulk else _destroy_loop(aspace)
            error = None
        except Exception as exc:
            error = (type(exc), str(exc))
        outcomes.append((list(mem.owner), list(mem._recycled),
                         list(mem.frame_objects),
                         list(aspace.pgd.entries), error))
    assert outcomes[0] == outcomes[1]
