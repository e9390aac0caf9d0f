"""Physical memory: allocation, ownership, contents, dirty generations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidPhysicalAddress, OutOfMemory
from repro.hw.memory import OWNER_FREE, PhysicalMemory


def test_alloc_assigns_owner():
    mem = PhysicalMemory(16)
    f = mem.alloc(owner=3)
    assert mem.owner_of(f) == 3
    assert mem.free_frames == 15


def test_alloc_is_deterministic_lowest_first():
    mem = PhysicalMemory(16)
    assert mem.alloc(0) == 0
    assert mem.alloc(0) == 1


def test_free_returns_frame():
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    mem.free(f)
    assert mem.free_frames == 4
    assert mem.owner_of(f) == OWNER_FREE


def test_double_free_rejected():
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    mem.free(f)
    with pytest.raises(InvalidPhysicalAddress):
        mem.free(f)


def test_exhaustion_raises_oom():
    mem = PhysicalMemory(2)
    mem.alloc(0)
    mem.alloc(0)
    with pytest.raises(OutOfMemory):
        mem.alloc(0)


def test_alloc_many_all_or_nothing():
    mem = PhysicalMemory(4)
    with pytest.raises(OutOfMemory):
        mem.alloc_many(0, 5)
    assert mem.free_frames == 4  # nothing leaked


def test_alloc_specific():
    mem = PhysicalMemory(8)
    f = mem.alloc_specific(5, owner=2)
    assert f == 5
    assert mem.owner_of(5) == 2
    with pytest.raises(InvalidPhysicalAddress):
        mem.alloc_specific(5, owner=2)


def test_write_read_roundtrip():
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    mem.write(f, {"payload": 1})
    assert mem.read(f) == {"payload": 1}


def test_write_to_free_frame_rejected():
    mem = PhysicalMemory(4)
    with pytest.raises(InvalidPhysicalAddress):
        mem.write(0, "x")


def test_generation_bumps_on_write():
    """Migration's dirty logging depends on the per-frame generation."""
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    g0 = int(mem.generation[f])
    mem.write(f, "a")
    mem.write(f, "b")
    assert int(mem.generation[f]) == g0 + 2


def test_free_clears_contents():
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    mem.write(f, "secret")
    mem.free(f)
    f2 = mem.alloc(1)
    assert f2 == f  # frame reused
    assert mem.read(f2) is None  # no data leak across owners


def test_frames_owned_by():
    mem = PhysicalMemory(8)
    a = mem.alloc(1)
    b = mem.alloc(2)
    c = mem.alloc(1)
    owned = set(int(x) for x in mem.frames_owned_by(1))
    assert owned == {a, c}


def test_reassign_transfers_ownership():
    mem = PhysicalMemory(4)
    f = mem.alloc(1)
    mem.reassign(f, 2)
    assert mem.owner_of(f) == 2


def test_reassign_free_frame_rejected():
    mem = PhysicalMemory(4)
    with pytest.raises(InvalidPhysicalAddress):
        mem.reassign(0, 2)


def test_snapshot_owner_frames():
    mem = PhysicalMemory(8)
    f1 = mem.alloc(1)
    f2 = mem.alloc(1)
    mem.alloc(2)
    mem.write(f1, "one")
    snap = mem.snapshot_owner_frames(1)
    assert snap == {f1: "one", f2: None}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["alloc", "free"]), max_size=60))
def test_property_alloc_free_conserves_frames(ops):
    """No sequence of allocs/frees loses or duplicates frames."""
    mem = PhysicalMemory(16)
    held: list[int] = []
    for op in ops:
        if op == "alloc" and mem.free_frames:
            held.append(mem.alloc(0))
        elif op == "free" and held:
            mem.free(held.pop())
    assert mem.free_frames + len(held) == 16
    assert len(set(held)) == len(held)  # no frame handed out twice


# ---------------------------------------------------------------------------
# bulk alloc/free: equivalence with the per-frame loops they replace
# ---------------------------------------------------------------------------

NUM = 24


def _state(mem):
    return (list(mem.owner), list(mem._recycled), mem._next_fresh,
            sorted(mem._fresh_skipped), mem.free_frames,
            dict(mem._contents), dict(mem.frame_objects))


def _outcome(fn):
    """``(result, None)`` or ``(None, (exception type, message))``."""
    try:
        return fn(), None
    except (InvalidPhysicalAddress, OutOfMemory) as exc:
        return None, (type(exc), str(exc))


def _alloc_loop(mem, owner, n):
    # the per-frame path alloc_many replaces: same up-front check, then
    # one alloc() per frame
    if n > mem.free_frames:
        raise OutOfMemory(f"requested {n} frames, {mem.free_frames} free")
    return [mem.alloc(owner) for _ in range(n)]


def _free_loop(mem, frames):
    # the per-frame free free_many replaces, written out: free() itself
    # is now a one-frame free_many
    for frame in frames:
        if not 0 <= frame < mem.num_frames:
            raise InvalidPhysicalAddress(f"frame {frame} out of range")
        if mem.owner[frame] == OWNER_FREE:
            raise InvalidPhysicalAddress(f"double free of frame {frame}")
        mem.owner[frame] = OWNER_FREE
        mem._contents.pop(frame, None)
        mem.frame_objects.pop(frame, None)
        mem._recycled.append(frame)


#: one step: ("alloc", n), ("specific", frame), ("write", pick) giving a
#: held frame contents and a frame object, or ("free", picks) where a pick
#: indexes the held frames, or names a bad frame: -1 out of range, -2 an
#: already-free frame, -3 a repeat of the batch's previous frame
STEP = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 10)),
    st.tuples(st.just("specific"), st.integers(0, NUM - 1)),
    st.tuples(st.just("free"), st.lists(st.integers(-3, 30), max_size=10)),
    st.tuples(st.just("write"), st.integers(0, 30)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(STEP, max_size=30))
def test_bulk_alloc_free_match_per_frame_loops(steps):
    """``alloc_many``/``free_many`` hand out and take back the same frames
    in the same order as the per-frame loops — including around
    ``alloc_specific`` gaps — and a bad free batch raises the same error
    from the same state."""
    bulk, ref = PhysicalMemory(NUM), PhysicalMemory(NUM)
    held: list[int] = []
    for step, (kind, arg) in enumerate(steps):
        owner = step % 5
        if kind == "alloc":
            got = _outcome(lambda: bulk.alloc_many(owner, arg))
            assert got == _outcome(lambda: _alloc_loop(ref, owner, arg))
            held += got[0] or []
        elif kind == "specific":
            got = _outcome(lambda: bulk.alloc_specific(arg, owner))
            assert got == _outcome(lambda: ref.alloc_specific(arg, owner))
            if got[1] is None:
                held.append(arg)
        elif kind == "write":
            if held:
                frame = held[arg % len(held)]
                bulk.write(frame, step)
                ref.write(frame, step)
                bulk.frame_objects[frame] = ref.frame_objects[frame] = step
        else:
            batch = []
            for pick in arg:
                if pick == -1:
                    batch.append(NUM + 3)
                elif pick == -2:
                    free = [f for f in range(NUM) if bulk.owner[f] == OWNER_FREE]
                    if free:
                        batch.append(free[0])
                elif pick == -3:
                    if batch:
                        batch.append(batch[-1])
                elif held:
                    batch.append(held[pick % len(held)])
            got = _outcome(lambda: bulk.free_many(iter(batch)))
            assert got == _outcome(lambda: _free_loop(ref, batch))
            held = [f for f in held if bulk.owner[f] != OWNER_FREE]
        assert _state(bulk) == _state(ref)


def test_free_many_stops_at_first_bad_frame():
    mem = PhysicalMemory(8)
    a, b, c = mem.alloc_many(1, 3)
    with pytest.raises(InvalidPhysicalAddress, match=f"double free of frame {b}"):
        mem.free_many([a, b, b, c])
    assert mem._recycled == [a, b]        # freed in batch order
    assert mem.owner_of(c) == 1           # after the bad frame: untouched
    with pytest.raises(InvalidPhysicalAddress, match="frame 99 out of range"):
        mem.free_many([c, 99])
    assert mem.owner_of(c) == OWNER_FREE


def test_alloc_many_takes_recycled_lifo_then_lowest_fresh():
    mem = PhysicalMemory(16)
    first = mem.alloc_many(0, 6)
    mem.free_many([first[1], first[4]])
    mem.alloc_specific(7, owner=2)        # a gap in the fresh range
    assert mem.alloc_many(0, 5) == [first[4], first[1], 6, 8, 9]


def test_alloc_specific_of_freed_skipped_frame_is_not_handed_out_twice():
    """A frame claimed above the watermark, freed, then claimed again sits
    on the recycled stack: the second claim must take it off, or the next
    alloc hands out a frame someone owns."""
    mem = PhysicalMemory(8)
    mem.alloc_specific(5, owner=2)
    mem.free(5)
    mem.alloc_specific(5, owner=3)
    assert mem.free_frames == 7
    frames = mem.alloc_many(0, 7)
    assert 5 not in frames
    assert mem.owner_of(5) == 3
