"""The one-pass trace renderer and the span hook, against what they replace.

:func:`repro.trace.render` validates a stream and renders its canonical
lines in one pass, memoising each distinct line.  It must return exactly
what the two separate passes it replaced returned; those passes are kept
here, verbatim, as the reference.  The generated streams cover several
CPUs, unknown kinds, ring truncation (``dropped > 0`` with the head
evicted), mismatched ENDs (where the rendered depth and the validation
stack part ways), unclosed BEGINs, and args whose values hash equal but
render differently (``True``/``1``/``1.0``), unhashable values and
permuted key order.

:class:`repro.trace.span` is a slotted context manager in place of a
``@contextmanager`` generator; it must record the same events, including
when the body raises and when a tracer is unbound or rebound mid-span.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro import trace
from repro.trace import BEGIN, END, INSTANT, TraceEvent

# ---------------------------------------------------------------------------
# reference: the separate validate + canonical_lines passes
# ---------------------------------------------------------------------------

_DIGITS = re.compile(r"\d+")
_KIND_MARK = {BEGIN: ">", END: "<", INSTANT: "*"}


def ref_validate(events, dropped=0):
    errors = []
    stacks = {}
    last_ts = {}
    for ev in events:
        prev = last_ts.get(ev.cpu_id)
        if prev is not None and ev.ts < prev:
            errors.append(f"cpu{ev.cpu_id}: timestamp went backwards at "
                          f"{ev.kind} {ev.name} ({ev.ts} < {prev})")
        last_ts[ev.cpu_id] = ev.ts
        stack = stacks.setdefault(ev.cpu_id, [])
        if ev.kind == BEGIN:
            stack.append(ev.name)
        elif ev.kind == END:
            if stack:
                if stack[-1] != ev.name:
                    errors.append(
                        f"cpu{ev.cpu_id}: end {ev.name!r} does not match "
                        f"open span {stack[-1]!r} (spans must nest)")
                else:
                    stack.pop()
            elif dropped == 0:
                errors.append(f"cpu{ev.cpu_id}: end {ev.name!r} with no "
                              f"open span and nothing dropped")
        elif ev.kind != INSTANT:
            errors.append(f"cpu{ev.cpu_id}: unknown event kind {ev.kind!r}")
    for cpu_id, stack in stacks.items():
        for name in stack:
            errors.append(f"cpu{cpu_id}: span {name!r} never ended")
    return errors


def ref_canonical_lines(events):
    depths = {}
    lines = []
    for ev in events:
        depth = depths.get(ev.cpu_id, 0)
        if ev.kind == END:
            depth = max(0, depth - 1)
            depths[ev.cpu_id] = depth
        parts = [f"cpu{ev.cpu_id}", ". " * depth + _KIND_MARK[ev.kind],
                 ev.name]
        if ev.args:
            for key in sorted(ev.args):
                value = ev.args[key]
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    parts.append(f"{key}={_DIGITS.sub('N', str(value))}")
        lines.append(" ".join(parts))
        if ev.kind == BEGIN:
            depths[ev.cpu_id] = depth + 1
    return lines


# ---------------------------------------------------------------------------
# generated streams
# ---------------------------------------------------------------------------

#: values that hash equal but render differently, a digit-bearing string,
#: None, an unhashable list and two equal tuples that render differently
ARG_VALUES = st.sampled_from(
    [True, False, 1, 0, 1.0, 0.0, "a12", "a7", None, [1, 2], (1,), (1.0,)])


@st.composite
def arg_dicts(draw):
    """Args as the hooks see them: None or a non-empty dict, its keys in a
    drawn order (so equal dicts arrive with permuted key order)."""
    keys = draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
    if not keys:
        return None
    keys = draw(st.permutations(keys))
    return {key: draw(ARG_VALUES) for key in keys}


@st.composite
def raw_events(draw):
    kind = draw(st.sampled_from([BEGIN, BEGIN, END, END, INSTANT, "X"]))
    return (kind, draw(st.sampled_from(["p", "q", "r1"])),
            draw(st.integers(0, 2)), draw(st.integers(0, 3)),
            draw(arg_dicts()))


@st.composite
def streams(draw):
    """``(events, dropped)``: a stream whose timestamps mostly climb (each
    raw event carries a step of 0-3 cycles; a step of 3 goes back 2), and
    whose head may have been evicted by ring overflow."""
    raw = draw(st.lists(raw_events(), max_size=60))
    events = []
    ts = 10
    for seq, (kind, name, cpu_id, step, args) in enumerate(raw):
        ts += -2 if step == 3 else step
        events.append(TraceEvent(kind, name, cpu_id, ts, seq, args))
    evicted = draw(st.integers(0, len(events)))
    dropped = evicted + draw(st.integers(0, 2)) if evicted else \
        draw(st.sampled_from([0, 0, 0, 5]))
    return events[evicted:], dropped


@settings(max_examples=400, deadline=None)
@given(streams())
def test_render_matches_separate_passes(stream):
    events, dropped = stream
    lines, errors = trace.render(events, dropped)
    # the reference renderer has no line for an unknown kind (it raises);
    # such an event moves neither depth nor line order
    known = [ev for ev in events if ev.kind in _KIND_MARK]
    assert lines == ref_canonical_lines(known)
    assert errors == ref_validate(events, dropped)
    assert trace.validate(events, dropped) == errors
    assert trace.canonical_lines(events) == lines


def test_memo_tells_equal_hashing_args_apart():
    """One stream, one (cpu, depth, kind, name): every value renders its
    own line even though several are equal as dict keys."""
    values = [True, 1, 1.0, "1", None, (1,), (1.0,), [1], False, 0]
    events = [TraceEvent(INSTANT, "n", 0, 0, seq, {"v": value})
              for seq, value in enumerate(values)]
    lines, errors = trace.render(events)
    assert errors == []
    assert lines == ["cpu0 * n v=True", "cpu0 * n", "cpu0 * n",
                     "cpu0 * n v=N", "cpu0 * n v=None", "cpu0 * n v=(N,)",
                     "cpu0 * n v=(N.N,)", "cpu0 * n v=[N]",
                     "cpu0 * n v=False", "cpu0 * n"]


def test_depth_and_stack_diverge_on_a_mismatched_end():
    """A mismatched END leaves the validation stack alone but still lowers
    the rendered depth; both halves must follow their own counter."""
    kinds = [(BEGIN, "a"), (BEGIN, "b"), (END, "a"), (INSTANT, "i"),
             (END, "b"), (INSTANT, "j")]
    events = [TraceEvent(kind, name, 0, seq, seq)
              for seq, (kind, name) in enumerate(kinds)]
    lines, errors = trace.render(events)
    assert lines == ["cpu0 > a", "cpu0 . > b", "cpu0 . < a", "cpu0 . * i",
                     "cpu0 < b", "cpu0 * j"]
    assert errors == ["cpu0: end 'a' does not match open span 'b' "
                      "(spans must nest)",
                      "cpu0: span 'a' never ended"]


# ---------------------------------------------------------------------------
# the span hook
# ---------------------------------------------------------------------------

@contextmanager
def ref_span(cpu, name, **args):
    trace.begin(cpu, name, **args)
    try:
        yield
    finally:
        trace.end(cpu, name)


class Boom(Exception):
    pass


#: a program is a list of ops:
#:   ("tick", n)                          advance the clock
#:   ("bind", None | 0 | 1)               unbind, or bind tracer 0 or 1
#:   ("instant", name)                    record an instant
#:   ("raise",)                           raise Boom
#:   ("span", name, args, body, catch)    run body in a span; catch Boom
#:                                        around the with-block if asked
def programs():
    leaf = st.one_of(
        st.tuples(st.just("tick"), st.integers(0, 5)),
        st.tuples(st.just("bind"), st.sampled_from([None, 0, 1])),
        st.tuples(st.just("instant"), st.sampled_from(["i", "j"])),
        st.just(("raise",)))
    return st.recursive(
        st.lists(leaf, max_size=4),
        lambda body: st.lists(st.one_of(leaf, st.tuples(
            st.just("span"), st.sampled_from(["s", "t"]),
            st.dictionaries(st.sampled_from("xy"), ARG_VALUES, max_size=2),
            body, st.booleans())), max_size=4),
        max_leaves=20)


def _run(program, span_impl, start_bound):
    clock = SimpleNamespace(cycles=0, tracer=None)
    cpu = SimpleNamespace(cpu_id=0, clock=clock)
    tracers = [trace.Tracer(clock), trace.Tracer(clock)]
    clock.tracer = tracers[0] if start_bound else None

    def execute(ops):
        for op in ops:
            if op[0] == "tick":
                clock.cycles += op[1]
            elif op[0] == "bind":
                clock.tracer = None if op[1] is None else tracers[op[1]]
            elif op[0] == "instant":
                trace.instant(cpu, op[1])
            elif op[0] == "raise":
                raise Boom
            else:
                _, name, args, body, catch = op
                try:
                    with span_impl(cpu, name, **args):
                        execute(body)
                except Boom:
                    if not catch:
                        raise

    try:
        execute(program)
        escaped = False
    except Boom:
        escaped = True
    return escaped, [[(ev.kind, ev.name, ev.cpu_id, ev.ts, ev.seq, ev.args)
                      for ev in tracer.events()] for tracer in tracers]


@settings(max_examples=300, deadline=None)
@given(programs(), st.booleans())
def test_span_class_matches_contextmanager(program, start_bound):
    assert _run(program, trace.span, start_bound) == \
        _run(program, ref_span, start_bound)

