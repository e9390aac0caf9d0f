"""Load-balancer policies, lifecycle states, and routability rules."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import LoadBalancer, MachineState, NoRoutableMachine


def test_round_robin_cycles_in_index_order():
    lb = LoadBalancer([1, 2, 3], policy="round-robin")
    picks = []
    for _ in range(6):
        i = lb.pick()
        lb.dispatched(i)
        picks.append(i)
    assert picks == [1, 2, 3, 1, 2, 3]


def test_least_outstanding_prefers_idle_machine():
    lb = LoadBalancer([1, 2, 3], policy="least-outstanding")
    lb.dispatched(1)
    lb.dispatched(1)
    lb.dispatched(2)
    assert lb.pick() == 3
    lb.dispatched(3)
    assert lb.pick() == 2  # ties broken by lower index


def test_switch_aware_skips_draining_but_least_outstanding_does_not():
    aware = LoadBalancer([1, 2], policy="switch-aware")
    naive = LoadBalancer([1, 2], policy="least-outstanding")
    for lb in (aware, naive):
        lb.dispatched(2)      # machine 1 now has the fewest outstanding
        lb.mark_draining(1)
    assert aware.pick() == 2  # drain respected
    assert naive.pick() == 1  # drain invisible to the naive policy


def test_switching_and_down_never_routable_under_any_policy():
    for policy in ("round-robin", "least-outstanding", "switch-aware"):
        lb = LoadBalancer([1, 2], policy=policy)
        lb.mark_switching(1)
        assert lb.pick() == 2
        lb.mark_down(2)
        with pytest.raises(NoRoutableMachine):
            lb.pick()


def test_spares_held_out_until_promoted():
    lb = LoadBalancer([1, 2, 3], spares=[3])
    assert lb.spare_machines() == [3]
    assert lb.serving_machines() == [1, 2]
    for _ in range(5):
        assert lb.pick() != 3
        lb.dispatched(lb.pick())
    lb.mark_ready(3)
    lb.dispatched(1)
    lb.dispatched(2)
    assert lb.pick() == 3


def test_drain_bookkeeping():
    lb = LoadBalancer([1, 2])
    lb.dispatched(1)
    lb.mark_draining(1)
    assert not lb.drained(1)
    lb.completed(1)
    assert lb.drained(1)
    with pytest.raises(RuntimeError, match="nothing outstanding"):
        lb.completed(1)


def test_validation():
    with pytest.raises(ValueError, match="unknown policy"):
        LoadBalancer([1], policy="random")
    with pytest.raises(ValueError, match="at least one machine"):
        LoadBalancer([])
    with pytest.raises(KeyError):
        LoadBalancer([1]).mark_down(7)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       policy=st.sampled_from(("round-robin", "least-outstanding",
                               "switch-aware")),
       ops=st.lists(st.integers(min_value=0, max_value=30), max_size=40))
def test_pick_never_returns_unroutable_machine(n, policy, ops):
    """Whatever the dispatch/state history, a pick is READY (or DRAINING
    only under the drain-blind policies)."""
    lb = LoadBalancer(range(n), policy=policy)
    states = (MachineState.READY, MachineState.DRAINING,
              MachineState.SWITCHING, MachineState.DOWN, MachineState.SPARE)
    for op in ops:
        machine, action = op % n, op % 5
        if action == 4:
            try:
                lb.completed(machine)
            except RuntimeError:
                pass
        else:
            lb.mark(machine, states[action])
        try:
            pick = lb.pick()
        except NoRoutableMachine:
            continue
        lb.dispatched(pick)
        ok = (MachineState.READY,) if policy == "switch-aware" else (
            MachineState.READY, MachineState.DRAINING)
        assert lb.state[pick] in ok


class _ReferenceBalancer(LoadBalancer):
    """The routing code as first written: re-sort every machine on every
    pick.  The shipped balancer sorts once at construction and must pick
    the very same sequence."""

    def _routable(self):
        allow_draining = self.policy != "switch-aware"
        out = []
        for index in sorted(self.state):
            st = self.state[index]
            if st is MachineState.READY or (
                    allow_draining and st is MachineState.DRAINING):
                out.append(index)
        return out

    def pick(self):
        routable = self._routable()
        if not routable:
            raise NoRoutableMachine(self.policy)
        if self.policy == "round-robin":
            for index in routable:
                if index > self._rr_last:
                    self._rr_last = index
                    return index
            self._rr_last = routable[0]
            return routable[0]
        return min(routable, key=lambda i: (self.outstanding[i], i))


@settings(max_examples=60, deadline=None)
@given(machines=st.lists(st.integers(min_value=0, max_value=200),
                         min_size=1, max_size=12, unique=True),
       policy=st.sampled_from(("round-robin", "least-outstanding",
                               "switch-aware")),
       spare_mask=st.integers(min_value=0, max_value=2**12 - 1),
       ops=st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                              st.integers(min_value=0, max_value=9)),
                    max_size=80))
def test_pick_sequence_matches_reference(machines, policy, spare_mask,
                                         ops):
    """Over any machine set (given in any order), policy, spare set and
    history of marks, completions and picks, the balancer routes exactly
    as the re-sorting reference does."""
    spares = [m for bit, m in enumerate(machines) if spare_mask >> bit & 1]
    lbs = [cls(machines, policy=policy, spares=spares)
           for cls in (LoadBalancer, _ReferenceBalancer)]
    states = list(MachineState)
    for slot, action in ops:
        machine = machines[slot % len(machines)]
        outcomes = []
        for lb in lbs:
            if action < len(states):
                lb.mark(machine, states[action])
                outcomes.append(None)
            elif action == len(states):
                if lb.outstanding[machine]:
                    lb.completed(machine)
                outcomes.append(None)
            else:
                try:
                    pick = lb.pick()
                except NoRoutableMachine:
                    outcomes.append("none")
                    continue
                lb.dispatched(pick)
                outcomes.append(pick)
        assert outcomes[0] == outcomes[1]
        assert lbs[0].serving_machines() == lbs[1].serving_machines()
        assert lbs[0].spare_machines() == lbs[1].spare_machines()
