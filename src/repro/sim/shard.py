"""Fleet sharding: machines, messages, and the per-shard step engine.

The sharded simulation (:mod:`repro.sim.pool`) partitions a fleet of
machines across shards — each shard a plain object here, hosted either
in-process or in a worker process.  Every machine keeps its *own*
:class:`~repro.hw.clock.Clock`, :class:`~repro.sim.scheduler.SimScheduler`
and :class:`~repro.trace.Tracer`, the tracer bound to the clock for the
node's whole life in its shard; machines interact **only** through
:class:`FleetMessage` values exchanged at time-window barriers.

The determinism contract has three legs:

1. **Local purity.**  A machine's evolution is a pure function of its
   build parameters and the sequence of inbound messages (with their
   delivery cycles).  Nothing else crosses the machine boundary.
2. **Conservative lookahead.**  Every message carries latency >= the
   barrier window, so a message posted during one window can only take
   effect in a later one — no shard can ever need information another
   shard has not yet produced.
3. **Canonical batch order.**  At each barrier the pool sorts the global
   batch by ``(deliver_cycle, src, src_seq, dst)`` before handing shards
   their slice.  Each machine therefore sees its inbound messages in the
   same order whatever the partition, and schedules them with the same
   local seq tickets.

Together these make a ``workers=k`` run byte-identical to the
``workers=1`` serial fallback, which executes the very same barrier
algorithm on a single shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro import trace
from repro.hw.machine import Machine
from repro.metrics import MetricsCollector, MetricsSnapshot
from repro.sim.scheduler import SimError, SimScheduler


class ShardError(SimError):
    """Fleet misuse: lookahead violation, unknown destination, a worker
    process that died, or a barrier loop that cannot make progress."""


@dataclass(frozen=True)
class FleetMessage:
    """One cross-machine event, exchanged at a barrier.

    ``src_seq`` is the sender's local FIFO ticket
    (:meth:`~repro.hw.clock.Clock.next_seq`) at post time; it makes the
    global sort key a total order without consulting any global state."""

    src: int
    dst: int
    kind: str
    payload: Any
    send_cycle: int
    deliver_cycle: int
    src_seq: int

    def sort_key(self) -> tuple:
        return (self.deliver_cycle, self.src, self.src_seq, self.dst)


def sort_batch(messages: list[FleetMessage]) -> list[FleetMessage]:
    """Canonical barrier-batch order (see module docstring, leg 3)."""
    return sorted(messages, key=FleetMessage.sort_key)


class FleetNode:
    """One machine of the fleet: scheduler + tracer + message endpoints.

    Subclass per scenario: build the machine stack in ``__init__`` (the
    pool runs builders under :func:`~repro.hw.machine.isolated_machine_ids`
    so identity is a pure function of ``(index, seed)``), spawn workload
    tasks with :meth:`spawn_traced`, react to messages in
    :meth:`on_message`, and report scenario numbers from :meth:`result`.
    """

    def __init__(self, index: int, machine: Machine,
                 trace_capacity: int = trace.DEFAULT_CAPACITY):
        self.index = index
        self.machine = machine
        self.sched = SimScheduler(machine)
        self.tracer = trace.Tracer(machine.clock,
                                   capacity_per_cpu=trace_capacity)
        #: minimum cross-machine latency, imposed by the pool (= the
        #: barrier window); set when the node joins a shard
        self.min_latency = 0
        self.inbox: list[FleetMessage] = []
        self._outbox: list[FleetMessage] = []
        self.messages_sent = 0
        self.messages_received = 0

    # -- messaging -------------------------------------------------------

    def post(self, dst: int, kind: str, payload: Any = None,
             latency_cycles: Optional[int] = None) -> FleetMessage:
        """Queue a message to machine ``dst``; picked up at the next
        barrier.  Latency defaults to the minimum (the window) and may be
        anything above it; below it is a lookahead violation."""
        latency = self.min_latency if latency_cycles is None \
            else int(latency_cycles)
        if latency < self.min_latency:
            raise ShardError(
                f"machine {self.index} posted {kind!r} with latency "
                f"{latency} < window {self.min_latency}; conservative "
                f"barriers need latency >= the window")
        now = self.machine.clock.cycles
        msg = FleetMessage(src=self.index, dst=dst, kind=kind,
                           payload=payload, send_cycle=now,
                           deliver_cycle=now + latency,
                           src_seq=self.machine.clock.next_seq())
        self._outbox.append(msg)
        self.messages_sent += 1
        trace.instant(self.machine.boot_cpu, "fleet.msg-post", kind=kind)
        return msg

    def take_outbox(self) -> list[FleetMessage]:
        out, self._outbox = self._outbox, []
        return out

    def on_message(self, msg: FleetMessage) -> None:
        """Delivery callback, fired by the node's own clock at
        ``deliver_cycle`` (or at the next poll if the local clock already
        ran past it).  Default: record into :attr:`inbox`."""
        self.inbox.append(msg)
        self.messages_received += 1
        trace.instant(self.machine.boot_cpu, "fleet.msg-deliver",
                      kind=msg.kind)

    # -- execution -------------------------------------------------------

    def spawn_traced(self, gen: Generator, **kwargs):
        """Spawn a task with this node's tracer bound, so the spawn event
        lands in this node's ring (builders run before :meth:`Shard.add`
        binds the tracer for good)."""
        with trace.tracing(self.tracer):
            return self.sched.spawn(gen, **kwargs)

    def advance(self, horizon: int) -> bool:
        """Run this machine's window."""
        return self.sched.run_window(horizon)

    @property
    def finished(self) -> bool:
        return self.sched.finished

    # -- reporting -------------------------------------------------------

    def collector(self) -> MetricsCollector:
        """Override to wire kernel/VMM/Mercury counters into snapshots."""
        return MetricsCollector(self.machine)

    def snapshot(self) -> MetricsSnapshot:
        return self.collector().snapshot()

    def canonical_trace(self) -> tuple[list[str], list[str]]:
        """This node's ring, validated and rendered in one pass:
        ``(canonical lines, well-formedness errors)``."""
        return trace.render(self.tracer.events(), self.tracer.dropped)

    def result(self) -> dict:
        """Scenario-visible numbers; subclasses extend.  Everything here
        must be deterministic (it feeds ``FleetResult.canonical_output``).
        """
        return {
            "cycles": self.machine.clock.cycles,
            "messages_received": self.messages_received,
            "messages_sent": self.messages_sent,
        }


#: builder signature the pool expects: ``builder(index, seed, **kwargs)``
NodeBuilder = Callable[..., FleetNode]


@dataclass
class ShardReport:
    """What a shard tells the pool after one window (picklable)."""

    shard_id: int
    outbound: list[FleetMessage]
    finished: bool
    #: earliest cycle any hosted machine has runnable work at, or None
    next_cycle: Optional[int]
    delivered: int = 0


class Shard:
    """A bundle of fleet nodes stepped together between barriers.

    The shard caches each node's ``(next work cycle, finished)`` and
    refreshes the pair only when that node advances.  By local purity
    (leg 1) a node's state changes only through its own advance or an
    inbound delivery, so for a node with no delivery and nothing due by
    the horizon ``run_window`` would be a no-op: no clock movement, no seq
    ticket, no trace event.  Such a node is skipped, not advanced."""

    def __init__(self, shard_id: int, min_latency: int):
        self.shard_id = shard_id
        self.min_latency = min_latency
        self.nodes: dict[int, FleetNode] = {}
        #: machine index -> (next work cycle or None, finished)
        self._cached: dict[int, tuple] = {}
        #: nodes changed from outside their own advance since the last
        #: step: newly added ones (a builder may have posted) and, during a
        #: step, the destinations of its inbound batch
        self._touched: set[int] = set()

    def add(self, node: FleetNode) -> None:
        if node.index in self.nodes:
            raise ShardError(f"duplicate machine index {node.index}")
        node.min_latency = self.min_latency
        # bound once built, so build-time events stay unrecorded
        node.machine.clock.tracer = node.tracer
        self.nodes[node.index] = node
        self._cached[node.index] = (node.sched.next_work_cycle(),
                                    node.finished)
        self._touched.add(node.index)

    def _deliver(self, msg: FleetMessage) -> None:
        node = self.nodes.get(msg.dst)
        if node is None:
            raise ShardError(
                f"message {msg.kind!r} addressed to machine {msg.dst}, "
                f"not hosted on shard {self.shard_id}")
        node.machine.clock.schedule_at(
            msg.deliver_cycle, lambda m=msg, n=node: n.on_message(m))
        self._touched.add(msg.dst)

    def step(self, horizon: int, inbound: list[FleetMessage]) -> ShardReport:
        """Inject this window's batch, advance the due set to ``horizon``,
        and report outbound messages plus progress state.

        ``inbound`` arrives pre-sorted in canonical order; scheduling the
        deliveries in that order assigns each machine's clock tickets
        identically under every partition.  The due set is every node
        touched since the last step (added, or a destination in
        ``inbound``) plus every node whose cached next-work cycle is at or
        before ``horizon``; it advances in index order, and ``finished`` /
        ``next_cycle`` fold over the cache of all nodes."""
        for msg in inbound:
            self._deliver(msg)
        cached = self._cached
        due = self._touched
        self._touched = set()
        for index, (cycle, _) in cached.items():
            if cycle is not None and cycle <= horizon:
                due.add(index)
        outbound: list[FleetMessage] = []
        for index in sorted(due):
            node = self.nodes[index]
            finished = node.advance(horizon)
            outbound.extend(node.take_outbox())
            cached[index] = (node.sched.next_work_cycle(), finished)
        cycles = [cycle for cycle, _ in cached.values() if cycle is not None]
        return ShardReport(
            shard_id=self.shard_id,
            outbound=outbound,
            finished=all(finished for _, finished in cached.values()),
            next_cycle=min(cycles, default=None),
            delivered=len(inbound))

    def blocked_names(self) -> list:
        """``(machine index, task name)`` for every blocked task, in index
        order; only a fleet deadlock report asks."""
        return [(index, name) for index in sorted(self.nodes)
                for name in self.nodes[index].sched.blocked_names()]

    def collect(self) -> dict:
        """Final per-node data, in picklable primitives + dataclasses.

        Each node's trace is rendered here, where it was recorded, so
        shard workers render in parallel and ship strings, not events:
        ``traces`` maps machine index to ``(canonical lines, errors,
        dropped)``.  A stream repeats few distinct lines and the renderer
        hands back one object per distinct line, which pickle sends
        once."""
        return {
            "results": {i: self.nodes[i].result()
                        for i in sorted(self.nodes)},
            "snapshots": {i: self.nodes[i].snapshot()
                          for i in sorted(self.nodes)},
            "traces": {i: (*self.nodes[i].canonical_trace(),
                           self.nodes[i].tracer.dropped)
                       for i in sorted(self.nodes)},
        }

    def close(self) -> None:
        """Drop every node's trace events once collected.  A finished
        fleet is cyclic garbage (each machine's object graph is full of
        back-references) that lingers until a full collection; its events
        are most of its memory, and cleared here they go at once."""
        for node in self.nodes.values():
            node.tracer.clear()
