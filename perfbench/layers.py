"""Hooks that observe the simulator's layers from outside.

Nothing here edits ``src/``: every hook is a wrapper installed over a
public entry point for the duration of a ``with`` block and removed
afterwards.  Two kinds exist.

- :class:`Census` is always on.  It only notes which simulated clocks were
  created (to sum simulated cycles) and what the fleet frontend received
  (to time requests from their due cycle).  It adds a few thousand cheap
  calls to a pass and charges no simulated cycle.
- :class:`LayerTrace` is the traced run.  It wraps the layer boundaries
  (syscall, hypercall, mode switch, recovery, watchdog scan, barrier
  window, node advance, chaos episode), records one span per crossing
  (name, start, end, parent span) and counts at the same boundaries.  Self
  time per layer comes from a ``cProfile`` pass whose self times are
  bucketed by ``repro.<layer>`` package.  Spans stay in memory and are
  written out by :meth:`LayerTrace.write` when the run ends.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import repro.bench.chaoscampaign as chaoscampaign
import repro.trace as trace
from repro.core.mercury import Mercury
from repro.core.recovery import RecoveryManager
from repro.fleet.node import FrontendNode
from repro.guestos.kernel import Kernel
from repro.hw.clock import Clock
from repro.hw.cpu import Cpu
from repro.sim.scheduler import SimScheduler
from repro.sim.shard import FleetNode, Shard
from repro.vmm.hypervisor import Hypervisor
from repro.watchdog import Watchdog

#: the packages (or top-level modules) of ``repro`` reported as layers;
#: everything else — stdlib, builtins, repro's small top-level helpers and
#: ``repro.scenarios`` — is ``other``
LAYERS = ("hw", "guestos", "vmm", "core", "sim", "trace", "fleet",
          "watchdog", "bench", "workloads")

#: spans kept in memory per run; crossings past the cap are still timed
#: and counted, only their span rows are dropped
SPAN_CAP = 200_000

_HERE = os.path.dirname(os.path.realpath(__file__)) + os.sep


@contextmanager
def patched(patches):
    """Install ``(owner, attribute, replacement)`` patches, undo on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, new in patches:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


class Census:
    """Always-on observation: simulated clocks and fleet completions."""

    def __init__(self):
        self.clocks: list = []
        self.completions: list = []   # (req_id, frontend cycle)
        self.updates: list = []       # (machine, attach_us, detach_us)
        self.sim_cycles = 0

    def harvest(self) -> None:
        """Fold the clocks seen so far into :attr:`sim_cycles` and drop
        them, so a long campaign does not keep its machines alive."""
        self.sim_cycles += sum(clock.cycles for clock in self.clocks)
        self.clocks.clear()

    @contextmanager
    def installed(self):
        census = self
        clock_init = Clock.__init__
        on_message = FrontendNode.on_message
        run_episode = chaoscampaign.run_episode

        def census_clock_init(clock, *args, **kwargs):
            clock_init(clock, *args, **kwargs)
            census.clocks.append(clock)

        def census_on_message(node, msg):
            kind = msg.kind
            if kind == "rsp":
                census.completions.append((msg.payload,
                                           node.machine.clock.cycles))
            elif kind == "ctl.updated":
                census.updates.append(msg.payload)
            return on_message(node, msg)

        def census_run_episode(*args, **kwargs):
            try:
                return run_episode(*args, **kwargs)
            finally:
                census.harvest()

        with patched([(Clock, "__init__", census_clock_init),
                      (FrontendNode, "on_message", census_on_message),
                      (chaoscampaign, "run_episode", census_run_episode)]):
            try:
                yield self
            finally:
                self.harvest()


def layer_of(filename: str) -> str:
    """Layer a code object's file belongs to (``""`` for the benchmark's
    own files, which count as tracing overhead)."""
    filename = os.path.realpath(filename)
    if filename.startswith(_HERE):
        return ""
    marker = os.sep + "repro" + os.sep
    if marker not in filename:
        return "other"
    head = filename.rsplit(marker, 1)[1].split(os.sep, 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in LAYERS else "other"


def percentile(samples, pct: float):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class LayerTrace:
    """Spans, counts and profiled self time for the traced run."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.rows: list = []          # [name id, start ns, end ns, parent]
        self.stack: list[int] = []
        self.spans_dropped = 0
        self.counts: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.self_s: Counter = Counter()
        self.useful_advances = 0
        self.frontend_messages = 0
        self.frontend_advance_ns = 0
        self.dispatches: dict = {}    # req_id -> dispatch cycle
        self._inbound: frozenset = frozenset()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if len(self.rows) < SPAN_CAP:
            sid = len(self.rows)
            name_id = self.names.setdefault(name, len(self.names))
            self.rows.append([name_id, 0, 0, parent])
        else:
            sid = -1
            self.spans_dropped += 1
        self.stack.append(sid)
        return sid

    def _span(self, name: str, fn, keep: bool = False):
        """Wrap ``fn`` so each call is one span named ``name``."""
        log = self

        def wrapper(*args, **kwargs):
            log.counts[name] += 1
            sid = log._open(name)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                log.stack.pop()
                if sid >= 0:
                    row = log.rows[sid]
                    row[1] = start
                    row[2] = end
                log.total_ns[name] += end - start
                if keep:
                    log.samples[name].append(end - start)
        return wrapper

    def _count(self, name: str, fn):
        log = self

        def wrapper(*args, **kwargs):
            log.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- boundary-specific hooks ------------------------------------------

    def _step_hook(self, step):
        timed = self._span("sim.window", step, keep=True)
        log = self

        def wrapper(shard, horizon, inbound):
            log._inbound = frozenset(msg.dst for msg in inbound)
            return timed(shard, horizon, inbound)
        return wrapper

    def _advance_hook(self, advance):
        timed = self._span("sim.advance", advance)
        log = self

        def wrapper(node, horizon):
            # the scheduler's own first step admits unblocked tasks the
            # same way, so asking before the advance changes nothing
            due = node.sched.next_work_cycle()
            if node.index in log._inbound or (due is not None
                                              and due <= horizon):
                log.useful_advances += 1
            start = time.perf_counter_ns()
            try:
                return timed(node, horizon)
            finally:
                if node.index == 0:
                    log.frontend_advance_ns += time.perf_counter_ns() - start
        return wrapper

    def _post_hook(self, post):
        counted = self._count("fleet.messages", post)
        log = self

        def wrapper(node, dst, kind, payload=None, latency_cycles=None):
            msg = counted(node, dst, kind, payload, latency_cycles)
            if node.index == 0 or dst == 0:
                log.frontend_messages += 1
            if kind == "req":
                log.dispatches[payload[0]] = msg.send_cycle
            return msg
        return wrapper

    @contextmanager
    def installed(self):
        patches = [
            (Cpu, "charge", self._count("hw.charges", Cpu.charge)),
            (Kernel, "syscall", self._span("guestos.syscall",
                                           Kernel.syscall)),
            (Hypervisor, "hypercall", self._span("vmm.hypercall",
                                                 Hypervisor.hypercall)),
            (Mercury, "attach", self._span("core.switch", Mercury.attach)),
            (Mercury, "detach", self._span("core.switch", Mercury.detach)),
            (RecoveryManager, "recover",
             self._span("core.recover", RecoveryManager.recover)),
            (Watchdog, "scan", self._span("watchdog.scan", Watchdog.scan)),
            (Shard, "step", self._step_hook(Shard.step)),
            (FleetNode, "advance", self._advance_hook(FleetNode.advance)),
            (FleetNode, "post", self._post_hook(FleetNode.post)),
            (SimScheduler, "blocked_names",
             self._count("sim.blocked_names", SimScheduler.blocked_names)),
            (trace, "tracing", self._count("trace.tracing", trace.tracing)),
            (chaoscampaign, "run_episode",
             self._span("bench.episode", chaoscampaign.run_episode,
                        keep=True)),
        ]
        with patched(patches):
            yield self

    @contextmanager
    def profiled(self):
        """Profile the block and add its self time to :attr:`self_s`."""
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            for entry in profile.getstats():
                code = entry.code
                layer = (layer_of(code.co_filename)
                         if hasattr(code, "co_filename") else "other")
                if layer:
                    self.self_s[layer] += entry.inlinetime

    # -- readout -----------------------------------------------------------

    def mean_us(self, name: str) -> float:
        count = self.counts[name]
        return self.total_ns[name] / count / 1e3 if count else 0.0

    def pct_ms(self, name: str, pct: float) -> float:
        samples = self.samples.get(name)
        return percentile(samples, pct) / 1e6 if samples else 0.0

    def write(self, path: str) -> None:
        """Write every kept span as JSON: names, then rows of
        ``[name id, start ns, end ns, parent row or -1]``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as out:
            json.dump({"names": sorted(self.names, key=self.names.get),
                       "dropped": self.spans_dropped,
                       "rows": self.rows}, out, separators=(",", ":"))
