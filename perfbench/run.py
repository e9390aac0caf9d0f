"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload {paper,fleet,chaos} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root; the simulator is imported from ``src/``.

With ``--trace 0`` the run measures host time with no hooks beyond the
census (see ``layers.py``): set-up, then whole passes of the workload for
``--seconds``, then one untimed model pass of each other workload so that
every end-to-end metric is reported.  With ``--trace 1`` it times half the
budget untraced and half traced, and reports the per-layer metrics; their
host times include the hooks' own cost, which ``tracing_overhead_pct``
states.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Host time on a small shared host swings by a fifth from minute to minute.
``wall_s`` is therefore the median over whole passes of each pass's host
seconds rescaled to a reference host speed (see :class:`HostSpeed`), and
``setup_s`` the median over several fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed for ``setup_s``
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "fleet", "chaos"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the repo's recorded "
                             "seeds, 2007 for fleet and 1234 for chaos)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import the simulator
    and build the workload's one-time inputs, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait returns at exit; waiting with a timeout would
        # poll in steps of up to 50 ms and quantise the measurement
        guard = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
        guard.start()
        try:
            code = probe.wait()
        finally:
            guard.cancel()
        times.append(time.perf_counter() - start)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times)


class HostSpeed:
    """Samples how fast the host runs a fixed pure-Python reference loop.

    The host's speed drifts by a fifth over minutes while a pass runs, and
    a reference loop timed every :attr:`INTERVAL_S` during the pass drifts
    with it (on a 2-core host their 10-second means correlated at 0.96 to
    0.99 for lmbench and chaos passes), so a pass's host time is rescaled
    to the reference speed at which the loop takes :attr:`REFERENCE_S`.
    The loop is the benchmark's own code: a change to the simulator moves
    the pass time and not the loop.
    """

    #: iterations of the reference loop, its time at reference speed, and
    #: the wall-clock period between samples
    ITERATIONS = 100_000
    REFERENCE_S = 0.010
    INTERVAL_S = 0.25

    def __init__(self):
        self.samples: list = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired inside an explicit sample
            return
        self._busy = True
        start = time.perf_counter()
        acc = 0
        for i in range(self.ITERATIONS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    @contextmanager
    def sampling(self):
        """Sample on a wall-clock timer for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Passes:
    """Timed passes of one workload, with their outcomes.

    A pass's time excludes the reference-loop samples taken inside it and
    is rescaled by the mean of those samples (see :class:`HostSpeed`);
    :attr:`raw_seconds` keeps the unscaled times."""

    def __init__(self, workload, census):
        self.workload = workload
        self.census = census
        self.seconds: list = []
        self.raw_seconds: list = []
        self.cycles: list = []
        self.outcomes: list = []

    def run_for(self, budget: float) -> None:
        """Run whole passes until ``budget`` seconds have gone (at least
        one pass)."""
        speed = HostSpeed()
        deadline = time.perf_counter() + budget
        with speed.sampling():
            while not self.seconds or time.perf_counter() < deadline:
                speed.sample()
                first = len(speed.samples)
                before = self.census.sim_cycles
                start = time.perf_counter()
                outcome = self.workload.run_pass(self.census)
                elapsed = time.perf_counter() - start
                taken = speed.samples[first - 1:]
                self.census.harvest()
                raw = elapsed - sum(taken[1:])
                factor = statistics.mean(taken) / HostSpeed.REFERENCE_S
                self.raw_seconds.append(raw)
                self.seconds.append(raw / factor)
                self.cycles.append(self.census.sim_cycles - before)
                self.outcomes.append(outcome)

    @property
    def wall_s(self) -> float:
        return statistics.median(self.seconds)

    def tally(self, reference: str) -> tuple:
        """(attempted, failed); a pass whose canonical output differs from
        ``reference`` fails every one of its operations."""
        attempted = sum(o.attempted for o in self.outcomes)
        failed = sum(o.attempted if o.digest != reference else o.failed
                     for o in self.outcomes)
        return attempted, failed


def end_to_end(args, workload, census) -> tuple:
    import workloads

    setup_s = measure_setup(args)
    passes = Passes(workload, census)
    passes.run_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = passes.outcomes[0]
    attempted, failed = passes.tally(first.digest)

    outcomes = {workload.name: first}
    for name, cls in workloads.WORKLOADS.items():
        if name != workload.name:
            outcomes[name] = cls.model_pass(args.seed, census)
            attempted += outcomes[name].attempted
            failed += outcomes[name].failed
    # a metric two workloads share (attach_us, detach_us) is this
    # workload's own when it has one, else the paper's
    model = {}
    for name in (workload.name, "paper", "fleet", "chaos"):
        for key, value in outcomes[name].model.items():
            model.setdefault(key, value)

    wall_s = passes.wall_s
    mcycles = statistics.median(passes.cycles) / 1e6
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "sim_mcycles_per_s": (mcycles / wall_s, "Mcycles/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    for key, value in model.items():
        metrics[key] = (value, UNITS[key])

    print(f"{workload.name}: {len(passes.seconds)} passes, "
          f"wall {wall_s:.3f} s/pass at reference speed, "
          f"{statistics.median(passes.raw_seconds):.3f} s as run "
          f"(min {min(passes.raw_seconds):.3f}, "
          f"max {max(passes.raw_seconds):.3f}), {mcycles:.1f} simulated "
          f"Mcycles/pass, {mcycles / wall_s:.1f} Mcycles/s, set-up "
          f"{setup_s:.3f} s")
    paper = outcomes["paper"].model
    print(f"  accuracy: Table 1 {paper['table1_err_pct']:.1f} % (tuned), "
          f"Table 2 {paper['table2_err_pct']:.1f} % (held back), "
          f"Section 7.4 attach {paper['attach_us']:.1f} us vs "
          f"{workloads.PAPER_ATTACH_US:.0f}, detach "
          f"{paper['detach_us']:.1f} us vs {workloads.PAPER_DETACH_US:.0f}")
    if first.detail:
        print("  " + ", ".join(f"{key} {value:.3f}"
                               for key, value in first.detail.items()))
    return attempted, failed, metrics


def traced(args, workload, census) -> tuple:
    from layers import LAYERS, LayerTrace

    untraced = Passes(workload, census)
    untraced.run_for(args.seconds / 2)
    log = LayerTrace()
    tracedp = Passes(workload, census)
    with log.installed():
        with log.profiled():
            tracedp.run_for(args.seconds / 2)
    reference = untraced.outcomes[0].digest
    attempted, failed = untraced.tally(reference)
    # the hooks observe only: the traced passes must match byte for byte
    t_attempted, t_failed = tracedp.tally(reference)
    attempted += t_attempted
    failed += t_failed

    n = len(tracedp.seconds)
    detail = tracedp.outcomes[0].detail

    def per_pass(name):
        return log.counts[name] / n

    def share(part, whole):
        return part / whole if whole else 0.0

    metrics = {f"{layer}.self_s": (log.self_s[layer] / n, "s")
               for layer in LAYERS + ("other",)}
    metrics.update({
        "hw.charges": (per_pass("hw.charges"), "count"),
        "guestos.syscalls": (per_pass("guestos.syscall"), "count"),
        "guestos.syscall_us": (log.mean_us("guestos.syscall"), "us"),
        "vmm.hypercalls": (per_pass("vmm.hypercall"), "count"),
        "vmm.hypercall_us": (log.mean_us("vmm.hypercall"), "us"),
        "core.switches": (per_pass("core.switch"), "count"),
        "core.switch_ms": (log.mean_us("core.switch") / 1e3, "ms"),
        "core.recoveries": (per_pass("core.recover"), "count"),
        "core.recover_ms": (log.mean_us("core.recover") / 1e3, "ms"),
        "core.mttr_p50_us": (detail.get("mttr_p50_us", 0.0), "sim_us"),
        "sim.windows": (per_pass("sim.window"), "count"),
        "sim.advances": (per_pass("sim.advance"), "count"),
        "sim.useful_advance_frac": (
            share(log.useful_advances, log.counts["sim.advance"]), "ratio"),
        "sim.blocked_names_calls": (per_pass("sim.blocked_names"), "count"),
        "sim.window_ms_p50": (log.pct_ms("sim.window", 50), "ms"),
        "sim.window_ms_p95": (log.pct_ms("sim.window", 95), "ms"),
        "trace.tracing_enters": (per_pass("trace.tracing"), "count"),
        "fleet.messages": (per_pass("fleet.messages"), "count"),
        "fleet.frontend_msg_share": (
            share(log.frontend_messages, log.counts["fleet.messages"]),
            "ratio"),
        "fleet.frontend_advance_share": (
            share(log.frontend_advance_ns, log.total_ns["sim.advance"]),
            "ratio"),
        "fleet.gen_late_max_us": (
            workload.gen_late_max_us(log.dispatches)
            if log.dispatches else 0.0, "sim_us"),
        "watchdog.scans": (per_pass("watchdog.scan"), "count"),
        "watchdog.scan_us": (log.mean_us("watchdog.scan"), "us"),
        "watchdog.detect_us_p50": (detail.get("detect_us_p50", 0.0),
                                   "sim_us"),
        "bench.episode_ms_p50": (log.pct_ms("bench.episode", 50), "ms"),
        "bench.episode_ms_p95": (log.pct_ms("bench.episode", 95), "ms"),
        "tracing_overhead_pct": (
            100.0 * (tracedp.wall_s / untraced.wall_s - 1.0), "%"),
    })
    path = os.path.join(ROOT, ".perfbench_out",
                        f"spans-{workload.name}.json")
    log.write(path)
    sim_mcycles = statistics.median(tracedp.cycles) / 1e6
    print(f"{workload.name} traced: {n} traced pass(es) "
          f"{tracedp.wall_s:.3f} s vs untraced {untraced.wall_s:.3f} s; "
          f"{sim_mcycles:.1f} simulated Mcycles/pass; "
          f"{len(log.rows)} spans written to {path} "
          f"({log.spans_dropped} past the cap)")
    return attempted, failed, metrics


#: units of the simulated-model metrics
UNITS = {
    "table1_err_pct": "%", "table2_err_pct": "%",
    "native_overhead_pct": "%", "virt_rel_perf": "ratio",
    "attach_us": "sim_us", "detach_us": "sim_us",
    "req_p50_us": "sim_us", "req_p99_us": "sim_us",
    "wave_p99_ratio": "ratio",
    "mttr_mean_us": "sim_us", "mttr_p95_us": "sim_us",
}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from layers import Census

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 0
    census = Census()
    with census.installed():
        run = traced if args.trace else end_to_end
        attempted, failed, metrics = run(args, workload, census)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
