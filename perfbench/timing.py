"""Timed and traced runs of one workload, and the metrics they report.

A *pass* sets up and runs every input of the workload once.  The timed
run (``--trace 0``) makes one untimed warm-up pass, then timed passes
until ``--seconds`` would be exceeded, with at least
:data:`MIN_PASSES`; every pass must reproduce the warm-up pass's
digests exactly.  Host time is the process's CPU time, which leaves out
the time a shared host runs other work.  Other work can still slow the
process down (shared caches and memory) but never speed it up, so each
timed run is cut into :data:`SLICES` slices of equal simulated time and
throughput is the operations of one pass over the sum of every slice's
fastest time.  Set-up time is the median over the timed set-ups.  The
traced run (``--trace 1``) makes one untraced pass and one pass with
the layer wrappers of :mod:`perfbench.layers` installed, and reports
the per-layer table and the simulated-time metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Tuple

import numpy as np

from perfbench.layers import LAYERS, LayerClock, install
from perfbench.measure import (
    RECONCILE_TOLERANCE, reconcile, tail_percentile,
)
from perfbench.workloads import Outcome

__all__ = ["END_TO_END", "PER_LAYER", "MIN_PASSES", "Report",
           "timed_run", "traced_run"]

#: Timed passes a run makes at least, after its warm-up pass.
MIN_PASSES = 5

#: Each input's run is timed in this many slices of equal simulated time.
SLICES = 100

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "ops_per_cpu_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_COUNT = ("count", "higher")
_MS = ("ms", "lower")

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.core.events": ("count", "lower"),
    "sim.core.defunct_skips": ("count", "lower"),
    "sim.core.self_ms": _MS,
    "sim.flows.calls": ("count", "lower"),
    "sim.flows.allocs": ("count", "lower"),
    "sim.flows.slots_touched": ("count", "lower"),
    "sim.flows.slots_per_alloc": ("count", "lower"),
    "sim.flows.self_ms": _MS,
    "sim.resources.calls": ("count", "lower"),
    "sim.resources.self_ms": _MS,
    "wire.frames": ("count", "lower"),
    "wire.self_ms": _MS,
    "net.calls": ("count", "lower"),
    "net.self_ms": _MS,
    "norns.requests_served": _COUNT,
    "norns.tasks_completed": _COUNT,
    "norns.tasks_failed": ("count", "lower"),
    "norns.self_ms": _MS,
    "slurm.sched.passes": ("count", "lower"),
    "slurm.sched.decisions": _COUNT,
    "slurm.sched.decisions_per_pass": _COUNT,
    "slurm.sched.pending_mean": ("count", "lower"),
    "slurm.sched.self_ms": _MS,
    "slurm.ctld.self_ms": _MS,
    "slurm.staging.calls": ("count", "lower"),
    "slurm.staging.bytes": ("B", "higher"),
    "slurm.staging.self_ms": _MS,
    "storage.self_ms": _MS,
    "resilience.calls": ("count", "lower"),
    "resilience.heartbeat_probes": ("count", "lower"),
    "resilience.retries": ("count", "lower"),
    "resilience.retry_frac": ("ratio", "lower"),
    "resilience.breaker_fastfail": ("count", "lower"),
    "resilience.self_ms": _MS,
    "faults.injected": ("count", "higher"),
    "faults.self_ms": _MS,
    "traces.self_ms": _MS,
    "other.self_ms": _MS,
    "bench.self_ms": _MS,
    "trace.wall_ms": _MS,
    "trace.residual_ms": _MS,
    "trace.reconcile_err": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "sim_makespan_s": ("s", "lower"),
    "sim_latency_p50_s": ("s", "lower"),
    "sim_latency_p95_s": ("s", "lower"),
    "sim_wait_p50_s": ("s", "lower"),
    "sim_wait_tail_s": ("s", "lower"),
    "sim_stage_p50_s": ("s", "lower"),
    "sim_stage_tail_s": ("s", "lower"),
    "sim_eta_err_p50": ("ratio", "lower"),
    "sim_rps": ("1/s", "higher"),
    "sim_rpc_p99_us": ("us", "lower"),
    "failed_frac": ("ratio", "lower"),
}


@dataclass
class Report:
    """One run's result: metric values with sample counts, and checks."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: name -> (value, samples it summarizes, note)
    values: Dict[str, Tuple[float, int, str]] = field(default_factory=dict)

    def put(self, name: str, value: float, n: int = 1, note: str = "") -> None:
        self.values[name] = (float(value), n, note)

    def add(self, out: Outcome) -> None:
        self.attempted += out.attempted
        self.failed += out.failed
        self.errors.extend(out.errors)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


def _execute(wl, sub_seed: int, span: float = 0.0):
    """Set up one input and run it.

    Returns (setup CPU s, run CPU s per slice, run wall s, simulated
    time the run took, prep, raw).
    With ``span`` > 0, the run is cut into :data:`SLICES` slices of equal
    simulated time, ``span`` in all, and each slice's CPU time is
    returned; otherwise the list holds the whole run.  Collecting garbage
    first keeps the previous input's heap out of the timings.
    """
    gc.collect()
    c0 = process_time()
    prep = wl.setup(sub_seed)
    setup_cpu = process_time() - c0
    gc.collect()
    sim = prep.handle.sim
    sim_start = sim.now
    marks: List[float] = []
    if span > 0:
        step = span / SLICES

        def mark():
            for _ in range(SLICES - 1):
                yield sim.timeout(step)
                marks.append(process_time())

        sim.process(mark())
    t0 = perf_counter()
    c0 = process_time()
    raw = wl.execute(prep)
    cuts = [c0, *marks, process_time()]
    run_cpu = [b - a for a, b in zip(cuts, cuts[1:])]
    return (setup_cpu, run_cpu, perf_counter() - t0, sim.now - sim_start,
            prep, raw)


def _put_quantile(rep: Report, name: str, values: List[float], p: float,
                  scale: float = 1.0) -> None:
    """Report a percentile, refusing a tail with < 10 samples beyond."""
    if p > 50 and (tail_percentile(len(values), (p,)) is None):
        raise ValueError(f"{name}: {len(values)} samples cannot support "
                         f"p{p:g}")
    value = float(np.percentile(values, p)) * scale if values else 0.0
    rep.put(name, value, len(values), f"p{p:g}")


def _put_tail(rep: Report, name: str, values: List[float]) -> None:
    p = tail_percentile(len(values))
    if p is None:
        rep.put(name, 0.0, len(values), "too few samples for a tail")
    else:
        rep.put(name, float(np.percentile(values, p)), len(values),
                f"p{p:g}")


def _checked_run(wl, sub: int, rep: Report, digests: Dict[int, str],
                 span: float = 0.0):
    """Set up and run one input; its result must match the warm-up's."""
    setup_s, run_s, _wall, sim_s, prep, raw = _execute(wl, sub, span)
    out = wl.outcome(prep, raw)
    rep.add(out)
    if digests.setdefault(sub, out.digest) != out.digest:
        rep.errors.append(f"input {sub}: simulated result differs "
                          "between passes")
    return setup_s, run_s, out, sim_s


def timed_run(wl, seed: int, seconds: float) -> Report:
    rep = Report()
    inputs = wl.inputs(seed)
    digests: Dict[int, str] = {}
    start = perf_counter()
    # Warm-up pass: checked, not timed, and without the slice marks, so
    # the digests show that the marks do not change the simulation.
    ops: Dict[int, int] = {}
    span: Dict[int, float] = {}
    for sub in inputs:
        _setup, _run, out, span[sub] = _checked_run(wl, sub, rep, digests)
        ops[sub] = out.ops
    best: Dict[int, List[float]] = {}
    setups: List[float] = []
    passes = 0
    while True:
        for sub in inputs:
            setup_s, run_s, _out, _sim_s = _checked_run(
                wl, sub, rep, digests, span[sub])
            setups.append(setup_s)
            if len(run_s) != SLICES:
                rep.errors.append(f"input {sub}: {len(run_s)} slices "
                                  f"timed, not {SLICES}")
            best[sub] = [min(a, b) for a, b in zip(best.get(sub, run_s),
                                                   run_s)]
        passes += 1
        elapsed = perf_counter() - start
        if passes >= MIN_PASSES \
                and elapsed * (passes + 2) / (passes + 1) > seconds:
            break
    total_ops = sum(ops.values())
    total_cpu = sum(sum(slices) for slices in best.values())
    rep.put("ops_per_cpu_s", total_ops / total_cpu, passes,
            f"{total_ops} ops over {total_cpu:.3f} CPU s, the sum of each "
            f"slice's fastest of {passes} timed runs of {len(inputs)} "
            "inputs")
    rep.put("setup_s", statistics.median(setups), len(setups),
            "median over set-ups")
    rep.put("peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1,
            "ru_maxrss of this process")
    return rep


def traced_run(wl, seed: int) -> Report:
    rep = Report()
    inputs = wl.inputs(seed)
    base: List[Outcome] = []
    untraced_s = 0.0
    for sub in inputs:
        _setup, _cpu, run_s, _sim_s, prep, raw = _execute(wl, sub)
        base.append(wl.outcome(prep, raw))
        untraced_s += run_s
        del prep, raw

    clock = LayerClock()
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    pending_sum = residual_ns = wall_ns = 0
    patcher = install(clock)
    try:
        for sub, ref in zip(inputs, base):
            prep = wl.setup(sub)
            gc.collect()
            clock.start()
            raw = wl.execute(prep)
            clock.stop()
            self_ns.update(clock.self_ns)
            calls.update(clock.calls)
            pending_sum += clock.pending_sum
            residual_ns += clock.residual_ns
            wall_ns += clock.wall_ns
            out = wl.outcome(prep, raw)
            counts.update(wl.counters(prep, raw))
            del prep, raw
            if out.digest != ref.digest:
                rep.errors.append(f"input {sub}: traced run changed the "
                                  "simulated result")
    finally:
        patcher.restore()
    for out in base:
        rep.add(out)

    err = reconcile(dict(self_ns), residual_ns, wall_ns)
    if err > RECONCILE_TOLERANCE:
        rep.errors.append(f"layer self times + residual miss the traced "
                          f"wall time by {err:.2%} (> "
                          f"{RECONCILE_TOLERANCE:.1%})")
    for layer in LAYERS:
        rep.put(f"{layer}.self_ms", self_ns[layer] / 1e6)
    rep.put("trace.wall_ms", wall_ns / 1e6)
    rep.put("trace.residual_ms", residual_ns / 1e6)
    rep.put("trace.reconcile_err", err)
    rep.put("trace.overhead_frac", wall_ns / 1e9 / untraced_s - 1.0)

    def called(layer: str, *names: str) -> int:
        return sum(calls[f"{layer}:{n}"] for n in names)

    for name in ("sim.core.events", "sim.core.defunct_skips",
                 "sim.flows.allocs", "sim.flows.slots_touched",
                 "norns.requests_served", "norns.tasks_completed",
                 "norns.tasks_failed", "slurm.sched.passes",
                 "slurm.sched.decisions", "slurm.staging.bytes",
                 "resilience.calls", "resilience.heartbeat_probes",
                 "resilience.retries", "resilience.breaker_fastfail",
                 "faults.injected"):
        rep.put(name, counts[name])
    allocs = counts["sim.flows.allocs"]
    rep.put("sim.flows.calls",
            called("sim.flows", "transfer", "cancel", "set_capacity"))
    rep.put("sim.flows.slots_per_alloc",
            counts["sim.flows.slots_touched"] / allocs if allocs else 0.0)
    rep.put("sim.resources.calls",
            sum(v for k, v in calls.items()
                if k.startswith("sim.resources:")))
    rep.put("wire.frames", called("wire", "make_frame", "open_frame"))
    rep.put("net.calls", called("net", "call", "bulk_pull", "bulk_push",
                                "send", "recv"))
    passes = counts["slurm.sched.passes"]
    rep.put("slurm.sched.decisions_per_pass",
            counts["slurm.sched.decisions"] / passes if passes else 0.0)
    scheduled = called("slurm.sched", "schedule")
    rep.put("slurm.sched.pending_mean",
            pending_sum / scheduled if scheduled else 0.0, scheduled)
    rep.put("slurm.staging.calls",
            called("slurm.staging", "stage_in", "stage_out"))
    res_calls = counts["resilience.calls"]
    rep.put("resilience.retry_frac",
            counts["resilience.retries"] / res_calls if res_calls else 0.0)

    rep.put("sim_makespan_s", statistics.fmean(o.makespan for o in base),
            len(base), "mean over inputs")
    lat = [x for o in base for x in o.latencies]
    _put_quantile(rep, "sim_latency_p50_s", lat, 50)
    _put_quantile(rep, "sim_latency_p95_s", lat, 95)
    waits = [x for o in base for x in o.waits]
    stages = [x for o in base for x in o.stages]
    etas = [x for o in base for x in o.eta_errors]
    _put_quantile(rep, "sim_wait_p50_s", waits, 50)
    _put_tail(rep, "sim_wait_tail_s", waits)
    _put_quantile(rep, "sim_stage_p50_s", stages, 50)
    _put_tail(rep, "sim_stage_tail_s", stages)
    _put_quantile(rep, "sim_eta_err_p50", etas, 50)
    if wl.loop == "closed":
        rep.put("sim_rps", len(lat) / sum(o.makespan for o in base),
                len(lat))
        _put_quantile(rep, "sim_rpc_p99_us", lat, 99, scale=1e6)
    else:
        rep.put("sim_rps", 0.0, 0, "no RPC clients")
        rep.put("sim_rpc_p99_us", 0.0, 0, "no RPC clients")
    rep.put("failed_frac", rep.failed / rep.attempted)
    return rep
