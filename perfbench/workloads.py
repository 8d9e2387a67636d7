"""The benchmark's workloads: inputs from a seed, set-up, run, checks.

Each workload turns ``--seed`` into a fixed list of sub-seeds, one per
input.  For one input, :meth:`setup` builds everything the run needs
(trace synthesis, cluster build, replayer or client construction),
:meth:`execute` runs the simulation and nothing else, and
:meth:`outcome` turns what the run left behind into a :class:`Outcome`:
the operations done, the failures, a digest of the simulated result
and the simulated-time samples.  :meth:`counters` reads the exact
counts the program keeps, for the traced run's layer table.

All four run in one OS thread with no real sockets; clients and nodes
are simulated.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster import build, nextgenio, replay_scale
from repro.errors import NornsError
from repro.faults import fault_profile
from repro.net.sockets import Credentials
from repro.norns import NornsClient, TaskStatus, TaskType
from repro.norns.resources import memory_region, posix_path
from repro.norns.urd import GID_NORNS_USER
from repro.obs.collect import collect_cluster
from repro.obs.metrics import MetricsRegistry
from repro.sim.primitives import all_of
from repro.traces import (
    ReplayConfig, SynthesisConfig, TraceReplayer, synthesize,
)
from repro.util.units import GB
from repro.wire import make_frame, open_frame
from repro.wire import norns_proto as proto

__all__ = ["Outcome", "WORKLOADS"]


@dataclass
class Outcome:
    """What one input's run did, in simulated terms."""

    ops: int
    attempted: int
    failed: int
    digest: str
    makespan: float
    #: per-operation simulated latency (job response or request RTT), s.
    latencies: List[float]
    waits: List[float] = field(default_factory=list)
    stages: List[float] = field(default_factory=list)
    eta_errors: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def _sub_seeds(seed: int, n: int) -> List[int]:
    """The seeds of a workload's ``n`` inputs for benchmark seed ``seed``."""
    return [seed * 100 + k for k in range(n)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _registry_sums(handle) -> Counter:
    """Counters of ``repro.obs.collect`` summed over their labels."""
    reg = collect_cluster(MetricsRegistry(), handle)
    sums: Counter = Counter()
    for inst in reg:
        if inst.kind in ("counter", "gauge") \
                and isinstance(inst.value, (int, float)):
            sums[inst.name] += inst.value
    return sums


def _common_counters(handle) -> Dict[str, float]:
    stats = handle.sim.stats()
    flows = handle.fabric.flows
    sums = _registry_sums(handle)
    return {
        "sim.core.events": stats["events"],
        "sim.core.defunct_skips": stats["defunct_skips"],
        "sim.flows.allocs": flows.alloc_count,
        "sim.flows.slots_touched": flows.flows_touched,
        "slurm.sched.passes": handle.ctld.sched_passes,
        "slurm.sched.decisions": handle.ctld.sched_decisions,
        "norns.requests_served": sums["urd.requests_served"],
        "norns.tasks_completed": sums["urd.tasks_completed"],
        "norns.tasks_failed": sums["urd.tasks_failed"],
        "resilience.calls": sums["resilience.calls"],
        "resilience.heartbeat_probes": sums["resilience.heartbeat_probes"],
        "resilience.retries": sums["resilience.retries"],
        "resilience.breaker_fastfail": sums["resilience.breaker_fastfail"],
    }


# ---------------------------------------------------------------------------
# Trace replays (open loop in simulated time)
# ---------------------------------------------------------------------------

@dataclass
class _Replay:
    trace: object
    handle: object
    replayer: TraceReplayer


class ReplayWorkload:
    """Synthesized Poisson traces replayed on ``replay_scale(64)`` under
    EASY backfill with a 30 s submission window."""

    loop = "open"

    def __init__(self, name: str, why: str, n_jobs: int, n_inputs: int,
                 mean_interarrival: float, staged_fraction: float,
                 chaos: bool = False) -> None:
        self.name = name
        self.why = why
        self.n_jobs = n_jobs
        self.n_inputs = n_inputs
        self.chaos = chaos
        self.synth = SynthesisConfig(
            n_jobs=n_jobs, arrival="poisson",
            mean_interarrival=mean_interarrival, max_nodes=16,
            mean_runtime=240.0, staged_fraction=staged_fraction,
            stage_bytes_mean=2 * GB, stage_files=4)

    def inputs(self, seed: int) -> List[int]:
        return _sub_seeds(seed, self.n_inputs)

    def setup(self, sub_seed: int) -> _Replay:
        trace = synthesize(self.synth, seed=sub_seed)
        handle = build(replay_scale(n_nodes=64), seed=sub_seed)
        plan = None
        if self.chaos:
            submits = [j.submit_time for j in trace.jobs]
            plan = fault_profile("chaos", horizon=max(submits) - min(submits),
                                 nodes=handle.node_names, seed=sub_seed)
        replayer = TraceReplayer(
            handle, trace, ReplayConfig(batch_window=30.0, fault_plan=plan))
        return _Replay(trace, handle, replayer)

    def execute(self, prep: _Replay):
        return prep.replayer.run()

    def outcome(self, prep: _Replay, report) -> Outcome:
        done = [m for m in report.metrics if m.state == "completed"]
        terminal = len(report.metrics)
        failed = report.n_jobs - len(done)
        stream = repr([(m.trace_id, m.state, m.wait, m.response,
                        m.staged_bytes, m.stage_seconds, m.eta_error)
                       for m in report.metrics])
        out = Outcome(
            ops=terminal, attempted=report.n_jobs, failed=failed,
            digest=_digest(report.to_text() + stream),
            makespan=report.makespan,
            latencies=[m.response for m in done],
            waits=[m.wait for m in done],
            stages=[m.stage_seconds for m in done if m.stage_seconds > 0],
            eta_errors=[abs(m.eta_error) for m in done
                        if m.eta_error is not None])
        if failed:
            out.errors.append(f"{failed} of {report.n_jobs} jobs did not "
                              f"complete: {report.state_counts}")
        if not self.chaos:
            out.errors.extend(_check_staged_bytes(prep.trace, report))
        return out

    def counters(self, prep: _Replay, report) -> Dict[str, float]:
        out = _common_counters(prep.handle)
        out["slurm.staging.bytes"] = report.bytes_staged
        res = report.resilience
        out["faults.injected"] = res.faults_injected if res else 0
        return out


def _check_staged_bytes(trace, report) -> List[str]:
    """Staged bytes equal the trace's declared volume, up to the
    replayer's integer split of each stage-out across files and nodes
    (less than one byte per file per node for each staged copy)."""
    declared = 0
    slack = 0
    for tj in trace.jobs:
        declared += tj.stage_in_bytes + tj.stage_out_bytes
        if tj.stage_in_bytes:
            slack += max(1, tj.stage_in_files)
        if tj.stage_out_bytes:
            # the stage-out and the dependent stage-in both carry it
            slack += 2 * max(1, tj.stage_out_files) * tj.nodes
    lost = declared - report.bytes_staged
    if not 0 <= lost <= slack:
        return [f"staged {report.bytes_staged} B, trace declares "
                f"{declared} B (allowed shortfall {slack} B)"]
    return []


# ---------------------------------------------------------------------------
# urd RPC serving (closed loop)
# ---------------------------------------------------------------------------

_USER = Credentials(uid=1000, gid=100, groups=frozenset({GID_NORNS_USER}))
_JOB_ID = 91_000
_PID0 = 50_000


@dataclass
class _Rpc:
    handle: object
    target: str
    local: List[tuple]       # (NornsClient, task sizes)
    remote: List[tuple]      # (MercuryEndpoint, task sizes)
    latencies: List[float] = field(default_factory=list)
    #: requests sent; a request that raised stays sent but unanswered
    sent: int = 0
    submits: int = 0
    task_ids: List[int] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: answered requests whose reply was wrong
    failed: int = 0
    elapsed: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class UrdRpcWorkload:
    """Closed loop against one urd: local clients submit a copy task over
    the AF_UNIX user socket (``repro.norns.api``) and poll its status
    (``norns_error``) until the urd reports it finished, then submit the
    next; remote clients do the same through Mercury ``norns.submit``
    (``repro.net``).  Each client sends its next request only after the
    previous reply, so the mix of submits and polls is set by how long
    the urd takes to copy a task, not by the benchmark."""

    loop = "closed"

    def __init__(self, name: str, why: str, n_local: int, n_remote: int,
                 tasks_per_client: int, max_task_bytes: int,
                 n_inputs: int) -> None:
        self.name = name
        self.why = why
        self.n_local = n_local
        self.n_remote = n_remote
        self.tasks_per_client = tasks_per_client
        self.max_task_bytes = max_task_bytes
        self.n_inputs = n_inputs

    @property
    def clients(self) -> int:
        return self.n_local + self.n_remote

    def inputs(self, seed: int) -> List[int]:
        return _sub_seeds(seed, self.n_inputs)

    def _task_sizes(self, sub_seed: int) -> List[List[int]]:
        rng = random.Random(sub_seed)
        return [[rng.randint(1, self.max_task_bytes)
                 for _ in range(self.tasks_per_client)]
                for _ in range(self.clients)]

    def setup(self, sub_seed: int) -> _Rpc:
        handle = build(nextgenio(n_nodes=1 + self.n_remote, workers=8),
                       seed=sub_seed)
        target = handle.node_names[0]
        node = handle.node(target)

        def register():
            ctl = node.slurmd.ctl()
            yield from ctl.register_job(
                _JOB_ID, ctl.job_init([target], ["tmp0://"]))
            for p in range(self.n_local):
                yield from ctl.add_process(_JOB_ID, _PID0 + p, 1000, 100)
            ctl.close()

        handle.run(register())
        sizes = self._task_sizes(sub_seed)
        local = [(NornsClient(handle.sim, node.hub, _USER, pid=_PID0 + p,
                              socket_path=node.urd.config.user_socket),
                  sizes[p])
                 for p in range(self.n_local)]
        remote = [(handle.network.endpoint(name), sizes[self.n_local + i])
                  for i, name in enumerate(handle.node_names[1:])]
        return _Rpc(handle, target, local, remote)

    def execute(self, prep: _Rpc):
        sim = prep.handle.sim
        lat = prep.latencies

        def local_client(idx: int, cli: NornsClient, sizes: List[int]):
            try:
                for k, size in enumerate(sizes):
                    task = cli.iotask_init(
                        TaskType.COPY, memory_region(size),
                        posix_path("tmp0://", f"/bench/local/{idx}/{k}.dat"))
                    prep.sent += 1
                    t0 = sim.now
                    yield from cli.submit(task)
                    lat.append(sim.now - t0)
                    prep.submits += 1
                    prep.task_ids.append(task.task_id)
                    while True:
                        prep.sent += 1
                        t0 = sim.now
                        stats = yield from cli.error(task)
                        lat.append(sim.now - t0)
                        if stats.bytes_total != size:
                            prep.fail(f"local client {idx}: status of task "
                                      f"{task.task_id} reports "
                                      f"{stats.bytes_total} B, submitted "
                                      f"{size} B")
                        if stats.is_terminal:
                            break
                    if stats.status != TaskStatus.FINISHED \
                            or stats.bytes_moved != size:
                        prep.fail(f"local client {idx}: task "
                                  f"{task.task_id} ended {stats.status} "
                                  f"with {stats.bytes_moved} of {size} B")
            except NornsError as exc:
                # the request that raised stays unanswered; the client stops
                prep.errors.append(f"local client {idx}: {exc!r}")
            cli.close()

        def remote_client(idx: int, ep, sizes: List[int]):
            reg = proto.NORNS_PROTOCOL
            for k, size in enumerate(sizes):
                submit = proto.IotaskSubmitRequest(
                    task_type=proto.IOTASK_COPY,
                    input=proto.ResourceDesc(kind=proto.KIND_MEMORY,
                                             size=size),
                    output=proto.ResourceDesc(
                        kind=proto.KIND_POSIX_PATH, nsid="tmp0://",
                        path=f"/bench/remote/{idx}/{k}.dat"),
                    pid=0, admin=True)
                prep.sent += 1
                t0 = sim.now
                raw = yield ep.call(prep.target, "norns.submit",
                                    make_frame(reg, submit))
                lat.append(sim.now - t0)
                resp = open_frame(reg, raw)
                if resp.error_code != proto.ERR_SUCCESS:
                    prep.fail(f"remote client {idx}: submit error "
                              f"{resp.error_code}")
                    return
                prep.submits += 1
                task_id = resp.task_id
                prep.task_ids.append(task_id)
                while True:
                    poll = proto.IotaskStatusRequest(task_id=task_id, pid=0)
                    prep.sent += 1
                    t0 = sim.now
                    raw = yield ep.call(prep.target, "norns.submit",
                                        make_frame(reg, poll))
                    lat.append(sim.now - t0)
                    resp = open_frame(reg, raw)
                    if resp.error_code != proto.ERR_SUCCESS \
                            or resp.task_id != task_id:
                        prep.fail(f"remote client {idx}: poll of task "
                                  f"{task_id} got code {resp.error_code} "
                                  f"task {resp.task_id}")
                        return
                    if resp.status in (TaskStatus.FINISHED.value,
                                       TaskStatus.ERROR.value):
                        break
                if resp.status != TaskStatus.FINISHED.value \
                        or resp.bytes_moved != size:
                    prep.fail(f"remote client {idx}: task {task_id} ended "
                              f"{resp.status} with {resp.bytes_moved} of "
                              f"{size} B")

        start = sim.now
        procs = [sim.process(local_client(i, cli, sizes))
                 for i, (cli, sizes) in enumerate(prep.local)]
        procs += [sim.process(remote_client(i, ep, sizes))
                  for i, (ep, sizes) in enumerate(prep.remote)]
        sim.run(all_of(sim, procs))
        prep.elapsed = sim.now - start
        return prep

    def outcome(self, prep: _Rpc, _raw) -> Outcome:
        errors = list(prep.errors)
        completed = len(prep.latencies)
        unanswered = prep.sent - completed
        if unanswered:
            errors.append(f"{unanswered} of {prep.sent} requests "
                          "unanswered")
        tasks = self.clients * self.tasks_per_client
        if prep.submits != tasks:
            errors.append(f"{prep.submits} of {tasks} tasks submitted")
        if len(set(prep.task_ids)) != len(prep.task_ids):
            errors.append("the urd handed out a task id twice")
        return Outcome(
            ops=completed, attempted=prep.sent,
            failed=unanswered + prep.failed,
            digest=_digest(repr((prep.latencies, prep.task_ids))),
            makespan=prep.elapsed, latencies=list(prep.latencies),
            errors=errors)

    def counters(self, prep: _Rpc, _raw) -> Dict[str, float]:
        out = _common_counters(prep.handle)
        out["slurm.staging.bytes"] = 0
        out["faults.injected"] = 0
        return out


WORKLOADS = {w.name: w for w in (
    ReplayWorkload(
        "replay_staged",
        "open loop in sim time; headline replay, 25% NORNS-staged jobs: "
        "the flow engine does most of the work",
        n_jobs=400, n_inputs=2, mean_interarrival=14.0,
        staged_fraction=0.25),
    ReplayWorkload(
        "replay_backlog",
        "open loop in sim time; no staging, arrivals 3x faster: a deep "
        "pending queue makes the scheduler the cost and flows do nothing",
        n_jobs=1500, n_inputs=1, mean_interarrival=5.0,
        staged_fraction=0.0),
    UrdRpcWorkload(
        "urd_rpc",
        "closed loop, 16 clients (8 local socket, 8 remote Mercury) on one "
        "urd, each submitting a copy task and polling it until finished: "
        "wire, net and urd serving, no scheduler",
        n_local=8, n_remote=8, tasks_per_client=40,
        max_task_bytes=1 << 20, n_inputs=1),
    ReplayWorkload(
        "replay_chaos",
        "open loop in sim time; replay_staged under the chaos fault profile: "
        "heartbeats, retries and fault injection are measured",
        n_jobs=100, n_inputs=2, mean_interarrival=14.0,
        staged_fraction=0.25, chaos=True),
)}
