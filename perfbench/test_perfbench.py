"""Tests of the benchmark's own helpers (run with the tier-1 suite)."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, measure, timing  # noqa: E402
from perfbench.timing import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, ReplayWorkload, UrdRpcWorkload,
)


# -- tail-percentile selection ---------------------------------------------

@pytest.mark.parametrize("n,expected", [
    (10_000, 99.9), (1_000, 99), (999, 95), (200, 95), (199, 90),
    (100, 90), (99, None), (0, None),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


# -- reconciliation arithmetic ---------------------------------------------

def test_reconcile_exact_and_mismatch():
    assert measure.reconcile({"a": 60, "b": 30}, 10, 100) == 0.0
    assert measure.reconcile({"a": 60, "b": 20}, 10, 100) == \
        pytest.approx(0.1)
    with pytest.raises(ValueError):
        measure.reconcile({"a": -1}, 10, 100)
    with pytest.raises(ValueError):
        measure.reconcile({"a": 1}, 0, 0)


class _FakeTime:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t


def test_layer_clock_subtracts_nested_frames(monkeypatch):
    now = _FakeTime()
    monkeypatch.setattr(layers, "perf_counter_ns", now)
    clock = layers.LayerClock()

    def inner():
        now.t += 5

    def gen():
        now.t += 7
        yield 1
        now.t += 11
        clock.call("b", inner)

    def outer():
        now.t += 3
        clock.call("b", inner)
        now.t += 2
        proxy = layers.TimedGen(clock, "c", gen())
        assert list(proxy) == [1]

    clock.start()
    now.t += 4
    clock.call("a", outer)
    now.t += 6
    clock.stop()
    assert dict(clock.self_ns) == {"a": 5, "b": 10, "c": 18}
    assert clock.residual_ns == 10
    assert clock.wall_ns == 43
    assert measure.reconcile(clock.self_ns, clock.residual_ns,
                             clock.wall_ns) == 0.0


# -- wrappers install and restore --------------------------------------------

def _patch_targets():
    """Every (owner, name) the wrappers may touch, with its value now."""
    from repro.slurm.policies.base import SchedulingPolicy
    from repro.sim.core import Event, Simulator
    targets = {}
    for modname, clsname, names, _layer in layers.ENTRY_POINTS:
        module = importlib.import_module(modname)
        for name in names:
            owners = (layers.definers(getattr(module, clsname), name)
                      if clsname else [module])
            for owner in owners:
                targets[(owner, name)] = owner.__dict__[name]
    # Module functions are patched in the program's and the benchmark's
    # modules that imported them, not in test modules.
    for name in ("make_frame", "open_frame"):
        for mod in list(sys.modules.values()):
            d = getattr(mod, "__dict__", None)
            if d is not None and name in d and mod.__name__.startswith(
                    ("repro", "perfbench")):
                targets[(mod, name)] = d[name]
    stack = SchedulingPolicy.__subclasses__()  # the base is abstract
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "schedule" in cls.__dict__:
            targets[(cls, "schedule")] = cls.__dict__["schedule"]
    for cls, name in ((Simulator, "process"), (Event, "add_callback")):
        for owner in layers.definers(cls, name):
            targets[(owner, name)] = owner.__dict__[name]
    return targets


def _install_and_restore():
    before = _patch_targets()
    patcher = layers.install(layers.LayerClock())
    try:
        during = _patch_targets()
        assert set(during) == set(before)
        assert {(owner, name) for owner, name, _ in patcher.patched} \
            == set(before)
        assert all(during[k] is not v for k, v in before.items())
    finally:
        patcher.restore()
    after = _patch_targets()
    assert all(after[k] is v for k, v in before.items())
    assert patcher.patched == []


def test_install_then_restore_puts_back_every_attribute():
    _install_and_restore()


def test_install_under_reference_kernel(monkeypatch):
    """With ``REPRO_KERNEL=reference`` the module's ``Simulator`` is the
    reference kernel, which defines only some methods itself."""
    from repro.sim import core
    monkeypatch.setattr(core, "Simulator", core.ReferenceSimulator)
    _install_and_restore()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)

    clock = layers.LayerClock()
    patcher = layers.install(clock)
    try:
        sim = core.ReferenceSimulator()
        clock.start()
        sim.run(sim.process(proc(sim)))
        clock.stop()
    finally:
        patcher.restore()
    assert sim.now == 3.0
    assert clock.calls["sim.core:run"] == 1
    assert clock.calls["sim.core:timeout"] == 2
    assert clock.self_ns["bench"] > 0
    assert "run" in core.ReferenceSimulator.__dict__
    assert not hasattr(core.ReferenceSimulator.run, "__wrapped__")


def test_traced_replay_matches_untraced_and_reconciles():
    wl = ReplayWorkload("t", "", n_jobs=40, n_inputs=1,
                        mean_interarrival=14.0, staged_fraction=0.5)
    (sub,) = wl.inputs(5)
    prep = wl.setup(sub)
    ref = wl.outcome(prep, wl.execute(prep))
    assert not ref.errors and ref.failed == 0
    clock = layers.LayerClock()
    patcher = layers.install(clock)
    try:
        prep = wl.setup(sub)
        clock.start()
        report = wl.execute(prep)
        clock.stop()
    finally:
        patcher.restore()
    assert wl.outcome(prep, report).digest == ref.digest
    assert clock.self_ns["sim.flows"] > 0 and clock.self_ns["traces"] > 0
    assert measure.reconcile(clock.self_ns, clock.residual_ns,
                             clock.wall_ns) <= measure.RECONCILE_TOLERANCE


# -- sliced timing -----------------------------------------------------------

@pytest.mark.parametrize("wl", [
    ReplayWorkload("t", "", n_jobs=40, n_inputs=1, mean_interarrival=14.0,
                   staged_fraction=0.5),
    UrdRpcWorkload("t", "", n_local=2, n_remote=2, tasks_per_client=3,
                   max_task_bytes=1 << 16, n_inputs=1),
], ids=["replay", "urd_rpc"])
def test_slice_marks_do_not_change_the_simulation(wl):
    (sub,) = wl.inputs(5)
    _setup, whole, _wall, span, prep, raw = timing._execute(wl, sub)
    ref = wl.outcome(prep, raw)
    assert len(whole) == 1 and span > 0 and not ref.errors
    _setup, sliced, _wall, span2, prep, raw = timing._execute(wl, sub, span)
    assert len(sliced) == timing.SLICES and all(t >= 0 for t in sliced)
    assert span2 == span
    assert wl.outcome(prep, raw).digest == ref.digest


# -- BENCHMARK.json agrees with the code --------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    for key, table in (("end_to_end", END_TO_END),
                       ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} \
            == table
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
