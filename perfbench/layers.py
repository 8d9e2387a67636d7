"""Host-time accounting by layer, installed from outside the program.

:class:`LayerClock` charges host time to layers (one per module group,
see :data:`MODULE_LAYERS`).  :func:`install` wraps the public entry
points in :data:`ENTRY_POINTS`, every generator handed to
``Simulator.process`` and every callback registered through
``Event.add_callback``; it returns a :class:`Patcher` whose
``restore()`` puts every patched attribute back.  Nothing under
``src/`` is edited.

A wrapped call is one frame.  Its self time is its duration minus the
durations of the wrapped frames nested in it.  Time outside every frame
is the residual.  The sum of all self times plus the residual is the
wall time of the measured region (see :func:`measure.reconcile`).

Paths that bypass the hooks stay in the self time of the frame that
encloses them, mostly ``Simulator.run`` (``sim.core``):

* the kernel's inlined process parking and resume (``Process._resume``
  stores its resume hook in ``Event.callbacks`` directly);
* ``Event.succeed``/``fail`` and the calendar (not wrapped: they are
  charged to whichever layer triggers the event);
* callbacks whose function has no module (``list.append`` and other
  builtins) and callbacks and generators defined in ``repro.sim.core``
  or ``repro.sim.primitives``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ENTRY_POINTS", "MODULE_LAYERS", "LAYERS",
    "LayerClock", "Patcher", "definers", "install", "layer_of_module",
]

#: Module prefix -> layer, longest prefix first.  ``None`` leaves the
#: code unwrapped, so it is charged to the enclosing frame.
MODULE_LAYERS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("repro.sim.flows", "sim.flows"),
    ("repro.sim.resources", "sim.resources"),
    ("repro.sim", None),
    ("repro.wire", "wire"),
    ("repro.net", "net"),
    ("repro.norns", "norns"),
    ("repro.slurm.staging", "slurm.staging"),
    ("repro.slurm.policies", "slurm.sched"),
    ("repro.slurm", "slurm.ctld"),
    ("repro.storage", "storage"),
    ("repro.resilience", "resilience"),
    ("repro.faults", "faults"),
    ("repro.traces", "traces"),
    ("repro", "other"),
    ("perfbench", "bench"),
)

#: Every layer a traced run reports, ``sim.core`` first.
LAYERS: Tuple[str, ...] = (
    "sim.core", "sim.flows", "sim.resources", "wire", "net", "norns",
    "slurm.sched", "slurm.ctld", "slurm.staging", "storage",
    "resilience", "faults", "traces", "other", "bench",
)

#: (module, class or None for module functions, names, layer).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.sim.core", "Simulator",
     ("run", "process", "event", "timeout", "cancellable_timeout"),
     "sim.core"),
    ("repro.sim.flows", "FlowScheduler",
     ("transfer", "cancel", "set_capacity"), "sim.flows"),
    ("repro.sim.resources", "Resource",
     ("request", "release", "cancel"), "sim.resources"),
    ("repro.sim.resources", "Store",
     ("put", "get", "try_get", "drain"), "sim.resources"),
    ("repro.sim.resources", "Container", ("put", "get"), "sim.resources"),
    ("repro.wire.frames", None, ("make_frame", "open_frame"), "wire"),
    ("repro.net.mercury", "MercuryEndpoint",
     ("call", "bulk_pull", "bulk_push"), "net"),
    ("repro.net.sockets", "Channel", ("send", "recv"), "net"),
    ("repro.net.sockets", "LocalSocketHub", ("connect",), "net"),
    ("repro.net.fabric", "Fabric", ("transfer", "cancel"), "net"),
    ("repro.norns.api.user", "NornsClient",
     ("submit", "wait", "error", "get_dataspace_info"), "norns"),
    ("repro.norns.api.control", "NornsCtlClient",
     ("send_command", "status", "register_dataspace", "register_job",
      "update_job", "unregister_job", "add_process", "remove_process",
      "submit", "wait", "error"), "norns"),
    ("repro.slurm.slurmctld", "Slurmctld",
     ("submit", "cancel", "drain", "requeue", "drain_node", "resume_node",
      "fail_node", "restore_node"), "slurm.ctld"),
    ("repro.slurm.staging", "StagingCoordinator",
     ("stage_in", "stage_out", "cleanup_staged", "cleanup_job_data",
      "apply_persist"), "slurm.staging"),
    ("repro.storage.pfs", "ParallelFileSystem",
     ("write", "read", "collective_write", "delete"), "storage"),
    ("repro.storage.device", "BlockDevice",
     ("read", "write", "allocate", "release"), "storage"),
    ("repro.resilience.layer", "NodeResilience",
     ("arm", "disarm", "call", "guard", "watch"), "resilience"),
    ("repro.faults.engine", "FaultInjector",
     ("start", "stop", "finalize"), "faults"),
    ("repro.traces.replay", "TraceReplayer", ("run",), "traces"),
)


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer code in ``module`` is charged to (``None``: unwrapped)."""
    if not module:
        return None
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _layer_of_callable(fn) -> Optional[str]:
    if isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)  # bound method -> function
    return layer_of_module(getattr(fn, "__module__", None))


class LayerClock:
    """Self-time and call-count accumulators for one measured region."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        #: per scheduling-policy call: sum of the pending-queue length.
        self.pending_sum = 0
        self._stack: List[int] = []
        self._mark = 0
        self._start = 0
        self.residual_ns = 0
        self.wall_ns = 0

    def start(self) -> None:
        """Zero every accumulator and open the measured region."""
        if self._stack:
            raise RuntimeError("LayerClock.start inside a wrapped frame")
        self.self_ns.clear()
        self.calls.clear()
        self.pending_sum = 0
        self.residual_ns = 0
        self._start = self._mark = perf_counter_ns()

    def stop(self) -> None:
        """Close the measured region (must be outside every frame)."""
        end = perf_counter_ns()
        if self._stack:
            raise RuntimeError("LayerClock.stop inside a wrapped frame")
        self.residual_ns += end - self._mark
        self.wall_ns = end - self._start

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one frame charged to ``layer``."""
        stack = self._stack
        t0 = perf_counter_ns()
        if not stack:
            self.residual_ns += t0 - self._mark
        stack.append(0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            elapsed = t1 - t0
            self.self_ns[layer] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
            else:
                self._mark = t1


class TimedGen:
    """Generator proxy: each resume is a frame charged to ``layer``."""

    def __init__(self, clock: LayerClock, layer: str, gen) -> None:
        self._clock = clock
        self._layer = layer
        self._gen = gen
        self.__name__ = gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._clock.call(self._layer, self._gen.send, None)

    def send(self, value):
        return self._clock.call(self._layer, self._gen.send, value)

    def throw(self, *args):
        return self._clock.call(self._layer, self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class TimedCallback:
    """Event callback proxy; compares equal to the wrapped callable so
    ``Event.remove_callback`` still finds it."""

    __slots__ = ("_clock", "_layer", "fn")

    def __init__(self, clock: LayerClock, layer: str, fn) -> None:
        self._clock = clock
        self._layer = layer
        self.fn = fn

    def __call__(self, event):
        return self._clock.call(self._layer, self.fn, event)

    def __eq__(self, other):
        if isinstance(other, TimedCallback):
            other = other.fn
        return self.fn == other

    def __hash__(self):
        return hash(self.fn)


def _timed(clock: LayerClock, layer: str, key: str, fn: Callable):
    """Wrap ``fn``: count the call, time it, proxy a returned generator."""
    calls = clock.calls

    def wrapper(*args, **kwargs):
        calls[key] += 1
        result = clock.call(layer, fn, *args, **kwargs)
        if result.__class__ is GeneratorType:
            return TimedGen(clock, layer, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


class Patcher:
    """Records every attribute it sets so :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self.patched: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self.patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def set_everywhere(self, module, name: str, value) -> None:
        """Patch a module function and every module that imported it."""
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            d = getattr(mod, "__dict__", None)
            if d is None or d.get(name) is not original:
                continue
            if getattr(mod, "__name__", "").startswith(("repro", "perfbench")):
                self.set(mod, name, value)

    def restore(self) -> None:
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)


def _all_subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


def install(clock: LayerClock) -> Patcher:
    """Wrap every entry point; call ``restore()`` on the result to undo."""
    patcher = Patcher()
    try:
        _install(clock, patcher)
    except BaseException:
        patcher.restore()
        raise
    return patcher


def definers(cls: type, name: str) -> List[type]:
    """Every class related to ``cls`` (bases and subclasses) whose own
    ``__dict__`` defines ``name``.

    ``repro.sim.core.Simulator`` names the reference kernel when
    ``REPRO_KERNEL=reference``; that class inherits ``process`` from the
    fast kernel and overrides ``run``, so both classes are patched.
    """
    family = [*cls.__mro__, *_all_subclasses(cls)]
    found = [c for c in dict.fromkeys(family)
             if c is not object and name in c.__dict__]
    if not found:
        raise AttributeError(f"no class related to {cls.__qualname__} "
                             f"defines {name}")
    return found


def _install(clock: LayerClock, patcher: Patcher) -> None:
    for modname, clsname, names, layer in ENTRY_POINTS:
        module = importlib.import_module(modname)
        for name in names:
            key = f"{layer}:{name}"
            if not clsname:
                patcher.set_everywhere(
                    module, name,
                    _timed(clock, layer, key, getattr(module, name)))
                continue
            for owner in definers(getattr(module, clsname), name):
                fn = owner.__dict__[name]
                if not inspect.isfunction(fn):
                    raise TypeError(f"{owner.__qualname__}.{name} is not "
                                    "a plain function")
                patcher.set(owner, name, _timed(clock, layer, key, fn))

    # Scheduling policies: time every override of ``schedule`` and
    # record the pending-queue length the pass looked at.
    from repro.slurm.policies.base import SchedulingPolicy
    for cls in _all_subclasses(SchedulingPolicy):
        fn = cls.__dict__.get("schedule")
        if fn is None or not inspect.isfunction(fn):
            continue
        timed = _timed(clock, "slurm.sched", "slurm.sched:schedule", fn)

        def schedule(self, state, now, _timed=timed):
            clock.pending_sum += state.pending_count
            return _timed(self, state, now)

        patcher.set(cls, "schedule", schedule)

    # Processes and callbacks: charged to the module that defines them.
    from repro.sim.core import Event, Simulator
    for owner in definers(Simulator, "process"):
        def timed_process(self, gen, name="",
                          _process=owner.__dict__["process"]):
            if gen.__class__ is GeneratorType and gen.gi_frame is not None:
                layer = layer_of_module(
                    gen.gi_frame.f_globals.get("__name__"))
                if layer is not None:
                    gen = TimedGen(clock, layer, gen)
            return _process(self, gen, name)  # already the timed wrapper

        patcher.set(owner, "process", timed_process)
    for owner in definers(Event, "add_callback"):
        def timed_add_callback(self, fn,
                               _add=owner.__dict__["add_callback"]):
            layer = _layer_of_callable(fn)
            if layer is not None and not isinstance(fn, TimedCallback):
                fn = TimedCallback(clock, layer, fn)
            return _add(self, fn)

        patcher.set(owner, "add_callback", timed_add_callback)
