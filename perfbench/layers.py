"""Outside-in tracing: time the program's layers without editing it.

The benchmark swaps chosen public functions of ``repro`` for timing
wrappers while a repetition runs and puts the originals back after.
Each wrapper counts calls and adds up *self time*: its own wall time
minus the wall time of wrapped callees that ran inside it. Time spent
outside every wrapper is ``unattributed``. Every instant of a traced
interval is therefore counted exactly once, so the self times plus
``unattributed_s`` must add up to the interval's wall time; the
benchmark checks that.

Only the calling process is traced. A worker process of the process
backend runs its pods and shard replay out of sight; that time shows
up as the coordinator's ``exec.run_round`` self time (waiting) and as
``ShardResult.busy_seconds``.
"""

from __future__ import annotations

import os
import sys
import time
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_TARGETS", "LayerCounters", "LayerStat", "LayerTracer",
           "Patches", "install_layers", "resolve"]

_clock = time.perf_counter


def resolve(dotted: str) -> Tuple[object, str]:
    """``"repro.pod.pod:Pod.execute"`` -> (Pod, "execute").

    The attribute must be defined on the owner itself, not inherited,
    so a renamed or moved function fails loudly instead of leaving a
    layer silently unwrapped.
    """
    module_name, _, path = dotted.partition(":")
    owner = __import__(module_name, fromlist=["_"])
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"benchmark probe target {dotted} not found")
    return owner, attr


#: Patch sets in force. A forked worker process undoes them at once, so
#: it neither pays for the wrappers nor records into a copy of the
#: coordinator's counts.
_ACTIVE: List["Patches"] = []


def _restore_in_child() -> None:
    for patches in list(_ACTIVE):
        patches.restore()


class Patches:
    """Attribute replacements that are undone on ``restore``.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name (``from x import f``), because
    those modules call their own reference, not the defining module's.
    """

    _fork_hook = False

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self._functions: List[Tuple[str, object, object]] = []
        if not Patches._fork_hook:
            os.register_at_fork(after_in_child=_restore_in_child)
            Patches._fork_hook = True
        _ACTIVE.append(self)

    def replace(self, owner: object, attr: str, new: object) -> None:
        old = vars(owner)[attr]
        if isinstance(owner, ModuleType):
            self._functions.append((attr, old, new))
            self._swap_in_modules(attr, old, new)
        else:
            setattr(owner, attr, new)
            self._undo.append((owner, attr, old))

    def restore(self) -> None:
        if self in _ACTIVE:
            _ACTIVE.remove(self)
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        # A scan, so it also covers modules first imported meanwhile.
        while self._functions:
            attr, old, new = self._functions.pop()
            self._swap_in_modules(attr, new, old)

    @staticmethod
    def _swap_in_modules(attr: str, current: object, replacement: object
                         ) -> None:
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro") and module is not None
                    and vars(module).get(attr) is current):
                setattr(module, attr, replacement)


class LayerStat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0      # inclusive of wrapped callees


class LayerTracer:
    """Call counts and self times for a set of wrapped functions."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {}
        self.unattributed_s = 0.0
        self.wall_s = 0.0
        # One child-time accumulator per open wrapped call.
        self._stack: List[float] = []
        self._idle_since = 0.0
        self._started = 0.0

    def wrap(self, metric: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """A timing wrapper for ``fn``; ``observe(result, args)`` runs
        after the call, outside its timed interval."""
        stat = self.stats.setdefault(metric, LayerStat())
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            start = _clock()
            if not stack:
                tracer.unattributed_s += start - tracer._idle_since
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                elapsed = end - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer._idle_since = end
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    def start(self) -> None:
        self._started = self._idle_since = _clock()

    def stop(self) -> None:
        end = _clock()
        if self._stack:
            raise RuntimeError("traced interval ended inside a wrapped call")
        self.unattributed_s += end - self._idle_since
        self.wall_s += end - self._started

    def accounted_s(self) -> float:
        return sum(stat.self_s for stat in self.stats.values()) \
            + self.unattributed_s


#: (metric prefix, wrapped function). The layers are the ``src/repro``
#: packages one round or tick passes through; two population classes
#: share one metric because either one samples the workload's users.
LAYER_TARGETS = (
    ("workloads.sample",
     "repro.workloads.population:UserPopulation.sample_execution"),
    ("workloads.sample",
     "repro.workloads.population:ZipfPopulation.sample_execution"),
    ("pod.execute", "repro.pod.pod:Pod.execute"),
    ("progmodel.run", "repro.progmodel.interpreter:Interpreter.run"),
    ("progmodel.replay", "repro.progmodel.interpreter:Interpreter.replay"),
    ("tracing.encode", "repro.tracing.encode:encode_trace"),
    ("tracing.decode", "repro.tracing.encode:decode_trace"),
    ("exec.run_round", "repro.exec.backends:_BackendBase.run_round"),
    ("hive.ingest_batch", "repro.hive.hive:Hive.ingest_batch"),
    ("hive.ingest_trace", "repro.hive.hive:Hive.ingest_trace"),
    ("hive.maybe_fix", "repro.hive.hive:Hive.maybe_fix"),
    ("hive.plan_steering", "repro.hive.hive:Hive.plan_steering"),
    ("hive.current_proof", "repro.hive.hive:Hive.current_proof"),
    ("tree.insert_path", "repro.tree.exectree:ExecutionTree.insert_path"),
    ("symbolic.solve", "repro.symbolic.solver:EnumerationSolver.solve"),
    ("symbolic.explore", "repro.symbolic.engine:SymbolicEngine.explore"),
    ("symbolic.recycle",
     "repro.symbolic.engine:SymbolicEngine.recycle_witness"),
    ("fixes.validate", "repro.fixes.validation:FixValidator.validate"),
    ("serve.pump_offer", "repro.serve.pump:IngestPump.offer"),
    ("serve.pump_drain", "repro.serve.pump:IngestPump.drain"),
    ("obs.health_observe", "repro.obs.health:HealthPlane.observe"),
)

_REPLAY_SOURCE = "repro.progmodel.interpreter:ReplaySource.__init__"


class LayerCounters:
    """Work counts the wrappers see pass by, beyond calls and time."""

    def __init__(self) -> None:
        self.worker_busy_s = 0.0     # sum of ShardResult.busy_seconds
        self.wire_bytes = 0          # trace payload bytes the hive decoded
        self.replays = 0
        self.distinct_replays = 0    # summed over repetitions
        self._inputs = set()         # this repetition's replay inputs
        self.pending: Dict[int, tuple] = {}

    def on_run_round(self, results, _args) -> None:
        self.worker_busy_s += sum(result.busy_seconds for result in results)

    def on_decode(self, _trace, args) -> None:
        self.wire_bytes += len(args[0])

    def on_replay(self, _result, args) -> None:
        interpreter, source = args[0], args[1]
        program = interpreter.program
        self.replays += 1
        self._inputs.add((program.name, program.version,
                          self.pending.pop(id(source), None)))

    def end_rep(self) -> None:
        self.distinct_replays += len(self._inputs)
        self._inputs.clear()
        self.pending.clear()


def install_layers(tracer: LayerTracer, patches: Patches,
                   counters: LayerCounters) -> None:
    """Wrap every layer target for the length of one traced repetition."""
    observers = {"exec.run_round": counters.on_run_round,
                 "tracing.decode": counters.on_decode,
                 "progmodel.replay": counters.on_replay}
    for metric, target in LAYER_TARGETS:
        owner, attr = resolve(target)
        patches.replace(owner, attr, tracer.wrap(
            metric, vars(owner)[attr], observers.get(metric)))
    # A replay's input (branch bits, syscall returns, schedule picks)
    # is only visible where its ReplaySource is built; remember it by
    # object id until the replay that consumes it.
    owner, attr = resolve(_REPLAY_SOURCE)
    init = vars(owner)[attr]

    def remember(source, branch_bits, syscall_returns, schedule_picks):
        counters.pending[id(source)] = (tuple(branch_bits),
                                         tuple(syscall_returns),
                                         tuple(schedule_picks))
        init(source, branch_bits, syscall_returns, schedule_picks)

    patches.replace(owner, attr, remember)
