"""Pod implementation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.guidance.steering import SteeringDirective
from repro.obs import Instrumented
from repro.progmodel.interpreter import (
    Environment, ExecutionLimits, ExecutionResult, Interpreter,
)
from repro.progmodel.ir import Program
from repro.rng import LazyRandom, make_rng
from repro.sched.scheduler import (
    PCTScheduler, RandomScheduler, RoundRobinScheduler,
)
from repro.tracing.capture import CapturePolicy, FullCapture
from repro.tracing.outcome import UserFeedback, infer_feedback
from repro.tracing.trace import Trace

if TYPE_CHECKING:
    from repro.exec.replay import KnownRun, RunMemo

__all__ = ["Pod", "PodRun"]


@dataclass
class PodRun:
    """Everything one pod execution produced."""

    result: ExecutionResult
    trace: Trace
    feedback: UserFeedback
    guided: bool
    program_version: int


class Pod(Instrumented):
    """One installed instance of the program, plus its recorder."""

    obs_namespace = "pod"

    def __init__(self, pod_id: str, program: Program,
                 capture: Optional[CapturePolicy] = None,
                 limits: Optional[ExecutionLimits] = None,
                 fault_rate: float = 0.0,
                 seed: int = 0):
        self.pod_id = pod_id
        self.program = program
        self.capture = capture or FullCapture()
        self.limits = limits or ExecutionLimits()
        self.fault_rate = fault_rate
        self.seed = seed
        self._rng = make_rng(seed, "pod", pod_id)
        self.runs = 0
        self.failures_experienced = 0
        self.updates_applied = 0
        # Pod metrics aggregate across the whole fleet of pods: one
        # shared handle per name, resolved once per pod.
        self._obs_execute = self.obs_timer("execute")
        self._obs_executions = self.obs_counter("executions")
        self._obs_failures = self.obs_counter("failures")
        self._obs_steps = self.obs_histogram("steps", unit="steps")
        self._obs_events = self.obs_histogram("events_recorded",
                                              unit="events")
        self._obs_updates = self.obs_counter("updates_applied")

    @property
    def version(self) -> int:
        return self.program.version

    def apply_update(self, program: Program) -> None:
        """Install a fixed program version shipped by the hive."""
        if program.version > self.program.version:
            self.program = program
            self.updates_applied += 1
            self._obs_updates.inc()

    def execute(self, inputs: Dict[str, int],
                directive: Optional[SteeringDirective] = None,
                memo: Optional["RunMemo"] = None) -> PodRun:
        """Run the program once: naturally, or under a directive.

        ``memo`` is the owning shard's :class:`~repro.exec.replay.RunMemo`:
        a natural run it already knows is pure is served from it, and a
        natural run that turns out pure is offered to it.
        """
        guided = directive is not None
        key = None
        if memo is not None and not guided and self.capture.memoizable:
            key = (id(self.program), tuple(inputs.items()))
            known = memo.get(key)
            if known is not None and known.serves(self):
                return self._repeat(known)
        if guided and directive.inputs is not None:
            inputs = self._clamp_inputs(directive.inputs)

        fault_plan = None
        if guided and directive.fault_plan is not None:
            fault_plan = directive.fault_plan
        env_rng = self._spawn_rng("env")
        environment = Environment(
            rng=env_rng,
            fault_rate=0.0 if fault_plan else self.fault_rate,
            fault_plan=fault_plan,
        )

        sched_rng = None
        if guided and directive.schedule_picks is not None:
            # Re-drive the program down a previously observed dangerous
            # interleaving (best effort: the pick sequence is followed
            # while it stays runnable, then falls back to round-robin).
            from repro.sched.scheduler import FixedScheduler
            scheduler = FixedScheduler(list(directive.schedule_picks))
        elif guided and directive.pct_seed is not None:
            # PCT's change points must land within the actual execution
            # length; a few passes over the program is a good horizon.
            horizon = min(self.limits.max_steps,
                          8 * self.program.instruction_count())
            scheduler = PCTScheduler(
                n_threads=len(self.program.threads), depth=3,
                max_steps=horizon, seed=directive.pct_seed)
        else:
            sched_rng = self._spawn_rng("sched")
            # Threads never spawn at run time, so a one-thread program
            # always has exactly one runnable thread: nothing to draw.
            scheduler = (RoundRobinScheduler()
                         if len(self.program.threads) == 1
                         else RandomScheduler(rng=sched_rng))

        with self._obs_execute.time():
            result = Interpreter(self.program, limits=self.limits).run(
                inputs, environment=environment, scheduler=scheduler)
            trace = self.capture.capture(result, pod_id=self.pod_id,
                                         guided=guided)
        fb_rng = self._spawn_rng("fb")
        feedback = infer_feedback(result, rng=fb_rng,
                                  max_steps=self.limits.max_steps)
        if key is not None and not (env_rng.drawn or sched_rng.drawn
                                    or fb_rng.drawn):
            memo.admit(key, self, result, trace, feedback)
        return self._finish(result, trace, feedback, guided)

    def _repeat(self, known: "KnownRun") -> PodRun:
        """Serve a natural run whose outcome ``known`` already holds.

        The pod stream advances by the three 64-bit child seeds a run
        draws (env, sched, fb; one 192-bit draw takes the same six
        32-bit words), and every metric counts as for a run, so the
        rest of this pod's life cannot tell a hit from a miss.
        """
        with self._obs_execute.time():
            self._rng.getrandbits(192)
            trace = known.trace
            if trace.pod_id != self.pod_id:
                trace = trace.with_pod(self.pod_id)
            self.capture.account(trace)
        return self._finish(known.result, trace, known.feedback, False)

    def _finish(self, result: ExecutionResult, trace: Trace,
                feedback: UserFeedback, guided: bool) -> PodRun:
        self.runs += 1
        self._obs_executions.inc()
        self._obs_steps.observe(result.steps)
        self._obs_events.observe(trace.events_recorded)
        if result.outcome.is_failure:
            self.failures_experienced += 1
            self._obs_failures.inc()
        return PodRun(result=result, trace=trace, feedback=feedback,
                      guided=guided, program_version=self.program.version)

    # -- helpers ----------------------------------------------------------------

    def _spawn_rng(self, label: str) -> LazyRandom:
        """The next child stream: its seed is drawn now, in order, but
        the generator is built only if the execution draws from it (the
        env stream on faults or ``rand``, the feedback stream on HANG).
        """
        return LazyRandom(self._rng.getrandbits(64))

    def _clamp_inputs(self, inputs: Dict[str, int]) -> Dict[str, int]:
        """Directives may come from an engine run against an older
        version; clamp to the current version's declared domains and
        fill any missing inputs with domain minima."""
        clamped = {}
        for name, (lo, hi) in self.program.inputs.items():
            value = inputs.get(name, lo)
            clamped[name] = min(hi, max(lo, value))
        return clamped
