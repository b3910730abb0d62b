"""Lazy pod RNG streams change no output.

A pod draws one 64-bit child seed per stream per execution, but builds
the child ``random.Random`` only when the execution draws from it, and
a one-thread program runs without a random scheduler. The reference
below is the eager pod: every stream built up front, every program
scheduled by ``RandomScheduler``. Both must ship the same trace bytes
and the same user feedback, run after run.
"""

import random

import pytest

from repro.guidance.steering import SteeringDirective
from repro.pod.pod import Pod, PodRun
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import (
    make_crash_demo, make_deadlock_demo, make_race_demo,
    make_shortread_demo,
)
from repro.progmodel.interpreter import (
    Environment, ExecutionLimits, FaultPlan, Interpreter,
)
from repro.progmodel.ir import Input, Var
from repro.rng import LazyRandom, make_rng
from repro.sched.scheduler import (
    FixedScheduler, PCTScheduler, RandomScheduler,
)
from repro.tracing.encode import encode_trace
from repro.tracing.outcome import infer_feedback


class EagerPod(Pod):
    """The reference: every child stream is a built ``random.Random``
    and every natural run is randomly scheduled."""

    def execute(self, inputs, directive=None):
        guided = directive is not None
        if guided and directive.inputs is not None:
            inputs = self._clamp_inputs(directive.inputs)
        fault_plan = None
        if guided and directive.fault_plan is not None:
            fault_plan = directive.fault_plan
        environment = Environment(
            rng=self._eager_rng(),
            fault_rate=0.0 if fault_plan else self.fault_rate,
            fault_plan=fault_plan)
        if guided and directive.schedule_picks is not None:
            scheduler = FixedScheduler(list(directive.schedule_picks))
        elif guided and directive.pct_seed is not None:
            horizon = min(self.limits.max_steps,
                          8 * self.program.instruction_count())
            scheduler = PCTScheduler(
                n_threads=len(self.program.threads), depth=3,
                max_steps=horizon, seed=directive.pct_seed)
        else:
            scheduler = RandomScheduler(rng=self._eager_rng())
        result = Interpreter(self.program, limits=self.limits).run(
            inputs, environment=environment, scheduler=scheduler)
        trace = self.capture.capture(result, pod_id=self.pod_id,
                                     guided=guided)
        feedback = infer_feedback(result, rng=self._eager_rng(),
                                  max_steps=self.limits.max_steps)
        return PodRun(result=result, trace=trace, feedback=feedback,
                      guided=guided, program_version=self.program.version)

    def _eager_rng(self):
        return random.Random(self._rng.getrandbits(64))


def _rand_program():
    """One thread whose path depends on a ``rand`` syscall."""
    b = ProgramBuilder("rand_demo", inputs={"n": (0, 3)})
    main = b.function("main")
    entry = main.block("entry")
    entry.syscall("r", "rand", 4)
    entry.branch(Var("r") + Input("n") > 4, "high", "low")
    main.block("high").crash("rolled high").halt()
    main.block("low").halt()
    return b.build()


def _runs(pod_class, program, runs, fault_rate=0.0, limits=None,
          directive_for=lambda index: None, seed=11):
    pod = pod_class("pod-0", program, fault_rate=fault_rate,
                    limits=limits, seed=seed)
    rng = make_rng(seed, "lazy-rng-inputs")
    shipped = []
    for index in range(runs):
        inputs = {name: rng.randint(lo, hi)
                  for name, (lo, hi) in program.inputs.items()}
        run = pod.execute(inputs, directive=directive_for(index))
        shipped.append((encode_trace(run.trace), run.feedback))
    return shipped


def _assert_same(program, **kwargs):
    lazy = _runs(Pod, program, **kwargs)
    eager = _runs(EagerPod, program, **kwargs)
    assert lazy == eager
    return lazy


class TestLazyStreamsMatchEagerPod:
    def test_single_thread_program(self):
        _assert_same(make_crash_demo().program, runs=60)

    def test_fault_rate_draws_env_stream(self):
        shipped = _assert_same(make_shortread_demo().program, runs=80,
                               fault_rate=0.3)
        # The faults really fired: some runs crashed on a short read.
        assert len({trace for trace, _feedback in shipped}) > 1

    def test_rand_syscall_draws_env_stream(self):
        shipped = _assert_same(_rand_program(), runs=60)
        assert len({trace for trace, _feedback in shipped}) > 2

    @pytest.mark.parametrize("make_demo", [make_deadlock_demo,
                                           make_race_demo])
    def test_multi_thread_programs(self, make_demo):
        shipped = _assert_same(make_demo().program, runs=60)
        # Random schedules: more than one interleaving was shipped.
        assert len({trace for trace, _feedback in shipped}) > 1

    def test_hang_feedback_draws_feedback_stream(self):
        shipped = _assert_same(make_race_demo().program, runs=60,
                               limits=ExecutionLimits(max_steps=6))
        feedback = {feedback.value for _trace, feedback in shipped}
        assert "forced_kill" in feedback

    def test_pct_and_replay_schedule_directives(self):
        program = make_deadlock_demo().program

        def directive_for(index):
            if index % 3 == 0:
                return SteeringDirective(kind="schedule", pct_seed=index)
            if index % 3 == 1:
                return SteeringDirective(
                    kind="replay_schedule",
                    schedule_picks=(0, 1) * (index % 7))
            return None

        _assert_same(program, runs=45, directive_for=directive_for)

    def test_fault_plan_directive(self):
        program = make_shortread_demo().program

        def directive_for(index):
            if index % 2:
                return SteeringDirective(
                    kind="fault", fault_plan=FaultPlan({0: index % 5}))
            return None

        _assert_same(program, runs=30, fault_rate=0.2,
                     directive_for=directive_for)


class TestLazyRandom:
    def test_draws_match_eager_generator(self):
        lazy, eager = LazyRandom(42), random.Random(42)
        assert [lazy.random() for _ in range(5)] == \
            [eager.random() for _ in range(5)]
        assert lazy.randrange(100) == eager.randrange(100)
        assert lazy.choice([1, 2, 3]) == eager.choice([1, 2, 3])

    def test_generator_built_on_first_draw_only(self):
        lazy = LazyRandom(7)
        assert lazy._rng is None
        lazy.random()
        built = lazy._rng
        lazy.randrange(10)
        assert lazy._rng is built

    def test_private_names_do_not_build_the_generator(self):
        lazy = LazyRandom(7)
        with pytest.raises(AttributeError):
            lazy._missing
        assert lazy._rng is None
