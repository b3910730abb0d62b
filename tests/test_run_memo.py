"""Memoized pod runs change no output.

A shard serves a natural pod run from its ``RunMemo`` when an earlier
run with the same program and inputs drew nothing from its random
streams (``repro.exec.replay``). The reference below is the same fleet
without a memo: both must ship the same trace bytes, feedback and
outcomes, leave every pod stream at the same position and count the
same metrics, whatever the program, capture policy, directives or
rollouts. The unit tests pin the purity witness, the second-sighting
admission rule and the bounds.
"""

import json
from unittest import mock

import pytest

from repro import PlatformConfig, SoftBorgPlatform
from repro.exec import replay as replay_module
from repro.exec.plan import PlannedRun
from repro.exec.replay import RunMemo
from repro.exec.shard import Shard
from repro.fixes.patches import SiteRecoveryFix
from repro.guidance.steering import SteeringDirective
from repro.obs import get_registry, reset
from repro.pod.pod import Pod
from repro.progmodel.builder import ProgramBuilder
from repro.progmodel.corpus import (
    make_crash_demo, make_deadlock_demo, make_race_demo,
    make_shortread_demo,
)
from repro.progmodel.interpreter import (
    ExecutionLimits, FaultPlan, Interpreter,
)
from repro.progmodel.ir import Input, Var
from repro.rng import LazyRandom, make_rng
from repro.tracing.capture import (
    FailureDumpCapture, FullCapture, PrivacyTruncatedCapture,
    SampledCapture,
)
from repro.tracing.encode import encode_trace
from repro.workloads.scenarios import crash_scenario

LIMITS = ExecutionLimits(max_steps=3000)


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


def _metrics():
    """The registry snapshot minus wall-clock values: counters,
    histograms and timer counts."""
    snapshot = get_registry().snapshot()
    snapshot["timers"] = {name: entry["count"]
                          for name, entry in snapshot["timers"].items()}
    return json.dumps(snapshot, sort_keys=True)


def _fleet(program, memo, runs, *, pods=4, fault_rate=0.0, limits=LIMITS,
           capture=FullCapture, directive_for=lambda index: None,
           rollout=None, domain=None, seed=5):
    """Run ``runs`` executions over ``pods`` pods sharing one capture
    policy, limits and fault rate; ``rollout = (index, program)``
    installs ``program`` on the even pods before run ``index``."""
    reset()
    shared = capture()
    fleet = [Pod(f"pod-{i}", program, capture=shared, limits=limits,
                 fault_rate=fault_rate, seed=seed + i)
             for i in range(pods)]
    domain = domain or program.inputs
    rng = make_rng(seed, "run-memo-inputs")
    shipped = []
    for index in range(runs):
        if rollout is not None and index == rollout[0]:
            for pod in fleet[::2]:
                pod.apply_update(rollout[1])
        inputs = {name: rng.randint(lo, hi)
                  for name, (lo, hi) in domain.items()}
        pod = fleet[index % pods]
        run = pod.execute(inputs, directive=directive_for(index), memo=memo)
        shipped.append((encode_trace(run.trace), run.feedback,
                        run.result.outcome, run.result.steps,
                        run.result.failure, run.guided,
                        run.program_version))
    positions = [pod._rng.getstate() for pod in fleet]
    counts = [(pod.runs, pod.failures_experienced) for pod in fleet]
    return shipped, positions, counts, _metrics()


def _assert_same(program, **kwargs):
    """The fleet with a memo equals the fleet without one; returns the
    memo and how many runs it served."""
    with mock.patch.object(Interpreter, "run", autospec=True,
                           side_effect=Interpreter.run) as calls:
        expected = _fleet(program, None, **kwargs)
        unmemoized = calls.call_count
        memo = RunMemo()
        assert _fleet(program, memo, **kwargs) == expected
    return memo, 2 * unmemoized - calls.call_count


class TestMemoizedFleetMatchesUnmemoized:
    def test_crash_program_is_served(self):
        memo, served = _assert_same(make_crash_demo().program, runs=200)
        assert len(memo) > 0
        assert served > 100

    @pytest.mark.parametrize("make_demo", [make_deadlock_demo,
                                           make_race_demo])
    def test_multi_thread_runs_draw_and_are_never_admitted(self, make_demo):
        memo, served = _assert_same(make_demo().program, runs=80)
        assert len(memo) == 0 and served == 0

    def test_shortread_with_faults(self):
        # Every syscall draws from the env stream at a nonzero fault
        # rate, so no run is pure.
        memo, served = _assert_same(make_shortread_demo().program,
                                    runs=120, fault_rate=0.05)
        assert len(memo) == 0 and served == 0

    def test_shortread_without_faults_is_served(self):
        memo, served = _assert_same(make_shortread_demo().program,
                                    runs=120, domain={"sz": (1, 6)})
        assert served > 0

    def test_rand_syscall_is_never_admitted(self):
        memo, served = _assert_same(_rand_program(), runs=60)
        assert len(memo) == 0 and served == 0

    def test_hang_feedback_is_never_admitted(self):
        # Every run hangs, and a hang draws its user feedback.
        memo, served = _assert_same(
            make_crash_demo().program, runs=60,
            limits=ExecutionLimits(max_steps=2))
        assert len(memo) == 0 and served == 0

    def test_sampled_capture_is_never_served(self):
        memo, served = _assert_same(
            make_crash_demo().program, runs=80,
            capture=lambda: SampledCapture(rate=2, seed=3))
        assert len(memo) == 0 and served == 0

    def test_privacy_truncated_capture_is_never_served(self):
        memo, served = _assert_same(
            make_crash_demo().program, runs=80,
            capture=lambda: PrivacyTruncatedCapture(max_bits=1))
        assert len(memo) == 0 and served == 0

    def test_failure_dump_capture_is_served(self):
        memo, served = _assert_same(make_crash_demo().program, runs=120,
                                    capture=FailureDumpCapture)
        assert served > 0

    def test_directives_bypass_the_memo(self):
        program = make_crash_demo().program

        def directive_for(index):
            if index % 4 == 0:
                return SteeringDirective(kind="inputs",
                                         inputs={"n": 7, "mode": 2})
            if index % 4 == 1:
                return SteeringDirective(
                    kind="fault", fault_plan=FaultPlan({0: 1}))
            return None

        memo, served = _assert_same(program, runs=160,
                                    directive_for=directive_for)
        assert served > 0

    def test_mid_run_rollout(self):
        demo = make_crash_demo()
        fixed = SiteRecoveryFix(fix_id="f", function="main",
                                block="boom").apply(demo.program)
        memo, served = _assert_same(
            demo.program, runs=240, rollout=(120, fixed),
            domain={"n": (6, 7), "mode": (1, 2)})
        assert served > 0
        programs = {id(entry.program) for entry in memo._runs.values()}
        assert programs == {id(demo.program), id(fixed)}


class TestAdmission:
    def _pod(self, program=None, **kwargs):
        return Pod("pod-0", program or make_crash_demo().program,
                   limits=LIMITS, seed=1, **kwargs)

    def test_second_sighting_admits_third_is_served(self):
        pod, memo = self._pod(), RunMemo()
        inputs = {"n": 3, "mode": 1}
        with mock.patch.object(Interpreter, "run", autospec=True,
                               side_effect=Interpreter.run) as calls:
            pod.execute(inputs, memo=memo)
            assert len(memo) == 0
            pod.execute(inputs, memo=memo)
            assert len(memo) == 1
            assert calls.call_count == 2
            third = pod.execute(inputs, memo=memo)
            assert calls.call_count == 2
        known = memo.get((id(pod.program), tuple(inputs.items())))
        assert third.result is known.result
        assert third.trace is known.trace

    def test_served_trace_is_per_pod_and_keeps_its_encode_memo(self):
        program = make_crash_demo().program
        capture = FullCapture()
        first = Pod("pod-a", program, capture=capture, limits=LIMITS)
        second = Pod("pod-b", program, capture=capture, limits=LIMITS)
        memo = RunMemo()
        inputs = {"n": 7, "mode": 2}
        first.execute(inputs, memo=memo)
        recorded = first.execute(inputs, memo=memo).trace
        encode_trace(recorded)
        served = second.execute(inputs, memo=memo).trace
        assert served is not recorded
        assert served.pod_id == "pod-b"
        assert served._enc_prefix is recorded._enc_prefix
        assert encode_trace(served) == encode_trace(
            Pod("pod-b", program, limits=LIMITS).execute(inputs).trace)

    def test_other_configuration_is_not_served(self):
        program = make_crash_demo().program
        memo = RunMemo()
        inputs = {"n": 2, "mode": 0}
        recorder = self._pod(program)
        recorder.execute(inputs, memo=memo)
        recorder.execute(inputs, memo=memo)
        assert len(memo) == 1
        known = memo.get((id(program), tuple(inputs.items())))
        assert known.serves(recorder)
        for other in (self._pod(program),                   # own capture
                      Pod("p", program, capture=recorder.capture),
                      Pod("p", program, capture=recorder.capture,
                          limits=LIMITS, fault_rate=0.1)):
            assert not known.serves(other)
        with mock.patch.object(Interpreter, "run", autospec=True,
                               side_effect=Interpreter.run) as calls:
            self._pod(program).execute(inputs, memo=memo)
        assert calls.call_count == 1

    def test_memo_and_seen_set_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(replay_module, "RUN_MEMO_CAPACITY", 3)
        monkeypatch.setattr(replay_module, "RUN_SEEN_CAPACITY", 5)
        pod, memo = self._pod(), RunMemo()
        keys = [{"n": n, "mode": mode} for n in range(10) for mode in range(4)]
        for inputs in keys:                   # one sighting each
            pod.execute(inputs, memo=memo)
            assert len(memo._seen) <= 5
        assert len(memo) == 0
        for inputs in keys:                   # two sightings each
            pod.execute(inputs, memo=memo)
            pod.execute(inputs, memo=memo)
            assert len(memo) <= 3
            assert len(memo._seen) <= 5
        assert len(memo) == 3


class TestShardsUseTheMemo:
    def test_crash_platform_snapshot_unchanged(self):
        """A crash platform with fixing, guidance and rollouts on: the
        memoized run's snapshot equals one whose memo never serves."""
        def snapshot():
            reset()
            platform = SoftBorgPlatform(crash_scenario(seed=3),
                                        PlatformConfig(rounds=6, seed=3,
                                                       guidance=True,
                                                       backend="serial"))
            platform.run()
            doc = platform.snapshot()
            doc.pop("observability")
            doc["obs"]["timers"] = {
                name: entry["count"]
                for name, entry in doc["obs"]["timers"].items()}
            return json.dumps(doc, sort_keys=True, default=str)

        with mock.patch.object(Interpreter, "run", autospec=True,
                               side_effect=Interpreter.run) as calls:
            memoized = snapshot()
            interpreted = calls.call_count
            with mock.patch.object(RunMemo, "get", return_value=None):
                assert snapshot() == memoized
        # The memoized run interpreted fewer runs than the unserved one.
        assert interpreted < calls.call_count - interpreted

    def test_shard_owns_one_memo_across_rounds(self):
        program = make_crash_demo().program
        shard = Shard(0, {0: Pod("pod-0", program)}, hive_program=program)
        memo = shard._runs
        runs = [PlannedRun(global_index=i, pod_index=0,
                           inputs={"n": i % 3, "mode": 1})
                for i in range(12)]
        shard.run_shard(runs)
        shard.run_shard(runs)
        assert shard._runs is memo and len(memo) == 3


class TestLazyRandomDrawn:
    def test_drawn_after_first_public_lookup_only(self):
        lazy = LazyRandom(3)
        assert not lazy.drawn
        with pytest.raises(AttributeError):
            lazy._missing
        assert not lazy.drawn
        lazy.random()
        assert lazy.drawn
