"""Memoized replay and ingest decode change no value.

The shard collector and the hive replay each distinct recorded content
once per program version (``repro.exec.replay.ReplayMemo``), and the
hive decodes each distinct payload once. The property below runs the
memoized shard and hive against an unmemoized reference that calls
``Interpreter.replay`` for every trace and ``decode_trace`` for every
payload; the unit tests pin the memo's invalidation, its bound, its
failure marker and how often a fleet-shaped run really replays.
"""

import dataclasses
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlatformConfig, SoftBorgPlatform
from repro.errors import TraceError
from repro.exec import replay as replay_module
from repro.exec.backends import _BackendBase
from repro.exec.batch import BatchEntry, ReplayProduct, TraceBatch
from repro.exec.plan import PlannedRun, partition_runs
from repro.exec.replay import ReplayMemo
from repro.exec.session import SyncDelta
from repro.exec.shard import Shard
from repro.fixes.patches import SiteRecoveryFix
from repro.hive import hive as hive_module
from repro.hive.hive import Hive
from repro.pod.pod import Pod
from repro.progmodel.bugs import BugKind
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo, make_shortread_demo,
)
from repro.progmodel.interpreter import (
    ExecutionLimits, Interpreter, ReplaySource,
)
from repro.rng import make_rng
from repro.tracing.encode import decode_trace, encode_trace
from repro.tracing.trace import trace_from_result
from repro.workloads.scenarios import crash_scenario, race_scenario

LIMITS = ExecutionLimits(max_steps=3000)

program_configs = st.builds(
    CorpusConfig,
    seed=st.integers(0, 50),
    n_inputs=st.integers(2, 4),
    input_domain=st.integers(3, 8),
    n_segments=st.integers(2, 6),
)

bug_sets = st.sampled_from([
    (BugKind.CRASH,),
    (BugKind.ASSERT,),
    (BugKind.CRASH, BugKind.HANG),
    (BugKind.SHORT_READ,),
    (BugKind.DEADLOCK,),
    (BugKind.RACE,),
    (),
])


class UnmemoizedReplays:
    """The reference: replays every trace, remembers nothing."""

    def __init__(self, program, limits=None):
        self.program = program
        self.limits = limits or ExecutionLimits()

    def __len__(self):
        return 0

    def reset(self, program):
        self.program = program

    def replay(self, trace):
        try:
            result = Interpreter(self.program, limits=self.limits).replay(
                ReplaySource(branch_bits=list(trace.branch_bits),
                             syscall_returns=list(trace.syscall_returns),
                             schedule_picks=list(trace.schedule_picks())))
        except TraceError:
            return None
        return ReplayProduct(
            program_version=self.program.version,
            outcome=result.outcome,
            path_decisions=tuple(result.path_decisions),
            lock_events=tuple(result.lock_events),
            global_events=tuple(result.global_events),
            final_globals=dict(result.final_globals),
            return_values=dict(result.return_values),
        )


@contextmanager
def unmemoized():
    """Swap every memo for the reference while building and running."""
    with mock.patch.object(hive_module, "ReplayMemo", UnmemoizedReplays), \
            mock.patch("repro.exec.shard.ReplayMemo", UnmemoizedReplays), \
            mock.patch.object(Hive, "_decode",
                              lambda self, payload: decode_trace(payload)):
        yield


def hive_state(hive):
    """Everything the hive's analyses and reports read."""
    return (
        hive.stats.as_dict(),
        hive.tree.canonical_paths(),
        [(b.key, b.count, b.first_seen_index, sorted(b.pods),
          sorted(b._paths)) for b in hive.bucketer.buckets()],
        hive.deadlocks.diagnoses(),
        hive.races.reports(),
        [str(invariant) for invariant in hive.invariants.invariants()],
        dict(hive._digest_paths),
        [encode_trace(trace) for trace in hive._failure_traces],
        list(hive._dangerous_schedules),
    )


def _stripped(result):
    """The same entries without shard products: the hive replays them
    itself, as it does for every trace in serve."""
    return dataclasses.replace(result, entries=[
        BatchEntry(global_index=entry.global_index, payload=entry.payload,
                   heartbeat=entry.heartbeat)
        for entry in result.entries])


def _plan(program, seed, runs=60, pods=3):
    rng = make_rng(seed, "memo-plan")
    # A small pool of input vectors, so content repeats across runs.
    pool = [{name: rng.randint(lo, hi)
             for name, (lo, hi) in program.inputs.items()}
            for _ in range(4)]
    return [PlannedRun(global_index=index, pod_index=index % pods,
                       inputs=dict(rng.choice(pool)),
                       ship=index % 7 != 6)
            for index in range(runs)]


def _run_loop(program, plan, fault_rate, seed, pods=3):
    shard = Shard(0, {index: Pod(f"pod-{index}", program,
                                 limits=LIMITS, fault_rate=fault_rate,
                                 seed=seed + index)
                      for index in range(pods)},
                  hive_program=program, limits=LIMITS)
    result = shard.run_shard(plan)
    hive = Hive(program, limits=LIMITS, enable_proofs=False)
    hive.ingest_batch([result],
                      tree_deltas=[(result.tree_version,
                                    result.tree_delta)])
    hive.ingest_batch([_stripped(result)])
    products = [entry.product for entry in result.entries]
    payloads = [entry.payload for entry in result.entries]
    return (result.records, result.tree_delta, products, payloads,
            hive_state(hive))


class TestMemoEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(config=program_configs, kinds=bug_sets,
           seed=st.integers(0, 1000),
           fault_rate=st.sampled_from([0.0, 0.2]))
    def test_memoized_shard_and_hive_equal_reference(self, config, kinds,
                                                     seed, fault_rate):
        if kinds and len(kinds) > config.n_segments:
            return
        program = generate_program("memo", config, kinds).program
        plan = _plan(program, seed)
        memoized = _run_loop(program, plan, fault_rate, seed)
        with unmemoized():
            reference = _run_loop(program, plan, fault_rate, seed)
        records, tree_delta, products, payloads, state = memoized
        assert records == reference[0]
        assert tree_delta == reference[1]
        assert products == reference[2]
        assert payloads == reference[3]
        assert state == reference[4]


def _trace(program, inputs):
    return trace_from_result(Interpreter(program).run(inputs))


class TestMemoInvalidation:
    def test_shard_memo_cleared_on_publish(self):
        demo = make_crash_demo()
        program = demo.program
        shard = Shard(0, {0: Pod("pod-0", program)}, hive_program=program)
        shard.run_shard(_plan(program, seed=1, runs=20, pods=1))
        assert len(shard._replays) > 0
        fixed = SiteRecoveryFix(fix_id="f", function="main",
                                block="boom").apply(program)
        shard.apply_sync(SyncDelta(hive_program=fixed))
        assert len(shard._replays) == 0
        assert shard._replays.program is fixed

    def test_hive_memo_cleared_on_deploy(self):
        demo = make_crash_demo()
        hive = Hive(demo.program, validate_fixes=False, enable_proofs=False)
        for n in range(10):
            hive.ingest_trace(_trace(demo.program, {"n": n, "mode": 2}))
        assert len(hive._replays) > 0
        fixed = hive.maybe_fix()
        assert fixed is not None
        assert len(hive._replays) == 0
        assert hive._replays.program is hive.program is fixed


class TestMemoBounds:
    def test_replay_memo_never_exceeds_capacity(self, monkeypatch):
        monkeypatch.setattr(replay_module, "REPLAY_MEMO_CAPACITY", 3)
        program = make_shortread_demo().program
        memo = ReplayMemo(program)
        reference = UnmemoizedReplays(program)
        traces = [_trace(program, {"sz": size}) for size in range(1, 11)]
        keys = {(t.branch_bits, t.syscall_returns, t.schedule_rle)
                for t in traces}
        assert len(keys) > 3
        for trace in traces + traces[::-1]:
            assert memo.replay(trace) == reference.replay(trace)
            assert len(memo) <= 3

    def test_decode_memo_never_exceeds_capacity(self, monkeypatch):
        monkeypatch.setattr(hive_module, "DECODE_MEMO_CAPACITY", 3)
        program = make_shortread_demo().program
        hive = Hive(program, enable_proofs=False)
        entries = [BatchEntry(global_index=index, payload=encode_trace(
            _trace(program, {"sz": 1 + index % 8})))
            for index in range(24)]
        hive.ingest_batch([TraceBatch(0, program.name, program.version,
                                      entries=entries)])
        assert len(hive._decoded) <= 3
        assert hive.stats.traces_ingested == 24


class TestMemoizedFailure:
    def test_failure_counted_on_every_entry(self, monkeypatch):
        demo = make_crash_demo()
        trace = _trace(demo.program, {"n": 7, "mode": 2})
        assert trace.branch_bits
        # Replayable, but one bit short: the replay runs out of bits.
        broken = dataclasses.replace(trace,
                                     branch_bits=trace.branch_bits[:-1])
        calls = []
        original = Interpreter.replay

        def counting(self, source):
            calls.append(1)
            return original(self, source)

        monkeypatch.setattr(Interpreter, "replay", counting)
        hive = Hive(demo.program, enable_proofs=False)
        for _ in range(4):
            hive.ingest_trace(broken)
        assert hive.stats.replay_failures == 4
        assert hive.bucketer.total_reports == 4
        assert len(calls) == 1
        shard = Shard(0, {}, hive_program=demo.program)
        assert shard._replay(broken, {}) is None
        assert shard._replay(broken, {}) is None


class _TwoShards(_BackendBase):
    """Two in-process shards over pods ``index % 2``: a multi-shard
    round whose replays this process can count."""

    name = "two-shards"

    def __init__(self, pods, hive_program, limits=None, **_options):
        super().__init__(workers=2)
        self._shards = [
            Shard(shard_id, {index: pod for index, pod in enumerate(pods)
                             if index % 2 == shard_id},
                  hive_program, limits=limits)
            for shard_id in range(2)]

    def _run_round(self, plan, ctx=None):
        return [shard.run_shard(runs, ctx) for shard, runs
                in zip(self._shards, partition_runs(plan.runs, 2))]

    def _publish(self, delta):
        for shard in self._shards:
            shard.apply_sync(delta)


class TestFleetReplaysEachKeyOnce:
    @pytest.mark.parametrize("backend, workers", [("serial", 0),
                                                  ("two-shards", 2)])
    def test_one_replay_per_distinct_key_per_shard(self, monkeypatch,
                                                   backend, workers):
        built = []
        init = ReplaySource.__init__

        def recording(source, branch_bits, syscall_returns,
                      schedule_picks):
            built.append((tuple(branch_bits), tuple(syscall_returns),
                          tuple(schedule_picks)))
            init(source, branch_bits, syscall_returns, schedule_picks)

        calls = []
        replay = Interpreter.replay

        def counting(self, source):
            calls.append(1)
            return replay(self, source)

        monkeypatch.setattr(ReplaySource, "__init__", recording)
        monkeypatch.setattr(Interpreter, "replay", counting)
        if backend == "two-shards":
            monkeypatch.setattr(
                "repro.loop.make_backend",
                lambda _name, pods, program, limits=None, **_options:
                _TwoShards(pods, program, limits=limits))
        platform = SoftBorgPlatform(
            crash_scenario(n_users=60, volatility=0.5, seed=4),
            PlatformConfig(n_pods=8, rounds=3, executions_per_round=200,
                           fixing=False, enable_proofs=False, seed=4,
                           backend="serial", workers=workers))
        assert platform.backend.name == backend
        platform.run()
        shards = 1 if backend == "serial" else workers
        assert platform.report.total_executions == 600
        assert len(calls) == len(built)
        assert max(Counter(built).values()) <= shards
        assert len(calls) < 40


class TestProductsCrossThePipeIntact:
    def test_process_hive_analyses_equal_serial(self):
        # Two interleavings can share a decision path and still differ
        # in their lock and global events; the worker pipe must ship
        # each entry's own product, not the first one seen on its path.
        states = {}
        for backend in ("serial", "process"):
            config = PlatformConfig(
                rounds=4, executions_per_round=60, fixing=False,
                enable_proofs=False, seed=3, backend=backend, workers=2)
            platform = SoftBorgPlatform(race_scenario(seed=3), config)
            platform.run()
            states[backend] = hive_state(platform.hive)
        assert states["serial"] == states["process"]
