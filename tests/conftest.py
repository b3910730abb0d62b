"""Live wire inputs shared by the codec tests.

Each fixture builds its value through the production code paths — a
real interpreter run, a real platform run — so the codec tests see the
bytes the system actually ships, not hand-made approximations.
"""

import pytest

from repro import PlatformConfig, SoftBorgPlatform
from repro.obs.trace import FixedClock, Tracer, set_tracer
from repro.progmodel.bugs import BugKind
from repro.progmodel.corpus import (
    CorpusConfig, generate_program, make_crash_demo,
)
from repro.progmodel.interpreter import Interpreter
from repro.tracing.capture import FullCapture
from repro.workloads.scenarios import crash_scenario, deadlock_scenario


@pytest.fixture(scope="session")
def crash_demo_trace():
    """The crash demo's failing run, fully captured."""
    demo = make_crash_demo()
    result = Interpreter(demo.program).run({"n": 7, "mode": 2})
    return FullCapture().capture(result, pod_id="p")


@pytest.fixture(scope="session")
def corpus_program():
    return generate_program("totality", CorpusConfig(seed=4, n_segments=3),
                            (BugKind.CRASH,)).program


@pytest.fixture(scope="session")
def hive_tree():
    """The hive's execution tree after a short deadlock-platform run."""
    platform = SoftBorgPlatform(deadlock_scenario(seed=2), PlatformConfig(
        rounds=4, executions_per_round=40, fixing=False,
        enable_proofs=False, seed=2, backend="serial"))
    platform.run()
    return platform.hive.tree


@pytest.fixture(scope="session")
def live_frame():
    """The first frame a traced crash-platform run delivers over the
    chaos wire: dedup heartbeats, trace payloads and a trace context."""
    frames = []
    previous = set_tracer(Tracer(enabled=True, clock=FixedClock()))
    try:
        platform = SoftBorgPlatform(crash_scenario(seed=3), PlatformConfig(
            rounds=1, executions_per_round=40, dedup=True, fixing=False,
            enable_proofs=False, seed=3, backend="serial",
            chaos_profile="lossy-workers"))
        ingest = platform.hive.ingest_batch

        def record(batches, *args, **kwargs):
            frames.extend(batches)
            return ingest(batches, *args, **kwargs)

        platform.hive.ingest_batch = record
        platform.run()
    finally:
        set_tracer(previous)
    return frames[0]


@pytest.fixture(scope="session")
def live_round():
    """One crash-platform round as a process worker sees it: the plan's
    runs and the shard's result, with dedup heartbeats and replay
    products."""
    rounds = []
    platform = SoftBorgPlatform(crash_scenario(seed=3), PlatformConfig(
        rounds=1, executions_per_round=60, dedup=True, fixing=False,
        enable_proofs=False, seed=3, backend="serial"))
    run_round = platform.backend.run_round

    def record(plan):
        results = run_round(plan)
        rounds.append((plan.runs, results[0]))
        return results

    platform.backend.run_round = record
    platform.run()
    return rounds[0]
