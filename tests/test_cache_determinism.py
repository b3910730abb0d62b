"""Cache determinism grid: with the collective constraint cache on, the
serial and process backends must converge to bit-identical
reports, hive state, cache contents, and solver accounting — including
under chaos fault profiles. Sharing is only legal because the merge
order is canonical; this grid is the proof."""

import pytest

from repro import obs
from repro.obs import Registry
from repro.platform import PlatformConfig, SoftBorgPlatform
from repro.workloads.scenarios import crash_scenario

pytestmark = pytest.mark.slow

#: (backend, workers) legs; the first is the baseline.
LEGS = (("serial", 1), ("process", 2))

ROUNDS = 4
EXECUTIONS = 20


def _run(backend, seed=3, mode="collective", profile="none", workers=2):
    previous = obs.set_registry(Registry())
    try:
        platform = SoftBorgPlatform(
            crash_scenario(seed=seed),
            PlatformConfig(
                rounds=ROUNDS, executions_per_round=EXECUTIONS,
                seed=seed, enable_proofs=False, backend=backend,
                workers=workers, chaos_profile=profile, solver_cache=mode))
        report = platform.run()
        cache = platform.solver_cache
        fingerprint = {
            "report": report.as_dict(),
            "hive": platform.hive.stats.as_dict(),
            "paths": platform.hive.tree.canonical_paths(),
            "solver": platform.hive.solver_stats().as_dict(),
            "cache": cache.stats.as_dict() if cache else None,
            "entries": sorted((repr(key), repr(entry))
                              for key, entry in cache.entries())
            if cache else None,
            "chaos": platform.chaos.summary()
            if platform.chaos is not None else None,
        }
        return fingerprint
    finally:
        obs.set_registry(previous)


class TestCollectiveCacheBitIdentity:
    @pytest.mark.parametrize("mode", ("local", "collective"))
    def test_backends_agree_with_cache_enabled(self, mode):
        baseline = _run("serial", mode=mode)
        for backend, workers in LEGS[1:]:
            assert _run(backend, mode=mode, workers=workers) == baseline, \
                f"{backend}-{workers} diverged from serial with {mode} cache"

    @pytest.mark.parametrize("profile", ("lossy-workers", "flaky-hive"))
    def test_backends_agree_under_chaos(self, profile):
        baseline = _run("serial", profile=profile)
        for backend, workers in LEGS[1:]:
            assert _run(backend, profile=profile, workers=workers) \
                == baseline, \
                f"{backend}-{workers} diverged from serial under" \
                f" {profile} with collective cache"

    def test_repeat_run_is_identical(self):
        assert _run("serial") == _run("serial")

    @pytest.mark.xfail(strict=True, reason=(
        "a shard recycles the witness of its own first run of each"
        " decision path, so from three shards on the banked SAT"
        " witnesses (not the verdicts or counts) differ from serial's"))
    def test_three_workers_bank_the_serial_witnesses(self):
        assert _run("process", workers=3) == _run("serial")


class TestCacheNeverChangesVerdicts:
    """Recycling is an accelerator, not an oracle: everything the
    platform concludes (paths, bugs, fixes, report) must match the
    cache-off run — only the solver effort may differ."""

    @pytest.mark.parametrize("mode", ("local", "collective"))
    def test_conclusions_match_cache_off(self, mode):
        baseline = _run("serial", mode="none")
        cached = _run("serial", mode=mode)
        assert cached["report"] == baseline["report"]
        assert cached["hive"] == baseline["hive"]
        assert cached["paths"] == baseline["paths"]

    def test_collective_cache_actually_recycles(self):
        # Hits must happen even on this tiny scenario; the *savings*
        # claim (>= 30% fewer evaluations) lives in bench_e20, where
        # the corpus workload is large enough for probes to pay off.
        fingerprint = _run("serial", mode="collective")
        assert fingerprint["cache"]["hits"] > 0
        assert len(fingerprint["entries"]) > 0
