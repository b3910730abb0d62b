"""The benchmark's three closed-loop workloads, built on the public API.

Each repetition builds a fresh system at the run's seed (timed as
set-up), runs its fixed number of rounds or ticks to the end (timed as
the run), and is then checked. The seed reaches only the user
population and the platform or service RNG; the ``corpus-hunt``
program is pinned by its ``CorpusConfig`` and name, because the
program alone decides how much symbolic work set-up does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro import (
    PlatformConfig, Service, ServiceConfig, SoftBorgPlatform, crash_scenario,
)
from repro.obs import get_registry
from repro.progmodel import CorpusConfig, generate_program
from repro.progmodel.bugs import BugKind
from repro.workloads import Scenario, UserPopulation

__all__ = ["WORKLOADS", "Workload", "failed_ops"]

Check = Tuple[str, bool, str]


def _digest(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def failed_ops(system, attempted: int) -> int:
    """Executions that raised in the pod, failed hive replay, or were
    admitted but never ingested. A pod that raised ships nothing, so it
    is counted once, not again as never ingested."""
    crashes = get_registry().counter("exec.run_crashes").value
    stats = system.hive.stats
    ingested = stats.traces_ingested + stats.heartbeats_ingested
    return (crashes + stats.replay_failures
            + max(0, attempted - crashes - ingested))


class Workload:
    """One closed loop: build it, run it to the end, check it."""

    name = ""
    #: ``module:Class.method`` whose calls are the loop's rounds/ticks.
    step_target = ""
    #: Workload seeds a run takes in turn, derived from ``--seed``.
    #: Round cost and the round a fix lands in depend on which users a
    #: seed draws, so a run reports over many draws, and two runs at
    #: different seeds measure the same workload.
    seeds_per_run = 5

    def build(self, seed: int, tiny: bool):
        raise NotImplementedError

    def attempted(self, system) -> int:
        """Executions the loop planned or admitted."""
        raise NotImplementedError

    def digest(self, system) -> str:
        raise NotImplementedError

    def checks(self, system) -> List[Check]:
        raise NotImplementedError

    def reference_digest(self, seed: int, tiny: bool) -> Optional[str]:
        """Digest the run must equal on another backend, if any."""
        return None

    def cache_counts(self, system) -> Tuple[int, int]:
        """(hits, lookups) of the hive's constraint cache."""
        cache = getattr(system, "solver_cache", None)
        if cache is None:
            return 0, 0
        return cache.stats.hits, cache.stats.hits + cache.stats.misses

    def pump_peak_depth(self, system) -> int:
        return 0


class _PlatformWorkload(Workload):
    step_target = "repro.platform:SoftBorgPlatform._run_round"

    def attempted(self, system) -> int:
        return system.config.rounds * system.config.executions_per_round

    def digest(self, system) -> str:
        doc = system.snapshot()
        # Wall-clock timers live only in the obs blocks.
        doc.pop("obs", None)
        doc.pop("observability", None)
        return _digest(doc)

    def _execution_check(self, system) -> Check:
        done = system.report.total_executions
        planned = self.attempted(system)
        return ("executions == planned", done == planned,
                f"{done} of {planned}")


class CrashFleet(_PlatformWorkload):
    """ROADMAP's E18 shape: a large, highly repetitive ingest pipeline."""

    name = "crash-fleet"

    def build(self, seed: int, tiny: bool):
        return SoftBorgPlatform(
            crash_scenario(n_users=60, volatility=0.5, seed=seed),
            PlatformConfig(n_pods=40, rounds=2 if tiny else 3,
                           executions_per_round=100 if tiny else 2000,
                           fixing=False, enable_proofs=False, seed=seed,
                           backend="serial"))

    def checks(self, system) -> List[Check]:
        failures = system.report.total_failures
        return [self._execution_check(system),
                ("failures seen", failures > 0, f"{failures} failures")]


#: The pinned corpus program: about half a second of prover exploration
#: at set-up. ``input_domain=64`` is out of reach (see NOTES.md).
CORPUS_PROGRAM = "corpus-hunt-3"
CORPUS_CONFIG = dict(seed=2, n_inputs=4, input_domain=16, n_segments=10,
                     nested_probability=0.5, bug_rarity=2)


class CorpusHunt(_PlatformWorkload):
    """Analysis-heavy: solving, proofs, fix validation, steering."""

    name = "corpus-hunt"
    # The first fix lands in round 0 to 4 depending on the seed (240
    # seeds sampled), so its time needs many draws to settle.
    seeds_per_run = 20

    def build(self, seed: int, tiny: bool):
        seeded = generate_program(CORPUS_PROGRAM,
                                  CorpusConfig(**CORPUS_CONFIG),
                                  (BugKind.CRASH,))
        population = UserPopulation(seeded.program, 200, volatility=0.3,
                                    seed=seed)
        return SoftBorgPlatform(
            Scenario(seeded=seeded, population=population),
            PlatformConfig(n_pods=20, rounds=4 if tiny else 8,
                           executions_per_round=200, fixing=True,
                           enable_proofs=True, guidance=True,
                           solver_cache="collective", seed=seed,
                           backend="serial"))

    def checks(self, system) -> List[Check]:
        fixes = len(system.report.fixes)
        return [self._execution_check(system),
                ("fix deployed", fixes >= 1, f"{fixes} fixes")]


class ServeStream(Workload):
    """The service loop with one worker process: a pipe round trip per
    tick, and the hive replaying every trace itself."""

    name = "serve-stream"
    step_target = "repro.serve.service:Service._tick"
    # The first fix lands at tick 10, 20 or 30 (84, 12 and 4 of 100
    # seeds sampled). A late seed doubles or triples its time, so the
    # mean needs many seeds; repetitions are short, so they fit.
    seeds_per_run = 100

    def build(self, seed: int, tiny: bool, backend: str = "process"):
        return Service(
            crash_scenario(seed=seed),
            ServiceConfig(users=2_000 if tiny else 50_000, seed=seed,
                          backend=backend, workers=1))

    def attempted(self, system) -> int:
        return system.report.total_admitted

    def digest(self, system) -> str:
        doc = system.snapshot()
        # The one field that names the backend, which must not matter.
        doc["config"].pop("backend")
        return _digest(doc)

    def reference_digest(self, seed: int, tiny: bool) -> str:
        service = self.build(seed, tiny, backend="serial")
        service.run()
        return self.digest(service)

    def checks(self, system) -> List[Check]:
        report = system.report
        bound = system.config.max_ingest_lag_ticks
        return [
            ("executions == admitted",
             report.total_executions == report.total_admitted,
             f"{report.total_executions} of {report.total_admitted}"),
            ("ingest lag within SLO", report.max_ingest_lag_ticks <= bound,
             f"{report.max_ingest_lag_ticks:g} <= {bound:g} ticks"),
        ]

    def pump_peak_depth(self, system) -> int:
        return system.pump.peak_depth_entries


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (CrashFleet(), CorpusHunt(), ServeStream())
}
