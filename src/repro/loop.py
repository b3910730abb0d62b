"""The closed-loop kernel: one step of Figure 1, shared by every driver.

The paper's feedback loop is one cycle — pods run, the hive ingests
and analyzes, a fix deploys, pods roll it out. Two drivers run that
cycle on the execution substrate (``repro.exec``):
:class:`~repro.platform.SoftBorgPlatform` in planned rounds and
:class:`~repro.serve.service.Service` in virtual-clock ticks. What they
share lives here; each driver keeps only its policy (round planning
and staged rollout, or admission, pump and autoscaling):

* :class:`LoopConfig` — the knobs both configs declare, validated once;
* :data:`SNAPSHOT_SCHEMA_VERSION` — the ``schema_version`` both
  drivers stamp on their snapshots;
* :class:`ClosedLoop` — construction of pods, hive, constraint cache
  and backend; the execute step (cache redistribute, ``run_round``,
  cache-delta merge, records in global order); the fix window; and
  seeded-bug attribution feeding the ``family_detection_rate`` SLI;
* :func:`build_hive` / :func:`solver_cache_block` /
  :func:`check_loop_knobs` — the pieces the event-driven
  :class:`~repro.netplatform.NetworkedPlatform` reuses as well.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import BaseConfig, check_non_negative, check_positive
from repro.errors import ConfigError
from repro.exec.backends import SyncDelta, make_backend, resolve_backend_name
from repro.exec.batch import RunRecord, ShardResult
from repro.exec.plan import RoundPlan
from repro.hive.hive import Hive
from repro.obs import Instrumented
from repro.obs.trace import derive_trace_id, get_tracer
from repro.pod.pod import Pod
from repro.progmodel.interpreter import ExecutionLimits
from repro.tracing.capture import FullCapture
from repro.workloads.scenarios import Scenario

__all__ = ["LoopConfig", "ClosedLoop", "build_hive", "check_loop_knobs",
           "solver_cache_block", "SNAPSHOT_SCHEMA_VERSION"]

SOLVER_CACHE_MODES = ("none", "local", "collective")

#: Version of the snapshot payloads ``repro run --json`` and
#: ``repro serve --json`` emit, stamped as ``schema_version`` on both;
#: docs/API.md keeps the version history.
SNAPSHOT_SCHEMA_VERSION = 4


def check_loop_knobs(config) -> None:
    """The checks every closed-loop config shares (``max_steps``,
    ``solver_cache``, ``chaos_profile``); raises ConfigError."""
    check_positive(config.max_steps, "max_steps")
    if config.solver_cache not in SOLVER_CACHE_MODES:
        raise ConfigError(
            "solver_cache must be one of none, local, collective")
    from repro.chaos import resolve_profile
    resolve_profile(config.chaos_profile)   # raises on unknown/bad


def build_hive(program, limits: ExecutionLimits, solver_cache: str = "none",
               **options) -> Hive:
    """A hive equipped with the constraint cache ``solver_cache``
    selects (``hive.solver_cache``; None for ``"none"``)."""
    cache = None
    if solver_cache != "none":
        from repro.symbolic.cache import ConstraintCache
        cache = ConstraintCache()
    return Hive(program, limits=limits, solver_cache=cache, **options)


def solver_cache_block(mode: str, hive: Hive) -> Dict[str, object]:
    """Snapshot block for a hive-side cache: mode, entry count, tier
    hit accounting, and the hive engines' solver totals."""
    cache = hive.solver_cache
    return {
        "mode": mode,
        "entries": len(cache),
        "stats": cache.stats.as_dict(),
        "solver": hive.solver_stats().as_dict(),
    }


@dataclass
class LoopConfig(BaseConfig):
    """The knobs both closed-loop drivers declare (defaults are the
    round platform's; serve overrides ``enable_proofs`` and
    ``health``)."""

    max_steps: int = 4000
    fixing: bool = True
    validate_fixes: bool = True
    min_failure_reports: int = 1
    enable_proofs: bool = True
    dedup: bool = False              # pod-side heartbeats for repeats
    seed: int = 0
    backend: str = "auto"            # serial | process | auto
    workers: int = 0                 # 0 = auto (one worker per core)
    chaos_profile: object = "none"   # profile name or FaultProfile
    solver_cache: str = "none"       # none | local | collective
    #: The health plane (repro.obs.health); enabling adds an additive
    #: ``health`` snapshot block.
    health: bool = False
    #: ``{slo_name: objective}`` (``--slo NAME=TARGET``).
    slo_overrides: Dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        check_loop_knobs(self)
        resolve_backend_name(self.backend)   # raises on unknown names
        check_non_negative(self.workers, "workers must be >= 0 (0 = auto)")

    def resolved_chaos_profile(self):
        """The validated :class:`~repro.chaos.FaultProfile` in force."""
        from repro.chaos import resolve_profile
        return resolve_profile(self.chaos_profile)

    def resolved_backend(self) -> str:
        """The concrete backend this config selects (env-aware)."""
        return resolve_backend_name(self.backend)


class ClosedLoop(Instrumented):
    """Shared state and steps of a closed-loop driver.

    Subclasses call :meth:`_build_loop` from their constructor, then
    drive :meth:`_execute` and :meth:`_fix_window` from their own
    round or tick. ``self.report`` must expose a ``fixes`` list.
    """

    #: The round platform's :class:`~repro.chaos.ChaosCoordinator`
    #: when a fault profile is on; serve injects its faults elsewhere.
    chaos = None

    def _build_loop(self, scenario: Scenario, config: LoopConfig,
                    n_pods: int, *trace_parts: str, capture=None,
                    replay_products: bool = True) -> None:
        """Tracer, pods, hive (with its constraint cache) and backend.

        The trace id is a pure function of ``trace_parts`` and the
        seed, so exports reproduce."""
        self.config = config
        self.scenario = scenario
        self._tracer = get_tracer()
        if self._tracer.enabled:
            self._tracer.set_trace_id(derive_trace_id(
                *trace_parts, scenario.program.name, config.seed))
        limits = ExecutionLimits(max_steps=config.max_steps)
        capture = capture or FullCapture()
        self.pods = [
            Pod(pod_id=f"pod{i:04d}", program=scenario.program,
                capture=capture, limits=limits,
                fault_rate=scenario.fault_rate, seed=config.seed + i)
            for i in range(n_pods)
        ]
        # Collective constraint recycling: the hive-side cache serves
        # every hive solver ("local" mode stops there); "collective"
        # additionally equips shards with private caches whose deltas
        # merge back here and redistribute before each execute step.
        self.hive = build_hive(
            scenario.program, limits, config.solver_cache,
            validate_fixes=config.validate_fixes,
            min_failure_reports=config.min_failure_reports,
            enable_proofs=config.enable_proofs)
        self.solver_cache = self.hive.solver_cache
        self._collective = config.solver_cache == "collective"
        # Per-pod dedup state lives inside the backend's shards — each
        # pod's trace stream is observed by exactly one shard, in
        # order, so heartbeat semantics are backend-invariant.
        self.backend = make_backend(
            config.resolved_backend(), self.pods, scenario.program,
            capture=capture, limits=limits,
            fault_rate=scenario.fault_rate,
            dedup=config.dedup,
            workers=config.workers,
            solver_cache=config.solver_cache,
            replay_products=replay_products)
        self.health = None

    def _build_health(self, slos) -> None:
        """Turn the health plane on over ``slos``, with the seeded-bug
        family tables its detection SLIs need."""
        from repro.obs.health import HealthConfig, HealthPlane
        from repro.registry.model import family_of
        self._bug_family = {bug.message: family_of(bug.kind)
                            for bug in self.scenario.bugs}
        self._family_bugs: Dict[str, int] = {}
        for family in self._bug_family.values():
            self._family_bugs[family] = self._family_bugs.get(family, 0) + 1
        self.health = HealthPlane(
            slos, HealthConfig(slo_overrides=dict(self.config.slo_overrides)),
            flight=self._tracer.flight)

    # -- the loop's steps -----------------------------------------------------

    def _execute(self, plan: RoundPlan, span: str, key: int,
                 ) -> Tuple[List[RunRecord], List[ShardResult]]:
        """Run ``plan``: redistribute what the hive's cache learned
        since the last step to every shard (collective mode), execute
        (through the chaos coordinator when one is on), and merge the
        shards' cache deltas back. Returns the run records in global
        execution order and the shard results."""
        if self._collective:
            seed_delta = self.solver_cache.export_delta()
            if seed_delta:
                with self._tracer.span("cache.redistribute", key=key,
                                       entries=len(seed_delta)):
                    self.backend.publish(SyncDelta(cache_entries=seed_delta))
        with self._tracer.span(span, key=key, runs=len(plan.runs)):
            if self.chaos is not None:
                results = self.chaos.execute_round(self.backend, plan)
            else:
                results = self.backend.run_round(plan)
        if self._collective:
            deltas = [result.cache_delta for result in results
                      if result.cache_delta]
            if deltas:
                with self._tracer.span("cache.merge", key=key):
                    self.hive.adopt_cache_deltas(deltas)
        records = sorted(
            (record for result in results for record in result.records),
            key=lambda record: record.global_index)
        return records, results

    @contextmanager
    def _fix_window(self, span: str, key: int):
        """Give the hive a repair window inside ``span``; yields the
        fixed program (None when no fix deployed) with the fix already
        on the report. The caller rolls it out inside the span."""
        with self._tracer.span(span, key=key) as fix_span:
            updated = self.hive.maybe_fix()
            if updated is not None:
                fix = self.hive.deployed_fixes[-1]
                self.report.fixes.append(fix.description)
                fix_span.set(deployed=fix.description)
            yield updated

    def _attribute(self, record: RunRecord) -> Optional[str]:
        """Ground-truth attribution of a failing run (metrics only):
        the first seeded bug it matches, else its failure message."""
        if not record.has_failure:
            return None
        for bug in self.scenario.bugs:
            if bug.matches_result(record.outcome, record.failure_message,
                                  record.failure_block):
                return bug.message
        return record.failure_message

    def _detection_sample(self, seen) -> Dict[str, float]:
        """The ``family_detection_rate`` SLI (worst family's share of
        seeded bugs seen) plus one ``detect.<family>`` series each;
        ``seen`` holds attributed bug messages. Health on only."""
        if not self._family_bugs:
            return {"family_detection_rate": 1.0}
        counts: Dict[str, int] = {}
        for message in seen:
            family = self._bug_family.get(message)
            if family is not None:
                counts[family] = counts.get(family, 0) + 1
        rates = {family: counts.get(family, 0) / total
                 for family, total in self._family_bugs.items()}
        sample = {"family_detection_rate": min(rates.values())}
        for family in sorted(rates):
            sample[f"detect.{family}"] = rates[family]
        return sample
