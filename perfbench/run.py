"""The repository benchmark: three closed-loop workloads, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload crash-fleet --seed 1 \\
        --seconds 30 --trace 0

A run takes workload seeds derived from ``--seed`` in turn until
``--seconds`` have passed. Every repetition builds the system afresh at
one seed (timed as set-up) and runs it to the end (timed as the run).
Every repetition of a seed must produce the same report digest. With
``--trace 0`` the run prints the end-to-end metrics, every time in them
scaled to a reference host by a calibration kernel run between steps
(speed.py). With ``--trace 1`` it alternates plain and traced
repetitions. It prints the per-layer metrics of the traced ones and the
traced/plain throughput ratio. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.
NOTES.md lists every metric, workload and check.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from layers import (
    LAYER_TARGETS, LayerCounters, LayerTracer, Patches, install_layers,
    resolve,
)
from speed import HostSpeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_clock = time.perf_counter

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "executions_per_s": "1/s",
    "round_p50_ms": "ms",
    "round_tail_ms": "ms",
    "time_to_first_fix_s": "s",
    "peak_rss_mb": "MB",
}

_TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, _ in LAYER_TARGETS))

#: Per-layer metrics (``--trace 1``): name -> unit. Calls and times
#: are per traced repetition.
PER_LAYER = {f"{layer}.{kind}": unit for layer in _TIMED_LAYERS
             for kind, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({
    "progmodel.replay.distinct_ratio": "ratio",
    "tracing.wire_bytes_per_exec": "B/exec",
    "exec.worker_busy_s": "s",
    "exec.wait_s": "s",
    "symbolic.cache_hit_rate": "ratio",
    "serve.pump_peak_depth": "entries",
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
})

#: Self times plus unattributed time must match the traced wall time
#: within this share of it.
SUM_TOLERANCE = 0.001

#: Seeds whose digest is checked twice (and, for serve-stream, against
#: the serial backend) in every run.
VERIFIED_SEEDS = 2

_FIRST_FIX_PROBE = "repro.hive.hive:Hive.maybe_fix"


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # Worker processes import the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"benchmark: imported repro from {repro.__file__},"
                         f" not from {SRC}")


class Rep:
    """What one repetition measured and produced."""

    def __init__(self, seed: int, traced: bool):
        self.seed = seed
        self.traced = traced
        self.setup_s = 0.0
        self.run_s = 0.0
        self.rounds_s: List[float] = []
        self.first_fix_s: Optional[float] = None
        self.executions = 0
        self.attempted = 0
        self.failed = 0
        self.digest = ""
        self.checks = []
        self.cache = (0, 0)
        self.pump_peak_depth = 0
        self.error: Optional[str] = None


def run_rep(workload, seed: int, tiny: bool, tracer=None,
            counters=None, speed: Optional[HostSpeed] = None) -> Rep:
    from repro.obs import Registry, set_registry
    from workloads import failed_ops

    rep = Rep(seed, traced=tracer is not None)
    set_registry(Registry())
    # Start every repetition from the same collector state.
    gc.collect()
    patches = Patches()
    system = None
    run_started = 0.0
    # Kernel time spent by the host-speed calibration before the run
    # started; it is taken out of the run's time.
    kernel_before = 0.0

    def kernel_since_start() -> float:
        return 0.0 if speed is None else speed.spent_s - kernel_before

    def probe(target: str, on_return, calibrate=False):
        owner, attr = resolve(target)
        inner = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            if calibrate and speed is not None:
                speed.tick()
            start = _clock()
            result = inner(*args, **kwargs)
            on_return(start, result)
            return result
        patches.replace(owner, attr, wrapper)

    def on_step(start: float, _result) -> None:
        rep.rounds_s.append(_clock() - start)

    def on_fix(_start: float, program) -> None:
        if program is not None and rep.first_fix_s is None:
            rep.first_fix_s = _clock() - run_started - kernel_since_start()

    try:
        if tracer is not None:
            install_layers(tracer, patches, counters)
        probe(workload.step_target, on_step, calibrate=True)
        probe(_FIRST_FIX_PROBE, on_fix)
        if speed is not None:
            speed.tick()
        if tracer is not None:
            tracer.start()
        started = _clock()
        system = workload.build(seed, tiny)
        run_started = _clock()
        if speed is not None:
            kernel_before = speed.spent_s
        system.run()
        ended = _clock()
        if tracer is not None:
            tracer.stop()
        rep.setup_s = run_started - started
        rep.run_s = ended - run_started - kernel_since_start()
    except Exception:
        rep.error = traceback.format_exc()
    finally:
        patches.restore()
        if counters is not None:
            counters.end_rep()
    if system is None:
        return rep
    rep.attempted = workload.attempted(system)
    if rep.error is not None:
        rep.failed = rep.attempted
        return rep
    rep.executions = system.report.total_executions
    rep.failed = failed_ops(system, rep.attempted)
    rep.digest = workload.digest(system)
    rep.checks = workload.checks(system)
    rep.cache = workload.cache_counts(system)
    rep.pump_peak_depth = workload.pump_peak_depth(system)
    return rep


def tail(samples: List[float]):
    """(value, rank, n): the sample at the highest percentile with at
    least ten samples beyond it; ``rank`` counts from 1. Below 21
    samples that percentile would sit under the median, so the maximum
    stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n > 20 else n
    return ordered[rank - 1], rank, n


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def throughput(reps: List[Rep]) -> float:
    return sum(rep.executions for rep in reps) / max(
        sum(rep.run_s for rep in reps), 1e-9)


def end_to_end(reps: List[Rep], rss_mb: float,
               speed: HostSpeed) -> Dict[str, float]:
    """The end-to-end metrics, every time scaled to the reference
    host by the run's host-speed factor (speed.py)."""
    scale = speed.factor()
    rounds = [value for rep in reps for value in rep.rounds_s]
    # The tail is taken within each repetition, where a fix round, the
    # burst ticks or a cold start show every time, and reported as the
    # mean over repetitions. Pooled over a whole run it would sit at
    # p99.9 of serve-stream's ticks and read a shared host's rarest
    # stalls instead of the program's. A median over repetitions would
    # jump between corpus-hunt's two kinds of fix round.
    tails = [tail(rep.rounds_s) for rep in reps]
    _value, rank, n = tails[0]
    # A repetition without a fix is censored at its end: users suffered
    # the bug for the whole run.
    first_fix: Dict[int, List[float]] = {}
    for rep in reps:
        first_fix.setdefault(rep.seed, []).append(
            rep.run_s if rep.first_fix_s is None else rep.first_fix_s)
    censored = sum(1 for rep in reps if rep.first_fix_s is None)
    print(f"rounds: {len(rounds)} in {len(reps)} repetitions; round_tail_ms"
          f" is the mean over repetitions of each one's"
          f" p{100.0 * rank / n:.1f} ({n - rank} of {n} beyond it)")
    print(f"time to first fix: {len(reps) - censored} of {len(reps)}"
          f" repetitions fixed; the rest are censored at run end")
    print(f"host speed: {len(speed.samples)} kernel passes,"
          f" {speed.spent_s:.3f} s; times are scaled by {scale:.4f};"
          f" unscaled executions_per_s {throughput(reps):.6g}")
    return {
        "setup_s": statistics.median(rep.setup_s for rep in reps) * scale,
        "executions_per_s": throughput(reps) / scale,
        "round_p50_ms": statistics.median(rounds) * 1000.0 * scale,
        "round_tail_ms": statistics.fmean(
            value for value, _rank, _n in tails) * 1000.0 * scale,
        # The median over a seed's repetitions drops a stray slow one.
        # A median over seeds holds still where most seeds fix at the
        # same tick (serve-stream) and, over corpus-hunt's spread of fix
        # rounds, moves no more than a mean.
        "time_to_first_fix_s": statistics.median(
            statistics.median(times) for times in first_fix.values())
        * scale,
        "peak_rss_mb": rss_mb,
    }


def per_layer(traced: List[Rep], plain: List[Rep], tracer,
              counters) -> Dict[str, float]:
    count = len(traced)
    executions = sum(rep.executions for rep in traced)
    metrics: Dict[str, float] = {}
    for layer in _TIMED_LAYERS:
        stat = tracer.stats[layer]
        metrics[f"{layer}.calls"] = stat.calls / count
        metrics[f"{layer}.self_s"] = stat.self_s / count
    run_round = tracer.stats["exec.run_round"]
    hits = sum(rep.cache[0] for rep in traced)
    lookups = sum(rep.cache[1] for rep in traced)
    metrics.update({
        "progmodel.replay.distinct_ratio": (
            counters.distinct_replays / counters.replays
            if counters.replays else 0.0),
        "tracing.wire_bytes_per_exec": counters.wire_bytes / executions,
        "exec.worker_busy_s": counters.worker_busy_s / count,
        "exec.wait_s": (run_round.total_s - counters.worker_busy_s) / count,
        "symbolic.cache_hit_rate": hits / lookups if lookups else 0.0,
        "serve.pump_peak_depth": max(rep.pump_peak_depth for rep in traced),
        "unattributed_s": tracer.unattributed_s / count,
        "trace_overhead_ratio": throughput(traced) / throughput(plain),
    })
    return metrics


def print_table(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")


def measure(workload, seed: int, seconds: float, trace: bool,
            tiny: bool) -> dict:
    tracer = LayerTracer()
    counters = LayerCounters()
    # End-to-end runs calibrate; traced runs report raw layer times.
    speed = None if trace else HostSpeed()
    count = 3 if tiny else workload.seeds_per_run
    seeds = [seed * count + offset for offset in range(count)]
    reps: List[Rep] = []
    deadline = _clock() + seconds
    # Seeds in turn until the time is up. Every metric is a per-seed or
    # per-repetition statistic, so a faster program gets more samples of
    # the same quantities, not different ones.
    minimum = 2 if trace else 1          # one of each kind with tracing
    while True:
        index = len(reps)
        # With tracing, plain and traced repetitions alternate, and each
        # pass over the seeds swaps them, so a seed runs both ways.
        traced = trace and (index + index // len(seeds)) % 2 == 1
        reps.append(run_rep(workload, seeds[index % len(seeds)], tiny,
                            tracer if traced else None, counters, speed))
        if reps[-1].error is not None or (
                len(reps) >= minimum and _clock() >= deadline):
            break
    measured = list(reps)
    # Every checked seed must have run twice, to compare digests; these
    # extra repetitions are not measured.
    checked = seeds[:VERIFIED_SEEDS]
    for check_seed in checked:
        if reps[-1].error is None and sum(
                1 for rep in reps if rep.seed == check_seed) < 2:
            reps.append(run_rep(workload, check_seed, tiny))
    rss_mb = peak_rss_mb()

    checks = []
    errors = [rep.error for rep in reps if rep.error is not None]
    checks.append(("no exception escaped", not errors,
                   errors[0].strip().splitlines()[-1] if errors else ""))
    names = [name for name, _ok, _detail in reps[0].checks]
    for index, name in enumerate(names):
        results = [rep.checks[index] for rep in reps if rep.checks]
        bad = [detail for _n, ok, detail in results if not ok]
        checks.append((name, not bad, bad[0] if bad else results[-1][2]))
    by_seed: Dict[int, set] = {}
    for rep in reps:
        if rep.error is None:
            by_seed.setdefault(rep.seed, set()).add(rep.digest)
    split = {key: sorted(found) for key, found in by_seed.items()
             if len(found) > 1}
    repeated = sum(1 for key in by_seed
                   if sum(1 for rep in reps if rep.seed == key) > 1)
    checks.append(("digest identical across repetitions of a seed",
                   not split and repeated > 0, str(split) if split else
                   f"{repeated} seeds repeated, {len(reps)} repetitions"))
    references = {} if errors else {
        key: workload.reference_digest(key, tiny) for key in checked}
    if any(reference is not None for reference in references.values()):
        mismatched = [key for key, reference in references.items()
                      if {reference} != by_seed[key]]
        checks.append(("digest equals serial backend", not mismatched,
                       f"seeds {mismatched}" if mismatched
                       else f"{len(references)} seeds"))

    plain = [rep for rep in measured if not rep.traced]
    traced = [rep for rep in measured if rep.traced]
    metrics: Dict[str, float] = {}
    if not errors:
        if trace:
            metrics = per_layer(traced, plain, tracer, counters)
            gap = abs(tracer.accounted_s() - tracer.wall_s)
            checks.append((
                "layer self times + unattributed == traced wall",
                gap <= SUM_TOLERANCE * tracer.wall_s,
                f"{tracer.accounted_s():.6f} vs {tracer.wall_s:.6f} s"
                f" (tolerance {SUM_TOLERANCE:.1%})"))
        else:
            metrics = end_to_end(plain, rss_mb, speed)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(f"workload {workload.name}, seed {seed}: {len(seeds)} seeds,"
          f" {len(plain)} plain and {len(traced)} traced repetitions"
          f" measured, {len(reps) - len(measured)} more to check digests")
    print(f"ops_failed_ratio: {failed / max(attempted, 1):.6g}"
          f" ({failed} of {attempted} executions)")
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    units = PER_LAYER if trace else END_TO_END
    if metrics:
        print_table(metrics, units)
    return {
        "correct": all(ok for _name, ok, _detail in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _stop_children() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("crash-fleet", "corpus-hunt",
                                 "serve-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes, not for measurement")
    args = parser.parse_args(argv)
    _load_program()
    from workloads import WORKLOADS
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), args.tiny)
    finally:
        _stop_children()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
