"""Identity grid: one digest per closed-loop configuration.

Run from the repository root::

    PYTHONPATH=src python benchmarks/identity_grid.py [--out FILE]

Each row builds a platform or service at a fixed seed, runs it to the
end and prints ``sha256[:16]`` of its canonical JSON snapshot, without
the ``obs`` and ``observability`` blocks (they hold wall-clock timers).
Traced rows digest the canonical Chrome export of the run's spans
under a pinned clock instead. A change that claims to keep behaviour
identical must print the same lines before and after it: run the
script on both trees and ``diff`` the outputs.

``benchmarks/identity_grid.expected`` records the lines the current
tree prints, on every supported Python version; CI diffs a fresh grid
against it. A change that moves a row on purpose rewrites the file
(``--out benchmarks/identity_grid.expected``) and says which rows
moved and why.

Every row runs on the serial backend and on the process backend, with
two workers for platform rows and one for serve rows. The exit code is
non-zero when a serve row's snapshot digest, with ``config.backend``
removed, differs between the two backends: the backend name is the one
field of a serve snapshot that may differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro import PlatformConfig, Service, ServiceConfig, SoftBorgPlatform
from repro.obs import Tracer, reset, set_tracer
from repro.obs.export import chrome_trace
from repro.obs.trace import FixedClock, get_tracer
from repro.workloads.scenarios import (
    crash_scenario, deadlock_scenario, race_scenario, shortread_scenario,
)

BACKENDS = ("serial", "process")


def _digest(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _snapshot_digest(system, pop_backend: bool = False) -> str:
    doc = system.snapshot()
    doc.pop("obs", None)
    doc.pop("observability", None)
    if pop_backend:
        doc["config"].pop("backend")
    return _digest(doc)


def _platform(scenario, **knobs) -> Callable[[str], SoftBorgPlatform]:
    def build(backend: str) -> SoftBorgPlatform:
        config = dict(rounds=8, seed=3)
        config.update(knobs)
        return SoftBorgPlatform(scenario(), PlatformConfig(
            backend=backend, workers=2, **config))
    return build


def _service(**knobs) -> Callable[[str], Service]:
    def build(backend: str) -> Service:
        config = dict(ticks=40, users=600, seed=5)
        config.update(knobs)
        return Service(crash_scenario(seed=config["seed"]),
                       ServiceConfig(backend=backend, workers=1, **config))
    return build


#: (row name, builder, kind): kind is "platform", "serve" (cross-backend
#: checked) or "trace" (Chrome export digest).
ROWS: List[Tuple[str, Callable, str]] = [
    ("crash", _platform(lambda: crash_scenario(seed=3)), "platform"),
    ("crash+fix+guidance+collective",
     _platform(lambda: crash_scenario(seed=3), guidance=True,
               solver_cache="collective"), "platform"),
    ("crash+dedup+loss",
     _platform(lambda: crash_scenario(seed=3), dedup=True,
               trace_loss_rate=0.25), "platform"),
    ("crash+lossy-workers",
     _platform(lambda: crash_scenario(seed=3),
               chaos_profile="lossy-workers"), "platform"),
    ("deadlock", _platform(lambda: deadlock_scenario(seed=3),
                           enable_proofs=False), "platform"),
    ("race", _platform(lambda: race_scenario(seed=3),
                       enable_proofs=False), "platform"),
    ("shortread", _platform(lambda: shortread_scenario(seed=3)),
     "platform"),
    ("serve", _service(), "serve"),
    ("serve+lossy-workers", _service(chaos_profile="lossy-workers"),
     "serve"),
    ("serve+collective", _service(solver_cache="collective"), "serve"),
    ("trace:crash+fix+collective",
     _platform(lambda: crash_scenario(seed=3), rounds=5,
               solver_cache="collective"), "trace"),
    ("trace:serve", _service(ticks=30), "trace"),
]


def run_row(build: Callable, kind: str, backend: str) -> str:
    reset()
    tracing = kind == "trace"
    set_tracer(Tracer(enabled=tracing, clock=FixedClock() if tracing
                      else None, trace_id="grid"))
    system = build(backend)
    system.run()
    if tracing:
        return _digest(chrome_trace(get_tracer().log))
    return _snapshot_digest(system, pop_backend=kind == "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None,
                        help="also write the printed lines to this file")
    args = parser.parse_args(argv)
    lines: List[str] = []
    mismatches: List[str] = []
    for name, build, kind in ROWS:
        digests: Dict[str, str] = {}
        for backend in BACKENDS:
            digests[backend] = run_row(build, kind, backend)
            line = f"{name:34s} {backend:8s} {digests[backend]}"
            lines.append(line)
            print(line, flush=True)
        if kind == "serve" and len(set(digests.values())) > 1:
            mismatches.append(name)
    set_tracer(Tracer(enabled=False))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name in mismatches:
        print(f"MISMATCH {name}: serve snapshot differs between backends",
              file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
