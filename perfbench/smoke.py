"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json and both ``--trace`` modes it runs
``run.py --tiny`` and checks that the run exits 0, that its last line
holds exactly the metrics BENCHMARK.json names, each with its unit, and
that every correctness check listed below ran and passed. Last, it
checks that the benchmark refuses to run, exiting non-zero without a
result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_COMMON = ["no exception escaped",
           "digest identical across repetitions of a seed"]
CHECKS = {
    "crash-fleet": _COMMON + ["executions == planned", "failures seen"],
    "corpus-hunt": _COMMON + ["executions == planned", "fix deployed"],
    "serve-stream": _COMMON + ["executions == admitted",
                               "ingest lag within SLO",
                               "digest equals serial backend"],
}
TRACE_CHECKS = ["layer self times + unattributed == traced wall"]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = _run(ROOT, workload, trace)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    wanted = {metric["name"]: metric["unit"]
              for metric in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    if printed != wanted:
        problems.append(f"metrics differ from BENCHMARK.json:"
                        f" {sorted(set(printed.items()) ^ set(wanted.items()))}")
    passed = {line[len("check ok   "):].split(":")[0]
              for line in lines if line.startswith("check ok ")}
    expected = CHECKS[workload] + (TRACE_CHECKS if trace else [])
    missing = [name for name in expected if name not in passed]
    if missing:
        problems.append(f"checks not run or failed: {missing}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']}"
                        f" attempted={result['attempted']}")
    return problems


def check_refuses_without_sources(workload: str) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(Path(tmp), workload, 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without program sources (exit {proc.returncode})"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failures += bool(problems)
            print(f"{'ok  ' if not problems else 'FAIL'} {workload}"
                  f" --trace {trace}", *problems, sep="\n    ")
    problems = check_refuses_without_sources(spec["workloads"][0]["name"])
    failures += bool(problems)
    print(f"{'ok  ' if not problems else 'FAIL'} refuses without sources",
          *problems, sep="\n    ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
