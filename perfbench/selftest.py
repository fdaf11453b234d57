"""Self-test of the benchmark: every declared metric is printed with its unit.

    python3 perfbench/selftest.py

Runs each workload of ``BENCHMARK.json`` briefly, untraced and traced,
and checks the last output line: the result keys, a correct run with no
failed job, and exactly the declared metrics, each a finite number with
its declared unit.  Then checks that the benchmark refuses to run, without
printing a result, from a directory holding only ``BENCHMARK.json`` and
the benchmark's own files.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "2"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_output(stdout: str, declared: list) -> list:
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics {sorted(set(metrics) ^ set(names))} not as declared")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = run(ROOT, workload, trace)
            problems = ([f"exit code {out.returncode}: {out.stderr[-500:]}"]
                        if out.returncode else check_output(out.stdout, spec[kind]))
            status = "ok" if not problems else "FAILED"
            print(f"{workload} --trace {trace}: {status}")
            failures += [f"{workload} --trace {trace}: {p}" for p in problems]

    bare = ROOT / ".bench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, spec["workloads"][0]["name"], 0)
        if out.returncode == 0 or out.stdout.strip():
            failures.append("ran without the library instead of refusing")
        print(f"bare directory: {'ok' if out.returncode and not out.stdout.strip() else 'FAILED'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
