"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload median_serial --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One run:

1. Set-up, ``N_SETUPS + 1`` times: generate the inputs, open the pool the
   workload runs on (if any) and run one warm-up job.  The first set-up
   pays the process's one-time costs and is discarded; ``setup_s`` is the
   median of the rest.  The last set-up's pool stays open.
2. Warm pass: every input runs once per client, so every service lane and
   cache is warm before timing.
3. The timed window: ``clients`` closed-loop clients cycle through the
   inputs until ``--seconds`` have passed.  Then the pool closes, and the
   peak RSS of this process and of every runner is read.
4. References, after the peak RSS is read so that the benchmark's own
   reference solves do not show in it: each input is solved on the serial
   backend and checked (2 rounds, at most k centers, outliers within
   budget, the library's realized cost equal to one recomputed here), then
   compared with a centralized reference.  Every warm-pass and timed job
   must reproduce its input's checked serial answer bit for bit, or it
   counts as failed.

With ``--trace 0`` the window is untraced and the end-to-end metrics are
printed.  With ``--trace 1`` half the window runs untraced and half traced,
with the layer wrappers of ``layers.py`` installed, and the per-layer
metrics are printed.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, List, NamedTuple

N_SETUPS = 5
#: Longest AF_UNIX socket path the runners' sockets may need under TMPDIR.
_SOCKET_PATH_MAX = 100


def configure_environment(root: Path) -> None:
    """One BLAS thread per process (runners inherit it); scratch in the checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    scratch = root / ".bench_tmp"
    # Runner sockets live in a fresh directory under TMPDIR; keep the
    # system default if the checkout path would make them too long.
    if len(str(scratch)) + len("/repro-cluster-XXXXXXXX/h0.sock") <= _SOCKET_PATH_MAX:
        scratch.mkdir(exist_ok=True)
        os.environ["TMPDIR"] = str(scratch)
        tempfile.tempdir = None
    sys.path.insert(0, str(root / "src"))


class Sample(NamedTuple):
    """One timed job, reduced to what the metrics need."""

    index: int              # the input the job ran on
    fingerprint: Any        # None when the job raised
    submitted: float
    started: float          # when the job began running (after any queueing)
    done: float
    lanes: int              # jobs running when this one began
    wire_bytes: int
    frames: int
    tracer: Any             # the job's tracer on traced jobs, else None


def run_job(workload, pool, job, trace) -> Sample:
    from workloads import fingerprint

    submitted = time.perf_counter()
    try:
        result, started, lanes = workload.run(pool, job, trace)
    except Exception as exc:  # a failed job is counted, not fatal
        print(f"job on input {job.index} failed: {exc!r}", file=sys.stderr)
        return Sample(job.index, None, submitted, submitted, time.perf_counter(),
                      0, 0, 0, None)
    done = time.perf_counter()
    wire = result.ledger.wire
    return Sample(job.index, fingerprint(result), submitted, started, done, lanes,
                  result.ledger.total_bytes(), 0 if wire is None else len(wire.records),
                  result.trace)


def closed_loop(workload, pool, jobs, seconds, trace, first):
    """Run ``workload.clients`` closed-loop clients for ``seconds``.

    Returns the jobs' samples and the seconds from the window's start to
    the last job's end.
    """
    samples: List[Sample] = []
    lock = threading.Lock()
    next_index = iter(range(first, 1 << 62))
    window_start = time.perf_counter()
    deadline = window_start + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                job = jobs[next(next_index) % len(jobs)]
            sample = run_job(workload, pool, job, trace)
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=client) for _ in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(s.done for s in samples) - window_start
    return samples, elapsed


def warm_pass(workload, pool, jobs) -> List[Sample]:
    """Run every input once per client, the clients together."""
    samples: List[Sample] = []
    for job in jobs:
        threads = [threading.Thread(
            target=lambda: samples.append(run_job(workload, pool, job, False)))
            for _ in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return samples


def measure(workload_name: str, seed: int, seconds: float, trace: bool):
    import resource

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    setup_times, first_job_times = [], []
    pool = None
    try:
        for i in range(N_SETUPS + 1):
            if pool is not None:
                pool.close()
            t0 = time.perf_counter()
            jobs = workload.make_jobs(seed)
            pool = workload.open_pool()
            t1 = time.perf_counter()
            workload.run(pool, jobs[0], False)
            t2 = time.perf_counter()
            if i:
                setup_times.append(t2 - t0)
                first_job_times.append(t2 - t1)
        warm_first_job = run_job(workload, pool, jobs[0], False)
        warm = warm_pass(workload, pool, jobs)

        if not trace:
            samples, elapsed = closed_loop(workload, pool, jobs, seconds, False, 0)
            traced = []
        else:
            from layers import wrapped_layers
            samples, elapsed = closed_loop(workload, pool, jobs, seconds / 2, False, 0)
            with wrapped_layers() as stats:
                traced, traced_elapsed = closed_loop(
                    workload, pool, jobs, seconds / 2, True, len(samples))
    finally:
        if pool is not None:
            pool.close()
    # The runners have exited and been reaped, so RUSAGE_CHILDREN covers them.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    refs = [workload.reference(job) for job in jobs]
    for s in warm:
        if s.fingerprint != refs[s.index].fingerprint:
            refs[s.index].failures.append(
                f"{workload.name} input {s.index}: warm pass differs from serial")
    failures = [f for ref in refs for f in ref.failures]
    for failure in failures:
        print(failure, file=sys.stderr)

    def ok(s: Sample) -> bool:
        return not refs[s.index].failures and s.fingerprint == refs[s.index].fingerprint

    attempted = len(samples) + len(traced)
    failed = sum(not ok(s) for s in samples + traced)
    correct = not failures and failed == 0
    if not trace:
        latencies = [s.done - s.submitted for s in samples]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": len(samples) / elapsed,
            "job_s_p50": statistics.median(latencies),
            "job_s_p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "words_per_job": statistics.fmean(r.words for r in refs),
            "bytes_per_job": workload.bytes_per_job(
                [s.wire_bytes for s in samples if ok(s)], refs),
            "cost_ratio": statistics.fmean(r.cost_ratio for r in refs),
            "outlier_recall": statistics.fmean(r.recall for r in refs),
            "peak_rss_mb": rss_kb / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }
        return metrics, attempted, failed, correct

    from layers import layer_metrics
    passed = [s for s in traced if ok(s)]
    metrics = layer_metrics(
        [s.tracer for s in passed], [s.frames for s in passed], stats,
        queue_waits=[s.started - s.submitted for s in traced],
        lanes_max=max(s.lanes for s in traced),
    )
    warm_s = warm_first_job.done - warm_first_job.submitted
    metrics["cluster.spawn_s"] = statistics.median(first_job_times) - warm_s
    metrics["trace.job_s"] = statistics.fmean(s.done - s.submitted for s in traced)
    metrics["trace.overhead"] = (len(traced) / traced_elapsed) / (len(samples) / elapsed)
    return metrics, attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir() or not (root / "BENCHMARK.json").is_file():
        print(f"{root} is not a source checkout (needs src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    configure_environment(root)

    values, attempted, failed, correct = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
