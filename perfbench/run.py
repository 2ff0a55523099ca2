"""semlink benchmark: time to a verdict, end to end and by layer.

Run from the root of a source checkout:

  python3 perfbench/run.py                          # all four workloads
  python3 perfbench/run.py --workload formula-random --seed 3 --seconds 20 --trace 0
  python3 perfbench/run.py --trace 1                # per-layer numbers

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  Every request's output is
checked; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics, and the exit code is 0 only when every
check passed.  See perfbench/README.md for the workloads and metrics.

This launcher imports neither numpy nor semlink.  It starts fresh worker
processes (perfbench/worker.py) one after another and pools what they
measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

WORKLOADS = ("formula-random", "eval-model", "lift-laws", "cli")
SETUPS = 5
RUN_TIMEOUT_S = 170  # all workers of one workload together
STATE_DIR = ".perfbench_state"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


class BenchError(RuntimeError):
    """A worker did not start or did not report a result."""


def start_worker(name: str, seed: int, seconds: float, trace: int, part: int,
                 parts: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--part", str(part), "--parts", str(parts),
         "--src", SRC, "--state", os.path.join(ROOT, STATE_DIR)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, cwd=ROOT)


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the worker and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workers did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Untraced: SETUPS fresh workers in turn, each timed from process start
    to "ready" and each measuring seconds / SETUPS on its own stride of the
    request stream, so that the numbers average over processes.  Traced: one
    worker for the whole run."""
    parts = 1 if trace else SETUPS
    setups, results = [], []
    deadline = perf_counter() + RUN_TIMEOUT_S
    for part in range(parts):
        t0 = perf_counter()
        proc = start_worker(name, seed, seconds / parts, trace, part, parts)
        line = proc.stdout.readline()
        setups.append(perf_counter() - t0)
        lines = finish(proc, deadline).strip().splitlines()
        if not line.startswith("ready ") or not lines:
            raise BenchError(f"worker for {name} did not report: {line!r}")
        results.append(json.loads(lines[-1]))
        results[-1]["setup_cpu_s"] = float(line.split()[1])
    if trace:
        return results[0]
    return pooled(results, setups)


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pooled(results: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics over the samples of all workers of a run.

    Times are CPU times rescaled to the reference machine speed
    (worker.Calibrated); the raw wall-clock figures are reported under
    "samples".
    """
    samples = [(kind, scaled, checks) for r in results
               for (kind, _, checks), scaled in zip(r["samples"], r["scaled"])]
    lat = [latency for _, latency, _ in samples]
    raw = [latency for r in results for _, latency, _ in r["samples"]]
    busy = sum(lat)
    checked = [(latency, checks) for _, latency, checks in samples if checks > 0]
    p95 = percentile(lat, 95)
    metrics = {
        "setup_s": (statistics.median(r["setup_cpu_s"] * r["setup_factor"] for r in results),
                    "s"),
        "requests_per_s": (len(lat) / busy, "1/s"),
        "request_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "request_p95_ms": (p95 * 1e3, "ms"),
        "us_per_check": (sum(t for t, _ in checked) / sum(c for _, c in checked) * 1e6, "us"),
        "peak_rss_mb": (max(r["peak_kb"] for r in results) / 1024, "MB"),
    }
    info = {"requests": len(lat), "beyond_p95": sum(1 for x in lat if x > p95),
            "checks": sum(c for _, c in checked), "raw_setups_s": setups,
            "raw_requests_per_s": len(raw) / sum(raw),
            "raw_request_p50_ms": statistics.median(raw) * 1e3,
            "raw_request_p95_ms": percentile(raw, 95) * 1e3}
    return {"metrics": metrics, "samples": info, "env": results[0]["env"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "problems": [p for r in results for p in r["problems"]][:5]}


def report(name: str, result: dict):
    print(f"== {name}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<50} {value:14.6f} {unit}")
    s = result["samples"]
    print(f"  samples: {json.dumps(s)}")
    print(f"  failed_ratio: {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="length of the measured loop of each workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the results to this JSON file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semlink", "__init__.py")):
        print(f"error: no semlink sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, STATE_DIR), exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the workers and their children, from process start on,
        # so that worker.calibration() runs where the requests run
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = next(iter(results.values()))["env"]
    print(f"env: {json.dumps(env)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace, "env": env,
                       "workloads": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = (lambda name: "") if args.workload else (lambda name: f"{name}.")
    metrics = {f"{prefix(name)}{key}": {"value": value, "unit": unit}
               for name, r in results.items() for key, (value, unit) in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
