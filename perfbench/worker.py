"""One benchmark worker: set up a workload, then measure it.

Started by run.py with the workload, seed, run length and trace flag.  The
worker imports semlink from the checkout's src/, builds its inputs, warms
up and prints "ready", which ends its set-up; then it measures.  The
measured loop is a closed loop with one client: each request starts when the
previous one has been answered and checked.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter, process_time

import numpy

import workloads
from checks import DigestBook, Tally
from workloads import CLI_KINDS, own_peak_rss_kb

CLI_PROBE_REPEATS = 3
CALIBRATION_SIZE = 400
CALIBRATE_EVERY_S = 0.05
# calibration() time that defines the reference machine speed
CALIBRATION_REF_S = 0.002
WASTE_PREFIX = 4 * len(CLI_KINDS)


def calibration() -> float:
    """CPU seconds for a fixed mix of dict, tuple and small-numpy work, the
    kind of work semlink does per check.  The garbage collector is paused,
    so the size of the program's heap cannot change the figure."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        table = {}
        for i in range(CALIBRATION_SIZE):
            table[(i, i & 7)] = numpy.zeros(2, dtype=numpy.int64) + i
        total = 0
        for key, vec in table.items():
            total += key[0] + int(vec.sum())
        return process_time() - t0
    finally:
        if was_enabled:
            gc.enable()


class Calibrated:
    """Request times rescaled to the reference machine speed.

    On a shared virtual machine the host takes CPU time away from the guest
    in bursts, and a CPU's speed can change by 2x within seconds.  Reading
    CPU time (workload.clock) leaves out the first.  For the second,
    calibration() runs between requests every CALIBRATE_EVERY_S, and the
    requests between two of its runs are scaled by CALIBRATION_REF_S over
    the mean of those two calibration times.
    """

    def __init__(self):
        self.first = self.last = statistics.median(calibration() for _ in range(3))
        self.pending: list[float] = []
        self.scaled: list[float] = []
        self.due = perf_counter() + CALIBRATE_EVERY_S

    def add(self, latency: float):
        self.pending.append(latency)
        if perf_counter() >= self.due:
            self.flush()

    def flush(self):
        cal = calibration()
        factor = CALIBRATION_REF_S / ((self.last + cal) / 2)
        self.scaled.extend(latency * factor for latency in self.pending)
        self.pending, self.last = [], cal
        self.due = perf_counter() + CALIBRATE_EVERY_S


def drive(workload, run, tally: Tally, book: DigestBook, *, seconds: float = 0.0,
          count: int = 1, first: int = 0, step: int = 1, tracer=None,
          scale: "Calibrated | None" = None) -> list[tuple[str, float, int]]:
    """Closed loop over requests first, first + step, ... until both at least
    `count` requests and at least `seconds` have passed.

    Returns (kind, wall-clock latency in s, checks) per request.  The
    benchmark's own output checks run between requests and are not part of
    any latency.  With `scale`, each request's time on workload.clock also
    goes to `scale`.
    """
    samples = []
    deadline = perf_counter() + seconds
    n = 0
    while n < count or perf_counter() < deadline:
        req = workload.request(first + n * step)
        span = tracer.begin_request(req.key) if tracer is not None else None
        clock0 = workload.clock() if scale is not None else 0.0
        t0 = perf_counter()
        try:
            out, error = run(req), None
        except Exception as exc:  # a failed request is counted, and the loop goes on
            out, error = None, exc
        latency = perf_counter() - t0
        scaled_time = workload.clock() - clock0 if scale is not None else 0.0
        if tracer is not None:
            tracer.end_request(span)
        if error is None:
            problems, checks, text = workload.check(req, out)
            problems = problems + book.check(req.key, text)
        else:
            problems, checks = [f"request {req.key} ({req.kind}) raised {error!r}"], 0
        tally.record(problems, (book.name, req.key))
        samples.append((req.kind, latency, checks))
        n += 1
        if scale is not None:
            scale.add(scaled_time)
    return samples


def timed_run(workload, seconds: float, part: int, parts: int, tally: Tally,
              book: DigestBook) -> dict:
    """This worker's share of the measured loop: requests part, part + parts, ..."""
    scale = Calibrated()
    samples = drive(workload, workload.run, tally, book, seconds=seconds,
                    first=part, step=parts, scale=scale)
    scale.flush()
    # the first request of the previous worker, answered again in this process
    drive(workload, workload.run, tally, book, first=(part - 1) % parts)
    if workload.name == "cli":
        peak_kb = max(workload.peak_kb.values(), default=0)
    else:
        peak_kb = own_peak_rss_kb()
    return {"samples": samples, "scaled": scale.scaled, "peak_kb": peak_kb,
            "setup_factor": CALIBRATION_REF_S / scale.first}


def cli_outside_timings(cli, seconds: float, tally: Tally, book: DigestBook) -> dict:
    """Wall-clock of fresh interpreters, measured from outside: a bare
    interpreter, `import semlink`, and each request kind of the cli mix."""
    def median_ms(argv):
        times = []
        for _ in range(CLI_PROBE_REPEATS):
            t0 = perf_counter()
            subprocess.run([sys.executable, *argv], env=cli.env, check=True,
                           stdout=subprocess.DEVNULL, timeout=60)
            times.append(perf_counter() - t0)
        return statistics.median(times) * 1e3

    bare = median_ms(["-c", "pass"])
    imported = median_ms(["-c", "import semlink"])
    samples = drive(cli, cli.run, tally, book, seconds=seconds, count=len(CLI_KINDS))
    by_kind: dict[str, list[float]] = {}
    for kind, latency, _ in samples:
        group = "lift" if kind.startswith("lift_") else kind
        by_kind.setdefault(group, []).append(latency * 1e3)
    out = {"cli.python_start_ms": (bare, "ms"), "cli.import_ms": (imported - bare, "ms")}
    for kind in ("eval", "synth", "synth_wide", "lift", "check", "sim"):
        out[f"cli.{kind}_ms"] = (statistics.median(by_kind[kind]), "ms")
    out["cli.synth_wide_peak_rss_mb"] = (cli.peak_kb["synth_wide"] / 1024, "MB")
    return out


def traced_run(workload, cli, seconds: float, tally: Tally, book: DigestBook,
               cli_book: DigestBook) -> dict:
    """Per-layer numbers: the same requests untraced, then traced.

    The outside timings of the cli mix come first; on the cli workload they
    are its subprocess requests, elsewhere one pass over the mix.
    """
    import semlink.cli  # noqa: F401  (so that its bound names can be patched)
    from tracer import LAYER_LABELS, Tracer

    is_cli = workload.name == "cli"
    metrics = cli_outside_timings(cli, seconds / 3 if is_cli else 0.0, tally, cli_book)
    drive(workload, workload.run_in_process, tally, book, count=len(CLI_KINDS))  # warm-up
    plain = drive(workload, workload.run_in_process, tally, book,
                  seconds=seconds / 3 if is_cli else seconds / 2, count=len(CLI_KINDS))
    tracer = Tracer()
    with tracer:
        traced = drive(workload, workload.run_in_process, tally, book,
                       count=len(plain), tracer=tracer)
    plain_s = sum(s[1] for s in plain)
    traced_s = sum(s[1] for s in traced)
    checks = sum(s[2] for s in traced)
    spans = tracer.self_times()
    for label in LAYER_LABELS:
        calls, self_ns = spans[label]
        metrics[f"{label}.calls"] = (calls, "count")
        metrics[f"{label}.self_ms"] = (self_ns / 1e6, "ms")
        metrics[f"{label}.share"] = (self_ns / 1e9 / traced_s, "ratio")
    # waste ratios over a fixed prefix of the request stream, so that they
    # repeat exactly for a seed however many requests the run got through
    prefix = min(WASTE_PREFIX, len(traced))
    prefix_spans = tracer.self_times(below=prefix)
    prefix_checks = sum(s[2] for s in traced[:prefix])
    for label in ("veclogic.named_operator", "homomorphism.lifted_model_function",
                  "homomorphism.unmap_element"):
        metrics[f"{label}.calls_per_check"] = (prefix_spans[label][0] / prefix_checks,
                                               "calls/check")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
    info = {"requests": len(traced), "checks": checks, "spans": len(tracer.start),
            "untraced_s": plain_s, "traced_s": traced_s}
    return {"metrics": metrics, "samples": info}


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "pinned_to_cpus": (sorted(os.sched_getaffinity(0))
                           if hasattr(os, "sched_getaffinity") else None),
        "machine": platform.machine(),
        "seed": seed,
    }


def make_workload(name: str, seed: int, state_dir: str, src_dir: str):
    if name == "cli":
        return workloads.Cli(seed, state_dir, src_dir)
    return {"formula-random": workloads.FormulaRandom, "eval-model": workloads.EvalModel,
            "lift-laws": workloads.LiftLaws}[name](seed, state_dir)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--part", type=int, default=0, help="this worker's index")
    ap.add_argument("--parts", type=int, default=1, help="workers sharing the run")
    ap.add_argument("--src", required=True)
    ap.add_argument("--state", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    workload = make_workload(args.workload, args.seed, args.state, args.src)
    workload.warmup()
    print(f"ready {workloads.setup_cpu_time()!r}", flush=True)

    def book_for(name: str) -> DigestBook:
        return DigestBook(name, os.path.join(args.state, f"digests-{name}-{args.seed}.json"))

    tally, book = Tally(), book_for(args.workload)
    books = [book]
    if args.trace:
        if args.workload == "cli":
            cli, cli_book = workload, book
        else:
            cli, cli_book = make_workload("cli", args.seed, args.state, args.src), book_for("cli")
            books.append(cli_book)
        result = traced_run(workload, cli, args.seconds, tally, book, cli_book)
    else:
        result = timed_run(workload, args.seconds, args.part, args.parts, tally, book)
    for b in books:
        for key, problem in b.merge().items():
            tally.flag(key, problem)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                  env=environment(args.seed))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
