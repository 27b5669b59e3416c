"""One workload in one process, in one of three modes, each printing a
JSON line.  ``run.py`` starts these; they are not meant to be run by hand.

    worker.py --workload NAME --seed N --setup-only --t0 T
    worker.py --workload NAME --seed N --verify
    worker.py --workload NAME --seed N --seconds S --trace 0|1  < verified

``--verify`` runs each operation once, checks its output and prints, per
operation, the output's digest, whether the operation failed and whether
its answer is wrong.  The measured mode reads that JSON line from
standard input and runs whole rounds of the operations
until the timed work reaches ``--seconds``; after each operation it
compares the output's digest with the verified one, so no check runs in
the process whose peak memory is reported.  With ``--trace 1`` one more
round runs under the tracer, after the untraced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def attempt(op):
    """Run one operation: its output or the error it raised, its start
    and its duration."""
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # an operation that raises has failed
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, t0, time.perf_counter() - t0


def digest(op, result, raised) -> str:
    return workloads.json_digest({"raised": raised}) if raised is not None else op.digest(result)


def verify(workload) -> list[dict]:
    """Each operation run once and checked: its digest, the reason it
    failed by a fault of the program, and why its answer is wrong (each
    None when it does not apply)."""
    verified = []
    for op in workload.ops:
        result, raised, _, _ = attempt(op)
        failed, wrong = raised, None
        if raised is None:
            try:
                failed = op.check(result)
            except Exception as exc:  # a wrong or unreadable answer
                wrong = f"{op.label}: {type(exc).__name__}: {exc}"
        verified.append({"digest": digest(op, result, raised), "failed": failed, "wrong": wrong})
    return verified


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


class Runner:
    """Runs rounds of a workload's operations and compares each output
    with the verified one.  After every CALIBRATE_EVERY_S of operation
    time the speed loop is timed."""

    CALIBRATE_EVERY_S = 0.1

    def __init__(self, workload, verified: list[dict]) -> None:
        if len(verified) != len(workload.ops):
            raise ValueError(f"{len(verified)} verified outputs for {len(workload.ops)} operations")
        self.workload = workload
        self.verified = verified
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.speed = speed.SpeedLog()
        self.rounds: list[list[tuple[int, float, float]]] = []  # (op, moment, seconds)

    def round(self, tracer=None) -> None:
        """One pass over the operations."""
        done: list[tuple[int, float, float]] = []
        gc.collect()
        self.speed.sample()
        since = 0.0
        for i, op in enumerate(self.workload.ops):
            with tracer.active("op") if tracer is not None else contextlib.nullcontext():
                result, raised, t0, dt = attempt(op)
            done.append((i, t0 + dt / 2, dt))
            self.attempted += 1
            want = self.verified[i]
            if digest(op, result, raised) != want["digest"]:
                raise CheckError(f"{op.label}: output differs from the verified run (raised: {raised})")
            if want["failed"] is not None:
                self.failed += 1
                self.failures.setdefault(op.label, want["failed"])
            del result
            since += dt
            if since >= self.CALIBRATE_EVERY_S:
                self.speed.sample()
                since = 0.0
        self.speed.sample()
        self.rounds.append(done)

    def measure(self, seconds: float) -> None:
        """Whole rounds until the raw operation time reaches ``seconds``."""
        while sum(dt for r in self.rounds for _, _, dt in r) < seconds or not self.rounds:
            self.round()

    def times(self, rounds, scaled: bool) -> list[list[float]]:
        """Per operation, its times in the given rounds."""
        out: list[list[float]] = [[] for _ in self.workload.ops]
        for r in rounds:
            for i, moment, dt in r:
                out[i].append(dt * self.speed.factor(moment) if scaled else dt)
        return out


def summary(times: list[list[float]]) -> dict[str, float]:
    """Each operation's median over the rounds; the percentiles are taken
    over those medians, and a round of medians gives the throughput."""
    per_op = [statistics.median(t) for t in times]
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": percentile(per_op, 0.5) * 1e3,
        "op_p90_ms": percentile(per_op, 0.9) * 1e3,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="measured mode: the operation time to reach")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, help="with --setup-only: the moment the parent started this process")
    ap.add_argument("--verify", action="store_true")
    args = ap.parse_args()
    if not (args.setup_only or args.verify or args.seconds is not None):
        ap.error("--seconds is required in the measured mode")

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.verify:
        print(json.dumps({"verified": verify(workload)}))
        return 0
    workload.warm_up()
    if args.setup_only:
        ready = time.perf_counter()
        log = speed.SpeedLog()
        for _ in range(3):
            log.sample()
        print(json.dumps({"setup_s": ready - args.t0, "loop_s": statistics.median(log.times)}))
        return 0

    runner = Runner(workload, json.load(sys.stdin)["verified"])
    result: dict = {"correct": True}
    try:
        runner.measure(args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
        scaled = runner.times(runner.rounds, scaled=True)
        result["metrics"] = {k: (v, units[k]) for k, v in summary(scaled).items()}
        result["metrics"]["peak_rss_mb"] = (peak_kb / 1024, "MB")
        result["rounds"] = len(runner.rounds)
        result["raw"] = summary(runner.times(runner.rounds, scaled=False))
        if args.trace:
            import tracer as tracing

            untraced = statistics.median(sum(map(sum, runner.times([r], scaled=True))) for r in runner.rounds)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                runner.round(tracer)
            finally:
                tracer.uninstall()
            traced = sum(map(sum, runner.times(runner.rounds[-1:], scaled=True)))
            result["metrics"] = tracing.metrics(tracer, traced, untraced)
            result["shares"] = tracing.shares(tracer)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz")
    except CheckError as exc:
        result = {"correct": False, "error": str(exc)}
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = runner.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
