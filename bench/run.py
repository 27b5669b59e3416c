"""Benchmark of legclus.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, seed 1, a table

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.  Each
workload's operations are first run once and checked in a process of
their own; then the workload is measured in another single-threaded
process (``worker.py``) that compares each output with the checked one.
With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one traced round, and the spans are written to
``bench/out/trace-<workload>-seed<N>.json.gz``.  ``setup_s`` is the median
time SETUP_SAMPLES processes take to start the interpreter, import
legclus, make the inputs and warm up.  Times are scaled to a reference
machine speed (speed.py); README.md explains the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
WORKLOADS = ["dga-expand", "chart-sweep", "enumerate", "cli-mix"]
SETUP_SAMPLES = 11
BUDGET_S = 170  # all processes of one workload's run together


def child_env() -> dict[str, str]:
    """The caller's environment without LEGCLUS_ settings, and with
    bytecode caching on whatever the caller set: the set-up processes then
    load legclus from the bytecode the first process wrote, not compile it
    each time."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LEGCLUS_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def worker(args: list[str], deadline: float, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run worker.py to its end, or stop it at ``deadline`` (monotonic).

    ``-S``: the benchmark and legclus need only the standard library, so
    the site initialisation, which runs whatever ``.pth`` files the
    machine's site-packages hold (one here imports certifi at every
    start), is left out of every process and of ``setup_s``."""
    return subprocess.run(
        [sys.executable, "-S", str(WORKER), *args], cwd=ROOT, env=child_env(), input=stdin,
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()), check=False,
    )


def last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{what} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def setup_seconds(workload: str, seed: int, deadline: float) -> tuple[float, float]:
    """Median set-up time of SETUP_SAMPLES processes, scaled to the
    reference speed by the loop each process times once it is set up, and
    raw.  One unmeasured process runs first so that compiled bytecode and
    the file cache are warm."""
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        args = ["--workload", workload, "--seed", str(seed), "--setup-only", "--t0", repr(t0)]
        out = last_json(worker(args, deadline), f"set-up of {workload}")
        if i:
            raw.append(out["setup_s"])
            scaled.append(out["setup_s"] * speed.REFERENCE_S / out["loop_s"])
    return statistics.median(scaled), statistics.median(raw)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    checked = last_json(worker(["--workload", workload, "--seed", str(seed), "--verify"], deadline),
                        f"check of {workload}")
    verified = checked["verified"]
    wrong = [v["wrong"] for v in verified if v["wrong"]]
    if wrong:
        out = {"correct": False, "attempted": len(verified), "failed": sum(v["failed"] is not None for v in verified),
               "error": wrong}
    else:
        out = last_json(
            worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   deadline, json.dumps(checked)),
            f"{workload} worker",
        )
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out.get("metrics", {}).items()}
    if out["correct"] and not trace:
        setup, out["raw"]["setup_s"] = setup_seconds(workload, seed, deadline)
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    result = {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    details = {k: out[k] for k in ("error", "failures", "rounds", "shares", "raw") if out.get(k)}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (OUT_DIR / name).write_text(json.dumps({**result, **details}, indent=2) + "\n")
    for key, value in details.items():
        print(f"{key}: {json.dumps(value)}", file=sys.stderr)
    return result


def table(results: dict[str, dict]) -> str:
    lines = []
    for workload, res in results.items():
        lines.append(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            lines.append(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, as a table)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measured operation time (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "legclus" / "__init__.py").is_file():
        return fail(f"no legclus sources under {ROOT / 'src'}; run from a checkout of the repository")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        if args.workload:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    print(table(results))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
