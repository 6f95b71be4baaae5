#!/usr/bin/env python3
"""Benchmark of the qsl command line: one workload per run, outputs checked.

    python3 perfbench/run.py --workload {mc,table,verify} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; qsl is imported from its src/.
The operations run in a separate worker process (worker.py) with one BLAS
thread and without numpy's huge-page advice. This process only starts it,
reads its JSON lines, checks every output (checks.py) once the worker has
ended, and prints one JSON object as its last line. With `--trace 0` that
object holds the end-to-end metrics:

* work_per_s  - work units completed per second of summed operation time,
                over the run's rounds after the first (warm-up)
* setup_s     - median over 9 fresh processes (4 before the measured one,
                itself, and 4 after it) of the time from process start to
                `qsl` imported and ready for the first operation
* peak_rss_mb - peak resident memory of the worker process over its first
                round

With `--trace 1` it holds the per-layer metrics of layers.py instead. Raw
per-operation times and trace totals are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9  # the worker's own start-up and 8 probes
TIME_LIMIT_S = 170.0
# one BLAS thread; no huge-page advice for numpy's large arrays, since whether
# they get transparent huge pages depends on the machine's free memory (with
# it, a verify worker held 49.2 MB where it holds 37.6 MB without)
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMPY_MADVISE_HUGEPAGE": "0"}


class Worker:
    """A worker process whose start-up is timed up to its ready line."""

    def __init__(self, argv: list[str], deadline: float) -> None:
        env = dict(os.environ, **CHILD_ENV)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self._timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self._timer.start()
        ready = self.read()
        self.setup_s = time.perf_counter() - t0
        if ready != {"ready": True}:
            self.__exit__()
            raise RuntimeError(f"worker did not start: {ready!r}")

    def read(self):
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def close(self) -> int:
        """Wait for the process; safe to call twice."""
        self.proc.stdout.close()
        code = self.proc.wait()
        self._timer.cancel()
        return code

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.close()


def measure(args: argparse.Namespace, deadline: float) -> dict:
    """Run the worker; return its records, set-up samples and final line."""
    def probe() -> float:
        with Worker(["--probe"], deadline) as probe:
            return probe.setup_s

    # half the probes before the measured worker and half after it, so the
    # median spans the run's time on the host, not only its first seconds
    setup = [probe() for _ in range(SETUP_SAMPLES // 2)]
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    records = []
    with Worker(argv, deadline) as worker:
        setup.append(worker.setup_s)
        while (record := worker.read()) is not None and "done" not in record:
            records.append(record)
        code = worker.close()
    if code != 0 or record is None:
        raise RuntimeError(f"worker exited with code {code} before its last line")
    setup += [probe() for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
    return {"setup": setup, "records": records, "done": record}


def summarise(args: argparse.Namespace, ops: list, run: dict) -> dict:
    checker = checks.Checker()
    verdicts: dict = {}
    outcomes = []
    times = [[] for _ in ops]
    last_out: dict = {}
    rounds = run["done"]["rounds"]
    # the first round is warm-up (lazy set-up, cold caches) once there are enough others
    warmup = 1 if rounds > 2 else 0
    work = op_time = 0.0
    for rec in run["records"]:
        i = rec["op"]
        out = last_out[i] = rec.get("out", last_out.get(i))  # the worker omits repeats
        key = (i, rec["code"], rec["error"], out)
        if key not in verdicts:  # rounds repeat their outputs: check each distinct one once
            verdicts[key] = checker.check(ops[i], rec["code"], rec["error"], out)
        outcomes.append((verdicts[key], rec["error"] is not None))
        if len(times[i]) >= warmup:
            op_time += rec["s"]
            work += ops[i].units if verdicts[key] is None else 0
        times[i].append(rec["s"])
    result = checks.tally(outcomes)
    reasons = sorted({f"{ops[i].argv}: {reason}" for (i, *_), reason in verdicts.items() if reason})
    if args.trace:
        units = dict(layers.METRICS)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in run["done"]["trace"].items()}
    else:
        metrics = {
            "work_per_s": {"value": work / op_time, "unit": "1/s"},
            "setup_s": {"value": statistics.median(run["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": run["done"]["peak_rss_mb"], "unit": "MB"},
        }
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "rounds": rounds, "ops": [" ".join(op.argv) for op in ops],
           "op_seconds": times, "setup_s": run["setup"], "failures": reasons,
           "peak_rss_mb_all_rounds": run["done"]["peak_rss_mb_all_rounds"],
           "trace_totals": run["done"].get("trace_raw"), "metrics": metrics}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(raw, indent=1) + "\n")
    for reason in reasons:
        sys.stderr.write(f"failed: {reason}\n")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "qsl" / "__init__.py").is_file():
        sys.stderr.write(f"no qsl sources under {ROOT / 'src'}; run inside a checkout\n")
        return 2
    ops = workloads.round_ops(args.workload, args.seed)
    try:
        run = measure(args, deadline)
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    print(json.dumps(summarise(args, ops, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
