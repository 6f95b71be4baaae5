"""The measured process of the benchmark; run.py starts it, one per run.

It imports qsl from the checkout's src/, reports that it is ready (run.py
times set-up up to that line), then runs whole rounds of the workload's
operations, stopping at the round boundary nearest to `--seconds`. Each
operation is one call of `qsl.cli.main(argv)` with stdout captured; its time,
exit code or exception, and output go to stdout as one JSON line (the output
only when it differs from the one sent for the same operation before, so the
parent has little to read while operations are timed). With `--trace 1` the
layers are wrapped (layers.py) and the last line carries their per-round
figures. `--probe` stops after the ready line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="mc")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import qsl.cli

    if Path(qsl.__file__).resolve().parent != SRC / "qsl":
        sys.stderr.write(f"imported qsl from {qsl.__file__}, not from {SRC}\n")
        return 2
    emit({"ready": True})
    if args.probe:
        return 0

    import workloads

    ops = workloads.round_ops(args.workload, args.seed)
    run = qsl.cli.main
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
        run = tracer.timed("cli", run)

    start = time.perf_counter()
    rounds = 0
    sent: dict = {}
    while True:
        round_start = time.perf_counter()
        if tracer is not None and rounds == 1:
            tracer.reset()  # per-round figures come from the rounds after lazy set-up
        for i, op in enumerate(ops):
            out = io.StringIO()
            code = error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = run(list(op.argv))
            except Exception as exc:  # a failing operation is counted by the parent, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            text = out.getvalue()
            record = {"op": i, "s": elapsed, "code": code, "error": error}
            if sent.get(i) != text:
                sent[i] = record["out"] = text
            emit(record)
        rounds += 1
        if rounds == 1:
            first_round_rss = peak_rss_mb()
        now = time.perf_counter()
        # stop at the round boundary nearest to --seconds, so a run measures
        # about --seconds whatever the length of a round
        if now - start + (now - round_start) / 2 >= args.seconds:
            break

    # the allocator's heap keeps growing over repeated rounds, by a 4 MB step
    # at a round that differs between runs, so the figure is taken after one
    # round: what a process needs to import qsl and run the workload once
    done = {"done": True, "rounds": rounds, "peak_rss_mb": first_round_rss,
            "peak_rss_mb_all_rounds": peak_rss_mb()}
    if tracer is not None:
        traced = rounds - 1 if rounds > 1 else 1
        done["trace"] = tracer.per_round(traced)
        done["trace_raw"] = dict(tracer.stats)
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
