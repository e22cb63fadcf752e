"""One workload process: set up, print READY, run the closed loop, write results.

Started by ``run.py`` in a fresh interpreter, so that set-up time and peak
memory belong to this workload alone. With ``--mode setup`` it exits right
after READY; ``run.py`` uses such processes as extra set-up samples.

The loop has one client: each operation starts when the previous one and
its check are done. Only the operation itself is timed. One warm-up cycle
runs first and is checked but not measured; then whole cycles run until the
timed work reaches ``--seconds``, pausing ``--pauses`` times on the way
while ``run.py`` takes its set-up and cold-start samples. With ``--trace 1``
the first half of the time runs untraced and the second half with the
wrappers of :mod:`tracing` installed, which gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
from time import perf_counter

import tracing
import workloads
from reference import CheckFailed

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def import_program():
    """Import qugame from the checkout's ``src``; refuse any other copy."""
    sys.path.insert(0, SRC)
    qg = importlib.import_module("qugame")
    for name in ("cli", "gamedoc", "quantum", "linalg", "builders", "classical", "geometry"):
        importlib.import_module(f"qugame.{name}")
    if os.path.commonpath([os.path.abspath(qg.__file__), SRC]) != SRC:
        raise SystemExit(f"qugame imported from {qg.__file__}, not from {SRC}")
    return qg


def closed_loop(ops, seconds: float, digests: dict, tracer=None, pauses: int = 0) -> dict:
    """Run whole cycles of ``ops`` until their timed work reaches ``seconds``.

    With ``pauses``, the loop stops that many times, at the first cycle end
    past each equal share of ``seconds``: it prints PAUSE and waits for a line
    on standard input.
    """
    latencies: list[float] = []
    labels: list[str] = []
    failures: list[str] = []
    busy = paused = 0.0
    cycles = done_pauses = 0
    wall_start = perf_counter()
    while cycles == 0 or (busy < seconds
                          and perf_counter() - wall_start - paused < 2 * seconds + 20):
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            error = None
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # any exception is a failed operation, counted below
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            busy += elapsed
            latencies.append(elapsed * 1e3)
            labels.append(op.label)
            if error is None:
                try:
                    digest = hashlib.sha256(op.check(result)).hexdigest()
                    if digests.setdefault(op.label, digest) != digest:
                        error = "output differs from an earlier run of the same operation"
                except CheckFailed as exc:
                    error = str(exc)
                except Exception as exc:  # a check that cannot read the output fails the op
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"{op.label}: {error}")
        cycles += 1
        if done_pauses < pauses and seconds * (done_pauses + 1) / (pauses + 1) <= busy < seconds:
            start = perf_counter()
            print("PAUSE", flush=True)
            sys.stdin.readline()
            paused += perf_counter() - start
            done_pauses += 1
    return {"latencies_ms": latencies, "labels": labels, "failures": failures, "cycles": cycles,
            "busy_s": busy, "ops_per_cycle": len(ops), "pauses": done_pauses}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--pauses", type=int, default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()

    qg = import_program()
    with open(os.path.join(args.work, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    ops = workloads.CYCLES[args.workload](qg, manifest, args.work)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    digests: dict[str, str] = {}
    # one untimed cycle first: lazy imports and first-call costs are paid once
    # per process, not per operation; its outputs are still checked
    result: dict = {"warmup": closed_loop(ops, 0.0, digests)}
    if args.trace:
        result["untraced"] = closed_loop(ops, args.seconds / 2, digests)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced = closed_loop(ops, args.seconds / 2, digests, tracer)
        finally:
            restore()
        traced["layers"] = tracing.layer_metrics(tracer, traced["cycles"])
        traced["reconciliation"] = tracing.reconciliation(tracer)
        traced["spans_stored"], traced["spans_dropped"] = len(tracer.spans), tracer.dropped
        if args.spans:
            tracer.dump(args.spans)
        result["traced"] = traced
    else:
        result["timed"] = closed_loop(ops, args.seconds, digests, pauses=args.pauses)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
