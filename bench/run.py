"""qugame benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload small-games-cli --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The run

1. records the environment (CPUs, Python, numpy/scipy, BLAS and its
   thread variables) and caps BLAS threads at the CPU count;
2. generates the workload's inputs from ``--seed`` into a fresh directory
   under ``.bench_work/`` (not timed, removed at the end);
3. with ``--trace 0``: starts one workload process (``worker.py``) and
   fresh set-up processes before, during (the loop pauses for them) and
   after its closed loop, times spawning to READY as ``setup_s``, times
   fresh ``python -m qugame.cli build`` processes as ``cold_start_ms`` in
   the same places, and reports the end-to-end metrics of the closed loop;
4. with ``--trace 1``: runs the workload process half untraced and half
   traced, and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is the
JSON result. Details of each run (environment, failures, reconciliation,
spans) go to ``.bench_out/``. The exit code is 2 when the checkout holds no
program to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import numpy as np

import inputs
import reference as ref
from workloads import TAIL_PERCENTILE

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

# (set-up-only processes, cold starts) before the closed loop, at each of its
# pauses, and after it: 5 set-up samples on top of the workload process
# itself and 8 cold starts, spread over the whole run like the loop's samples
PROBE_ROUNDS = ((1, 1), (1, 2), (1, 2), (1, 2), (1, 1))
DEADLINE_S = 170       # the whole run, set-up and cold starts included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    """A process of the run failed or ran out of time."""


def environment() -> tuple[dict, dict]:
    """Environment record, and the child environment with BLAS threads capped."""
    nproc = len(os.sched_getaffinity(0))
    child = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        value = child.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            child[var] = str(nproc)
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    import scipy

    record = {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: child[var] for var in BLAS_THREAD_VARS},
    }
    return record, child


class Run:
    def __init__(self, args, env: dict, work: str):
        self.args = args
        self.env = env
        self.work = work
        self.deadline = perf_counter() + DEADLINE_S

    def remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise RunError("the run exceeded its time budget")
        return left

    def worker(self, mode: str, result: str | None = None, spans: str | None = None,
               pauses: int = 0, at_pause=None):
        """Start a workload process and wait for it; returns its seconds to READY.

        The process's closed loop stops ``pauses`` times; ``at_pause`` runs at
        each stop, and the loop resumes when it returns.
        """
        argv = [sys.executable, WORKER, "--workload", self.args.workload, "--work", self.work,
                "--seconds", str(self.args.seconds), "--trace", str(self.args.trace),
                "--mode", mode, "--pauses", str(pauses)]
        if result:
            argv += ["--result", result]
        if spans:
            argv += ["--spans", spans]
        start = perf_counter()
        # unbuffered, so that select() sees every line the process has written
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                bufsize=0, env=self.env, cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
            line = proc.stdout.readline() if ready else b""
            ready_s = perf_counter() - start
            if line.strip() != b"READY":
                raise RunError(f"workload process did not get ready (got {line[:200]!r})")
            while line:
                ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
                if not ready:
                    raise RunError("workload process ran out of time")
                line = proc.stdout.readline()
                if line.strip() == b"PAUSE":
                    at_pause()
                    proc.stdin.write(b"GO\n")
            code = proc.wait(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        if code != 0:
            raise RunError(f"workload process exited with {code}")
        return ready_s

    def cold_start(self) -> float:
        """Wall time of one fresh ``python -m qugame.cli build`` process, output checked."""
        out = os.path.join(self.work, "cold-start.json")
        env = dict(self.env)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-m", "qugame.cli", "build", "--kind", "bell-state-prep",
                "--out", out]
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT)
        # a blocking wait returns as soon as the process ends; wait(timeout=...)
        # polls and would round the time up to tens of milliseconds
        watchdog = threading.Timer(self.remaining(), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - start
        if code != 0:
            raise RunError(f"cold start exited with {code}")
        with open(out, encoding="utf-8") as handle:
            doc = json.load(handle)
        ref.close(np.asarray(doc["unitary"])[..., 0], ref.bell_unitary(), 1e-12, "cold-start build")
        os.unlink(out)
        return elapsed


TRACE_OVERHEAD = ("trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_pct")


def tally(loops: list[dict]) -> tuple[int, list[str]]:
    """Operations attempted and the failures among them, over closed loops."""
    return (sum(len(loop["latencies_ms"]) for loop in loops),
            [failure for loop in loops for failure in loop["failures"]])


def op_medians(loop: dict) -> dict[str, float]:
    """Median latency (ms) of each operation of the cycle."""
    by_label: dict[str, list[float]] = {}
    for label, ms in zip(loop["labels"], loop["latencies_ms"]):
        by_label.setdefault(label, []).append(ms)
    return {label: statistics.median(v) for label, v in by_label.items()}


def cycle_rate(loop: dict) -> float:
    """Operations per second over the median cycle of a closed loop.

    The median cycle is the sum, over the cycle's operations, of each
    operation's median latency. With one client and no waiting that is the
    closed-loop rate of a typical cycle, and unlike a plain mean it is not
    moved by one stalled cycle.
    """
    medians = op_medians(loop)
    return len(medians) / (sum(medians.values()) / 1e3)


def end_to_end(loop: dict, percentile: float, setup: list[float], cold: list[float],
               rss_kb: int) -> dict:
    lat = loop["latencies_ms"]
    return {
        "ops_per_s": (cycle_rate(loop), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (float(np.percentile(lat, percentile)), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "cold_start_ms": (statistics.median(cold) * 1e3, "ms"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qugame", "__init__.py")):
        print(f"error: no qugame package under {SRC}; nothing to measure", file=sys.stderr)
        return 2

    record, env = environment()
    print("env: " + json.dumps(record))
    work_root = os.path.join(ROOT, ".bench_work")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work_root, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    details = {"env": record, "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
    metrics: dict[str, tuple[float, str]] = {}
    attempted, failures, correct = 0, [], True
    try:
        inputs.generate(args.workload, args.seed, work)
        run = Run(args, env, work)
        result_path = os.path.join(work, "result.json")
        if args.trace:
            run.worker("run", result_path, spans=stem + ".spans.jsonl")
        else:
            # set-up and cold-start samples are taken before, during and after
            # the closed loop: the loop pauses for them, so that the loop's
            # samples and theirs spread over the same stretch of the run and
            # a short fast or slow spell of the machine moves all of them less
            setup, cold = [], []
            rounds = list(PROBE_ROUNDS)

            def probe_round():
                n_setup, n_cold = rounds.pop(0)
                for k in range(max(n_setup, n_cold)):
                    if k < n_setup:
                        setup.append(run.worker("setup"))
                    if k < n_cold:
                        cold.append(run.cold_start())

            probe_round()
            setup.append(run.worker("run", result_path, pauses=len(rounds) - 1,
                                    at_pause=probe_round))
            while rounds:  # the last round, and any the loop ended too soon to pause for
                probe_round()
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        loops = [result[k] for k in ("warmup", "timed", "untraced", "traced") if k in result]
        attempted, failures = tally(loops)
        if args.trace:
            untraced, traced = result["untraced"], result["traced"]
            rates = [cycle_rate(loop) for loop in (untraced, traced)]
            metrics = {name: (value, unit) for name, (value, unit) in traced["layers"].items()}
            untraced_name, traced_name, overhead_name = TRACE_OVERHEAD
            metrics[untraced_name] = (rates[0], "1/s")
            metrics[traced_name] = (rates[1], "1/s")
            metrics[overhead_name] = ((rates[0] / rates[1] - 1.0) * 100.0, "%")
            details["reconciliation"] = traced["reconciliation"]
            details["spans"] = {"stored": traced["spans_stored"], "dropped": traced["spans_dropped"]}
            print("reconciliation: " + json.dumps(traced["reconciliation"]))
        else:
            loop = result["timed"]
            p = TAIL_PERCENTILE[args.workload]
            metrics = end_to_end(loop, p, setup, cold, result["peak_rss_kb"])
            samples = len(loop["latencies_ms"])
            beyond = samples * (1 - p / 100)
            details["tail"] = {"percentile": p, "samples": samples, "beyond": beyond}
            details["loop_pauses"] = loop["pauses"]
            details["setup_samples_s"] = setup
            details["cold_start_samples_s"] = cold
            details["op_median_ms"] = op_medians(loop)
            details["latencies_ms"] = list(zip(loop["labels"], loop["latencies_ms"]))
            print(f"latency_tail_ms is p{p:g} of {samples} samples ({beyond:.1f} beyond it"
                  f"{'' if beyond >= 10 else '; fewer than 10, run longer'})")
        details["cycles"] = sum(loop["cycles"] for loop in loops)
    except (RunError, OSError, ValueError) as exc:
        correct = False
        failures.append(f"run: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures)
    correct = correct and failed == 0 and attempted > 0
    ratio = failed / attempted if attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ops_ratio = {ratio:.6g} ({failed} of {attempted} operations)")
    for failure in failures[:20]:
        print("FAILED " + failure)
    details.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   attempted=attempted, failed=failed, failed_ops_ratio=ratio,
                   failures=failures[:200])
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
