"""Self-test of the benchmark's own bookkeeping.

    python3 bench/selftest.py

Checks that a deliberately wrong output, an unexpected exit code, an
exception and an output that changes between repeats of the same operation
are each counted as a failed operation, that correct operations are not,
and that the metric names in BENCHMARK.json are the ones the benchmark
reports. Exits 1 on the first broken expectation.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

import reference as ref
import run
import tracing
import worker
from workloads import Op


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def failure_accounting(qg, work: str) -> None:
    out = os.path.join(work, "bell.json")
    play = os.path.join(work, "play.json")
    with open(play, "w", encoding="utf-8") as handle:
        json.dump({"schema_version": 1, "kind": "play",
                   "factors": [[[0.6, 0.0], [0.8, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}, handle)

    def build():
        return qg.cli.run_cli(["build", "--kind", "bell-state-prep", "--out", out])

    def check_build(code, unitary):
        ref.require(code == 0, f"exit code {code}")
        with open(out, encoding="utf-8") as handle:
            doc = json.load(handle)
        ref.close(np.asarray(doc["unitary"])[..., 0], unitary, 1e-12, "unitary")
        return json.dumps(doc).encode()

    def verify_expecting_acceptance():
        return qg.cli.run_cli(["verify", "--input", out, "--play", play,
                               "--out", os.path.join(work, "cert.json")])

    counter = iter(range(1_000_000))
    ops = [
        Op("correct", build, lambda code: check_build(code, ref.bell_unitary())),
        Op("wrong-output", build, lambda code: check_build(code, ref.ALIGNMENT_UNITARY)),
        Op("unexpected-exit", verify_expecting_acceptance,
           lambda code: ref.require(code == 0, f"exit code {code}") or b""),
        Op("exception", lambda: qg.quantum.iterated_best_response(
            qg.quantum.alignment_demo_game(), None, max_iter=0), lambda result: b""),
        Op("changing-output", lambda: None, lambda result: str(next(counter)).encode()),
    ]
    digests: dict[str, str] = {}
    loops = [worker.closed_loop(ops, 1e-9, digests) for _ in range(2)]
    attempted, failures = run.tally(loops)
    failed_labels = sorted({f.split(":", 1)[0] for f in failures})
    expect(attempted == 10, f"attempted {attempted}, expected 10")
    expect(failed_labels == ["changing-output", "exception", "unexpected-exit", "wrong-output"],
           f"failed operations {failed_labels}")
    # four failures in each cycle, except the changing output on its first run
    expect(len(failures) == 7, f"{len(failures)} failures: {failures}")
    print(f"failed_ops_ratio = {len(failures) / attempted:g} ({len(failures)} of {attempted})")


def metric_names() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    loop = {"latencies_ms": [1.0, 2.0, 3.0], "labels": ["a", "b", "a"]}
    reported = set(run.end_to_end(loop, 50, [1.0], [1.0], 1024))
    expect({m["name"] for m in spec["end_to_end"]} == reported,
           f"end_to_end names differ from {sorted(reported)}")
    layers = set(tracing.layer_metrics(tracing.Tracer(), 1)) | set(run.TRACE_OVERHEAD)
    expect({m["name"] for m in spec["per_layer"]} == layers,
           f"per_layer names differ: {sorted(layers ^ {m['name'] for m in spec['per_layer']})}")
    expect({w["name"] for w in spec["workloads"]} == set(run.inputs.GENERATORS),
           "workload names differ")


def main() -> int:
    qg = worker.import_program()
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        failure_accounting(qg, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metric_names()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
