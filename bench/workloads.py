"""Operation cycles of the three workloads, with their output checks.

An operation is one ``qugame.cli.run_cli`` call or one top-level library
call. ``call`` is the timed part. ``check`` runs after the clock stops: it
compares the output with :mod:`reference` and returns the bytes that must
repeat exactly whenever the same operation runs again in the same run.

Program entry points are looked up on the module at call time, so the
traced run's wrappers are seen without any change here.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref
from reference import require


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bytes]


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _read_bytes(*paths: str) -> bytes:
    out = b""
    for path in paths:
        with open(path, "rb") as handle:
            out += handle.read()
    return out


def _vec(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def _play(pairs) -> tuple[np.ndarray, np.ndarray]:
    a, b = (_vec(f) for f in pairs)
    for f in (a, b):
        require(abs(np.linalg.norm(f) - 1.0) <= 1e-9, "play factor is not unit norm")
    return a, b


def _expect_exit(code, expected: int) -> None:
    require(code == expected, f"exit code {code!r}, expected {expected}")


def _payoff_specs(doc: dict):
    specs = []
    for spec in doc["payoffs"]:
        (kind, data), = spec.items()
        specs.append((kind, _vec(data) if kind == "overlap" else np.asarray(data, float)))
    return specs


class Cache(dict):
    def get_or(self, key, make):
        if key not in self:
            self[key] = make()
        return self[key]


# ----------------------------------------------------------- small-games-cli ---

def small_games_cli(qg, manifest: dict, work: str) -> list[Op]:
    cli = qg.cli
    seeds = manifest["seeds"]
    cache = Cache()
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(work, name)

    def out(label, ext="json"):
        return os.path.join(out_dir, f"{label}.{ext}")

    bell = ref.QuantumReference((2, 2), ref.bell_unitary(), [("overlap", ref.bell_target())] * 2)
    alignment = ref.QuantumReference(
        (2, 2),
        ref.ALIGNMENT_UNITARY,
        [("observable", ref.ALIGNMENT_EIGENVALUES), ("observable", -ref.ALIGNMENT_EIGENVALUES)],
    )
    ground, rest = ref.adiabatic_targets()

    def adiabatic(s):
        return cache.get_or(("adiabatic", s), lambda: ref.QuantumReference(
            (2, 2), ref.adiabatic_unitary(s), [("overlap", ground), ("overlap", rest)]))

    def run(argv):
        return lambda: cli.run_cli(argv)

    ops: list[Op] = []

    # build: compare the emitted document with the independently built game
    def check_game_doc(label, unitary, specs, tol):
        def check(code):
            _expect_exit(code, 0)
            doc = _load_json(out(label))
            require(doc["kind"] == "quantum" and doc["dims"] == [2, 2], "wrong game header")
            ref.close(_vec(doc["unitary"]), unitary, tol, "unitary")
            for (kind, data), (want_kind, want) in zip(_payoff_specs(doc), specs):
                require(kind == want_kind, f"payoff kind {kind} != {want_kind}")
                ref.close(data, want, tol, "payoff data")
            return _read_bytes(out(label))
        return check

    s0 = manifest["adiabatic_s"][0]
    builds = [
        ("build-bell", ["--kind", "bell-state-prep"],
         check_game_doc("build-bell", ref.bell_unitary(),
                        [("overlap", ref.bell_target())] * 2, 1e-12)),
        ("build-alignment", ["--kind", "alignment-demo"],
         check_game_doc("build-alignment", ref.ALIGNMENT_UNITARY,
                        [("observable", ref.ALIGNMENT_EIGENVALUES),
                         ("observable", -ref.ALIGNMENT_EIGENVALUES)], 1e-12)),
        ("build-adiabatic", ["--kind", "adiabatic", "--s", repr(s0)],
         check_game_doc("build-adiabatic", ref.adiabatic_unitary(s0),
                        [("overlap", ground), ("overlap", rest)], 1e-10)),
    ]
    for label, args, check in builds:
        ops.append(Op(label, run(["build", *args, "--out", out(label)]), check))

    def check_schedule(code):
        _expect_exit(code, 0)
        doc = _load_json(out("build-schedule"))
        ref.close(_vec(doc["h_initial"]), ref.H_INITIAL, 1e-15, "h_initial")
        ref.close(_vec(doc["h_final"]), ref.H_FINAL, 1e-15, "h_final")
        ref.close(doc["s_values"], ref.SCHEDULE_S, 0.0, "s_values")
        require(doc["time"] == ref.SCHEDULE_TIME, "schedule time")
        return _read_bytes(out("build-schedule"))

    ops.append(Op("build-schedule",
                  run(["build", "--kind", "schedule", "--out", out("build-schedule")]),
                  check_schedule))

    # dynamics: the final play is re-examined with the reference game
    def check_dynamics(label, game_ref, statuses, trace):
        def check(code):
            _expect_exit(code, 0)
            doc = _load_json(out(label))
            require(doc["status"] in statuses, f"status {doc['status']!r} not in {statuses}")
            play = _play(doc["final_play"])
            payoffs = [complex(*p) for p in doc["final_payoffs"]]
            ref.close(payoffs, [game_ref.payoff(play, i) for i in range(2)], 1e-9, "final payoffs")
            ref.check_dynamics_play(game_ref, play, doc["status"], doc["period"], 1e-6)
            files = [out(label)]
            if trace:
                with open(out(label, "csv"), newline="") as handle:
                    rows = list(csv.reader(handle))
                require(len(rows[0]) == 6 and rows[0][0] == "sweep", "trace header")
                require(len(rows) == doc["iterations"] + 1, "one trace row per sweep")
                if doc["status"] == "converged":
                    require(float(rows[-1][-1]) <= 1e-9, "converged trace ends with a large step")
                files.append(out(label, "csv"))
            return _read_bytes(*files)
        return check

    for k, seed in enumerate(seeds["bell"]):
        label = f"dynamics-bell{k}"
        argv = ["dynamics", "--input", path("bell.json"), "--seed", str(seed),
                "--trace-out", out(label, "csv"), "--out", out(label)]
        ops.append(Op(label, run(argv), check_dynamics(label, bell, ("converged",), True)))
    for k, seed in enumerate(seeds["alignment"]):
        label = f"dynamics-alignment{k}"
        argv = ["dynamics", "--input", path("alignment.json"), "--seed", str(seed),
                "--out", out(label)]
        ops.append(Op(label, run(argv), check_dynamics(label, alignment, ("cycle_detected",), False)))
    for k, s in enumerate(manifest["adiabatic_s"]):
        for j, seed in enumerate(seeds["adiabatic"]):
            label = f"dynamics-adiabatic{k}-{j}"
            argv = ["dynamics", "--input", path(f"adiabatic{k}.json"), "--seed", str(seed),
                    "--out", out(label)]
            ops.append(Op(label, run(argv), check_dynamics(
                label, adiabatic(s), ("converged", "cycle_detected"), False)))

    # verify: accepted exactly when the reference gains are within epsilon
    zero = np.array([1.0, 0.0], dtype=np.complex128)
    plays = [("bell_play.json", (zero, zero), True)] * 4 + [
        (f"perturbed{k}.json", tuple(_vec(f) for f in factors), False)
        for k, factors in enumerate(manifest["perturbed"])
    ]
    for k, ((name, play, accepted), seed) in enumerate(zip(plays, seeds["verify"])):
        label = f"verify{k}"

        def check_verify(code, label=label, play=play, accepted=accepted):
            _expect_exit(code, 0 if accepted else 1)
            doc = _load_json(out(label))
            gains = bell.gains(play)
            require(doc["accepted"] is accepted, f"accepted={doc['accepted']!r}")
            require(bool(gains.max() <= 1e-6) == accepted, f"reference gain {gains.max():.3e}")
            ref.close(doc["per_player_gain"], gains, 1e-9, "per-player gains")
            return _read_bytes(out(label))

        argv = ["verify", "--input", path("bell.json"), "--play", path(name),
                "--seed", str(seed), "--out", out(label)]
        ops.append(Op(label, run(argv), check_verify))

    # solve: finite games against the reference enumeration, the grid scan
    # against the reference grid tables
    for k, (a, b) in enumerate(manifest["finite"]):
        ops.append(_finite_solve_op(cli, f"solve-finite{k}", path(f"finite{k}.json"),
                                    np.array(a), np.array(b), out, cache))

    resolution, epsilon = 32, 0.05

    def check_grid(code):
        _expect_exit(code, 0)
        doc = _load_json(out("solve-bell"))
        worst = cache.get_or("grid", lambda: ref.grid_worst_gain(bell, resolution))
        require(doc["num_plays"] == worst.size, "grid size")
        reported = doc["equilibrium_indices"]
        for a, b in reported:
            require(worst[a, b] <= epsilon + 1e-9, f"grid play ({a},{b}) is no equilibrium")
        low = min(64, int((worst <= epsilon - 1e-9).sum()))
        high = min(64, int((worst <= epsilon + 1e-9).sum()))
        require(low <= doc["num_equilibria"] == len(reported) <= high, "equilibrium count")
        require(abs(doc["min_max_gain"] - worst.min()) <= 1e-9, "min-max gain")
        best = _play(doc["best_play"])
        grid = ref.grid_states(resolution)
        p = bell.pulled[0]
        now = abs(best[0] @ p.conj() @ best[1])
        gain = max(np.abs(grid @ p.conj() @ best[1]).max(),
                   np.abs(best[0] @ p.conj() @ grid.T).max()) - now
        require(gain <= worst.min() + 1e-9, "best play is not the min-max play")
        return _read_bytes(out("solve-bell"))

    ops.append(Op("solve-bell", run(["solve", "--input", path("bell.json"), "--resolution",
                                     str(resolution), "--epsilon", str(epsilon),
                                     "--out", out("solve-bell")]), check_grid))

    # sweep: equilibrium rows must pay one of the reference fixed-point values
    starts = 3

    def check_sweep(code, label):
        _expect_exit(code, 0)
        with open(out(label, "csv"), newline="") as handle:
            rows = list(csv.reader(handle))
        require(rows[0][:4] == ["s", "start_id", "outcome", "iterations"], "sweep header")
        rows = rows[1:]
        require(len(rows) == starts * len(ref.SCHEDULE_S), f"{len(rows)} sweep rows")
        for n, row in enumerate(rows):
            s = ref.SCHEDULE_S[n // starts]
            require(float(row[0]) == s and int(row[1]) == n % starts, "row order")
            require(row[2] in ("converged", "cycle_detected", "cycle_resolved", "max_iterations"),
                    f"outcome {row[2]!r}")
            value = abs(complex(float(row[4]), float(row[5])))
            require(value <= 1 + 1e-9 and 0 <= float(row[6]) <= 1 + 1e-9, "payoff range")
            if row[2] in ("converged", "cycle_resolved"):
                mags = adiabatic_mags(s)
                if mags is not None:
                    require(min(abs(value - m) for m in mags + [0.0]) <= 1e-6,
                            f"row {n}: payoff {value} is no equilibrium payoff")
        report = _load_json(out(label + "-report"))
        require(report["rows"] == len(rows) and 0 <= report["verified"] <= len(rows), "sweep report")
        return _read_bytes(out(label, "csv"), out(label + "-report"))

    def adiabatic_mags(s):
        return cache.get_or(("mags", s), lambda: ref.fixed_point_magnitudes(adiabatic(s)))

    for k, seed in enumerate(seeds["sweep"]):
        label = f"sweep{k}"
        argv = ["sweep", "--input", path("schedule.json"), "--starts", str(starts),
                "--seed", str(seed), "--report-out", out(label + "-report"),
                "--out", out(label, "csv")]
        ops.append(Op(label, run(argv), lambda code, label=label: check_sweep(code, label)))
    return ops


def _finite_solve_op(cli, label, doc_path, a, b, out, cache) -> Op:
    def check(code):
        _expect_exit(code, 0)
        doc = _load_json(out(label))
        found = [tuple(np.array(d) for d in eq["distributions"]) for eq in doc["equilibria"]]
        require(doc["count"] == len(found), "equilibrium count field")
        for (x, y), eq in zip(found, doc["equilibria"]):
            require(ref.best_reply_gaps(a, b, x, y).max() <= 1e-8, "best-reply gap above 1e-8")
            require(max(eq["per_player_gain"]) <= 1e-8, "certified gain above 1e-8")
        ref.match_equilibria(found, cache.get_or(label, lambda: ref.finite_equilibria(a, b)))
        return _read_bytes(out(label))

    return Op(label, lambda: cli.run_cli(["solve", "--input", doc_path, "--out", out(label)]), check)


# ------------------------------------------------------------- qudit-scaling ---

MAX_ITER = {16: 20, 32: 3}


def _amplitudes(play) -> bytes:
    return b"".join(f.amplitudes.tobytes() for f in play.factors)


def qudit_scaling(qg, manifest: dict, work: str) -> list[Op]:
    quantum, linalg = qg.quantum, qg.linalg
    games, refs, starts = {}, {}, {}

    def load(name, key):
        return np.load(os.path.join(work, f"{name}.{key}.npy"))

    for name, info in manifest["games"].items():
        side = info["side"]
        u, eig0 = load(name, "unitary"), load(name, "eig0")
        second = (("overlap", load(name, "target1")) if info["mixed"]
                  else ("observable", load(name, "eig1")))
        payoffs = [quantum.ObservablePayoff(eig0)]
        payoffs.append(quantum.OverlapPayoff(linalg.PureState(second[1])) if info["mixed"]
                       else quantum.ObservablePayoff(second[1]))
        games[name] = quantum.QuantumGame((side, side), linalg.UnitaryOperator(u), payoffs)
        refs[name] = (lambda u=u, eig0=eig0, second=second, side=side:
                      ref.QuantumReference((side, side), u, [("observable", eig0), second]))
        starts[name] = [linalg.ProductPlay([linalg.PureState(f) for f in pair])
                        for pair in load(name, "starts")]
    grover = qg.builders.build_grover_game(10, 5, (5, 5))
    cache = Cache()

    def reference(name):
        return cache.get_or(name, refs[name])

    def grover_reference():
        n = 1 << 10
        oracle = np.eye(n)
        oracle[5, 5] = -1.0
        marked = np.zeros(n)
        marked[5] = 1.0
        unmarked = np.full(n, 1.0 / math.sqrt(n - 1))
        unmarked[5] = 0.0
        u = (np.full((n, n), 2.0 / n) - np.eye(n)) @ oracle
        return ref.QuantumReference((32, 32), u, [("overlap", marked), ("overlap", unmarked)])

    results: dict[str, Any] = {}
    ops: list[Op] = []
    seeds = iter(manifest["verify_seeds"])
    epsilon = 1e-6
    for name, info in manifest["games"].items():
        game = games[name]
        max_iter = MAX_ITER[info["side"]]
        for k, start in enumerate(starts[name]):
            label = f"dynamics-{name}-{k}"

            def dynamics(game=game, start=start, max_iter=max_iter, label=label):
                results[label] = quantum.iterated_best_response(game, start, max_iter=max_iter)
                return results[label]

            def check_dynamics(outcome, name=name, max_iter=max_iter):
                game_ref = reference(name)
                play = tuple(f.amplitudes for f in outcome.play.factors)
                status = outcome.status.value
                require(1 <= outcome.iterations <= max_iter, "iteration count")
                require(len(outcome.trace) == outcome.iterations, "one trace record per sweep")
                ref.close(outcome.trace[-1].payoffs, [game_ref.payoff(play, i) for i in range(2)],
                          1e-9, "last trace payoffs")
                ref.check_dynamics_play(game_ref, play, status, outcome.period, 1e-8)
                return status.encode() + bytes([outcome.iterations]) + _amplitudes(outcome.play)

            ops.append(Op(label, dynamics, check_dynamics))

            def verify(game=game, label=label, seed=next(seeds)):
                return quantum.verify_epsilon_nash_quantum(
                    game, results[label].play, epsilon, num_probes=32, seed=seed)

            def check_verify(cert, name=name, label=label):
                play = tuple(f.amplitudes for f in results[label].play.factors)
                gains = reference(name).gains(play)
                if abs(gains.max() - epsilon) > 1e-9:
                    require((cert is not None) == (gains.max() <= epsilon),
                            f"verdict disagrees with reference gain {gains.max():.3e}")
                if cert is None:
                    return b"rejected"
                ref.close(cert.per_player_gain, gains, 1e-8, "certificate gains")
                return np.array([*cert.per_player_gain, cert.max_probe_gain]).tobytes()

            ops.append(Op(f"verify-{name}-{k}", verify, check_verify))

    def check_candidates(plays):
        game_ref = cache.get_or("grover", grover_reference)
        require(len(plays) >= 1, "no fixed-point candidates")
        for play in plays:
            gains = game_ref.gains(tuple(f.amplitudes for f in play.factors))
            require(gains.max() <= 1e-9, f"candidate is no mutual best response ({gains.max():.3e})")
        return b"".join(_amplitudes(p) for p in plays)

    ops.append(Op("fixed-points-grover",
                  lambda: quantum.overlap_fixed_point_candidates(grover), check_candidates))

    def round_trip():
        text = qg.gamedoc.serialize_game(games["obs256"])
        return text, qg.gamedoc.parse_game(text)

    def check_round_trip(result):
        text, game = result
        require(game.dims == (16, 16), "round-trip dims")
        require(np.array_equal(game.unitary.matrix, load("obs256", "unitary")), "round-trip unitary")
        for spec, key in zip(game.payoffs, ("eig0", "eig1")):
            require(np.array_equal(spec.eigenvalues, load("obs256", key)), "round-trip eigenvalues")
        return text.encode()

    ops.append(Op("round-trip-obs256", round_trip, check_round_trip))
    return ops


# -------------------------------------------------------- classical-geometry ---

GEOMETRY = (  # cloud, --delta, expect coincident
    ("sphere1000", 0.2, True),
    ("sphere4000", 0.1, True),
    ("cap1000", 0.2, False),
)


def classical_geometry(qg, manifest: dict, work: str) -> list[Op]:
    cli, classical = qg.cli, qg.classical
    cache = Cache()
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)

    def out(label, ext="json"):
        return os.path.join(out_dir, f"{label}.{ext}")

    ops: list[Op] = []
    for k, spec in enumerate(manifest["convexity"]):
        tensors = np.load(os.path.join(work, f"convexity{k}.npy"))
        game = classical.FiniteGame(list(tensors))
        base = classical.MixedProfile([np.full(c, 1.0 / c) for c in spec["counts"]])
        samples = 500

        def convexity(game=game, base=base, seed=spec["seed"]):
            return classical.verify_countering_convexity(game, base, samples, seed)

        def check_convexity(report):
            require(report.failures == 0, f"{report.failures} convex combinations fail to counter")
            require(not report.shortfall and report.performed == samples == report.passes,
                    f"{report.performed} of {samples} combinations performed")
            return repr((report.performed, report.passes, report.rejected_draws)).encode()

        ops.append(Op(f"convexity{k}", convexity, check_convexity))

    for k, (a, b) in enumerate(manifest["solves"]):
        ops.append(_finite_solve_op(cli, f"solve-finite{k}", os.path.join(work, f"finite{k}.json"),
                                    np.array(a), np.array(b), out, cache))

    for (name, delta, coincident), seed in zip(GEOMETRY, manifest["geometry_seeds"]):
        cloud = os.path.join(work, f"{name}.csv")
        label = f"geometry-{name}"

        def check_geometry(code, name=name, cloud=cloud, label=label, coincident=coincident):
            _expect_exit(code, 0)
            doc = _load_json(out(label))
            points = cache.get_or(name, lambda: np.loadtxt(cloud, delimiter=",", skiprows=1))
            vertices, facets = cache.get_or(("hull", name), lambda: ref.hull_counts(points))
            require(doc["num_points"] == len(points), "point count")
            require((doc["hull_vertices"], doc["hull_facets"]) == (vertices, facets),
                    f"hull {doc['hull_vertices']}/{doc['hull_facets']}, expected {vertices}/{facets}")
            require(abs(doc["extreme_fraction"] - vertices / len(points)) <= 1e-12,
                    "extreme fraction")
            report = doc["coincidence"]
            require(report["coincident"] is coincident, f"coincident={report['coincident']!r}")
            require((report["fraction"] >= report["threshold"]) is coincident,
                    "fraction vs threshold")
            return _read_bytes(out(label))

        argv = ["geometry", "--input", cloud, "--delta", str(delta), "--seed", str(seed),
                "--out", out(label)]
        ops.append(Op(label, lambda argv=argv: cli.run_cli(argv), check_geometry))
    return ops


CYCLES = {
    "small-games-cli": small_games_cli,
    "qudit-scaling": qudit_scaling,
    "classical-geometry": classical_geometry,
}

# Tail percentile of each workload. It is fixed, so that runs and commits
# compare the same percentile, and chosen so that at the operation count of
# a 20 s baseline run (about 800, 100 and 80) at least 10 samples lie beyond
# it and it falls in the middle of one group of like operations: the
# schedule sweeps (small-games-cli), the d=1024 observable dynamics
# (qudit-scaling) and the 1000-point geometry calls (classical-geometry).
TAIL_PERCENTILE = {"small-games-cli": 95, "qudit-scaling": 85, "classical-geometry": 80}
