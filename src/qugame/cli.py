"""Command-line front end.

Subcommands:

* solve     equilibria of a game document (support enumeration for finite
            games, the product-grid scan for two-qubit quantum games)
* dynamics  round-robin best-response run on a quantum game
* verify    equilibrium check of a play (quantum) or profile (finite)
* geometry  hull / boundary-coincidence report for a 3-d point cloud
* build     emit a bundled game, play, or schedule document
* sweep     dynamics across an annealing schedule, CSV out

Exit codes: 0 success (and, for verify, accepted), 1 domain failure or
rejection, 2 usage errors. All file output is atomic.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import builders, classical, gamedoc, geometry, quantum

__all__ = ["run_cli", "main"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _certificate_doc(accepted: bool, epsilon: float, gains, extra: dict) -> dict:
    doc = {
        "kind": "certificate",
        "accepted": accepted,
        "epsilon": float(epsilon),
        "per_player_gain": [float(g) for g in gains],
    }
    doc.update(extra)
    return doc


def _cmd_solve(args) -> int:
    game = gamedoc.parse_game(_read(args.input))
    if isinstance(game, classical.FiniteGame):
        certificates = classical.support_enumeration_nash(game)
        doc = {
            "kind": "equilibria",
            "game": "finite",
            "count": len(certificates),
            "equilibria": [
                {
                    "distributions": [list(map(float, d)) for d in c.profile.distributions],
                    "epsilon": c.epsilon,
                    "per_player_gain": [float(g) for g in c.per_player_gain],
                }
                for c in certificates
            ],
        }
        gamedoc.write_text_atomic(args.out, gamedoc.canonical_json(doc) + "\n")
        return 0
    report = quantum.grid_search_pure_nash(game, args.resolution, args.epsilon)
    doc = {
        "kind": "grid_search",
        "game": "quantum",
        "resolution": report.resolution,
        "epsilon": report.epsilon,
        "num_plays": report.num_plays,
        "num_equilibria": report.num_equilibria,
        "min_max_gain": report.min_max_gain,
        "best_play": [f.amplitudes for f in report.best_play().factors],
        "equilibrium_indices": [list(pair) for pair in report.equilibrium_indices],
    }
    gamedoc.write_text_atomic(args.out, gamedoc.canonical_json(doc) + "\n")
    return 0


def _cmd_dynamics(args) -> int:
    game = gamedoc.parse_game(_read(args.input))
    if not isinstance(game, quantum.QuantumGame):
        raise gamedoc.DocumentError("kind", "dynamics runs on quantum games")
    start = None
    if args.start is not None:
        start = gamedoc.parse_play(_read(args.start), game.dims)
    outcome = quantum.iterated_best_response(
        game,
        start,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
    )
    doc = {
        "kind": "dynamics_outcome",
        "status": outcome.status.value,
        "iterations": outcome.iterations,
        "period": outcome.period,
        "cycle_start": outcome.cycle_start,
        "final_play": [f.amplitudes for f in outcome.play.factors],
        "final_payoffs": np.array(outcome.trace[-1].payoffs, dtype=np.complex128),
    }
    gamedoc.write_text_atomic(args.out, gamedoc.canonical_json(doc) + "\n")
    if args.trace_out:
        gamedoc.write_trace_csv(args.trace_out, outcome.trace, game.num_players)
    return 0


def _cmd_verify(args) -> int:
    game = gamedoc.parse_game(_read(args.input))
    if isinstance(game, classical.FiniteGame):
        profile = gamedoc.parse_profile(_read(args.play), game.strategy_counts)
        certificate = classical.is_epsilon_nash(game, profile, args.epsilon)
        gains = (certificate.per_player_gain if certificate is not None
                 else classical.deviation_gains(game, profile))
        doc = _certificate_doc(certificate is not None, args.epsilon, gains, {})
    else:
        play = gamedoc.parse_play(_read(args.play), game.dims)
        certificate = quantum.verify_epsilon_nash_quantum(
            game, play, args.epsilon, num_probes=args.probes, seed=args.seed
        )
        extra = {"probes_per_player": args.probes}
        if certificate is not None:
            gains = certificate.per_player_gain
            extra["max_probe_gain"] = certificate.max_probe_gain
        else:
            gains = quantum.quantum_deviation_gains(game, play)
        doc = _certificate_doc(certificate is not None, args.epsilon, gains, extra)
    gamedoc.write_text_atomic(args.out, gamedoc.canonical_json(doc) + "\n")
    return 0 if doc["accepted"] else 1


def _cmd_geometry(args) -> int:
    geometry._check_sampling(args.boundary_samples, args.delta)
    points = gamedoc.read_point_cloud(args.input)
    hull = geometry.convex_hull(points)
    report = geometry.boundary_coincidence_check(
        points,
        num_boundary_samples=args.boundary_samples,
        delta=args.delta,
        seed=args.seed,
        hull=hull,
    )
    extremes = geometry.extreme_points(hull, points)
    doc = {
        "kind": "geometry_report",
        "num_points": int(points.shape[0]),
        "hull_vertices": int(hull.vertices.shape[0]),
        "hull_facets": int(hull.facets.shape[0]),
        "extreme_fraction": extremes.fraction,
        "coincidence": {
            "fraction": report.fraction,
            "delta": report.delta,
            "num_boundary_samples": report.num_boundary_samples,
            "threshold": report.threshold,
            "coincident": report.coincident,
            "status": report.status,
        },
    }
    gamedoc.write_text_atomic(args.out, gamedoc.canonical_json(doc) + "\n")
    return 0


def _cmd_build(args) -> int:
    if args.kind == "bell-state-prep":
        text = gamedoc.serialize_game(builders.bell_state_preparation_demo())
    elif args.kind == "grover":
        split = tuple(int(p) for p in args.split.split(","))
        if len(split) != 2:
            raise gamedoc.DocumentError("--split", "expected two comma-separated counts")
        game = builders.build_grover_game(
            args.n_qubits, args.target_index, split, iterations=args.iterations
        )
        text = gamedoc.serialize_game(game)
    elif args.kind == "adiabatic":
        game = builders.build_adiabatic_game(builders.demo_adiabatic_schedule(), args.s)
        text = gamedoc.serialize_game(game)
    elif args.kind == "alignment-demo":
        text = gamedoc.serialize_game(quantum.alignment_demo_game())
    elif args.kind == "schedule":
        text = gamedoc.serialize_schedule(builders.demo_adiabatic_schedule())
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown build kind {args.kind!r}")
    gamedoc.write_text_atomic(args.out, text + "\n")
    return 0


def _cmd_sweep(args) -> int:
    schedule = gamedoc.parse_schedule(_read(args.input))
    report = builders.sweep_adiabatic(
        schedule,
        args.starts,
        tol=args.tol,
        max_iter=args.max_iter,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    gamedoc.write_sweep_csv(args.out, report.rows)
    if args.report_out:
        doc = {
            "kind": "sweep_report",
            "rows": report.num_rows,
            "converged": report.converged,
            "verified": report.verified,
        }
        gamedoc.write_text_atomic(args.report_out, gamedoc.canonical_json(doc) + "\n")
    return 0


@functools.cache   # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qugame",
        description="Equilibria, dynamics, and geometry for classical and quantum games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, output=True) -> None:
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        if output:
            p.add_argument("--out", required=True, help="output file path")

    solve = sub.add_parser("solve", help="find equilibria of a game document")
    solve.add_argument("--input", required=True)
    solve.add_argument("--epsilon", type=float, default=0.05)
    solve.add_argument("--resolution", type=int, default=32)
    common(solve)
    solve.set_defaults(func=_cmd_solve)

    dynamics = sub.add_parser("dynamics", help="run round-robin best-response dynamics")
    dynamics.add_argument("--input", required=True)
    dynamics.add_argument("--start", help="play document to start from (default: seeded random)")
    dynamics.add_argument("--tol", type=float, default=1e-9)
    dynamics.add_argument("--max-iter", type=int, default=1000)
    dynamics.add_argument("--trace-out", help="optional CSV trace path")
    common(dynamics)
    dynamics.set_defaults(func=_cmd_dynamics)

    verify = sub.add_parser("verify", help="check a play or profile for equilibrium")
    verify.add_argument("--input", required=True)
    verify.add_argument("--play", required=True, help="play or profile document")
    verify.add_argument("--epsilon", type=float, default=1e-6)
    verify.add_argument("--probes", type=int, default=32)
    common(verify)
    verify.set_defaults(func=_cmd_verify)

    geom = sub.add_parser("geometry", help="hull and coincidence report for a point cloud")
    geom.add_argument("--input", required=True)
    geom.add_argument("--delta", type=float, default=0.05)
    geom.add_argument("--boundary-samples", type=int, default=2000)
    common(geom)
    geom.set_defaults(func=_cmd_geometry)

    build = sub.add_parser("build", help="emit a bundled document")
    build.add_argument(
        "--kind",
        required=True,
        choices=["bell-state-prep", "grover", "adiabatic", "alignment-demo", "schedule"],
    )
    build.add_argument("--n-qubits", type=int, default=2)
    build.add_argument("--target-index", type=int, default=0)
    build.add_argument("--split", default="1,1")
    build.add_argument("--iterations", type=int, default=1)
    build.add_argument("--s", type=float, default=0.0)
    common(build)
    build.set_defaults(func=_cmd_build)

    sweep = sub.add_parser("sweep", help="dynamics across an annealing schedule")
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--starts", type=int, default=5)
    sweep.add_argument("--tol", type=float, default=1e-9)
    sweep.add_argument("--max-iter", type=int, default=500)
    sweep.add_argument("--epsilon", type=float, default=1e-6)
    sweep.add_argument("--report-out", help="optional JSON summary path")
    common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
