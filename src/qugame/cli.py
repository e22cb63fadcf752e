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
import dataclasses
import functools
import sys

import numpy as np

from . import builders, classical, config, gamedoc, geometry, linalg, quantum

__all__ = ["run_cli", "main"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_doc(path: str, doc: dict | str) -> None:
    """Write a report, or a document's canonical text, and a trailing newline."""
    text = doc if isinstance(doc, str) else gamedoc.canonical_json(doc)
    gamedoc.write_text_atomic(path, text + "\n")


def _cmd_solve(args) -> int:
    config.check_threshold("epsilon", args.epsilon)   # checked for finite games too, though unused
    quantum._check_resolution(args.resolution)
    game = gamedoc.parse_game(_read(args.input))
    if isinstance(game, classical.FiniteGame):
        certificates = classical.support_enumeration_nash(game)
        _write_doc(args.out, {
            "kind": "equilibria",
            "game": "finite",
            "count": len(certificates),
            "equilibria": [
                {"distributions": c.profile.distributions, "epsilon": c.epsilon,
                 "per_player_gain": c.per_player_gain}
                for c in certificates
            ],
        })
        return 0
    report = quantum.grid_search_pure_nash(game, args.resolution, args.epsilon)
    _write_doc(args.out, {
        "kind": "grid_search",
        "game": "quantum",
        "resolution": report.resolution,
        "epsilon": report.epsilon,
        "num_plays": report.num_plays,
        "num_equilibria": report.num_equilibria,
        "num_passing": report.num_passing,
        "min_max_gain": report.min_max_gain,
        "best_play": [f.amplitudes for f in report.best_play().factors],
        "equilibrium_indices": [list(pair) for pair in report.equilibrium_indices],
    })
    return 0


def _cmd_dynamics(args) -> int:
    quantum._check_dynamics_args(args.tol, args.max_iter)
    game = gamedoc.parse_game(_read(args.input))
    if not isinstance(game, quantum.QuantumGame):
        raise gamedoc.DocumentError("kind", "dynamics runs on quantum games")
    start = None if args.start is None else gamedoc.parse_play(_read(args.start), game.dims)
    outcome = quantum.iterated_best_response(
        game,
        start,
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
    )
    _write_doc(args.out, {
        "kind": "dynamics_outcome",
        "status": outcome.status.value,
        "iterations": outcome.iterations,
        "period": outcome.period,
        "cycle_start": outcome.cycle_start,
        "final_play": [f.amplitudes for f in outcome.play.factors],
        "final_payoffs": np.array(outcome.trace[-1].payoffs, dtype=np.complex128),
    })
    if args.trace_out:
        gamedoc.write_trace_csv(args.trace_out, outcome.trace, game.num_players)
    return 0


def _cmd_verify(args) -> int:
    quantum._check_verify_args(args.epsilon, args.probes)   # --probes is unused on finite games
    game = gamedoc.parse_game(_read(args.input))
    if isinstance(game, classical.FiniteGame):
        play = gamedoc.parse_profile(_read(args.play), game.strategy_counts)
        certificate = classical.is_epsilon_nash(game, play, args.epsilon)
        extra, rejected_gains = {}, classical.deviation_gains
    else:
        play = gamedoc.parse_play(_read(args.play), game.dims)
        certificate = quantum.verify_epsilon_nash_quantum(
            game, play, args.epsilon, num_probes=args.probes, seed=args.seed
        )
        extra, rejected_gains = {"probes_per_player": args.probes}, quantum.quantum_deviation_gains
        if certificate is not None:
            extra["max_probe_gain"] = certificate.max_probe_gain
    gains = certificate.per_player_gain if certificate is not None else rejected_gains(game, play)
    _write_doc(args.out, {"kind": "certificate", "accepted": certificate is not None,
                          "epsilon": args.epsilon, "per_player_gain": gains, **extra})
    return 0 if certificate is not None else 1


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
    _write_doc(args.out, {
        "kind": "geometry_report",
        "num_points": points.shape[0],
        "hull_vertices": hull.vertices.shape[0],
        "hull_facets": hull.facets.shape[0],
        "extreme_fraction": extremes.fraction,
        "coincidence": dataclasses.asdict(report),
    })
    return 0


def _grover_text(args) -> str:
    try:
        split = tuple(int(p) for p in args.split.split(","))
    except ValueError:
        split = ()
    if len(split) != 2:
        raise gamedoc.DocumentError("--split", "expected two comma-separated counts")
    return gamedoc.serialize_game(builders.build_grover_game(
        args.n_qubits, args.target_index, split, iterations=args.iterations))


# each build kind: the flags it reads, with their defaults (every other kind
# refuses them), and the function from the parsed arguments to its document text
_BUILDS = {
    "bell-state-prep": ({}, lambda args: gamedoc.serialize_game(
        builders.bell_state_preparation_demo())),
    "grover": ({"n_qubits": 2, "target_index": 0, "split": "1,1", "iterations": 1},
               _grover_text),
    "adiabatic": ({"s": 0.0}, lambda args: gamedoc.serialize_game(
        builders.build_adiabatic_game(builders.demo_adiabatic_schedule(), args.s))),
    "alignment-demo": ({}, lambda args: gamedoc.serialize_game(quantum.alignment_demo_game())),
    "schedule": ({}, lambda args: gamedoc.serialize_schedule(
        builders.demo_adiabatic_schedule())),
}


def _cmd_build(args) -> int:
    reads, text = _BUILDS[args.kind]
    for name in (name for flags, _ in _BUILDS.values() for name in flags):
        if getattr(args, name) is None:
            setattr(args, name, reads.get(name))
        elif name not in reads:
            raise gamedoc.DocumentError("--" + name.replace("_", "-"),
                                        f"not read by --kind {args.kind}")
    _write_doc(args.out, text(args))
    return 0


def _cmd_sweep(args) -> int:
    builders._check_sweep_args(args.starts, args.tol, args.max_iter, args.epsilon)
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
        _write_doc(args.report_out, {
            "kind": "sweep_report",
            "rows": report.num_rows,
            "converged": report.converged,
            "verified": report.verified,
        })
    return 0


@functools.cache   # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qugame",
        description="Equilibria, dynamics, and geometry for classical and quantum games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seeded: bool = True) -> None:
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--out", required=True, help="output file path")

    solve = sub.add_parser("solve", help="find equilibria of a game document")
    solve.add_argument("--input", required=True)
    solve.add_argument("--epsilon", type=float, default=0.05)
    solve.add_argument("--resolution", type=int, default=32)
    common(solve, seeded=False)
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
    build.add_argument("--kind", required=True, choices=list(_BUILDS))
    # None: not given; _cmd_build applies the kind's default or refuses the flag
    build.add_argument("--n-qubits", type=int, help="grover only (default 2)")
    build.add_argument("--target-index", type=int, help="grover only (default 0)")
    build.add_argument("--split", help="grover only (default 1,1)")
    build.add_argument("--iterations", type=int, help="grover only (default 1)")
    build.add_argument("--s", type=float, help="adiabatic only (default 0)")
    common(build, seeded=False)
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
        if "seed" in args:   # dynamics, verify, geometry, sweep: checked before any input is read
            args.seed = linalg.as_rng(args.seed)
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
