"""Seeded input generation for the three workloads.

Everything is drawn with numpy from the workload seed and written into the
run's work directory: JSON game/play/schedule documents, CSV point clouds
and ``.npy`` arrays. The program only ever sees these files. The manifest
returned by :func:`generate` lists them together with the seeded arguments
of each operation; the same seed gives the same files and arguments.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref

SCHEMA = 1


def _pairs(v) -> list:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in v]
    return [_pairs(row) for row in v]


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def quantum_doc(dims, unitary, specs) -> dict:
    payoffs = []
    for kind, data in specs:
        if kind == "overlap":
            payoffs.append({"overlap": _pairs(data)})
        else:
            payoffs.append({"observable": [float(e) for e in data]})
    return {
        "schema_version": SCHEMA,
        "kind": "quantum",
        "dims": list(dims),
        "unitary": _pairs(unitary),
        "payoffs": payoffs,
    }


def finite_doc(a: np.ndarray, b: np.ndarray) -> dict:
    return {
        "schema_version": SCHEMA,
        "kind": "finite",
        "strategy_counts": list(a.shape),
        "payoff_tensors": [a.tolist(), b.tolist()],
    }


def play_doc(factors) -> dict:
    return {"schema_version": SCHEMA, "kind": "play", "factors": [_pairs(f) for f in factors]}


def schedule_doc() -> dict:
    return {
        "schema_version": SCHEMA,
        "kind": "schedule",
        "h_initial": _pairs(ref.H_INITIAL),
        "h_final": _pairs(ref.H_FINAL),
        "s_values": list(ref.SCHEDULE_S),
        "time": ref.SCHEDULE_TIME,
    }


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    return ref.canonical(rng.standard_normal(d) + 1j * rng.standard_normal(d))


def bloch_cloud(n: int, rng: np.random.Generator, min_z: float | None = None) -> np.ndarray:
    """Bloch vectors of Haar qubit states; ``min_z`` keeps a polar cap only."""
    kept = []
    while sum(len(k) for k in kept) < n:
        psi = rng.standard_normal((2 * n, 2)) + 1j * rng.standard_normal((2 * n, 2))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        cross = psi[:, 0].conj() * psi[:, 1]
        pts = np.stack(
            [2 * cross.real, 2 * cross.imag, np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2],
            axis=1,
        )
        if min_z is not None:
            pts = pts[pts[:, 2] > min_z]
        kept.append(pts)
    return np.concatenate(kept)[:n]


def _write_cloud(path: str, points: np.ndarray) -> None:
    lines = ["x,y,z"] + [",".join(repr(float(c)) for c in p) for p in points]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


# -------------------------------------------------------------- workloads ---

def small_games_cli(rng: np.random.Generator, work: str) -> dict:
    _write_json(os.path.join(work, "bell.json"), quantum_doc(
        (2, 2), ref.bell_unitary(), [("overlap", ref.bell_target())] * 2))
    _write_json(os.path.join(work, "alignment.json"), quantum_doc(
        (2, 2), ref.ALIGNMENT_UNITARY,
        [("observable", ref.ALIGNMENT_EIGENVALUES), ("observable", -ref.ALIGNMENT_EIGENVALUES)]))
    ground, rest = ref.adiabatic_targets()
    adiabatic_s = [float(s) for s in np.round(rng.uniform(0.05, 0.95, size=3), 6)]
    for k, s in enumerate(adiabatic_s):
        _write_json(os.path.join(work, f"adiabatic{k}.json"), quantum_doc(
            (2, 2), ref.adiabatic_unitary(s), [("overlap", ground), ("overlap", rest)]))
    _write_json(os.path.join(work, "schedule.json"), schedule_doc())
    finite = []
    for k in range(4):
        a, b = rng.standard_normal((2, 3, 3))
        _write_json(os.path.join(work, f"finite{k}.json"), finite_doc(a, b))
        finite.append([a.tolist(), b.tolist()])
    zero = np.array([1.0, 0.0], dtype=np.complex128)
    _write_json(os.path.join(work, "bell_play.json"), play_doc([zero, zero]))
    perturbed = []
    for k in range(4):
        theta = rng.uniform(0.2, 1.2, size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
        factors = [np.array([math.cos(t), np.exp(1j * p) * math.sin(t)])
                   for t, p in zip(theta, phase)]
        _write_json(os.path.join(work, f"perturbed{k}.json"), play_doc(factors))
        perturbed.append([_pairs(f) for f in factors])
    return {
        "adiabatic_s": adiabatic_s,
        "finite": finite,
        "perturbed": perturbed,
        "seeds": {
            "bell": _seeds(rng, 6),
            "alignment": _seeds(rng, 6),
            "adiabatic": _seeds(rng, 2),
            "verify": _seeds(rng, 8),
            "sweep": _seeds(rng, 3),
        },
    }


def qudit_scaling(rng: np.random.Generator, work: str) -> dict:
    games = {}
    for name, side, mixed in (("obs256", 16, False), ("obs1024", 32, False), ("mix1024", 32, True)):
        d = side * side
        arrays = {"unitary": haar_unitary(d, rng), "eig0": rng.uniform(-1.0, 1.0, d)}
        if mixed:
            arrays["target1"] = haar_state(d, rng)
        else:
            arrays["eig1"] = rng.uniform(-1.0, 1.0, d)
        starts = 4 if side == 16 else 1 if mixed else 2
        arrays["starts"] = np.array(
            [[haar_state(side, rng) for _ in range(2)] for _ in range(starts)])
        for key, value in arrays.items():
            np.save(os.path.join(work, f"{name}.{key}.npy"), value)
        games[name] = {"side": side, "mixed": mixed, "starts": starts}
    return {"games": games, "verify_seeds": _seeds(rng, 8)}


# Player counts of the convexity games. The 3-player calls are the cycle's
# middle group of latencies; with two 2-player games there are as many calls
# below that group (two 2-player, two 6x6 solves) as above it (three geometry
# calls, the 8x8 solve), so the median of the 16 latencies falls in the
# middle of the group and not at its edge, where it would jump from run to run.
CONVEXITY_PLAYERS = (2, 3, 3, 3, 3, 2, 3, 3, 3, 3)


def classical_geometry(rng: np.random.Generator, work: str) -> dict:
    solves = []
    for k, n in enumerate((6, 6, 8)):
        a, b = rng.standard_normal((2, n, n))
        _write_json(os.path.join(work, f"finite{k}.json"), finite_doc(a, b))
        solves.append([a.tolist(), b.tolist()])
    clouds = {
        "sphere1000": bloch_cloud(1000, rng),
        "sphere4000": bloch_cloud(4000, rng),
        "cap1000": bloch_cloud(1000, rng, min_z=0.5),
    }
    for name, pts in clouds.items():
        _write_cloud(os.path.join(work, f"{name}.csv"), pts)
    convexity = []
    for k, players in enumerate(CONVEXITY_PLAYERS):
        counts = [int(c) for c in rng.integers(2, 5, size=players)]
        tensors = rng.standard_normal([players] + counts)
        np.save(os.path.join(work, f"convexity{k}.npy"), tensors)
        convexity.append({"counts": counts, "seed": _seeds(rng, 1)[0]})
    return {"solves": solves, "convexity": convexity, "geometry_seeds": _seeds(rng, 3)}


GENERATORS = {
    "small-games-cli": small_games_cli,
    "qudit-scaling": qudit_scaling,
    "classical-geometry": classical_geometry,
}


def generate(workload: str, seed: int, work: str) -> dict:
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    manifest = GENERATORS[workload](rng, work)
    manifest.update(workload=workload, seed=seed)
    _write_json(os.path.join(work, "manifest.json"), manifest)
    return manifest
