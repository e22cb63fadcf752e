"""End-to-end checks of the command line front end.

Everything runs in-process through run_cli against files in tmp_path; a few
tests go through a real subprocess: one covers the module entry point, one
sees which subcommands load scipy in a fresh interpreter, some run with every
warning an error, and one runs `solve` at one and at two BLAS threads.
"""
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qugame
from qugame import builders as bld
from qugame import classical, geometry, quantum
from qugame import gamedoc as gd
from qugame.classical import FiniteGame
from qugame.config import DEFAULT_TOLS
from qugame.cli import run_cli
from qugame.linalg import PureState
from qugame.quantum import ProductPlay

TRACE_HEADER = "sweep,payoff_p1_re,payoff_p1_im,payoff_p2_re,payoff_p2_im,step_distance"
SWEEP_HEADER = (
    "s,start_id,outcome,iterations,"
    "payoff_player1_re,payoff_player1_im,ground_overlap_magnitude"
)

MATCHING_PENNIES = FiniteGame(
    [np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]])]
)


def run(*argv) -> int:
    return run_cli([str(a) for a in argv])


def build(tmp_path, kind, *extra):
    out = tmp_path / f"{kind}.json"
    assert run("build", "--kind", kind, *extra, "--out", out) == 0
    return out


def load(path) -> dict:
    return json.loads(path.read_text())


# ----------------------------------------------------------------- build ---

def test_build_kinds_emit_round_trippable_documents(tmp_path):
    games = [
        build(tmp_path, "bell-state-prep"),
        build(tmp_path, "grover", "--n-qubits", 3, "--target-index", 2,
              "--split", "1,2", "--iterations", 2),
        build(tmp_path, "alignment-demo"),
        build(tmp_path, "adiabatic", "--s", 0.5),
    ]
    for path in games:
        text = path.read_text()
        assert gd.serialize_game(gd.parse_game(text)) + "\n" == text
    sched = build(tmp_path, "schedule")
    text = sched.read_text()
    assert gd.serialize_schedule(gd.parse_schedule(text)) + "\n" == text


def test_build_grover_rejects_bad_split(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = run("build", "--kind", "grover", "--n-qubits", 3, "--split", "1,1",
             "--out", out)
    assert rc == 1
    assert not out.exists()
    for split in ("a,b", "1", "1,2,3"):
        capsys.readouterr()
        assert run("build", "--kind", "grover", "--n-qubits", 3, "--split", split,
                   "--out", out) == 1
        assert capsys.readouterr().err == "error: --split: expected two comma-separated counts\n"
        assert not out.exists()


BUILD_KINDS = ("bell-state-prep", "grover", "adiabatic", "alignment-demo", "schedule")
# each kind-specific flag with a value its own kind accepts
KIND_FLAGS = {"grover": (("--n-qubits", "3"), ("--target-index", "1"), ("--split", "1,2"),
                         ("--iterations", "2")),
              "adiabatic": (("--s", "0.5"),)}
MISPLACED = [(kind, flag, value) for owner, flags in KIND_FLAGS.items() for flag, value in flags
             for kind in BUILD_KINDS if kind != owner]


@pytest.mark.parametrize("kind,flag,value", MISPLACED, ids=" ".join)
def test_build_refuses_a_flag_its_kind_does_not_read(tmp_path, capsys, kind, flag, value):
    out = tmp_path / "doc.json"
    assert run("build", "--kind", kind, flag, value, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {flag}: not read by --kind {kind}\n"
    assert not out.exists()


def test_solve_and_build_take_no_seed(tmp_path):
    # neither draws a random number, so --seed is an unknown argument there
    bell = build(tmp_path, "bell-state-prep")
    out = tmp_path / "x.json"
    assert run("build", "--kind", "bell-state-prep", "--seed", 3, "--out", out) == 2
    assert run("solve", "--input", bell, "--seed", 3, "--out", out) == 2
    assert not out.exists()


def test_build_grover_refuses_too_many_qubits_before_allocating(tmp_path, monkeypatch, capsys):
    # 16 qubits split 8,8 passes the split check; the iterate would need two
    # 2**16 x 2**16 float arrays (32 GiB each), so nothing may be allocated
    def refuse(*args, **kwargs):
        raise AssertionError("np.eye reached for an oversized register")

    monkeypatch.setattr(bld.np, "eye", refuse)
    out = tmp_path / "g.json"
    rc = run("build", "--kind", "grover", "--n-qubits", 16, "--split", "8,8", "--out", out)
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: 16 qubits exceed the limit of {bld.MAX_QUBITS}\n"
    assert not out.exists()
    with pytest.raises(ValueError, match="limit"):
        bld.grover_iterate(bld.MAX_QUBITS + 1, 0)


# sha256 of `build` output as first written by the element-by-element codec;
# a codec change must leave every byte of these documents where it was
BUILD_DIGESTS = {
    ("bell-state-prep",): "b5ae866da683b98404a96f29b89a92a883bfce50886b050077db50bb11953918",
    ("grover",): "83ed87aec21f395067323fcb8f195e1cb43f17c71744ade13a2a7d6fab7af834",
    ("adiabatic",): "cdc7e912ab8a204622cf5d4aa81f829eeeea2046abf1469016c6d4f7190f657c",
    ("adiabatic", "--s", "0.3"):
        "c3a912737b33468d0ee116e9f478d6aaf429778abb617320e4bdd36c17f54e92",
    ("alignment-demo",): "d0843f0c50733448051f8839e4b33a6ac000982dfac9a0a9d7e2e46f7ee0329e",
    ("schedule",): "f7d692b4ab255adf46141c2be848ccb6631a18bb7542c47e99024a084e25ea03",
    ("grover", "--n-qubits", "6", "--target-index", "37", "--split", "2,4", "--iterations", "2"):
        "12676decf270b16798cac3395138977db4b753a92eaed9535e85562672b35f0a",
}


@pytest.mark.parametrize("args", list(BUILD_DIGESTS), ids=" ".join)
def test_build_bytes_are_pinned(tmp_path, args):
    out = tmp_path / "doc.json"
    assert run("build", "--kind", *args, "--out", out) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == BUILD_DIGESTS[args]
    if args[0] == "grover" and len(args) > 1:
        again = gd.serialize_game(gd.parse_game(data.decode())) + "\n"
        assert hashlib.sha256(again.encode()).hexdigest() == BUILD_DIGESTS[args]


# sha256 of `verify` and `solve` output on the Bell game as written before the
# probes were drawn as one array and the overlap grid tables were factored;
# both changes must leave every byte of these documents where it was. The
# alignment demo's digest is that of its Bloch-form observable tables, which
# break the scan's near-ties differently from the joint-state einsum they replaced.
# The three `solve` digests were re-taken when the document gained `num_passing`
# after `num_equilibria`; with that key removed, each document keeps its old bytes
BELL_DIGESTS = {
    ("verify", "equilibrium"):
        "6a8c2ecc721bf174d5e80becd34d735439bb6858b91f3e8d5ede9cf8b8e53ae8",
    ("verify", "equilibrium", "--probes", "8", "--seed", "2"):
        "b98a5ed10464bd61363f47e3cdaa18980a2afb9b99887e16260e02f002245cfe",
    ("verify", "off", "--probes", "8", "--seed", "2"):
        "6d52aad4d74754af1b58abd91c45393fb5cfa262ac0d887117411128e2d9f7c7",
    ("verify", "equilibrium", "--probes", "0"):
        "aef24387666d10da895212b14194c5c4c1ac98933ee454de068fdb027f583237",
    ("solve", "bell-state-prep", "--resolution", "16"):
        "036c027bd8b22f7353f0abe33afcdee685648bc42341e721b1e75a2cf3d981a4",
    ("solve", "bell-state-prep", "--resolution", "32"):
        "c033258710a2920379b78c8e3ce39189958adc29fe06f4e31faba31bde6c29aa",
    ("solve", "alignment-demo", "--resolution", "32"):
        "f40396bddbb501f68329d4f3da06770d7cee52ddfe02dffff9da87b8fa4ff175",
}


@pytest.mark.parametrize("args", list(BELL_DIGESTS), ids=" ".join)
def test_verify_and_solve_bytes_are_pinned(tmp_path, args):
    out = tmp_path / "doc.json"
    if args[0] == "verify":
        plays = {"equilibrium": ([1, 0], [1, 0]), "off": ([0, 1], [1, 0])}
        play = tmp_path / "play.json"
        play.write_text(gd.serialize_play(
            ProductPlay([PureState(f) for f in plays[args[1]]])) + "\n")
        rc = run("verify", "--input", build(tmp_path, "bell-state-prep"), "--play", play,
                 *args[2:], "--out", out)
        assert rc == (1 if args[1] == "off" else 0)
    else:
        assert run("solve", "--input", build(tmp_path, args[1]), *args[2:], "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BELL_DIGESTS[args]


# sha256 of an accepted `verify` on the observable alignment demo, whose
# certificate records the observable probes' largest gain, as written while
# the probes had their own preparation and payoff arithmetic
OBSERVABLE_PROBE_DIGEST = "4d33651b9dc251e3095ee2a1ab0f7bb484d795138356d02b55bf65d93156786b"


def test_observable_probe_bytes_are_pinned(tmp_path):
    play, out = tmp_path / "play.json", tmp_path / "cert.json"
    play.write_text(gd.serialize_play(ProductPlay([PureState([1, 0]), PureState([1, 0])])) + "\n")
    assert run("verify", "--input", build(tmp_path, "alignment-demo"), "--play", play,
               "--epsilon", 1, "--probes", 8, "--seed", 2, "--out", out) == 0
    assert load(out)["max_probe_gain"] > 0.9
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OBSERVABLE_PROBE_DIGEST


# sha256 of the `dynamics` outcome and trace, and of the `sweep` CSV and report, as
# written while the dynamics loop still stepped validated states and plays; running
# it on raw factor arrays must leave every byte of these documents where it was
DYNAMICS_DIGESTS = {
    ("bell-state-prep", "3"): (
        "1bd2ea7f310c8c97e3cdaa54d0973abc6d1e7b217b3464c97083ff5f5c4d824c",
        "450c18fe593a3092e153e89dabb1b53e7aeea9a8d7569fdeea8238a818d14840"),
    ("bell-state-prep", "11"): (
        "1bd2ea7f310c8c97e3cdaa54d0973abc6d1e7b217b3464c97083ff5f5c4d824c",
        "2b9902a1f59028b4524bd50cdfafa8da58697c43140f825467162c4962ea3d27"),
    ("alignment-demo", "3"): (
        "0ed1367fcccfa7ecf258f35b130153bafebf2c59f96f7f2fb3c51803deb1d6f7",
        "155991fc5a937277d57a4320a9fd9fe2998884b7b56d9d41856007db139196b3"),
    ("alignment-demo", "11"): (
        "b9aaa4eb895b1bcd85f0d9c3f294f8008ef62da85b556d92c08e6d261dd29dfa",
        "3866907be0c79297ea6dcb1dd66b5d278b4b9efbd9df6ad3036454a6ab56471c"),
    ("adiabatic", "--s", "0.5", "3"): (
        "ec06214aadae66152a913c382f7f55773b77692368d287c228a5bea06d3e7ead",
        "8b17392ca0677408dc9f2b7ff036ab56ca8af259f6c4a5e17012f9051be26c31"),
    ("adiabatic", "--s", "0.5", "11"): (
        "967ca5e6e594e091056778c9075d7f64f3362abbd98ddff577188529dd069179",
        "c3893478f25b42a8a2a0763606587bd506e36ca2eb7b05f3182645e22b5c9a25"),
    ("grover", "--n-qubits", "4", "--split", "2,2", "3"): (
        "23c3f420a7da2f1ad7a6347e541900e4e7a59150b93653d695a7dea0b6697fc9",
        "cab4c76074d5fc259c10d99390598b4137ee30dcc5410aff993fa6d3dc5274da"),
    ("grover", "--n-qubits", "4", "--split", "2,2", "11"): (
        "a5730059b815d9f0fb26ea0ebbc129692ed6c4f09e31db327ff3d0d148611977",
        "d3ea8136ac86aa1fb74ed540fdfebb75efae7c4ccd76c6ddfacbd74ee04005ae"),
}
SWEEP_DIGESTS = (
    "6dbb6c3c5e969a8a70ccfcc7b3986ab9ce8e7d28e7bcb8e4771089b704d3ed30",
    "b80fe50cad01b4281b50f7a9b570320810a5cb62457a9b5b14399640870bf0b3",
)


def sha256_of(*paths):
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)


@pytest.mark.parametrize("args", list(DYNAMICS_DIGESTS), ids=" ".join)
def test_dynamics_bytes_are_pinned(tmp_path, args):
    *kind, seed = args
    out, trace = tmp_path / "dyn.json", tmp_path / "trace.csv"
    assert run("dynamics", "--input", build(tmp_path, *kind), "--seed", seed,
               "--trace-out", trace, "--out", out) == 0
    assert sha256_of(out, trace) == DYNAMICS_DIGESTS[args]


def test_sweep_bytes_are_pinned(tmp_path):
    out, report = tmp_path / "sweep.csv", tmp_path / "report.json"
    assert run("sweep", "--input", build(tmp_path, "schedule"), "--starts", 3, "--seed", 17,
               "--report-out", report, "--out", out) == 0
    assert sha256_of(out, report) == SWEEP_DIGESTS


# sha256 of finite `solve` and `verify` on a seeded 4x3 game, and of `geometry`
# on a seeded 1,000-point sphere cloud, as written while the CLI converted each
# report's reals to Python floats before handing them to canonical_json
FINITE_DIGESTS = {
    "solve": "1545e5c61d191958e5987bfbfd70cb80df2af6b020c3b88aa02c9d038f0ae12d",
    "accepted": "2df3430f88f491203676fb554f8616f1b0097d2c6b71b3062425a695a3c2cee1",
    "rejected": "414dfa5770d1b376cb1c06b6f2f96fd31f5d0d08e699fb4757ba021f87b54250",
}
GEOMETRY_DIGEST = "485dd7a8577763fb9fe1aa67565d1652c70ee675d6efeb116088ad3c24d679fe"


def test_finite_solve_and_verify_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(4)
    game = FiniteGame([rng.standard_normal((4, 3)), rng.standard_normal((4, 3))])
    path = tmp_path / "finite.json"
    path.write_text(gd.serialize_game(game) + "\n")
    out = tmp_path / "out.json"
    assert run("solve", "--input", path, "--out", out) == 0
    assert sha256_of(out) == (FINITE_DIGESTS["solve"],)
    profiles = {
        "accepted": classical.support_enumeration_nash(game)[0].profile,
        "rejected": classical.MixedProfile([np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0])]),
    }
    for name, profile in profiles.items():
        prof = tmp_path / f"{name}.json"
        prof.write_text(gd.serialize_profile(profile) + "\n")
        rc = run("verify", "--input", path, "--play", prof, "--out", out)
        assert rc == (0 if name == "accepted" else 1)
        assert sha256_of(out) == (FINITE_DIGESTS[name],)


def test_geometry_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(11)
    points = rng.standard_normal((1000, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    cloud, out = tmp_path / "cloud.csv", tmp_path / "geo.json"
    gd.write_point_cloud(cloud, points)
    assert run("geometry", "--input", cloud, "--boundary-samples", 400, "--seed", 5,
               "--out", out) == 0
    assert sha256_of(out) == (GEOMETRY_DIGEST,)


# ----------------------------------------------------------------- solve ---

def test_solve_finite_matching_pennies(tmp_path):
    game = tmp_path / "mp.json"
    game.write_text(gd.serialize_game(MATCHING_PENNIES) + "\n")
    out = tmp_path / "eq.json"
    assert run("solve", "--input", game, "--out", out) == 0
    doc = load(out)
    assert doc["kind"] == "equilibria"
    assert doc["game"] == "finite"
    assert doc["count"] == 1
    for dist in doc["equilibria"][0]["distributions"]:
        assert dist == pytest.approx([0.5, 0.5], abs=1e-10)


def test_solve_quantum_alignment_grid(tmp_path):
    game = build(tmp_path, "alignment-demo")
    out = tmp_path / "grid.json"
    assert run("solve", "--input", game, "--resolution", 8,
               "--epsilon", 0.05, "--out", out) == 0
    doc = load(out)
    assert doc["kind"] == "grid_search"
    assert doc["game"] == "quantum"
    assert doc["resolution"] == 8
    assert doc["num_plays"] == 64 * 64
    # pure misalignment: no profile survives, and the least escapable gain
    # stays at the half-unit floor
    assert doc["num_equilibria"] == 0
    assert doc["num_passing"] == 0
    assert doc["equilibrium_indices"] == []
    assert doc["min_max_gain"] >= 0.5 - 1e-9


def test_solve_counts_every_passing_play_beyond_the_listed_ones(tmp_path):
    out = tmp_path / "grid.json"
    assert run("solve", "--input", build(tmp_path, "bell-state-prep"), "--resolution", 16,
               "--out", out) == 0
    doc = load(out)
    assert (doc["num_passing"], doc["num_equilibria"]) == (4352, 64)
    assert len(doc["equilibrium_indices"]) == 64
    keys = list(doc)
    assert keys[keys.index("num_equilibria") + 1] == "num_passing"


def test_solve_on_observables_near_the_float_maximum_writes_finite_output(tmp_path, capsys):
    # a grid-table entry sums several eigenvalues, so equal eigenvalues of 1.7e308
    # (range 0, accepted) used to overflow the tables into a NaN gain; a constant
    # payoff leaves player 2 no gain anywhere, as eigenvalues of 0 do
    reports = []
    for eigenvalue in (BIG, 0):
        doc = json.loads(gd.serialize_game(bld.bell_state_preparation_demo()))
        doc["payoffs"][1] = {"observable": [eigenvalue] * 4}
        path, out = tmp_path / "game.json", tmp_path / "grid.json"
        path.write_text(json.dumps(doc) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("solve", "--input", path, "--resolution", 8, "--out", out) == 0
        reports.append(out.read_bytes())
    assert capsys.readouterr().err == ""
    assert reports[0] == reports[1]


# -------------------------------------------------------------- dynamics ---

def test_dynamics_bell_converges_with_trace(tmp_path):
    game = build(tmp_path, "bell-state-prep")
    out = tmp_path / "dyn.json"
    trace = tmp_path / "trace.csv"
    assert run("dynamics", "--input", game, "--seed", 11,
               "--trace-out", trace, "--out", out) == 0
    doc = load(out)
    assert doc["kind"] == "dynamics_outcome"
    assert doc["status"] == "converged"
    assert doc["iterations"] == 2
    for re, im in doc["final_payoffs"]:
        assert re == pytest.approx(1.0, abs=1e-9)
        assert im == pytest.approx(0.0, abs=1e-12)
    lines = trace.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) - 1 == doc["iterations"]


def test_dynamics_rejects_finite_games(tmp_path):
    game = tmp_path / "mp.json"
    game.write_text(gd.serialize_game(MATCHING_PENNIES) + "\n")
    assert run("dynamics", "--input", game, "--out", tmp_path / "x.json") == 1


def test_dynamics_honours_start_document(tmp_path):
    game = build(tmp_path, "bell-state-prep")
    start = tmp_path / "start.json"
    start.write_text(
        gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([1, 0])))) + "\n"
    )
    out = tmp_path / "dyn.json"
    assert run("dynamics", "--input", game, "--start", start, "--out", out) == 0
    doc = load(out)
    # the prepared pair is already optimal, so the run only confirms it
    assert doc["status"] == "converged"
    assert doc["final_payoffs"][0][0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- verify ---

def test_verify_quantum_accepts_equilibrium_play(tmp_path):
    game = build(tmp_path, "bell-state-prep")
    play = tmp_path / "play.json"
    play.write_text(
        gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([1, 0])))) + "\n"
    )
    out = tmp_path / "cert.json"
    rc = run("verify", "--input", game, "--play", play,
             "--probes", 8, "--seed", 2, "--out", out)
    doc = load(out)
    assert rc == 0
    assert set(doc) == {"kind", "accepted", "epsilon", "per_player_gain",
                        "probes_per_player", "max_probe_gain"}
    assert doc["accepted"] is True
    assert doc["per_player_gain"] == [0, 0]
    assert doc["max_probe_gain"] <= doc["epsilon"]
    assert doc["probes_per_player"] == 8


def test_verify_quantum_rejects_bad_play(tmp_path):
    game = build(tmp_path, "bell-state-prep")
    play = tmp_path / "play.json"
    play.write_text(
        gd.serialize_play(ProductPlay((PureState([0, 1]), PureState([1, 0])))) + "\n"
    )
    out = tmp_path / "cert.json"
    rc = run("verify", "--input", game, "--play", play,
             "--probes", 8, "--seed", 2, "--out", out)
    doc = load(out)
    assert rc == 1
    assert set(doc) == {"kind", "accepted", "epsilon", "per_player_gain",
                        "probes_per_player"}
    assert doc["accepted"] is False
    assert doc["per_player_gain"][0] == pytest.approx(1.0, abs=1e-9)
    assert doc["per_player_gain"][1] == 0
    assert "max_probe_gain" not in doc


def test_verify_finite_accepts_uniform_pennies(tmp_path):
    game = tmp_path / "mp.json"
    game.write_text(gd.serialize_game(MATCHING_PENNIES) + "\n")
    prof = tmp_path / "prof.json"
    from qugame.classical import MixedProfile

    prof.write_text(
        gd.serialize_profile(
            MixedProfile((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
        )
        + "\n"
    )
    out = tmp_path / "cert.json"
    rc = run("verify", "--input", game, "--play", prof, "--epsilon", 1e-8,
             "--out", out)
    doc = load(out)
    assert rc == 0
    assert doc["accepted"] is True
    assert doc["per_player_gain"] == [0, 0]


def test_verify_builds_one_slot_map_per_player(tmp_path, monkeypatch):
    # a player's analytic gain and probes share one W, accepted or rejected, with or
    # without probes; a finite verify computes its gains once
    built, gains = [], []
    slot_map, deviation_gains = quantum._slot_map, classical.deviation_gains

    def counting_map(game, factors, i):
        built.append(i)
        return slot_map(game, factors, i)

    def counting_gains(*args):
        gains.append(args)
        return deviation_gains(*args)

    monkeypatch.setattr(quantum, "_slot_map", counting_map)
    monkeypatch.setattr(classical, "deviation_gains", counting_gains)
    game = bld.bell_state_preparation_demo()
    for first, accepted in (([1, 0], True), ([0, 1], False)):
        play = ProductPlay((PureState(first), PureState([1, 0])))
        for probes in (0, 8):
            built.clear()
            cert = quantum.verify_epsilon_nash_quantum(game, play, 1e-6, num_probes=probes, seed=3)
            assert (cert is not None) == accepted
            assert built == [0, 1]

    doc = build(tmp_path, "bell-state-prep")
    play = tmp_path / "play.json"
    play.write_text(
        gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([1, 0])))) + "\n"
    )
    built.clear()
    assert run("verify", "--input", doc, "--play", play, "--probes", 8,
               "--out", tmp_path / "cert.json") == 0
    assert built == [0, 1]

    finite = tmp_path / "mp.json"
    finite.write_text(gd.serialize_game(MATCHING_PENNIES) + "\n")
    prof = tmp_path / "prof.json"
    prof.write_text(gd.serialize_profile(
        classical.MixedProfile((np.array([0.5, 0.5]), np.array([0.5, 0.5])))) + "\n")
    assert run("verify", "--input", finite, "--play", prof, "--epsilon", 1e-8,
               "--out", tmp_path / "cert2.json") == 0
    assert len(gains) == 1


# -------------------------------------------------------------- geometry ---

def _hemisphere_csv(path, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 2] = np.abs(pts[:, 2])
    lines = ["x,y,z"] + [
        ",".join(gd.canonical_json(v) for v in row) for row in pts
    ]
    path.write_text("\n".join(lines) + "\n")
    return pts


def test_geometry_report_matches_library(tmp_path):
    cloud = tmp_path / "cloud.csv"
    pts = _hemisphere_csv(cloud, 300, seed=9)
    out = tmp_path / "geo.json"
    assert run("geometry", "--input", cloud, "--boundary-samples", 400,
               "--delta", 0.05, "--seed", 5, "--out", out) == 0
    doc = load(out)
    assert doc["kind"] == "geometry_report"
    assert doc["num_points"] == 300

    hull = geometry.convex_hull(pts)
    report = geometry.boundary_coincidence_check(
        pts, num_boundary_samples=400, delta=0.05, seed=5
    )
    assert doc["hull_vertices"] == hull.vertices.shape[0]
    assert doc["hull_facets"] == hull.facets.shape[0]
    assert doc["coincidence"]["fraction"] == report.fraction
    assert doc["coincidence"]["coincident"] is report.coincident
    assert doc["coincidence"]["status"] == report.status
    # an open hemisphere leaves the flat disc uncovered
    assert doc["coincidence"]["coincident"] is False


def test_geometry_builds_one_hull(tmp_path, monkeypatch):
    cloud = tmp_path / "cloud.csv"
    _hemisphere_csv(cloud, 200, seed=6)
    builds = []
    real = geometry.convex_hull

    def counting(points):
        builds.append(len(points))
        return real(points)

    monkeypatch.setattr(geometry, "convex_hull", counting)
    assert run("geometry", "--input", cloud, "--out", tmp_path / "geo.json") == 0
    assert builds == [200]


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--delta", -1, "delta"),
        ("--delta", 0, "delta"),
        ("--delta", "nan", "delta"),
        ("--boundary-samples", 0, "num_boundary_samples"),
        ("--boundary-samples", -5, "num_boundary_samples"),
    ],
)
def test_geometry_rejects_bad_sampling_before_reading(tmp_path, capsys, flag, value, name):
    # the input does not exist: the parameters are refused before it is read
    out = tmp_path / "geo.json"
    assert run("geometry", "--input", tmp_path / "missing.csv", flag, value,
               "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be")
    assert not out.exists()


@pytest.mark.parametrize("count", [geometry.MAX_BOUNDARY_SAMPLES + 1, 10**12])
def test_geometry_refuses_too_many_boundary_samples_before_allocating(
    tmp_path, monkeypatch, capsys, count
):
    # the count is refused before the cloud is read or a sample is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized sample count reached an allocation")

    cloud = tmp_path / "cloud.csv"
    _hemisphere_csv(cloud, 50, seed=2)
    for module, name in ((gd, "read_point_cloud"), (geometry, "convex_hull"),
                         (geometry, "sample_hull_boundary"), (geometry.np, "asarray")):
        monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "geo.json"
    assert run("geometry", "--input", cloud, "--boundary-samples", count, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == (f"error: num_boundary_samples must be <= "
                   f"{geometry.MAX_BOUNDARY_SAMPLES}, got {count}\n")
    assert not out.exists()
    with pytest.raises(ValueError, match="must be <="):
        geometry.boundary_coincidence_check(None, num_boundary_samples=count)


@pytest.mark.parametrize(
    "command, flag, value, name",
    [
        ("dynamics", "--tol", "nan", "tol"),
        ("dynamics", "--tol", "inf", "tol"),
        ("sweep", "--tol", "nan", "tol"),
        ("sweep", "--epsilon", "nan", "epsilon"),
        ("sweep", "--epsilon", "-1", "epsilon"),
        ("verify", "--epsilon", "nan", "epsilon"),
        ("verify", "--epsilon", "inf", "epsilon"),
        ("verify", "--probes", "-3", "num_probes"),
        ("verify-finite", "--epsilon", "nan", "epsilon"),
        ("verify-finite", "--epsilon", "inf", "epsilon"),
        ("verify-finite", "--probes", "-3", "num_probes"),
        ("solve", "--epsilon", "nan", "epsilon"),
        ("solve", "--epsilon", "inf", "epsilon"),
        ("solve", "--resolution", "1", "resolution"),
        ("solve", "--resolution", "1000000", "resolution"),
        ("solve-finite", "--epsilon", "nan", "epsilon"),
        ("solve-finite", "--resolution", "1", "resolution"),
        ("solve-finite", "--resolution", "1000000", "resolution"),
    ],
)
def test_bad_thresholds_exit_1_naming_the_parameter(tmp_path, capsys, command, flag, value, name):
    out = tmp_path / "out.json"
    game = tmp_path / "mp.json"
    game.write_text(gd.serialize_game(MATCHING_PENNIES) + "\n")
    if command == "sweep":
        sched = tmp_path / "sched.json"
        _small_schedule(sched)
        argv = ["sweep", "--input", sched]
    elif command == "solve-finite":
        argv = ["solve", "--input", game]
    elif command == "verify-finite":
        prof = tmp_path / "prof.json"
        prof.write_text(gd.serialize_profile(classical.MixedProfile(([0.5, 0.5], [0.5, 0.5]))) + "\n")
        argv = ["verify", "--input", game, "--play", prof]
    elif command == "verify":
        play = tmp_path / "play.json"
        play.write_text(gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([1, 0])))) + "\n")
        argv = ["verify", "--input", build(tmp_path, "bell-state-prep"), "--play", play]
    else:
        argv = [command, "--input", build(tmp_path, "bell-state-prep")]
    capsys.readouterr()
    assert run(*argv, flag, value, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, name",
    [
        ("dynamics", "--tol", "nan", "tol"),
        ("dynamics", "--max-iter", 0, "max_iter"),
        ("dynamics", "--seed", -1, "seed"),
        ("sweep", "--tol", "nan", "tol"),
        ("sweep", "--max-iter", 0, "max_iter"),
        ("sweep", "--starts", 0, "starts_per_s"),
        ("sweep", "--starts", quantum.MAX_STARTS + 1, "starts_per_s"),
        ("sweep", "--epsilon", "inf", "epsilon"),
        ("sweep", "--seed", -1, "seed"),
        ("verify", "--seed", -1, "seed"),
        ("geometry", "--seed", -1, "seed"),
    ],
)
def test_bad_flags_exit_1_before_the_input_is_read(tmp_path, capsys, command, flag, value, name):
    # the input does not exist: reading it first would report a missing file instead
    out = tmp_path / "out.json"
    missing = tmp_path / "missing.json"
    play = ["--play", missing] if command == "verify" else []
    assert run(command, "--input", missing, *play, flag, value, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be")
    assert not out.exists()


def test_verify_refuses_more_than_max_probes_before_drawing(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("probes drawn past MAX_PROBES")

    bell = build(tmp_path, "bell-state-prep")
    play = tmp_path / "play.json"
    play.write_text(gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([1, 0])))) + "\n")
    out = tmp_path / "cert.json"
    argv = ["verify", "--input", bell, "--play", play, "--out", out, "--probes"]
    monkeypatch.setattr(quantum, "_haar_rows", refuse)
    capsys.readouterr()
    assert run(*argv, quantum.MAX_PROBES + 1) == 1
    assert capsys.readouterr().err == (f"error: num_probes must be <= {quantum.MAX_PROBES}, "
                                       f"got {quantum.MAX_PROBES + 1}\n")
    assert not out.exists()
    monkeypatch.undo()
    assert run(*argv, quantum.MAX_PROBES) == 0
    doc = json.loads(out.read_text())
    assert doc["accepted"] is True and doc["probes_per_player"] == quantum.MAX_PROBES


# ----------------------------------------------------------------- sweep ---

def _small_schedule(path):
    demo = bld.demo_adiabatic_schedule()
    small = bld.AdiabaticSchedule(demo.h_initial, demo.h_final, (0.0, 1.0), 1.0)
    path.write_text(gd.serialize_schedule(small) + "\n")


def test_sweep_endpoint_schedule(tmp_path):
    sched = tmp_path / "sched.json"
    _small_schedule(sched)
    csv = tmp_path / "sweep.csv"
    rep = tmp_path / "rep.json"
    assert run("sweep", "--input", sched, "--starts", 2, "--seed", 17,
               "--report-out", rep, "--out", csv) == 0
    doc = load(rep)
    assert doc == {"kind": "sweep_report", "rows": 4, "converged": 4, "verified": 4}
    lines = csv.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) - 1 == 4
    cells = [line.split(",") for line in lines[1:]]
    assert [c[0] for c in cells] == ["0", "0", "1", "1"]
    assert [c[1] for c in cells] == ["0", "1", "0", "1"]
    assert all(c[2] == "converged" for c in cells)


def test_sweep_refuses_more_than_max_starts_before_drawing(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("starts drawn past MAX_STARTS")

    sched = tmp_path / "sched.json"
    demo = bld.demo_adiabatic_schedule()
    sched.write_text(gd.serialize_schedule(
        bld.AdiabaticSchedule(demo.h_initial, demo.h_final, (0.0,), 1.0)) + "\n")
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--input", sched, "--out", out, "--starts"]
    monkeypatch.setattr(bld, "_haar_rows", refuse)
    capsys.readouterr()
    assert run(*argv, quantum.MAX_STARTS + 1) == 1
    assert capsys.readouterr().err == (f"error: starts_per_s must be <= {quantum.MAX_STARTS}, "
                                       f"got {quantum.MAX_STARTS + 1}\n")
    assert not out.exists()
    monkeypatch.undo()
    assert run(*argv, quantum.MAX_STARTS) == 0
    assert len(out.read_text().splitlines()) == 1 + quantum.MAX_STARTS


# ---------------------------------------------------------- determinism ---

def test_seeded_runs_are_byte_identical(tmp_path):
    game = build(tmp_path, "bell-state-prep")
    cloud = tmp_path / "cloud.csv"
    _hemisphere_csv(cloud, 200, seed=4)

    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert run("dynamics", "--input", game, "--seed", 3, "--out", out) == 0
    assert first.read_bytes() == second.read_bytes()

    for out in (first, second):
        assert run("geometry", "--input", cloud, "--boundary-samples", 300,
                   "--seed", 5, "--out", out) == 0
    assert first.read_bytes() == second.read_bytes()


# --------------------------------------------------------------- failure ---

def test_run_cli_builds_one_parser_per_process(tmp_path):
    from qugame import cli

    cli._build_parser.cache_clear()
    build(tmp_path, "bell-state-prep")
    assert run("solve") == 2
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_usage_errors_exit_2(tmp_path):
    assert run() == 2
    assert run("frobnicate") == 2
    assert run("solve") == 2  # missing --input/--out
    assert run("build", "--kind", "nonsense", "--out", tmp_path / "x.json") == 2


def test_domain_errors_exit_1(tmp_path):
    out = tmp_path / "out.json"
    assert run("solve", "--input", tmp_path / "missing.json", "--out", out) == 1

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json\n")
    assert run("solve", "--input", corrupt, "--out", out) == 1

    game = build(tmp_path, "bell-state-prep")
    stretched = tmp_path / "stretched.json"
    stretched.write_text(
        '{"schema_version":1,"kind":"play","factors":'
        '[[[1.01,0],[0,0]],[[1,0],[0,0]]]}\n'
    )
    assert run("verify", "--input", game, "--play", stretched, "--out", out) == 1


def test_huge_integer_literal_exits_1_with_a_field_path(tmp_path, capsys):
    game = build(tmp_path, "bell-state-prep")
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"schema_version":1,"kind":"play","factors":'
        f'[[[1{"0" * 400},0],[0,0]],[[1,0],[0,0]]]}}\n'
    )
    out = tmp_path / "out.json"
    assert run("verify", "--input", game, "--play", huge, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: factors[0][0][0]: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_deeply_nested_input_exits_1_at_the_document_root(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    out = tmp_path / "out.json"
    assert run("solve", "--input", deep, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: $: not valid JSON: ")
    assert not out.exists()


BIG = 1.7e308


@pytest.mark.parametrize("command, observables, field", [
    ("verify", {0: [BIG, -BIG, BIG, -BIG], 1: [BIG, -BIG, -BIG, BIG]}, "payoffs[0]"),
    ("solve", {1: [BIG, -BIG, BIG, -BIG]}, "payoffs[1]"),
])
def test_eigenvalue_range_past_the_float_maximum_exits_1_naming_the_payoff(
    tmp_path, capsys, command, observables, field
):
    # max - min overflows here: verify used to write an inf gain and solve a NaN table
    # entry, each refused as an unnamed non-finite real after a RuntimeWarning
    if command == "verify":   # the identity game, played at (|1>, |0>)
        game = quantum.QuantumGame((2, 2), np.eye(4), [quantum.ObservablePayoff(np.ones(4))] * 2)
        play = tmp_path / "play.json"
        play.write_text(gd.serialize_play(ProductPlay((PureState([0, 1]), PureState([1, 0]))))
                        + "\n")
        args = ("--play", play)
    else:
        game, args = bld.bell_state_preparation_demo(), ("--resolution", 8)
    doc = json.loads(gd.serialize_game(game))
    for i, eigenvalues in observables.items():
        doc["payoffs"][i] = {"observable": eigenvalues}
    extreme = tmp_path / "extreme.json"
    extreme.write_text(json.dumps(doc) + "\n")
    out = tmp_path / "out.json"
    assert run(command, "--input", extreme, *args, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {field}.observable: "
                   "eigenvalue range max - min exceeds the float maximum\n")
    assert "np.float64(" not in err
    assert not out.exists()


DOCUMENT_TEXTS = {
    "bell": lambda: gd.serialize_game(bld.bell_state_preparation_demo()),
    "schedule": lambda: gd.serialize_schedule(bld.demo_adiabatic_schedule()),
    "pennies": lambda: gd.serialize_game(MATCHING_PENNIES),
}
COMMAND_ARGS = {"solve": ("--resolution", 4), "sweep": ("--starts", 1)}

# (command, document, {entry path: new value}, play or profile for verify, stderr):
# checks that could overflow or print numpy reprs; each input ended in a
# RuntimeWarning or an np.float64 message
REFUSED_DOCUMENTS = {
    "unitary entry 1e308": (
        "solve", "bell", {("unitary", 0, 0, 0): 1e308}, None,
        "error: unitary: matrix is not unitary: max |U^H U - I| = inf\n"),
    "overlap entry -1.7e308": (
        "solve", "bell", {("payoffs", 0, "overlap", 0, 0): -BIG}, None,
        "error: payoffs[0].overlap: state norm inf is outside the renormalization window\n"),
    "schedule entries +-1.7e308": (
        "sweep", "schedule", {("h_initial", 0, 1): [BIG, 0], ("h_initial", 1, 0): [-BIG, 0]},
        None, "error: h_initial/h_final: matrix is not Hermitian: max |H - H^H| = inf\n"),
    "stretched play factor": (
        "verify", "bell", {}, {"kind": "play", "factors": [[[1.01, 0], [0, 0]], [[1, 0], [0, 0]]]},
        "error: factors[0]: state norm 1.01 is outside the renormalization window\n"),
    "negative profile entry": (
        "verify", "pennies", {}, {"kind": "profile", "distributions": [[1.1, -0.1], [0.5, 0.5]]},
        "error: distributions: distribution 0 has a negative entry: -0.1\n"),
    "profile sum 1.2": (
        "verify", "pennies", {}, {"kind": "profile", "distributions": [[0.5, 0.5], [0.6, 0.6]]},
        "error: distributions: distribution 1 sums to 1.2, not 1\n"),
}


@pytest.mark.parametrize("case", REFUSED_DOCUMENTS)
def test_refused_documents_name_the_field_in_plain_floats(tmp_path, capsys, case):
    command, kind, edits, play, expected = REFUSED_DOCUMENTS[case]
    doc = json.loads(DOCUMENT_TEXTS[kind]())
    for (*keys, last), value in edits.items():
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
    path, out = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc) + "\n")
    args = COMMAND_ARGS.get(command, ())
    if play is not None:
        play_path = tmp_path / "play.json"
        play_path.write_text(json.dumps({"schema_version": 1, **play}) + "\n")
        args = ("--play", play_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # an escaped RuntimeWarning ends the run here
        assert run(command, "--input", path, *args, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == expected
    assert "np.float64(" not in err
    assert not out.exists()


# ------------------------------------------------------------ entrypoint ---

# Every subcommand but geometry runs without scipy: geometry imports
# scipy.spatial on first use. Run in a fresh interpreter, because this one
# already holds scipy.
SCIPY_FREE_RUN = """
import sys
from pathlib import Path

from qugame import gamedoc
from qugame.cli import run_cli
from qugame.linalg import ProductPlay, PureState

def step(argv, loaded=False):
    assert run_cli(argv) == 0, argv
    assert ("scipy" in sys.modules) == loaded, argv

work = Path(sys.argv[1])
game, sched, play, cloud = (str(work / n) for n in ("g.json", "s.json", "p.json", "c.csv"))
assert "scipy" not in sys.modules, "import qugame.cli"
step(["build", "--kind", "alignment-demo", "--out", game])
step(["build", "--kind", "schedule", "--out", sched])
step(["solve", "--input", game, "--resolution", "4", "--out", str(work / "solve.json")])
step(["dynamics", "--input", game, "--out", str(work / "dyn.json")])
Path(play).write_text(gamedoc.serialize_play(
    ProductPlay([PureState([1, 0]), PureState([1, 0])])) + "\\n")
step(["verify", "--input", game, "--play", play, "--epsilon", "1", "--out",
      str(work / "cert.json")])
step(["sweep", "--input", sched, "--starts", "1", "--out", str(work / "sweep.csv")])
gamedoc.write_point_cloud(cloud, [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
step(["geometry", "--input", cloud, "--boundary-samples", "10", "--out",
      str(work / "geo.json")], loaded=True)
"""


def test_only_geometry_loads_scipy(tmp_path):
    src = Path(qugame.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_sweep_refuses_a_time_whose_phase_overflows_under_warnings_as_errors(tmp_path):
    doc = load(build(tmp_path, "schedule"))
    doc["time"] = 1.7e308   # finite, but the phase eigenvalue * time is not
    sched = tmp_path / "long.json"
    sched.write_text(json.dumps(doc))
    src = Path(qugame.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qugame.cli", "sweep", "--input", str(sched),
         "--starts", "1", "--out", str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: time: time 1.7e+308 times the spectral bound ")
    assert proc.stderr.endswith(" of H(s) exceeds the float maximum\n")
    assert not (tmp_path / "sweep.csv").exists()


SUBNORMAL = np.array([[0.0, 5e-324, 0.0], [0.0, 0.0, 5e-324], [5e-324, 0.0, 0.0]])


@pytest.mark.parametrize("scale", ["2^1020", "subnormal"])
def test_solve_runs_a_finite_game_at_extreme_scales_under_warnings_as_errors(tmp_path, scale):
    # seed-0 normal 8x8 payoffs times 2^1020, and 3x3 payoffs of 0 and the smallest
    # subnormal: the indifference solves once overflowed to NaN weights, and solve exited
    # 1 with an error that named no document field
    rng = np.random.default_rng(0)
    tensors = ([np.ldexp(rng.standard_normal((8, 8)), 1020) for _ in range(2)]
               if scale == "2^1020" else [SUBNORMAL, SUBNORMAL.T])
    game = tmp_path / "extreme.json"
    game.write_text(gd.serialize_game(FiniteGame(tensors)))
    src = Path(qugame.__file__).resolve().parents[1]
    out = tmp_path / "eq.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qugame.cli", "solve", "--input", str(game),
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    doc = load(out)
    assert doc["count"] == len(doc["equilibria"])
    for eq in doc["equilibria"]:
        assert max(eq["per_player_gain"]) <= DEFAULT_TOLS.solver_epsilon


@pytest.mark.parametrize("kind", ["bell-state-prep", "alignment-demo"])
def test_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, kind):
    # the grid scan's row blocks each have the bits of the whole product at one thread
    # and are too small for OpenBLAS to split, so both settings write the pinned bytes
    game = build(tmp_path, kind)
    src = Path(qugame.__file__).resolve().parents[1]
    for threads in ("1", "2"):
        out = tmp_path / f"solve-{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qugame.cli", "solve", "--input", str(game),
             "--resolution", "32", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == BELL_DIGESTS[("solve", kind, "--resolution", "32")], threads


def test_module_entry_point_subprocess(tmp_path):
    out = tmp_path / "sched.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qugame.cli", "build", "--kind", "schedule",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    sched = gd.parse_schedule(out.read_text())
    assert sched.s_values == bld.demo_adiabatic_schedule().s_values
