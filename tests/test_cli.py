"""End-to-end checks of the command line front end.

Everything runs in-process through run_cli against files in tmp_path; one
test goes through a real subprocess to cover the module entry point.
"""
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from qugame import builders as bld
from qugame import classical, geometry, quantum
from qugame import gamedoc as gd
from qugame.classical import FiniteGame
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


def test_build_grover_rejects_bad_split(tmp_path):
    out = tmp_path / "g.json"
    rc = run("build", "--kind", "grover", "--n-qubits", 3, "--split", "1,1",
             "--out", out)
    assert rc == 1
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
# break the scan's near-ties differently from the joint-state einsum they replaced
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
        "203f74bda3db8888726e78e0b2b11fbf668c141b6f93034526cc4869195556e6",
    ("solve", "bell-state-prep", "--resolution", "32"):
        "f825ed27c0338c407073b30574489881bb566390a8575d2410b299202a1bb030",
    ("solve", "alignment-demo", "--resolution", "32"):
        "e404edea0d5a3e13ed978c413930b5a3dc9a7816d1c0365eca73e4c6f87e450c",
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
    assert doc["equilibrium_indices"] == []
    assert doc["min_max_gain"] >= 0.5 - 1e-9


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


def test_verify_computes_gains_once_when_accepted(tmp_path, monkeypatch):
    calls = []
    for module, name in ((quantum, "quantum_deviation_gains"), (classical, "deviation_gains")):
        def counting(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, counting)

    game = build(tmp_path, "bell-state-prep")
    play = tmp_path / "play.json"
    play.write_text(
        gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([1, 0])))) + "\n"
    )
    assert run("verify", "--input", game, "--play", play, "--probes", 8,
               "--out", tmp_path / "cert.json") == 0
    assert calls == ["quantum_deviation_gains"]

    finite = tmp_path / "mp.json"
    finite.write_text(gd.serialize_game(MATCHING_PENNIES) + "\n")
    prof = tmp_path / "prof.json"
    prof.write_text(gd.serialize_profile(
        classical.MixedProfile((np.array([0.5, 0.5]), np.array([0.5, 0.5])))) + "\n")
    assert run("verify", "--input", finite, "--play", prof, "--epsilon", 1e-8,
               "--out", tmp_path / "cert2.json") == 0
    assert calls == ["quantum_deviation_gains", "deviation_gains"]


# -------------------------------------------------------------- geometry ---

def _hemisphere_csv(path, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 2] = np.abs(pts[:, 2])
    lines = ["x,y,z"] + [
        ",".join(gd.format_real(v) for v in row) for row in pts
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
        ("solve", "--epsilon", "nan", "epsilon"),
        ("solve", "--epsilon", "inf", "epsilon"),
    ],
)
def test_bad_thresholds_exit_1_naming_the_parameter(tmp_path, capsys, command, flag, value, name):
    out = tmp_path / "out.json"
    if command == "sweep":
        sched = tmp_path / "sched.json"
        _small_schedule(sched)
        argv = ["sweep", "--input", sched]
    elif command == "verify-finite":
        game = tmp_path / "mp.json"
        game.write_text(gd.serialize_game(MATCHING_PENNIES) + "\n")
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


# ------------------------------------------------------------ entrypoint ---

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
