"""Application builders: state preparation, search amplification, annealing."""
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import qugame.quantum as qq
from qugame import builders as bld
from qugame.linalg import HermitianOperator, PureState, haar_random_state


# ------------------------------------------------------- state preparation ---

def test_bell_demo_wiring():
    game = bld.bell_state_preparation_demo()
    assert game.dims == (2, 2)
    # Hadamard on the first qubit, then controlled flip
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    assert_allclose(game.unitary.matrix, cnot @ np.kron(h, np.eye(2)), atol=1e-15)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    for p in game.payoffs:
        assert isinstance(p, qq.OverlapPayoff)
        assert_allclose(p.target.amplitudes, bell, atol=1e-15)


def test_build_state_preparation_accepts_raw_arrays():
    target = np.zeros(4)
    target[0] = 1.0
    game = bld.build_state_preparation_game((2, 2), np.eye(4), (target, target))
    assert game.num_players == 2
    assert game.payoffs[0].target == PureState(target)


def test_build_state_preparation_checks_dims():
    with pytest.raises(ValueError):
        bld.build_state_preparation_game((2, 2), np.eye(4), (np.array([1.0, 0.0]),) * 2)


# ----------------------------------------------------------------- search ---

def test_single_iterate_on_two_qubits_is_exact():
    # with 4 items one reflection pair rotates the uniform state onto the
    # marked item exactly (sin^2(3 theta) = 1 at sin theta = 1/2)
    game = bld.build_grover_game(2, 2, (1, 1), iterations=1)
    uniform = np.full(4, 0.5)
    probs = np.abs(game.unitary.matrix @ uniform) ** 2
    assert probs[2] == pytest.approx(1.0, abs=1e-12)


def test_iterate_amplification_matches_rotation_formula():
    n, k, target = 3, 2, 5
    game = bld.build_grover_game(n, target, (1, 2), iterations=k)
    uniform = np.full(2**n, 1 / math.sqrt(2**n))
    amp = (game.unitary.matrix @ uniform)[target]
    theta = math.asin(1 / math.sqrt(2**n))
    assert abs(amp) ** 2 == pytest.approx(math.sin((2 * k + 1) * theta) ** 2, abs=1e-12)


def test_grover_iterate_is_unitary_and_composes():
    one = bld.grover_iterate(2, 1).matrix
    assert_allclose(one.conj().T @ one, np.eye(4), atol=1e-12)
    two = bld.build_grover_game(2, 1, (1, 1), iterations=2).unitary.matrix
    assert_allclose(two, one @ one, atol=1e-13)


def test_grover_game_targets_seeker_versus_spoiler():
    game = bld.build_grover_game(3, 5, (1, 2))
    assert game.dims == (2, 4)
    marked = np.zeros(8)
    marked[5] = 1.0
    assert_allclose(game.payoffs[0].target.amplitudes, marked, atol=1e-15)
    unmarked = np.full(8, 1 / math.sqrt(7))
    unmarked[5] = 0.0
    assert_allclose(game.payoffs[1].target.amplitudes, unmarked, atol=1e-15)


def test_grover_validation():
    with pytest.raises(ValueError, match="sum to 3"):
        bld.build_grover_game(3, 0, (1, 1))
    with pytest.raises(ValueError, match="out of range"):
        bld.build_grover_game(2, 7, (1, 1))
    with pytest.raises(ValueError, match="iterate"):
        bld.build_grover_game(2, 1, (1, 1), iterations=0)


def test_grover_dynamics_reach_verified_equilibrium():
    game = bld.build_grover_game(2, 3, (1, 1))
    outcomes = qq.multi_start_dynamics(game, 10, tol=1e-9, max_iter=500, seed=31)
    assert all(o.converged for o in outcomes)
    for o in outcomes:
        assert qq.verify_epsilon_nash_quantum(game, o.play, 1e-6, num_probes=8, seed=1)


# ---------------------------------------------------------------- spectra ---

def test_ground_state_of_diagonal():
    h = np.diag([1.0, 0.5, 0.75, 0.0])
    assert_allclose(bld.ground_state(h).amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_complement_superposition_of_diagonal():
    h = np.diag([1.0, 0.5, 0.75, 0.0])
    ref = np.array([1.0, 1.0, 1.0, 0.0]) / math.sqrt(3)
    assert_allclose(bld.complement_superposition(h).amplitudes, ref, atol=1e-14)


def test_complement_is_orthogonal_to_ground():
    rng = np.random.default_rng(50)
    raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = HermitianOperator((raw + raw.conj().T) / 2)
    g = bld.ground_state(h)
    c = bld.complement_superposition(h)
    assert abs(np.vdot(g.amplitudes, c.amplitudes)) < 1e-12


# --------------------------------------------------------------- annealing ---

def test_demo_schedule_contents():
    sched = bld.demo_adiabatic_schedule()
    assert sched.s_values == tuple(round(0.1 * k, 10) for k in range(11))
    assert sched.time == 1.0
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(
        sched.h_initial.matrix, -(np.kron(x, np.eye(2)) + np.kron(np.eye(2), x)), atol=1e-15
    )
    assert_allclose(np.diag(sched.h_final.matrix).real, [1.0, 0.5, 0.75, 0.0], atol=1e-15)


def test_schedule_validates_dial_values():
    sched = bld.demo_adiabatic_schedule()
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        bld.AdiabaticSchedule(sched.h_initial, sched.h_final, (0.0, 1.5), 1.0)
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        bld.build_adiabatic_game(sched, -0.1)


def test_adiabatic_unitary_matches_direct_exponentiation():
    sched = bld.demo_adiabatic_schedule()
    for s in (0.0, 0.3, 0.5, 1.0):
        game = bld.build_adiabatic_game(sched, s)
        h = s * sched.h_initial.matrix + (1.0 - s) * sched.h_final.matrix
        ref = scipy.linalg.expm(-1j * h * sched.time)
        assert np.abs(game.unitary.matrix - ref).max() <= 1e-12


def test_adiabatic_targets_track_the_final_hamiltonian():
    sched = bld.demo_adiabatic_schedule()
    for s in (0.2, 0.8):
        game = bld.build_adiabatic_game(sched, s)
        assert game.payoffs[0].target == bld.ground_state(sched.h_final)
        assert game.payoffs[1].target == bld.complement_superposition(sched.h_final)
        inner = np.vdot(
            game.payoffs[0].target.amplitudes, game.payoffs[1].target.amplitudes
        )
        assert abs(inner) == 0.0


def test_adiabatic_targets_can_be_overridden():
    sched = bld.demo_adiabatic_schedule()
    t1 = haar_random_state(4, 1)
    t2 = haar_random_state(4, 2)
    game = bld.build_adiabatic_game(sched, 0.5, payoff_targets=(t1, t2))
    assert game.payoffs[0].target == t1
    assert game.payoffs[1].target == t2


def test_sweep_on_truncated_schedule():
    sched = bld.demo_adiabatic_schedule()
    small = bld.AdiabaticSchedule(sched.h_initial, sched.h_final, (0.0, 1.0), sched.time)
    report = bld.sweep_adiabatic(small, 2, tol=1e-9, max_iter=200, epsilon=1e-6, seed=17)
    assert len(report.rows) == 4
    assert report.verified == 4
    assert report.converged + sum(r.outcome == "cycle_resolved" for r in report.rows) == 4
    for row in report.rows:
        assert row.outcome in ("converged", "cycle_resolved", "cycle_detected", "max_iterations")
        assert row.verified
        assert 0.0 <= row.ground_overlap_magnitude <= 1.0 + 1e-12
        assert row.s in (0.0, 1.0)
        assert row.start_id in (0, 1)


@pytest.mark.parametrize("name", ["tol", "epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_sweep_refuses_a_bad_threshold_before_any_run(monkeypatch, name, value):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the parameters were checked")

    monkeypatch.setattr(bld, "build_adiabatic_game", refuse)
    with pytest.raises(ValueError, match=f"^{name} must be a finite real >= 0"):
        bld.sweep_adiabatic(bld.demo_adiabatic_schedule(), 2, **{name: value})


def test_sweep_is_deterministic():
    sched = bld.demo_adiabatic_schedule()
    small = bld.AdiabaticSchedule(sched.h_initial, sched.h_final, (0.5,), sched.time)
    a = bld.sweep_adiabatic(small, 2, seed=17)
    b = bld.sweep_adiabatic(small, 2, seed=17)
    assert a.rows == b.rows
    assert a.converged == b.converged and a.verified == b.verified


def test_sweep_verifies_each_row_once(monkeypatch):
    # interior dial values resolve their cycles and the candidate's certificate
    # is the row's; the endpoints converge and only the final play is verified
    # (a rejected candidate would add the final play's verification to its row)
    verified = []
    real = bld.verify_epsilon_nash_quantum

    def counting(game, play, *args, **kwargs):
        cert = real(game, play, *args, **kwargs)
        verified.append(cert is not None)
        return cert

    monkeypatch.setattr(bld, "verify_epsilon_nash_quantum", counting)
    report = bld.sweep_adiabatic(bld.demo_adiabatic_schedule(), 2, seed=17)
    assert len(verified) == report.num_rows == 22
    assert sum(verified) == report.verified
    assert {row.outcome for row in report.rows} == {"converged", "cycle_resolved"}


def test_sweep_draws_a_dial_values_starts_before_its_probes(monkeypatch):
    sched = bld.demo_adiabatic_schedule()
    mid = bld.AdiabaticSchedule(sched.h_initial, sched.h_final, (0.5,), sched.time)
    starts = []
    real = bld.iterated_best_response

    def recording(game, start, **kwargs):
        starts.append(start)
        return real(game, start, **kwargs)

    monkeypatch.setattr(bld, "iterated_best_response", recording)
    bld.sweep_adiabatic(mid, 3, seed=17)
    rng = np.random.default_rng(17)
    game = bld.build_adiabatic_game(mid, 0.5)
    assert starts == [qq.random_play(game, rng) for _ in range(3)]


def test_sweep_resolves_the_orthogonal_target_orbit():
    # interior dial values orbit with period 2 because the targets are
    # orthogonal; rows must come back labeled as resolved, not converged,
    # and still verify
    sched = bld.demo_adiabatic_schedule()
    mid = bld.AdiabaticSchedule(sched.h_initial, sched.h_final, (0.5,), sched.time)
    report = bld.sweep_adiabatic(mid, 2, seed=17)
    assert {row.outcome for row in report.rows} == {"cycle_resolved"}
    assert report.verified == 2
    assert report.converged == 0
