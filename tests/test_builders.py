"""Application builders: state preparation, search amplification, annealing."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import qugame.quantum as qq
from qugame import builders as bld
from qugame.config import DEFAULT_TOLS
from qugame.linalg import (
    HermitianOperator,
    ProductPlay,
    PureState,
    UnitaryOperator,
    _fixed_phase,
    _haar_rows,
    canonicalize_phase,
    haar_random_state,
)


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


@pytest.mark.parametrize("iterations,checks", [(1, 1), (2, 2)])
def test_grover_game_checks_each_distinct_matrix_once(monkeypatch, iterations, checks):
    calls = []
    real = UnitaryOperator._check_defect
    monkeypatch.setattr(UnitaryOperator, "_check_defect",
                        staticmethod(lambda m: calls.append(m.shape) or real(m)))
    bld.build_grover_game(3, 5, (1, 2), iterations=iterations)
    assert len(calls) == checks


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_grover_iterate_equals_the_dense_oracle_product(n_qubits):
    n = 1 << n_qubits
    for target in {0, n // 2, n - 1}:
        oracle = np.eye(n)
        oracle[target, target] = -1.0
        dense = (np.full((n, n), 2.0 / n) - np.eye(n)) @ oracle
        assert np.array_equal(bld.grover_iterate(n_qubits, target).matrix, dense)


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


def test_sweep_refuses_more_than_max_starts_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("starts drawn past MAX_STARTS")

    monkeypatch.setattr(bld, "_haar_rows", refuse)
    monkeypatch.setattr(bld, "build_adiabatic_game", refuse)
    too_many = qq.MAX_STARTS + 1
    message = f"^starts_per_s must be <= {qq.MAX_STARTS}, got {too_many}$"
    with pytest.raises(ValueError, match=message):
        bld.sweep_adiabatic(bld.demo_adiabatic_schedule(), too_many)


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


def test_sweep_builds_its_targets_once_and_prepares_each_row_once(monkeypatch):
    # the targets depend only on the final Hamiltonian, and one prepared vector
    # of the final play gives a row both its payoff and its ground overlap
    calls = {"_final_targets": 0, "prepared_vector": 0}

    def counted(name):
        real = getattr(bld, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(bld, name, counting)

    counted("_final_targets")
    counted("prepared_vector")
    report = bld.sweep_adiabatic(bld.demo_adiabatic_schedule(), 2, seed=17)
    assert calls == {"_final_targets": 1, "prepared_vector": report.num_rows}


def test_sweep_builds_fixed_point_candidates_only_where_a_start_cycled(monkeypatch):
    # the endpoints converge, so only the interior dial values' referees reach the kernel
    received = []
    real = bld._fixed_point_rows

    def counting(game, referees):
        received.append(len(referees))
        return real(game, referees)

    monkeypatch.setattr(bld, "_fixed_point_rows", counting)
    sched = bld.demo_adiabatic_schedule()
    report = bld.sweep_adiabatic(sched, 2, seed=17)
    cycled = {row.s for row in report.rows if row.outcome.startswith("cycle")}
    assert received == [len(cycled)] and len(cycled) < len(sched.s_values)
    converged = {row.s for row in report.rows if row.outcome == "converged"}
    assert converged and not converged & cycled


def test_sweep_refuses_a_bad_start_count_by_name():
    with pytest.raises(ValueError, match="^starts_per_s must be >= 1, got 0$"):
        bld.sweep_adiabatic(bld.demo_adiabatic_schedule(), 0)


def test_sweep_draws_a_dial_values_starts_before_its_probes(monkeypatch):
    # the dial value's starts run as one stack, drawn before any probe: bit for
    # bit the first per-start random_play calls on the sweep's rng
    sched = bld.demo_adiabatic_schedule()
    mid = bld.AdiabaticSchedule(sched.h_initial, sched.h_final, (0.5,), sched.time)
    starts = []
    real = bld._dynamics

    def recording(game, stacks, **kwargs):
        starts.append(stacks)
        return real(game, stacks, **kwargs)

    monkeypatch.setattr(bld, "_dynamics", recording)
    bld.sweep_adiabatic(mid, 3, seed=17)
    rng = np.random.default_rng(17)
    game = bld.build_adiabatic_game(mid, 0.5)
    (stacks,) = starts
    for r in range(3):
        play = qq.random_play(game, rng)
        for stack, factor in zip(stacks, play.factors):
            assert stack[r].tobytes() == factor.amplitudes.tobytes()


def test_sweep_draws_every_start_before_any_probe(monkeypatch):
    # every start of a multi-dial sweep runs in one stacked dynamics call, drawn before
    # any probe: bit for bit the first n * k random_play calls on the sweep's rng
    sched = bld.demo_adiabatic_schedule()
    starts = []
    real = bld._dynamics

    def recording(game, stacks, **kwargs):
        starts.append(stacks)
        return real(game, stacks, **kwargs)

    monkeypatch.setattr(bld, "_dynamics", recording)
    bld.sweep_adiabatic(sched, 3, seed=17)
    rng = np.random.default_rng(17)
    game = bld.build_adiabatic_game(sched, 0.5)
    (stacks,) = starts
    assert len(stacks[0]) == 3 * len(sched.s_values)
    for r in range(len(stacks[0])):
        play = qq.random_play(game, rng)
        for stack, factor in zip(stacks, play.factors):
            assert stack[r].tobytes() == factor.amplitudes.tobytes()


def per_game_candidates(game):
    """The per-game fixed-point extraction the batched kernel replaced: one eig, then
    each eigenvector and the factor it induces canonicalized and validated alone."""
    d1, d2 = game.dims
    u = game.unitary.matrix
    pulled_1, pulled_2 = ((p.target.amplitudes.conj() @ u).conj().reshape(d1, d2)
                          for p in game.payoffs)
    values, vectors = np.linalg.eig(pulled_2.T @ pulled_1.conj())
    plays = []
    for k in np.argsort(-np.abs(values), kind="stable"):
        if abs(values[k]) <= DEFAULT_TOLS.phase_cutoff:
            continue
        second = canonicalize_phase(vectors[:, k])
        induced = pulled_1 @ np.conj(second.amplitudes)
        if np.linalg.norm(induced) <= DEFAULT_TOLS.phase_cutoff:
            continue
        plays.append(ProductPlay((canonicalize_phase(induced), second)))
    return plays


def per_dial_value_sweep(schedule, starts_per_s, seed, epsilon=1e-6):
    """sweep_adiabatic as a loop over dial values that draws every start first: per dial
    value one game, one dynamics stack under its own unitary and one candidate
    extraction, and each cycled row resolved alone."""
    rng = np.random.default_rng(seed)
    ground = bld.ground_state(schedule.h_final)
    targets = (ground, bld.complement_superposition(schedule.h_final))
    root = math.isqrt(schedule.dimension)
    k = starts_per_s
    starts = _haar_rows((root, root), len(schedule.s_values) * k, rng)
    rows, converged, verified = [], 0, 0
    for j, s in enumerate(schedule.s_values):
        game = bld.build_adiabatic_game(schedule, s, targets)
        h = s * schedule.h_initial.matrix + (1.0 - s) * schedule.h_final.matrix
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * (w * schedule.time))) @ v.conj().T
        assert game.unitary.matrix.tobytes() == u.tobytes()
        outcomes = qq._dynamics(game, [f[j * k:(j + 1) * k] for f in starts],
                                tol=1e-9, max_iter=500, trace=False)
        cycled = [o.status is qq.DynamicsStatus.CYCLE_DETECTED for o in outcomes]
        candidates = per_game_candidates(game) if any(cycled) else []
        for start_id, outcome in enumerate(outcomes):
            final, label, cert = outcome.factors, outcome.status.value, None
            if cycled[start_id] and candidates:
                resolved = min(candidates, key=lambda c: float(
                    qq._factor_distances(game.check_play(c), final)))
                cert = qq.verify_epsilon_nash_quantum(game, resolved, epsilon, num_probes=8,
                                                      seed=rng)
                if cert is not None:
                    final, label = game.check_play(resolved), "cycle_resolved"
            if cert is None:
                cert = qq.verify_epsilon_nash_quantum(game, ProductPlay(final), epsilon,
                                                      num_probes=8, seed=rng)
            prepared = qq.prepared_vector(game, final)
            unit = _fixed_phase(prepared / np.linalg.norm(prepared))
            converged += outcome.status is qq.DynamicsStatus.CONVERGED
            verified += cert is not None
            rows.append(bld.SweepRow(
                float(s), start_id, label, outcome.iterations,
                complex(qq._payoff_of(game.payoffs[0], prepared)),
                float(abs(np.vdot(ground.amplitudes, unit))), cert is not None))
    return bld.SweepReport(tuple(rows), converged, verified)


def random_hermitian(rng, dimension):
    real, imag = rng.standard_normal((2, dimension, dimension))
    z = real + 1j * imag
    return HermitianOperator((z + z.conj().T) / 2.0)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([4, 9]),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    st.floats(min_value=0.1, max_value=3.0),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_sweep_matches_the_per_dial_value_loop(dimension, s_values, time, starts, seed):
    rng = np.random.default_rng(seed)
    schedule = bld.AdiabaticSchedule(random_hermitian(rng, dimension),
                                     random_hermitian(rng, dimension), sorted(s_values), time)
    assert bld.sweep_adiabatic(schedule, starts, seed=seed) == per_dial_value_sweep(
        schedule, starts, seed)


def test_sweep_stacks_split_between_and_within_dial_values_bit_for_bit(monkeypatch):
    # a chunk holds as many dial values as one stack of referee-carrying starts: a budget
    # of seven runs the 33 rows of the demo sweep in stacks of two dial values, a budget of
    # two splits each dial value's three starts; each stack gathers its own rows' referees,
    # and rows, report and rng end state are those of the whole sweep
    sched = bld.demo_adiabatic_schedule()
    rng = np.random.default_rng(5)
    whole = bld.sweep_adiabatic(sched, 3, seed=rng)
    sizes = []
    stack_dynamics = qq._stack_dynamics

    def recording(game, starts, referees, **kwargs):
        sizes.append(len(referees))
        assert len(referees) == len(starts[0])
        return stack_dynamics(game, starts, referees, **kwargs)

    monkeypatch.setattr(qq, "_stack_dynamics", recording)
    for budget, expected in ((7, [6] * 5 + [3]), (2, [2, 1] * 11)):
        monkeypatch.setattr(qq, "STACK_ENTRIES", budget * (4 ** 2 // 2 + 4 ** 2) + 1)
        sizes.clear()
        split = np.random.default_rng(5)
        assert bld.sweep_adiabatic(sched, 3, seed=split) == whole
        assert sizes == expected
        assert split.bit_generator.state == rng.bit_generator.state


def test_sweep_peak_memory_is_one_unitary_per_dial_value_and_one_stack(monkeypatch):
    # H(s) and its exponential live one dial value at a time, and each stack of four
    # starts gathers only its own referees (a whole-sweep H, eigenvector and U stack
    # peaked at 5x the games' U(s)); the games of one chunk of four dial values are
    # held, so the peak is now far below this bound (see the next test)
    rng = np.random.default_rng(11)
    dimension, count = 64, 48
    schedule = bld.AdiabaticSchedule(random_hermitian(rng, dimension),
                                     random_hermitian(rng, dimension),
                                     tuple(np.linspace(0.0, 1.0, count)), 1.0)
    monkeypatch.setattr(qq, "STACK_ENTRIES", 4 * (dimension ** 2 // 8 + dimension ** 2))
    assert qq._stack_size((8, 8), referee=True) == 4
    tracemalloc.start()
    try:
        bld.sweep_adiabatic(schedule, 1, max_iter=4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * count * dimension ** 2 * 16


def test_sweep_peak_memory_does_not_grow_past_one_chunk(monkeypatch):
    # games are built and held one chunk of dial values at a time: with a budget of eleven
    # referee-carrying starts at D = 256, 34 dial values (four chunks) peak no higher than
    # the 11 of one chunk, where holding every game adds one 1 MiB U(s) per dial value
    rng = np.random.default_rng(3)
    dimension = 256
    h_initial, h_final = random_hermitian(rng, dimension), random_hermitian(rng, dimension)
    monkeypatch.setattr(qq, "STACK_ENTRIES", 11 * 17 * 2 ** 12)
    assert qq._stack_size((16, 16), referee=True) == 11
    peaks = []
    for count in (11, 34):
        schedule = bld.AdiabaticSchedule(h_initial, h_final,
                                         tuple(np.linspace(0.0, 1.0, count)), 1.0)
        tracemalloc.start()
        try:
            bld.sweep_adiabatic(schedule, 1, max_iter=2, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + dimension ** 2 * 16


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


# ------------------------------------------------------------- refusals ---

def _schedule(dimension):
    h = HermitianOperator(np.diag(np.arange(float(dimension))))
    return bld.AdiabaticSchedule(h, h, (0.0, 1.0), 1.0)


# (call, exact ValueError message): refusals no other test reaches
BUILDER_REFUSALS = {
    "no qubit": (lambda: bld.grover_iterate(0, 0), "need at least one qubit"),
    "Hamiltonians of two sizes": (
        lambda: bld.AdiabaticSchedule(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(4)),
                                      (0.0,), 1.0),
        "start and end Hamiltonians must share a dimension"),
    "joint dimension 8": (lambda: bld.build_adiabatic_game(_schedule(8), 0.5),
                          "the two-player split needs a square joint dimension"),
    "joint dimension 1": (lambda: bld.build_adiabatic_game(_schedule(1), 0.5),
                          "each player needs a qudit of dimension >= 2"),
    "phase past the float maximum": (
        lambda: bld.AdiabaticSchedule(_schedule(4).h_initial, _schedule(4).h_final, (0.0,), 1e308),
        "time 1e+308 times the spectral bound 3.0 of H(s) exceeds the float maximum"),
}


def test_schedule_time_up_to_the_phase_bound_is_accepted():
    h = _schedule(4).h_final   # spectral bound 3
    time = np.nextafter(np.finfo(float).max / 3.0, 0.0)   # the largest with 3 * time finite
    game = bld.build_adiabatic_game(bld.AdiabaticSchedule(h, h, (0.5,), time), 0.5)
    assert np.isfinite(game.unitary.matrix).all()


@pytest.mark.parametrize("case", BUILDER_REFUSALS)
def test_each_builder_refusal_has_its_message(case):
    call, message = BUILDER_REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
