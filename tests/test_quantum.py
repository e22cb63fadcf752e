"""Quantum games: payoffs, best responses, dynamics, verification, grids."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import qugame.quantum as qq
from qugame import builders as bld
from qugame.builders import bell_state_preparation_demo, build_state_preparation_game
from qugame.geometry import bloch_embedding
from qugame.linalg import (
    ProductPlay,
    PureState,
    haar_random_state,
    haar_random_unitary,
    inner_product,
    partial_contraction,
)

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / math.sqrt(2)


def identity_game(target1, target2):
    return build_state_preparation_game((2, 2), np.eye(4), (target1, target2))


# --------------------------------------------------------------- payoffs ---

def test_prepared_state_is_unitary_on_product():
    game = bell_state_preparation_demo()
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    prepared = qq.prepared_state(game, play)
    ref = game.unitary.matrix @ np.kron([1, 0], [1, 0])
    assert_allclose(prepared.amplitudes, ref, atol=1e-15)
    assert_allclose(np.linalg.norm(prepared.amplitudes), 1.0, atol=1e-14)


def test_overlap_payoff_bell_from_zero_zero():
    game = bell_state_preparation_demo()
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    # preparing from |00> already lands on the target
    assert abs(qq.payoff(game, play, 0)) == pytest.approx(1.0, abs=1e-12)


def test_observable_payoff_matches_manual_sum():
    rng = np.random.default_rng(30)
    u = haar_random_unitary(4, rng)
    e = np.array([0.3, -0.2, 1.1, 0.4])
    game = qq.QuantumGame((2, 2), u, (qq.ObservablePayoff(e), qq.ObservablePayoff(-e)))
    play = qq.random_play(game, rng)
    amps = qq.prepared_state(game, play).amplitudes
    ref = float(np.sum(e * np.abs(amps) ** 2))
    assert qq.observable_payoff(game, play, 0) == pytest.approx(ref, abs=1e-12)
    assert qq.payoff(game, play, 1) == pytest.approx(-ref, abs=1e-12)


def test_overlap_contraction_reproduces_payoff():
    rng = np.random.default_rng(31)
    game = build_state_preparation_game(
        (2, 2), haar_random_unitary(4, rng), (haar_random_state(4, rng), haar_random_state(4, rng))
    )
    play = qq.random_play(game, rng)
    for i in range(2):
        v = qq.overlap_contraction(game, play, i)
        assert np.vdot(v, play.factors[i].amplitudes) == pytest.approx(
            qq.overlap_payoff(game, play, i), abs=1e-13
        )


def test_overlap_payoff_linear_in_own_slot():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        game = build_state_preparation_game(
            (2, 2), haar_random_unitary(4, rng), (haar_random_state(4, rng),) * 2
        )
        b = haar_random_state(2, rng)
        r = haar_random_state(2, rng).amplitudes
        s = haar_random_state(2, rng).amplitudes
        mu = float(rng.uniform())
        v = qq.overlap_contraction(game, ProductPlay((PureState([1, 0]), b)), 0)
        lhs = np.vdot(v, mu * r + (1 - mu) * s)
        rhs = mu * np.vdot(v, r) + (1 - mu) * np.vdot(v, s)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_effective_observable_quadratic_form():
    rng = np.random.default_rng(32)
    game = qq.QuantumGame(
        (2, 2),
        haar_random_unitary(4, rng),
        (qq.ObservablePayoff(np.array([1.0, 0.0, 0.5, -0.5])),) * 2,
    )
    play = qq.random_play(game, rng)
    for i in range(2):
        m = qq.effective_observable(game, play, i)
        assert_allclose(m, m.conj().T, atol=1e-13)
        f = play.factors[i].amplitudes
        assert np.vdot(f, m @ f).real == pytest.approx(
            qq.observable_payoff(game, play, i), abs=1e-12
        )


# ----------------------------------------------- slot contraction kernel ---

UNEQUAL_DIMS = [(2, 3), (3, 2), (3, 2, 2), (2, 3, 4), (4, 2, 3)]


def joint_operator_contraction(game, play, i):
    """Effective observable the long way: form U^H diag(eigenvalues) U, then
    contract each opponent's row axis with conj(factor) and column axis with
    the factor."""
    u = game.unitary.matrix
    tens = (u.conj().T @ (game.payoffs[i].eigenvalues[:, None] * u)).reshape(game.dims * 2)
    remaining = list(range(game.num_players))  # players whose axes are left
    for j in reversed(range(game.num_players)):
        if j == i:
            continue
        f = play.factors[j].amplitudes
        row = remaining.index(j)
        tens = np.tensordot(tens, f, axes=([len(remaining) + row], [0]))
        tens = np.tensordot(tens, np.conj(f), axes=([row], [0]))
        remaining.remove(j)
    return tens


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNEQUAL_DIMS), st.integers(min_value=0, max_value=2**32 - 1))
def test_slot_kernels_match_joint_space_oracles(dims, seed):
    rng = np.random.default_rng(seed)
    joint = math.prod(dims)
    u = haar_random_unitary(joint, rng)
    observable = qq.QuantumGame(
        dims, u, [qq.ObservablePayoff(rng.standard_normal(joint)) for _ in dims]
    )
    overlap = qq.QuantumGame(
        dims, u, [qq.OverlapPayoff(haar_random_state(joint, rng)) for _ in dims]
    )
    play = qq.random_play(observable, rng)
    for i in range(len(dims)):
        q = haar_random_state(dims[i], rng)
        deviated = play.replace(i, q)
        m = qq.effective_observable(observable, play, i)
        assert_allclose(m, joint_operator_contraction(observable, play, i), rtol=0, atol=1e-12)
        assert np.vdot(q.amplitudes, m @ q.amplitudes).real == pytest.approx(
            qq.observable_payoff(observable, deviated, i), abs=1e-12
        )
        v = qq.overlap_contraction(overlap, play, i)
        pulled_back = u.matrix.conj().T @ overlap.payoffs[i].target.amplitudes
        assert_allclose(v, partial_contraction(pulled_back, play, i), rtol=0, atol=1e-12)
        assert inner_product(v, q) == pytest.approx(
            qq.overlap_payoff(overlap, deviated, i), abs=1e-12
        )


# --------------------------------------------------------- best responses ---

def test_best_response_overlap_attains_contraction_norm():
    rng = np.random.default_rng(33)
    game = build_state_preparation_game(
        (2, 2), haar_random_unitary(4, rng), (haar_random_state(4, rng),) * 2
    )
    play = qq.random_play(game, rng)
    v = qq.overlap_contraction(game, play, 0)
    br = qq.best_response_overlap(game, play, 0)
    attained = abs(qq.overlap_payoff(game, play.replace(0, br), 0))
    assert attained == pytest.approx(np.linalg.norm(v), abs=1e-12)
    # no unit deviation can beat the contraction norm (Cauchy-Schwarz)
    for _ in range(200):
        dev = haar_random_state(2, rng)
        val = abs(qq.overlap_payoff(game, play.replace(0, dev), 0))
        assert val <= attained + 1e-12


def test_best_response_overlap_bell_example():
    game = identity_game(BELL, BELL)
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    br = qq.best_response_overlap(game, play, 0)
    assert br == PureState([1, 0])
    after = abs(qq.overlap_payoff(game, play.replace(0, br), 0))
    assert after == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_best_response_overlap_keeps_factor_when_indifferent():
    # opponent's factor makes the contraction vanish: any reply scores zero,
    # so the current factor must be kept rather than replaced by noise
    e11 = np.zeros(4)
    e11[3] = 1.0
    game = identity_game(e11, e11)
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    br = qq.best_response_overlap(game, play, 0)
    assert br == play.factors[0]


def test_best_response_observable_dominates_random_deviations():
    rng = np.random.default_rng(34)
    e = np.array([0.3, -0.2, 1.1, 0.4])
    game = qq.QuantumGame(
        (2, 2), haar_random_unitary(4, rng), (qq.ObservablePayoff(e), qq.ObservablePayoff(-e))
    )
    play = qq.random_play(game, rng)
    br = qq.best_response_observable(game, play, 0)
    best_val = qq.observable_payoff(game, play.replace(0, br), 0)
    for _ in range(500):
        dev = haar_random_state(2, rng)
        assert qq.observable_payoff(game, play.replace(0, dev), 0) <= best_val + 1e-12


# ---------------------------------------------------------------- dynamics ---

def test_bell_dynamics_converges_in_two_sweeps():
    game = bell_state_preparation_demo()
    out = qq.iterated_best_response(game, seed=11, tol=1e-7, max_iter=500)
    assert out.status is qq.DynamicsStatus.CONVERGED
    assert out.converged
    assert out.iterations <= 2
    assert abs(qq.payoff(game, out.play, 0)) == pytest.approx(1.0, abs=1e-10)
    # trace carries one record per sweep with shrinking steps
    assert len(out.trace) == out.iterations
    assert out.trace[-1].step_distance <= 1e-7


def test_dynamics_trace_payoffs_are_recomputable():
    game = bell_state_preparation_demo()
    out = qq.iterated_best_response(game, seed=11, tol=1e-7)
    final = out.trace[-1].payoffs
    for i in range(2):
        assert final[i] == pytest.approx(qq.payoff(game, out.play, i), abs=1e-12)


def test_trace_payoffs_equal_payoff_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(42)
    game = qq.QuantumGame(
        (2, 3, 2),
        haar_random_unitary(12, rng),
        (
            qq.OverlapPayoff(haar_random_state(12, rng)),
            qq.ObservablePayoff(rng.standard_normal(12)),
            qq.OverlapPayoff(haar_random_state(12, rng)),
        ),
    )
    prepared = []
    real = qq.prepared_vector

    def counting(*args):
        prepared.append(args)
        return real(*args)

    monkeypatch.setattr(qq, "prepared_vector", counting)
    out = qq.iterated_best_response(game, qq.random_play(game, rng), max_iter=5)
    assert len(prepared) == len(out.trace)   # one prepared vector per sweep
    monkeypatch.undo()
    assert out.trace[-1].payoffs == tuple(qq.payoff(game, out.play, i) for i in range(3))


def test_conflicting_targets_one_sided_win():
    # both players pull toward orthogonal basis states; the first mover wins,
    # the loser's contraction vanishes and its payoff is exactly zero
    e00 = np.zeros(4)
    e00[0] = 1.0
    e11 = np.zeros(4)
    e11[3] = 1.0
    game = identity_game(e00, e11)
    for seed in range(6):
        start = qq.random_play(game, seed)
        out = qq.iterated_best_response(game, start, tol=1e-9, max_iter=50)
        assert out.status is qq.DynamicsStatus.CONVERGED
        assert out.iterations == 2
        p1 = qq.overlap_payoff(game, out.play, 0)
        p2 = qq.overlap_payoff(game, out.play, 1)
        assert abs(p2) == 0.0
        # the winner's score is the part of the loser's start already in place
        assert abs(p1) == pytest.approx(abs(start.factors[1].amplitudes[0]), abs=1e-12)
        assert qq.verify_epsilon_nash_quantum(game, out.play, 1e-8, num_probes=16, seed=1)


def test_alignment_demo_cycles_with_period_two():
    game = qq.alignment_demo_game()
    out = qq.iterated_best_response(game, qq.random_play(game, 3), tol=1e-9, max_iter=100)
    assert out.status is qq.DynamicsStatus.CYCLE_DETECTED
    assert out.period == 2
    assert out.iterations == 3
    assert out.cycle_start == out.iterations - out.period


def test_max_iterations_status():
    game = qq.alignment_demo_game()
    # too few sweeps to close the cycle window
    out = qq.iterated_best_response(game, qq.random_play(game, 3), tol=1e-9, max_iter=2)
    assert out.status is qq.DynamicsStatus.MAX_ITERATIONS
    assert out.iterations == 2


def test_multi_start_dynamics_is_deterministic():
    game = bell_state_preparation_demo()
    a = qq.multi_start_dynamics(game, 5, tol=1e-7, max_iter=100, seed=21)
    b = qq.multi_start_dynamics(game, 5, tol=1e-7, max_iter=100, seed=21)
    assert [o.status for o in a] == [o.status for o in b]
    for x, y in zip(a, b):
        assert qq.play_distance(x.play, y.play) < 1e-15


def test_play_distance_contract():
    a = ProductPlay((PureState([1, 0]), PureState([0, 1])))
    b = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    assert qq.play_distance(a, a) == 0.0
    assert qq.play_distance(a, b) == pytest.approx(np.pi / 2, abs=1e-14)
    c = ProductPlay((PureState([1, 0]), PureState([0, 1]), PureState([1, 0])))
    with pytest.raises(ValueError, match="player"):
        qq.play_distance(a, c)


# ------------------------------------------------- fixed-point extraction ---

def test_fixed_point_candidates_are_equilibria():
    # orthogonal targets make round-robin dynamics orbit with period 2; the
    # closed-form extraction still has to land on mutual best responses
    rng = np.random.default_rng(36)
    u = haar_random_unitary(4, rng)
    t1 = haar_random_state(4, rng).amplitudes
    # Gram-Schmidt an orthogonal second target
    raw = haar_random_state(4, rng).amplitudes
    t2 = raw - t1 * np.vdot(t1, raw)
    t2 /= np.linalg.norm(t2)
    game = build_state_preparation_game((2, 2), u, (t1, t2))
    candidates = qq.overlap_fixed_point_candidates(game)
    assert candidates
    for play in candidates:
        cert = qq.verify_epsilon_nash_quantum(game, play, 1e-8, num_probes=16, seed=2)
        assert cert is not None


def test_fixed_point_candidates_need_two_player_overlap():
    game = qq.alignment_demo_game()
    with pytest.raises(ValueError, match="overlap"):
        qq.overlap_fixed_point_candidates(game)
    rng = np.random.default_rng(37)
    three = qq.QuantumGame(
        (2, 2, 2), haar_random_unitary(8, rng), (qq.OverlapPayoff(haar_random_state(8, rng)),) * 3
    )
    with pytest.raises(ValueError, match="two-player"):
        qq.overlap_fixed_point_candidates(three)


# ------------------------------------------------------------ verification ---

def test_verify_accepts_equilibrium_and_rejects_deviation():
    game = bell_state_preparation_demo()
    eq = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    cert = qq.verify_epsilon_nash_quantum(game, eq, 1e-6, num_probes=16, seed=5)
    assert cert is not None
    assert cert.max_probe_gain <= 1e-6
    assert max(cert.per_player_gain) <= 1e-6
    bad = ProductPlay((PureState([0, 1]), PureState([1, 0])))
    assert qq.verify_epsilon_nash_quantum(game, bad, 1e-6, num_probes=16, seed=5) is None


def test_max_probe_gain_matches_probe_by_probe_recomputation():
    rng = np.random.default_rng(41)
    dims, joint, num_probes = (2, 3, 2), 12, 16
    game = qq.QuantumGame(
        dims,
        haar_random_unitary(joint, rng),
        (
            qq.ObservablePayoff(rng.standard_normal(joint)),
            qq.OverlapPayoff(haar_random_state(joint, rng)),
            qq.ObservablePayoff(rng.standard_normal(joint)),
        ),
    )
    play = qq.random_play(game, rng)
    verify_rng = np.random.default_rng(9)
    cert = qq.verify_epsilon_nash_quantum(
        game, play, 100.0, num_probes=num_probes, seed=verify_rng
    )
    # the same stream, one haar_random_state per probe, players in index order
    probe_rng = np.random.default_rng(9)
    best = -math.inf
    for i, spec in enumerate(game.payoffs):
        def value(factors, spec=spec):
            prepared = qq.prepared_vector(game, factors)
            if isinstance(spec, qq.OverlapPayoff):
                return abs(np.vdot(spec.target.amplitudes, prepared))
            return float(spec.eigenvalues @ np.abs(prepared) ** 2)

        factors = [f.amplitudes for f in play.factors]
        current = value(factors)
        for _ in range(num_probes):
            factors[i] = haar_random_state(dims[i], probe_rng).amplitudes
            best = max(best, value(factors) - current)
    assert cert is not None
    assert cert.max_probe_gain == pytest.approx(best, abs=1e-12)
    assert verify_rng.standard_normal() == probe_rng.standard_normal()


def test_quantum_deviation_gains_at_bell_equilibrium():
    game = bell_state_preparation_demo()
    eq = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    assert_allclose(qq.quantum_deviation_gains(game, eq), [0.0, 0.0], atol=1e-12)
    bad = ProductPlay((PureState([0, 1]), PureState([1, 0])))
    gains = qq.quantum_deviation_gains(game, bad)
    assert gains[0] == pytest.approx(1.0, abs=1e-12)
    assert gains[1] == pytest.approx(0.0, abs=1e-12)


BAD_THRESHOLDS = [math.nan, math.inf, -1.0]


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the parameters were checked")


@pytest.mark.parametrize("tol", BAD_THRESHOLDS)
def test_dynamics_refuses_a_bad_tol_before_any_sweep(monkeypatch, tol):
    game = bell_state_preparation_demo()
    monkeypatch.setattr(qq, "best_response", _refuse)
    with pytest.raises(ValueError, match="^tol must be a finite real >= 0"):
        qq.iterated_best_response(game, tol=tol, seed=0)


@pytest.mark.parametrize("epsilon", BAD_THRESHOLDS)
def test_verify_refuses_a_bad_epsilon_before_any_gain(monkeypatch, epsilon):
    game = bell_state_preparation_demo()
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    monkeypatch.setattr(qq, "quantum_deviation_gains", _refuse)
    with pytest.raises(ValueError, match="^epsilon must be a finite real >= 0"):
        qq.verify_epsilon_nash_quantum(game, play, epsilon)


def test_verify_refuses_a_negative_probe_count_before_any_gain(monkeypatch):
    game = bell_state_preparation_demo()
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    monkeypatch.setattr(qq, "quantum_deviation_gains", _refuse)
    with pytest.raises(ValueError, match="^num_probes must be >= 0, got -3"):
        qq.verify_epsilon_nash_quantum(game, play, 1e-6, num_probes=-3)


@pytest.mark.parametrize("epsilon", BAD_THRESHOLDS)
def test_grid_search_refuses_a_bad_epsilon_before_any_table(monkeypatch, epsilon):
    monkeypatch.setattr(qq, "_scalar_payoff_tables", _refuse)
    with pytest.raises(ValueError, match="^epsilon must be a finite real >= 0"):
        qq.grid_search_pure_nash(qq.alignment_demo_game(), 8, epsilon)


# -------------------------------------------------------------- grid scan ---

def test_grid_states_shape_and_norms():
    grid = qq.grid_states(8)
    assert grid.shape == (64, 2)
    assert_allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)


def test_grid_search_finds_bell_optimum():
    game = bell_state_preparation_demo()
    report = qq.grid_search_pure_nash(game, 16, epsilon=0.05)
    assert report.num_plays == 256 * 256
    # the |00> grid point is exact, so the gain floor is zero and the
    # reported equilibria saturate the reporting cap
    assert report.min_max_gain == pytest.approx(0.0, abs=1e-12)
    assert report.num_equilibria == 64
    best = report.best_play()
    assert abs(qq.payoff(game, best, 0)) == pytest.approx(1.0, abs=1e-10)


def test_grid_search_alignment_demo_has_no_pure_equilibrium():
    game = qq.alignment_demo_game()
    report = qq.grid_search_pure_nash(game, 8, epsilon=0.05)
    assert report.num_equilibria == 0
    # one player can always realign: the max gain never drops below 1/2
    assert report.min_max_gain >= 0.5 - 1e-9


def einsum_payoff_tables(game, grid):
    """Both scalar payoff tables from the joint grid states, as the scan first
    computed them: one (n, n, 4) outer product contracted per player."""
    n = grid.shape[0]
    joint = np.einsum("ak,bl->abkl", grid, grid).reshape(n, n, 4)
    tables = []
    for spec in game.payoffs:
        if isinstance(spec, qq.OverlapPayoff):
            pulled = (spec.target.amplitudes.conj() @ game.unitary.matrix).conj()
            tables.append(np.abs(joint @ np.conj(pulled)))
        else:
            tables.append(np.abs(joint @ game.unitary.matrix.T) ** 2 @ spec.eigenvalues)
    return tables


def assert_tables_match_oracle(game, resolution):
    grid = qq.grid_states(resolution)
    for spec, table, oracle in zip(
        game.payoffs, qq._scalar_payoff_tables(game, grid), einsum_payoff_tables(game, grid)
    ):
        if isinstance(spec, qq.OverlapPayoff):
            assert np.abs(table - oracle).max() <= 1e-15
        else:   # Bloch-form rounding, relative to the observable's scale
            scale = max(1.0, np.abs(spec.eigenvalues).max())
            assert np.abs(table - oracle).max() <= 1e-14 * scale


def _bundled_two_qubit_games():
    schedule = bld.demo_adiabatic_schedule()
    yield bell_state_preparation_demo()
    yield qq.alignment_demo_game()
    for target in range(4):
        yield bld.build_grover_game(2, target, (1, 1))
    for s in schedule.s_values:
        yield bld.build_adiabatic_game(schedule, s)


@pytest.mark.parametrize("resolution", [4, 7, 16])
def test_factored_grid_tables_match_the_einsum_oracle_on_bundled_games(resolution):
    for game in _bundled_two_qubit_games():
        assert_tables_match_oracle(game, resolution)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=12),
    st.booleans(),
)
def test_factored_grid_tables_match_the_einsum_oracle(seed, resolution, mixed):
    rng = np.random.default_rng(seed)
    second = (qq.ObservablePayoff(rng.standard_normal(4)) if mixed
              else qq.OverlapPayoff(haar_random_state(4, rng)))
    game = qq.QuantumGame(
        (2, 2),
        haar_random_unitary(4, rng),
        (qq.OverlapPayoff(haar_random_state(4, rng)), second),
    )
    assert_tables_match_oracle(game, resolution)


@pytest.mark.parametrize("resolution", [8, 16, 32])
def test_alignment_scan_best_play_is_a_minimum_of_the_oracle_gains(resolution):
    # the Bloch-form tables may break near-ties differently from the einsum
    # oracle, but the play they pick must be minimal in the oracle's own gains
    game = qq.alignment_demo_game()
    report = qq.grid_search_pure_nash(game, resolution, epsilon=0.05)
    table1, table2 = einsum_payoff_tables(game, qq.grid_states(resolution))
    worst = np.maximum(table1.max(axis=0)[None, :] - table1,
                       table2.max(axis=1)[:, None] - table2)
    assert worst[report.best_index] - worst.min() <= 1e-15
    assert report.min_max_gain == pytest.approx(worst.min(), abs=1e-15)


# alignment demo: no joint grid states (the row-block einsum peaked at
# 896 MiB); Bell: the gains overwrite their tables (was 679 MiB)
@pytest.mark.parametrize("game, bound_mib",
                         [(qq.alignment_demo_game(), 450), (bell_state_preparation_demo(), 600)],
                         ids=["alignment-demo", "bell"])
def test_grid_scan_peak_memory_at_resolution_64(game, bound_mib):
    tracemalloc.start()
    try:
        qq.grid_search_pure_nash(game, qq.MAX_GRID_RESOLUTION, epsilon=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


@pytest.mark.parametrize("seed", range(4))
def test_grid_oracle_observable_branch_brackets_the_top_eigenvalue(seed):
    rng = np.random.default_rng(seed)
    game = qq.QuantumGame(
        (2, 2),
        haar_random_unitary(4, rng),
        (qq.ObservablePayoff(rng.standard_normal(4)), qq.ObservablePayoff(rng.standard_normal(4))),
    )
    states = qq.grid_states(64)
    for trial in range(3):
        play = qq.random_play(game, rng)
        for player in range(2):
            m = qq.effective_observable(game, play, player)
            top = np.linalg.eigvalsh(m)[-1]
            grid = qq.grid_best_response_payoff(game, play, player, 64)
            assert top - 1e-3 <= grid <= top + 1e-12
            # <q, M q> state by state, as the oracle computed it on amplitudes
            direct = np.einsum("ak,kl,al->a", states.conj(), m, states).real.max()
            assert grid == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------- bundled demos ---

def test_alignment_demo_is_zero_sum_bloch_alignment():
    game = qq.alignment_demo_game()
    rng = np.random.default_rng(7)
    for _ in range(5):
        play = qq.random_play(game, rng)
        p1 = qq.observable_payoff(game, play, 0)
        p2 = qq.observable_payoff(game, play, 1)
        assert p1 + p2 == pytest.approx(0.0, abs=1e-12)
        b1 = bloch_embedding(play.factors[0])
        b2 = bloch_embedding(play.factors[1])
        assert p1 == pytest.approx(0.5 * float(np.dot(b1, b2)), abs=1e-12)


def test_nonlinearity_witness_certifies_itself():
    w = qq.observable_nonlinearity_witness()
    gap = abs(w.mixed_value - w.average_value)
    assert gap == pytest.approx(0.25, abs=1e-12)
    assert gap > 0.1

    # recompute both sides on the ambient segment between the slots: the
    # quadratic form is evaluated on mu*a + (1-mu)*b itself, which is exactly
    # where it parts ways with the linear overlap payoff
    def ambient(slot):
        eigen = w.game.payoffs[w.player].eigenvalues
        amps = w.game.unitary.matrix @ np.kron(slot, [1.0, 0.0])
        return float(np.sum(eigen * np.abs(amps) ** 2))

    val_a = ambient(w.slot_a)
    val_b = ambient(w.slot_b)
    assert w.average_value == pytest.approx(w.mu * val_a + (1 - w.mu) * val_b, abs=1e-12)
    assert w.mixed_value == pytest.approx(
        ambient(w.mu * w.slot_a + (1 - w.mu) * w.slot_b), abs=1e-12
    )


# ------------------------------------------------------------- validation ---

def test_quantum_game_validation():
    with pytest.raises(ValueError, match="joint space"):
        qq.QuantumGame((2, 2), np.eye(3), (qq.OverlapPayoff(PureState(np.ones(4) / 2)),) * 2)
    with pytest.raises(ValueError, match="payoff specs"):
        qq.QuantumGame((2, 2), np.eye(4), (qq.OverlapPayoff(PureState(np.ones(4) / 2)),))
    with pytest.raises(ValueError, match="target dimension"):
        qq.QuantumGame((2, 2), np.eye(4), (qq.OverlapPayoff(PureState([1, 0])),) * 2)
    with pytest.raises(ValueError, match="eigenvalues"):
        qq.QuantumGame((2, 2), np.eye(4), (qq.ObservablePayoff(np.ones(3)),) * 2)
