"""Quantum games: payoffs, best responses, dynamics, verification, grids."""
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import qugame.quantum as qq
from qugame import builders as bld
from qugame.builders import bell_state_preparation_demo, build_state_preparation_game
from qugame.config import DEFAULT_TOLS
from qugame.geometry import bloch_embedding
from qugame.linalg import (
    ProductPlay,
    PureState,
    _bloch_rows,
    _haar_rows,
    _outer,
    canonicalize_phase,
    fubini_study_distance,
    haar_random_state,
    haar_random_unitary,
    partial_contraction,
)

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / math.sqrt(2)


def identity_game(target1, target2):
    return build_state_preparation_game((2, 2), np.eye(4), (target1, target2))


def swap(play, i, state):
    """The play with factor ``i`` replaced by ``state``."""
    factors = list(play.factors)
    factors[i] = state
    return ProductPlay(factors)


# --------------------------------------------------------------- payoffs ---

def test_prepared_state_is_unitary_on_product():
    game = bell_state_preparation_demo()
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    prepared = qq.prepared_vector(game, game.check_play(play))
    ref = game.unitary.matrix @ np.kron([1, 0], [1, 0])
    assert_allclose(prepared, ref, atol=1e-15)
    assert_allclose(np.linalg.norm(prepared), 1.0, atol=1e-14)


def test_prepared_vector_refuses_bad_factors_and_prepares_column_stacks():
    rng = np.random.default_rng(33)
    dims = (2, 3, 2)
    game = qq.QuantumGame(dims, haar_random_unitary(12, rng),
                          [qq.ObservablePayoff(rng.standard_normal(12))] * 3)
    factors = [haar_random_state(d, rng).amplitudes for d in dims]
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        broken = list(factors)
        broken[1] = factors[1].copy()
        broken[1][2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qq.prepared_vector(game, broken)
    for wrong in (factors[:2], [factors[0], factors[0], factors[2]], factors + [factors[0]]):
        with pytest.raises(ValueError, match="dimensions"):
            qq.prepared_vector(game, wrong)
    with pytest.raises(ValueError, match="at least one"):
        qq.prepared_vector(game, [])
    for i, d in enumerate(dims):
        stack = rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5))
        columns = [f[:, None] for f in factors]
        columns[i] = stack
        joint = qq.prepared_vector(game, columns)
        assert joint.shape == (12, 5)
        for c in range(5):
            vectors = list(factors)
            vectors[i] = stack[:, c]
            assert_allclose(joint[:, c], qq.prepared_vector(game, vectors), rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 9, 16, 256]), st.integers(0, 2**32 - 1))
def test_overlap_read_off_is_vdot_bit_for_bit(d, seed):
    rng = np.random.default_rng(seed)
    spec = qq.OverlapPayoff(haar_random_state(d, rng))
    prepared = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * rng.exponential()
    value = complex(qq._payoff_of(spec, prepared))
    reference = complex(np.vdot(spec.target.amplitudes, prepared))
    assert np.complex128(value).tobytes() == np.complex128(reference).tobytes()


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
    amps = qq.prepared_vector(game, game.check_play(play))
    ref = float(np.sum(e * np.abs(amps) ** 2))
    assert qq.payoff(game, play, 0).imag == 0.0
    assert qq.payoff(game, play, 0).real == pytest.approx(ref, abs=1e-12)
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
            qq.payoff(game, play, i), abs=1e-13
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
            qq.payoff(game, play, i).real, abs=1e-12
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
        deviated = swap(play, i, q)
        m = qq.effective_observable(observable, play, i)
        assert_allclose(m, joint_operator_contraction(observable, play, i), rtol=0, atol=1e-12)
        assert np.vdot(q.amplitudes, m @ q.amplitudes).real == pytest.approx(
            qq.payoff(observable, deviated, i).real, abs=1e-12
        )
        v = qq.overlap_contraction(overlap, play, i)
        pulled_back = u.matrix.conj().T @ overlap.payoffs[i].target.amplitudes
        assert_allclose(v, partial_contraction(pulled_back, play, i), rtol=0, atol=1e-12)
        assert np.vdot(v, q.amplitudes) == pytest.approx(
            qq.payoff(overlap, deviated, i), abs=1e-12
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
    attained = abs(qq.payoff(game, swap(play, 0, br), 0))
    assert attained == pytest.approx(np.linalg.norm(v), abs=1e-12)
    # no unit deviation can beat the contraction norm (Cauchy-Schwarz)
    for _ in range(200):
        dev = haar_random_state(2, rng)
        val = abs(qq.payoff(game, swap(play, 0, dev), 0))
        assert val <= attained + 1e-12


def test_best_response_overlap_bell_example():
    game = identity_game(BELL, BELL)
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    br = qq.best_response_overlap(game, play, 0)
    assert br == PureState([1, 0])
    after = abs(qq.payoff(game, swap(play, 0, br), 0))
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
    best_val = qq.payoff(game, swap(play, 0, br), 0).real
    for _ in range(500):
        dev = haar_random_state(2, rng)
        assert qq.payoff(game, swap(play, 0, dev), 0).real <= best_val + 1e-12


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
        p1 = qq.payoff(game, out.play, 0)
        p2 = qq.payoff(game, out.play, 1)
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


# ------------------------------------------ validated-object loop oracle ---

def validated_best_response(game, play, i):
    """A best response built as validated states from the public contractions."""
    if isinstance(game.payoffs[i], qq.OverlapPayoff):
        v = qq.overlap_contraction(game, play, i)
        if np.linalg.norm(v) <= DEFAULT_TOLS.indifference:
            return play.factors[i]
        return canonicalize_phase(v)
    w, vecs = np.linalg.eigh(qq.effective_observable(game, play, i))
    return canonicalize_phase(vecs[:, int(np.argmax(w >= w.max() - DEFAULT_TOLS.eigenvalue_tie))])


def validated_play_distance(a, b):
    return max(fubini_study_distance(fa, fb) for fa, fb in zip(a.factors, b.factors))


def validated_dynamics(game, play, tol=1e-9, max_iter=40):
    """Round-robin dynamics stepping ProductPlay objects: one swapped play per best
    response, a per-factor state distance per sweep and per revisit, payoff per
    trace entry.
    Returns (status, iterations, period, cycle_start, trace, final play)."""
    history, trace = [], []
    for sweep in range(1, max_iter + 1):
        previous = play
        for i in range(game.num_players):
            play = swap(play, i, validated_best_response(game, play, i))
        step = validated_play_distance(previous, play)
        payoffs = tuple(qq.payoff(game, play, i) for i in range(game.num_players))
        trace.append(qq.TraceRecord(sweep, payoffs, step))
        if step <= tol:
            return qq.DynamicsStatus.CONVERGED, sweep, None, None, trace, play
        for past_sweep, past_play in history[-qq.CYCLE_WINDOW:]:
            gap = validated_play_distance(past_play, play)
            if (sweep - past_sweep >= 2 and gap <= DEFAULT_TOLS.cycle_match
                    and step >= 10.0 * gap):
                period = sweep - past_sweep
                return qq.DynamicsStatus.CYCLE_DETECTED, sweep, period, past_sweep, trace, play
        history.append((sweep, play))
    return qq.DynamicsStatus.MAX_ITERATIONS, max_iter, None, None, trace, play


def assert_matches_validated_loop(game, start):
    status, iterations, period, cycle_start, trace, play = validated_dynamics(game, start)
    out = qq.iterated_best_response(game, start, max_iter=40)
    assert (out.status, out.iterations, out.period, out.cycle_start) == (
        status, iterations, period, cycle_start)
    assert [(r.sweep, r.payoffs, r.step_distance) for r in out.trace] == [
        (r.sweep, r.payoffs, r.step_distance) for r in trace]
    for got, want in zip(out.play.factors, play.factors):
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    gains = qq.quantum_deviation_gains(game, start)
    for i, spec in enumerate(game.payoffs):
        f = start.factors[i].amplitudes
        if isinstance(spec, qq.OverlapPayoff):
            v = qq.overlap_contraction(game, start, i)
            assert gains[i] == np.linalg.norm(v) - abs(np.vdot(v, f))
        else:
            m = qq.effective_observable(game, start, i)
            spectrum = np.linalg.eigvalsh(m)
            want = spectrum[-1] - np.vdot(f, m @ f).real
            assert abs(gains[i] - want) <= 1e-14 * max(1.0, np.abs(spectrum).max())


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([(2, 2), (3, 2), (2, 3, 2), (4, 4)]),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dynamics_on_raw_arrays_match_the_validated_loop(dims, observable, seed):
    rng = np.random.default_rng(seed)
    joint = math.prod(dims)
    specs = [
        qq.ObservablePayoff(rng.standard_normal(joint)) if observable[i]
        else qq.OverlapPayoff(haar_random_state(joint, rng))
        for i in range(len(dims))
    ]
    game = qq.QuantumGame(dims, haar_random_unitary(joint, rng), specs)
    assert_matches_validated_loop(game, qq.random_play(game, rng))


@pytest.mark.parametrize("seed", range(4))
def test_bundled_dynamics_match_the_validated_loop(seed):
    # the bundled games converge (Bell) or cycle (the rest), and the basis-target game
    # leaves its second player indifferent, which random games rarely do
    e00, e11 = np.eye(4)[0], np.eye(4)[3]
    games = [
        identity_game(e00, e11),
        bell_state_preparation_demo(),
        qq.alignment_demo_game(),
        bld.build_adiabatic_game(bld.demo_adiabatic_schedule(), 0.5),
        bld.build_grover_game(4, 0, (2, 2)),
    ]
    for game in games:
        assert_matches_validated_loop(game, qq.random_play(game, seed))


# ---------------------------------------------- stacked kernel and starts ---

def scalar_slot_form(game, factors, i):
    """The one-play slot form on 1-d factors, as it was before stacks."""
    dims = game.dims
    w = game.unitary.matrix.reshape((game.joint_dimension, *dims))
    for j in reversed(range(len(dims))):
        if j != i:
            w = np.moveaxis(w, j + 1, -1) @ factors[j]
    w = w.reshape(-1, dims[i])
    spec = game.payoffs[i]
    if isinstance(spec, qq.OverlapPayoff):
        return (spec.target.amplitudes.conj() @ w).conj()
    m = w.conj().T @ (spec.eigenvalues[:, None] * w)
    return 0.5 * (m + m.conj().T)


def scalar_slot_optimum(game, factors, i):
    """The one-play optimum: canonical best response, attainable and current payoff."""
    spec, f = game.payoffs[i], factors[i]
    form = scalar_slot_form(game, factors, i)
    if isinstance(spec, qq.OverlapPayoff):
        attainable, current = np.linalg.norm(form), abs(np.vdot(form, f))
        if attainable <= DEFAULT_TOLS.indifference:
            return f, attainable, current
        direction = form
    else:
        values, vectors = np.linalg.eigh(form)
        attainable, current = values.max(), np.vdot(f, form @ f).real
        direction = vectors[:, int(np.argmax(values >= attainable - DEFAULT_TOLS.eigenvalue_tie))]
    return canonicalize_phase(direction).amplitudes, attainable, current


def stack_form(game, factors, i):
    """The slot form of the factor stacks' own slot map W."""
    return qq._slot_form(game, qq._slot_map(game, factors, i), i)


def stack_optimum(game, factors, i):
    """The slot optimum of the factor stacks' own slot map W."""
    return qq._slot_optimum(game, qq._slot_map(game, factors, i), factors[i], i)


def scalar_random_play(game, rng):
    """One Haar state per player, each from its own draws."""
    return ProductPlay([haar_random_state(d, rng) for d in game.dims])


def random_game(dims, observable, rng):
    joint = math.prod(dims)
    specs = [
        qq.ObservablePayoff(rng.standard_normal(joint)) if observable[i]
        else qq.OverlapPayoff(haar_random_state(joint, rng))
        for i in range(len(dims))
    ]
    return qq.QuantumGame(dims, haar_random_unitary(joint, rng), specs)


KERNEL_DIMS = [(2, 2), (3, 2), (2, 3, 2), (4, 4), (16, 16)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(KERNEL_DIMS),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_row_stack_is_the_one_play_kernel_bit_for_bit(dims, observable, seed):
    rng = np.random.default_rng(seed)
    game = random_game(dims, observable, rng)
    factors = game.check_play(scalar_random_play(game, rng))
    rows = [f[None] for f in factors]
    for i in range(len(dims)):
        form = stack_form(game, rows, i)
        assert form.shape == (1, *scalar_slot_form(game, factors, i).shape)
        assert form[0].tobytes() == scalar_slot_form(game, factors, i).tobytes()
        best, attainable, current = scalar_slot_optimum(game, factors, i)
        _, got_attainable, got_current = stack_optimum(game, rows, i)
        assert qq._best_rows(game, rows, i)[0].tobytes() == best.tobytes()
        assert (got_attainable[0], got_current[0]) == (attainable, current)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(KERNEL_DIMS),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_each_stack_row_is_the_one_row_kernel(dims, observable, k, seed):
    rng = np.random.default_rng(seed)
    game = random_game(dims, observable, rng)
    stacks = _haar_rows(game.dims, k, rng)
    for i in range(len(dims)):
        form = stack_form(game, stacks, i)
        optimum = stack_optimum(game, stacks, i)
        best = qq._best_rows(game, stacks, i)
        for r in range(k):
            rows = [s[r:r + 1] for s in stacks]
            one_form = stack_form(game, rows, i)[0]
            scale = max(1.0, np.abs(one_form).max())
            assert np.abs(form[r] - one_form).max() <= 1e-15 * scale
            for got, want in zip(optimum[1:], stack_optimum(game, rows, i)[1:]):
                assert abs(got[r] - want[0]) <= 1e-15 * scale
            assert np.abs(best[r] - qq._best_rows(game, rows, i)[0]).max() <= 1e-15


@pytest.mark.parametrize("dims", [(32, 32), (2, 512), (512, 2)])
@pytest.mark.parametrize("seed", [3, 11])
def test_stack_rows_at_joint_dimension_1024_are_the_one_play_kernel_bit_for_bit(dims, seed):
    # sizes where BLAS may split one product across threads; both payoff kinds per player
    rng = np.random.default_rng(seed)
    unitary = haar_random_unitary(1024, rng)
    overlap = qq.OverlapPayoff(haar_random_state(1024, rng))
    observable = qq.ObservablePayoff(rng.standard_normal(1024))
    stacks = _haar_rows(dims, 5, rng)
    for specs in [(overlap, observable), (observable, overlap)]:
        game = qq.QuantumGame(dims, unitary, specs)
        for i in range(2):
            form = stack_form(game, stacks, i)
            for r in range(5):
                one_row = stack_form(game, [s[r:r + 1] for s in stacks], i)[0]
                assert form[r].tobytes() == one_row.tobytes()
                assert form[r].tobytes() == scalar_slot_form(game, [s[r] for s in stacks], i).tobytes()


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3, 2), (4, 4)])
def test_deviation_gains_are_the_one_play_gains_bit_for_bit(dims):
    # 50 seeded games per shape, each player's payoff kind drawn at random
    for seed in range(50):
        rng = np.random.default_rng(seed)
        game = random_game(dims, rng.integers(0, 2, size=len(dims)).astype(bool), rng)
        play = scalar_random_play(game, rng)
        factors = game.check_play(play)
        want = np.array([a - c for _, a, c in
                         (scalar_slot_optimum(game, factors, i) for i in range(len(dims)))])
        assert qq.quantum_deviation_gains(game, play).tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3, 2), (16, 16)])
def test_outer_product_preparation_is_kron_bit_for_bit(dims):
    rng = np.random.default_rng(sum(dims))
    for _ in range(20):
        factors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        assert reduce(_outer, factors).tobytes() == reduce(np.kron, factors).tobytes()
        for i, d in enumerate(dims):
            columns = [f[:, None] for f in factors]
            columns[i] = rng.standard_normal((d, 7)) + 1j * rng.standard_normal((d, 7))
            assert reduce(_outer, columns).tobytes() == reduce(np.kron, columns).tobytes()


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3, 2), (16, 16)])
def test_one_array_start_draw_is_per_start_random_plays(dims):
    game = random_game(dims, [True] * len(dims), np.random.default_rng(1))
    for seed in range(10):
        stack_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stacks = _haar_rows(game.dims, 6, stack_rng)
        for r in range(6):
            play = scalar_random_play(game, loop_rng)
            for stack, factor in zip(stacks, play.factors):
                assert stack[r].tobytes() == factor.amplitudes.tobytes()
        assert stack_rng.bit_generator.state == loop_rng.bit_generator.state
        assert qq.random_play(game, seed) == scalar_random_play(game, np.random.default_rng(seed))


def assert_matches_per_start_loop(game, num_starts, seed, max_iter=40):
    outcomes = qq.multi_start_dynamics(game, num_starts, max_iter=max_iter, seed=seed)
    rng = np.random.default_rng(seed)
    assert len(outcomes) == num_starts
    for out in outcomes:
        status, iterations, period, cycle_start, trace, play = validated_dynamics(
            game, scalar_random_play(game, rng), max_iter=max_iter)
        assert (out.status, out.iterations, out.period, out.cycle_start) == (
            status, iterations, period, cycle_start)
        assert [r.sweep for r in out.trace] == [r.sweep for r in trace]
        for got, want in zip(out.trace, trace):
            assert abs(got.step_distance - want.step_distance) <= 1e-12
            assert np.abs(np.subtract(got.payoffs, want.payoffs)).max() <= 1e-12
        for got, want in zip(out.play.factors, play.factors):
            assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(2, 2), (3, 2), (2, 3, 2), (4, 4)]),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_multi_start_dynamics_match_a_per_start_loop(dims, observable, seed):
    game = random_game(dims, observable, np.random.default_rng(seed))
    assert_matches_per_start_loop(game, 5, seed)


def test_bundled_multi_start_dynamics_match_a_per_start_loop():
    # converging (Bell), cycling (alignment, adiabatic interior) and indifferent
    # (basis targets) starts finish at different sweeps and leave the stack apart
    e00, e11 = np.eye(4)[0], np.eye(4)[3]
    games = [
        identity_game(e00, e11),
        bell_state_preparation_demo(),
        qq.alignment_demo_game(),
        bld.build_adiabatic_game(bld.demo_adiabatic_schedule(), 0.5),
        bld.build_grover_game(4, 0, (2, 2)),
    ]
    for seed, game in enumerate(games):
        assert_matches_per_start_loop(game, 12, seed)
    # a start that never settles runs to the iteration cap beside finished ones
    assert_matches_per_start_loop(qq.alignment_demo_game(), 5, 3, max_iter=2)


def test_a_start_on_the_orbit_is_no_revisit():
    # the start is not a sweep: a play already on the period-2 orbit closes the
    # cycle at sweep 3 against sweep 1, as the validated loop does, alone or stacked
    game = qq.alignment_demo_game()
    on_orbit = qq.iterated_best_response(game, seed=3).play
    out = qq.iterated_best_response(game, on_orbit)
    assert (out.status, out.iterations, out.period, out.cycle_start) == (
        qq.DynamicsStatus.CYCLE_DETECTED, 3, 2, 1)
    assert_matches_validated_loop(game, on_orbit)
    stacks = [np.stack([f.amplitudes, f.amplitudes]) for f in on_orbit.factors]
    runs = qq._dynamics(game, stacks, tol=1e-9, max_iter=40, trace=False)
    assert [(r.iterations, r.period, r.cycle_start) for r in runs] == [(3, 2, 1)] * 2


@pytest.mark.parametrize("window", (2, 3))
def test_a_short_cycle_window_slides_as_the_validated_loop_does(monkeypatch, window):
    # with a window shorter than the run, the oldest sweep held moves on every sweep
    # and a cycle's start is counted from it, alone or stacked
    monkeypatch.setattr(qq, "CYCLE_WINDOW", window)
    games = [
        qq.alignment_demo_game(),
        bld.build_adiabatic_game(bld.demo_adiabatic_schedule(), 0.5),
        bld.build_grover_game(4, 0, (2, 2)),
        random_game((2, 3, 2), (False, True, False), np.random.default_rng(8)),
    ]
    for seed, game in enumerate(games):
        for k in range(3):
            assert_matches_validated_loop(game, qq.random_play(game, 3 * seed + k))
        assert_matches_per_start_loop(game, 6, seed)
    orbit = qq.iterated_best_response(qq.alignment_demo_game(), seed=3)
    assert (orbit.iterations, orbit.period, orbit.cycle_start) == (3, 2, 1)
    # these starts wander for over a dozen sweeps before closing a period-2 orbit
    late = random_game((3, 2), (True, False, True), np.random.default_rng(1))
    assert_matches_per_start_loop(late, 6, 1)
    outcomes = qq.multi_start_dynamics(late, 6, max_iter=40, seed=1)
    assert max(o.cycle_start or 0 for o in outcomes) > 4 * window


def test_an_outcome_validates_its_play_once_and_a_sweep_never_asks(monkeypatch):
    # dynamics hand back raw final factors; the ProductPlay is built on first use
    built = []
    product_play = qq.ProductPlay

    def counting(factors):
        built.append(factors)
        return product_play(factors)

    monkeypatch.setattr(qq, "ProductPlay", counting)
    out = qq.iterated_best_response(bell_state_preparation_demo(), seed=11)
    assert built == []
    play = out.play
    assert out.play is play and len(built) == 1
    for factor, raw in zip(play.factors, out.factors, strict=True):
        assert factor.amplitudes.tobytes() == raw.tobytes()

    def refuse(self):
        raise AssertionError("a sweep validated a dynamics outcome's play")

    monkeypatch.setattr(qq.DynamicsOutcome, "play", property(refuse))
    report = bld.sweep_adiabatic(bld.demo_adiabatic_schedule(), 2, seed=17)
    assert report.verified == report.num_rows


def test_stack_size_bounds_the_slot_form_intermediate():
    # joint**2 / min(dims) entries per start: the lopsided (2, 2048) game `build --kind
    # grover --n-qubits 12 --split 1,11` emits runs one start at a time, (64, 64) 16 at once
    assert qq._stack_size((2, 2048)) == 1
    assert qq._stack_size((64, 64)) == 16
    assert qq._stack_size((32, 32)) == qq.MAX_STARTS
    assert qq._stack_size((2, 2)) > qq.MAX_STARTS
    for dims in [(64, 64), (32, 32), (2, 1024), (2, 2, 2)]:
        per_start = math.prod(dims) ** 2 // min(dims)
        assert qq._stack_size(dims) * per_start <= qq.STACK_ENTRIES


def test_stack_size_counts_a_carried_referee():
    # a start that carries its own referee (a sweep's) holds joint**2 entries more: at
    # dims (32, 32), a D = 1,024 schedule, 3 such starts fit where 128 sharing one do
    assert qq._stack_size((32, 32), referee=True) == 3
    for dims in [(32, 32), (16, 16), (3, 3), (2, 2)]:
        per_start = math.prod(dims) ** 2 // min(dims) + math.prod(dims) ** 2
        assert qq._stack_size(dims, referee=True) * per_start <= qq.STACK_ENTRIES
    assert qq._stack_size((64, 64), referee=True) == 1   # one start needs more than the budget


def test_dynamics_refuses_a_trace_under_per_row_referees():
    # trace payoffs read the game's unitary, so they would belong to the wrong referee
    game = random_game((2, 2), (True, True), np.random.default_rng(3))
    starts = _haar_rows(game.dims, 2, np.random.default_rng(3))
    referees = [game.unitary.matrix, haar_random_unitary(4, 3).matrix]
    with pytest.raises(ValueError, match="trace"):
        qq._dynamics(game, starts, tol=1e-9, max_iter=5, trace=True, referees=referees)
    runs = qq._dynamics(game, starts, tol=1e-9, max_iter=5, trace=False, referees=referees)
    assert [r.trace for r in runs] == [(), ()]


def test_starts_run_in_bounded_stacks_bit_for_bit(monkeypatch):
    # a budget of three starts' slot forms splits 8 starts into stacks of 3, 3 and 2;
    # every outcome keeps the bits of the one-stack run, except trace payoffs: they
    # come from one matrix product per stack, whose rounding depends on its width
    game = random_game((2, 16), (True, False, False), np.random.default_rng(5))
    whole = qq.multi_start_dynamics(game, 8, max_iter=60, seed=5)
    per_start = 32 ** 2 // 2
    monkeypatch.setattr(qq, "STACK_ENTRIES", 3 * per_start + 1)
    sizes = []
    slot_form = qq._slot_form

    def recording(game, w, i):
        sizes.append(len(w))
        return slot_form(game, w, i)

    monkeypatch.setattr(qq, "_slot_form", recording)
    split = qq.multi_start_dynamics(game, 8, max_iter=60, seed=5)
    assert max(sizes) * per_start <= qq.STACK_ENTRIES
    assert sizes.count(3) >= 4 and sizes[0] == 3 and 2 in sizes
    for a, b in zip(whole, split, strict=True):
        assert (a.status, a.iterations, a.period, a.cycle_start) == (
            b.status, b.iterations, b.period, b.cycle_start)
        assert [(r.sweep, r.step_distance) for r in a.trace] == [
            (r.sweep, r.step_distance) for r in b.trace]
        for r, t in zip(a.trace, b.trace):
            assert np.abs(np.subtract(r.payoffs, t.payoffs)).max() <= 1e-12
        for f, g in zip(a.play.factors, b.play.factors):
            assert np.array_equal(f.amplitudes, g.amplitudes)


def test_multi_start_dynamics_refuse_a_bad_start_count_before_drawing(monkeypatch):
    monkeypatch.setattr(qq, "_haar_rows", _refuse)
    game = bell_state_preparation_demo()
    for count in (-1, qq.MAX_STARTS + 1):
        with pytest.raises(ValueError, match=f"^num_starts must be 0 to {qq.MAX_STARTS}, "
                                             f"got {count}$"):
            qq.multi_start_dynamics(game, count)
    monkeypatch.undo()
    assert qq.multi_start_dynamics(game, 0) == []
    outcomes = qq.multi_start_dynamics(game, qq.MAX_STARTS, tol=1e-7, seed=11)
    assert len(outcomes) == qq.MAX_STARTS
    assert sum(o.converged for o in outcomes) >= qq.MAX_STARTS - 1


# ---------------------------------------------------- player relabelling ---

def relabelled(game, play, order):
    """The game and play with old player i seated as player ``order[i]``: dims, payoff specs
    and factors moved to their new seats, and U' = U P^T, with P the permutation taking the
    original Kronecker order to the relabelled one, so U' prepares from the relabelled
    product exactly the vector U prepares from the original one."""
    seat = np.argsort(order)   # seat[k]: the old player now seated at k
    old_index = np.arange(game.joint_dimension).reshape(game.dims).transpose(seat).ravel()
    return (qq.QuantumGame([game.dims[j] for j in seat], game.unitary.matrix[:, old_index],
                           [game.payoffs[j] for j in seat]),
            ProductPlay([play.factors[j] for j in seat]))


# Over 2,100 random games (2-3 players, dims 2-3, mixed overlap and normal-eigenvalue
# observable payoffs, every order) the worst differences were 8.9e-16 (payoff), 1.3e-15
# (gain) and 7.8e-16 (1 - |<br, br'>|): a few ulps of payoffs of size at most a few
# units, from U' summing the same products in another order. 1e-14 is 7x the worst.
RELABEL_BOUND = 1e-14


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 2), (2, 3, 2), (3, 2, 3), (2, 2, 3)]),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_relabelling_players_carries_payoffs_gains_and_best_responses(dims, observable, seed):
    # with dims (2, 3, 2) every order puts each player's axis in every position, so both
    # of _slot_map's contraction branches meet it there; normal eigenvalues leave the top
    # eigenvalue untied, so the best response is unique up to phase
    rng = np.random.default_rng(seed)
    game = random_game(dims, observable, rng)
    play = scalar_random_play(game, rng)
    gains = qq.quantum_deviation_gains(game, play)
    for order in itertools.permutations(range(len(dims))):
        new_game, new_play = relabelled(game, play, order)
        new_gains = qq.quantum_deviation_gains(new_game, new_play)
        for i, k in enumerate(order):
            assert abs(qq.payoff(new_game, new_play, k) - qq.payoff(game, play, i)) <= RELABEL_BOUND
            assert abs(new_gains[k] - gains[i]) <= RELABEL_BOUND
            br = qq.best_response(game, play, i).amplitudes
            new_br = qq.best_response(new_game, new_play, k).amplitudes
            assert 1 - abs(np.vdot(br, new_br)) <= RELABEL_BOUND


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


def kron_probe_payoffs(game, factors, i, columns):
    """Player ``i``'s payoff for each column of ``columns`` in their slot, the others
    playing ``factors``: read off prepared_vector of the Kronecker column stack."""
    stacks = [f[:, None] for f in factors]
    stacks[i] = columns
    return qq._payoff_of(game.payoffs[i], qq.prepared_vector(game, stacks))


def kron_verify(game, play, epsilon, num_probes, seed):
    """Accept decision and max probe gain of verify_epsilon_nash_quantum, with every
    probe prepared by prepared_vector of a Kronecker column stack."""
    factors = game.check_play(play)
    gains = qq.quantum_deviation_gains(game, play)
    rng = np.random.default_rng(seed)
    max_probe = -math.inf
    for i, spec in enumerate(game.payoffs):
        (probes,) = _haar_rows((game.dims[i],), num_probes, rng)
        values = kron_probe_payoffs(game, factors, i, np.vstack([factors[i], probes]).T)
        values = np.abs(values) if isinstance(spec, qq.OverlapPayoff) else values
        max_probe = max(max_probe, float(values[1:].max() - values[0]))
    return bool(gains.max() <= epsilon and max_probe <= epsilon), max_probe


@pytest.mark.parametrize("dims", KERNEL_DIMS)
def test_probe_payoffs_match_the_kronecker_column_stack(dims):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        game = random_game(dims, rng.integers(0, 2, size=len(dims)).astype(bool), rng)
        play = scalar_random_play(game, rng)
        factors = game.check_play(play)
        rows = [f[None] for f in factors]
        for i in range(len(dims)):
            (probes,) = _haar_rows((dims[i],), 8, rng)
            columns = np.vstack([factors[i], probes]).T
            got = qq._payoff_of(game.payoffs[i], qq._slot_map(game, rows, i)[0] @ columns)
            assert_allclose(got, kron_probe_payoffs(game, factors, i, columns), rtol=0, atol=1e-12)
        # one epsilon below the largest analytic gain and one above it
        gain = qq.quantum_deviation_gains(game, play).max()
        for epsilon in (0.5 * gain, 2.0 * gain):
            accepted, max_probe = kron_verify(game, play, epsilon, 16, seed)
            cert = qq.verify_epsilon_nash_quantum(game, play, epsilon, num_probes=16, seed=seed)
            assert (cert is not None) == accepted == (epsilon > gain)
            if cert is not None:
                assert cert.max_probe_gain == pytest.approx(max_probe, rel=0, abs=1e-12)


def test_verify_prepares_no_joint_vector_stack(monkeypatch):
    # each player's probes are prepared from their slot map W alone
    def refuse(*args):
        raise AssertionError("verification called prepared_vector")

    game = bell_state_preparation_demo()
    eq = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    monkeypatch.setattr(qq, "prepared_vector", refuse)
    cert = qq.verify_epsilon_nash_quantum(game, eq, 1e-6, num_probes=16, seed=5)
    assert cert is not None and cert.probes_per_player == 16


@pytest.mark.parametrize("scale", [1e308, -1e308, 1.7e308, -1.7e308])
def test_observable_payoffs_near_the_float_maximum_stay_finite(scale):
    # M + M^H overflows at these eigenvalues; half of M plus half of M^H does not
    bell = bell_state_preparation_demo()
    spec = qq.ObservablePayoff(scale * np.array([1.0, 0.9, 1.0, 0.95]))
    game = qq.QuantumGame(bell.dims, bell.unitary, (bell.payoffs[0], spec))
    out = qq.iterated_best_response(game, seed=3)
    assert out.converged
    assert np.isfinite(out.trace[-1].payoffs).all()
    assert np.isfinite(qq.quantum_deviation_gains(game, out.play)).all()
    cert = qq.verify_epsilon_nash_quantum(game, out.play, 1e-12 * abs(scale))
    assert cert is not None
    assert np.isfinite([*cert.per_player_gain, cert.max_probe_gain]).all()


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
    monkeypatch.setattr(qq, "_slot_optimum", _refuse)
    with pytest.raises(ValueError, match="^tol must be a finite real >= 0"):
        qq.iterated_best_response(game, tol=tol, seed=0)


@pytest.mark.parametrize("epsilon", BAD_THRESHOLDS)
def test_verify_refuses_a_bad_epsilon_before_any_gain(monkeypatch, epsilon):
    game = bell_state_preparation_demo()
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    monkeypatch.setattr(qq, "_slot_map", _refuse)
    with pytest.raises(ValueError, match="^epsilon must be a finite real >= 0"):
        qq.verify_epsilon_nash_quantum(game, play, epsilon)


def test_verify_refuses_a_negative_probe_count_before_any_gain(monkeypatch):
    game = bell_state_preparation_demo()
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    monkeypatch.setattr(qq, "_slot_map", _refuse)
    with pytest.raises(ValueError, match="^num_probes must be >= 0, got -3"):
        qq.verify_epsilon_nash_quantum(game, play, 1e-6, num_probes=-3)


def test_verify_refuses_more_than_max_probes_before_any_gain(monkeypatch):
    game = bell_state_preparation_demo()
    play = ProductPlay((PureState([1, 0]), PureState([1, 0])))
    monkeypatch.setattr(qq, "_slot_map", _refuse)
    monkeypatch.setattr(qq, "_haar_rows", _refuse)
    too_many = qq.MAX_PROBES + 1
    with pytest.raises(ValueError, match=f"^num_probes must be <= {qq.MAX_PROBES}, got {too_many}$"):
        qq.verify_epsilon_nash_quantum(game, play, 1e-6, num_probes=too_many)


@pytest.mark.parametrize("epsilon", BAD_THRESHOLDS)
def test_grid_search_refuses_a_bad_epsilon_before_any_table(monkeypatch, epsilon):
    monkeypatch.setattr(qq, "_payoff_blocks", _refuse)
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
    assert report.num_passing == 4352
    best = report.best_play()
    assert abs(qq.payoff(game, best, 0)) == pytest.approx(1.0, abs=1e-10)


def test_grid_search_alignment_demo_has_no_pure_equilibrium():
    game = qq.alignment_demo_game()
    report = qq.grid_search_pure_nash(game, 8, epsilon=0.05)
    assert report.num_equilibria == 0
    # one player can always realign: the max gain never drops below 1/2
    assert report.min_max_gain >= 0.5 - 1e-9


@pytest.mark.parametrize("scale", [1.7e308, -1.7e308, np.finfo(np.float64).max])
def test_observable_grid_tables_near_the_float_maximum_are_exactly_rescaled(scale):
    # past 2^1019 the table is computed at a power-of-two scale, which is exact,
    # and clipped to the eigenvalue range before it is scaled back
    bell = bell_state_preparation_demo()
    eigenvalues = scale * np.array([1.0, 0.9, 1.0, 0.95])
    tables = []
    for shift in (0, 8):
        spec = qq.ObservablePayoff(np.ldexp(eigenvalues, -shift))
        game = qq.QuantumGame(bell.dims, bell.unitary, (bell.payoffs[0], spec))
        tables.append(whole_table(game, 1, qq.grid_states(8)))
    low, high = np.ldexp([eigenvalues.min(), eigenvalues.max()], -8)
    assert np.isfinite(tables[0]).all()
    assert tables[0].tobytes() == np.ldexp(np.clip(tables[1], low, high), 8).tobytes()


def whole_table(game, i, grid):
    """Player ``i``'s scan table, its row blocks joined."""
    return np.concatenate([block for _, block in qq._payoff_blocks(game, i, grid)])


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
    for i, (spec, oracle) in enumerate(zip(game.payoffs, einsum_payoff_tables(game, grid))):
        table = whole_table(game, i, grid)
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


# player 1's table is the only n x n array: the allowance covers the grid, its Bloch rows and
# one block's products and masks (the full-table scan peaked at 272 MiB for the alignment
# demo and 512 MiB for Bell, with an n x n complex product per overlap table)
@pytest.mark.parametrize("game", [qq.alignment_demo_game(), bell_state_preparation_demo()],
                         ids=["alignment-demo", "bell"])
def test_grid_scan_peak_memory_at_resolution_64(game):
    n = qq.MAX_GRID_RESOLUTION ** 2
    tracemalloc.start()
    try:
        qq.grid_search_pure_nash(game, qq.MAX_GRID_RESOLUTION, epsilon=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + 8 * 2**20


def full_tables(game, grid):
    """Both scan tables as whole n x n products: ``|grid T grid^T|`` and ``S R S^T``."""
    rows = _bloch_rows(grid)
    tables = []
    for spec in game.payoffs:
        if isinstance(spec, qq.OverlapPayoff):
            pulled = (spec.target.amplitudes.conj() @ game.unitary.matrix).reshape(2, 2)
            tables.append(np.abs(grid @ pulled @ grid.T))
        else:
            eigenvalues, u = spec.eigenvalues, game.unitary.matrix
            shift = max(0, int(np.frexp(np.abs(eigenvalues).max())[1]) - 1019)
            scaled = np.ldexp(eigenvalues, -shift)
            joint = (u.conj().T @ (scaled[:, None] * u)).reshape(2, 2, 2, 2)
            form = np.einsum("acbd,mba,ndc->mn", joint, qq._PAULIS, qq._PAULIS).real / 4.0
            table = rows @ form @ rows.T
            if shift:
                table = np.ldexp(np.clip(table, scaled.min(), scaled.max()), shift)
            tables.append(table)
    return tables


def full_table_scan(game, resolution, epsilon):
    """grid_search_pure_nash as the full-table scan computed it: both tables whole,
    ``argmin`` for the best play and ``argwhere`` for every passing play."""
    table1, table2 = full_tables(game, qq.grid_states(resolution))
    worst = np.maximum(table1.max(axis=0)[None, :] - table1, table2.max(axis=1)[:, None] - table2)
    flat_best = int(np.argmin(worst))
    best_index = (flat_best // worst.shape[1], flat_best % worst.shape[1])
    hits = np.argwhere(worst <= epsilon)
    return qq.GridSearchReport(
        resolution=resolution, epsilon=float(epsilon), num_plays=worst.size,
        num_passing=len(hits),
        equilibrium_indices=tuple((int(a), int(b)) for a, b in hits[:qq.GRID_MAX_REPORTED]),
        best_index=best_index, min_max_gain=float(worst[best_index]))


def assert_scan_matches_the_full_table_scan(game, resolution, epsilon):
    grid = qq.grid_states(resolution)
    for i, table in enumerate(full_tables(game, grid)):   # each block has the product's bits
        assert whole_table(game, i, grid).tobytes() == table.tobytes()
    report, oracle = (scan(game, resolution, epsilon)
                      for scan in (qq.grid_search_pure_nash, full_table_scan))
    assert repr(report) == repr(oracle)   # float reprs round-trip: every field, bit for bit
    return report


GRID_EPSILONS = [0.0, 1e-12, 0.05, 1.0]


@pytest.mark.parametrize("epsilon", GRID_EPSILONS)
def test_block_scan_matches_the_full_table_scan_on_bundled_games(epsilon):
    for game in _bundled_two_qubit_games():
        assert_scan_matches_the_full_table_scan(game, 32, epsilon)


def _structured_payoff(rng, kind, scale):
    if kind == "overlap":
        return qq.OverlapPayoff(haar_random_state(4, rng))
    if kind == "observable":   # past 2^1019 the tables are built at a power-of-two scale
        return qq.ObservablePayoff(np.ldexp(rng.uniform(-1.0, 1.0, 4), scale))
    # few distinct payoffs: ties in the tables, the gains and their minimum
    return qq.ObservablePayoff(np.ldexp(rng.integers(-1, 2, 4).astype(float), scale))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=16),
    st.sampled_from(GRID_EPSILONS),
    st.tuples(*[st.sampled_from(["overlap", "observable", "tied"])] * 2),
    st.sampled_from([0, 1020, 1022]),   # up to 2^1022: the range stays finite
    st.sampled_from(["haar", "identity", "bell"]),
)
def test_block_scan_matches_the_full_table_scan(seed, resolution, epsilon, kinds, scale, referee):
    rng = np.random.default_rng(seed)
    unitary = {"haar": lambda: haar_random_unitary(4, rng), "identity": lambda: np.eye(4),
               "bell": lambda: bell_state_preparation_demo().unitary.matrix}[referee]()
    game = qq.QuantumGame((2, 2), unitary,
                          tuple(_structured_payoff(rng, kind, scale) for kind in kinds))
    assert_scan_matches_the_full_table_scan(game, resolution, epsilon)


def test_block_scan_reaches_more_than_the_reported_plays_and_tied_minima():
    # the cases the property test must cover: more passing plays than are listed, listed
    # across several row blocks, and a minimum tied across blocks (argmin's first one)
    report = assert_scan_matches_the_full_table_scan(bell_state_preparation_demo(), 16, 0.05)
    assert report.num_passing > qq.GRID_MAX_REPORTED == report.num_equilibria
    flat = qq.ObservablePayoff(np.ones(4))   # every play pays 1: every gain is 0
    tied = qq.QuantumGame((2, 2), np.eye(4), (flat, flat))
    n = 16 ** 2
    report = assert_scan_matches_the_full_table_scan(tied, 16, 0.0)
    assert report.num_passing == n * n and report.best_index == (0, 0)
    assert report.equilibrium_indices == tuple((0, b) for b in range(qq.GRID_MAX_REPORTED))
    report = assert_scan_matches_the_full_table_scan(tied, 9, 0.0)   # 81 rows: 24, 24, 33
    assert report.num_passing == 81 * 81


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
        p1 = qq.payoff(game, play, 0).real
        p2 = qq.payoff(game, play, 1).real
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


# ------------------------------------------------------------- refusals ---

def _qutrit_game():
    targets = (haar_random_state(6, 1), haar_random_state(6, 2))
    return build_state_preparation_game((2, 3), np.eye(6), targets)


BELL_PLAY = ProductPlay((PureState([1, 0]), PureState([1, 0])))
OBSERVABLE = qq.ObservablePayoff(np.arange(4.0))

# (call, exception type, exact message): refusals no other test reaches
QUANTUM_REFUSALS = {
    "empty eigenvalues": (lambda: qq.ObservablePayoff([]), ValueError,
                          "eigenvalues must form a nonempty real vector"),
    "eigenvalue matrix": (lambda: qq.ObservablePayoff(np.eye(2)), ValueError,
                          "eigenvalues must form a nonempty real vector"),
    "NaN eigenvalue": (lambda: qq.ObservablePayoff([0.0, math.nan]), ValueError,
                       "eigenvalues must be finite"),
    "one player": (lambda: qq.QuantumGame((4,), np.eye(4), (OBSERVABLE,)), ValueError,
                   "a quantum game needs at least two players"),
    "qudit of dimension 1": (lambda: qq.QuantumGame((1, 4), np.eye(4), (OBSERVABLE,) * 2),
                             ValueError, "every player needs a qudit of dimension >= 2"),
    "unknown spec": (lambda: qq.QuantumGame((2, 2), np.eye(4), (OBSERVABLE, "payoff")),
                     TypeError, "payoff 1: unknown payoff spec str"),
    "play of other dims": (
        lambda: bell_state_preparation_demo().check_play(
            ProductPlay((PureState([1, 0]), PureState([1, 0, 0])))),
        ValueError, "play dims (2, 3) do not match game dims (2, 2)"),
    "spec of another kind": (
        lambda: qq.best_response_observable(bell_state_preparation_demo(), BELL_PLAY, 0),
        TypeError, "player 0 does not use an ObservablePayoff"),
    "certificate below its gains": (
        lambda: qq.QuantumEquilibriumCertificate(BELL_PLAY, 0.1, (0.0, 0.2), 0, 0.0),
        ValueError, "certificate epsilon is below the recorded gains"),
    "grid oracle on a qutrit slot": (
        lambda: qq.grid_best_response_payoff(
            _qutrit_game(), ProductPlay((PureState([1, 0]), PureState([1, 0, 0]))), 1, 4),
        ValueError, "the grid oracle handles qubit slots only"),
    "grid scan of a qutrit game": (lambda: qq.grid_search_pure_nash(_qutrit_game(), 4, 0.1),
                                   ValueError, "the grid oracle handles two qubit players only"),
}


@pytest.mark.parametrize("case", QUANTUM_REFUSALS)
def test_each_quantum_refusal_has_its_message(case):
    call, kind, message = QUANTUM_REFUSALS[case]
    with pytest.raises(kind) as err:
        call()
    assert str(err.value) == message
