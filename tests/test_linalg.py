"""Core state/operator types and the projective metric."""
import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qugame.builders import bell_state_preparation_demo, demo_adiabatic_schedule
from qugame.classical import FiniteGame, MixedProfile
from qugame.quantum import ObservablePayoff, QuantumGame
from qugame.linalg import (
    HermitianOperator,
    ProductPlay,
    PureState,
    UnitaryOperator,
    _fixed_phase,
    _haar_rows,
    as_rng,
    canonicalize_phase,
    fubini_study_distance,
    haar_random_state,
    haar_random_unitary,
    matrix_exponential_unitary,
    partial_contraction,
    tensor_product,
)


# ------------------------------------------------------------- PureState ---

def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError, match="unit norm"):
        PureState([1.0, 1.0])
    with pytest.raises(ValueError, match="unit norm"):
        PureState([0.0, 0.0])


def test_pure_state_refusal_prints_the_norm_as_a_plain_float():
    with pytest.raises(ValueError) as refusal:
        PureState([1, 1])
    assert str(refusal.value) == "state vector is not unit norm: |v| = 1.4142135623730951"


def test_pure_state_requires_dimension_two():
    with pytest.raises(ValueError, match="dimension"):
        PureState([1.0])


def test_pure_state_fixes_global_phase():
    # the leading significant amplitude must come out real and nonnegative
    raw = np.exp(1j * 1.3) * np.array([0.6, 0.8j])
    st_ = PureState(raw)
    lead = st_.amplitudes[0]
    assert abs(lead.imag) < 1e-15
    assert lead.real > 0


def test_pure_state_equality_ignores_phase():
    a = PureState([1.0, 0.0])
    b = PureState(np.exp(0.7j) * np.array([1.0, 0.0]))
    assert a == b
    assert a != PureState([0.0, 1.0])


def test_pure_state_amplitudes_are_read_only():
    s = PureState([1.0, 0.0])
    with pytest.raises((ValueError, RuntimeError)):
        s.amplitudes[0] = 0.0


def test_canonicalize_phase_normalizes():
    v = np.array([3.0, 4.0j])
    s = canonicalize_phase(v)
    assert_allclose(np.linalg.norm(s.amplitudes), 1.0, atol=1e-15)
    # same ray regardless of scale or phase
    t = canonicalize_phase(np.exp(2.1j) * 10 * v)
    assert s == t


# ------------------------------------------------------------- operators ---

def test_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        UnitaryOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_product_play_needs_two_factors():
    with pytest.raises(ValueError, match="two factors"):
        ProductPlay((PureState([1, 0]),))


def test_product_play_replace():
    # a swapped factor means a new play; raw amplitudes are validated like states
    play = ProductPlay((PureState([1, 0]), PureState([0, 1])))
    swapped = ProductPlay(([0, 1j], *play.factors[1:]))
    assert swapped.factors[0] == PureState([0, 1])
    # original untouched
    assert play.factors[0] == PureState([1, 0])


def _validated_values():
    return [
        PureState([0.6, 0.8j]),
        UnitaryOperator(np.eye(4)),
        HermitianOperator(np.eye(2)),
        ProductPlay(([1, 0], [0, 0, 1])),
        FiniteGame([np.ones((2, 3))] * 2),
        MixedProfile(([0.5, 0.5], [1, 0, 0])),
        bell_state_preparation_demo(),
    ]


def _field_names(value):
    # dataclasses.fields lists the base class's fields too (the operators' matrix)
    return [f.name for f in dataclasses.fields(value)]


def test_validated_values_refuse_rebinding():
    # a value stays the point it was validated as: every field, the base
    # class's included, refuses assignment and deletion
    for value in _validated_values():
        names = _field_names(value)
        assert names, type(value).__name__
        for name in names:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before


def test_validated_values_refuse_any_name_and_survive_copy_and_pickle():
    plain = [ObservablePayoff([1.0, -1.0, 0.5, 0.0]), demo_adiabatic_schedule()]
    for value in _validated_values() + plain:
        for name in ("foo", "amplitudes", "__dict__", *_field_names(value)):
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and repr(twin) == repr(value)
            for name in _field_names(value):
                assert pickle.dumps(getattr(twin, name)) == pickle.dumps(getattr(value, name))
            with pytest.raises(FrozenInstanceError):
                twin.foo = 1


def test_validated_value_reprs_are_pinned():
    assert [repr(v) for v in _validated_values()] == [
        "PureState([0.6+0.j  0. +0.8j])",
        "UnitaryOperator(dim=4)",
        "HermitianOperator(dim=2)",
        "ProductPlay(dims=(2, 3))",
        "FiniteGame(strategy_counts=(2, 3))",
        "MixedProfile(strategy_counts=(2, 3))",
        "QuantumGame(dims=(2, 2), payoffs=[overlap,overlap])",
    ]


def test_validated_values_take_their_parameters_by_keyword():
    assert PureState(amplitudes=[0, 1]) == PureState([0, 1])
    assert UnitaryOperator(matrix=np.eye(3)).dimension == 3
    assert HermitianOperator(matrix=np.diag([1.0, -1.0])).dimension == 2
    play = ProductPlay(factors=iter(([1, 0], [0, 1])))
    assert play.factors == (PureState([1, 0]), PureState([0, 1]))
    game = FiniteGame(payoff_tensors=[np.eye(2), -np.eye(2)])
    assert game.strategy_counts == (2, 2) and game.num_players == 2
    assert MixedProfile(distributions=[[1, 0], [0, 1]]).strategy_counts == (2, 2)
    bell = bell_state_preparation_demo()
    again = QuantumGame(dims=[2, 2], unitary=bell.unitary.matrix, payoffs=list(bell.payoffs))
    assert again.dims == (2, 2) and again.payoffs == bell.payoffs
    assert isinstance(again.unitary, UnitaryOperator)
    assert np.array_equal(again.unitary.matrix, bell.unitary.matrix)


@pytest.mark.parametrize("cls", [UnitaryOperator, HermitianOperator])
def test_operators_refuse_bad_matrices_with_pinned_messages(cls):
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        cls(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(4,\)$"):
        cls(np.zeros(4))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            cls([[1.0, bad], [0.0, 1.0]])
    with pytest.raises((ValueError, RuntimeError)):
        cls(np.eye(2)).matrix[0, 0] = 2.0


def test_operator_defect_messages_are_pinned():
    shear = [[1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(ValueError) as err:
        UnitaryOperator(shear)
    assert str(err.value) == "matrix is not unitary: max |U^H U - I| = 1.000e+00"
    with pytest.raises(ValueError) as err:
        HermitianOperator(shear)
    assert str(err.value) == "matrix is not Hermitian: max |H - H^H| = 1.000e+00"
    # each subclass applies its own defect check and no other
    rotation, weights = [[0.0, 1.0], [-1.0, 0.0]], np.diag([1.0, 2.0])
    assert UnitaryOperator(rotation).dimension == HermitianOperator(weights).dimension == 2
    with pytest.raises(ValueError, match="not Hermitian: max"):
        HermitianOperator(rotation)
    with pytest.raises(ValueError, match="not unitary: max"):
        UnitaryOperator(weights)


# ----------------------------------------------------- products and maps ---

def test_tensor_product_matches_kron():
    rng = np.random.default_rng(0)
    a = haar_random_state(2, rng).amplitudes
    b = haar_random_state(3, rng).amplitudes
    c = haar_random_state(2, rng).amplitudes
    assert tensor_product([a, b]).tobytes() == np.kron(a, b).tobytes()
    assert tensor_product([a, b, c]).tobytes() == np.kron(np.kron(a, b), c).tobytes()


def test_partial_contraction_payoff_identity():
    # contracting every slot but i leaves a vector whose pairing with the
    # remaining factor reproduces the full inner product
    rng = np.random.default_rng(3)
    for dims in [(2, 2), (2, 3), (3, 2, 2)]:
        total = int(np.prod(dims))
        target = haar_random_state(total, rng).amplitudes
        play = ProductPlay([haar_random_state(d, rng) for d in dims])
        full = tensor_product([f.amplitudes for f in play.factors])
        want = np.vdot(target, full)
        for i, d in enumerate(dims):
            v = partial_contraction(target, play, i)
            assert v.shape == (d,)
            assert np.vdot(v, play.factors[i].amplitudes) == pytest.approx(want, abs=1e-14)


# ------------------------------------------------------ projective metric ---

def test_fubini_study_self_distance_is_tiny():
    # the naive arccos form loses half the digits here; the implementation
    # must do better than 1e-12 so fixed points do not look like motion
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = haar_random_state(3, rng)
        assert fubini_study_distance(s, s) < 1e-12


def test_fubini_study_orthogonal_is_half_pi():
    d = fubini_study_distance(PureState([1, 0]), PureState([0, 1]))
    assert d == pytest.approx(np.pi / 2, abs=1e-15)


def test_fubini_study_agrees_with_arccos_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = haar_random_state(2, rng)
        b = haar_random_state(2, rng)
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes))
        ref = np.arccos(min(1.0, overlap))
        assert fubini_study_distance(a, b) == pytest.approx(ref, abs=1e-13)


def test_fubini_study_symmetry_and_phase_invariance():
    rng = np.random.default_rng(6)
    a = haar_random_state(4, rng)
    b = haar_random_state(4, rng)
    assert fubini_study_distance(a, b) == pytest.approx(fubini_study_distance(b, a), abs=1e-15)
    rotated = PureState(np.exp(1.9j) * b.amplitudes)
    assert fubini_study_distance(a, rotated) == pytest.approx(
        fubini_study_distance(a, b), abs=1e-15
    )


def test_fubini_study_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, c = (haar_random_state(2, rng) for _ in range(3))
        ab = fubini_study_distance(a, b)
        bc = fubini_study_distance(b, c)
        ac = fubini_study_distance(a, c)
        assert ac <= ab + bc + 1e-12


def test_fubini_study_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fubini_study_distance(PureState([1, 0]), PureState([1, 0, 0]))


# -------------------------------------------------- exponential / sampling ---

def test_matrix_exponential_matches_scipy():
    rng = np.random.default_rng(8)
    for _ in range(10):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = HermitianOperator((raw + raw.conj().T) / 2)
        t = float(rng.uniform(-2, 2))
        got = matrix_exponential_unitary(h, t).matrix
        ref = scipy.linalg.expm(-1j * h.matrix * t)
        assert_allclose(got, ref, atol=1e-12)


def test_matrix_exponential_at_zero_is_identity():
    h = HermitianOperator(np.diag([1.0, -1.0]))
    assert_allclose(matrix_exponential_unitary(h, 0.0).matrix, np.eye(2), atol=1e-15)


def test_haar_state_and_unitary_are_seeded():
    s1 = haar_random_state(4, 42)
    s2 = haar_random_state(4, 42)
    assert s1 == s2
    u1 = haar_random_unitary(3, 42)
    u2 = haar_random_unitary(3, 42)
    assert_allclose(u1.matrix, u2.matrix, atol=0)
    assert_allclose(u1.matrix.conj().T @ u1.matrix, np.eye(3), atol=1e-12)


def _scalar_haar_state(dimension, rng):
    """The one-vector drawer that _haar_rows replaced: two draws, canonicalized."""
    z = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
    return canonicalize_phase(z).amplitudes


@pytest.mark.parametrize("dimension", [2, 3, 4, 16, 32])
def test_haar_rows_repeat_haar_random_state_bit_for_bit(dimension):
    for seed in range(20):
        rows_rng, loop_rng, scalar_rng = (np.random.default_rng(seed) for _ in range(3))
        (rows,) = _haar_rows((dimension,), 9, rows_rng)
        loop = np.array([haar_random_state(dimension, loop_rng).amplitudes for _ in range(9)])
        scalar = np.array([_scalar_haar_state(dimension, scalar_rng) for _ in range(9)])
        assert rows.tobytes() == loop.tobytes() == scalar.tobytes()
        assert (rows_rng.bit_generator.state == loop_rng.bit_generator.state
                == scalar_rng.bit_generator.state)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3, 2)])
def test_haar_rows_lay_out_rounds_of_per_entry_haar_states(dims):
    # one stack per entry of dims; row r holds round r's state for that entry
    # (one-entry dims are the test above)
    for seed in range(20):
        rows_rng, loop_rng, scalar_rng = (np.random.default_rng(seed) for _ in range(3))
        stacks = _haar_rows(dims, 7, rows_rng)
        assert [s.shape for s in stacks] == [(7, d) for d in dims]
        loop = [[haar_random_state(d, loop_rng).amplitudes for d in dims] for _ in range(7)]
        scalar = [[_scalar_haar_state(d, scalar_rng) for d in dims] for _ in range(7)]
        for k, stack in enumerate(stacks):
            assert stack.tobytes() == np.array([r[k] for r in loop]).tobytes()
            assert stack.tobytes() == np.array([r[k] for r in scalar]).tobytes()
        assert (rows_rng.bit_generator.state == loop_rng.bit_generator.state
                == scalar_rng.bit_generator.state)


def test_haar_rows_keep_the_scalar_rule_for_a_tiny_or_real_pivot():
    class Stub:   # a generator whose draw puts a zero and a real pivot first
        def standard_normal(self, shape):
            draw = np.random.default_rng(3).standard_normal(shape)
            draw[0, [0, 3]] = 0.0     # row 0: real and imaginary part of entry 0
            draw[1, 3] = 0.0          # row 1: imaginary part of entry 0
            return draw

    (rows,) = _haar_rows((3,), 4, Stub())
    draw = Stub().standard_normal((4, 6))
    for row, values in zip(rows, draw):
        re, im = values[:3], values[3:]
        assert row.tobytes() == canonicalize_phase(re + 1j * im).amplitudes.tobytes()
    assert rows[0, 0] == 0 and rows[0, 1].imag == 0 and rows[1, 0].imag == 0


def test_as_rng_passthrough():
    gen = np.random.default_rng(9)
    assert as_rng(gen) is gen
    assert isinstance(as_rng(5), np.random.Generator)
    assert isinstance(as_rng(None), np.random.Generator)


@pytest.mark.parametrize("seed", [-1, np.int64(-7)])
def test_as_rng_refuses_a_negative_seed_by_name(seed):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -\d+$"):
        as_rng(seed)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_haar_state_is_always_unit(seed):
    s = haar_random_state(2, seed)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


# ------------------------------------------------------------- refusals ---

QUBIT_PLAY = ProductPlay((PureState([1, 0]), PureState([0, 1])))

# (call, exception type, exact message): refusals no other test reaches
LINALG_REFUSALS = {
    "state of two axes": (lambda: PureState(np.eye(2)), ValueError,
                          "expected a 1-d state vector, got shape (2, 2)"),
    "non-finite state": (lambda: PureState([np.nan, 1.0]), ValueError,
                         "state vector has non-finite entries"),
    "phase of a zero vector": (lambda: _fixed_phase(np.zeros(2, dtype=complex)), ValueError,
                               "cannot fix the phase of a (numerically) zero vector"),
    "canonical zero vector": (lambda: canonicalize_phase([0.0, 0.0]), ValueError,
                              "cannot canonicalize a (numerically) zero vector"),
    "empty tensor product": (lambda: tensor_product([]), ValueError,
                             "tensor product of an empty sequence is undefined"),
    "slot out of range": (lambda: partial_contraction(np.ones(4), QUBIT_PLAY, 2), IndexError,
                          "player index 2 out of range for 2 players"),
    "target of other size": (lambda: partial_contraction(np.ones(8), QUBIT_PLAY, 0),
                             ValueError, "target has dimension 8, play joint dimension 4"),
    "infinite time": (lambda: matrix_exponential_unitary(np.eye(2), np.inf), ValueError,
                      "time parameter must be finite"),
    "phase past the float maximum": (   # refused before exp, with no overflow warning
        lambda: matrix_exponential_unitary(np.diag([2.0, -3.0]), 1e308), ValueError,
        "phase eigenvalue * time exceeds the float maximum"),
    "Haar state of dimension 1": (lambda: haar_random_state(1, 0), ValueError,
                                  "a qudit state needs dimension >= 2"),
    "Haar unitary of dimension 0": (lambda: haar_random_unitary(0, 0), ValueError,
                                    "dimension must be positive"),
}


@pytest.mark.parametrize("case", LINALG_REFUSALS)
def test_each_linalg_refusal_has_its_message(case):
    call, kind, message = LINALG_REFUSALS[case]
    with pytest.raises(kind) as err:
        call()
    assert str(err.value) == message
