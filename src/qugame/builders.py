"""Ready-made games: state preparation, search-as-a-game, annealing schedules.

Each builder reduces a familiar quantum routine to a two-or-more player game
over product states, so the equilibrium and dynamics machinery can be pointed
at it unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_threshold
from .linalg import (
    HermitianOperator,
    PureState,
    UnitaryOperator,
    as_rng,
    canonicalize_phase,
    matrix_exponential_unitary,
)
from .quantum import (
    DynamicsStatus,
    OverlapPayoff,
    QuantumGame,
    iterated_best_response,
    overlap_fixed_point_candidates,
    play_distance,
    overlap_payoff,
    prepared_state,
    random_play,
    verify_epsilon_nash_quantum,
)

__all__ = [
    "AdiabaticSchedule",
    "build_state_preparation_game",
    "grover_iterate",
    "build_grover_game",
    "ground_state",
    "complement_superposition",
    "build_adiabatic_game",
    "SweepRow",
    "SweepReport",
    "sweep_adiabatic",
    "bell_state_preparation_demo",
    "demo_adiabatic_schedule",
]


def build_state_preparation_game(
    dims: Sequence[int],
    unitary: UnitaryOperator | np.ndarray,
    targets: Sequence,
) -> QuantumGame:
    """Overlap game: each player is scored against their own target state."""
    specs = tuple(
        OverlapPayoff(t if isinstance(t, PureState) else PureState(t)) for t in targets
    )
    return QuantumGame(dims, unitary, specs)


# grover_iterate peaks at 72 MiB for 10 qubits, 16 times that (1.1 GiB) for 12
MAX_QUBITS = 12


def grover_iterate(n_qubits: int, target_index: int) -> UnitaryOperator:
    """One search iterate: reflect about the marked state, then about the mean."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"{n_qubits} qubits exceed the limit of {MAX_QUBITS}")
    n = 1 << n_qubits
    if not 0 <= target_index < n:
        raise ValueError(f"target index {target_index} out of range for {n} basis states")
    oracle = np.eye(n)
    oracle[target_index, target_index] = -1.0
    uniform = np.full((n, n), 2.0 / n) - np.eye(n)
    return UnitaryOperator(uniform @ oracle)


def build_grover_game(
    n_qubits: int,
    target_index: int,
    player_split: tuple[int, int],
    *,
    iterations: int = 1,
) -> QuantumGame:
    """Search as a two-player game against an adversarial environment.

    The players contribute ``player_split`` qubits each (the sum must be
    ``n_qubits``). The referee applies ``iterations`` search iterates. The
    seeker's target is the marked basis state; the opponent's target is the
    uniform superposition over every unmarked basis state.
    """
    x, y = player_split
    if x < 1 or y < 1 or x + y != n_qubits:
        raise ValueError(f"player split {player_split} must be positive and sum to {n_qubits}")
    if iterations < 1:
        raise ValueError("need at least one iterate")
    step = grover_iterate(n_qubits, target_index).matrix
    n = 1 << n_qubits
    q = np.linalg.matrix_power(step, iterations)
    marked = np.zeros(n)
    marked[target_index] = 1.0
    unmarked = np.full(n, 1.0 / math.sqrt(n - 1))
    unmarked[target_index] = 0.0
    return build_state_preparation_game(
        (1 << x, 1 << y), UnitaryOperator(q), (marked, unmarked)
    )


def ground_state(h: HermitianOperator | np.ndarray) -> PureState:
    """Canonical eigenvector of the smallest eigenvalue (eigensolver order)."""
    op = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
    _, vecs = op.eigensystem()
    return canonicalize_phase(vecs[:, 0])


def complement_superposition(h: HermitianOperator | np.ndarray) -> PureState:
    """Uniform combination of every non-ground eigenvector, canonically phased.

    The result is orthogonal to the ground state and serves as the natural
    adversarial target: it rewards keeping the prepared state out of the
    ground space.
    """
    op = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
    _, vecs = op.eigensystem()
    rest = [canonicalize_phase(vecs[:, k]).amplitudes for k in range(1, op.dimension)]
    return canonicalize_phase(np.sum(rest, axis=0))


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Interpolation data: start and end Hamiltonians, dial values, duration.

    The dial runs the interpolation ``s * start + (1 - s) * end``, so ``s = 1``
    is the pure starting Hamiltonian and ``s = 0`` the pure final one.
    """

    h_initial: HermitianOperator
    h_final: HermitianOperator
    s_values: tuple[float, ...]
    time: float

    def __post_init__(self):
        if self.h_initial.dimension != self.h_final.dimension:
            raise ValueError("start and end Hamiltonians must share a dimension")
        s = tuple(float(v) for v in self.s_values)
        if not s:
            raise ValueError("schedule needs at least one dial value")
        if any(not 0.0 <= v <= 1.0 for v in s):
            raise ValueError("dial values must lie in [0, 1]")
        if any(b < a for a, b in zip(s, s[1:])):
            raise ValueError("dial values must be sorted ascending")
        if not (np.isfinite(self.time) and self.time > 0):
            raise ValueError("duration must be positive and finite")
        object.__setattr__(self, "s_values", s)

    @property
    def dimension(self) -> int:
        return self.h_initial.dimension


def build_adiabatic_game(
    schedule: AdiabaticSchedule,
    s: float,
    payoff_targets: tuple[PureState, PureState] | None = None,
) -> QuantumGame:
    """Zero-sum-flavored overlap game at one dial setting of the schedule.

    The referee is exp(-i H(s) t) for the interpolated Hamiltonian. By
    default player 1 is scored against the final Hamiltonian's ground state
    and player 2 against the uniform superposition over its orthogonal
    complement; a two-qubit split of the register is assumed.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError("dial value must lie in [0, 1]")
    dim = schedule.dimension
    root = math.isqrt(dim)
    if root * root != dim:
        raise ValueError("the two-player split needs a square joint dimension")
    if root < 2:
        raise ValueError("each player needs a qudit of dimension >= 2")
    h = HermitianOperator(
        s * schedule.h_initial.matrix + (1.0 - s) * schedule.h_final.matrix
    )
    q = matrix_exponential_unitary(h, schedule.time)
    if payoff_targets is None:
        payoff_targets = (
            ground_state(schedule.h_final),
            complement_superposition(schedule.h_final),
        )
    return build_state_preparation_game((root, root), q, payoff_targets)


@dataclass(frozen=True)
class SweepRow:
    """One dynamics run inside a schedule sweep."""

    s: float
    start_id: int
    outcome: str
    iterations: int
    payoff_player1: complex
    ground_overlap_magnitude: float
    verified: bool


@dataclass(frozen=True)
class SweepReport:
    """All runs of an adiabatic sweep plus summary counts."""

    rows: tuple[SweepRow, ...]
    converged: int
    verified: int

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def sweep_adiabatic(
    schedule: AdiabaticSchedule,
    starts_per_s: int,
    *,
    tol: float = 1e-9,
    max_iter: int = 500,
    epsilon: float = 1e-6,
    seed: int | np.random.Generator | None = 0,
) -> SweepReport:
    """Run best-response dynamics across the schedule's dial values.

    Each dial value gets ``starts_per_s`` Haar-random starts, all drawn from
    the shared rng before any of that value's verification probes. A row
    records the dynamics outcome, player 1's payoff, the magnitude of the
    prepared state's overlap with the final ground state, and whether the
    final play passed equilibrium verification at ``epsilon``.

    The two default targets are orthogonal, which makes the round-robin sweep
    map traceless: away from the degenerate endpoints the dynamics orbit the
    equilibria with period 2 instead of reaching them. A detected cycle is
    therefore handed to the closed-form fixed-point extraction, and the row
    reports the resolved equilibrium (outcome ``cycle_resolved``) with the
    cycle kept only when no candidate survives verification. An accepted
    candidate's certificate is the row's, so a row is verified once unless its
    candidate fails (this and the start order changed seeded rows on purpose).
    """
    if starts_per_s < 1:
        raise ValueError("need at least one start per dial value")
    check_threshold("tol", tol)
    check_threshold("epsilon", epsilon)
    rng = as_rng(seed)
    ground = ground_state(schedule.h_final)
    rows: list[SweepRow] = []
    converged = verified = 0
    for s in schedule.s_values:
        game = build_adiabatic_game(schedule, s)
        candidates = overlap_fixed_point_candidates(game)
        starts = [random_play(game, rng) for _ in range(starts_per_s)]
        for start_id, start in enumerate(starts):
            outcome = iterated_best_response(game, start, tol=tol, max_iter=max_iter)
            final = outcome.play
            label = outcome.status.value
            cert = None
            if outcome.status is DynamicsStatus.CYCLE_DETECTED and candidates:
                resolved = min(candidates, key=lambda c: play_distance(c, final))
                cert = verify_epsilon_nash_quantum(game, resolved, epsilon, num_probes=8, seed=rng)
                if cert is not None:
                    final, label = resolved, "cycle_resolved"
            if cert is None:
                cert = verify_epsilon_nash_quantum(game, final, epsilon, num_probes=8, seed=rng)
            value = overlap_payoff(game, final, 0)
            prepared = prepared_state(game, final)
            overlap_mag = abs(np.vdot(ground.amplitudes, prepared.amplitudes))
            ok = cert is not None
            converged += int(outcome.converged)
            verified += int(ok)
            rows.append(
                SweepRow(
                    s=float(s),
                    start_id=start_id,
                    outcome=label,
                    iterations=outcome.iterations,
                    payoff_player1=value,
                    ground_overlap_magnitude=float(overlap_mag),
                    verified=ok,
                )
            )
    return SweepReport(rows=tuple(rows), converged=converged, verified=verified)


def bell_state_preparation_demo() -> QuantumGame:
    """Bundled two-qubit game whose referee prepares a maximally entangled state
    from the all-zeros product play; both players share that state as target."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    cnot = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    q = cnot @ np.kron(h, np.eye(2))
    target = q @ np.array([1.0, 0.0, 0.0, 0.0])
    return build_state_preparation_game((2, 2), UnitaryOperator(q), (target, target))


def demo_adiabatic_schedule() -> AdiabaticSchedule:
    """Bundled two-qubit schedule: transverse start, diagonal end, 11 dial stops."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    h_initial = HermitianOperator(-(np.kron(x, eye) + np.kron(eye, x)))
    h_final = HermitianOperator(np.diag([1.0, 0.5, 0.75, 0.0]))
    return AdiabaticSchedule(
        h_initial=h_initial,
        h_final=h_final,
        s_values=tuple(round(0.1 * k, 1) for k in range(11)),
        time=1.0,
    )
