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
    ProductPlay,
    PureState,
    UnitaryOperator,
    _fixed_phase,
    _haar_rows,
    _row_norms,
    _unit_rows,
    as_rng,
    canonicalize_phase,
    matrix_exponential_unitary,
)
from .quantum import (
    MAX_STARTS,
    DynamicsStatus,
    OverlapPayoff,
    QuantumGame,
    _check_dynamics_args,
    _dynamics,
    _factor_distances,
    _fixed_point_rows,
    _payoff_of,
    _stack_size,
    prepared_vector,
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
    specs = tuple(OverlapPayoff(t if isinstance(t, PureState) else PureState(t)) for t in targets)
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
    # the oracle is diagonal, so the product with it negates the target column
    step = np.full((n, n), 2.0 / n) - np.eye(n)
    step[:, target_index] *= -1.0
    return UnitaryOperator(step)


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
    q = grover_iterate(n_qubits, target_index)
    if iterations > 1:   # a single iterate is already validated
        q = UnitaryOperator(np.linalg.matrix_power(q.matrix, iterations))
    n = 1 << n_qubits
    marked = np.zeros(n)
    marked[target_index] = 1.0
    unmarked = np.full(n, 1.0 / math.sqrt(n - 1))
    unmarked[target_index] = 0.0
    return build_state_preparation_game((1 << x, 1 << y), q, (marked, unmarked))


def _final_targets(h: HermitianOperator | np.ndarray) -> tuple[PureState, PureState]:
    """:func:`ground_state` and :func:`complement_superposition` of ``h`` from one
    eigensolve; the eigenvector rows are canonicalized by ``_unit_rows``, bit for
    bit :func:`canonicalize_phase` of each eigenvector."""
    op = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
    _, vecs = np.linalg.eigh(op.matrix)
    rows = np.ascontiguousarray(vecs.T)   # C order: the sum below adds whole rows in turn
    rows = _unit_rows(rows, _row_norms(rows))
    return PureState(rows[0]), canonicalize_phase(rows[1:].sum(axis=0))


def ground_state(h: HermitianOperator | np.ndarray) -> PureState:
    """Canonical eigenvector of the smallest eigenvalue (eigensolver order)."""
    return _final_targets(h)[0]


def complement_superposition(h: HermitianOperator | np.ndarray) -> PureState:
    """Uniform combination of every non-ground eigenvector, canonically phased.

    The result is orthogonal to the ground state and serves as the natural
    adversarial target: it rewards keeping the prepared state out of the
    ground space.
    """
    return _final_targets(h)[1]


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
        # every H(s) is a convex combination, so its spectral radius is at most this bound
        bound = max(np.linalg.norm(h.matrix, 2) for h in (self.h_initial, self.h_final))
        if math.isinf(float(bound) * float(self.time)):   # Python floats overflow unwarned
            raise ValueError(f"time {float(self.time)!r} times the spectral bound "
                             f"{float(bound)!r} of H(s) exceeds the float maximum")
        object.__setattr__(self, "s_values", s)
        object.__setattr__(self, "time", float(self.time))

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
        payoff_targets = _final_targets(schedule.h_final)
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


def _check_sweep_args(starts_per_s: int, tol: float, max_iter: int, epsilon: float) -> None:
    if starts_per_s < 1:
        raise ValueError(f"starts_per_s must be >= 1, got {starts_per_s!r}")
    if starts_per_s > MAX_STARTS:   # before any start is drawn
        raise ValueError(f"starts_per_s must be <= {MAX_STARTS}, got {starts_per_s!r}")
    _check_dynamics_args(tol, max_iter)
    check_threshold("epsilon", epsilon)


def sweep_adiabatic(schedule: AdiabaticSchedule, starts_per_s: int, *, tol: float = 1e-9,
                    max_iter: int = 500, epsilon: float = 1e-6,
                    seed: int | np.random.Generator | None = 0) -> SweepReport:
    """Run best-response dynamics across the schedule's dial values.

    Each dial value gets ``starts_per_s`` (1 to ``MAX_STARTS``) Haar-random starts, all drawn
    as one array from the shared rng before any verification probe. Dial values run in chunks
    of as many as one :func:`_dynamics` stack holds with their referees (at least one): a
    chunk builds its games (:func:`build_adiabatic_game`), runs its starts as one stacked
    dynamics, each under its dial value's unitary, and verifies its rows one at a time, in
    row order, before the next chunk is built. A row records the dynamics outcome, player 1's
    payoff, the magnitude of the prepared state's overlap with the final ground state, and
    whether the final play passed equilibrium verification at ``epsilon``.

    The two default targets are orthogonal, which makes the round-robin sweep map traceless:
    away from the degenerate endpoints the dynamics orbit the equilibria with period 2. A
    cycled row is resolved to its nearest closed-form fixed point, extracted in one batch for
    the chunk's dial values where a start cycled (outcome ``cycle_resolved``); that
    candidate's certificate is the row's, and the final play is verified only if it fails.
    """
    _check_sweep_args(starts_per_s, tol, max_iter, epsilon)
    rng = as_rng(seed)
    targets = _final_targets(schedule.h_final)   # schedule-invariant: (ground, complement)
    k, s_values, root = starts_per_s, schedule.s_values, math.isqrt(schedule.dimension)
    chunk, rows = max(1, _stack_size((root, root), True) // k), []   # dial values held at once
    for lo in range(0, len(s_values), chunk):
        games = [build_adiabatic_game(schedule, s, targets) for s in s_values[lo:lo + chunk]]
        if not lo:   # every start, as one array, before any probe
            starts = _haar_rows(games[0].dims, len(s_values) * k, rng)
        outcomes = _dynamics(games[0], [f[lo * k:(lo + len(games)) * k] for f in starts],
                             tol=tol, max_iter=max_iter, trace=False,   # U(s) views, k each
                             referees=[g.unitary.matrix for g in games for _ in range(k)])
        cycled = np.reshape([o.status is DynamicsStatus.CYCLE_DETECTED for o in outcomes], (-1, k))
        at = np.flatnonzero(cycled.any(axis=1))   # dial values where a start cycled
        owner, first, second = _fixed_point_rows(games[0], [games[j].unitary.matrix for j in at])
        for j, (s, game) in enumerate(zip(s_values[lo:], games)):
            runs, picks = outcomes[j * k:(j + 1) * k], {}
            loops, mine = np.flatnonzero(cycled[j]), np.flatnonzero(at[owner] == j)
            if loops.size and mine.size:   # each cycled row's first nearest candidate
                finals = [np.stack([runs[r].factors[i] for r in loops]) for i in range(2)]
                near = _factor_distances([first[mine, None], second[mine, None]], finals)
                picks = dict(zip(loops.tolist(), mine[near.argmin(axis=0)].tolist()))
            plays = {c: ProductPlay((first[c], second[c])) for c in set(picks.values())}
            for start_id, outcome in enumerate(runs):   # raw factors; no play is validated
                final, label, cert = outcome.factors, outcome.status.value, None
                if start_id in picks:
                    play = plays[picks[start_id]]
                    cert = verify_epsilon_nash_quantum(game, play, epsilon, num_probes=8, seed=rng)
                    if cert is not None:
                        final, label = game.check_play(play), "cycle_resolved"
                if cert is None:
                    cert = verify_epsilon_nash_quantum(
                        game, ProductPlay(final), epsilon, num_probes=8, seed=rng)
                prepared = prepared_vector(game, final)
                unit = _fixed_phase(prepared / np.linalg.norm(prepared))   # as canonicalize_phase
                rows.append(SweepRow(
                    s=float(s), start_id=start_id, outcome=label, iterations=outcome.iterations,
                    payoff_player1=complex(_payoff_of(game.payoffs[0], prepared)),
                    ground_overlap_magnitude=float(abs(np.vdot(targets[0].amplitudes, unit))),
                    verified=cert is not None))
        del games, game   # one chunk's U(s) at a time
    return SweepReport(rows=tuple(rows), verified=sum(row.verified for row in rows),
                       converged=sum(row.outcome == DynamicsStatus.CONVERGED.value for row in rows))


def bell_state_preparation_demo() -> QuantumGame:
    """Bundled two-qubit game whose referee prepares a maximally entangled state
    from the all-zeros product play; both players share that state as target."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    cnot = np.eye(4)[[0, 1, 3, 2]]   # swaps |10> and |11>
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
