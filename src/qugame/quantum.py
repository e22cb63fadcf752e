"""Games whose strategies are pure qudit states and whose referee is a unitary.

Each of N players contributes one factor of a product state; the game unitary
turns the product into the prepared joint state. Two payoff rules are
supported per player:

* overlap: the inner product of a fixed target state with the prepared state.
  Linear in each player's slot vector, so best replies are closed-form and
  round-robin dynamics settle into equilibria.
* observable: a real weight per joint basis state, paid on the prepared
  state's probabilities. Quadratic in each slot, best replies are top
  eigenvectors, and equilibria may fail to exist at all.

Overlap payoffs are complex, but improvement judgments are phase-free: a
player's slot state is projective, so the payoff phase is never theirs to
keep, and the attainable optimum against fixed opponents is the real number
|v| (the contraction-vector norm). Deviation gains below are therefore
magnitude gaps, whatever order one might put on the complex plane.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, check_threshold
from .geometry import _bloch_rows
from .linalg import (
    ProductPlay,
    PureState,
    UnitaryOperator,
    _haar_rows,
    as_rng,
    canonicalize_phase,
    fubini_study_distance,
    haar_random_state,
    inner_product,
    tensor_product,
)

__all__ = [
    "OverlapPayoff",
    "ObservablePayoff",
    "QuantumGame",
    "DynamicsStatus",
    "TraceRecord",
    "DynamicsOutcome",
    "QuantumEquilibriumCertificate",
    "GridSearchReport",
    "NonlinearityWitness",
    "prepared_vector",
    "prepared_state",
    "overlap_payoff",
    "observable_payoff",
    "payoff",
    "overlap_contraction",
    "effective_observable",
    "best_response_overlap",
    "best_response_observable",
    "best_response",
    "iterated_best_response",
    "random_play",
    "multi_start_dynamics",
    "overlap_fixed_point_candidates",
    "play_distance",
    "quantum_deviation_gains",
    "verify_epsilon_nash_quantum",
    "grid_states",
    "grid_best_response_payoff",
    "grid_search_pure_nash",
    "observable_nonlinearity_witness",
    "alignment_demo_game",
]


@dataclass(frozen=True)
class OverlapPayoff:
    """Payoff = inner product of ``target`` (joint space) with the prepared state."""

    target: PureState


@dataclass(frozen=True, eq=False)
class ObservablePayoff:
    """Payoff = sum of ``eigenvalues[j] * |amplitude_j|^2`` of the prepared state."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        arr = np.array(self.eigenvalues, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("eigenvalues must form a nonempty real vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("eigenvalues must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", arr)


PayoffSpec = OverlapPayoff | ObservablePayoff


class QuantumGame:
    """N-player game: per-player qudit dimensions, a joint unitary, payoff specs."""

    __slots__ = ("_dims", "_unitary", "_payoffs")

    def __init__(
        self,
        dims: Sequence[int],
        unitary: UnitaryOperator | np.ndarray,
        payoffs: Sequence[PayoffSpec],
    ):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2:
            raise ValueError("a quantum game needs at least two players")
        if any(d < 2 for d in dims):
            raise ValueError("every player needs a qudit of dimension >= 2")
        joint = math.prod(dims)
        u = unitary if isinstance(unitary, UnitaryOperator) else UnitaryOperator(unitary)
        if u.dimension != joint:
            raise ValueError(f"unitary has dimension {u.dimension}, joint space needs {joint}")
        specs = tuple(payoffs)
        if len(specs) != len(dims):
            raise ValueError(f"{len(dims)} players but {len(specs)} payoff specs")
        for i, spec in enumerate(specs):
            if not isinstance(spec, (OverlapPayoff, ObservablePayoff)):
                raise TypeError(f"payoff {i}: unknown payoff spec {type(spec).__name__}")
            if isinstance(spec, OverlapPayoff) and spec.target.dimension != joint:
                raise ValueError(f"payoff {i}: target dimension {spec.target.dimension} != {joint}")
            if isinstance(spec, ObservablePayoff) and spec.eigenvalues.size != joint:
                raise ValueError(f"payoff {i}: {spec.eigenvalues.size} eigenvalues != {joint}")
        self._dims = dims
        self._unitary = u
        self._payoffs = specs

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def num_players(self) -> int:
        return len(self._dims)

    @property
    def joint_dimension(self) -> int:
        return math.prod(self._dims)

    @property
    def unitary(self) -> UnitaryOperator:
        return self._unitary

    @property
    def payoffs(self) -> tuple[PayoffSpec, ...]:
        return self._payoffs

    def check_play(self, play: ProductPlay) -> None:
        if play.dims != self._dims:
            raise ValueError(f"play dims {play.dims} do not match game dims {self._dims}")

    def __repr__(self) -> str:
        kinds = ",".join(
            "overlap" if isinstance(p, OverlapPayoff) else "observable"
            for p in self._payoffs
        )
        return f"QuantumGame(dims={self._dims}, payoffs=[{kinds}])"


def prepared_vector(game: QuantumGame, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Game unitary applied to the tensor product of raw slot vectors.

    Linear in every slot; callers may pass unnormalized vectors (payoff
    linearity is stated on the ambient space).
    """
    joint = tensor_product(factors)
    if joint.size != game.joint_dimension:
        raise ValueError("slot vectors do not match the game's dimensions")
    return game.unitary.matrix @ joint


def prepared_state(game: QuantumGame, play: ProductPlay) -> PureState:
    """Canonical representative of the prepared joint state."""
    game.check_play(play)
    return canonicalize_phase(prepared_vector(game, [f.amplitudes for f in play.factors]))


def _payoff_of(spec: PayoffSpec, prepared: np.ndarray) -> complex | float:
    """One payoff read off a prepared joint vector."""
    if isinstance(spec, OverlapPayoff):
        return inner_product(spec.target, prepared)
    return float(spec.eigenvalues @ np.abs(prepared) ** 2)


def _all_payoffs(game: QuantumGame, play: ProductPlay) -> tuple[complex, ...]:
    """Every player's :func:`payoff`, read off one prepared vector."""
    game.check_play(play)
    prepared = prepared_vector(game, [f.amplitudes for f in play.factors])
    return tuple(complex(_payoff_of(spec, prepared)) for spec in game.payoffs)


def overlap_payoff(game: QuantumGame, play: ProductPlay, i: int) -> complex:
    """Complex overlap of player ``i``'s target with the prepared play.

    Computed on the raw prepared vector, so it is exactly linear in each
    player's slot vector; the factors' canonical phases pin the value.
    """
    game.check_play(play)
    spec = game.payoffs[i]
    if not isinstance(spec, OverlapPayoff):
        raise TypeError(f"player {i} does not use an overlap payoff")
    return _payoff_of(spec, prepared_vector(game, [f.amplitudes for f in play.factors]))


def observable_payoff(game: QuantumGame, play: ProductPlay, i: int) -> float:
    """Expected value of player ``i``'s basis-diagonal observable on the play."""
    game.check_play(play)
    spec = game.payoffs[i]
    if not isinstance(spec, ObservablePayoff):
        raise TypeError(f"player {i} does not use an observable payoff")
    return _payoff_of(spec, prepared_vector(game, [f.amplitudes for f in play.factors]))


def payoff(game: QuantumGame, play: ProductPlay, i: int) -> complex:
    """Player ``i``'s payoff as a complex number regardless of payoff kind."""
    return _all_payoffs(game, play)[i]


def _slot_map(game: QuantumGame, play: ProductPlay, i: int) -> np.ndarray:
    """Matrix W, shape (joint, dims[i]), with prepared_vector == W @ q when
    player ``i`` plays q and the others keep their factors.

    Contracts U's column axes with the opponents' factors: O(d^2) time at joint
    dimension d, no joint operator formed, O(joint * dims[i]) memory for two
    players (with more, the first contraction holds d^2 / dims[j] entries for
    the last opponent j).
    """
    game.check_play(play)
    dims = game.dims
    tens = game.unitary.matrix.reshape((game.joint_dimension, *dims))
    # highest axis first keeps the lower axis numbers valid; matmul reads the view uncopied
    for j in reversed(range(len(dims))):
        if j != i:
            tens = np.moveaxis(tens, j + 1, -1) @ play.factors[j].amplitudes
    return tens.reshape(-1, dims[i])


def _pull_back(game: QuantumGame, target: np.ndarray) -> np.ndarray:
    """U^H target, computed without a conjugate-transposed copy of U."""
    return (target.conj() @ game.unitary.matrix).conj()


def overlap_contraction(game: QuantumGame, play: ProductPlay, i: int) -> np.ndarray:
    """Vector ``v`` with overlap_payoff == inner_product(v, q) for slot states q.

    W^H target for W from :func:`_slot_map`: O(d^2) time, O(joint * dims[i])
    memory, no joint operator formed.
    """
    spec = game.payoffs[i]
    if not isinstance(spec, OverlapPayoff):
        raise TypeError(f"player {i} does not use an overlap payoff")
    return (spec.target.amplitudes.conj() @ _slot_map(game, play, i)).conj()


def effective_observable(game: QuantumGame, play: ProductPlay, i: int) -> np.ndarray:
    """Hermitian matrix M with observable_payoff == <q, M q> for slot states q.

    W^H diag(eigenvalues) W for W from :func:`_slot_map`: O(d^2) time,
    O(joint * dims[i]) memory, no joint operator formed.
    """
    spec = game.payoffs[i]
    if not isinstance(spec, ObservablePayoff):
        raise TypeError(f"player {i} does not use an observable payoff")
    w = _slot_map(game, play, i)
    m = w.conj().T @ (spec.eigenvalues[:, None] * w)
    return 0.5 * (m + m.conj().T)  # symmetrize away rounding noise


def best_response_overlap(game: QuantumGame, play: ProductPlay, i: int) -> PureState:
    """Optimal slot state for an overlap player, others held fixed.

    The payoff is inner_product(v, q) for the contraction vector v, so the
    optimum is v normalized, where the payoff is |v| (real, positive). An
    indifferent player (v numerically zero) keeps the current factor.
    """
    v = overlap_contraction(game, play, i)
    if np.linalg.norm(v) <= DEFAULT_TOLS.indifference:
        return play.factors[i]
    return canonicalize_phase(v)


def best_response_observable(game: QuantumGame, play: ProductPlay, i: int) -> PureState:
    """Top eigenvector of the effective observable, deterministically chosen.

    With a degenerate top eigenvalue the eigensolver's lowest-index vector in
    the near-maximal block is returned, canonical phase applied.
    """
    m = effective_observable(game, play, i)
    w, vecs = np.linalg.eigh(m)
    top = w.max()
    idx = int(np.argmax(w >= top - DEFAULT_TOLS.eigenvalue_tie))
    return canonicalize_phase(vecs[:, idx])


def best_response(game: QuantumGame, play: ProductPlay, i: int) -> PureState:
    """Dispatch on player ``i``'s payoff kind."""
    if isinstance(game.payoffs[i], OverlapPayoff):
        return best_response_overlap(game, play, i)
    return best_response_observable(game, play, i)


class DynamicsStatus(enum.Enum):
    CONVERGED = "converged"
    CYCLE_DETECTED = "cycle_detected"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class TraceRecord:
    """Snapshot after one round-robin sweep."""

    sweep: int
    payoffs: tuple[complex, ...]
    step_distance: float


@dataclass(frozen=True)
class DynamicsOutcome:
    """Terminal state of iterated best response.

    ``iterations`` counts completed sweeps. ``period`` and ``cycle_start`` are
    set only for detected cycles; ``trace`` records every sweep.
    """

    status: DynamicsStatus
    play: ProductPlay
    iterations: int
    trace: tuple[TraceRecord, ...]
    period: int | None = None
    cycle_start: int | None = None

    @property
    def converged(self) -> bool:
        return self.status is DynamicsStatus.CONVERGED


def random_play(game: QuantumGame, seed: int | np.random.Generator | None) -> ProductPlay:
    """Independent Haar-random factor per player."""
    rng = as_rng(seed)
    return ProductPlay([haar_random_state(d, rng) for d in game.dims])


def play_distance(a: ProductPlay, b: ProductPlay) -> float:
    """Largest per-factor projective distance between two product plays."""
    if len(a.factors) != len(b.factors):
        raise ValueError("plays have different player counts")
    return max(
        fubini_study_distance(fa, fb) for fa, fb in zip(a.factors, b.factors)
    )


CYCLE_WINDOW = 32   # sweeps of history searched for a revisit


def iterated_best_response(
    game: QuantumGame,
    start: ProductPlay | None = None,
    *,
    tol: float = 1e-9,
    max_iter: int = 1000,
    seed: int | np.random.Generator | None = None,
) -> DynamicsOutcome:
    """Round-robin best-response dynamics from ``start`` (Haar-random if None).

    Players update in index order within each sweep. The run converges when no
    factor moved more than ``tol`` in projective distance over a sweep. A
    sweep that lands within the cycle-match tolerance of a play seen at least
    two sweeps earlier stops with a detected cycle; only the last
    ``CYCLE_WINDOW`` sweeps are remembered. A revisit only counts as a cycle
    while the play is still moving much faster than the revisit gap, so the
    shrinking tail of a convergent run is never misread as an orbit.
    """
    check_threshold("tol", tol)
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    play = start if start is not None else random_play(game, seed)
    game.check_play(play)
    history: deque[tuple[int, ProductPlay]] = deque(maxlen=CYCLE_WINDOW)
    trace: list[TraceRecord] = []
    for sweep in range(1, max_iter + 1):
        previous = play
        for i in range(game.num_players):
            play = play.replace(i, best_response(game, play, i))
        step = play_distance(previous, play)
        trace.append(TraceRecord(sweep, _all_payoffs(game, play), step))
        if step <= tol:
            return DynamicsOutcome(
                DynamicsStatus.CONVERGED, play, sweep, tuple(trace)
            )
        for past_sweep, past_play in history:
            if sweep - past_sweep < 2:
                continue
            gap = play_distance(past_play, play)
            # Demanding step >> gap separates a genuine orbit (large sweeps,
            # near-exact revisit) from a convergent tail, where the revisit
            # gap shrinks in lockstep with the step size.
            if gap <= DEFAULT_TOLS.cycle_match and step >= 10.0 * gap:
                return DynamicsOutcome(
                    DynamicsStatus.CYCLE_DETECTED,
                    play,
                    sweep,
                    tuple(trace),
                    period=sweep - past_sweep,
                    cycle_start=past_sweep,
                )
        history.append((sweep, play))
    return DynamicsOutcome(DynamicsStatus.MAX_ITERATIONS, play, max_iter, tuple(trace))


def multi_start_dynamics(
    game: QuantumGame,
    num_starts: int,
    *,
    tol: float = 1e-9,
    max_iter: int = 500,
    seed: int | np.random.Generator | None = None,
) -> list[DynamicsOutcome]:
    """Run the dynamics from ``num_starts`` Haar-random starts (one shared rng)."""
    rng = as_rng(seed)
    return [
        iterated_best_response(game, random_play(game, rng), tol=tol, max_iter=max_iter)
        for _ in range(num_starts)
    ]


def overlap_fixed_point_candidates(game: QuantumGame) -> list[ProductPlay]:
    """Closed-form mutual-best-response plays of a two-player overlap game.

    One round-robin sweep sends player 2's factor b to a scalar multiple of
    M b, where M composes the two contraction maps. A play is a simultaneous
    best response exactly when b is an eigenvector of M with nonzero
    eigenvalue and player 1 holds the contraction direction that b induces.
    This recovers the equilibria that the sweep dynamics orbit around without
    approaching: whenever the two targets are orthogonal, M is traceless, its
    eigenvalues tie in magnitude, and round-robin updates cycle with period 2
    instead of settling.

    Zero-eigenvalue directions are indifference plateaus rather than isolated
    equilibria and are skipped; the list is ordered by descending eigenvalue
    magnitude (ties keep the eigensolver's order).
    """
    if game.num_players != 2:
        raise ValueError("fixed-point extraction needs a two-player game")
    if not all(isinstance(p, OverlapPayoff) for p in game.payoffs):
        raise ValueError("fixed-point extraction needs overlap payoffs for both players")
    d1, d2 = game.dims
    pulled_1 = _pull_back(game, game.payoffs[0].target.amplitudes).reshape(d1, d2)
    pulled_2 = _pull_back(game, game.payoffs[1].target.amplitudes).reshape(d1, d2)
    sweep_map = pulled_2.T @ pulled_1.conj()
    values, vectors = np.linalg.eig(sweep_map)
    plays: list[ProductPlay] = []
    for k in np.argsort(-np.abs(values), kind="stable"):
        if abs(values[k]) <= DEFAULT_TOLS.phase_cutoff:
            continue
        second = canonicalize_phase(vectors[:, k])
        induced = pulled_1 @ np.conj(second.amplitudes)
        if np.linalg.norm(induced) <= DEFAULT_TOLS.phase_cutoff:
            continue
        plays.append(ProductPlay((canonicalize_phase(induced), second)))
    return plays


@dataclass(frozen=True)
class QuantumEquilibriumCertificate:
    """Witness that no unilateral deviation improves a play by more than epsilon.

    Gains are computed analytically from the closed-form best responses; the
    sampled probes are a redundant cross-check and can only confirm.
    """

    play: ProductPlay
    epsilon: float
    per_player_gain: tuple[float, ...]
    probes_per_player: int
    max_probe_gain: float

    def __post_init__(self):
        if self.epsilon < max(self.per_player_gain):
            raise ValueError("certificate epsilon is below the recorded gains")


def quantum_deviation_gains(game: QuantumGame, play: ProductPlay) -> np.ndarray:
    """Attainable unilateral improvement per player.

    Overlap players: |v| - |current payoff|, the exact projective optimum gap
    (nonnegative). Observable players: top eigenvalue of
    the effective observable minus the current payoff, which is read off the
    same v or M (|<v, f>| or <f, M f> at the player's factor f).
    """
    game.check_play(play)
    gains = np.empty(game.num_players)
    for i, spec in enumerate(game.payoffs):
        f = play.factors[i].amplitudes
        if isinstance(spec, OverlapPayoff):
            v = overlap_contraction(game, play, i)
            gains[i] = np.linalg.norm(v) - abs(np.vdot(v, f))
        else:
            m = effective_observable(game, play, i)
            top = float(np.linalg.eigvalsh(m)[-1])
            gains[i] = top - np.vdot(f, m @ f).real
    return gains


def verify_epsilon_nash_quantum(
    game: QuantumGame,
    play: ProductPlay,
    epsilon: float,
    *,
    num_probes: int = 32,
    seed: int | np.random.Generator | None = 0,
) -> QuantumEquilibriumCertificate | None:
    """Certificate if every analytic deviation gain is at most ``epsilon``.

    Additionally samples ``num_probes`` Haar-random unilateral deviations per
    player as a redundant check: a sampled deviation can never beat the
    closed-form optimum, so a probe gain above epsilon means rejection was
    correct anyway, and the recorded maximum makes the certificate auditable.
    Each player's probes (players in index order) are drawn as one array, bit
    for bit ``num_probes`` Haar states and their rng stream, and prepared in
    one product ``U @ J``, independently of the analytic gains.
    """
    check_threshold("epsilon", epsilon)
    if num_probes < 0:
        raise ValueError(f"num_probes must be >= 0, got {num_probes!r}")
    game.check_play(play)
    gains = quantum_deviation_gains(game, play)
    rng = as_rng(seed)
    max_probe = -math.inf if num_probes else 0.0
    for i, spec in enumerate(game.payoffs if num_probes else ()):
        probes = _haar_rows(game.dims[i], num_probes, rng)
        columns = [f.amplitudes[:, None] for f in play.factors]
        columns[i] = np.vstack([play.factors[i].amplitudes, probes]).T  # column 0: the play
        prepared = game.unitary.matrix @ reduce(np.kron, columns)  # one joint vector per column
        if isinstance(spec, OverlapPayoff):
            values = np.abs(spec.target.amplitudes.conj() @ prepared)
        else:
            values = spec.eigenvalues @ np.abs(prepared) ** 2
        max_probe = max(max_probe, float(values[1:].max() - values[0]))
    if gains.max() <= epsilon and max_probe <= epsilon:
        return QuantumEquilibriumCertificate(
            play, float(epsilon), tuple(gains), num_probes, float(max_probe)
        )
    return None


def grid_states(resolution: int) -> np.ndarray:
    """Qubit grid: ``resolution`` polar values in [0, pi] (inclusive) times
    ``resolution`` azimuthal values in [0, 2 pi) as state vectors, shape
    (resolution**2, 2), for resolutions 2 to ``MAX_GRID_RESOLUTION``."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution > MAX_GRID_RESOLUTION:
        raise ValueError(f"resolution {resolution} exceeds {MAX_GRID_RESOLUTION}")
    theta = np.linspace(0.0, np.pi, resolution)
    phi = np.arange(resolution) * (2.0 * np.pi / resolution)
    half = theta[:, None] / 2.0
    states = np.empty((resolution, resolution, 2), dtype=np.complex128)
    states[:, :, 0] = np.cos(half)
    states[:, :, 1] = np.exp(1j * phi)[None, :] * np.sin(half)
    return states.reshape(-1, 2)


MAX_GRID_RESOLUTION = 64


# (I, X, Y, Z): a qubit state's density matrix is s . sigma / 2 for its Bloch row s = (1, x, y, z)
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _scalar_payoff_tables(
    game: QuantumGame, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar payoff tables over the joint grid for both players of a 2-qubit game,
    each one bilinear product in the slots; no joint grid state is formed.

    Overlap entries are payoff magnitudes (the phase-free summary improvement
    is judged on): ``|grid @ T @ grid.T|`` for T the 2x2 conjugate pull-back.
    Observable entries are the real payoff Tr(M rho_a (x) rho_b) for
    M = U^H diag(eigenvalues) U, read off the Bloch rows S of the grid:
    ``S @ R @ S.T`` with R[mu, nu] = Tr(M sigma_mu (x) sigma_nu) / 4.
    """
    rows = _bloch_rows(grid)
    tables = []
    for spec in game.payoffs:
        if isinstance(spec, OverlapPayoff):
            pulled = np.conj(_pull_back(game, spec.target.amplitudes)).reshape(2, 2)
            tables.append(np.abs(grid @ pulled @ grid.T))
        else:
            u = game.unitary.matrix
            joint = (u.conj().T @ (spec.eigenvalues[:, None] * u)).reshape(2, 2, 2, 2)
            form = np.einsum("acbd,mba,ndc->mn", joint, _PAULIS, _PAULIS).real / 4.0
            tables.append(rows @ form @ rows.T)
    return tables[0], tables[1]


@dataclass(frozen=True)
class GridSearchReport:
    """Exhaustive scan of the qubit product grid for approximate equilibria."""

    resolution: int
    epsilon: float
    num_plays: int
    equilibrium_indices: tuple[tuple[int, int], ...]
    best_index: tuple[int, int]
    min_max_gain: float

    @property
    def num_equilibria(self) -> int:
        return len(self.equilibrium_indices)

    def best_play(self) -> ProductPlay:
        grid = grid_states(self.resolution)
        a, b = self.best_index
        return ProductPlay([canonicalize_phase(grid[a]), canonicalize_phase(grid[b])])


def grid_best_response_payoff(
    game: QuantumGame, play: ProductPlay, i: int, resolution: int
) -> float:
    """Best scalar payoff player ``i`` reaches on the qubit grid, others fixed.

    Overlap payoffs enter as magnitudes (the grid fixes representatives, so
    only the phase-free summary is comparable to the analytic optimum).
    """
    game.check_play(play)
    if game.dims[i] != 2:
        raise ValueError("the grid oracle handles qubit slots only")
    grid = grid_states(resolution)
    spec = game.payoffs[i]
    if isinstance(spec, OverlapPayoff):
        v = overlap_contraction(game, play, i)
        return float(np.abs(grid @ np.conj(v)).max())
    m = effective_observable(game, play, i)
    weights = np.einsum("kl,mlk->m", m, _PAULIS).real / 2.0   # <q, M q> = s(q) . weights
    return float((_bloch_rows(grid) @ weights).max())


GRID_MAX_REPORTED = 64   # equilibrium indices kept in a grid-search report


def grid_search_pure_nash(game: QuantumGame, resolution: int, epsilon: float) -> GridSearchReport:
    """Scan all product plays of two qubit grids for epsilon-equilibria.

    A play passes when neither player can raise their scalar payoff (overlap
    magnitude, or the observable value) by more than ``epsilon`` within their
    own grid. The report also carries the play minimizing the larger of the
    two gains, which doubles as a search hint when nothing passes. The first
    ``GRID_MAX_REPORTED`` passing plays in row-major order are listed.

    Each gain overwrites its player's table, so two n x n float tables (n =
    resolution**2) are the working set, plus one complex n x n product while an
    overlap table is built: at resolution 64 about 512 MiB traced for the Bell
    game and 272 MiB for the observable alignment demo.
    """
    if game.num_players != 2 or game.dims != (2, 2):
        raise ValueError("the grid oracle handles two qubit players only")
    check_threshold("epsilon", epsilon)
    table1, table2 = _scalar_payoff_tables(game, grid_states(resolution))
    # each player's gain overwrites their table in place
    np.subtract(table1.max(axis=0)[None, :], table1, out=table1)   # player 1 scans rows
    np.subtract(table2.max(axis=1)[:, None], table2, out=table2)   # player 2 scans columns
    worst = np.maximum(table1, table2, out=table1)
    flat_best = int(np.argmin(worst))
    best_index = (flat_best // worst.shape[1], flat_best % worst.shape[1])
    hits = np.argwhere(worst <= epsilon)
    indices = tuple((int(a), int(b)) for a, b in hits[:GRID_MAX_REPORTED])
    return GridSearchReport(
        resolution=resolution,
        epsilon=float(epsilon),
        num_plays=worst.size,
        equilibrium_indices=indices,
        best_index=best_index,
        min_max_gain=float(worst[best_index]),
    )


@dataclass(frozen=True, eq=False)
class NonlinearityWitness:
    """Explicit failure of payoff linearity for the observable rule.

    Mixing two unit slot vectors with weight ``mu`` (ambient convex
    combination, no renormalization) must reproduce the mixed payoff under a
    linear rule; the observable rule misses by ``gap``.
    """

    game: QuantumGame
    player: int
    slot_a: np.ndarray
    slot_b: np.ndarray
    mu: float
    mixed_value: float
    average_value: float

    @property
    def gap(self) -> float:
        return abs(self.mixed_value - self.average_value)


def observable_nonlinearity_witness() -> NonlinearityWitness:
    """Shipped witness: an agreement game where mixing basis states pays 0.25,
    while the average of the endpoint payoffs is 0.5."""
    eigenvalues = np.array([1.0, 0.0, 0.0, 1.0])
    game = QuantumGame(
        (2, 2),
        UnitaryOperator(np.eye(4)),
        (ObservablePayoff(eigenvalues), ObservablePayoff(eigenvalues)),
    )
    a = np.array([1.0, 0.0], dtype=np.complex128)
    b = np.array([0.0, 1.0], dtype=np.complex128)
    other = np.array([1.0, 0.0], dtype=np.complex128)
    mu = 0.5

    def value(slot):   # player 0's payoff on the ambient, unnormalized slot vector
        return _payoff_of(game.payoffs[0], prepared_vector(game, [slot, other]))

    mixed = value(mu * a + (1 - mu) * b)
    average = mu * value(a) + (1 - mu) * value(b)
    return NonlinearityWitness(
        game=game,
        player=0,
        slot_a=a,
        slot_b=b,
        mu=mu,
        mixed_value=mixed,
        average_value=average,
    )


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Basis change sending the computational basis to {|00>, (|01>+|10>)/sqrt2,
# |11>, (|01>-|10>)/sqrt2}; entangling, and it diagonalizes the exchange
# coupling used by the demo below.
_ALIGNMENT_UNITARY = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, _INV_SQRT2, _INV_SQRT2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, _INV_SQRT2, -_INV_SQRT2, 0.0],
    ],
    dtype=np.complex128,
)


def alignment_demo_game() -> QuantumGame:
    """Bundled zero-sum observable game with no pure equilibrium.

    Through the entangling basis change above, player 1's payoff works out to
    half the inner product of the two players' Bloch vectors: player 1 wants
    alignment, player 2 wants anti-alignment. Best replies chase each other at
    a constant gain of 1/2, so no product play is even approximately stable
    and round-robin dynamics cycle with period two.
    """
    eigenvalues = np.array([0.5, 0.5, 0.5, -1.5])
    return QuantumGame(
        (2, 2),
        UnitaryOperator(_ALIGNMENT_UNITARY),
        (ObservablePayoff(eigenvalues), ObservablePayoff(-eigenvalues)),
    )
