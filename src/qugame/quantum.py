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
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, check_threshold
from .linalg import (
    ProductPlay,
    PureState,
    UnitaryOperator,
    _bloch_rows,
    _haar_rows,
    _outer,
    _projective_distances,
    _row_norms,
    _unit_rows,
    as_rng,
    canonicalize_phase,
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
        # every gain and probe gain is at most max - min: refuse its overflow, found by halving
        if 0.5 * arr.max() - 0.5 * arr.min() > 0.5 * np.finfo(np.float64).max:
            raise ValueError("eigenvalue range max - min exceeds the float maximum")
        arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", arr)


PayoffSpec = OverlapPayoff | ObservablePayoff


@dataclass(frozen=True, eq=False, repr=False)
class QuantumGame:
    """N-player game: per-player qudit dimensions, a joint unitary, payoff specs."""

    dims: tuple[int, ...]
    unitary: UnitaryOperator
    payoffs: tuple[PayoffSpec, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 2:
            raise ValueError("a quantum game needs at least two players")
        if any(d < 2 for d in dims):
            raise ValueError("every player needs a qudit of dimension >= 2")
        joint = math.prod(dims)
        u = self.unitary
        u = u if isinstance(u, UnitaryOperator) else UnitaryOperator(u)
        if u.dimension != joint:
            raise ValueError(f"unitary has dimension {u.dimension}, joint space needs {joint}")
        specs = tuple(self.payoffs)
        if len(specs) != len(dims):
            raise ValueError(f"{len(dims)} players but {len(specs)} payoff specs")
        for i, spec in enumerate(specs):
            if not isinstance(spec, (OverlapPayoff, ObservablePayoff)):
                raise TypeError(f"payoff {i}: unknown payoff spec {type(spec).__name__}")
            if isinstance(spec, OverlapPayoff) and spec.target.dimension != joint:
                raise ValueError(f"payoff {i}: target dimension {spec.target.dimension} != {joint}")
            if isinstance(spec, ObservablePayoff) and spec.eigenvalues.size != joint:
                raise ValueError(f"payoff {i}: {spec.eigenvalues.size} eigenvalues != {joint}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "payoffs", specs)

    @property
    def num_players(self) -> int:
        return len(self.dims)

    @property
    def joint_dimension(self) -> int:
        return math.prod(self.dims)

    def check_play(self, play: ProductPlay) -> list[np.ndarray]:
        """Refuse a play of other dims than the game's; return its raw factor arrays."""
        if play.dims != self.dims:
            raise ValueError(f"play dims {play.dims} do not match game dims {self.dims}")
        return [f.amplitudes for f in play.factors]

    def __repr__(self) -> str:
        kinds = ",".join(
            "overlap" if isinstance(p, OverlapPayoff) else "observable"
            for p in self.payoffs
        )
        return f"QuantumGame(dims={self.dims}, payoffs=[{kinds}])"


def prepared_vector(game: QuantumGame, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Game unitary applied to the tensor product of raw slot vectors, or to one
    joint column per column of ``(dims[j], k)`` stacks (``(dims[j], 1)`` broadcasts).
    Linear in every slot: callers may pass unnormalized vectors (payoff linearity
    is stated on the ambient space). A non-finite factor entry shows in the product.
    """
    if len(factors) == 0:
        raise ValueError("a preparation needs at least one slot vector")
    with np.errstate(invalid="ignore", over="ignore"):   # refused below, not warned about
        joint = np.asarray(reduce(_outer, factors), dtype=np.complex128)
    if joint.shape[:1] != (game.joint_dimension,):
        raise ValueError("slot vectors do not match the game's dimensions")
    if not np.isfinite(joint).all():
        raise ValueError("slot vectors have non-finite entries")
    return game.unitary.matrix @ joint


def _play_rows(game: QuantumGame, play: ProductPlay) -> list[np.ndarray]:
    """:meth:`QuantumGame.check_play` with each factor as a one-row ``(1, dims[i])`` stack."""
    return [f[None] for f in game.check_play(play)]


def _spec_of(game: QuantumGame, i: int, kind: type) -> PayoffSpec:
    """Player ``i``'s payoff spec, refused unless it is a ``kind``."""
    spec = game.payoffs[i]
    if not isinstance(spec, kind):
        raise TypeError(f"player {i} does not use an {kind.__name__}")
    return spec


def _payoff_of(spec: PayoffSpec, prepared: np.ndarray):
    """One payoff read off a prepared vector (overlaps as np.vdot), or one per stack column."""
    if isinstance(spec, OverlapPayoff):
        return spec.target.amplitudes.conj() @ prepared
    return spec.eigenvalues @ np.abs(prepared) ** 2


def payoff(game: QuantumGame, play: ProductPlay, i: int) -> complex:
    """Player ``i``'s payoff as a complex number, whatever the payoff kind: the target's
    overlap with the prepared vector (linear in each slot), or the observable's value."""
    return complex(_payoff_of(game.payoffs[i], prepared_vector(game, game.check_play(play))))


def _slot_map(game: QuantumGame, factors: Sequence[np.ndarray], i: int,
              referees: np.ndarray | None = None) -> np.ndarray:
    """W, shape (k, joint, dims[i]), with prepared_vector == W @ q for player ``i``'s slot
    vector q against each row of the others' ``(k, dims[j])`` factor stacks and of the
    ``referees`` U (each row's, or the game's unitary; a one-row stack broadcasts). W
    contracts U's column axes with the opponents' factors: O(d^2) time per row at joint
    dimension d, no joint operator formed (with more than two players, the first
    contraction holds k * d^2 / dims[j] entries for the last opponent j; :func:`_dynamics`
    bounds k by ``STACK_ENTRIES``). The last remaining axis is contracted by one
    matrix-vector product per stack row, the one before player i's (once theirs is last)
    by batched products on swapped axes; a one-row stack takes the same products, so rows
    keep their bits (one product over all k rows would not)."""
    dims = game.dims
    w = (game.unitary.matrix if referees is None else referees).reshape(-1, math.prod(dims), *dims)
    # highest axis first keeps the lower axis numbers valid; matmul reads the views uncopied
    for j in reversed([j for j in range(len(dims)) if j != i]):
        f = factors[j]
        if j + 3 == w.ndim:   # axis j is the last one
            w = (w.reshape(len(w), -1, dims[j]) @ f[..., None]).reshape(-1, *w.shape[1:-1])
        else:   # player i's axis is last: a swap is moveaxis(w, j + 2, -1)
            column = f.reshape(len(f), *[1] * (w.ndim - 3), -1, 1)
            w = (w.swapaxes(j + 2, -1) @ column)[..., 0]
    return w


def _slot_form(game: QuantumGame, w: np.ndarray, i: int) -> np.ndarray:
    """Player ``i``'s payoff as a form in their slot vector q, for each row of
    :func:`_slot_map`'s W: rows v = W^H target (payoff <v, q>) for an overlap player,
    shape (k, dims[i]), or the Hermitian M = W^H diag(eigenvalues) W (payoff <q, M q>)
    for an observable one, shape (k, dims[i], dims[i])."""
    spec = game.payoffs[i]
    if isinstance(spec, OverlapPayoff):
        return (spec.target.amplitudes.conj() @ w).conj()
    m = w.conj().swapaxes(-1, -2) @ (spec.eigenvalues[:, None] * w)
    # symmetrize away rounding noise, halving first so entries near the float maximum stay finite
    return 0.5 * m + 0.5 * m.conj().swapaxes(-1, -2)


def _slot_optimum(game: QuantumGame, w: np.ndarray, f: np.ndarray, i: int) -> tuple:
    """Per row of :func:`_slot_map`'s W and of player ``i``'s ``(k, dims[i])`` factor stack
    f: the raw best-response direction, its payoff and f's payoff, from one
    :func:`_slot_form` and at most one batched eigh. Overlap: the direction v pays
    |v| against |<v, f>|. Observable: M's top eigenvector pays the top eigenvalue
    against <f, M f>; in a degenerate top block the lowest-index vector is taken.
    Directions are neither normalized nor phase-fixed (see :func:`_best_rows`)."""
    spec = game.payoffs[i]
    form = _slot_form(game, w, i)
    if isinstance(spec, OverlapPayoff):
        inner = np.vecdot(form, f)   # as np.vdot
        return form, _row_norms(form), np.hypot(inner.real, inner.imag)
    values, vectors = np.linalg.eigh(form)
    attainable = values[:, -1]   # eigh sorts ascending
    current = np.vecdot(f, (form @ f[..., None])[..., 0]).real
    top = (values >= attainable[:, None] - DEFAULT_TOLS.eigenvalue_tie).argmax(axis=-1)
    return vectors[np.arange(len(top)), :, top], attainable, current


def _best_rows(game: QuantumGame, factors: Sequence[np.ndarray], i: int,
               referees: np.ndarray | None = None) -> np.ndarray:
    """Player ``i``'s canonical best response to each row of the factor stacks (under
    :func:`_slot_map`'s ``referees``): the :func:`_slot_optimum` direction normalized and
    phase-fixed, except that an indifferent overlap row (|v| within tolerance) keeps its factor."""
    w = _slot_map(game, factors, i, referees)
    direction, attainable, _ = _slot_optimum(game, w, factors[i], i)
    if isinstance(game.payoffs[i], ObservablePayoff):
        return _unit_rows(direction, _row_norms(direction))
    moved = attainable > DEFAULT_TOLS.indifference   # attainable is |v|
    if moved.all():
        return _unit_rows(direction, attainable)
    best = factors[i].copy()
    best[moved] = _unit_rows(direction[moved], attainable[moved])
    return best


def overlap_contraction(game: QuantumGame, play: ProductPlay, i: int) -> np.ndarray:
    """Vector ``v`` with ``payoff == np.vdot(v, q)`` when player ``i`` plays slot state q,
    in O(d^2) time at joint dimension d with no joint operator (:func:`_slot_form`)."""
    _spec_of(game, i, OverlapPayoff)
    return _slot_form(game, _slot_map(game, _play_rows(game, play), i), i)[0]


def effective_observable(game: QuantumGame, play: ProductPlay, i: int) -> np.ndarray:
    """Hermitian matrix M with ``payoff == <q, M q>`` when player ``i`` plays slot state q,
    in O(d^2) time at joint dimension d with no joint operator (:func:`_slot_form`)."""
    _spec_of(game, i, ObservablePayoff)
    return _slot_form(game, _slot_map(game, _play_rows(game, play), i), i)[0]


def best_response_overlap(game: QuantumGame, play: ProductPlay, i: int) -> PureState:
    """:func:`best_response` of an overlap player: the contraction vector v
    normalized, paying |v|, or the current factor when v is numerically zero."""
    _spec_of(game, i, OverlapPayoff)
    return best_response(game, play, i)


def best_response_observable(game: QuantumGame, play: ProductPlay, i: int) -> PureState:
    """:func:`best_response` of an observable player: the top eigenvector of the
    effective observable (lowest-index one in a degenerate top block)."""
    _spec_of(game, i, ObservablePayoff)
    return best_response(game, play, i)


def best_response(game: QuantumGame, play: ProductPlay, i: int) -> PureState:
    """Player ``i``'s optimal slot state, others held fixed: the validated
    :func:`_best_rows` vector, whatever the payoff kind."""
    return PureState(_best_rows(game, _play_rows(game, play), i)[0])


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


@dataclass(frozen=True, eq=False)
class DynamicsOutcome:
    """Terminal state of iterated best response.

    ``iterations`` counts completed sweeps. ``factors`` are the final raw factor
    arrays, and ``play`` their validated :class:`ProductPlay`, built on first use.
    ``period`` and ``cycle_start`` are set only for detected cycles; ``trace``
    records every sweep (it is empty where the caller keeps none).
    """

    status: DynamicsStatus
    iterations: int
    factors: tuple[np.ndarray, ...]
    trace: tuple[TraceRecord, ...]
    period: int | None = None
    cycle_start: int | None = None

    @cached_property
    def play(self) -> ProductPlay:
        return ProductPlay(self.factors)

    @property
    def converged(self) -> bool:
        return self.status is DynamicsStatus.CONVERGED


def random_play(game: QuantumGame, seed: int | np.random.Generator | None) -> ProductPlay:
    """Independent Haar-random factor per player."""
    return ProductPlay([stack[0] for stack in _haar_rows(game.dims, 1, as_rng(seed))])


def _factor_distances(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> np.ndarray:
    """Largest per-factor projective distance between two lists of raw unit factors,
    row by row for factor stacks (broadcasting)."""
    if len(a) != len(b):
        raise ValueError("plays have different player counts")
    return reduce(np.maximum, map(_projective_distances, a, b))


def play_distance(a: ProductPlay, b: ProductPlay) -> float:
    """Largest per-factor projective distance between two product plays."""
    return float(_factor_distances([f.amplitudes for f in a.factors],
                                   [f.amplitudes for f in b.factors]))


CYCLE_WINDOW = 32   # sweeps of history searched for a revisit

# a slot form's first contraction holds up to joint**2 / min(dims) complex entries per start
# ((starts, joint, dims[i]) for two players), joint**2 more with its own referee; _dynamics
# runs at most STACK_ENTRIES of them (64 MiB) per stack, or one start at a time beyond that
STACK_ENTRIES = 1 << 22
MAX_STARTS = 128   # starts drawn, held and reported by one multi-start call


def _stack_size(dims: Sequence[int], referee: bool = False) -> int:
    """Starts per stack in :func:`_dynamics` for a game of these dims: as many as
    ``STACK_ENTRIES`` slot-form intermediate (and carried referee) entries allow, at least one."""
    return max(1, STACK_ENTRIES * min(dims) // (math.prod(dims) ** 2 * (1 + referee * min(dims))))


def _check_dynamics_args(tol: float, max_iter: int) -> None:
    check_threshold("tol", tol)
    if max_iter < 1:
        raise ValueError("max_iter must be positive")


def _dynamics(game: QuantumGame, starts: Sequence[np.ndarray], *, tol: float, max_iter: int,
              trace: bool, referees: Sequence[np.ndarray] | None = None) -> list[DynamicsOutcome]:
    """:func:`iterated_best_response` from every row of the ``(k, dims[i])`` start stacks,
    :func:`_stack_size` rows at a time, under the game's unitary or, given k ``referees``,
    each row under its own (stacked one stack at a time). A stack contracts each row as it
    would alone, so the split moves no factor, status or step bits; trace payoffs, one
    product per stack, round with its width and read the game's U: referees take no trace."""
    if trace and referees is not None:
        raise ValueError("trace payoffs read the game's unitary, not per-row referees")
    size = _stack_size(game.dims, referees is not None)
    return [outcome for at in range(0, len(starts[0]), size)
            for outcome in _stack_dynamics(
                game, [s[at:at + size] for s in starts],
                None if referees is None else np.stack(referees[at:at + size]),
                tol=tol, max_iter=max_iter, trace=trace)]


def _stack_dynamics(game: QuantumGame, starts: Sequence[np.ndarray], referees: np.ndarray | None,
                    *, tol: float, max_iter: int, trace: bool) -> list[DynamicsOutcome]:
    """:func:`iterated_best_response` from every row of the start stacks at once (each under
    its row of ``referees``, if any). Each sweep takes one :func:`_best_rows` per player for
    the whole stack; convergence and revisits are judged per row, against a history of the
    last ``CYCLE_WINDOW`` sweeps, and a start leaves the stack, with its referee, when it
    converges or closes a cycle. Trace records, from one :func:`prepared_vector` of the
    stack per sweep, are kept only if ``trace``."""
    factors = list(starts)
    ids = np.arange(len(factors[0]))   # the start of each stack row
    # the factors of the last CYCLE_WINDOW sweeps, oldest first: at sweep n, of sweeps
    # max(0, n - CYCLE_WINDOW) to n - 1, the start counting as sweep 0
    history = [f[None] for f in factors]
    outcomes: list[DynamicsOutcome | None] = [None] * len(ids)
    records: list[list[TraceRecord]] = [[] for _ in ids]

    def finish(r, status, period=None, cycle_start=None):
        outcomes[ids[r]] = DynamicsOutcome(status, sweep, tuple(f[r] for f in factors),
                                           tuple(records[ids[r]]), period, cycle_start)

    sweep = 0
    while ids.size and sweep < max_iter:
        sweep += 1
        for i in range(game.num_players):
            factors[i] = _best_rows(game, factors, i, referees)
        distances = _factor_distances(history, factors)
        step = distances[-1]
        if trace:
            prepared = prepared_vector(game, [f.T for f in factors])
            payoffs = np.array([_payoff_of(spec, prepared) for spec in game.payoffs], complex)
            for start_id, values, step_distance in zip(ids, payoffs.T.tolist(), step.tolist()):
                records[start_id].append(TraceRecord(sweep, tuple(values), step_distance))
        done = converged = step <= tol
        # a revisit is of a sweep at least two back (the start is none); demanding
        # step >> gap separates a genuine orbit (large sweeps, near-exact revisit)
        # from a convergent tail, where the gap shrinks in lockstep with the step
        first = max(0, sweep - CYCLE_WINDOW)   # the sweep history[0] holds
        oldest = max(1, first)   # the oldest sweep a revisit may be of
        gaps = distances[oldest - first:-1]
        if gaps.size:
            revisit = (gaps <= DEFAULT_TOLS.cycle_match) & (step >= 10.0 * gaps)
            done = converged | revisit.any(axis=0)
        if done.any():   # finished starts leave the stack
            for r in np.flatnonzero(done):
                if converged[r]:
                    finish(r, DynamicsStatus.CONVERGED)
                else:
                    start = oldest + int(revisit[:, r].argmax())   # the oldest revisit
                    finish(r, DynamicsStatus.CYCLE_DETECTED, sweep - start, start)
            going = ~done
            ids = ids[going]
            if not ids.size:
                break
            history = [h[:, going] for h in history]
            factors = [f[going] for f in factors]
            referees = None if referees is None else referees[going]
        history = [np.concatenate((h[1 - CYCLE_WINDOW:], f[None]))
                   for h, f in zip(history, factors)]
    for r in range(len(ids)):   # sweep == max_iter here
        finish(r, DynamicsStatus.MAX_ITERATIONS)
    return outcomes


def iterated_best_response(game: QuantumGame, start: ProductPlay | None = None, *,
                           tol: float = 1e-9, max_iter: int = 1000,
                           seed: int | np.random.Generator | None = None) -> DynamicsOutcome:
    """Round-robin best-response dynamics from ``start`` (Haar-random if None).

    Players update in index order within each sweep. The run converges when no
    factor moved more than ``tol`` in projective distance over a sweep. A
    sweep that lands within the cycle-match tolerance of a play seen at least
    two sweeps earlier stops with a detected cycle; only the last
    ``CYCLE_WINDOW`` sweeps are remembered. A revisit only counts as a cycle
    while the play is still moving much faster than the revisit gap, so the
    shrinking tail of a convergent run is never misread as an orbit.
    """
    _check_dynamics_args(tol, max_iter)
    rows = _haar_rows(game.dims, 1, as_rng(seed)) if start is None else _play_rows(game, start)
    (outcome,) = _dynamics(game, rows, tol=tol, max_iter=max_iter, trace=True)
    return outcome


def multi_start_dynamics(
    game: QuantumGame,
    num_starts: int,
    *,
    tol: float = 1e-9,
    max_iter: int = 500,
    seed: int | np.random.Generator | None = None,
) -> list[DynamicsOutcome]:
    """:func:`iterated_best_response` from ``num_starts`` (0 to ``MAX_STARTS``)
    Haar-random starts drawn from one shared rng, run as stacks (see :func:`_dynamics`)."""
    if not 0 <= num_starts <= MAX_STARTS:   # before any start is drawn
        raise ValueError(f"num_starts must be 0 to {MAX_STARTS}, got {num_starts!r}")
    _check_dynamics_args(tol, max_iter)
    starts = _haar_rows(game.dims, num_starts, as_rng(seed))
    return _dynamics(game, starts, tol=tol, max_iter=max_iter, trace=True)


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
    _, first, second = _fixed_point_rows(game, [game.unitary.matrix])
    return [ProductPlay(pair) for pair in zip(first, second)]


def _fixed_point_rows(game: QuantumGame, referees: Sequence[np.ndarray]) -> tuple:
    """:func:`overlap_fixed_point_candidates` under each of the ``referees`` U as canonical raw
    rows: each candidate's referee index (ascending, then in the plays' order) and both players'
    rows, from one batched eig of the stacked U^H t; each row has the per-game extraction's bits."""
    d1, d2 = game.dims   # each U^H t as (t^H U)^*, without a conjugate-transposed U
    pulled_1, pulled_2 = (np.array([(p.target.amplitudes.conj() @ u).conj() for u in referees])
                          .reshape(-1, d1, d2) for p in game.payoffs)
    values, vectors = np.linalg.eig(pulled_2.swapaxes(-1, -2) @ pulled_1.conj())
    order = np.argsort(-np.abs(values), axis=-1, kind="stable")
    owner, k = np.nonzero(np.abs(np.take_along_axis(values, order, -1)) > DEFAULT_TOLS.phase_cutoff)
    raw = vectors[owner, :, order[owner, k]]
    second = _unit_rows(raw, _row_norms(raw))
    induced = (pulled_1[owner] @ second.conj()[..., None])[..., 0]
    norms = _row_norms(induced)
    kept = norms > DEFAULT_TOLS.phase_cutoff
    return owner[kept], _unit_rows(induced[kept], norms[kept]), second[kept]


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


def _deviations(game: QuantumGame, play: ProductPlay, num_probes: int, rng) -> tuple:
    """The gains and the largest probe gain (0.0 without probes) from one :func:`_slot_map`
    W per player, in index order: the gain read off W, then ``num_probes`` Haar probes
    prepared by one product with the same W (column 0 is the play's factor)."""
    rows, gains, probe_gains = _play_rows(game, play), [], []
    for i, spec in enumerate(game.payoffs):
        w = _slot_map(game, rows, i)
        _, attainable, current = _slot_optimum(game, w, rows[i], i)
        gains.append((attainable - current)[0])
        if num_probes:
            (probes,) = _haar_rows((game.dims[i],), num_probes, rng)
            values = _payoff_of(spec, w[0] @ np.vstack([rows[i], probes]).T)
            values = np.abs(values) if isinstance(spec, OverlapPayoff) else values
            probe_gains.append(float(values[1:].max() - values[0]))
        del w   # one W at a time: 134 MB at joint dimension 4,096 split 1,11
    return np.array(gains), max(probe_gains, default=0.0)


def quantum_deviation_gains(game: QuantumGame, play: ProductPlay) -> np.ndarray:
    """Attainable unilateral improvement per player: what :func:`_slot_optimum`'s
    best response pays minus what the current factor f pays, |v| - |<v, f>| for
    an overlap player (the exact projective optimum gap, nonnegative) and the top
    eigenvalue of the effective observable M minus <f, M f> for an observable one."""
    return _deviations(game, play, 0, None)[0]


MAX_PROBES = 1024   # W and a (joint, 1 + MAX_PROBES) stack: 71-201 MB at joint dimension 4,096


def _check_verify_args(epsilon: float, num_probes: int) -> None:
    check_threshold("epsilon", epsilon)
    if num_probes < 0:
        raise ValueError(f"num_probes must be >= 0, got {num_probes!r}")
    if num_probes > MAX_PROBES:   # before any probe is drawn
        raise ValueError(f"num_probes must be <= {MAX_PROBES}, got {num_probes!r}")


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
    Each player's probes are drawn as one array, bit for bit ``num_probes`` Haar
    states and their rng stream; they share one W with the player's gain (see
    :func:`_deviations`), not its form, eigensolver or normalization.
    """
    _check_verify_args(epsilon, num_probes)
    gains, max_probe = _deviations(game, play, num_probes, as_rng(seed))
    if gains.max() <= epsilon and max_probe <= epsilon:
        return QuantumEquilibriumCertificate(play, float(epsilon), tuple(gains), num_probes,
                                             float(max_probe))
    return None


def grid_states(resolution: int) -> np.ndarray:
    """Qubit grid: ``resolution`` polar values in [0, pi] (inclusive) times
    ``resolution`` azimuthal values in [0, 2 pi) as state vectors, shape
    (resolution**2, 2), for resolutions 2 to ``MAX_GRID_RESOLUTION``."""
    _check_resolution(resolution)
    theta = np.linspace(0.0, np.pi, resolution)
    phi = np.arange(resolution) * (2.0 * np.pi / resolution)
    half = theta[:, None] / 2.0
    states = np.empty((resolution, resolution, 2), dtype=np.complex128)
    states[:, :, 0] = np.cos(half)
    states[:, :, 1] = np.exp(1j * phi)[None, :] * np.sin(half)
    return states.reshape(-1, 2)


MAX_GRID_RESOLUTION = 64


def _check_resolution(resolution: int) -> None:
    if not 2 <= resolution <= MAX_GRID_RESOLUTION:
        raise ValueError(f"resolution must be 2 to {MAX_GRID_RESOLUTION}, got {resolution!r}")


# (I, X, Y, Z): a qubit state's density matrix is s . sigma / 2 for its Bloch row s = (1, x, y, z)
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


# grid-scan block rows: a multiple of 12, so OpenBLAS row tiles split a block as they split the
# whole product (64 rows do not), and one BLAS thread runs a block of 4,096 columns
GRID_BLOCK_ROWS = 24


def _payoff_blocks(game: QuantumGame, i: int, grid: np.ndarray):
    """Player ``i``'s scalar payoff table over the joint grid of a 2-qubit game, one bilinear
    product in the slots, as (row slice, block) pairs of ``GRID_BLOCK_ROWS`` rows (the last
    may have one more), each with the bits of the whole product's rows at one BLAS thread.

    Overlap entries are payoff magnitudes (the phase-free summary improvement is judged on):
    ``|grid @ T @ grid.T|`` for T the 2x2 conjugate pull-back. Observable entries are the
    real payoff Tr(M rho_a (x) rho_b) for M = U^H diag(eigenvalues) U, read off the Bloch
    rows S of the grid: ``S @ R @ S.T`` with R[mu, nu] = Tr(M sigma_mu (x) sigma_nu) / 4.
    """
    spec, u, shift = game.payoffs[i], game.unitary.matrix, 0
    if isinstance(spec, OverlapPayoff):
        left, right = grid @ (spec.target.amplitudes.conj() @ u).reshape(2, 2), grid.T
    else:
        # every partial sum is at most 16 max|eigenvalue|: past 2^1019 it is
        # computed at an exact power-of-two scale, clipped to the eigenvalue range
        shift = max(0, int(np.frexp(np.abs(spec.eigenvalues).max())[1]) - 1019)
        scaled = np.ldexp(spec.eigenvalues, -shift)
        joint = (u.conj().T @ (scaled[:, None] * u)).reshape(2, 2, 2, 2)
        form = np.einsum("acbd,mba,ndc->mn", joint, _PAULIS, _PAULIS).real / 4.0
        rows = _bloch_rows(grid)
        left, right = rows @ form, rows.T
    # a one-row block would run as a matrix-vector product, whose bits differ
    stops = [*range(GRID_BLOCK_ROWS, len(grid) - 1, GRID_BLOCK_ROWS), len(grid)]
    for at, stop in zip([0, *stops], stops):
        block = left[at:stop] @ right
        if isinstance(spec, OverlapPayoff):
            block = np.abs(block)
        elif shift:
            block = np.ldexp(np.clip(block, scaled.min(), scaled.max()), shift)
        yield slice(at, stop), block


@dataclass(frozen=True)
class GridSearchReport:
    """Exhaustive scan of the qubit product grid for approximate equilibria."""

    resolution: int
    epsilon: float
    num_plays: int
    num_passing: int   # every passing play; at most GRID_MAX_REPORTED are listed
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
    rows = _play_rows(game, play)
    if game.dims[i] != 2:
        raise ValueError("the grid oracle handles qubit slots only")
    grid = grid_states(resolution)
    form = _slot_form(game, _slot_map(game, rows, i), i)[0]
    if isinstance(game.payoffs[i], OverlapPayoff):
        return float(np.abs(grid @ np.conj(form)).max())
    weights = np.einsum("kl,mlk->m", form, _PAULIS).real / 2.0   # <q, M q> = s(q) . weights
    return float((_bloch_rows(grid) @ weights).max())


GRID_MAX_REPORTED = 64   # equilibrium indices kept in a grid-search report


def grid_search_pure_nash(game: QuantumGame, resolution: int, epsilon: float) -> GridSearchReport:
    """Scan all product plays of two qubit grids for epsilon-equilibria.

    A play passes when neither player can raise their scalar payoff (overlap
    magnitude, or the observable value) by more than ``epsilon`` within their
    own grid. The report also carries the play minimizing the larger of the
    two gains, which doubles as a search hint when nothing passes. The first
    ``GRID_MAX_REPORTED`` passing plays in row-major order are listed, and all are counted.

    Player 1's table is the only n x n array (n = resolution**2), overwritten by their gains;
    player 2's row blocks fold into it as the worse gain and are counted as they go. At
    resolution 64 the traced peak is that 128 MiB table and a few MiB of blocks.
    """
    if game.num_players != 2 or game.dims != (2, 2):
        raise ValueError("the grid oracle handles two qubit players only")
    check_threshold("epsilon", epsilon)
    grid, n = grid_states(resolution), resolution**2
    worst = np.empty((n, n))
    for rows, block in _payoff_blocks(game, 0, grid):
        worst[rows] = block
    np.subtract(worst.max(axis=0)[None, :], worst, out=worst)   # player 1 scans rows
    passing, hits = 0, []
    for rows, block in _payoff_blocks(game, 1, grid):
        np.subtract(block.max(axis=1)[:, None], block, out=block)   # player 2 scans columns
        ok = np.maximum(worst[rows], block, out=worst[rows]) <= epsilon
        passing += int(np.count_nonzero(ok))
        if len(hits) < GRID_MAX_REPORTED:   # the first passing plays in row-major order
            hits.extend(rows.start * n + np.flatnonzero(ok)[:GRID_MAX_REPORTED - len(hits)])
    best_index = divmod(int(np.argmin(worst)), n)
    return GridSearchReport(
        resolution=resolution, epsilon=float(epsilon), num_plays=worst.size,
        num_passing=passing, equilibrium_indices=tuple(divmod(int(f), n) for f in hits),
        best_index=best_index, min_max_gain=float(worst[best_index]))


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
        return float(_payoff_of(game.payoffs[0], prepared_vector(game, [slot, other])))

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
