"""Finite games in normal form: payoff tensors, mixed profiles, equilibria.

Payoffs are stored as one real tensor per player, indexed by every player's
pure strategy. Mixed profiles are per-player distributions; expected payoff is
the multilinear contraction of a payoff tensor with all of them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, check_threshold
from .linalg import _frozen, as_rng

__all__ = [
    "FiniteGame",
    "MixedProfile",
    "EquilibriumCertificate",
    "ConvexityReport",
    "pure_deviation_payoffs",
    "counters",
    "deviation_gains",
    "is_epsilon_nash",
    "support_enumeration_nash",
    "random_profile",
    "verify_countering_convexity",
]


@_frozen
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class FiniteGame:
    """Normal-form game given by one payoff tensor per player.

    Tensor ``i`` has shape ``strategy_counts`` and holds player ``i``'s payoff
    at each pure-strategy combination.
    """

    payoff_tensors: tuple[np.ndarray, ...]

    def __post_init__(self):
        tensors = tuple(np.array(t, dtype=np.float64) for t in self.payoff_tensors)
        if len(tensors) < 2:
            raise ValueError("a game needs at least two players")
        shape = tensors[0].shape
        if len(shape) != len(tensors):
            raise ValueError(
                f"{len(tensors)} players but payoff tensors have {len(shape)} axes"
            )
        for i, t in enumerate(tensors):
            if t.shape != shape:
                raise ValueError(f"payoff tensor {i} has shape {t.shape}, expected {shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"payoff tensor {i} has non-finite entries")
            t.setflags(write=False)
        if any(k < 1 for k in shape):
            raise ValueError("every player needs at least one strategy")
        object.__setattr__(self, "payoff_tensors", tensors)

    @property
    def num_players(self) -> int:
        return len(self.payoff_tensors)

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return self.payoff_tensors[0].shape

    def __repr__(self) -> str:
        return f"FiniteGame(strategy_counts={self.strategy_counts})"


@_frozen
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class MixedProfile:
    """One probability distribution over pure strategies per player."""

    distributions: tuple[np.ndarray, ...]

    def __post_init__(self):
        dists = []
        for i, d in enumerate(self.distributions):
            arr = np.array(d, dtype=np.float64)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"distribution {i} is not a nonempty vector")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"distribution {i} has non-finite entries")
            if arr.min() < -DEFAULT_TOLS.simplex_negative:
                raise ValueError(f"distribution {i} has a negative entry: {float(arr.min())!r}")
            total = float(arr.sum())
            if abs(total - 1.0) > DEFAULT_TOLS.simplex_sum:
                raise ValueError(f"distribution {i} sums to {total!r}, not 1")
            arr = np.clip(arr, 0.0, None)
            arr.setflags(write=False)
            dists.append(arr)
        if len(dists) < 2:
            raise ValueError("a profile needs at least two players")
        object.__setattr__(self, "distributions", tuple(dists))

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(d.size for d in self.distributions)

    def __repr__(self) -> str:
        return f"MixedProfile(strategy_counts={self.strategy_counts})"


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Witness that a profile is an epsilon-equilibrium.

    ``per_player_gain[i]`` is the most player ``i`` could add to their expected
    payoff by a unilateral deviation; ``epsilon`` bounds all of them.
    """

    profile: MixedProfile
    epsilon: float
    per_player_gain: tuple[float, ...]

    def __post_init__(self):
        if self.epsilon < max(self.per_player_gain):
            raise ValueError("certificate epsilon is below the recorded gains")


def _check_compatible(game: FiniteGame, profile: MixedProfile) -> None:
    if game.strategy_counts != profile.strategy_counts:
        raise ValueError(
            f"profile strategy counts {profile.strategy_counts} do not match "
            f"game {game.strategy_counts}"
        )


def _deviation_payoffs(tensor: np.ndarray, dists: Sequence[np.ndarray], i: int) -> np.ndarray:
    """Player ``i``'s tensor contracted with every other player's distribution."""
    for j in reversed(range(len(dists))):
        if j != i:
            tensor = np.tensordot(tensor, dists[j], axes=([j], [0]))
    return np.asarray(tensor, dtype=np.float64).reshape(dists[i].size)


def pure_deviation_payoffs(game: FiniteGame, profile: MixedProfile, i: int) -> np.ndarray:
    """Player ``i``'s expected payoff for each own pure strategy, others fixed."""
    _check_compatible(game, profile)
    return _deviation_payoffs(game.payoff_tensors[i], profile.distributions, i)


def _countering_floors(game: FiniteGame, p: MixedProfile) -> tuple[list[np.ndarray], list[float]]:
    """Per player, the swap-payoff form against ``p`` and its floor: the payoff at ``p`` less slack."""
    forms = [pure_deviation_payoffs(game, p, i) for i in range(game.num_players)]
    slack = DEFAULT_TOLS.countering_slack
    return forms, [float(f @ d) - slack for f, d in zip(forms, p.distributions)]


def counters(game: FiniteGame, p_prime: MixedProfile, p: MixedProfile) -> bool:
    """Whether every player weakly gains by swapping in their ``p_prime`` part.

    Player ``i``'s component of ``p_prime`` is evaluated against the other
    players' components of ``p`` (a unilateral swap). That evaluation is
    linear in the swapped-in distribution, so the set of profiles countering
    a fixed ``p`` is a product of half-spaces and hence convex; evaluating
    ``p_prime`` jointly instead would break convexity. Comparisons carry the
    countering slack so exact ties survive rounding.
    """
    forms, floors = _countering_floors(game, p)
    return all(f @ d >= floor for f, d, floor in zip(forms, p_prime.distributions, floors))


def _deviation_gains(tensors: Sequence[np.ndarray], dists: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`deviation_gains` on raw distribution arrays, no profile built."""
    payoffs = [_deviation_payoffs(t, dists, i) for i, t in enumerate(tensors)]
    return np.array([p.max() - float(p @ d) for p, d in zip(payoffs, dists)])


def deviation_gains(game: FiniteGame, profile: MixedProfile) -> np.ndarray:
    """Per-player gap between the best pure deviation and the current payoff."""
    _check_compatible(game, profile)
    return _deviation_gains(game.payoff_tensors, profile.distributions)


def is_epsilon_nash(
    game: FiniteGame, profile: MixedProfile, epsilon: float
) -> EquilibriumCertificate | None:
    """Certificate if no player can gain more than ``epsilon``, else None."""
    check_threshold("epsilon", epsilon)
    gains = deviation_gains(game, profile)
    if gains.max() <= epsilon:
        return EquilibriumCertificate(profile, float(epsilon), tuple(gains))
    return None


def _indifference_weights(blocks: np.ndarray, scale: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Column weights equalizing the rows of each payoff block, solved as one stack.

    Returns the weights and a mask of the systems that are nonsingular and stay
    in the simplex. Singular systems (an exact zero LU pivot, which makes ``solve``
    raise and ``slogdet`` give sign 0) are swapped for the identity, and the stack re-solved.
    ``scale=False`` skips the per-block scale search below, for blocks known to need none.
    """
    n, m = blocks.shape[:2]
    systems = np.zeros((n, m + 1, m + 1))
    # the weights do not depend on a block's scale, but v follows it, grown by up to 2^8 from
    # pivoting, 2^4 from sums of m + 1 <= 9 terms and the condition number: a block past 2^512
    # (or below 2^-512, where pivots go subnormal) is solved at an exact power-of-two scale inside
    if scale:   # the per-block search costs a fifth of an 8x8 game's solves
        exponent = np.frexp(abs(blocks).max(axis=(1, 2)))[1]
        blocks = np.ldexp(blocks, (np.clip(exponent, -511, 512) - exponent)[:, None, None])
    systems[:, :m, :m] = blocks
    systems[:, :m, m] = -1.0      # common payoff value v
    systems[:, m, :m] = 1.0       # weights sum to one
    rhs = np.broadcast_to(np.eye(m + 1)[:, m:], (n, m + 1, 1))
    solved = np.ones(n, dtype=bool)
    try:
        sols = np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        solved = np.linalg.slogdet(systems)[0] != 0
        systems[~solved] = np.eye(m + 1)
        sols = np.linalg.solve(systems, rhs)
    return sols[:, :m, 0], solved & ~(sols[:, :m, 0].min(axis=1) < -DEFAULT_TOLS.support_weight)


def _embed(weights: np.ndarray, supports: np.ndarray, size: int) -> np.ndarray:
    """Weight rows clipped at 0 on their support rows, each divided by its total unless <= 0."""
    full = np.zeros((len(weights), size))
    np.put_along_axis(full, supports, np.clip(weights, 0.0, None), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):   # MixedProfile refuses an inf or NaN row
        total = full.sum(axis=1, keepdims=True)
        return np.divide(full, total, out=full, where=~(total <= 0))


def support_enumeration_nash(game: FiniteGame) -> list[EquilibriumCertificate]:
    """All equal-support-size Nash equilibria of a two-player game.

    Walks support pairs in increasing size, one bulk pass per size. The row
    player's indifference systems are solved as one stack, the column player's
    only where the row player's weights are in the simplex, and one screen reads
    every candidate's gains off two matrix products, dropping those past the
    solver epsilon by more than the two gain paths' rounding (NaN is kept). The
    rest go in ``(rows, cols)`` order through the per-candidate filter, and a
    ``MixedProfile`` is built only for a kept equilibrium. Every returned
    certificate is checked to solver precision. At most 8 strategies per player.
    """
    if game.num_players != 2:
        raise ValueError("support enumeration is implemented for two players")
    k1, k2 = game.strategy_counts
    if max(k1, k2) > 8:
        raise ValueError("support enumeration is limited to 8 strategies per player")
    # a screen or gain is a difference of two sums of at most 8 payoff-weight products (weights
    # summing to 1): past 2^1022 the game is screened at an exact 2^-shift, gains scaled back
    exponents = np.frexp(np.abs(game.payoff_tensors))[1]   # 0 for a zero payoff
    scale = exponents.min() < -511 or exponents.max() > 512   # some block may need a scale
    shift = max(0, int(exponents.max()) - 1022)
    a, b = (np.ldexp(t, -shift) for t in game.payoff_tensors)
    eps = np.ldexp(DEFAULT_TOLS.solver_epsilon, -shift)
    # a payoff on either gain path sums at most max(k1, k2) payoff-weight products
    cut = eps + 64 * max(k1, k2) * np.finfo(float).eps * max(abs(a).max(), abs(b).max())
    found: list[EquilibriumCertificate] = []
    seen: list[tuple[np.ndarray, np.ndarray]] = []
    for size in range(1, min(k1, k2) + 1):
        rows = np.array(list(itertools.combinations(range(k1), size)))
        cols = np.array(list(itertools.combinations(range(k2), size)))
        ys, y_ok = _indifference_weights(
            a[rows[:, None, :, None], cols[None, :, None, :]].reshape(-1, size, size), scale)
        r, c = np.divmod(np.flatnonzero(y_ok), len(cols))   # pairs (rows[r], cols[c])
        xs, x_ok = _indifference_weights(b.T[cols[c][:, :, None], rows[r][:, None, :]], scale)
        dxs, dys = _embed(xs[x_ok], rows[r[x_ok]], k1), _embed(ys[y_ok][x_ok], cols[c[x_ok]], k2)
        pa, pb = dys @ a.T, dxs @ b
        with np.errstate(over="ignore", invalid="ignore"):   # an inf or NaN screen is kept
            keep = ~(np.maximum(pa.max(axis=1) - (pa * dxs).sum(axis=1),
                                pb.max(axis=1) - (pb * dys).sum(axis=1)) > cut)
        for dx, dy in zip(dxs[keep], dys[keep]):
            gains = _deviation_gains((a, b), (dx, dy))
            if gains.max() > eps or any(
                    max(np.abs(dx - px).max(), np.abs(dy - py).max())
                    <= DEFAULT_TOLS.equilibrium_match for px, py in seen):
                continue
            seen.append((dx, dy))
            gains = np.ldexp(gains, shift)
            found.append(EquilibriumCertificate(
                MixedProfile([dx, dy]), float(max(gains.max(), 0.0)), tuple(gains)))
    return found


def random_profile(game: FiniteGame, rng: np.random.Generator) -> MixedProfile:
    """Profile with each distribution drawn uniformly from its simplex."""
    return MixedProfile(
        [rng.dirichlet(np.ones(k)) for k in game.strategy_counts]
    )


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of sampling convex combinations of countering profiles."""

    requested: int
    performed: int
    passes: int
    failures: int
    rejected_draws: int
    shortfall: bool


SETTLE_PAIRS = 1024   # mixtures held before one pass checks and tests their rows


def _countering_mixtures(forms, floors, held: list[tuple], left: Sequence[np.ndarray]) -> int:
    """How many ``held`` mixtures counter (a pop holds its weights, then each player's rows
    in pairs), once every held row and every row ``left`` queued passes the simplex check."""
    weights, *tops = (np.concatenate(c) for c in zip(*held))
    if any(r.min(initial=0) < -DEFAULT_TOLS.simplex_negative
           or abs(r.sum(axis=1) - 1).max(initial=0) > DEFAULT_TOLS.simplex_sum
           for r in [*tops, *left]):
        raise ValueError("a Dirichlet draw left the probability simplex")
    return int(np.all([(weights * t[0::2] + (1.0 - weights) * t[1::2]) @ form >= floor
                       for t, form, floor in zip(tops, forms, floors)], axis=0).sum())


def verify_countering_convexity(
    game: FiniteGame,
    base: MixedProfile,
    num_samples: int,
    seed: int | np.random.Generator | None,
    *,
    max_draws_per_sample: int = 2000,
) -> ConvexityReport:
    """Sample pairs of profiles countering ``base`` and test their mixtures.

    With multilinear expected payoffs the set of countering profiles is
    convex, so every sampled combination must counter ``base`` as well; any
    failure is reported rather than raised. Pairs are found by rejection
    sampling, and the report flags a shortfall when the draw budget runs out.

    Accepted candidates stay rows of their Dirichlet blocks (one array per
    player, popped from the end). Only draws, filter and queue steer the loop;
    the simplex check of every accepted row and the mixing test run in bulk per
    ``SETTLE_PAIRS`` held mixtures and at the end, before any report is returned.
    """
    if num_samples < 0:   # before any draw
        raise ValueError(f"num_samples must be >= 0, got {num_samples!r}")
    # The swap payoff is a fixed linear form per player, so precompute it
    # once and test candidates with dot products; candidates are drawn in
    # batches to keep the rejection loop out of Python.
    forms, floors = _countering_floors(game, base)
    rng = as_rng(seed)
    alphas = [np.ones(k) for k in game.strategy_counts]
    queue = [np.empty((0, k)) for k in game.strategy_counts]
    held = [(np.empty((0, 1)), *queue)]   # an empty first pop: no settle sees none
    performed = passes = rejected = settled = 0
    while performed < num_samples:
        draws = 0
        while len(queue[0]) < 2 and draws < max_draws_per_sample:
            batch = min(256, max_draws_per_sample - draws)
            draws += batch
            blocks = [rng.dirichlet(alpha, size=batch) for alpha in alphas]
            keep = np.ones(batch, dtype=bool)
            for block, form, floor in zip(blocks, forms, floors):
                keep &= block @ form >= floor
            rejected += batch - int(keep.sum())
            queue = [np.concatenate([q, block[keep]]) for q, block in zip(queue, blocks)]
        if len(queue[0]) < 2:
            break
        # mix every pair held before the next refill: one uniform each, in pop order
        pairs = min(len(queue[0]) // 2, num_samples - performed)
        held.append((rng.uniform(size=(pairs, 1)), *(q[::-1][:2 * pairs] for q in queue)))
        queue = [q[:len(q) - 2 * pairs] for q in queue]
        performed += pairs
        if performed - settled >= SETTLE_PAIRS:
            passes += _countering_mixtures(forms, floors, held, ())
            held, settled = held[:1], performed
    passes += _countering_mixtures(forms, floors, held, queue)
    return ConvexityReport(num_samples, performed, passes, performed - passes, rejected,
                           shortfall=performed < num_samples)
