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
from .linalg import as_rng

__all__ = [
    "FiniteGame",
    "MixedProfile",
    "EquilibriumCertificate",
    "ConvexityReport",
    "expected_payoff",
    "pure_deviation_payoffs",
    "counters",
    "best_response_mixed",
    "deviation_gains",
    "is_epsilon_nash",
    "support_enumeration_nash",
    "random_profile",
    "mix_profiles",
    "verify_countering_convexity",
]


class FiniteGame:
    """Normal-form game given by one payoff tensor per player.

    Tensor ``i`` has shape ``strategy_counts`` and holds player ``i``'s payoff
    at each pure-strategy combination.
    """

    __slots__ = ("_tensors",)

    def __init__(self, payoff_tensors: Sequence):
        tensors = tuple(np.array(t, dtype=np.float64) for t in payoff_tensors)
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
        self._tensors = tensors

    @property
    def payoff_tensors(self) -> tuple[np.ndarray, ...]:
        return self._tensors

    @property
    def num_players(self) -> int:
        return len(self._tensors)

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return self._tensors[0].shape

    def __repr__(self) -> str:
        return f"FiniteGame(strategy_counts={self.strategy_counts})"


class MixedProfile:
    """One probability distribution over pure strategies per player."""

    __slots__ = ("_distributions",)

    def __init__(self, distributions: Sequence):
        dists = []
        for i, d in enumerate(distributions):
            arr = np.array(d, dtype=np.float64)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"distribution {i} is not a nonempty vector")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"distribution {i} has non-finite entries")
            if arr.min() < -DEFAULT_TOLS.simplex_negative:
                raise ValueError(f"distribution {i} has a negative entry: {arr.min()!r}")
            total = arr.sum()
            if abs(total - 1.0) > DEFAULT_TOLS.simplex_sum:
                raise ValueError(f"distribution {i} sums to {total!r}, not 1")
            arr = np.clip(arr, 0.0, None)
            arr.setflags(write=False)
            dists.append(arr)
        if len(dists) < 2:
            raise ValueError("a profile needs at least two players")
        self._distributions = tuple(dists)

    @property
    def distributions(self) -> tuple[np.ndarray, ...]:
        return self._distributions

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(d.size for d in self._distributions)

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


def expected_payoff(game: FiniteGame, profile: MixedProfile, i: int) -> float:
    """Expected payoff of player ``i``: the tensor contracted with every distribution."""
    _check_compatible(game, profile)
    t = game.payoff_tensors[i]
    for d in reversed(profile.distributions):
        t = t @ d
    return float(t)


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


def counters(game: FiniteGame, p_prime: MixedProfile, p: MixedProfile) -> bool:
    """Whether every player weakly gains by swapping in their ``p_prime`` part.

    Player ``i``'s component of ``p_prime`` is evaluated against the other
    players' components of ``p`` (a unilateral swap). That evaluation is
    linear in the swapped-in distribution, so the set of profiles countering
    a fixed ``p`` is a product of half-spaces and hence convex; evaluating
    ``p_prime`` jointly instead would break convexity. Comparisons carry the
    countering slack so exact ties survive rounding.
    """
    slack = DEFAULT_TOLS.countering_slack
    return all(
        pure_deviation_payoffs(game, p, i) @ p_prime.distributions[i]
        >= expected_payoff(game, p, i) - slack
        for i in range(game.num_players)
    )


def best_response_mixed(game: FiniteGame, profile: MixedProfile, i: int) -> np.ndarray:
    """One-hot best reply for player ``i`` (lowest index wins ties)."""
    payoffs = pure_deviation_payoffs(game, profile, i)
    best = np.zeros_like(payoffs)
    best[int(np.argmax(payoffs))] = 1.0
    return best


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


def _indifference_weights(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column weights equalizing the rows of each payoff block, solved as one stack.

    Returns the weights and a mask of the systems that are nonsingular and stay
    in the simplex; a stack holding a singular system is solved one at a time.
    """
    n, m = blocks.shape[:2]
    systems = np.zeros((n, m + 1, m + 1))
    systems[:, :m, :m] = blocks
    systems[:, :m, m] = -1.0      # common payoff value v
    systems[:, m, :m] = 1.0       # weights sum to one
    rhs = np.eye(m + 1)[:, m:]
    solved = np.ones(n, dtype=bool)
    try:
        sols = np.linalg.solve(systems, np.broadcast_to(rhs, (n, m + 1, 1)))
    except np.linalg.LinAlgError:
        sols = np.zeros((n, m + 1, 1))
        for k, system in enumerate(systems):
            try:
                sols[k] = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                solved[k] = False
    return sols[:, :m, 0], solved & ~(sols[:, :m, 0].min(axis=1) < -DEFAULT_TOLS.support_weight)


def _embed(weights: np.ndarray, support: np.ndarray, size: int) -> np.ndarray:
    full = np.zeros(size)
    full[support] = np.clip(weights, 0.0, None)
    total = full.sum()
    if total <= 0:
        return full
    return full / total


def support_enumeration_nash(game: FiniteGame) -> list[EquilibriumCertificate]:
    """All equal-support-size Nash equilibria of a two-player game.

    Walks support pairs in increasing size. For each size, the indifference
    systems of all ``(rows, cols)`` pairs are stacked and solved at once per
    player; pairs whose solutions stay in the simplex are then visited in
    ``(rows, cols)`` order and kept if they survive the best-response filter,
    which reads the gains off the raw weight arrays; a ``MixedProfile`` is built
    only for a kept equilibrium. Every returned certificate is checked to
    solver precision. Intended for games with at most eight strategies per player.
    """
    if game.num_players != 2:
        raise ValueError("support enumeration is implemented for two players")
    k1, k2 = game.strategy_counts
    if max(k1, k2) > 8:
        raise ValueError("support enumeration is limited to 8 strategies per player")
    a, b = game.payoff_tensors
    eps = DEFAULT_TOLS.solver_epsilon
    found: list[EquilibriumCertificate] = []
    seen: list[tuple[np.ndarray, np.ndarray]] = []
    for size in range(1, min(k1, k2) + 1):
        rows = np.array(list(itertools.combinations(range(k1), size)))
        cols = np.array(list(itertools.combinations(range(k2), size)))
        # pair k is (rows[k // len(cols)], cols[k % len(cols)])
        ys, y_ok = _indifference_weights(
            a[rows[:, None, :, None], cols[None, :, None, :]].reshape(-1, size, size)
        )
        xs, x_ok = _indifference_weights(
            b.T[cols[None, :, :, None], rows[:, None, None, :]].reshape(-1, size, size)
        )
        for k in np.flatnonzero(x_ok & y_ok):
            r, c = divmod(int(k), len(cols))
            dx, dy = _embed(xs[k], rows[r], k1), _embed(ys[k], cols[c], k2)
            gains = _deviation_gains((a, b), (dx, dy))
            if gains.max() > eps:
                continue
            if any(
                max(np.abs(dx - px).max(), np.abs(dy - py).max()) <= DEFAULT_TOLS.equilibrium_match
                for px, py in seen
            ):
                continue
            seen.append((dx, dy))
            epsilon = float(max(gains.max(), 0.0))
            found.append(EquilibriumCertificate(MixedProfile([dx, dy]), epsilon, tuple(gains)))
    return found


def random_profile(game: FiniteGame, rng: np.random.Generator) -> MixedProfile:
    """Profile with each distribution drawn uniformly from its simplex."""
    return MixedProfile(
        [rng.dirichlet(np.ones(k)) for k in game.strategy_counts]
    )


def mix_profiles(p: MixedProfile, q: MixedProfile, weight: float) -> MixedProfile:
    """Convex combination weight*p + (1-weight)*q, taken per player."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if p.strategy_counts != q.strategy_counts:
        raise ValueError("profiles have mismatched strategy counts")
    return MixedProfile(
        [weight * dp + (1.0 - weight) * dq
         for dp, dq in zip(p.distributions, q.distributions)]
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

    @property
    def ok(self) -> bool:
        return self.failures == 0 and not self.shortfall


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
    player, popped from the end) and are mixed in bulk with plain arithmetic.
    """
    _check_compatible(game, base)
    rng = as_rng(seed)
    # The swap payoff is a fixed linear form per player, so precompute it
    # once and test candidates with dot products; candidates are drawn in
    # batches to keep the rejection loop out of Python.
    slack = DEFAULT_TOLS.countering_slack
    forms = [pure_deviation_payoffs(game, base, i) for i in range(game.num_players)]
    floors = [expected_payoff(game, base, i) - slack for i in range(game.num_players)]
    alphas = [np.ones(k) for k in game.strategy_counts]
    queue = [np.empty((0, k)) for k in game.strategy_counts]
    performed = passes = failures = rejected = 0
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
            accepted = [block[keep] for block in blocks]
            if any(r.min(initial=0) < -DEFAULT_TOLS.simplex_negative
                   or abs(r.sum(axis=1) - 1).max(initial=0) > DEFAULT_TOLS.simplex_sum
                   for r in accepted):
                raise ValueError("a Dirichlet draw left the probability simplex")
            queue = [np.concatenate([q, r]) for q, r in zip(queue, accepted)]
        if len(queue[0]) < 2:
            return ConvexityReport(num_samples, performed, passes, failures, rejected, shortfall=True)
        # mix every pair held before the next refill: one uniform each, in pop order
        pairs = min(len(queue[0]) // 2, num_samples - performed)
        weights = rng.uniform(size=pairs)[:, None]
        tops = [q[::-1][:2 * pairs] for q in queue]
        queue = [q[:len(q) - 2 * pairs] for q in queue]
        ok = np.all([(weights * t[0::2] + (1.0 - weights) * t[1::2]) @ form >= floor
                     for t, form, floor in zip(tops, forms, floors)], axis=0)
        performed += pairs
        passes += int(ok.sum())
        failures += pairs - int(ok.sum())
    return ConvexityReport(num_samples, performed, passes, failures, rejected, shortfall=False)
