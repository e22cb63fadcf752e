"""Finite games, mixed extensions, countering sets, support enumeration."""
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from qugame import classical
from qugame.classical import (
    ConvexityReport,
    FiniteGame,
    MixedProfile,
    counters,
    deviation_gains,
    is_epsilon_nash,
    pure_deviation_payoffs,
    random_profile,
    support_enumeration_nash,
    verify_countering_convexity,
)
from qugame.config import DEFAULT_TOLS

MATCHING_PENNIES = FiniteGame(
    (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]]))
)
PRISONERS = FiniteGame(
    (np.array([[-1.0, -3.0], [0.0, -2.0]]), np.array([[-1.0, 0.0], [-3.0, -2.0]]))
)


def pure(game, *choices):
    dists = []
    for count, pick in zip(game.strategy_counts, choices):
        d = np.zeros(count)
        d[pick] = 1.0
        dists.append(d)
    return MixedProfile(dists)


def uniform(game):
    return MixedProfile([np.full(k, 1.0 / k) for k in game.strategy_counts])


def mix_profiles(p, q, weight):
    """Convex combination weight*p + (1-weight)*q, taken per player."""
    return MixedProfile([weight * dp + (1.0 - weight) * dq
                         for dp, dq in zip(p.distributions, q.distributions)])


def expected_payoff(game, profile, i):
    """Player ``i``'s expected payoff: own pure deviation payoffs weighted by own distribution."""
    return float(pure_deviation_payoffs(game, profile, i) @ profile.distributions[i])


def convexity_ok(report):
    """A convexity run found no failing mixture and did not run out of draws."""
    return report.failures == 0 and not report.shortfall


def best_response_mixed(game, profile, i):
    """One-hot best reply for player ``i`` (lowest index wins ties)."""
    best = np.zeros(game.strategy_counts[i])
    best[int(np.argmax(pure_deviation_payoffs(game, profile, i)))] = 1.0
    return best


# --------------------------------------------------------------- payoffs ---

def test_expected_payoff_pure_profile_reads_tensor():
    assert expected_payoff(MATCHING_PENNIES, pure(MATCHING_PENNIES, 0, 1), 0) == -1.0
    assert expected_payoff(MATCHING_PENNIES, pure(MATCHING_PENNIES, 0, 1), 1) == 1.0


def test_expected_payoff_matches_einsum_three_players():
    rng = np.random.default_rng(14)
    tensors = [rng.uniform(-1, 1, size=(2, 3, 2)) for _ in range(3)]
    game = FiniteGame(tensors)
    prof = random_profile(game, rng)
    a, b, c = prof.distributions
    for i in range(3):
        ref = np.einsum("xyz,x,y,z->", tensors[i], a, b, c)
        assert expected_payoff(game, prof, i) == pytest.approx(ref, abs=1e-12)


def test_pure_deviation_payoffs_row_oracle():
    rng = np.random.default_rng(15)
    game = FiniteGame([rng.uniform(-1, 1, size=(3, 2)) for _ in range(2)])
    prof = random_profile(game, rng)
    for i in range(2):
        rows = pure_deviation_payoffs(game, prof, i)
        for k in range(game.strategy_counts[i]):
            swapped = [d.copy() for d in prof.distributions]
            swapped[i] = np.zeros(game.strategy_counts[i])
            swapped[i][k] = 1.0
            ref = expected_payoff(game, MixedProfile(swapped), i)
            assert rows[k] == pytest.approx(ref, abs=1e-12)


def test_mixed_payoff_is_linear_in_each_slot():
    rng = np.random.default_rng(16)
    game = FiniteGame([rng.uniform(-1, 1, size=(4, 4)) for _ in range(2)])
    base = random_profile(game, rng)
    other = random_profile(game, rng)
    w = float(rng.uniform())
    mixed_dist = w * base.distributions[0] + (1 - w) * other.distributions[0]
    prof = MixedProfile((mixed_dist, base.distributions[1]))
    lhs = expected_payoff(game, prof, 0)
    rhs = w * expected_payoff(game, base, 0) + (1 - w) * expected_payoff(
        game, MixedProfile((other.distributions[0], base.distributions[1])), 0
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ------------------------------------------------------------- profiles ---

def test_mixed_profile_validation():
    with pytest.raises(ValueError, match="negative"):
        MixedProfile((np.array([1.2, -0.2]), np.array([0.5, 0.5])))
    with pytest.raises(ValueError, match="sums to"):
        MixedProfile((np.array([0.7, 0.7]), np.array([0.5, 0.5])))
    with pytest.raises(ValueError, match="two players"):
        MixedProfile((np.array([1.0]),))


def test_finite_game_validation():
    with pytest.raises(ValueError, match="shape"):
        FiniteGame([np.zeros((2, 2)), np.zeros((2, 3))])
    with pytest.raises(ValueError, match="two players"):
        FiniteGame([np.zeros((2, 2))])


def test_random_profile_is_valid_and_seeded():
    game = FiniteGame([np.zeros((3, 4)), np.zeros((3, 4))])
    p = random_profile(game, np.random.default_rng(3))
    q = random_profile(game, np.random.default_rng(3))
    for d, e in zip(p.distributions, q.distributions):
        assert_allclose(d, e, atol=0)
        assert d.min() >= 0
        assert d.sum() == pytest.approx(1.0, abs=1e-12)


def test_mix_profiles_is_componentwise_convex():
    game = MATCHING_PENNIES
    p = pure(game, 0, 0)
    q = pure(game, 1, 1)
    m = mix_profiles(p, q, 0.25)
    assert_allclose(m.distributions[0], [0.25, 0.75], atol=1e-15)
    assert_allclose(m.distributions[1], [0.25, 0.75], atol=1e-15)


# ------------------------------------------------------------ countering ---

def test_counters_scores_unilateral_swaps():
    # each player's candidate component is evaluated against the base profile
    # elsewhere, so improving one player while leaving the other in place counts
    hh = pure(MATCHING_PENNIES, 0, 0)
    ht = pure(MATCHING_PENNIES, 0, 1)
    th = pure(MATCHING_PENNIES, 1, 0)
    assert counters(MATCHING_PENNIES, ht, hh)      # player 2's swap gains, player 1 unchanged
    assert not counters(MATCHING_PENNIES, th, hh)  # player 1's swap strictly loses


def test_counters_is_reflexive():
    rng = np.random.default_rng(17)
    game = FiniteGame([rng.uniform(-1, 1, size=(3, 3)) for _ in range(2)])
    for _ in range(20):
        p = random_profile(game, rng)
        assert counters(game, p, p)
        # the expected payoff is the swap form at the player's own part, bit for bit,
        # so reflexivity does not lean on the countering slack
        for i in range(game.num_players):
            assert pure_deviation_payoffs(game, p, i) @ p.distributions[i] == expected_payoff(game, p, i)


def test_counters_accepts_exact_ties_under_rounding():
    eq = uniform(MATCHING_PENNIES)
    # every swap against the mixed equilibrium is value zero, a tie
    assert counters(MATCHING_PENNIES, pure(MATCHING_PENNIES, 0, 1), eq)


def test_countering_mixtures_stay_countering():
    # the countering set of a fixed base is a product of half-space cuts of
    # the simplices, hence convex; spot-check with explicit mixtures
    rng = np.random.default_rng(18)
    game = FiniteGame([rng.uniform(-1, 1, size=(3, 2)) for _ in range(2)])
    base = random_profile(game, rng)
    found = []
    while len(found) < 2:
        cand = random_profile(game, rng)
        if counters(game, cand, base):
            found.append(cand)
    for w in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert counters(game, mix_profiles(found[0], found[1], w), base)


def test_verify_countering_convexity_full_run():
    report = verify_countering_convexity(MATCHING_PENNIES, uniform(MATCHING_PENNIES), 100, 7)
    assert isinstance(report, ConvexityReport)
    assert report.requested == 100
    assert report.performed == 100
    assert report.failures == 0
    assert report.passes == 100
    assert not report.shortfall
    assert convexity_ok(report)


def test_verify_countering_convexity_three_players():
    rng = np.random.default_rng(19)
    game = FiniteGame([rng.uniform(-1, 1, size=(2, 2, 3)) for _ in range(3)])
    report = verify_countering_convexity(game, random_profile(game, rng), 200, rng)
    assert report.failures == 0
    assert report.performed == report.passes


def test_verify_countering_convexity_refuses_a_negative_sample_count_before_drawing():
    # -5 used to report requested=-5, performed=0 and ok; zero stays a valid empty run
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^num_samples must be >= 0, got -5$"):
        verify_countering_convexity(MATCHING_PENNIES, uniform(MATCHING_PENNIES), -5, rng)
    assert rng.bit_generator.state == state
    report = verify_countering_convexity(MATCHING_PENNIES, uniform(MATCHING_PENNIES), 0, rng)
    assert (report.requested, report.performed, convexity_ok(report)) == (0, 0, True)


def test_verify_countering_convexity_reports_shortfall():
    # player 1's payoff depends only on their own row and strictly prefers row
    # 0, so with the base on row 0 the countering set is a face of measure zero
    # and the sampler must come up short rather than fake it
    game = FiniteGame(
        (np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 0.0]]))
    )
    base = pure(game, 0, 0)
    report = verify_countering_convexity(game, base, 10, 0, max_draws_per_sample=200)
    assert report.shortfall
    assert report.performed < report.requested
    assert report.failures == 0
    assert not convexity_ok(report)


def oracle_convexity(game, base, num_samples, rng, max_draws_per_sample=2000):
    """Reference sampler: one validated profile per candidate and per mixture."""
    forms = [pure_deviation_payoffs(game, base, i) for i in range(game.num_players)]
    floors = [expected_payoff(game, base, i) - DEFAULT_TOLS.countering_slack
              for i in range(game.num_players)]
    queue = []
    performed = passes = failures = rejected = 0
    for _ in range(num_samples):
        draws = 0
        while len(queue) < 2 and draws < max_draws_per_sample:
            batch = min(256, max_draws_per_sample - draws)
            draws += batch
            blocks = [rng.dirichlet(np.ones(k), size=batch) for k in game.strategy_counts]
            keep = np.ones(batch, dtype=bool)
            for block, form, floor in zip(blocks, forms, floors):
                keep &= block @ form >= floor
            rejected += batch - int(keep.sum())
            for idx in np.flatnonzero(keep):
                queue.append(MixedProfile([block[idx] for block in blocks]))
        if len(queue) < 2:
            return ConvexityReport(num_samples, performed, passes, failures, rejected, True)
        mixed = mix_profiles(queue.pop(), queue.pop(), float(rng.uniform()))
        performed += 1
        if all(f @ d >= fl for f, d, fl in zip(forms, mixed.distributions, floors)):
            passes += 1
        else:
            failures += 1
    return ConvexityReport(num_samples, performed, passes, failures, rejected, False)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=150),
    st.sampled_from([1, 3, 10, 300, 2000]),
)
# past SETTLE_PAIRS mixtures the held rows are settled once mid-run and once at the end
@example(counts=[3, 2, 2], seed=11, num_samples=2 * classical.SETTLE_PAIRS + 7, max_draws=2000)
def test_convexity_sampler_matches_profile_oracle(counts, seed, num_samples, max_draws):
    setup = np.random.default_rng(seed)
    game = FiniteGame([setup.uniform(-1, 1, size=counts) for _ in counts])
    base = random_profile(game, setup)
    rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    report = verify_countering_convexity(
        game, base, num_samples, rng, max_draws_per_sample=max_draws
    )
    assert report == oracle_convexity(game, base, num_samples, oracle_rng, max_draws)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_convexity_sampler_matches_oracle_through_a_shortfall():
    # a small draw budget runs out part-way through the run
    rng = np.random.default_rng(30)
    game = FiniteGame([rng.uniform(-1, 1, size=(3, 3, 2)) for _ in range(3)])
    base = random_profile(game, rng)
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    report = verify_countering_convexity(game, base, 500, rng, max_draws_per_sample=4)
    assert report == oracle_convexity(game, base, 500, oracle_rng, 4)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert report.shortfall and 0 < report.performed < 500


class OffSimplexGenerator(np.random.Generator):
    """A generator whose Dirichlet rows sum to 1.4, off the probability simplex."""

    def dirichlet(self, alpha, size=None):
        return np.full((size, len(alpha)), 0.7)


@pytest.mark.parametrize("max_draws", [2000, 1], ids=["full", "shortfall"])
def test_convexity_sampler_refuses_a_draw_off_the_simplex(max_draws):
    # against uniform matching pennies every swap form is zero, so every row is
    # accepted; one draw per refill leaves a single row queued and runs short
    rng = OffSimplexGenerator(np.random.PCG64(0))
    with pytest.raises(ValueError, match="^a Dirichlet draw left the probability simplex$"):
        verify_countering_convexity(MATCHING_PENNIES, uniform(MATCHING_PENNIES), 10, rng,
                                    max_draws_per_sample=max_draws)


def oracle_support_candidate(payoffs, rows, cols):
    m = len(rows)
    a = np.zeros((m + 1, m + 1))
    a[:m, :m] = payoffs[list(rows)][:, list(cols)]
    a[:m, m] = -1.0
    a[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        weights = np.linalg.solve(a, rhs)[:m]
    except np.linalg.LinAlgError:
        return None
    return None if weights.min() < -1e-9 else np.clip(weights, 0.0, None)


def oracle_enumeration(game):
    """Reference enumeration: two separate solves per support pair."""
    k1, k2 = game.strategy_counts
    a, b = game.payoff_tensors
    found, seen = [], []

    def embed(weights, support, size):
        full = np.zeros(size)
        full[list(support)] = weights
        return full / full.sum() if full.sum() > 0 else full

    for size in range(1, min(k1, k2) + 1):
        for rows in itertools.combinations(range(k1), size):
            for cols in itertools.combinations(range(k2), size):
                y = oracle_support_candidate(a, rows, cols)
                if y is None:
                    continue
                x = oracle_support_candidate(b.T, cols, rows)
                if x is None:
                    continue
                profile = MixedProfile([embed(x, rows, k1), embed(y, cols, k2)])
                gains = deviation_gains(game, profile)
                if gains.max() > DEFAULT_TOLS.solver_epsilon:
                    continue
                xs, ys = profile.distributions
                if any(np.abs(xs - px).max() <= 1e-8 and np.abs(ys - py).max() <= 1e-8
                       for px, py in seen):
                    continue
                seen.append((xs, ys))
                found.append((xs, ys, float(max(gains.max(), 0.0)), tuple(gains)))
    return found


def assert_certificates_equal(certs, expected):
    assert len(certs) == len(expected)
    for cert, (xs, ys, epsilon, gains) in zip(certs, expected):
        assert np.array_equal(cert.profile.distributions[0], xs)
        assert np.array_equal(cert.profile.distributions[1], ys)
        assert cert.epsilon == epsilon
        assert cert.per_player_gain == gains


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_support_enumeration_matches_per_pair_oracle(k1, k2, seed, integral):
    rng = np.random.default_rng(seed)
    if integral:   # small integer payoffs: ties and singular subsystems
        game = FiniteGame([rng.integers(-2, 3, size=(k1, k2)).astype(float) for _ in range(2)])
    else:
        game = FiniteGame([rng.normal(size=(k1, k2)) for _ in range(2)])
    assert_certificates_equal(support_enumeration_nash(game), oracle_enumeration(game))


def test_support_enumeration_matches_oracle_at_eight_strategies():
    rng = np.random.default_rng(80)
    game = FiniteGame([rng.normal(size=(8, 8)) for _ in range(2)])
    assert_certificates_equal(support_enumeration_nash(game), oracle_enumeration(game))


@pytest.mark.parametrize(
    "tensors",
    [
        [np.ones((4, 4)), np.eye(4)],
        [np.eye(3), np.ones((3, 3))],
        [np.zeros((3, 4)), np.zeros((3, 4))],
    ],
)
def test_support_enumeration_matches_oracle_with_singular_subsystems(tensors):
    game = FiniteGame(tensors)
    certs = support_enumeration_nash(game)
    assert certs
    assert_certificates_equal(certs, oracle_enumeration(game))


def per_row_embed(weights, support, size):
    """The one-row embedding the enumeration used before it embedded stacks; kept
    here so this oracle does not call the stacked code under test."""
    full = np.zeros(size)
    full[support] = np.clip(weights, 0.0, None)
    total = full.sum()
    if total <= 0:
        return full
    return full / total


def profile_per_candidate_enumeration(game):
    """The enumeration loop as it ran before the gains moved onto raw arrays:
    the same stacked solves (the column player's for every pair), but one
    validated profile and one ``deviation_gains`` call for every candidate in
    the simplex."""
    k1, k2 = game.strategy_counts
    a, b = game.payoff_tensors
    found, seen = [], []
    for size in range(1, min(k1, k2) + 1):
        rows = np.array(list(itertools.combinations(range(k1), size)))
        cols = np.array(list(itertools.combinations(range(k2), size)))
        ys, y_ok = classical._indifference_weights(
            a[rows[:, None, :, None], cols[None, :, None, :]].reshape(-1, size, size)
        )
        xs, x_ok = classical._indifference_weights(
            b.T[cols[None, :, :, None], rows[:, None, None, :]].reshape(-1, size, size)
        )
        for k in np.flatnonzero(x_ok & y_ok):
            r, c = divmod(int(k), len(cols))
            profile = MixedProfile([per_row_embed(xs[k], rows[r], k1),
                                    per_row_embed(ys[k], cols[c], k2)])
            gains = deviation_gains(game, profile)
            if gains.max() > DEFAULT_TOLS.solver_epsilon:
                continue
            dx, dy = profile.distributions
            if any(max(np.abs(dx - px).max(), np.abs(dy - py).max())
                   <= DEFAULT_TOLS.equilibrium_match for px, py in seen):
                continue
            seen.append((dx, dy))
            found.append((dx, dy, float(max(gains.max(), 0.0)), tuple(gains)))
    return found


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_support_enumeration_matches_the_profile_per_candidate_loop(k1, k2, seed, integral):
    rng = np.random.default_rng(seed)
    if integral:
        game = FiniteGame([rng.integers(-2, 3, size=(k1, k2)).astype(float) for _ in range(2)])
    else:
        game = FiniteGame([rng.normal(size=(k1, k2)) for _ in range(2)])
    assert_certificates_equal(support_enumeration_nash(game),
                              profile_per_candidate_enumeration(game))


def enumeration_outcome(enumerate_equilibria, game, warnings_ignored=False):
    """Every certificate's bits, or the type and message of the exception raised."""
    try:
        with warnings.catch_warnings():
            if warnings_ignored:
                warnings.simplefilter("ignore", RuntimeWarning)
            found = enumerate_equilibria(game)
    except Exception as exc:   # compared, not swallowed: both sides must raise alike
        return type(exc), str(exc)
    return [(dx.tobytes(), dy.tobytes(), np.float64(epsilon).tobytes(), np.array(gains).tobytes())
            for dx, dy, epsilon, gains in found]


def certificate_items(game):
    return [(*c.profile.distributions, c.epsilon, c.per_player_gain)
            for c in support_enumeration_nash(game)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.none() | st.integers(min_value=-1000, max_value=1020),
)
@example(k1=8, k2=8, seed=0, scale=1020)   # NaN weights: the loop raises, a NaN-dropping screen not
def test_support_enumeration_screen_matches_the_per_candidate_loop(k1, k2, seed, scale):
    """The bulk screen drops only candidates the per-candidate filter drops, at
    every payoff scale, so certificates keep their bits and errors their text
    (a RuntimeWarning fails the test, as under ``python -W error``)."""
    rng = np.random.default_rng(seed)
    if scale is None:   # small integer payoffs: ties and singular subsystems
        tensors = [rng.integers(-2, 3, size=(k1, k2)).astype(float) for _ in range(2)]
    else:   # normal payoffs times 2**scale, up to where the solves overflow
        tensors = [np.ldexp(rng.standard_normal((k1, k2)), scale) for _ in range(2)]
    game = FiniteGame(tensors)
    # the loop warns on an inf or NaN row it reaches; the screen raises no warning
    assert (enumeration_outcome(certificate_items, game)
            == enumeration_outcome(profile_per_candidate_enumeration, game, warnings_ignored=True))


@pytest.mark.parametrize("seed", range(4))
def test_support_enumeration_runs_up_to_the_float_maximum(seed):
    # a power-of-two scale of both tensors moves no equilibrium: solves past 2^512 and
    # screens past 2^1022 run at an exact smaller scale, so near the float maximum the
    # profiles have the bits found at 2^100 and the gains are scaled by the same power
    rng = np.random.default_rng(seed)
    unit = [rng.integers(-2, 3, size=(5, 5)).astype(float) for _ in range(2)]
    base = support_enumeration_nash(FiniteGame([np.ldexp(t, 100) for t in unit]))
    assert base
    for scale in (600, 1021, 1022):   # payoffs up to 2^1023
        found = support_enumeration_nash(FiniteGame([np.ldexp(t, scale) for t in unit]))
        assert len(found) == len(base)
        for cert, ref in zip(found, base):
            for dist, expected in zip(cert.profile.distributions, ref.profile.distributions):
                assert dist.tobytes() == expected.tobytes()
            assert cert.per_player_gain == tuple(np.ldexp(ref.per_player_gain, scale - 100))


@pytest.mark.parametrize("sizes", [(6, 6), (8, 8), (4, 7)])
def test_support_enumeration_builds_a_profile_per_equilibrium_only(monkeypatch, sizes):
    rng = np.random.default_rng(sum(sizes))
    game = FiniteGame([rng.standard_normal(sizes) for _ in range(2)])
    built = []
    init = MixedProfile.__init__

    def counting_init(self, distributions):
        built.append(1)
        init(self, distributions)

    calls = []
    gains = classical._deviation_gains

    def counting_gains(tensors, dists):
        calls.append(1)
        return gains(tensors, dists)

    monkeypatch.setattr(MixedProfile, "__init__", counting_init)
    monkeypatch.setattr(classical, "_deviation_gains", counting_gains)
    certs = support_enumeration_nash(game)
    assert certs
    assert len(built) == len(certs)
    assert len(calls) == len(certs)   # per-candidate gains only past the bulk screen


# ----------------------------------------------------------- equilibria ---

def test_matching_pennies_unique_mixed_equilibrium():
    certs = support_enumeration_nash(MATCHING_PENNIES)
    assert len(certs) == 1
    assert_allclose(certs[0].profile.distributions[0], [0.5, 0.5], atol=1e-10)
    assert_allclose(certs[0].profile.distributions[1], [0.5, 0.5], atol=1e-10)
    assert is_epsilon_nash(MATCHING_PENNIES, certs[0].profile, 1e-8) is not None


def test_prisoners_dilemma_defects():
    certs = support_enumeration_nash(PRISONERS)
    assert len(certs) == 1
    assert_allclose(certs[0].profile.distributions[0], [0.0, 1.0], atol=1e-10)
    assert_allclose(certs[0].profile.distributions[1], [0.0, 1.0], atol=1e-10)
    assert is_epsilon_nash(PRISONERS, certs[0].profile, 1e-8) is not None


def test_coordination_game_finds_all_three_equilibria():
    game = FiniteGame((np.array([[3.0, 0.0], [0.0, 2.0]]), np.array([[2.0, 0.0], [0.0, 3.0]])))
    certs = support_enumeration_nash(game)
    profiles = sorted(
        (tuple(np.round(c.profile.distributions[0], 10)), tuple(np.round(c.profile.distributions[1], 10)))
        for c in certs
    )
    assert len(certs) == 3
    assert ((0.0, 1.0), (0.0, 1.0)) in profiles
    assert ((1.0, 0.0), (1.0, 0.0)) in profiles
    mixed = [p for p in profiles if 0 < p[0][0] < 1]
    assert len(mixed) == 1
    assert_allclose(mixed[0][0], [0.6, 0.4], atol=1e-10)
    assert_allclose(mixed[0][1], [0.4, 0.6], atol=1e-10)


def test_trivial_single_strategy_game():
    game = FiniteGame((np.array([[3.0]]), np.array([[2.0]])))
    certs = support_enumeration_nash(game)
    assert len(certs) == 1
    assert certs[0].epsilon <= 1e-12


def test_support_enumeration_is_two_player_only():
    rng = np.random.default_rng(20)
    game = FiniteGame([rng.uniform(size=(2, 2, 2)) for _ in range(3)])
    with pytest.raises(ValueError, match="two players"):
        support_enumeration_nash(game)


def test_deviation_gains_vanish_at_equilibrium():
    gains = deviation_gains(MATCHING_PENNIES, uniform(MATCHING_PENNIES))
    assert_allclose(gains, [0.0, 0.0], atol=1e-12)
    gains_hh = deviation_gains(MATCHING_PENNIES, pure(MATCHING_PENNIES, 0, 0))
    assert gains_hh[1] == pytest.approx(2.0, abs=1e-12)


def test_best_response_mixed_puts_mass_on_argmax():
    prof = pure(MATCHING_PENNIES, 0, 0)
    br2 = best_response_mixed(MATCHING_PENNIES, prof, 1)
    assert_allclose(br2, [0.0, 1.0], atol=1e-12)


def test_is_epsilon_nash_rejects_pure_pennies():
    assert is_epsilon_nash(MATCHING_PENNIES, pure(MATCHING_PENNIES, 0, 0), 1e-6) is None


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
def test_is_epsilon_nash_refuses_a_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="^epsilon must be a finite real >= 0"):
        is_epsilon_nash(MATCHING_PENNIES, uniform(MATCHING_PENNIES), epsilon)


def test_certificate_carries_gains():
    cert = is_epsilon_nash(MATCHING_PENNIES, uniform(MATCHING_PENNIES), 1e-8)
    assert cert is not None
    assert cert.epsilon <= 1e-8
    assert max(cert.per_player_gain) <= 1e-8


# ------------------------------------------------------------- refusals ---

# (call, exact ValueError message): refusals no other test reaches
CLASSICAL_REFUSALS = {
    "tensor axes": (lambda: FiniteGame([np.zeros((2, 2))] * 3),
                    "3 players but payoff tensors have 2 axes"),
    "non-finite tensor": (lambda: FiniteGame([np.zeros((1, 1)), [[np.inf]]]),
                          "payoff tensor 1 has non-finite entries"),
    "no strategy": (lambda: FiniteGame([np.zeros((2, 0))] * 2),
                    "every player needs at least one strategy"),
    "empty distribution": (lambda: MixedProfile([[], [1.0]]),
                           "distribution 0 is not a nonempty vector"),
    "non-finite distribution": (lambda: MixedProfile([[1.0], [np.nan, 1.0]]),
                                "distribution 1 has non-finite entries"),
    "certificate below its gains": (
        lambda: classical.EquilibriumCertificate(uniform(MATCHING_PENNIES), 0.1, (0.0, 0.2)),
        "certificate epsilon is below the recorded gains"),
    "profile of other counts": (
        lambda: deviation_gains(MATCHING_PENNIES, MixedProfile([[1.0], [0.5, 0.5]])),
        "profile strategy counts (1, 2) do not match game (2, 2)"),
    "nine strategies": (lambda: support_enumeration_nash(FiniteGame([np.zeros((9, 2))] * 2)),
                        "support enumeration is limited to 8 strategies per player"),
}


@pytest.mark.parametrize("case", CLASSICAL_REFUSALS)
def test_each_classical_refusal_has_its_message(case):
    call, message = CLASSICAL_REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
