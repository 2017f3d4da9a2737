import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgame import (
    InputError,
    InvalidGameError,
    GameFormatError,
    MarkovStrategy,
    StationaryStrategy,
    StochasticGame,
    load_game,
    load_game_file,
    point_mass,
    profile_stage_payoffs,
    profile_transition_matrix,
    serialize_game,
)
from stochgame.corpus import random_game


def trivial_game(payoff_value=0.0):
    return StochasticGame(
        states=("s",),
        actions1=("a",),
        actions2=("b",),
        payoff=[[[payoff_value]]],
        transition=[[[[1.0]]]],
    )


def identity_kernel_game(num_states=3, seed=0):
    rng = np.random.default_rng(seed)
    payoff = rng.uniform(-1, 1, (num_states, 2, 2))
    transition = np.zeros((num_states, 2, 2, num_states))
    for s in range(num_states):
        transition[s, :, :, s] = 1.0
    return StochasticGame(
        states=tuple(f"s{k}" for k in range(num_states)),
        actions1=("a0", "a1"),
        actions2=("b0", "b1"),
        payoff=payoff,
        transition=transition,
    )


class TestConstruction:
    def test_degenerate_single_state_game(self):
        game = trivial_game(0.0)
        assert game.max_abs_payoff == 0.0
        assert game.num_states == game.num_actions1 == game.num_actions2 == 1

    def test_empty_state_set_rejected(self):
        with pytest.raises(InvalidGameError):
            StochasticGame((), ("a",), ("b",), [], [])

    def test_bad_row_sum_rejected_with_location(self):
        transition = np.zeros((1, 1, 1, 1))
        transition[0, 0, 0, 0] = 0.9
        with pytest.raises(InvalidGameError, match=r"state=s.*i=a.*j=b"):
            StochasticGame(("s",), ("a",), ("b",), [[[1.0]]], transition)

    def test_slightly_off_row_renormalized_with_warning(self):
        transition = np.zeros((1, 1, 1, 1))
        transition[0, 0, 0, 0] = 1.0 + 5e-10
        with pytest.warns(UserWarning, match="renormalized"):
            game = StochasticGame(("s",), ("a",), ("b",), [[[1.0]]], transition)
        assert game.transition[0, 0, 0, 0] == 1.0

    def test_non_finite_payoff_rejected(self):
        with pytest.raises(InvalidGameError, match="not finite"):
            StochasticGame(("s",), ("a",), ("b",), [[[np.nan]]], [[[[1.0]]]])

    def test_payoff_bounded_by_cached_max(self):
        entry = random_game(3, 2, 2, seed=5)
        assert np.abs(entry.game.payoff).max() == entry.game.max_abs_payoff


class TestStateIndex:
    """A state is a label or an integer index; ``bool`` is an ``int``, but ``True`` is no state."""

    @pytest.mark.parametrize("state", [True, False, np.True_, np.False_])
    def test_bool_rejected(self, state):
        game = random_game(3, 2, 2, seed=5).game
        with pytest.raises(InputError, match="state must be a label or an integer index"):
            game.state_index(state)
        with pytest.raises(InputError, match="state must be a label or an integer index"):
            point_mass(game, state)

    @pytest.mark.parametrize("state", [1, np.int64(1), "s1"])
    def test_label_or_integer(self, state):
        game = random_game(3, 2, 2, seed=5).game
        assert game.state_index(state) == 1 and type(game.state_index(state)) is int


class TestFileFormat:
    def test_corpus_file_round_trips(self, big_match_entry, games_dir):
        game = load_game_file(games_dir / "big_match.json")
        assert game == big_match_entry.game
        assert game.num_states == 3
        assert game.num_actions1 == game.num_actions2 == 2

    def test_serialize_then_load_is_identity(self, big_match_entry):
        game = big_match_entry.game
        assert load_game(serialize_game(game)) == game

    def test_thirds_round_trip_bit_exact(self):
        game = StochasticGame(
            ("s",),
            ("a",),
            ("b",),
            [[[1.0 / 3.0]]],
            [[[[1.0]]]],
        )
        again = load_game(serialize_game(game))
        assert again.payoff[0, 0, 0] == game.payoff[0, 0, 0]

    def test_random_games_round_trip(self):
        for seed in range(5):
            game = random_game(2, 3, 2, seed).game
            assert load_game(serialize_game(game)) == game

    def test_parse_error_carries_location(self):
        with pytest.raises(GameFormatError, match="line"):
            load_game("{not json")

    def test_missing_field_named(self):
        with pytest.raises(GameFormatError, match="transition"):
            load_game(json.dumps({"states": ["s"], "actions1": ["a"], "actions2": ["b"], "payoff": [[[0]]]}))

    def test_bad_shape_named(self):
        doc = {
            "states": ["s", "t"],
            "actions1": ["a"],
            "actions2": ["b"],
            "payoff": [[[0.0]]],
            "transition": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]],
        }
        with pytest.raises(GameFormatError, match="payoff"):
            load_game(json.dumps(doc))


class TestStrategies:
    def test_mixed_action_must_sum_to_one(self):
        with pytest.raises(InputError):
            StationaryStrategy([[0.5, 0.4]])

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            StationaryStrategy([[1.2, -0.2]])

    def test_markov_segments_must_cover_horizon(self):
        stat = StationaryStrategy.uniform(1, 2)
        with pytest.raises(InputError):
            MarkovStrategy([2, 3], stat.probs[None])

    def test_markov_bool_horizon_rejected(self):
        # bool is an int, and True would pass as a one-stage horizon
        for horizon in (True, np.True_):
            with pytest.raises(InputError, match="horizon must be a positive integer"):
                MarkovStrategy.from_stationary(StationaryStrategy.uniform(1, 2), horizon)

    def test_markov_numpy_integer_horizon(self):
        strat = MarkovStrategy.from_stationary(StationaryStrategy.uniform(1, 2), np.int64(4))
        assert strat.horizon == 4 and strat.lengths.tolist() == [4]

    def test_markov_run_length_compression(self):
        a = StationaryStrategy.pure(1, 2, 0)
        b = StationaryStrategy.pure(1, 2, 1)
        strat = MarkovStrategy.from_stages([a, a, a, b, b])
        assert [length for length, _ in strat.segments] == [3, 2]
        assert strat.at_stage(3) == a
        assert strat.at_stage(4) == b

    def test_runs_truncate(self):
        stat = StationaryStrategy.uniform(2, 2)
        strat = MarkovStrategy.from_stationary(stat, 10)
        assert [(length, probs.tolist()) for length, probs in strat.runs(4)] == [(4, stat.probs.tolist())]

    @pytest.mark.parametrize(
        "lengths", [[True, True], np.array([True, True]), [2.0], [[2]], [], [2, 0], [True, 2], [2, np.True_]]
    )
    def test_markov_run_lengths_must_be_positive_integers(self, lengths):
        # bool is an int, and [True, True] would pass as two one-stage runs
        probs = np.stack([StationaryStrategy.uniform(1, 2).probs] * max(1, np.size(lengths)))
        with pytest.raises(InputError, match="run lengths"):
            MarkovStrategy(lengths, probs)

    @pytest.mark.parametrize("lengths", [[np.int64(2), np.int32(3)], np.array([2, 3], dtype=np.uint8), (2, 3)])
    def test_markov_numpy_integer_run_lengths(self, lengths):
        a, b = StationaryStrategy.pure(1, 2, 0), StationaryStrategy.pure(1, 2, 1)
        strat = MarkovStrategy(lengths, [a.probs, b.probs])
        assert strat.horizon == 5
        assert strat.lengths.tolist() == [2, 3] and not strat.lengths.flags.writeable
        assert strat.at_stage(2) == a and strat.at_stage(3) == b

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        rows = [[bad, 1.0]] * 3
        with pytest.raises(InputError, match="non-finite|sums to"):
            StationaryStrategy(rows)
        with pytest.raises(InputError, match="non-finite|sums to"):
            MarkovStrategy([1, 2], [[[0.5, 0.5]] * 3, rows])
        with pytest.raises(InputError, match="non-finite|sums to"):
            MarkovStrategy.from_stages([np.array([[0.5, 0.5]] * 3), np.array(rows)])

    def test_negative_zero_keeps_its_bytes(self):
        # only negative entries are clipped, so -0.0 stays -0.0 beside a clipped weight
        strat = StationaryStrategy([[-0.0, 1.0], [-1e-13, 1.0 + 1e-13]])
        assert np.signbit(strat.probs[0, 0]) and strat.probs[1, 0] == 0.0 and not np.signbit(strat.probs[1, 0])
        markov = MarkovStrategy([3], strat.probs[None])
        assert markov.probs.tobytes() == strat.probs.tobytes()

    def test_from_stages_merges_equal_neighbours(self):
        a, b = StationaryStrategy.pure(2, 2, 0), StationaryStrategy.pure(2, 2, 1)
        strat = MarkovStrategy.from_stages([a, a, b, a, a, a])
        assert strat.lengths.tolist() == [2, 1, 3]
        assert strat == MarkovStrategy([2, 1, 3], [a.probs, b.probs, a.probs])
        # tables, StationaryStrategy objects and one stacked array build the same strategy
        stack = np.stack([a.probs, a.probs, b.probs, a.probs, a.probs, a.probs])
        assert MarkovStrategy.from_stages(list(stack)) == strat == MarkovStrategy.from_stages(stack)

    def test_from_stages_single_table_is_one_run(self):
        table = StationaryStrategy.uniform(3, 2).probs
        for stages in ([table], [table] * 7):
            strat = MarkovStrategy.from_stages(stages)
            assert strat.lengths.tolist() == [len(stages)] and strat.probs.shape == (1, 3, 2)
            assert strat == MarkovStrategy.from_stationary(StationaryStrategy(table), len(stages))

    def test_negative_zero_equals_zero(self):
        # the merge rule and __eq__ compare values, as np.array_equal does: each run keeps its first stage
        neg = np.array([[-0.0, 1.0]])
        strat = MarkovStrategy.from_stages([neg, np.array([[0.0, 1.0]])])
        assert strat.lengths.tolist() == [2] and np.signbit(strat.probs[0, 0, 0])
        assert strat == MarkovStrategy([2], [[[0.0, 1.0]]])
        assert strat != MarkovStrategy([1, 1], [neg, neg])
        assert strat != MarkovStrategy([2], [[[1.0, 0.0]]])

    def test_from_stages_shapes_checked(self):
        with pytest.raises(InputError):
            MarkovStrategy.from_stages([])
        with pytest.raises(InputError):
            MarkovStrategy.from_stages([StationaryStrategy.uniform(2, 2), StationaryStrategy.uniform(3, 2)])
        with pytest.raises(InputError):
            MarkovStrategy([1], np.ones((1, 2)))

    def test_segments_derived_from_the_stack(self):
        a, b = StationaryStrategy.pure(2, 2, 0), StationaryStrategy.pure(2, 2, 1)
        strat = MarkovStrategy.from_stages([a, b, b])
        assert strat.segments == ((1, a), (2, b))


def advance(game, dist, x, y):
    """One-step law of the next state under (x, y) from state law ``dist``."""
    return np.asarray(dist) @ profile_transition_matrix(game, x, y)


def stage_payoff(game, dist, x, y):
    """Expected one-stage payoff under (x, y) when the state has law ``dist``."""
    return float(np.asarray(dist) @ profile_stage_payoffs(game, x, y))


class TestAdvanceDistribution:
    """A state law advanced one step by the profile's transition matrix."""

    def test_identity_kernel_fixes_distribution(self):
        game = identity_kernel_game()
        x = StationaryStrategy.uniform(3, 2)
        y = StationaryStrategy.uniform(3, 2)
        d = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(advance(game, d, x, y), d, atol=1e-15)

    def test_deterministic_kernel_gives_point_mass(self):
        transition = np.zeros((2, 1, 1, 2))
        transition[:, 0, 0, 0] = 1.0  # everything moves to state 0
        game = StochasticGame(("u", "w"), ("a",), ("b",), np.zeros((2, 1, 1)), transition)
        x = StationaryStrategy.uniform(2, 1)
        d = advance(game, [0.5, 0.5], x, x)
        np.testing.assert_allclose(d, [1.0, 0.0], atol=1e-15)

    def test_matches_brute_force_enumeration(self):
        game = random_game(2, 2, 2, seed=3).game
        rng = np.random.default_rng(1)
        x = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
        y = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
        d = np.array([0.5, 0.5])
        expected = np.zeros(2)
        for s in range(2):
            for i in range(2):
                for j in range(2):
                    for t in range(2):
                        expected[t] += d[s] * x.probs[s, i] * y.probs[s, j] * game.transition[s, i, j, t]
        np.testing.assert_allclose(advance(game, d, x, y), expected, atol=1e-14)

    def test_mass_preserved_over_seeded_games(self):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            game = random_game(2, 2, 2, seed).game
            x = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
            y = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
            d = rng.dirichlet(np.ones(2))
            out = advance(game, d, x, y)
            assert abs(out.sum() - 1.0) <= 1e-10
            assert out.min() >= -1e-15
            kernel = profile_transition_matrix(game, x, y)  # stochastic rows
            assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-12 and kernel.min() >= 0.0

    @given(alpha=st.floats(0.0, 1.0), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_affine_in_distribution(self, alpha, seed):
        game = random_game(3, 2, 2, seed).game
        rng = np.random.default_rng(seed + 1)
        x = StationaryStrategy(rng.dirichlet(np.ones(2), size=3))
        y = StationaryStrategy(rng.dirichlet(np.ones(2), size=3))
        d1 = rng.dirichlet(np.ones(3))
        d2 = rng.dirichlet(np.ones(3))
        mixed = advance(game, alpha * d1 + (1 - alpha) * d2, x, y)
        split = alpha * advance(game, d1, x, y) + (1 - alpha) * advance(game, d2, x, y)
        np.testing.assert_allclose(mixed, split, atol=1e-12)


class TestExpectedStagePayoff:
    """A state law weighting the profile's per-state stage payoffs."""

    def test_constant_payoff_returns_constant(self):
        game = StochasticGame(
            ("s", "t"),
            ("a0", "a1"),
            ("b0", "b1"),
            np.full((2, 2, 2), 0.75),
            np.full((2, 2, 2, 2), 0.5),
        )
        x = StationaryStrategy.uniform(2, 2)
        y = StationaryStrategy.uniform(2, 2)
        assert stage_payoff(game, [0.3, 0.7], x, y) == pytest.approx(0.75, abs=1e-14)

    def test_point_mass_pure_actions_read_entry(self):
        game = random_game(2, 2, 2, seed=9).game
        x = StationaryStrategy.pure(2, 2, 1)
        y = StationaryStrategy.pure(2, 2, 0)
        got = stage_payoff(game, point_mass(game, "s1"), x, y)
        assert got == pytest.approx(game.payoff[1, 1, 0], abs=0.0)

    def test_matches_brute_force_triple_sum(self):
        game = random_game(2, 2, 2, seed=21).game
        rng = np.random.default_rng(2)
        x = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
        y = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
        d = rng.dirichlet(np.ones(2))
        expected = sum(
            d[s] * x.probs[s, i] * y.probs[s, j] * game.payoff[s, i, j]
            for s in range(2)
            for i in range(2)
            for j in range(2)
        )
        assert stage_payoff(game, d, x, y) == pytest.approx(expected, abs=1e-14)

    def test_bounded_by_max_abs_payoff(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            game = random_game(2, 2, 2, seed).game
            x = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
            y = StationaryStrategy(rng.dirichlet(np.ones(2), size=2))
            d = rng.dirichlet(np.ones(2))
            assert abs(stage_payoff(game, d, x, y)) <= game.max_abs_payoff + 1e-12
            assert np.abs(profile_stage_payoffs(game, x, y)).max() <= game.max_abs_payoff + 1e-12
