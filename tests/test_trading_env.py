import numpy as np
import pytest

from drlfolio.errors import ConfigError, ProtocolError
from drlfolio.market_data import price_tensor, relative_prices
from drlfolio.portfolio_math import evolve_weights, transaction_cost, validate_weights
from drlfolio.synthetic import drift_market
from drlfolio.trading_env import EnvConfig, TradingEnv
from oracles import single_long_asset_bookkeeping


def make_env(market, **kwargs):
    defaults = dict(window=10, episode_len=20, mu=0.0)
    defaults.update(kwargs)
    return TradingEnv(market, EnvConfig(**defaults))


class TestEnvConfig:
    # A day trades at most twice the book, so a cost rate of 0.5 could take it all.
    @pytest.mark.parametrize("mu", [-0.01, 0.5, 0.6, float("nan")])
    def test_cost_rate_outside_zero_to_half_rejected(self, mu):
        with pytest.raises(ConfigError, match=r"cost rate must be in \[0, 0.5\)"):
            EnvConfig(mu=mu)

    def test_cost_rate_below_half_accepted(self):
        assert EnvConfig(mu=0.4999).mu == 0.4999


class TestReset:
    def test_minimal_market_has_single_start(self):
        n, ep = 10, 20
        market = drift_market(n + ep + 1, [0.001, 0.0], seed=2)
        env = make_env(market)
        starts = {env.reset(seed).t for seed in range(50)}
        assert starts == {n}

    def test_too_short_market(self):
        market = drift_market(30, [0.001, 0.0], seed=2)
        env = make_env(market)
        with pytest.raises(ConfigError):
            env.reset(0)

    def test_same_seed_same_start(self, small_market):
        env = make_env(small_market)
        assert env.reset(13).t == env.reset(13).t

    def test_start_distribution_uniform(self, small_market):
        n, ep = 10, 20
        env = make_env(small_market)
        lo, hi = n, len(small_market) - ep - 1
        k = hi - lo + 1
        rng = np.random.default_rng(5)
        draws = 10_000
        counts = np.zeros(k)
        for _ in range(draws):
            counts[env.reset(rng).t - lo] += 1
        p = 1.0 / k
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3.5 * sigma)

    def test_initial_state(self, small_market):
        env = make_env(small_market)
        state = env.reset(0)
        assert state.value == 1.0
        assert state.weights.tolist() == [1, 0, 0, 0]
        assert state.row == state.t - 9
        assert np.array_equal(state.obs, price_tensor(small_market, state.t, 10).data)


    def test_states_view_one_observation_block(self, noisy_market):
        env = make_env(noisy_market, window=12)
        cube = env.cube
        # One row per day with a full window: days 11 .. len - 1.
        assert cube.shape == (len(noisy_market) - 11, 4, noisy_market.n_assets, 12)
        assert not cube.flags.writeable
        state = env.start_at(30, 5)
        assert "cube" not in repr(state)
        states = [state]
        while states[-1].t < 35:
            states.append(env.step(np.ones(noisy_market.n_assets + 1)).next_state)
        assert [s.row for s in states] == list(range(19, 25))
        for s in states:
            assert s.cube is cube
            assert np.shares_memory(s.obs, cube)
            assert np.array_equal(s.obs, cube[s.row])
            assert np.array_equal(s.obs, price_tensor(noisy_market, s.t, 12).data)
        # Another run on the same environment reads the same cube.
        assert env.reset(3).cube is cube

    def test_market_shorter_than_window_fails_on_start(self):
        env = make_env(drift_market(8, [0.001, 0.0], seed=2))
        assert env.cube.shape == (0, 4, 2, 10)
        with pytest.raises(ConfigError):
            env.reset(0)
        with pytest.raises(ConfigError):
            env.start_at(9, 1)


class TestStep:
    def test_all_cash_forever(self, noisy_market):
        env = make_env(noisy_market, episode_len=30)
        state = env.reset(1)
        for _ in range(30):
            tr = env.step(np.array([1.0, 0, 0, 0, 0]))
            assert tr.reward == 0.0
            assert tr.next_state.value == 1.0
        assert tr.done

    def test_constant_growth_closed_form(self):
        market = drift_market(200, [0.01], seed=3)
        env = make_env(market, episode_len=50)
        env.start_at(20, 50)
        hold = np.array([0.0, 1.0])
        rewards = []
        for _ in range(50):
            tr = env.step(hold)
            rewards.append(tr.reward)
        assert np.allclose(rewards, 0.01, atol=1e-12)
        assert tr.next_state.value == pytest.approx(np.exp(0.01 * 50), rel=1e-10)

    def test_first_day_cost_with_default_mu(self, small_market):
        env = make_env(small_market, mu=0.0025)
        env.reset(4)
        tr = env.step(np.array([0.0, 0.5, -0.5, 0.0]))
        assert tr.cost == pytest.approx(0.0025, abs=1e-12)

    def test_step_after_done_is_protocol_error(self, small_market):
        env = make_env(small_market, episode_len=2)
        env.reset(0)
        env.step(np.array([1.0, 0, 0, 0]))
        tr = env.step(np.array([1.0, 0, 0, 0]))
        assert tr.done
        with pytest.raises(ProtocolError):
            env.step(np.array([1.0, 0, 0, 0]))

    def test_state_holds_the_drifted_book(self, noisy_market, rng):
        env = make_env(noisy_market, episode_len=10, mu=0.0025)
        state = env.reset(rng)
        for _ in range(10):
            tr = env.step(rng.uniform(-1, 1, size=5))
            assert tr.cost == transaction_cost(state.weights, tr.action, 0.0025)
            y = relative_prices(noisy_market, state.t + 1)
            assert np.array_equal(tr.next_state.weights, evolve_weights(tr.action, y))
            state = tr.next_state

    def test_degenerate_action_falls_back_to_cash(self, small_market):
        env = make_env(small_market)
        env.reset(0)
        tr = env.step(np.zeros(4))
        assert tr.action.tolist() == [1, 0, 0, 0]

    def test_emitted_actions_are_valid_and_sign_constrained(self, noisy_market, rng):
        env = make_env(noisy_market, episode_len=100, mu=0.0025)
        env.reset(rng)
        for _ in range(100):
            tr = env.step(rng.uniform(-1, 1, size=5))
            validate_weights(tr.action)
            risky = tr.action[1:]
            if risky[-1] != 0 and np.any(risky[:-1] != 0):
                assert np.abs(risky).sum() != abs(risky.sum())

    def test_arbitrage_can_be_disabled(self, small_market):
        env = make_env(small_market, arbitrage_enabled=False)
        env.reset(0)
        tr = env.step(np.array([0.0, 0.25, 0.25, 0.5]))
        assert tr.action.tolist() == [0.0, 0.25, 0.25, 0.5]

    # Long the first risky asset, which gains 1%/day, or short it: at leverage
    # 1e308 its log growth overflows to inf or to -inf, a value of inf or 0.
    @pytest.mark.parametrize("side, value", [(1.0, "inf"), (-1.0, "0.0")])
    def test_leverage_that_loses_the_value_is_config_error(self, small_market, side, value):
        env = make_env(small_market, leverage=np.array([1.0, 1e308, 1.0, 1.0]))
        env.start_at(30, 5)
        with np.errstate(over="ignore"), pytest.raises(
                ConfigError, match=rf"portfolio value {value} on day 31 is outside \(0, inf\)"):
            env.step(np.array([0.0, side, 0.0, 0.0]))


class TestTrajectoryProperties:
    def test_telescoping_over_episode(self, noisy_market, rng):
        env = make_env(noisy_market, episode_len=252, mu=0.0025)
        state = env.reset(rng)
        total = 0.0
        done = False
        while not done:
            tr = env.step(rng.uniform(-1, 1, size=5))
            total += tr.reward
            done = tr.done
        assert abs(total - np.log(tr.next_state.value / 1.0)) < 1e-10

    def test_buy_and_hold_matches_share_bookkeeping(self):
        # Fully invested long in a single asset: constant share count.
        market = drift_market(300, [0.004], sigma=0.02, seed=9)
        env = make_env(market, episode_len=252)
        env.start_at(10, 252)
        hold = np.array([0.0, 1.0])
        values = [1.0]
        for _ in range(252):
            tr = env.step(hold)
            values.append(tr.next_state.value)
        prices = market.close[0, 10 : 10 + 253]
        expected = single_long_asset_bookkeeping(prices)
        assert np.max(np.abs(np.array(values) - np.array(expected))) < 1e-9

    def test_bitwise_determinism(self, noisy_market):
        def run():
            env = make_env(noisy_market, episode_len=40, mu=0.0025)
            env.reset(123)
            act_rng = np.random.default_rng(7)
            out = []
            for _ in range(40):
                tr = env.step(act_rng.uniform(-1, 1, size=5))
                out.append((tr.reward, tr.next_state.value, tuple(tr.action)))
            return out

        assert run() == run()

    def test_value_update_uses_pre_move_weights(self):
        # Two flat assets and one mover: reward must reflect the weights set
        # today applied over tomorrow's move, not the drifted book.
        market = drift_market(60, [0.02, 0.0, 0.0], seed=4)
        env = make_env(market, episode_len=5)
        env.start_at(20, 5)
        env.step(np.array([0.0, 1.0, 0.0, 0.0]))
        y = relative_prices(market, 22)
        tr = env.step(np.array([0.0, 1.0, 0.0, 0.0]))
        assert tr.reward == pytest.approx(np.log(y[1]), abs=1e-12)
