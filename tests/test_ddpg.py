from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlfolio.analytics import run_backtest
from drlfolio.ddpg import (
    DDPG,
    GREEDY_BLOCK,
    Adam,
    ReplayBuffer,
    TrainConfig,
    explore_action,
    greedy_policy,
    soft_update,
    train,
)
from drlfolio.neural import build_actor, build_critic, load_checkpoint, save_checkpoint
from drlfolio.synthetic import drift_market
from drlfolio.trading_env import EnvConfig, TradingEnv
from oracles import (
    actor_grad_by_critic_input,
    adam_per_array,
    central_difference,
    critic_input_by_concat,
    greedy_weights_by_day,
    price_window_by_loops,
    relative_error,
    soft_update_elementwise,
)


def fill_buffer(env, buffer, steps, rng):
    state = env.reset(rng)
    for _ in range(steps):
        tr = env.step(rng.uniform(-1, 1, size=env.market.n_assets + 1))
        buffer.add(tr)
        state = tr.next_state
        if tr.done:
            state = env.reset(rng)
    return state


@pytest.fixture
def tiny_setup(small_market):
    env = TradingEnv(small_market, EnvConfig(window=8, episode_len=30, mu=0.0))
    config = TrainConfig(batch_size=8, buffer_capacity=64, seed=3, total_steps=100)
    rng = np.random.default_rng(5)
    actor = build_actor(small_market.n_assets, 8, rng)
    critic = build_critic(small_market.n_assets, 8, rng)
    agent = DDPG(actor, critic, config)
    buffer = ReplayBuffer(64)
    fill_buffer(env, buffer, 40, np.random.default_rng(1))
    return env, agent, buffer, config


class TestReplayBuffer:
    def test_eviction_is_fifo(self, small_market):
        env = TradingEnv(small_market, EnvConfig(window=8, episode_len=300, mu=0.0))
        buffer = ReplayBuffer(10)
        rng = np.random.default_rng(0)
        env.reset(rng)
        seen = []
        for _ in range(13):
            tr = env.step(rng.uniform(-1, 1, size=4))
            buffer.add(tr)
            seen.append(tr)
        assert len(buffer) == 10
        stored = buffer._storage
        assert all(any(s is t for s in stored) for t in seen[3:])
        assert not any(s is seen[0] for s in stored)

    def test_not_ready_below_batch(self):
        buffer = ReplayBuffer(600)
        for _ in range(63):
            buffer.add(object())
        assert not buffer.ready(64)
        with pytest.raises(ValueError):
            buffer.sample(64, np.random.default_rng(0))
        buffer.add(object())
        assert buffer.ready(64)

    def test_capacity_never_exceeded(self):
        buffer = ReplayBuffer(600)
        for k in range(601):
            buffer.add(k)
        assert len(buffer) == 600
        assert 0 not in buffer._storage
        assert 600 in buffer._storage

    def test_sampling_uniform(self):
        buffer = ReplayBuffer(600)
        for k in range(600):
            buffer.add(k)
        rng = np.random.default_rng(12)
        draws = 120_000
        counts = np.zeros(600)
        for _ in range(draws // 600):
            for item in buffer.sample(600, rng):
                counts[item] += 1
        p = 1 / 600
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 5 * sigma)
        chi2 = float(np.sum((counts - draws * p) ** 2 / (draws * p)))
        # 599 dof: mean 599, sd ~ sqrt(2*599) ~ 34.6
        assert abs(chi2 - 599) < 6 * np.sqrt(2 * 599)


class TestExploreAction:
    def test_zero_variance_is_identity_shift(self, rng):
        raw = rng.standard_normal(5)
        out = explore_action(raw, rng, noise_var=0.0)
        assert np.array_equal(out, raw)

    def test_moments(self):
        rng = np.random.default_rng(99)
        samples = explore_action(np.zeros(1_000_000), rng)
        mean = samples.mean()
        var = samples.var()
        assert abs(mean) < 3 * 0.5 / 1000
        assert abs(var - 0.25) < 3 * np.sqrt(2 * 0.25**2 / 1_000_000)

    def test_fixed_seed_reproducible(self):
        raw = np.arange(4.0)
        a = explore_action(raw, np.random.default_rng(21))
        b = explore_action(raw, np.random.default_rng(21))
        assert np.array_equal(a, b)


def assert_flat_views(net):
    """Every layer array is a view into the network's flat buffers, in layer order."""
    for layer in net.layers:
        for name in layer.param_names:
            assert np.shares_memory(getattr(layer, name), net.flat)
            assert np.shares_memory(getattr(layer, "d_" + name), net.grad)
    assert np.array_equal(np.concatenate([p.ravel() for p in net.params()]), net.flat)
    assert np.array_equal(np.concatenate([g.ravel() for g in net.grads()]), net.grad)


class TestFlatBuffers:
    @settings(max_examples=15, deadline=None)
    @given(m=st.integers(1, 3), window=st.integers(5, 8), seed=st.integers(0, 2**32 - 1),
           tau=st.floats(0.0, 1.0))
    def test_views_survive_every_operation(self, tmp_path_factory, m, window, seed, tau):
        rng = np.random.default_rng(seed)
        net = build_actor(m, window, rng)
        assert_flat_views(net)
        twin = net.clone()
        assert_flat_views(twin)
        assert twin.flat.tobytes() == net.flat.tobytes()
        assert not np.shares_memory(twin.flat, net.flat)

        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        save_checkpoint(path, net, build_critic(m, window, rng), {})
        loaded, _, _ = load_checkpoint(path)
        assert_flat_views(loaded)
        assert loaded.flat.tobytes() == net.flat.tobytes()

        Adam(1e-3).step(net.flat, rng.standard_normal(net.flat.size))
        assert_flat_views(net)
        soft_update(twin, net, tau)
        assert_flat_views(twin)
        assert_flat_views(net)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lr=st.floats(1e-6, 1e-1), steps=st.integers(1, 4),
           window=st.sampled_from([6, 30]))
    def test_adam_matches_per_array_reference(self, seed, lr, steps, window):
        rng = np.random.default_rng(seed)
        net = build_critic(2, window, rng)  # window 30: more than one Adam block
        grad_steps = [[rng.standard_normal(p.shape) for p in net.params()] for _ in range(steps)]
        expected = adam_per_array(net.params(), grad_steps, lr)
        opt = Adam(lr)
        for grads in grad_steps:
            opt.step(net.flat, np.concatenate([g.ravel() for g in grads]))
        for p, e in zip(net.params(), expected):
            assert p.tobytes() == e.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tau=st.floats(0.0, 1.0))
    def test_soft_update_matches_elementwise_oracle(self, seed, tau):
        rng = np.random.default_rng(seed)
        target, online = build_actor(2, 6, rng), build_actor(2, 6, rng)
        expected = soft_update_elementwise([p.copy() for p in target.params()],
                                           [p.copy() for p in online.params()], tau)
        soft_update(target, online, tau)
        for t, e in zip(target.params(), expected):
            assert t.tobytes() == e.tobytes()

    def test_soft_update_refuses_other_layout(self, rng):
        with pytest.raises(ValueError, match="layout"):
            soft_update(build_actor(2, 6, rng), build_actor(3, 6, rng), 0.5)


class TestSoftUpdate:
    def test_tau_one_copies(self, rng):
        target, online = build_actor(2, 6, rng), build_actor(2, 6, rng)
        soft_update(target, online, 1.0)
        for t, o in zip(target.params(), online.params()):
            assert np.array_equal(t, o)

    def test_tau_zero_freezes(self, rng):
        target, online = build_actor(2, 6, rng), build_actor(2, 6, rng)
        before = [p.copy() for p in target.params()]
        soft_update(target, online, 0.0)
        for t, b in zip(target.params(), before):
            assert np.array_equal(t, b)

    def test_matches_elementwise_oracle(self, rng):
        target, online = build_actor(2, 6, rng), build_actor(2, 6, rng)
        expected = soft_update_elementwise(
            [p.copy() for p in target.params()],
            [p.copy() for p in online.params()],
            0.001,
        )
        soft_update(target, online, 0.001)
        for t, e in zip(target.params(), expected):
            assert np.allclose(t, e, atol=1e-16)

    def test_contraction_toward_frozen_online(self, rng):
        target, online = build_actor(2, 6, rng), build_actor(2, 6, rng)
        def gap():
            return sum(float(np.sum((t - o) ** 2)) for t, o in zip(target.params(), online.params()))
        prev = gap()
        for _ in range(5):
            soft_update(target, online, 0.001)
            cur = gap()
            assert cur <= prev
            prev = cur


class TestCriticUpdate:
    def test_zero_everything_zero_loss(self, tiny_setup, rng):
        env, _, buffer, config = tiny_setup
        actor = build_actor(3, 8, rng)
        critic = build_critic(3, 8, rng)
        for p in critic.params():
            p[...] = 0.0
        agent = DDPG(actor, critic, TrainConfig(batch_size=8, buffer_capacity=64, discount=0.0))
        batch = buffer.sample(8, np.random.default_rng(2))
        zeroed = []
        for tr in batch:
            zeroed.append(type(tr)(state=tr.state, action=tr.action, reward=0.0,
                                   next_state=tr.next_state, done=tr.done))
        assert agent.update_critic(zeroed) == 0.0

    def test_single_transition_hand_target(self, tiny_setup):
        env, agent, buffer, config = tiny_setup
        batch = buffer.sample(1, np.random.default_rng(4))
        tr = batch[0]
        from drlfolio.neural import minmax_action_batch
        from drlfolio.portfolio_math import enforce_arbitrage_batch

        xn = tr.next_state.tensor.data[None]
        raw_next = agent.actor_target.forward(xn)
        a_next = enforce_arbitrage_batch(minmax_action_batch(raw_next))[0]
        q_next = agent.critic_target.forward(critic_input_by_concat(xn, a_next))[0, 0]
        y = tr.reward + config.discount * (0.0 if tr.done else 1.0) * q_next
        q = agent.critic.forward(critic_input_by_concat(tr.state.tensor.data[None], tr.action[None]))[0, 0]
        expected = (q - y) ** 2
        assert agent.update_critic(batch) == pytest.approx(expected, rel=1e-12)

    def test_loss_gradient_matches_fd(self, tiny_setup):
        env, agent, buffer, _ = tiny_setup
        batch = buffer.sample(8, np.random.default_rng(6))
        agent.critic_loss(batch)
        grads = [g.copy() for g in agent.critic.grads()]
        params = agent.critic.params()
        rng = np.random.default_rng(8)
        checked = 0
        for p, g in zip(params, grads):
            flat, gflat = p.reshape(-1), g.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                fd = central_difference(
                    lambda: agent.critic_loss(batch), flat, i, h=1e-5)
                assert relative_error(fd, gflat[i], floor=1e-5) < 1e-4
                checked += 1
        assert checked > 20

    def test_update_moves_loss_down(self, tiny_setup):
        env, agent, buffer, _ = tiny_setup
        batch = buffer.sample(8, np.random.default_rng(7))
        first = agent.update_critic(batch)
        for _ in range(50):
            last = agent.update_critic(batch)
        assert last < first


class TestActorUpdate:
    def test_constant_critic_no_movement(self, tiny_setup, rng):
        env, _, buffer, _ = tiny_setup
        actor = build_actor(3, 8, rng)
        critic = build_critic(3, 8, rng)
        for p in critic.params():
            p[...] = 0.0
        critic.layers[-1].bias[...] = 5.0  # constant Q = 5 everywhere
        agent = DDPG(actor, critic, TrainConfig(batch_size=8, buffer_capacity=64))
        before = [p.copy() for p in actor.params()]
        objective = agent.update_actor(buffer.sample(8, np.random.default_rng(3)))
        assert objective == pytest.approx(5.0)
        for p, b in zip(actor.params(), before):
            assert np.array_equal(p, b)

    def test_objective_gradient_matches_fd(self, tiny_setup):
        env, agent, buffer, _ = tiny_setup
        batch = buffer.sample(8, np.random.default_rng(9))
        agent.actor_objective(batch)
        grads = [g.copy() for g in agent.actor.grads()]
        params = agent.actor.params()
        rng = np.random.default_rng(10)
        for p, g in zip(params, grads):
            flat, gflat = p.reshape(-1), g.reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                fd = central_difference(
                    lambda: agent.actor_objective(batch), flat, i, h=1e-5)
                assert relative_error(fd, gflat[i], floor=1e-5) < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 4), window=st.integers(5, 12), batch=st.integers(1, 5),
           arbitrage=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_gradient_matches_full_critic_input_gradient(self, m, window, batch, arbitrage, seed):
        rng = np.random.default_rng(seed)
        agent = DDPG(build_actor(m, window, rng), build_critic(m, window, rng),
                     TrainConfig(batch_size=1, buffer_capacity=1), arbitrage=arbitrage)
        states = 1.0 + 0.05 * rng.standard_normal((batch, 4, m, window))
        # actor_objective reads only each transition's state.tensor.data.
        transitions = [SimpleNamespace(state=SimpleNamespace(tensor=SimpleNamespace(data=x)))
                       for x in states]
        agent.actor_objective(transitions)
        got = agent.actor.grad.copy()
        expected = actor_grad_by_critic_input(agent.actor, agent.critic, states, arbitrage)
        # Where the deployed weights are locally constant in the logits (one
        # risky asset, or two with cash clamped) the gradient is zero up to
        # rounding in the min-max VJP, hence the absolute floor.
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected) + 1e-15

    def test_ascent_improves_objective(self, tiny_setup):
        env, agent, buffer, _ = tiny_setup
        batch = buffer.sample(8, np.random.default_rng(11))
        history = [agent.update_actor(batch) for _ in range(30)]
        assert history[-1] > history[0]

    def test_updates_step_along_public_grads(self, tiny_setup):
        env, agent, buffer, config = tiny_setup
        batch = buffer.sample(8, np.random.default_rng(13))
        agent.critic_loss(batch)
        critic_grads = [g.copy() for g in agent.critic.grads()]
        expected = adam_per_array(agent.critic.params(), [critic_grads], config.critic_lr)
        agent.update_critic(batch)
        assert [p.tobytes() for p in agent.critic.params()] == [e.tobytes() for e in expected]

        agent.actor_objective(batch)
        ascent = [[-g for g in agent.actor.grads()]]
        expected = adam_per_array(agent.actor.params(), ascent, config.actor_lr)
        agent.update_actor(batch)
        assert [p.tobytes() for p in agent.actor.params()] == [e.tobytes() for e in expected]

    def test_critic_parameters_untouched_by_actor_update(self, tiny_setup):
        env, agent, buffer, _ = tiny_setup
        before = [p.copy() for p in agent.critic.params()]
        agent.update_actor(buffer.sample(8, np.random.default_rng(12)))
        for p, b in zip(agent.critic.params(), before):
            assert np.array_equal(p, b)


class TestAdam:
    def test_zero_gradient_no_step(self):
        opt = Adam(0.1)
        p = np.ones(3)
        opt.step(p, np.zeros(3))
        assert np.array_equal(p, np.ones(3))

    def test_descends_quadratic(self):
        opt = Adam(0.05)
        p = np.array([3.0])
        for _ in range(400):
            opt.step(p, 2.0 * p)
        assert abs(p[0]) < 1e-2


class TestTrain:
    def test_two_episodes_logged(self, small_market):
        env_config = EnvConfig(window=8, episode_len=12, mu=0.0)
        config = TrainConfig(batch_size=8, buffer_capacity=32, total_steps=24, seed=0)
        _, _, log = train(small_market, env_config, config)
        assert len(log.records) == 2
        assert [r.episode for r in log.records] == [0, 1]
        assert [r.start_step for r in log.records] == [0, 12]

    def test_full_length_episode_arithmetic(self, small_market):
        # 504 total steps at the standard 252-day episode length: two episodes.
        env_config = EnvConfig(window=10, episode_len=252, mu=0.0)
        config = TrainConfig(batch_size=16, buffer_capacity=64, total_steps=504, seed=2)
        _, _, log = train(small_market, env_config, config)
        assert len(log.records) == 2

    def test_partial_final_episode_not_logged(self, small_market):
        env_config = EnvConfig(window=8, episode_len=12, mu=0.0)
        config = TrainConfig(batch_size=8, buffer_capacity=32, total_steps=30, seed=0)
        _, _, log = train(small_market, env_config, config)
        assert len(log.records) == 2

    def test_same_seed_identical_log(self, small_market):
        env_config = EnvConfig(window=8, episode_len=10, mu=0.0)
        config = TrainConfig(batch_size=8, buffer_capacity=32, total_steps=40, seed=9)
        _, _, log_a = train(small_market, env_config, config)
        _, _, log_b = train(small_market, env_config, config)
        assert log_a.records == log_b.records

    def test_trained_actor_serves_greedy_policy(self, small_market):
        env_config = EnvConfig(window=8, episode_len=10, mu=0.0)
        config = TrainConfig(batch_size=8, buffer_capacity=32, total_steps=20, seed=1)
        actor, _, _ = train(small_market, env_config, config)
        policy = greedy_policy(actor)
        env = TradingEnv(small_market, env_config)
        state = env.start_at(10, 5)
        tr = env.step(policy(state))
        assert np.isfinite(tr.reward)


class TestGreedyPolicy:
    WINDOW = 8

    def backtest_and_oracle(self, policy, actor, market, start, days, arbitrage):
        config = EnvConfig(window=self.WINDOW, episode_len=days, mu=0.0025,
                           arbitrage_enabled=arbitrage)
        report = run_backtest(policy, market, config, start, start + days)
        windows = [price_window_by_loops(market, t, self.WINDOW)
                   for t in range(start, start + days)]
        return report.weights, greedy_weights_by_day(actor, windows, arbitrage)

    @pytest.mark.parametrize("arbitrage", [True, False])
    @pytest.mark.parametrize("days", [1, GREEDY_BLOCK - 1, GREEDY_BLOCK, GREEDY_BLOCK + 1, 130])
    def test_block_path_matches_per_day_oracle(self, noisy_market, days, arbitrage):
        actor = build_actor(noisy_market.n_assets, self.WINDOW, np.random.default_rng(days))
        weights, expected = self.backtest_and_oracle(greedy_policy(actor, arbitrage), actor,
                                                     noisy_market, 20, days, arbitrage)
        assert weights.shape == expected.shape == (days, noisy_market.n_assets + 1)
        assert np.max(np.abs(weights - expected)) <= 1e-12

    def test_one_policy_on_two_markets_with_overlapping_days(self):
        markets = [drift_market(200, [0.002, -0.001, 0.0], sigma=0.02, seed=seed)
                   for seed in (1, 2)]
        actor = build_actor(3, self.WINDOW, np.random.default_rng(5))
        policy = greedy_policy(actor)
        served = []
        # Each run starts on a day (and a row) that the previous run's forward covered.
        for market, start, days in ((markets[0], 10, 30), (markets[1], 10, 30),
                                    (markets[0], 20, 90)):
            weights, expected = self.backtest_and_oracle(policy, actor, market, start, days, True)
            assert np.max(np.abs(weights - expected)) <= 1e-12
            served.append(expected)
        # The same days of the two markets call for different weights.
        assert np.max(np.abs(served[0] - served[1])) > 1e-3
