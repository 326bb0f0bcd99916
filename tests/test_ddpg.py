import os
import subprocess
import sys
from pathlib import Path
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
    EpisodeRecord,
    ReplayBuffer,
    TrainConfig,
    TrainLog,
    check_checkpoint,
    explore_action,
    greedy_policy,
    train,
)
from drlfolio import neural
from drlfolio.errors import ConfigError, FormatError
from drlfolio.neural import (
    build_actor,
    build_critic,
    load_checkpoint,
    minmax_action_batch,
    save_checkpoint,
)
from drlfolio.synthetic import drift_market, write_market_csvs
from drlfolio.trading_env import EnvConfig, TradingEnv
from oracles import (
    ReplayByTransitions,
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


def soft_update(target, online, tau):
    """The target blend of an Adam step with a zero gradient, which leaves online as is."""
    Adam(online.flat, np.zeros_like(online.flat), target.flat, 1e-3, tau).step()


@pytest.fixture
def tiny_setup(small_market):
    env = TradingEnv(small_market, EnvConfig(window=8, episode_len=30, mu=0.0))
    config = TrainConfig(batch_size=8, buffer_capacity=64, seed=3, total_steps=100)
    rng = np.random.default_rng(5)
    actor = build_actor(small_market.n_assets, 8, rng)
    critic = build_critic(small_market.n_assets, 8, rng)
    agent = DDPG(actor, critic, config)
    buffer = ReplayBuffer(env.cube, 64)
    fill_buffer(env, buffer, 40, np.random.default_rng(1))
    return env, agent, buffer, config


def numbered_cube(rows):
    """A cube whose row k holds the single value k, with one asset and width 1."""
    return np.arange(float(rows)).reshape(rows, 1, 1, 1)


def entry(cube, row):
    """What ``ReplayBuffer.add`` reads of a transition, for the state on cube row ``row``."""
    return SimpleNamespace(state=SimpleNamespace(cube=cube, row=row), action=np.full(2, row / 2),
                           reward=float(row), done=row % 3 == 0)


class TestTrainConfig:
    @pytest.mark.parametrize("setting, message", [
        ({"noise_var": float("nan")}, "noise_var must be finite, got nan"),
        ({"critic_lr": 0.0}, "learning rates must be positive"),
        ({"actor_lr": -4e-5}, "learning rates must be positive"),
        ({"tau": 0.0}, "tau must be in (0, 1], got 0.0"),
        ({"tau": 2.0}, "tau must be in (0, 1], got 2.0"),
        ({"batch_size": 0}, "need 1 <= batch_size <= buffer_capacity"),
        ({"batch_size": 65, "buffer_capacity": 64}, "need 1 <= batch_size <= buffer_capacity"),
        ({"noise_var": -0.25}, "noise variance cannot be negative"),
        ({"discount": -0.01}, "discount must be in [0, 1]"),
        ({"discount": 1.01}, "discount must be in [0, 1]"),
        ({"total_steps": 0}, "total_steps must be positive"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
    ], ids=["non-finite", "critic-lr", "actor-lr", "tau-zero", "tau-above-one", "batch-zero",
            "batch-above-capacity", "noise-var", "discount-below", "discount-above",
            "total-steps", "seed"])
    def test_refusal_is_config_error(self, setting, message):
        with pytest.raises(ConfigError) as exc:
            TrainConfig(**setting)
        assert str(exc.value) == message

    def test_bounds_are_accepted(self):
        TrainConfig(tau=1.0, discount=0.0, noise_var=0.0, batch_size=1, buffer_capacity=1,
                    total_steps=1, seed=0)
        TrainConfig(discount=1.0)


class TestReplayBuffer:
    def test_eviction_is_fifo(self, small_market):
        env = TradingEnv(small_market, EnvConfig(window=8, episode_len=300, mu=0.0))
        buffer = ReplayBuffer(env.cube, 10)
        rng = np.random.default_rng(0)
        env.reset(rng)
        seen = []
        for _ in range(13):
            tr = env.step(rng.uniform(-1, 1, size=4))
            buffer.add(tr)
            seen.append(tr)
        assert len(buffer) == 10
        # The three newest entries overwrote the three oldest, slot for slot.
        kept = seen[10:] + seen[3:10]
        assert buffer._rows.tolist() == [tr.state.row for tr in kept]
        assert np.array_equal(buffer._actions, np.stack([tr.action for tr in kept]))
        assert buffer._rewards[:, 0].tolist() == [tr.reward for tr in kept]
        assert seen[0].state.row not in buffer._rows

    def test_not_ready_below_batch(self):
        cube = numbered_cube(65)
        buffer = ReplayBuffer(cube, 600)
        for k in range(63):
            buffer.add(entry(cube, k))
        assert not buffer.ready(64)
        with pytest.raises(ValueError):
            buffer.sample(64, np.random.default_rng(0))
        buffer.add(entry(cube, 63))
        assert buffer.ready(64)

    def test_capacity_never_exceeded(self):
        cube = numbered_cube(602)
        buffer = ReplayBuffer(cube, 600)
        for k in range(601):
            buffer.add(entry(cube, k))
        assert len(buffer) == 600
        assert 0 not in buffer._rows
        assert 600 in buffer._rows

    def test_refuses_another_cube(self):
        buffer = ReplayBuffer(numbered_cube(5), 4)
        with pytest.raises(ValueError, match="cube"):
            buffer.add(entry(numbered_cube(5), 0))

    def test_sampling_uniform(self):
        cube = numbered_cube(601)
        buffer = ReplayBuffer(cube, 600)
        for k in range(600):
            buffer.add(entry(cube, k))
        rng = np.random.default_rng(12)
        draws = 120_000
        counts = np.zeros(600)
        for _ in range(draws // 600):
            states, actions, rewards, next_states, dones = buffer.sample(600, rng)
            rows = states[:, 0, 0, 0].astype(int)
            assert np.array_equal(next_states[:, 0, 0, 0], rows + 1.0)
            assert np.array_equal(rewards[:, 0], rows) and np.array_equal(actions[:, 0], rows / 2)
            assert np.array_equal(dones[:, 0], (rows % 3 == 0).astype(float))
            np.add.at(counts, rows, 1)
        p = 1 / 600
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 5 * sigma)
        chi2 = float(np.sum((counts - draws * p) ** 2 / (draws * p)))
        # 599 dof: mean 599, sd ~ sqrt(2*599) ~ 34.6
        assert abs(chi2 - 599) < 6 * np.sqrt(2 * 599)

    @settings(max_examples=40, deadline=None)
    @given(capacity=st.integers(1, 24), episode_len=st.integers(1, 6), steps=st.integers(1, 60),
           batch=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_matches_transition_list_oracle(self, capacity, episode_len, steps, batch, seed):
        # Short episodes and more steps than slots: entries straddle episode
        # ends and the ring wraps around, often several times.
        market = drift_market(40, [0.002, -0.001, 0.0], sigma=0.01, seed=seed % 1000)
        env = TradingEnv(market, EnvConfig(window=5, episode_len=episode_len, mu=0.0025))
        buffer, oracle = ReplayBuffer(env.cube, capacity), ReplayByTransitions(capacity)
        rng = np.random.default_rng(seed)
        env.reset(rng)
        for step in range(steps):
            tr = env.step(rng.uniform(-1, 1, size=4))
            buffer.add(tr)
            oracle.add(tr)
            if tr.done:
                env.reset(rng)
            if buffer.ready(batch):
                got = buffer.sample(batch, np.random.default_rng(step))
                expected = oracle.sample(batch, np.random.default_rng(step))
                for a, b in zip(got, expected, strict=True):
                    assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


class TestExploreAction:
    def test_zero_variance_is_identity_shift(self, rng):
        raw = rng.standard_normal(5)
        out = explore_action(raw, rng, noise_var=0.0)
        assert np.array_equal(out, raw)

    def test_moments(self):
        rng = np.random.default_rng(99)
        samples = explore_action(np.zeros(1_000_000), rng, noise_var=0.25)
        mean = samples.mean()
        var = samples.var()
        assert abs(mean) < 3 * 0.5 / 1000
        assert abs(var - 0.25) < 3 * np.sqrt(2 * 0.25**2 / 1_000_000)

    def test_fixed_seed_reproducible(self):
        raw = np.arange(4.0)
        a = explore_action(raw, np.random.default_rng(21), noise_var=0.25)
        b = explore_action(raw, np.random.default_rng(21), noise_var=0.25)
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

        Adam(net.flat, rng.standard_normal(net.flat.size), np.zeros_like(net.flat), 1e-3,
             tau).step()
        assert_flat_views(net)
        soft_update(twin, net, tau)
        assert_flat_views(twin)
        assert_flat_views(net)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lr=st.floats(1e-6, 1e-1), steps=st.integers(1, 4),
           window=st.sampled_from([6, 30]), tau=st.floats(0.0, 1.0))
    def test_adam_matches_per_array_reference(self, seed, lr, steps, window, tau):
        rng = np.random.default_rng(seed)
        net = build_critic(2, window, rng)  # window 30: more than one Adam block
        target = build_critic(2, window, rng)
        grad_steps = [[rng.standard_normal(p.shape) for p in net.params()] for _ in range(steps)]
        expected_target = [p.copy() for p in target.params()]
        for t in range(1, steps + 1):
            expected = adam_per_array(net.params(), grad_steps[:t], lr)
            expected_target = soft_update_elementwise(expected_target, expected, tau)
        opt = Adam(net.flat, net.grad, target.flat, lr, tau)
        for grads in grad_steps:
            net.grad[...] = np.concatenate([g.ravel() for g in grads])
            opt.step()
            assert net.grad.tobytes() == np.concatenate([g.ravel() for g in grads]).tobytes()
        for p, e in zip(net.params(), expected):
            assert p.tobytes() == e.tobytes()
        for p, e in zip(target.params(), expected_target):
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
        states, actions, rewards, next_states, dones = buffer.sample(8, np.random.default_rng(2))
        zeroed = (states, actions, np.zeros_like(rewards), next_states, dones)
        assert agent.update_critic(zeroed) == 0.0

    def test_single_transition_hand_target(self, tiny_setup):
        env, agent, buffer, config = tiny_setup
        batch = buffer.sample(1, np.random.default_rng(4))
        x, action, reward, xn, done = batch
        from drlfolio.neural import minmax_action_batch
        from drlfolio.portfolio_math import enforce_arbitrage_batch

        raw_next = agent.actor_target.forward(xn)
        a_next = enforce_arbitrage_batch(minmax_action_batch(raw_next))[0]
        q_next = agent.critic_target.forward(critic_input_by_concat(xn, a_next))[0, 0]
        y = reward[0, 0] + config.discount * (1.0 - done[0, 0]) * q_next
        q = agent.critic.forward(critic_input_by_concat(x, action))[0, 0]
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
        loss = agent.update_actor(buffer.sample(8, np.random.default_rng(3)))
        assert loss == pytest.approx(-5.0)
        for p, b in zip(actor.params(), before):
            assert np.array_equal(p, b)

    def test_objective_gradient_matches_fd(self, tiny_setup):
        env, agent, buffer, _ = tiny_setup
        batch = buffer.sample(8, np.random.default_rng(9))
        agent.actor_loss(batch)
        grads = [g.copy() for g in agent.actor.grads()]
        params = agent.actor.params()
        rng = np.random.default_rng(10)
        for p, g in zip(params, grads):
            flat, gflat = p.reshape(-1), g.reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                fd = central_difference(
                    lambda: agent.actor_loss(batch), flat, i, h=1e-5)
                assert relative_error(fd, gflat[i], floor=1e-5) < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 4), window=st.integers(5, 12), batch=st.integers(1, 5),
           arbitrage=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_gradient_matches_full_critic_input_gradient(self, m, window, batch, arbitrage, seed):
        rng = np.random.default_rng(seed)
        agent = DDPG(build_actor(m, window, rng), build_critic(m, window, rng),
                     TrainConfig(batch_size=1, buffer_capacity=1), arbitrage=arbitrage)
        states = 1.0 + 0.05 * rng.standard_normal((batch, 4, m, window))
        # actor_loss reads only the batch's states.
        agent.actor_loss((states, None, None, None, None))
        got = agent.actor.grad.copy()
        expected = actor_grad_by_critic_input(agent.actor, agent.critic, states, arbitrage)
        # Where the deployed weights are locally constant in the logits (one
        # risky asset, or two with cash clamped) the gradient is zero up to
        # rounding in the min-max VJP, hence the absolute floor.
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected) + 1e-15

    def test_descent_lowers_loss(self, tiny_setup):
        env, agent, buffer, _ = tiny_setup
        batch = buffer.sample(8, np.random.default_rng(11))
        history = [agent.update_actor(batch) for _ in range(30)]
        assert history[-1] < history[0]

    def test_updates_step_along_public_grads(self, tiny_setup):
        env, agent, buffer, config = tiny_setup
        batch = buffer.sample(8, np.random.default_rng(13))
        agent.critic_loss(batch)
        critic_grads = [g.copy() for g in agent.critic.grads()]
        expected = adam_per_array(agent.critic.params(), [critic_grads], config.critic_lr)
        expected_target = soft_update_elementwise(
            [p.copy() for p in agent.critic_target.params()], expected, config.tau)
        actor_target = [p.copy() for p in agent.actor_target.params()]
        agent.update_critic(batch)
        assert [p.tobytes() for p in agent.critic.params()] == [e.tobytes() for e in expected]
        assert ([p.tobytes() for p in agent.critic_target.params()]
                == [e.tobytes() for e in expected_target])
        assert [p.tobytes() for p in agent.actor_target.params()] == [e.tobytes() for e in actor_target]

        agent.actor_loss(batch)
        actor_grads = [g.copy() for g in agent.actor.grads()]
        expected = adam_per_array(agent.actor.params(), [actor_grads], config.actor_lr)
        expected_target = soft_update_elementwise(actor_target, expected, config.tau)
        agent.update_actor(batch)
        assert [p.tobytes() for p in agent.actor.params()] == [e.tobytes() for e in expected]
        assert ([p.tobytes() for p in agent.actor_target.params()]
                == [e.tobytes() for e in expected_target])

    def test_critic_parameters_untouched_by_actor_update(self, tiny_setup):
        env, agent, buffer, _ = tiny_setup
        before = [p.copy() for p in agent.critic.params()]
        agent.update_actor(buffer.sample(8, np.random.default_rng(12)))
        for p, b in zip(agent.critic.params(), before):
            assert np.array_equal(p, b)


class TestSharedPatches:
    """No conv of an agent shares its patch buffer, and none holds more than one block."""

    def test_updates_and_act_allocate_no_patch_buffer(self):
        """At 11 x 50 with batch 64 a batch's patches span several blocks. After the
        first update, updates and ``act`` gather into the buffers that update left,
        one per conv and none larger than one block."""
        market = drift_market(200, [0.001] * 11, sigma=0.01, seed=3)
        env = TradingEnv(market, EnvConfig(window=50, episode_len=70, mu=0.0))
        rng = np.random.default_rng(0)
        agent = DDPG(build_actor(11, 50, rng), build_critic(11, 50, rng),
                     TrainConfig(batch_size=64, buffer_capacity=64))
        buffer = ReplayBuffer(env.cube, 64)
        state = fill_buffer(env, buffer, 64, rng)
        convs = [layer for net in (agent.actor, agent.critic, agent.actor_target,
                                   agent.critic_target)
                 for layer in net.layers if isinstance(layer, neural.Conv2D)]

        def update():
            batch = buffer.sample(64, rng)
            agent.update_critic(batch)
            agent.update_actor(batch)

        agent.act(state, rng)
        update()
        buffers = [conv._block for conv in convs]
        assert len(convs) == 8
        assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers) for b in buffers[:i])
        for conv, block in zip(convs, buffers):
            n, h, w, _ = conv._x.shape
            assert n == 64 and len(block) < n * h * (w - 2)
            assert block.nbytes <= neural.Conv2D.GATHER_BYTES
        for _ in range(2):
            update()
            agent.act(state, rng)
        assert all(conv._block is block for conv, block in zip(convs, buffers))

    def test_target_forward_between_leaves_online_gradient(self, tiny_setup):
        """``online.forward; target.forward; online.backward`` gives the gradient
        bits of ``online.forward; online.backward``."""
        _, agent, buffer, _ = tiny_setup
        states = buffer.sample(8, np.random.default_rng(0))[0]
        action = np.zeros((8, states.shape[2]))
        for online, target, args in ((agent.actor, agent.actor_target, ()),
                                     (agent.critic, agent.critic_target, (action,))):
            out = online.forward(states, *args)
            online.backward(np.ones_like(out), input_grad=False)
            alone = online.grad.copy()
            online.grad[...] = 0.0
            online.forward(states, *args)
            target.forward(states + 1.0, *args)
            online.backward(np.ones_like(out), input_grad=False)
            assert online.grad.tobytes() == alone.tobytes()


class TestAdam:
    def test_zero_gradient_no_step(self):
        p = np.ones(3)
        Adam(p, np.zeros(3), np.zeros(3), 0.1, 1.0).step()
        assert np.array_equal(p, np.ones(3))

    def test_descends_quadratic(self):
        p, g = np.array([3.0]), np.empty(1)
        opt = Adam(p, g, np.zeros(1), 0.05, 1.0)
        for _ in range(400):
            np.multiply(p, 2.0, out=g)
            opt.step()
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
        tr = env.step(policy(state.obs[None])[0])
        assert np.isfinite(tr.reward)


def test_train_log_text(tmp_path):
    log = TrainLog([EpisodeRecord(0, 0, -0.001, 0.95, 0.0025),
                    EpisodeRecord(1, 252, 1 / 3, np.float64(2.0), 1e-05)])
    log.write_csv(tmp_path / "trainlog.csv")
    lines = ["episode,step,mean_daily_return,final_value,mean_cost",
             "0,0,-0.001,0.95,0.0025",
             "1,252,0.3333333333333333,2.0,1e-05"]
    assert (tmp_path / "trainlog.csv").read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()



def test_empty_train_log_is_its_header(tmp_path):
    # A run that ends no episode (train_default's benchmark runs) logs the header alone.
    TrainLog().write_csv(tmp_path / "trainlog.csv")
    assert (tmp_path / "trainlog.csv").read_bytes() == b"episode,step,mean_daily_return,final_value,mean_cost\r\n"

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
        # One policy serves overlapping days of two markets: it keeps nothing between runs.
        for market, start, days in ((markets[0], 10, 30), (markets[1], 10, 30),
                                    (markets[0], 20, 90)):
            weights, expected = self.backtest_and_oracle(policy, actor, market, start, days, True)
            assert np.max(np.abs(weights - expected)) <= 1e-12
            served.append(expected)
        # The same days of the two markets call for different weights.
        assert np.max(np.abs(served[0] - served[1])) > 1e-3


def test_repeat_check_compares_each_meta_asset_a_bounded_number_of_times():
    """A meta's asset list comes from a file: a check that compares every pair of its
    2001 names, the last repeating the first, would compare names two million times."""
    compared = []

    class Name(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            compared.append(other)
            return str.__eq__(self, other)

    names = [Name(f"a{i}") for i in range(2000)] + [Name("a0")]
    meta = {"assets": names, "benchmark": names[-1], "window": 6, "arbitrage": True}
    rng = np.random.default_rng(0)
    with pytest.raises(FormatError, match=r"^checkpoint meta lists asset 'a0' twice$"):
        check_checkpoint(build_actor(3, 6, rng), build_critic(3, 6, rng), meta)
    assert len(compared) < 3 * len(names)


def test_same_checkpoint_bytes_on_one_and_two_blas_threads(tmp_path):
    """Fixed-seed training at 11 assets x window 50, a few updates past the
    64-step replay fill, writes the same checkpoint bytes on one and two
    OpenBLAS threads: each conv's per-block GEMMs round alike however BLAS
    splits them. The thread count is set for the child processes only."""
    market = drift_market(200, [0.0004 * k - 0.002 for k in range(11)], sigma=0.02, seed=19)
    write_market_csvs(market, tmp_path / "market")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
        result = subprocess.run(
            [sys.executable, "-m", "drlfolio.cli", "train", str(tmp_path / "market"),
             "--out", str(out), "--window", "50", "--episode-len", "60", "--total-steps", "70",
             "--seed", "3", "--benchmark", market.asset_ids[-1]],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs.append((out / "checkpoint.json").read_bytes())
    assert outputs[0] == outputs[1]
