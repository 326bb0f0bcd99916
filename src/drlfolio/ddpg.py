"""Deterministic-policy actor-critic trainer with replay and soft targets.

The policy as deployed is actor -> min-max activation -> benchmark sign rule
(``policy_weights``). Acting, the target policy and the actor update all go
through that one chain, and the actor update differentiates through it, so
the critic is always evaluated on actions the environment could receive.
Both networks descend a loss, the actor minus the mean Q of its deployed
weights; each has one ``Adam``, whose step also soft-updates its target.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from . import market_data
from .market_data import AlignedMarket
from .neural import (
    Network,
    build_actor,
    build_critic,
    minmax_action,  # re-exported; acting goes through policy_weights
    minmax_forward_batch,
    minmax_vjp_batch,
    save_checkpoint,
)
from .portfolio_math import enforce_arbitrage_batch
from .trading_env import EnvConfig, EnvState, TradingEnv, Transition


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    buffer_capacity: int = 600
    critic_lr: float = 5e-4
    actor_lr: float = 4e-5
    total_steps: int = 300_000
    # Exploration noise is N(0, noise_var). The paper's mean of 0.05 moves no
    # deployed weight: the min-max activation is shift invariant.
    noise_var: float = 0.25
    discount: float = 0.99
    tau: float = 0.001
    seed: int = 0

    def __post_init__(self):
        for name in ("critic_lr", "actor_lr", "noise_var", "discount", "tau"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.critic_lr, self.actor_lr) <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ConfigError("need 1 <= batch_size <= buffer_capacity")
        if self.noise_var < 0:
            raise ConfigError("noise variance cannot be negative")
        if not 0.0 <= self.discount <= 1.0:
            raise ConfigError("discount must be in [0, 1]")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class TrainingDiverged(ConfigError):
    """A network gave non-finite output during training; ``log`` holds the finished episodes."""

    def __init__(self, episode: int, step: int, log: TrainLog):
        super().__init__(f"training diverged at episode {episode}, step {step} "
                         "(non-finite network output)")
        self.log = log


class ReplayBuffer:
    """Fixed-capacity ring over one observation cube; overwrites oldest first, samples
    uniformly with replacement. An entry is a decision's cube row, action, reward and
    done flag; its next state is the following row, the next day of the same run."""

    def __init__(self, cube: np.ndarray, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.cube, self.capacity = cube, capacity
        self._rows = np.zeros(capacity, dtype=np.intp)
        self._actions = np.zeros((capacity, cube.shape[2] + 1))
        self._rewards = np.zeros((capacity, 1))
        self._dones = np.zeros((capacity, 1))
        self._size = self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def add(self, transition: Transition) -> None:
        if transition.state.cube is not self.cube:
            raise ValueError("transition comes from another observation cube")
        k = self._cursor
        self._rows[k] = transition.state.row
        self._actions[k] = transition.action
        self._rewards[k] = transition.reward
        self._dones[k] = transition.done
        self._cursor = (k + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def ready(self, batch_size: int) -> bool:
        return self._size >= batch_size

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """(states, actions, rewards, next_states, dones) of batch_size entries;
        rewards and dones are (batch_size, 1)."""
        if not self.ready(batch_size):
            raise ValueError(f"buffer holds {len(self)} < batch {batch_size}")
        idx = rng.integers(0, self._size, size=batch_size)
        rows = self._rows[idx]
        return (self.cube[rows], self._actions[idx], self._rewards[idx], self.cube[rows + 1],
                self._dones[idx])


def explore_action(raw: np.ndarray, rng: np.random.Generator,
                   noise_var: float) -> np.ndarray:
    """Add i.i.d. N(0, noise_var) noise to raw actor logits before the action activation."""
    raw = np.asarray(raw, dtype=np.float64)
    return raw + rng.normal(0.0, np.sqrt(noise_var), size=raw.shape)


def policy_weights(raw: np.ndarray, arbitrage: bool):
    """Raw actor logits (N, m+1) to the weights the policy deploys.

    Applies the min-max activation, then the benchmark sign rule when
    ``arbitrage`` is set. Returns (weights, vjp): ``vjp`` maps a gradient
    with respect to the weights to one with respect to the logits, and may
    overwrite the array it is given.
    """
    weights, cache = minmax_forward_batch(raw)
    flipped = None
    if arbitrage:
        weights, flipped = enforce_arbitrage_batch(weights)

    def vjp(d_weights: np.ndarray) -> np.ndarray:
        if flipped is not None:
            d_weights[flipped, -1] = -d_weights[flipped, -1]
        return minmax_vjp_batch(cache, d_weights)

    return weights, vjp


class Adam:
    """Adam on a network's ``flat`` from its ``grad``, soft-updating the target's ``flat``
    after each step; the moments ``m``, ``v`` and step count ``t`` are its whole state."""

    # Elements updated per pass. A block's slices of the parameters, gradient,
    # moments and work buffers stay in cache across the fourteen array
    # operations of a step instead of streaming from memory for each one.
    BLOCK = 32_768
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, param: np.ndarray, grad: np.ndarray, target: np.ndarray,
                 lr: float, tau: float):
        self.param, self.grad, self.target = param, grad, target
        self.lr, self.tau = lr, tau
        self.m, self.v, self.t = np.zeros_like(param), np.zeros_like(param), 0
        self._work = np.empty((2, min(self.BLOCK, param.size)))

    def step(self) -> None:
        """In place: m, v <- moments of grad; param -= lr * m_hat / (sqrt(v_hat) + eps);
        then each block of target is blended toward the new parameters:
        target <- tau * param + (1 - tau) * target. ``grad`` is only read."""
        self.t += 1
        b1t = 1.0 - self.BETA1**self.t
        b2t = 1.0 - self.BETA2**self.t
        for lo in range(0, self.param.size, self.BLOCK):
            block = slice(lo, lo + self.BLOCK)
            p, g, m, v, target = (a[block] for a in (self.param, self.grad, self.m, self.v,
                                                     self.target))
            s, r = self._work[:, : p.size]
            m *= self.BETA1
            m += np.multiply(g, 1 - self.BETA1, out=s)
            v *= self.BETA2
            np.multiply(g, 1 - self.BETA2, out=s)
            v += np.multiply(s, g, out=s)
            np.sqrt(np.divide(v, b2t, out=s), out=s)
            s += self.EPS
            np.multiply(np.divide(m, b1t, out=r), self.lr, out=r)
            p -= np.divide(r, s, out=r)
            target *= 1.0 - self.tau
            target += np.multiply(p, self.tau, out=s)


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    start_step: int
    mean_daily_return: float
    final_value: float
    mean_cost: float


@dataclass
class TrainLog:
    records: list[EpisodeRecord] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        market_data.write_csv(path, ("episode", "step", "mean_daily_return", "final_value",
                                     "mean_cost"), map(astuple, self.records))


class DDPG:
    """Owns the four networks and their optimizers; updates are one Adam step each."""

    def __init__(self, actor: Network, critic: Network, config: TrainConfig,
                 arbitrage: bool = True):
        self.actor = actor
        self.critic = critic
        self.actor_target = actor.clone()
        self.critic_target = critic.clone()
        self.config = config
        self.arbitrage = arbitrage
        self._adam_actor = Adam(actor.flat, actor.grad, self.actor_target.flat,
                                config.actor_lr, config.tau)
        self._adam_critic = Adam(critic.flat, critic.grad, self.critic_target.flat,
                                 config.critic_lr, config.tau)

    # -- acting ------------------------------------------------------------

    def act(self, state: EnvState, rng: np.random.Generator) -> np.ndarray:
        """Valid weight vector for a state, explored with noise from ``rng``;
        ``greedy_policy`` is the noise-free policy."""
        raw = explore_action(self.actor.forward(state.obs[None]), rng, self.config.noise_var)
        weights, _ = policy_weights(raw, self.arbitrage)
        return weights[0]

    # -- updates -----------------------------------------------------------

    def critic_loss(self, batch: tuple[np.ndarray, ...]) -> float:
        """TD loss of the critic on a ``ReplayBuffer.sample`` batch; its parameter
        gradient lands in ``critic.grad``."""
        states, actions, rewards, next_states, dones = batch
        next_actions, _ = policy_weights(self.actor_target.forward(next_states), self.arbitrage)
        q_next = self.critic_target.forward(next_states, next_actions[:, 1:])
        targets = rewards + self.config.discount * (1.0 - dones) * q_next
        q = self.critic.forward(states, actions[:, 1:])
        diff = q - targets
        loss = float(np.mean(diff**2))
        self.critic.backward(2.0 * diff / diff.shape[0], input_grad=False)
        return loss

    def update_critic(self, batch: tuple[np.ndarray, ...]) -> float:
        """One Adam step on the critic loss, then the critic target's soft update."""
        loss = self.critic_loss(batch)
        self._adam_critic.step()
        return loss

    def actor_loss(self, batch: tuple[np.ndarray, ...]) -> float:
        """Minus the mean Q of the deployed policy on a batch's states; its actor
        gradient lands in ``actor.grad``."""
        states = batch[0]
        weights, weights_vjp = policy_weights(self.actor.forward(states), self.arbitrage)
        q = self.critic.forward(states, weights[:, 1:])
        loss = -float(np.mean(q))

        d_weights = np.zeros_like(weights)
        d_weights[:, 1:] = self.critic.backward(np.full_like(q, -1.0 / q.shape[0]),
                                                param_grads=False)
        self.actor.backward(weights_vjp(d_weights), input_grad=False)
        return loss

    def update_actor(self, batch: tuple[np.ndarray, ...]) -> float:
        """One Adam step on the actor loss, then the actor target's soft update."""
        loss = self.actor_loss(batch)
        self._adam_actor.step()
        return loss


# Observation rows per actor forward of the greedy policy. A whole run at once would
# hold conv outputs and an input copy for every day: ~75 MB for 500 days of 11
# assets at window 50.
GREEDY_BLOCK = 64


def greedy_policy(actor: Network, arbitrage: bool = True):
    """Noise-free backtest policy of a trained actor: observation rows (n, 4, m, window)
    to the weights it deploys, (n, m + 1), running the actor on GREEDY_BLOCK rows at a time."""

    def policy(rows: np.ndarray) -> np.ndarray:
        return np.concatenate([
            policy_weights(actor.forward(rows[k : k + GREEDY_BLOCK]), arbitrage)[0]
            for k in range(0, len(rows), GREEDY_BLOCK)
        ])

    return policy


def checkpoint_meta(market: AlignedMarket, env_config: EnvConfig,
                    train_config: TrainConfig) -> dict:
    """The meta block every checkpoint of a training run carries; a backtest reads it back."""
    return {
        "assets": list(market.asset_ids),
        "benchmark": market.asset_ids[market.benchmark_index],
        "window": env_config.window,
        "mu": env_config.mu,
        "arbitrage": env_config.arbitrage_enabled,
        "seed": train_config.seed,
    }


def check_checkpoint(actor: Network, critic: Network, meta: dict) -> None:
    """Raise FormatError unless the networks are finite and the meta names what a
    backtest reads and fits the actor.

    The meta must hold ``assets``, ``benchmark`` and ``window``, and the actor
    must map one (4, len(assets), window) price block to len(assets) + 1 logits.
    ``assets`` must name each asset once, as a string, and end with the
    benchmark: the order the actor was trained on.
    """
    for name, net in (("actor", actor), ("critic", critic)):
        if not np.all(np.isfinite(net.flat)):
            raise FormatError(f"checkpoint {name} has non-finite parameters")
    missing = [key for key in ("assets", "benchmark", "window") if key not in meta]
    if missing:
        raise FormatError(f"checkpoint meta lacks {', '.join(missing)}")
    try:
        m, window = len(meta["assets"]), int(meta["window"])
        out = actor.forward(np.zeros((1, 4, m, window)))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint actor does not fit its meta: {exc}") from exc
    if out.shape != (1, m + 1):
        raise FormatError(f"checkpoint actor gives {out.shape[1]} weights for {m} assets")
    assets = list(meta["assets"])
    for k, asset in enumerate(assets):
        if not isinstance(asset, str):
            raise FormatError(f"checkpoint meta asset {asset!r} is not a name")
        if asset in assets[:k]:
            raise FormatError(f"checkpoint meta lists asset {asset!r} twice")
    if meta["benchmark"] != assets[-1]:
        raise FormatError(f"checkpoint meta benchmark {meta['benchmark']!r} is not its last asset")


def train(
    market: AlignedMarket,
    env_config: EnvConfig,
    train_config: TrainConfig,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
) -> tuple[Network, Network, TrainLog]:
    """Episode loop: sampled windows, per-step replay insert and update pair.

    Fully deterministic for a given (market, configs, seed). A non-finite
    network output raises TrainingDiverged, which carries the log so far.
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigError(f"checkpoint_every must be positive, got {checkpoint_every}")
    seeds = np.random.SeedSequence(train_config.seed).spawn(4)
    rng_init, rng_env, rng_noise, rng_sample = (np.random.default_rng(s) for s in seeds)

    actor = build_actor(market.n_assets, env_config.window, rng_init)
    critic = build_critic(market.n_assets, env_config.window, rng_init)
    agent = DDPG(actor, critic, train_config, arbitrage=env_config.arbitrage_enabled)

    env = TradingEnv(market, env_config)
    buffer = ReplayBuffer(env.cube, train_config.buffer_capacity)
    log = TrainLog()
    meta = checkpoint_meta(market, env_config, train_config)

    step = 0
    episode = 0
    try:
        while step < train_config.total_steps:
            state = env.reset(rng_env)
            start_step = step
            rewards: list[float] = []
            costs: list[float] = []
            done = False
            while not done and step < train_config.total_steps:
                action = agent.act(state, rng_noise)
                transition = env.step(action)
                buffer.add(transition)
                rewards.append(transition.reward)
                costs.append(transition.cost)
                if buffer.ready(train_config.batch_size):
                    batch = buffer.sample(train_config.batch_size, rng_sample)
                    agent.update_critic(batch)
                    agent.update_actor(batch)
                state = transition.next_state
                done = transition.done
                step += 1
            if done:
                log.records.append(EpisodeRecord(
                    episode=episode,
                    start_step=start_step,
                    mean_daily_return=float(np.mean(rewards)),
                    final_value=state.value,
                    mean_cost=float(np.mean(costs)),
                ))
                episode += 1
                if (checkpoint_dir is not None and checkpoint_every
                        and episode % checkpoint_every == 0):
                    save_checkpoint(
                        Path(checkpoint_dir) / f"checkpoint_ep{episode:05d}.json",
                        actor, critic, {**meta, "episode": episode, "step": step},
                    )
    except FloatingPointError as exc:
        raise TrainingDiverged(episode, step, log) from exc
    return actor, critic, log
