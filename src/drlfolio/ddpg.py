"""Deterministic-policy actor-critic trainer with replay and soft targets.

The policy as deployed is actor -> min-max activation -> benchmark sign rule
(``policy_weights``). Acting, the target policy and the actor update all go
through that one chain, and the actor update differentiates through it, so
the critic is always evaluated on actions the environment could receive.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
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
        if min(self.critic_lr, self.actor_lr, self.tau) <= 0:
            raise ConfigError("learning rates and tau must be positive")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ConfigError("need 1 <= batch_size <= buffer_capacity")
        if self.noise_var < 0:
            raise ConfigError("noise variance cannot be negative")
        if not 0.0 <= self.discount <= 1.0:
            raise ConfigError("discount must be in [0, 1]")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be positive")


class TrainingDiverged(ConfigError):
    """A network gave non-finite output during training; ``log`` holds the finished episodes."""

    def __init__(self, episode: int, step: int, log: TrainLog):
        super().__init__(f"training diverged at episode {episode}, step {step} "
                         "(non-finite network output)")
        self.log = log


class ReplayBuffer:
    """Fixed-capacity ring; overwrites oldest first, samples uniformly with replacement."""

    def __init__(self, capacity: int = 600):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._storage: list[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._storage)

    def add(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def ready(self, batch_size: int) -> bool:
        return len(self._storage) >= batch_size

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        if not self.ready(batch_size):
            raise ValueError(f"buffer holds {len(self)} < batch {batch_size}")
        idx = rng.integers(0, len(self._storage), size=batch_size)
        return [self._storage[i] for i in idx]


def explore_action(raw: np.ndarray, rng: np.random.Generator,
                   noise_var: float = 0.25) -> np.ndarray:
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
    """Adam over one flat parameter vector, moments and work buffers preallocated."""

    # Elements updated per pass. A block's slices of the parameters, gradient,
    # moments and work buffers stay in cache across the fourteen array
    # operations of a step instead of streaming from memory for each one.
    BLOCK = 32_768

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._work: np.ndarray | None = None
        self._t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """In place: m, v <- moments; param -= lr * m_hat / (sqrt(v_hat) + eps)."""
        if self._m is None:
            self._m, self._v = np.zeros_like(param), np.zeros_like(param)
            self._work = np.empty((2, min(self.BLOCK, param.size)))
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for lo in range(0, param.size, self.BLOCK):
            block = slice(lo, lo + self.BLOCK)
            p, g, m, v = param[block], grad[block], self._m[block], self._v[block]
            s, r = self._work[:, : p.size]
            m *= self.beta1
            m += np.multiply(g, 1 - self.beta1, out=s)
            v *= self.beta2
            np.multiply(g, 1 - self.beta2, out=s)
            v += np.multiply(s, g, out=s)
            np.sqrt(np.divide(v, b2t, out=s), out=s)
            s += self.eps
            np.multiply(np.divide(m, b1t, out=r), self.lr, out=r)
            p -= np.divide(r, s, out=r)


def soft_update(target: Network, online: Network, tau: float) -> None:
    """Blend online parameters into the target: theta_t <- tau*theta + (1-tau)*theta_t."""
    if target.spec() != online.spec():
        raise ValueError("networks do not share a parameter layout")
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat


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
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode", "step", "mean_daily_return", "final_value", "mean_cost"])
            for r in self.records:
                writer.writerow([r.episode, r.start_step, repr(r.mean_daily_return),
                                 repr(r.final_value), repr(r.mean_cost)])


def _batch_arrays(batch: list[Transition]):
    states = np.stack([tr.state.tensor.data for tr in batch])
    actions = np.stack([tr.action for tr in batch])
    rewards = np.array([tr.reward for tr in batch])[:, None]
    next_states = np.stack([tr.next_state.tensor.data for tr in batch])
    dones = np.array([1.0 if tr.done else 0.0 for tr in batch])[:, None]
    return states, actions, rewards, next_states, dones


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
        self._adam_actor = Adam(config.actor_lr)
        self._adam_critic = Adam(config.critic_lr)

    # -- acting ------------------------------------------------------------

    def act(self, state: EnvState, rng: np.random.Generator | None = None) -> np.ndarray:
        """Valid weight vector for a state; pass an rng to add exploration noise."""
        raw = self.actor.forward(state.tensor.data[None])
        if rng is not None:
            raw = explore_action(raw, rng, self.config.noise_var)
        weights, _ = policy_weights(raw, self.arbitrage)
        return weights[0]

    # -- updates -----------------------------------------------------------

    def critic_loss(self, batch: list[Transition]) -> float:
        """TD loss of the critic on a batch; its parameter gradient lands in ``critic.grad``."""
        states, actions, rewards, next_states, dones = _batch_arrays(batch)
        next_actions, _ = policy_weights(self.actor_target.forward(next_states), self.arbitrage)
        q_next = self.critic_target.forward(next_states, next_actions[:, 1:])
        targets = rewards + self.config.discount * (1.0 - dones) * q_next
        q = self.critic.forward(states, actions[:, 1:])
        diff = q - targets
        loss = float(np.mean(diff**2))
        self.critic.backward(2.0 * diff / diff.shape[0], input_grad=False)
        return loss

    def update_critic(self, batch: list[Transition]) -> float:
        loss = self.critic_loss(batch)
        self._adam_critic.step(self.critic.flat, self.critic.grad)
        return loss

    def actor_objective(self, batch: list[Transition]) -> float:
        """Mean Q of the deployed policy; its actor gradient lands in ``actor.grad``."""
        states = np.stack([tr.state.tensor.data for tr in batch])
        weights, weights_vjp = policy_weights(self.actor.forward(states), self.arbitrage)
        q = self.critic.forward(states, weights[:, 1:])
        objective = float(np.mean(q))

        d_weights = np.zeros_like(weights)
        d_weights[:, 1:] = self.critic.backward(np.full_like(q, 1.0 / q.shape[0]),
                                                param_grads=False)
        self.actor.backward(weights_vjp(d_weights), input_grad=False)
        return objective

    def update_actor(self, batch: list[Transition]) -> float:
        objective = self.actor_objective(batch)
        # Gradient ascent on the objective: step along the negated gradient.
        self._adam_actor.step(self.actor.flat, np.negative(self.actor.grad, out=self.actor.grad))
        return objective

    def soft_update_targets(self) -> None:
        soft_update(self.actor_target, self.actor, self.config.tau)
        soft_update(self.critic_target, self.critic, self.config.tau)


# Days of a run's observation block the greedy policy evaluates per actor forward.
GREEDY_BLOCK = 64


def greedy_policy(actor: Network, arbitrage: bool = True):
    """Noise-free policy closure for backtesting a trained actor.

    On a state whose weights it does not hold yet, the policy runs the actor
    on that state's row of its run's observation block and the next rows, up
    to GREEDY_BLOCK in all, and serves the following states of the run from
    the result. The memo belongs to one block, so the policy can be reused on
    another run or market; the actor must not change while a run is served.
    """
    block, first, weights = None, 0, None

    def policy(state: EnvState) -> np.ndarray:
        nonlocal block, first, weights
        row = state.steps_done
        if state.block is not block or not first <= row < first + len(weights):
            block, first = state.block, row
            weights, _ = policy_weights(actor.forward(block[row : row + GREEDY_BLOCK]),
                                        arbitrage)
        # A copy: the caller owns what it gets, and the memo may serve this row again.
        return weights[row - first].copy()

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
    seeds = np.random.SeedSequence(train_config.seed).spawn(4)
    rng_init, rng_env, rng_noise, rng_sample = (np.random.default_rng(s) for s in seeds)

    actor = build_actor(market.n_assets, env_config.window, rng_init)
    critic = build_critic(market.n_assets, env_config.window, rng_init)
    agent = DDPG(actor, critic, train_config, arbitrage=env_config.arbitrage_enabled)

    env = TradingEnv(market, env_config)
    buffer = ReplayBuffer(train_config.buffer_capacity)
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
                costs.append(env.last_cost)
                if buffer.ready(train_config.batch_size):
                    batch = buffer.sample(train_config.batch_size, rng_sample)
                    agent.update_critic(batch)
                    agent.update_actor(batch)
                    agent.soft_update_targets()
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
