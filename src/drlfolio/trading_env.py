"""Daily trading process over an aligned market.

One step = one trading day. The submitted action is normalized into a valid
signed weight vector (benchmark sign rule applied when enabled), the cost of
trading out of the previously drifted book is charged, and the portfolio then
rides the next day's price relatives. The emitted reward is the daily log
return including the cost term, so rewards telescope into log(final/initial).

Training episodes start on a uniformly sampled day with a full observation
window behind it; backtests use the same stepping over a fixed range.

Observations: ``start_at`` builds the read-only observation block of the
whole run at once (``price_block``, one row per state: the start day and
every day a step lands on). Each state's ``tensor`` is a view of its row and
the state carries the block, so replay holds views rather than copies and a
policy may evaluate upcoming rows in one batch (``ddpg.greedy_policy``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateActionError, ProtocolError
from .market_data import AlignedMarket, PriceTensor, price_block, relative_prices
from .portfolio_math import (
    enforce_arbitrage,
    evolve_weights,
    initial_weights,
    normalize_signed,
    step_value,
    transaction_cost,
    validate_weights,
)


@dataclass(frozen=True)
class EnvConfig:
    window: int = 50
    episode_len: int = 252
    mu: float = 0.0025
    leverage: Optional[np.ndarray] = None
    arbitrage_enabled: bool = True

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError(f"window must be >= 2, got {self.window}")
        if self.episode_len < 1:
            raise ConfigError(f"episode_len must be >= 1, got {self.episode_len}")
        if not 0.0 <= self.mu < 1.0:
            raise ConfigError(f"cost rate must be in [0, 1), got {self.mu}")


@dataclass(frozen=True)
class EnvState:
    """One day of a run. ``tensor.data`` is row ``steps_done`` of ``block``, the
    run's observation block, which is left out of repr and equality."""

    tensor: PriceTensor
    weights: np.ndarray
    value: float
    t: int
    steps_done: int
    block: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if self.tensor.t != self.t:
            raise ValueError(f"tensor day {self.tensor.t} != state day {self.t}")
        if self.value <= 0:
            raise ValueError("portfolio value must be positive")


@dataclass(frozen=True)
class Transition:
    state: EnvState
    action: np.ndarray
    reward: float
    next_state: EnvState
    done: bool

    def __post_init__(self):
        if not np.isfinite(self.reward):
            raise ValueError("reward is not finite")


class TradingEnv:
    """Single-owner environment; step sequentially, share the market freely."""

    def __init__(self, market: AlignedMarket, config: EnvConfig = EnvConfig()):
        if config.leverage is not None:
            lam = np.asarray(config.leverage, dtype=np.float64)
            if lam.shape != (market.n_assets + 1,) or np.any(lam <= 0):
                raise ConfigError("leverage must be a positive vector of length m+1")
        self.market = market
        self.config = config
        self._state: Optional[EnvState] = None
        self._drift: Optional[np.ndarray] = None
        self._end_step: int = 0
        self.last_cost: float = 0.0

    @property
    def state(self) -> Optional[EnvState]:
        return self._state

    def reset(self, rng: np.random.Generator | int | None = None) -> EnvState:
        """Start an episode on a uniformly sampled day.

        Start days range over [window, len(market) - episode_len - 1] so every
        window day has a defined price relative; the market must therefore
        hold at least window + episode_len + 1 days.
        """
        n, ep = self.config.window, self.config.episode_len
        lo, hi = n, len(self.market) - ep - 1
        if hi < lo:
            raise ConfigError(
                f"market has {len(self.market)} days, need at least {n + ep + 1}"
            )
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        t0 = int(gen.integers(lo, hi + 1))
        return self.start_at(t0, ep)

    def start_at(self, t0: int, n_steps: int) -> EnvState:
        """Begin a deterministic run of n_steps decision days starting at day t0.

        Builds the run's observation block: days t0..t0 + n_steps, one row each.
        """
        n = self.config.window
        if t0 < n - 1:
            raise ConfigError(f"start day {t0} lacks a full {n}-day window")
        if n_steps < 1:
            raise ConfigError("need at least one step")
        if t0 + n_steps > len(self.market) - 1:
            raise ConfigError(
                f"run of {n_steps} steps from day {t0} overruns market length {len(self.market)}"
            )
        self._end_step = n_steps
        w0 = initial_weights(self.market.n_assets)
        self._drift = w0
        self.last_cost = 0.0
        block = price_block(self.market, t0, t0 + n_steps, n)
        self._state = EnvState(
            tensor=PriceTensor(data=block[0], t=t0, window=n),
            weights=w0,
            value=1.0,
            t=t0,
            steps_done=0,
            block=block,
        )
        return self._state

    def step(self, action_raw: np.ndarray) -> Transition:
        """Trade once, ride the next day's prices, emit the daily log return."""
        state = self._state
        if state is None:
            raise ProtocolError("step before reset")
        if state.steps_done >= self._end_step:
            raise ProtocolError("episode is done")

        try:
            target = normalize_signed(np.asarray(action_raw, dtype=np.float64))
        except DegenerateActionError:
            target = initial_weights(self.market.n_assets)
        if self.config.arbitrage_enabled:
            target = enforce_arbitrage(target)
        validate_weights(target)

        cost = transaction_cost(self._drift, target, self.config.mu)
        y = relative_prices(self.market, state.t + 1)
        value, reward = step_value(state.value, target, y, cost, self.config.leverage)
        self._drift = evolve_weights(target, y)
        self.last_cost = cost

        steps_done = state.steps_done + 1
        next_state = EnvState(
            tensor=PriceTensor(data=state.block[steps_done], t=state.t + 1,
                               window=self.config.window),
            weights=target,
            value=value,
            t=state.t + 1,
            steps_done=steps_done,
            block=state.block,
        )
        transition = Transition(
            state=state,
            action=target,
            reward=reward,
            next_state=next_state,
            done=steps_done >= self._end_step,
        )
        self._state = next_state
        return transition


def average_reward(trajectory: list[Transition]) -> float:
    """Mean daily log return over a trajectory."""
    if not trajectory:
        raise ValueError("empty trajectory")
    return float(np.mean([tr.reward for tr in trajectory]))
