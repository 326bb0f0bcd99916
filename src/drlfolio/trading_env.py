"""Daily trading process over an aligned market.

One step = one trading day, settled by ``settle``: the submitted action is
normalized into a valid signed weight vector (benchmark sign rule applied when
enabled; all zero after the cash clamp reads as all cash), the cost of trading
out of the held book is charged, and the portfolio then rides the next day's
price relatives. The emitted reward is the daily log return including the cost
term, so rewards telescope into log(final/initial). ``EnvState.weights`` is
the book held entering a day: all cash at the start, then the previous day's
weights drifted by its prices.

Training episodes start on a uniformly sampled day with a full observation
window behind it, and the agent acting in them always explores
(``ddpg.DDPG.act``); a backtest (``analytics.run_backtest``) settles all the
days of a fixed range in one ``settle`` call on the noise-free
``ddpg.greedy_policy``.

Observations: each environment builds one read-only observation cube
(``price_block``) over every day of its market that has a full window; row r
is the window ending at day r + window - 1. Each state stores its ``row`` and
carries the cube; its ``obs`` is a view of ``cube[row]``, so replay stores row
numbers (``ddpg.ReplayBuffer``). The cube takes (T - window + 1) * 4 * m *
window * 8 bytes for a T-day market; restrict the market to bound it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ProtocolError
from .market_data import FEATURES, AlignedMarket, price_block, relative_prices
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
        # A day trades at most twice the book, so its cost is at most 2 * mu.
        if not 0.0 <= self.mu < 0.5:
            raise ConfigError(f"cost rate must be in [0, 0.5), got {self.mu}")


@dataclass(frozen=True)
class EnvState:
    """Day ``t`` of a run, entered holding ``weights`` at ``value``; its observation is row
    ``row`` of ``cube``, the environment's cube, which is left out of repr and equality."""

    weights: np.ndarray
    value: float
    t: int
    row: int
    cube: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("portfolio value must be positive")

    @property
    def obs(self) -> np.ndarray:
        """The (4, m, window) observation of day ``t``: a read-only view of ``cube[row]``."""
        return self.cube[self.row]


@dataclass(frozen=True)
class Transition:
    state: EnvState
    action: np.ndarray
    reward: float
    cost: float
    next_state: EnvState
    done: bool

    def __post_init__(self):
        if not np.isfinite(self.reward):
            raise ValueError("reward is not finite")


class TradingEnv:
    """Single-owner environment; step sequentially, share the market freely."""

    def __init__(self, market: AlignedMarket, config: EnvConfig = EnvConfig()):
        check_leverage(config, market.n_assets)
        self.market = market
        self.config = config
        n = config.window
        # A market shorter than the window has no rows; start_at refuses every run on it.
        self.cube = (price_block(market, n - 1, len(market) - 1, n) if len(market) >= n
                     else np.empty((0, len(FEATURES), market.n_assets, n)))
        self._relatives = relative_prices(market, np.arange(1, len(market)))  # row t: day t + 1
        self._state: Optional[EnvState] = None
        self._end_t: int = 0

    def start_days(self) -> tuple[int, int]:
        """The first and last day an episode may start on: [window, len(market) -
        episode_len - 1], so every window day has a defined price relative. A
        market of fewer than window + episode_len + 1 days raises ConfigError."""
        n, ep = self.config.window, self.config.episode_len
        lo, hi = n, len(self.market) - ep - 1
        if hi < lo:
            raise ConfigError(
                f"market has {len(self.market)} days, need at least {n + ep + 1}"
            )
        return lo, hi

    def reset(self, rng: np.random.Generator | int) -> EnvState:
        """Start an episode on a day of ``start_days`` drawn uniformly with ``rng``,
        a generator or a seed."""
        lo, hi = self.start_days()
        t0 = int(np.random.default_rng(rng).integers(lo, hi + 1))
        return self.start_at(t0, self.config.episode_len)

    def start_at(self, t0: int, n_steps: int) -> EnvState:
        """Begin a deterministic run of n_steps decision days starting at day t0."""
        check_run(len(self.market), self.config.window, t0, n_steps)
        self._end_t = t0 + n_steps
        return self._enter(t0, initial_weights(self.market.n_assets), 1.0)

    def _enter(self, t: int, weights: np.ndarray, value: float) -> EnvState:
        self._state = EnvState(weights=weights, value=value, t=t,
                               row=t - self.config.window + 1, cube=self.cube)
        return self._state

    def step(self, action_raw: np.ndarray) -> Transition:
        """Trade once, ride the next day's prices, emit the daily log return."""
        state = self._state
        if state is None:
            raise ProtocolError("step before reset")
        if state.t >= self._end_t:
            raise ProtocolError("episode is done")

        weights, costs, values, rewards, held = settle(
            np.asarray(action_raw)[None], self._relatives[state.t : state.t + 1],
            state.weights, state.value, self.config, state.t + 1)
        return Transition(state=state, action=weights[0], reward=float(rewards[0]),
                          cost=float(costs[0]),
                          next_state=self._enter(state.t + 1, held, float(values[0])),
                          done=state.t + 1 >= self._end_t)


def settle(raw: np.ndarray, y: np.ndarray, held: np.ndarray, value: float,
           config: EnvConfig, day: int) -> tuple[np.ndarray, ...]:
    """Settle consecutive days, one row of raw actions and relatives ``y`` each,
    entered holding the book ``held`` at ``value``; ``day`` is the first row's
    return day. Returns the per-day (weights, costs, values, log_returns) and
    the book held after the last day. A value outside (0, inf), which a large
    leverage can reach, raises ConfigError."""
    weights = normalize_signed(raw)
    if config.arbitrage_enabled:
        weights = enforce_arbitrage(weights)
    validate_weights(weights)
    drifted = evolve_weights(weights, y)
    costs = transaction_cost(np.concatenate([held[None], drifted[:-1]]), weights, config.mu)
    values, log_returns = step_value(value, weights, y, costs, config.leverage)
    kept = (values > 0) & (values < np.inf)
    if not kept.all():
        k = int(np.argmin(kept))
        raise ConfigError(f"portfolio value {float(values[k])!r} on day {day + k} is outside "
                          "(0, inf); lower the leverage")
    return weights, costs, values, log_returns, drifted[-1]


def check_leverage(config: EnvConfig, n_assets: int) -> None:
    if config.leverage is not None:
        lam = np.asarray(config.leverage, dtype=np.float64)
        if lam.shape != (n_assets + 1,) or not ((lam > 0) & (lam < np.inf)).all():
            raise ConfigError("leverage must be a positive finite vector of length m+1")


def check_run(days: int, window: int, t0: int, n_steps: int) -> None:
    """Raise ConfigError unless n_steps >= 1 decisions from day t0, each with a
    full window and a next day, fit a market of ``days`` days."""
    if t0 < window - 1:
        raise ConfigError(f"first return day {t0 + 1} has {t0 + 1} days of history, need {window}")
    if n_steps < 1:
        raise ConfigError("need at least one step")
    if t0 + n_steps > days - 1:
        raise ConfigError(f"run of {n_steps} steps from day {t0} overruns market length {days}")
