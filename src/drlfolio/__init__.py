"""Signed-weight portfolio management: market data, weight calculus, a daily
trading environment, a DDPG trainer with from-scratch networks, backtest
analytics, and a rank-based long-short baseline."""

from .market_data import (
    AlignedMarket,
    PriceSeries,
    PriceTensor,
    align,
    load_csv,
    price_block,
    price_tensor,
    relative_prices,
)
from .portfolio_math import (
    enforce_arbitrage,
    enforce_arbitrage_batch,
    evolve_weights,
    initial_weights,
    normalize_signed,
    shorted_weight,
    step_value,
    transaction_cost,
    validate_weights,
    weighted_log_return,
)
from .trading_env import EnvConfig, EnvState, TradingEnv, Transition, average_reward
from .neural import (
    Network,
    build_actor,
    build_critic,
    load_checkpoint,
    minmax_action,
    minmax_action_batch,
    save_checkpoint,
)
from .ddpg import (DDPG, ReplayBuffer, TrainConfig, TrainLog, explore_action, greedy_policy,
                   policy_weights, soft_update, train)
from .analytics import BacktestReport, max_drawdown, metric_suite, run_backtest, training_slope
from .baseline_factor import FactorPanel, factor_score, run_factor_backtest, select_weights

__version__ = "0.1.0"
