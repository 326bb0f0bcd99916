"""Backtest runs, the seven summary metrics, and the training diagnostic.

Conventions, also echoed in every JSON summary: annualization factor is
sqrt(252), the risk-free rate is zero, standard deviations are population
(not sample), and a ratio whose denominator is zero is reported as None
(rendered null/empty), never as infinity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .market_data import AlignedMarket, price_block, relative_prices, write_csv
from .portfolio_math import initial_weights
from .trading_env import EnvConfig, check_leverage, check_run, settle

ANNUALIZATION = float(np.sqrt(252.0))

METRIC_NAMES = (
    "simple_daily_return",
    "log_daily_return",
    "simple_annual_sharpe",
    "log_annual_sharpe",
    "simple_annual_sortino",
    "log_annual_sortino",
    "mdd",
)


@dataclass(frozen=True)
class BacktestReport:
    """Per-day trajectories of one strategy run. values has one leading entry (the start)."""

    day_indices: tuple[int, ...]
    dates: tuple[str, ...]
    asset_ids: tuple[str, ...]
    values: np.ndarray
    weights: np.ndarray
    costs: np.ndarray
    log_returns: np.ndarray
    simple_returns: np.ndarray

    def __post_init__(self):
        t = len(self.day_indices)
        if not (len(self.values) == t + 1 and len(self.costs) == t
                and len(self.log_returns) == t and len(self.simple_returns) == t
                and self.weights.shape[0] == t):
            raise ValueError("report series lengths disagree")
        if np.any(self.values <= 0):
            raise ValueError("portfolio value must stay positive")
        if not np.all(np.isfinite(self.log_returns)):
            raise ValueError("log returns must be finite")

    @classmethod
    def from_days(cls, market: AlignedMarket, start: int, values: np.ndarray, weights: np.ndarray,
                  costs: np.ndarray, log_returns: np.ndarray) -> "BacktestReport":
        """Report of decision days start, start + 1, ...; ``values`` leaves out the start's 1.0."""
        end = start + len(weights)
        values = np.concatenate([[1.0], values])
        return cls(
            day_indices=tuple(range(start + 1, end + 1)),
            dates=tuple(market.dates[start + 1 : end + 1]),
            asset_ids=market.asset_ids,
            values=values,
            weights=np.asarray(weights),
            costs=np.asarray(costs),
            log_returns=np.asarray(log_returns),
            simple_returns=values[1:] / values[:-1] - 1.0,
        )


def run_backtest(
    policy: Callable[[np.ndarray], np.ndarray],
    market: AlignedMarket,
    config: EnvConfig,
    start: int,
    end: int,
) -> BacktestReport:
    """Greedy contiguous run from all cash at value 1: decisions on days
    [start, end), returns on (start, end].

    The policy is called once, on the run's observation rows
    (end - start, 4, m, window), and returns one raw action per day,
    (end - start, m + 1). The days are settled in one ``settle`` call, the
    function that settles each ``TradingEnv.step``.
    """
    check_run(len(market), config.window, start, end - start)
    check_leverage(config, market.n_assets)
    shape = (end - start, market.n_assets + 1)
    raw = np.asarray(policy(price_block(market, start, end - 1, config.window)), dtype=np.float64)
    if raw.shape != shape:
        raise ValueError(f"policy gave actions of shape {raw.shape}, expected {shape}")
    y = relative_prices(market, np.arange(start + 1, end + 1))
    weights, costs, values, log_returns, _ = settle(raw, y, initial_weights(market.n_assets),
                                                    1.0, config, start + 1)
    return BacktestReport.from_days(market, start, values, weights, costs, log_returns)


def max_drawdown(values: np.ndarray) -> float:
    """Largest peak-to-trough relative loss of a value series."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) < 1:
        raise ValueError("need a value series")
    peaks = np.maximum.accumulate(values)
    return float(np.max(1.0 - values / peaks))


def _ratio(returns: np.ndarray, downside_only: bool) -> Optional[float]:
    mean = float(np.mean(returns))
    if downside_only:
        denom = float(np.sqrt(np.mean(np.minimum(returns, 0.0) ** 2)))
    else:
        denom = float(np.std(returns))
    # A constant return series carries float-epsilon jitter; treat a deviation
    # that small relative to the mean as zero rather than report a huge ratio.
    if denom == 0.0 or denom <= abs(mean) * 1e-12:
        return None
    return mean / denom * ANNUALIZATION


def metric_suite(report: BacktestReport) -> dict[str, Optional[float]]:
    """The seven summary numbers; zero-deviation ratios come back as None."""
    if len(report.log_returns) < 2:
        raise ValueError("need at least two days of returns")
    simple, logr = report.simple_returns, report.log_returns
    return {
        "simple_daily_return": float(np.mean(simple)),
        "log_daily_return": float(np.mean(logr)),
        "simple_annual_sharpe": _ratio(simple, downside_only=False),
        "log_annual_sharpe": _ratio(logr, downside_only=False),
        "simple_annual_sortino": _ratio(simple, downside_only=True),
        "log_annual_sortino": _ratio(logr, downside_only=True),
        "mdd": max_drawdown(report.values),
    }


def training_slope(log) -> tuple[float, float]:
    """OLS of a ``ddpg.TrainLog``'s per-episode mean daily return against the episode's
    start step. Returns (slope, intercept).
    """
    x = np.array([r.start_step for r in log.records], dtype=np.float64)
    y = np.array([r.mean_daily_return for r in log.records], dtype=np.float64)
    if len(x) < 2:
        raise ValueError("need at least two episodes for a regression line")
    x_mean, y_mean = x.mean(), y.mean()
    var = float(np.sum((x - x_mean) ** 2))
    if var == 0.0:
        raise ValueError("episode start steps are all identical")
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / var)
    return slope, float(y_mean - slope * x_mean)


# ---------------------------------------------------------------------------
# Report output: JSON summary, per-day series CSV, weights CSV, plot CSV.

def write_report(report: BacktestReport, out_dir: str | Path) -> dict[str, Optional[float]]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = metric_suite(report)

    summary = {
        "metrics": metrics,
        "days": len(report.day_indices),
        "final_value": float(report.values[-1]),
        "annualization_factor": "sqrt(252)",
        "risk_free_rate": 0.0,
        "deviation": "population",
    }
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    days, dates = report.day_indices, report.dates
    write_csv(out / "series.csv", ("day", "date", "value", "cost", "log_return", "simple_return"),
              (days, dates, report.values[1:], report.costs, report.log_returns,
               report.simple_returns))
    write_csv(out / "weights.csv", ("day", "date", "cash", *report.asset_ids),
              (days, dates, *report.weights.T))
    write_csv(out / "plot.csv", ("step", "value"), (range(len(report.values)), report.values))

    return metrics
