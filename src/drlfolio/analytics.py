"""Backtest rollouts, the seven summary metrics, and the training diagnostic.

Conventions, also echoed in every JSON summary: annualization factor is
sqrt(252), the risk-free rate is zero, standard deviations are population
(not sample), and a ratio whose denominator is zero is reported as None
(rendered null/empty), never as infinity.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .market_data import AlignedMarket
from .trading_env import EnvConfig, EnvState, TradingEnv

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

    @classmethod
    def from_days(cls, market: AlignedMarket, start: int, values: list[float],
                  weights: list[np.ndarray], costs: list[float],
                  log_returns: list[float]) -> "BacktestReport":
        """Report of the decisions made on days start, start + 1, ...: one weight
        vector, cost and log return per day, values with the starting 1.0 first."""
        end = start + len(weights)
        values = np.array(values)
        return cls(
            day_indices=tuple(range(start + 1, end + 1)),
            dates=tuple(market.dates[start + 1 : end + 1]),
            asset_ids=market.asset_ids,
            values=values,
            weights=np.stack(weights),
            costs=np.array(costs),
            log_returns=np.array(log_returns),
            simple_returns=values[1:] / values[:-1] - 1.0,
        )


def run_backtest(
    policy: Callable[[EnvState], np.ndarray],
    market: AlignedMarket,
    config: EnvConfig,
    start: int,
    end: int,
) -> BacktestReport:
    """Greedy contiguous rollout: decisions on days [start, end), returns on (start, end]."""
    if end <= start:
        raise ConfigError(f"empty backtest range [{start}, {end})")
    env = TradingEnv(market, config)
    state = env.start_at(start, end - start)

    values = [1.0]
    weights, costs, log_returns = [], [], []
    done = False
    while not done:
        transition = env.step(policy(state))
        weights.append(transition.action)
        costs.append(env.last_cost)
        log_returns.append(transition.reward)
        values.append(transition.next_state.value)
        state = transition.next_state
        done = transition.done

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


def training_slope(records) -> tuple[float, float]:
    """OLS of per-episode mean daily return against the episode's start step.

    Accepts a TrainLog or any iterable of objects with start_step and
    mean_daily_return attributes. Returns (slope, intercept).
    """
    entries = getattr(records, "records", records)
    x = np.array([r.start_step for r in entries], dtype=np.float64)
    y = np.array([r.mean_daily_return for r in entries], dtype=np.float64)
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

    with (out / "series.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "date", "value", "cost", "log_return", "simple_return"])
        for k, day in enumerate(report.day_indices):
            writer.writerow([
                day, report.dates[k], repr(float(report.values[k + 1])),
                repr(float(report.costs[k])), repr(float(report.log_returns[k])),
                repr(float(report.simple_returns[k])),
            ])

    with (out / "weights.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "date", "cash", *report.asset_ids])
        for k, day in enumerate(report.day_indices):
            writer.writerow([day, report.dates[k],
                             *(repr(float(w)) for w in report.weights[k])])

    with (out / "plot.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "value"])
        for k, v in enumerate(report.values):
            writer.writerow([k, repr(float(v))])

    return metrics
