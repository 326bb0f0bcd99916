"""Rank-based long-short baseline on earnings-to-price and turnover.

Each day the risky universe is scored from the previous day's data as
0.5 * ep_ratio - 0.5 * turnover (cheap, quiet names score high), the top
long_n names are held at +1/(long_n+short_n), the bottom short_n names at
-1/(long_n+short_n), and the day's log return is the score-book dotted with
per-asset log price relatives. No transaction costs, no leverage, and no
benchmark position, so the benchmark sign rule never applies.

Factor CSV schema: header ``date,asset,ep_ratio,turnover`` (long format), read
and date-checked as ``market_data`` reads a price file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InsufficientUniverseError
from .market_data import AlignedMarket, parse_dates, parse_floats, read_columns, relative_prices
from .portfolio_math import step_value
from .analytics import BacktestReport
from .trading_env import check_run


FACTOR_HEADER = ("date", "asset", "ep_ratio", "turnover")


@dataclass(frozen=True)
class FactorPanel:
    """Per-asset, per-day factor values on the market's axes; NaN marks missing."""

    asset_ids: tuple[str, ...]
    dates: tuple[str, ...]
    ep_ratio: np.ndarray
    turnover: np.ndarray

    def __post_init__(self):
        shape = (len(self.asset_ids), len(self.dates))
        for name in ("ep_ratio", "turnover"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")


def load_factor_csv(path: str | Path, market: AlignedMarket) -> FactorPanel:
    """Align a long-format factor file onto the market's assets and dates.

    A row counts where its asset is one of the market's risky assets, its date
    is on the market's axis and its ep_ratio parses; its turnover counts where
    that parses too. The benchmark's rows are skipped, so it is never scored.
    A later row overwrites an earlier one. A date that is not a ``YYYY-MM-DD``
    calendar date is a FormatError.
    """
    path = Path(path)
    asset_pos = {a: i for i, a in enumerate(market.asset_ids[:-1])}
    date_pos = {d: j for j, d in enumerate(market.dates)}
    shape = (market.n_assets, len(market))
    ep = np.full(shape, np.nan)
    turnover = np.full(shape, np.nan)
    for dates, assets, ep_cells, turnover_cells in read_columns(path, FACTOR_HEADER):
        i = np.array([asset_pos.get((cell or "").strip(), -1) for cell in assets])
        j = np.array([date_pos.get(date, -1) for date in parse_dates(path, dates)])
        flat = i * len(market) + j
        ep_value, ep_ok = parse_floats(ep_cells)
        turnover_value, turnover_ok = parse_floats(turnover_cells)
        counts = (i >= 0) & (j >= 0) & ep_ok
        _put_last(ep, flat[counts], ep_value[counts])
        both = counts & turnover_ok
        _put_last(turnover, flat[both], turnover_value[both])
    return FactorPanel(asset_ids=market.asset_ids, dates=market.dates,
                       ep_ratio=ep, turnover=turnover)


def _put_last(target: np.ndarray, flat: np.ndarray, values: np.ndarray) -> None:
    """``target.flat[flat[k]] = values[k]`` in order of k: the last write to a cell wins."""
    cells, first = np.unique(flat[::-1], return_index=True)
    target.flat[cells] = values[::-1][first]


def factor_score(panel: FactorPanel, t: int) -> np.ndarray:
    """Scores for day t from day t-1 data; NaN where either factor is missing."""
    if t < 1 or t >= len(panel.dates):
        raise ValueError(f"day {t} has no previous day inside the panel")
    scores = 0.5 * panel.ep_ratio[:, t - 1] - 0.5 * panel.turnover[:, t - 1]
    return scores


def check_book(long_n: int, short_n: int) -> None:
    if long_n < 1 or short_n < 1:
        raise ConfigError("long_n and short_n must be positive")


def select_weights(scores: np.ndarray, long_n: int = 20, short_n: int = 20) -> np.ndarray:
    """Equal-magnitude long/short book over the scored universe, cash at zero.

    Ties keep the universe's asset order. Raises when fewer than
    long_n + short_n assets have finite scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    check_book(long_n, short_n)
    scorable = np.flatnonzero(np.isfinite(scores))
    if len(scorable) < long_n + short_n:
        raise InsufficientUniverseError(
            f"{len(scorable)} scorable assets < {long_n + short_n} required"
        )
    order = scorable[np.argsort(-scores[scorable], kind="stable")]
    unit = 1.0 / (long_n + short_n)
    w = np.zeros(len(scores) + 1)
    w[1 + order[:long_n]] = unit
    w[1 + order[len(order) - short_n :]] = -unit
    return w


def run_factor_backtest(
    market: AlignedMarket,
    panel: FactorPanel,
    start: int,
    end: int,
    long_n: int = 20,
    short_n: int = 20,
) -> BacktestReport:
    """Daily-rebalanced factor book over decisions [start, end), returns on (start, end].

    Zero cost and unit leverage throughout; the value series compounds the
    daily weighted log return (``step_value`` over all the days at once).
    """
    check_run(len(market), 1, start, end - start)
    days = range(start + 1, end + 1)
    weights = np.stack([select_weights(factor_score(panel, day), long_n, short_n) for day in days])
    costs = np.zeros(len(days))
    values, log_returns = step_value(1.0, weights, relative_prices(market, np.array(days)), costs)
    return BacktestReport.from_days(market, start, values, weights, costs, log_returns)
