"""Rank-based long-short baseline on earnings-to-price and turnover.

Each day the risky universe is scored from the previous day's data as
0.5 * ep_ratio - 0.5 * turnover (cheap, quiet names score high), the top
long_n names are held at +1/(long_n+short_n), the bottom short_n names at
-1/(long_n+short_n), and the day's log return is the score-book dotted with
per-asset log price relatives. No transaction costs, no leverage, and no
benchmark position, so the benchmark sign rule never applies.

Factor CSV schema: header ``date,asset,ep_ratio,turnover`` (long format).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InsufficientUniverseError
from .market_data import AlignedMarket, relative_prices
from .portfolio_math import weighted_log_return
from .analytics import BacktestReport


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
    """Align a long-format factor file onto the market's assets and dates."""
    header = ("date", "asset", "ep_ratio", "turnover")
    asset_pos = {a: i for i, a in enumerate(market.asset_ids)}
    date_pos = {d: j for j, d in enumerate(market.dates)}
    shape = (market.n_assets, len(market))
    ep = np.full(shape, np.nan)
    turnover = np.full(shape, np.nan)
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip().lower() for f in reader.fieldnames] != list(header):
            raise FormatError(f"{path}: expected header {','.join(header)}")
        for row in reader:
            i = asset_pos.get((row["asset"] or "").strip())
            j = date_pos.get((row["date"] or "").strip())
            if i is None or j is None:
                continue
            try:
                ep[i, j] = float(row["ep_ratio"])
                turnover[i, j] = float(row["turnover"])
            except (TypeError, ValueError):
                continue
    return FactorPanel(asset_ids=market.asset_ids, dates=market.dates,
                       ep_ratio=ep, turnover=turnover)


def factor_score(panel: FactorPanel, t: int) -> np.ndarray:
    """Scores for day t from day t-1 data; NaN where either factor is missing."""
    if t < 1 or t >= len(panel.dates):
        raise ValueError(f"day {t} has no previous day inside the panel")
    scores = 0.5 * panel.ep_ratio[:, t - 1] - 0.5 * panel.turnover[:, t - 1]
    return scores


def select_weights(scores: np.ndarray, long_n: int = 20, short_n: int = 20) -> np.ndarray:
    """Equal-magnitude long/short book over the scored universe, cash at zero.

    Ties keep the universe's asset order. Raises when fewer than
    long_n + short_n assets have finite scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if long_n < 1 or short_n < 1:
        raise ValueError("long_n and short_n must be positive")
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
    daily weighted log return.
    """
    if end <= start:
        raise ValueError(f"empty backtest range [{start}, {end})")
    if end > len(market) - 1:
        raise ValueError(f"range end {end} beyond market length {len(market)}")

    values = [1.0]
    weights, log_returns = [], []
    for day in range(start + 1, end + 1):
        w = select_weights(factor_score(panel, day), long_n, short_n)
        y = relative_prices(market, day)
        r = weighted_log_return(w, y)
        values.append(values[-1] * float(np.exp(r)))
        weights.append(w)
        log_returns.append(r)

    return BacktestReport.from_days(market, start, values, weights, [0.0] * len(weights),
                                    log_returns)
