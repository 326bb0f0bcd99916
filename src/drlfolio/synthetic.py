"""Synthetic markets and factor panels for tests, demos and smoke training."""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .baseline_factor import FACTOR_HEADER, FactorPanel
from .market_data import CSV_HEADER, AlignedMarket, write_csv


def trading_dates(n_days: int, start: str = "2015-01-01") -> tuple[str, ...]:
    first = date.fromisoformat(start)
    return tuple((first + timedelta(days=k)).isoformat() for k in range(n_days))


def market_from_closes(
    closes: np.ndarray,
    asset_ids: list[str] | None = None,
    start_date: str = "2015-01-01",
) -> AlignedMarket:
    """Wrap an (m, T) close matrix into a market with consistent synthetic OHLC."""
    closes = np.asarray(closes, dtype=np.float64)
    m, t = closes.shape
    if asset_ids is None:
        asset_ids = [f"asset{i}" for i in range(m)]
    opens = np.column_stack([closes[:, 0], closes[:, :-1]])
    hi = np.maximum(opens, closes) * 1.001
    lo = np.minimum(opens, closes) * 0.999
    return AlignedMarket(
        asset_ids=tuple(asset_ids),
        dates=trading_dates(t, start_date),
        open=opens,
        high=hi,
        low=lo,
        close=closes,
    )


def drift_market(
    n_days: int,
    drifts: list[float],
    sigma: float = 0.0,
    seed: int = 0,
    asset_ids: list[str] | None = None,
    start_price: float = 100.0,
    start_date: str = "2015-01-01",
) -> AlignedMarket:
    """Geometric price paths with per-asset daily log drift; last asset is the benchmark."""
    rng = np.random.default_rng(seed)
    m = len(drifts)
    steps = np.array(drifts)[:, None] + sigma * rng.standard_normal((m, n_days - 1))
    log_prices = np.concatenate([np.zeros((m, 1)), np.cumsum(steps, axis=1)], axis=1)
    return market_from_closes(start_price * np.exp(log_prices), asset_ids, start_date)


def write_market_csvs(market: AlignedMarket, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, asset in enumerate(market.asset_ids):
        path = out / f"{asset}.csv"
        write_csv(path, CSV_HEADER, (market.dates, *market.prices[:, i]))
        paths.append(path)
    return paths


def ranked_factor_universe(
    n_long: int = 20,
    n_short: int = 20,
    n_days: int = 120,
    up: float = 0.01,
    down: float = -0.01,
) -> tuple[AlignedMarket, FactorPanel]:
    """Universe with strictly ranked factors where the top names rise and the bottom fall.

    Assets 0..n_long-1 drift up, the next n_short drift down, and a flat
    benchmark sits last with no factor data (so it is never selected).
    """
    m = n_long + n_short
    drifts = [up] * n_long + [down] * n_short + [0.0]
    ids = [f"stock{i:02d}" for i in range(m)] + ["benchmark"]
    market = drift_market(n_days, drifts, sigma=0.0, asset_ids=ids)

    # Strictly decreasing scores in asset order: high ep and low turnover first.
    ep = np.repeat(np.linspace(1.0, 0.5, m)[:, None], n_days, axis=1)
    turnover = np.repeat(np.linspace(0.1, 0.9, m)[:, None], n_days, axis=1)
    ep_full = np.vstack([ep, np.full((1, n_days), np.nan)])
    turnover_full = np.vstack([turnover, np.full((1, n_days), np.nan)])
    panel = FactorPanel(asset_ids=market.asset_ids, dates=market.dates,
                        ep_ratio=ep_full, turnover=turnover_full)
    return market, panel


def write_factor_csv(panel: FactorPanel, path: str | Path) -> Path:
    path = Path(path)
    i, j = np.nonzero(np.isfinite(panel.ep_ratio) & np.isfinite(panel.turnover))
    write_csv(path, FACTOR_HEADER, (np.array(panel.dates, dtype=object)[j],
                                    np.array(panel.asset_ids, dtype=object)[i],
                                    panel.ep_ratio[i, j], panel.turnover[i, j]))
    return path
