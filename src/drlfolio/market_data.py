"""Daily OHLC ingestion, cross-asset alignment and observation-tensor construction.

CSV schema (one file per asset):
    header ``date,open,high,low,close``, UTF-8, dot decimal separator,
    ISO-8601 dates. A zero or unparseable price cell marks a missing value.

After alignment the date axis is an opaque ordinal index; positions are what
the rest of the package works with.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AlignmentError, FormatError, WindowError

FEATURES = ("close", "high", "low", "open")

CSV_HEADER = ("date", "open", "high", "low", "close")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PriceSeries:
    """One asset's daily OHLC history. Zero prices mean "missing that day"."""

    asset_id: str
    dates: tuple[str, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        n = len(self.dates)
        for name in ("open", "high", "low", "close"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise FormatError(f"{self.asset_id}: {name} length {arr.shape} != {n} dates")
            object.__setattr__(self, name, _freeze(arr))
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise FormatError(f"{self.asset_id}: dates are not strictly increasing")
        if any(np.any(getattr(self, name) < 0) for name in ("open", "high", "low", "close")):
            raise FormatError(f"{self.asset_id}: negative price")
        # OHLC ordering is only checkable on days where all four prices exist.
        full = (self.open > 0) & (self.high > 0) & (self.low > 0) & (self.close > 0)
        bad = full & (
            (self.low > self.open)
            | (self.low > self.close)
            | (self.open > self.high)
            | (self.close > self.high)
        )
        if np.any(bad):
            day = self.dates[int(np.flatnonzero(bad)[0])]
            raise FormatError(f"{self.asset_id}: inconsistent OHLC on {day}")

    def __len__(self) -> int:
        return len(self.dates)


def _parse_price(cell: str) -> float:
    """Missing or malformed cells (including negatives) collapse to 0."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return 0.0
    if not np.isfinite(value) or value < 0:
        return 0.0
    return value


def load_csv(path: str | Path, asset_id: str | None = None) -> PriceSeries:
    """Read one asset's OHLC file. Rows are sorted by date; duplicates are an error."""
    path = Path(path)
    if asset_id is None:
        asset_id = path.stem
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip().lower() for f in reader.fieldnames] != list(CSV_HEADER):
            raise FormatError(f"{path}: expected header {','.join(CSV_HEADER)}")
        rows = [
            (
                (row["date"] or "").strip(),
                _parse_price(row["open"]),
                _parse_price(row["high"]),
                _parse_price(row["low"]),
                _parse_price(row["close"]),
            )
            for row in reader
        ]
    if not rows:
        raise FormatError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    for a, b in zip(rows, rows[1:]):
        if a[0] == b[0]:
            raise FormatError(f"{path}: duplicate date {a[0]}")
    dates = tuple(r[0] for r in rows)
    cols = np.array([r[1:] for r in rows], dtype=np.float64)
    return PriceSeries(
        asset_id=asset_id,
        dates=dates,
        open=cols[:, 0],
        high=cols[:, 1],
        low=cols[:, 2],
        close=cols[:, 3],
    )


@dataclass(frozen=True)
class AlignedMarket:
    """m assets on one shared date axis, investment benchmark in the last slot.

    Price matrices are (m, T); row order matches ``asset_ids``.
    """

    asset_ids: tuple[str, ...]
    dates: tuple[str, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    benchmark_index: int = field(default=-1)

    def __post_init__(self):
        m, t = len(self.asset_ids), len(self.dates)
        for name in ("open", "high", "low", "close"):
            arr = getattr(self, name)
            if arr.shape != (m, t):
                raise AlignmentError(f"{name} has shape {arr.shape}, expected {(m, t)}")
            object.__setattr__(self, name, _freeze(arr))
        if self.benchmark_index == -1:
            object.__setattr__(self, "benchmark_index", m - 1)
        if not 0 <= self.benchmark_index < m:
            raise AlignmentError(f"benchmark index {self.benchmark_index} out of range")

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)

    def __len__(self) -> int:
        return len(self.dates)

    def feature(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def position_range(self, start_date: str, end_date: str) -> tuple[int, int]:
        """Inclusive positions of the first/last trading day inside [start, end]."""
        lo = bisect_left(self.dates, start_date)
        hi = bisect_right(self.dates, end_date) - 1
        if lo > hi:
            raise KeyError(f"no trading days in [{start_date}, {end_date}]")
        return lo, hi

    def restrict(self, lo: int, hi: int) -> "AlignedMarket":
        """New market containing day positions lo..hi inclusive."""
        if not (0 <= lo <= hi < len(self)):
            raise ValueError(f"bad restriction [{lo}, {hi}] for length {len(self)}")
        return AlignedMarket(
            asset_ids=self.asset_ids,
            dates=self.dates[lo : hi + 1],
            open=self.open[:, lo : hi + 1],
            high=self.high[:, lo : hi + 1],
            low=self.low[:, lo : hi + 1],
            close=self.close[:, lo : hi + 1],
            benchmark_index=self.benchmark_index,
        )


def align(series: list[PriceSeries], benchmark: str) -> AlignedMarket:
    """Restrict all series to their common dates and put the benchmark last."""
    if len(series) < 2:
        raise AlignmentError("need at least two price series (one benchmark, one asset)")
    ids = [s.asset_id for s in series]
    if len(set(ids)) != len(ids):
        raise AlignmentError("duplicate asset ids")
    if benchmark not in ids:
        raise AlignmentError(f"benchmark {benchmark!r} not among assets {ids}")

    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        raise AlignmentError(
            "no common trading days across " + ", ".join(ids)
        )
    dates = tuple(sorted(common))

    ordered = [s for s in series if s.asset_id != benchmark]
    ordered.append(next(s for s in series if s.asset_id == benchmark))

    m, t = len(ordered), len(dates)
    mats = {name: np.empty((m, t)) for name in ("open", "high", "low", "close")}
    for i, s in enumerate(ordered):
        pos = {d: k for k, d in enumerate(s.dates)}
        idx = np.array([pos[d] for d in dates], dtype=np.intp)
        for name in mats:
            mats[name][i] = getattr(s, name)[idx]

    return AlignedMarket(
        asset_ids=tuple(s.asset_id for s in ordered),
        dates=dates,
        benchmark_index=m - 1,
        **mats,
    )


@dataclass(frozen=True)
class PriceTensor:
    """Normalized observation block of shape (4 features, m assets, window)."""

    data: np.ndarray
    t: int
    window: int

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[0] != len(FEATURES):
            raise ValueError(f"bad tensor shape {self.data.shape}")
        if self.data.shape[2] != self.window:
            raise ValueError("tensor width disagrees with window")
        object.__setattr__(self, "data", _freeze(self.data))


def price_tensor(market: AlignedMarket, t: int, window: int) -> PriceTensor:
    """Window of per-asset prices ending at day t, divided by each asset's close at t.

    Missing (zero) prices yield ratio 1, so an untradeable asset-day reads as flat.
    The close feature's final column is exactly all ones.
    """
    if window < 2:
        raise WindowError(f"window must be >= 2, got {window}")
    if t < window - 1:
        raise WindowError(f"day {t} has only {t + 1} days of history, window needs {window}")
    if t >= len(market):
        raise WindowError(f"day {t} beyond market length {len(market)}")

    lo = t - window + 1
    denom = market.close[:, t]
    data = np.ones((len(FEATURES), market.n_assets, window))
    tradeable = denom > 0
    for f, name in enumerate(FEATURES):
        block = market.feature(name)[:, lo : t + 1]
        valid = tradeable[:, None] & (block > 0)
        np.divide(block, denom[:, None], out=data[f], where=valid)
    # Anchor column of the close feature is part of the contract: exactly one.
    data[0, :, -1] = 1.0
    return PriceTensor(data=data, t=t, window=window)


def relative_prices(market: AlignedMarket, t: int) -> np.ndarray:
    """Close-over-previous-close vector of length m+1; element 0 is cash and fixed at 1.

    Any day involving a missing close reads as flat (ratio 1).
    """
    if t < 1 or t >= len(market):
        raise WindowError(f"day {t} has no previous day or is beyond the market")
    y = np.ones(market.n_assets + 1)
    cur, prev = market.close[:, t], market.close[:, t - 1]
    valid = (cur > 0) & (prev > 0)
    np.divide(cur, prev, out=y[1:], where=valid)
    return y
