"""Daily OHLC ingestion, cross-asset alignment and observation-tensor construction.

CSV schema (one file per asset):
    header ``date,open,high,low,close``, UTF-8, dot decimal separator,
    ``YYYY-MM-DD`` calendar dates in ASCII digits, so that string order is
    date order.
    A zero or unparseable price cell marks a missing value. On a day with
    all four prices, the low may not be above the open or close, nor the
    open or close above the high.
    The header is matched by name, ignoring case and surrounding spaces, and
    columns are then read by position. A file that is not UTF-8 is a
    FormatError. ``read_columns`` reads the file in blocks of ``CSV_BLOCK``
    rows, so its working memory does not grow with the file.

Every CSV file the package writes goes through ``write_csv``: one column at a
time, ``CSV_BLOCK`` rows per write, a float as its ``repr`` to read back exactly.

One type holds prices: ``load_csv`` reads a file as a one-asset
``AlignedMarket``, and ``align`` joins markets on their shared dates. A market's
prices are one read-only (4, m, T) array in ``OHLC`` order. After alignment the
date axis is an opaque ordinal index; positions are what the rest of the
package works with.

Observations: ``price_block`` builds the normalized windows of a run of
consecutive days in one vectorized pass, as one read-only
(days, 4, m, window) array; ``price_tensor`` is its one-day case, so the
normalization has one implementation. Row k of a block is bit for bit the
``price_tensor`` of its first day + k.
"""

from __future__ import annotations

import csv
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentError, FormatError, WindowError

FEATURES = ("close", "high", "low", "open")

OHLC = ("open", "high", "low", "close")  # the rows of AlignedMarket.prices, in CSV order
CSV_HEADER = ("date", *OHLC)
_FEATURE_ROWS = [OHLC.index(name) for name in FEATURES]

# parse_dates matches a block's dates joined by newlines in one pass (checking
# the joined length too rules out a newline inside one cell), then converts them
# to datetime64 in one call, which refuses a day or month the calendar lacks.
_DATE = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
_DATES = re.compile(f"{_DATE}(?:\n{_DATE})*")

# Rows parsed at a time. A read holds one block of cells as Python strings,
# so this bounds its working memory: on a 39k-row factor file the traced
# peak of load_factor_csv is 1.1 MiB at 512 rows, 18.6 MiB unblocked.
CSV_BLOCK = 512
_QUOTED = re.compile('[,"\r\n]')  # a written cell holding one of these is quoted


def read_columns(path: Path, header: tuple[str, ...]) -> Iterator[list[tuple]]:
    """Yield the data rows of a CSV file in blocks of at most ``CSV_BLOCK``, one tuple per column.

    The first row must be ``header`` up to case and surrounding spaces; cells
    are then read by position. Blank rows are skipped, a short row reads None
    in its missing cells, and cells past the header are ignored. A file that
    is not UTF-8 or not valid CSV raises FormatError naming the file.
    """
    width = len(header)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            names = next(reader, None)
            if names is None or [f.strip().lower() for f in names] != list(header):
                raise FormatError(f"{path}: expected header {','.join(header)}")
            rows = filter(None, reader)
            while block := list(islice(rows, CSV_BLOCK)):
                cols = list(islice(zip_longest(*block), width))
                yield cols + [(None,) * len(block)] * (width - len(cols))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_csv(path: str | Path, header: Sequence, columns: Sequence[Sequence]) -> None:
    """Write ``header`` and one sequence per column to ``path``, as ``csv.writer`` would.

    ``_cell`` writes a float (numpy's too) as its ``repr``, None as an empty cell, else ``str``,
    quoted if it holds ``,``, ``"``, ``\\r`` or ``\\n``. A numpy column is listed per block.
    """
    n = len(columns[0]) if len(columns) else 0
    if len(header) != len(columns) or any(len(c) != n for c in columns):
        raise ValueError("write_csv needs one column per header cell, all of one length")
    blocks = ([c[lo:lo + CSV_BLOCK] for c in columns] for lo in range(0, n, CSV_BLOCK))
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        for block in chain([[(h,) for h in header]], blocks):
            cells = (map(_cell, c.tolist() if isinstance(c, np.ndarray) else c) for c in block)
            rows = map(",".join, zip(*cells))
            if len(block) == 1:  # csv quotes a lone empty cell, so its row is not blank
                rows = (row or '""' for row in rows)
            fh.write("\r\n".join(rows) + "\r\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return float.__repr__(v)
    text = "" if v is None else str(v)
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def parse_floats(cells: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of each cell, and where it succeeded; NaN where it did not.

    Empty and absent (None) cells fail. Every other cell goes through one
    ``np.array(..., dtype=np.float64)``, which calls ``float()`` per string;
    only a column holding a cell it refuses is parsed cell by cell.
    """
    ok = np.ones(len(cells), dtype=bool)
    missing = [k for k, cell in enumerate(cells) if not cell]
    if missing:
        ok[missing] = False
        cells = ["nan" if not cell else cell for cell in cells]
    try:
        return np.array(cells, dtype=np.float64), ok
    except ValueError:
        values = np.full(len(cells), np.nan)
        for k, cell in enumerate(cells):
            try:
                values[k] = float(cell)
            except ValueError:
                ok[k] = False
        return values, ok


def date_error(text: str) -> str | None:
    """Why ``text`` is not a YYYY-MM-DD calendar date, or None when it is one."""
    if not re.fullmatch(_DATE, text):
        return "is not YYYY-MM-DD"
    try:
        np.datetime64(text, "D")
    except ValueError:
        return "is not a calendar date"
    return None


def parse_dates(path: Path, cells: tuple) -> list[str]:
    """The stripped date cells of a block; FormatError names the file and a cell
    that is not a YYYY-MM-DD calendar date."""
    dates = [(cell or "").strip() for cell in cells]
    joined = "\n".join(dates)
    if len(joined) == 11 * len(dates) - 1 and _DATES.fullmatch(joined):
        try:
            np.array(dates, dtype="datetime64[D]")
            return dates
        except ValueError:
            pass
    bad, why = next((d, why) for d in dates if (why := date_error(d)))
    raise FormatError(f"{path}: date {bad!r} {why}")


def load_csv(path: str | Path) -> AlignedMarket:
    """Read one asset's OHLC file as a one-asset market whose asset id is the file
    stem. Rows are sorted by date; a date that is not a ``YYYY-MM-DD`` calendar
    date or is repeated is an error.

    A price cell that is missing, malformed, non-finite or negative reads 0. On
    a day with all four prices, a low above the open or close, or an open or
    close above the high, is an error.
    """
    path = Path(path)
    dates, blocks = [], []
    for cols in read_columns(path, CSV_HEADER):
        dates += parse_dates(path, cols[0])
        blocks.append([parse_floats(cells)[0] for cells in cols[1:]])
    if not dates:
        raise FormatError(f"{path}: no data rows")
    prices = np.concatenate(blocks, axis=1)
    prices[~((prices >= 0) & (prices < np.inf))] = 0.0
    # Python string order on an object array: numpy's fixed-width strings
    # would drop trailing NUL characters.
    keys = np.array(dates, dtype=object)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if dup.size:
        raise FormatError(f"{path}: duplicate date {keys[dup[0]]}")
    prices = prices[:, order]
    open_, high, low, close = prices
    bad = (prices > 0).all(axis=0) & ((low > np.minimum(open_, close))
                                      | (np.maximum(open_, close) > high))
    if bad.any():
        raise FormatError(f"{path.stem}: inconsistent OHLC on {keys[np.argmax(bad)]}")
    return AlignedMarket((path.stem,), tuple(keys.tolist()), *prices[:, None])


@dataclass(frozen=True)
class AlignedMarket:
    """m assets on one shared date axis, investment benchmark in the last slot.

    The four (m, T) price matrices are copied into one read-only float64
    (4, m, T) array, ``prices``, in ``OHLC`` order; ``open``, ``high``, ``low``
    and ``close`` are its rows. Asset order matches ``asset_ids``.
    """

    asset_ids: tuple[str, ...]
    dates: tuple[str, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    prices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, t = len(self.asset_ids), len(self.dates)
        for name in OHLC:
            shape = getattr(self, name).shape
            if shape != (m, t):
                raise AlignmentError(f"{name} has shape {shape}, expected {(m, t)}")
        if m < 1:
            raise AlignmentError("need at least one asset, the benchmark")
        prices = np.array([getattr(self, name) for name in OHLC], dtype=np.float64)
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)
        for name, row in zip(OHLC, prices):
            object.__setattr__(self, name, row)

    @property
    def benchmark_index(self) -> int:
        return len(self.asset_ids) - 1

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
        return AlignedMarket(self.asset_ids, self.dates[lo : hi + 1], *self.prices[:, :, lo : hi + 1])


def align(markets: list[AlignedMarket], benchmark: str) -> AlignedMarket:
    """Join every asset row of ``markets``, in input order, on the dates they all
    share, and move the benchmark's row last."""
    ids = [asset for market in markets for asset in market.asset_ids]
    if len(ids) < 2:
        raise AlignmentError("need at least two assets (one benchmark, one asset)")
    if len(set(ids)) != len(ids):
        raise AlignmentError("duplicate asset ids")
    if benchmark not in ids:
        raise AlignmentError(f"benchmark {benchmark!r} not among assets {ids}")

    dates = tuple(sorted(set(markets[0].dates).intersection(*(m.dates for m in markets[1:]))))
    if not dates:
        raise AlignmentError("no common trading days across " + ", ".join(ids))

    order = [asset for asset in ids if asset != benchmark] + [benchmark]
    slot = {asset: k for k, asset in enumerate(order)}
    prices = np.empty((4, len(order), len(dates)))
    for market in markets:  # each market's rows gathered straight into their slots
        pos = {d: k for k, d in enumerate(market.dates)}
        columns = np.array([pos[d] for d in dates], dtype=np.intp)
        prices[:, [slot[asset] for asset in market.asset_ids]] = market.prices[:, :, columns]
    return AlignedMarket(tuple(order), dates, *prices)


@dataclass(frozen=True)
class PriceTensor:
    """One day's normalized observation window of shape (4 features, m assets, window)."""

    data: np.ndarray
    t: int
    window: int


def price_block(market: AlignedMarket, first: int, last: int, window: int) -> np.ndarray:
    """Read-only (last - first + 1, 4, m, window) windows of days first..last.

    Row k is the window of per-asset prices ending at day first + k, divided
    by each asset's close on that day. Missing (zero) prices yield ratio 1,
    so an untradeable asset-day reads as flat. The close feature's final
    column is exactly all ones.
    """
    if window < 2:
        raise WindowError(f"window must be >= 2, got {window}")
    if first < window - 1:
        raise WindowError(f"day {first} has only {first + 1} days of history, window needs {window}")
    if last >= len(market):
        raise WindowError(f"day {last} beyond market length {len(market)}")
    if last < first:
        raise WindowError(f"empty day range [{first}, {last}]")

    denom = market.close[:, first : last + 1].T[:, None, :, None]  # (days, 1, m, 1)
    prices = market.prices[_FEATURE_ROWS, :, first - window + 1 : last + 1]  # (4, m, span)
    windows = sliding_window_view(prices, window, axis=2).transpose(2, 0, 1, 3)
    data = np.ones(windows.shape)
    np.divide(windows, denom, out=data, where=(denom > 0) & (windows > 0))
    # The close feature's last column, the anchor, is c / c or a missing 1:
    # exactly one either way.
    data.flags.writeable = False
    return data


def price_tensor(market: AlignedMarket, t: int, window: int) -> PriceTensor:
    """The normalized window ending at day t: one row of ``price_block``."""
    return PriceTensor(data=price_block(market, t, t, window)[0], t=t, window=window)


def relative_prices(market: AlignedMarket, t: int | np.ndarray) -> np.ndarray:
    """Close-over-previous-close vector of length m+1 for day t; element 0 is cash
    and fixed at 1. Given an array of days, one such row per day.

    Any day involving a missing close reads as flat (ratio 1).
    """
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t >= len(market)):
        raise WindowError(f"day {t} has no previous day or is beyond the market")
    y = np.ones(t.shape + (market.n_assets + 1,))
    cur, prev = market.close[:, t].T, market.close[:, t - 1].T
    np.divide(cur, prev, out=y[..., 1:], where=(cur > 0) & (prev > 0))
    return y
