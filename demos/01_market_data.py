"""From raw OHLC files to the normalized observation block an agent sees.

Writes a tiny synthetic market to CSV, ingests it back, aligns the series on
their common dates, and builds the (4, assets, window) price tensor for one
trading day.
"""

import tempfile
from pathlib import Path

import numpy as np

from drlfolio import align, load_csv, price_tensor, relative_prices
from drlfolio.synthetic import drift_market, write_market_csvs

workdir = Path(tempfile.mkdtemp(prefix="drlfolio_demo_"))

# Two stocks plus a benchmark index, 120 trading days, deterministic paths.
market = drift_market(120, [0.004, -0.002, 0.0005], sigma=0.01, seed=3,
                      asset_ids=["stock_a", "stock_b", "index"])
write_market_csvs(market, workdir)
print(f"wrote {[p.name for p in sorted(workdir.glob('*.csv'))]} under {workdir}")

# Ingest each file as a one-asset market: dates come back sorted, zero marks a
# missing price.
series = [load_csv(p) for p in sorted(workdir.glob("*.csv"))]
print(f"loaded {len(series)} series, first asset {series[0].asset_ids[0]!r}, "
      f"{len(series[0])} days")

# Alignment joins the markets on their common dates and moves the benchmark to
# the last slot.
aligned = align(series, benchmark="index")
print(f"aligned market: assets {aligned.asset_ids}, {len(aligned)} days")

# The observation for day t: every feature divided by that asset's close at t.
t, window = 80, 50
x = price_tensor(aligned, t, window)
print(f"\nprice tensor for day {t}: shape {x.data.shape}")
print("close-feature last column (the anchor, always ones):", x.data[0, :, -1])
print("close-feature first column (prices 49 days ago, relative):",
      np.round(x.data[0, :, 0], 4))

# Price relatives drive the portfolio arithmetic; cash is pinned at 1.
y = relative_prices(aligned, t)
print(f"\nday-{t} price relatives (cash first):", np.round(y, 5))
