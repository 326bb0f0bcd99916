"""Backtest reports and the seven summary metrics.

A backtest is a deterministic contiguous run (no sampled windows, no
exploration noise) starting from all-cash at value 1. The policy is called
once, on all the run's observation rows, and the days are then settled
together, bit for bit as day-by-day environment steps would settle them. The
report carries the full per-day trajectories; the metric suite reduces them
to seven numbers.
Conventions: sqrt(252) annualization, zero risk-free rate, population
deviations, and None (never infinity) when a ratio's denominator is zero.
"""

import tempfile
from pathlib import Path

import numpy as np

from drlfolio import EnvConfig, max_drawdown, metric_suite, run_backtest
from drlfolio.analytics import write_report
from drlfolio.synthetic import drift_market

market = drift_market(300, [0.003, -0.002, 0.0008, 0.0], sigma=0.012, seed=21)
config = EnvConfig(window=20, episode_len=10, mu=0.0025)

# A fixed long/short book as the strategy under test. A policy maps the run's
# observation rows, (days, 4, m, window), to one raw action per day.
book = np.array([0.1, 0.45, -0.25, 0.2, 0.0])
report = run_backtest(lambda obs: np.tile(book, (len(obs), 1)), market, config, 30, 282)

print(f"days: {len(report.day_indices)}, final value: {report.values[-1]:.4f}")
print(f"costs: first day {report.costs[0]:.6f}, "
      f"after that around {report.costs[1:].mean():.2e} (drift only)")

metrics = metric_suite(report)
for name, value in metrics.items():
    print(f"{name:>22}: {value if value is None else round(value, 6)}")

# Drawdown on a hand series: peak 1.2 to trough 0.9 is a quarter lost.
print("\nmax_drawdown([1, 1.2, 0.9, 1.1]) =", max_drawdown(np.array([1.0, 1.2, 0.9, 1.1])))

# Reports serialize to JSON + CSV files any plotting tool can consume.
out = Path(tempfile.mkdtemp(prefix="drlfolio_report_"))
write_report(report, out)
print(f"\nwrote {sorted(p.name for p in out.iterdir())} to {out}")
