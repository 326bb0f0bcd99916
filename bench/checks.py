"""Output checks the benchmark applies to every operation it times.

Each check raises ``CheckFailed``; the runner counts that operation as failed.
"""

from __future__ import annotations

import math

import numpy as np

TELESCOPE_TOL = 1e-10


class CheckFailed(Exception):
    pass


def weight_rows_valid(weights: np.ndarray, validate_weights) -> None:
    """Every row passes the package's own weight validator."""
    for k, row in enumerate(weights):
        try:
            validate_weights(row)
        except ValueError as exc:
            raise CheckFailed(f"weight row {k} invalid: {exc}") from exc


def telescopes(log_returns: np.ndarray, values: np.ndarray) -> None:
    """Daily log returns sum to the log of the final value (the start value is 1)."""
    if values[0] != 1.0:
        raise CheckFailed(f"value series starts at {values[0]!r}, not 1")
    gap = abs(math.fsum(log_returns) - math.log(values[-1]))
    if not gap <= TELESCOPE_TOL:
        raise CheckFailed(f"log returns miss log(final value) by {gap:.3e}")


def factor_weights_valid(weights: np.ndarray, long_n: int, short_n: int) -> None:
    """Rows hold long_n names at +1/(long_n+short_n), short_n at minus that, zeros elsewhere."""
    unit = 1.0 / (long_n + short_n)
    for k, row in enumerate(weights):
        longs, shorts = int(np.sum(row == unit)), int(np.sum(row == -unit))
        if (longs, shorts) != (long_n, short_n) or longs + shorts + int(np.sum(row == 0.0)) != len(row):
            raise CheckFailed(f"factor row {k} is not a {long_n}/{short_n} equal-weight book")
        if abs(np.abs(row).sum() - 1.0) > 1e-12:
            raise CheckFailed(f"factor row {k}: |w| sums to {np.abs(row).sum()!r}")


def market_matches(loaded, expected) -> None:
    """The ingested market is bit-for-bit the generated one (CSV cells round-trip via repr)."""
    if loaded.asset_ids != expected.asset_ids or loaded.dates != expected.dates:
        raise CheckFailed("ingested market has other assets or dates than were generated")
    for name in ("open", "high", "low", "close"):
        if not np.array_equal(getattr(loaded, name), getattr(expected, name)):
            raise CheckFailed(f"ingested {name} prices differ from the generated ones")


def panel_matches(loaded, expected) -> None:
    if loaded.asset_ids != expected.asset_ids or loaded.dates != expected.dates:
        raise CheckFailed("ingested factor panel has other assets or dates than were generated")
    for name in ("ep_ratio", "turnover"):
        if not np.array_equal(getattr(loaded, name), getattr(expected, name), equal_nan=True):
            raise CheckFailed(f"ingested {name} differs from the generated panel")


def finite_training(networks, records) -> None:
    for net in networks:
        for p in net.params():
            if not np.all(np.isfinite(p)):
                raise CheckFailed("trained parameters are not finite")
    for r in records:
        if not all(math.isfinite(x) for x in (r.mean_daily_return, r.final_value, r.mean_cost)):
            raise CheckFailed(f"train log episode {r.episode} is not finite")


def same_parameters(loaded_networks, networks) -> None:
    """Parameters agree bit for bit, shape by shape."""
    for loaded, original in zip(loaded_networks, networks, strict=True):
        a, b = loaded.params(), original.params()
        if len(a) != len(b) or any(
            x.shape != y.shape or x.tobytes() != y.tobytes() for x, y in zip(a, b)
        ):
            raise CheckFailed("checkpoint does not reload bit-exactly")
